"""Error statistics of block ensembles feeding one purification cascade.

The per-block closed forms live in `channels`: a decoherent block's parity
bias prod_i (1 - 2 p_i) and the |11> weight it implies, and a coherent
block's accumulated flip angle.  On top of them sit ensemble quantities:
many independently drawn blocks feed one purification cascade, so averages
of the per-block numbers (and of log-tangent contamination measures) decide
whether the cascade converges.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from .channels import _alpha3_from_bias
from .rng import invert_cdf, trial_uniforms

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# -- per-bit angle distributions and their cosine moments ------------------------

# the gaussian moment's quadrature: points on [-span, span] standard deviations
_QUADRATURE_SPAN = 12.0
_QUADRATURE_POINTS = 200_001


def characteristic_cos_moment(p: float, m: int) -> float:
    """Literal E[cos(m * theta)] for the gaussian per-bit flip-angle law.

    `p` is the mean squared tangent E[tan^2 theta], with tan(theta) =
    sqrt(p) * Z and Z standard normal (computed by dense quadrature).  The
    two_point law needs no moments: `ensemble_log_tan` sums its lattice
    exactly.
    """
    if p < 0.0:
        raise ValueError("p must be >= 0")
    z = np.linspace(-_QUADRATURE_SPAN, _QUADRATURE_SPAN, _QUADRATURE_POINTS)
    density = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    vals = np.cos(m * np.arctan(math.sqrt(p) * z))
    return float(np.trapezoid(vals * density, z))


# -- block ensembles --------------------------------------------------------------

_MODELS = ("decoherent", "unitary")
_DISTRIBUTIONS = ("two_point", "gaussian")


class _EnsembleFields(NamedTuple):
    n: int
    levels: int
    model: str
    p: float
    defect_fraction: float = 0.0
    defect_p: float = 0.9
    distribution: str = "two_point"


class BlockEnsemble(_EnsembleFields):
    """Independent per-block error draws feeding one purification cascade.

    A cascade of `levels` rounds consumes 2**levels raw blocks.  In a
    decoherent ensemble each bit of a block independently becomes defective
    with probability `defect_fraction` and flips with probability `defect_p`
    (> 1/2, i.e. worse than chance); otherwise it flips with probability
    `p`.  So a block's defect count, which alone sets its parity bias, is
    Binomial(n, defect_fraction), and contamination genuinely varies across
    the ensemble.  Unitary ensembles draw per-bit flip angles theta with
    E[tan^2 theta] = p from a sign-symmetric `distribution`; a two_point
    block's angle is set by its count of minus signs, Binomial(n, 1/2).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.levels < 0:
            raise ValueError("levels must be >= 0")
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}")
        if self.model == "decoherent":
            if not 0.0 <= self.p <= 1.0:
                raise ValueError("decoherent p must lie in [0, 1]")
            if not 0.0 <= self.defect_fraction <= 1.0:
                raise ValueError("defect_fraction must lie in [0, 1]")
            if self.defect_fraction > 0.0 and not 0.5 < self.defect_p <= 1.0:
                raise ValueError("defective bits flip with probability > 1/2")
        else:
            if self.p < 0.0:
                raise ValueError("unitary p (mean squared tangent) must be >= 0")
            if self.distribution not in _DISTRIBUTIONS:
                raise ValueError(f"distribution must be one of {_DISTRIBUTIONS}")
            if self.defect_fraction != 0.0:
                raise ValueError("defective bits are a decoherent-model feature")
        return self

    @property
    def block_count(self) -> int:
        return 2**self.levels

    def mean_flip_probability(self) -> float:
        """Exact marginal of p_i under the independent-defect policy."""
        if self.model != "decoherent":
            raise ValueError("mean flip probability applies to decoherent ensembles")
        frac = self.defect_fraction
        return (1.0 - frac) * self.p + frac * self.defect_p

    def analytic_marginal_fidelity(self) -> float:
        """1 - exp(-2^(levels+1) (1 - 2 m)^n) / 3 at the marginal flip probability m.

        The cascade fidelity predicted from the policy's exact marginal alone,
        so it needs no draw.  A marginal above 1/2 at odd n makes the exponent
        positive; where its exp overflows, the result is minus infinity.
        """
        scale = float(2 ** (self.levels + 1))
        marginal = self.mean_flip_probability()
        try:
            return 1.0 - math.exp(-scale * (1.0 - 2.0 * marginal) ** self.n) / 3.0
        except OverflowError:
            return -math.inf

    def expected_log_alpha3(self) -> float:
        """Exact E[log alpha3] over defect draws for one block.

        The contamination weight depends on the defect positions only through
        their count, so the expectation is a sum over the table of the
        defect-count law, which the sampler reads too.  This is the comparator
        that concentrates: sums of log alpha3 across blocks obey a CLT even
        when the contamination product itself is heavy-tailed.
        """
        if self.model != "decoherent":
            raise ValueError("log-contamination applies to decoherent ensembles")
        return _defect_law(self).expected


class _DefectLaw(NamedTuple):
    """A block's count law, one row per count k of positive binomial weight:
    the weight, the log-contamination of a block of count k, and the running
    sums of the weights, capped at 1 and the last set to 1, so that every
    uniform in [0, 1) inverts to a row."""

    counts: np.ndarray
    weights: np.ndarray
    log_contamination: np.ndarray
    cdf: np.ndarray
    expected: float  # sum of weight x log-contamination, in increasing k


def _log_binomial_weight(n: int, k: int, frac: float) -> float:
    """log of C(n, k) frac^k (1 - frac)^(n - k), through lgamma; exact at
    frac 0 and 1, where it is 0 or minus infinity."""
    if frac == 0.0:
        return 0.0 if k == 0 else -math.inf
    if frac == 1.0:
        return 0.0 if k == n else -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * math.log(frac) + (n - k) * math.log1p(-frac))


# a log weight below this is far below the log of the least double, -744.4,
# whatever the rounding of its lgamma terms, and so is a weight that rounds to 0
_LOG_WEIGHT_FLOOR = -800.0


def _first_count(n: int, frac: float) -> int:
    """The least count k of Binomial(n, frac) whose log weight is not below
    `_LOG_WEIGHT_FLOOR`, by bisection: the log weight rises from k 0 up to
    the mode, and floor(n frac) is at the mode or one count below it."""
    low, high = 0, int(n * frac)
    if _log_binomial_weight(n, low, frac) >= _LOG_WEIGHT_FLOOR:
        return 0
    while high - low > 1:
        mid = (low + high) // 2
        if _log_binomial_weight(n, mid, frac) < _LOG_WEIGHT_FLOOR:
            low = mid
        else:
            high = mid
    return high


@functools.lru_cache(maxsize=8)
def _defect_law(ensemble: BlockEnsemble) -> _DefectLaw:
    """The count law of `ensemble`'s blocks, built once: a decoherent
    block's defect count, Binomial(n, defect_fraction), with log alpha3 (a
    ValueError where it is undefined: bias -1 or vanishing contamination),
    or a two_point block's sign count K, Binomial(n, 1/2), with
    log|tan((n - 2K) arctan sqrt(p))|, minus infinity at angle 0."""
    n, two_point = ensemble.n, ensemble.model == "unitary"
    frac = 0.5 if two_point else ensemble.defect_fraction
    good, bad = 1.0 - 2.0 * ensemble.p, 1.0 - 2.0 * ensemble.defect_p
    theta = math.atan(math.sqrt(ensemble.p))
    counts, weights, logs = [], [], []
    expected = 0.0
    # every count below the first has no weight, and is skipped unread
    for k in range(_first_count(n, frac), n + 1):
        weight = math.exp(_log_binomial_weight(n, k, frac))
        if weight == 0.0:
            if k > n * frac:  # past the mode of a unimodal law, no weight is left
                break
            continue
        if two_point:
            tangent = abs(math.tan((n - 2 * k) * theta))
            logs.append(math.log(tangent) if tangent else -math.inf)
        else:
            alpha = _alpha3_from_bias(good ** (n - k) * bad**k)
            if alpha <= 0.0:
                raise ValueError("contamination vanishes for a defect count; "
                                 "log-contamination is undefined")
            logs.append(math.log(alpha))
        counts.append(k)
        weights.append(weight)
        expected += weight * logs[-1]
    cdf = np.minimum(np.cumsum(weights), 1.0)
    cdf[-1] = 1.0
    law = _DefectLaw(np.array(counts), np.array(weights), np.array(logs), cdf, expected)
    for table in law[:4]:
        table.flags.writeable = False  # shared by every caller of the cache
    return law


def cascade_fidelity(log_contamination: float) -> float:
    """3 / (3 + c), the purified pair's fidelity at contamination product
    c = exp(log_contamination), also where c overflows."""
    if log_contamination < 700.0:
        return 3.0 / (3.0 + math.exp(log_contamination))
    tail = 3.0 * math.exp(-log_contamination)
    return tail / (1.0 + tail)


# -- ensemble-level quantities -----------------------------------------------------

class EnsembleFidelity(NamedTuple):
    """Purified-ancilla fidelity of sampled cascades, one entry per trial.

    empirical:         3 / (3 + prod_m alpha3^(m)) over the trial's blocks.
    log_contamination: sum_m log alpha3^(m), summed in block order; finite
                       where the product underflows to 0.
    """

    empirical: np.ndarray
    log_contamination: np.ndarray


# uniforms `_sample_log_sums` draws at once, one `rng` slab: bounds its
# working arrays to a few MiB however many blocks a cascade has
_SEGMENT_DRAWS = 2**17


def _sample_log_sums(law: _DefectLaw, seed: int, start: int, stop: int,
                     blocks: int) -> np.ndarray:
    """The summed log-contamination of `blocks` blocks, for each trial
    start..stop-1: block i of trial t inverts uniform i of the substream
    (seed, t) through the law's CDF, and a trial sums its blocks' in block
    order (np.cumsum adds in order; np.sum pairs), `_SEGMENT_DRAWS` uniforms
    at a time, each segment's sums running on from the last one's."""
    width = max(1, _SEGMENT_DRAWS // max(stop - start, 1))
    sums = np.zeros(stop - start)
    for b0 in range(0, blocks, width):
        rows = invert_cdf(law.cdf, trial_uniforms(seed, start, stop, min(width, blocks - b0),
                                                  b0))
        logs = law.log_contamination[rows]
        del rows  # each working array is freed as soon as it is used
        if b0:
            logs[:, 0] += sums
        np.cumsum(logs, axis=1, out=logs)
        sums = logs[:, -1].copy()
        del logs
    return sums


def ensemble_distill_fidelity(ensemble: BlockEnsemble, *, seed: int, start: int,
                              stop: int) -> EnsembleFidelity:
    """Fidelity after a full cascade fed by independently drawn blocks, for
    each trial start..stop-1: the sum of its 2**levels blocks' log alpha3."""
    if ensemble.model != "decoherent":
        raise ValueError("the fidelity cascade formula applies to decoherent ensembles")
    log_contamination = _sample_log_sums(_defect_law(ensemble), seed, start, stop,
                                         ensemble.block_count)
    empirical = np.array([cascade_fidelity(x) for x in log_contamination.tolist()])
    return EnsembleFidelity(empirical, log_contamination)


class LogTanEstimate(NamedTuple):
    """<log |tan(block flip angle)|> by Monte Carlo, and its comparators.

    monte_carlo:    sample mean over `trials` independent blocks (+- standard_error).
    series:         -sum_k 2/(2k+1) * E[cos(2(2k+1) theta)]^n with literal
                    per-bit moments (by quadrature); gaussian only.
    closed_form:    same series with the moments replaced by exp(-2(2k+1)^2 p),
                    giving -sum_k 2/(2k+1) exp(-2(2k+1)^2 p n); gaussian only.
    bound:          -2 exp(-2 p n), the leading closed-form term; the true
                    mean lies below it when the series terms keep their signs;
                    gaussian only.
    exact:          two_point only: E[log|tan((n - 2K) arctan sqrt(p))|] over
                    the sign count K ~ Binomial(n, 1/2), minus infinity at
                    even n.  A lattice law's moments do not decay, so no
                    truncated series stands in for it.
    atom_weight:    two_point only: the chance of a block of angle 0.
    """

    monte_carlo: float
    standard_error: float
    series: Optional[float]
    closed_form: Optional[float]
    bound: Optional[float]
    trials: int
    series_terms: Optional[int]
    exact: Optional[float] = None
    atom_weight: Optional[float] = None


# trials whose blocks `ensemble_log_tan` draws in one array
LOG_TAN_CHUNK = 8_192
# `ensemble_log_tan` ends each series at its first term below this
_TERM_TOL = 1e-15


def ensemble_log_tan(ensemble: BlockEnsemble, *, trials: int = 100_000,
                     seed: int, k_max: int = 400) -> LogTanEstimate:
    """Average log-tangent contamination of a coherent-error block ensemble.

    Two_point trial t is one block from the substream (seed, t), drawn by
    `_sample_log_sums`; at even n the atom at angle 0 makes `exact` -inf.  A
    gaussian ensemble draws all tangents from the substream (seed, 0); its
    sign-symmetric law kills the odd terms of its series.  Both add their
    values and squares in trial order, whatever `LOG_TAN_CHUNK`.
    """
    if ensemble.model != "unitary":
        raise ValueError("log-tangent statistics apply to unitary ensembles")
    if trials < 2:
        raise ValueError("need at least 2 trials")

    two_point = ensemble.distribution == "two_point"
    if two_point:
        law = _defect_law(ensemble)
    else:
        from .rng import trial_rng
        rng = trial_rng(seed, 0)
        scale = math.sqrt(ensemble.p)
    total = total_sq = 0.0
    for start in range(0, trials, LOG_TAN_CHUNK):
        stop = min(start + LOG_TAN_CHUNK, trials)
        if two_point:
            vals = _sample_log_sums(law, seed, start, stop, 1)
        else:
            tangents = scale * rng.standard_normal((stop - start, ensemble.n))
            sigma = np.sum(np.arctan(tangents), axis=1)
            with np.errstate(divide="ignore"):
                vals = np.log(np.abs(np.tan(sigma)))
        # cumsum adds in trial order, so the sums do not depend on the block size
        sums = np.stack((vals, vals * vals))
        sums[:, 0] += (total, total_sq)
        total, total_sq = np.cumsum(sums, axis=1)[:, -1].tolist()
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    se = math.sqrt(var / trials)

    if ensemble.distribution == "two_point":
        atom = float(np.sum(law.weights[np.isneginf(law.log_contamination)]))
        return LogTanEstimate(mean, se, None, None, None, trials, None, law.expected, atom)

    series = 0.0
    terms = 0
    pn = ensemble.p * ensemble.n
    for k in range(k_max + 1):
        m_arg = 2 * (2 * k + 1)
        moment = characteristic_cos_moment(ensemble.p, m_arg)
        term = -(2.0 / (2 * k + 1)) * moment**ensemble.n
        series += term
        terms = k + 1
        if abs(term) < _TERM_TOL:
            break

    closed = 0.0
    for k in range(k_max + 1):
        term = -(2.0 / (2 * k + 1)) * math.exp(-2.0 * (2 * k + 1) ** 2 * pn)
        closed += term
        if abs(term) < _TERM_TOL:
            break

    bound = -2.0 * math.exp(-2.0 * pn)
    return LogTanEstimate(mean, se, series, closed, bound, trials, terms)


__all__ = [
    "BlockEnsemble",
    "EnsembleFidelity",
    "LOG_TAN_CHUNK",
    "LogTanEstimate",
    "cascade_fidelity",
    "characteristic_cos_moment",
    "ensemble_distill_fidelity",
    "ensemble_log_tan",
]
