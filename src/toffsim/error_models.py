"""Error statistics for cat-state mediated parity measurements.

Two error classes matter for the raw ancilla preparation and both reduce to
closed forms over the cat block:

* decoherent bit flips: each readout bit flips independently with its own
  probability, so the even-minus-odd flip parity carries the single number
  prod_i (1 - 2 p_i), which fixes how much |11> weight a reported-even
  preparation secretly carries;

* coherent single-qubit rotations: each readout bit is rotated by a small
  unitary, and (for pure bit-axis rotations) the block accumulates one flip
  angle additively, leaving the prepared state a coherent superposition with
  a tangent-of-the-sum contamination amplitude.

On top of the per-block formulas sit ensemble quantities: many independently
drawn blocks feed one purification cascade, so averages of the per-block
numbers (and of log-tangent contamination measures) decide whether the
cascade converges.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _ArrayRecord:
    """Base of the records that hold arrays: each field is set once, in
    `__init__`, and a record compares and hashes by identity."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


# -- decoherent channels ---------------------------------------------------------

class PauliChannel(_ArrayRecord):
    """Independent per-bit flip probabilities: p bit flips, q phase flips.

    Phase flips are tracked because they land on the readout bits too, but
    they never change a reported parity (they commute with the final Z
    readouts), so every outcome statistic here depends on p alone.
    """

    __slots__ = ("p", "q")

    def __init__(self, p, q=None):
        p = np.atleast_1d(np.asarray(p, dtype=np.float64))
        q = np.zeros_like(p) if q is None else np.atleast_1d(np.asarray(q, dtype=np.float64))
        if p.ndim != 1 or q.shape != p.shape:
            raise ValueError("p and q must be equal-length vectors")
        if p.size == 0:
            raise ValueError("channel needs at least one bit")
        for name, vec in (("p", p), ("q", q)):
            if not np.all((vec >= 0.0) & (vec <= 1.0)):  # NaN fails too
                raise ValueError(f"{name} entries must lie in [0, 1]")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def uniform(cls, n: int, p: float, q: float = 0.0) -> "PauliChannel":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(np.full(n, p), np.full(n, q))

    @property
    def n(self) -> int:
        return int(self.p.size)


def parity_bias(channel: PauliChannel) -> float:
    """E[(-1)^(#flips)] = prod_i (1 - 2 p_i), the even-minus-odd difference."""
    return float(np.prod(1.0 - 2.0 * channel.p))


class Alpha3Reading(NamedTuple):
    """|11> contamination implied by a reported-even noisy parity measurement."""

    value: float            # (1 - bias) / (1 + bias), exact
    large_n_approx: float   # 1 - 2*bias, the leading small-bias expansion
    bias: float             # prod_i (1 - 2 p_i)


def alpha3_decoherent(channel: PauliChannel) -> Alpha3Reading:
    """Exact and approximate |11> weight after postselecting a reported-even parity.

    The value lies in [0, 1] whenever the bias is nonnegative (all flip
    probabilities <= 1/2, or an even number above); blocks whose bias goes
    negative report worse than chance and the value exceeds 1.
    """
    bias = parity_bias(channel)
    return Alpha3Reading(_alpha3_from_bias(bias), 1.0 - 2.0 * bias, bias)


def _alpha3_from_bias(bias: float) -> float:
    """|11> weight (1 - bias) / (1 + bias) of a reported-even block of parity bias `bias`."""
    if 1.0 + bias <= 1e-300:
        raise ValueError("bias -1: the reported outcome is deterministic and wrong")
    return (1.0 - bias) / (1.0 + bias)


# -- coherent (unitary) per-bit errors -------------------------------------------

class UnitaryErrorSet(_ArrayRecord):
    """Per-bit single-qubit unitaries, rows (A, B, C, D) with A^2+B^2+C^2+D^2 = 1.

    The matrix of row j is [[A+iB, D+iC], [-D+iC, A-iB]]: A carries the
    identity part, B the phase-axis part, and C (with D) the bit-flip part
    that can corrupt parity readouts.  Rows with B = D = 0 are pure bit-axis
    rotations by angle arctan(C/A), which accumulate additively over a block.
    """

    __slots__ = ("coefficients",)  # shape (n, 4)

    def __init__(self, coefficients):
        coeff = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
        if coeff.ndim != 2 or coeff.shape[1] != 4 or coeff.shape[0] < 1:
            raise ValueError("coefficients must be an (n, 4) array of rows (A, B, C, D)")
        norms = np.sum(coeff * coeff, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("each row must satisfy A^2 + B^2 + C^2 + D^2 = 1")
        object.__setattr__(self, "coefficients", coeff)

    @classmethod
    def from_ratios(cls, ratios) -> "UnitaryErrorSet":
        """Pure bit-axis rotations with tan(angle_j) = ratios[j] (B = D = 0)."""
        r = np.atleast_1d(np.asarray(ratios, dtype=np.float64))
        with np.errstate(over="ignore"):
            r2 = r * r
        a = 1.0 / np.sqrt(1.0 + r2)
        # where r * r overflows, past |r| ~ 1.3e154, 1 / sqrt(1 + r^2) is 1 / |r|
        overflow = np.isinf(r2)
        a[overflow] = 1.0 / np.abs(r[overflow])
        rows = np.stack([a, np.zeros_like(a), r * a, np.zeros_like(a)], axis=1)
        return cls(rows)

    @classmethod
    def uniform_ratio(cls, n: int, ratio: float) -> "UnitaryErrorSet":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls.from_ratios(np.full(n, ratio))

    @property
    def n(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def is_bit_rotation(self) -> bool:
        """True when every row has B = D = 0 exactly."""
        return bool(np.all(self.coefficients[:, 1] == 0.0) and
                    np.all(self.coefficients[:, 3] == 0.0))

    def matrices(self) -> np.ndarray:
        """The per-bit 2x2 unitaries, shape (n, 2, 2)."""
        a, b, c, d = self.coefficients.T
        out = np.empty((self.n, 2, 2), dtype=np.complex128)
        out[:, 0, 0] = a + 1j * b
        out[:, 0, 1] = d + 1j * c
        out[:, 1, 0] = -d + 1j * c
        out[:, 1, 1] = a - 1j * b
        return out


def accumulated_flip_angle(errors: UnitaryErrorSet) -> float:
    """Exact flip angle of the whole block: sum of atan2(C_j, A_j).

    Exact only for pure bit-axis rotations, where per-bit angles add; raises
    otherwise.
    """
    if not errors.is_bit_rotation:
        raise ValueError("accumulated angle is only additive when all B = D = 0")
    a = errors.coefficients[:, 0]
    c = errors.coefficients[:, 2]
    return float(np.sum(np.arctan2(c, a)))


# -- per-bit angle distributions and their cosine moments ------------------------

# the gaussian moment's quadrature: points on [-span, span] standard deviations
_QUADRATURE_SPAN = 12.0
_QUADRATURE_POINTS = 200_001


def characteristic_cos_moment(distribution: str, p: float, m: int) -> float:
    """Literal E[cos(m * theta)] for the per-bit flip-angle distribution.

    `p` is the mean squared tangent E[tan^2 theta] for both supported
    distributions: "two_point" puts theta = +-arctan(sqrt(p)) with equal
    weight (exact cosine); "gaussian" puts tan(theta) = sqrt(p) * Z with Z
    standard normal (computed by dense quadrature).
    """
    if p < 0.0:
        raise ValueError("p must be >= 0")
    if distribution == "two_point":
        return float(math.cos(m * math.atan(math.sqrt(p))))
    if distribution == "gaussian":
        z = np.linspace(-_QUADRATURE_SPAN, _QUADRATURE_SPAN, _QUADRATURE_POINTS)
        density = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
        vals = np.cos(m * np.arctan(math.sqrt(p) * z))
        return float(np.trapezoid(vals * density, z))
    raise ValueError(f"unknown distribution {distribution!r}")


# -- block ensembles --------------------------------------------------------------

_MODELS = ("decoherent", "unitary")
_DISTRIBUTIONS = ("two_point", "gaussian")


class _EnsembleFields(NamedTuple):
    n: int
    levels: int
    model: str
    p: float
    q: float = 0.0
    defect_fraction: float = 0.0
    defect_p: float = 0.9
    distribution: str = "two_point"


class BlockEnsemble(_EnsembleFields):
    """Independent per-block error draws feeding one purification cascade.

    A cascade of `levels` rounds consumes 2**levels raw blocks.  Decoherent
    ensembles draw a PauliChannel per block: each bit independently becomes
    defective with probability `defect_fraction` and flips with probability
    `defect_p` (> 1/2, i.e. worse than chance); otherwise it flips with
    probability `p`.  Independent draws make defect positions uncorrelated
    and the block-to-block defect count fluctuate, so parity biases and
    contamination genuinely vary across the ensemble.  Unitary ensembles
    draw per-bit flip angles theta with E[tan^2 theta] = p from a
    sign-symmetric `distribution`.
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
            if not 0.0 <= self.q <= 1.0:
                raise ValueError("q must lie in [0, 1]")
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
        so it needs no draw.
        """
        scale = float(2 ** (self.levels + 1))
        marginal = self.mean_flip_probability()
        return 1.0 - math.exp(-scale * (1.0 - 2.0 * marginal) ** self.n) / 3.0

    def expected_log_alpha3(self) -> float:
        """Exact E[log alpha3] over defect draws for one block.

        The contamination weight depends on the defect positions only through
        their count, so the expectation is a binomial sum.  This is the
        comparator that concentrates: sums of log alpha3 across blocks obey a
        CLT even when the contamination product itself is heavy-tailed.
        """
        if self.model != "decoherent":
            raise ValueError("log-contamination applies to decoherent ensembles")
        n, frac = self.n, self.defect_fraction
        good, bad = 1.0 - 2.0 * self.p, 1.0 - 2.0 * self.defect_p
        total = 0.0
        for k in range(n + 1):
            if frac == 0.0:
                weight = 1.0 if k == 0 else 0.0
            elif frac == 1.0:
                weight = 1.0 if k == n else 0.0
            else:
                log_weight = (math.lgamma(n + 1) - math.lgamma(k + 1)
                              - math.lgamma(n - k + 1)
                              + k * math.log(frac) + (n - k) * math.log1p(-frac))
                weight = math.exp(log_weight)
            if weight == 0.0:
                continue
            bias = good ** (n - k) * bad**k
            alpha = (1.0 - bias) / (1.0 + bias)
            if alpha <= 0.0:
                raise ValueError("contamination vanishes for a defect count; "
                                 "log-contamination is undefined")
            total += weight * math.log(alpha)
        return total

    def _draw_flip_probabilities(self, rng: np.random.Generator,
                                 blocks: int) -> np.ndarray:
        """Per-bit flip probabilities of `blocks` decoherent blocks, shape (blocks, n).

        Bit j of block i is defective when the (i * n + j)-th uniform of `rng`
        is below `defect_fraction`; no uniform is drawn when that is 0.  So
        one call draws what `blocks` successive one-block calls would.
        """
        p = np.full((blocks, self.n), self.p)
        if self.defect_fraction > 0.0:
            p[rng.random((blocks, self.n)) < self.defect_fraction] = self.defect_p
        return p

    def _draw_tangents(self, rng: np.random.Generator, shape) -> np.ndarray:
        scale = math.sqrt(self.p)
        if self.distribution == "two_point":
            return scale * (1.0 - 2.0 * rng.integers(0, 2, size=shape).astype(np.float64))
        return scale * rng.standard_normal(shape)


# -- ensemble-level quantities -----------------------------------------------------

class EnsembleFidelity(NamedTuple):
    """Purified-ancilla fidelity, predicted and sampled.

    analytic:          1 - (1/3) exp(-2^(levels+1) * prod_i(1 - 2 <p_i>)) with
                       per-position means estimated from the sampled blocks.
    analytic_marginal: same expression with the policy-exact marginal mean.
    empirical:         3 / (3 + prod_m alpha3^(m)) over the sampled blocks.
    log_contamination: sum_m log alpha3^(m), finite where alpha_product, its
                       exp, underflows to 0.
    """

    analytic: float
    analytic_marginal: float
    empirical: float
    alpha_product: float
    mean_flip_probability: float
    log_contamination: float


def ensemble_distill_fidelity(ensemble: BlockEnsemble,
                              rng: np.random.Generator) -> EnsembleFidelity:
    """Fidelity after a full cascade fed by independently drawn blocks."""
    if ensemble.model != "decoherent":
        raise ValueError("the fidelity cascade formula applies to decoherent ensembles")
    p_matrix = ensemble._draw_flip_probabilities(rng, ensemble.block_count)
    # each block's bias as `parity_bias` computes it; math.log, not np.log,
    # summed in block order, keeps the result bit-identical to block-by-block
    log_alpha = 0.0
    for bias in np.prod(1.0 - 2.0 * p_matrix, axis=1).tolist():
        log_alpha += math.log(_alpha3_from_bias(bias))
    alpha_product = math.exp(log_alpha)
    empirical = 3.0 / (3.0 + alpha_product)

    scale = float(2 ** (ensemble.levels + 1))
    mean_per_position = p_matrix.mean(axis=0)
    analytic = 1.0 - math.exp(-scale * float(np.prod(1.0 - 2.0 * mean_per_position))) / 3.0
    return EnsembleFidelity(analytic, ensemble.analytic_marginal_fidelity(), empirical,
                            alpha_product, ensemble.mean_flip_probability(), log_alpha)


class LogTanEstimate(NamedTuple):
    """<log |tan(block flip angle)|> computed three ways, plus its upper bound.

    monte_carlo:    sample mean over `trials` independent blocks (+- standard_error).
    series:         -sum_k 2/(2k+1) * E[cos(2(2k+1) theta)]^n with literal
                    per-bit moments (quadrature for gaussian, exact for two_point).
    closed_form:    same series with the moments replaced by exp(-2(2k+1)^2 p),
                    giving -sum_k 2/(2k+1) exp(-2(2k+1)^2 p n).
    bound:          -2 exp(-2 p n), the leading closed-form term; the true
                    mean lies below it when the series terms keep their signs.
    """

    monte_carlo: float
    standard_error: float
    series: float
    closed_form: float
    bound: float
    trials: int
    series_terms: int


# trials whose tangents `ensemble_log_tan` draws in one array
LOG_TAN_CHUNK = 8_192
# `ensemble_log_tan` ends each series at its first term below this
_TERM_TOL = 1e-15


def ensemble_log_tan(ensemble: BlockEnsemble, *, trials: int = 100_000,
                     rng: np.random.Generator, k_max: int = 400) -> LogTanEstimate:
    """Average log-tangent contamination of a coherent-error block ensemble.

    Requires a sign-symmetric angle distribution (both built-ins are), which
    kills the odd terms of the underlying series.  A two_point ensemble with
    even n has an atom at total angle 0 where log|tan| = -inf; the Monte
    Carlo mean then diverges honestly rather than being masked.
    """
    if ensemble.model != "unitary":
        raise ValueError("log-tangent statistics apply to unitary ensembles")
    if trials < 2:
        raise ValueError("need at least 2 trials")

    total = 0.0
    total_sq = 0.0
    done = 0
    while done < trials:
        m = min(LOG_TAN_CHUNK, trials - done)
        tangents = ensemble._draw_tangents(rng, (m, ensemble.n))
        sigma = np.sum(np.arctan(tangents), axis=1)
        with np.errstate(divide="ignore"):
            vals = np.log(np.abs(np.tan(sigma)))
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        done += m
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    se = math.sqrt(var / trials)

    series = 0.0
    terms = 0
    pn = ensemble.p * ensemble.n
    for k in range(k_max + 1):
        m_arg = 2 * (2 * k + 1)
        moment = characteristic_cos_moment(ensemble.distribution, ensemble.p, m_arg)
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
    "Alpha3Reading",
    "BlockEnsemble",
    "EnsembleFidelity",
    "LOG_TAN_CHUNK",
    "LogTanEstimate",
    "PauliChannel",
    "UnitaryErrorSet",
    "accumulated_flip_angle",
    "alpha3_decoherent",
    "characteristic_cos_moment",
    "ensemble_distill_fidelity",
    "ensemble_log_tan",
    "parity_bias",
]
