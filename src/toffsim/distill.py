"""Purifying noisy pair ancillas by pairwise parity checks.

A noisy pair ancilla is summarized by its coefficients (a1, a2, a3) in the
operator form of `ancilla.MixedAncilla`.  The purification step takes two
such states, checks both cross parities, and disentangles one copy; on
success the coefficients multiply componentwise, so the |11> contamination
squares each round while the ideal part is untouched.

Both faces are provided: the closed-form coefficient algebra (`combine`)
and the explicit four-qubit circuit (`combine_states`), which must agree
and are tested against each other.  A tree fed by identically prepared raw
copies passes its level-k checks with one probability p_k, and
`level_success_probabilities` is the one function that builds the table of
the p_k.  `sample_trees` samples the retries of a block of whole trees from
that table, level by level in array passes; `distill_tree` is its one-tree
call.
"""

from __future__ import annotations

import math
import numbers
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from . import rng
from .ancilla import MixedAncilla, _zero_weight_error
from .core import (
    QuantumState,
    apply_gate,
    drop_qubit,
    measure_operator,
    tensor,
    z_product,
)


def success_probability(x: MixedAncilla, y: MixedAncilla) -> float:
    """Chance both parity checks pass: (3 + a3 a3') / ((3 + a3)(3 + a3'))."""
    weights = complex(x.weight) * complex(y.weight)
    if weights == 0:
        raise _zero_weight_error()
    val = (3.0 + complex(x.a3) * complex(y.a3)) / weights
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ValueError("success probability undefined for non-real a3")
    return float(val.real)


def combine(x: MixedAncilla, y: MixedAncilla) -> Tuple[MixedAncilla, float]:
    """One purification step in coefficient form.

    Returns the post-success coefficients (componentwise products) and the
    success probability of the two parity checks.
    """
    out = MixedAncilla(x.a1 * y.a1, x.a2 * y.a2, x.a3 * y.a3)
    return out, success_probability(x, y)


def combine_states(x: QuantumState, y: QuantumState) -> Tuple[QuantumState, float]:
    """One purification step as an explicit circuit on two two-qubit states.

    Postselects both cross parities at +1, copies the survivor's bits out of
    the second pair with two CNOTs, and removes the second pair, which is
    left exactly in |00>.  Returns the surviving state (on `x`'s labels,
    norm convention unrenormalized) and the success probability.
    """
    if x.n_qubits != 2 or y.n_qubits != 2:
        raise ValueError("combine_states expects two-qubit states")
    a, b = x.labels
    c, d = y.labels
    joint = tensor(x, y)
    joint, rec1 = measure_operator(joint, z_product(a, c), postselect=+1)
    joint, rec2 = measure_operator(joint, z_product(b, d), postselect=+1)
    joint = apply_gate(joint, "CNOT", a, c)
    joint = apply_gate(joint, "CNOT", b, d)
    out = drop_qubit(joint, c, expected_bit=0)
    out = drop_qubit(out, d, expected_bit=0)
    return out, rec1.probability * rec2.probability


def fidelity_after_rounds(a3: complex, rounds: int) -> float:
    """Fidelity to the ideal pair after balanced rounds: 3 / (3 + a3^(2^rounds))."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    return MixedAncilla.from_excess_weight(complex(a3) ** (2**rounds)).fidelity_to_pair()


# -- running a purification tree by sampling -----------------------------------

class DistillOutcome(NamedTuple):
    ancilla: MixedAncilla
    level: int
    combine_attempts: int
    combine_successes: int
    leaves_used: int


def level_success_probabilities(a3, levels: int) -> List[float]:
    """The table p_1..p_levels of a tree fed by raw ancillas of contamination a3.

    Entry k - 1 is the chance p_k that a level-k combine passes: the
    `success_probability` of two inputs of contamination a3 ** 2**(k - 1),
    each power formed by `**`.  These are the `distill` report's
    `level_success_probabilities`, and the table its trees are sampled from.
    """
    probs = []
    for k in range(levels):
        level_input = MixedAncilla.from_excess_weight(a3 ** 2**k)
        probs.append(success_probability(level_input, level_input))
    return probs


# uniforms between the first draws of consecutive levels in a tree's substream:
# level k reads from uniform k * _LEVEL_STRIDE on, so a budget below the
# stride keeps the levels' regions apart
_LEVEL_STRIDE = 2**32
# CDF entries computed at once when `_attempt_counts` inverts its uniforms
_CDF_CHUNK = 256


def _budget_error(max_attempts: int) -> RuntimeError:
    return RuntimeError(f"purification exceeded {max_attempts} combine attempts")


def _cdf_chunk(q: float, power: float):
    """The next `_CDF_CHUNK` entries 1 - q^g of `_attempt_counts`' table,
    after the entry whose power q^g is `power`, and the chunk's last power."""
    table = np.full(_CDF_CHUNK, q)
    table[0] *= power
    np.multiply.accumulate(table, out=table)
    power = table[-1]
    np.subtract(1.0, table, out=table)
    return table, power


def _attempt_counts(u: np.ndarray, q: float, limit: int) -> np.ndarray:
    """Geometric attempt counts, one per uniform of `u`, at failure chance q.

    A count is the least g >= 1 with u < T_g = 1 - q^g, where q^g is formed
    by repeated multiplication, so its bits depend on neither libm nor the
    SIMD target.  The table is computed `_CDF_CHUNK` entries at a time; the
    few uniforms past one chunk's last entry are looked up in the next,
    until the table passes `limit` entries.  Counts up to `limit` are exact,
    and a larger count reads a value above `limit`.
    """
    table, power = _cdf_chunk(q, 1.0)
    counts = rng.invert_cdf(table, u)
    counts += 1
    pending = np.flatnonzero(counts > _CDF_CHUNK)  # the uniforms past the table
    base = _CDF_CHUNK
    while pending.size:
        if base >= limit:
            counts[pending] = limit + 1
            break
        table, power = _cdf_chunk(q, power)
        found = rng.invert_cdf(table, u[pending])
        counts[pending] = found + (base + 1)
        pending = pending[found == _CDF_CHUNK]
        base += _CDF_CHUNK
    return counts


def _check_budget(level: int, max_attempts: int) -> None:
    """Refuse a budget at or above the level stride, and a tree of level 1 or
    more whose fewest attempts, 2**level - 1, exceed its budget."""
    if max_attempts >= _LEVEL_STRIDE:
        raise ValueError("max_attempts must be below 2**32")
    # every budget is below 2**32, so 2**33 - 1 attempts exceed them all
    if level and (1 << min(level, 33)) - 1 > max_attempts:
        raise _budget_error(max_attempts)


def sample_trees(probs: Sequence[float], *, seed: int, start: int, stop: int,
                 max_attempts: int = 100_000):
    """Sample the combine attempts of the level-L trees of trials
    start..stop-1, each on its own substream (seed, t), all at once, where
    L = len(probs) and probs[k - 1] is p_k, the chance that a level-k
    combine passes (`level_success_probabilities` builds this table).

    Returns three int64 arrays, one entry a tree: its combine attempts, its
    passed parity checks and the raw leaves it used.

    An attempt at level k pairs two level-(k - 1) outputs and passes with
    probability p_k; on failure both inputs are lost.  So a level-k output
    takes a Geometric(p_k) number of attempts, and each attempt consumes two
    outputs of the level below.  The trees are sampled from the top level
    down, one array pass a level: a tree needing N_k level-k outputs
    (N_L = 1) reads N_k uniforms from uniform k * 2**32 of its substream,
    turns each into an attempt count through `_attempt_counts`, and sums
    them into A_k; the level below needs N_(k-1) = 2 A_k.  Passed checks are
    the sum of the N_k, and leaves are 2 A_1.  A level-0 tree is the raw
    ancilla itself: no draw, one leaf.

    Edge cases: at p_k >= 1 every attempt passes and nothing is drawn; at
    p_k NaN or so small that 1 - p_k rounds to 1, no attempt passes.  A
    non-real p_k raises a ValueError before any draw.

    The run fails with a RuntimeError exactly when some tree's attempts
    exceed `max_attempts`.  The error is raised as soon as it is certain:
    before any draw when 2**L - 1, the fewest attempts a tree can make,
    exceeds the budget; before drawing level k when some tree's N_k alone
    exceeds what is left of its budget; and after each slab of draws.  The
    ragged draws come in slabs of `rng._SLAB_BLOCKS` Philox blocks, so no
    working array grows with the budget.
    """
    probs = list(probs)
    level = len(probs)
    seed, start, stop = rng.check_trials(seed, start, stop)
    _check_budget(level, max_attempts)
    trees = stop - start
    if level == 0:
        return (np.zeros(trees, dtype=np.int64), np.zeros(trees, dtype=np.int64),
                np.ones(trees, dtype=np.int64))
    if not all(isinstance(p, numbers.Real) for p in probs):
        raise ValueError("the per-level pass probabilities must be real")
    attempts = np.zeros(trees, dtype=np.int64)
    successes = np.zeros(trees, dtype=np.int64)
    need = np.ones(trees, dtype=np.int64)
    for k in range(level, 0, -1):
        q = 1.0 - probs[k - 1]
        room = max_attempts - attempts
        if not q < 1.0 or (need > room).any():
            raise _budget_error(max_attempts)
        successes += need
        if q <= 0.0:
            made = need
        else:
            made = np.zeros(trees, dtype=np.int64)
            limit = int(room.max())
            for rows, u in rng.ragged_uniforms(seed, start, need, k * _LEVEL_STRIDE):
                made += np.bincount(rows, weights=_attempt_counts(u, q, limit),
                                    minlength=trees).astype(np.int64)
                if (made > room).any():
                    raise _budget_error(max_attempts)
                del rows, u  # freed before the next slab is drawn
        attempts += made
        need = 2 * made
    return attempts, successes, need


def distill_tree(noise: MixedAncilla, level: int, *, seed: int, trial: int,
                 max_attempts: int = 100_000) -> DistillOutcome:
    """Produce one level-`level` ancilla from raw copies of `noise`,
    retrying failed parity checks: the tree of trial `trial` of
    `sample_trees` on the table `level_success_probabilities(noise.a3,
    level)`, on the substream (seed, trial).

    As all leaves are equal, every level-k combine has the same inputs and
    the same result, so the output is `level` rounds of `combine`; the
    tree's randomness lies in its counters alone, which are Python ints.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    _check_budget(level, max_attempts)  # before a table of `level` entries is built
    probs = level_success_probabilities(noise.a3, level)
    ancilla = noise
    for _ in range(level):
        ancilla, _ = combine(ancilla, ancilla)
    attempts, successes, leaves = sample_trees(probs, seed=seed, start=trial,
                                               stop=trial + 1, max_attempts=max_attempts)
    return DistillOutcome(ancilla, level, int(attempts[0]), int(successes[0]),
                          int(leaves[0]))


# -- operation-count calculus ---------------------------------------------------

class _CostFields(NamedTuple):
    success_probability: float = 1.0 / 3.0
    measurement_ratio: float = 2.0


class CostParams(_CostFields):
    """Knobs of the expected-operations recurrence.

    success_probability: chance one combine's parity checks both pass.
    measurement_ratio:  extra operations charged per produced ancilla for
        repeating measurements until their error is negligible at the
        working accuracy (log target error / log per-measurement error).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.success_probability <= 1.0:
            raise ValueError("success probability must be in (0, 1]")
        if self.measurement_ratio < 0.0:
            raise ValueError("measurement ratio must be >= 0")
        return self


def expected_ops(rounds: int, params: CostParams = CostParams()) -> float:
    """Expected operations to produce one ancilla purified through `rounds`.

    Solves G(0) = 1, G(k) = (2/P) G(k-1) + ratio in closed form:
    G(N) = (2/P)^N + ((2/P)^N - 1) / ((2/P) - 1) * ratio.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    r = 2.0 / params.success_probability
    growth = r**rounds
    return growth + (growth - 1.0) / (r - 1.0) * params.measurement_ratio


# the largest repetition count `measurement_majority_repeats` searches
_MAX_REPEATS = 10**6


def _majority_failure(r: int, eps_m: float) -> float:
    """Chance that a majority of r independent repeats, each wrong with
    probability eps_m, is wrong: sum_{k > r/2} C(r, k) eps_m^k (1 - eps_m)^(r - k).

    Each term is formed in logarithms, so no binomial coefficient or power
    overflows.
    """
    log_p, log_q, log_r = math.log(eps_m), math.log1p(-eps_m), math.lgamma(r + 1)
    return math.fsum(math.exp(log_r - math.lgamma(k + 1) - math.lgamma(r - k + 1)
                              + k * log_p + (r - k) * log_q)
                     for k in range(r, r // 2, -1))


def measurement_majority_repeats(eps: float, eps_m: float) -> int:
    """The smallest odd repetition count r whose majority vote errs with
    probability at most eps, for a measurement that errs with probability
    eps_m: `_majority_failure(r, eps_m) <= eps`.

    The failure falls as r grows through the odd counts when eps_m < 1/2,
    so r is found by doubling and then bisection.  At eps_m >= 1/2 no vote
    helps, and a count above `_MAX_REPEATS` is not searched for: both raise
    a ValueError.
    """
    if not 0.0 < eps < 1.0 or not 0.0 < eps_m < 1.0:
        raise ValueError("error rates must be in (0, 1)")
    if eps_m >= 0.5:
        raise ValueError("a majority vote cannot suppress an error rate of 1/2 or more")
    if eps_m <= eps:
        return 1  # one reading already errs at most eps; exact, as no sum is formed
    # odd counts as 2h + 1: find h with the failure at h - 1 above eps, at h within
    low, high = 0, 1
    while _majority_failure(2 * high + 1, eps_m) > eps:
        if 2 * high + 1 >= _MAX_REPEATS:
            raise ValueError(f"more than {_MAX_REPEATS} repeats needed")
        low, high = high, 2 * high + 1
    while high - low > 1:
        mid = (low + high) // 2
        if _majority_failure(2 * mid + 1, eps_m) > eps:
            low = mid
        else:
            high = mid
    return 2 * high + 1


__all__ = [
    "CostParams",
    "DistillOutcome",
    "combine",
    "combine_states",
    "distill_tree",
    "expected_ops",
    "fidelity_after_rounds",
    "level_success_probabilities",
    "measurement_majority_repeats",
    "sample_trees",
    "success_probability",
]
