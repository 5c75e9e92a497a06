"""Measuring two-qubit parities through a cat-state readout block.

The controlled phase between two qubits, viewed as a Hermitian involution,
can be measured without touching the pair coherently: a block of n readout
bits is prepared in the even-parity cat state, every bit is coupled to the
pair by a Toffoli (which flips the readout bit exactly when the pair sits in
|11>, the -1 eigenstate), and each readout bit is measured in the
computational basis.  The product of the n single-bit outcomes reports the
eigenvalue while the pair is projected onto an eigenspace.  Every matrix the
readout applies to the pair has entries in {0, +-1}, so applying one rounds
nothing.

Bit-flip errors on the readout block flip the reported product without
damaging the projection; phase errors on readout bits never reach the
outcome statistics at all.  Small coherent rotations instead leave the pair
in a superposition of the two eigenspaces whose amplitude ratio follows the
accumulated flip angle of the block.

Two execution scales are provided, both at any n.  `exact` samples every
readout bit and keeps the pair's post-measurement state, so it takes
coherent errors; `effective` measures the pair directly and samples the
readout-error parity classically, which is faithful for Pauli errors
because only the flip parity ever touches the outcome.  In effective mode a
shot of a fixed pair state is three draws: the Born outcome, and the
block's bit-flip and phase-flip counts, each inverted through its exact
Poisson-binomial law (`rng.count_cdf`, tabulated once per channel).  It
leaves the pair in one of just two states, so `sample_effective` runs any
number of shots from one array of uniforms.  `sample_exact` does the same
for exact mode without ever building the readout block: after the probe the
joint state is a sum of two product terms, one per eigenvalue of the
readout bits' X, so each shot carries just two complex weights from bit to
bit, and each bit-identical pair state left at the end is labelled once, by
its weight on |11>.  Both samplers measure the controlled phase and return
one `ParityShots` record.

`sample_cphase` runs the sampler that `mode` names, and `uniform_count`
gives the uniforms one shot draws.  `prepare_raw_ancilla` and the
`noisy-meas` command read their rows from `rng.trial_uniforms`, so they
build no numpy `Generator`.  `measure_cphase_noisy` is the same readout on
one row drawn from a `Generator`; no library code calls it, and it stays as
the function `perfbench/tracer.py` times per shot and as the tests'
per-shot oracle.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    GATE_MATRICES,
    QuantumState,
    _measured_trace,
    gate,
    sample_outcomes,
)
from .ancilla import MixedAncilla
from .channels import PauliChannel, UnitaryErrorSet, alpha3_decoherent
from .rng import count_cdf, invert_cdf, trial_uniforms

ErrorModel = Union[PauliChannel, UnitaryErrorSet]


def cat_labels(n: int) -> Tuple[str, ...]:
    return tuple(f"c{i+1}" for i in range(n))


class RawPrepResult(NamedTuple):
    """One noisy parity measurement (or full raw preparation) of a qubit pair.

    true_eigenvalue is the eigenspace actually projected onto (None when
    coherent errors leave a superposition instead); reported_outcome is what
    the readout claimed, differing from the truth exactly when an odd number
    of readout bit flips occurred.  bit_flips and phase_flips count the
    readout block's Pauli errors.  alpha is the pair-basis contamination
    reading where one is defined: the exact decomposition of the prepared
    state for coherent errors, the channel-implied excess weight for
    decoherent ones.
    """

    logical_state: QuantumState
    reported_outcome: int
    true_eigenvalue: Optional[int]
    bit_flips: int
    phase_flips: int
    alpha: Optional[MixedAncilla] = None
    attempts: int = 1


class ParityShots(NamedTuple):
    """Shots of one noisy parity measurement of a fixed pair state.

    The arrays hold one entry per shot; a true eigenvalue of 0 marks a shot
    whose readout left the pair in a superposition of the eigenspaces.
    `logical_states` holds each distinct post-measurement pair state once;
    shot i ended in `logical_states[state_index[i]]`.
    """

    n: int
    true_eigenvalues: np.ndarray
    reported_outcomes: np.ndarray
    bit_flips: np.ndarray
    phase_flips: np.ndarray
    state_index: np.ndarray
    logical_states: Tuple[QuantumState, ...]

    def shot(self, i: int) -> RawPrepResult:
        """Shot i as the per-shot measurement result."""
        return RawPrepResult(self.logical_states[self.state_index[i]],
                             int(self.reported_outcomes[i]),
                             int(self.true_eigenvalues[i]) or None,
                             int(self.bit_flips[i]), int(self.phase_flips[i]))


def sample_effective(state: QuantumState, channel: PauliChannel,
                     uniforms) -> ParityShots:
    """Effective-mode noisy parity measurement of one pair state, one shot per row.

    `uniforms` is a (shots, 3) array of draws from [0, 1), as
    `uniform_count(channel, "effective")` says.  Column 0 decides the true
    eigenvalue by `core.sample_outcomes` (+1 when below the Born
    probability).  Column 1 is the block's bit-flip count and column 2 its
    phase-flip count: each is inverted (`rng.invert_cdf`) through the
    Poisson-binomial CDF of the channel's per-bit p or q, which
    `rng.count_cdf` builds once per channel.  The report is the true
    eigenvalue, flipped when the bit-flip count is odd; the readout bits
    themselves are never drawn.  Measures the controlled phase, whose -1
    eigenspace is |11>.  The pair ends in one of at most two states, one per
    true eigenvalue, since readout errors only touch the report.
    """
    if state.n_qubits != 2:
        raise ValueError("the measured pair must be exactly two qubits")
    if not isinstance(channel, PauliChannel):
        raise ValueError("coherent errors require exact mode")
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != 3:
        raise ValueError(f"uniforms must have shape (shots, 3), got {u.shape}")
    a, b = state.labels
    true, branches = sample_outcomes(state, gate("CPHASE", a, b), u[:, 0])
    bit_flips = invert_cdf(_count_table(channel.p.tobytes()), u[:, 1])
    phase_flips = invert_cdf(_count_table(channel.q.tobytes()), u[:, 2])
    reported = np.where(bit_flips % 2, -true, true)
    # branches holds +1 before -1
    state_index = (true == -1) if len(branches) == 2 else np.zeros(len(true), dtype=bool)
    return ParityShots(channel.n, true, reported, bit_flips, phase_flips,
                       state_index.astype(np.intp),
                       tuple(post for post, _ in branches.values()))


@functools.lru_cache(maxsize=8)
def _count_table(probabilities: bytes) -> np.ndarray:
    """`rng.count_cdf` of the per-bit chances whose float64 bytes these are:
    keyed by value, so a run builds each channel's two tables once, whatever
    its block of shots, and a changed channel never reads a stale table."""
    table = count_cdf(np.frombuffer(probabilities))
    table.flags.writeable = False  # shared by every caller of the cache
    return table


def sample_exact(state: QuantumState, errors: ErrorModel, uniforms) -> ParityShots:
    """Exact-mode noisy parity measurement of one pair state, one shot per row.

    `uniforms` is a (shots, `uniform_count(errors, "exact")`) array of draws
    from [0, 1).  Under a Pauli channel columns 0..n-1 are the bit flips
    (u < p), columns n..2n-1 the phase flips (u < q) and the last n columns
    the readouts of c1..cn; under coherent errors every column is a readout.
    Readout k reports +1 when its draw lies below the clamped Born
    probability p(+1), the rule `core.sample_outcomes` applies.

    The readout block is never built.  After the probe the joint state is
    A_+ (x) U_1|+>..U_n|+> + A_- (x) U_1|->..U_n|->, with A_+ the pair, A_- the
    pair under the controlled phase (its |11> entries negated) and U_i bit
    i's error.  A readout prefix s leaves each shot two weights c_sigma =
    prod_i <s_i|U_i|sigma>, kept at unit norm.  As <U_i +|U_i -> = 0, a bit
    read before the last has the two-term mixture sum_sigma |c_sigma
    <s|U|sigma>|^2 as its weights; the last bit interferes, and leaves the
    pair sum_sigma c_sigma A_sigma.  Each bit is one numpy step over every
    shot.  A distinct pair state left behind is labelled by its weight on
    |11> over its trace: +1 below 1e-9, -1 above 1 - 1e-9, and 0, a
    superposition of the eigenspaces, in between.
    """
    if state.n_qubits != 2:
        raise ValueError("the measured pair must be exactly two qubits")
    n = errors.n
    a, b = state.labels
    if {a, b} & set(cat_labels(n)):
        raise ValueError("pair labels collide with readout labels c1..cn")
    count = uniform_count(errors, "exact")
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != count:
        raise ValueError(f"uniforms must have shape (shots, {count}), got {u.shape}")
    shots = u.shape[0]
    pin = _measured_trace(state)

    if isinstance(errors, PauliChannel):
        flips, phases, readout = u[:, :n] < errors.p, u[:, n:2 * n] < errors.q, u[:, 2 * n:]
    else:
        flips = phases = np.zeros((shots, n), dtype=bool)
        readout = u
    bit_flips = np.count_nonzero(flips, axis=1)
    phase_flips = np.count_nonzero(phases, axis=1)
    draws = flips + np.uint8(2) * phases  # per bit: which entry of its error table

    # the pair as G G^dagger: the vector itself, or a density matrix's
    # eigenvectors scaled by the square roots of their eigenvalues
    if state.is_density:
        eigenvalues, eigenvectors = np.linalg.eigh(state.data)
        g = eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))
    else:
        g = state.data[:, None]
    cphase_g = GATE_MATRICES["CPHASE"] @ g
    tables = _error_tables(errors)
    c = np.ones((shots, 2), dtype=np.complex128)  # (c_+, c_-) per shot
    minus_reads = np.zeros(shots, dtype=np.int64)
    for k in range(n):
        # amps[i, s, sigma] = c_sigma <s|U_k|sigma> sqrt 2, if bit k reads s
        amps = c[:, None, :] * tables[k, draws[:, k]]
        if k < n - 1:
            weight = amps.real**2 + amps.imag**2
            weight = weight[..., 0] + weight[..., 1]
        else:
            # the last bit interferes: pairs[i, s] = (amps_+ + amps_- CPHASE) G
            pairs = amps[..., 0, None, None] * g + amps[..., 1, None, None] * cphase_g
            weight = np.sum((pairs.real**2 + pairs.imag**2).reshape(shots, 2, g.size), axis=2)
        plus = readout[:, k] < np.clip(weight[:, 0] / (weight[:, 0] + weight[:, 1]), 0.0, 1.0)
        if np.any(~plus & (weight[:, 1] <= 0.0)):
            raise ValueError(f"sampled an empty branch of Z(c{k + 1}); "
                             "state is numerically degenerate")
        minus_reads += ~plus
        kept = np.where(plus, weight[:, 0], weight[:, 1])
        if k < n - 1:
            # unit norm, or the products underflow over thousands of bits
            c = np.where(plus[:, None], amps[:, 0], amps[:, 1]) / np.sqrt(kept)[:, None]
    # the pair left behind, V V^dagger at the input's trace, built from
    # amplitudes so that a rare branch keeps its digits
    v = np.where(plus[:, None, None], pairs[:, 0], pairs[:, 1])
    leaves = sum(v[:, :, j, None] * np.conj(v[:, None, :, j]) for j in range(g.shape[1]))
    leaves *= (pin / kept)[:, None, None]
    state_index = np.zeros(shots, dtype=np.intp)
    logical_states, state_true = [], []
    index_of = {}  # bytes of a pair state -> its index in logical_states
    for i, leaf in enumerate(leaves):
        index = index_of.setdefault(leaf.tobytes(), len(logical_states))
        if index == len(logical_states):
            logical = QuantumState(state.labels, leaf.copy())
            p_minus = leaf[3, 3].real / logical.trace
            # 0: a coherent superposition of the eigenspaces
            state_true.append(+1 if p_minus < 1e-9 else -1 if p_minus > 1.0 - 1e-9 else 0)
            logical_states.append(logical)
        state_index[i] = index
    true = np.array(state_true, dtype=np.int64)[state_index]
    reported = np.where(minus_reads % 2, -1, 1)
    return ParityShots(n, true, reported, bit_flips, phase_flips, state_index,
                       tuple(logical_states))


# columns |+> and |-> times sqrt 2: M times this holds <s|M|sigma> sqrt 2 at
# [s, sigma]; without the 1/sqrt 2, a readout that is a fair coin weighs its
# two outcomes exactly equally
_PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128)


def _error_tables(errors: ErrorModel) -> np.ndarray:
    """<s|U_k|sigma> sqrt 2 at [k, draw, s, sigma] for every readout bit k.

    Under a Pauli channel U_k is X^flip, then Z^phase, with draw = flip +
    2 * phase; under coherent errors it is bit k's unitary, at draw 0.
    """
    x, z = GATE_MATRICES["X"], GATE_MATRICES["Z"]
    tables = np.zeros((errors.n, 4, 2, 2), dtype=np.complex128)
    if isinstance(errors, PauliChannel):
        tables[:] = [np.eye(2), x, z, z @ x]
    else:
        tables[:, 0] = errors.matrices()
    return tables @ _PLUS_MINUS


def uniform_count(errors: ErrorModel, mode: str) -> int:
    """Uniforms one shot draws: 3 in effective mode, the Born draw and the
    bit-flip and phase-flip counts, whatever n; in exact mode n bit-flip, n
    phase-flip and n readout draws under a Pauli channel, the n readout draws
    alone under coherent errors."""
    if mode == "effective":
        return 3
    if mode == "exact":
        return 3 * errors.n if isinstance(errors, PauliChannel) else errors.n
    raise ValueError("mode must be 'exact' or 'effective'")


def sample_cphase(state: QuantumState, errors: ErrorModel, uniforms, *,
                  mode: str) -> ParityShots:
    """Noisy controlled-phase parity measurement of one pair state, one shot per row:
    `sample_effective` or `sample_exact`, by `mode`.  `uniforms` is a
    (shots, `uniform_count(errors, mode)`) array.
    """
    if mode == "effective":
        return sample_effective(state, errors, uniforms)
    if mode == "exact":
        return sample_exact(state, errors, uniforms)
    raise ValueError("mode must be 'exact' or 'effective'")


def measure_cphase_noisy(state: QuantumState, errors: ErrorModel, *,
                         mode: str = "effective",
                         rng: Optional[np.random.Generator] = None) -> RawPrepResult:
    """One noisy controlled-phase measurement: `sample_cphase` on the row
    `rng.random((1, uniform_count(errors, mode)))`.  The pair is always
    projected onto a true eigenspace under decoherent noise, whatever the
    report says."""
    if rng is None:
        raise ValueError("rng is required: readout outcomes are sampled")
    uniforms = rng.random((1, uniform_count(errors, mode)))
    return sample_cphase(state, errors, uniforms, mode=mode).shot(0)


# attempts of `prepare_raw_ancilla` sampled at once: a block of rows nearly
# always holds the first +1 report; a row is 3 uniforms in effective mode
# and at most 3n in exact mode
_ATTEMPT_ROWS = 8


def prepare_raw_ancilla(errors: ErrorModel, *,
                        mode: str = "effective",
                        seed: int,
                        trial: int,
                        max_retries: int = 10_000,
                        labels: Sequence[str] = ("a", "b")) -> RawPrepResult:
    """Prepare a raw pair ancilla: both qubits in |0>+|1>, then a noisy
    controlled-phase parity measurement, retrying until it reports +1.

    A correct +1 leaves exactly the pair state |00>+|01>+|10>; an odd number
    of readout bit flips lets a true -1 (the |11> branch) slip through as a
    false +1, which is precisely the contamination the `alpha` reading and
    the downstream purification quantify.

    The attempts read the substream (seed, trial) through `trial_uniforms`,
    cut into rows of `uniform_count(errors, mode)` uniforms.  Attempt j takes
    row j, the draws a loop of `measure_cphase_noisy` calls on
    `trial_rng(seed, trial)` takes, and `sample_cphase` runs `_ATTEMPT_ROWS`
    attempts at a time, each block from where the last one ended, until the
    first +1 report.  At most `max_retries` rows are examined.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    columns = uniform_count(errors, mode)
    plus_plus = QuantumState.from_vector(labels, [1.0, 1.0, 1.0, 1.0])
    for first in range(0, max_retries, _ATTEMPT_ROWS):
        rows = min(_ATTEMPT_ROWS, max_retries - first)
        uniforms = trial_uniforms(seed, trial, trial + 1, rows * columns,
                                  first * columns).reshape(rows, columns)
        shots = sample_cphase(plus_plus, errors, uniforms, mode=mode)
        accepted = np.flatnonzero(shots.reported_outcomes == 1)
        if accepted.size == 0:
            continue
        res = shots.shot(accepted[0])
        if isinstance(errors, PauliChannel):
            alpha: Optional[MixedAncilla] = \
                MixedAncilla.from_excess_weight(alpha3_decoherent(errors).value)
        else:
            alpha, _ = MixedAncilla.from_state(res.logical_state)
        return res._replace(alpha=alpha, attempts=first + int(accepted[0]) + 1)
    raise RuntimeError(f"no +1 report within {max_retries} preparation attempts")


__all__ = [
    "ParityShots",
    "RawPrepResult",
    "cat_labels",
    "measure_cphase_noisy",
    "prepare_raw_ancilla",
    "sample_cphase",
    "sample_effective",
    "sample_exact",
    "uniform_count",
]
