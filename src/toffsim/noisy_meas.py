"""Measuring two-qubit parities through a cat-state readout block.

The controlled-NOT between two qubits, viewed as a Hermitian involution, can
be measured without touching the pair coherently: a block of n readout bits
is prepared in the even-parity cat state, every bit is coupled to the pair
by the probe gate (a Toffoli conjugated by Hadamard on the middle qubit,
which flips the readout bit exactly when the pair sits in the -1
eigenstate), and each readout bit is measured in the computational basis.
The product of the n single-bit outcomes reports the eigenvalue while the
pair is projected onto an eigenspace.

Bit-flip errors on the readout block flip the reported product without
damaging the projection; phase errors on readout bits never reach the
outcome statistics at all.  Small coherent rotations instead leave the pair
in a superposition of the two eigenspaces whose amplitude ratio follows the
accumulated flip angle of the block.

Two execution scales are provided, both at any n.  `exact` samples every
readout bit and keeps the pair's post-measurement state, so it takes
coherent errors and deliberate injections; `effective` measures the pair
directly and samples the readout-error parity classically, which is
faithful for Pauli errors because only the flip parity ever touches the
outcome.  In effective mode a shot of a fixed pair state is one Born draw
plus 2n Bernoulli draws, and it leaves the pair in one of just two states,
so `sample_effective` runs any number of shots from one array of uniforms.
`sample_exact` does the same for exact mode without ever building the
readout block: after the probe the joint state is a sum of two product
terms, one per eigenvalue of the readout bits' X, so each shot carries just
two complex weights from bit to bit, and each bit-identical pair state left
at the end is tested for its eigenvalue once.  Both samplers return one
`ParityShots` record, and in both modes the per-shot measurement is the
sampler on a single row.  `prepare_raw_ancilla` runs its retried attempts
through the samplers too, a block of rows at a time, read from its (seed,
trial) substream by `rng.trial_uniforms`; so it builds no numpy `Generator`,
while `measure_cnot_noisy` and `measure_cphase_noisy` keep taking one as the
per-shot reference.  The readout block itself, `prepare_even_cat`, is
built only to check the probe identity against dense states.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    GATE_MATRICES,
    MAX_PURE_QUBITS,
    QuantumState,
    apply_gate,
    branch_probability,
    discard,
    gate,
    sample_outcomes,
    tensor,
)
from .distill import MixedAncilla
from .error_models import PauliChannel, UnitaryErrorSet, alpha3_decoherent
from .rng import trial_uniforms

ErrorModel = Union[PauliChannel, UnitaryErrorSet]

_EIGENSTATE_VECTORS = {
    "1": np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128),
    "2": np.array([0.0, 1.0, 0.0, 0.0], dtype=np.complex128),
    "3": np.array([0.0, 0.0, 1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0),
    "4": np.array([0.0, 0.0, 1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0),
}


def eigenstring_weight(x: str) -> int:
    """Parity (0 or 1) of the number of '4' symbols: the -1 eigenstate count.

    A string over {1,2,3,4} names a product of per-pair controlled-NOT
    eigenstates; the joint bitwise-probe eigenvalue is (-1)**weight.
    """
    if not x:
        raise ValueError("eigenstring must be non-empty")
    bad = set(x) - set("1234")
    if bad:
        raise ValueError(f"invalid eigenstring symbols: {sorted(bad)}")
    return x.count("4") % 2


def eigenstring_state(x: str,
                      a_labels: Optional[Sequence[str]] = None,
                      b_labels: Optional[Sequence[str]] = None) -> QuantumState:
    """Product of per-pair eigenstates |x_i> on pairs (a_i, b_i).

    Symbols: '1' -> |00>, '2' -> |01>, '3' -> (|10>+|11>)/sqrt(2) (the three
    +1 eigenstates), '4' -> (|10>-|11>)/sqrt(2) (the -1 eigenstate).
    """
    n = len(x)
    eigenstring_weight(x)  # validation
    a_labels = tuple(a_labels) if a_labels else tuple(f"a{i+1}" for i in range(n))
    b_labels = tuple(b_labels) if b_labels else tuple(f"b{i+1}" for i in range(n))
    if len(a_labels) != n or len(b_labels) != n:
        raise ValueError("need one (a, b) label pair per symbol")
    state = None
    for i, symbol in enumerate(x):
        pair = QuantumState.from_vector((a_labels[i], b_labels[i]),
                                        _EIGENSTATE_VECTORS[symbol])
        state = pair if state is None else tensor(state, pair)
    return state


def cat_labels(n: int) -> Tuple[str, ...]:
    return tuple(f"c{i+1}" for i in range(n))


def prepare_even_cat(n: int, labels: Optional[Sequence[str]] = None) -> QuantumState:
    """Equal superposition of all even-weight n-bit strings (normalized)."""
    if n < 1:
        raise ValueError("cat block needs at least one bit")
    if n > MAX_PURE_QUBITS:
        raise ValueError(f"exact cat of {n} bits exceeds the {MAX_PURE_QUBITS}-qubit cap")
    labels = cat_labels(n) if labels is None else tuple(labels)
    idx = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for bit in range(n):
        parity ^= (idx >> bit) & 1
    vec = np.where(parity == 0, 1.0, 0.0) / math.sqrt(2.0 ** (n - 1))
    return QuantumState.from_vector(labels, vec)


def apply_bitwise_probe(pair_state: QuantumState,
                        a_labels: Sequence[str], b_labels: Sequence[str],
                        cat: QuantumState) -> QuantumState:
    """Couple n pairs to an n-bit cat block, one probe per (a_i, b_i, c_i).

    Each probe touches only its own triple, so a fault on one qubit can
    spread to at most one qubit in each of the other two blocks.
    """
    a_labels, b_labels = tuple(a_labels), tuple(b_labels)
    if not len(a_labels) == len(b_labels) == cat.n_qubits:
        raise ValueError("label blocks must match the cat size")
    joint = tensor(pair_state, cat)
    for a, b, c in zip(a_labels, b_labels, cat.labels):
        joint = apply_gate(joint, "PROBE", a, b, c)
    return joint


def cat_readout_distribution(state: QuantumState,
                             labels: Sequence[str]) -> np.ndarray:
    """Probabilities of each readout bit string (normalized diagonal)."""
    reduced = discard(state, *(l for l in state.labels if l not in set(labels)))
    reduced = reduced.reordered(labels)
    diag = np.real(np.diagonal(reduced.data)).copy()
    return diag / diag.sum()


class RawPrepResult(NamedTuple):
    """One noisy parity measurement (or full raw preparation) of a qubit pair.

    true_eigenvalue is the eigenspace actually projected onto (None when
    coherent errors leave a superposition instead); reported_outcome is what
    the readout claimed, differing from the truth exactly when an odd number
    of readout bit flips occurred.  bit_flips and phase_flips count the
    readout block's Pauli errors, injected ones included.  alpha is the
    pair-basis contamination reading where one is defined: the exact
    decomposition of the prepared state for coherent errors, the
    channel-implied excess weight for decoherent ones.
    """

    logical_state: QuantumState
    reported_outcome: int
    true_eigenvalue: Optional[int]
    bit_flips: int
    phase_flips: int
    alpha: Optional[MixedAncilla] = None
    attempts: int = 1


def _validate_inject(inject, n: int) -> Tuple[Tuple[str, int], ...]:
    inject = tuple(inject)
    for kind, idx in inject:
        if kind not in ("X", "Z"):
            raise ValueError("injected errors must be 'X' or 'Z'")
        if not 0 <= idx < n:
            raise ValueError(f"injected error index {idx} outside block of {n}")
    return inject


def measure_cnot_noisy(state: QuantumState, errors: ErrorModel, *,
                       mode: str = "effective",
                       rng: Optional[np.random.Generator] = None,
                       inject: Sequence[Tuple[str, int]] = ()) -> RawPrepResult:
    """Measure the controlled-NOT involution on a two-qubit state, noisily.

    `errors` gives the per-readout-bit noise (bit/phase flip probabilities,
    or coherent rotations, in which case exact mode is required).  `inject`
    adds deliberate X/Z errors on given readout bits after the noise step,
    exact mode only.  `rng` drives both error sampling and readout
    collapse.  The pair is always projected onto a true eigenspace under
    decoherent noise, whatever the report says.
    """
    if state.n_qubits != 2:
        raise ValueError("the measured pair must be exactly two qubits")
    if rng is None:
        raise ValueError("rng is required: readout outcomes are sampled")
    n = errors.n
    if mode == "effective":
        if not isinstance(errors, PauliChannel):
            raise ValueError("coherent errors require exact mode")
        if inject:
            raise ValueError("deliberate injections require exact mode")
        return sample_effective(state, errors, rng.random((1, 2 * n + 1))).shot(0)
    if mode != "exact":
        raise ValueError("mode must be 'exact' or 'effective'")
    uniforms = rng.random((1, exact_uniform_count(errors)))
    return sample_exact(state, errors, uniforms, inject).shot(0)


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

    `uniforms` is a (shots, 2n + 1) array of draws from [0, 1).  Column 0
    decides the true eigenvalue by `core.sample_outcomes` (+1 when below the
    Born probability); columns 1..n are the readout bit flips (u < p) and
    columns n+1..2n the phase flips (u < q).  A row `rng.random((1, 2n + 1))`
    is exactly what the per-shot `measure_cnot_noisy` draws.  Measures the
    controlled-NOT involution; `measure_cphase_noisy`'s controlled-phase
    shots are these shots of the pair conjugated by a Hadamard on its second
    qubit.  The pair ends in one of at most two states, one per true
    eigenvalue, since readout errors only touch the report.
    """
    if state.n_qubits != 2:
        raise ValueError("the measured pair must be exactly two qubits")
    if not isinstance(channel, PauliChannel):
        raise ValueError("coherent errors require exact mode")
    n = channel.n
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != 2 * n + 1:
        raise ValueError(f"uniforms must have shape (shots, {2 * n + 1}), got {u.shape}")
    a, b = state.labels
    true, branches = sample_outcomes(state, gate("CNOT", a, b), u[:, 0])
    bit_flips = np.count_nonzero(u[:, 1:n + 1] < channel.p, axis=1)
    phase_flips = np.count_nonzero(u[:, n + 1:] < channel.q, axis=1)
    reported = np.where(bit_flips % 2, -true, true)
    # branches holds +1 before -1
    state_index = (true == -1) if len(branches) == 2 else np.zeros(len(true), dtype=bool)
    return ParityShots(n, true, reported, bit_flips, phase_flips,
                       state_index.astype(np.intp),
                       tuple(post for post, _ in branches.values()))


def exact_uniform_count(errors: ErrorModel) -> int:
    """Uniforms one exact-mode shot draws: n bit-flip, n phase-flip and n
    readout draws under a Pauli channel, the n readout draws alone under
    coherent errors."""
    return 3 * errors.n if isinstance(errors, PauliChannel) else errors.n


def sample_exact(state: QuantumState, errors: ErrorModel, uniforms,
                 inject: Sequence[Tuple[str, int]] = ()) -> ParityShots:
    """Exact-mode noisy parity measurement of one pair state, one shot per row.

    `uniforms` is a (shots, `exact_uniform_count(errors)`) array of draws
    from [0, 1).  Under a Pauli channel columns 0..n-1 are the bit flips
    (u < p), columns n..2n-1 the phase flips (u < q) and the last n columns
    the readouts of c1..cn; under coherent errors every column is a readout.
    Readout k reports +1 when its draw lies below the clamped Born
    probability p(+1), the rule `measure_operator` applies, so a row
    `rng.random((1, count))` is exactly what the per-shot `measure_cnot_noisy`
    draws.  `inject` adds X/Z errors on given readout bits after the noise.

    The readout block is never built.  After the probe the joint state is
    A_+ (x) U_1|+>..U_n|+> + A_- (x) U_1|->..U_n|->, with A_+ the pair, A_- the
    pair under the controlled-NOT and U_i bit i's error.  A readout prefix s
    leaves each shot two weights c_sigma = prod_i <s_i|U_i|sigma>, kept at unit
    norm.  As <U_i +|U_i -> = 0, a bit read before the last has the two-term
    mixture sum_sigma |c_sigma <s|U|sigma>|^2 as its weights; the last bit
    interferes, and leaves the pair sum_sigma c_sigma A_sigma.  Each bit is one
    numpy step over every shot.
    """
    if state.n_qubits != 2:
        raise ValueError("the measured pair must be exactly two qubits")
    n = errors.n
    inject = _validate_inject(inject, n)
    a, b = state.labels
    if {a, b} & set(cat_labels(n)):
        raise ValueError("pair labels collide with readout labels c1..cn")
    count = exact_uniform_count(errors)
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != count:
        raise ValueError(f"uniforms must have shape (shots, {count}), got {u.shape}")
    shots = u.shape[0]
    pin = state.trace
    if pin <= 0.0:
        raise ValueError("cannot measure a zero-norm state")

    if isinstance(errors, PauliChannel):
        flips, phases, readout = u[:, :n] < errors.p, u[:, n:2 * n] < errors.q, u[:, 2 * n:]
    else:
        flips = phases = np.zeros((shots, n), dtype=bool)
        readout = u
    injected_x = sum(kind == "X" for kind, _ in inject)
    bit_flips = np.count_nonzero(flips, axis=1) + injected_x
    phase_flips = np.count_nonzero(phases, axis=1) + (len(inject) - injected_x)
    draws = flips + np.uint8(2) * phases  # per bit: which entry of its error table

    # the pair as G G^dagger: the vector itself, or a density matrix's
    # eigenvectors scaled by the square roots of their eigenvalues
    if state.is_density:
        eigenvalues, eigenvectors = np.linalg.eigh(state.data)
        g = eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))
    else:
        g = state.data[:, None]
    cnot_g = GATE_MATRICES["CNOT"] @ g
    tables = _error_tables(errors, inject)
    c = np.ones((shots, 2), dtype=np.complex128)  # (c_+, c_-) per shot
    minus_reads = np.zeros(shots, dtype=np.int64)
    for k in range(n):
        # amps[i, s, sigma] = c_sigma <s|U_k|sigma> sqrt 2, if bit k reads s
        amps = c[:, None, :] * tables[k, draws[:, k]]
        if k < n - 1:
            weight = amps.real**2 + amps.imag**2
            weight = weight[..., 0] + weight[..., 1]
        else:
            # the last bit interferes: pairs[i, s] = (amps_+ + amps_- CNOT) G
            pairs = amps[..., 0, None, None] * g + amps[..., 1, None, None] * cnot_g
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
    measured = gate("CNOT", a, b)
    for i, leaf in enumerate(leaves):
        index = index_of.setdefault(leaf.tobytes(), len(logical_states))
        if index == len(logical_states):
            logical = QuantumState(state.labels, leaf.copy())
            p_plus = branch_probability(logical, measured, +1)
            # 0: a coherent superposition of the eigenspaces
            state_true.append(+1 if p_plus > 1.0 - 1e-9 else -1 if p_plus < 1e-9 else 0)
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


def _error_tables(errors: ErrorModel, inject: Tuple[Tuple[str, int], ...]) -> np.ndarray:
    """<s|U_k|sigma> sqrt 2 at [k, draw, s, sigma] for every readout bit k.

    Under a Pauli channel U_k is X^flip, then Z^phase, with draw = flip +
    2 * phase; under coherent errors it is bit k's unitary, at draw 0.  The
    injected gates follow in order.
    """
    x, z = GATE_MATRICES["X"], GATE_MATRICES["Z"]
    tables = np.zeros((errors.n, 4, 2, 2), dtype=np.complex128)
    if isinstance(errors, PauliChannel):
        tables[:] = [np.eye(2), x, z, z @ x]
    else:
        tables[:, 0] = errors.matrices()
    for kind, idx in inject:
        tables[idx] = GATE_MATRICES[kind] @ tables[idx]
    return tables @ _PLUS_MINUS


def measure_cphase_noisy(state: QuantumState, errors: ErrorModel, *,
                         mode: str = "effective",
                         rng: Optional[np.random.Generator] = None,
                         inject: Sequence[Tuple[str, int]] = ()) -> RawPrepResult:
    """Measure the controlled-phase involution: the same scheme conjugated
    by a Hadamard on the second qubit."""
    if state.n_qubits != 2:
        raise ValueError("the measured pair must be exactly two qubits")
    b = state.labels[1]
    res = measure_cnot_noisy(apply_gate(state, "H", b), errors,
                             mode=mode, rng=rng, inject=inject)
    logical = apply_gate(res.logical_state, "H", b)
    return res._replace(logical_state=logical)


# attempts of `prepare_raw_ancilla` sampled at once: a block of rows nearly
# always holds the first +1 report, and one row is at most 3n uniforms
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
    cut into rows of one shot's uniforms: 2n + 1 in effective mode,
    `exact_uniform_count(errors)` in exact mode.  Attempt j takes row j, the
    draws a loop of `measure_cphase_noisy` calls on `trial_rng(seed, trial)`
    takes, and `sample_effective` or `sample_exact` runs `_ATTEMPT_ROWS`
    attempts at a time, each block from where the last one ended, until the
    first +1 report.  At most `max_retries` rows are examined.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    if mode == "effective":
        sample, columns = sample_effective, 2 * errors.n + 1
    elif mode == "exact":
        sample, columns = sample_exact, exact_uniform_count(errors)
    else:
        raise ValueError("mode must be 'exact' or 'effective'")
    plus_plus = QuantumState.from_vector(labels, [1.0, 1.0, 1.0, 1.0])
    b = plus_plus.labels[1]
    # controlled-phase shots are CNOT shots of the pair conjugated by H on b
    cnot_frame = apply_gate(plus_plus, "H", b)
    for first in range(0, max_retries, _ATTEMPT_ROWS):
        rows = min(_ATTEMPT_ROWS, max_retries - first)
        uniforms = trial_uniforms(seed, trial, trial + 1, rows * columns,
                                  first * columns).reshape(rows, columns)
        shots = sample(cnot_frame, errors, uniforms)
        accepted = np.flatnonzero(shots.reported_outcomes == 1)
        if accepted.size == 0:
            continue
        res = shots.shot(accepted[0])
        logical = apply_gate(res.logical_state, "H", b)
        if isinstance(errors, PauliChannel):
            alpha: Optional[MixedAncilla] = \
                MixedAncilla.from_excess_weight(alpha3_decoherent(errors).value)
        else:
            alpha, _ = MixedAncilla.from_state(logical)
        return res._replace(logical_state=logical, alpha=alpha,
                            attempts=first + int(accepted[0]) + 1)
    raise RuntimeError(f"no +1 report within {max_retries} preparation attempts")


__all__ = [
    "ParityShots",
    "RawPrepResult",
    "apply_bitwise_probe",
    "cat_labels",
    "cat_readout_distribution",
    "eigenstring_state",
    "eigenstring_weight",
    "exact_uniform_count",
    "measure_cnot_noisy",
    "measure_cphase_noisy",
    "prepare_even_cat",
    "prepare_raw_ancilla",
    "sample_effective",
    "sample_exact",
]
