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

Two execution scales are provided: `exact` keeps every readout bit as a
simulated qubit (small n), while `effective` measures the pair directly and
samples the readout-error parity classically (any n), which is faithful
because only the flip parity ever touches the outcome.  In effective mode a
shot of a fixed pair state is one Born draw plus 2n Bernoulli draws, and it
leaves the pair in one of just two states, so `sample_effective` runs any
number of shots from one array of uniforms; the per-shot measurement is that
sampler on a single row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    MAX_DENSITY_QUBITS,
    MAX_PURE_QUBITS,
    QuantumState,
    apply_gate,
    apply_matrix,
    branch_probability,
    discard,
    gate,
    measure_operator,
    sample_outcomes,
    tensor,
    z_product,
)
from .distill import MixedAncilla
from .error_models import PauliChannel, UnitaryErrorSet, alpha3_decoherent

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


@dataclass(frozen=True)
class CatBlock:
    """An n-bit readout block.

    Exact mode carries the full quantum state (even-parity cat); effective
    mode carries only the parity (+1 even / -1 odd) and error tallies,
    which is all the readout product can ever depend on.
    """

    n: int
    mode: str                          # "exact" | "effective"
    state: Optional[QuantumState] = None
    parity: int = +1
    bit_flips: int = 0
    phase_flips: int = 0


def cat_labels(n: int) -> Tuple[str, ...]:
    return tuple(f"c{i+1}" for i in range(n))


def prepare_even_cat(n: int, mode: str = "exact",
                     labels: Optional[Sequence[str]] = None) -> CatBlock:
    """Equal superposition of all even-weight n-bit strings (normalized)."""
    if n < 1:
        raise ValueError("cat block needs at least one bit")
    if mode == "effective":
        return CatBlock(n, mode)
    if mode != "exact":
        raise ValueError("mode must be 'exact' or 'effective'")
    if n > MAX_PURE_QUBITS:
        raise ValueError(f"exact cat of {n} bits exceeds the {MAX_PURE_QUBITS}-qubit cap")
    labels = cat_labels(n) if labels is None else tuple(labels)
    idx = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for bit in range(n):
        parity ^= (idx >> bit) & 1
    vec = np.where(parity == 0, 1.0, 0.0) / math.sqrt(2.0 ** (n - 1))
    return CatBlock(n, mode, QuantumState.from_vector(labels, vec))


def apply_bitwise_probe(pair_state: QuantumState,
                        a_labels: Sequence[str], b_labels: Sequence[str],
                        cat: CatBlock) -> QuantumState:
    """Couple n pairs to an n-bit cat block, one probe per (a_i, b_i, c_i).

    Each probe touches only its own triple, so a fault on one qubit can
    spread to at most one qubit in each of the other two blocks.
    """
    if cat.mode != "exact" or cat.state is None:
        raise ValueError("bitwise probe requires an exact-mode cat block")
    a_labels, b_labels = tuple(a_labels), tuple(b_labels)
    if not len(a_labels) == len(b_labels) == cat.n:
        raise ValueError("label blocks must match the cat size")
    joint = tensor(pair_state, cat.state)
    for a, b, c in zip(a_labels, b_labels, cat.state.labels):
        joint = apply_gate(joint, "PROBE", a, b, c)
    return joint


def cat_readout_distribution(state: QuantumState,
                             labels: Sequence[str]) -> np.ndarray:
    """Probabilities of each readout bit string (normalized diagonal)."""
    reduced = discard(state, *(l for l in state.labels if l not in set(labels)))
    reduced = reduced.reordered(labels)
    diag = np.real(np.diagonal(reduced.data)).copy()
    return diag / diag.sum()


@dataclass(frozen=True)
class RawPrepResult:
    """One noisy parity measurement (or full raw preparation) of a qubit pair.

    true_eigenvalue is the eigenspace actually projected onto (None when
    coherent errors leave a superposition instead); reported_outcome is what
    the readout claimed, differing from the truth exactly when an odd number
    of readout bit flips occurred.  alpha is the pair-basis contamination
    reading where one is defined: the exact decomposition of the prepared
    state for coherent errors, the channel-implied excess weight for
    decoherent ones.
    """

    logical_state: QuantumState
    reported_outcome: int
    true_eigenvalue: Optional[int]
    alpha: Optional[MixedAncilla]
    attempts: int = 1
    cat: Optional[CatBlock] = None


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
    inject = _validate_inject(inject, n)
    cap = MAX_DENSITY_QUBITS if state.is_density else MAX_PURE_QUBITS
    if n + 2 > cap:
        raise ValueError(f"exact mode with this state caps the cat at {cap - 2} bits")
    return _measure_exact(state, errors, rng, inject)


@dataclass(frozen=True)
class EffectiveShots:
    """Shots of one effective-mode parity measurement of a fixed pair state.

    The arrays hold one entry per shot.  `branches` maps each true
    eigenvalue that occurred to the pair state it leaves, the same for every
    shot with that eigenvalue, since readout errors only touch the report.
    """

    n: int
    true_eigenvalues: np.ndarray
    reported_outcomes: np.ndarray
    bit_flips: np.ndarray
    phase_flips: np.ndarray
    branches: Dict[int, QuantumState]

    def shot(self, i: int) -> RawPrepResult:
        """Shot i as the per-shot measurement result."""
        true = int(self.true_eigenvalues[i])
        bit_flips = int(self.bit_flips[i])
        cat = CatBlock(self.n, "effective", parity=-1 if bit_flips % 2 else +1,
                       bit_flips=bit_flips, phase_flips=int(self.phase_flips[i]))
        return RawPrepResult(self.branches[true], int(self.reported_outcomes[i]),
                             true, None, cat=cat)


def sample_effective(state: QuantumState, channel: PauliChannel,
                     uniforms) -> EffectiveShots:
    """Effective-mode noisy parity measurement of one pair state, one shot per row.

    `uniforms` is a (shots, 2n + 1) array of draws from [0, 1).  Column 0
    decides the true eigenvalue by `core.sample_outcomes` (+1 when below the
    Born probability); columns 1..n are the readout bit flips (u < p) and
    columns n+1..2n the phase flips (u < q).  A row `rng.random((1, 2n + 1))`
    is exactly what the per-shot `measure_cnot_noisy` draws.  Measures the
    controlled-NOT involution; `measure_cphase_noisy`'s controlled-phase
    shots are these shots of the pair conjugated by a Hadamard on its second
    qubit.
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
    return EffectiveShots(n, true, reported, bit_flips, phase_flips,
                          {outcome: post for outcome, (post, _) in branches.items()})


def _measure_exact(state: QuantumState, errors: ErrorModel,
                   rng: np.random.Generator,
                   inject: Tuple[Tuple[str, int], ...]) -> RawPrepResult:
    a, b = state.labels
    n = errors.n
    labels = cat_labels(n)
    if set(labels) & {a, b}:
        raise ValueError("pair labels collide with readout labels c1..cn")
    cat = prepare_even_cat(n, "exact", labels)
    joint = tensor(state, cat.state)
    joint = apply_gate(joint, "PROBE", a, b, labels[0])

    bit_flips = phase_flips = 0
    if isinstance(errors, PauliChannel):
        flips = rng.random(n) < errors.p
        phases = rng.random(n) < errors.q
        for i in range(n):
            if flips[i]:
                joint = apply_gate(joint, "X", labels[i])
            if phases[i]:
                joint = apply_gate(joint, "Z", labels[i])
        bit_flips, phase_flips = int(flips.sum()), int(phases.sum())
    else:
        for i, matrix in enumerate(errors.matrices()):
            joint = apply_matrix(joint, matrix, labels[i])
    for kind, idx in inject:
        joint = apply_gate(joint, kind, labels[idx])
        if kind == "X":
            bit_flips += 1
        else:
            phase_flips += 1

    reported = 1
    for label in labels:
        joint, rec = measure_operator(joint, z_product(label), rng=rng)
        reported *= rec.outcome
    logical = discard(joint, *labels)

    p_plus = branch_probability(logical, gate("CNOT", a, b), +1)
    if p_plus > 1.0 - 1e-9:
        true: Optional[int] = +1
    elif p_plus < 1e-9:
        true = -1
    else:
        true = None  # coherent superposition of the eigenspaces
    parity = -1 if bit_flips % 2 else +1
    out_cat = replace(cat, state=None, parity=parity,
                      bit_flips=bit_flips, phase_flips=phase_flips)
    return RawPrepResult(logical, reported, true, None, cat=out_cat)


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
    return replace(res, logical_state=logical)


def prepare_raw_ancilla(errors: ErrorModel, *,
                        mode: str = "effective",
                        rng: Optional[np.random.Generator] = None,
                        max_retries: int = 10_000,
                        labels: Sequence[str] = ("a", "b")) -> RawPrepResult:
    """Prepare a raw pair ancilla: both qubits in |0>+|1>, then a noisy
    controlled-phase parity measurement, retrying until it reports +1.

    A correct +1 leaves exactly the pair state |00>+|01>+|10>; an odd number
    of readout bit flips lets a true -1 (the |11> branch) slip through as a
    false +1, which is precisely the contamination the `alpha` reading and
    the downstream purification quantify.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    plus_plus = QuantumState.from_vector(labels, [1.0, 1.0, 1.0, 1.0])
    for attempt in range(1, max_retries + 1):
        res = measure_cphase_noisy(plus_plus, errors, mode=mode, rng=rng)
        if res.reported_outcome != +1:
            continue
        if isinstance(errors, PauliChannel):
            alpha: Optional[MixedAncilla] = \
                MixedAncilla.from_excess_weight(alpha3_decoherent(errors).value)
        else:
            alpha, _ = MixedAncilla.from_state(res.logical_state)
        return replace(res, alpha=alpha, attempts=attempt)
    raise RuntimeError(f"no +1 report within {max_retries} preparation attempts")


__all__ = [
    "CatBlock",
    "EffectiveShots",
    "RawPrepResult",
    "apply_bitwise_probe",
    "cat_labels",
    "cat_readout_distribution",
    "eigenstring_state",
    "eigenstring_weight",
    "measure_cnot_noisy",
    "measure_cphase_noisy",
    "prepare_even_cat",
    "prepare_raw_ancilla",
    "sample_effective",
]
