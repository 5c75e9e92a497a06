"""Dense reference constructions that the tests compare the library against.

None of these runs on a report path.  The cat-block readout is built here as
a dense state, so that the product-form sampler of `noisy_meas` can be
checked against it qubit by qubit: the even cat, the per-pair controlled-NOT
eigenstates, and the probe coupling each pair to its readout bit.  Every
matrix is applied through `core._apply_matrix_to_axes`, the path
`apply_gate` takes, so a reference built here has the bits that a named
gate would give.  `corrected_choi_map` is the corrected branch map by one
run of the gadget on the Choi state, the oracle of
`gadgets.corrected_branch_map`.
"""

import math
from typing import Optional, Sequence

import numpy as np

from toffsim import gadgets
from toffsim.core import (
    GATE_MATRICES,
    MAX_PURE_QUBITS,
    QuantumState,
    _apply_matrix_to_axes,
    tensor,
)
from toffsim.noisy_meas import cat_labels


def apply_matrix(state: QuantumState, matrix, *targets: str) -> QuantumState:
    """Apply an arbitrary 2^k x 2^k matrix to the k target qubits."""
    m = np.ascontiguousarray(matrix, dtype=np.complex128)
    if not targets:
        raise ValueError("at least one target qubit required")
    dim = 2 ** len(targets)
    if m.shape != (dim, dim):
        raise ValueError(f"matrix shape {m.shape} does not fit {len(targets)} qubits")
    axes = [state.axis(t) for t in targets]
    return _apply_matrix_to_axes(state, m, axes)


# Three-qubit probe: flips the third qubit exactly when the first two sit in
# the -1 eigenstate of CNOT; realized as the middle qubit's Hadamard
# conjugating a Toffoli.
_H_MID = np.kron(np.kron(np.eye(2), GATE_MATRICES["H"]), np.eye(2))
PROBE = _H_MID @ GATE_MATRICES["TOFFOLI"] @ _H_MID

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
        joint = apply_matrix(joint, PROBE, a, b, c)
    return joint


def corrected_choi_map(branch: gadgets.BranchKey, corrections: Sequence[str]) -> np.ndarray:
    """One postselected gadget branch with `corrections`, as an (8, 64) array.

    One run of the gadget with the ideal ancilla on the Choi state,
    postselecting `branch`, then `corrections` on the data qubits.  Row j is
    the unnormalized output over A, B, C, a, b, c for the input |j>.  With
    the table's corrections, every entry is 0 or +-1/2 and each column holds
    at most one nonzero, so `vec @ map` is exact: it equals a one-input
    `toffoli_gadget` run's output bit for bit.
    """
    state = tensor(gadgets._choi_state(), gadgets.toffoli_ancilla_target(gadgets.ANCILLA_LABELS))
    state = gadgets._run_gadget_circuit(state, branch, gadgets.DATA_LABELS,
                                        gadgets.ANCILLA_LABELS)[0]
    return gadgets._corrected(state, corrections, gadgets.DATA_LABELS).data.reshape(8, 64)
