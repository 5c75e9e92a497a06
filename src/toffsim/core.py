"""Dense exact simulation of small registers of labeled qubits.

A state is a numpy array over an ordered tuple of qubit labels, which are
plain strings: either a 2^n amplitude vector or a 2^n x 2^n density matrix.
Its one size is `trace`, the squared norm of a vector or the trace of a
density matrix.  Norms are tracked, never enforced -- the protocols in this
package habitually work with unnormalized states (postselection keeps the
raw projection), and every probability or fidelity divides by the
appropriate traces instead.

Measurement is of Hermitian involutions (Pauli products, or two-valued gate
operators such as the controlled-NOT), by one of two functions.
`measure_operator` postselects a requested branch and returns the bare
projection, so the caller tracks the norm.  `sample_outcomes` samples: it
measures one state once per supplied uniform, reporting +1 exactly when the
uniform is below the probability of +1, and divides each projected state
by its branch probability, so the norm of the input is preserved.

Every measurement projects by one formula: the branch of outcome s of an
operator O is (psi + s O psi) / 2.  The gate kernel applies O, one pass per
Pauli factor or one pass of the measured gate, and a density matrix is
projected on its rows, then on its columns with conj(O).  When O has entries
in {0, +-1, +-i}, as every Pauli product and the X, Z, CNOT, CPHASE and
TOFFOLI gates do, O psi is exact, and the branch equals the product of psi
with the projector (I + s O) / 2 bit for bit.  H has other entries, and for
it the two may differ in the last bit; H stays in the gate table, but no
library path applies it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import _kernels

# Relative amplitude tolerance for "zero" checks.
ATOL = 1e-12
# Postselecting a branch thinner than this is an error, not a tiny state.
MIN_BRANCH_PROBABILITY = 1e-14

MAX_PURE_QUBITS = 14
MAX_DENSITY_QUBITS = 10


class QuantumState:
    """Vector or density-matrix state over an ordered tuple of qubit labels."""

    def __init__(self, labels: Sequence[str], data: np.ndarray):
        labels = tuple(map(str, labels))
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels: {list(labels)}")
        n = len(labels)
        data = np.asarray(data, dtype=np.complex128)
        if data.ndim == 1:
            if n > MAX_PURE_QUBITS:
                raise ValueError(f"{n} qubits exceeds the pure-state cap of {MAX_PURE_QUBITS}")
            if data.shape != (2**n,):
                raise ValueError(f"vector of shape {data.shape} does not match {n} qubits")
        elif data.ndim == 2:
            if n > MAX_DENSITY_QUBITS:
                raise ValueError(f"{n} qubits exceeds the density-matrix cap of {MAX_DENSITY_QUBITS}")
            if data.shape != (2**n, 2**n):
                raise ValueError(f"matrix of shape {data.shape} does not match {n} qubits")
        else:
            raise ValueError("state data must be a vector or a square matrix")
        self.labels = labels
        self.data = data
        self._index = {label: i for i, label in enumerate(labels)}

    # -- basic structure ---------------------------------------------------

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def is_density(self) -> bool:
        return self.data.ndim == 2

    @property
    def trace(self) -> float:
        """Probability weight: trace of the density matrix, squared norm of a vector."""
        if self.is_density:
            return float(np.real(np.trace(self.data)))
        return float(np.real(np.vdot(self.data, self.data)))

    def axis(self, label: str) -> int:
        key = str(label)
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"no qubit labeled {key!r} in state over {self.labels}") from None

    def copy(self) -> "QuantumState":
        return QuantumState(self.labels, self.data.copy())

    def _derived(self, data: np.ndarray) -> "QuantumState":
        """State over this register holding `data`, skipping validation.

        Only for complex128 data of this state's shape computed by the
        library itself; the new state shares `labels` and the label index.
        """
        state = QuantumState.__new__(QuantumState)
        state.labels = self.labels
        state.data = data
        state._index = self._index
        return state

    def __repr__(self):
        kind = "density" if self.is_density else "vector"
        return f"QuantumState({kind}, qubits={self.labels}, trace={self.trace:.6g})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_vector(cls, labels: Sequence[str], amplitudes) -> "QuantumState":
        return cls(labels, np.asarray(amplitudes, dtype=np.complex128))

    @classmethod
    def from_density(cls, labels: Sequence[str], matrix) -> "QuantumState":
        return cls(labels, np.asarray(matrix, dtype=np.complex128))

    @classmethod
    def basis(cls, labels: Sequence[str], bits) -> "QuantumState":
        """Computational basis state; `bits` is a string like "010" or ints."""
        labels = tuple(labels)
        bits = [int(b) for b in bits]
        if len(bits) != len(labels):
            raise ValueError("one bit per qubit required")
        idx = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            idx = (idx << 1) | b
        vec = np.zeros(2 ** len(labels), dtype=np.complex128)
        vec[idx] = 1.0
        return cls(labels, vec)

    # -- representation changes --------------------------------------------

    def to_density(self) -> "QuantumState":
        if self.is_density:
            return self.copy()
        v = self.data
        return QuantumState(self.labels, np.outer(v, v.conj()))

    def reordered(self, new_order: Sequence[str]) -> "QuantumState":
        """Same state with qubit axes permuted into `new_order`; the state
        itself when that is already its order, else a fresh copy."""
        n = self.n_qubits
        order = [self.axis(q) for q in new_order]
        if order == list(range(n)):
            return self
        if sorted(order) != list(range(n)):
            raise ValueError("new order must be a permutation of the state's qubits")
        if self.is_density:
            t = self.data.reshape((2,) * (2 * n))
            t = t.transpose(tuple(order) + tuple(n + ax for ax in order))
            data = t.reshape(self.dim, self.dim)
        else:
            data = self.data.reshape((2,) * n).transpose(order).reshape(self.dim)
        return QuantumState([self.labels[ax] for ax in order], data.copy())


# -- gates -------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)

def _build_gate_matrices():
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    h = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128)
    s = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
    cnot = np.eye(4, dtype=np.complex128)
    cnot[2:, 2:] = x
    cphase = np.diag([1, 1, 1, -1]).astype(np.complex128)
    toffoli = np.eye(8, dtype=np.complex128)
    toffoli[6:, 6:] = x
    return {
        "X": x, "Z": z, "H": h, "S": s,
        "CNOT": cnot, "CPHASE": cphase,
        "TOFFOLI": toffoli,
    }


GATE_MATRICES = _build_gate_matrices()
GATE_ARITY = {k: int(math.log2(m.shape[0])) for k, m in GATE_MATRICES.items()}
# Gate kinds that square to the identity: the ones measurable as +-1 operators.
INVOLUTORY_GATES = frozenset(
    k for k, m in GATE_MATRICES.items()
    if np.allclose(m @ m, np.eye(m.shape[0]), atol=ATOL))


class _GateFields(NamedTuple):
    kind: str
    targets: tuple


class GateSpec(_GateFields):
    """A named gate bound to an ordered tuple of target labels."""

    __slots__ = ()

    def __new__(cls, kind: str, targets):
        if kind not in GATE_MATRICES:
            raise ValueError(f"unknown gate kind {kind!r}")
        targets = tuple(map(str, targets))
        if len(set(targets)) != len(targets):
            raise ValueError("gate targets must be distinct")
        if len(targets) != GATE_ARITY[kind]:
            raise ValueError(f"{kind} takes {GATE_ARITY[kind]} targets, got {len(targets)}")
        return super().__new__(cls, kind, targets)

    @property
    def matrix(self) -> np.ndarray:
        return GATE_MATRICES[self.kind]

    def __str__(self):
        return f"{self.kind}({','.join(self.targets)})"


# the protocols apply a few dozen distinct (kind, targets) gates over and over;
# a GateSpec is frozen, so one is shared by every caller
@functools.lru_cache(maxsize=256)
def gate(kind: str, *targets: str) -> GateSpec:
    return GateSpec(kind, tuple(targets))


def _apply_matrix_to_axes(state: QuantumState, matrix: np.ndarray, axes: Sequence[int]) -> QuantumState:
    """New state with `matrix` applied to the given qubit axes."""
    n = state.n_qubits
    u = np.ascontiguousarray(matrix, dtype=np.complex128)
    if state.is_density:
        flat = state.data.copy().reshape(-1)
        base, offs = _kernels.target_plan(2 * n, axes)
        _kernels.apply_dense(flat, u, base, offs)
        base, offs = _kernels.target_plan(2 * n, [n + ax for ax in axes])
        _kernels.apply_dense(flat, np.conj(u), base, offs)
        return state._derived(flat.reshape(state.dim, state.dim))
    vec = state.data.copy()
    base, offs = _kernels.target_plan(n, axes)
    _kernels.apply_dense(vec, u, base, offs)
    return state._derived(vec)


def apply_gate(state: QuantumState, gate_or_kind, *targets: str) -> QuantumState:
    """Apply a GateSpec (or a kind plus targets) and return the new state."""
    if isinstance(gate_or_kind, GateSpec):
        if targets:
            raise TypeError("targets are taken from the GateSpec")
        spec = gate_or_kind
    else:
        spec = gate(gate_or_kind, *targets)
    axes = [state.axis(t) for t in spec.targets]
    return _apply_matrix_to_axes(state, spec.matrix, axes)


# -- measurement --------------------------------------------------------------

_PAULI_MATRICES = {
    "X": GATE_MATRICES["X"],
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": GATE_MATRICES["Z"],
}


class _PauliFields(NamedTuple):
    factors: tuple  # ((label, axis), ...) with axis in {"X","Y","Z"}


class PauliOperator(_PauliFields):
    """A product of single-qubit Pauli factors, e.g. Z(a)Z(b) or X(a)."""

    __slots__ = ()

    def __new__(cls, factors):
        norm = []
        for label, axis in factors:
            axis = axis.upper()
            if axis not in _PAULI_MATRICES:
                raise ValueError(f"unknown Pauli axis {axis!r}")
            norm.append((str(label), axis))
        if len({l for l, _ in norm}) != len(norm):
            raise ValueError("repeated qubit in Pauli product")
        if not norm:
            raise ValueError("empty Pauli product")
        return super().__new__(cls, tuple(norm))

    @property
    def support(self) -> tuple:
        return tuple(l for l, _ in self.factors)

    def __str__(self):
        return "".join(f"{axis}({label})" for label, axis in self.factors)


def z_product(*labels: str) -> PauliOperator:
    return PauliOperator(tuple((l, "Z") for l in labels))


def x_product(*labels: str) -> PauliOperator:
    return PauliOperator(tuple((l, "X") for l in labels))


MeasOperator = Union[PauliOperator, GateSpec]


class MeasurementRecord(NamedTuple):
    operator: str
    outcome: int          # +1 or -1
    probability: float    # Born probability of that outcome


def _operator_gates(state: QuantumState, op: MeasOperator):
    """(description, [(matrix, axes), ...]): `op` as gates on `state`'s axes,
    one per Pauli factor or the one measured gate."""
    if isinstance(op, PauliOperator):
        return str(op), [(_PAULI_MATRICES[axis], (state.axis(label),))
                         for label, axis in op.factors]
    if isinstance(op, GateSpec):
        if op.kind not in INVOLUTORY_GATES:
            raise ValueError(f"{op.kind} is not an involution; cannot measure it as a +-1 operator")
        return str(op), [(op.matrix, tuple(state.axis(l) for l in op.targets))]
    raise TypeError(f"cannot measure operator of type {type(op).__name__}")


def _project(state: QuantumState, gates, outcome: int, pin: float):
    """(projection (psi + outcome * O psi) / 2 of `state`, its weight / `pin`).

    O is the product of `gates`; a density matrix is projected on its rows,
    then on its columns with conj(O).  `pin` is `state.trace`, the weight
    every branch probability divides by.  The projection equals the product
    with the projector (I + outcome * O) / 2 bit for bit when O's entries lie
    in {0, +-1, +-i}.
    """
    n = state.n_qubits
    n_axes = 2 * n if state.is_density else n
    flat = state.data.reshape(-1)
    # the row axes, then a density matrix's column axes, which follow them
    for shift in ((0, n) if state.is_density else (0,)):
        image = flat.copy()
        for matrix, axes in gates:
            base, offs = _kernels.target_plan(n_axes, [shift + ax for ax in axes])
            _kernels.apply_dense(image, np.conj(matrix) if shift else matrix, base, offs)
        image *= outcome
        image += flat
        image *= 0.5
        flat = image
    projected = state._derived(flat.reshape(state.data.shape))
    return projected, projected.trace / pin


def _measured_trace(state: QuantumState) -> float:
    """`state.trace`, the weight a branch probability divides by; a state of
    zero norm has no branch to measure."""
    pin = state.trace
    if pin <= 0.0:
        raise ValueError("cannot measure a zero-norm state")
    return pin


def measure_operator(state: QuantumState, op: MeasOperator, *, postselect: int):
    """Postselected measurement of a Hermitian involution: returns the bare
    projection onto the `postselect` (+1 or -1) branch, unrenormalized, and
    its MeasurementRecord.  Sampled measurement is `sample_outcomes`."""
    if postselect not in (+1, -1):
        raise ValueError("postselect must be +1 or -1")
    pin = _measured_trace(state)
    desc, gates = _operator_gates(state, op)
    projected, prob = _project(state, gates, postselect, pin)
    if prob < MIN_BRANCH_PROBABILITY:
        raise ValueError(
            f"postselected branch {postselect:+d} of {desc} has probability {prob:.3e} "
            f"< {MIN_BRANCH_PROBABILITY}")
    return projected, MeasurementRecord(desc, postselect, prob)


def _renormalized(projected: QuantumState, prob: float) -> QuantumState:
    """A fresh projection divided in place by the weight of its branch."""
    projected.data /= prob if projected.is_density else math.sqrt(prob)
    return projected


def sample_outcomes(state: QuantumState, op: MeasOperator, uniforms):
    """Sampled measurement of `op`, repeated on one `state` once per uniform.

    Shot i reports +1 exactly when uniforms[i] < p(+1).  Returns
    (outcomes, branches): an int array of +1/-1, one per uniform, and
    {outcome: (renormalized post-measurement state, probability)} for the
    outcomes that occur; the -1 projection is computed only when some shot
    hits it.
    """
    pin = _measured_trace(state)
    desc, gates = _operator_gates(state, op)
    plus, p_plus = _project(state, gates, +1, pin)
    p_plus = min(max(p_plus, 0.0), 1.0)
    hit_plus = np.asarray(uniforms, dtype=np.float64) < p_plus
    n_plus = np.count_nonzero(hit_plus)
    branches = {}
    if n_plus:
        branches[+1] = (_renormalized(plus, p_plus), p_plus)
    if n_plus < hit_plus.size:
        minus, p_minus = _project(state, gates, -1, pin)
        if p_minus <= 0.0:
            raise ValueError(f"sampled an empty branch of {desc}; state is numerically degenerate")
        branches[-1] = (_renormalized(minus, p_minus), p_minus)
    return np.where(hit_plus, 1, -1), branches


def branch_probability(state: QuantumState, op: MeasOperator, outcome: int) -> float:
    """Born probability of one outcome, without touching the state."""
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    _, gates = _operator_gates(state, op)
    _, prob = _project(state, gates, outcome, _measured_trace(state))
    return prob


# -- composition and reduction -------------------------------------------------

def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    """Tensor product; labels must be disjoint; mixes promote vectors."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise ValueError(f"label collision in tensor: {sorted(overlap)}")
    if a.is_density or b.is_density:
        am = a.to_density().data if not a.is_density else a.data
        bm = b.to_density().data if not b.is_density else b.data
        return QuantumState(a.labels + b.labels, np.kron(am, bm))
    return QuantumState(a.labels + b.labels, np.kron(a.data, b.data))


def discard(state: QuantumState, *labels: str) -> QuantumState:
    """Trace out the given qubits; always returns a density-matrix state."""
    drop_axes = sorted(state.axis(l) for l in labels)
    if not drop_axes:
        return state.to_density()
    keep_axes = [ax for ax in range(state.n_qubits) if ax not in drop_axes]
    if not keep_axes:
        raise ValueError("cannot discard every qubit")
    kq = len(keep_axes)
    dq = len(drop_axes)
    if state.is_density:
        n = state.n_qubits
        t = state.data.reshape((2,) * (2 * n))
        perm = keep_axes + drop_axes
        t = t.transpose(tuple(perm) + tuple(n + ax for ax in perm))
        t = t.reshape(2**kq, 2**dq, 2**kq, 2**dq)
        reduced = np.einsum("aibi->ab", t)
    else:
        v = state.data.reshape((2,) * state.n_qubits)
        v = v.transpose(keep_axes + drop_axes).reshape(2**kq, 2**dq)
        reduced = v @ v.conj().T
    return QuantumState([state.labels[ax] for ax in keep_axes], reduced)


def drop_qubit(state: QuantumState, label: str, expected_bit: Optional[int] = None) -> QuantumState:
    """Remove a qubit that sits in a definite computational basis state.

    Unlike `discard` this keeps the representation (a vector stays a vector)
    and the norm; it raises if the qubit is entangled or in superposition
    beyond the amplitude tolerance.
    """
    ax = state.axis(label)
    keep = [i for i in range(state.n_qubits) if i != ax]
    if state.is_density:
        n = state.n_qubits
        t = state.data.reshape((2,) * (2 * n))
        perm = [ax] + keep
        t = t.transpose(tuple(perm) + tuple(n + p for p in perm))
        t = t.reshape(2, 2 ** (n - 1), 2, 2 ** (n - 1))
        weights = [float(np.real(np.trace(t[b, :, b, :]))) for b in (0, 1)]
        total = sum(weights)
        bit = int(weights[1] > weights[0])
        off = max(np.max(np.abs(t[0, :, 1, :])), np.max(np.abs(t[1, :, 0, :])),
                  np.max(np.abs(t[1 - bit, :, 1 - bit, :])))
        if total <= 0 or off > ATOL * max(total, 1.0):
            raise ValueError(f"qubit {str(label)!r} is not in a definite basis state")
        reduced = t[bit, :, bit, :]
    else:
        v = state.data.reshape((2,) * state.n_qubits).transpose([ax] + keep).reshape(2, -1)
        norms = np.sqrt(np.real(np.sum(np.abs(v) ** 2, axis=1)))
        bit = int(norms[1] > norms[0])
        if norms[1 - bit] > ATOL * max(math.sqrt(state.trace), 1.0):
            raise ValueError(f"qubit {str(label)!r} is not in a definite basis state")
        reduced = v[bit].copy()
    if expected_bit is not None and bit != expected_bit:
        raise ValueError(f"qubit {str(label)!r} is |{bit}>, expected |{expected_bit}>")
    return QuantumState([state.labels[i] for i in keep], reduced)


def fidelity(state: QuantumState, target: QuantumState) -> float:
    """Overlap fidelity <t|rho|t> / (tr(rho) <t|t>) against a pure target.

    Both arguments may be unnormalized; the result is within [0, 1] for
    physical states (no clamping is applied, so algebraic pseudo-states used
    in coefficient cross-checks evaluate faithfully).
    """
    if target.is_density:
        raise ValueError("fidelity target must be a pure state")
    if set(state.labels) != set(target.labels):
        raise ValueError(f"fidelity between different registers: {state.labels} vs {target.labels}")
    t = target.reordered(state.labels).data
    tnorm2 = float(np.real(np.vdot(t, t)))
    snorm2 = state.trace
    if tnorm2 <= 0 or snorm2 <= 0:
        raise ValueError("fidelity of a zero-norm state is undefined")
    if state.is_density:
        val = np.vdot(t, state.data @ t) / (snorm2 * tnorm2)
        if abs(val.imag) > ATOL * max(1.0, abs(val.real)):
            raise ValueError("non-real fidelity; state is not Hermitian")
        return float(val.real)
    ov = np.vdot(t, state.data)
    return float((ov.conj() * ov).real / (snorm2 * tnorm2))
