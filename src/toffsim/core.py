"""Dense exact simulation of small registers of labeled qubits.

A state is a numpy array over an ordered tuple of qubit labels, which are
plain strings: either a 2^n amplitude vector or a 2^n x 2^n density matrix.
Its one size is `trace`, the squared norm of a vector or the trace of a
density matrix.  Norms are tracked, never enforced -- the protocols in this
package habitually work with unnormalized states (postselection keeps the
raw projection), and every probability or fidelity divides by the
appropriate traces instead.

Measurement is of Hermitian involutions (Pauli products, or two-valued gate
operators such as the controlled-NOT), with two modes: sampling against a
supplied random generator, or postselecting a requested branch.  Sampling
divides the projected state by the branch probability, so the norm of the
input is preserved; postselection returns the bare projection and the caller
tracks the norm.  `sample_outcomes` repeats a sampled measurement of one
state against an array of uniforms, by the same rule.
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
    eye2 = np.eye(2)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    h = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128)
    s = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
    cnot = np.eye(4, dtype=np.complex128)
    cnot[2:, 2:] = x
    cphase = np.diag([1, 1, 1, -1]).astype(np.complex128)
    toffoli = np.eye(8, dtype=np.complex128)
    toffoli[6:, 6:] = x
    # Three-qubit probe: flips the third qubit exactly when the first two sit
    # in the -1 eigenstate of CNOT; realized as the middle qubit's Hadamard
    # conjugating a Toffoli.
    h_mid = np.kron(np.kron(eye2, h), eye2)
    probe = h_mid @ toffoli @ h_mid
    return {
        "X": x, "Z": z, "H": h, "S": s,
        "CNOT": cnot, "CPHASE": cphase,
        "TOFFOLI": toffoli, "PROBE": probe,
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

    @property
    def is_diagonal(self) -> bool:
        return all(axis == "Z" for _, axis in self.factors)

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


def _minus_mask(state: QuantumState, zlabels: Sequence[str]) -> np.ndarray:
    """True at the basis indices where the Z product on `zlabels` reads -1."""
    n = state.n_qubits
    mask = 0
    for label in zlabels:
        mask |= 1 << (n - 1 - state.axis(label))
    return _cached_minus_mask(n, mask)


# the protocols measure a few dozen distinct Z products; at 14 qubits a mask
# is 16 KiB, so the cache holds at most 1 MiB
@functools.lru_cache(maxsize=64)
def _cached_minus_mask(n_qubits: int, mask: int) -> np.ndarray:
    idx = np.arange(2**n_qubits)
    # popcount parity of the masked bits
    minus = np.zeros(2**n_qubits, dtype=bool)
    while mask:
        lsb = mask & -mask
        minus ^= (idx & lsb) != 0
        mask ^= lsb
    minus.flags.writeable = False
    return minus


def _project_diag(state: QuantumState, minus: np.ndarray, outcome: int, pin: float):
    # the indices outside the outcome's eigenspace: the -1 mask for +1, and
    # its complement for -1
    drop = minus if outcome == +1 else ~minus
    if state.is_density:
        mat = state.data.copy()
        mat[drop, :] = 0.0
        mat[:, drop] = 0.0
        prob = float(np.real(np.trace(mat))) / pin
        return state._derived(mat), prob
    vec = state.data.copy()
    vec[drop] = 0.0
    prob = float(np.real(np.vdot(vec, vec))) / pin
    return state._derived(vec), prob


def _projector(op_matrix: np.ndarray, outcome: int) -> np.ndarray:
    d = op_matrix.shape[0]
    return 0.5 * (np.eye(d, dtype=np.complex128) + outcome * op_matrix)


# (kind, outcome) -> projector onto that eigenspace of an involutory gate
_GATE_PROJECTORS = {(k, outcome): _projector(GATE_MATRICES[k], outcome)
                    for k in INVOLUTORY_GATES for outcome in (+1, -1)}


def _project_dense(state: QuantumState, proj: np.ndarray, axes: Sequence[int], pin: float):
    projected = _apply_matrix_to_axes(state, proj, axes)
    prob = projected.trace / pin
    return projected, prob


def _operator_parts(state: QuantumState, op: MeasOperator, pin: float):
    """Returns (description, projector applier) for a two-valued operator.

    `pin` is `state.trace`, the weight every branch probability divides by.
    """
    if isinstance(op, PauliOperator):
        if op.is_diagonal:
            minus = _minus_mask(state, op.support)
            return str(op), lambda outcome: _project_diag(state, minus, outcome, pin)
        mats = [_PAULI_MATRICES[axis] for _, axis in op.factors]
        m = mats[0]
        for extra in mats[1:]:
            m = np.kron(m, extra)
        axes = [state.axis(l) for l in op.support]
        return str(op), lambda outcome: _project_dense(state, _projector(m, outcome), axes,
                                                       pin)
    if isinstance(op, GateSpec):
        if op.kind not in INVOLUTORY_GATES:
            raise ValueError(f"{op.kind} is not an involution; cannot measure it as a +-1 operator")
        axes = [state.axis(l) for l in op.targets]
        return str(op), lambda outcome: _project_dense(
            state, _GATE_PROJECTORS[op.kind, outcome], axes, pin)
    raise TypeError(f"cannot measure operator of type {type(op).__name__}")


def measure_operator(state: QuantumState, op: MeasOperator, *,
                     rng: Optional[np.random.Generator] = None,
                     postselect: Optional[int] = None):
    """Measure a Hermitian involution; returns (new state, MeasurementRecord).

    Exactly one of `rng` (sample the outcome) and `postselect` (+1 or -1,
    keep that branch unrenormalized) must be given.  Sampling renormalizes
    the projection by the branch probability, preserving the input norm.
    """
    if (rng is None) == (postselect is None):
        raise ValueError("pass exactly one of rng= (sampling) or postselect=")
    if postselect is not None and postselect not in (+1, -1):
        raise ValueError("postselect must be +1 or -1")
    pin = state.trace
    if pin <= 0.0:
        raise ValueError("cannot measure a zero-norm state")

    desc, project = _operator_parts(state, op, pin)

    if postselect is not None:
        projected, prob = project(postselect)
        if prob < MIN_BRANCH_PROBABILITY:
            raise ValueError(
                f"postselected branch {postselect:+d} of {desc} has probability {prob:.3e} "
                f"< {MIN_BRANCH_PROBABILITY}")
        return projected, MeasurementRecord(desc, postselect, prob)

    outcomes, branches = _sample_branches(desc, project, [rng.random()])
    outcome = int(outcomes[0])
    out, prob = branches[outcome]
    return out, MeasurementRecord(desc, outcome, prob)


def _renormalized(projected: QuantumState, prob: float) -> QuantumState:
    """A fresh projection divided in place by the weight of its branch."""
    projected.data /= prob if projected.is_density else math.sqrt(prob)
    return projected


def _sample_branches(desc: str, project, uniforms):
    plus, p_plus = project(+1)
    p_plus = min(max(p_plus, 0.0), 1.0)
    hit_plus = np.asarray(uniforms, dtype=np.float64) < p_plus
    n_plus = np.count_nonzero(hit_plus)
    branches = {}
    if n_plus:
        branches[+1] = (_renormalized(plus, p_plus), p_plus)
    if n_plus < hit_plus.size:
        minus, p_minus = project(-1)
        if p_minus <= 0.0:
            raise ValueError(f"sampled an empty branch of {desc}; state is numerically degenerate")
        branches[-1] = (_renormalized(minus, p_minus), p_minus)
    return np.where(hit_plus, 1, -1), branches


def sample_outcomes(state: QuantumState, op: MeasOperator, uniforms):
    """Sampled measurement of `op`, repeated on one `state` once per uniform.

    Shot i reports +1 exactly when uniforms[i] < p(+1), the rule
    `measure_operator` applies to its one `rng.random()` draw.  Returns
    (outcomes, branches): an int array of +1/-1, one per uniform, and
    {outcome: (renormalized post-measurement state, probability)} for the
    outcomes that occur; the -1 projection is computed only when some shot
    hits it.
    """
    pin = state.trace
    if pin <= 0.0:
        raise ValueError("cannot measure a zero-norm state")
    desc, project = _operator_parts(state, op, pin)
    return _sample_branches(desc, project, uniforms)


def branch_probability(state: QuantumState, op: MeasOperator, outcome: int) -> float:
    """Born probability of one outcome, without touching the state."""
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    _, project = _operator_parts(state, op, state.trace)
    _, prob = project(outcome)
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
