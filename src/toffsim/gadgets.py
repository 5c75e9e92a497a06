"""Ancilla synthesis and the measurement-based Toffoli gadget.

The enabling resource is the unnormalized two-qubit "pair ancilla"
|00> + |01> + |10> (uniform over the strings with at most one 1).  Two of
them merge, by one joint parity measurement and a fixed CNOT sequence, into
the three-qubit ancilla |000> + |001> + |010> + |100>, which in turn drives a
Toffoli on three data qubits using only CNOTs, parity measurements, one X
measurement, and outcome-dependent corrections from a small table.

The correction table itself is not hard-coded: it is found by a bounded
brute-force search over short products of allowed correction gates, checking
each candidate against the exact branch transfer matrix of the gadget.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    MeasurementRecord,
    QuantumState,
    apply_gate,
    discard,
    drop_qubit,
    measure_operator,
    tensor,
    x_product,
    z_product,
)

DATA_LABELS = ("A", "B", "C")
ANCILLA_LABELS = ("a", "b", "c")


# -- ancilla states ------------------------------------------------------------

def prepare_pair_ancilla(labels: Sequence[str] = ("a", "b")) -> QuantumState:
    """|00> + |01> + |10>, unnormalized (squared norm 3)."""
    if len(labels) != 2:
        raise ValueError("pair ancilla lives on two qubits")
    return QuantumState.from_vector(labels, [1.0, 1.0, 1.0, 0.0])


def toffoli_ancilla_target(labels: Sequence[str] = ANCILLA_LABELS) -> QuantumState:
    """|000> + |001> + |010> + |100>, unnormalized (squared norm 4)."""
    if len(labels) != 3:
        raise ValueError("the Toffoli ancilla lives on three qubits")
    vec = np.zeros(8, dtype=np.complex128)
    vec[[0, 1, 2, 4]] = 1.0
    return QuantumState.from_vector(labels, vec)


class AncillaSynthesis(NamedTuple):
    """Outcome of merging two pair ancillas into the three-qubit ancilla."""

    state: QuantumState
    record: MeasurementRecord
    attempts: int


def _fresh_label(taken: Sequence[str]) -> str:
    cand = "d"
    while cand in taken:
        cand += "'"
    return cand


def prepare_toffoli_ancilla(labels: Sequence[str] = ANCILLA_LABELS, *,
                            rng: Optional[np.random.Generator] = None,
                            postselect: Optional[int] = None,
                            max_retries: int = 10_000) -> AncillaSynthesis:
    """Merge two pair ancillas into |000>+|001>+|010>+|100> on `labels`.

    The merge measures the joint parity of the two inner qubits; the -1
    branch (probability 4/9) is the useful one.  Under sampling, the +1
    branch is discarded and the merge retried with fresh pairs, up to
    `max_retries` attempts.  Under postselection the requested branch is
    taken directly (+1 raises, since it has no continuation).
    """
    a, b, c = labels
    d = _fresh_label(labels)
    if postselect is not None and postselect != -1:
        raise ValueError("only the -1 merge branch continues to the three-qubit ancilla")
    attempts = 0
    while True:
        attempts += 1
        joint = tensor(prepare_pair_ancilla((a, b)), prepare_pair_ancilla((c, d)))
        if postselect is not None:
            joint, rec = measure_operator(joint, z_product(b, c), postselect=-1)
        else:
            joint, rec = measure_operator(joint, z_product(b, c), rng=rng)
        if rec.outcome == -1:
            for ctrl, tgt in ((a, c), (d, b), (a, d), (b, d), (c, d)):
                joint = apply_gate(joint, "CNOT", ctrl, tgt)
            state = drop_qubit(joint, d, expected_bit=1)
            return AncillaSynthesis(state, rec, attempts)
        if attempts >= max_retries:
            raise RuntimeError(f"ancilla merge failed {max_retries} times in a row")


# -- correction vocabulary -----------------------------------------------------

# Conjugated controlled-phases move the phase to the other control patterns:
# CZ_AB phases |11>, X_A*CZ_AB*X_A phases |01>, and so on.
_VOCAB: Tuple[Tuple[str, Tuple[Tuple[str, Tuple[int, ...]], ...]], ...] = (
    ("CX_BC", (("CNOT", (1, 2)),)),
    ("CX_AC", (("CNOT", (0, 2)),)),
    ("CX_AB", (("CNOT", (0, 1)),)),
    ("X_A", (("X", (0,)),)),
    ("X_B", (("X", (1,)),)),
    ("CZ_AB", (("CPHASE", (0, 1)),)),
    ("X_A*CZ_AB*X_A", (("X", (0,)), ("CPHASE", (0, 1)), ("X", (0,)))),
    ("X_B*CZ_AB*X_B", (("X", (1,)), ("CPHASE", (0, 1)), ("X", (1,)))),
    ("X_AX_B*CZ_AB*X_BX_A", (("X", (0,)), ("X", (1,)), ("CPHASE", (0, 1)),
                             ("X", (1,)), ("X", (0,)))),
)
VOCAB_TOKENS = tuple(token for token, _ in _VOCAB)
_VOCAB_OPS = dict(_VOCAB)


def _choi_state() -> QuantumState:
    """sum_j |j>_R |j>_ABC, the Choi state (Choi, Linear Algebra Appl. 10, 285,
    1975): a linear map run on it leaves the image of input |j> in row j."""
    return QuantumState(("R0", "R1", "R2") + DATA_LABELS, np.eye(8).reshape(64))


def _token_matrix(token: str) -> np.ndarray:
    """The token's 8x8 matrix on A, B, C: its images of the 8 basis rows, transposed."""
    return _corrected(_choi_state(), (token,), DATA_LABELS).data.reshape(8, 8).T.copy()


# -- correction table ----------------------------------------------------------

BranchKey = Tuple[int, int, int]  # (m1, m2, mx), each +-1


class _TableFields(NamedTuple):
    entries: dict


class CorrectionTable(_TableFields):
    """Outcome-triple -> sequence of correction tokens applied to the data qubits."""

    __slots__ = ()

    def __new__(cls, entries: dict):
        expected = {(m1, m2, mx) for m1 in (1, -1) for m2 in (1, -1) for mx in (1, -1)}
        if set(entries) != expected:
            raise ValueError("correction table must cover all 8 outcome triples")
        for seq in entries.values():
            for token in seq:
                if token not in _VOCAB_OPS:
                    raise ValueError(f"unknown correction token {token!r}")
        return super().__new__(cls, entries)

    def __getitem__(self, key: BranchKey) -> Tuple[str, ...]:
        return self.entries[key]

    def replaced(self, key: BranchKey, seq: Sequence[str]) -> "CorrectionTable":
        """Copy with one entry substituted (used for negative controls)."""
        new = dict(self.entries)
        new[tuple(key)] = tuple(seq)
        return CorrectionTable(new)


def branch_map(branch: BranchKey, corrections: Sequence[str] = ()) -> np.ndarray:
    """The linear map of one postselected gadget branch, as an (8, 64) array.

    One run of the gadget with the ideal ancilla on the Choi state,
    postselecting `branch`, then `corrections` on the data qubits.  Row j is
    the unnormalized output over A, B, C, a, b, c for the input |j>, so an
    input vector `vec` leaves as `vec @ map`.  With the table's corrections,
    every entry is 0 or +-1/2 and each column holds at most one nonzero, so
    that product is exact: it equals a one-input `toffoli_gadget` run's
    output bit for bit.
    """
    state = tensor(_choi_state(), toffoli_ancilla_target(ANCILLA_LABELS))
    state = _run_gadget_circuit(state, branch, DATA_LABELS, ANCILLA_LABELS)[0]
    return _corrected(state, corrections, DATA_LABELS).data.reshape(8, 64)


def _branch_transfer_matrix(branch: BranchKey) -> np.ndarray:
    """Exact (unnormalized) 8x8 map the uncorrected gadget branch applies to A,B,C.

    The uncorrected `branch_map`, with the ancilla residual factored out.
    """
    outputs = branch_map(branch).reshape(8, 8, 8)  # [input, data, ancilla]
    stacked = outputs.transpose(2, 1, 0).reshape(8, 64)  # ancilla x (data, input)
    u, s, vh = np.linalg.svd(stacked)
    if s[1] > 1e-10 * s[0]:
        raise RuntimeError(f"ancillas fail to factor out on branch {branch}")
    return (s[0] * vh[0]).reshape(8, 8)


def _corrected(state: QuantumState, corrections: Sequence[str],
               data: Sequence[str]) -> QuantumState:
    """`state` with the correction tokens applied, in order, to the `data` qubits."""
    for token in corrections:
        for kind, axes in _VOCAB_OPS[token]:
            state = apply_gate(state, kind, *(data[ax] for ax in axes))
    return state


def _run_gadget_circuit(state: QuantumState, branch: Optional[BranchKey],
                        data: Sequence[str], anc: Sequence[str],
                        rng: Optional[np.random.Generator] = None):
    """Steps of the gadget up to (and including) the X measurement; the three
    outcomes are postselected as `branch`, or sampled from `rng` where it is None."""
    A, B, C = data
    a, b, c = anc
    state = apply_gate(state, "CNOT", A, a)
    state = apply_gate(state, "CNOT", B, b)
    want = branch or (None, None, None)
    records = []
    for op, outcome in ((z_product(a, b), want[0]), (z_product(b, c), want[1])):
        state, rec = measure_operator(state, op, rng=rng, postselect=outcome)
        records.append(rec)
    m1, m2 = records[0].outcome, records[1].outcome
    odd_one_out = {(1, 1): None, (-1, 1): a, (1, -1): c, (-1, -1): b}[(m1, m2)]
    if odd_one_out is not None:
        state = apply_gate(state, "X", odd_one_out)
    state = apply_gate(state, "CNOT", c, C)
    state = apply_gate(state, "CNOT", a, b)
    state = apply_gate(state, "CNOT", a, c)
    state, rec = measure_operator(state, x_product(a), rng=rng, postselect=want[2])
    records.append(rec)
    return state, records


# derive_correction_table's longest sequence searched, and the relative
# tolerance of a match
_MAX_LEN = 4
_TOL = 1e-10


def derive_correction_table() -> CorrectionTable:
    """Search short correction sequences making every gadget branch a Toffoli.

    For each outcome triple, the branch transfer matrix M is computed exactly
    and the search looks for the first sequence (by length, then vocabulary
    order) whose product P satisfies P @ M = lambda * TOFFOLI for some
    scalar lambda.
    """
    from .core import GATE_MATRICES
    toffoli = GATE_MATRICES["TOFFOLI"]
    token_mats = {token: _token_matrix(token) for token in VOCAB_TOKENS}
    entries = {}
    for branch in itertools.product((1, -1), (1, -1), (1, -1)):
        m = _branch_transfer_matrix(branch)
        found = None
        for length in range(_MAX_LEN + 1):
            for seq in itertools.product(VOCAB_TOKENS, repeat=length):
                corr = np.eye(8, dtype=np.complex128)
                for token in seq:
                    corr = token_mats[token] @ corr
                cand = corr @ m
                lam = np.trace(toffoli.conj().T @ cand) / 8.0
                if abs(lam) > 1e-12 and np.max(np.abs(cand - lam * toffoli)) <= _TOL * abs(lam):
                    found = seq
                    break
            if found is not None:
                break
        if found is None:
            raise RuntimeError(f"no correction of length <= {_MAX_LEN} fixes branch {branch}")
        entries[branch] = found
    return CorrectionTable(entries)


_DERIVED_TABLE: Optional[CorrectionTable] = None


def default_correction_table() -> CorrectionTable:
    global _DERIVED_TABLE
    if _DERIVED_TABLE is None:
        _DERIVED_TABLE = derive_correction_table()
    return _DERIVED_TABLE


# -- the gadget ----------------------------------------------------------------

class GadgetResult(NamedTuple):
    output: QuantumState                  # density matrix on the data labels
    records: Tuple[MeasurementRecord, ...]
    branch: BranchKey
    branch_probability: float
    corrections: Tuple[str, ...]


def toffoli_gadget(input_state: QuantumState, *,
                   ancilla: Optional[QuantumState] = None,
                   rng: Optional[np.random.Generator] = None,
                   postselect: Optional[BranchKey] = None,
                   table: Optional[CorrectionTable] = None,
                   data_labels: Sequence[str] = DATA_LABELS,
                   ancilla_labels: Sequence[str] = ANCILLA_LABELS) -> GadgetResult:
    """Measurement-based Toffoli on three data qubits.

    `input_state` lives on `data_labels` (controls first, NOT target last).
    The ancilla defaults to the ideal three-qubit state; passing a noisy one
    studies imperfect synthesis.  Exactly one of `rng` / `postselect` picks
    how the three measurement outcomes are resolved.  All eight branches
    implement the same Toffoli once the per-branch corrections from `table`
    are applied; ancillas are measured off and discarded, so the returned
    state is a density matrix on the data labels.
    """
    if (rng is None) == (postselect is None):
        raise ValueError("pass exactly one of rng= or postselect=(m1, m2, mx)")
    input_state = input_state.reordered(data_labels)
    if ancilla is None:
        ancilla = toffoli_ancilla_target(ancilla_labels)
    if table is None:
        table = default_correction_table()
    state = tensor(input_state, ancilla)
    state, records = _run_gadget_circuit(state, postselect, data_labels, ancilla_labels, rng)
    branch = tuple(rec.outcome for rec in records)
    corrections = table[branch]
    output = discard(_corrected(state, corrections, data_labels), *ancilla_labels)
    prob = float(np.prod([rec.probability for rec in records]))
    return GadgetResult(output, tuple(records), branch, prob, corrections)


def ideal_toffoli_output(input_state: QuantumState,
                         data_labels: Sequence[str] = DATA_LABELS) -> QuantumState:
    """Reference: TOFFOLI applied directly (controls = first two labels)."""
    return apply_gate(input_state.reordered(data_labels), "TOFFOLI", *data_labels)
