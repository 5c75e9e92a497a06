"""Ancilla synthesis and the measurement-based Toffoli gadget.

The enabling resource is the unnormalized two-qubit "pair ancilla"
|00> + |01> + |10> (uniform over the strings with at most one 1).  Two of
them merge, by one joint parity measurement and a fixed CNOT sequence, into
the three-qubit ancilla |000> + |001> + |010> + |100>, which in turn drives a
Toffoli on three data qubits using only CNOTs, parity measurements, one X
measurement, and outcome-dependent corrections from a small table.  The
merge and the gadget resolve outcomes by postselection, or by
`core.sample_outcomes` on supplied `uniforms=`: one per merge attempt, one
per gadget measurement.

The correction table is shipped as data, one sequence of correction tokens
per outcome triple, and checked at its first use on the corrected branch map
that `toffoli-verify` reads: every basis input must leave as its Toffoli
image times one ancilla residual.  The bounded brute-force search that found
the sequences is a test oracle, which shows each shipped sequence to be the
first match by (length, vocabulary order).  Each branch's uncorrected map is
read off the Choi state once per process; the check and the `toffoli-verify`
command share it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    MeasurementRecord,
    QuantumState,
    apply_gate,
    discard,
    drop_qubit,
    measure_operator,
    sample_outcomes,
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
                            uniforms=None,
                            postselect: Optional[int] = None) -> AncillaSynthesis:
    """Merge two pair ancillas into |000>+|001>+|010>+|100> on `labels`.

    The merge measures the joint parity of the two inner qubits; the -1
    branch (probability 4/9) is the useful one, and a +1 outcome discards
    both pairs for a fresh attempt.  Exactly one of `uniforms` /
    `postselect` picks how outcomes are resolved.  `uniforms` holds one
    draw in [0, 1) per attempt, resolved by `sample_outcomes` on the one
    projection of the two ideal pairs: the attempts are the index of the
    first -1 plus one, and no -1 raises a RuntimeError.  `postselect` takes
    the -1 branch directly (+1 raises, since it has no continuation).
    """
    if (uniforms is None) == (postselect is None):
        raise ValueError("pass exactly one of uniforms= or postselect=-1")
    if postselect is not None and postselect != -1:
        raise ValueError("only the -1 merge branch continues to the three-qubit ancilla")
    a, b, c = labels
    d = _fresh_label(labels)
    joint = tensor(prepare_pair_ancilla((a, b)), prepare_pair_ancilla((c, d)))
    op = z_product(b, c)
    if postselect is not None:
        joint, rec = measure_operator(joint, op, postselect=-1)
        attempts = 1
    else:
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.ndim != 1 or not uniforms.size:
            raise ValueError(f"uniforms= takes a non-empty row of draws, one per attempt, "
                             f"got shape {uniforms.shape}")
        outcomes, branches = sample_outcomes(joint, op, uniforms)
        failures = np.flatnonzero(outcomes == -1)
        if not failures.size:
            raise RuntimeError(f"ancilla merge failed {uniforms.size} times in a row")
        joint, prob = branches[-1]
        rec = MeasurementRecord(str(op), -1, prob)
        attempts = int(failures[0]) + 1
    for ctrl, tgt in ((a, c), (d, b), (a, d), (b, d), (c, d)):
        joint = apply_gate(joint, "CNOT", ctrl, tgt)
    return AncillaSynthesis(drop_qubit(joint, d, expected_bit=1), rec, attempts)


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


def _correction_matrix(corrections: Sequence[str]) -> np.ndarray:
    """The 8x8 matrix on A, B, C of the tokens applied in order: their images
    of the 8 basis rows, transposed.  Every token is a signed permutation, so
    the product is one, with entries 0 and +-1."""
    return _corrected(_choi_state(), corrections, DATA_LABELS).data.reshape(8, 8).T.copy()


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


def branch_map(branch: BranchKey) -> np.ndarray:
    """The linear map of one postselected gadget branch, as an (8, 64) array.

    One run of the gadget with the ideal ancilla on the Choi state,
    postselecting `branch`, before any correction.  Row j is the
    unnormalized output over A, B, C, a, b, c for the input |j>, so an input
    vector `vec` leaves as `vec @ map`.
    """
    state = tensor(_choi_state(), toffoli_ancilla_target(ANCILLA_LABELS))
    return _run_gadget_circuit(state, branch, DATA_LABELS, ANCILLA_LABELS)[0].data.reshape(8, 64)


@functools.lru_cache(maxsize=None)
def _uncorrected_map(branch: BranchKey) -> np.ndarray:
    """`branch_map(branch)`, run once per process and handed out read-only."""
    m = branch_map(branch)
    m.flags.writeable = False
    return m


def corrected_branch_map(branch: BranchKey, corrections: Sequence[str]) -> np.ndarray:
    """The branch's map with `corrections` applied to the data qubits, from
    its shared uncorrected map.

    The corrections' signed permutation is applied to the map's data index.
    Each of its products has one nonzero term, +-1 times an entry of the
    map, so the result equals a run of the gadget and the corrections on the
    Choi state exactly.  With the table's corrections, every entry is 0 or
    +-1/2 and each column holds at most one nonzero, so `vec @ map` is exact
    too: it equals a one-input `toffoli_gadget` run's output bit for bit.
    """
    outputs = _uncorrected_map(branch).reshape(8, 8, 8)  # [input, data, ancilla]
    return (_correction_matrix(corrections) @ outputs).reshape(8, 64)


def _corrected(state: QuantumState, corrections: Sequence[str],
               data: Sequence[str]) -> QuantumState:
    """`state` with the correction tokens applied, in order, to the `data` qubits."""
    for token in corrections:
        for kind, axes in _VOCAB_OPS[token]:
            state = apply_gate(state, kind, *(data[ax] for ax in axes))
    return state


def _run_gadget_circuit(state: QuantumState, branch: Optional[BranchKey],
                        data: Sequence[str], anc: Sequence[str], uniforms=None):
    """Steps of the gadget up to (and including) the X measurement; the three
    outcomes are postselected as `branch`, or, where it is None, sampled
    against `uniforms`, one each, by `sample_outcomes`."""
    A, B, C = data
    a, b, c = anc
    want = branch or (None, None, None)
    records = []

    def measure(state, op):
        j = len(records)
        if uniforms is None:
            state, rec = measure_operator(state, op, postselect=want[j])
        else:
            outcomes, branches = sample_outcomes(state, op, uniforms[j:j + 1])
            outcome = int(outcomes[0])
            state, prob = branches[outcome]
            rec = MeasurementRecord(str(op), outcome, prob)
        records.append(rec)
        return state

    state = apply_gate(state, "CNOT", A, a)
    state = apply_gate(state, "CNOT", B, b)
    state = measure(state, z_product(a, b))
    state = measure(state, z_product(b, c))
    m1, m2 = records[0].outcome, records[1].outcome
    odd_one_out = {(1, 1): None, (-1, 1): a, (1, -1): c, (-1, -1): b}[(m1, m2)]
    if odd_one_out is not None:
        state = apply_gate(state, "X", odd_one_out)
    state = apply_gate(state, "CNOT", c, C)
    state = apply_gate(state, "CNOT", a, b)
    state = apply_gate(state, "CNOT", a, c)
    state = measure(state, x_product(a))
    return state, records


# The correction of each outcome triple (m1, m2, mx).  tests/test_gadgets.py
# holds the search that found them: each is the first sequence, by length and
# then vocabulary order, that makes its branch a Toffoli.
_SHIPPED_CORRECTIONS = {
    (1, 1, 1): (),
    (1, 1, -1): ("CZ_AB",),
    (1, -1, 1): ("CX_BC", "CX_AC"),
    (1, -1, -1): ("CX_BC", "CX_AC", "X_AX_B*CZ_AB*X_BX_A"),
    (-1, 1, 1): ("CX_BC",),
    (-1, 1, -1): ("CX_BC", "X_A*CZ_AB*X_A"),
    (-1, -1, 1): ("CX_AC",),
    (-1, -1, -1): ("CX_AC", "X_B*CZ_AB*X_B"),
}
# the relative tolerance of a correction's match
_TOL = 1e-10
# the Toffoli on A, B, C as a permutation of basis indices: |110> <-> |111>
_TOFFOLI_ORDER = (0, 1, 2, 3, 4, 5, 7, 6)


def derive_correction_table() -> CorrectionTable:
    """The shipped correction table, each sequence checked against its branch.

    For each outcome triple, the corrected branch map, read as [input, data,
    ancilla], must send every basis input |j> to its Toffoli image
    |T(j)> times one ancilla residual r, the same nonzero r for every j, to
    a relative `_TOL`.  As the uncorrected map is anc x M, with M the map on
    A, B, C, this holds exactly when the sequence's product P makes
    P @ M = lambda * TOFFOLI for a nonzero scalar lambda.
    """
    for branch, corrections in _SHIPPED_CORRECTIONS.items():
        outputs = corrected_branch_map(branch, corrections).reshape(8, 8, 8)
        residual = outputs[0, _TOFFOLI_ORDER[0]]
        want = np.zeros_like(outputs)
        want[np.arange(8), _TOFFOLI_ORDER] = residual
        scale = np.max(np.abs(residual))
        if scale == 0 or np.max(np.abs(outputs - want)) > _TOL * scale:
            raise RuntimeError(f"the shipped correction {corrections} does not fix "
                               f"branch {branch}")
    return CorrectionTable(dict(_SHIPPED_CORRECTIONS))


@functools.lru_cache(maxsize=None)
def default_correction_table() -> CorrectionTable:
    """The table of `derive_correction_table`, checked on the first call."""
    return derive_correction_table()


# -- the gadget ----------------------------------------------------------------

class GadgetResult(NamedTuple):
    output: QuantumState                  # density matrix on the data labels
    records: Tuple[MeasurementRecord, ...]
    branch: BranchKey
    branch_probability: float
    corrections: Tuple[str, ...]


def toffoli_gadget(input_state: QuantumState, *,
                   ancilla: Optional[QuantumState] = None,
                   uniforms=None,
                   postselect: Optional[BranchKey] = None,
                   table: Optional[CorrectionTable] = None,
                   data_labels: Sequence[str] = DATA_LABELS,
                   ancilla_labels: Sequence[str] = ANCILLA_LABELS) -> GadgetResult:
    """Measurement-based Toffoli on three data qubits.

    `input_state` lives on `data_labels` (controls first, NOT target last).
    The ancilla defaults to the ideal three-qubit state; passing a noisy one
    studies imperfect synthesis.  Exactly one of `uniforms` / `postselect`
    picks how the three measurement outcomes are resolved: `uniforms` holds
    three draws in [0, 1), and measurement j reports +1 exactly when draw j
    is below the probability of +1, the rule of `sample_outcomes`.  All
    eight branches implement the same Toffoli once the per-branch
    corrections from `table` are applied; ancillas are measured off and
    discarded, so the returned state is a density matrix on the data labels.
    """
    if (uniforms is None) == (postselect is None):
        raise ValueError("pass exactly one of uniforms= or postselect=(m1, m2, mx)")
    if uniforms is not None:
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != (3,):
            raise ValueError(f"uniforms= takes 3 draws, one per outcome, got shape "
                             f"{uniforms.shape}")
    input_state = input_state.reordered(data_labels)
    if ancilla is None:
        ancilla = toffoli_ancilla_target(ancilla_labels)
    if table is None:
        table = default_correction_table()
    state = tensor(input_state, ancilla)
    state, records = _run_gadget_circuit(state, postselect, data_labels, ancilla_labels,
                                         uniforms)
    branch = tuple(rec.outcome for rec in records)
    corrections = table[branch]
    output = discard(_corrected(state, corrections, data_labels), *ancilla_labels)
    prob = float(np.prod([rec.probability for rec in records]))
    return GadgetResult(output, tuple(records), branch, prob, corrections)


def ideal_toffoli_output(input_state: QuantumState,
                         data_labels: Sequence[str] = DATA_LABELS) -> QuantumState:
    """Reference: TOFFOLI applied directly (controls = first two labels)."""
    return apply_gate(input_state.reordered(data_labels), "TOFFOLI", *data_labels)
