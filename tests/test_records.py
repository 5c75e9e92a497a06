"""The library's record classes: immutable, compared by value (or by identity
where they hold arrays), and validated with the same messages as always."""

import itertools
import re

import numpy as np
import pytest

from toffsim.concat import CodeParams, LevelSpec, Schedule
from toffsim.core import GateSpec, MeasurementRecord, PauliOperator, QuantumState
from toffsim.ancilla import MixedAncilla
from toffsim.channels import Alpha3Reading, PauliChannel, UnitaryErrorSet
from toffsim.distill import CostParams, DistillOutcome
from toffsim.error_models import BlockEnsemble, EnsembleFidelity, LogTanEstimate
from toffsim.gadgets import AncillaSynthesis, CorrectionTable, GadgetResult
from toffsim.noisy_meas import ParityShots, RawPrepResult

BRANCHES = list(itertools.product((1, -1), repeat=3))


def _state():
    return QuantumState.from_vector(("a", "b"), [1.0, 1.0, 1.0, 0.0])


# two unequal instances of every record that holds only values
VALUE_RECORDS = {
    "GateSpec": lambda i: GateSpec("CNOT", ("a", "b") if i else ("b", "a")),
    "PauliOperator": lambda i: PauliOperator((("a", "Z"), ("b", "X" if i else "Y"))),
    "MeasurementRecord": lambda i: MeasurementRecord("Z(a)", 1 - 2 * i, 0.25),
    "Alpha3Reading": lambda i: Alpha3Reading(0.1, 0.2, 0.3 + i),
    "BlockEnsemble": lambda i: BlockEnsemble(n=4, levels=2 + i, model="decoherent", p=0.1),
    "EnsembleFidelity": lambda i: EnsembleFidelity(0.7, -2.3 - i),
    "LogTanEstimate": lambda i: LogTanEstimate(-1.0, 0.01, -1.1, -1.2, -0.5, 100 + i, 3),
    "MixedAncilla": lambda i: MixedAncilla(0.1j, -0.1j, 0.01 * (1 + i)),
    "DistillOutcome": lambda i: DistillOutcome(MixedAncilla.ideal(), 1, 3 + i, 1, 6),
    "CostParams": lambda i: CostParams(measurement_ratio=2.0 + i),
    "CodeParams": lambda i: CodeParams(prefactor_log10=float(i)),
    "LevelSpec": lambda i: LevelSpec(1, 1000, -9.0 - i, -8.7),
    "Schedule": lambda i: Schedule("standard", -9.0, (LevelSpec(1, 1000, -9.0, -8.7),),
                                   bool(i)),
}

# every record, one instance each
ALL_RECORDS = {name: (lambda make=make: make(0)) for name, make in VALUE_RECORDS.items()}
ALL_RECORDS.update({
    "PauliChannel": lambda: PauliChannel.uniform(3, 0.1),
    "UnitaryErrorSet": lambda: UnitaryErrorSet.uniform_ratio(3, 0.1),
    "CorrectionTable": lambda: CorrectionTable({b: () for b in BRANCHES}),
    "AncillaSynthesis": lambda: AncillaSynthesis(_state(), MeasurementRecord("Z(a)", -1, 0.4),
                                                 1),
    "GadgetResult": lambda: GadgetResult(_state(), (), (1, 1, 1), 0.125, ()),
    "RawPrepResult": lambda: RawPrepResult(_state(), 1, 1, 0, 0),
    "ParityShots": lambda: ParityShots(1, np.ones(2), np.ones(2), np.zeros(2), np.zeros(2),
                                       np.zeros(2, dtype=np.intp), (_state(),)),
})


def _fields(record):
    return getattr(record, "_fields", None) or record.__slots__


@pytest.mark.parametrize("name", sorted(ALL_RECORDS))
def test_every_record_is_immutable(name):
    record = ALL_RECORDS[name]()
    for field in _fields(record):
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_value(name):
    make = VALUE_RECORDS[name]
    assert make(1) == make(1) and hash(make(1)) == hash(make(1))
    assert make(0) != make(1)
    assert len({make(0), make(1), make(1)}) == 2
    assert repr(make(1)).startswith(f"{name}(")


@pytest.mark.parametrize("make", [lambda: PauliChannel.uniform(3, 0.1),
                                  lambda: UnitaryErrorSet.uniform_ratio(3, 0.1)],
                         ids=["PauliChannel", "UnitaryErrorSet"])
def test_array_records_compare_and_hash_by_identity(make):
    one, twin = make(), make()
    assert one == one and one != twin
    assert hash(one) == object.__hash__(one) and hash(twin) == object.__hash__(twin)
    assert len({one, twin, one}) == 2
    assert repr(one).startswith(f"{type(one).__name__}(") and "array(" in repr(one)


def test_validating_records_normalize_their_fields():
    assert GateSpec("X", ["a"]).targets == ("a",)
    assert GateSpec("CNOT", (1, 2)).targets == ("1", "2")
    assert PauliOperator([("a", "z"), (2, "x")]).factors == (("a", "Z"), ("2", "X"))
    table = CorrectionTable({b: ("X_A",) if b == (1, 1, 1) else () for b in BRANCHES})
    assert table[(1, 1, 1)] == ("X_A",)


def _ensemble(**changes):
    fields = dict(n=4, levels=2, model="decoherent", p=0.1)
    fields.update(changes)
    return lambda: BlockEnsemble(**fields)


@pytest.mark.parametrize("make, message", [
    (lambda: GateSpec("NOPE", ("a",)), "unknown gate kind 'NOPE'"),
    (lambda: GateSpec("CNOT", ("a", "a")), "gate targets must be distinct"),
    (lambda: GateSpec("CNOT", ("a",)), "CNOT takes 2 targets, got 1"),
    (lambda: PauliOperator((("a", "W"),)), "unknown Pauli axis 'W'"),
    (lambda: PauliOperator((("a", "Z"), ("a", "X"))), "repeated qubit in Pauli product"),
    (lambda: PauliOperator(()), "empty Pauli product"),
    (_ensemble(n=0), "n must be >= 1"),
    (_ensemble(levels=-1), "levels must be >= 0"),
    (_ensemble(model="pauli"), "model must be one of ('decoherent', 'unitary')"),
    (_ensemble(p=1.5), "decoherent p must lie in [0, 1]"),
    (_ensemble(defect_fraction=2.0), "defect_fraction must lie in [0, 1]"),
    (_ensemble(defect_fraction=0.1, defect_p=0.4), "defective bits flip with probability > 1/2"),
    (_ensemble(model="unitary", p=-1.0), "unitary p (mean squared tangent) must be >= 0"),
    (_ensemble(model="unitary", distribution="flat"),
     "distribution must be one of ('two_point', 'gaussian')"),
    (_ensemble(model="unitary", defect_fraction=0.1),
     "defective bits are a decoherent-model feature"),
    (lambda: CostParams(success_probability=0.0), "success probability must be in (0, 1]"),
    (lambda: CostParams(measurement_ratio=-1.0), "measurement ratio must be >= 0"),
    (lambda: CodeParams(threshold_log10=0.0),
     "threshold must be a probability below 1 (log10 < 0)"),
    (lambda: CodeParams(scaling_exponent=1.0), "scaling exponent must lie in (0, 1)"),
    (lambda: CorrectionTable({(1, 1, 1): ()}),
     "correction table must cover all 8 outcome triples"),
    (lambda: CorrectionTable({b: ("Y_C",) for b in BRANCHES}),
     "unknown correction token 'Y_C'"),
    (lambda: PauliChannel([0.1, 0.2], [0.1]), "p and q must be equal-length vectors"),
    (lambda: PauliChannel([]), "channel needs at least one bit"),
    (lambda: PauliChannel([0.1], [1.5]), "q entries must lie in [0, 1]"),
    (lambda: UnitaryErrorSet([[1.0, 0.0, 0.0]]),
     "coefficients must be an (n, 4) array of rows (A, B, C, D)"),
    (lambda: UnitaryErrorSet([[1.0, 0.0, 0.5, 0.0]]),
     "each row must satisfy A^2 + B^2 + C^2 + D^2 = 1"),
])
def test_validation_messages_are_unchanged(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
