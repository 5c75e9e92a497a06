"""Simulator conventions: state containers, gates, measurement semantics."""

import ast
import inspect
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from toffsim import core
from toffsim.core import (
    ATOL,
    GATE_MATRICES,
    GateSpec,
    MAX_DENSITY_QUBITS,
    MAX_PURE_QUBITS,
    QuantumState,
    apply_gate,
    branch_probability,
    discard,
    drop_qubit,
    fidelity,
    gate,
    measure_operator,
    sample_outcomes,
    tensor,
    x_product,
    z_product,
)
from toffsim.rng import trial_rng

from oracles import PROBE, apply_matrix


# -- package namespace ---------------------------------------------------------------

def test_package_serves_the_core_names_without_binding_them():
    import toffsim

    before = dict(vars(toffsim))
    from toffsim import QuantumState, apply_gate, measure_operator, tensor
    assert (QuantumState, apply_gate, measure_operator, tensor) == \
        (core.QuantumState, core.apply_gate, core.measure_operator, core.tensor)
    for name in toffsim.__all__:
        if name not in ("kernel_backend", "__version__"):
            assert getattr(toffsim, name) is getattr(core, name), name
    assert toffsim.kernel_backend == "python"
    with pytest.raises(AttributeError):
        toffsim.nope
    assert vars(toffsim) == before
    assert sorted(toffsim.__all__) == sorted([
        "GateSpec", "MeasurementRecord", "PauliOperator", "QuantumState",
        "apply_gate", "discard", "fidelity", "gate", "kernel_backend",
        "measure_operator", "tensor", "__version__"])


def test_every_python_block_of_the_readme_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_module_exports_what_it_names():
    import importlib
    import pkgutil

    import toffsim

    names = ["toffsim"] + [f"toffsim.{m.name}" for m in pkgutil.iter_modules(toffsim.__path__)]
    for name in names:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.{attr}"
        exec(f"from {name} import *", {})
        if name == "toffsim":
            continue  # the package root serves core's names by PEP 562
        # one home per name: each exported name is defined in its module,
        # not imported into it from another
        tree = ast.parse(inspect.getsource(module))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for attr in getattr(module, "__all__", ()):
            assert attr in defined, f"{name}.{attr} is not defined in {name}"


def test_basis_state_indexing():
    s = QuantumState.basis(("a", "b", "c"), "101")
    vec = np.zeros(8)
    vec[0b101] = 1.0
    np.testing.assert_array_equal(s.data, vec)
    assert s.labels == ("a", "b", "c")
    assert not s.is_density


def test_norm_and_trace_conventions():
    v = QuantumState.from_vector(("a", "b"), [1, 1, 1, 0])
    assert v.trace == pytest.approx(3.0)
    d = v.to_density()
    assert d.is_density
    assert d.trace == pytest.approx(3.0)


def test_reordered_round_trip():
    rng = trial_rng(5, 0)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    s = QuantumState.from_vector(("a", "b", "c"), vec)
    back = s.reordered(("c", "a", "b")).reordered(("a", "b", "c"))
    np.testing.assert_allclose(back.data, s.data, atol=1e-15)
    with pytest.raises(ValueError):
        s.reordered(("a", "b"))


def test_reordered_copies_only_for_a_real_permutation():
    s = QuantumState.from_vector(("a", "b"), [1.0, 2.0, 3.0, 4.0])
    assert s.reordered(("a", "b")) is s
    swapped = s.reordered(("b", "a"))
    assert swapped.labels == ("b", "a")
    assert np.array_equal(swapped.data, [1.0, 3.0, 2.0, 4.0])
    assert not np.shares_memory(swapped.data, s.data)
    rho = s.to_density()
    assert rho.reordered(("a", "b")) is rho
    assert not np.shares_memory(rho.reordered(("b", "a")).data, rho.data)


# the core gate table plus the tests' probe matrix
NAMED_MATRICES = {**GATE_MATRICES, "PROBE": PROBE}


@pytest.mark.parametrize("kind", sorted(NAMED_MATRICES))
def test_named_gates_are_unitary(kind):
    u = NAMED_MATRICES[kind]
    np.testing.assert_allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-14)


def test_cnot_truth_table():
    # control is the first target: |10> -> |11>, |11> -> |10>
    for src, dst in (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")):
        out = apply_gate(QuantumState.basis(("c", "t"), src), "CNOT", "c", "t")
        assert fidelity(out, QuantumState.basis(("c", "t"), dst)) == pytest.approx(1.0)


def test_toffoli_truth_table():
    for a in "01":
        for b in "01":
            for c in "01":
                out = apply_gate(QuantumState.basis("ABC", a + b + c),
                                 "TOFFOLI", "A", "B", "C")
                want = a + b + (str(int(c) ^ (a == "1" and b == "1")))
                assert fidelity(out, QuantumState.basis("ABC", want)) == pytest.approx(1.0)


def test_cphase_is_hadamard_conjugated_cnot():
    h = GATE_MATRICES["H"]
    conj = np.kron(np.eye(2), h) @ GATE_MATRICES["CNOT"] @ np.kron(np.eye(2), h)
    np.testing.assert_allclose(conj, GATE_MATRICES["CPHASE"], atol=1e-14)
    np.testing.assert_allclose(GATE_MATRICES["CPHASE"], np.diag([1, 1, 1, -1]), atol=0)


def test_probe_structure():
    # the tests' probe, the Toffoli: the identity unless the first two qubits
    # sit in |11>, CPHASE's -1 eigenstate; then X on the third
    eleven = np.diag([0.0, 0.0, 0.0, 1.0])
    want = np.kron(np.eye(4) - eleven, np.eye(2)) + np.kron(eleven, GATE_MATRICES["X"])
    np.testing.assert_array_equal(PROBE, want)
    np.testing.assert_array_equal(PROBE @ PROBE.conj().T, np.eye(8))


def test_apply_gate_serves_one_cached_spec_per_kind_and_targets():
    state = QuantumState.basis(("a", "b"), "10")
    want = apply_gate(state, GateSpec("CNOT", ("a", "b"))).data
    assert np.array_equal(apply_gate(state, "CNOT", "a", "b").data, want)
    spec = gate("CNOT", "a", "b")
    hits = gate.cache_info().hits
    assert np.array_equal(apply_gate(state, "CNOT", "a", "b").data, want)
    assert gate.cache_info().hits == hits + 1
    assert gate("CNOT", "a", "b") is spec
    # invalid gates are never cached: every call raises as before
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown gate kind"):
            apply_gate(state, "FOO", "a")
        with pytest.raises(ValueError, match="distinct"):
            apply_gate(state, "CNOT", "a", "a")
        with pytest.raises(ValueError, match="takes 2 targets, got 1"):
            apply_gate(state, "CNOT", "a")


def test_gate_spec_cache_stays_within_its_bound():
    info = gate.cache_info()
    assert info.maxsize is not None
    for i in range(info.maxsize + 10):
        gate("X", f"q{i}")
    assert gate.cache_info().currsize <= info.maxsize


def test_apply_matrix_matches_apply_gate():
    rng = trial_rng(11, 0)
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    s = QuantumState.from_vector(("q0", "q1", "q2", "q3"), vec)
    via_gate = apply_gate(s, "CNOT", "q2", "q0")
    via_matrix = apply_matrix(s, GATE_MATRICES["CNOT"], "q2", "q0")
    np.testing.assert_allclose(via_gate.data, via_matrix.data, atol=1e-14)
    with pytest.raises(ValueError):
        apply_matrix(s, np.eye(4), "q0")  # shape mismatch


def test_apply_gate_on_density_matrix():
    rng = trial_rng(12, 0)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    s = QuantumState.from_vector(("a", "b", "c"), vec)
    pure = apply_gate(s, "TOFFOLI", "a", "b", "c").to_density()
    mixed = apply_gate(s.to_density(), "TOFFOLI", "a", "b", "c")
    np.testing.assert_allclose(pure.data, mixed.data, atol=1e-12)


# -- measurement semantics -----------------------------------------------------

def test_cnot_eigenspace_on_lifted_states():
    # span{|00>, |01>, |10>+|11>} sits at +1; |10>-|11> at -1
    s = QuantumState.from_vector(("a", "b"), [1, 1, 1, 0])
    assert branch_probability(s, gate("CNOT", "a", "b"), +1) == pytest.approx(5.0 / 6.0)
    assert branch_probability(s, gate("CNOT", "a", "b"), -1) == pytest.approx(1.0 / 6.0)
    # the diagonal involution instead fixes exactly span{00,01,10}
    assert branch_probability(s, gate("CPHASE", "a", "b"), +1) == pytest.approx(1.0)


def test_pair_parity_check_probability():
    s = QuantumState.from_vector(("a", "b"), [1, 1, 1, 0])
    assert branch_probability(s, z_product("a", "b"), -1) == pytest.approx(2.0 / 3.0)


def test_postselect_keeps_raw_projection():
    s = QuantumState.from_vector(("a", "b"), [1, 1, 1, 0])
    projected, rec = measure_operator(s, z_product("a", "b"), postselect=-1)
    # no renormalization: the projection of a norm^2=3 state onto P(-1) keeps weight 2
    assert projected.trace == pytest.approx(2.0)
    assert rec.outcome == -1
    assert rec.probability == pytest.approx(2.0 / 3.0)


def test_sampling_preserves_norm():
    s = QuantumState.from_vector(("a", "b"), [2, 2, 2, 0])  # unnormalized on purpose
    outcomes, branches = sample_outcomes(s, z_product("a", "b"), trial_rng(3, 0).random(1))
    assert int(outcomes[0]) in (+1, -1)
    out, prob = branches[int(outcomes[0])]
    assert out.trace == pytest.approx(s.trace)
    # a sampled branch is the postselected one divided by its probability
    post, rec = measure_operator(s, z_product("a", "b"), postselect=int(outcomes[0]))
    assert rec.probability == prob
    np.testing.assert_allclose(out.data, post.data / math.sqrt(prob), rtol=0, atol=1e-15)


@pytest.mark.parametrize("measure", [
    lambda s, op: measure_operator(s, op, postselect=+1),
    lambda s, op: sample_outcomes(s, op, [0.5]),
    lambda s, op: branch_probability(s, op, +1),
], ids=["measure_operator-postselected", "sample_outcomes", "branch_probability"])
@pytest.mark.parametrize("density", [False, True])
def test_a_zero_norm_state_cannot_be_measured(measure, density):
    zero = QuantumState(("a",), np.zeros((2, 2)) if density else [0, 0])
    with pytest.raises(ValueError, match="cannot measure a zero-norm state"):
        measure(zero, z_product("a"))


def test_sampled_outcome_frequencies():
    s = QuantumState.from_vector(("a", "b"), [1, 1, 1, 0])
    uniforms = trial_rng(17, 0).random(4000)
    outcomes, _ = sample_outcomes(s, z_product("a", "b"), uniforms)
    # shot i reports +1 exactly when its uniform lies below p(+1)
    p_plus = branch_probability(s, z_product("a", "b"), +1)
    assert outcomes.tolist() == [+1 if u < p_plus else -1 for u in uniforms.tolist()]
    hits = int(np.count_nonzero(outcomes == -1))
    freq = hits / 4000
    sigma = math.sqrt((2 / 3) * (1 / 3) / 4000)
    assert abs(freq - 2 / 3) < 4 * sigma


def test_measure_operator_argument_validation():
    # measure_operator only postselects: the branch is required, and sampled
    # measurement is sample_outcomes
    s = QuantumState.basis(("a", "b"), "00")
    with pytest.raises(TypeError):
        measure_operator(s, z_product("a"))
    with pytest.raises(TypeError):
        measure_operator(s, z_product("a"), rng=trial_rng(0, 0), postselect=+1)
    for postselect in (0, None):
        with pytest.raises(ValueError):
            measure_operator(s, z_product("a"), postselect=postselect)


def test_postselecting_an_empty_branch_raises():
    s = QuantumState.basis(("a", "b"), "00")
    with pytest.raises(ValueError, match="probability"):
        measure_operator(s, z_product("a", "b"), postselect=-1)


def test_x_product_measurement():
    plus = QuantumState.from_vector(("a",), [1, 1])
    _, rec = measure_operator(plus, x_product("a"), postselect=+1)
    assert rec.probability == pytest.approx(1.0)
    minus = QuantumState.from_vector(("a",), [1, -1])
    _, rec = measure_operator(minus, x_product("a"), postselect=-1)
    assert rec.probability == pytest.approx(1.0)


def test_measuring_gate_operator_on_density_matrix():
    s = QuantumState.from_vector(("a", "b"), [1, 1, 1, 0]).to_density()
    assert branch_probability(s, gate("CNOT", "a", "b"), +1) == pytest.approx(5.0 / 6.0)
    projected, rec = measure_operator(s, gate("CNOT", "a", "b"), postselect=+1)
    assert projected.is_density
    assert projected.trace == pytest.approx(2.5)


# -- one projection formula ----------------------------------------------------

_PAULIS = {"X": GATE_MATRICES["X"], "Y": np.array([[0, -1j], [1j, 0]]), "Z": GATE_MATRICES["Z"]}
# (Pauli axes of a product, or a gate kind): 1-3 factor products, and gates
_MEASURED = ["Z", "ZZ", "ZZZ", "X", "XX", "XXX", "Y", "YY", "YYY", "XYZ",
             "gate:CNOT", "gate:CPHASE", "gate:X", "gate:Z"]


def _random_state(rng, labels, density):
    d = 2 ** len(labels)
    a = rng.normal(size=(d, d if density else 1)) + 1j * rng.normal(size=(d, d if density else 1))
    return QuantumState(labels, a @ a.conj().T if density else a[:, 0])


def _random_operator(rng, labels, measured):
    picked = [labels[i] for i in rng.permutation(len(labels))]
    if measured.startswith("gate:"):
        kind = measured[len("gate:"):]
        return gate(kind, *picked[:core.GATE_ARITY[kind]])
    return core.PauliOperator(tuple(zip(picked, measured)))


def _oracle_branch(state, op, outcome):
    """(I + s M) / 2 applied to `state`, with M built by np.kron over the whole
    register, the measured qubits first; returns (data, weight / trace)."""
    if isinstance(op, GateSpec):
        targets, m = op.targets, op.matrix
    else:
        targets, m = op.support, _PAULIS[op.factors[0][1]]
        for _, axis in op.factors[1:]:
            m = np.kron(m, _PAULIS[axis])
    order = list(targets) + [l for l in state.labels if l not in targets]
    full = np.kron(m, np.eye(2 ** (state.n_qubits - len(targets))))
    proj = 0.5 * (np.eye(full.shape[0], dtype=np.complex128) + outcome * full)
    data = state.reordered(order).data
    data = proj @ data @ proj if state.is_density else proj @ data
    branch = QuantumState(order, data).reordered(state.labels)
    return branch.data, branch.trace / state.trace


@pytest.mark.parametrize("density", [False, True], ids=["vector", "density"])
@pytest.mark.parametrize("measured", _MEASURED)
def test_projection_equals_the_projector_product_bit_for_bit(measured, density):
    rng = trial_rng(_MEASURED.index(measured), int(density))
    for n in range(2, 6):
        labels = tuple("abcde"[:n])
        if not measured.startswith("gate:") and len(measured) > n:
            continue
        state = _random_state(rng, labels, density)
        op = _random_operator(rng, labels, measured)
        outcomes, branches = core.sample_outcomes(state, op, [0.0, 1.0])
        assert outcomes.tolist() == [1, -1]
        weights = []
        for s in (+1, -1):
            want, prob = _oracle_branch(state, op, s)
            projected, rec = measure_operator(state, op, postselect=s)
            assert np.array_equal(projected.data, want)
            assert rec.probability == prob and rec.outcome == s
            assert branch_probability(state, op, s) == prob
            sampled, sampled_prob = branches[s]
            assert sampled_prob == prob
            assert np.array_equal(sampled.data, want / (prob if density else math.sqrt(prob)))
            weights.append(projected.trace)
        assert abs(sum(weights) - state.trace) <= 1e-12 * state.trace


def test_measuring_a_long_x_product_allocates_only_state_sized_arrays():
    labels = [f"q{i}" for i in range(10)]
    state = QuantumState.from_vector(labels, np.ones(2**10))
    tracemalloc.start()
    try:
        measure_operator(state, x_product(*labels), postselect=+1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 16 KiB state; the 4^10-entry projector of a Kronecker build is 16 MiB
    assert peak < 2**20


# -- composition and reduction ---------------------------------------------------

def test_tensor_label_collision():
    a = QuantumState.basis(("x",), "0")
    with pytest.raises(ValueError, match="collision"):
        tensor(a, QuantumState.basis(("x",), "1"))


def test_discard_returns_density():
    bell = QuantumState.from_vector(("a", "b"), [1, 0, 0, 1])
    red = discard(bell, "b")
    assert red.is_density
    np.testing.assert_allclose(red.data, np.eye(2), atol=1e-14)


def test_drop_qubit_keeps_vector_and_norm():
    s = tensor(QuantumState.from_vector(("a", "b"), [1, 1, 1, 0]),
               QuantumState.basis(("z",), "1"))
    out = drop_qubit(s, "z", expected_bit=1)
    assert not out.is_density
    assert out.trace == pytest.approx(3.0)
    np.testing.assert_allclose(out.data, [1, 1, 1, 0], atol=1e-14)


def test_drop_qubit_rejects_superposed_or_wrong_bit():
    bell = QuantumState.from_vector(("a", "b"), [1, 0, 0, 1])
    with pytest.raises(ValueError, match="definite"):
        drop_qubit(bell, "b")
    s = tensor(QuantumState.basis(("a",), "0"), QuantumState.basis(("z",), "1"))
    with pytest.raises(ValueError, match="expected"):
        drop_qubit(s, "z", expected_bit=0)


def test_drop_qubit_on_density_matrix():
    s = tensor(QuantumState.from_vector(("a", "b"), [1, 1, 1, 0]).to_density(),
               QuantumState.basis(("z",), "0"))
    out = drop_qubit(s, "z", expected_bit=0)
    assert out.is_density
    assert out.trace == pytest.approx(3.0)


def test_fidelity_conventions():
    pair = QuantumState.from_vector(("a", "b"), [1, 1, 1, 0])
    assert fidelity(pair, pair) == pytest.approx(1.0)
    assert fidelity(pair.to_density(), pair) == pytest.approx(1.0)
    # unnormalized arguments are fine on both sides
    double = QuantumState.from_vector(("a", "b"), [2, 2, 2, 0])
    assert fidelity(double, pair) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fidelity(pair, pair.to_density())  # target must be pure
    with pytest.raises(ValueError):
        fidelity(pair, QuantumState.basis(("a", "c"), "00"))


def test_fidelity_orthogonal():
    a = QuantumState.basis(("q",), "0")
    b = QuantumState.basis(("q",), "1")
    assert fidelity(a, b) == pytest.approx(0.0)


def test_register_size_caps():
    with pytest.raises(ValueError):
        QuantumState.from_vector([f"q{i}" for i in range(MAX_PURE_QUBITS + 1)],
                                 np.zeros(2 ** (MAX_PURE_QUBITS + 1)))
    n = MAX_DENSITY_QUBITS + 1
    with pytest.raises(ValueError):
        QuantumState.from_density([f"q{i}" for i in range(n)],
                                  np.eye(2**n))


def test_atol_is_strict():
    assert ATOL <= 1e-12
