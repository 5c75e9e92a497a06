"""Simulator conventions: state containers, gates, measurement semantics."""

import math

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
    apply_matrix,
    branch_probability,
    discard,
    drop_qubit,
    fidelity,
    gate,
    measure_operator,
    tensor,
    x_product,
    z_product,
)
from toffsim.rng import master_rng


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
        "apply_gate", "apply_matrix", "discard", "fidelity", "gate", "kernel_backend",
        "measure_operator", "tensor", "__version__"])


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
    rng = master_rng(5)
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


@pytest.mark.parametrize("kind", sorted(GATE_MATRICES))
def test_named_gates_are_unitary(kind):
    u = GATE_MATRICES[kind]
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
    h_mid = np.kron(np.kron(np.eye(2), GATE_MATRICES["H"]), np.eye(2))
    np.testing.assert_allclose(
        GATE_MATRICES["PROBE"], h_mid @ GATE_MATRICES["TOFFOLI"] @ h_mid, atol=1e-14)


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
    rng = master_rng(11)
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    s = QuantumState.from_vector(("q0", "q1", "q2", "q3"), vec)
    via_gate = apply_gate(s, "CNOT", "q2", "q0")
    via_matrix = apply_matrix(s, GATE_MATRICES["CNOT"], "q2", "q0")
    np.testing.assert_allclose(via_gate.data, via_matrix.data, atol=1e-14)
    with pytest.raises(ValueError):
        apply_matrix(s, np.eye(4), "q0")  # shape mismatch


def test_apply_gate_on_density_matrix():
    rng = master_rng(12)
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
    out, rec = measure_operator(s, z_product("a", "b"), rng=master_rng(3))
    assert out.trace == pytest.approx(s.trace)
    assert rec.outcome in (+1, -1)


def test_sampled_outcome_frequencies():
    s = QuantumState.from_vector(("a", "b"), [1, 1, 1, 0])
    rng = master_rng(17)
    hits = sum(measure_operator(s, z_product("a", "b"), rng=rng)[1].outcome == -1
               for _ in range(4000))
    freq = hits / 4000
    sigma = math.sqrt((2 / 3) * (1 / 3) / 4000)
    assert abs(freq - 2 / 3) < 4 * sigma


def test_measure_operator_argument_validation():
    s = QuantumState.basis(("a", "b"), "00")
    with pytest.raises(ValueError):
        measure_operator(s, z_product("a"))  # neither rng nor postselect
    with pytest.raises(ValueError):
        measure_operator(s, z_product("a"), rng=master_rng(0), postselect=+1)
    with pytest.raises(ValueError):
        measure_operator(s, z_product("a"), postselect=0)


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


# -- composition and reduction ---------------------------------------------------

def test_z_product_masks_are_cached_read_only():
    state = QuantumState.from_vector(("a", "b", "c"), np.ones(8))
    minus = core._minus_mask(state, ("a", "c"))
    # index bits (a, b, c), a most significant: -1 where a xor c is set
    want = [bin(i & 0b101).count("1") % 2 == 1 for i in range(8)]
    assert minus.tolist() == want
    assert core._minus_mask(state, ("c", "a")) is minus  # one entry per bit mask
    with pytest.raises(ValueError):
        minus[0] = True


def test_z_product_mask_cache_stays_within_its_bound():
    masks = [(n, 1 << bit) for n in range(1, 13) for bit in range(n)]
    info = core._cached_minus_mask.cache_info()
    assert info.maxsize is not None and len(masks) > info.maxsize
    for n, mask in masks:
        core._cached_minus_mask(n, mask)
    assert core._cached_minus_mask.cache_info().currsize <= info.maxsize


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
