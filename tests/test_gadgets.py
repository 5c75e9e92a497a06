"""Ancilla synthesis and the measurement-based Toffoli gadget."""

import itertools

import numpy as np
import pytest

from toffsim import gadgets
from toffsim.core import (
    GATE_MATRICES,
    QuantumState,
    apply_gate,
    apply_matrix,
    fidelity,
    gate,
    measure_operator,
    tensor,
    z_product,
)
from toffsim.gadgets import (
    ANCILLA_LABELS,
    DATA_LABELS,
    CorrectionTable,
    default_correction_table,
    derive_correction_table,
    ideal_toffoli_output,
    prepare_pair_ancilla,
    prepare_toffoli_ancilla,
    toffoli_ancilla_target,
    toffoli_gadget,
)
from toffsim.rng import master_rng, trial_rng

BRANCHES = tuple(itertools.product((1, -1), (1, -1), (1, -1)))


def random_data_state(rng):
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return QuantumState.from_vector(DATA_LABELS, vec)


# -- ancilla preparation ---------------------------------------------------------

def test_pair_ancilla_vector():
    s = prepare_pair_ancilla()
    np.testing.assert_array_equal(s.data, [1, 1, 1, 0])
    assert s.trace == pytest.approx(3.0)


def test_three_qubit_ancilla_target():
    s = toffoli_ancilla_target()
    want = np.zeros(8)
    want[[0b000, 0b001, 0b010, 0b100]] = 1.0
    np.testing.assert_array_equal(s.data, want)
    assert s.trace == pytest.approx(4.0)


def test_synthesis_postselected_branch():
    syn = prepare_toffoli_ancilla(postselect=-1)
    assert syn.record.outcome == -1
    assert syn.record.probability == pytest.approx(4.0 / 9.0)
    assert syn.attempts == 1
    assert fidelity(syn.state, toffoli_ancilla_target()) == pytest.approx(1.0, abs=1e-12)
    assert syn.state.trace == pytest.approx(4.0)
    assert set(syn.state.labels) == set(ANCILLA_LABELS)


def test_synthesis_rejects_postselecting_the_retry_branch():
    with pytest.raises(ValueError):
        prepare_toffoli_ancilla(postselect=+1)


def test_synthesis_sampled_retries_until_success():
    # scan seeds for a run that needed more than one attempt, then check that
    # the surfaced count is honest and the output is still exact
    for seed in range(40):
        syn = prepare_toffoli_ancilla(rng=master_rng(seed))
        assert fidelity(syn.state, toffoli_ancilla_target()) == pytest.approx(1.0, abs=1e-12)
        if syn.attempts > 1:
            break
    else:
        pytest.fail("no retry observed in 40 seeds; P(retry) = 5/9 per attempt")


def test_synthesis_retry_budget():
    # find a seed whose first parity check comes out +1, then starve the budget
    for seed in range(60):
        if prepare_toffoli_ancilla(rng=master_rng(seed)).attempts > 1:
            with pytest.raises(RuntimeError, match="failed 1 times"):
                prepare_toffoli_ancilla(rng=master_rng(seed), max_retries=1)
            return
    pytest.fail("no first-attempt failure in 60 seeds")


def test_synthesis_sampled_branch_frequency():
    rng = master_rng(91)
    hits = sum(prepare_toffoli_ancilla(rng=rng).attempts == 1 for _ in range(2000))
    sigma = (4 / 9 * 5 / 9 / 2000) ** 0.5
    assert abs(hits / 2000 - 4 / 9) < 4 * sigma


# -- correction vocabulary --------------------------------------------------------

def kron_embedded(matrix, axes, n):
    """Oracle: `matrix` on `axes` of n qubits as a Kronecker product with the
    identity, its tensor factors permuted into qubit order."""
    k = len(axes)
    full = np.kron(matrix, np.eye(2 ** (n - k))).reshape((2,) * (2 * n))
    order = list(axes) + [q for q in range(n) if q not in axes]
    inverse = [order.index(q) for q in range(n)]
    return full.transpose(inverse + [n + i for i in inverse]).reshape(2**n, 2**n)


def basis_row_matrix(matrix, axes, n):
    """`matrix` on `axes` of n qubits, read off its images of the 2^n basis rows
    of a reference register, the way gadgets reads a correction token's."""
    ref, qubits = tuple(f"R{i}" for i in range(n)), tuple(f"q{i}" for i in range(n))
    basis = QuantumState(ref + qubits, np.eye(2**n).reshape(-1))
    images = apply_matrix(basis, matrix, *(qubits[ax] for ax in axes))
    return images.data.reshape(2**n, 2**n).T


@pytest.mark.parametrize("n, axes", [(1, (0,)), (3, (2,)), (3, (2, 0)), (3, (0, 1, 2)),
                                     (3, (1, 2, 0)), (4, (3, 1))])
def test_embedded_matches_the_kron_oracle(n, axes):
    rng = master_rng(len(axes) + 10 * n)
    dim = 2 ** len(axes)
    matrix = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert np.array_equal(basis_row_matrix(matrix, axes, n), kron_embedded(matrix, axes, n))


def test_token_matrices_equal_the_kron_oracle_exactly():
    for token in gadgets.VOCAB_TOKENS:
        want = np.eye(8, dtype=np.complex128)
        for kind, axes in gadgets._VOCAB_OPS[token]:
            want = kron_embedded(GATE_MATRICES[kind], axes, 3) @ want
        got = gadgets._token_matrix(token)
        assert set(np.unique(got)) <= {0, 1, -1}
        assert np.array_equal(got, want), token


# -- correction table -------------------------------------------------------------

def per_basis_transfer_matrix(branch):
    """Oracle: the branch's transfer matrix from one gadget run per basis input."""
    columns = np.zeros((8, 8, 8), dtype=np.complex128)  # [data, ancilla, input]
    for x in range(8):
        state = tensor(QuantumState.basis(DATA_LABELS, format(x, "03b")),
                       toffoli_ancilla_target(ANCILLA_LABELS))
        state = gadgets._run_gadget_circuit(state, branch, DATA_LABELS, ANCILLA_LABELS)[0]
        columns[:, :, x] = state.reordered(DATA_LABELS + ANCILLA_LABELS).data.reshape(8, 8)
    stacked = columns.transpose(1, 0, 2).reshape(8, 64)
    u, s, vh = np.linalg.svd(stacked)
    assert s[1] <= 1e-10 * s[0]
    return (s[0] * vh[0]).reshape(8, 8)


@pytest.mark.parametrize("branch", BRANCHES)
def test_choi_transfer_matrix_equals_the_per_basis_oracle_bitwise(branch):
    assert np.array_equal(gadgets._branch_transfer_matrix(branch),
                          per_basis_transfer_matrix(branch))


@pytest.mark.parametrize("branch", BRANCHES)
def test_corrected_branch_map_takes_one_input_amplitude_at_half_weight(branch):
    # so `vec @ map` is exact whatever order the product sums in
    m = gadgets.branch_map(branch, default_correction_table()[branch])
    assert m.shape == (8, 64)
    assert set(np.unique(m)) <= {0, 0.5, -0.5}
    assert np.count_nonzero(m, axis=0).max() == 1


def test_derivation_runs_the_gadget_circuit_once_per_branch(monkeypatch):
    runs = []
    circuit = gadgets._run_gadget_circuit

    def counted(state, *args, **kwargs):
        runs.append(state.n_qubits)
        return circuit(state, *args, **kwargs)

    monkeypatch.setattr(gadgets, "_run_gadget_circuit", counted)
    derive_correction_table()
    assert runs == [9] * 8


def test_derived_table_matches_shipped_default():
    derived = derive_correction_table()
    default = default_correction_table()
    for branch in BRANCHES:
        assert derived[branch] == default[branch]


def test_correction_table_requires_all_branches():
    entries = {b: () for b in BRANCHES}
    del entries[(1, 1, -1)]
    with pytest.raises(ValueError):
        CorrectionTable(entries)


def test_replaced_changes_exactly_one_entry():
    table = default_correction_table()
    other = table.replaced((1, -1, 1), ("X_A", "X_B"))
    assert other[(1, -1, 1)] == ("X_A", "X_B")
    for branch in BRANCHES:
        if branch != (1, -1, 1):
            assert other[branch] == table[branch]
    # original untouched
    assert table[(1, -1, 1)] != ("X_A", "X_B")


def test_identity_branch_has_no_corrections():
    assert default_correction_table()[(1, 1, 1)] == ()


# -- the gadget -------------------------------------------------------------------

def test_gadget_matches_toffoli_on_every_branch():
    inp = random_data_state(master_rng(1))
    ideal = ideal_toffoli_output(inp)
    for branch in BRANCHES:
        res = toffoli_gadget(inp, postselect=branch)
        assert res.branch == branch
        assert fidelity(res.output, ideal) >= 1.0 - 1e-12
        assert res.output.is_density
        assert set(res.output.labels) == set(DATA_LABELS)


def test_gadget_branch_probabilities_are_uniform():
    inp = random_data_state(master_rng(2))
    total = 0.0
    for branch in BRANCHES:
        res = toffoli_gadget(inp, postselect=branch)
        assert res.branch_probability == pytest.approx(1.0 / 8.0, abs=1e-12)
        total += res.branch_probability
    assert total == pytest.approx(1.0)


def test_gadget_sampled_mode():
    inp = random_data_state(master_rng(3))
    ideal = ideal_toffoli_output(inp)
    seen = set()
    for t in range(40):
        res = toffoli_gadget(inp, rng=trial_rng(9, t))
        assert fidelity(res.output, ideal) >= 1.0 - 1e-12
        seen.add(res.branch)
    assert len(seen) >= 4  # sampling actually explores branches


def test_gadget_requires_exactly_one_outcome_source():
    inp = QuantumState.basis(DATA_LABELS, "000")
    with pytest.raises(ValueError):
        toffoli_gadget(inp)
    with pytest.raises(ValueError):
        toffoli_gadget(inp, rng=master_rng(0), postselect=(1, 1, 1))


def test_gadget_records_expose_the_three_measurements():
    res = toffoli_gadget(QuantumState.basis(DATA_LABELS, "110"),
                         postselect=(1, 1, 1))
    assert len(res.records) == 3
    assert [r.outcome for r in res.records] == [1, 1, 1]
    assert res.corrections == ()


def test_corrupted_table_breaks_only_its_branch():
    table = default_correction_table()
    bad = table.replaced((-1, 1, 1), ("X_A",) + table[(-1, 1, 1)])
    inp = random_data_state(master_rng(4))
    ideal = ideal_toffoli_output(inp)
    for branch in BRANCHES:
        res = toffoli_gadget(inp, postselect=branch, table=bad)
        fid = fidelity(res.output, ideal)
        if branch == (-1, 1, 1):
            assert fid < 1.0 - 1e-6
        else:
            assert fid >= 1.0 - 1e-12


def test_gadget_with_custom_labels():
    inp = QuantumState.basis(("x", "y", "z"), "110")
    res = toffoli_gadget(inp, postselect=(1, 1, 1), data_labels=("x", "y", "z"),
                         ancilla_labels=("p", "q", "r"))
    assert fidelity(res.output, QuantumState.basis(("x", "y", "z"), "111")) >= 1 - 1e-12


def test_gadget_rejects_label_collisions():
    inp = QuantumState.basis(("A", "B", "C"), "000")
    with pytest.raises(ValueError):
        toffoli_gadget(inp, postselect=(1, 1, 1), ancilla_labels=("A", "b", "c"))


def test_gadget_accepts_precomputed_ancilla():
    anc = prepare_toffoli_ancilla(postselect=-1).state
    inp = random_data_state(master_rng(5))
    res = toffoli_gadget(inp, ancilla=anc, postselect=(1, -1, 1))
    assert fidelity(res.output, ideal_toffoli_output(inp)) >= 1.0 - 1e-12


def test_ideal_toffoli_output_is_plain_gate_application():
    inp = random_data_state(master_rng(6))
    want = apply_gate(inp, "TOFFOLI", *DATA_LABELS)
    got = ideal_toffoli_output(inp)
    assert fidelity(got, want) == pytest.approx(1.0)


def test_gadget_weight_bookkeeping():
    # the unnormalized ancilla carries weight 4; sampling renormalizes by the
    # branch probability so the output keeps input_trace * 4, while
    # postselection keeps the raw projection: input_trace * 4 * P(branch)
    inp = random_data_state(master_rng(7))
    sampled = toffoli_gadget(inp, rng=master_rng(8))
    assert sampled.output.trace == pytest.approx(4.0 * inp.trace)
    post = toffoli_gadget(inp, postselect=(1, -1, -1))
    assert post.output.trace == pytest.approx(
        4.0 * inp.trace * post.branch_probability)


def test_basis_truth_table_through_the_gadget():
    for i, bits in enumerate(itertools.product("01", repeat=3)):
        s = QuantumState.basis(DATA_LABELS, "".join(bits))
        res = toffoli_gadget(s, rng=trial_rng(123, i))
        assert fidelity(res.output, ideal_toffoli_output(s)) >= 1.0 - 1e-12
