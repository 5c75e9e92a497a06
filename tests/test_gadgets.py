"""Ancilla synthesis and the measurement-based Toffoli gadget."""

import itertools
import math
import re

import numpy as np
import pytest

from toffsim import gadgets
from toffsim.core import (
    GATE_MATRICES,
    QuantumState,
    apply_gate,
    branch_probability,
    discard,
    fidelity,
    gate,
    measure_operator,
    tensor,
    x_product,
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
from toffsim.rng import trial_rng, trial_uniforms

from oracles import apply_matrix, corrected_choi_map

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
        syn = prepare_toffoli_ancilla(uniforms=trial_rng(seed, 0).random(64))
        assert fidelity(syn.state, toffoli_ancilla_target()) == pytest.approx(1.0, abs=1e-12)
        if syn.attempts > 1:
            break
    else:
        pytest.fail("no retry observed in 40 seeds; P(retry) = 5/9 per attempt")


def test_synthesis_retry_budget():
    # find a seed whose first parity check comes out +1, then starve the budget:
    # the uniforms are the attempts the merge may make
    for seed in range(60):
        uniforms = trial_rng(seed, 0).random(64)
        if prepare_toffoli_ancilla(uniforms=uniforms).attempts > 1:
            with pytest.raises(RuntimeError, match="failed 1 times"):
                prepare_toffoli_ancilla(uniforms=uniforms[:1])
            return
    pytest.fail("no first-attempt failure in 60 seeds")


def test_synthesis_attempts_count_up_to_the_first_minus_one():
    # attempt i reports +1 exactly when draw i lies below p(+1) = 5/9
    p_plus = branch_probability(tensor(prepare_pair_ancilla(("a", "b")),
                                       prepare_pair_ancilla(("c", "d"))),
                                z_product("b", "c"), +1)
    assert p_plus == pytest.approx(5.0 / 9.0, abs=1e-12)
    want = prepare_toffoli_ancilla(postselect=-1)
    for uniforms, attempts in (([0.9], 1), ([0.0, p_plus], 2),
                               ([0.5, 0.1, np.nextafter(p_plus, 0), 0.99, 0.0], 4)):
        syn = prepare_toffoli_ancilla(uniforms=uniforms)
        assert syn.attempts == attempts
        assert syn.record.outcome == -1 and syn.record.probability == want.record.probability
        assert fidelity(syn.state, toffoli_ancilla_target()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(RuntimeError, match="failed 2 times"):
        prepare_toffoli_ancilla(uniforms=[0.0, np.nextafter(p_plus, 0)])


def test_synthesis_takes_exactly_one_way_to_resolve_the_merge():
    with pytest.raises(ValueError, match="exactly one"):
        prepare_toffoli_ancilla()
    with pytest.raises(ValueError, match="exactly one"):
        prepare_toffoli_ancilla(uniforms=[0.9], postselect=-1)
    for uniforms in ([], [[0.9]], 0.9):
        with pytest.raises(ValueError, match="uniforms="):
            prepare_toffoli_ancilla(uniforms=uniforms)


def test_synthesis_sampled_branch_frequency():
    # merge t reads row t of the uniforms, one uniform an attempt
    uniforms = trial_uniforms(91, 0, 2000, 64)
    hits = sum(prepare_toffoli_ancilla(uniforms=row).attempts == 1 for row in uniforms)
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
    rng = trial_rng(len(axes) + 10 * n, 0)
    dim = 2 ** len(axes)
    matrix = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert np.array_equal(basis_row_matrix(matrix, axes, n), kron_embedded(matrix, axes, n))


def test_token_matrices_equal_the_kron_oracle_exactly():
    for token in gadgets.VOCAB_TOKENS:
        want = np.eye(8, dtype=np.complex128)
        for kind, axes in gadgets._VOCAB_OPS[token]:
            want = kron_embedded(GATE_MATRICES[kind], axes, 3) @ want
        got = gadgets._correction_matrix((token,))
        assert set(np.unique(got)) <= {0, 1, -1}
        assert np.array_equal(got, want), token


# -- correction table -------------------------------------------------------------

def per_basis_outputs(branch):
    """Oracle: the uncorrected branch's outputs as [input, data, ancilla], from
    one gadget run per basis input."""
    outputs = np.zeros((8, 8, 8), dtype=np.complex128)
    for x in range(8):
        state = tensor(QuantumState.basis(DATA_LABELS, format(x, "03b")),
                       toffoli_ancilla_target(ANCILLA_LABELS))
        state = gadgets._run_gadget_circuit(state, branch, DATA_LABELS, ANCILLA_LABELS)[0]
        outputs[x] = state.reordered(DATA_LABELS + ANCILLA_LABELS).data.reshape(8, 8)
    return outputs


def transfer_matrix(outputs):
    """The 8x8 map on A, B, C of [input, data, ancilla] outputs whose
    (ancilla x data, input) matrix is rank 1, outer(anc, M): M is its
    projection on `anc`, the column of largest norm, checked against the
    leading singular pair."""
    stacked = outputs.transpose(2, 1, 0).reshape(8, 64)
    anc = stacked[:, np.argmax(np.sum(np.abs(stacked) ** 2, axis=0))]
    m = anc.conj() @ stacked / np.vdot(anc, anc)
    assert np.max(np.abs(stacked - np.outer(anc, m))) <= 1e-10 * np.max(np.abs(stacked))
    # the reference: the leading singular pair, equal up to one complex scalar
    u, s, vh = np.linalg.svd(stacked)
    assert s[1] <= 1e-10 * s[0]
    lead = s[0] * vh[0]
    scalar = np.vdot(lead, m) / np.vdot(lead, lead)
    np.testing.assert_allclose(m, scalar * lead, rtol=0, atol=1e-12 * np.max(np.abs(m)))
    return m.reshape(8, 8)


def per_basis_transfer_matrix(branch):
    """Oracle: the branch's transfer matrix from one gadget run per basis input."""
    return transfer_matrix(per_basis_outputs(branch))


@pytest.mark.parametrize("branch", BRANCHES)
def test_choi_transfer_matrix_equals_the_per_basis_oracle_bitwise(branch):
    # the check reads the Choi run's map: it equals the per-input runs
    choi = gadgets._uncorrected_map(branch).reshape(8, 8, 8)
    assert np.array_equal(choi, per_basis_outputs(branch))
    assert np.array_equal(transfer_matrix(choi), per_basis_transfer_matrix(branch))


def test_ancilla_factoring_rejects_a_matrix_of_rank_two(monkeypatch):
    # every input lands on its Toffoli image, but input 1 leaves another
    # ancilla residual than the rest: no one residual factors out
    rank_two = np.zeros((8, 8, 8), dtype=np.complex128)
    rank_two[np.arange(8), gadgets._TOFFOLI_ORDER, 0] = 1.0
    rank_two[1, 1] = [0.0, 1.0, 0, 0, 0, 0, 0, 0]
    monkeypatch.setattr(gadgets, "_uncorrected_map", lambda branch: rank_two.reshape(8, 64))
    monkeypatch.setattr(gadgets, "_SHIPPED_CORRECTIONS",
                        {branch: () for branch in gadgets._SHIPPED_CORRECTIONS})
    with pytest.raises(RuntimeError, match=r"\(\) does not fix branch \(1, 1, 1\)"):
        derive_correction_table()
    # with input 1's residual restored, the map is rank 1 and a Toffoli
    rank_two[1, 1] = [1.0, 0, 0, 0, 0, 0, 0, 0]
    assert derive_correction_table()[(1, 1, 1)] == ()
    # a map of rank 0 leaves no residual to factor out
    rank_two[:] = 0.0
    with pytest.raises(RuntimeError, match="does not fix branch"):
        derive_correction_table()


@pytest.mark.parametrize("branch", BRANCHES)
def test_corrected_branch_map_takes_one_input_amplitude_at_half_weight(branch):
    # so `vec @ map` is exact whatever order the product sums in
    m = gadgets.corrected_branch_map(branch, default_correction_table()[branch])
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
    gadgets._uncorrected_map.cache_clear()  # as in a fresh process
    table = derive_correction_table()
    assert runs == [9] * 8
    # a second check, and the corrected maps the command reads, reuse those runs
    derive_correction_table()
    for branch in BRANCHES:
        gadgets.corrected_branch_map(branch, table[branch])
    assert runs == [9] * 8


# the longest correction sequence the search oracle tries
MAX_CORRECTION_LENGTH = 4


def first_correction(transfer, token_mats):
    """Oracle: the search that found the shipped table.  The first token
    sequence, by length and then vocabulary order, whose product P makes
    P @ transfer = lambda * TOFFOLI for a scalar lambda, to a relative 1e-10."""
    toffoli = GATE_MATRICES["TOFFOLI"]
    for length in range(MAX_CORRECTION_LENGTH + 1):
        for seq in itertools.product(gadgets.VOCAB_TOKENS, repeat=length):
            corr = np.eye(8, dtype=np.complex128)
            for token in seq:
                corr = token_mats[token] @ corr
            cand = corr @ transfer
            lam = np.trace(toffoli.conj().T @ cand) / 8.0
            if abs(lam) > 1e-12 and np.max(np.abs(cand - lam * toffoli)) <= 1e-10 * abs(lam):
                return seq
    raise AssertionError(f"no correction of length <= {MAX_CORRECTION_LENGTH} fixes the branch")


@pytest.mark.parametrize("branch", BRANCHES)
def test_each_shipped_correction_is_the_first_the_search_finds(branch):
    token_mats = {token: gadgets._correction_matrix((token,)) for token in gadgets.VOCAB_TOKENS}
    shipped = default_correction_table()[branch]
    assert first_correction(per_basis_transfer_matrix(branch), token_mats) == shipped
    # the check reads the sequence's matrix in one Choi run: the tokens' product
    product = np.eye(8, dtype=np.complex128)
    for token in shipped:
        product = token_mats[token] @ product
    assert np.array_equal(gadgets._correction_matrix(shipped), product)


def test_the_check_refuses_a_shipped_correction_that_fails_its_branch(monkeypatch):
    shipped = gadgets._SHIPPED_CORRECTIONS
    for branch, corrections in (
        ((1, -1, 1), ("X_A", "CX_BC", "CX_AC")),  # a stray X moves the support
        ((1, 1, 1), ("CZ_AB",)),                  # a relative phase between inputs
        ((1, 1, -1), ()),                         # the phase left uncorrected
        ((-1, -1, -1), ("CX_AC",)),               # a token dropped
    ):
        broken = dict(shipped)
        broken[branch] = corrections
        monkeypatch.setattr(gadgets, "_SHIPPED_CORRECTIONS", broken)
        with pytest.raises(RuntimeError, match=re.escape(f"does not fix branch {branch}")):
            derive_correction_table()


@pytest.mark.parametrize("branch", BRANCHES)
def test_corrected_map_equals_the_corrected_choi_run_bit_for_bit(branch):
    table = default_correction_table()
    for corrections in (table[branch], ("X_A",) + table[branch], ("CX_AB", "X_B")):
        assert np.array_equal(gadgets.corrected_branch_map(branch, corrections),
                              corrected_choi_map(branch, corrections)), corrections


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
    inp = random_data_state(trial_rng(1, 0))
    ideal = ideal_toffoli_output(inp)
    for branch in BRANCHES:
        res = toffoli_gadget(inp, postselect=branch)
        assert res.branch == branch
        assert fidelity(res.output, ideal) >= 1.0 - 1e-12
        assert res.output.is_density
        assert set(res.output.labels) == set(DATA_LABELS)


def test_gadget_branch_probabilities_are_uniform():
    inp = random_data_state(trial_rng(2, 0))
    total = 0.0
    for branch in BRANCHES:
        res = toffoli_gadget(inp, postselect=branch)
        assert res.branch_probability == pytest.approx(1.0 / 8.0, abs=1e-12)
        total += res.branch_probability
    assert total == pytest.approx(1.0)


def test_gadget_sampled_mode():
    inp = random_data_state(trial_rng(3, 0))
    ideal = ideal_toffoli_output(inp)
    seen = set()
    for t in range(40):
        res = toffoli_gadget(inp, uniforms=trial_rng(9, t).random(3))
        assert fidelity(res.output, ideal) >= 1.0 - 1e-12
        seen.add(res.branch)
    assert len(seen) >= 4  # sampling actually explores branches


def test_gadget_requires_exactly_one_outcome_source():
    inp = QuantumState.basis(DATA_LABELS, "000")
    with pytest.raises(ValueError):
        toffoli_gadget(inp)
    with pytest.raises(ValueError):
        toffoli_gadget(inp, uniforms=[0.5, 0.5, 0.5], postselect=(1, 1, 1))
    with pytest.raises(ValueError, match="3 draws"):
        toffoli_gadget(inp, uniforms=[0.5, 0.5])


def test_gadget_records_expose_the_three_measurements():
    res = toffoli_gadget(QuantumState.basis(DATA_LABELS, "110"),
                         postselect=(1, 1, 1))
    assert len(res.records) == 3
    assert [r.outcome for r in res.records] == [1, 1, 1]
    assert res.corrections == ()


def test_corrupted_table_breaks_only_its_branch():
    table = default_correction_table()
    bad = table.replaced((-1, 1, 1), ("X_A",) + table[(-1, 1, 1)])
    inp = random_data_state(trial_rng(4, 0))
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
    inp = random_data_state(trial_rng(5, 0))
    res = toffoli_gadget(inp, ancilla=anc, postselect=(1, -1, 1))
    assert fidelity(res.output, ideal_toffoli_output(inp)) >= 1.0 - 1e-12


def test_ideal_toffoli_output_is_plain_gate_application():
    inp = random_data_state(trial_rng(6, 0))
    want = apply_gate(inp, "TOFFOLI", *DATA_LABELS)
    got = ideal_toffoli_output(inp)
    assert fidelity(got, want) == pytest.approx(1.0)


def test_gadget_weight_bookkeeping():
    # the unnormalized ancilla carries weight 4; sampling renormalizes by the
    # branch probability so the output keeps input_trace * 4, while
    # postselection keeps the raw projection: input_trace * 4 * P(branch)
    inp = random_data_state(trial_rng(7, 0))
    sampled = toffoli_gadget(inp, uniforms=trial_rng(8, 0).random(3))
    assert sampled.output.trace == pytest.approx(4.0 * inp.trace)
    post = toffoli_gadget(inp, postselect=(1, -1, -1))
    assert post.output.trace == pytest.approx(
        4.0 * inp.trace * post.branch_probability)


def test_basis_truth_table_through_the_gadget():
    for i, bits in enumerate(itertools.product("01", repeat=3)):
        s = QuantumState.basis(DATA_LABELS, "".join(bits))
        res = toffoli_gadget(s, uniforms=trial_rng(123, i).random(3))
        assert fidelity(res.output, ideal_toffoli_output(s)) >= 1.0 - 1e-12


def sampled_measurement(state, op, u):
    """Oracle of one sampled measurement: +1 exactly when u lies below the
    Born probability of +1, and the postselected projection renormalized
    by its probability."""
    outcome = +1 if u < branch_probability(state, op, +1) else -1
    state, rec = measure_operator(state, op, postselect=outcome)
    state.data /= rec.probability if state.is_density else math.sqrt(rec.probability)
    return state, rec


def replica_gadget(input_state, rng):
    """Oracle: the gadget with each of its three outcomes sampled by
    `sampled_measurement`, on one `rng.random()` draw each."""
    A, B, C = DATA_LABELS
    a, b, c = ANCILLA_LABELS
    state = tensor(input_state, toffoli_ancilla_target(ANCILLA_LABELS))
    state = apply_gate(apply_gate(state, "CNOT", A, a), "CNOT", B, b)
    records = []
    for op in (z_product(a, b), z_product(b, c)):
        state, rec = sampled_measurement(state, op, rng.random())
        records.append(rec)
    odd_one_out = {(1, 1): None, (-1, 1): a, (1, -1): c, (-1, -1): b}[
        (records[0].outcome, records[1].outcome)]
    if odd_one_out is not None:
        state = apply_gate(state, "X", odd_one_out)
    for ctrl, tgt in ((c, C), (a, b), (a, c)):
        state = apply_gate(state, "CNOT", ctrl, tgt)
    state, rec = sampled_measurement(state, x_product(a), rng.random())
    records.append(rec)
    for token in default_correction_table()[tuple(r.outcome for r in records)]:
        for kind, axes in gadgets._VOCAB_OPS[token]:
            state = apply_gate(state, kind, *(DATA_LABELS[ax] for ax in axes))
    return discard(state, *ANCILLA_LABELS), tuple(records)


def test_gadget_on_uniforms_equals_the_rng_replica_bit_for_bit():
    branches = set()
    for t in range(40):
        inp = random_data_state(trial_rng(13, t))
        res = toffoli_gadget(inp, uniforms=trial_rng(14, t).random(3))
        output, records = replica_gadget(inp, trial_rng(14, t))
        assert res.records == records
        assert np.array_equal(res.output.data, output.data)
        branches.add(res.branch)
    assert len(branches) == 8
