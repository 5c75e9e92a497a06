"""End-to-end acceptance checks, one per headline guarantee of the library.

Each test pins a quantitative claim with an explicit tolerance: exact
identities at numerical precision, frozen reference values at 1e-10..1e-15,
and Monte Carlo estimates at four standard errors of a 1e5-sample run.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from toffsim.concat import progressive_schedule
from toffsim.core import (
    QuantumState,
    apply_gate,
    apply_matrix,
    fidelity,
    measure_operator,
    sample_outcomes,
    tensor,
    z_product,
)
from toffsim.distill import (
    CostParams,
    MixedAncilla,
    combine_states,
    distill_tree,
    expected_ops,
    fidelity_after_rounds,
    pair_supply,
    success_probability,
)
from toffsim.error_models import (
    BlockEnsemble,
    PauliChannel,
    UnitaryErrorSet,
    accumulated_flip_angle,
    ensemble_log_tan,
    parity_bias,
)
from toffsim.gadgets import (
    default_correction_table,
    derive_correction_table,
    ideal_toffoli_output,
    prepare_pair_ancilla,
    prepare_toffoli_ancilla,
    toffoli_ancilla_target,
    toffoli_gadget,
)
from toffsim.noisy_meas import (
    apply_bitwise_probe,
    cat_labels,
    cat_readout_distribution,
    eigenstring_state,
    eigenstring_weight,
    measure_cnot_noisy,
    prepare_even_cat,
    sample_effective,
    sample_exact,
)
from toffsim.cli import main as cli_main
from toffsim.rng import master_rng, trial_rng, trial_uniforms

SEED = 20260819

PAIR = np.array([1.0, 1.0, 1.0, 0.0], dtype=np.complex128)
ELEVEN = np.array([0.0, 0.0, 0.0, 1.0], dtype=np.complex128)


# 1. Every measurement branch of the gadget implements the same Toffoli. ---------

def test_every_gadget_branch_implements_the_toffoli():
    started = time.perf_counter()
    table = derive_correction_table()
    assert table.entries == default_correction_table().entries

    branches = list(itertools.product((1, -1), repeat=3))
    worst = 1.0
    for t in range(100):
        rng = trial_rng(SEED, t)
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = QuantumState.from_vector(("A", "B", "C"), vec)
        want = ideal_toffoli_output(state)
        for branch in branches:
            res = toffoli_gadget(state, postselect=branch, table=table)
            worst = min(worst, fidelity(res.output, want))
    assert worst >= 1.0 - 1e-10
    assert time.perf_counter() - started < 10.0


# 2. Two pair ancillas merge into the three-qubit ancilla on the -1 branch. ------

def test_pair_merge_produces_the_three_qubit_ancilla():
    syn = prepare_toffoli_ancilla(postselect=-1)
    assert syn.attempts == 1
    assert syn.record.outcome == -1
    assert syn.record.probability == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert fidelity(syn.state, toffoli_ancilla_target()) >= 1.0 - 1e-12

    # empirical branch frequency, honest sampled measurements on the fixed
    # pre-merge state
    joint = tensor(prepare_pair_ancilla(("a", "b")),
                   prepare_pair_ancilla(("c", "d")))
    op = z_product("b", "c")
    trials = 100_000
    outcomes, _ = sample_outcomes(joint, op, master_rng(SEED + 1).random(trials))
    hits = int(np.count_nonzero(outcomes == -1))

    # the first trials again, measured shot by shot on the same stream
    rng = master_rng(SEED + 1)
    per_shot = [measure_operator(joint, op, rng=rng)[1].outcome for _ in range(2_000)]
    assert per_shot == outcomes[:2_000].tolist()
    assert per_shot.count(-1) == np.count_nonzero(outcomes[:2_000] == -1)
    p = 4.0 / 9.0
    se = math.sqrt(p * (1.0 - p) / trials)
    assert abs(hits / trials - p) <= 4.0 * se


# 3. The purification circuit matches a raw-matrix oracle entrywise. -------------

def _oracle_combine(rho_x: np.ndarray, rho_y: np.ndarray):
    """Re-derive one purification step with nothing but numpy.

    Qubits in order (a, b, c, d), most significant bit first; both cross
    parities postselected at +1, the survivor copied out with two
    controlled-NOTs, then the second pair removed as the |00> slice.
    """
    rho = np.kron(rho_x, rho_y)  # index = 8a + 4b + 2c + d
    idx = np.arange(16)
    bit = lambda k: (idx >> k) & 1
    sign_ac = (-1.0) ** (bit(3) ^ bit(1))
    sign_bd = (-1.0) ** (bit(2) ^ bit(0))
    for sign in (sign_ac, sign_bd):
        proj = np.diag((1.0 + sign) / 2.0)
        rho = proj @ rho @ proj
    for ctrl_bit, tgt_bit in ((3, 1), (2, 0)):
        perm = np.where(bit(ctrl_bit) == 1, idx ^ (1 << tgt_bit), idx)
        u = np.zeros((16, 16))
        u[perm, idx] = 1.0
        rho = u @ rho @ u.T
    keep = [0, 4, 8, 12]  # c = d = 0 slice, leaving (a, b)
    rho_out = rho[np.ix_(keep, keep)]
    prob = np.trace(rho).real / np.trace(np.kron(rho_x, rho_y)).real
    return rho_out, prob


def _coefficients(rho4: np.ndarray):
    basis = np.stack([PAIR, ELEVEN], axis=1)
    pinv = np.linalg.pinv(basis)
    coeff = pinv @ rho4 @ pinv.conj().T
    scale = coeff[0, 0]
    return coeff[0, 1] / scale, coeff[1, 0] / scale, coeff[1, 1] / scale


def test_purification_circuit_matches_raw_matrix_oracle():
    rng = master_rng(SEED + 2)

    def random_tuple(physical: bool) -> MixedAncilla:
        a1 = complex(*(rng.uniform(-0.7, 0.7, 2)))
        if physical:
            a3 = abs(a1) ** 2 + rng.uniform(0.0, 0.6)
            return MixedAncilla(a1, a1.conjugate(), a3)
        a2 = complex(*(rng.uniform(-0.7, 0.7, 2)))
        a3 = complex(*(rng.uniform(-0.6, 0.6, 2)))
        return MixedAncilla(a1, a2, a3)

    for case in range(50):
        x = random_tuple(physical=case % 2 == 0)
        y = x if case % 5 == 0 else random_tuple(physical=case % 2 == 0)
        xs = x.to_state(("a", "b"))
        ys = y.to_state(("c", "d"))
        out, prob = combine_states(xs, ys)
        rho_want, prob_want = _oracle_combine(xs.data, ys.data)
        assert np.max(np.abs(out.data - rho_want)) <= 1e-10
        assert prob == pytest.approx(prob_want, abs=1e-10)
        # contamination coefficients multiply componentwise (squaring when
        # the inputs are identical)
        c1, c2, c3 = _coefficients(rho_want)
        assert c1 == pytest.approx(complex(x.a1) * complex(y.a1), abs=1e-10)
        assert c2 == pytest.approx(complex(x.a2) * complex(y.a2), abs=1e-10)
        assert c3 == pytest.approx(complex(x.a3) * complex(y.a3), abs=1e-10)


# 4. Purification trees hit the closed-form fidelity. ----------------------------

@pytest.mark.parametrize("a3", [-0.9, -0.5, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("levels", [0, 1, 2, 3])
def test_tree_fidelity_matches_closed_form(a3, levels):
    supply = pair_supply(MixedAncilla.from_excess_weight(a3))
    outcome = distill_tree(supply, levels, rng=master_rng(SEED + levels))
    want = fidelity_after_rounds(a3, levels)
    assert outcome.ancilla.fidelity_to_pair() == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(3.0 / (3.0 + a3 ** (2**levels)), abs=1e-15)


# 5. Parity-check success probabilities: exact 1/3, sampled, floor 1/4. ----------

def test_parity_check_success_probabilities():
    ideal = MixedAncilla.ideal()
    assert success_probability(ideal, ideal) == pytest.approx(1.0 / 3.0, abs=1e-15)

    # sampled frequency on the fixed ideal four-qubit state: a trial measures
    # op1, and op2 on the +1 branch only, so it takes one or two uniforms
    joint = tensor(prepare_pair_ancilla(("a", "b")),
                   prepare_pair_ancilla(("c", "d")))
    op1, op2 = z_product("a", "c"), z_product("b", "d")
    trials = 100_000
    uniforms = master_rng(SEED + 3).random(2 * trials)
    first, branches = sample_outcomes(joint, op1, uniforms)
    second, _ = sample_outcomes(branches[+1][0], op2, uniforms)
    first, second = first.tolist(), second.tolist()
    passed = []
    i = 0
    for _ in range(trials):
        if first[i] == +1:
            passed.append(second[i + 1] == +1)
            i += 2
        else:
            passed.append(False)
            i += 1
    successes = sum(passed)

    # the first trials again, measured shot by shot on the same stream
    rng = master_rng(SEED + 3)
    for t in range(2_000):
        state, rec1 = measure_operator(joint, op1, rng=rng)
        ok = rec1.outcome == +1 and measure_operator(state, op2, rng=rng)[1].outcome == +1
        assert ok == passed[t]
    p = 1.0 / 3.0
    se = math.sqrt(p * (1.0 - p) / trials)
    assert abs(successes / trials - p) <= 4.0 * se

    # fully contaminated pairs always pass
    eleven = QuantumState.from_vector(("a", "b"), ELEVEN)
    eleven2 = QuantumState.from_vector(("c", "d"), ELEVEN)
    _, prob = combine_states(eleven, eleven2)
    assert prob == pytest.approx(1.0, abs=1e-14)

    # over all equal incoherent contaminations the success never drops
    # below 1/4, attained at full contamination
    grid = np.linspace(0.0, 1.0, 41)
    probs = [success_probability(MixedAncilla.from_excess_weight(a),
                                 MixedAncilla.from_excess_weight(a))
             for a in grid]
    assert min(probs) >= 0.25 - 1e-12
    assert probs[-1] == pytest.approx(0.25, abs=1e-14)


# 6. Expected operation counts: closed form, recurrence, frozen values. ----------

def expected_ops_recurrence(rounds, params=CostParams()):
    """Oracle for `expected_ops`: G(0) = 1, G(k) = (2/P) G(k-1) + ratio, iterated."""
    g = 1.0
    for _ in range(rounds):
        g = (2.0 / params.success_probability) * g + params.measurement_ratio
    return g


def test_expected_operation_counts():
    for rounds, want in ((0, 1.0), (1, 8.0), (2, 50.0), (3, 302.0)):
        assert expected_ops(rounds) == pytest.approx(want, abs=1e-9)
    for params in (CostParams(), CostParams(0.25, 2.0), CostParams(0.9, 0.5)):
        for rounds in range(9):
            assert expected_ops(rounds, params) == pytest.approx(
                expected_ops_recurrence(rounds, params), rel=1e-12)
    # at the worst-case success probability 1/4 the per-round growth is 8
    params = CostParams(success_probability=0.25, measurement_ratio=2.0)
    ratio = expected_ops(12, params) / expected_ops(11, params)
    assert ratio == pytest.approx(8.0, abs=1e-6)


# 7. The probe transfers pair parity onto the readout block, and only that. ------

def test_probe_transfers_parity_onto_readout_block():
    for n in (1, 2, 3):
        a_labels = tuple(f"a{i+1}" for i in range(n))
        b_labels = tuple(f"b{i+1}" for i in range(n))
        for symbols in itertools.product("1234", repeat=n):
            x = "".join(symbols)
            pairs = eigenstring_state(x, a_labels, b_labels)
            cat = prepare_even_cat(n)
            joint = apply_bitwise_probe(pairs, a_labels, b_labels, cat)

            flipped = prepare_even_cat(n)
            for i, symbol in enumerate(x):
                if symbol == "4":
                    flipped = apply_gate(flipped, "X", cat_labels(n)[i])
            want = tensor(eigenstring_state(x, a_labels, b_labels), flipped)
            assert fidelity(joint, want) >= 1.0 - 1e-12

            dist = cat_readout_distribution(joint, cat_labels(n))
            support = np.nonzero(dist > 1e-12)[0]
            parities = {bin(int(i)).count("1") % 2 for i in support}
            assert parities == {eigenstring_weight(x)}


def test_readout_bit_flips_reverse_the_report_and_phase_flips_do_nothing():
    minus = QuantumState.from_vector(("a", "b"),
                                     np.array([0, 0, 1, -1]) / math.sqrt(2.0))
    quiet = PauliChannel.uniform(3, 0.0)

    base = measure_cnot_noisy(minus, quiet, mode="exact", rng=trial_rng(SEED, 0))
    assert (base.reported_outcome, base.true_eigenvalue) == (-1, -1)
    assert fidelity(base.logical_state, minus) >= 1.0 - 1e-12

    flipped = measure_cnot_noisy(minus, quiet, mode="exact",
                                 rng=trial_rng(SEED, 0), inject=(("X", 1),))
    assert (flipped.reported_outcome, flipped.true_eigenvalue) == (+1, -1)

    for inject in ((("Z", 0),), (("Z", 1), ("Z", 2))):
        phased = measure_cnot_noisy(minus, quiet, mode="exact",
                                    rng=trial_rng(SEED, 0), inject=inject)
        assert (phased.reported_outcome, phased.true_eigenvalue) == (-1, -1)
        assert np.allclose(phased.logical_state.data, base.logical_state.data,
                           atol=1e-12)


# 8. Decoherent readout noise: contamination estimate and parity bias. -----------

def test_decoherent_contamination_monte_carlo():
    # one shot draws one row of 2n+1 uniforms, as a per-shot call draws them
    errors = PauliChannel.uniform(8, 0.05)
    plus_plus = QuantumState.from_vector(("a", "b"), [1.0, 1.0, 1.0, 1.0])
    # the controlled-phase measurement is the CNOT one conjugated by H on b
    cnot_frame = apply_gate(plus_plus, "H", "b")
    rng = master_rng(SEED)
    trials, block = 100_000, 10_000
    reported_plus = false_plus = 0
    for _ in range(trials // block):
        shots = sample_effective(cnot_frame, errors, rng.random((block, 17)))
        plus = shots.reported_outcomes == +1
        reported_plus += int(np.count_nonzero(plus))
        false_plus += int(np.count_nonzero(plus & (shots.true_eigenvalues == -1)))
    f = false_plus / reported_plus
    alpha_hat = 3.0 * f / (1.0 - f)
    se_f = math.sqrt(f * (1.0 - f) / reported_plus)
    se_alpha = 3.0 * se_f / (1.0 - f) ** 2
    assert abs(alpha_hat - 0.39814459640777067) <= 4.0 * se_alpha


def parity_bias_enumerated(channel):
    """Oracle for `parity_bias`: sum over all 2^n flip patterns of sign times probability."""
    n = channel.n
    masks = np.arange(2**n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n)) & 1
    probs = np.prod(np.where(bits == 1, channel.p, 1.0 - channel.p), axis=1)
    signs = 1.0 - 2.0 * (bits.sum(axis=1) % 2)
    return float(signs @ probs)


def test_parity_bias_matches_enumeration():
    rng = master_rng(SEED + 4)
    for n in (1, 2, 5, 8, 12):
        channel = PauliChannel(rng.random(n) * 0.8)
        assert parity_bias(channel) == pytest.approx(
            parity_bias_enumerated(channel), abs=1e-12)


# 8b. Exact readout of blocks far beyond a dense register. ------------------------

def cnot_frame_plus_plus():
    # the controlled-phase measurement of |++> is the CNOT one of H_b |++>
    return apply_gate(QuantumState.from_vector(("a", "b"), [1.0, 1.0, 1.0, 1.0]),
                      "H", "b")


@pytest.mark.parametrize("n", [50, 200])
def test_exact_unitary_readout_of_large_blocks_reads_the_flip_angle(n):
    # sigma = n atan(0.005): 0.25 at n = 50 and 1.0 at n = 200, both below pi/2
    errors = UnitaryErrorSet.uniform_ratio(n, 0.005)
    tan2 = math.tan(accumulated_flip_angle(errors)) ** 2
    shots = sample_exact(cnot_frame_plus_plus(), errors, trial_uniforms(SEED, 0, 500, n))
    plus = shots.reported_outcomes == +1
    assert 0 < np.count_nonzero(plus) < 500
    assert np.all(shots.true_eigenvalues == 0)  # coherent: always a superposition
    for index in set(shots.state_index[plus].tolist()):
        logical = apply_gate(shots.logical_states[index], "H", "b")
        reading, _ = MixedAncilla.from_state(logical)
        assert abs(complex(reading.a3).real - tan2) <= 1e-9


@pytest.mark.parametrize("n", [50, 200])
def test_exact_pauli_readout_of_large_blocks_matches_the_parity_bias(n):
    errors = PauliChannel.uniform(n, 0.002, q=0.01)
    bias = parity_bias(errors)
    trials = 4000
    shots = sample_exact(cnot_frame_plus_plus(), errors,
                         trial_uniforms(SEED, 0, trials, 3 * n))
    reported, true = shots.reported_outcomes, shots.true_eigenvalues
    assert set(true.tolist()) <= {+1, -1}
    # the pair's +1 eigenspace holds 3/4 of its weight
    want_plus = (2.0 + bias) / 4.0
    freq = np.count_nonzero(reported == +1) / trials
    assert abs(freq - want_plus) <= 4.0 * math.sqrt(want_plus * (1.0 - want_plus) / trials)
    corr = float(np.mean(reported * true))
    assert abs(corr - bias) <= 4.0 * math.sqrt((1.0 - bias * bias) / trials)


def test_default_exact_noisy_meas_at_200_bits_passes_its_checks_within_a_second(
        tmp_path, capsys):
    cfg = tmp_path / "exact.json"
    cfg.write_text(json.dumps({"mode": "exact", "n": 200}))
    out = tmp_path / "report.json"
    assert cli_main(["noisy-meas", "--config", str(cfg), "--seed", str(SEED),
                     "--check", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["results"]["trials"] == 2000
    assert report["wall_time_seconds"] < 1.0


# 9. Coherent readout errors: exact rotated cat, log-tangent statistics. ---------

def test_coherent_errors_rotate_the_cat_exactly():
    n = 4
    errors = UnitaryErrorSet.uniform_ratio(n, 0.05)
    labels = cat_labels(n)
    state = prepare_even_cat(n, labels=labels)
    for label, matrix in zip(labels, errors.matrices()):
        state = apply_matrix(state, matrix, label)

    sigma = accumulated_flip_angle(errors)
    assert sigma == pytest.approx(0.19983358288777103, abs=1e-15)
    idx = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for bitpos in range(n):
        parity ^= (idx >> bitpos) & 1
    amp = 1.0 / math.sqrt(2.0 ** (n - 1))
    want = np.where(parity == 0, math.cos(sigma) * amp, 1j * math.sin(sigma) * amp)
    assert np.max(np.abs(state.data - want)) <= 1e-12


@pytest.mark.parametrize("n", [100, 200, 400, 1000])
def test_log_tangent_statistics_three_ways(n):
    ensemble = BlockEnsemble(n=n, levels=1, model="unitary", p=0.005,
                             distribution="gaussian")
    est = ensemble_log_tan(ensemble, trials=400_000, rng=master_rng(SEED))
    assert abs(est.series - est.closed_form) <= 0.2 * abs(est.closed_form)
    assert abs(est.monte_carlo - est.series) <= max(0.2 * abs(est.series),
                                                    4.0 * est.standard_error)
    assert est.monte_carlo <= est.bound + 4.0 * est.standard_error


# 10. Concatenation schedules reach their targets at the frozen depths. ----------

def test_concatenation_schedules_hit_frozen_exponents():
    started = time.perf_counter()
    one = progressive_schedule(-9.0)
    assert one.depth == 1 and one.achieved
    assert -10.0 <= one.final_failure_log10 <= -8.0

    two = progressive_schedule(-100.0)
    assert two.depth == 2 and two.achieved
    assert two.levels[1].block_size == 20_000_000
    assert -850.0 <= two.final_failure_log10 <= -810.0
    assert time.perf_counter() - started < 1.0


# 11. The command-line reports are deterministic. --------------------------------

def test_cli_reports_are_deterministic(tmp_path, capsys):
    json_a, json_b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (json_a, json_b):
        assert cli_main(["distill", "--trials", "40", "--seed", "3",
                         "--out", str(path)]) == 0
    capsys.readouterr()
    reports = []
    for path in (json_a, json_b):
        report = json.loads(path.read_text())
        report.pop("wall_time_seconds")
        reports.append(report)
    assert reports[0] == reports[1]

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (csv_a, csv_b):
        assert cli_main(["noisy-meas", "--trials", "50", "--seed", "7",
                         "--format", "csv", "--out", str(path)]) == 0
    capsys.readouterr()
    assert csv_a.read_bytes() == csv_b.read_bytes()
