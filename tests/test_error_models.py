"""Decoherent and coherent readout-error statistics."""

import math

import numpy as np
import pytest

from toffsim.error_models import (
    Alpha3Reading,
    BlockEnsemble,
    EnsembleFidelity,
    PauliChannel,
    UnitaryErrorSet,
    accumulated_flip_angle,
    alpha3_decoherent,
    characteristic_cos_moment,
    ensemble_distill_fidelity,
    ensemble_log_tan,
    parity_bias,
)
from toffsim.rng import master_rng, trial_rng


# -- Pauli channels and parity bias ------------------------------------------------

def test_channel_validation():
    with pytest.raises(ValueError):
        PauliChannel(np.array([0.1, 1.2]))
    with pytest.raises(ValueError):
        PauliChannel(np.array([-0.1]))
    with pytest.raises(ValueError):
        PauliChannel(np.array([0.1, 0.2]), np.array([0.1]))
    with pytest.raises(ValueError):
        PauliChannel(np.array([]))


def test_channel_rejects_nan_probabilities():
    with pytest.raises(ValueError, match="p entries"):
        PauliChannel([math.nan])
    with pytest.raises(ValueError, match="q entries"):
        PauliChannel([0.1, 0.2], [0.0, math.nan])


def test_uniform_channel():
    ch = PauliChannel.uniform(4, 0.05, 0.01)
    assert ch.n == 4
    np.testing.assert_array_equal(ch.p, [0.05] * 4)
    np.testing.assert_array_equal(ch.q, [0.01] * 4)


def test_parity_bias_product_form():
    ch = PauliChannel(np.array([0.1, 0.25, 0.0]))
    assert parity_bias(ch) == pytest.approx(0.8 * 0.5 * 1.0)


def parity_bias_enumerated(channel):
    """Oracle for `parity_bias`: sum over all 2^n flip patterns of sign times probability."""
    n = channel.n
    if n > 16:
        raise ValueError("enumeration limited to n <= 16 bits")
    masks = np.arange(2**n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n)) & 1
    probs = np.prod(np.where(bits == 1, channel.p, 1.0 - channel.p), axis=1)
    signs = 1.0 - 2.0 * (bits.sum(axis=1) % 2)
    return float(signs @ probs)


def test_parity_bias_matches_enumeration_on_random_channels():
    rng = master_rng(6021)
    for n in (1, 3, 7, 12):
        ch = PauliChannel(rng.random(n) * 0.8)
        assert parity_bias(ch) == pytest.approx(parity_bias_enumerated(ch), abs=1e-12)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        parity_bias_enumerated(PauliChannel.uniform(20, 0.1))


def test_alpha3_frozen_value():
    reading = alpha3_decoherent(PauliChannel.uniform(8, 0.05))
    assert reading.bias == pytest.approx(0.9**8)
    assert reading.value == pytest.approx(0.39814459640777067, abs=1e-15)
    assert isinstance(reading, Alpha3Reading)


def test_alpha3_bounded_for_benign_channels():
    # all flip rates at or below 1/2 keep the corner weight inside [0, 1]
    rng = master_rng(77)
    for _ in range(50):
        ch = PauliChannel(rng.random(6) * 0.5)
        val = alpha3_decoherent(ch).value
        assert 0.0 <= val <= 1.0


def test_alpha3_exceeds_one_with_a_defective_bit():
    p = np.full(8, 0.05)
    p[3] = 0.9  # single bit flipping worse than chance -> negative bias
    reading = alpha3_decoherent(PauliChannel(p))
    assert reading.bias < 0
    assert reading.value > 1.0


def test_alpha3_blows_up_at_certain_wrong_reports():
    with pytest.raises(ValueError):
        alpha3_decoherent(PauliChannel(np.array([1.0])))


def test_alpha3_large_n_approximation_field():
    ch = PauliChannel.uniform(100, 0.01)
    reading = alpha3_decoherent(ch)
    # exp(-2pn) approximation sits close to the exact value in this regime
    assert reading.large_n_approx == pytest.approx(reading.value, rel=0.05)


def test_max_block_size_frozen_value():
    from toffsim.concat import max_block_size


    assert max_block_size(1e-3) == pytest.approx(1000.0 * math.log(1000.0))
    with pytest.raises(ValueError):
        max_block_size(0.0)
    with pytest.raises(ValueError):
        max_block_size(1.0)


# -- coherent error sets ---------------------------------------------------------------

def test_unitary_error_set_requires_unit_rows():
    bad = np.array([[1.0, 0.0, 0.1, 0.0]])
    with pytest.raises(ValueError):
        UnitaryErrorSet(bad)


def test_from_ratios_builds_bit_rotations():
    errors = UnitaryErrorSet.from_ratios(np.array([0.05, -0.02, 0.1]))
    assert errors.n == 3
    assert errors.is_bit_rotation
    for m in errors.matrices():
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


def test_from_ratios_past_the_overflow_of_the_squared_ratio():
    # r * r overflows past |r| ~ 1.3e154, where the rotation is a near-full flip
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        errors = UnitaryErrorSet.from_ratios(np.array([1e300, -1e200, 0.05]))
    a, c = errors.coefficients[:, 0], errors.coefficients[:, 2]
    assert a[:2].tolist() == [1e-300, 1e-200]
    assert c[:2] == pytest.approx([1.0, -1.0], rel=1e-15)
    assert errors.coefficients[2].tolist() == \
        UnitaryErrorSet.from_ratios(0.05).coefficients[0].tolist()


def test_uniform_ratio_accumulated_angle_frozen():
    errors = UnitaryErrorSet.uniform_ratio(4, 0.05)
    sigma = accumulated_flip_angle(errors)
    assert sigma == pytest.approx(4.0 * math.atan(0.05), abs=1e-15)
    assert sigma == pytest.approx(0.19983358288777103, abs=1e-15)


def test_accumulated_angle_needs_bit_rotations():
    # a row with a phase component (B != 0) is not a pure bit rotation
    coeffs = np.array([[math.sqrt(1 - 0.01), 0.1, 0.0, 0.0]])
    errors = UnitaryErrorSet(coeffs)
    assert not errors.is_bit_rotation
    with pytest.raises(ValueError):
        accumulated_flip_angle(errors)


def test_arctan_reading_signs():
    # per-bit angles add with their signs
    for ratios in ([0.05] * 4, [-0.05] * 4, [0.05, -0.02, 0.03, -0.07]):
        sigma = accumulated_flip_angle(UnitaryErrorSet.from_ratios(ratios))
        assert type(sigma) is float
        assert sigma == pytest.approx(sum(math.atan(r) for r in ratios), abs=1e-15)


# -- cosine moments ----------------------------------------------------------------------

def test_two_point_moment_is_exact():
    p, m = 0.01, 6
    want = math.cos(m * math.atan(math.sqrt(p)))
    assert characteristic_cos_moment("two_point", p, m) == pytest.approx(want, abs=1e-14)


def test_gaussian_moment_nears_exponential_form_at_small_p():
    for p in (0.001, 0.01):
        for k in range(4):
            m = 2 * (2 * k + 1)
            char = characteristic_cos_moment("gaussian", p, m)
            assert abs(char - math.exp(-0.5 * m * m * p)) <= 0.1


def test_moment_distribution_validation():
    with pytest.raises(ValueError):
        characteristic_cos_moment("cauchy", 0.01, 2)


# -- block ensembles -----------------------------------------------------------------------

def test_ensemble_validation():
    with pytest.raises(ValueError):
        BlockEnsemble(n=4, levels=2, model="unitary", p=0.01, defect_fraction=0.1)
    with pytest.raises(ValueError):
        BlockEnsemble(n=4, levels=2, model="decoherent", p=0.01,
                      defect_fraction=0.1, defect_p=0.4)
    with pytest.raises(ValueError):
        BlockEnsemble(n=4, levels=2, model="unitary", p=0.01, distribution="pareto")
    with pytest.raises(ValueError):
        BlockEnsemble(n=0, levels=2, model="decoherent", p=0.01)


def test_ensemble_block_count():
    assert BlockEnsemble(n=4, levels=5, model="decoherent", p=0.01).block_count == 32


def test_mean_flip_probability_marginal():
    ens = BlockEnsemble(n=50, levels=2, model="decoherent", p=0.01,
                        defect_fraction=0.02, defect_p=0.9)
    assert ens.mean_flip_probability() == pytest.approx(0.98 * 0.01 + 0.02 * 0.9)


def test_drawn_block_defect_statistics():
    ens = BlockEnsemble(n=200, levels=1, model="decoherent", p=0.01,
                        defect_fraction=0.1, defect_p=0.9)
    rng = master_rng(15)
    counts = np.sum(ens._draw_flip_probabilities(rng, 300) > 0.5, axis=1).tolist()
    mean = sum(counts) / len(counts)
    sigma = math.sqrt(200 * 0.1 * 0.9 / 300)
    assert abs(mean - 20.0) < 4 * sigma
    assert len(set(counts)) > 1  # counts fluctuate block to block


def test_expected_log_alpha3_defect_free_reduces_to_point_value():
    ens = BlockEnsemble(n=8, levels=2, model="decoherent", p=0.05)
    want = math.log(alpha3_decoherent(PauliChannel.uniform(8, 0.05)).value)
    assert ens.expected_log_alpha3() == pytest.approx(want, abs=1e-12)


def test_expected_log_alpha3_matches_sampling():
    ens = BlockEnsemble(n=30, levels=1, model="decoherent", p=0.02,
                        defect_fraction=0.05, defect_p=0.75)
    rng = master_rng(99)
    vals = [math.log(alpha3_decoherent(PauliChannel(p)).value)
            for p in ens._draw_flip_probabilities(rng, 4000)]
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean - ens.expected_log_alpha3()) < 4 * se


def test_expected_log_alpha3_decoherent_only():
    ens = BlockEnsemble(n=8, levels=2, model="unitary", p=0.01)
    with pytest.raises(ValueError):
        ens.expected_log_alpha3()


# -- cascade fidelity ------------------------------------------------------------------------

def test_cascade_fidelity_defect_free_is_deterministic():
    ens = BlockEnsemble(n=100, levels=5, model="decoherent", p=0.01)
    fid = ensemble_distill_fidelity(ens, rng=master_rng(0))
    alpha = alpha3_decoherent(PauliChannel.uniform(100, 0.01)).value
    assert fid.alpha_product == pytest.approx(alpha**32, rel=1e-12)
    assert fid.empirical == pytest.approx(3.0 / (3.0 + alpha**32), abs=1e-12)
    assert 0.0 < fid.analytic < 1.0
    assert fid.analytic_marginal == pytest.approx(fid.analytic, abs=1e-6)


def per_block_distill_fidelity(ensemble, rng):
    """Reference cascade: one `rng.random(n)` draw and one PauliChannel per block."""
    log_alpha = 0.0
    p_matrix = np.empty((ensemble.block_count, ensemble.n))
    for i in range(ensemble.block_count):
        p = np.full(ensemble.n, ensemble.p)
        if ensemble.defect_fraction > 0.0:
            p[rng.random(ensemble.n) < ensemble.defect_fraction] = ensemble.defect_p
        block = PauliChannel(p, np.full(ensemble.n, ensemble.q))
        log_alpha += math.log(alpha3_decoherent(block).value)
        p_matrix[i] = block.p
    alpha_product = math.exp(log_alpha)
    scale = float(2 ** (ensemble.levels + 1))
    mean_per_position = p_matrix.mean(axis=0)
    analytic = 1.0 - math.exp(-scale * float(np.prod(1.0 - 2.0 * mean_per_position))) / 3.0
    marginal = ensemble.mean_flip_probability()
    analytic_marginal = 1.0 - math.exp(-scale * (1.0 - 2.0 * marginal) ** ensemble.n) / 3.0
    return EnsembleFidelity(analytic, analytic_marginal, 3.0 / (3.0 + alpha_product),
                            alpha_product, marginal, log_alpha)


@pytest.mark.parametrize("config", [
    dict(n=50, levels=6, p=0.01, defect_fraction=0.02, defect_p=0.9),
    dict(n=9, levels=4, p=0.05, defect_fraction=0.3, defect_p=0.9),
    dict(n=1, levels=3, p=0.2, defect_fraction=0.5, defect_p=0.6),
    dict(n=17, levels=2, p=0.0, defect_fraction=1.0, defect_p=0.7, q=0.3),
    dict(n=50, levels=6, p=0.01, defect_fraction=0.0),
    dict(n=3, levels=0, p=0.1, defect_fraction=0.1),
])
def test_cascade_fidelity_matches_per_block_reference(config):
    ens = BlockEnsemble(model="decoherent", **config)
    for t in range(30):
        got_rng, want_rng = trial_rng(t, 1), trial_rng(t, 1)
        assert ensemble_distill_fidelity(ens, rng=got_rng) == \
            per_block_distill_fidelity(ens, want_rng)
        assert got_rng.random() == want_rng.random()  # same uniforms consumed


def test_analytic_marginal_fidelity_needs_no_draw():
    ens = BlockEnsemble(n=50, levels=6, model="decoherent", p=0.01,
                        defect_fraction=0.02, defect_p=0.9)
    want = ens.analytic_marginal_fidelity()
    for t in range(5):
        assert ensemble_distill_fidelity(ens, rng=trial_rng(t, 0)).analytic_marginal == want
    with pytest.raises(ValueError):
        BlockEnsemble(n=8, levels=2, model="unitary", p=0.01).analytic_marginal_fidelity()


def test_cascade_fidelity_bias_minus_one_is_the_reference_error():
    # one bit that always flips: every block reports the wrong parity
    ens = BlockEnsemble(n=1, levels=2, model="decoherent", p=0.0,
                        defect_fraction=1.0, defect_p=1.0)
    with pytest.raises(ValueError) as want:
        per_block_distill_fidelity(ens, master_rng(0))
    with pytest.raises(ValueError) as got:
        ensemble_distill_fidelity(ens, rng=master_rng(0))
    assert str(got.value) == str(want.value) == \
        "bias -1: the reported outcome is deterministic and wrong"


def test_one_drawn_block_is_one_block_of_the_cascade_draw():
    ens = BlockEnsemble(n=12, levels=3, model="decoherent", p=0.02, q=0.01,
                        defect_fraction=0.25, defect_p=0.8)
    rng, reference = master_rng(21), master_rng(21)
    for _ in range(20):
        block = ens._draw_flip_probabilities(rng, 1)[0]
        p = np.full(12, 0.02)
        p[reference.random(12) < 0.25] = 0.8
        np.testing.assert_array_equal(block, p)


def test_cascade_fidelity_rejects_unitary_ensembles():
    ens = BlockEnsemble(n=8, levels=2, model="unitary", p=0.01)
    with pytest.raises(ValueError):
        ensemble_distill_fidelity(ens, rng=master_rng(0))


# -- log-tangent statistics --------------------------------------------------------------------

def test_log_tan_requires_unitary_model():
    ens = BlockEnsemble(n=8, levels=2, model="decoherent", p=0.01)
    with pytest.raises(ValueError):
        ensemble_log_tan(ens, rng=master_rng(0))


def test_log_tan_gaussian_three_way_consistency():
    ens = BlockEnsemble(n=100, levels=1, model="unitary", p=0.01,
                        distribution="gaussian")
    est = ensemble_log_tan(ens, trials=20_000, rng=master_rng(8))
    assert abs(est.series - est.closed_form) <= 0.2 * abs(est.closed_form)
    assert abs(est.monte_carlo - est.series) <= max(0.2 * abs(est.series),
                                                    4.0 * est.standard_error)
    assert est.monte_carlo <= est.bound + 4.0 * est.standard_error
    assert est.trials == 20_000
    assert est.series_terms >= 1


def test_log_tan_two_point_against_lattice_enumeration():
    # odd block size keeps the flip angle away from zero; enumerate all 2^n
    # sign patterns exactly and compare the Monte Carlo leg
    n, p = 7, 0.04
    theta = math.atan(math.sqrt(p))
    exact = 0.0
    for k in range(n + 1):
        weight = math.comb(n, k) / 2.0**n
        exact += weight * math.log(abs(math.tan((n - 2 * k) * theta)))
    ens = BlockEnsemble(n=n, levels=1, model="unitary", p=p,
                        distribution="two_point")
    est = ensemble_log_tan(ens, trials=60_000, rng=master_rng(3))
    assert abs(est.monte_carlo - exact) < 4.0 * est.standard_error


def test_log_tan_bound_is_the_coarse_envelope():
    ens = BlockEnsemble(n=200, levels=1, model="unitary", p=0.005,
                        distribution="gaussian")
    est = ensemble_log_tan(ens, trials=5_000, rng=master_rng(1))
    assert est.bound == pytest.approx(-2.0 * math.exp(-2.0 * 0.005 * 200), abs=1e-12)
