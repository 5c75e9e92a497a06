"""Decoherent and coherent readout-error statistics."""

import math

import numpy as np
import pytest

from toffsim import error_models
from toffsim.channels import (
    Alpha3Reading,
    PauliChannel,
    UnitaryErrorSet,
    accumulated_flip_angle,
    alpha3_decoherent,
    parity_bias,
)
from toffsim.error_models import (
    BlockEnsemble,
    cascade_fidelity,
    characteristic_cos_moment,
    ensemble_distill_fidelity,
    ensemble_log_tan,
)
from toffsim.rng import trial_rng, trial_uniforms

from oracles import full_scan_defect_law


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
    rng = trial_rng(6021, 0)
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
    rng = trial_rng(77, 0)
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

def test_gaussian_moment_nears_exponential_form_at_small_p():
    for p in (0.001, 0.01):
        for k in range(4):
            m = 2 * (2 * k + 1)
            char = characteristic_cos_moment(p, m)
            assert abs(char - math.exp(-0.5 * m * m * p)) <= 0.1


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


def sampled_counts(ensemble, seed, start, stop):
    """Counts of the blocks of trials start..stop-1, as the sampler draws
    them: one uniform a block, inverted through the law's table.  A unitary
    ensemble of `levels` 0 has one block a trial, as `ensemble_log_tan`
    draws its sign counts."""
    law = error_models._defect_law(ensemble)
    uniforms = trial_uniforms(seed, start, stop, ensemble.block_count)
    return law.counts[np.searchsorted(law.cdf, uniforms, side="right")]


def test_drawn_block_defect_statistics():
    ens = BlockEnsemble(n=200, levels=1, model="decoherent", p=0.01,
                        defect_fraction=0.1, defect_p=0.9)
    counts = sampled_counts(ens, 15, 0, 150).ravel().tolist()
    mean = sum(counts) / len(counts)
    sigma = math.sqrt(200 * 0.1 * 0.9 / 300)
    assert abs(mean - 20.0) < 4 * sigma
    assert len(set(counts)) > 1  # counts fluctuate block to block


def binomial_chi2(counts, n, f):
    """Pearson chi^2 of `counts` against Binomial(n, f), from `math.comb`, with
    each tail pooled into one bin of expectation >= 5; and its degrees of
    freedom and 0.999 quantile (Wilson-Hilferty)."""
    total = len(counts)
    law = [math.comb(n, k) * f**k * (1.0 - f) ** (n - k) for k in range(n + 1)]
    observed = np.bincount(counts, minlength=n + 1)
    lo, hi = 0, n
    while total * sum(law[:lo + 1]) < 5.0:
        lo += 1
    while total * sum(law[hi:]) < 5.0:
        hi -= 1
    expected = [sum(law[:lo + 1])] + law[lo + 1:hi] + [sum(law[hi:])]
    seen = [observed[:lo + 1].sum()] + observed[lo + 1:hi].tolist() + [observed[hi:].sum()]
    chi2 = sum((o - total * e) ** 2 / (total * e) for o, e in zip(seen, expected))
    df = len(expected) - 1
    quantile = df * (1.0 - 2.0 / (9 * df) + 3.090 * math.sqrt(2.0 / (9 * df))) ** 3
    return chi2, df, quantile


# 20,000 blocks: 5,000 decoherent trials of 4, or 20,000 two_point trials
# of one, whose sign counts are Binomial(n, 1/2)
@pytest.mark.parametrize("n, f, two_point_p", [
    (50, 0.02, None), (9, 0.3, None), (200, 0.6, None),
    (7, 0.5, 0.04), (8, 0.5, 0.05), (51, 0.5, 0.02),
], ids=["50-0.02", "9-0.3", "200-0.6",
        "two_point-7-0.04", "two_point-8-0.05", "two_point-51-0.02"])
def test_sampled_defect_counts_follow_the_binomial_law(n, f, two_point_p):
    if two_point_p is None:
        ens = BlockEnsemble(n=n, levels=2, model="decoherent", p=0.01,
                            defect_fraction=f, defect_p=0.9)
    else:
        ens = BlockEnsemble(n=n, levels=0, model="unitary", p=two_point_p,
                            distribution="two_point")
    counts = sampled_counts(ens, 3, 0, 20_000 // ens.block_count).ravel()
    assert counts.size == 20_000
    chi2, df, quantile = binomial_chi2(counts, n, f)
    assert df >= 5
    assert chi2 < quantile
    # negative control: the law of a count fraction 5% larger is refused
    chi2, _, quantile = binomial_chi2(counts, n, 1.05 * f)
    assert chi2 > quantile


@pytest.mark.parametrize("ensemble", [
    *(BlockEnsemble(n=n, levels=0, model="decoherent", p=0.01, defect_fraction=f,
                    defect_p=0.9)
      for n in (1, 7, 50, 1000, 20000)
      for f in (0.0, 1e-300, 1e-12, 1e-3, 0.02, 0.5, 0.98, 1.0 - 1e-9, 1.0)),
    *(BlockEnsemble(n=n, levels=0, model="unitary", p=1e-4, distribution="two_point")
      for n in (1, 8, 51, 2000, 20001, 200000)),
], ids=lambda e: f"{e.model}-{e.n}-{e.defect_fraction}")
def test_defect_law_skips_only_counts_of_no_weight(ensemble):
    # the law read from its first count of positive weight is, bit for bit,
    # the law read from count 0
    law, want = error_models._defect_law(ensemble), full_scan_defect_law(ensemble)
    for table, reference in zip(law[:4], want[:4]):
        assert table.dtype == reference.dtype and table.tobytes() == reference.tobytes()
    assert np.float64(law.expected).tobytes() == np.float64(want.expected).tobytes()


@pytest.mark.parametrize("f, want", [(0.0, 0), (1.0, 12)])
def test_a_sure_defect_count_is_drawn_every_time(f, want):
    ens = BlockEnsemble(n=12, levels=3, model="decoherent", p=0.02,
                        defect_fraction=f, defect_p=0.8)
    assert error_models._defect_law(ens).counts.tolist() == [want]
    assert set(sampled_counts(ens, 3, 0, 500).ravel().tolist()) == {want}


def test_expected_log_alpha3_defect_free_reduces_to_point_value():
    ens = BlockEnsemble(n=8, levels=2, model="decoherent", p=0.05)
    want = math.log(alpha3_decoherent(PauliChannel.uniform(8, 0.05)).value)
    assert ens.expected_log_alpha3() == pytest.approx(want, abs=1e-12)


def test_expected_log_alpha3_matches_sampling():
    ens = BlockEnsemble(n=30, levels=1, model="decoherent", p=0.02,
                        defect_fraction=0.05, defect_p=0.75)
    # blocks drawn bit by bit, independently of the defect-count law
    flips = np.full((4000, 30), 0.02)
    flips[trial_rng(99, 0).random((4000, 30)) < 0.05] = 0.75
    vals = [math.log(alpha3_decoherent(PauliChannel(p)).value) for p in flips]
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
    fid = ensemble_distill_fidelity(ens, seed=0, start=0, stop=3)
    alpha = alpha3_decoherent(PauliChannel.uniform(100, 0.01)).value
    assert fid.log_contamination.tolist() == pytest.approx([32 * math.log(alpha)] * 3,
                                                           rel=1e-12)
    assert fid.empirical.tolist() == pytest.approx([3.0 / (3.0 + alpha**32)] * 3, abs=1e-12)


def per_block_distill_fidelity(ensemble, seed, t):
    """Reference cascade of trial t: block i's defect count is the first of
    the law's counts whose CDF exceeds uniform i of the substream (seed, t),
    found by a linear scan, and its log alpha3 is added in block order."""
    law = error_models._defect_law(ensemble)
    cdf, log_alpha = law.cdf.tolist(), law.log_contamination.tolist()
    counts, log_contamination = [], 0.0
    for u in trial_uniforms(seed, t, t + 1, ensemble.block_count)[0].tolist():
        row = 0
        while cdf[row] <= u:
            row += 1
        counts.append(int(law.counts[row]))
        log_contamination += log_alpha[row]
    return counts, log_contamination, 3.0 / (3.0 + math.exp(log_contamination))


@pytest.mark.parametrize("config", [
    dict(n=50, levels=6, p=0.01, defect_fraction=0.02, defect_p=0.9),
    dict(n=9, levels=4, p=0.05, defect_fraction=0.3, defect_p=0.9),
    dict(n=1, levels=3, p=0.2, defect_fraction=0.5, defect_p=0.6),
    dict(n=17, levels=2, p=0.0, defect_fraction=1.0, defect_p=0.7),
    dict(n=50, levels=6, p=0.01, defect_fraction=0.0),
    dict(n=3, levels=0, p=0.1, defect_fraction=0.1),
])
def test_cascade_fidelity_matches_per_block_reference(config):
    ens = BlockEnsemble(model="decoherent", **config)
    fid = ensemble_distill_fidelity(ens, seed=7, start=0, stop=30)
    counts = sampled_counts(ens, 7, 0, 30)
    for t in range(30):
        want_counts, want_log, want_fidelity = per_block_distill_fidelity(ens, 7, t)
        assert counts[t].tolist() == want_counts
        assert fid.log_contamination[t] == want_log
        assert fid.empirical[t] == want_fidelity
    # each count's log alpha3 is that of a block with so many defective bits
    law = error_models._defect_law(ens)
    for k, log_alpha in zip(law.counts.tolist(), law.log_contamination.tolist()):
        flips = [ens.defect_p] * k + [ens.p] * (ens.n - k)
        want = math.log(alpha3_decoherent(PauliChannel(flips)).value)
        assert log_alpha == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_sampled_trials_do_not_depend_on_the_call_block():
    ens = BlockEnsemble(n=9, levels=4, model="decoherent", p=0.05,
                        defect_fraction=0.3, defect_p=0.9)
    whole = ensemble_distill_fidelity(ens, seed=2, start=0, stop=20)
    parts = [ensemble_distill_fidelity(ens, seed=2, start=a, stop=b)
             for a, b in ((0, 7), (7, 7), (7, 13), (13, 20))]
    for field in ("empirical", "log_contamination"):
        joined = np.concatenate([getattr(part, field) for part in parts])
        assert np.array_equal(getattr(whole, field), joined)


@pytest.mark.parametrize("segment", [1, 7, 16, 64])
def test_sampled_trials_do_not_depend_on_the_draw_segment(monkeypatch, segment):
    # 20 trials of 16 blocks: segments of 1 block, of part of a block row, and
    # of whole rows; each trial's sum runs on from segment to segment
    ens = BlockEnsemble(n=9, levels=4, model="decoherent", p=0.05,
                        defect_fraction=0.3, defect_p=0.9)
    whole = ensemble_distill_fidelity(ens, seed=2, start=0, stop=20)
    draws = []

    def recording(*args):
        uniforms = trial_uniforms(*args)
        draws.append(uniforms.size)
        return uniforms

    monkeypatch.setattr(error_models, "_SEGMENT_DRAWS", segment)
    monkeypatch.setattr(error_models, "trial_uniforms", recording)
    parts = ensemble_distill_fidelity(ens, seed=2, start=0, stop=20)
    for field in ("empirical", "log_contamination"):
        assert np.array_equal(getattr(whole, field), getattr(parts, field))
    # a call draws at most a segment, or one block a trial where a segment is smaller
    assert max(draws) <= max(segment, 20)
    assert sum(draws) == 20 * 16


def test_a_deep_cascade_draws_a_segment_at_a_time(monkeypatch):
    ens = BlockEnsemble(n=1, levels=13, model="decoherent", p=0.01)
    draws = []

    def recording(*args):
        uniforms = trial_uniforms(*args)
        draws.append(uniforms.shape)
        return uniforms

    monkeypatch.setattr(error_models, "trial_uniforms", recording)
    ensemble_distill_fidelity(ens, seed=1, start=0, stop=512)
    width = error_models._SEGMENT_DRAWS // 512
    assert draws == [(512, width)] * (2**13 // width)


def test_analytic_marginal_fidelity_needs_no_draw(monkeypatch):
    ens = BlockEnsemble(n=50, levels=6, model="decoherent", p=0.01,
                        defect_fraction=0.02, defect_p=0.9)

    def refuse(*args, **kwargs):
        raise AssertionError("a uniform was drawn")

    monkeypatch.setattr(error_models, "trial_uniforms", refuse)
    marginal = 0.98 * 0.01 + 0.02 * 0.9
    assert ens.analytic_marginal_fidelity() == \
        1.0 - math.exp(-128.0 * (1.0 - 2.0 * marginal) ** 50) / 3.0
    with pytest.raises(ValueError):
        BlockEnsemble(n=8, levels=2, model="unitary", p=0.01).analytic_marginal_fidelity()


def test_cascade_fidelity_bias_minus_one_is_the_reference_error():
    # one bit that always flips, defective or not: every block reports the
    # wrong parity
    with pytest.raises(ValueError) as want:
        alpha3_decoherent(PauliChannel([1.0]))
    assert str(want.value) == "bias -1: the reported outcome is deterministic and wrong"
    for config in (dict(p=0.0, defect_fraction=1.0, defect_p=1.0),
                   dict(p=1.0, defect_fraction=0.0)):
        ens = BlockEnsemble(n=1, levels=2, model="decoherent", **config)
        with pytest.raises(ValueError) as got:
            ensemble_distill_fidelity(ens, seed=0, start=0, stop=1)
        with pytest.raises(ValueError) as expected:
            ens.expected_log_alpha3()
        assert str(got.value) == str(expected.value) == str(want.value)


def test_cascade_fidelity_of_an_overflowing_contamination_is_finite():
    # a block worse than chance contaminates by alpha3 9, 1024 times over
    ens = BlockEnsemble(n=1, levels=10, model="decoherent", p=0.9)
    fid = ensemble_distill_fidelity(ens, seed=0, start=0, stop=2)
    assert fid.log_contamination.tolist() == pytest.approx([1024 * math.log(9.0)] * 2)
    assert fid.empirical.tolist() == [0.0, 0.0]
    assert cascade_fidelity(700.0) == pytest.approx(3.0 * math.exp(-700.0), rel=1e-12)
    assert ens.analytic_marginal_fidelity() == -math.inf


def test_cascade_fidelity_rejects_unitary_ensembles():
    ens = BlockEnsemble(n=8, levels=2, model="unitary", p=0.01)
    with pytest.raises(ValueError):
        ensemble_distill_fidelity(ens, seed=0, start=0, stop=1)


# -- log-tangent statistics --------------------------------------------------------------------

def test_log_tan_requires_unitary_model():
    ens = BlockEnsemble(n=8, levels=2, model="decoherent", p=0.01)
    with pytest.raises(ValueError):
        ensemble_log_tan(ens, seed=0)


def test_log_tan_gaussian_three_way_consistency():
    ens = BlockEnsemble(n=100, levels=1, model="unitary", p=0.01,
                        distribution="gaussian")
    est = ensemble_log_tan(ens, trials=20_000, seed=8)
    assert abs(est.series - est.closed_form) <= 0.2 * abs(est.closed_form)
    assert abs(est.monte_carlo - est.series) <= max(0.2 * abs(est.series),
                                                    4.0 * est.standard_error)
    assert est.monte_carlo <= est.bound + 4.0 * est.standard_error
    assert est.trials == 20_000
    assert est.series_terms >= 1


def lattice_log_tan(n, p):
    """Oracle: E[log |tan sigma|] of a two_point block, its 2^n sign patterns
    enumerated by their count of minus signs."""
    theta = math.atan(math.sqrt(p))
    exact = 0.0
    for k in range(n + 1):
        weight = math.comb(n, k) / 2.0**n
        exact += weight * math.log(abs(math.tan((n - 2 * k) * theta)))
    return exact


def test_log_tan_two_point_against_lattice_enumeration():
    # odd block size keeps the flip angle away from zero; enumerate all 2^n
    # sign patterns exactly and compare the Monte Carlo leg
    n, p = 7, 0.04
    exact = lattice_log_tan(n, p)
    ens = BlockEnsemble(n=n, levels=1, model="unitary", p=p,
                        distribution="two_point")
    est = ensemble_log_tan(ens, trials=60_000, seed=3)
    assert abs(est.monte_carlo - exact) < 4.0 * est.standard_error


@pytest.mark.parametrize("n, p", [(7, 0.04), (51, 0.02), (201, 0.005)])
def test_two_point_exact_equals_the_lattice_enumeration(n, p):
    ens = BlockEnsemble(n=n, levels=1, model="unitary", p=p, distribution="two_point")
    est = ensemble_log_tan(ens, trials=2, seed=0)
    assert abs(est.exact - lattice_log_tan(n, p)) <= 1e-12
    # the lattice law has no truncated series, closed form or bound
    assert (est.series, est.closed_form, est.bound, est.series_terms) == (None,) * 4


def test_two_point_exact_is_minus_infinity_at_even_n():
    # the atom at angle 0 has weight C(8, 4) / 2^8
    ens = BlockEnsemble(n=8, levels=1, model="unitary", p=0.05, distribution="two_point")
    est = ensemble_log_tan(ens, trials=2, seed=0)
    assert est.exact == -math.inf
    assert est.atom_weight == pytest.approx(math.comb(8, 4) / 2**8, rel=1e-12)
    odd = ens._replace(n=7)
    assert ensemble_log_tan(odd, trials=2, seed=0).atom_weight == 0.0


@pytest.mark.parametrize("n, p", [(7, 0.04), (8, 0.05), (51, 0.02)])
def test_two_point_trials_each_read_one_sign_count(monkeypatch, n, p):
    # trial t is the block of the sign count that uniform 0 of the substream
    # (seed, t) inverts to; the Monte Carlo mean and spread add the trials'
    # values and squares in trial order, over blocks of 7 trials
    monkeypatch.setattr(error_models, "LOG_TAN_CHUNK", 7)
    ens = BlockEnsemble(n=n, levels=0, model="unitary", p=p, distribution="two_point")
    est = ensemble_log_tan(ens, trials=60, seed=5)
    law = error_models._defect_law(ens)
    counts = sampled_counts(ens, 5, 0, 60).ravel().tolist()
    total = total_sq = 0.0
    for k in counts:
        tangent = abs(math.tan((n - 2 * k) * math.atan(math.sqrt(p))))
        value = math.log(tangent) if tangent else -math.inf
        assert law.log_contamination[law.counts.tolist().index(k)] == value
        total += value
        total_sq += value * value
    mean = total / 60
    assert est.monte_carlo == mean
    if math.isfinite(mean):
        assert est.standard_error == math.sqrt(max(total_sq / 60 - mean * mean, 0.0) / 60)


def test_gaussian_log_tan_has_no_exact_value():
    ens = BlockEnsemble(n=8, levels=1, model="unitary", p=0.05, distribution="gaussian")
    assert ensemble_log_tan(ens, trials=2, seed=0).exact is None


def test_log_tan_bound_is_the_coarse_envelope():
    ens = BlockEnsemble(n=200, levels=1, model="unitary", p=0.005,
                        distribution="gaussian")
    est = ensemble_log_tan(ens, trials=5_000, seed=1)
    assert est.bound == pytest.approx(-2.0 * math.exp(-2.0 * 0.005 * 200), abs=1e-12)
