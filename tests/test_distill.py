"""Pair-ancilla purification: coefficient algebra, circuits, and cost calculus."""

import math
from fractions import Fraction

import numpy as np
import pytest

from toffsim import ancilla, distill
from toffsim.core import QuantumState, fidelity, tensor
from toffsim.distill import (
    PAIR_VECTOR,
    CostParams,
    MixedAncilla,
    combine,
    combine_states,
    DistillOutcome,
    distill_tree,
    expected_ops,
    fidelity_after_rounds,
    measurement_majority_repeats,
    pair_supply,
    success_probability,
)
from toffsim.rng import trial_rng


def physical_tuples(rng, count):
    """Random PSD coefficient tuples: a2 = conj(a1), a3 >= |a1|^2."""
    out = []
    for _ in range(count):
        a1 = rng.standard_normal() * 0.4 + 1j * rng.standard_normal() * 0.4
        a3 = abs(a1) ** 2 + rng.random() * 1.5
        out.append(MixedAncilla(a1, np.conj(a1), a3))
    return out


# -- the coefficient container -----------------------------------------------------

def test_ideal_is_the_pure_pair():
    ideal = MixedAncilla.ideal()
    assert (ideal.a1, ideal.a2, ideal.a3) == (0, 0, 0)
    assert ideal.weight == pytest.approx(3.0)
    assert ideal.fidelity_to_pair() == pytest.approx(1.0)
    assert ideal.is_physical()


def test_phase_angle_projector_signs():
    # |psi2> + i tan(s)|11> projects to (-i t, +i t, t^2), which is PSD
    t = math.tan(0.3)
    m = MixedAncilla.from_phase_angle(0.3)
    assert m.a1 == pytest.approx(-1j * t)
    assert m.a2 == pytest.approx(+1j * t)
    assert m.a3 == pytest.approx(t * t)
    assert m.is_physical()


def test_sign_flipped_companion_is_not_a_state():
    t = math.tan(0.3)
    companion = MixedAncilla(1j * t, 1j * t, -t * t)
    assert not companion.is_physical()


def test_excess_weight_constructor_and_fidelity():
    m = MixedAncilla.from_excess_weight(0.5)
    assert m.weight == pytest.approx(3.5)
    assert m.fidelity_to_pair() == pytest.approx(3.0 / 3.5)


def test_to_state_embeds_the_coefficients():
    m = MixedAncilla(0.2 - 0.1j, 0.2 + 0.1j, 0.3)
    s = m.to_state()
    psi = np.array([1, 1, 1, 0], dtype=complex)
    e11 = np.array([0, 0, 0, 1], dtype=complex)
    want = (np.outer(psi, psi) + m.a1 * np.outer(psi, e11)
            + m.a2 * np.outer(e11, psi) + m.a3 * np.outer(e11, e11))
    np.testing.assert_allclose(s.data, want, atol=1e-14)


def test_from_state_round_trip_reports_scale():
    m = MixedAncilla(0.1 + 0.05j, 0.1 - 0.05j, 0.4)
    scaled = QuantumState.from_density(("a", "b"), 2.5 * m.to_state().data)
    back, scale = MixedAncilla.from_state(scaled)
    assert scale == pytest.approx(2.5)
    assert complex(back.a1) == pytest.approx(complex(m.a1))
    assert complex(back.a3) == pytest.approx(complex(m.a3))


def test_from_state_rejects_states_outside_the_family():
    junk = QuantumState.from_density(("a", "b"), np.diag([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):
        MixedAncilla.from_state(junk)


def test_pair_vector_constant():
    np.testing.assert_array_equal(PAIR_VECTOR, [1, 1, 1, 0])


def test_basis_pseudo_inverse_constant_is_lapacks_bit_for_bit():
    # the reference: LAPACK's pseudo-inverse, whose 1/3 entries lie one ulp
    # above 1/3; the contamination readings depend on those bits
    want = np.linalg.pinv(ancilla._BASIS)
    assert ancilla._BASIS_PINV.dtype == want.dtype
    assert ancilla._BASIS_PINV.tobytes() == want.tobytes()
    assert ancilla._BASIS_PINV[0, 0].real == np.nextafter(1.0 / 3.0, 1.0)


def test_distill_serves_the_ancilla_names():
    assert distill.MixedAncilla is ancilla.MixedAncilla
    assert distill.PAIR_VECTOR is ancilla.PAIR_VECTOR


# -- combining two ancillas ---------------------------------------------------------

def test_combine_is_componentwise_product():
    x = MixedAncilla(0.2j, -0.2j, 0.5)
    y = MixedAncilla(0.1, 0.1, 0.3)
    out, prob = combine(x, y)
    assert complex(out.a1) == pytest.approx(0.02j)
    assert complex(out.a2) == pytest.approx(-0.02j)
    assert complex(out.a3) == pytest.approx(0.15)
    assert prob == pytest.approx((3 + 0.5 * 0.3) / ((3 + 0.5) * (3 + 0.3)))


def test_combine_ideal_probability_is_one_third():
    _, prob = combine(MixedAncilla.ideal(), MixedAncilla.ideal())
    assert prob == pytest.approx(1.0 / 3.0)
    assert success_probability(MixedAncilla.ideal(), MixedAncilla.ideal()) == pytest.approx(1 / 3)


def test_success_probability_floor_on_equal_inputs():
    grid = np.linspace(0.0, 50.0, 501)
    probs = [success_probability(MixedAncilla.from_excess_weight(a),
                                 MixedAncilla.from_excess_weight(a)) for a in grid]
    assert min(probs) >= 0.25 - 1e-15
    # equality exactly at a3 = 1
    assert success_probability(MixedAncilla.from_excess_weight(1.0),
                               MixedAncilla.from_excess_weight(1.0)) == pytest.approx(0.25)


def test_combine_states_agrees_with_algebra():
    rng = trial_rng(42, 0)
    for x, y in zip(physical_tuples(rng, 8), physical_tuples(rng, 8)):
        want, want_prob = combine(x, y)
        state, prob = combine_states(x.to_state(("a", "b")), y.to_state(("c", "d")))
        got, _ = MixedAncilla.from_state(state)
        assert prob == pytest.approx(want_prob, abs=1e-12)
        assert complex(got.a1) == pytest.approx(complex(want.a1), abs=1e-12)
        assert complex(got.a2) == pytest.approx(complex(want.a2), abs=1e-12)
        assert complex(got.a3) == pytest.approx(complex(want.a3), abs=1e-12)


def test_combine_states_on_the_fully_corrupted_corner():
    # two |11> ancillas pass both parity checks with certainty
    x = tensor(QuantumState.basis(("a", "b"), "11"),
               QuantumState.basis(("c", "d"), "11"))
    _, prob = combine_states(QuantumState.basis(("a", "b"), "11"),
                             QuantumState.basis(("c", "d"), "11"))
    assert prob == pytest.approx(1.0)
    del x


def test_squaring_law_on_equal_inputs():
    m = MixedAncilla(0.3j, -0.3j, 0.7)
    out, _ = combine(m, m)
    assert complex(out.a1) == pytest.approx(complex(m.a1) ** 2)
    assert complex(out.a3) == pytest.approx(complex(m.a3) ** 2)


def test_three_balanced_rounds_raise_the_coefficients_to_the_eighth_power():
    m = MixedAncilla(0.2, 0.2, 0.6)
    step = m
    for _ in range(3):
        step, _ = combine(step, step)
    for got, start in zip((step.a1, step.a2, step.a3), (m.a1, m.a2, m.a3)):
        assert complex(got) == pytest.approx(complex(start) ** 8)


@pytest.mark.parametrize("a3", [-0.9, -0.5, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("rounds", [0, 1, 2, 3])
def test_fidelity_after_rounds_formula(a3, rounds):
    want = 3.0 / (3.0 + a3 ** (2**rounds))
    assert fidelity_after_rounds(a3, rounds) == pytest.approx(want, abs=1e-12)


def test_fidelity_after_rounds_rejects_complex_residue():
    with pytest.raises(ValueError):
        fidelity_after_rounds(1j, 0)


# -- sampled purification trees ------------------------------------------------------

def test_distill_tree_output_is_deterministic_in_value():
    # outcome randomness affects only the attempt ledger; all leaves are equal
    raw = MixedAncilla.from_excess_weight(0.5)
    out = distill_tree(pair_supply(raw), 2, rng=trial_rng(0, 0))
    assert complex(out.ancilla.a3) == pytest.approx(0.5**4)
    assert out.level == 2


def test_distill_tree_counter_consistency():
    raw = MixedAncilla.from_excess_weight(0.3)
    out = distill_tree(pair_supply(raw), 3, rng=trial_rng(5, 0))
    assert out.combine_attempts >= out.combine_successes >= 2**3 - 1
    assert out.leaves_used % 2 == 0
    assert out.leaves_used >= 2**3


def test_distill_tree_level_zero_is_a_plain_draw():
    raw = MixedAncilla.from_excess_weight(0.7)
    out = distill_tree(pair_supply(raw), 0)
    assert out.leaves_used == 1
    assert out.combine_attempts == 0
    assert complex(out.ancilla.a3) == pytest.approx(0.7)


def test_distill_tree_requires_rng_beyond_level_zero():
    with pytest.raises(ValueError):
        distill_tree(pair_supply(), 1)


def test_distill_tree_attempt_budget():
    raw = MixedAncilla.from_excess_weight(0.5)
    with pytest.raises(RuntimeError, match="attempts"):
        distill_tree(pair_supply(raw), 3, rng=trial_rng(2, 0), max_attempts=3)


def test_distill_tree_takes_only_a_pair_supply():
    raw = MixedAncilla.from_excess_weight(0.5)
    for supply in (raw, [raw] * 4, iter([raw] * 4), lambda: raw):
        for level in (0, 1):
            with pytest.raises(TypeError, match="pair_supply"):
                distill_tree(supply, level, rng=trial_rng(0, 0))


def recursive_distill_tree(raw, level, *, rng=None, max_attempts=100_000):
    """Reference: the tree built by plain recursion from leaves all equal to
    `raw`, one `rng.random()` per attempt."""
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > 0 and rng is None:
        raise ValueError("rng is required to sample parity-check outcomes")
    counters = {"attempts": 0, "successes": 0, "leaves": 0}

    def build(lvl):
        if lvl == 0:
            counters["leaves"] += 1
            return raw
        while True:
            left = build(lvl - 1)
            right = build(lvl - 1)
            out, prob = combine(left, right)
            counters["attempts"] += 1
            if counters["attempts"] > max_attempts:
                raise RuntimeError(f"purification exceeded {max_attempts} combine attempts")
            if rng.random() < prob:
                counters["successes"] += 1
                return out

    ancilla = build(level)
    return DistillOutcome(ancilla, level, counters["attempts"],
                          counters["successes"], counters["leaves"])


def outcome_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (RuntimeError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def assert_matches_recursive_oracle(raw, level, seed, trial, supply=None, **kwargs):
    """`distill_tree` on `supply` (default: a new `pair_supply(raw)`) against the
    recursive oracle on the same stream.  After an outcome or a spent budget
    the generator has advanced by the whole blocks that cover the attempts."""
    supply = pair_supply(raw) if supply is None else supply
    rng = trial_rng(seed, trial)
    got = outcome_or_error(distill_tree, supply, level, rng=rng, **kwargs)
    want = outcome_or_error(recursive_distill_tree, raw, level,
                            rng=trial_rng(seed, trial), **kwargs)
    assert got == want
    if isinstance(got, DistillOutcome):
        used = got.combine_attempts
    elif got[1].startswith("purification exceeded"):
        used = max(kwargs.get("max_attempts", 100_000), 0)
    else:
        return got
    follower = trial_rng(seed, trial)
    follower.random(-(-used // distill._UNIFORM_BLOCK) * distill._UNIFORM_BLOCK)
    assert rng.random() == follower.random()
    return got


@pytest.mark.parametrize("a3", [-0.9, -0.5, 0.0, 0.3, 0.5, 0.9, 1.0, 2.0])
def test_distill_tree_matches_recursive_reference(a3):
    raw = MixedAncilla.from_excess_weight(a3)
    for level in range(5):
        for t in range(40 if level < 4 else 10):
            assert_matches_recursive_oracle(raw, level, t, level)


def test_attempt_budget_runs_out_where_the_reference_does():
    raw = MixedAncilla.from_excess_weight(0.5)
    needed = distill_tree(pair_supply(raw), 3, rng=trial_rng(9, 0)).combine_attempts
    assert needed > 64  # the budget falls in more than one block of uniforms
    for budget in range(1, needed + 2):
        got = assert_matches_recursive_oracle(raw, 3, 9, 0, max_attempts=budget)
        if budget < needed:
            assert got == ("RuntimeError",
                           f"purification exceeded {budget} combine attempts")
        else:
            assert got.combine_attempts == needed


def test_distill_tree_draws_uniforms_in_whole_blocks():
    rng = trial_rng(2, 0)
    out = distill_tree(pair_supply(), 2, rng=rng)
    used_blocks = -(-out.combine_attempts // distill._UNIFORM_BLOCK)
    follower = trial_rng(2, 0)
    follower.random(distill._UNIFORM_BLOCK * used_blocks)
    assert rng.random() == follower.random()


# The three tests below keep their names from when `distill_tree` also had a
# general loop for any supply; the recursive oracle now stands in for it.

@pytest.mark.parametrize("a3", [-0.9, -0.5, 0.0, 0.3, 0.5, 0.9, 2.0])
def test_fixed_supply_loop_matches_the_general_loop(a3):
    raw = MixedAncilla.from_excess_weight(a3)
    shared = pair_supply(raw)  # its per-level combines carry over from tree to tree
    for level in (5, 0, 1, 2, 3, 4):
        for t in range(30 if level < 4 else 4):
            assert_matches_recursive_oracle(raw, level, 23, 10 * level + t)
            assert_matches_recursive_oracle(raw, level, 23, 10 * level + t, shared)


@pytest.mark.parametrize("noise, ends", [
    (MixedAncilla.from_phase_angle(0.3), {"outcome", "RuntimeError"}),
    (MixedAncilla(0.1 + 0.2j, 0.1 - 0.2j, 0.6), {"outcome", "RuntimeError"}),
    # a NaN success probability: no check ever passes
    (MixedAncilla.from_excess_weight(float("nan")), {"RuntimeError"}),
    # level 1 passes; level 2's success probability is not real
    (MixedAncilla(0.0, 0.0, 0.5 + 1e-8j), {"outcome", "ValueError"}),
], ids=["coherent", "mixed", "nan", "complex"])
def test_fixed_supply_loop_matches_the_general_loop_on_odd_ancillas(noise, ends):
    supply = pair_supply(noise)
    seen = set()
    for level in (1, 3):
        for t in range(20):
            got = assert_matches_recursive_oracle(noise, level, 29, t, supply,
                                                  max_attempts=500)
            seen.add("outcome" if isinstance(got, DistillOutcome) else got[0])
    assert seen == ends


def test_fixed_supply_budget_error_matches_the_general_loop():
    raw = MixedAncilla.from_excess_weight(0.5)
    for budget in (-1, 0, 1, 63, 64, 65, 128, 129, 1000):
        got = assert_matches_recursive_oracle(raw, 9, 9, 1, max_attempts=budget)
        assert got == ("RuntimeError", f"purification exceeded {budget} combine attempts")


def test_distill_tree_mean_leaves():
    # ideal inputs: every combine succeeds w.p. 1/3, so a level-2 tree
    # consumes 36 leaves on average ((2/P)^2)
    total = 0
    for t in range(800):
        total += distill_tree(pair_supply(), 2, rng=trial_rng(31, t)).leaves_used
    assert total / 800 == pytest.approx(36.0, rel=0.1)


# -- operation-count calculus ---------------------------------------------------------

def test_expected_ops_frozen_values():
    assert expected_ops(0) == pytest.approx(1.0)
    assert expected_ops(1) == pytest.approx(8.0)
    assert expected_ops(2) == pytest.approx(50.0)
    assert expected_ops(3) == pytest.approx(302.0)


def expected_ops_recurrence(rounds, params=CostParams()):
    """Oracle for `expected_ops`: G(0) = 1, G(k) = (2/P) G(k-1) + ratio, iterated."""
    g = 1.0
    for _ in range(rounds):
        g = (2.0 / params.success_probability) * g + params.measurement_ratio
    return g


@pytest.mark.parametrize("rounds", range(9))
def test_closed_form_matches_recurrence(rounds):
    for params in (CostParams(), CostParams(0.25, 2.0), CostParams(0.4, 3.5)):
        assert expected_ops(rounds, params) == pytest.approx(
            expected_ops_recurrence(rounds, params), rel=1e-12)


def test_growth_ratio_approaches_eight_at_quarter_success():
    params = CostParams(success_probability=0.25)
    ratio = expected_ops(12, params) / expected_ops(11, params)
    assert ratio == pytest.approx(8.0, abs=1e-6)


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(success_probability=0.0)
    with pytest.raises(ValueError):
        CostParams(success_probability=1.5)
    with pytest.raises(ValueError):
        CostParams(measurement_ratio=-1.0)


def smallest_odd_repeats_oracle(eps, eps_m):
    """The smallest odd r with sum_{k > r/2} C(r, k) eps_m^k (1 - eps_m)^(r - k)
    <= eps, compared exactly: with eps_m = a / d, in integers times d^r."""
    a, d = Fraction(eps_m).as_integer_ratio()
    bound = Fraction(eps)
    r = 1
    while sum(math.comb(r, k) * a**k * (d - a) ** (r - k)
              for k in range(r // 2 + 1, r + 1)) * bound.denominator > \
            bound.numerator * d**r:
        r += 2
    return r


def test_majority_repeat_counts():
    for eps, eps_m, want in ((1e-9, 1e-3, 7), (1e-8, 1e-2, 11), (0.5, 1e-3, 1)):
        assert smallest_odd_repeats_oracle(eps, eps_m) == want
        assert measurement_majority_repeats(eps, eps_m) == want
    for eps in (0.3, 0.1, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
        for eps_m in (0.2, 0.1, 1e-2, 1e-3, 1e-4):
            assert measurement_majority_repeats(eps, eps_m) == \
                smallest_odd_repeats_oracle(eps, eps_m), (eps, eps_m)


def test_majority_repeats_refuse_what_no_vote_reaches():
    for eps_m in (0.5, 0.7):
        with pytest.raises(ValueError, match="1/2"):
            measurement_majority_repeats(1e-3, eps_m)
    with pytest.raises(ValueError, match="repeats needed"):
        measurement_majority_repeats(1e-300, 0.4999999)
    for eps, eps_m in ((0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0)):
        with pytest.raises(ValueError, match="error rates"):
            measurement_majority_repeats(eps, eps_m)


def test_majority_repeats_are_odd():
    for eps in (1e-3, 1e-5, 1e-7, 1e-11):
        for eps_m in (1e-2, 1e-3):
            assert measurement_majority_repeats(eps, eps_m) % 2 == 1
