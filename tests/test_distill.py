"""Pair-ancilla purification: coefficient algebra, circuits, and cost calculus."""

import math
from fractions import Fraction

import numpy as np
import pytest

from toffsim import distill
from toffsim.ancilla import PAIR_VECTOR, MixedAncilla
from toffsim.core import QuantumState, fidelity, tensor
from toffsim.distill import (
    CostParams,
    combine,
    combine_states,
    DistillOutcome,
    distill_tree,
    expected_ops,
    fidelity_after_rounds,
    level_success_probabilities,
    measurement_majority_repeats,
    sample_trees,
    success_probability,
)
from toffsim.rng import trial_rng, trial_uniforms


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


def test_from_state_reads_what_the_pseudo_inverse_reads():
    # the reference: the coefficients through LAPACK's pseudo-inverse of the
    # 4 x 2 basis, pinv rho pinv^dagger; the defining sums that `from_state`
    # adds differ from its products in rounding only
    pinv = np.linalg.pinv(np.stack([PAIR_VECTOR, [0.0, 0.0, 0.0, 1.0]], axis=1))
    rng = trial_rng(44, 0)
    states = [QuantumState.from_density(("a", "b"), scale * m.to_state().data)
              for m, scale in zip(physical_tuples(rng, 16), 0.1 + 3.0 * rng.random(16))]
    states += [QuantumState.from_vector(("a", "b"), [1.0, 1.0, 1.0, 1j * t])
               for t in (0.0, 0.3, -2.0)]
    for state in states:
        rho = state.to_density().data
        coeff = (pinv @ rho @ pinv.conj().T).ravel()
        got, scale = MixedAncilla.from_state(state)
        np.testing.assert_allclose([scale, *got], [coeff[0], *(coeff[1:] / coeff[0])],
                                   rtol=1e-14, atol=1e-15)


def test_pair_vector_constant():
    np.testing.assert_array_equal(PAIR_VECTOR, [1, 1, 1, 0])


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


def test_a_zero_weight_ancilla_is_refused_by_the_closed_forms():
    # 3 + a3 = 0: no trace to divide by
    zero = MixedAncilla.from_excess_weight(-3.0)
    for call in (lambda: fidelity_after_rounds(-3.0, 0),
                 lambda: success_probability(zero, MixedAncilla.ideal()),
                 lambda: success_probability(MixedAncilla.ideal(), zero),
                 lambda: level_success_probabilities(-3.0, 1),
                 zero.fidelity_to_pair,
                 lambda: distill_tree(zero, 2, seed=0, trial=0)):
        with pytest.raises(ValueError, match="zero weight"):
            call()
    # squared, the contamination is 9, and one round is defined
    assert fidelity_after_rounds(-3.0, 1) == 0.25
    assert level_success_probabilities(-3.0, 0) == []


def test_the_level_table_is_the_closed_form_power_through_success_probability():
    for a3 in (-0.9, 0.37, 0.5, 1.3, 2.0):
        probs = level_success_probabilities(a3, 5)
        assert len(probs) == 5
        for k, prob in enumerate(probs):
            x = MixedAncilla.from_excess_weight(a3 ** (2**k))
            assert prob == success_probability(x, x)
    # the chain of combines squares by multiplication, and may differ from
    # the power in the last bit: at a3 1.3, level 5 is one such pair
    x, chain = MixedAncilla.from_excess_weight(1.3), []
    for _ in range(5):
        x, prob = combine(x, x)
        chain.append(prob)
    assert level_success_probabilities(1.3, 5)[4] == 0.9162021514791472
    assert chain[4] == 0.9162021514791471


# -- sampled purification trees ------------------------------------------------------

def test_distill_tree_output_is_deterministic_in_value():
    # outcome randomness affects only the attempt ledger; all leaves are equal
    raw = MixedAncilla.from_excess_weight(0.5)
    out = distill_tree(raw, 2, seed=0, trial=0)
    assert complex(out.ancilla.a3) == pytest.approx(0.5**4)
    assert out.level == 2


def test_distill_tree_counter_consistency():
    raw = MixedAncilla.from_excess_weight(0.3)
    out = distill_tree(raw, 3, seed=5, trial=0)
    assert out.combine_attempts >= out.combine_successes >= 2**3 - 1
    assert out.leaves_used % 2 == 0
    assert out.leaves_used >= 2**3
    # the tracer adds these to int counters and writes them as JSON
    assert all(type(v) is int for v in out[2:])


def test_distill_tree_level_zero_is_a_plain_draw():
    raw = MixedAncilla.from_excess_weight(0.7)
    out = distill_tree(raw, 0, seed=0, trial=0)
    assert out.leaves_used == 1
    assert out.combine_attempts == 0
    assert complex(out.ancilla.a3) == pytest.approx(0.7)


def test_distill_tree_requires_rng_beyond_level_zero():
    # the substream key is required, at every level, and must be integers
    for level in (0, 1):
        with pytest.raises(TypeError):
            distill_tree(MixedAncilla.ideal(), level)
        with pytest.raises(TypeError):
            distill_tree(MixedAncilla.ideal(), level, seed=1.5, trial=0)
        with pytest.raises(TypeError):
            sample_trees([1 / 3] * level, seed=1, start=0, stop=2.0)
    with pytest.raises(ValueError, match="seed"):
        distill_tree(MixedAncilla.ideal(), 1, seed=-1, trial=0)
    with pytest.raises(ValueError, match="trial range"):
        sample_trees([1 / 3], seed=1, start=2**64 - 1, stop=2**64 + 1)
    # numpy integers are read at their value
    want = distill_tree(MixedAncilla.ideal(), 2, seed=2**63 + 1, trial=4)
    assert distill_tree(MixedAncilla.ideal(), 2, seed=np.uint64(2**63 + 1), trial=np.int64(4)) == want


def test_distill_tree_attempt_budget():
    raw = MixedAncilla.from_excess_weight(0.5)
    with pytest.raises(RuntimeError, match="attempts"):
        distill_tree(raw, 3, seed=2, trial=0, max_attempts=3)
    # a tree makes at least 2**level - 1 attempts: refused before any combine
    for budget in (100_000, 2**32 - 1):
        with pytest.raises(RuntimeError, match=f"exceeded {budget} combine"):
            distill_tree(raw, 10**9, seed=2, trial=0, max_attempts=budget)


def test_a_non_real_or_nan_table_entry_is_refused_as_before(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew uniforms for a refused table")

    # a non-real entry, at any level, is refused before any draw
    with monkeypatch.context() as patched:
        patched.setattr(distill.rng, "ragged_uniforms", no_draws)
        for probs in ([0.5 + 1e-3j], [0.3, 0.5, 0.4 + 0j], [np.complex128(0.5)]):
            with pytest.raises(ValueError, match="real"):
                sample_trees(probs, seed=0, start=0, stop=4)
        # a NaN at the top level passes no check: the budget runs out at once
        with pytest.raises(RuntimeError, match="exceeded 100000 combine"):
            sample_trees([0.3, float("nan")], seed=0, start=0, stop=4)
    # a NaN below the top is reached after the top level's draws
    with pytest.raises(RuntimeError, match="exceeded 500 combine"):
        sample_trees([float("nan"), 0.3], seed=0, start=0, stop=4, max_attempts=500)


def test_budgets_at_or_above_the_level_stride_are_refused():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        distill_tree(MixedAncilla.ideal(), 1, seed=0, trial=0, max_attempts=2**32)
    assert distill_tree(MixedAncilla.ideal(), 1, seed=0, trial=0,
                        max_attempts=2**32 - 1).combine_successes == 1


def recursive_distill_tree(probs, seed, trial, max_attempts=100_000):
    """Reference: (attempts, successes, leaves) of the level-len(probs) tree
    of trial `trial` on the table `probs` of `sample_trees`, in Python ints,
    recursing down the levels.

    A level-k output takes a geometric number of attempts and each attempt
    consumes two outputs of the level below, so `outputs(k, n)` reads n
    uniforms from uniform k * 2**32 of the substream (seed, trial), inverts
    each by a linear scan of 1 - q^g (q^g by repeated multiplication), and
    asks the level below for twice their sum.  A run past the budget is
    certain once the fewest attempts left (2**level - 1, or n at one
    level) exceed what is left of it.
    """
    level = len(probs)
    if level == 0:
        return 0, 0, 1
    if 2**level - 1 > max_attempts:
        raise RuntimeError(f"purification exceeded {max_attempts} combine attempts")

    def outputs(k, n, spent):
        # (attempts, successes, leaves) of n level-k outputs, `spent` attempts made above
        if k == 0:
            return 0, 0, n
        room = max_attempts - spent
        q = 1.0 - probs[k - 1]
        if not q < 1.0 or n > room:
            raise RuntimeError(f"purification exceeded {max_attempts} combine attempts")
        made = 0
        if q <= 0.0:
            made = n
        else:
            for u in trial_uniforms(seed, trial, trial + 1, n, k << 32)[0].tolist():
                g, power = 1, q
                while not u < 1.0 - power and g <= room:
                    g, power = g + 1, power * q
                made += g
        if made > room:
            raise RuntimeError(f"purification exceeded {max_attempts} combine attempts")
        attempts, successes, leaves = outputs(k - 1, 2 * made, spent + made)
        return attempts + made, successes + n, leaves

    return outputs(level, 1, 0)


def outcome_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (RuntimeError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def oracle_tree(noise, level, seed, trial, **kwargs):
    """The recursive oracle on the table of `noise`, or the error that
    refuses the tree: a level below 0, a budget below the fewest attempts,
    or a table that cannot be built."""
    if level < 0:
        raise ValueError("level must be >= 0")
    budget = kwargs.get("max_attempts", 100_000)
    if level and 2**level - 1 > budget:
        raise RuntimeError(f"purification exceeded {budget} combine attempts")
    probs = level_success_probabilities(noise.a3, level)
    return recursive_distill_tree(probs, seed, trial, **kwargs)


def assert_matches_recursive_oracle(noise, level, seed, trial, **kwargs):
    """`distill_tree` on raw copies of `noise` against the recursive oracle
    on the same substream; its ancilla is `level` rounds of `combine`."""
    got = outcome_or_error(distill_tree, noise, level, seed=seed, trial=trial, **kwargs)
    want = outcome_or_error(oracle_tree, noise, level, seed, trial, **kwargs)
    if isinstance(got, DistillOutcome):
        ancilla = noise
        for _ in range(level):
            ancilla, _ = combine(ancilla, ancilla)
        assert got.level == level and got.ancilla == ancilla
        got = tuple(got[2:])
    assert got == want
    return got


def assert_block_matches_recursive_oracle(noise, level, seed, start, stop, **kwargs):
    """`sample_trees` over trials start..stop-1, on the table of `noise`,
    against the oracle tree by tree: equal arrays, or, when some tree errs,
    the first error in trial order of the oracle's."""
    probs = level_success_probabilities(noise.a3, level)
    got = outcome_or_error(sample_trees, probs, seed=seed, start=start, stop=stop, **kwargs)
    want = [outcome_or_error(recursive_distill_tree, probs, seed, t, **kwargs)
            for t in range(start, stop)]
    errors = [w for w in want if isinstance(w[0], str)]
    if errors:
        assert got == errors[0]
    else:
        assert all(a.dtype == np.int64 for a in got)
        assert [tuple(map(int, tree)) for tree in zip(*got)] == want


@pytest.mark.parametrize("a3", [-0.9, -0.5, 0.0, 0.3, 0.5, 0.9, 1.0, 2.0])
def test_distill_tree_matches_recursive_reference(a3):
    raw = MixedAncilla.from_excess_weight(a3)
    for level in range(5):
        for t in range(40 if level < 4 else 10):
            assert_matches_recursive_oracle(raw, level, t, level)
        assert_block_matches_recursive_oracle(raw, level, 7, 3, 43 if level < 4 else 13)


def test_attempt_budget_runs_out_where_the_reference_does():
    raw = MixedAncilla.from_excess_weight(0.5)
    needed = distill_tree(raw, 3, seed=9, trial=0).combine_attempts
    assert needed > 64
    for budget in range(1, needed + 2):
        got = assert_matches_recursive_oracle(raw, 3, 9, 0, max_attempts=budget)
        if budget < needed:
            assert got == ("RuntimeError",
                           f"purification exceeded {budget} combine attempts")
        else:
            assert got[0] == needed


def test_distill_tree_equals_its_row_of_the_batched_sampler():
    raw = MixedAncilla.from_excess_weight(0.37)
    probs = level_success_probabilities(0.37, 4)
    for start, stop in ((0, 1), (5, 70), (2**64 - 3, 2**64)):
        rows = list(zip(*sample_trees(probs, seed=11, start=start, stop=stop)))
        assert [tuple(distill_tree(raw, 4, seed=11, trial=t)[2:])
                for t in range(start, stop)] == [tuple(map(int, r)) for r in rows]


def test_sampled_trees_keep_to_small_slabs(monkeypatch):
    # slabs of three Philox blocks, so every level's draws span several, and
    # CDF tables of two entries, so most counts are looked up past the first
    monkeypatch.setattr(distill.rng, "_SLAB_BLOCKS", 3)
    monkeypatch.setattr(distill, "_CDF_CHUNK", 2)
    raw = MixedAncilla.from_excess_weight(0.5)
    assert_block_matches_recursive_oracle(raw, 3, 4, 0, 20)
    for budget in (20, 60, 200):
        assert_block_matches_recursive_oracle(raw, 3, 4, 0, 20, max_attempts=budget)


def test_attempt_counts_invert_the_geometric_cdf_at_its_steps(monkeypatch):
    # q = 1/2: T_g = 1 - 2^-g exactly, and u = T_g needs one attempt more
    u = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(0.75, 0), 1 - 2.0**-53])
    assert distill._attempt_counts(u, 0.5, 100).tolist() == [1, 1, 2, 3, 2, 54]
    assert distill._attempt_counts(u, 0.0, 100).tolist() == [1] * 6
    # tables of two entries: a count past the limit, where they stop, reads limit + 1
    monkeypatch.setattr(distill, "_CDF_CHUNK", 2)
    assert distill._attempt_counts(u, 0.5, 2).tolist() == [1, 1, 2, 3, 2, 3]
    assert distill._attempt_counts(u, 0.5, 3).tolist() == [1, 1, 2, 3, 2, 4]
    # steps of the later chunks: T_3 = 7/8 and T_4 = 15/16
    assert distill._attempt_counts(np.array([0.875, 0.9375]), 0.5, 100).tolist() == [4, 5]


@pytest.mark.parametrize("a3", [-1.0, -2.0])
def test_every_attempt_passes_at_success_probability_one_or_more(a3):
    # p_1 = (3 + a3^2) / (3 + a3)^2 is 1 at a3 = -1 and 7 at a3 = -2; the
    # levels above square a3 and pass with p < 1
    raw = MixedAncilla.from_excess_weight(a3)
    probs = level_success_probabilities(a3, 2)
    assert probs[0] >= 1.0 > probs[1]
    attempts, successes, leaves = sample_trees(probs[:1], seed=1, start=0, stop=3)
    assert attempts.tolist() == successes.tolist() == [1] * 3
    assert leaves.tolist() == [2] * 3
    # a budget of one attempt is enough when that attempt cannot fail
    assert distill_tree(raw, 1, seed=1, trial=0, max_attempts=1).combine_attempts == 1
    for level in (2, 3):
        assert_block_matches_recursive_oracle(raw, level, 1, 0, 30)


# The three tests below keep their names from when `distill_tree` also had a
# general loop for any supply of raw ancillas; the recursive oracle on the
# table of per-level pass probabilities now stands in for it.

@pytest.mark.parametrize("a3", [-0.9, -0.5, 0.0, 0.3, 0.5, 0.9, 2.0])
def test_fixed_supply_loop_matches_the_general_loop(a3):
    raw = MixedAncilla.from_excess_weight(a3)
    for level in (5, 0, 1, 2, 3, 4):
        for t in range(30 if level < 4 else 4):
            assert_matches_recursive_oracle(raw, level, 23, 10 * level + t)
        assert_block_matches_recursive_oracle(raw, level, 23, 10 * level, 10 * level + 8)


@pytest.mark.parametrize("noise, ends", [
    (MixedAncilla.from_phase_angle(0.3), {"outcome"}),
    (MixedAncilla(0.1 + 0.2j, 0.1 - 0.2j, 0.6), {"outcome", "RuntimeError"}),
    # a NaN success probability: no check ever passes
    (MixedAncilla.from_excess_weight(float("nan")), {"RuntimeError"}),
    # level 1 passes; level 2's success probability is not real
    (MixedAncilla(0.0, 0.0, 0.5 + 1e-8j), {"outcome", "ValueError"}),
], ids=["coherent", "mixed", "nan", "complex"])
def test_fixed_supply_loop_matches_the_general_loop_on_odd_ancillas(noise, ends):
    seen = set()
    for level in (1, 3):
        for t in range(20):
            got = assert_matches_recursive_oracle(noise, level, 29, t, max_attempts=500)
            seen.add("outcome" if isinstance(got[0], int) else got[0])
        if "ValueError" not in seen:  # a table that cannot be built samples nothing
            assert_block_matches_recursive_oracle(noise, level, 29, 0, 20, max_attempts=500)
    assert seen == ends


def test_fixed_supply_budget_error_matches_the_general_loop():
    raw = MixedAncilla.from_excess_weight(0.5)
    for budget in (-1, 0, 1, 63, 64, 65, 128, 129, 1000):
        got = assert_matches_recursive_oracle(raw, 9, 9, 1, max_attempts=budget)
        assert got == ("RuntimeError", f"purification exceeded {budget} combine attempts")
    # a budget at or below 0 fails every tree of level 1 or more at once
    for budget in (-1, 0):
        with pytest.raises(RuntimeError, match=f"exceeded {budget} combine"):
            sample_trees(level_success_probabilities(0.5, 1), seed=9, start=0, stop=4,
                         max_attempts=budget)


def test_distill_tree_mean_leaves():
    # ideal inputs: every combine succeeds w.p. 1/3, so a level-2 tree
    # consumes 36 leaves on average ((2/P)^2)
    total = 0
    for t in range(800):
        total += distill_tree(MixedAncilla.ideal(), 2, seed=31, trial=t).leaves_used
    assert total / 800 == pytest.approx(36.0, rel=0.1)


@pytest.mark.parametrize("a3, level", [(0.5, 2), (0.9, 3), (-0.5, 3)])
def test_sampled_trees_meet_their_wald_expectations(a3, level):
    # one top output takes 1/p_L attempts on average, each consuming two
    # outputs of the level below (Wald's identity, level by level)
    probs = level_success_probabilities(a3, level)
    attempts, successes, leaves = sample_trees(probs, seed=61, start=0, stop=20_000)
    need, want_attempts, want_successes = 1.0, 0.0, 0.0
    for prob in reversed(probs):
        want_successes += need
        want_attempts += need / prob
        need = 2 * need / prob
    for sample, want in ((attempts, want_attempts), (successes, want_successes),
                         (leaves, need)):
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - want) <= 4 * se


def test_a_perturbed_table_misses_the_wald_expectation():
    # the sampler reads only its table: the draws of the a3 0.5, level-2 table meet
    # that table's Wald expectation, and the same draws with every p_k scaled
    # by 0.95 miss it (z = -0.29 and 14.4)
    probs = level_success_probabilities(0.5, 2)
    need, want = 1.0, 0.0
    for prob in reversed(probs):
        want += need / prob
        need = 2 * need / prob
    z = []
    for table in (probs, [0.95 * prob for prob in probs]):
        attempts, _, _ = sample_trees(table, seed=61, start=0, stop=20_000)
        z.append((attempts.mean() - want) / (attempts.std(ddof=1) / math.sqrt(attempts.size)))
    assert abs(z[0]) <= 4 < abs(z[1])


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
