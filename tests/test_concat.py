"""Log-space concatenation calculus: block law, schedules, rounding."""

import math

import pytest

from toffsim.concat import (
    DEFAULT_SCALING_EXPONENT,
    TARGET_SLACK_DECADES,
    CodeParams,
    Schedule,
    block_failure,
    max_block_size,
    progressive_schedule,
    round_to_one_significant,
    standard_concat_levels,
)


def test_default_scaling_exponent():
    assert DEFAULT_SCALING_EXPONENT == pytest.approx(math.log(2) / math.log(9), abs=0)


def test_code_params_validation():
    with pytest.raises(ValueError):
        CodeParams(threshold_log10=0.0)
    with pytest.raises(ValueError):
        CodeParams(scaling_exponent=0.0)
    with pytest.raises(ValueError):
        CodeParams(scaling_exponent=1.0)
    CodeParams(threshold_log10=-1.5, scaling_exponent=0.5)  # fine


# -- the one modeling law ---------------------------------------------------------

def test_block_failure_frozen_values():
    assert block_failure(-3.0, 1000) == pytest.approx(-8.838826932936374, abs=1e-12)
    assert block_failure(-2.0 - math.log10(5.0), 1000) == pytest.approx(
        -6.178074899639857, abs=1e-12)


def test_block_failure_formula():
    params = CodeParams(threshold_log10=-1.0, scaling_exponent=0.5,
                        prefactor_log10=0.7)
    assert block_failure(-4.0, 100, params) == pytest.approx(0.7 + 10.0 * -3.0)


def test_block_failure_monotonic_in_inputs():
    f1 = block_failure(-3.0, 100)
    f2 = block_failure(-3.0, 1000)
    f3 = block_failure(-4.0, 1000)
    assert f2 < f1          # bigger blocks suppress harder
    assert f3 < f2          # cleaner gates suppress harder


def test_block_failure_guards():
    with pytest.raises(ValueError, match="threshold"):
        block_failure(-2.0, 1000)          # at threshold: no gain
    with pytest.raises(ValueError, match="threshold"):
        block_failure(-1.0, 1000)          # above threshold
    with pytest.raises(ValueError):
        block_failure(-3.0, 0)


def test_round_to_one_significant():
    assert round_to_one_significant(21436000) == 20000000
    assert round_to_one_significant(95) == 100
    assert round_to_one_significant(44) == 40
    assert round_to_one_significant(6907.755278982137) == 7000
    assert round_to_one_significant(1) == 1
    with pytest.raises(ValueError):
        round_to_one_significant(0)
    with pytest.raises(ValueError):
        round_to_one_significant(-3.0)


# -- progressive schedule --------------------------------------------------------------

def test_progressive_single_level_reaches_nine_decades():
    sched = progressive_schedule(-9.0)
    assert sched.depth == 1
    assert sched.achieved
    assert sched.final_failure_log10 == pytest.approx(-8.838826932936374, abs=1e-12)
    assert sched.levels[0].block_size == 1000


def test_progressive_level_one_gate_exponent_penalizes_physical_error():
    # the composition penalty multiplies the *physical* error before level 1
    sched = progressive_schedule(-9.0)
    want = block_failure(-3.0 + math.log10(2.0), 1000)
    assert sched.levels[0].gate_failure_log10 == pytest.approx(want, abs=1e-12)


def test_progressive_two_levels_frozen():
    sched = progressive_schedule(-100.0)
    assert sched.depth == 2
    assert sched.achieved
    second = sched.levels[1]
    assert second.block_size == 20_000_000
    assert second.failure_log10 == pytest.approx(-839.8365071809676, abs=1e-9)
    assert second.gate_failure_log10 == pytest.approx(
        second.failure_log10 + math.log10(2.0), abs=1e-12)


def test_progressive_block_growth_follows_usefulness_bound():
    sched = progressive_schedule(-100.0)
    eps_star = sched.levels[0].gate_failure_log10
    want = round_to_one_significant(max_block_size(10.0**eps_star))
    assert sched.levels[1].block_size == want == 20_000_000


def test_progressive_respects_level_budget():
    sched = progressive_schedule(-100.0, max_levels=1)
    assert not sched.achieved
    assert sched.depth == 1


def test_progressive_validation():
    with pytest.raises(ValueError):
        progressive_schedule(0.0)
    with pytest.raises(ValueError):
        progressive_schedule(-9.0, gate_penalty=0.5)
    with pytest.raises(ValueError):
        progressive_schedule(-9.0, first_block=0)


def test_progressive_needs_subthreshold_physical_error():
    with pytest.raises(ValueError, match="threshold"):
        progressive_schedule(-9.0, physical_error_log10=-1.5)


# -- standard fixed-block schedule ----------------------------------------------------------

def test_standard_two_levels_frozen():
    sched = standard_concat_levels(-9.0, block_size=1000)
    assert sched.depth == 2
    assert sched.achieved
    assert sched.levels[0].failure_log10 == pytest.approx(-6.178074899639857,
                                                          abs=1e-12)
    assert sched.levels[1].failure_log10 == pytest.approx(-34.268528917465694,
                                                          abs=1e-12)


def test_standard_chains_penalized_gate_exponents():
    sched = standard_concat_levels(-30.0, block_size=1000)
    penalty = math.log10(2.0)
    for spec in sched.levels:
        assert spec.gate_failure_log10 == pytest.approx(
            spec.failure_log10 + penalty, abs=1e-12)
    # level 2 input is level 1's penalized exponent
    want = block_failure(sched.levels[0].gate_failure_log10, 1000)
    assert sched.levels[1].failure_log10 == pytest.approx(want, abs=1e-12)


def test_standard_small_block_cannot_progress():
    with pytest.raises(ValueError, match="cannot make progress"):
        standard_concat_levels(-9.0, block_size=7)


def test_standard_level_budget():
    sched = standard_concat_levels(-1000.0, block_size=1000, max_levels=2)
    assert not sched.achieved
    assert sched.depth == 2


def test_standard_validation():
    with pytest.raises(ValueError):
        standard_concat_levels(1.0)
    with pytest.raises(ValueError):
        standard_concat_levels(-9.0, gate_penalty=0.0)


# -- cross-strategy properties ------------------------------------------------------------------

@pytest.mark.parametrize("target", [-9.0, -30.0, -100.0, -300.0])
def test_progressive_never_deeper_than_standard(target):
    prog = progressive_schedule(target)
    std = standard_concat_levels(target)
    assert prog.achieved and std.achieved
    assert prog.depth <= std.depth


@pytest.mark.parametrize("target", [-9.0, -50.0, -200.0])
def test_achieved_schedules_hit_target_within_slack(target):
    for sched in (progressive_schedule(target), standard_concat_levels(target)):
        assert sched.achieved
        assert sched.final_failure_log10 <= target + TARGET_SLACK_DECADES


def test_schedule_accessors():
    sched = standard_concat_levels(-9.0)
    assert sched.depth == len(sched.levels)
    assert sched.final_failure_log10 == sched.levels[-1].failure_log10
    with pytest.raises(ValueError):
        Schedule("standard", -9.0, (), False).final_failure_log10
