"""Command-line harness: exit codes, report schema, determinism."""

import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toffsim import cli
from toffsim.cli import main
from toffsim.core import QuantumState, fidelity
from toffsim.distill import MixedAncilla, combine_states
from toffsim.error_models import PauliChannel, UnitaryErrorSet
from toffsim.noisy_meas import measure_cphase_noisy
from toffsim.rng import trial_rng


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# -- exit code contract -----------------------------------------------------------

def test_unknown_subcommand_is_config_error(capsys):
    rc, _, err = run_cli(["frobnicate"], capsys)
    assert rc == 1
    assert "error" in err


def test_bad_flag_value_is_config_error(capsys):
    rc, _, err = run_cli(["estimate", "--format", "xml"], capsys)
    assert rc == 1
    assert "format" in err


def test_negative_seed_rejected(capsys):
    rc, _, err = run_cli(["estimate", "--seed", "-4"], capsys)
    assert rc == 1
    assert "seed" in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"bogus": 1})
    rc, _, err = run_cli(["estimate", "--config", cfg], capsys)
    assert rc == 1
    assert "bogus" in err


def test_missing_config_file(tmp_path, capsys):
    rc, _, err = run_cli(["estimate", "--config", str(tmp_path / "nope.json")], capsys)
    assert rc == 1


def test_malformed_config_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = run_cli(["estimate", "--config", str(path)], capsys)
    assert rc == 1


def test_trials_flag_rejected_for_estimate(capsys):
    rc, _, err = run_cli(["estimate", "--trials", "5"], capsys)
    assert rc == 1
    assert "trials" in err


def test_unitary_model_rejects_effective_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, "nm.json", {"model": "unitary", "mode": "effective"})
    rc, _, err = run_cli(["noisy-meas", "--config", cfg, "--trials", "5"], capsys)
    assert rc == 1


@pytest.mark.parametrize("command,payload", [
    ("estimate", {"targets": 5}),
    ("estimate", {"strategies": 7}),
    ("estimate", {"strategies": "progressive"}),
    ("estimate", {"targets": [-9.0, None]}),
    ("ensemble", {"trials": None}),
    ("ensemble", {"n": "many"}),
    ("noisy-meas", {"p": [0.1]}),
    ("toffoli-verify", {"corrupt_branch": 5}),
    ("distill", {"alpha3": float("inf")}),
    ("distill", {"alpha3": float("nan")}),
    ("distill", {"alpha3": float("-inf")}),
    ("noisy-meas", {"q": float("nan")}),
    ("noisy-meas", {"p": float("nan")}),
    ("ensemble", {"model": "unitary", "p": float("nan")}),
    ("distill", {"levels": 1100}),
    ("distill", {"alpha3": 2.0, "levels": 11}),
    ("distill", {"trials": 2.7}),
    ("distill", {"levels": 2.9}),
    ("distill", {"trials": "3"}),
    ("distill", {"alpha3": True}),
    ("toffoli-verify", {"corrupt_branch": [True, 1, 1]}),
    ("ensemble", {"k_max": 10**400}),
    ("distill", {"trials": 10**400}),
    ("toffoli-verify", {"trials": 10**400}),
    ("estimate", {"gate_penalty": -10**400}),
    ("estimate", {"strategies": []}),
])
def test_mistyped_config_field_is_one_line_error(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "typed.json", payload)
    rc, _, err = run_cli([command, "--config", cfg], capsys)
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("toffsim: error:")
    assert "Traceback" not in err
    assert any(field in err for field in payload)


def test_integral_float_runs_and_echoes_as_an_int(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"trials": 3.0, "levels": 2.0})
    rc, out, _ = run_cli(["distill", "--config", cfg, "--format", "csv"], capsys)
    assert rc == 0
    assert len(read_csv(out)) == 4
    rc, out, _ = run_cli(["distill", "--config", cfg], capsys)
    report = json.loads(out)
    assert [report["parameters"][k] for k in ("trials", "levels")] == [3, 2]
    assert all(type(report["parameters"][k]) is int for k in ("trials", "levels"))
    assert report["results"]["levels"] == 2


@pytest.mark.parametrize("payload, trials", [
    ({"n": 10**12}, 1),
    ({"n": 10**12, "model": "unitary", "mode": "exact"}, 1),
    ({"n": cli._MAX_CAT_BITS + 1, "mode": "exact"}, 1),
    ({"n": 1000}, cli._MAX_TRIAL_BITS // 1000 + 1),
])
def test_noisy_meas_beyond_its_work_limits_is_one_line_error(tmp_path, capsys,
                                                             payload, trials):
    cfg = write_config(tmp_path, "big.json", payload)
    tracemalloc.start()
    try:
        rc, _, err = run_cli(["noisy-meas", "--config", cfg, "--trials", str(trials)],
                             capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("toffsim: error:") and "exceeds" in err
    assert peak < 2**20  # nothing of size n was allocated


@pytest.mark.parametrize("payload", [
    {"n": cli._MAX_CAT_BITS},
    {"n": cli._MAX_CAT_BITS, "mode": "exact"},
    {"n": cli._MAX_CAT_BITS, "model": "unitary", "mode": "exact", "ratio": 0.0005},
])
def test_noisy_meas_at_its_bit_limit_runs(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, "edge.json", payload)
    rc, out, _ = run_cli(["noisy-meas", "--config", cfg, "--trials", "1"], capsys)
    assert rc == 0
    assert json.loads(out)["results"]["n"] == cli._MAX_CAT_BITS


def test_noisy_meas_work_budget_boundary(tmp_path, capsys, monkeypatch):
    # a budget of 40 trials of 8 bits: the at-budget run goes, one more fails
    monkeypatch.setattr(cli, "_MAX_TRIAL_BITS", 320)
    cfg = write_config(tmp_path, "exact.json", {"mode": "exact"})
    rc, _, _ = run_cli(["noisy-meas", "--config", cfg, "--trials", "40"], capsys)
    assert rc == 0
    rc, _, err = run_cli(["noisy-meas", "--config", cfg, "--trials", "41"], capsys)
    assert rc == 1
    assert err == "toffsim: error: trials x n = 328 exceeds the work budget of 320\n"


def test_json_report_keeps_no_per_trial_rows(tmp_path):
    # a CSV table holds ~190 bytes a trial; a JSON report's memory must not grow
    # with the trial count
    cfg = write_config(tmp_path, "one.json", {"n": 1})

    def peak(trials):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["noisy-meas", "--config", cfg, "--trials", str(trials)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # loads the modules the run imports
    assert peak(50_000) - peak(5_000) <= 2**20


# a fresh interpreter runs one report and prints its peak RSS, in KiB
PEAK_RSS = """
import resource, sys
from toffsim.cli import main
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_csv_report_streams_its_rows(tmp_path):
    # a CSV table of 2 x 10^5 trials is ~7.8 MB, and its row tuples ~40 MB
    cfg = write_config(tmp_path, "one.json", {"n": 1})
    peaks = {}
    for fmt in ("json", "csv"):
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS, "noisy-meas", "--config", cfg,
                               "--trials", "200000", "--format", fmt,
                               "--out", str(tmp_path / f"report.{fmt}")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peaks[fmt] = int(proc.stdout)
    assert peaks["csv"] <= 1.1 * peaks["json"]
    assert len((tmp_path / "report.csv").read_text().splitlines()) == 200_001


@pytest.mark.parametrize("payload, trials", [
    ({"levels": 40}, 1),
    ({"levels": 25}, 2),
    ({"levels": 10**9}, 1),
    ({"n": 10**12}, 1),
    ({"levels": 10}, cli._MAX_TRIAL_BITS // (50 << 10) + 1),
    ({"model": "unitary", "n": 10**7}, 200),
    ({"model": "unitary"}, cli._MAX_TRIAL_BITS // 50 + 1),
])
def test_ensemble_beyond_its_work_limits_is_one_line_error(tmp_path, capsys, payload,
                                                           trials):
    cfg = write_config(tmp_path, "big.json", payload)
    tracemalloc.start()
    try:
        rc, _, err = run_cli(["ensemble", "--config", cfg, "--trials", str(trials)],
                             capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("toffsim: error:") and "exceeds" in err
    assert peak < 2**20  # no cascade or block of tangents was allocated


@pytest.mark.parametrize("payload, trials, error", [
    ({"levels": 10, "n": 64}, 1, None),
    ({"levels": 10, "n": 65}, 1, "2**levels x n at levels 10, n 65 exceeds the limit "
                                 "of 65536 draws per cascade"),
    ({"levels": 9, "n": 64}, 2, None),
    ({"levels": 9, "n": 64}, 3, "trials x draws per trial = 98304 exceeds the work "
                                "budget of 80000"),
    ({"model": "unitary", "n": 8}, 10_000, None),
    ({"model": "unitary", "n": 9}, 8_192, "n 9 exceeds the limit of 65536 tangents "
                                          "per block of 8192 trials"),
    ({"model": "unitary", "n": 8}, 10_001, "trials x draws per trial = 80008 exceeds "
                                           "the work budget of 80000"),
])
def test_ensemble_work_limit_boundaries(tmp_path, capsys, monkeypatch, payload, trials,
                                        error):
    monkeypatch.setattr(cli, "_MAX_BLOCK_DOUBLES", 2**16)
    monkeypatch.setattr(cli, "_MAX_TRIAL_BITS", 80_000)
    cfg = write_config(tmp_path, "edge.json", payload)
    rc, _, err = run_cli(["ensemble", "--config", cfg, "--trials", str(trials)], capsys)
    if error is None:
        assert rc == 0
    else:
        assert rc == 1
        assert err == f"toffsim: error: {error}\n"


@pytest.mark.parametrize("payload, failing", [
    ({"first_block": 0}, {"progressive"}),
    ({"prefactor_log10": 400}, {"progressive", "standard"}),
    ({"first_block": 10**340}, {"progressive"}),
    ({"block_size": 10**340}, {"standard"}),
    ({"physical_error_log10": -1e308}, {"progressive", "standard"}),
    # level 2 of the progressive schedule would need 1/p at p ~ 1e-308
    ({"physical_error_log10": -310, "first_block": 1, "targets": [-1000]},
     {"progressive"}),
])
def test_estimate_out_of_range_schedule_is_a_per_strategy_error(tmp_path, capsys,
                                                                payload, failing):
    cfg = write_config(tmp_path, "range.json", payload)
    rc, out, err = run_cli(["estimate", "--config", cfg], capsys)
    assert rc == 0 and err == ""
    for entry in json.loads(out, parse_constant=refuse_constant)["results"]["targets"]:
        assert {s for s in ("progressive", "standard") if "error" in entry[s]} == failing


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command, payload, nulls", [
    # no combine attempt at levels 0, so no success frequency
    ("distill", {"levels": 0}, ("success_frequency", "success_frequency_expected")),
    # every flip angle is 0: log |tan 0| is -inf, and its spread NaN
    ("ensemble", {"model": "unitary", "p": 0.0}, ("monte_carlo", "monte_carlo_se")),
])
def test_non_finite_results_are_null(tmp_path, capsys, command, payload, nulls):
    cfg = write_config(tmp_path, "edge.json", payload)
    rc, out, _ = run_cli([command, "--config", cfg], capsys)
    assert rc == 0
    results = json.loads(out, parse_constant=refuse_constant)["results"]
    results = results.get("sampled", results)
    assert [results[key] for key in nulls] == [None, None]


@pytest.mark.parametrize("levels", [13, 16])
def test_ensemble_whose_contamination_product_underflows_runs(tmp_path, capsys, levels):
    # 2**levels blocks of log alpha3 ~ -0.6 sum below the smallest float's log
    cfg = write_config(tmp_path, "deep.json", {"levels": levels, "n": 50})
    rc, out, _ = run_cli(["ensemble", "--config", cfg, "--trials", "2"], capsys)
    assert rc == 0
    results = json.loads(out, parse_constant=refuse_constant)["results"]
    assert results["log_contamination_mean"] < -745.0
    rc, out, _ = run_cli(["ensemble", "--config", cfg, "--trials", "2", "--format",
                          "csv"], capsys)
    assert rc == 0
    assert all(math.isfinite(float(v)) for row in read_csv(out)[1:] for v in row)


@pytest.mark.parametrize("command", ["distill", "noisy-meas", "toffoli-verify",
                                     "ensemble"])
def test_seed_beyond_64_bits_is_one_line_error(capsys, command):
    rc, _, err = run_cli([command, "--seed", str(2**64), "--trials", "2"], capsys)
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("toffsim: error:") and "seed" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_out_path_is_one_line_error(tmp_path, capsys, fmt):
    # a file in a directory that does not exist, and a directory
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        rc, stdout, err = run_cli(["estimate", "--format", fmt, "--out", str(out)], capsys)
        assert rc == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("toffsim: error: cannot write the report:") and str(out) in err


def test_distill_work_budget_boundary(tmp_path, capsys, monkeypatch):
    from toffsim import distill

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a tree past the work budget")

    # levels 0 makes no attempt, and counts as the per-tree cap of 100000
    monkeypatch.setattr(cli, "_MAX_COMBINE_ATTEMPTS", 400_000)
    cfg = write_config(tmp_path, "flat.json", {"levels": 0})
    rc, _, _ = run_cli(["distill", "--config", cfg, "--trials", "4"], capsys)
    assert rc == 0
    with monkeypatch.context() as patched:
        patched.setattr(distill, "distill_tree", no_sampling)
        rc, out, err = run_cli(["distill", "--config", cfg, "--trials", "5"], capsys)
    assert rc == 1 and out == ""
    assert err == ("toffsim: error: trials x expected combine attempts = 500000 "
                   "exceeds the work budget of 400000\n")
    # at levels 2, the Wald expectation of a tree's attempts
    cfg = write_config(tmp_path, "two.json", {"levels": 2})
    rc, out, _ = run_cli(["distill", "--config", cfg, "--trials", "1"], capsys)
    expected = json.loads(out)["results"]["sampled"]["expected_attempts"]
    monkeypatch.setattr(cli, "_MAX_COMBINE_ATTEMPTS", 10 * expected)
    rc, _, _ = run_cli(["distill", "--config", cfg, "--trials", "10"], capsys)
    assert rc == 0
    with monkeypatch.context() as patched:
        patched.setattr(distill, "distill_tree", no_sampling)
        rc, _, err = run_cli(["distill", "--config", cfg, "--trials", "11"], capsys)
    assert rc == 1
    assert err.startswith("toffsim: error: trials x expected combine attempts")


@pytest.mark.parametrize("levels", [9, 40])
def test_distill_too_deep_for_the_combine_budget_is_one_line_error(tmp_path, capsys,
                                                                  levels):
    # the circuit tree takes one state per level, and sampling stops at the
    # per-tree budget of combine attempts
    cfg = write_config(tmp_path, "deep.json", {"levels": levels})
    started = time.perf_counter()
    rc, _, err = run_cli(["distill", "--config", cfg], capsys)
    assert time.perf_counter() - started < 10.0
    assert rc == 1
    assert err == (f"toffsim: error: levels {levels} is too deep to sample: "
                   "purification exceeded 100000 combine attempts\n")


def test_largest_seed_runs(capsys):
    rc, _, _ = run_cli(["distill", "--seed", str(2**64 - 1), "--trials", "2"], capsys)
    assert rc == 0


def test_bad_corrupt_branch_value(capsys):
    rc, _, err = run_cli(["toffoli-verify", "--trials", "2",
                          "--corrupt-branch=+2,+1,+1"], capsys)
    assert rc == 1
    assert "branch" in err


# -- happy paths, one per subcommand ---------------------------------------------------

def test_toffoli_verify_passes_checks(capsys):
    rc, out, _ = run_cli(["toffoli-verify", "--trials", "3", "--check"], capsys)
    assert rc == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    assert names == {"branch fidelity", "truth table"}
    assert all(c["passed"] for c in report["checks"])


def test_toffoli_verify_negative_control(capsys):
    rc, out, _ = run_cli(["toffoli-verify", "--trials", "2",
                          "--corrupt-branch=-1,+1,+1", "--check"], capsys)
    assert rc == 0  # detecting the sabotage is the passing outcome
    report = json.loads(out)
    (control,) = report["checks"]
    assert control["name"] == "negative control"
    assert control["passed"]
    assert "-1,+1,+1" in report["results"]["flagged_branches"]


def test_distill_passes_checks(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"levels": 2, "alpha3": 0.5, "trials": 60})
    rc, out, _ = run_cli(["distill", "--config", cfg, "--check"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert all(c["passed"] for c in report["checks"])
    assert report["parameters"]["trials"] == 60


@pytest.mark.parametrize("alpha3", [-0.9, 0.1, 0.5, 2.0])
def test_distill_circuit_tree_equals_the_pairwise_tree(tmp_path, capsys, alpha3):
    raw = MixedAncilla.from_excess_weight(alpha3)
    for levels in range(5):
        # reference: all 2^levels leaves, combined pairwise level by level
        states = [raw.to_state((f"x{i}", f"y{i}")) for i in range(2**levels)]
        while len(states) > 1:
            states = [combine_states(states[i], states[i + 1])[0]
                      for i in range(0, len(states), 2)]
        target = QuantumState.from_vector(states[0].labels, [1.0, 1.0, 1.0, 0.0])
        cfg = write_config(tmp_path, "d.json", {"alpha3": alpha3, "levels": levels})
        rc, out, _ = run_cli(["distill", "--config", cfg, "--trials", "1"], capsys)
        assert rc == 0
        assert json.loads(out)["results"]["fidelity_circuit"] == fidelity(states[0], target)


def test_noisy_meas_passes_checks(capsys):
    rc, out, _ = run_cli(["noisy-meas", "--trials", "400", "--check"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["parameters"]["model"] == "decoherent"
    assert all(c["passed"] for c in report["checks"])


def test_ensemble_passes_checks(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json",
                       {"n": 20, "levels": 3, "p": 0.02, "defect_fraction": 0.05,
                        "defect_p": 0.9, "trials": 60})
    rc, out, _ = run_cli(["ensemble", "--config", cfg, "--check"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert all(c["passed"] for c in report["checks"])


def median_check(capsys, seed):
    rc, out, _ = run_cli(["ensemble", "--seed", str(seed)], capsys)
    assert rc == 0
    (check,) = [c for c in json.loads(out)["checks"]
                if c["name"] == "median fidelity vs typical prediction"]
    return check["passed"]


@pytest.mark.parametrize("seed", [0, 29, 107])
def test_ensemble_median_check_gates_on_its_own_standard_error(capsys, monkeypatch, seed):
    # seeds 29 and 107 sit 3.2 and 2.6 standard errors from the prediction
    assert median_check(capsys, seed)
    # negative control: a prediction 1.5 decades of infidelity off fails
    from toffsim.error_models import BlockEnsemble

    expected_log_alpha3 = BlockEnsemble.expected_log_alpha3
    for decades in (-1.5, 1.5):
        monkeypatch.setattr(BlockEnsemble, "expected_log_alpha3", lambda self, d=decades:
                            expected_log_alpha3(self) + d * math.log(10) / self.block_count)
        assert not median_check(capsys, seed)


def test_estimate_passes_checks(capsys):
    rc, out, _ = run_cli(["estimate", "--check"], capsys)
    assert rc == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    assert names == {"single-level exponent", "two-level exponent"}


# -- check semantics ------------------------------------------------------------------------

def test_failed_check_exits_two_and_reports(tmp_path, capsys):
    # a hotter physical error overshoots the expected single-level window
    cfg = write_config(tmp_path, "hot.json", {"physical_error_log10": -3.5})
    rc, out, err = run_cli(["estimate", "--config", cfg, "--check"], capsys)
    assert rc == 2
    assert "check failed" in err
    report = json.loads(out)
    assert not all(c["passed"] for c in report["checks"])


def test_failed_check_without_flag_still_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, "hot.json", {"physical_error_log10": -3.5})
    rc, out, _ = run_cli(["estimate", "--config", cfg], capsys)
    assert rc == 0
    report = json.loads(out)
    assert not all(c["passed"] for c in report["checks"])


def test_noisy_meas_without_estimate_fails_its_check(capsys):
    # seed 3's only trial reports +1 from a true -1, so f = 1 and 3f/(1-f) is undefined
    for flags, want_rc in ((["--check"], 2), ([], 0)):
        rc, out, err = run_cli(["noisy-meas", "--trials", "1", "--seed", "3"] + flags,
                               capsys)
        assert rc == want_rc
        assert "Traceback" not in err
        results = json.loads(out)["results"]
        assert results["alpha3_estimate"] is None
        assert results["alpha3_estimate_se"] is None
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert failed == ["alpha3 Monte Carlo vs closed form"]
    rc, out, _ = run_cli(["noisy-meas", "--trials", "1", "--seed", "3",
                          "--format", "csv"], capsys)
    assert rc == 0
    assert out.splitlines()[1] == "0,8,decoherent,1,-1,"


# -- report envelope --------------------------------------------------------------------------

def test_report_envelope_fields(capsys):
    rc, out, _ = run_cli(["estimate", "--seed", "7"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["schema"] == "toffsim-report/1"
    assert report["command"] == "estimate"
    assert report["seed"] == 7
    assert set(report["versions"]) == {"toffsim", "numpy", "kernel_backend"}
    assert isinstance(report["wall_time_seconds"], float)
    assert isinstance(report["parameters"], dict)
    assert isinstance(report["results"], dict)
    assert isinstance(report["checks"], list)


def test_config_file_overrides_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path, "t.json", {"tolerance": 1e-8})
    rc, out, _ = run_cli(["toffoli-verify", "--config", cfg, "--trials", "2"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["parameters"]["tolerance"] == 1e-8
    assert report["parameters"]["trials"] == 2


# -- determinism -------------------------------------------------------------------------------

def strip_timing(path):
    report = json.loads(path.read_text())
    del report["wall_time_seconds"]
    return report


def test_json_reports_identical_up_to_timing(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = main(["noisy-meas", "--trials", "200", "--seed", "11",
                   "--out", str(out)])
        assert rc == 0
    capsys.readouterr()
    assert strip_timing(a) == strip_timing(b)


@pytest.mark.parametrize("payload, mode, trials, checked", [
    ({}, "effective", 600, (0, 1, 511, 512, 513, 599)),
    ({"n": 3, "mode": "exact"}, "exact", 20, (0, 6, 7, 13, 19)),
    ({"model": "unitary", "n": 3, "mode": "exact"}, "exact", 20, (0, 6, 7, 13, 19)),
])
def test_noisy_meas_reports_independent_of_trial_chunk(tmp_path, capsys, monkeypatch,
                                                       payload, mode, trials, checked):
    cfg = write_config(tmp_path, "cfg.json", payload)
    reports = []
    for chunk in (cli._TRIAL_CHUNK, 1, 7):
        monkeypatch.setattr(cli, "_TRIAL_CHUNK", chunk)
        csv_out, json_out = tmp_path / f"{chunk}.csv", tmp_path / f"{chunk}.json"
        argv = ["noisy-meas", "--config", cfg, "--trials", str(trials), "--seed", "5"]
        assert main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
        assert main(argv + ["--out", str(json_out)]) == 0
        reports.append((csv_out.read_bytes(), strip_timing(json_out)))
    capsys.readouterr()
    assert reports[0] == reports[1] == reports[2]
    # every row is the trial's own per-shot measurement
    rows = read_csv(reports[0][0].decode())[1:]
    n = payload.get("n", 8)
    model = payload.get("model", "decoherent")
    errors = (UnitaryErrorSet.uniform_ratio(n, 0.05) if model == "unitary"
              else PauliChannel.uniform(n, 0.05))
    plus_plus = QuantumState.from_vector(("a", "b"), [1.0, 1.0, 1.0, 1.0])
    for t in checked:
        res = measure_cphase_noisy(plus_plus, errors, mode=mode, rng=trial_rng(5, t))
        true = "" if res.true_eigenvalue is None else str(res.true_eigenvalue)
        assert rows[t][:5] == [str(t), str(n), model, str(res.reported_outcome), true]
        if model == "unitary":
            # the trial's own contamination reading on a +1 report
            estimate = ""
            if res.reported_outcome == +1:
                reading, _ = MixedAncilla.from_state(res.logical_state)
                estimate = str(float(complex(reading.a3).real))
            assert rows[t][5] == estimate


@pytest.mark.parametrize("trials", [1, 7, 20, 300])
def test_toffoli_verify_block_rows_equal_one_gadget_run_each(capsys, monkeypatch, trials):
    from toffsim import core, gadgets

    circuit, branch_map, discard = gadgets._run_gadget_circuit, gadgets.branch_map, core.discard
    runs, maps, outputs = [], [], []

    def counted(state, *args, **kwargs):
        runs.append(state.n_qubits)
        return circuit(state, *args, **kwargs)

    def recorded_map(branch, corrections=()):
        maps.append((branch, branch_map(branch, corrections)))
        return maps[-1][1]

    def recorded_discard(state, *labels):
        outputs.append(state.data)
        return discard(state, *labels)

    gadgets.default_correction_table()  # its derivation runs the Choi state once a branch
    monkeypatch.setattr(gadgets, "_run_gadget_circuit", counted)
    monkeypatch.setattr(gadgets, "branch_map", recorded_map)
    monkeypatch.setattr(core, "discard", recorded_discard)
    rc, _, _ = run_cli(["toffoli-verify", "--trials", str(trials), "--check"], capsys)
    assert rc == 0
    # the 8 maps on the Choi state, then the 8 truth-table runs, whatever the trial count
    assert runs == [9] * 8 + [6] * 8
    assert len(outputs) == 8 * trials
    # trial t's inputs come from its own substream, in trial order, and its row on
    # each branch is the map's image of them, bit for bit a one-input gadget run
    labels = gadgets.DATA_LABELS + gadgets.ANCILLA_LABELS
    rows = iter(outputs)
    for t in range(trials):
        draw = trial_rng(0, t)
        vec = draw.standard_normal(8) + 1j * draw.standard_normal(8)
        inp = QuantumState(gadgets.DATA_LABELS, vec)
        for branch, m in maps:
            row = next(rows)
            assert np.array_equal(row, vec @ m)
            want = gadgets.toffoli_gadget(inp, postselect=branch).output
            assert np.array_equal(discard(QuantumState(labels, row), *gadgets.ANCILLA_LABELS).data,
                                  want.data)
            # the ancilla's squared norm 4, and the branch's probability 1/8
            assert np.vdot(row, row).real == pytest.approx(inp.trace * 4 / 8, rel=1e-12)


def test_csv_reports_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["distill", "--trials", "40", "--seed", "3",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_changes_sampled_results(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["distill", "--trials", "40", "--seed", "1", "--out", str(a)]) == 0
    assert main(["distill", "--trials", "40", "--seed", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    ra, rb = strip_timing(a), strip_timing(b)
    assert ra["results"] != rb["results"]


# -- CSV layouts ------------------------------------------------------------------------------

def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_toffoli_csv_header(capsys):
    rc, out, _ = run_cli(["toffoli-verify", "--trials", "2", "--format", "csv"],
                         capsys)
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["branch", "min_fidelity", "mean_fidelity", "corrections"]
    assert len(rows) == 9  # one row per measurement branch


def test_distill_csv_header(capsys):
    rc, out, _ = run_cli(["distill", "--trials", "5", "--format", "csv"], capsys)
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["trial", "combine_attempts", "combine_successes",
                       "leaves_used"]
    assert len(rows) == 6


def test_noisy_meas_csv_header(capsys):
    rc, out, _ = run_cli(["noisy-meas", "--trials", "10", "--format", "csv"],
                         capsys)
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["trial", "n", "model", "reported", "true",
                       "alpha3_estimate"]
    assert len(rows) == 11


def test_ensemble_csv_headers_by_model(tmp_path, capsys):
    cfg = write_config(tmp_path, "dec.json",
                       {"n": 20, "levels": 2, "trials": 5})
    rc, out, _ = run_cli(["ensemble", "--config", cfg, "--format", "csv"], capsys)
    assert rc == 0
    assert read_csv(out)[0] == ["trial", "empirical_fidelity",
                                "log_contamination", "analytic_sampled"]

    cfg_u = write_config(tmp_path, "uni.json",
                         {"model": "unitary", "n": 30, "levels": 1,
                          "p": 0.01, "trials": 2000})
    rc, out, _ = run_cli(["ensemble", "--config", cfg_u, "--format", "csv"], capsys)
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["method", "value"]
    assert {r[0] for r in rows[1:]} >= {"monte_carlo", "series", "closed_form"}


def test_estimate_csv_golden_first_rows(capsys):
    rc, out, _ = run_cli(["estimate", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ("strategy,target_log10,level,block_size,"
                        "failure_log10,gate_failure_log10")
    assert lines[1] == ("progressive,-9.0,1,1000,"
                        "-8.838826932936374,-6.178074899639857")


def test_distill_csv_golden_first_rows(capsys):
    rc, out, _ = run_cli(["distill", "--trials", "2", "--format", "csv"], capsys)
    assert rc == 0
    assert out.splitlines()[1:] == ["0,314,75,554", "1,226,45,408"]


def test_noisy_meas_exact_csv_golden_first_rows(tmp_path, capsys):
    # the config of the readout-exact benchmark workload
    cfg = write_config(tmp_path, "exact.json", {"n": 12, "model": "unitary",
                                                "mode": "exact", "ratio": 0.05})
    rc, out, _ = run_cli(["noisy-meas", "--config", cfg, "--trials", "4",
                          "--format", "csv"], capsys)
    assert rc == 0
    assert out.splitlines()[1:] == [
        "0,12,unitary,-1,,",
        "1,12,unitary,1,,0.4670412131202334",
        "2,12,unitary,1,,0.4670412131202334",
        "3,12,unitary,1,,0.4670412131202334",
    ]


def test_noisy_meas_effective_csv_golden_first_rows(capsys):
    rc, out, _ = run_cli(["noisy-meas", "--format", "csv"], capsys)
    assert rc == 0
    assert out.splitlines()[1:9] == [
        "0,8,decoherent,1,1,0.0",
        "1,8,decoherent,-1,-1,",
        "2,8,decoherent,1,-1,3.0",
        "3,8,decoherent,-1,1,",
        "4,8,decoherent,1,1,1.4999999999999998",
        "5,8,decoherent,-1,1,",
        "6,8,decoherent,1,1,1.0",
        "7,8,decoherent,1,1,0.7500000000000001",
    ]


def test_noisy_meas_unitary_exact_json_golden_results(tmp_path, capsys):
    cfg = write_config(tmp_path, "unitary.json", {"n": 3, "model": "unitary",
                                                  "mode": "exact"})
    rc, out, _ = run_cli(["noisy-meas", "--config", cfg, "--trials", "4"], capsys)
    assert rc == 0
    assert json.loads(out)["results"] == {
        "alpha3_readings_max_deviation": 6.938893903907228e-17,
        "eigenstring_checks": {"passed": 64, "total": 64},
        "flip_angle": 0.14987518716582826,
        "mode": "exact",
        "model": "unitary",
        "n": 3,
        "raw_preparation": {"alpha3_reading": 0.022803282172972415, "attempts": 1},
        "reported_plus_frequency": 1.0,
        "tan_squared": 0.022803282172972346,
        "trials": 4,
    }


def test_ensemble_csv_golden_first_rows(capsys):
    rc, out, _ = run_cli(["ensemble", "--trials", "2", "--format", "csv"], capsys)
    assert rc == 0
    assert out.splitlines()[1:] == [
        "0,0.9989401693581276,-5.7499734741139585,0.999677543353294",
        "1,0.9998580192276855,-7.761064636245475,0.9991661623699613",
    ]


TOFFOLI_CORRECTIONS = {
    "+1,+1,+1": [],
    "+1,+1,-1": ["CZ_AB"],
    "+1,-1,+1": ["CX_BC", "CX_AC"],
    "+1,-1,-1": ["CX_BC", "CX_AC", "X_AX_B*CZ_AB*X_BX_A"],
    "-1,+1,+1": ["CX_BC"],
    "-1,+1,-1": ["CX_BC", "X_A*CZ_AB*X_A"],
    "-1,-1,+1": ["CX_AC"],
    "-1,-1,-1": ["CX_AC", "X_B*CZ_AB*X_B"],
}


@pytest.mark.parametrize("corrupt", [None, "-1,1,-1"])
def test_toffoli_verify_csv_golden_rows(capsys, corrupt):
    argv = ["toffoli-verify", "--format", "csv"]
    if corrupt is not None:
        argv.append(f"--corrupt-branch={corrupt}")
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    want = {branch: f'"{branch}",0.9999999999999998,1.0,{" ".join(seq)}'
            for branch, seq in TOFFOLI_CORRECTIONS.items()}
    if corrupt is not None:
        want["-1,+1,-1"] = ('"-1,+1,-1",0.0008805446278348376,0.1129232198856835,'
                            "X_A CX_BC X_A*CZ_AB*X_A")
    assert out.splitlines()[1:] == list(want.values())


def test_toffoli_verify_json_golden_results(capsys):
    rc, out, _ = run_cli(["toffoli-verify", "--trials", "300", "--seed", "2"], capsys)
    assert rc == 0
    assert json.loads(out)["results"] == {
        "branches": [{"branch": branch, "corrections": seq, "mean_fidelity": 1.0,
                      "min_fidelity": 0.9999999999999996}
                     for branch, seq in TOFFOLI_CORRECTIONS.items()],
        "flagged_branches": [],
        "truth_table_passed": 8,
        "truth_table_total": 8,
        "worst_fidelity": 0.9999999999999996,
    }


# -- console entry point ------------------------------------------------------------------------

def test_module_invocation_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "toffsim.cli", "estimate", "--check",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["schema"] == "toffsim-report/1"


def test_median_is_numpy_median_bit_for_bit():
    rng = trial_rng(5, 0)
    for size in list(range(1, 40)) + [199, 200, 1000]:
        for scale in (1e-9, 1.0, 1e7):
            values = rng.standard_normal(size) * scale
            values[::7] = values[0]  # ties
            assert np.float64(cli._median(values)).tobytes() == np.median(values).tobytes()
    with_nan = np.array([0.3, np.nan, 0.1, 0.2])
    assert math.isnan(cli._median(with_nan)) and math.isnan(np.median(with_nan))


# each step runs in the same fresh interpreter and prints the modules loaded so far
IMPORT_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith(("toffsim.", "numpy")) or m in ("dataclasses", "inspect", "csv"))
steps = {}
import toffsim
steps["package"] = loaded()
import toffsim.cli
steps["import"] = loaded()
toffsim.cli.main(["estimate", "--out", sys.argv[1]])
steps["estimate"] = loaded()
toffsim.cli.main(["ensemble", "--trials", "3", "--out", sys.argv[1]])
steps["ensemble"] = loaded()
for argv in (["toffoli-verify", "--trials", "1"], ["distill", "--trials", "3"],
             ["noisy-meas", "--trials", "3"]):
    toffsim.cli.main(argv + ["--out", sys.argv[1]])
steps["every subcommand"] = loaded()
toffsim.cli.main(["estimate", "--format", "csv", "--out", sys.argv[1]])
steps["csv"] = loaded()
print(json.dumps(steps))
"""


def test_each_subcommand_imports_only_what_it_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "r.json")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert steps["package"] == []
    assert steps["import"] == ["toffsim.cli"]
    assert "toffsim.concat" in steps["estimate"]
    assert not [m for m in steps["estimate"]
                if m.startswith("numpy") or m in ("toffsim.core", "toffsim._kernels")]
    assert "inspect" not in steps["estimate"]
    assert "numpy.random" in steps["ensemble"]
    assert not {"numpy.ma", "toffsim.core", "toffsim._kernels"} & set(steps["ensemble"])
    # records are built without dataclasses, and JSON reports without csv
    assert {"toffsim.core", "toffsim.gadgets", "toffsim.noisy_meas"} <= \
        set(steps["every subcommand"])
    assert not {"dataclasses", "csv"} & set(steps["every subcommand"])
    assert "csv" in steps["csv"]


# a fresh interpreter that runs noisy-meas, effective then exact, before any
# other subcommand, counting `numpy.linalg.pinv` calls from before the first
# import of toffsim.distill on; a unitary run last decomposes its states
READOUT_PROBE = """
import json, sys
import numpy.linalg
pinv_calls = []
pinv = numpy.linalg.pinv
def counting_pinv(*args, **kwargs):
    pinv_calls.append(1)
    return pinv(*args, **kwargs)
numpy.linalg.pinv = counting_pinv
def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith(("numpy.random", "toffsim.")) or m in ("secrets", "hmac"))
steps = {}
import toffsim.distill
steps["import distill"] = [len(pinv_calls), loaded()]
import toffsim.cli
for name, config in (("effective", {"mode": "effective"}), ("exact", {"mode": "exact"}),
                     ("unitary", {"mode": "exact", "model": "unitary"})):
    with open(sys.argv[1], "w") as f:
        json.dump(config, f)
    assert toffsim.cli.main(["noisy-meas", "--trials", "3", "--config", sys.argv[1],
                             "--out", sys.argv[2]]) == 0
    steps[name] = [len(pinv_calls), loaded()]
print(json.dumps(steps))
"""


def test_readout_process_loads_no_numpy_random_and_no_import_time_pinv(tmp_path):
    proc = subprocess.run([sys.executable, "-c", READOUT_PROBE, str(tmp_path / "c.json"),
                           str(tmp_path / "r.json")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert steps["import distill"][0] == 0
    for mode in ("effective", "exact"):
        pinv_calls, modules = steps[mode]
        assert pinv_calls == 0, mode
        assert "toffsim.noisy_meas" in modules
        assert not [m for m in modules if m.startswith("numpy.random") or m == "secrets"], mode
    # the counter sees the pseudo-inverse once a state is decomposed
    assert steps["unitary"][0] == 1
    assert not [m for m in steps["unitary"][1] if m.startswith("numpy.random")]


# a fresh interpreter in which numpy cannot be imported
NO_NUMPY_ESTIMATE = """
import sys
sys.modules["numpy"] = None
from toffsim.cli import main
sys.exit(main(["estimate", "--check", "--out", sys.argv[1]]))
"""


def test_estimate_runs_without_numpy(tmp_path, capsys):
    blocked = tmp_path / "blocked.json"
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_ESTIMATE, str(blocked)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, out, _ = run_cli(["estimate", "--check"], capsys)
    assert rc == 0
    want, got = json.loads(out), json.loads(blocked.read_text())
    del want["wall_time_seconds"], got["wall_time_seconds"]
    assert got == want
    assert got["versions"]["numpy"] == np.__version__


def test_numpy_version_without_a_readable_version_file_imports_numpy(monkeypatch, tmp_path):
    # a numpy directory without version.py
    spec = types.SimpleNamespace(origin=str(tmp_path / "__init__.py"))
    finder = types.SimpleNamespace(find_spec=lambda name: spec)
    monkeypatch.setattr(cli, "importlib", types.SimpleNamespace(
        machinery=types.SimpleNamespace(PathFinder=finder)))
    assert cli._numpy_version() == np.__version__


# -- the config table ------------------------------------------------------------------------

# values of the wrong kind, or beyond any range, for one field or another
JUNK = (None, True, False, "", "3", "exact", [], [1, -1, 1], ["standard"], {}, {"n": 1},
        math.nan, math.inf, -math.inf, 10**400, -10**400, 2.7, -0.5)


def field_values(name, kind, limits):
    """In-range values, and boundaries in and out, of one config table field."""
    if kind == "int":
        low, high = limits or (None, None)
        base = 1 if low is None else low
        # a run's time grows with its trials: no in-range top edge for them
        ints = st.integers(base, base + (2 if name == "trials" else 8))
        edges = [base - 2, base - 1]
        if high is not None:
            edges += [high + 1] if name == "trials" else [high, high + 1]
        return ints | ints.map(float) | st.sampled_from(edges)
    if kind == "float":
        edges = [0.0, -0.0, 5e-324, 1e-310, -1e308, 1e308] + list(limits or ())
        return (st.floats(0.0, 1.0) | st.floats(-2.0, 2.0)
                | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(edges))
    if kind == "choice":
        return st.sampled_from(limits)
    if kind == "branch":
        outcomes = (st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3)
                    | st.lists(st.sampled_from([1, -1, 0, 2, True]), min_size=2, max_size=4))
        return outcomes | outcomes.map(lambda b: ",".join(f"{m:+d}" for m in b))
    items = field_values(name, kind.split()[0], limits)
    return (st.lists(items, min_size=1, max_size=3)
            | st.lists(items | st.sampled_from(JUNK), max_size=3))


@pytest.mark.parametrize("command", sorted(cli._FIELDS))
@settings(derandomize=True, database=None, max_examples=100,
          deadline=30_000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_exits_0_1_or_2_with_a_one_line_error(tmp_path, command, data):
    fields = cli._FIELDS[command]
    payload = data.draw(st.fixed_dictionaries({}, optional={
        name: field_values(name, kind, limits)
        for name, (kind, _, limits) in fields.items()}), label="config")
    if data.draw(st.booleans(), label="junk"):
        payload[data.draw(st.sampled_from(sorted(fields)))] = data.draw(st.sampled_from(JUNK))
    argv = [command, "--config", write_config(tmp_path, "fuzz.json", payload)]
    if "trials" in fields:
        trials = data.draw(st.sampled_from([None, 1, 2, 3, 0]), label="--trials")
        if trials is None and "trials" not in payload:
            trials = 1  # the default trial counts take up to seconds a run
        if trials is not None:
            argv.append(f"--trials={trials}")
    if command == "toffoli-verify":
        branch = data.draw(st.sampled_from([None, "-1,1,-1", "+1,+1,+1", "2,1,1", "1,1"]),
                           label="--corrupt-branch")
        if branch is not None:
            argv.append(f"--corrupt-branch={branch}")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    # a warning would print one more stderr line
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert rc in (0, 1, 2)
    if rc == 1:
        assert len(lines) == 1 and lines[0].startswith("toffsim: error:"), lines
    else:
        json.loads(out.getvalue(), parse_constant=refuse_constant)
    assert "Traceback" not in err.getvalue()


def test_documented_config_fields_are_the_table():
    doc = (Path(__file__).parents[1] / "docs" / "output-schema.md").read_text()
    section = doc.split("\n## Configuration\n")[1].split("\n## ")[0]
    documented = {}
    for command, name, kind, default in re.findall(
            r"^\| (\S+) \| `(\w+)` \| ([a-z ]+) \| `([^`]*)` \|", section, re.M):
        documented.setdefault(command, {})[name] = (kind, json.loads(default))
    assert documented == {
        command: {name: (kind, default) for name, (kind, default, _) in fields.items()}
        for command, fields in cli._FIELDS.items()}
