"""Command-line harness: exit codes, report schema, determinism."""

import contextlib
import csv
import gc
import importlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toffsim import cli, commands
from toffsim.cli import main
from toffsim.core import QuantumState, fidelity
from toffsim.ancilla import MixedAncilla
from toffsim.channels import PauliChannel, UnitaryErrorSet
from toffsim.distill import combine_states
from toffsim.noisy_meas import measure_cphase_noisy
from toffsim.rng import trial_rng

from oracles import argparse_parser, corrected_choi_map


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


# each subcommand's options, as its --help lists them: the six that every
# subcommand shares, and toffoli-verify's negative control
SHARED_OPTIONS = ["-h", "--help", "--config", "--seed", "--trials", "--out", "--format",
                  "--check"]


@pytest.mark.parametrize("command", sorted(cli._FIELDS))
def test_each_subcommand_help_lists_the_shared_options_and_its_own(capsys, command):
    rc, out, err = run_cli([command, "--help"], capsys)
    assert rc == 0 and err == ""
    assert out.startswith(f"usage: toffsim {command} [-h] [--config PATH] [--seed SEED]")
    options = out[out.index("options:"):]
    listed = re.findall(r"^  (-[-\w]+)(?:, (--[-\w]+))?", options, flags=re.M)
    want = SHARED_OPTIONS + (["--corrupt-branch"] if command == "toffoli-verify" else [])
    assert [name for pair in listed for name in pair if name] == want


@pytest.mark.parametrize("command", sorted(cli._FIELDS))
def test_a_subcommand_usage_error_exits_1_with_its_usage_line(capsys, command):
    rc, out, err = run_cli([command, "--seed", "x"], capsys)
    assert rc == 1 and out == ""
    usage, message = err.split(f"toffsim {command}: error: ")
    assert usage.startswith(f"usage: toffsim {command} [-h]")
    assert message == "argument --seed: invalid int value: 'x'\n"


def parse_both(argv):
    """(exit code or None, parsed values, stdout, stderr) of `argv` through
    the argparse reference and through `cli._parse_args`."""
    results = []
    for parse in (lambda: argparse_parser().parse_args(argv), lambda: cli._parse_args(argv)):
        out, err = io.StringIO(), io.StringIO()
        # argparse wraps its text to the terminal's width, which COLUMNS sets
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, values = None, vars(parse())
            except SystemExit as exc:
                code, values = exc.code, None
        results.append((code, values, out.getvalue(), err.getvalue()))
    return results


# every rule of the command line, as argv
PARSE_CASES = [
    [], ["--help"], ["-h"], ["-hh", "estimate"], ["-hx"], ["--help=x"], ["--he", "x"],
    ["frobnicate"], ["frobnicate", "--help"], ["--"], ["--", "estimate"], ["-", "estimate"],
    ["-x", "estimate"], ["-x", "estimate", "--help"], ["--seed", "3", "estimate"],
    *([command, "--help"] for command in cli._FIELDS),
    # a value as the next token or after "="
    ["estimate", "--seed", "3", "--format", "csv", "--out", "r.csv", "--config", "c.json"],
    ["distill", "--seed=3", "--format=csv", "--out=r.csv", "--config=c.json", "--trials=4"],
    ["estimate", "--out="], ["estimate", "--out", "-a b"], ["estimate", "--seed", " 7 "],
    # unique prefixes, and ambiguous ones
    ["ensemble", "--tri", "5", "--s", "2", "--f", "csv", "--ch", "--o", "x", "--con", "c"],
    ["estimate", "--tri=5"], ["estimate", "--c"], ["estimate", "--help", "--c"],
    ["toffoli-verify", "--co", "x"], ["toffoli-verify", "--cor=-1,+1,+1"],
    ["estimate", "--cor=-1,+1,+1"], ["estimate", "--=x"],
    # the last of repeated flags wins
    ["noisy-meas", "--seed", "1", "--seed", "2", "--format", "csv", "--format", "json"],
    # -h and --help
    ["estimate", "-hh"], ["estimate", "-hx"], ["estimate", "-h=h"], ["estimate", "-h="],
    ["estimate", "--help=h"], ["estimate", "--h"], ["estimate", "--bogus", "--help"],
    ["estimate", "--help", "--bogus"], ["estimate", "--seed", "x", "--help"],
    # a value that reads as a negative number, and one that reads as a flag
    ["toffoli-verify", "--corrupt-branch=-1,+1,+1"],
    ["toffoli-verify", "--corrupt-branch", "-1,+1,+1"],
    ["estimate", "--seed", "-4"], ["estimate", "--trials", "-1.5"],
    ["estimate", "--seed", "-1e5"], ["estimate", "--seed", "--out", "x"],
    # refused: an unknown flag, an extra token, a bad or missing value
    ["estimate", "--bogus"], ["estimate", "extra"], ["estimate", "-"], ["estimate", "-4"],
    ["estimate", "--"], ["estimate", "--seed", "5", "--"], ["estimate", "--", "--seed", "5"],
    ["estimate", "--seed"], ["estimate", "--seed", "x"], ["estimate", "--seed="],
    ["estimate", "--format", "xml"], ["estimate", "--check=1"], ["estimate", "--ch="],
    ["estimate", "extra", "--seed", "y"], ["distill", "--corrupt-branch=-1,+1,+1"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_parse_args_reads_the_command_line_as_argparse_did(argv):
    reference, parsed = parse_both(argv)
    assert parsed == reference


# tokens from which argv are drawn: each subcommand, flags whole, shortened
# and with "=", values, and tokens the grammar treats specially
PARSE_TOKENS = [*cli._FIELDS, "frobnicate", "", "--", "-", "-h", "-hh", "-hx", "--help",
                "--he", "--h=x", "--config", "--con", "--c", "--co", "--seed", "--s", "--seed=2",
                "--trials", "--tri", "--tri=3", "--out", "--out=", "--o=r.json", "--format",
                "--f", "--format=csv", "--check", "--ch", "--check=1", "--corrupt-branch",
                "--cor", "--corrupt-branch=-1,+1,+1", "--bogus", "-x", "--=x",
                "0", "3", "-4", "-1.5", "x", " 7 ", "json", "csv", "xml", "-1,+1,+1",
                "1,1,-1", "-a b", "c.json"]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(PARSE_TOKENS), max_size=6),
                 st.tuples(st.lists(st.sampled_from(PARSE_TOKENS), max_size=1),
                           st.sampled_from(sorted(cli._FIELDS)),
                           st.lists(st.sampled_from(PARSE_TOKENS), max_size=6))
                 .map(lambda parts: parts[0] + [parts[1]] + parts[2])))
def test_parse_args_reads_any_argv_as_argparse_did(argv):
    reference, parsed = parse_both(argv)
    assert parsed == reference


def test_a_flag_value_of_two_dashes_is_that_text(tmp_path, capsys, monkeypatch):
    # argparse read "--flag=--" as an empty list, which --seed and --config
    # then failed on with a traceback
    assert run_cli(["estimate", "--seed=--"], capsys)[2].endswith(
        "toffsim estimate: error: argument --seed: invalid int value: '--'\n")
    rc, _, err = run_cli(["estimate", "--config=--"], capsys)
    assert rc == 1 and err.startswith("toffsim: error: [Errno 2]")
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run_cli(["estimate", "--out=--"], capsys)
    assert rc == 0 and out == ""
    assert json.loads((tmp_path / "--").read_text())["command"] == "estimate"


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
    # a block of parity bias -1, without defects and with defects only
    ("ensemble", {"n": 1, "p": 1.0, "defect_fraction": 0.0}),
    ("ensemble", {"n": 1, "defect_fraction": 1.0, "defect_p": 1.0}),
    # one trial has no standard error
    ("ensemble", {"trials": 1}),
    ("ensemble", {"model": "unitary", "trials": 1}),
    # no draw or result of a block ensemble reads a phase-flip probability
    ("ensemble", {"q": 0.0}),
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
    ({"n": commands._MAX_CAT_BITS + 1, "mode": "exact"}, 1),
    ({"n": 1000}, commands._MAX_TRIAL_BITS // 1000 + 1),
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
    {"n": commands._MAX_CAT_BITS},
    {"n": commands._MAX_CAT_BITS, "mode": "exact"},
    {"n": commands._MAX_CAT_BITS, "model": "unitary", "mode": "exact", "ratio": 0.0005},
])
def test_noisy_meas_at_its_bit_limit_runs(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, "edge.json", payload)
    rc, out, _ = run_cli(["noisy-meas", "--config", cfg, "--trials", "1"], capsys)
    assert rc == 0
    assert json.loads(out)["results"]["n"] == commands._MAX_CAT_BITS


def test_noisy_meas_work_budget_boundary(tmp_path, capsys, monkeypatch):
    # a budget of 40 trials of 8 bits: the at-budget run goes, one more fails
    monkeypatch.setattr(commands, "_MAX_TRIAL_BITS", 320)
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
    ({"levels": 40}, 2),
    ({"levels": 25}, 2),
    ({"levels": 10**9}, 2),
    ({"n": 10**12}, 2),
    ({"levels": 10}, commands._MAX_TRIAL_BITS // (50 << 10) + 1),
    ({"model": "unitary", "n": 10**7}, 200),
    ({"model": "unitary"}, commands._MAX_TRIAL_BITS // 50 + 1),
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


@pytest.mark.parametrize("payload", [
    {"p": 0.0},
    {"n": 1, "p": 0.0, "defect_fraction": 0.0},
])
def test_ensemble_whose_contamination_can_vanish_is_one_line_error(tmp_path, capsys,
                                                                   monkeypatch, payload):
    # a block without errors has contamination 0, whose log is undefined; the
    # run is refused before it samples a cascade
    from toffsim import error_models

    def refuse(*args, **kwargs):
        raise AssertionError("a cascade was sampled")

    monkeypatch.setattr(error_models, "ensemble_distill_fidelity", refuse)
    cfg = write_config(tmp_path, "clean.json", payload)
    rc, _, err = run_cli(["ensemble", "--config", cfg], capsys)
    assert rc == 1
    assert err == ("toffsim: error: contamination vanishes for a defect count; "
                   "log-contamination is undefined\n")


@pytest.mark.parametrize("payload, trials, error", [
    # a cascade at its limit passes that check, and meets the trial budget
    ({"levels": 10, "n": 64}, 2, "trials x draws per trial = 131072 exceeds the work "
                                 "budget of 80000"),
    ({"levels": 10, "n": 65}, 2, "2**levels x n at levels 10, n 65 exceeds the limit "
                                 "of 65536 draws per cascade"),
    ({"levels": 9, "n": 64}, 2, None),
    ({"levels": 9, "n": 64}, 3, "trials x draws per trial = 98304 exceeds the work "
                                "budget of 80000"),
    ({"model": "unitary", "n": 8}, 10_000, None),
    ({"model": "unitary", "n": 9}, 8_192, "n 9 exceeds the limit of 65536 tangents "
                                          "per block of 8192 trials"),
    ({"model": "unitary", "n": 8}, 10_001, "trials x draws per trial = 80008 exceeds "
                                           "the work budget of 80000"),
    # a decoherent run keeps two results a trial
    ({"levels": 0, "n": 1}, 65_536, None),
    ({"levels": 0, "n": 1}, 65_537, "trials 65537 exceeds the limit of 65536 decoherent "
                                    "trials"),
])
def test_ensemble_work_limit_boundaries(tmp_path, capsys, monkeypatch, payload, trials,
                                        error):
    monkeypatch.setattr(commands, "_MAX_BLOCK_DOUBLES", 2**16)
    monkeypatch.setattr(commands, "_MAX_TRIAL_BITS", 80_000)
    cfg = write_config(tmp_path, "edge.json", payload)
    rc, _, err = run_cli(["ensemble", "--config", cfg, "--trials", str(trials)], capsys)
    if error is None:
        assert rc == 0
    else:
        assert rc == 1
        assert err == f"toffsim: error: {error}\n"


def test_decoherent_ensemble_beyond_its_trial_limit_is_refused(tmp_path, capsys, monkeypatch):
    # a decoherent run keeps two results a trial; one trial past the limit is
    # refused before any cascade is sampled
    from toffsim import error_models

    def refuse(*args, **kwargs):
        raise AssertionError("a cascade was sampled")

    monkeypatch.setattr(error_models, "ensemble_distill_fidelity", refuse)
    limit = commands._MAX_BLOCK_DOUBLES
    assert limit == 2**22
    cfg = write_config(tmp_path, "wide.json", {"n": 1, "levels": 0})
    rc, _, err = run_cli(["ensemble", "--config", cfg, "--trials", str(limit + 1)], capsys)
    assert rc == 1
    assert err == (f"toffsim: error: trials {limit + 1} exceeds the limit of {limit} "
                   f"decoherent trials\n")


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
                                     "ensemble", "estimate"])
def test_seed_beyond_64_bits_is_one_line_error(capsys, command):
    rc, out, err = run_cli([command, "--seed", str(2**64)], capsys)
    assert rc == 1 and out == ""
    assert err == f"toffsim: error: seed must lie in [0, 2**64), got {2**64}\n"


# a fresh interpreter that runs every subcommand at both seeds just outside
# [0, 2**64), then lists the numpy and command modules it loaded
SEED_PROBE = """
import json, sys
from toffsim.cli import main
codes = [main([command, "--seed", seed])
         for command in ("toffoli-verify", "distill", "noisy-meas", "ensemble", "estimate")
         for seed in ("-1", str(2**64))]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m == "numpy" or m.startswith("toffsim.commands."))]))
"""


def test_seed_is_checked_before_a_command_module_or_numpy_loads():
    proc = subprocess.run([sys.executable, "-c", SEED_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout)
    assert codes == [1] * 10
    assert modules == []
    assert proc.stderr.splitlines() == [
        f"toffsim: error: seed must lie in [0, 2**64), got {seed}"
        for _ in range(5) for seed in (-1, 2**64)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_out_path_is_one_line_error(tmp_path, capsys, fmt):
    # a file in a directory that does not exist, and a directory
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        rc, stdout, err = run_cli(["estimate", "--format", fmt, "--out", str(out)], capsys)
        assert rc == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("toffsim: error: cannot write the report:") and str(out) in err
    # an empty path names no file, and is not stdout
    rc, stdout, err = run_cli(["estimate", "--format", fmt, "--out", ""], capsys)
    assert rc == 1 and stdout == ""
    assert err == ("toffsim: error: cannot write the report: "
                   "[Errno 2] No such file or directory: ''\n")


def test_distill_work_budget_boundary(tmp_path, capsys, monkeypatch):
    from toffsim import distill

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a tree past the work budget")

    # levels 0 makes no attempt, and counts as the per-tree cap of 100000
    monkeypatch.setattr(commands, "_MAX_COMBINE_ATTEMPTS", 400_000)
    cfg = write_config(tmp_path, "flat.json", {"levels": 0})
    rc, _, _ = run_cli(["distill", "--config", cfg, "--trials", "4"], capsys)
    assert rc == 0
    with monkeypatch.context() as patched:
        patched.setattr(distill, "sample_trees", no_sampling)
        rc, out, err = run_cli(["distill", "--config", cfg, "--trials", "5"], capsys)
    assert rc == 1 and out == ""
    assert err == ("toffsim: error: trials x expected combine attempts = 500000 "
                   "exceeds the work budget of 400000\n")
    # at levels 2, the Wald expectation of a tree's attempts
    cfg = write_config(tmp_path, "two.json", {"levels": 2})
    rc, out, _ = run_cli(["distill", "--config", cfg, "--trials", "1"], capsys)
    expected = json.loads(out)["results"]["sampled"]["expected_attempts"]
    monkeypatch.setattr(commands, "_MAX_COMBINE_ATTEMPTS", 10 * expected)
    rc, _, _ = run_cli(["distill", "--config", cfg, "--trials", "10"], capsys)
    assert rc == 0
    with monkeypatch.context() as patched:
        patched.setattr(distill, "sample_trees", no_sampling)
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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_toffoli_verify_checks_fail_on_a_table_corrupted_where_each_reads_it(capsys,
                                                                           monkeypatch, seed):
    from toffsim import gadgets

    argv = ["toffoli-verify", "--seed", str(seed)]
    assert failed_checks(argv, capsys) == []
    # negative controls: every correction starts with a stray X on the first
    # data qubit, in the branch maps alone or in the truth-table runs of
    # `toffoli_gadget` alone; and branch maps that drop the stray X which
    # --corrupt-branch adds, so that its negative control sees no corruption
    def stray(seq):
        return ("X_A",) + tuple(seq)

    branch_map = gadgets.corrected_branch_map
    with monkeypatch.context() as patched:
        patched.setattr(gadgets, "corrected_branch_map",
                        lambda branch, seq: branch_map(branch, stray(seq)))
        assert failed_checks(argv, capsys) == ["branch fidelity"]
    with monkeypatch.context() as patched:
        patched.setattr(gadgets, "corrected_branch_map", lambda branch, seq: branch_map(
            branch, seq[1:] if seq[:1] == ("X_A",) else seq))
        assert failed_checks(argv + ["--corrupt-branch=-1,+1,+1"], capsys) == \
            ["negative control"]
    shipped = gadgets.default_correction_table()
    corrupted = gadgets.CorrectionTable({branch: stray(seq)
                                         for branch, seq in shipped.entries.items()})
    gadget = gadgets.toffoli_gadget
    monkeypatch.setattr(gadgets, "toffoli_gadget",
                        lambda state, **kwargs: gadget(state, table=corrupted, **kwargs))
    assert failed_checks(argv, capsys) == ["truth table"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0 and json.loads(out)["results"]["truth_table_passed"] == 0


def test_distill_passes_checks(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"levels": 2, "alpha3": 0.5, "trials": 60})
    rc, out, _ = run_cli(["distill", "--config", cfg, "--check"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert all(c["passed"] for c in report["checks"])
    assert report["parameters"]["trials"] == 60


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_distill_checks_fail_on_a_shifted_formula_or_a_thinner_table(capsys, monkeypatch,
                                                                   seed):
    from toffsim import distill

    argv = ["distill", "--seed", str(seed)]
    assert failed_checks(argv, capsys) == []
    # negative controls: the closed form off by 1e-9, and the trees sampled
    # from success chances 0.95 x the table's, which the frequency is checked against
    with monkeypatch.context() as patched:
        formula = distill.fidelity_after_rounds
        patched.setattr(distill, "fidelity_after_rounds",
                        lambda alpha3, levels: formula(alpha3, levels) + 1e-9)
        assert failed_checks(argv, capsys) == ["tree fidelity vs closed form"]
    sample_trees = distill.sample_trees
    monkeypatch.setattr(distill, "sample_trees", lambda probs, **kwargs:
                        sample_trees([0.95 * p for p in probs], **kwargs))
    assert failed_checks(argv, capsys) == ["combine success frequency"]


@pytest.mark.parametrize("alpha3, levels", [(0.5, 3), (0.37, 4), (1.3, 5)])
def test_distill_samples_the_table_it_reports(tmp_path, capsys, monkeypatch, alpha3, levels):
    # the trees read exactly `level_success_probabilities`; at alpha3 1.3 its
    # p_5 differs in the last bit from the one a chain of combines gives
    from toffsim import distill

    tables = []
    sample_trees = distill.sample_trees

    def recording(probs, **kwargs):
        tables.append(list(probs))
        return sample_trees(probs, **kwargs)

    monkeypatch.setattr(distill, "sample_trees", recording)
    cfg = write_config(tmp_path, "d.json", {"alpha3": alpha3, "levels": levels})
    rc, out, _ = run_cli(["distill", "--config", cfg, "--trials", "600"], capsys)
    assert rc == 0
    reported = json.loads(out)["results"]["level_success_probabilities"]
    assert len(tables) == 2  # two blocks of 512 trials
    assert all(table == reported for table in tables)


@pytest.mark.parametrize("levels", [0, 1, 3])
def test_distill_zero_weight_ancilla_is_one_line_error(tmp_path, capsys, monkeypatch, levels):
    # 3 + alpha3 = 0: refused by the closed forms, before the circuit or a draw
    from toffsim import distill

    def no_circuit(*args, **kwargs):
        raise AssertionError("ran the circuit of a zero-weight ancilla")

    monkeypatch.setattr(distill, "combine_states", no_circuit)
    monkeypatch.setattr(distill, "sample_trees", no_circuit)
    cfg = write_config(tmp_path, "zero.json", {"alpha3": -3.0, "levels": levels})
    rc, out, err = run_cli(["distill", "--config", cfg, "--check"], capsys)
    assert rc == 1 and out == ""
    assert err == "toffsim: error: the ancilla has zero weight: 3 + a3 = 0\n"


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


def failed_checks(argv, capsys):
    """The checks a `--check` run failed, which exits 2 exactly when there is one."""
    rc, out, err = run_cli(argv + ["--check"], capsys)
    failed = sorted(c["name"] for c in json.loads(out)["checks"] if not c["passed"])
    assert rc == (2 if failed else 0), err
    return failed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decoherent_readout_checks_fail_on_a_hotter_flip_law(capsys, monkeypatch, seed):
    from toffsim import noisy_meas
    from toffsim.rng import count_cdf

    argv = ["noisy-meas", "--seed", str(seed)]
    assert failed_checks(argv, capsys) == []
    # negative control: the sampler draws its flip counts from the law of
    # chances 1.2 x the channel's, which both checks compare against
    monkeypatch.setattr(noisy_meas, "_count_table",
                        lambda chances: count_cdf(1.2 * np.frombuffer(chances)))
    assert failed_checks(argv, capsys) == ["alpha3 Monte Carlo vs closed form",
                                           "reported-true correlation vs parity bias"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_coherent_reading_check_fails_on_a_shifted_flip_angle(capsys, monkeypatch, seed):
    from toffsim import channels

    argv = ["noisy-meas", "--config", str(CONFIGS / "readout-exact.json"), "--seed", str(seed)]
    assert failed_checks(argv, capsys) == []
    # negative control: the block's flip angle, which the exact sampler never
    # reads, off by 1e-6 in the tan^2 sigma the readings are checked against
    flip_angle = channels.accumulated_flip_angle
    monkeypatch.setattr(channels, "accumulated_flip_angle",
                        lambda errors: flip_angle(errors) + 1e-6)
    assert failed_checks(argv, capsys) == ["coherent contamination reading"]


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
    # seeds 29 and 107 sit 1.5 and 0.2 standard errors from the prediction
    assert median_check(capsys, seed)
    # negative control: a prediction 1.5 decades of infidelity off fails, and
    # so does the log contamination checked against the same expectation
    from toffsim.error_models import BlockEnsemble

    expected_log_alpha3 = BlockEnsemble.expected_log_alpha3
    for decades in (-1.5, 1.5):
        monkeypatch.setattr(BlockEnsemble, "expected_log_alpha3", lambda self, d=decades:
                            expected_log_alpha3(self) + d * math.log(10) / self.block_count)
        assert not median_check(capsys, seed)
        assert failed_checks(["ensemble", "--seed", str(seed)], capsys) == [
            "log contamination vs exact expectation", "median fidelity vs typical prediction"]


@pytest.mark.parametrize("payload", [
    {"n": 13, "p": 0.1, "levels": 3, "defect_fraction": 0.0},
    {"n": 5, "p": 0.2, "levels": 3, "defect_fraction": 0.0},
    {"n": 2, "p": 0.45, "levels": 6, "defect_fraction": 0.0},
    {"n": 21, "p": 0.001, "levels": 0, "defect_fraction": 0.0},
    # 2**22 equal block logs summed in order drift from 2**22 x E by ~2e-4
    {"n": 1, "p": 0.3, "levels": 22, "defect_fraction": 0.0},
])
def test_ensemble_median_check_passes_on_a_defect_free_ensemble(tmp_path, capsys, payload):
    # every cascade is the same, so the median's standard error is 0, and the
    # median and the prediction differ in their last bits only
    cfg = write_config(tmp_path, "clean.json", payload)
    rc, out, err = run_cli(["ensemble", "--config", cfg, "--trials", "2", "--check"], capsys)
    assert rc == 0, err
    assert json.loads(out)["results"]["log_contamination_se"] == 0.0


TWO_POINT = {"model": "unitary", "distribution": "two_point", "n": 51, "p": 0.02}


def truncated_two_point_series(n, p):
    """The series a two_point ensemble was once checked against: -sum_k 2/(2k+1)
    cos(2(2k+1) arctan sqrt(p))^n, ended at its first term below 1e-15.  On
    the lattice law the cosine moments do not decay, so it stops early."""
    theta, series = math.atan(math.sqrt(p)), 0.0
    for k in range(401):
        term = -(2.0 / (2 * k + 1)) * math.cos(2 * (2 * k + 1) * theta) ** n
        series += term
        if abs(term) < 1e-15:
            break
    return series


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_point_ensemble_passes_against_its_exact_law(tmp_path, capsys, monkeypatch, seed):
    from toffsim import error_models

    cfg = write_config(tmp_path, "two_point.json", TWO_POINT)
    argv = ["ensemble", "--config", cfg, "--trials", "20000", "--seed", str(seed), "--check"]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0, err
    results = json.loads(out)["results"]
    assert results["exact"] == pytest.approx(-0.13950, abs=5e-6)
    assert [results[k] for k in ("series", "closed_form", "bound", "series_terms")] == [None] * 4
    if seed == 1:
        # negative control: the truncated series as the comparator misses the
        # same Monte Carlo by 0.116, beyond the allowance of 0.052
        series = truncated_two_point_series(51, 0.02)
        allowance = max(0.2 * abs(series), 4.0 * results["monte_carlo_se"])
        assert abs(results["monte_carlo"] - series) > allowance
        law = error_models._defect_law
        monkeypatch.setattr(error_models, "_defect_law",
                            lambda ensemble: law(ensemble)._replace(expected=series))
        rc, _, err = run_cli(argv, capsys)
        assert rc == 2
        assert "Monte Carlo vs exact" in err


class ScaledNormals:
    """A numpy Generator whose standard normals come out `factor` times too wide."""

    def __init__(self, generator, factor):
        self.generator, self.factor = generator, factor

    def standard_normal(self, size):
        return self.factor * self.generator.standard_normal(size)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gaussian_ensemble_checks_fail_on_a_scaled_sampler_or_closed_form(tmp_path, capsys,
                                                                          monkeypatch, seed):
    from toffsim import error_models, rng

    cfg = write_config(tmp_path, "gaussian.json", {"model": "unitary"})
    argv = ["ensemble", "--config", cfg, "--seed", str(seed)]
    # negative controls on the sampler: tangents sqrt(p) Z drawn at half or
    # twice their width are the law of p / 4 or 4 p.  The first misses the
    # series alone, by 0.7-1.1 against an allowance of 0.29-0.36 at the
    # default 200 trials.  The second also sits above the coarse bound; at
    # 200 trials it clears the allowances by as little as 0.01, so it runs
    # 2,000, where it misses the series by 0.67-0.72 against 0.15
    trial_rng = rng.trial_rng
    for trials, factor, failed in (
            ("200", 0.5, ["Monte Carlo vs series"]),
            ("2000", 2.0, ["Monte Carlo vs series", "below coarse bound"])):
        assert failed_checks(argv + ["--trials", trials], capsys) == []
        with monkeypatch.context() as patched:
            patched.setattr(rng, "trial_rng",
                            lambda s, t, f=factor: ScaledNormals(trial_rng(s, t), f))
            assert failed_checks(argv + ["--trials", trials], capsys) == failed
    # on the comparator: a closed form 1.5 x its value
    log_tan = error_models.ensemble_log_tan

    def shifted(*args, **kwargs):
        est = log_tan(*args, **kwargs)
        return est._replace(closed_form=1.5 * est.closed_form)

    monkeypatch.setattr(error_models, "ensemble_log_tan", shifted)
    assert failed_checks(argv, capsys) == ["series vs closed form"]


def test_even_two_point_ensemble_matches_its_atom_at_angle_zero(tmp_path, capsys):
    # C(8, 4) / 2^8 of the blocks have angle 0: log |tan 0| is -inf, exactly
    # and in the Monte Carlo mean alike
    cfg = write_config(tmp_path, "even.json", dict(TWO_POINT, n=8, p=0.05))
    rc, out, err = run_cli(["ensemble", "--config", cfg, "--check"], capsys)
    assert rc == 0, err
    report = json.loads(out)
    assert [c["name"] for c in report["checks"]] == ["Monte Carlo vs exact"]
    results = report["results"]
    assert results["exact"] is None and results["monte_carlo"] is None


EVEN_TWO_POINT = [dict(TWO_POINT, n=2000, p=0.001), dict(TWO_POINT, n=20000, p=1e-4)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("payload", EVEN_TWO_POINT, ids=["2000", "20000"])
def test_even_two_point_ensemble_may_miss_its_atom(tmp_path, capsys, payload, seed):
    # the atom C(n, n/2) / 2^n is 0.018 at n 2000 and 0.0056 at n 20000, so
    # 200 trials miss it with chance 0.027 and 0.32: a finite mean then passes
    cfg = write_config(tmp_path, "even.json", payload)
    argv = ["ensemble", "--config", cfg, "--seed", str(seed), "--check"]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0, err
    n = payload["n"]
    atom = math.comb(n, n // 2) / 2**n
    [check] = json.loads(out)["checks"]
    assert f"atom weight {atom:.3g}, chance that no trial draws it " \
           f"{(1.0 - atom) ** 200:.2g}" in check["detail"]


def test_even_two_point_ensemble_whose_sampler_never_draws_the_atom_fails(
        tmp_path, capsys, monkeypatch):
    # negative control: a table whose atom row has no width; 2,000 trials miss
    # an atom of weight 0.018 with chance e^-36, so the finite mean fails
    from toffsim import error_models

    law = error_models._defect_law

    def atomless(ensemble):
        got = law(ensemble)
        cdf = got.cdf.copy()
        atom = int(np.flatnonzero(np.isneginf(got.log_contamination))[0])
        cdf[atom - 1] = cdf[atom]
        return got._replace(cdf=cdf)

    monkeypatch.setattr(error_models, "_defect_law", atomless)
    cfg = write_config(tmp_path, "even.json", EVEN_TWO_POINT[0])
    argv = ["ensemble", "--config", cfg, "--seed", "1", "--trials", "2000", "--check"]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert "Monte Carlo vs exact" in err
    assert math.isfinite(json.loads(out)["results"]["monte_carlo"])


def test_estimate_passes_checks(capsys):
    rc, out, _ = run_cli(["estimate", "--check"], capsys)
    assert rc == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    assert names == {"single-level exponent", "two-level exponent"}


def test_estimate_checks_fail_on_a_shifted_block_failure(capsys, monkeypatch):
    from toffsim import concat

    assert failed_checks(["estimate"], capsys) == []
    # negative controls: every block fails d decades below the law; half a
    # decade moves level 2's block size and so its exponent by some 550
    # decades, and 1.5 also push level 1 below its window of [-10, -8]
    block_failure = concat.block_failure
    for shift, failed in ((-0.5, ["two-level exponent"]),
                          (-1.5, ["single-level exponent", "two-level exponent"])):
        monkeypatch.setattr(concat, "block_failure", lambda *args, d=shift:
                            block_failure(*args) + d)
        assert failed_checks(["estimate"], capsys) == failed


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
    # each seed's only trial leaves 3f/(1-f) undefined
    for seed, row in ((1, "0,8,decoherent,-1,1,"),    # no +1 report, so f has no value
                      (14, "0,8,decoherent,1,-1,")):  # every +1 is false: f = 1
        for flags, want_rc in ((["--check"], 2), ([], 0)):
            rc, out, err = run_cli(["noisy-meas", "--trials", "1", "--seed", str(seed)]
                                   + flags, capsys)
            assert rc == want_rc
            assert "Traceback" not in err
            results = json.loads(out)["results"]
            assert results["alpha3_estimate"] is None
            assert results["alpha3_estimate_se"] is None
            failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
            assert failed == ["alpha3 Monte Carlo vs closed form"]
        rc, out, _ = run_cli(["noisy-meas", "--trials", "1", "--seed", str(seed),
                              "--format", "csv"], capsys)
        assert rc == 0
        assert out.splitlines()[1] == row


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


# effective mode takes blocks of _EFFECTIVE_CHUNK trials, exact mode of _TRIAL_CHUNK;
# the rows checked straddle the default block's first edge
@pytest.mark.parametrize("payload, mode, trials, checked", [
    ({}, "effective", 4200, (0, 1, 4095, 4096, 4097, 4199)),
    ({"n": 3, "mode": "exact"}, "exact", 20, (0, 6, 7, 13, 19)),
    ({"model": "unitary", "n": 3, "mode": "exact"}, "exact", 20, (0, 6, 7, 13, 19)),
])
def test_noisy_meas_reports_independent_of_trial_chunk(tmp_path, capsys, monkeypatch,
                                                       payload, mode, trials, checked):
    cfg = write_config(tmp_path, "cfg.json", payload)
    if mode == "effective":
        # blocks of 7 meet every edge that blocks of 1 would, at a seventh of the calls
        block, chunks = "_EFFECTIVE_CHUNK", (commands._EFFECTIVE_CHUNK, 7, 1000)
    else:
        block, chunks = "_TRIAL_CHUNK", (commands._TRIAL_CHUNK, 1, 7)
    reports = []
    for chunk in chunks:
        monkeypatch.setattr(commands, block, chunk)
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
    from toffsim.commands import toffoli_verify

    circuit, fidelities = gadgets._run_gadget_circuit, toffoli_verify.branch_fidelities
    runs, blocks = [], []

    def counted(state, *args, **kwargs):
        runs.append(state.n_qubits)
        return circuit(state, *args, **kwargs)

    def recorded(vec, m):
        blocks.append((vec, m))
        return fidelities(vec, m)

    # as in a fresh process: the table's check builds the 8 uncorrected maps,
    # which the command then shares
    gadgets._uncorrected_map.cache_clear()
    gadgets.default_correction_table.cache_clear()
    monkeypatch.setattr(gadgets, "_run_gadget_circuit", counted)
    monkeypatch.setattr(toffoli_verify, "branch_fidelities", recorded)
    monkeypatch.setattr(commands, "_TRIAL_CHUNK", 8)
    rc, _, _ = run_cli(["toffoli-verify", "--trials", str(trials), "--check"], capsys)
    assert rc == 0
    # the 8 maps on the Choi state, then the 8 truth-table runs, whatever the trial count
    assert runs == [9] * 8 + [6] * 8
    monkeypatch.undo()
    # blocks of 8 trials, each through the 8 branches in turn; the maps are the
    # corrected Choi runs bit for bit
    branches = list(commands._BRANCHES.values())
    table = gadgets.default_correction_table()
    maps = [corrected_choi_map(branch, table[branch]) for branch in branches]
    assert len(blocks) == 8 * -(-trials // 8)
    labels = gadgets.DATA_LABELS + gadgets.ANCILLA_LABELS
    for i, (vec, m) in enumerate(blocks):
        block, b = divmod(i, 8)
        assert np.array_equal(m, maps[b])
        # trial t's input is drawn from its own substream, and its output on
        # each branch is bit for bit a one-input gadget run's
        assert len(vec) == min(8, trials - 8 * block)
        for t, row in enumerate(vec, start=8 * block):
            u = 2.0 * trial_rng(0, t).random(16) - 1.0
            assert np.array_equal(row, u[:8] + 1j * u[8:])
            inp = QuantumState(gadgets.DATA_LABELS, row)
            want = gadgets.toffoli_gadget(inp, postselect=branches[b]).output
            got = core.discard(QuantumState(labels, row @ m), *gadgets.ANCILLA_LABELS)
            assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("corrupt", [None, "-1,1,-1"])
def test_toffoli_verify_reports_do_not_depend_on_the_block_size(tmp_path, capsys,
                                                                 monkeypatch, corrupt):
    argv = ["toffoli-verify", "--trials", "30", "--seed", "4"]
    if corrupt is not None:
        argv.append(f"--corrupt-branch={corrupt}")
    reports = []
    for chunk in (commands._TRIAL_CHUNK, 1, 7):
        monkeypatch.setattr(commands, "_TRIAL_CHUNK", chunk)
        csv_out, json_out = tmp_path / f"{chunk}.csv", tmp_path / f"{chunk}.json"
        assert main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
        assert main(argv + ["--out", str(json_out)]) == 0
        reports.append((csv_out.read_bytes(), strip_timing(json_out)))
    capsys.readouterr()
    assert reports[0] == reports[1] == reports[2]


def test_toffoli_verify_memory_does_not_grow_with_its_trials():
    def peak(trials):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["toffoli-verify", "--trials", str(trials)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # loads the modules the run imports, and fills its caches
    assert peak(10_000) <= 2 * peak(512)


@pytest.mark.parametrize("payload", [{}, {"n": 9, "levels": 4, "defect_fraction": 0.3}])
def test_ensemble_reports_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch,
                                                          payload):
    cfg = write_config(tmp_path, "cfg.json", payload)
    argv = ["ensemble", "--config", cfg, "--trials", "30", "--seed", "4"]
    reports = []
    for chunk in (commands._TRIAL_CHUNK, 1, 7):
        monkeypatch.setattr(commands, "_TRIAL_CHUNK", chunk)
        csv_out, json_out = tmp_path / f"{chunk}.csv", tmp_path / f"{chunk}.json"
        assert main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
        assert main(argv + ["--out", str(json_out)]) == 0
        reports.append((csv_out.read_bytes(), strip_timing(json_out)))
    capsys.readouterr()
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("payload", [TWO_POINT, {"model": "unitary"}],
                         ids=["two_point", "gaussian"])
def test_unitary_ensemble_reports_do_not_depend_on_the_block_size(tmp_path, capsys,
                                                                  monkeypatch, payload):
    from toffsim import error_models

    cfg = write_config(tmp_path, "cfg.json", payload)
    argv = ["ensemble", "--config", cfg, "--seed", "1"]
    reports = []
    for chunk in (error_models.LOG_TAN_CHUNK, 1, 7):
        monkeypatch.setattr(error_models, "LOG_TAN_CHUNK", chunk)
        csv_out, json_out = tmp_path / f"{chunk}.csv", tmp_path / f"{chunk}.json"
        assert main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
        assert main(argv + ["--out", str(json_out)]) == 0
        reports.append((csv_out.read_bytes(), strip_timing(json_out)))
    capsys.readouterr()
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("payload", [{}, {"alpha3": -0.5, "levels": 4}])
def test_distill_reports_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch,
                                                         payload):
    cfg = write_config(tmp_path, "cfg.json", payload)
    argv = ["distill", "--config", cfg, "--trials", "30", "--seed", "4"]
    reports = []
    for chunk in (commands._TRIAL_CHUNK, 1, 7):
        monkeypatch.setattr(commands, "_TRIAL_CHUNK", chunk)
        csv_out, json_out = tmp_path / f"{chunk}.csv", tmp_path / f"{chunk}.json"
        assert main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
        assert main(argv + ["--out", str(json_out)]) == 0
        reports.append((csv_out.read_bytes(), strip_timing(json_out)))
    capsys.readouterr()
    assert reports[0] == reports[1] == reports[2]


def test_distill_memory_does_not_grow_with_its_trials():
    def peak(trials):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["distill", "--trials", str(trials)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # loads the modules the run imports
    assert peak(20_000) <= 2 * peak(512)


def test_unitary_readout_memory_does_not_grow_with_its_trials(tmp_path):
    # the contamination check keeps a running maximum, not one reading a +1 trial
    cfg = write_config(tmp_path, "unitary.json", {"n": 1, "model": "unitary", "mode": "exact"})

    def peak(trials):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["noisy-meas", "--config", cfg, "--trials", str(trials)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # loads the modules the run imports
    assert peak(200_000) <= 1.5 * peak(512)


def test_array_fidelities_equal_the_state_path_on_every_branch():
    from toffsim import gadgets
    from toffsim.commands.toffoli_verify import branch_fidelities
    from toffsim.core import discard

    table = gadgets.default_correction_table()
    corrupt = (-1, 1, -1)
    cases = [(branch, table[branch]) for branch in commands._BRANCHES.values()]
    cases.append((corrupt, ("X_A",) + table[corrupt]))
    rng = trial_rng(11, 0)
    u = 2.0 * rng.random((64, 16)) - 1.0
    # the command's inputs, and Gaussian ones
    vecs = [u[:, :8] + 1j * u[:, 8:], rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))]
    labels = gadgets.DATA_LABELS + gadgets.ANCILLA_LABELS
    for branch, corrections in cases:
        m = corrected_choi_map(branch, corrections)
        for vec in vecs:
            for row, got in zip(vec, branch_fidelities(vec, m)):
                ideal = gadgets.ideal_toffoli_output(QuantumState(gadgets.DATA_LABELS, row))
                output = discard(QuantumState(labels, row @ m), *gadgets.ANCILLA_LABELS)
                assert abs(got - fidelity(output, ideal)) <= 1e-15, (branch, corrections)


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
    assert read_csv(out)[0] == ["trial", "empirical_fidelity", "log_contamination"]

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
    assert out.splitlines()[1:] == ["0,150,45,256", "1,76,25,128"]


def test_distill_json_golden_results(tmp_path, capsys):
    # 0.37 is not dyadic, so `fidelity_circuit` (two Z-product postselections
    # per combine, on density matrices) shows every last bit of the projection
    cfg = write_config(tmp_path, "distill.json", {"alpha3": 0.37, "levels": 4})
    rc, out, _ = run_cli(["distill", "--config", cfg, "--trials", "50", "--seed", "3"], capsys)
    assert rc == 0
    assert json.loads(out)["results"] == {
        "alpha3": 0.37,
        "alpha_trajectory": [0.37, 0.1369, 0.01874161, 0.00035124794539209995,
                             1.2337511914217163e-07],
        "expected_ops_default_params": 1814.0,
        "fidelity_circuit": 0.9999999588749621,
        "fidelity_formula": 0.9999999588749621,
        "level_success_probabilities": [0.27621093784395384, 0.30677826901720784,
                                        0.32924578055133463, 0.3332553056457013],
        "levels": 4,
        "sampled": {
            "expected_attempts": 1000.5148792467784,
            "expected_leaves": 1720.9063107178458,
            "mean_combine_attempts": 1133.08,
            "mean_leaves_used": 1951.84,
            "success_frequency": 0.2782857344582907,
            "success_frequency_expected": 0.28097877763432183,
            "success_frequency_se": 0.0018828374493060772,
            "trials": 50,
        },
    }


def test_noisy_meas_exact_csv_golden_first_rows(tmp_path, capsys):
    # the config of the readout-exact benchmark workload
    cfg = write_config(tmp_path, "exact.json", {"n": 12, "model": "unitary",
                                                "mode": "exact", "ratio": 0.05})
    rc, out, _ = run_cli(["noisy-meas", "--config", cfg, "--trials", "4",
                          "--format", "csv"], capsys)
    assert rc == 0
    assert out.splitlines()[1:] == [
        "0,12,unitary,-1,,",
        "1,12,unitary,1,,0.46704121312023356",
        "2,12,unitary,1,,0.46704121312023356",
        "3,12,unitary,1,,0.46704121312023356",
    ]


def test_noisy_meas_effective_csv_golden_first_rows(capsys):
    rc, out, _ = run_cli(["noisy-meas", "--format", "csv"], capsys)
    assert rc == 0
    assert out.splitlines()[1:9] == [
        "0,8,decoherent,1,1,0.0",
        "1,8,decoherent,1,-1,3.0",
        "2,8,decoherent,-1,-1,",
        "3,8,decoherent,1,1,1.4999999999999998",
        "4,8,decoherent,1,1,1.0",
        "5,8,decoherent,1,1,0.7500000000000001",
        "6,8,decoherent,-1,1,",
        "7,8,decoherent,-1,1,",
    ]


def test_an_effective_run_draws_a_block_of_shots_a_call(capsys, monkeypatch):
    # the readout-effective benchmark config: 8,000 shots in blocks of
    # _EFFECTIVE_CHUNK, each drawn by one `trial_uniforms` call, and the raw
    # preparation's blocks of `_ATTEMPT_ROWS` attempts; two count tables
    from toffsim import noisy_meas, rng

    shot_calls, prep_calls, built = [], [], []

    def spy(calls, draw):
        def counted(*args):
            calls.append(args)
            return draw(*args)
        return counted

    def counted_cdf(chances):
        built.append(np.array(chances))
        return rng.count_cdf(chances)

    draw = rng.trial_uniforms
    noisy_meas._count_table.cache_clear()
    monkeypatch.setattr(rng, "trial_uniforms", spy(shot_calls, draw))
    monkeypatch.setattr(noisy_meas, "trial_uniforms", spy(prep_calls, draw))
    monkeypatch.setattr(noisy_meas, "count_cdf", counted_cdf)
    rc, out, _ = run_cli(["noisy-meas", "--config", str(CONFIGS / "readout-effective.json"),
                          "--trials", "8000", "--check"], capsys)
    assert rc == 0
    blocks = -(-8000 // commands._EFFECTIVE_CHUNK)
    assert 1 < blocks < 8000 // commands._TRIAL_CHUNK
    assert [args[1:4] for args in shot_calls] == [
        (start, min(start + commands._EFFECTIVE_CHUNK, 8000), 3)
        for start in range(0, 8000, commands._EFFECTIVE_CHUNK)]
    attempts = json.loads(out)["results"]["raw_preparation"]["attempts"]
    assert len(prep_calls) == -(-attempts // noisy_meas._ATTEMPT_ROWS)
    assert [b.tolist() for b in built] == [[0.05] * 8, [0.0] * 8]
    noisy_meas._count_table.cache_clear()


def test_noisy_meas_unitary_exact_json_golden_results(tmp_path, capsys):
    cfg = write_config(tmp_path, "unitary.json", {"n": 3, "model": "unitary",
                                                  "mode": "exact"})
    rc, out, _ = run_cli(["noisy-meas", "--config", cfg, "--trials", "4"], capsys)
    assert rc == 0
    assert json.loads(out)["results"] == {
        "alpha3_readings_max_deviation": 1.0408340855860843e-17,
        "flip_angle": 0.14987518716582826,
        "mode": "exact",
        "model": "unitary",
        "n": 3,
        "raw_preparation": {"alpha3_reading": 0.022803282172972356, "attempts": 1},
        "reported_plus_frequency": 1.0,
        "tan_squared": 0.022803282172972346,
        "trials": 4,
    }


def test_ensemble_csv_golden_first_rows(capsys):
    rc, out, _ = run_cli(["ensemble", "--trials", "2", "--format", "csv"], capsys)
    assert rc == 0
    assert out.splitlines()[1:] == [
        "0,0.9999052096565164,-8.165135932374797",
        "1,0.9560500690085196,-1.9811469424814898",
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
    # a corrected branch's fidelity is exactly 1, and the fixed-order sums
    # round its numerator and its denominator alike
    want = {branch: f'"{branch}",1.0,1.0,{" ".join(seq)}'
            for branch, seq in TOFFOLI_CORRECTIONS.items()}
    if corrupt is not None:
        want["-1,+1,-1"] = ('"-1,+1,-1",0.0016104376529954788,0.13685532786709206,'
                            "X_A CX_BC X_A*CZ_AB*X_A")
    assert out.splitlines()[1:] == list(want.values())


def test_toffoli_verify_json_golden_results(capsys):
    rc, out, _ = run_cli(["toffoli-verify", "--trials", "300", "--seed", "2"], capsys)
    assert rc == 0
    assert json.loads(out)["results"] == {
        "branches": [{"branch": branch, "corrections": seq, "mean_fidelity": 1.0,
                      "min_fidelity": 1.0}
                     for branch, seq in TOFFOLI_CORRECTIONS.items()],
        "flagged_branches": [],
        "truth_table_passed": 8,
        "truth_table_total": 8,
        "worst_fidelity": 1.0,
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


def run_module(argv):
    """`python -m toffsim.cli ARGV` in a fresh process: (exit code, stdout bytes)."""
    proc = subprocess.run([sys.executable, "-m", "toffsim.cli"] + argv,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("config, code", [
    (None, 0),
    ({"bogus": 1}, 1),
    ({"physical_error_log10": -3.5}, 2),  # overshoots the single-level window
])
def test_module_run_exits_as_main_returns(tmp_path, capsys, config, code):
    argv = ["estimate", "--check"]
    if config is not None:
        argv += ["--config", write_config(tmp_path, "cfg.json", config)]
    assert run_cli(argv, capsys)[0] == code
    assert run_module(argv)[0] == code


def test_module_run_prints_the_json_report_main_prints(capsys):
    rc, out, _ = run_cli(["estimate"], capsys)
    module_rc, module_out = run_module(["estimate"])
    assert rc == module_rc == 0
    reports = [json.loads(text) for text in (out, module_out)]
    for report in reports:
        del report["wall_time_seconds"]
    assert reports[0] == reports[1]


def test_module_run_prints_the_csv_bytes_main_prints(capsys):
    argv = ["noisy-meas", "--format", "csv", "--trials", "3000"]
    rc, out, _ = run_cli(argv, capsys)
    module_rc, module_out = run_module(argv)
    assert rc == module_rc == 0
    assert module_out == out.encode("utf-8")


# `python -m toffsim.cli` as runpy runs it: the collector's freeze count
# before the run and after its SystemExit
FREEZE_PROBE = """
import gc, json, runpy, sys
sys.argv = ["toffsim"] + sys.argv[1:]
before = gc.get_freeze_count()
try:
    runpy.run_module("toffsim.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, before, gc.get_freeze_count()]))
"""


def test_a_module_run_freezes_the_collector_once_main_returns(tmp_path):
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE, "estimate", "--check",
                           "--out", str(tmp_path / "report.json")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, before, after = json.loads(proc.stdout)
    assert code == 0
    assert before == 0
    assert after > 0


def test_main_in_process_leaves_the_collector_unfrozen(capsys):
    before, environ = gc.get_freeze_count(), dict(os.environ)
    assert run_cli(["estimate", "--check"], capsys)[0] == 0
    assert run_cli(["noisy-meas", "--trials", "3", "--check"], capsys)[0] == 0
    assert gc.get_freeze_count() == before
    assert gc.isenabled()
    assert dict(os.environ) == environ


# `python -m toffsim.cli` as runpy runs it, then what the process holds once
# numpy has loaded: its OS threads, its BLAS thread setting and its collector
THREAD_PROBE = """
import gc, json, os, runpy, sys
sys.argv = ["toffsim"] + sys.argv[1:]
try:
    runpy.run_module("toffsim.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, "numpy" in sys.modules, len(os.listdir("/proc/self/task")),
                  os.environ.get("OPENBLAS_NUM_THREADS"), gc.isenabled()]))
"""


def blas_env(setting, variable="OPENBLAS_NUM_THREADS"):
    """This environment with `variable` unset (None) or set to `setting`."""
    env = {key: value for key, value in os.environ.items() if key != variable}
    if setting is not None:
        env[variable] = setting
    return env


def run_thread_probe(tmp_path, blas_threads):
    """THREAD_PROBE of a noisy-meas run under `blas_env(blas_threads)`."""
    proc = subprocess.run([sys.executable, "-c", THREAD_PROBE, "noisy-meas", "--trials", "3",
                           "--check", "--out", str(tmp_path / "report.json")],
                          capture_output=True, text=True, timeout=120,
                          env=blas_env(blas_threads))
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded, threads, setting, collecting = json.loads(proc.stdout)
    assert code == 0 and numpy_loaded
    assert not collecting
    return threads, setting


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")
def test_a_module_run_starts_no_blas_thread(tmp_path):
    assert run_thread_probe(tmp_path, None) == (1, "1")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")
def test_a_module_run_keeps_a_blas_thread_count_set_in_the_environment(tmp_path):
    threads, setting = run_thread_probe(tmp_path, "2")
    assert setting == "2"
    # OpenBLAS starts no more threads than the process may use cores
    assert threads == min(2, len(os.sched_getaffinity(0)))


# every subcommand, in each model and mode it runs (the unitary readout is exact
# only), at a small trial count T; estimate scales its target list instead
GARBAGE_RUNS = {
    "toffoli-verify": (["toffoli-verify"], 2, None),
    "distill": (["distill"], 20, None),
    "noisy-meas-decoherent-effective": (["noisy-meas"], 40, {"mode": "effective"}),
    "noisy-meas-decoherent-exact": (["noisy-meas"], 4, {"mode": "exact"}),
    "noisy-meas-unitary-exact": (["noisy-meas"], 4, {"model": "unitary", "mode": "exact"}),
    "ensemble-decoherent": (["ensemble"], 4, {"model": "decoherent"}),
    "ensemble-unitary": (["ensemble"], 4, {"model": "unitary"}),
    "estimate": (["estimate"], 0, {"targets": [-9.0, -100.0]}),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("run", sorted(GARBAGE_RUNS))
def test_cyclic_garbage_of_a_warm_run_does_not_grow_with_trials(tmp_path, capsys, monkeypatch,
                                                              run, fmt):
    # process_main runs main with the collector disabled, which holds only if
    # what a run leaves for the collector does not grow with its work
    argv, trials, config = GARBAGE_RUNS[run]
    command = cli._COMMANDS[argv[0]]

    def leaky(cfg, seed, rows):
        """The command, leaving one reference cycle a trial (a target, for estimate)."""
        for _ in range(cfg["trials"] if trials else len(cfg["targets"])):
            cycle = []
            cycle.append(cycle)
        return command(cfg, seed, rows)

    def garbage(scale):
        """Objects the collector frees after one run at `scale` times the work."""
        call = argv + ["--format", fmt]
        if trials:
            call += ["--trials", str(scale * trials)]
        if config is not None:
            scaled = dict(config)
            if "targets" in scaled:
                scaled["targets"] = scaled["targets"] * scale
            call += ["--config", write_config(tmp_path, "cfg.json", scaled)]
        gc.collect()
        assert run_cli(call, capsys)[0] == 0
        return gc.collect()

    enabled = gc.isenabled()
    gc.disable()
    try:
        garbage(1)  # warm: first-call imports and caches
        counts = [garbage(1), garbage(4)]
        # positive control: the count sees a cycle a trial, 4x as many at 4x the work
        monkeypatch.setitem(cli._COMMANDS, argv[0], leaky)
        leaked = [garbage(1), garbage(4)]
    finally:
        if enabled:
            gc.enable()
    assert counts[1] == counts[0]
    per_trial = trials or 2  # estimate's two targets
    assert leaked == [counts[0] + per_trial, counts[0] + 4 * per_trial]


# a child interpreter that calls `main` in process, so that OPENBLAS_NUM_THREADS
# unset leaves numpy's default thread count, and writes every report to a file
BLAS_PROBE = """
import json, os, sys
from toffsim.cli import main
for name, argv in json.loads(sys.argv[2]).items():
    assert main(argv + ["--out", os.path.join(sys.argv[1], name)]) == 0, name
"""
CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def blas_reports(tmp_path, variable, settings):
    """{(setting, report name): report} of every subcommand at its defaults and
    both readout configs, as JSON without wall_time_seconds and as CSV bytes,
    from one BLAS_PROBE child per setting of `variable` (None: unset)."""
    calls = {command: [command] for command in cli._COMMANDS}
    calls.update({config.stem: ["noisy-meas", "--config", str(config)]
                  for config in sorted(CONFIGS.glob("readout-*.json"))})
    assert len(calls) == 7
    runs = {f"{name}.{fmt}": argv + ["--format", fmt]
            for name, argv in calls.items() for fmt in ("json", "csv")}
    reports = {}
    for setting in settings:
        out = tmp_path / f"{variable}-{setting}"
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", BLAS_PROBE, str(out), json.dumps(runs)],
                              capture_output=True, text=True, timeout=300,
                              env=blas_env(setting, variable))
        assert proc.returncode == 0, proc.stderr
        for name in runs:
            if name.endswith(".csv"):
                reports[setting, name] = (out / name).read_bytes()
            else:
                report = json.loads((out / name).read_text())
                del report["wall_time_seconds"]
                reports[setting, name] = report
    return reports, list(runs)


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    reports, names = blas_reports(tmp_path, "OPENBLAS_NUM_THREADS", (None, "1", "2"))
    for name in names:
        assert reports["1", name] == reports[None, name], name
        assert reports["2", name] == reports[None, name], name


def test_reports_do_not_depend_on_the_openblas_kernel(tmp_path):
    # OpenBLAS picks its kernels by CPU unless OPENBLAS_CORETYPE names one:
    # Haswell is its AVX2 kernel, Prescott its SSE3 one
    reports, names = blas_reports(tmp_path, "OPENBLAS_CORETYPE", (None, "Haswell", "Prescott"))
    for name in names:
        assert reports["Haswell", name] == reports[None, name], name
        assert reports["Prescott", name] == reports[None, name], name


def test_the_console_script_runs_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"toffsim": "toffsim.cli:process_main"}
    module, attr = scripts["toffsim"].split(":")
    assert callable(getattr(importlib.import_module(module), attr))


# -- what the benchmark rebinds ---------------------------------------------------------------

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_tracer_rebinds_exists():
    import toffsim
    from toffsim.distill import DistillOutcome
    from toffsim.noisy_meas import RawPrepResult

    tracer = load_tracer()
    for targets in tracer.TRACED.values():
        for module_name, attr in targets:
            assert callable(getattr(importlib.import_module(module_name), attr, None)), \
                f"{module_name}.{attr}"
    assert sorted(cli._COMMANDS) == ["distill", "ensemble", "estimate", "noisy-meas",
                                     "toffoli-verify"]
    assert all(callable(fn) for fn in cli._COMMANDS.values())
    assert isinstance(toffsim.kernel_backend, str)
    assert "__init__" in QuantumState.__dict__
    # the after-hooks read their counts off the records the timed calls return
    returns = {"distill.distill_tree": DistillOutcome,
               "noisy_meas.prepare_raw_ancilla": RawPrepResult}
    assert sorted(tracer._AFTER) == sorted(returns)
    counters = dict.fromkeys(tracer.COUNTERS, 0)
    for name, record in returns.items():
        tracer._AFTER[name](counters, record._make(range(1, len(record._fields) + 1)))
    assert sorted(counters) == sorted(tracer.COUNTERS)


@pytest.mark.parametrize("argv", [
    ["toffoli-verify", "--trials", "1"],
    ["distill", "--trials", "3"],
    ["noisy-meas", "--trials", "3"],
    ["ensemble", "--trials", "3"],
    ["estimate"],
])
def test_a_traced_fresh_process_leaves_no_wrapper_behind(tmp_path, argv):
    # a command module that bound a library function at its import, while the
    # tracer was installed, would keep the tracer's wrapper after it is removed
    out = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(TRACER), "cli", str(out), "--"] + argv
                          + ["--check", "--out", str(tmp_path / "report.json")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text())
    assert trace["exit"] == 0
    assert trace["leftover_wrappers"] == []
    assert trace["layers"]["cli.command"]["calls"] == 1


# every subcommand at its defaults, and the readout-exact benchmark workload
# at its 200 trials
SUBCOMMAND_RUNS = pytest.mark.parametrize("command, config", [
    ("toffoli-verify", None),
    ("distill", None),
    ("noisy-meas", None),
    ("ensemble", None),
    ("estimate", None),
    ("noisy-meas", {"n": 12, "model": "unitary", "mode": "exact", "ratio": 0.05}),
], ids=["toffoli-verify", "distill", "noisy-meas", "ensemble", "estimate", "readout-exact"])


def subcommand_argv(tmp_path, command, config):
    argv = [command]
    if config is not None:
        argv += ["--config", write_config(tmp_path, "config.json", config), "--trials", "200"]
    return argv


@SUBCOMMAND_RUNS
def test_each_subcommand_fits_its_index_plans_in_the_plan_cache(tmp_path, capsys, command,
                                                                config):
    from toffsim import _kernels, gadgets

    argv = subcommand_argv(tmp_path, command, config)
    # as in a fresh process, toffoli-verify checks its correction table and
    # builds the uncorrected branch maps that the check and the command share
    gadgets._uncorrected_map.cache_clear()
    gadgets.default_correction_table.cache_clear()
    _kernels._cached_plan.cache_clear()
    rc, _, _ = run_cli(argv, capsys)
    assert rc == 0
    info = _kernels._cached_plan.cache_info()
    assert info.misses <= info.maxsize


@SUBCOMMAND_RUNS
def test_no_subcommand_calls_numpy_linalg(tmp_path, capsys, monkeypatch, command, config):
    from toffsim import gadgets

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("svd", "pinv", "eigh", "eig", "inv", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    # as in a fresh process, toffoli-verify checks its correction table and
    # builds the uncorrected branch maps that the check and the command share
    gadgets._uncorrected_map.cache_clear()
    gadgets.default_correction_table.cache_clear()
    argv = subcommand_argv(tmp_path, command, config)
    rc, _, err = run_cli(argv + ["--check", "--out", str(tmp_path / "report.json")], capsys)
    assert rc == 0, err


def test_median_is_numpy_median_bit_for_bit():
    from toffsim.commands.ensemble import _median

    rng = trial_rng(5, 0)
    for size in list(range(1, 40)) + [199, 200, 1000]:
        for scale in (1e-9, 1.0, 1e7):
            values = rng.standard_normal(size) * scale
            values[::7] = values[0]  # ties
            assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()
    with_nan = np.array([0.3, np.nan, 0.1, 0.2])
    assert math.isnan(_median(with_nan)) and math.isnan(np.median(with_nan))


# each step runs in the same fresh interpreter and prints the modules loaded so far
IMPORT_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith(("toffsim.", "numpy"))
                  or m in ("dataclasses", "inspect", "csv", "argparse", "gettext"))
steps = {}
import toffsim
steps["package"] = loaded()
import toffsim.cli
steps["import"] = loaded()
for argv in (["estimate"], ["ensemble", "--trials", "3"], ["toffoli-verify", "--trials", "1"],
             ["distill", "--trials", "3"], ["noisy-meas", "--trials", "3"]):
    toffsim.cli.main(argv + ["--out", sys.argv[1]])
    steps[argv[0]] = loaded()
with open(sys.argv[2], "w") as f:
    json.dump({"model": "unitary"}, f)
toffsim.cli.main(["ensemble", "--trials", "3", "--config", sys.argv[2], "--out", sys.argv[1]])
steps["unitary ensemble"] = loaded()
toffsim.cli.main(["estimate", "--format", "csv", "--out", sys.argv[1]])
steps["csv"] = loaded()
print(json.dumps(steps))
"""


def test_each_subcommand_imports_only_what_it_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "r.json"),
                           str(tmp_path / "c.json")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert steps["package"] == []
    # the CLI and the pieces its commands share, and no command module
    assert steps["import"] == ["toffsim.cli", "toffsim.commands"]
    # each subcommand adds its own command module, and no other
    previous = steps["import"]
    for command in ("estimate", "ensemble", "toffoli-verify", "distill", "noisy-meas"):
        added = [m for m in steps[command] if m.startswith("toffsim.commands.")
                 and m not in previous]
        assert added == ["toffsim.commands." + command.replace("-", "_")], command
        previous = steps[command]
    assert "toffsim.concat" in steps["estimate"]
    assert not [m for m in steps["estimate"]
                if m.startswith("numpy") or m in ("toffsim.core", "toffsim._kernels")]
    assert "inspect" not in steps["estimate"]
    # the decoherent ensemble draws through trial_uniforms, like the commands
    # after it; the unitary ensemble's tangents come from a Generator
    assert "numpy.random" not in steps["noisy-meas"]
    assert not {"numpy.ma", "toffsim.core", "toffsim._kernels"} & set(steps["ensemble"])
    assert "numpy.random" in steps["unitary ensemble"]
    # records are built without dataclasses, and JSON reports without csv
    assert {"toffsim.core", "toffsim.gadgets", "toffsim.noisy_meas"} <= \
        set(steps["noisy-meas"])
    assert not {"dataclasses", "csv"} & set(steps["noisy-meas"])
    assert "csv" in steps["csv"]
    # the command line is parsed without argparse, which loads gettext
    assert not [(step, m) for step, loaded in steps.items() for m in loaded
                if m in ("argparse", "gettext")]


# `python -m toffsim.cli` runs the CLI's module as __main__; a command module
# that imported toffsim.cli would compile and run it a second time
MODULE_RUN_PROBE = """
import json, runpy, sys
sys.argv = ["toffsim"] + sys.argv[1:]
try:
    runpy.run_module("toffsim.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("toffsim"))]))
"""


def test_module_run_of_noisy_meas_compiles_the_cli_once(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-c", MODULE_RUN_PROBE, "noisy-meas", "--trials",
                           "3", "--check", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    assert json.loads(out.read_text())["command"] == "noisy-meas"
    assert "toffsim.cli" not in modules
    assert [m for m in modules if m.startswith("toffsim.commands")] == \
        ["toffsim.commands", "toffsim.commands.noisy_meas"]


# a fresh interpreter that runs noisy-meas, effective then exact, before any
# other subcommand, counting `numpy.linalg.pinv` calls from before the first
# import of toffsim.ancilla, which holds the pseudo-inverse constant, on; a
# unitary run last decomposes its states through that constant
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
import toffsim.ancilla
steps["import ancilla"] = [len(pinv_calls), loaded()]
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
    assert steps["import ancilla"][0] == 0
    for mode in ("effective", "exact"):
        pinv_calls, modules = steps[mode]
        assert pinv_calls == 0, mode
        assert "toffsim.noisy_meas" in modules
        assert not [m for m in modules if m.startswith("numpy.random") or m == "secrets"], mode
    # decomposing a state takes no pseudo-inverse either: it is a constant
    assert steps["unitary"][0] == 0
    assert not [m for m in steps["unitary"][1] if m.startswith("numpy.random")]


# a fresh interpreter that runs one subcommand before any other, with the
# config file given as its third argument if any, and lists the numpy.random
# modules it loaded
COMMAND_PROBE = """
import json, sys
from toffsim.cli import main
argv = [sys.argv[1], "--check", "--out", sys.argv[2]]
if len(sys.argv) > 3:
    argv += ["--config", sys.argv[3]]
assert main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("numpy.random") or m == "secrets")))
"""


@pytest.mark.parametrize("command, config, loads_random", [
    ("toffoli-verify", None, False), ("distill", None, False), ("ensemble", None, False),
    ("ensemble", TWO_POINT, False),
    # the gaussian ensemble draws its tangents from a numpy Generator
    ("ensemble", {"model": "unitary", "distribution": "gaussian"}, True),
], ids=["toffoli-verify", "distill", "ensemble", "ensemble-two_point", "ensemble-gaussian"])
def test_a_command_process_loads_no_numpy_random(tmp_path, command, config, loads_random):
    argv = [sys.executable, "-c", COMMAND_PROBE, command, str(tmp_path / "r.json")]
    if config is not None:
        argv.append(write_config(tmp_path, "c.json", config))
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert bool([m for m in loaded if m.startswith("numpy.random")]) == loads_random, loaded
    if not loads_random:
        assert loaded == []


# a fresh interpreter that runs noisy-meas first, effective, exact under a
# Pauli channel and exact under coherent errors, listing the toffsim modules
# loaded after each
READOUT_IMPORT_PROBE = """
import json, sys
import toffsim.cli
steps = {}
for name, config in (("effective", {}), ("exact", {"mode": "exact"}),
                     ("unitary", {"mode": "exact", "model": "unitary"})):
    with open(sys.argv[1], "w") as f:
        json.dump(config, f)
    assert toffsim.cli.main(["noisy-meas", "--trials", "3", "--check", "--config",
                             sys.argv[1], "--out", sys.argv[2]]) == 0
    steps[name] = sorted(m for m in sys.modules if m.startswith("toffsim."))
print(json.dumps(steps))
"""


def test_a_readout_process_loads_no_purification_ensemble_or_other_command_module(tmp_path):
    proc = subprocess.run([sys.executable, "-c", READOUT_IMPORT_PROBE,
                           str(tmp_path / "c.json"), str(tmp_path / "r.json")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    for name in ("effective", "exact", "unitary"):
        modules = steps[name]
        assert {"toffsim.channels", "toffsim.ancilla", "toffsim.noisy_meas"} <= set(modules)
        # trees, circuit and cost calculus; the block-ensemble statistics; the
        # gadget and the schedules
        assert not {"toffsim.distill", "toffsim.error_models", "toffsim.gadgets",
                    "toffsim.concat"} & set(modules), name
        assert [m for m in modules if m.startswith("toffsim.commands.")] == \
            ["toffsim.commands.noisy_meas"], name


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
