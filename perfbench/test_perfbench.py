"""Tests of the benchmark itself.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# the same commands as WORKLOADS, with trial counts small enough for a test
TINY = {
    "readout-effective": [run.Call("noisy-meas", 300, "readout-effective.json")],
    "readout-exact": [run.Call("noisy-meas", 3, "readout-exact.json")],
    "protocol-mix": [run.Call("toffoli-verify", 2), run.Call("distill", 50),
                     run.Call("ensemble", 60), run.Call("estimate", 0)],
}


def test_benchmark_json_matches_the_catalog():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        {name: spec[0] for name, spec in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        {name: spec[0] for name, spec in run.PER_LAYER.items()}
    assert set(TINY) == set(run.WORKLOADS)
    assert [[c.command for c in calls] for calls in TINY.values()] == \
        [[c.command for c in run.WORKLOADS[w]] for w in TINY]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, workload, TINY[workload])
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.01",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 2 * len(TINY[workload])
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    kinds = detail["metric_kinds"]
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], int if kinds[name] == "count" else float), name
    assert detail["fail_frac"] == {"value": 0.0, "unit": "ratio"}
    env = detail["environment"]
    assert {"commit", "python", "numpy", "blas_vendor", "blas_threads", "cpu_count",
            "kernel_backend"} <= set(env)
    if trace:
        assert result["metrics"]["cli.main.self_s"]["value"] > 0
        assert result["metrics"]["gadgets.derive_correction_table.self_s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        # every set-up sample and call lies between two reference samples
        refs = detail["reference_wall_s"]
        steps = [[setup] + calls
                 for setup, calls in zip(detail["setup_wall_s"], detail["call_wall_s"])]
        assert len(refs) == 1 + sum(map(len, steps))
        units, at = [], 0
        for walls in steps:
            units.append([2 * wall / (refs[at + k] + refs[at + k + 1])
                          for k, wall in enumerate(walls)])
            at += len(walls)
        metrics = result["metrics"]
        assert metrics["setup_s"]["value"] == \
            pytest.approx(statistics.median(u[0] for u in units) * run.REFERENCE_S)
        assert metrics["trials_per_s"]["value"] == pytest.approx(statistics.median(
            detail["trials_per_iteration"] / sum(u[1:]) for u in units) / run.REFERENCE_S)

@pytest.mark.parametrize("argv", [
    ["toffoli-verify", "--trials", "1"],
    ["noisy-meas", "--trials", "20"],
    ["distill", "--trials", "5"],
])
def test_span_tree_nests_and_self_times_sum_to_the_root(argv, tmp_path):
    import toffsim.cli

    with tracer.Tracer() as traced:
        assert toffsim.cli.main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    spans = traced.spans
    roots = [span for span in spans if span[3] == -1]
    assert [span[0] for span in roots] == ["cli.main"]
    for name, start, end, parent in spans:
        assert start <= end, name
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    own = tracer.self_times(spans)
    assert min(own) >= 0.0
    _, root_start, root_end, _ = roots[0]
    assert sum(own) == pytest.approx(root_end - root_start, rel=1e-9)
    assert {"cli.command", "rng.trial_rng"} <= {span[0] for span in spans}


def _bindings():
    import toffsim.cli
    import toffsim.core

    found = {(m.__name__, attr): value for m in tracer._toffsim_modules()
             for attr, value in vars(m).items() if callable(value)}
    found.update({("_COMMANDS", key): fn for key, fn in toffsim.cli._COMMANDS.items()})
    found[("QuantumState", "__init__")] = toffsim.core.QuantumState.__dict__["__init__"]
    return found


def test_every_wrapped_function_is_restored(tmp_path):
    import toffsim.cli

    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer() as traced:
            assert "toffsim.cli.main" in tracer.leftover_wrappers()
            assert toffsim.cli.main(["estimate", "--out", str(tmp_path / "r.json")]) == 0
            1 / 0
    assert traced.spans
    assert tracer.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_a_child_running_past_the_deadline_is_killed(tmp_path):
    started = time.perf_counter()
    children = run.Children(tmp_path, deadline=started + 0.5)
    child = children.run(["-c", "import time; time.sleep(60)"])
    assert child.code == -signal.SIGKILL
    assert time.perf_counter() - started < 30


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "protocol-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
