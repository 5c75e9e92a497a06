#!/usr/bin/env python3
"""Layered benchmark of the toffsim command line.

Usage, from the repository root (toffsim is imported from ./src):

    python3 perfbench/run.py --workload readout-effective --seed 1 --seconds 40 --trace 0

Every measured operation is one `toffsim` CLI call with `--check`, run in a
fresh child interpreter with the workload seed as `--seed`; one child runs at
a time.  Nothing is timed inside the library.  BLAS threading is left at the
machine default and recorded, so its effect on the 14-qubit workload shows.

`--trace 0` prints the end-to-end metrics:
  setup_s       median over the run of the wall time of a fresh interpreter
                that imports toffsim.cli and derives the correction table;
  trials_per_s  median over the run's iterations of the workload's fixed
                Monte Carlo trial count divided by the iteration's time;
  peak_rss_mb   median over iterations of the largest child peak RSS.
Both timings are given at reference speed.  On a shared host the machine's
speed drifts by tens of percent over minutes, and every wall time with it.  So
REFERENCE_CODE, a fixed program that never imports toffsim, is timed after
every set-up sample and every CLI call; each of these is divided by the mean
of the reference walls just before and just after it, and multiplied by
REFERENCE_S.  A timing is thus the one measured on a host where the reference
takes REFERENCE_S seconds.  The raw wall times and their medians are kept in
the detail line.
`--trace 1` reruns the workload with `tracer.py` wrapped around the library's
public functions and prints the per-layer metrics of PER_LAYER, which are 0
for functions the workload never calls.

An operation fails if its child exits non-zero (a failed `--check` exits 2),
if its report is malformed, or if it differs, `wall_time_seconds` aside, from
the first same-seed report of that call in the run: the seed fixes every
report.  The second-to-last stdout line is a detail record (environment,
fail_frac = failed / attempted operations, metric kinds, samples); the last
line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"

# children still running this long after the start are killed (and fail),
# so that a run ends within three minutes
RUN_BUDGET_S = 170.0
MAX_SECONDS = 120.0
SETUP_CODE = ("import toffsim.cli\n"
              "from toffsim.gadgets import default_correction_table\n"
              "default_correction_table()\n")
# A fixed program that never imports toffsim, so no change to toffsim moves
# its wall time: like toffsim it starts an interpreter, imports numpy and runs
# small-array and pure-Python loops.  Timed between the measured steps, it
# measures how fast the shared host is at that moment.
REFERENCE_CODE = """\
import numpy as np
rng = np.random.default_rng(0)
gate = np.linalg.qr(rng.standard_normal((4, 4)))[0]
state = rng.standard_normal(16)
for _ in range(10000):
    state = (gate @ state.reshape(4, 4)).reshape(16)
    state /= np.linalg.norm(state)
table = {}
for i in range(150000):
    key = (i * 7919) % 1009
    table[key] = table.get(key, 0.0) * 0.5 + i * 1e-3
"""
# the reference's wall time that timings are scaled to; it fixes the unit
# only: a round figure near the reference's time on a 2.1 GHz Xeon vCPU
REFERENCE_S = 0.3


@dataclass(frozen=True)
class Call:
    """One CLI call of a workload; `trials` is pinned, 0 where none apply."""

    command: str
    trials: int
    config: Optional[str] = None   # file under perfbench/configs

    def argv(self, seed: int, out: Path) -> List[str]:
        argv = [self.command, "--seed", str(seed), "--check", "--out", str(out)]
        if self.trials:
            argv += ["--trials", str(self.trials)]
        if self.config:
            argv += ["--config", str(HERE / "configs" / self.config)]
        return argv


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, List[Call]] = {
    "readout-effective": [Call("noisy-meas", 8000, "readout-effective.json")],
    "readout-exact": [Call("noisy-meas", 200, "readout-exact.json")],
    "protocol-mix": [Call("toffoli-verify", 20), Call("distill", 2000),
                     Call("ensemble", 200), Call("estimate", 0)],
}

# Metric kinds: count (an exact integer that repeats for a seed), ratio (of
# counts, repeats for a seed), timing and memory (vary from run to run).
END_TO_END = {  # name -> unit, kind
    "setup_s": ("s", "timing"),
    "trials_per_s": ("trials/s", "timing"),
    "peak_rss_mb": ("MB", "memory"),
}
EFF, EXACT, MIX = "readout-effective", "readout-exact", "protocol-mix"
# name -> unit, kind, and the end-to-end metric@workload it should move
PER_LAYER = {
    "kernels.target_plan.calls": ("count", "count", f"trials_per_s@{EFF}"),
    "kernels.target_plan.self_s": ("s", "timing", f"trials_per_s@{EFF}"),
    "core.states_built": ("count", "count", f"trials_per_s@{EFF}"),
    "core.measure_operator.calls": ("count", "count", f"trials_per_s@{EFF}"),
    "core.measure_operator.self_s": ("s", "timing", f"trials_per_s@{EFF}"),
    "rng.trial_rng.calls": ("count", "count", f"trials_per_s@{EFF}"),
    "rng.trial_rng.self_s": ("s", "timing", f"trials_per_s@{EFF}"),
    "noisy_meas.measure_cphase_noisy.calls": ("count", "count", f"trials_per_s@{EFF}"),
    "noisy_meas.measure_cphase_noisy.self_s": ("s", "timing", f"trials_per_s@{EFF}"),
    "noisy_meas.measure_cphase_noisy.p50_us": ("us", "timing", f"trials_per_s@{EFF}"),
    "noisy_meas.measure_cphase_noisy.p99_us": ("us", "timing", f"trials_per_s@{EFF}"),
    "kernels.apply_dense.calls": ("count", "count", f"trials_per_s@{EXACT}"),
    "kernels.apply_dense.self_s": ("s", "timing", f"trials_per_s@{EXACT}"),
    "kernels.apply_dense.madds": ("count", "count", f"trials_per_s@{EXACT} (computed)"),
    "kernels.apply_dense.bytes": ("bytes", "count", f"trials_per_s@{EXACT} (computed)"),
    "core.peak_state_dim": ("count", "count", f"peak_rss_mb@{EXACT}"),
    "core.apply_gate.self_s": ("s", "timing", "trials_per_s@any caller"),
    "core.tensor.self_s": ("s", "timing", "trials_per_s@any caller"),
    "core.discard.self_s": ("s", "timing", "trials_per_s@any caller"),
    "core.drop_qubit.self_s": ("s", "timing", "trials_per_s@any caller"),
    "core.fidelity.self_s": ("s", "timing", "trials_per_s@any caller"),
    "core.branch_probability.calls": ("count", "count", "trials_per_s@any caller"),
    "distill.distill_tree.calls": ("count", "count", f"trials_per_s@{MIX}"),
    "distill.distill_tree.self_s": ("s", "timing", f"trials_per_s@{MIX}"),
    "distill.combine_states.self_s": ("s", "timing", f"trials_per_s@{MIX}"),
    "distill.combine.attempts": ("count", "count", f"trials_per_s@{MIX}"),
    "distill.combine.success_ratio": ("ratio", "ratio", f"trials_per_s@{MIX}"),
    "error_models.ensemble_distill_fidelity.calls": ("count", "count", f"trials_per_s@{MIX}"),
    "error_models.ensemble_distill_fidelity.self_s": ("s", "timing", f"trials_per_s@{MIX}"),
    "gadgets.toffoli_gadget.calls": ("count", "count", f"trials_per_s@{MIX}"),
    "gadgets.toffoli_gadget.self_s": ("s", "timing", f"trials_per_s@{MIX}"),
    "concat.schedule.self_s": ("s", "timing", f"trials_per_s@{MIX}"),
    "noisy_meas.prepare_raw_ancilla.accept_ratio": ("ratio", "ratio",
                                                    f"trials_per_s@{EFF},{EXACT}"),
    "gadgets.derive_correction_table.self_s": ("s", "timing", "setup_s@every workload"),
    "cli.main.self_s": ("s", "timing", "trials_per_s@every workload"),
    "cli.command.self_s": ("s", "timing", "trials_per_s@every workload"),
    "trace.overhead_frac": ("ratio", "timing", "none: traced vs untraced wall time"),
}


class BenchError(RuntimeError):
    """The benchmark cannot measure (not a failed operation of toffsim)."""


# -- child processes ----------------------------------------------------------------

@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def _kill(pidfd: int):
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Children:
    """Runs children one at a time in `workdir`; each is killed at `deadline`.

    Wall time and peak RSS are measured from outside, per child.
    """

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline

    def run(self, argv: List[str]) -> Child:
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=_child_env(),
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            timer = threading.Timer(max(self.deadline - started, 0.0), _kill, (pidfd,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - started
            except BaseException:
                _kill(pidfd)
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     err_path.read_text(encoding="utf-8", errors="replace"))


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def environment(children: Children) -> dict:
    out = children.workdir / "env.json"
    child = children.run([str(TRACER), "env", str(out)])
    env = _read_json(out)
    if child.code != 0 or env is None:
        raise BenchError(f"environment probe failed: {child.stderr.strip()[-500:]}")
    if not env["toffsim_file"].startswith("src" + os.sep):
        raise BenchError(f"toffsim imported from {env['toffsim_file']}, not ./src")
    env["commit"] = _commit()
    env["source_sha256"] = _source_digest()
    return env


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over toffsim's sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    package = SRC / "toffsim"
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def interpreter_wall(children: Children, code: str) -> float:
    """Wall time of one fresh interpreter that runs `code`: SETUP_CODE, which
    imports toffsim.cli and derives the correction table, or REFERENCE_CODE."""
    child = children.run(["-c", code])
    if child.code != 0:
        raise BenchError(f"interpreter failed: {child.stderr.strip()[-500:]}")
    return child.wall_s


# -- workload iterations ------------------------------------------------------------

@dataclass
class Iteration:
    wall_s: float = 0.0
    call_wall_s: List[float] = field(default_factory=list)
    reference_units: float = 0.0   # wall time in reference runs, see Reference
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    traces: List[dict] = field(default_factory=list)


def _comparable(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "wall_time_seconds"}


class Runner:
    """Runs a workload's calls and checks each report against the first one."""

    def __init__(self, workload: str, seed: int, children: Children):
        self.calls = WORKLOADS[workload]
        self.seed = seed
        self.children = children
        self.reference: Dict[int, dict] = {}

    def _check(self, index: int, call: Call, child: Child, report) -> Optional[str]:
        where = f"{call.command} (call {index})"
        if child.code != 0:
            return f"{where}: exit {child.code}: {child.stderr.strip()[-300:]}"
        if not isinstance(report, dict) or report.get("command") != call.command \
                or report.get("seed") != self.seed:
            return f"{where}: missing or malformed report"
        if not report.get("checks") or not all(c.get("passed") for c in report["checks"]):
            return f"{where}: a check did not pass"
        if call.trials and report["parameters"].get("trials") != call.trials:
            return f"{where}: report ran {report['parameters'].get('trials')} trials"
        reference = self.reference.setdefault(index, _comparable(report))
        if _comparable(report) != reference:
            return f"{where}: report differs from the first same-seed report"
        return None

    def iteration(self, traced: bool, reference: Optional["Reference"] = None) -> Iteration:
        """One pass over the calls, each followed by a `reference` sample if given."""
        it = Iteration()
        for index, call in enumerate(self.calls):
            out = self.children.workdir / f"report{index}.json"
            trace_out = self.children.workdir / f"trace{index}.json"
            for path in (out, trace_out):
                path.unlink(missing_ok=True)
            argv = ["-m", "toffsim.cli"] + call.argv(self.seed, out)
            if traced:
                argv = [str(TRACER), "cli", str(trace_out), "--"] + argv[2:]
            child = self.children.run(argv)
            it.wall_s += child.wall_s
            it.call_wall_s.append(child.wall_s)
            if reference:
                it.reference_units += reference.units(child.wall_s)
            it.peak_rss_mb = max(it.peak_rss_mb, child.peak_rss_mb)
            it.attempted += 1
            problem = self._check(index, call, child, _read_json(out))
            if traced and problem is None:
                trace = _read_json(trace_out)
                if trace is None or trace["exit"] != 0 or trace["leftover_wrappers"]:
                    problem = f"{call.command} (call {index}): trace incomplete " \
                              f"or wrappers left bound"
                else:
                    it.traces.append(trace)
            if problem:
                it.failures.append(problem)
        return it


def _fits(started: float, seconds: float, last_s: float) -> bool:
    """Whether another pass as long as the last one ends within `seconds`, so
    that a run takes `seconds` rather than up to one pass more."""
    return time.perf_counter() - started + last_s <= seconds


class Reference:
    """Times REFERENCE_CODE after every measured step and expresses the step's
    wall time in reference runs: divided by the mean of the reference walls
    timed just before and just after it."""

    def __init__(self, children: Children):
        self.children = children
        self.walls = [interpreter_wall(children, REFERENCE_CODE)]

    def units(self, wall_s: float) -> float:
        self.walls.append(interpreter_wall(self.children, REFERENCE_CODE))
        return 2.0 * wall_s / (self.walls[-2] + self.walls[-1])


def run_iterations(runner: Runner, seconds: float):
    """Iterations that fit in `seconds`, at least two same-seed passes.

    A set-up sample precedes every iteration, after one untimed warm-up, so
    that set-up and iterations see the same stretch of machine load.
    """
    iterations: List[Iteration] = []
    setup_walls: List[float] = []
    setup_units: List[float] = []
    children = runner.children
    interpreter_wall(children, SETUP_CODE)
    reference = Reference(children)
    started = last = time.perf_counter()
    while len(iterations) < 2 or _fits(started, seconds, time.perf_counter() - last):
        last = time.perf_counter()
        setup_walls.append(interpreter_wall(children, SETUP_CODE))
        setup_units.append(reference.units(setup_walls[-1]))
        iterations.append(runner.iteration(traced=False, reference=reference))
    return iterations, setup_walls, setup_units, reference.walls


# -- per-layer reduction -------------------------------------------------------------

def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when the function never ran."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def layer_values(traces: List[dict], setup_trace: dict) -> Dict[str, float]:
    """Per-layer metric values of one traced iteration (all its CLI calls)."""
    layers: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, int] = {}
    durations: List[float] = []
    for trace in traces:
        for name, entry in trace["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
        for name, value in trace["counters"].items():
            if name == "core.peak_state_dim":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        durations += trace["durations"]["noisy_meas.measure_cphase_noisy"]
    layers["gadgets.derive_correction_table"] = \
        setup_trace["layers"]["gadgets.derive_correction_table"]

    def ratio(num, den):
        return counters[num] / counters[den] if counters[den] else 0.0

    values: Dict[str, float] = {}
    for metric in PER_LAYER:
        prefix, _, last = metric.rpartition(".")
        if last in ("calls", "self_s"):
            values[metric] = layers.get(prefix, {"calls": 0, "self_s": 0.0})[last]
        elif metric in counters:
            values[metric] = counters[metric]
    cphase = [d * 1e6 for d in durations]
    values["noisy_meas.measure_cphase_noisy.p50_us"] = _percentile(cphase, 50)
    values["noisy_meas.measure_cphase_noisy.p99_us"] = _percentile(cphase, 99)
    values["distill.combine.success_ratio"] = ratio("distill.combine.successes",
                                                    "distill.combine.attempts")
    values["noisy_meas.prepare_raw_ancilla.accept_ratio"] = ratio(
        "noisy_meas.prepare_raw_ancilla.accepted", "noisy_meas.prepare_raw_ancilla.attempts")
    return values


def traced_setup(children: Children) -> dict:
    out = children.workdir / "setup-trace.json"
    out.unlink(missing_ok=True)
    child = children.run([str(TRACER), "setup", str(out)])
    trace = _read_json(out)
    if child.code != 0 or trace is None or trace["leftover_wrappers"]:
        raise BenchError(f"traced setup failed: {child.stderr.strip()[-500:]}")
    return trace


def run_traced(runner: Runner, seconds: float):
    """Rounds of (traced setup, plain iteration, traced iteration) that fit in
    `seconds`, at least one; the plain ones time the tracing overhead."""
    plain: List[Iteration] = []
    traced: List[Iteration] = []
    setup_traces: List[dict] = []
    started = last = time.perf_counter()
    while not traced or _fits(started, seconds, time.perf_counter() - last):
        last = time.perf_counter()
        setup_traces.append(traced_setup(runner.children))
        plain.append(runner.iteration(traced=False))
        traced.append(runner.iteration(traced=True))
    return plain, traced, setup_traces


def per_layer(plain: List[Iteration], traced: List[Iteration],
              setup_traces: List[dict]) -> Dict[str, float]:
    """Medians of timings; counts and ratios must repeat in every iteration."""
    samples = [layer_values(it.traces, setup) for it, setup in zip(traced, setup_traces)
               if not it.failures]
    if not samples:
        raise BenchError("no traced iteration completed")
    values, unsteady = {}, []
    for metric, (_, kind, _) in PER_LAYER.items():
        if metric == "trace.overhead_frac":
            continue
        column = [s[metric] for s in samples]
        if kind == "timing":
            values[metric] = statistics.median(column)
        else:
            if len(set(column)) != 1:
                unsteady.append(metric)
            values[metric] = column[0]
    if unsteady:
        traced[-1].failures.append(f"counts differ between same-seed traced runs: {unsteady}")
    values["trace.overhead_frac"] = (statistics.median(it.wall_s for it in traced)
                                     / statistics.median(it.wall_s for it in plain) - 1.0)
    return values


# -- entry point ------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    return args


def measure(args, children: Children):
    env = environment(children)
    runner = Runner(args.workload, args.seed, children)
    trials = sum(call.trials for call in runner.calls)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "trials_per_iteration": trials}
    if args.trace:
        plain, traced, setup_traces = run_traced(runner, args.seconds)
        values = per_layer(plain, traced, setup_traces)
        catalog = PER_LAYER
        iterations = plain + traced
        detail["metric_moves"] = {name: spec[2] for name, spec in PER_LAYER.items()}
    else:
        iterations, setup_walls, setup_units, reference_walls = \
            run_iterations(runner, args.seconds)
        values = {
            "setup_s": statistics.median(setup_units) * REFERENCE_S,
            "trials_per_s": statistics.median(trials / it.reference_units
                                              for it in iterations) / REFERENCE_S,
            "peak_rss_mb": statistics.median(it.peak_rss_mb for it in iterations),
        }
        catalog = END_TO_END
        detail["setup_wall_s"] = setup_walls
        detail["setup_wall_s_median"] = statistics.median(setup_walls)
        detail["call_wall_s"] = [it.call_wall_s for it in iterations]
        detail["reference_wall_s"] = reference_walls
        detail["trials_per_wall_s"] = statistics.median(trials / it.wall_s
                                                        for it in iterations)
    attempted = sum(it.attempted for it in iterations)
    failures = [f for it in iterations for f in it.failures]
    detail.update({
        "iterations": len(iterations),
        "fail_frac": {"value": len(failures) / attempted, "unit": "ratio"},
        "failures": failures,
        "metric_kinds": {name: spec[1] for name, spec in catalog.items()},
    })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": spec[0]}
                    for name, spec in catalog.items()},
    }
    return detail, result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "toffsim" / "__init__.py").is_file():
        print(f"perfbench: no toffsim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 1
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            detail, result = measure(args, Children(Path(tmp), deadline))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
