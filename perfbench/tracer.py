"""Span tracing of toffsim from outside the library.

`Tracer` wraps a fixed list of public toffsim functions by rebinding every
toffsim module attribute (and the CLI's command table) that holds them, and
counts `QuantumState` constructions by patching the class's `__init__`.
Spans (name, start, end, parent) stay in memory until the traced call ends;
`Tracer.summary()` then turns them into per-layer calls, self times and
counters.  A layer's self time is its span's duration minus the time covered
by its direct children, so the self times of one root span sum to its
duration.

Run as a script, this file is the child-process side of `run.py`:

    python3 perfbench/tracer.py env OUT.json
    python3 perfbench/tracer.py setup OUT.json
    python3 perfbench/tracer.py cli OUT.json -- noisy-meas --seed 1 --check ...

`env` records the environment; `setup` traces the first-use derivation of the
correction table; `cli` traces one `toffsim.cli.main` call.  `toffsim` must be
importable (PYTHONPATH=src from the repository root).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# metric prefix -> the (module, attribute) pairs whose function it times
TRACED = {
    "kernels.target_plan": [("toffsim._kernels", "target_plan")],
    "kernels.apply_dense": [("toffsim._kernels", "apply_dense")],
    "core.apply_gate": [("toffsim.core", "apply_gate")],
    "core.measure_operator": [("toffsim.core", "measure_operator")],
    "core.branch_probability": [("toffsim.core", "branch_probability")],
    "core.tensor": [("toffsim.core", "tensor")],
    "core.discard": [("toffsim.core", "discard")],
    "core.drop_qubit": [("toffsim.core", "drop_qubit")],
    "core.fidelity": [("toffsim.core", "fidelity")],
    "rng.trial_rng": [("toffsim.rng", "trial_rng")],
    "noisy_meas.measure_cphase_noisy": [("toffsim.noisy_meas", "measure_cphase_noisy")],
    "noisy_meas.prepare_raw_ancilla": [("toffsim.noisy_meas", "prepare_raw_ancilla")],
    "distill.distill_tree": [("toffsim.distill", "distill_tree")],
    "distill.combine_states": [("toffsim.distill", "combine_states")],
    "error_models.ensemble_distill_fidelity": [
        ("toffsim.error_models", "ensemble_distill_fidelity")],
    "gadgets.toffoli_gadget": [("toffsim.gadgets", "toffoli_gadget")],
    "gadgets.derive_correction_table": [("toffsim.gadgets", "derive_correction_table")],
    "concat.schedule": [("toffsim.concat", "progressive_schedule"),
                        ("toffsim.concat", "standard_concat_levels")],
    "cli.main": [("toffsim.cli", "main")],
}
# the CLI's per-subcommand bodies, held in `toffsim.cli._COMMANDS`; timing them
# leaves config resolution and report rendering as the self time of cli.main
COMMAND_SPAN = "cli.command"
# names whose inclusive per-call durations are kept for percentiles
KEEP_DURATIONS = ("noisy_meas.measure_cphase_noisy",)

# counters filled from arguments or return values of traced calls
COUNTERS = (
    "core.states_built",
    "core.peak_state_dim",
    "kernels.apply_dense.madds",
    "kernels.apply_dense.bytes",
    "distill.combine.attempts",
    "distill.combine.successes",
    "noisy_meas.prepare_raw_ancilla.accepted",
    "noisy_meas.prepare_raw_ancilla.attempts",
)

_AMPLITUDE_BYTES = 16  # complex128
_INDEX_BYTES = 8       # intp


def _apply_dense_work(counters, args):
    """Computed work of `apply_dense(vec, u, base, offs)`.

    The kernel gathers len(base) x len(offs) amplitudes, multiplies each row
    of len(offs) by the len(offs)-square matrix, and scatters them back:
    len(base) * len(offs)^2 multiply-adds; bytes count the gather read, the
    scatter write and the index table, ignoring caches.
    """
    rows, k = len(args[2]), len(args[3])
    counters["kernels.apply_dense.madds"] += rows * k * k
    counters["kernels.apply_dense.bytes"] += rows * k * (2 * _AMPLITUDE_BYTES + _INDEX_BYTES)


def _distill_outcome(counters, result):
    counters["distill.combine.attempts"] += result.combine_attempts
    counters["distill.combine.successes"] += result.combine_successes


def _raw_preparation(counters, result):
    counters["noisy_meas.prepare_raw_ancilla.accepted"] += 1
    counters["noisy_meas.prepare_raw_ancilla.attempts"] += result.attempts


_BEFORE = {"kernels.apply_dense": _apply_dense_work}
_AFTER = {"distill.distill_tree": _distill_outcome,
          "noisy_meas.prepare_raw_ancilla": _raw_preparation}


def _toffsim_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "toffsim" or name.startswith("toffsim."))]


class Tracer:
    """Records spans of the TRACED functions while installed.

    Use as a context manager; on exit every rebinding is undone.  Single
    threaded: spans nest through one stack.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._undo = []          # (container, key, original, is_mapping)
        self._wrappers = {}      # id(original) -> wrapper

    # -- installation --------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        before, after = _BEFORE.get(name), _AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if before is not None:
                before(counters, args)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counters, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _count_states(self, init):
        counters = self.counters

        @functools.wraps(init)
        def counting_init(state, *args, **kwargs):
            init(state, *args, **kwargs)
            counters["core.states_built"] += 1
            if state.dim > counters["core.peak_state_dim"]:
                counters["core.peak_state_dim"] = state.dim

        counting_init.__perfbench_original__ = init
        return counting_init

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, targets in TRACED.items():
            for module_name, attr in targets:
                fn = getattr(importlib.import_module(module_name), attr)
                self._wrappers.setdefault(id(fn), (fn, self._wrap(name, fn)))
        modules = _toffsim_modules()
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._undo.append((module, attr, value, False))
                    setattr(module, attr, entry[1])
        commands = sys.modules["toffsim.cli"]._COMMANDS
        for key, fn in list(commands.items()):
            self._undo.append((commands, key, fn, True))
            commands[key] = self._wrap(COMMAND_SPAN, fn)
        state_cls = sys.modules["toffsim.core"].QuantumState
        init = state_cls.__dict__["__init__"]
        self._undo.append((state_cls, "__init__", init, False))
        state_cls.__init__ = self._count_states(init)

    def restore(self):
        for container, key, original, is_mapping in reversed(self._undo):
            if is_mapping:
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reduction -----------------------------------------------------------

    def summary(self):
        """Per-name calls and self seconds, kept durations, and counters."""
        selfs = self_times(self.spans)
        layers = {}
        durations = {name: [] for name in KEEP_DURATIONS}
        for (name, start, end, _), own in zip(self.spans, selfs):
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            if name in durations:
                durations[name].append(end - start)
        return {"layers": layers, "durations": durations,
                "counters": dict(self.counters)}


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def leftover_wrappers():
    """Names of toffsim attributes still bound to a tracer wrapper."""
    found = []
    for module in _toffsim_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{module.__name__}.{attr}")
    cli = sys.modules.get("toffsim.cli")
    if cli is not None:
        found += [f"toffsim.cli._COMMANDS[{key!r}]"
                  for key, fn in cli._COMMANDS.items()
                  if hasattr(fn, "__perfbench_original__")]
    core = sys.modules.get("toffsim.core")
    if core is not None and hasattr(core.QuantumState.__init__, "__perfbench_original__"):
        found.append("toffsim.core.QuantumState.__init__")
    return found


# -- child-process entry points ---------------------------------------------------

def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment():
    import platform

    import numpy as np

    import toffsim

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "kernel_backend": toffsim.kernel_backend,
        "toffsim_file": os.path.relpath(toffsim.__file__),
    }


def _traced_setup():
    import toffsim.cli  # noqa: F401  (the CLI's import graph, as setup_s times it)
    from toffsim import gadgets

    with Tracer() as tracer:
        gadgets.default_correction_table()
    return tracer, 0


def _traced_cli(argv):
    import toffsim.cli

    with Tracer() as tracer:
        code = toffsim.cli.main(argv)
    return tracer, code


def child_main(argv):
    mode, out = argv[0], argv[1]
    if mode == "env":
        payload = environment()
    else:
        if mode == "setup":
            tracer, code = _traced_setup()
        elif mode == "cli" and argv[2] == "--":
            tracer, code = _traced_cli(argv[3:])
        else:
            raise SystemExit(f"usage: tracer.py env|setup|cli OUT [-- ARGV...], got {argv}")
        payload = tracer.summary()
        payload["exit"] = code
        payload["leftover_wrappers"] = leftover_wrappers()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
