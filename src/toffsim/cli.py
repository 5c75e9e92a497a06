"""Command-line experiment harness.

Every subcommand is a thin orchestration over the library: it resolves a
configuration (built-in defaults, then an optional JSON config file, then
flags), runs seeded trials, and emits a machine-readable report.  Sampling
reads counter-based Philox substreams, and a run is reproducible bit for bit
from its seed.  Trial t of toffoli-verify, distill, noisy-meas and the
decoherent ensemble reads its own substream (seed, t), so its results do not
depend on evaluation order.  The unitary ensemble instead draws every
trial's tangents from the one substream (seed, 0), in blocks of
`error_models.LOG_TAN_CHUNK` (8192) trials.  Trials run serially in trial
order; noisy-meas, in either mode
and under either error model, samples them in blocks of
`commands._TRIAL_CHUNK`, and tests check that its reports do not depend on
the block size.  No worker pool exists: those tests are the only evidence
that one handing out blocks of trials would reproduce the reports.

Reports are JSON by default (schema `toffsim-report/1`, keys sorted, one
wall_time_seconds field that reproducibility comparisons must ignore) or
CSV for the plot-ready trial tables, whose rows stream through a temporary
file rather than memory.  A JSON report keeps no per-trial rows, so its
command builds none.  Exit codes: 0 success, 1 for configuration problems,
2 when --check is passed and a built-in verification fails.  Column layouts
are documented in docs/output-schema.md.

Each call runs one subcommand in a fresh interpreter, where loading numpy
and compiling the library's modules costs about as much as a small run.  So
this module imports only the standard library, the numpy-free package
constants and the shared pieces of `toffsim.commands` at its top.  The body
of `estimate` is here; each of the other four is a module of
`toffsim.commands`, imported on its subcommand's first call, so a process
compiles only the body it runs, and each body imports what it runs inside
itself.  `estimate` runs without numpy, and the report's `versions.numpy` is
read from numpy's version file, not from an imported numpy.  noisy-meas
samples its trials and its raw preparation through `rng.trial_uniforms`
alone, so a readout process loads no `numpy.random` (nor the `secrets` and
OpenSSL modules it pulls in).

The installed `toffsim` command and `python -m toffsim.cli` run one process
entry point, `process_main`, which makes three settings around `main` that
only the owner of a process may make (timings on a 2-vCPU host):
- `OPENBLAS_NUM_THREADS` defaults to 1, before numpy loads.  numpy's bundled
  OpenBLAS otherwise starts a helper thread per extra core at import, which
  spins for about 60 ms of CPU; `import numpy` took 234 ms wall, and 167 ms
  without it.  No toffsim call is large enough to hand that thread work.  A
  value set in the environment wins.
- The cyclic collector is off for the run.  A readout run otherwise made 34
  collections over the import-time heap, about 5 ms, and a run leaves the
  same cyclic garbage (the parser's graph) whatever its trial count.
- Once `main` has returned, `gc.freeze()` spares the heap from the final
  collection that finalization runs even with the collector off: teardown
  took 21 ms from the return of `main` to the process's exit (readout-exact;
  24 ms for distill), and 5 ms frozen (7 ms for distill).
`main` itself makes none of them, so an in-process caller keeps numpy's
default threads, its environment and a collector that can clear its heap.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.machinery
import io
import json
import math
import os
import shutil
import sys
import tempfile
import time
import types
from typing import Optional, Sequence

from . import __version__, kernel_backend
# the work limits live in `commands`; the two of noisy-meas are re-exported here
from .commands import _BRANCHES, _MAX_CAT_BITS, _MAX_TRIAL_BITS, _Check  # noqa: F401

SCHEMA = "toffsim-report/1"


# -- config table ----------------------------------------------------------------

# Every config field of every subcommand as (kind, default, limits), where
# limits are (low, high) for a number, the strings a choice takes, or None.
# docs/output-schema.md, "Configuration", states the kinds' rules; a field
# whose default is None also takes null, which its command resolves.
_FIELDS = {
    # the trial caps: distill's about a minute at its defaults, toffoli-verify's
    # 10^4 trials about 3 s (2-vCPU host)
    "toffoli-verify": {
        "trials": ("int", 20, (1, 10**4)),
        "tolerance": ("float", 1e-10, (0, None)),
        "corrupt_branch": ("branch", None, None),  # None: no branch corrupted
    },
    "distill": {
        "alpha3": ("float", 0.5, None),
        "levels": ("int", 3, (0, None)),
        "trials": ("int", 2000, (1, 10**6)),
    },
    "noisy-meas": {
        "n": ("int", 8, None),
        "model": ("choice", "decoherent", ("decoherent", "unitary")),
        "mode": ("choice", "effective", ("effective", "exact")),
        "p": ("float", 0.05, None),
        "q": ("float", 0.0, None),
        "ratio": ("float", 0.05, None),
        "trials": ("int", None, (1, None)),  # None: 20000 effective, 2000 exact
    },
    "ensemble": {
        "n": ("int", 50, None),
        "levels": ("int", 6, (0, None)),
        "model": ("choice", "decoherent", ("decoherent", "unitary")),
        "p": ("float", 0.01, None),
        "q": ("float", 0.0, None),
        "defect_fraction": ("float", None, None),  # None: 0.02 decoherent, 0.0 unitary
        "defect_p": ("float", 0.9, None),
        "distribution": ("choice", "gaussian", ("gaussian", "two_point")),
        "trials": ("int", 200, (1, None)),
        # the gaussian series takes a 200,001-point quadrature (~10 ms) a term,
        # and runs to k_max when p is 0
        "k_max": ("int", 400, (0, 1000)),
    },
    "estimate": {
        "targets": ("float list", [-9.0, -100.0], None),
        "physical_error_log10": ("float", -3.0, None),
        "gate_penalty": ("float", 2.0, None),
        "first_block": ("int", 1000, None),
        "block_size": ("int", 1000, None),
        "threshold_log10": ("float", -2.0, None),
        "scaling_exponent": ("float", None, None),  # None: the library default
        "prefactor_log10": ("float", 0.0, None),
        "strategies": ("choice list", ["progressive", "standard"],
                       ("progressive", "standard")),
    },
}


def _resolve_config(command: str, args) -> dict:
    """Each field of `command` from default, config file and flags, checked once."""
    fields = _FIELDS[command]
    raw = {name: default for name, (_, default, _) in fields.items()}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - set(raw)
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
        raw.update(loaded)
    if args.trials is not None:
        if "trials" not in raw:
            raise ValueError(f"{command} takes no --trials")
        raw["trials"] = args.trials
    if getattr(args, "corrupt_branch", None) is not None:
        raw["corrupt_branch"] = args.corrupt_branch
    return {name: None if raw[name] is None and default is None
            else _field(name, raw[name], kind, limits)
            for name, (kind, default, limits) in fields.items()}


def _field(name: str, value, kind: str, limits):
    """Config field `name` as its table kind, within its limits; else a ValueError."""
    if kind in ("int", "float"):
        number = _scalar(name, value, kind)
        low, high = limits or (None, None)
        if low is not None and number < low:
            raise ValueError(f"{name} must be >= {low}, got {number!r}")
        if high is not None and number > high:
            raise ValueError(f"{name} must be <= {high}, got {number!r}")
        return number
    if kind == "choice":
        if isinstance(value, str) and value in limits:
            return value
        raise ValueError(f"{name} must be one of {', '.join(limits)}, got {value!r}")
    if kind == "branch":
        try:
            outcomes = (value.split(",") if isinstance(value, str)
                        else [_scalar(name, m, "int") for m in value])
            branch = ",".join(str(int(m)) for m in outcomes)
        except (TypeError, ValueError):  # not iterable, or not integers
            branch = None
        if branch in _BRANCHES:
            return branch
        raise ValueError(f"{name} must be three comma-separated +1/-1 values, "
                         f"got {value!r}")
    if not isinstance(value, list) or not value:
        raise ValueError(f"{name} must be a non-empty list, got {value!r}")
    item_kind = kind.split()[0]
    return [_field(name, item, item_kind, limits) for item in value]


def _scalar(name: str, value, kind: str):
    """A JSON number as an "int" or a "float"; anything else is a ValueError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind == "int" and (isinstance(value, int) or value.is_integer()):
            return int(value)
        # refuses NaN, the infinities and ints too large to convert
        if kind == "float" and abs(value) <= sys.float_info.max:
            return float(value)
    what = "an integer" if kind == "int" else "a finite number"
    raise ValueError(f"{name} must be {what}, got {value!r}")


# -- subcommands -------------------------------------------------------------------

def _cmd_estimate(cfg: dict, seed: int, rows):
    from .concat import CodeParams, progressive_schedule, standard_concat_levels

    del seed  # deterministic command; seed is echoed in the report envelope
    params_kwargs = {key: cfg[key] for key in ("threshold_log10", "prefactor_log10")}
    if cfg["scaling_exponent"] is not None:
        params_kwargs["scaling_exponent"] = cfg["scaling_exponent"]
    params = CodeParams(**params_kwargs)

    out_targets = []
    for target in cfg["targets"]:
        entry = {"target_log10": target}
        for strategy in cfg["strategies"]:
            fn = progressive_schedule if strategy == "progressive" else standard_concat_levels
            kwargs = dict(params=params, physical_error_log10=cfg["physical_error_log10"],
                          gate_penalty=cfg["gate_penalty"])
            if strategy == "progressive":
                kwargs["first_block"] = cfg["first_block"]
            else:
                kwargs["block_size"] = cfg["block_size"]
            try:
                schedule = fn(target, **kwargs)
            except ValueError as exc:
                entry[strategy] = {"error": str(exc)}
                continue
            entry[strategy] = {
                "depth": schedule.depth,
                "achieved": schedule.achieved,
                "levels": [
                    {"level": lv.level, "block_size": lv.block_size,
                     "failure_log10": lv.failure_log10,
                     "gate_failure_log10": lv.gate_failure_log10}
                    for lv in schedule.levels
                ],
            }
            if rows is not None:
                rows.extend((strategy, target, lv.level, lv.block_size,
                             lv.failure_log10, lv.gate_failure_log10)
                            for lv in schedule.levels)
        out_targets.append(entry)

    results = {"targets": out_targets}
    checks = _Check()
    prog_by_target = {e["target_log10"]: e.get("progressive") for e in out_targets}
    one = prog_by_target.get(-9.0)
    if one and "error" not in one:
        exp1 = one["levels"][0]["failure_log10"]
        checks.add("single-level exponent", one["depth"] == 1 and -10.0 <= exp1 <= -8.0,
                   f"depth {one['depth']}, exponent {exp1!r}")
    two = prog_by_target.get(-100.0)
    if two and "error" not in two:
        expf = two["levels"][-1]["failure_log10"]
        checks.add("two-level exponent", two["depth"] == 2 and -850.0 <= expf <= -810.0,
                   f"depth {two['depth']}, exponent {expf!r}")
    return results, ("strategy", "target_log10", "level", "block_size",
                     "failure_log10", "gate_failure_log10"), checks


def _loaded_on_call(module: str):
    """The `run` of command module `toffsim.commands.<module>`, which is
    imported on the first call, not before."""
    def command(cfg: dict, seed: int, rows):
        return importlib.import_module(f"{__package__}.commands.{module}").run(cfg, seed, rows)

    return command


# each subcommand's body as a callable (cfg, seed, rows) -> (results, CSV
# header, checks); rows is None when the report keeps none
_COMMANDS = {
    "toffoli-verify": _loaded_on_call("toffoli_verify"),
    "distill": _loaded_on_call("distill"),
    "noisy-meas": _loaded_on_call("noisy_meas"),
    "ensemble": _loaded_on_call("ensemble"),
    "estimate": _cmd_estimate,
}


# -- entry point --------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 (config error), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="toffsim",
                     description="Seeded experiments on measurement-based Toffoli "
                                 "gates, ancilla purification, and noisy parity "
                                 "readout.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text in (
        ("toffoli-verify", "branch-complete gadget equivalence against a direct Toffoli"),
        ("distill", "pair-ancilla purification trees, closed forms vs sampling"),
        ("noisy-meas", "noisy cat-block parity measurement statistics"),
        ("ensemble", "block-ensemble fidelity or log-tangent statistics"),
        ("estimate", "log-space concatenation schedules"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--trials", type=int, default=None,
                       help="override the trial count")
        p.add_argument("--out", metavar="PATH", help="write the report here "
                                                     "(default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--check", action="store_true",
                       help="exit 2 unless all built-in verifications pass")
        if name == "toffoli-verify":
            p.add_argument("--corrupt-branch", metavar="M1,M2,M3", default=None,
                           help="negative control: corrupt this branch's correction")
    return parser


def _numpy_version() -> str:
    """numpy's `__version__`, read without importing numpy where possible.

    numpy's `__init__` takes `__version__` from its `version.py`, which is
    found by path and executed here; the path finder looks past a blocked or
    absent `sys.modules` entry.  numpy is imported only if that file cannot
    be read.
    """
    spec = importlib.machinery.PathFinder.find_spec("numpy")
    if spec is not None and spec.origin is not None:
        namespace: dict = {}
        try:
            with open(os.path.join(os.path.dirname(spec.origin), "version.py"),
                      encoding="utf-8") as fh:
                exec(fh.read(), namespace)
            return namespace["__version__"]
        # no such file, or one that imports from numpy's own modules
        except (OSError, ImportError, KeyError):
            pass
    import numpy

    return numpy.__version__


def _finite_or_null(value):
    """`value` with every NaN or infinite float in it as None, which JSON
    writes as null: RFC 8259 has no token for them."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # checked here, for every subcommand, before a command module or numpy loads
    if not 0 <= args.seed < 2**64:
        print(f"toffsim: error: seed must lie in [0, 2**64), got {args.seed}",
              file=sys.stderr)
        return 1

    # a JSON report keeps no per-trial rows, so the command gets no sink and
    # builds none.  A CSV report's rows go through csv.writer into an unnamed
    # temporary file, which is copied out behind the header once the run is done.
    rows, spool = None, io.StringIO()
    if args.format == "csv":
        import csv

        spool = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
        writer = csv.writer(spool, lineterminator="\n")
        rows = types.SimpleNamespace(append=writer.writerow, extend=writer.writerows)
    with spool:
        try:
            cfg = _resolve_config(args.command, args)
            started = time.perf_counter()
            results, header, checks = _COMMANDS[args.command](cfg, args.seed, rows)
            elapsed = time.perf_counter() - started
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"toffsim: error: {exc}", file=sys.stderr)
            return 1

        if args.format == "csv":
            text = ",".join(header) + "\n"  # plain names, which csv.writer leaves unquoted
        else:
            report = {
                "schema": SCHEMA,
                "command": args.command,
                "seed": args.seed,
                "parameters": cfg,
                "results": _finite_or_null(results),
                "checks": checks.items,
                "versions": {
                    "toffsim": __version__,
                    "numpy": _numpy_version(),
                    "kernel_backend": kernel_backend,
                },
                "wall_time_seconds": elapsed,
            }
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        spool.seek(0)
        try:
            with (open(args.out, "w", encoding="utf-8", newline="") if args.out
                  else contextlib.nullcontext(sys.stdout)) as fh:
                fh.write(text)
                shutil.copyfileobj(spool, fh)
        except OSError as exc:
            print(f"toffsim: error: cannot write the report: {exc}", file=sys.stderr)
            return 1

    if args.check and not checks.all_passed:
        for item in checks.items:
            if not item["passed"]:
                print(f"toffsim: check failed: {item['name']}: {item['detail']}",
                      file=sys.stderr)
        return 2
    return 0


def process_main() -> int:
    """`main` on the process's own argv, for a process that exits with its status.

    It makes the three settings that the module docstring times (2-vCPU host):
    - `OPENBLAS_NUM_THREADS` defaults to 1 before numpy loads, so OpenBLAS
      starts no idle helper thread: `import numpy` 234 -> 167 ms.  A value
      already set in the environment is kept.
    - The collector is off for the run, which spares a readout run 34 passes
      (~5 ms); a run's cyclic garbage does not grow with its trials.
    - Once the report is written, `gc.freeze()` keeps the collection that
      finalization runs anyway off the import-time heap: teardown 21 -> 5 ms.
      stdout is still flushed, and atexit handlers still run, at finalization.
    `main` makes none of them, so an in-process caller keeps numpy's default
    threads, its environment and its collector.
    """
    import gc  # here, not at the top: an importer of this module never needs it

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process_main())
