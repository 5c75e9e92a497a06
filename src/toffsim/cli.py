"""Command-line experiment harness.

Every subcommand is a thin orchestration over the library: it resolves a
configuration (built-in defaults, then an optional JSON config file, then
flags), runs seeded trials, and emits a machine-readable report.  Sampling
reads counter-based Philox substreams, and a run is reproducible bit for bit
from its seed.  Trial t of toffoli-verify, distill, noisy-meas and the
decoherent and two_point ensembles reads its own substream (seed, t), so its
results do not depend on evaluation order.  Only the gaussian ensemble
draws every trial's tangents from the one substream (seed, 0), in blocks of
`error_models.LOG_TAN_CHUNK` (8192) trials.  Trials run serially in trial
order; toffoli-verify, distill, noisy-meas and the ensembles compute them
in blocks of at most `commands._TRIAL_CHUNK` trials
(`commands._EFFECTIVE_CHUNK` for effective noisy-meas, `LOG_TAN_CHUNK` for
the unitary ensemble), and tests check that every report but the gaussian
ensemble's does not depend on the block size.  No worker
pool exists: those tests are the only evidence that one handing out blocks
of trials would reproduce the reports.

Reports are JSON by default (schema `toffsim-report/1`, keys sorted, one
wall_time_seconds field that reproducibility comparisons must ignore) or
CSV for the plot-ready trial tables, whose rows stream through a temporary
file rather than memory.  A JSON report keeps no per-trial rows, so its
command builds none.  Exit codes: 0 success, 1 for configuration problems,
2 when --check is passed and a built-in verification fails.  Column layouts
are documented in docs/output-schema.md.

Each call runs one subcommand in a fresh interpreter, where loading numpy
and compiling the library's modules costs about as much as a small run.  So
this module holds the config table, the parser and the report, and imports
only the standard library and the numpy-free `toffsim` and
`toffsim.commands`.  Each subcommand's body is a module of
`toffsim.commands`, imported on its first call, which imports what it runs;
`estimate` runs without numpy, and `versions.numpy` is read from numpy's
version file.  A noisy-meas process loads the readout's own modules
(`channels`, `ancilla`, `noisy_meas`, `rng`, `core`) and no `numpy.random`;
neither does a toffoli-verify process, which draws its inputs and the truth
table's outcomes through `rng.trial_uniforms`, nor a distill process, whose
trees `distill.sample_trees` draws through `rng.ragged_uniforms`, nor a
decoherent or two_point ensemble, whose defect or sign counts come from
`rng.trial_uniforms`.

The installed `toffsim` command and `python -m toffsim.cli` run one process
entry point, `process_main`, which makes three settings around `main` that
only the owner of a process may make; `process_main`'s docstring times them.
`main` makes none of them, so an in-process caller keeps numpy's default
threads, its environment and a collector that can clear its heap.
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
from .commands import _BRANCHES

SCHEMA = "toffsim-report/1"


# -- config table ----------------------------------------------------------------

# Every config field of every subcommand as (kind, default, limits), where
# limits are (low, high) for a number, the strings a choice takes, or None.
# docs/output-schema.md, "Configuration", states the kinds' rules; a field
# whose default is None also takes null, which its command resolves.
_FIELDS = {
    # the trial caps: distill's 10^6 trials about 7 s at its defaults,
    # toffoli-verify's 10^4 trials about 0.3 s (2-vCPU host)
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
        "defect_fraction": ("float", None, None),  # None: 0.02 decoherent, 0.0 unitary
        "defect_p": ("float", 0.9, None),
        "distribution": ("choice", "gaussian", ("gaussian", "two_point")),
        "trials": ("int", 200, (2, None)),
        # bounds the gaussian series only, which takes a 200,001-point
        # quadrature (~10 ms) a term, and runs to k_max when p is 0
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
    "estimate": _loaded_on_call("estimate"),
}


# -- entry point --------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 (config error), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    # the flags every subcommand takes, added once and shared through `parents`
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--trials", type=int, default=None, help="override the trial count")
    common.add_argument("--out", metavar="PATH", help="write the report here (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--check", action="store_true",
                        help="exit 2 unless all built-in verifications pass")
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
        p = sub.add_parser(name, help=help_text, parents=[common])
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

    It makes three settings (timings on a 2-vCPU host):
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
