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
the unitary ensemble), and tests check that no report depends on the block
size.  No worker pool exists: those tests are the only evidence that one
handing out blocks of trials would reproduce the reports.

Reports are JSON by default (schema `toffsim-report/1`, keys sorted, one
wall_time_seconds field that reproducibility comparisons must ignore) or
CSV for the plot-ready trial tables, whose rows stream through a temporary
file rather than memory.  A JSON report keeps no per-trial rows, so its
command builds none.  Exit codes: 0 success, 1 for configuration problems,
2 when --check is passed and a built-in verification fails.  Column layouts
are documented in docs/output-schema.md.

Each call runs one subcommand in a fresh interpreter, where loading numpy
and compiling the library's modules costs about as much as a small run.  So
this module holds the config table, the flag table with the parser that
reads it, and the report, and imports only the standard library and the
numpy-free `toffsim` and `toffsim.commands`.  The parser is its own:
importing the standard library's, which loads gettext, and building its
seven parsers took about 4.5 ms a call (2-vCPU host, no cached bytecode),
where compiling and running `_parse_args` takes about 1.5 ms.  It reads a
command line as that parser did, which a test checks.  Each subcommand's body
is a module of `toffsim.commands`, imported on its first call, which imports
what it runs; `estimate` runs without numpy, and `versions.numpy` is read
from numpy's version file.  A noisy-meas process loads the readout's own
modules (`channels`, `ancilla`, `noisy_meas`, `rng`, `core`) and no
`numpy.random`; neither does a toffoli-verify process, which draws its
inputs and the truth table's outcomes through `rng.trial_uniforms`, nor a
distill process, whose trees `distill.sample_trees` draws through
`rng.ragged_uniforms`, nor a decoherent or two_point ensemble, whose defect
or sign counts come from `rng.trial_uniforms`.

The installed `toffsim` command and `python -m toffsim.cli` run one process
entry point, `process_main`, which makes three settings around `main` that
only the owner of a process may make; `process_main`'s docstring times them.
`main` makes none of them, so an in-process caller keeps numpy's default
threads, its environment and a collector that can clear its heap.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import io
import json
import math
import os
import re
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


# -- command line -------------------------------------------------------------------

# The command line keeps the grammar of the standard library's argument
# parser: the subcommand comes first and its flags after it; a flag takes its
# value as the next token or after "=", and may be shortened to a unique
# prefix; the last of a repeated flag wins; no token after "--" is a flag.  A
# usage error writes the usage line and one error line to stderr and exits
# 1; -h/--help writes the help to stdout and exits 0.  The usage, the help
# and the errors are all written from _FLAGS.

# Every flag as (metavar, kind, default, help).  A kind is "text", "int",
# "switch" (a flag that takes no value) or the tuple of values a flag takes,
# whose metavar is written from it.  Every subcommand takes every flag but
# the last, which sets toffoli-verify's config field corrupt_branch.
_FLAGS = {
    "--config": ("PATH", "text", None, "JSON config file"),
    "--seed": ("SEED", "int", 0, "master seed (default 0)"),
    "--trials": ("TRIALS", "int", None, "override the trial count"),
    "--out": ("PATH", "text", None, "write the report here (default stdout)"),
    "--format": (None, ("json", "csv"), "json", None),
    "--check": (None, "switch", False, "exit 2 unless all built-in verifications pass"),
    "--corrupt-branch": ("M1,M2,M3", "text", None,
                         "negative control: corrupt this branch's correction"),
}

_SUMMARIES = {
    "toffoli-verify": "branch-complete gadget equivalence against a direct Toffoli",
    "distill": "pair-ancilla purification trees, closed forms vs sampling",
    "noisy-meas": "noisy cat-block parity measurement statistics",
    "ensemble": "block-ensemble fidelity or log-tangent statistics",
    "estimate": "log-space concatenation schedules",
}
_HELP = ("-h", "--help")
_WIDTH = 78  # the width of help text on an 80-column terminal
_COLUMN = 24  # the column that help texts start at, or before


def _flags(command: str) -> list:
    """The flags `command` takes, in table order."""
    return [flag for flag in _FLAGS
            if flag != "--corrupt-branch" or command == "toffoli-verify"]


def _invocation(flag: str) -> str:
    metavar, kind = _FLAGS[flag][:2]
    return flag if kind == "switch" else f"{flag} {metavar or '{%s}' % ','.join(kind)}"


def _usage(command: Optional[str]) -> str:
    """The usage line, wrapped to `_WIDTH` between its parts."""
    line = "usage: toffsim" + (f" {command}" if command else "")
    parts = ([f"[{_invocation(flag)}]" for flag in _flags(command)] if command
             else ["{%s}" % ",".join(_COMMANDS), "..."])
    indent, lines = " " * len(line), []
    for part in ["[-h]"] + parts:
        if len(line) + len(part) >= _WIDTH:
            lines.append(line)
            line = indent
        line += " " + part
    return "\n".join(lines + [line]) + "\n"


def _help(command: Optional[str]) -> str:
    import textwrap  # only help wraps free text

    def row(indent: int, name: str, text: Optional[str], column: int) -> str:
        """`name`, then `text` wrapped from `column`, on its line if there is room."""
        head = " " * indent + name
        lines = [head] + [" " * column + line
                          for line in textwrap.wrap(text or "", _WIDTH - column)]
        if len(lines) > 1 and len(head) + 2 <= column:
            lines[:2] = [head.ljust(column) + lines[1][column:]]
        return "\n".join(lines)

    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        text = textwrap.fill("Seeded experiments on measurement-based Toffoli gates, "
                             "ancilla purification, and noisy parity readout.", _WIDTH)
        text += "\n\npositional arguments:\n  {%s}\n" % ",".join(_COMMANDS)
        text += "\n".join(row(4, *item, _COLUMN) for item in _SUMMARIES.items()) + "\n\n"
        column = _COLUMN
    else:
        text = ""
        rows += [(_invocation(flag), _FLAGS[flag][3]) for flag in _flags(command)]
        column = min(max(len(name) for name, _ in rows) + 4, _COLUMN)
    return (f"{_usage(command)}\n{text}options:\n"
            + "\n".join(row(2, *item, column) for item in rows) + "\n")


def _fail(command: Optional[str], message: str):
    """A usage error: the usage line and `message` on stderr, then exit 1."""
    prog = "toffsim" + (f" {command}" if command else "")
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(1)


def _read_flag(token: str, names, command: Optional[str]):
    """`token` as (flag, its value after "=" or the like, or None) among
    `names`: None for a value, and (None, None) for a flag of no such name."""
    if token in names:
        return token, None
    if token[:1] != "-" or len(token) == 1:
        return None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":  # a unique prefix
        matches = [(flag, value if eq else None) for flag in names if flag.startswith(name)]
    else:  # -h, with more short flags after it
        matches = [("-h", token[2:])] if token[1] == "h" else []
    if len(matches) > 1:
        _fail(command, f"ambiguous option: {token} could match "
                       f"{', '.join(flag for flag, _ in matches)}")
    if matches:
        return matches[0]
    # a token that reads as a negative number, or holds a space, is a value
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else (None, None)


def _take_help(command: Optional[str], flag: str, value: Optional[str]):
    """-h or --help: write the help and exit 0.  A value joined to --help is
    an error; one joined to -h, after "=" or not, reads as more short flags,
    and -h is the only one."""
    if value is not None:
        rest = value.lstrip("h") if flag == "-h" else value
        if rest or not value:
            _fail(command, f"argument -h/--help: ignored explicit argument {rest!r}")
    sys.stdout.write(_help(command))
    raise SystemExit(0)


def _parse_args(argv: Optional[Sequence[str]]) -> types.SimpleNamespace:
    """The subcommand and its flags' values from `argv` (default sys.argv[1:]);
    a usage error or a help request raises SystemExit with the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command, extras = None, []  # extras: tokens no flag took, refused at the end
    for i, token in enumerate(argv):
        found = None if token == "--" else _read_flag(token, _HELP, None)
        if found is None:
            command, tokens = token, argv[i + 1:]
            break
        if found[0] is None:
            extras.append(token)
        else:
            _take_help(None, *found)
    # "--" reads as the subcommand only when a token follows it
    if command is None or command == "--" and not tokens:
        _fail(None, "the following arguments are required: command")
    if command not in _COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, _COMMANDS))})")

    flags = _flags(command)
    values = {flag[2:].replace("-", "_"): _FLAGS[flag][2] for flag in flags}
    end = tokens.index("--") if "--" in tokens else len(tokens)
    found = [_read_flag(token, _HELP + tuple(flags), command) for token in tokens[:end]]
    found.append(("--", None))  # "--" is no flag's value
    i = 0
    while i < end:
        flag, value = found[i] or (None, None)
        i += 1
        if flag in _HELP:
            _take_help(command, flag, value)
        elif flag is None:
            extras.append(tokens[i - 1])
            continue
        kind = _FLAGS[flag][1]
        if kind == "switch":
            if value is not None:
                _fail(command, f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        elif value is None:
            if found[i] is not None:
                _fail(command, f"argument {flag}: expected one argument")
            value = tokens[i]
            i += 1
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                _fail(command, f"argument {flag}: invalid int value: {value!r}")
        elif isinstance(kind, tuple) and value not in kind:
            _fail(command, f"argument {flag}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, kind))})")
        values[flag[2:].replace("-", "_")] = value
    if extras + tokens[end:]:
        _fail(None, f"unrecognized arguments: {' '.join(extras + tokens[end:])}")
    return types.SimpleNamespace(command=command, **values)


# -- entry point --------------------------------------------------------------------

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
    try:
        args = _parse_args(argv)
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
            # an empty path is an unwritable one, not stdout
            with (open(args.out, "w", encoding="utf-8", newline="") if args.out is not None
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
