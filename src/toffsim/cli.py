"""Command-line experiment harness.

Every subcommand is a thin orchestration over the library: it resolves a
configuration (built-in defaults, then an optional JSON config file, then
flags), runs seeded trials, and emits a machine-readable report.  All
sampling uses counter-based per-trial substreams, so trial results are
independent of evaluation order and a run is reproducible bit-for-bit from
its seed.  Trials run serially in trial order; noisy-meas, in either mode
and under either error model, samples them in blocks of `_TRIAL_CHUNK`, and
tests check that its reports do not depend on the block size.  No worker
pool exists: those tests are the only evidence that one handing out blocks
of trials would reproduce the reports.

Reports are JSON by default (schema `toffsim-report/1`, keys sorted, one
wall_time_seconds field that reproducibility comparisons must ignore) or
CSV for the plot-ready trial tables, whose rows stream through a temporary
file rather than memory.  Exit codes: 0 success, 1 for
configuration problems, 2 when --check is passed and a built-in
verification fails.  Column layouts are documented in docs/output-schema.md.

Each call runs one subcommand in a fresh interpreter, where loading numpy
and compiling the library's modules costs about as much as a small run.  So
this module imports only the standard library and the numpy-free package
constants at its top, and each subcommand imports what it runs inside its own
body: `estimate` runs without numpy, and the report's `versions.numpy` is
read from numpy's version file, not from an imported numpy.  noisy-meas
samples its trials and its raw preparation through `rng.trial_uniforms`
alone, so a readout process loads no `numpy.random` (nor the `secrets` and
OpenSSL modules it pulls in), and `distill` defers its one import-time LAPACK
call to the first state it decomposes.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib.machinery
import io
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import time
import types
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from . import __version__, kernel_backend

if TYPE_CHECKING:
    import numpy as np

SCHEMA = "toffsim-report/1"

# trials per sampled block of noisy-meas: bounds the block's arrays; every
# trial keeps its own substream, so reports do not depend on it
_TRIAL_CHUNK = 512
# the most doubles one sampled array may hold, 32 MiB
_MAX_BLOCK_DOUBLES = 2**22
# the most readout bits a run may sample, over all its trials: about a minute
_MAX_TRIAL_BITS = 10**8
# noisy-meas limit, checked before anything of size n is allocated: n keeps
# one block's uniforms (at most 3n a trial) within _MAX_BLOCK_DOUBLES
_MAX_CAT_BITS = _MAX_BLOCK_DOUBLES // (3 * _TRIAL_CHUNK)
# the combine attempts one distill tree may make before the run is refused
_TREE_ATTEMPTS = 100_000
# the most expected combine attempts a distill run may sample, over all its
# trials: about a minute at the 3-4.5 million attempts a second measured
_MAX_COMBINE_ATTEMPTS = 2 * 10**8

# the eight measurement outcome triples, by the name a config gives them
_BRANCHES = {",".join(map(str, b)): b for b in itertools.product((1, -1), repeat=3)}


def _branch_key(branch) -> str:
    return ",".join(f"{m:+d}" for m in branch)


class _Check:
    """One named pass/fail verification inside a run."""

    def __init__(self):
        self.items: List[dict] = []

    def add(self, name: str, passed: bool, detail: str):
        self.items.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(item["passed"] for item in self.items)


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

def _cmd_toffoli_verify(cfg: dict, seed: int, rows):
    from .core import QuantumState, discard, fidelity
    from .gadgets import (
        ANCILLA_LABELS,
        DATA_LABELS,
        branch_map,
        default_correction_table,
        ideal_toffoli_output,
        toffoli_gadget,
    )
    from .rng import rekey, trial_rng

    trials, tol = cfg["trials"], cfg["tolerance"]
    corrupt = None if cfg["corrupt_branch"] is None else _BRANCHES[cfg["corrupt_branch"]]
    table = default_correction_table()
    if corrupt is not None:
        # prepending a stray X on the first data qubit breaks any branch
        table = table.replaced(corrupt, ("X_A",) + table[corrupt])

    # each corrected branch is a fixed linear map, read off once; each trial's
    # output on a branch is then traced down to the data and compared on its own
    maps = {branch: branch_map(branch, table[branch]) for branch in _BRANCHES.values()}
    labels = DATA_LABELS + ANCILLA_LABELS
    gen = trial_rng(seed, 0)
    fids = {branch: [] for branch in maps}
    for t in range(trials):
        rng = rekey(gen, seed, t)
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ideal = ideal_toffoli_output(QuantumState(DATA_LABELS, vec))
        for branch, m in maps.items():
            output = discard(QuantumState(labels, vec @ m), *ANCILLA_LABELS)
            fids[branch].append(fidelity(output, ideal))
    branch_rows = [{"branch": _branch_key(branch), "min_fidelity": min(f),
                    "mean_fidelity": sum(f) / len(f), "corrections": list(table[branch])}
                   for branch, f in fids.items()]
    worst = min([1.0] + [r["min_fidelity"] for r in branch_rows])
    flagged = [r["branch"] for r in branch_rows if r["min_fidelity"] < 1.0 - tol]

    truth_passed = 0
    for i, bits in enumerate(itertools.product("01", repeat=3)):
        state = QuantumState.basis(DATA_LABELS, "".join(bits))
        res = toffoli_gadget(state, rng=rekey(gen, seed, 100_000 + i))
        if fidelity(res.output, ideal_toffoli_output(state)) >= 1.0 - tol:
            truth_passed += 1

    results = {
        "branches": branch_rows,
        "worst_fidelity": worst,
        "flagged_branches": flagged,
        "truth_table_passed": truth_passed,
        "truth_table_total": 8,
    }
    checks = _Check()
    if corrupt is None:
        checks.add("branch fidelity", worst >= 1.0 - tol,
                   f"worst fidelity {worst!r} against tolerance {tol}")
        checks.add("truth table", truth_passed == 8, f"{truth_passed}/8 basis inputs")
    else:
        checks.add("negative control", flagged == [_branch_key(corrupt)],
                   f"flagged branches {flagged}, corrupted {_branch_key(corrupt)}")
    rows.extend((r["branch"], r["min_fidelity"], r["mean_fidelity"],
                 " ".join(r["corrections"])) for r in branch_rows)
    return results, ("branch", "min_fidelity", "mean_fidelity", "corrections"), checks


def _cmd_distill(cfg: dict, seed: int, rows):
    from .core import QuantumState, fidelity
    from .distill import (
        MixedAncilla,
        combine_states,
        distill_tree,
        expected_ops,
        fidelity_after_rounds,
        pair_supply,
        success_probability,
    )
    from .rng import rekey, trial_rng

    alpha3, levels, trials = cfg["alpha3"], cfg["levels"], cfg["trials"]
    raw = MixedAncilla.from_excess_weight(alpha3)

    try:
        trajectory = [alpha3 ** (2**k) for k in range(levels + 1)]
        formula = fidelity_after_rounds(alpha3, levels)
    except OverflowError:
        raise ValueError(f"alpha3 ** (2 ** levels) is out of floating-point range at "
                         f"alpha3 {alpha3!r}, levels {levels}") from None

    # postselected circuit tree: every node of a level holds the same state,
    # so each level combines one state with a relabelled copy of itself
    state = raw.to_state(("x0", "y0"))
    for _ in range(levels):
        state, _ = combine_states(state, QuantumState(("x1", "y1"), state.data))
    pair_target = QuantumState.from_vector(state.labels, [1.0, 1.0, 1.0, 0.0])
    circuit_fidelity = fidelity(state, pair_target)

    level_probs = []
    for k in range(levels):
        level_input = MixedAncilla.from_excess_weight(trajectory[k])
        level_probs.append(success_probability(level_input, level_input))
    # Wald chain: one top output needs 1/P attempts at the top level, each
    # attempt consumes two outputs of the level below, and so on down.
    needed = 1.0
    exp_attempts = exp_successes = 0.0
    for prob in reversed(level_probs):
        attempts_here = needed / prob
        exp_attempts += attempts_here
        exp_successes += needed
        needed = 2.0 * attempts_here
    expected_leaves = needed  # demand leaving the bottom level
    # a tree stops at its cap; an expectation that is not finite and positive
    # (0 at levels 0) counts as the cap too
    per_tree = exp_attempts if 0.0 < exp_attempts < _TREE_ATTEMPTS else _TREE_ATTEMPTS
    if trials * per_tree > _MAX_COMBINE_ATTEMPTS:
        raise ValueError(f"trials x expected combine attempts = {trials * per_tree:.6g} "
                         f"exceeds the work budget of {_MAX_COMBINE_ATTEMPTS}")

    total_attempts = total_successes = total_leaves = 0
    supply = pair_supply(raw)
    gen = trial_rng(seed, 0)
    for t in range(trials):
        try:
            out = distill_tree(supply, levels, rng=rekey(gen, seed, t),
                               max_attempts=_TREE_ATTEMPTS)
        except RuntimeError as exc:  # the per-tree combine budget ran out
            raise ValueError(f"levels {levels} is too deep to sample: {exc}") from None
        total_attempts += out.combine_attempts
        total_successes += out.combine_successes
        total_leaves += out.leaves_used
        rows.append((t, out.combine_attempts, out.combine_successes, out.leaves_used))
    freq = total_successes / total_attempts if total_attempts else float("nan")
    # per-attempt Bernoulli spread; approximate since the attempt count is random
    freq_se = (math.sqrt(freq * (1.0 - freq) / total_attempts)
               if total_attempts else 0.0)
    expected_freq = exp_successes / exp_attempts if levels else float("nan")

    results = {
        "alpha3": alpha3,
        "levels": levels,
        "alpha_trajectory": trajectory,
        "fidelity_formula": formula,
        "fidelity_circuit": circuit_fidelity,
        "level_success_probabilities": level_probs,
        "sampled": {
            "trials": trials,
            "mean_combine_attempts": total_attempts / trials,
            "mean_leaves_used": total_leaves / trials,
            "expected_attempts": exp_attempts,
            "expected_leaves": expected_leaves,
            "success_frequency": freq,
            "success_frequency_expected": expected_freq,
            "success_frequency_se": freq_se,
        },
        "expected_ops_default_params": expected_ops(levels),
    }
    checks = _Check()
    checks.add("tree fidelity vs closed form",
               abs(circuit_fidelity - formula) <= 1e-10,
               f"circuit {circuit_fidelity!r} vs formula {formula!r}")
    if levels:
        gap = abs(freq - expected_freq)
        checks.add("combine success frequency", gap <= 4.0 * freq_se,
                   f"observed {freq:.6f}, expected {expected_freq:.6f}, "
                   f"4se {4 * freq_se:.6f}")
    return results, ("trial", "combine_attempts", "combine_successes", "leaves_used"), checks


def _eigenstring_exhaustive(n: int) -> Tuple[int, int]:
    """Check the parity-transfer identity on all 4^n eigenstrings; exact."""
    from .core import apply_gate, fidelity, tensor
    from .noisy_meas import (
        apply_bitwise_probe,
        eigenstring_state,
        eigenstring_weight,
        prepare_even_cat,
    )

    cat = prepare_even_cat(n)
    a_labels = tuple(f"a{i+1}" for i in range(n))
    b_labels = tuple(f"b{i+1}" for i in range(n))
    odd_cat = apply_gate(cat, "X", cat.labels[0])
    passed = total = 0
    for symbols in itertools.product("1234", repeat=n):
        x = "".join(symbols)
        pairs = eigenstring_state(x, a_labels, b_labels)
        joint = apply_bitwise_probe(pairs, a_labels, b_labels, cat)
        want_cat = odd_cat if eigenstring_weight(x) else cat
        expected = tensor(pairs, want_cat)
        total += 1
        if fidelity(joint, expected) >= 1.0 - 1e-12:
            passed += 1
    return passed, total


def _cmd_noisy_meas(cfg: dict, seed: int, rows):
    import numpy as np

    from .core import QuantumState, apply_gate
    from .distill import MixedAncilla
    from .error_models import (
        PauliChannel,
        UnitaryErrorSet,
        accumulated_flip_angle,
        alpha3_decoherent,
        parity_bias,
    )
    from .noisy_meas import (
        exact_uniform_count,
        prepare_raw_ancilla,
        sample_effective,
        sample_exact,
    )
    from .rng import trial_uniforms

    n, model, mode, trials = cfg["n"], cfg["model"], cfg["mode"], cfg["trials"]
    if model == "unitary" and mode != "exact":
        raise ValueError("the unitary model requires exact mode")
    if trials is None:
        trials = 20_000 if mode == "effective" else 2_000
    if n > _MAX_CAT_BITS:
        raise ValueError(f"n {n} exceeds the limit of {_MAX_CAT_BITS} readout bits")
    if trials * n > _MAX_TRIAL_BITS:
        raise ValueError(f"trials x n = {trials * n} exceeds the work budget of "
                         f"{_MAX_TRIAL_BITS}")

    if model == "decoherent":
        errors = PauliChannel.uniform(n, cfg["p"], cfg["q"])
    else:
        errors = UnitaryErrorSet.uniform_ratio(n, cfg["ratio"])

    plus_plus = QuantumState.from_vector(("a", "b"), [1.0, 1.0, 1.0, 1.0])
    # controlled-phase shots are CNOT shots of the pair conjugated by H on "b",
    # as in measure_cphase_noisy
    cnot_frame = apply_gate(plus_plus, "H", "b")
    columns = 2 * n + 1 if mode == "effective" else exact_uniform_count(errors)
    n_plus = n_minus_true_given_plus = 0
    corr_sum = 0.0
    alpha_readings = []
    for start in range(0, trials, _TRIAL_CHUNK):
        stop = min(start + _TRIAL_CHUNK, trials)
        uniforms = trial_uniforms(seed, start, stop, columns)
        if mode == "effective":
            shots = sample_effective(cnot_frame, errors, uniforms)
        else:
            shots = sample_exact(cnot_frame, errors, uniforms)
        reported, true = shots.reported_outcomes, shots.true_eigenvalues
        plus = reported == 1
        if model == "decoherent":
            plus_run = n_plus + np.cumsum(plus)
            minus_run = n_minus_true_given_plus + np.cumsum(plus & (true == -1))
            with np.errstate(divide="ignore", invalid="ignore"):
                f_run = minus_run / plus_run
                est_run = 3.0 * f_run / (1.0 - f_run)
            has_est = plus & (f_run < 1.0)
            rows.extend((t, n, model, r, tr, e if ok else "")
                        for t, r, tr, e, ok in zip(range(start, stop), reported.tolist(),
                                                   true.tolist(), est_run.tolist(),
                                                   has_est.tolist()))
            n_minus_true_given_plus = int(minus_run[-1])
            corr_sum += int(np.dot(reported, true))
        else:
            # one contamination reading per distinct +1 pair state, taken in
            # the controlled-phase frame
            readings = {}
            for t, r, tr, index in zip(range(start, stop), reported.tolist(),
                                       true.tolist(), shots.state_index.tolist()):
                estimate: object = ""
                if r == 1:
                    if index not in readings:
                        logical = apply_gate(shots.logical_states[index], "H", "b")
                        reading, _ = MixedAncilla.from_state(logical)
                        readings[index] = float(complex(reading.a3).real)
                    estimate = readings[index]
                    alpha_readings.append(estimate)
                # a true eigenvalue of 0: the readout left a superposition
                rows.append((t, n, model, r, tr or "", estimate))
        n_plus += int(np.count_nonzero(plus))

    results = {
        "n": n,
        "model": model,
        "mode": mode,
        "trials": trials,
        "reported_plus_frequency": n_plus / trials,
    }
    checks = _Check()
    if model == "decoherent":
        bias = parity_bias(errors)
        alpha = alpha3_decoherent(errors)
        corr = corr_sum / trials
        se_corr = math.sqrt(max(1.0 - bias * bias, 0.0) / trials)
        f = n_minus_true_given_plus / n_plus if n_plus else float("nan")
        if f < 1.0:
            se_f = math.sqrt(f * (1.0 - f) / n_plus)
            est: Optional[float] = 3.0 * f / (1.0 - f)
            se_est: Optional[float] = 3.0 * se_f / (1.0 - f) ** 2
            est_passed = abs(est - alpha.value) <= 4.0 * se_est
            est_detail = f"estimate {est:.5f} +- {se_est:.5f}, formula {alpha.value:.5f}"
        else:
            # no +1 report, or every one was a false +1: 3f/(1-f) has no value
            est = se_est = None
            est_passed = False
            est_detail = (f"no estimate: {n_minus_true_given_plus} false of {n_plus} "
                          f"+1 reports, formula {alpha.value:.5f}")
        results.update({
            "alpha3_estimate": est,
            "alpha3_estimate_se": se_est,
            "alpha3_formula": alpha.value,
            "mean_reported_times_true": corr,
            "parity_bias": bias,
        })
        checks.add("alpha3 Monte Carlo vs closed form", est_passed, est_detail)
        checks.add("reported-true correlation vs parity bias",
                   abs(corr - bias) <= 4.0 * se_corr,
                   f"mean {corr:.5f} vs bias {bias:.5f} (4se {4 * se_corr:.5f})")
    else:
        sigma = accumulated_flip_angle(errors)
        tan2 = math.tan(sigma) ** 2
        spread = max(abs(a - tan2) for a in alpha_readings) if alpha_readings else 0.0
        results.update({
            "flip_angle": sigma,
            "tan_squared": tan2,
            "alpha3_readings_max_deviation": spread,
        })
        checks.add("coherent contamination reading",
                   bool(alpha_readings) and spread <= 1e-9,
                   f"max |a3 - tan^2 sigma| = {spread!r} over {len(alpha_readings)} runs")

    if mode == "exact" and n <= 3:
        passed, total = _eigenstring_exhaustive(n)
        results["eigenstring_checks"] = {"passed": passed, "total": total}
        checks.add("eigenstring parity transfer", passed == total,
                   f"{passed}/{total} strings")

    raw = prepare_raw_ancilla(errors, mode=mode, seed=seed, trial=trials)
    results["raw_preparation"] = {
        "attempts": raw.attempts,
        "alpha3_reading": float(complex(raw.alpha.a3).real),
    }
    return results, ("trial", "n", "model", "reported", "true", "alpha3_estimate"), checks


def _median(values: np.ndarray) -> float:
    """`np.median` of a 1-d array, bit for bit, without loading `numpy.ma`."""
    import numpy as np

    s = np.sort(values)
    if np.isnan(s[-1]):  # NaNs sort last, and make the median NaN
        return math.nan
    return float((s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2)


def _cmd_ensemble(cfg: dict, seed: int, rows):
    import numpy as np

    from .error_models import (
        LOG_TAN_CHUNK,
        BlockEnsemble,
        ensemble_distill_fidelity,
        ensemble_log_tan,
    )
    from .rng import rekey, trial_rng

    trials = cfg["trials"]
    defect_fraction = cfg["defect_fraction"]
    if defect_fraction is None:
        defect_fraction = 0.02 if cfg["model"] == "decoherent" else 0.0
    ensemble = BlockEnsemble(
        model=cfg["model"], distribution=cfg["distribution"],
        n=cfg["n"], levels=cfg["levels"], p=cfg["p"], q=cfg["q"],
        defect_fraction=defect_fraction, defect_p=cfg["defect_p"])
    # limits, checked before 2**levels is formed: a cascade draws 2**levels x n
    # flip probabilities, a unitary trial n tangents, LOG_TAN_CHUNK trials at once
    n, levels = ensemble.n, ensemble.levels
    if ensemble.model == "decoherent":
        if levels >= _MAX_BLOCK_DOUBLES.bit_length() or n << levels > _MAX_BLOCK_DOUBLES:
            raise ValueError(f"2**levels x n at levels {levels}, n {n} exceeds the limit "
                             f"of {_MAX_BLOCK_DOUBLES} draws per cascade")
        draws = n << levels
    else:
        if min(trials, LOG_TAN_CHUNK) * n > _MAX_BLOCK_DOUBLES:
            raise ValueError(f"n {n} exceeds the limit of {_MAX_BLOCK_DOUBLES} tangents "
                             f"per block of {min(trials, LOG_TAN_CHUNK)} trials")
        draws = n
    if trials * draws > _MAX_TRIAL_BITS:
        raise ValueError(f"trials x draws per trial = {trials * draws} exceeds the work "
                         f"budget of {_MAX_TRIAL_BITS}")
    checks = _Check()

    gen = trial_rng(seed, 0)
    if ensemble.model == "decoherent":
        empirical = np.empty(trials)
        log_contamination = np.empty(trials)
        sampled_analytic = np.empty(trials)
        for t in range(trials):
            fid = ensemble_distill_fidelity(ensemble, rng=rekey(gen, seed, t))
            empirical[t] = fid.empirical
            # the log of the product keeps the reports' bits; the summed log
            # stands in where the product underflows to 0
            log_contamination[t] = (math.log(fid.alpha_product) if fid.alpha_product
                                    else fid.log_contamination)
            sampled_analytic[t] = fid.analytic
            rows.append((t, fid.empirical, log_contamination[t], fid.analytic))
        marginal = ensemble.analytic_marginal_fidelity()
        mean = float(empirical.mean())
        se = float(empirical.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        log_mean = float(log_contamination.mean())
        log_se = (float(log_contamination.std(ddof=1) / math.sqrt(trials))
                  if trials > 1 else 0.0)
        log_expected = ensemble.block_count * ensemble.expected_log_alpha3()
        median = _median(empirical)
        typical = 3.0 / (3.0 + math.exp(log_expected))
        results = {
            "model": "decoherent",
            "trials": trials,
            "blocks_per_cascade": ensemble.block_count,
            "empirical_mean": mean,
            "empirical_se": se,
            "empirical_median": median,
            "log_contamination_mean": log_mean,
            "log_contamination_se": log_se,
            "log_contamination_expected": log_expected,
            "typical_fidelity_predicted": typical,
            "analytic_marginal": marginal,
            "analytic_sampled_mean": float(sampled_analytic.mean()),
            "mean_flip_probability": ensemble.mean_flip_probability(),
        }
        # summed log-contamination concentrates, so a plain 4-sigma gate is sound
        checks.add("log contamination vs exact expectation",
                   abs(log_mean - log_expected) <= max(4.0 * log_se, 1e-9),
                   f"mean {log_mean:.4f} vs expected {log_expected:.4f} "
                   f"(4se {4 * log_se:.4f})")
        # the fidelity prediction is typical-case: compare infidelity decades,
        # which log contamination sets, within 4 standard errors of its median,
        # sqrt(pi/2) sd / sqrt(N)
        med_decades = math.log10(max(1.0 - median, 1e-300))
        typ_decades = math.log10(max(1.0 - typical, 1e-300))
        med_se_decades = math.sqrt(math.pi / 2.0) * log_se / math.log(10.0)
        checks.add("median fidelity vs typical prediction",
                   abs(med_decades - typ_decades) <= 4.0 * med_se_decades,
                   f"median infidelity 1e{med_decades:.2f}, "
                   f"predicted 1e{typ_decades:.2f} (4se {4 * med_se_decades:.2f} "
                   f"decades)")
        return results, ("trial", "empirical_fidelity", "log_contamination",
                         "analytic_sampled"), checks

    est = ensemble_log_tan(ensemble, trials=trials, rng=gen,
                           k_max=cfg["k_max"])
    results = {
        "model": "unitary",
        "distribution": ensemble.distribution,
        "trials": trials,
        "p_times_n": ensemble.p * ensemble.n,
        "monte_carlo": est.monte_carlo,
        "monte_carlo_se": est.standard_error,
        "series": est.series,
        "closed_form": est.closed_form,
        "bound": est.bound,
        "series_terms": est.series_terms,
    }
    ok_sc = abs(est.series - est.closed_form) <= 0.2 * abs(est.closed_form)
    ok_mc = abs(est.monte_carlo - est.series) <= max(0.2 * abs(est.series),
                                                     4.0 * est.standard_error)
    ok_bound = est.monte_carlo <= est.bound + 4.0 * est.standard_error
    checks.add("series vs closed form", ok_sc,
               f"series {est.series:.6g}, closed {est.closed_form:.6g}")
    checks.add("Monte Carlo vs series", ok_mc,
               f"mc {est.monte_carlo:.6g} +- {est.standard_error:.2g}")
    checks.add("below coarse bound", ok_bound,
               f"mc {est.monte_carlo:.6g} vs bound {est.bound:.6g}")
    rows.extend([("monte_carlo", est.monte_carlo), ("monte_carlo_se", est.standard_error),
                 ("series", est.series), ("closed_form", est.closed_form),
                 ("bound", est.bound)])
    return results, ("method", "value"), checks


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
            for lv in schedule.levels:
                rows.append((strategy, target, lv.level, lv.block_size,
                             lv.failure_log10, lv.gate_failure_log10))
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


_COMMANDS = {
    "toffoli-verify": _cmd_toffoli_verify,
    "distill": _cmd_distill,
    "noisy-meas": _cmd_noisy_meas,
    "ensemble": _cmd_ensemble,
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
    if args.seed < 0:
        print("toffsim: error: seed must be >= 0", file=sys.stderr)
        return 1

    # a JSON report keeps no per-trial rows: a deque of length 0 drops each as it
    # comes.  A CSV report's rows go through csv.writer into an unnamed temporary
    # file, which is copied out behind the header once the run is done.
    rows, spool = collections.deque(maxlen=0), io.StringIO()
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


if __name__ == "__main__":
    sys.exit(main())
