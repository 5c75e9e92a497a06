"""The `ensemble` subcommand: block-ensemble fidelity or log-tangent statistics."""

from __future__ import annotations

import math

import numpy as np

from .. import commands
from . import _Check


def _median(values: np.ndarray) -> float:
    """`np.median` of a 1-d array, bit for bit, without loading `numpy.ma`."""
    s = np.sort(values)
    if np.isnan(s[-1]):  # NaNs sort last, and make the median NaN
        return math.nan
    return float((s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2)


def run(cfg: dict, seed: int, rows):
    from ..error_models import (
        LOG_TAN_CHUNK,
        BlockEnsemble,
        cascade_fidelity,
        ensemble_distill_fidelity,
        ensemble_log_tan,
    )

    trials = cfg["trials"]
    defect_fraction = cfg["defect_fraction"]
    if defect_fraction is None:
        defect_fraction = 0.02 if cfg["model"] == "decoherent" else 0.0
    ensemble = BlockEnsemble(
        model=cfg["model"], distribution=cfg["distribution"],
        n=cfg["n"], levels=cfg["levels"], p=cfg["p"],
        defect_fraction=defect_fraction, defect_p=cfg["defect_p"])
    # limits, checked before 2**levels is formed: 2**levels x n bounds a
    # cascade's uniforms and the defect law's n + 1 counts, and the decoherent
    # run keeps two results a trial; a gaussian trial draws n tangents,
    # LOG_TAN_CHUNK trials at once (a two_point trial one uniform, and its
    # law n + 1 counts), and a unitary run keeps only running sums
    n, levels = ensemble.n, ensemble.levels
    block_doubles, trial_bits = commands._MAX_BLOCK_DOUBLES, commands._MAX_TRIAL_BITS
    if ensemble.model == "decoherent":
        if levels >= block_doubles.bit_length() or n << levels > block_doubles:
            raise ValueError(f"2**levels x n at levels {levels}, n {n} exceeds the limit "
                             f"of {block_doubles} draws per cascade")
        if trials > block_doubles:
            raise ValueError(f"trials {trials} exceeds the limit of {block_doubles} "
                             f"decoherent trials")
        draws = n << levels
    else:
        if min(trials, LOG_TAN_CHUNK) * n > block_doubles:
            raise ValueError(f"n {n} exceeds the limit of {block_doubles} tangents "
                             f"per block of {min(trials, LOG_TAN_CHUNK)} trials")
        draws = n
    if trials * draws > trial_bits:
        raise ValueError(f"trials x draws per trial = {trials * draws} exceeds the work "
                         f"budget of {trial_bits}")
    checks = _Check()

    if ensemble.model == "decoherent":
        # builds the defect-count law, which refuses a block of bias -1 or of
        # vanishing contamination (log-contamination undefined) before any draw
        log_expected = ensemble.block_count * ensemble.expected_log_alpha3()
        empirical = np.empty(trials)
        log_contamination = np.empty(trials)
        step = commands._TRIAL_CHUNK
        for start in range(0, trials, step):
            stop = min(start + step, trials)
            fid = ensemble_distill_fidelity(ensemble, seed=seed, start=start, stop=stop)
            empirical[start:stop] = fid.empirical
            log_contamination[start:stop] = fid.log_contamination
            if rows is not None:
                rows.extend(zip(range(start, stop), fid.empirical.tolist(),
                                fid.log_contamination.tolist()))
        log_mean = float(log_contamination.mean())
        log_se = float(log_contamination.std(ddof=1) / math.sqrt(trials))
        median = _median(empirical)
        typical = cascade_fidelity(log_expected)
        results = {
            "model": "decoherent",
            "trials": trials,
            "blocks_per_cascade": ensemble.block_count,
            "empirical_mean": float(empirical.mean()),
            "empirical_se": float(empirical.std(ddof=1) / math.sqrt(trials)),
            "empirical_median": median,
            "log_contamination_mean": log_mean,
            "log_contamination_se": log_se,
            "log_contamination_expected": log_expected,
            "typical_fidelity_predicted": typical,
            "analytic_marginal": ensemble.analytic_marginal_fidelity(),
            "mean_flip_probability": ensemble.mean_flip_probability(),
        }
        # summed log-contamination concentrates, so a plain 4-sigma gate is
        # sound; the floor passes a defect-free ensemble's rounding: summing
        # 2**levels same-sign block logs in order errs by at most about
        # 2**levels x 2**-52 x |expected|, and by no less than 1e-9 here
        rounding = max(math.ldexp(abs(log_expected), levels - 52), 1e-9)
        checks.add("log contamination vs exact expectation",
                   abs(log_mean - log_expected) <= max(4.0 * log_se, rounding),
                   f"mean {log_mean:.4f} vs expected {log_expected:.4f} "
                   f"(4se {4 * log_se:.4f})")
        # the fidelity prediction is typical-case: compare infidelity decades,
        # which log contamination sets, within 4 standard errors of its median,
        # sqrt(pi/2) sd / sqrt(N), with the same floor
        med_decades = math.log10(max(1.0 - median, 1e-300))
        typ_decades = math.log10(max(1.0 - typical, 1e-300))
        med_se_decades = math.sqrt(math.pi / 2.0) * log_se / math.log(10.0)
        checks.add("median fidelity vs typical prediction",
                   abs(med_decades - typ_decades) <= max(4.0 * med_se_decades, 1e-9),
                   f"median infidelity 1e{med_decades:.2f}, "
                   f"predicted 1e{typ_decades:.2f} (4se {4 * med_se_decades:.2f} "
                   f"decades)")
        return results, ("trial", "empirical_fidelity", "log_contamination"), checks

    est = ensemble_log_tan(ensemble, trials=trials, seed=seed, k_max=cfg["k_max"])
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
    if est.exact is not None:
        # a two_point block's exact law; minus infinity (an atom at angle 0)
        # is matched by a Monte Carlo mean of minus infinity, or by a finite
        # one where missing the atom in every trial is at least as likely as
        # a two-sided 4-sigma normal tail
        results["exact"] = est.exact
        detail = (f"mc {est.monte_carlo:.6g} +- {est.standard_error:.2g}, "
                  f"exact {est.exact:.6g}")
        if math.isinf(est.exact):
            miss = (1.0 - est.atom_weight) ** trials
            ok_exact = (est.monte_carlo == est.exact
                        or miss >= math.erfc(4.0 / math.sqrt(2.0)))
            detail += (f" (atom weight {est.atom_weight:.3g}, chance that no trial "
                       f"draws it {miss:.2g})")
        else:
            ok_exact = abs(est.monte_carlo - est.exact) <= max(0.2 * abs(est.exact),
                                                               4.0 * est.standard_error)
        checks.add("Monte Carlo vs exact", ok_exact, detail)
        methods = ("monte_carlo", "monte_carlo_se", "exact")
    else:
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
        methods = ("monte_carlo", "monte_carlo_se", "series", "closed_form", "bound")
    if rows is not None:
        rows.extend((method, results[method]) for method in methods)
    return results, ("method", "value"), checks
