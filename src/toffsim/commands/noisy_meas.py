"""The `noisy-meas` subcommand: noisy cat-block parity readout statistics."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .. import commands
from . import _Check


def run(cfg: dict, seed: int, rows):
    from ..ancilla import MixedAncilla
    from ..channels import (
        PauliChannel,
        UnitaryErrorSet,
        accumulated_flip_angle,
        alpha3_decoherent,
        parity_bias,
    )
    from ..core import QuantumState
    from ..noisy_meas import prepare_raw_ancilla, sample_cphase, uniform_count
    from ..rng import trial_uniforms

    n, model, mode, trials = cfg["n"], cfg["model"], cfg["mode"], cfg["trials"]
    if model == "unitary" and mode != "exact":
        raise ValueError("the unitary model requires exact mode")
    if trials is None:
        trials = 20_000 if mode == "effective" else 2_000
    cat_bits, trial_bits = commands._MAX_CAT_BITS, commands._MAX_TRIAL_BITS
    if n > cat_bits:
        raise ValueError(f"n {n} exceeds the limit of {cat_bits} readout bits")
    if trials * n > trial_bits:
        raise ValueError(f"trials x n = {trials * n} exceeds the work budget of "
                         f"{trial_bits}")

    if model == "decoherent":
        errors = PauliChannel.uniform(n, cfg["p"], cfg["q"])
    else:
        errors = UnitaryErrorSet.uniform_ratio(n, cfg["ratio"])
        sigma = accumulated_flip_angle(errors)
        tan2 = math.tan(sigma) ** 2

    plus_plus = QuantumState.from_vector(("a", "b"), [1.0, 1.0, 1.0, 1.0])
    columns = uniform_count(errors, mode)
    n_plus = n_minus_true_given_plus = 0
    corr_sum = spread = 0.0
    chunk = commands._EFFECTIVE_CHUNK if mode == "effective" else commands._TRIAL_CHUNK
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        uniforms = trial_uniforms(seed, start, stop, columns)
        shots = sample_cphase(plus_plus, errors, uniforms, mode=mode)
        reported, true = shots.reported_outcomes, shots.true_eigenvalues
        plus = reported == 1
        if model == "decoherent":
            false_plus = plus & (true == -1)
            if rows is not None:
                plus_run = n_plus + np.cumsum(plus)
                minus_run = n_minus_true_given_plus + np.cumsum(false_plus)
                with np.errstate(divide="ignore", invalid="ignore"):
                    f_run = minus_run / plus_run
                    est_run = 3.0 * f_run / (1.0 - f_run)
                has_est = plus & (f_run < 1.0)
                rows.extend((t, n, model, r, tr, e if ok else "")
                            for t, r, tr, e, ok in zip(range(start, stop), reported.tolist(),
                                                       true.tolist(), est_run.tolist(),
                                                       has_est.tolist()))
            n_minus_true_given_plus += int(np.count_nonzero(false_plus))
            corr_sum += int(np.dot(reported, true))
        else:
            # one contamination reading per distinct +1 pair state
            readings = {}
            for t, r, tr, index in zip(range(start, stop), reported.tolist(),
                                       true.tolist(), shots.state_index.tolist()):
                estimate: object = ""
                if r == 1:
                    if index not in readings:
                        reading, _ = MixedAncilla.from_state(shots.logical_states[index])
                        readings[index] = float(complex(reading.a3).real)
                    estimate = readings[index]
                if rows is not None:
                    # a true eigenvalue of 0: the readout left a superposition
                    rows.append((t, n, model, r, tr or "", estimate))
            spread = max([spread] + [abs(a - tan2) for a in readings.values()])
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
        results.update({
            "flip_angle": sigma,
            "tan_squared": tan2,
            "alpha3_readings_max_deviation": spread,
        })
        checks.add("coherent contamination reading",
                   n_plus > 0 and spread <= 1e-9,
                   f"max |a3 - tan^2 sigma| = {spread!r} over {n_plus} runs")

    raw = prepare_raw_ancilla(errors, mode=mode, seed=seed, trial=trials)
    results["raw_preparation"] = {
        "attempts": raw.attempts,
        "alpha3_reading": float(complex(raw.alpha.a3).real),
    }
    return results, ("trial", "n", "model", "reported", "true", "alpha3_estimate"), checks
