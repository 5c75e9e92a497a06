"""The `toffoli-verify` subcommand: every gadget branch against a direct Toffoli."""

from __future__ import annotations

import itertools

from .. import commands
from ..gadgets import _TOFFOLI_ORDER
from . import _BRANCHES, _Check


def _branch_key(branch) -> str:
    return ",".join(f"{m:+d}" for m in branch)


def _ordered_sum(a):
    """The sum over axis 1 of `a`, adding its slices one by one in index order."""
    total = a[:, 0].copy()
    for i in range(1, a.shape[1]):
        total += a[:, i]
    return total


def branch_fidelities(vec, m):
    """The fidelity of each input row of `vec` after one branch map `m` with
    its ideal Toffoli output t: sum_k |sum_d conj(t_d) O_dk|^2 over
    sum_{d,k} |O_dk|^2 sum_d |t_d|^2, where O = vec @ m over (data d,
    ancilla k), which `fidelity(discard(...), ideal)` computes from states.

    O is exact under any BLAS kernel: each column of `m` holds at most one
    nonzero, +-1/2.  Every later step is an elementwise real product or sum,
    and every sum adds slices in a fixed order, so the result's bits depend
    neither on the BLAS kernel nor on the SIMD width.
    """
    out = (vec @ m).reshape(-1, 8, 8)  # [trial, data, ancilla]
    o_re, o_im = out.real, out.imag
    ideal = vec[:, _TOFFOLI_ORDER]
    t_re, t_im = ideal.real[:, :, None], ideal.imag[:, :, None]
    # conj(t_d) O_dk = (t_re O_re + t_im O_im) + i (t_re O_im - t_im O_re), summed over d
    ov_re = _ordered_sum(t_re * o_re + t_im * o_im)
    ov_im = _ordered_sum(t_re * o_im - t_im * o_re)
    overlap = _ordered_sum(ov_re * ov_re + ov_im * ov_im)
    norm = _ordered_sum(_ordered_sum(o_re * o_re + o_im * o_im))
    ideal_norm = _ordered_sum(ideal.real * ideal.real + ideal.imag * ideal.imag)
    return overlap / (norm * ideal_norm)


def run(cfg: dict, seed: int, rows):
    import numpy as np

    from ..core import QuantumState, fidelity
    from ..gadgets import (
        DATA_LABELS,
        corrected_branch_map,
        default_correction_table,
        ideal_toffoli_output,
        toffoli_gadget,
    )
    from ..rng import trial_uniforms

    trials, tol = cfg["trials"], cfg["tolerance"]
    corrupt = None if cfg["corrupt_branch"] is None else _BRANCHES[cfg["corrupt_branch"]]
    table = default_correction_table()
    if corrupt is not None:
        # prepending a stray X on the first data qubit breaks any branch
        table = table.replaced(corrupt, ("X_A",) + table[corrupt])

    # each corrected branch is a fixed linear map; a trial's output on a branch
    # is its input times that map, compared on its own with the ideal output
    maps = [corrected_branch_map(branch, table[branch]) for branch in _BRANCHES.values()]
    lowest = np.full(len(maps), np.inf)
    sums = np.zeros(len(maps))
    for start in range(0, trials, commands._TRIAL_CHUNK):
        stop = min(start + commands._TRIAL_CHUNK, trials)
        # trial t's input from its own substream: entry d is
        # (2 u_d - 1) + i (2 u_{d+8} - 1), exact in floating point
        u = trial_uniforms(seed, start, stop, 16)
        u *= 2.0
        u -= 1.0
        vec = u[:, :8] + 1j * u[:, 8:]
        fids = np.stack([branch_fidelities(vec, m) for m in maps], axis=1)
        np.minimum(lowest, fids.min(axis=0), out=lowest)
        # cumsum adds in trial order, so the sums do not depend on the block size
        sums = np.cumsum(np.vstack((sums, fids)), axis=0)[-1]
    branch_rows = [{"branch": _branch_key(branch), "min_fidelity": float(lowest[b]),
                    "mean_fidelity": float(sums[b] / trials),
                    "corrections": list(table[branch])}
                   for b, branch in enumerate(_BRANCHES.values())]
    worst = min([1.0] + [r["min_fidelity"] for r in branch_rows])
    flagged = [r["branch"] for r in branch_rows if r["min_fidelity"] < 1.0 - tol]

    # basis input i reads its three outcome draws from the substream (seed, 100000 + i)
    draws = trial_uniforms(seed, 100_000, 100_008, 3)
    truth_passed = 0
    for i, bits in enumerate(itertools.product("01", repeat=3)):
        state = QuantumState.basis(DATA_LABELS, "".join(bits))
        res = toffoli_gadget(state, uniforms=draws[i])
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
    if rows is not None:
        rows.extend((r["branch"], r["min_fidelity"], r["mean_fidelity"],
                     " ".join(r["corrections"])) for r in branch_rows)
    return results, ("branch", "min_fidelity", "mean_fidelity", "corrections"), checks
