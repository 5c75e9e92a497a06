"""The `toffoli-verify` subcommand: every gadget branch against a direct Toffoli."""

from __future__ import annotations

import itertools

from . import _BRANCHES, _Check


def _branch_key(branch) -> str:
    return ",".join(f"{m:+d}" for m in branch)


def run(cfg: dict, seed: int, rows):
    from ..core import QuantumState, discard, fidelity
    from ..gadgets import (
        ANCILLA_LABELS,
        DATA_LABELS,
        branch_map,
        default_correction_table,
        ideal_toffoli_output,
        toffoli_gadget,
    )
    from ..rng import rekey, trial_rng

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
    if rows is not None:
        rows.extend((r["branch"], r["min_fidelity"], r["mean_fidelity"],
                     " ".join(r["corrections"])) for r in branch_rows)
    return results, ("branch", "min_fidelity", "mean_fidelity", "corrections"), checks
