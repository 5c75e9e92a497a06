"""The `estimate` subcommand: log-space concatenation schedules.

It runs without numpy: `toffsim.concat` imports the standard library alone.
"""

from __future__ import annotations

from . import _Check


def run(cfg: dict, seed: int, rows):
    from ..concat import CodeParams, progressive_schedule, standard_concat_levels

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
