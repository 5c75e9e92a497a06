"""The `distill` subcommand: purification trees, closed forms against sampling.

The trees are sampled by `distill.sample_trees`, one call a block of
`commands._TRIAL_CHUNK` trials, from the table the report gives as
`level_success_probabilities`; trial t's tree reads the substream (seed, t).
"""

from __future__ import annotations

import math

from .. import commands
from . import _Check


def run(cfg: dict, seed: int, rows):
    # core is imported first: a default run that imports `ancilla` first
    # peaks 0.8 MB higher in RSS (measured)
    from ..core import QuantumState, fidelity
    from ..ancilla import MixedAncilla
    from ..distill import (
        combine_states,
        expected_ops,
        fidelity_after_rounds,
        level_success_probabilities,
        sample_trees,
    )

    alpha3, levels, trials = cfg["alpha3"], cfg["levels"], cfg["trials"]
    raw = MixedAncilla.from_excess_weight(alpha3)

    try:
        trajectory = [alpha3 ** (2**k) for k in range(levels + 1)]
        formula = fidelity_after_rounds(alpha3, levels)
    except OverflowError:
        raise ValueError(f"alpha3 ** (2 ** levels) is out of floating-point range at "
                         f"alpha3 {alpha3!r}, levels {levels}") from None

    # refuses a zero-weight ancilla before the circuit does
    level_probs = level_success_probabilities(alpha3, levels)

    # postselected circuit tree: every node of a level holds the same state,
    # so each level combines one state with a relabelled copy of itself
    state = raw.to_state(("x0", "y0"))
    for _ in range(levels):
        state, _ = combine_states(state, QuantumState(("x1", "y1"), state.data))
    pair_target = QuantumState.from_vector(state.labels, [1.0, 1.0, 1.0, 0.0])
    circuit_fidelity = fidelity(state, pair_target)

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
    tree_cap, budget = commands._TREE_ATTEMPTS, commands._MAX_COMBINE_ATTEMPTS
    per_tree = exp_attempts if 0.0 < exp_attempts < tree_cap else tree_cap
    if trials * per_tree > budget:
        raise ValueError(f"trials x expected combine attempts = {trials * per_tree:.6g} "
                         f"exceeds the work budget of {budget}")

    total_attempts = total_successes = total_leaves = 0
    for start in range(0, trials, commands._TRIAL_CHUNK):
        stop = min(start + commands._TRIAL_CHUNK, trials)
        try:
            attempts, successes, leaves = sample_trees(level_probs, seed=seed, start=start,
                                                       stop=stop, max_attempts=tree_cap)
        except RuntimeError as exc:  # a tree's combine budget ran out
            raise ValueError(f"levels {levels} is too deep to sample: {exc}") from None
        # integer sums, exact in any order
        total_attempts += int(attempts.sum())
        total_successes += int(successes.sum())
        total_leaves += int(leaves.sum())
        if rows is not None:
            rows.extend(zip(range(start, stop), attempts.tolist(), successes.tolist(),
                            leaves.tolist()))
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
