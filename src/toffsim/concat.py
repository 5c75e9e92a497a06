"""Failure-rate calculus for concatenated encoding, in base-10 log space.

Everything here manipulates log10 of failure probabilities, because the
interesting outputs (like 10^-830) have no floating-point representation.
The one modeling law: encoding gates of failure exponent e into a block of
n qubits yields exponent

    block_failure(e, n) = prefactor + n^beta * (e - threshold)

with threshold the log10 accuracy threshold and beta < 1 the sub-linear
scaling of the code distance with block size.  Two scheduling strategies
sit on top: the standard fixed-block chain, and the progressive schedule
whose block sizes grow per level up to the (1/p) ln(1/p) usefulness bound.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Tuple


def max_block_size(p: float) -> float:
    """Order-of-magnitude largest useful block at per-bit error p: (1/p) ln(1/p)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    size = (1.0 / p) * math.log(1.0 / p)
    if math.isinf(size):  # below p ~ 4e-306
        raise ValueError(f"the block size at p {p!r} is out of floating-point range")
    return size


#: Sub-linear distance scaling: doubling protection costs a factor 9 in size.
DEFAULT_SCALING_EXPONENT = math.log(2.0) / math.log(9.0)


class _CodeFields(NamedTuple):
    threshold_log10: float = -2.0
    scaling_exponent: float = DEFAULT_SCALING_EXPONENT
    prefactor_log10: float = 0.0


class CodeParams(_CodeFields):
    """Log-space code family parameters.

    threshold_log10: log10 of the accuracy threshold (default 1e-2).
    scaling_exponent: beta in distance ~ n^beta (default log 2 / log 9).
    prefactor_log10: log10 of the multiplicative prefactor (default 1).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.threshold_log10 >= 0.0:
            raise ValueError("threshold must be a probability below 1 (log10 < 0)")
        if not 0.0 < self.scaling_exponent < 1.0:
            raise ValueError("scaling exponent must lie in (0, 1)")
        return self


def block_failure(eps_log10: float, n: float,
                  params: CodeParams = CodeParams()) -> float:
    """Failure exponent of one n-qubit block built from gates at eps_log10.

    Requires the ingoing error to sit strictly below threshold; above it,
    encoding amplifies errors and the law is meaningless.
    """
    if n < 1:
        raise ValueError("block size must be >= 1")
    if n > sys.float_info.max:
        raise ValueError(f"block size above {sys.float_info.max:.6g} is out of "
                         "floating-point range")
    if eps_log10 >= params.threshold_log10:
        raise ValueError(
            f"input exponent {eps_log10} is not below threshold "
            f"{params.threshold_log10}; encoding would amplify errors")
    exponent = (params.prefactor_log10 +
                n**params.scaling_exponent * (eps_log10 - params.threshold_log10))
    if not math.isfinite(exponent):
        raise ValueError(f"the failure exponent of a block of {n} at input exponent "
                         f"{eps_log10} is out of floating-point range")
    return exponent


def round_to_one_significant(x: float) -> int:
    """Round a positive number to one significant decimal figure."""
    if x <= 0:
        raise ValueError("positive value required")
    exponent = math.floor(math.log10(x))
    mantissa = round(x / 10.0**exponent)
    if mantissa == 10:
        mantissa, exponent = 1, exponent + 1
    return int(mantissa * 10**exponent)


class LevelSpec(NamedTuple):
    """One concatenation level: its block size and failure exponents.

    failure_log10 is the block failure; gate_failure_log10 is the effective
    per-gate exponent fed to the next level, which includes the gate
    composition penalty.
    """

    level: int
    block_size: int
    failure_log10: float
    gate_failure_log10: float


class Schedule(NamedTuple):
    """A concatenation schedule down to a target failure exponent."""

    strategy: str
    target_log10: float
    levels: Tuple[LevelSpec, ...]
    achieved: bool

    @property
    def depth(self) -> int:
        return len(self.levels)


#: Slack in decades when comparing against a target: the modeling law is an
#: order-of-magnitude relation, so a level within half a decade counts.
TARGET_SLACK_DECADES = 0.5


def progressive_schedule(target_log10: float, *,
                         params: CodeParams = CodeParams(),
                         physical_error_log10: float = -3.0,
                         gate_penalty: float = 2.0,
                         first_block: int = 1000,
                         max_levels: int = 12) -> Schedule:
    """Concatenate with per-level block sizes grown to the usefulness bound.

    Level 1 encodes bare physical gates into `first_block` qubits; its
    reported failure is the headline single-level exponent.  The chained
    per-gate exponent carries a `gate_penalty` factor (a logical gate
    composes several lower-level gates): at level 1 the penalty multiplies
    the physical error before encoding; deeper levels add it to their block
    failure.  Each level L >= 2 uses the largest useful block for its
    ingoing error, n_L = (1/p) ln(1/p) rounded to one significant figure.
    The schedule stops once a level's failure exponent reaches the target
    within half a decade of slack.
    """
    if target_log10 >= 0.0:
        raise ValueError("target must be a probability below 1 (log10 < 0)")
    if gate_penalty < 1.0:
        raise ValueError("gate penalty is a count of composed gates, >= 1")
    if first_block < 1:
        raise ValueError("first block size must be >= 1")
    penalty_log10 = math.log10(gate_penalty)
    eps_star = physical_error_log10 + penalty_log10

    levels = []
    eps = block_failure(physical_error_log10, first_block, params)
    eps_star = block_failure(eps_star, first_block, params)
    levels.append(LevelSpec(1, first_block, eps, eps_star))
    while eps > target_log10 + TARGET_SLACK_DECADES:
        if len(levels) >= max_levels:
            return Schedule("progressive", target_log10, tuple(levels), False)
        if eps_star >= params.threshold_log10:
            # block_failure would refuse it, but 10.0**eps_star can overflow first
            raise ValueError(
                f"penalized gate exponent {eps_star:.4f} is not below threshold "
                f"{params.threshold_log10}; encoding would amplify errors")
        n = round_to_one_significant(max_block_size(10.0**eps_star))
        eps = block_failure(eps_star, n, params)
        eps_star = eps + penalty_log10
        levels.append(LevelSpec(len(levels) + 1, n, eps, eps_star))
    return Schedule("progressive", target_log10, tuple(levels), True)


def standard_concat_levels(target_log10: float, *,
                           params: CodeParams = CodeParams(),
                           physical_error_log10: float = -3.0,
                           gate_penalty: float = 2.0,
                           block_size: int = 1000,
                           max_levels: int = 40) -> Schedule:
    """Concatenate the same block size at every level.

    Every level's input is the penalized per-gate exponent of the one
    below; the chain raises if the penalty pushes an input back above
    threshold (the block too small to win against the composition cost).
    """
    if target_log10 >= 0.0:
        raise ValueError("target must be a probability below 1 (log10 < 0)")
    if gate_penalty < 1.0:
        raise ValueError("gate penalty is a count of composed gates, >= 1")
    penalty_log10 = math.log10(gate_penalty)
    eps_star = physical_error_log10 + penalty_log10
    levels = []
    while True:
        if eps_star >= params.threshold_log10:
            raise ValueError(
                f"penalized gate exponent {eps_star:.4f} is above threshold "
                f"{params.threshold_log10}; block size {block_size} cannot make progress")
        eps = block_failure(eps_star, block_size, params)
        eps_star = eps + penalty_log10
        levels.append(LevelSpec(len(levels) + 1, block_size, eps, eps_star))
        if eps <= target_log10 + TARGET_SLACK_DECADES:
            return Schedule("standard", target_log10, tuple(levels), True)
        if len(levels) >= max_levels:
            return Schedule("standard", target_log10, tuple(levels), False)


__all__ = [
    "CodeParams",
    "DEFAULT_SCALING_EXPONENT",
    "LevelSpec",
    "Schedule",
    "TARGET_SLACK_DECADES",
    "block_failure",
    "max_block_size",
    "progressive_schedule",
    "round_to_one_significant",
    "standard_concat_levels",
]
