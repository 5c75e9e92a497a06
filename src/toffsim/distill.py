"""Purifying noisy pair ancillas by pairwise parity checks.

A noisy preparation of the pair ancilla |00> + |01> + |10> stays inside the
two-dimensional span of the ideal state and |11>, so it is summarized by
three coefficients (a1, a2, a3) in the operator form

    rho  =  P + a1 |P><11| + a2 |11><P| + a3 |11><11|,      P = |pair><pair|

with the pair vector kept unnormalized (squared norm 3).  The purification
step takes two such states, checks both cross parities, and disentangles one
copy; on success the coefficients multiply componentwise, so the |11>
contamination squares each round while the ideal part is untouched.

Both faces are provided: the closed-form coefficient algebra (`combine`,
`MixedAncilla`) and the explicit four-qubit circuit (`combine_states`),
which must agree and are tested against each other.  `distill_tree` samples
the retries of a whole purification tree fed by identically prepared raw
copies (`pair_supply`), the one supply the protocol uses.
"""

from __future__ import annotations

import functools
import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    QuantumState,
    apply_gate,
    drop_qubit,
    measure_operator,
    tensor,
    z_product,
)

PAIR_VECTOR = np.array([1.0, 1.0, 1.0, 0.0], dtype=np.complex128)
_ELEVEN = np.array([0.0, 0.0, 0.0, 1.0], dtype=np.complex128)
_BASIS = np.stack([PAIR_VECTOR, _ELEVEN], axis=1)          # 4 x 2
# the largest residual, relative to the state's largest entry, that
# `MixedAncilla.from_state` accepts inside the pair/|11> span
_SPAN_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def _basis_pinv() -> np.ndarray:
    """The 2 x 4 pseudo-inverse of `_BASIS`, computed on the first
    `MixedAncilla.from_state` call, so that importing this module makes no
    LAPACK call."""
    return np.linalg.pinv(_BASIS)


class MixedAncilla(NamedTuple):
    """Coefficients (a1, a2, a3) of a noisy pair ancilla in operator form."""

    a1: complex
    a2: complex
    a3: complex

    @classmethod
    def ideal(cls) -> "MixedAncilla":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_phase_angle(cls, sigma: float) -> "MixedAncilla":
        """Projector onto |pair> + i tan(sigma) |11> (coherent contamination)."""
        t = math.tan(sigma)
        return cls(-1j * t, 1j * t, t * t)

    @classmethod
    def from_excess_weight(cls, a3: float) -> "MixedAncilla":
        """Incoherent |11> contamination only (decoherent preparation noise)."""
        return cls(0.0, 0.0, a3)

    @property
    def weight(self) -> complex:
        """Trace of the operator form: 3 + a3."""
        return 3.0 + self.a3

    def fidelity_to_pair(self) -> float:
        """Overlap with the ideal pair state: 3 / (3 + a3)."""
        val = 3.0 / (3.0 + complex(self.a3))
        if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
            raise ValueError("fidelity undefined: a3 is not real")
        return float(val.real)

    def is_physical(self, tol: float = 1e-12) -> bool:
        """Positive-semidefinite and Hermitian as an actual density operator."""
        a1, a2, a3 = complex(self.a1), complex(self.a2), complex(self.a3)
        if abs(a2 - a1.conjugate()) > tol or abs(a3.imag) > tol:
            return False
        return a3.real >= abs(a1) ** 2 - tol

    def to_state(self, labels: Sequence[str] = ("a", "b")) -> QuantumState:
        coeff = np.array([[1.0, self.a1], [self.a2, self.a3]], dtype=np.complex128)
        rho = _BASIS @ coeff @ _BASIS.conj().T
        return QuantumState.from_density(labels, rho)

    @classmethod
    def from_state(cls, state: QuantumState) -> Tuple["MixedAncilla", complex]:
        """Decompose a two-qubit state back into (coefficients, overall scale).

        The scale is the coefficient on the ideal-pair projector, so a noisy
        preparation with weight w on the ideal part returns scale w and
        coefficients normalized to it.  Raises if the state leaves the
        span of the pair vector and |11>.
        """
        if state.n_qubits != 2:
            raise ValueError("expected a two-qubit state")
        rho = state.data if state.is_density else np.outer(state.data, state.data.conj())
        pinv = _basis_pinv()
        coeff = pinv @ rho @ pinv.conj().T
        residual = np.max(np.abs(_BASIS @ coeff @ _BASIS.conj().T - rho))
        if residual > _SPAN_TOL * max(1.0, float(np.max(np.abs(rho)))):
            raise ValueError("state has support outside the pair/|11> span")
        scale = coeff[0, 0]
        if abs(scale) < 1e-14:
            raise ValueError("state has no ideal-pair component; coefficients undefined")
        return cls(coeff[0, 1] / scale, coeff[1, 0] / scale, coeff[1, 1] / scale), scale


def success_probability(x: MixedAncilla, y: MixedAncilla) -> float:
    """Chance both parity checks pass: (3 + a3 a3') / ((3 + a3)(3 + a3'))."""
    val = (3.0 + complex(x.a3) * complex(y.a3)) / (complex(x.weight) * complex(y.weight))
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ValueError("success probability undefined for non-real a3")
    return float(val.real)


def combine(x: MixedAncilla, y: MixedAncilla) -> Tuple[MixedAncilla, float]:
    """One purification step in coefficient form.

    Returns the post-success coefficients (componentwise products) and the
    success probability of the two parity checks.
    """
    out = MixedAncilla(x.a1 * y.a1, x.a2 * y.a2, x.a3 * y.a3)
    return out, success_probability(x, y)


def combine_states(x: QuantumState, y: QuantumState) -> Tuple[QuantumState, float]:
    """One purification step as an explicit circuit on two two-qubit states.

    Postselects both cross parities at +1, copies the survivor's bits out of
    the second pair with two CNOTs, and removes the second pair, which is
    left exactly in |00>.  Returns the surviving state (on `x`'s labels,
    norm convention unrenormalized) and the success probability.
    """
    if x.n_qubits != 2 or y.n_qubits != 2:
        raise ValueError("combine_states expects two-qubit states")
    a, b = x.labels
    c, d = y.labels
    joint = tensor(x, y)
    joint, rec1 = measure_operator(joint, z_product(a, c), postselect=+1)
    joint, rec2 = measure_operator(joint, z_product(b, d), postselect=+1)
    joint = apply_gate(joint, "CNOT", a, c)
    joint = apply_gate(joint, "CNOT", b, d)
    out = drop_qubit(joint, c, expected_bit=0)
    out = drop_qubit(out, d, expected_bit=0)
    return out, rec1.probability * rec2.probability


def combined_after_rounds(x: MixedAncilla, rounds: int) -> MixedAncilla:
    """Coefficients after `rounds` balanced purification rounds from copies of x."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    power = 2**rounds
    return MixedAncilla(complex(x.a1) ** power, complex(x.a2) ** power,
                        complex(x.a3) ** power)


def fidelity_after_rounds(a3: complex, rounds: int) -> float:
    """Fidelity to the ideal pair after balanced rounds: 3 / (3 + a3^(2^rounds))."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    val = 3.0 / (3.0 + complex(a3) ** (2**rounds))
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ValueError("fidelity undefined: contamination power is not real")
    return float(val.real)


# -- running a purification tree by sampling -----------------------------------

class DistillOutcome(NamedTuple):
    ancilla: MixedAncilla
    level: int
    combine_attempts: int
    combine_successes: int
    leaves_used: int


class _FixedSupply:
    """`pair_supply`'s supply: one raw ancilla, and the results of its
    combines per level, which `distill_tree` fills as its trees first reach
    each level.  `combine` is pure, so trees drawing on one supply share them.
    """

    __slots__ = ("noise", "made", "probs")

    def __init__(self, noise: MixedAncilla):
        self.noise = noise
        # made[k]: a level-k output; probs[k]: the probability that its combine
        # passes (level 0 is the leaf itself)
        self.made: List[MixedAncilla] = [noise]
        self.probs: List[float] = [1.0]

    def reach(self, k: int) -> float:
        """Level k's success probability, combining up to level k on first use."""
        while len(self.made) <= k:
            out, prob = combine(self.made[-1], self.made[-1])
            self.made.append(out)
            self.probs.append(prob)
        return self.probs[k]


def pair_supply(noise: MixedAncilla = MixedAncilla.ideal()) -> _FixedSupply:
    """Endless supply of identically prepared raw ancillas, for `distill_tree`."""
    return _FixedSupply(noise)


# uniforms drawn from the rng per block by `distill_tree`
_UNIFORM_BLOCK = 64


def distill_tree(supply: _FixedSupply, level: int, *,
                 rng: Optional[np.random.Generator] = None,
                 max_attempts: int = 100_000) -> DistillOutcome:
    """Produce one level-`level` ancilla, retrying failed parity checks.

    `supply` is made by `pair_supply`: identically prepared raw ancillas,
    endlessly.  Each combine succeeds with its coefficient-form probability,
    decided against `rng`; on failure both inputs are discarded and rebuilt.

    The tree is built depth first, left subtree before right.  An attempt
    at level 1 pairs two fresh leaves; an attempt at level k > 1 pairs the
    finished left output of level k - 1 with the right one just made.  Draw
    contract: the j-th combine attempt passes exactly when the j-th uniform
    of `rng` is below its success probability.  Uniforms are taken from
    `rng` in blocks of `_UNIFORM_BLOCK`, so on return `rng` has advanced by
    whole blocks, up to one block past the last uniform used.  A level-0
    tree is the raw ancilla itself and draws no uniform.

    As all leaves are equal, every level-k combine has the same inputs and
    the same result, so the tree runs on integers alone: each level's
    (output, probability) is computed by `combine` once, when a tree drawing
    on `supply` first reaches that level, and the walk keeps the level k, a
    bitmask of the held levels and the counters.
    """
    if not isinstance(supply, _FixedSupply):
        raise TypeError(f"supply must be made by pair_supply, got {type(supply).__name__}")
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > 0 and rng is None:
        raise ValueError("rng is required to sample parity-check outcomes")
    if level == 0:
        return DistillOutcome(supply.noise, 0, 0, 0, 1)
    p1 = supply.reach(1)
    # held: bit k set while a finished level-k output awaits its partner;
    # upper: attempts above level 1 (each level-1 attempt takes two leaves)
    attempts = successes = upper = held = 0
    k = 1
    while attempts < max_attempts:
        block = rng.random(_UNIFORM_BLOCK).tolist()
        del block[max_attempts - attempts:]
        for u in block:
            attempts += 1
            if k == 1:
                if not u < p1:
                    continue
            else:
                upper += 1
                if not u < p:
                    k = 1  # both inputs are lost; rebuild from level 1
                    continue
            successes += 1
            if k == level:
                return DistillOutcome(supply.made[k], level, attempts, successes,
                                      2 * (attempts - upper))
            bit = 1 << k
            if held & bit:
                held ^= bit
                k += 1
                p = supply.reach(k)
            else:
                held |= bit
                k = 1
    raise RuntimeError(f"purification exceeded {max_attempts} combine attempts")


# -- operation-count calculus ---------------------------------------------------

class _CostFields(NamedTuple):
    success_probability: float = 1.0 / 3.0
    measurement_ratio: float = 2.0


class CostParams(_CostFields):
    """Knobs of the expected-operations recurrence.

    success_probability: chance one combine's parity checks both pass.
    measurement_ratio:  extra operations charged per produced ancilla for
        repeating measurements until their error is negligible at the
        working accuracy (log target error / log per-measurement error).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.success_probability <= 1.0:
            raise ValueError("success probability must be in (0, 1]")
        if self.measurement_ratio < 0.0:
            raise ValueError("measurement ratio must be >= 0")
        return self


def expected_ops(rounds: int, params: CostParams = CostParams()) -> float:
    """Expected operations to produce one ancilla purified through `rounds`.

    Solves G(0) = 1, G(k) = (2/P) G(k-1) + ratio in closed form:
    G(N) = (2/P)^N + ((2/P)^N - 1) / ((2/P) - 1) * ratio.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    r = 2.0 / params.success_probability
    growth = r**rounds
    return growth + (growth - 1.0) / (r - 1.0) * params.measurement_ratio


def measurement_majority_repeats(eps: float, eps_m: float) -> int:
    """Odd repetition count making measurement error negligible at accuracy eps.

    A single measurement errs with probability ~eps_m; majority voting over
    r repeats suppresses that to ~eps_m^r, so r = ceil(log eps / log eps_m),
    bumped to the next odd integer so the vote cannot tie.
    """
    if not 0.0 < eps < 1.0 or not 0.0 < eps_m < 1.0:
        raise ValueError("error rates must be in (0, 1)")
    ratio = math.log(eps) / math.log(eps_m)
    r = max(1, math.ceil(ratio - 1e-9))
    if r % 2 == 0:
        r += 1
    return r


__all__ = [
    "MixedAncilla",
    "CostParams",
    "DistillOutcome",
    "PAIR_VECTOR",
    "combine",
    "combine_states",
    "combined_after_rounds",
    "distill_tree",
    "expected_ops",
    "fidelity_after_rounds",
    "measurement_majority_repeats",
    "pair_supply",
    "success_probability",
]
