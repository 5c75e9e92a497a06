"""Per-bit error channels of a cat readout block, and their closed forms.

Two error classes matter for the raw ancilla preparation and both reduce to
closed forms over the cat block:

* decoherent bit flips: each readout bit flips independently with its own
  probability, so the even-minus-odd flip parity carries the single number
  prod_i (1 - 2 p_i), which fixes how much |11> weight a reported-even
  preparation secretly carries;

* coherent single-qubit rotations: each readout bit is rotated by a small
  unitary, and (for pure bit-axis rotations) the block accumulates one flip
  angle additively, leaving the prepared state a coherent superposition with
  a tangent-of-the-sum contamination amplitude.

These are what one noisy parity readout runs on, so this module imports
numpy alone; the statistics of many blocks feeding one purification cascade
are in `error_models`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class _ArrayRecord:
    """Base of the records that hold arrays: each field is set once, in
    `__init__`, and a record compares and hashes by identity."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


# -- decoherent channels ---------------------------------------------------------

class PauliChannel(_ArrayRecord):
    """Independent per-bit flip probabilities: p bit flips, q phase flips.

    Phase flips are tracked because they land on the readout bits too, but
    they never change a reported parity (they commute with the final Z
    readouts), so every outcome statistic here depends on p alone.
    """

    __slots__ = ("p", "q")

    def __init__(self, p, q=None):
        p = np.atleast_1d(np.asarray(p, dtype=np.float64))
        q = np.zeros_like(p) if q is None else np.atleast_1d(np.asarray(q, dtype=np.float64))
        if p.ndim != 1 or q.shape != p.shape:
            raise ValueError("p and q must be equal-length vectors")
        if p.size == 0:
            raise ValueError("channel needs at least one bit")
        for name, vec in (("p", p), ("q", q)):
            if not np.all((vec >= 0.0) & (vec <= 1.0)):  # NaN fails too
                raise ValueError(f"{name} entries must lie in [0, 1]")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def uniform(cls, n: int, p: float, q: float = 0.0) -> "PauliChannel":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(np.full(n, p), np.full(n, q))

    @property
    def n(self) -> int:
        return int(self.p.size)


def parity_bias(channel: PauliChannel) -> float:
    """E[(-1)^(#flips)] = prod_i (1 - 2 p_i), the even-minus-odd difference."""
    return float(np.prod(1.0 - 2.0 * channel.p))


class Alpha3Reading(NamedTuple):
    """|11> contamination implied by a reported-even noisy parity measurement."""

    value: float            # (1 - bias) / (1 + bias), exact
    large_n_approx: float   # 1 - 2*bias, the leading small-bias expansion
    bias: float             # prod_i (1 - 2 p_i)


def alpha3_decoherent(channel: PauliChannel) -> Alpha3Reading:
    """Exact and approximate |11> weight after postselecting a reported-even parity.

    The value lies in [0, 1] whenever the bias is nonnegative (all flip
    probabilities <= 1/2, or an even number above); blocks whose bias goes
    negative report worse than chance and the value exceeds 1.
    """
    bias = parity_bias(channel)
    return Alpha3Reading(_alpha3_from_bias(bias), 1.0 - 2.0 * bias, bias)


def _alpha3_from_bias(bias: float) -> float:
    """|11> weight (1 - bias) / (1 + bias) of a reported-even block of parity bias `bias`."""
    if 1.0 + bias <= 1e-300:
        raise ValueError("bias -1: the reported outcome is deterministic and wrong")
    return (1.0 - bias) / (1.0 + bias)


# -- coherent (unitary) per-bit errors -------------------------------------------

class UnitaryErrorSet(_ArrayRecord):
    """Per-bit single-qubit unitaries, rows (A, B, C, D) with A^2+B^2+C^2+D^2 = 1.

    The matrix of row j is [[A+iB, D+iC], [-D+iC, A-iB]]: A carries the
    identity part, B the phase-axis part, and C (with D) the bit-flip part
    that can corrupt parity readouts.  Rows with B = D = 0 are pure bit-axis
    rotations by angle arctan(C/A), which accumulate additively over a block.
    """

    __slots__ = ("coefficients",)  # shape (n, 4)

    def __init__(self, coefficients):
        coeff = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
        if coeff.ndim != 2 or coeff.shape[1] != 4 or coeff.shape[0] < 1:
            raise ValueError("coefficients must be an (n, 4) array of rows (A, B, C, D)")
        norms = np.sum(coeff * coeff, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("each row must satisfy A^2 + B^2 + C^2 + D^2 = 1")
        object.__setattr__(self, "coefficients", coeff)

    @classmethod
    def from_ratios(cls, ratios) -> "UnitaryErrorSet":
        """Pure bit-axis rotations with tan(angle_j) = ratios[j] (B = D = 0)."""
        r = np.atleast_1d(np.asarray(ratios, dtype=np.float64))
        with np.errstate(over="ignore"):
            r2 = r * r
        a = 1.0 / np.sqrt(1.0 + r2)
        # where r * r overflows, past |r| ~ 1.3e154, 1 / sqrt(1 + r^2) is 1 / |r|
        overflow = np.isinf(r2)
        a[overflow] = 1.0 / np.abs(r[overflow])
        rows = np.stack([a, np.zeros_like(a), r * a, np.zeros_like(a)], axis=1)
        return cls(rows)

    @classmethod
    def uniform_ratio(cls, n: int, ratio: float) -> "UnitaryErrorSet":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls.from_ratios(np.full(n, ratio))

    @property
    def n(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def is_bit_rotation(self) -> bool:
        """True when every row has B = D = 0 exactly."""
        return bool(np.all(self.coefficients[:, 1] == 0.0) and
                    np.all(self.coefficients[:, 3] == 0.0))

    def matrices(self) -> np.ndarray:
        """The per-bit 2x2 unitaries, shape (n, 2, 2)."""
        a, b, c, d = self.coefficients.T
        out = np.empty((self.n, 2, 2), dtype=np.complex128)
        out[:, 0, 0] = a + 1j * b
        out[:, 0, 1] = d + 1j * c
        out[:, 1, 0] = -d + 1j * c
        out[:, 1, 1] = a - 1j * b
        return out


def accumulated_flip_angle(errors: UnitaryErrorSet) -> float:
    """Exact flip angle of the whole block: sum of atan2(C_j, A_j).

    Exact only for pure bit-axis rotations, where per-bit angles add; raises
    otherwise.
    """
    if not errors.is_bit_rotation:
        raise ValueError("accumulated angle is only additive when all B = D = 0")
    a = errors.coefficients[:, 0]
    c = errors.coefficients[:, 2]
    return float(np.sum(np.arctan2(c, a)))


__all__ = [
    "Alpha3Reading",
    "PauliChannel",
    "UnitaryErrorSet",
    "accumulated_flip_angle",
    "alpha3_decoherent",
    "parity_bias",
]
