"""The noisy pair ancilla in operator form.

A noisy preparation of the pair ancilla |00> + |01> + |10> stays inside the
two-dimensional span of the ideal state and |11>, so it is summarized by
three coefficients (a1, a2, a3) in the operator form

    rho  =  P + a1 |P><11| + a2 |11><P| + a3 |11><11|,      P = |pair><pair|

with the pair vector kept unnormalized (squared norm 3).  A noisy readout
reads these coefficients off its pair states, without loading the
purification in `distill`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .core import QuantumState

PAIR_VECTOR = np.array([1.0, 1.0, 1.0, 0.0], dtype=np.complex128)
_ELEVEN = np.array([0.0, 0.0, 0.0, 1.0], dtype=np.complex128)
_BASIS = np.stack([PAIR_VECTOR, _ELEVEN], axis=1)          # 4 x 2
# the largest residual, relative to the state's largest entry, that
# `MixedAncilla.from_state` accepts inside the pair/|11> span
_SPAN_TOL = 1e-9


def _zero_weight_error() -> ValueError:
    return ValueError("the ancilla has zero weight: 3 + a3 = 0")


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
        weight = 3.0 + complex(self.a3)
        if weight == 0:
            raise _zero_weight_error()
        val = 3.0 / weight
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
        coefficients normalized to it.  Each coefficient is the mean of the
        entries of rho that it fills, added in index order: the scale of the
        nine pair-block entries, a1 x scale of the three in |11>'s column,
        a2 x scale of the three in its row, and a3 x scale the corner; so no
        reading depends on a BLAS kernel.  Raises if the state leaves the
        span of the pair vector and |11>.
        """
        if state.n_qubits != 2:
            raise ValueError("expected a two-qubit state")
        rho = state.data if state.is_density else np.outer(state.data, state.data.conj())
        scale = sum(rho[i, j] for i in range(3) for j in range(3)) / 9.0
        column = sum(rho[i, 3] for i in range(3)) / 3.0
        row = sum(rho[3, j] for j in range(3)) / 3.0
        coeff = np.array([[scale, column], [row, rho[3, 3]]])
        residual = np.max(np.abs(_BASIS @ coeff @ _BASIS.conj().T - rho))
        if residual > _SPAN_TOL * max(1.0, float(np.max(np.abs(rho)))):
            raise ValueError("state has support outside the pair/|11> span")
        if abs(scale) < 1e-14:
            raise ValueError("state has no ideal-pair component; coefficients undefined")
        return cls(column / scale, row / scale, rho[3, 3] / scale), scale


__all__ = [
    "MixedAncilla",
    "PAIR_VECTOR",
]
