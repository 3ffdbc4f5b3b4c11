"""Unitary gates and their action on coherent-state labels.

Every one-qubit unitary moves the amplitude ratio psi = a1/a0 by a Möbius
map; :func:`induced_mobius` extracts that map so circuits can be traced on
the extended plane instead of in amplitude space.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .coherent_states import PureState, _hypot1, coherent, symmetric_state
from .complex_geometry import MobiusMap, PointLike, SymmetryKind, as_point
from .errors import DimensionMismatch, InfinitePoint

__all__ = [
    "UnitaryGate",
    "gate_not",
    "gate_hadamard",
    "gate_phase",
    "gate_cnot",
    "coherent_generator",
    "induced_mobius",
    "coherent_hadamard_basis",
]

UNITARY_TOL = 1e-12


class UnitaryGate:
    """A one- or two-qubit unitary, validated to U+ U = I within 1e-12."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise DimensionMismatch(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if dev > UNITARY_TOL:
            raise ValueError(f"not unitary: max |U+U - I| = {dev:.3e}")
        m = m.copy()
        m.flags.writeable = False
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def apply(self, state: PureState) -> PureState:
        if state.dim != self.dim:
            raise DimensionMismatch(f"gate dim {self.dim} vs state dim {state.dim}")
        return PureState(self._matrix @ state.amplitudes)

    def dagger(self) -> "UnitaryGate":
        return UnitaryGate(self._matrix.conj().T)

    def __matmul__(self, other: "UnitaryGate") -> "UnitaryGate":
        if not isinstance(other, UnitaryGate):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatch(f"gate dims {self.dim} vs {other.dim}")
        return UnitaryGate(self._matrix @ other._matrix)

    def __repr__(self) -> str:
        return f"UnitaryGate({np.array2string(self._matrix, precision=6)})"


def gate_not() -> UnitaryGate:
    """Bit flip; moves labels by psi -> 1/psi."""
    return UnitaryGate([[0, 1], [1, 0]])


def gate_hadamard() -> UnitaryGate:
    """Hadamard; moves labels by psi -> (1 - psi)/(1 + psi)."""
    s = 1.0 / math.sqrt(2.0)
    return UnitaryGate([[s, s], [s, -s]])


def gate_phase(theta: float) -> UnitaryGate:
    """Phase gate diag(1, e^{i theta}); rotates labels by psi -> e^{i theta} psi."""
    return UnitaryGate([[1.0, 0.0], [0.0, cmath.exp(1j * theta)]])


def gate_cnot() -> UnitaryGate:
    """Controlled NOT, control on the first (most significant) qubit."""
    return UnitaryGate(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    )


def coherent_generator(p: PointLike) -> UnitaryGate:
    """Unitary sending |0> -> |psi> and |1> -> |-psi*> (the antipodal partner).

    U(psi) = [[1, -conj psi], [psi, 1]] / sqrt(1 + |psi|^2).  Defined for
    finite labels only; the INFINITY column pair is reached as
    gate_not() @ coherent_generator(0).
    """
    q = as_point(p)
    if q.is_infinity:
        raise InfinitePoint("coherent generator needs a finite label")
    psi = q.value
    denom = _hypot1(psi)
    return UnitaryGate(np.array([[1.0, -psi.conjugate()], [psi, 1.0]]) / denom)


def induced_mobius(gate: UnitaryGate) -> MobiusMap:
    """Möbius map traced out by a one-qubit gate on amplitude ratios.

    With psi = a1/a0, the image ratio of g @ (a0, a1) is
    (g11 psi + g10) / (g01 psi + g00), i.e. MobiusMap(g11, g10, g01, g00).
    Unitarity guarantees a nonzero determinant.
    """
    if gate.dim != 2:
        raise DimensionMismatch("only one-qubit gates induce a Möbius map on labels")
    g = gate.matrix
    return MobiusMap(g[1, 1], g[1, 0], g[0, 1], g[0, 0])


def coherent_hadamard_basis(p: PointLike) -> tuple[PureState, PureState]:
    """Orthonormal pair (|psi> ± |-psi*>)/sqrt(2), a rotated Hadamard basis."""
    k = coherent(p).amplitudes
    a = symmetric_state(p, SymmetryKind.ANTIPODAL).amplitudes
    s = 1.0 / math.sqrt(2.0)
    return PureState(s * (k + a)), PureState(s * (k - a))
