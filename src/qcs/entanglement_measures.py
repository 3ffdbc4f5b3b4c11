"""Concurrence and related witnesses for pure qubit-register states.

Three independent routes to the concurrence of a two-qubit pure state
(amplitude determinant, reduced-density purity, entangled-basis
expansion) must agree; their agreement is the main cross-check that the
basis construction and the reduced dynamics are consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .coherent_states import PureState
from .entangled_basis import BellExpansion
from .errors import BadParams, BadSubsystem, DimensionMismatch
from .operators import spin_plus, spin_z

__all__ = [
    "DensityMatrix",
    "density",
    "partial_trace",
    "concurrence_det",
    "concurrence_rdm",
    "concurrence_from_expansion",
    "SpinSumAverages",
    "spin_sum_averages",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10


class DensityMatrix:
    """A density operator on 1-3 qubits: Hermitian, unit trace, positive.

    All three properties are validated on construction (Hermiticity and
    trace within 1e-12, eigenvalues above -1e-10).
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4, 8):
            raise DimensionMismatch(f"expected 2^n x 2^n matrix (n <= 3), got {m.shape}")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        trace_dev = abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag)
        if trace_dev > TRACE_TOL:
            raise ValueError(f"trace differs from 1 by {trace_dev:.3e}")
        lo = float(np.min(np.linalg.eigvalsh(m)))
        if lo < PSD_TOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
        m = m.copy()
        m.flags.writeable = False
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self._matrix.shape[0].bit_length() - 1

    def purity(self) -> float:
        """tr(rho^2), 1 for pure states and 1/2 for the maximally mixed qubit."""
        return float(np.trace(self._matrix @ self._matrix).real)

    def __repr__(self) -> str:
        return f"DensityMatrix({np.array2string(self._matrix, precision=6)})"


def density(state: PureState) -> DensityMatrix:
    """Rank-one projector |state><state|."""
    a = state.amplitudes
    return DensityMatrix(np.outer(a, a.conj()))


def partial_trace(rho: Union[DensityMatrix, np.ndarray], keep: Union[int, Iterable[int]]) -> DensityMatrix:
    """Trace out all qubits not in `keep` (0-based, leftmost qubit is 0).

    `keep` must be a nonempty proper subset of the register.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    n = m.shape[0].bit_length() - 1
    if isinstance(keep, int):
        keep = [keep]
    keep = sorted(set(keep))
    if not keep or any(q < 0 or q >= n for q in keep) or len(keep) >= n:
        raise BadSubsystem(f"keep={keep} is not a nonempty proper subset of {n} qubits")
    t = m.reshape([2] * (2 * n))
    remaining = n
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=q, axis2=q + remaining)
        remaining -= 1
    d = 2 ** len(keep)
    return DensityMatrix(t.reshape(d, d))


def _amplitude_matrix(state: PureState) -> np.ndarray:
    if state.dim != 4:
        raise DimensionMismatch("concurrence is defined for two qubits")
    return state.amplitudes.reshape(2, 2)


def concurrence_det(state: PureState) -> float:
    """Concurrence 2 |t00 t11 - t01 t10| of the amplitude matrix."""
    t = _amplitude_matrix(state)
    return 2.0 * abs(t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0])


def concurrence_rdm(state: PureState) -> float:
    """Concurrence sqrt(2 (1 - tr rho_1^2)) from the one-qubit reduced state."""
    rho_1 = partial_trace(density(state), keep=0)
    return math.sqrt(max(0.0, 2.0 * (1.0 - rho_1.purity())))


def concurrence_from_expansion(expansion: BellExpansion) -> float:
    """Concurrence |b+^2 - b-^2 - c+^2 + c-^2| from entangled-basis coefficients.

    The squares are complex; the modulus is taken once at the end.  Valid
    at every label because the basis is a local rotation of the Bell
    basis and concurrence is invariant under local unitaries.
    """
    return abs(
        expansion.b_plus**2
        - expansion.b_minus**2
        - expansion.c_plus**2
        + expansion.c_minus**2
    )


@dataclass(frozen=True)
class SpinSumAverages:
    """Expectations of the pair operators S1 ± S2 on a two-qubit state.

    z_sum/z_diff are <S1z ± S2z> (real); raising_sum/raising_diff are
    <S1+ ± S2+> (complex).  All four vanish on the maximally entangled
    basis members at every label.
    """

    z_sum: float
    z_diff: float
    raising_sum: complex
    raising_diff: complex

    def max_abs(self) -> float:
        return max(
            abs(self.z_sum), abs(self.z_diff), abs(self.raising_sum), abs(self.raising_diff)
        )


def spin_sum_averages(state: PureState, hbar: float = 1.0) -> SpinSumAverages:
    """Evaluate <S1z ± S2z> and <S1+ ± S2+> on a two-qubit state.

    Raises BadParams unless hbar is finite and positive, as CouplingParams does.
    """
    if not (math.isfinite(hbar) and hbar > 0):
        raise BadParams(f"hbar must be finite and positive, got {hbar}")
    if state.dim != 4:
        raise DimensionMismatch("spin-sum averages are defined for two qubits")
    a = state.amplitudes
    eye = np.eye(2)
    sz1 = np.kron(spin_z(hbar), eye)
    sz2 = np.kron(eye, spin_z(hbar))
    sp1 = np.kron(spin_plus(hbar), eye)
    sp2 = np.kron(eye, spin_plus(hbar))

    def expect(op: np.ndarray) -> complex:
        return complex(np.vdot(a, op @ a))

    z1, z2 = expect(sz1), expect(sz2)
    p1, p2 = expect(sp1), expect(sp2)
    return SpinSumAverages(
        z_sum=float((z1 + z2).real),
        z_diff=float((z1 - z2).real),
        raising_sum=p1 + p2,
        raising_diff=p1 - p2,
    )
