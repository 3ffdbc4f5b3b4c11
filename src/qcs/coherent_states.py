"""Spin coherent states labeled by points of the extended complex plane.

A qubit coherent state |psi> = (|0> + psi |1>) / sqrt(1 + |psi|^2) is the
stereographic image of a Bloch vector; INFINITY labels |1>.  Each label
has four symmetric partners (one per reflection of the plane); the
ANTIPODAL partner |-psi*> is exactly orthogonal and the pair forms a basis
in which any qubit state can be expanded.  Spin-j coherent states
generalize the construction to 2j+1 levels.

Phase conventions are fixed by the literal amplitude formulas below and
are preserved by every constructor; comparisons that should ignore a
global phase can use :func:`equal_up_to_phase`.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .complex_geometry import (
    INFINITY,
    ComplexPoint,
    PointLike,
    SymmetryKind,
    as_point,
    symmetric_point,
)
from .errors import DimensionMismatch, NotNormalized

__all__ = [
    "PureState",
    "SpinJState",
    "coherent",
    "from_bloch",
    "symmetric_state",
    "overlap",
    "amplitude_ratio",
    "expand_in_antipodal_basis",
    "spin_j_coherent",
    "spin_j_overlap",
    "spin_j_overlap_closed",
    "equal_up_to_phase",
    "canonical_phase",
]

# Construction formulas must land within this distance of unit norm;
# the residual float drift is then renormalized away so that stored
# states are unit vectors to machine precision.
NORM_TOL = 1e-9


def _normalized_amplitudes(amplitudes, allowed_sizes) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if a.size not in allowed_sizes:
        raise DimensionMismatch(
            f"got {a.size} amplitudes, expected one of {sorted(allowed_sizes)}"
        )
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > NORM_TOL:
        raise NotNormalized(f"|amplitudes| = {norm!r}, expected 1 within {NORM_TOL}")
    a = a / norm
    a.flags.writeable = False
    return a


class PureState:
    """A normalized pure state of 1-3 qubits, amplitudes in computational order.

    Leftmost qubit is most significant: a two-qubit state stores
    (|00>, |01>, |10>, |11>) amplitudes.  The constructor validates the
    norm within 1e-9 (coefficients are asserted, not silently fixed) and
    renormalizes the residual rounding error.
    """

    __slots__ = ("_amps",)

    def __init__(self, amplitudes: Sequence[complex]):
        self._amps = _normalized_amplitudes(amplitudes, {2, 4, 8})

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.size

    @property
    def n_qubits(self) -> int:
        return self._amps.size.bit_length() - 1

    def __getitem__(self, index: int) -> complex:
        return complex(self._amps[index])

    def __len__(self) -> int:
        return self._amps.size

    def __repr__(self) -> str:
        return f"PureState({np.array2string(self._amps, precision=6)})"


def _two_j(j: float) -> int:
    """2j for a positive half-integer spin j; raises ValueError for any other j."""
    two_j = 2.0 * j
    if not 0 < two_j < math.inf or abs(two_j - round(two_j)) > 1e-12:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    return int(round(two_j))


class SpinJState:
    """A normalized spin-j state; amplitude k belongs to |j, m = -j + k>."""

    __slots__ = ("_j", "_amps")

    def __init__(self, j: float, amplitudes: Sequence[complex]):
        n = _two_j(j) + 1
        a = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if a.size != n:
            raise DimensionMismatch(f"spin {j} needs {n} amplitudes, got {a.size}")
        self._j = j
        self._amps = _normalized_amplitudes(a, {n})

    @property
    def j(self) -> float:
        return self._j

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    def __repr__(self) -> str:
        return f"SpinJState(j={self._j}, {np.array2string(self._amps, precision=6)})"


def coherent(p: PointLike) -> PureState:
    """Qubit coherent state (|0> + psi |1>) / sqrt(1 + |psi|^2); INFINITY -> |1>.

    0 -> |0>, 1 -> (|0>+|1>)/sqrt(2), INFINITY -> |1>.  The |0> amplitude
    is kept real positive by construction; rotating the label by a phase
    rotates only the |1> amplitude.
    """
    q = as_point(p)
    if q.is_infinity:
        return PureState([0.0, 1.0])
    psi = q.value
    denom = math.hypot(1.0, abs(psi))
    return PureState([1.0 / denom, psi / denom])


def from_bloch(theta: float, phi: float) -> PureState:
    """Qubit state (cos(theta/2), sin(theta/2) e^{i phi}) for theta in [0, pi].

    Equals coherent(stereo_project(SpherePoint.from_angles(theta, phi)))
    up to rounding.
    """
    if not -1e-12 <= theta <= math.pi + 1e-12:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    half = 0.5 * min(max(theta, 0.0), math.pi)
    return PureState([math.cos(half), math.sin(half) * complex(math.cos(phi), math.sin(phi))])


def symmetric_state(p: PointLike, kind: SymmetryKind) -> PureState:
    """Coherent state of the symmetric point, with a fixed amplitude phase.

    For finite psi (d = sqrt(1 + |psi|^2)):

    CONJUGATE      (1, conj psi) / d
    NEG_CONJUGATE  (1, -conj psi) / d
    UNIT_CIRCLE    (conj psi, 1) / d
    ANTIPODAL      (-conj psi, 1) / d

    Each equals coherent(symmetric_point(p, kind)) up to a global phase,
    but the circle-reflection forms above stay finite for every label and
    make <-psi*|psi> vanish identically.  At 0 and INFINITY the
    computational-basis limit coherent(symmetric_point(...)) is returned.
    """
    q = as_point(p)
    if q.is_infinity or (kind in (SymmetryKind.UNIT_CIRCLE, SymmetryKind.ANTIPODAL) and q.value == 0):
        return coherent(symmetric_point(q, kind))
    psi = q.value
    denom = math.hypot(1.0, abs(psi))
    conj = psi.conjugate()
    if kind is SymmetryKind.CONJUGATE:
        return PureState([1.0 / denom, conj / denom])
    if kind is SymmetryKind.NEG_CONJUGATE:
        return PureState([1.0 / denom, -conj / denom])
    if kind is SymmetryKind.UNIT_CIRCLE:
        return PureState([conj / denom, 1.0 / denom])
    if kind is SymmetryKind.ANTIPODAL:
        return PureState([-conj / denom, 1.0 / denom])
    raise TypeError(f"unknown symmetry kind: {kind!r}")


def overlap(bra: Union[PureState, SpinJState], ket: Union[PureState, SpinJState]) -> complex:
    """Inner product <bra|ket>, conjugate-linear in the first argument."""
    if isinstance(bra, SpinJState) != isinstance(ket, SpinJState):
        raise DimensionMismatch("cannot mix qubit-register and spin-j states")
    if bra.amplitudes.size != ket.amplitudes.size:
        raise DimensionMismatch(
            f"dimension mismatch: {bra.amplitudes.size} vs {ket.amplitudes.size}"
        )
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


def amplitude_ratio(state: PureState) -> ComplexPoint:
    """Label of a qubit state: amplitude(|1>) / amplitude(|0>), INFINITY at |1>."""
    if state.dim != 2:
        raise DimensionMismatch("amplitude ratio is defined for one qubit")
    a0, a1 = state.amplitudes
    if a0 == 0:
        return INFINITY
    return ComplexPoint(a1 / a0)


def expand_in_antipodal_basis(state: PureState, p: PointLike) -> tuple[complex, complex]:
    """Coefficients (e1, e2) of a qubit state in the orthonormal pair (|psi>, |-psi*>).

    e1 = <psi|state>, e2 = <-psi*|state>; the pair spans the qubit space
    for every label including 0 and INFINITY (computational-basis limits),
    so e1 |psi> + e2 |-psi*> reconstructs the state exactly.
    """
    e1 = overlap(coherent(p), state)
    e2 = overlap(symmetric_state(p, SymmetryKind.ANTIPODAL), state)
    return e1, e2


def spin_j_coherent(j: float, p: PointLike) -> SpinJState:
    """Spin-j coherent state with amplitudes sqrt(C(2j,k)) psi^k / (1+|psi|^2)^j.

    Amplitude k sits on |j, m = -j + k>; the label 0 gives the lowest
    weight |j,-j> and INFINITY the highest weight |j,+j>.
    """
    n = _two_j(j)
    q = as_point(p)
    if q.is_infinity:
        amps = np.zeros(n + 1, dtype=complex)
        amps[n] = 1.0
        return SpinJState(j, amps)
    psi = q.value
    denom = math.hypot(1.0, abs(psi)) ** n
    amps = np.array(
        [math.sqrt(math.comb(n, k)) * psi**k / denom for k in range(n + 1)], dtype=complex
    )
    return SpinJState(j, amps)


def spin_j_overlap(bra: SpinJState, ket: SpinJState) -> complex:
    """Overlap of two spin-j states by direct summation over magnetic levels."""
    if bra.j != ket.j:
        raise DimensionMismatch(f"mixed spins: j={bra.j} vs j={ket.j}")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


def spin_j_overlap_closed(j: float, p_bra: PointLike, p_ket: PointLike) -> complex:
    """Closed-form coherent-state overlap (1 + conj(phi) psi)^{2j} / ((1+|phi|^2)(1+|psi|^2))^j.

    Both labels must be finite.  Vanishes exactly when the labels are
    antipodal (psi = -1/conj(phi)), matching the direct summation.
    """
    n = _two_j(j)
    phi = as_point(p_bra).value
    psi = as_point(p_ket).value
    num = (1.0 + phi.conjugate() * psi) ** n
    den = (math.hypot(1.0, abs(phi)) * math.hypot(1.0, abs(psi))) ** n
    return num / den


def equal_up_to_phase(
    s1: Union[PureState, SpinJState], s2: Union[PureState, SpinJState], tol: float = 1e-12
) -> bool:
    """True when the states differ only by a global phase (within tol)."""
    a, b = s1.amplitudes, s2.amplitudes
    if a.size != b.size:
        return False
    inner = np.vdot(a, b)
    return bool(abs(abs(inner) - 1.0) <= tol)


def canonical_phase(state: PureState) -> PureState:
    """Rotate the global phase so the largest-magnitude amplitude is real positive."""
    a = state.amplitudes
    k = int(np.argmax(np.abs(a)))
    phase = a[k] / abs(a[k])
    return PureState(a / phase)
