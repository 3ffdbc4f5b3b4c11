"""Geometry of the extended complex plane and the Riemann sphere.

Points of C ∪ {∞} label spin-1/2 coherent states.  Möbius (linear
fractional) maps act on the extended plane; the cross ratio is their
invariant.  Reflections in the canonical generalized circles (real axis,
imaginary axis, unit circle, and the antipodal map) produce the symmetric
points used to build orthogonal partner states.  Stereographic projection
ties the plane to the unit sphere, south pole at infinity.

All operations are total on the extended plane: both Möbius application
and the cross ratio are evaluated in homogeneous coordinates, so poles and
the point at infinity need no special-casing by callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import DegenerateTriple

__all__ = [
    "ComplexPoint",
    "INFINITY",
    "PointLike",
    "as_point",
    "MobiusMap",
    "mobius_apply",
    "cross_ratio",
    "SymmetryKind",
    "symmetric_point",
    "SpherePoint",
    "stereo_project",
    "stereo_lift",
]

# Validity floor for Möbius determinants, and the default comparison
# tolerance for points.  The determinant floor is absolute by contract.
DET_FLOOR = 1e-14
POINT_TOL = 1e-12


class ComplexPoint:
    """A point of the extended complex plane: a finite complex number or INFINITY.

    Finite points wrap an ordinary ``complex``; the unique point at
    infinity is the module-level singleton :data:`INFINITY`.  Equality is
    exact; use :meth:`isclose` for toleranced comparison.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Union["ComplexPoint", complex, float, int]):
        if isinstance(value, ComplexPoint):
            self._value = value._value
            return
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(
                "finite components required; use INFINITY for the point at infinity"
            )
        self._value = z

    @property
    def is_infinity(self) -> bool:
        return self._value is None

    @property
    def value(self) -> complex:
        """The finite complex value; raises for INFINITY."""
        if self._value is None:
            raise ValueError("the point at infinity has no finite value")
        return self._value

    @property
    def real(self) -> float:
        return self.value.real

    @property
    def imag(self) -> float:
        return self.value.imag

    def __complex__(self) -> complex:
        return self.value

    def __eq__(self, other) -> bool:
        if isinstance(other, (complex, float, int)):
            other = ComplexPoint(other)
        if not isinstance(other, ComplexPoint):
            return NotImplemented
        return self._value == other._value

    def __hash__(self):
        return hash(self._value)

    def isclose(self, other: "PointLike", tol: float = POINT_TOL) -> bool:
        """Componentwise closeness; INFINITY is close only to INFINITY."""
        other = as_point(other)
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return abs(self._value - other._value) <= tol

    def __repr__(self) -> str:
        if self._value is None:
            return "INFINITY"
        return f"ComplexPoint({self._value!r})"


INFINITY = ComplexPoint.__new__(ComplexPoint)
INFINITY._value = None

PointLike = Union[ComplexPoint, complex, float, int]


def as_point(p: PointLike) -> ComplexPoint:
    """Coerce a number or point to a ComplexPoint."""
    if isinstance(p, ComplexPoint):
        return p
    return ComplexPoint(p)


def _homogeneous(p: ComplexPoint) -> tuple[complex, complex]:
    """Homogeneous coordinates (num, den): z -> (z, 1), INFINITY -> (1, 0)."""
    if p.is_infinity:
        return 1.0 + 0.0j, 0.0j
    return p.value, 1.0 + 0.0j


def _from_ratio(num: complex, den: complex) -> ComplexPoint:
    if den == 0:
        return INFINITY
    return ComplexPoint(num / den)


@dataclass(frozen=True)
class MobiusMap:
    """Linear fractional map z -> (a z + b) / (c z + d) on the extended plane.

    Requires |ad - bc| > 1e-14; degenerate (constant) maps are rejected.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if abs(self.determinant) <= DET_FLOOR:
            raise ValueError(
                f"degenerate map: |ad - bc| = {abs(self.determinant):.3e} <= {DET_FLOOR}"
            )

    @property
    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """The map self(other(z)), i.e. matrix product self @ other."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __call__(self, p: PointLike) -> ComplexPoint:
        return mobius_apply(self, p)


def mobius_apply(m: MobiusMap, p: PointLike) -> ComplexPoint:
    """Apply a Möbius map to a point of the extended plane.

    Evaluated in homogeneous coordinates, so poles map to INFINITY and
    INFINITY maps to a/c (or INFINITY when c = 0) without special cases.
    """
    num, den = _homogeneous(as_point(p))
    return _from_ratio(m.a * num + m.b * den, m.c * num + m.d * den)


def cross_ratio(p: PointLike, p1: PointLike, p2: PointLike, p3: PointLike) -> ComplexPoint:
    """Cross ratio (p, p1; p2, p3) = (p-p2)(p1-p3) / ((p-p3)(p1-p2)).

    Total on the extended plane: each pairwise difference is formed in
    homogeneous coordinates, so any single argument may be INFINITY and
    coincidences with the reference points yield 0, 1, or INFINITY.  The
    reference points p1, p2, p3 must be pairwise distinct.
    """
    q, q1, q2, q3 = (as_point(x) for x in (p, p1, p2, p3))
    if q1 == q2 or q1 == q3 or q2 == q3:
        raise DegenerateTriple("reference points must be pairwise distinct")

    def diff(u: ComplexPoint, v: ComplexPoint) -> complex:
        nu, du = _homogeneous(u)
        nv, dv = _homogeneous(v)
        return nu * dv - nv * du

    num = diff(q, q2) * diff(q1, q3)
    den = diff(q, q3) * diff(q1, q2)
    return _from_ratio(num, den)


class SymmetryKind(Enum):
    """Reflections of the extended plane used to build partner states.

    CONJUGATE      : psi -> conj(psi)        (real axis)
    NEG_CONJUGATE  : psi -> -conj(psi)       (imaginary axis)
    UNIT_CIRCLE    : psi -> 1/conj(psi)      (unit circle; 0 <-> INFINITY)
    ANTIPODAL      : psi -> -1/conj(psi)     (sphere antipode; 0 <-> INFINITY)
    """

    CONJUGATE = "conjugate"
    NEG_CONJUGATE = "neg_conjugate"
    UNIT_CIRCLE = "unit_circle"
    ANTIPODAL = "antipodal"


def symmetric_point(p: PointLike, kind: SymmetryKind) -> ComplexPoint:
    """Symmetric point of p under the given reflection.

    All four kinds are involutions.  The two circle reflections exchange
    0 and INFINITY; the two axis reflections fix INFINITY.
    """
    q = as_point(p)
    if kind is SymmetryKind.CONJUGATE:
        if q.is_infinity:
            return INFINITY
        return ComplexPoint(q.value.conjugate())
    if kind is SymmetryKind.NEG_CONJUGATE:
        if q.is_infinity:
            return INFINITY
        return ComplexPoint(-q.value.conjugate())
    if kind is SymmetryKind.UNIT_CIRCLE:
        if q.is_infinity:
            return ComplexPoint(0.0)
        if q.value == 0:
            return INFINITY
        return ComplexPoint(1.0 / q.value.conjugate())
    if kind is SymmetryKind.ANTIPODAL:
        if q.is_infinity:
            return ComplexPoint(0.0)
        if q.value == 0:
            return INFINITY
        return ComplexPoint(-1.0 / q.value.conjugate())
    raise TypeError(f"unknown symmetry kind: {kind!r}")


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere, validated to unit norm within 1e-12."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        r = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if abs(r - 1.0) > POINT_TOL:
            raise ValueError(f"not on the unit sphere: |r - 1| = {abs(r - 1.0):.3e}")

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "SpherePoint":
        """Polar angle theta in [0, pi] from the north pole, azimuth phi."""
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    @property
    def theta(self) -> float:
        return math.atan2(math.hypot(self.x, self.y), self.z)

    @property
    def phi(self) -> float:
        return math.atan2(self.y, self.x) % (2.0 * math.pi)

    def antipode(self) -> "SpherePoint":
        return SpherePoint(-self.x, -self.y, -self.z)

    def isclose(self, other: "SpherePoint", tol: float = POINT_TOL) -> bool:
        return (
            abs(self.x - other.x) <= tol
            and abs(self.y - other.y) <= tol
            and abs(self.z - other.z) <= tol
        )


def stereo_project(s: SpherePoint) -> ComplexPoint:
    """Stereographic projection from the south pole: (x,y,z) -> (x+iy)/(1+z).

    The north pole (0,0,1) maps to 0, the equator to the unit circle, and
    the south pole (0,0,-1) to INFINITY.  Equivalently psi =
    tan(theta/2) e^{i phi}.  Where z < 0, 1 + z cancels, so the equal
    form (1-z)/(x-iy) is used there.
    """
    if s.z >= 0.0:
        return ComplexPoint(complex(s.x, s.y) / (1.0 + s.z))
    if s.x == 0.0 and s.y == 0.0:
        return INFINITY
    return ComplexPoint((1.0 - s.z) / complex(s.x, -s.y))


def stereo_lift(p: PointLike) -> SpherePoint:
    """Inverse stereographic projection onto the unit sphere.

    psi -> (2 Re psi, 2 Im psi, 1 - |psi|^2) / (1 + |psi|^2), with
    INFINITY -> (0, 0, -1).  Antipodal points of the plane lift to
    antipodal points of the sphere.
    """
    q = as_point(p)
    if q.is_infinity:
        return SpherePoint(0.0, 0.0, -1.0)
    z = q.value
    r2 = z.real**2 + z.imag**2
    if math.isinf(r2):
        return SpherePoint(0.0, 0.0, -1.0)
    denom = 1.0 + r2
    return SpherePoint(2.0 * z.real / denom, 2.0 * z.imag / denom, (1.0 - r2) / denom)
