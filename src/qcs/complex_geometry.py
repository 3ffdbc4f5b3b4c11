"""Geometry of the extended complex plane and the Riemann sphere.

Points of C ∪ {∞} label spin-1/2 coherent states.  Möbius (linear
fractional) maps act on the extended plane; the cross ratio is their
invariant.  Reflections in the canonical generalized circles (real axis,
imaginary axis, unit circle, and the antipodal map) produce the symmetric
points used to build orthogonal partner states.  Stereographic projection
ties the plane to the unit sphere, south pole at infinity.

Every map goes through homogeneous coordinates (num, den): each forms a
pair and returns through `_from_ratio`, so poles and the point at infinity
need no special case.  `_from_ratio` alone decides what a ratio becomes:
INFINITY where den is 0, BadParams where num / den overflows the doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import BadParams, DegenerateTriple, InfinitePoint

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
        if not _is_finite(z):
            raise InfinitePoint(
                "finite components required; use INFINITY for the point at infinity"
            )
        self._value = z

    @property
    def is_infinity(self) -> bool:
        return self._value is None

    @property
    def value(self) -> complex:
        """The finite complex value; InfinitePoint for INFINITY."""
        if self._value is None:
            raise InfinitePoint("the point at infinity has no finite value")
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


def _exponent(*zs: complex) -> int:
    """The binary exponent e of the largest component of zs: each z * 2**-e has components below 1."""
    return math.frexp(max(max(abs(z.real), abs(z.imag)) for z in zs))[1]


def _scaled(z: complex, e: int) -> complex:
    """z * 2**e, rounded only where a component leaves the normal doubles."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _is_finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _from_ratio(num: complex, den: complex, exp: int = 0) -> ComplexPoint:
    """The point (num / den) * 2**exp."""
    if den == 0:
        return INFINITY
    try:
        return ComplexPoint(_scaled(num / den, exp))
    except (ValueError, OverflowError):
        scale = f" * 2**{exp}" if exp else ""
        raise BadParams(f"{num!r} / {den!r}{scale} lies beyond the double range") from None


@dataclass(frozen=True)
class MobiusMap:
    """Linear fractional map z -> (a z + b) / (c z + d) on the extended plane.

    Requires finite coefficients and |ad - bc| > 1e-14; degenerate
    (constant) maps and non-finite coefficients raise BadParams.  Where ad
    or bc overflows, ad - bc is judged on a copy whose rows (a, b) and
    (c, d) are scaled by powers of two; the stored coefficients are kept.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            z = complex(getattr(self, name))
            if not _is_finite(z):
                raise BadParams(f"coefficient {name} = {z!r} lies beyond the double range")
            object.__setattr__(self, name, z)
        det, e = self.determinant, 0
        if not _is_finite(det):
            p, q = _exponent(self.a, self.b), _exponent(self.c, self.d)
            a, b, c, d = _scaled(self.a, -p), _scaled(self.b, -p), _scaled(self.c, -q), _scaled(self.d, -q)
            det, e = a * d - b * c, p + q
        # ad - bc = det * 2**e; |det| >= max(|Re det|, |Im det|), so abs() runs only where it cannot overflow.
        floor = math.ldexp(DET_FLOOR, -e)
        if max(abs(det.real), abs(det.imag)) <= floor and abs(det) <= floor:
            raise BadParams(f"degenerate map: |ad - bc| = {math.ldexp(abs(det), e):.3e} <= {DET_FLOOR}")

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
    coincidences with the reference points yield 0, 1, or INFINITY.  Each
    difference is scaled by a power of two before the products, so a ratio
    within the double range is returned even where the products are not;
    a difference that overflows is taken from the halved points.
    The reference points p1, p2, p3 must be pairwise distinct.
    """
    q, q1, q2, q3 = (as_point(x) for x in (p, p1, p2, p3))
    if q1 == q2 or q1 == q3 or q2 == q3:
        raise DegenerateTriple("reference points must be pairwise distinct")

    def diff(u: ComplexPoint, v: ComplexPoint) -> tuple[complex, int]:
        """u - v in homogeneous coordinates, as (m, e) with u - v = m * 2**e and m of order 1."""
        nu, du = _homogeneous(u)
        nv, dv = _homogeneous(v)
        z, halved = nu * dv - nv * du, 0
        if not _is_finite(z):
            # du and dv are 0 or 1, so both products are finite and so is the difference of their halves.
            z, halved = (0.5 * nu) * dv - (0.5 * nv) * du, 1
        e = _exponent(z)
        return _scaled(z, -e), e + halved

    (m0, e0), (m1, e1), (m2, e2), (m3, e3) = (diff(q, q2), diff(q1, q3), diff(q, q3), diff(q1, q2))
    return _from_ratio(m0 * m1, m2 * m3, e0 + e1 - e2 - e3)


class SymmetryKind(Enum):
    """Reflections of the extended plane used to build partner states; see `symmetric_point`."""

    CONJUGATE = "conjugate"
    NEG_CONJUGATE = "neg_conjugate"
    UNIT_CIRCLE = "unit_circle"
    ANTIPODAL = "antipodal"


_REFLECTIONS = {
    SymmetryKind.CONJUGATE: (False, False),
    SymmetryKind.NEG_CONJUGATE: (True, False),
    SymmetryKind.UNIT_CIRCLE: (False, True),
    SymmetryKind.ANTIPODAL: (True, True),
}


def _reflection(kind: SymmetryKind) -> tuple[bool, bool]:
    try:
        return _REFLECTIONS[kind]
    except KeyError:
        raise TypeError(f"unknown symmetry kind: {kind!r}") from None


def symmetric_point(p: PointLike, kind: SymmetryKind) -> ComplexPoint:
    """Symmetric point of p under a reflection; `_REFLECTIONS` holds each as (negate, invert):

    CONJUGATE      (False, False)  psi -> conj(psi)     real axis
    NEG_CONJUGATE  (True,  False)  psi -> -conj(psi)    imaginary axis
    UNIT_CIRCLE    (False, True)   psi -> 1/conj(psi)   unit circle, 0 <-> INFINITY
    ANTIPODAL      (True,  True)   psi -> -1/conj(psi)  sphere antipode, 0 <-> INFINITY

    All four are involutions.  An image beyond the double range raises BadParams.
    """
    q = as_point(p)
    negate, invert = _reflection(kind)
    num, den = (c.conjugate() for c in _homogeneous(q))
    if invert:
        num, den = den, num
    return _from_ratio(-num if negate else num, den)


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
        return _from_ratio(complex(s.x, s.y), 1.0 + s.z)
    return _from_ratio(1.0 - s.z, complex(s.x, -s.y))


def stereo_lift(p: PointLike) -> SpherePoint:
    """Inverse stereographic projection onto the unit sphere.

    psi -> (2 Re psi, 2 Im psi, 1 - |psi|^2) / (1 + |psi|^2), with
    INFINITY -> (0, 0, -1).  Antipodal points of the plane lift to
    antipodal points of the sphere.  Labels whose |psi|^2 overflows lift
    to (0, 0, -1) too, which is within 2/|psi| < 1.5e-154 of their lift.
    """
    q = as_point(p)
    try:
        r2 = math.inf if q.is_infinity else q.real**2 + q.imag**2
    except OverflowError:  # float ** 2 raises where float * float gives inf
        r2 = math.inf
    if math.isinf(r2):
        return SpherePoint(0.0, 0.0, -1.0)
    z = q.value
    denom = 1.0 + r2
    return SpherePoint(2.0 * z.real / denom, 2.0 * z.imag / denom, (1.0 - r2) / denom)
