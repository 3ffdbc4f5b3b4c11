import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qcs.coherent_states import PureState, symmetric_state
from qcs.complex_geometry import (
    INFINITY,
    ComplexPoint,
    MobiusMap,
    SpherePoint,
    SymmetryKind,
    cross_ratio,
    mobius_apply,
    stereo_lift,
    stereo_project,
    symmetric_point,
)
from qcs.errors import BadParams, DegenerateTriple, QcsError

TOL = 1e-12

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=5.0, allow_nan=False, allow_infinity=False
)


def test_point_equality_and_infinity():
    assert ComplexPoint(2 + 1j) == 2 + 1j
    assert ComplexPoint(0) == 0
    assert INFINITY.is_infinity
    assert INFINITY != ComplexPoint(1e300)
    assert complex(ComplexPoint(3 - 4j)) == 3 - 4j
    with pytest.raises(ValueError):
        complex(INFINITY)


def test_point_isclose():
    assert ComplexPoint(1.0).isclose(1.0 + 1e-14)
    assert not ComplexPoint(1.0).isclose(1.0 + 1e-9)
    assert INFINITY.isclose(INFINITY)
    assert not INFINITY.isclose(ComplexPoint(1.0))


def test_mobius_identity_and_pole():
    ident = MobiusMap(1, 0, 0, 1)
    assert ident(3 + 4j) == 3 + 4j
    hadamard = MobiusMap(-1, 1, 1, 1)
    assert hadamard(0) == 1
    assert hadamard(-1).is_infinity
    assert hadamard(INFINITY) == -1


def test_mobius_degenerate_rejected():
    with pytest.raises(ValueError):
        MobiusMap(1, 2, 2, 4)


def test_mobius_compose_inverse():
    m = MobiusMap(2, 1j, 1, 3)
    both = m.compose(m.inverse())
    for z in (0, 1, -2 + 0.5j, INFINITY):
        w = both(z)
        if isinstance(z, ComplexPoint) and z.is_infinity:
            assert w.is_infinity
        else:
            assert abs(complex(w) - z) < 1e-12


def test_cross_ratio_trivial_slots():
    p1, p2, p3 = 2 + 1j, -1.0, 0.5j
    assert cross_ratio(p1, p1, p2, p3).isclose(1.0)
    assert cross_ratio(p2, p1, p2, p3).isclose(0.0)


def test_cross_ratio_infinity_conventions():
    # one infinite reference point: drop the two factors containing it
    val = cross_ratio(2.0, 0.0, 1.0, INFINITY)
    assert val.isclose((2.0 - 1.0) / (0.0 - 1.0))
    assert cross_ratio(INFINITY, 0.0, 1.0, 2.0).isclose((0.0 - 2.0) / (0.0 - 1.0))


def test_cross_ratio_degenerate():
    with pytest.raises(DegenerateTriple):
        cross_ratio(1.0, 2.0, 2.0, 3.0)


@seed(7)
@given(z=finite_complex, a=finite_complex, b=finite_complex)
def test_cross_ratio_mobius_invariant(z, a, b):
    pts = [z, a, b, z + 1.5, a - 2.25j]
    p, p1, p2, p3 = pts[0], pts[1], pts[2], pts[3]
    # skip degenerate draws; separation keeps the quotient well conditioned
    if min(abs(u - v) for i, u in enumerate((p1, p2, p3)) for v in (p1, p2, p3)[i + 1:]) < 1e-3:
        return
    m = MobiusMap(1.2, 0.3 - 1j, 0.4j, 1.0)
    before = cross_ratio(p, p1, p2, p3)
    after = cross_ratio(m(p), m(p1), m(p2), m(p3))
    if before.is_infinity or after.is_infinity:
        assert before.is_infinity and after.is_infinity
    else:
        assert abs(complex(before) - complex(after)) < 1e-8 * (1 + abs(complex(before)))


def test_symmetric_point_cases():
    z = 0.7 - 0.3j
    assert symmetric_point(z, SymmetryKind.CONJUGATE).isclose(np.conj(z))
    assert symmetric_point(z, SymmetryKind.NEG_CONJUGATE).isclose(-np.conj(z))
    assert symmetric_point(z, SymmetryKind.UNIT_CIRCLE).isclose(1 / np.conj(z))
    assert symmetric_point(z, SymmetryKind.ANTIPODAL).isclose(-1 / np.conj(z))


def test_symmetric_point_zero_infinity_swap():
    for kind in (SymmetryKind.UNIT_CIRCLE, SymmetryKind.ANTIPODAL):
        assert symmetric_point(0, kind).is_infinity
        assert symmetric_point(INFINITY, kind) == 0
    assert symmetric_point(INFINITY, SymmetryKind.CONJUGATE).is_infinity
    assert symmetric_point(INFINITY, SymmetryKind.NEG_CONJUGATE).is_infinity


@seed(11)
@given(z=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False))
def test_symmetric_point_involutions(z):
    for kind in SymmetryKind:
        twice = symmetric_point(symmetric_point(z, kind), kind)
        assert twice.isclose(z, tol=1e-9 * (1 + abs(z)))


def test_symmetric_point_composition():
    # conjugate, negate-conjugate, invert on the circle: lands on the antipode
    z = 1.4 + 0.6j
    chained = symmetric_point(z, SymmetryKind.CONJUGATE)
    chained = symmetric_point(chained, SymmetryKind.NEG_CONJUGATE)
    chained = symmetric_point(chained, SymmetryKind.UNIT_CIRCLE)
    assert chained.isclose(symmetric_point(z, SymmetryKind.ANTIPODAL))


# Each kind's documented map on finite nonzero labels, and its image of 0
# and INFINITY: the axis reflections fix both, the circle reflections swap them.
DOCUMENTED_MAPS = {
    SymmetryKind.CONJUGATE: (lambda z: z.conjugate(), False),
    SymmetryKind.NEG_CONJUGATE: (lambda z: -z.conjugate(), False),
    SymmetryKind.UNIT_CIRCLE: (lambda z: 1.0 / z.conjugate(), True),
    SymmetryKind.ANTIPODAL: (lambda z: -1.0 / z.conjugate(), True),
}
AXIS_LABELS = [complex(v, 0.0) for v in (1.0, -1.0, 2.5, -0.3, 1e-5, 7e4)] + [
    complex(0.0, v) for v in (1.0, -1.0, 0.4, -3.5, 2e-7, 1e5)] + [complex(-0.0, 1.5), complex(2.0, -0.0)]
RANDOM_LABELS = [complex(x, y) for x, y in np.random.default_rng(19).uniform(-4.0, 4.0, (300, 2)).tolist()]
SPECIAL_LABELS = [ComplexPoint(0.0), ComplexPoint(-0.0), ComplexPoint(complex(0.0, -0.0)), INFINITY]


@pytest.mark.parametrize("kind", list(SymmetryKind))
def test_symmetric_point_is_its_documented_involution(kind):
    reflect, swaps = DOCUMENTED_MAPS[kind]
    for q in SPECIAL_LABELS:
        expected = (ComplexPoint(0.0) if q.is_infinity else INFINITY) if swaps else q
        assert symmetric_point(q, kind) == expected
        assert symmetric_point(expected, kind) == q
    for z in AXIS_LABELS + RANDOM_LABELS:
        image = symmetric_point(z, kind)
        assert image == reflect(z)
        back = complex(symmetric_point(image, kind))
        if swaps:
            assert abs(back - z) <= 1e-15 * abs(z)
        else:
            assert back == z


@pytest.mark.parametrize("kind", list(SymmetryKind))
def test_symmetric_state_is_its_documented_amplitudes(kind):
    """Bit for bit, signed zeros included: (1, +-conj psi) / d or (+-conj psi, 1) / d
    for finite labels, and the basis state at the symmetric point where that is 0 or INFINITY."""
    _, swaps = DOCUMENTED_MAPS[kind]
    negate = kind in (SymmetryKind.NEG_CONJUGATE, SymmetryKind.ANTIPODAL)
    for q in SPECIAL_LABELS + AXIS_LABELS + RANDOM_LABELS:
        q = ComplexPoint(q)
        image = symmetric_point(q, kind)
        if q.is_infinity or image.is_infinity:
            expected = [0.0, 1.0] if image.is_infinity else [1.0, 0.0]
        else:
            z, d = q.value, math.hypot(1.0, abs(q.value))
            c = -z.conjugate() if negate else z.conjugate()
            expected = [c / d, 1.0 / d] if swaps else [1.0 / d, c / d]
        assert symmetric_state(q, kind).amplitudes.tobytes() == PureState(expected).amplitudes.tobytes()


@pytest.mark.parametrize("label", [0.0, 1.5 - 2j, INFINITY])
@pytest.mark.parametrize("kind", ["conjugate", "ANTIPODAL", 3, None])
def test_unknown_symmetry_kind_raises_type_error(label, kind):
    with pytest.raises(TypeError):
        symmetric_point(label, kind)
    with pytest.raises(TypeError):
        symmetric_state(label, kind)


def test_sphere_point_validation():
    with pytest.raises(ValueError):
        SpherePoint(1.0, 1.0, 1.0)
    north = SpherePoint(0.0, 0.0, 1.0)
    assert north.antipode() == SpherePoint(0.0, 0.0, -1.0)


def test_sphere_from_angles():
    p = SpherePoint.from_angles(math.pi / 3, 0.8)
    assert math.isclose(p.theta, math.pi / 3, abs_tol=TOL)
    assert math.isclose(p.phi, 0.8, abs_tol=TOL)


def test_stereo_poles():
    assert stereo_project(SpherePoint(0.0, 0.0, 1.0)) == 0
    assert stereo_project(SpherePoint(0.0, 0.0, -1.0)).is_infinity
    south = stereo_lift(INFINITY)
    assert south == SpherePoint(0.0, 0.0, -1.0)


@seed(3)
@given(z=st.complex_numbers(min_magnitude=0.0, max_magnitude=50.0, allow_nan=False, allow_infinity=False))
def test_stereo_round_trip(z):
    back = stereo_project(stereo_lift(z))
    assert abs(complex(back) - z) < 1e-10 * (1 + abs(z))


def test_stereo_antipode_is_antipodal_point():
    z = 0.7 - 0.3j
    flipped = stereo_project(stereo_lift(z).antipode())
    assert flipped.isclose(symmetric_point(z, SymmetryKind.ANTIPODAL), tol=1e-12)


def test_mobius_apply_helper():
    m = MobiusMap(0, 1, 1, 0)  # z -> 1/z
    assert mobius_apply(m, 2.0).isclose(0.5)
    assert mobius_apply(m, 0).is_infinity
    assert mobius_apply(m, INFINITY) == 0


EXTREMES = [0.0, 5e-324, -5e-324, 1e-300, 1e300, 1.7e308, -1.7e308]
extreme_points = st.one_of(
    st.just(INFINITY),
    st.builds(complex, st.sampled_from(EXTREMES), st.sampled_from(EXTREMES)),
)


def _value_or_qcs_error(call):
    """Run call with every warning an error: it returns, or raises a QcsError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except QcsError:
            pass


@seed(19)
@settings(max_examples=300, deadline=None)
@given(p=extreme_points, q=extreme_points, r=extreme_points, s=extreme_points,
       coefficients=st.lists(st.builds(complex, st.sampled_from(EXTREMES + [1.0, -1.0]),
                                       st.sampled_from(EXTREMES + [1.0, -1.0])), min_size=4, max_size=4))
def test_extreme_inputs_return_a_value_or_raise_qcs_error(p, q, r, s, coefficients):
    for kind in SymmetryKind:
        _value_or_qcs_error(lambda: symmetric_point(p, kind))
        _value_or_qcs_error(lambda: symmetric_state(p, kind))
    _value_or_qcs_error(lambda: stereo_project(stereo_lift(p)))
    _value_or_qcs_error(lambda: cross_ratio(p, q, r, s))
    # A degenerate map, or one whose determinant overflows, raises BadParams when built.
    _value_or_qcs_error(lambda: mobius_apply(MobiusMap(*coefficients), p))


def test_mobius_determinant_is_checked_without_overflow():
    m = MobiusMap(1.7e308, 0, 0, 1 + 1j)  # |ad - bc| overflows; its components do not
    assert m.determinant == complex(1.7e308, 1.7e308)
    assert m(1.0) == complex(1.7e308 / 2, -1.7e308 / 2)
    # ad - bc overflows, so it is judged on a copy scaled by powers of two; the coefficients are kept.
    scaled_identity = MobiusMap(1e200, 0, 0, 1e200)
    assert (scaled_identity.a, scaled_identity.d) == (1e200, 1e200)
    assert scaled_identity(3.0 - 2.0j) == 3.0 - 2.0j
    composed = scaled_identity.compose(MobiusMap(1e100, 0, 0, 1e100))
    assert (composed.a, composed.b, composed.c, composed.d) == (1e300, 0, 0, 1e300)
    with pytest.raises(BadParams, match="degenerate"):
        MobiusMap(*(1.7e308,) * 4)
    with pytest.raises(BadParams, match="beyond the double range"):
        MobiusMap(math.inf, 0, 0, 1)
    with pytest.raises(BadParams, match="beyond the double range"):
        scaled_identity.compose(scaled_identity)  # its coefficients, 1e400, overflow
    with pytest.raises(BadParams, match="degenerate"):
        MobiusMap(1e-10, 0, 0, 1e-10)


@pytest.mark.parametrize("points, expected", [
    ((1e160, 2e160, 1, 2), 1.0),  # each difference rounds to its far point
    ((1e200, -1e200, 1, 2), 1.0),
    ((0, 1, 1e200, 1e-200), -1e200),
    ((1e-200, 2e-200, 3e-200, 4e-200), (-2 * -2) / (-3 * -1)),
    ((1.7e308, 0, -1.7e308, 1), (2 * -1) / ((1 - 1 / 1.7e308) * 1.7e308)),  # 1.7e308 - -1.7e308 overflows
    ((-1.7e308j, 1, 1.7e308j, 2), -2j / 1.7e308),  # 2 / 1.7e308**2 below it is beyond the doubles
])
def test_cross_ratio_of_far_or_near_points_is_its_value(points, expected):
    assert cross_ratio(*points).isclose(expected, tol=1e-15 * abs(expected))


@pytest.mark.parametrize("call", [
    lambda: symmetric_point(1e-320, SymmetryKind.UNIT_CIRCLE),
    lambda: symmetric_point(1e-320j, SymmetryKind.ANTIPODAL),
    lambda: stereo_project(SpherePoint(1e-320, 0.0, -1.0)),
    lambda: mobius_apply(MobiusMap(1e200, 0, 0, 1e-200), 1e200),
])
def test_ratios_beyond_the_double_range_raise_bad_params(call):
    with pytest.raises(BadParams, match="beyond the double range"):
        call()


@pytest.mark.parametrize("label", [1e200, 1e300 + 1e300j, -1.7e308j, 1.3e154 + 1.3e154j])
def test_labels_whose_square_overflows_lift_to_the_south_pole(label):
    assert stereo_lift(label) == SpherePoint(0.0, 0.0, -1.0)
    assert stereo_project(stereo_lift(label)).is_infinity
