import math

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from qcs.coherent_states import (
    PureState,
    SpinJState,
    amplitude_ratio,
    canonical_phase,
    coherent,
    equal_up_to_phase,
    expand_in_antipodal_basis,
    from_bloch,
    overlap,
    spin_j_coherent,
    spin_j_overlap,
    spin_j_overlap_closed,
    symmetric_state,
)
from qcs.complex_geometry import INFINITY, SymmetryKind, symmetric_point
from qcs.errors import BadParams, DimensionMismatch, NotNormalized
from qcs.gates import coherent_generator, coherent_hadamard_basis

TOL = 1e-12

labels = st.complex_numbers(min_magnitude=0.0, max_magnitude=20.0, allow_nan=False, allow_infinity=False)


def test_pure_state_normalization_guard():
    with pytest.raises(NotNormalized):
        PureState([1.0, 1.0])
    st2 = PureState([0.6, 0.8j])
    assert math.isclose(np.linalg.norm(st2.amplitudes), 1.0, abs_tol=TOL)
    # A NaN norm fails the check too, instead of yielding an all-NaN state.
    for bad in (math.nan, math.inf):
        with pytest.raises(NotNormalized):
            PureState([bad, 1.0])
        with pytest.raises(NotNormalized):
            SpinJState(1.0, [bad, 1.0, 0.0])


def test_pure_state_dims():
    with pytest.raises(DimensionMismatch):
        PureState([1.0, 0.0, 0.0])
    assert PureState([1, 0, 0, 0]).n_qubits == 2
    assert PureState([1, 0, 0, 0, 0, 0, 0, 0]).n_qubits == 3


def test_coherent_basic_points():
    assert np.allclose(coherent(0).amplitudes, [1, 0])
    assert np.allclose(coherent(INFINITY).amplitudes, [0, 1])
    c = coherent(1)
    assert np.allclose(c.amplitudes, [1 / math.sqrt(2)] * 2)


def test_coherent_large_label_stable():
    c = coherent(1e8)
    assert math.isclose(np.linalg.norm(c.amplitudes), 1.0, abs_tol=TOL)
    assert abs(c[0]) < 1e-7


def test_from_bloch_matches_coherent():
    st_b = from_bloch(math.pi / 2, 0.0)
    assert np.allclose(st_b.amplitudes, coherent(1).amplitudes, atol=TOL)
    assert np.allclose(from_bloch(0, 0).amplitudes, [1, 0], atol=TOL)
    # south pole: all weight on |1>, phase convention e^{i phi} sin(theta/2)
    south = from_bloch(math.pi, 0.3)
    assert abs(abs(south[1]) - 1.0) < TOL


def test_amplitude_ratio_round_trip():
    p = -0.8 + 1.7j
    assert amplitude_ratio(coherent(p)).isclose(p)
    assert amplitude_ratio(coherent(INFINITY)).is_infinity


@seed(5)
@given(p=labels)
def test_antipodal_orthogonality(p):
    ket = coherent(p)
    flip = symmetric_state(p, SymmetryKind.ANTIPODAL)
    assert abs(overlap(flip, ket)) < TOL


def test_symmetric_state_fixed_value():
    anti = symmetric_state(2, SymmetryKind.ANTIPODAL)
    assert np.allclose(anti.amplitudes, np.array([-2, 1]) / math.sqrt(5), atol=TOL)


def test_symmetric_state_label_consistency():
    # each symmetric state sits at its symmetric point, up to phase
    p = 0.6 - 1.1j
    for kind in SymmetryKind:
        state = symmetric_state(p, kind)
        assert amplitude_ratio(state).isclose(symmetric_point(p, kind), tol=1e-12)


def test_symmetric_state_at_poles():
    assert np.allclose(symmetric_state(0, SymmetryKind.ANTIPODAL).amplitudes, [0, 1], atol=TOL)
    assert np.allclose(symmetric_state(INFINITY, SymmetryKind.UNIT_CIRCLE).amplitudes, [1, 0], atol=TOL)


def test_expand_in_antipodal_basis():
    target = from_bloch(math.pi / 2, 0.0)
    e1, e2 = expand_in_antipodal_basis(target, 1j)
    assert abs(e1 - (0.5 - 0.5j)) < 1e-12
    assert abs(e2 - (0.5 - 0.5j)) < 1e-12
    rebuilt = e1 * coherent(1j).amplitudes + e2 * symmetric_state(1j, SymmetryKind.ANTIPODAL).amplitudes
    assert np.allclose(rebuilt, target.amplitudes, atol=TOL)


@seed(13)
@given(p=labels, q=labels)
def test_expansion_parseval(p, q):
    target = coherent(q)
    e1, e2 = expand_in_antipodal_basis(target, p)
    assert abs(abs(e1) ** 2 + abs(e2) ** 2 - 1.0) < 1e-10


def test_spin_j_coherent_values():
    s = spin_j_coherent(1.0, 1.0)
    assert np.allclose(s.amplitudes, [0.5, 1 / math.sqrt(2), 0.5], atol=TOL)
    up = spin_j_coherent(2.5, 0.0)
    assert np.allclose(up.amplitudes, [1, 0, 0, 0, 0, 0], atol=TOL)


def test_spin_j_half_matches_qubit():
    p = 0.4 + 2.2j
    s = spin_j_coherent(0.5, p)
    assert np.allclose(s.amplitudes, coherent(p).amplitudes, atol=TOL)


def test_spin_j_bad_j():
    """Every spin-j entry point rejects a j that is not a positive half-integer, with one message."""
    for j in (0.3, 0.0, -1.5, math.nan, math.inf):
        for call in (
            lambda: spin_j_coherent(j, 1.0),
            lambda: SpinJState(j, [1.0, 0.0]),
            lambda: spin_j_overlap_closed(j, 0.5, 1.0 - 2.0j),
        ):
            with pytest.raises(ValueError, match="j must be a positive half-integer"):
                call()


def test_spin_j_overlap_example():
    val = spin_j_overlap(spin_j_coherent(0.5, 0.0), spin_j_coherent(0.5, 1.0))
    assert abs(val - 1 / math.sqrt(2)) < TOL


@seed(23)
@given(
    phi=st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    psi=st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    two_j=st.integers(min_value=1, max_value=5),
)
def test_spin_j_overlap_closed_matches_direct(phi, psi, two_j):
    j = two_j / 2.0
    direct = spin_j_overlap(spin_j_coherent(j, phi), spin_j_coherent(j, psi))
    closed = spin_j_overlap_closed(j, phi, psi)
    assert abs(direct - closed) < 1e-10


def test_spin_j_antipodal_orthogonal():
    # the spin-j lift of an antipodal pair stays orthogonal for every j
    p = 0.9 - 0.4j
    q = complex(symmetric_point(p, SymmetryKind.ANTIPODAL))
    for two_j in range(1, 6):
        j = two_j / 2.0
        assert abs(spin_j_overlap_closed(j, p, q)) < TOL


def test_overlap_rejects_mixed_kinds():
    with pytest.raises(DimensionMismatch):
        overlap(coherent(0), PureState([1, 0, 0, 0]))
    with pytest.raises(DimensionMismatch):
        spin_j_overlap(spin_j_coherent(0.5, 0), spin_j_coherent(1.0, 0))


def test_equal_up_to_phase():
    base = coherent(0.3 + 0.1j)
    rotated = PureState(base.amplitudes * np.exp(0.7j))
    assert equal_up_to_phase(base, rotated)
    assert not equal_up_to_phase(base, coherent(0.3 - 0.1j))


def test_canonical_phase_pins_largest_amplitude():
    state = PureState(np.exp(1.2j) * coherent(0.5).amplitudes)
    fixed = canonical_phase(state)
    k = int(np.argmax(np.abs(fixed.amplitudes)))
    assert abs(fixed.amplitudes[k].imag) < TOL
    assert fixed.amplitudes[k].real > 0


def test_labels_whose_modulus_overflows_raise_bad_params():
    """|psi| beyond the doubles raises BadParams in every constructor, gates included; |psi| just inside
    still works."""
    huge = complex(1.7e308, -1.7e308)
    builders = [coherent, lambda p: spin_j_coherent(0.5, p), lambda p: spin_j_overlap_closed(0.5, p, 0.5)]
    builders += [coherent_generator, coherent_hadamard_basis]
    builders += [lambda p, kind=kind: symmetric_state(p, kind) for kind in SymmetryKind]
    for build in builders:
        with pytest.raises(BadParams, match="overflows"):
            build(huge)
        build(complex(1e308, -1e308))


def test_spin_j_powers_that_overflow_raise_bad_params():
    """A finite |psi| whose 2j-th power overflows raises BadParams in the state; powers just inside
    the doubles still work, and the closed overlap, a power of a ratio of modulus <= 1, never overflows."""
    with pytest.raises(BadParams, match="overflow"):
        spin_j_coherent(1.5, 1e103)
    with pytest.raises(BadParams, match="overflow"):
        spin_j_coherent(1.5, 1e103j)
    assert abs(spin_j_overlap_closed(1.5, 1e103, 1.0) - 0.5**1.5) <= 1e-15
    assert abs(spin_j_overlap_closed(1.5, 1e60, 1e60) - 1.0) <= 1e-15
    direct = spin_j_overlap(spin_j_coherent(1.5, 1e60), spin_j_coherent(1.5, 1e60))
    assert abs(spin_j_overlap_closed(1.5, 1e60, 1e60) - direct) <= 1e-15
    state = spin_j_coherent(1.5, 1e102)
    assert abs(state.amplitudes[3] - 1.0) <= 1e-15
    assert abs(spin_j_overlap_closed(1.5, 1e51, 1e51) - 1.0) <= 1e-14
