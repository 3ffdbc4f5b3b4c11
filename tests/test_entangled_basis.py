import math

import numpy as np
import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

from qcs.coherent_states import coherent, overlap
from qcs.errors import BadParams
from qcs.spin_models import CouplingParams, energy_surface
from qcs.entangled_basis import (
    STATE_IDS,
    bell_states,
    coherent_basis_2q,
    entangled_basis_2q,
    entangled_basis_3q,
    entangled_state,
    expand_in_entangled_basis,
    ghz_state,
    product_state,
    reconstruct_from_expansion,
    tensor,
    w_state,
)

TOL = 1e-12

labels = st.complex_numbers(min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def gram(states):
    mat = np.array([s.amplitudes for s in states])
    return mat.conj() @ mat.T


def test_coherent_basis_orthonormal():
    g = gram(coherent_basis_2q(0.7 + 0.2j))
    assert np.allclose(g, np.eye(4), atol=TOL)


@seed(17)
@given(p=labels)
def test_entangled_basis_2q_orthonormal(p):
    g = gram(entangled_basis_2q(p))
    assert np.max(np.abs(g - np.eye(4))) < 1e-10


def test_entangled_basis_3q_orthonormal_pair():
    plus, minus = entangled_basis_3q(1.3 - 0.8j)
    assert abs(overlap(plus, minus)) < TOL
    assert math.isclose(np.linalg.norm(plus.amplitudes), 1.0, abs_tol=TOL)
    assert math.isclose(np.linalg.norm(minus.amplitudes), 1.0, abs_tol=TOL)


def test_two_qubit_component_formulas():
    p = 0.5 + 0.2j
    n = math.sqrt(2.0) * (1.0 + abs(p) ** 2)
    pc = np.conj(p)
    expected = {
        "P+": np.array([1 + pc**2, p - pc, p - pc, 1 + p**2]) / n,
        "P-": np.array([1 - pc**2, p + pc, p + pc, -1 + p**2]) / n,
        "G+": np.array([-2 * pc, 1 - abs(p) ** 2, 1 - abs(p) ** 2, 2 * p]) / n,
        "G-": np.array([0, 1 + abs(p) ** 2, -(1 + abs(p) ** 2), 0]) / n,
    }
    for sid, ref in expected.items():
        got = entangled_state(sid, p).amplitudes
        assert np.max(np.abs(got - ref)) < TOL, sid


def test_singlet_is_label_independent():
    a = entangled_state("G-", 0.3 + 3.0j).amplitudes
    b = entangled_state("G-", -5.0).amplitudes
    assert np.max(np.abs(a - b)) < TOL


def test_bell_limits_at_zero():
    bells = bell_states()
    pairs = [("P+", 0), ("G+", 1), ("P-", 2), ("G-", 3)]
    for sid, k in pairs:
        ov = overlap(bells[k], entangled_state(sid, 0))
        assert abs(abs(ov) - 1.0) < TOL, sid


def test_ghz_w_limits_at_zero():
    assert abs(abs(overlap(ghz_state(), entangled_state("PG+", 0))) - 1.0) < TOL
    assert abs(abs(overlap(w_state(), entangled_state("PG-", 0))) - 1.0) < TOL


def test_w_state_components():
    w = w_state()
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1 / math.sqrt(3)
    assert np.allclose(w.amplitudes, expected, atol=TOL)


def test_unknown_state_id():
    with pytest.raises(ValueError):
        entangled_state("Q+", 0)


def test_unknown_state_id_is_bad_params():
    """An unknown state id is a typed BadParams (still a ValueError), from the state and the surface alike."""
    params = CouplingParams.xyz(jx=1.0, jy=0.5, jz=0.2)
    for call in (lambda: entangled_state("XX", 0), lambda: energy_surface(params, "XX", (-1, 1, -1, 1), 0.5)):
        with pytest.raises(BadParams, match="unknown state id 'XX'"):
            call()


wide_labels = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)


def _kronecker_oracle(sid, psi):
    """Member sid at label psi from explicit Kronecker products of [1, psi]/d and [-conj psi, 1]/d."""
    d = math.hypot(1.0, abs(psi))
    k = np.array([1.0, psi]) / d
    a = np.array([-np.conj(psi), 1.0]) / d
    kk, ka, ak, aa = np.kron(k, k), np.kron(k, a), np.kron(a, k), np.kron(a, a)
    return {
        "P+": (kk + aa) / math.sqrt(2.0),
        "P-": (kk - aa) / math.sqrt(2.0),
        "G+": (ka + ak) / math.sqrt(2.0),
        "G-": (ka - ak) / math.sqrt(2.0),
        "PG+": (np.kron(kk, k) + np.kron(aa, a)) / math.sqrt(2.0),
        "PG-": (np.kron(kk, a) + np.kron(ka, k) + np.kron(ak, k)) / math.sqrt(3.0),
    }[sid]


@seed(41)
@given(labels=st.lists(wide_labels, min_size=1, max_size=6))
@example(labels=[0j, 1e150, -1e150j, 1e-150 + 1e-150j])
def test_entangled_state_matches_kronecker_oracle(labels):
    """`entangled_state`, the one amplitude route, against the Kronecker oracle."""
    for sid in STATE_IDS:
        for p in labels:
            assert np.max(np.abs(entangled_state(sid, p).amplitudes - _kronecker_oracle(sid, p))) <= TOL, (sid, p)


def test_state_ids_cover_dispatcher():
    for sid in STATE_IDS:
        st_ = entangled_state(sid, 0.4 - 0.9j)
        assert st_.dim in (4, 8)


def test_product_state_is_tensor():
    left, right = 0.5, -2.0 + 1j
    direct = product_state(left, right)
    built = tensor(coherent(left), coherent(right))
    assert np.allclose(direct.amplitudes, built.amplitudes, atol=TOL)


@seed(29)
@given(p=labels)
def test_expansion_round_trip(p):
    state = entangled_state("P+", 0.25 - 1.5j)
    exp = expand_in_entangled_basis(state, p)
    back = reconstruct_from_expansion(exp, p)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10
    assert abs(exp.weight() - 1.0) < 1e-10


def test_expansion_coefficients_of_basis_members():
    p = 1.1 + 0.3j
    exp = expand_in_entangled_basis(entangled_state("G+", p), p)
    coeffs = np.abs(exp.coefficients())
    assert np.allclose(coeffs, [0, 0, 1, 0], atol=TOL)
