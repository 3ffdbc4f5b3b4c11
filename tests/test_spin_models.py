import math
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcs import spin_models as sm
from qcs.entangled_basis import STATE_IDS, entangled_state
from qcs.errors import BadParams, FormulaUnavailable, InfinitePoint, NoConvergence
from qcs.operators import embed_pair, sigma_x, sigma_y, sigma_z, spin_minus, spin_plus, spin_z
from qcs.spin_models import (
    MIN,
    CouplingParams,
    energy_surface,
    hamiltonian,
    q_symbol_closed,
    q_symbol_direct,
    q_symbol_pair,
)
from qcs.complex_geometry import INFINITY

TOL = 1e-10

coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def test_coupling_params_constructors():
    xxx = CouplingParams.xxx(j=1.3, hbar=0.8)
    assert xxx.model == "XXX" and xxx.j == 1.3

    xxz = CouplingParams.xxz(j=1.0, delta=-2.0)
    assert math.isclose(xxz.jz, -2.0, abs_tol=1e-15)
    xxz2 = CouplingParams.xxz(j=1.0, jz=-2.0)
    assert math.isclose(xxz2.delta, -2.0, abs_tol=1e-15)

    xyz = CouplingParams.xyz(jx=1.0, jy=0.5, jz=-0.25)
    assert math.isclose(xyz.j_plus, 0.75, abs_tol=1e-15)
    assert math.isclose(xyz.j_minus, 0.25, abs_tol=1e-15)
    xyz2 = CouplingParams.xyz(j_plus=0.75, j_minus=0.25, jz=-0.25)
    assert math.isclose(xyz2.jx, 1.0, abs_tol=1e-15)
    assert math.isclose(xyz2.jy, 0.5, abs_tol=1e-15)


def test_coupling_params_guards():
    with pytest.raises(BadParams):
        CouplingParams.xxz(j=1.0)  # neither delta nor jz
    with pytest.raises(BadParams):
        CouplingParams.xyz(jx=1.0, jy=1.0, jz=0.0, j_plus=1.0)
    with pytest.raises(BadParams):
        CouplingParams.xxx(j=1.0, hbar=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coupling_params_reject_non_finite(bad):
    for build in (
        lambda: CouplingParams.xxx(j=bad),
        lambda: CouplingParams.xxx(j=1.0, hbar=bad),
        lambda: CouplingParams.xxz(j=bad, delta=1.0),
        lambda: CouplingParams.xxz(j=1.0, delta=bad),
        lambda: CouplingParams.xxz(j=1.0, jz=bad),
        lambda: CouplingParams.xyz(jx=bad, jy=1.0),
        lambda: CouplingParams.xyz(jx=1.0, jy=bad),
        lambda: CouplingParams.xyz(jx=1.0, jy=1.0, jz=bad),
        lambda: CouplingParams.xyz(j_plus=bad, j_minus=0.0),
    ):
        with pytest.raises(BadParams):
            build()


def test_hamiltonians_hermitian():
    for params in (
        CouplingParams.xxx(j=0.7),
        CouplingParams.xxz(j=1.0, delta=-2.0),
        CouplingParams.xyz(jx=1.1, jy=-0.4, jz=0.9),
    ):
        for n, bonds in ((2, "all-pairs"), (3, "chain"), (3, "all-pairs")):
            h = hamiltonian(params, n_qubits=n, bonds=bonds)
            assert np.max(np.abs(h - h.conj().T)) == 0.0
            assert h.shape == (2**n, 2**n)
            assert not h.flags.writeable


def test_hamiltonian_bond_choice_matters():
    params = CouplingParams.xyz(jx=1.0, jy=0.5, jz=0.2)
    chain = hamiltonian(params, n_qubits=3, bonds="chain")
    full = hamiltonian(params, n_qubits=3, bonds="all-pairs")
    assert np.max(np.abs(chain - full)) > 0.1


def _hamiltonian_term_by_term(params, n_qubits, bonds):
    """Reference: every term's Kronecker product embedded afresh, bond by bond."""
    hb = params.hbar
    if params.model == "XYZ":
        terms = [(sigma_x(), sigma_x(), 0.5 * params.jx), (sigma_y(), sigma_y(), 0.5 * params.jy),
                 (sigma_z(), sigma_z(), 0.5 * params.jz)]
    else:
        zz = -2.0 * params.j if params.model == "XXX" else 2.0 * params.delta
        terms = [(spin_plus(hb), spin_minus(hb), -params.j), (spin_minus(hb), spin_plus(hb), -params.j),
                 (spin_z(hb), spin_z(hb), zz)]
    pairs = [(0, 1)] if n_qubits == 2 else [(0, 1), (1, 2)] if bonds == "chain" else [(0, 1), (0, 2), (1, 2)]
    h = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for i, j in pairs:
        for left, right, coeff in terms:
            h += coeff * embed_pair(left, right, i, j, n_qubits)
    return h


@seed(71)
@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(["XXX", "XXZ", "XYZ"]),
    j=st.tuples(coords, coords, coords),
    hbar=st.floats(1e-3, 10.0),
    shape=st.sampled_from([(2, "all-pairs"), (3, "chain"), (3, "all-pairs")]),
)
def test_hamiltonian_from_cached_terms_is_byte_identical(model, j, hbar, shape):
    """H summed from the cached embedded terms has the bytes of a fresh term-by-term build."""
    if model == "XXX":
        params = CouplingParams.xxx(j=j[0], hbar=hbar)
    elif model == "XXZ":
        params = CouplingParams.xxz(j=j[0], delta=j[1], hbar=hbar)
    else:
        params = CouplingParams.xyz(jx=j[0], jy=j[1], jz=j[2], hbar=hbar)
    n, bonds = shape
    h = hamiltonian(params, n, bonds)
    assert h.tobytes() == _hamiltonian_term_by_term(params, n, bonds).tobytes()
    with pytest.raises(ValueError):
        h[0, 0] = 1.0
    for bond in sm._embedded_terms(params.model, n, bonds):
        for op in bond:
            with pytest.raises(ValueError):
                op[0, 0] = 1.0


def test_q_symbol_xxx_constant():
    params = CouplingParams.xxx(j=1.3, hbar=0.8)
    expected = -1.3 * 0.8**2 / 2.0
    for p in (0.0, 1.0, -0.5 + 2.0j, 3.0j):
        assert abs(q_symbol_direct(params, "P+", p) - expected) < TOL
        assert abs(q_symbol_closed(params, "P+", p) - expected) < TOL


def test_q_symbol_g_minus_constant():
    params = CouplingParams.xyz(jx=0.7, jy=0.3, jz=-1.1)
    expected = -(params.jz / 2.0 + params.j_plus)
    for p in (0.0, 2.0 + 1.0j, -0.3j):
        assert abs(q_symbol_direct(params, "G-", p) - expected) < TOL


def test_q_symbol_known_values():
    # XYZ at the origin reduces to J- + Jz/2 for P+
    params = CouplingParams.xyz(j_plus=1.0, j_minus=1.5, jz=-4.0)
    assert abs(q_symbol_closed(params, "P+", 0.0) - (1.5 - 2.0)) < TOL
    # G+ vanishes on the unit circle at angle pi/4 when only J+ couples
    circ = CouplingParams.xyz(j_plus=1.0, j_minus=0.0, jz=0.0)
    p = np.exp(1j * np.pi / 4)
    assert abs(q_symbol_closed(circ, "G+", p)) < TOL


@seed(31)
@settings(max_examples=60)
@given(x=coords, y=coords)
def test_closed_matches_direct_two_qubit(x, y):
    params = CouplingParams.xyz(jx=1.1, jy=-0.4, jz=0.9)
    p = complex(x, y)
    for sid in ("P+", "P-", "G+", "G-"):
        direct = q_symbol_direct(params, sid, p)
        closed = q_symbol_closed(params, sid, p)
        assert abs(direct - closed) < TOL, sid


@seed(37)
@settings(max_examples=60)
@given(x=coords, y=coords)
def test_closed_matches_direct_three_qubit_chain(x, y):
    params = CouplingParams.xyz(jx=1.1, jy=-0.4, jz=0.9)
    p = complex(x, y)
    for sid in ("PG+", "PG-"):
        direct = q_symbol_direct(params, sid, p, bonds="chain")
        closed = q_symbol_closed(params, sid, p)
        assert abs(direct - closed) < TOL, sid


def test_q_symbol_pair_reports_xxz_gap():
    params = CouplingParams.xxz(j=1.0, jz=-2.0)
    direct, closed, gap = q_symbol_pair(params, "P+", 0.0)
    assert abs(direct - closed) == pytest.approx(abs(gap), abs=1e-15)
    assert abs(gap) > 1.0  # the two formulations genuinely disagree


def test_q_symbol_closed_unavailable():
    with pytest.raises(FormulaUnavailable):
        q_symbol_closed(CouplingParams.xxx(j=1.0), "G+", 0.0)
    with pytest.raises(FormulaUnavailable):
        q_symbol_closed(CouplingParams.xxz(j=1.0, delta=0.5), "P-", 0.0)


@pytest.mark.parametrize("source", ["direct", "closed"])
def test_both_surface_sources_check_state_id_and_bonds(source):
    params = CouplingParams.xyz(jx=1.0, jy=0.5, jz=0.2)
    with pytest.raises(ValueError, match="unknown state id 'XX'"):
        energy_surface(params, "XX", (-1, 1, -1, 1), 0.5, source=source)
    with pytest.raises(BadParams, match="unknown bond topology 'bogus'"):
        energy_surface(params, "P+", (-1, 1, -1, 1), 0.5, source=source, bonds="bogus")
    with pytest.raises(BadParams, match="unknown bond topology 'bogus'"):
        sm.refine_extremum(params, "PG+", (0.0, 0.0), source=source, bonds="bogus")


def test_closed_route_keeps_formula_unavailable_for_valid_pairs():
    with pytest.raises(ValueError, match="unknown state id 'XX'"):
        q_symbol_closed(CouplingParams.xyz(jx=1.0, jy=0.5, jz=0.2), "XX", 0.5)
    with pytest.raises(FormulaUnavailable):
        energy_surface(CouplingParams.xxx(j=1.0), "G+", (-1, 1, -1, 1), 0.5, source="closed")
    with pytest.raises(FormulaUnavailable):
        energy_surface(CouplingParams.xxz(j=1.0, jz=0.5), "PG-", (-1, 1, -1, 1), 0.5, source="closed",
                       bonds="chain")


def test_q_symbol_infinite_label():
    with pytest.raises(InfinitePoint):
        q_symbol_closed(CouplingParams.xxx(j=1.0), "P+", INFINITY)


def test_q_symbol_direct_is_expectation():
    params = CouplingParams.xyz(jx=0.9, jy=0.2, jz=-0.7)
    p = 0.4 - 1.1j
    state = entangled_state("P-", p)
    h = hamiltonian(params, n_qubits=2)
    expected = float(np.real(np.vdot(state.amplitudes, h @ state.amplitudes)))
    assert abs(q_symbol_direct(params, "P-", p) - expected) < 1e-14


def test_surface_two_minima():
    params = CouplingParams.xxz(j=1.0, jz=-2.0)
    grid = energy_surface(params, "P+", window=(-3, 3, -3, 3), step=0.05, source="closed")
    kinds = sorted(e.kind for e in grid.extrema)
    assert kinds == ["MIN", "MIN"]
    for e in grid.extrema:
        assert abs(e.x) < 1e-6
        assert abs(abs(e.y) - 1.0) < 1e-6
        assert abs(e.value + 4.0) < 1e-9
    ys = sorted(e.y for e in grid.extrema)
    assert abs(ys[0] + ys[1]) < 1e-6  # mirror pair in y


def test_surface_four_extrema_three_qubit():
    params = CouplingParams.xyz(j_plus=-1.0, j_minus=-1.0, jz=-1.0)
    grid = energy_surface(params, "PG+", window=(-3, 3, -3, 3), step=0.05, source="direct", bonds="chain")
    kinds = sorted(e.kind for e in grid.extrema)
    assert kinds == ["MAX", "MAX", "MIN", "MIN"]
    minima = [e for e in grid.extrema if e.kind == "MIN"]
    maxima = [e for e in grid.extrema if e.kind == "MAX"]
    for e in minima:
        assert abs(abs(e.x) - 1.0) < 1e-6 and abs(e.y) < 1e-6
        assert abs(e.value + 2.0) < 1e-9
    for e in maxima:
        assert abs(e.x) < 1e-6 and abs(abs(e.y) - 1.0) < 1e-6
        assert abs(e.value) < 1e-9


def test_surface_constant_flag():
    grid = energy_surface(CouplingParams.xxx(j=1.0), "P+", window=(-2, 2, -2, 2), step=0.25)
    assert grid.constant
    assert grid.extrema == ()
    assert np.allclose(grid.values, -0.5, atol=1e-12)


def test_surface_axes_and_shape():
    grid = energy_surface(
        CouplingParams.xyz(jx=1.0, jy=0.5, jz=0.0), "P+", window=(-1, 1, 0, 1), step=0.5, refine=False
    )
    assert np.allclose(grid.xs, [-1, -0.5, 0, 0.5, 1])
    assert np.allclose(grid.ys, [0, 0.5, 1])
    assert grid.values.shape == (3, 5)


def test_surface_bad_window():
    with pytest.raises(BadParams):
        energy_surface(CouplingParams.xxx(j=1.0), "P+", window=(1, -1, 0, 1), step=0.5)
    with pytest.raises(BadParams):
        energy_surface(CouplingParams.xxx(j=1.0), "P+", window=(-1, 1, -1, 1), step=0.0)
    for window, step in (
        ((0.0, math.inf, 0.0, 1.0), 0.5),
        ((math.nan, 1.0, 0.0, 1.0), 0.5),
        ((0.0, 1.0, -math.inf, 1.0), 0.5),
        ((0.0, 1.0, 0.0, 1.0), math.inf),
        ((0.0, 1.0, 0.0, 1.0), math.nan),
    ):
        with pytest.raises(BadParams):
            energy_surface(CouplingParams.xxx(j=1.0), "P+", window=window, step=step)


couplings = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def _oracle_kernel(params, state_id, source, bonds):
    """The scalar routes in the kernel's calling form: one q_symbol_direct/closed call per label."""
    if source == "direct":
        scalar = lambda x, y: q_symbol_direct(params, state_id, complex(x, y), bonds)
    else:
        scalar = lambda x, y: q_symbol_closed(params, state_id, complex(x, y))
    return np.vectorize(scalar, otypes=[float])


@seed(43)
@settings(max_examples=25, deadline=None)
@given(
    j=st.tuples(couplings, couplings, couplings),
    corner=st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
    step=st.floats(0.01, 3.0),
)
def test_surface_grid_matches_scalar_routes(j, corner, step):
    """Every node of the array kernel equals the scalar q_symbol_direct/closed oracle."""
    jx, jy, jz = j
    models = (
        CouplingParams.xyz(jx=jx, jy=jy, jz=jz),
        CouplingParams.xxz(j=jx, delta=jz),
        CouplingParams.xxx(j=jy, hbar=1.0 + abs(jz)),
    )
    window = (corner[0], corner[0] + 3.0 * step, corner[1], corner[1] + 2.0 * step)
    for params in models:
        for sid in STATE_IDS:
            for bonds in ("all-pairs", "chain"):
                for source in ("direct", "closed"):
                    f = _oracle_kernel(params, sid, source, bonds)
                    try:
                        grid = energy_surface(params, sid, window, step, source, bonds, refine=False)
                    except FormulaUnavailable:
                        with pytest.raises(FormulaUnavailable):
                            q_symbol_closed(params, sid, 0.0)
                        continue
                    assert grid.values.shape == (grid.ys.size, grid.xs.size) == (3, 4)
                    for i, y in enumerate(grid.ys):
                        for k, x in enumerate(grid.xs):
                            assert abs(grid.values[i, k] - f(x, y)) <= 1e-12, (params, sid, bonds, source)


@seed(61)
@settings(max_examples=40, deadline=None)
@given(
    j=st.tuples(couplings, couplings, couplings),
    log_radius=st.floats(-150.0, 150.0),
    angles=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=6),
)
@example(j=(1.1, -0.4, 0.9), log_radius=-150.0, angles=[0.0, 0.3, -2.0])
@example(j=(1.1, -0.4, 0.9), log_radius=150.0, angles=[0.0, 0.3, -2.0])
def test_q_symbols_lie_within_spectrum(j, log_radius, angles):
    """Direct Q symbols are expectations of H, so both routes stay inside [lambda_min, lambda_max].

    Each label comes with its antipode -1/conj(psi) and two near-antipodal
    partners -(1 + eps)/conj(psi).
    """
    jx, jy, jz = j
    models = (
        CouplingParams.xyz(jx=jx, jy=jy, jz=jz),
        CouplingParams.xxz(j=jx, delta=jz),
        CouplingParams.xxx(j=jy, hbar=1.0 + abs(jz)),
    )
    psi = 10.0**log_radius * np.exp(1j * np.array(angles))
    psi = np.concatenate([psi] + [-(1.0 + eps) / psi.conj() for eps in (0.0, 1e-12, 1e-8)])
    for params in models:
        for sid in STATE_IDS:
            for bonds in ("all-pairs", "chain"):
                spectrum = np.linalg.eigvalsh(hamiltonian(params, 3 if sid.startswith("PG") else 2, bonds))
                slack = 1e-12 * (1.0 + np.max(np.abs(spectrum)))
                kernel = sm._surface_function(params, sid, "direct", bonds)(psi.real, psi.imag)
                scalar = np.array([q_symbol_direct(params, sid, p, bonds) for p in psi])
                for values in (kernel, scalar):
                    assert spectrum[0] - slack <= values.min(), (params, sid, bonds)
                    assert values.max() <= spectrum[-1] + slack, (params, sid, bonds)


def test_surface_repeat_runs_identical():
    params = CouplingParams.xyz(j_plus=-1.0, j_minus=-1.0, jz=-1.0)
    for source in ("direct", "closed"):
        runs = [
            energy_surface(params, "PG+", window=(-2, 2, -2, 2), step=0.1, source=source, bonds="chain")
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].values, runs[1].values)
        assert runs[0].extrema == runs[1].extrema
        assert len(runs[0].extrema) == 4


def _grid_seeds_loop(values):
    """Reference: the node-by-node seed scan the array route replaces."""
    seeds = []
    ny, nx = values.shape
    for i in range(1, ny - 1):
        for j in range(1, nx - 1):
            v = values[i, j]
            patch = values[i - 1 : i + 2, j - 1 : j + 2]
            margin = sm.FLATNESS_REL * (1.0 + abs(v))
            others = np.delete(patch.reshape(-1), 4)
            if v < others.min() - margin:
                seeds.append((i, j, sm.MIN))
            elif v > others.max() + margin:
                seeds.append((i, j, sm.MAX))
    return seeds


# Few distinct levels, some a hair apart, so ties and the noise margin matter.
levels = st.sampled_from([-1.0, -1.0 + 1e-11, 0.0, 1e-12, 0.5, 1.0, 1.0 + 1e-9, 2.0])


@seed(47)
@settings(max_examples=300)
@given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=7), elements=levels))
def test_grid_seeds_match_loop_reference(values):
    assert sm._grid_seeds(values) == _grid_seeds_loop(values)


def test_grid_seeds_match_loop_reference_on_surfaces():
    """Seeds of real surfaces equal the loop reference's."""
    pg = CouplingParams.xyz(j_plus=-1.0, j_minus=-1.0, jz=-1.0)
    xyz = CouplingParams.xyz(jx=1.1, jy=-0.4, jz=0.9)
    xxz = CouplingParams.xxz(j=1.0, jz=-2.0)
    cases = ((pg, "PG+", "chain"), (pg, "PG-", "all-pairs"), (xyz, "G+", "all-pairs"), (xxz, "P+", "all-pairs"))
    for params, sid, bonds in cases:
        for source in ("direct", "closed"):
            try:
                grid = energy_surface(params, sid, source=source, bonds=bonds, refine=False)
            except FormulaUnavailable:
                continue
            seeds = sm._grid_seeds(grid.values)
            assert seeds and seeds == _grid_seeds_loop(grid.values)


def test_grid_seeds_with_ties_and_plateaus():
    """A tied neighbor, a plateau or a rise within the noise margin blocks a seed."""
    values = np.full((7, 8), 2.0)
    values[1, 1] = 1.0  # a strict MIN
    values[1, 3] = values[1, 4] = 0.5  # two tied lowest neighbors: neither is a MIN
    values[3:5, 1:3] = 3.0  # a raised 2 x 2 plateau: no MAX
    values[4, 5] = 3.0
    values[3, 5] = 3.0 + 1e-11  # above its neighbor (4, 5) by less than the margin: no MAX
    values[5, 6] = 4.0  # a strict MAX
    seeds = sm._grid_seeds(values)
    assert seeds == _grid_seeds_loop(values)
    assert seeds == [(1, 1, sm.MIN), (5, 6, sm.MAX)]


def test_surface_source_case_insensitive():
    params = CouplingParams.xyz(jx=1.0, jy=0.5, jz=0.2)
    a = energy_surface(params, "P+", window=(-1, 1, -1, 1), step=0.5, source="CLOSED", refine=False)
    b = energy_surface(params, "P+", window=(-1, 1, -1, 1), step=0.5, source="closed", refine=False)
    assert np.array_equal(a.values, b.values)


PG = CouplingParams.xyz(j_plus=-1.0, j_minus=-1.0, jz=-1.0)
GEN = CouplingParams.xyz(jx=1.1, jy=-0.4, jz=0.9)
XXZ = CouplingParams.xxz(j=1.0, jz=-2.0)


@pytest.mark.parametrize(
    "params, sid, source, bonds, window, step",
    [
        (XXZ, "P+", "closed", "all-pairs", (-2.0, 2.0, -2.0, 2.0), 0.1),
        (PG, "PG+", "direct", "chain", (-1.7, 1.7, -1.7, 1.7), 0.1),
        (PG, "PG-", "direct", "all-pairs", (-1.36, 1.36, -1.36, 1.36), 0.08),
        (GEN, "G+", "direct", "all-pairs", (-2.5, 2.5, -2.5, 2.5), 0.1),
    ],
)
def test_refinement_matches_scalar_oracle(monkeypatch, params, sid, source, bonds, window, step):
    """Extrema refined through the kernel equal those refined through the scalar oracle."""
    kernel = energy_surface(params, sid, window, step, source, bonds)
    oracle = _oracle_kernel(params, sid, source, bonds)
    monkeypatch.setattr(sm, "_surface_function", lambda *args: oracle)
    scalar = energy_surface(params, sid, window, step, source, bonds)
    assert len(kernel.extrema) == len(scalar.extrema) >= 2
    for e, o in zip(kernel.extrema, scalar.extrema):
        assert e.kind == o.kind
        assert math.hypot(e.x - o.x, e.y - o.y) <= 1e-7
        assert np.linalg.norm(sm._gradient(oracle, e.x, e.y)) <= 1e-6


def test_indefinite_seed_refines_to_saddle(monkeypatch):
    """A seed with an indefinite Hessian takes the stationary-point branch on both routes."""
    seed_point = (0.02, 0.01)
    eigs = np.linalg.eigvalsh(sm._stencil(sm._surface_function(GEN, "G+", "direct", "all-pairs"), *seed_point)[2])
    assert eigs[0] < 0.0 < eigs[1]
    kernel = sm.refine_extremum(GEN, "G+", seed_point)
    oracle = _oracle_kernel(GEN, "G+", "direct", "all-pairs")
    monkeypatch.setattr(sm, "_surface_function", lambda *args: oracle)
    scalar = sm.refine_extremum(GEN, "G+", seed_point)
    for e in (kernel, scalar):
        assert e.kind == sm.SADDLE
        assert math.hypot(e.x, e.y) <= 1e-7
    assert math.hypot(kernel.x - scalar.x, kernel.y - scalar.y) <= 1e-7
    assert np.linalg.norm(sm._gradient(oracle, kernel.x, kernel.y)) <= 1e-6


def _gradient_pointwise(f, x, y, h):
    return np.array([(f(x + h, y) - f(x - h, y)) / (2.0 * h), (f(x, y + h) - f(x, y - h)) / (2.0 * h)])


def _hessian_pointwise(f, x, y, h):
    fxx = (f(x + h, y) - 2.0 * f(x, y) + f(x - h, y)) / h**2
    fyy = (f(x, y + h) - 2.0 * f(x, y) + f(x, y - h)) / h**2
    fxy = (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)) / (4.0 * h**2)
    return np.array([[fxx, fxy], [fxy, fyy]])


@seed(53)
@settings(max_examples=100, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0))
def test_batched_stencils_match_pointwise_formulas(x, y):
    """One kernel call per _gradient/_stencil gives the point-by-point difference formulas."""
    gh, hh = sm._GRAD_STEP, sm._HESS_STEP
    # Elementwise arithmetic rounds the same in a batch as alone, so these agree exactly.
    poly = lambda u, v: u * u * v - 2.0 * u * v * v + u / (1.0 + v * v) + 0.5 * v
    value, grad, hess = sm._stencil(poly, x, y)
    assert value == poly(x, y)
    assert np.array_equal(grad, _gradient_pointwise(poly, x, y, gh))
    assert np.array_equal(hess, _hessian_pointwise(poly, x, y, hh))
    assert np.array_equal(sm._gradient(poly, x, y), grad)
    # The direct kernel's einsum may round a label differently inside a batch,
    # so allow a few ulps of each value, divided by the stencil's step.
    f = sm._surface_function(GEN, "PG+", "direct", "all-pairs")
    ulps = 8.0 * np.finfo(float).eps * (1.0 + abs(float(f(x, y))))
    _, grad, hess = sm._stencil(f, x, y)
    assert np.allclose(sm._gradient(f, x, y), _gradient_pointwise(f, x, y, gh), rtol=0.0, atol=ulps / gh)
    assert np.allclose(grad, _gradient_pointwise(f, x, y, gh), rtol=0.0, atol=ulps / gh)
    assert np.allclose(hess, _hessian_pointwise(f, x, y, hh), rtol=0.0, atol=4.0 * ulps / hh**2)


def test_merge_orders_last_bit_ties_by_position():
    v = -2.0
    w = math.nextafter(v, 0.0)
    on_y = [sm.Extremum(1e-9, 1.0, v, sm.MAX), sm.Extremum(-1e-9, -1.0, w, sm.MAX)]
    on_x = [sm.Extremum(1.0, -1e-9, w, sm.MIN), sm.Extremum(-1.0, 1e-9, v, sm.MIN)]
    for pair, first in ((on_y, (-1e-9, -1.0)), (on_x, (-1.0, 1e-9))):
        for ordered in (pair, pair[::-1]):
            merged = sm._merge_extrema(list(ordered))
            assert (merged[0].x, merged[0].y) == first
    # Values that differ beyond rounding still order by value.
    apart = [sm.Extremum(-1.0, 0.0, 1.0, sm.MAX), sm.Extremum(1.0, 0.0, 1.0 - 1e-9, sm.MAX)]
    assert [e.x for e in sm._merge_extrema(apart)] == [1.0, -1.0]
    # Duplicates within the merge distance keep the lowest value.
    dup = [sm.Extremum(0.0, 1.0, w, sm.MIN), sm.Extremum(0.0, 1.0 + 1e-6, v, sm.MIN)]
    assert sm._merge_extrema(dup) == (dup[1],)


def test_failed_refinement_keeps_other_extrema(monkeypatch, caplog):
    """One NoConvergence drops its seed only; the others still become extrema."""
    window = (-1.7, 1.7, -1.7, 1.7)
    full = energy_surface(PG, "PG+", window, 0.1, "direct", "chain")
    bad_seed = (-1.0, 0.0)  # a grid node, seed of the MIN at (-1, 0); definite, so Newton refines it
    newton = sm._newton
    failed = []

    def flaky_newton(f, x, y, *args):
        if np.allclose((x, y), bad_seed, atol=1e-9):
            failed.append((x, y))
            raise NoConvergence("injected")
        return newton(f, x, y, *args)

    monkeypatch.setattr(sm, "_newton", flaky_newton)
    with caplog.at_level("DEBUG", logger="qcs"):
        partial = energy_surface(PG, "PG+", window, 0.1, "direct", "chain")
    assert len(failed) == 1
    assert [e for e in full.extrema if abs(e.x + 1.0) > 1e-3] == list(partial.extrema)
    assert len(partial.extrema) == 3
    assert any("dropping seed" in r.getMessage() for r in caplog.records)


# G+ XYZ near jx = jy: the grid seed near (1.04, 0.02) has Hessian eigenvalues
# (-0.375, 1.45e-4), so it takes the stationary-point hunt and ends at the SADDLE (1, 0).
G_NEAR = CouplingParams.xyz(jx=0.465721243863944, jy=0.45666640033603256, jz=0.6800728488750654)
G_NEAR_WINDOW = (-2.457453444314526, 2.542546555685474, -2.4792202943370514, 2.5207797056629486)


def test_failed_stationary_hunt_keeps_other_extrema(monkeypatch, caplog):
    """A stalled Nelder-Mead stationary hunt drops its seed only."""
    full = energy_surface(G_NEAR, "G+", G_NEAR_WINDOW, 0.1, "closed")
    assert [e.kind for e in full.extrema] == [sm.MIN, sm.SADDLE, sm.MAX, sm.MAX]
    saddle = full.extrema[1]
    assert math.hypot(saddle.x - 1.0, saddle.y) <= 1e-7
    minimize = sm.minimize
    failed = []

    def flaky_minimize(fun, x0, **kwargs):
        result = minimize(fun, x0, **kwargs)
        if math.hypot(x0[0] - 1.0, x0[1]) < 0.1:
            failed.append(tuple(x0))
            result.success = False
        return result

    monkeypatch.setattr(sm, "minimize", flaky_minimize)
    with caplog.at_level("DEBUG", logger="qcs"):
        partial = energy_surface(G_NEAR, "G+", G_NEAR_WINDOW, 0.1, "closed")
    assert len(failed) == 1
    f = sm._surface_function(G_NEAR, "G+", "closed", "all-pairs")
    eigs = np.linalg.eigvalsh(sm._stencil(f, *failed[0])[2])
    assert eigs[0] < 0.0 < eigs[1]
    assert [e for e in full.extrema if e is not saddle] == list(partial.extrema)
    assert len(partial.extrema) == 3
    assert any("dropping seed" in r.getMessage() for r in caplog.records)


def test_refinement_logs_route_per_seed(caplog):
    """Each refinement logs its seed, route, iterations and final gradient at DEBUG on "qcs"."""
    with caplog.at_level("DEBUG", logger="qcs"):
        grid = energy_surface(G_NEAR, "G+", G_NEAR_WINDOW, 0.1, "closed")
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("refined seed")]
    assert len(lines) == len(sm._grid_seeds(grid.values)) == 4
    assert sum(" by newton in " in line for line in lines) == 3
    assert sum(" by stationary in " in line for line in lines) == 1
    for line in lines:
        assert float(line.rsplit("|grad| ", 1)[1]) <= 1e-6


SADDLE_HUNT = """
import sys
from qcs import spin_models as sm
assert "scipy.optimize" not in sys.modules
params = sm.CouplingParams.xyz(jx={jx!r}, jy={jy!r}, jz={jz!r})
grid = sm.energy_surface(params, "G+", {window!r}, 0.1, "closed")
assert "scipy.optimize" in sys.modules
print([(e.kind, round(e.x, 6) + 0.0, round(e.y, 6) + 0.0) for e in grid.extrema if e.kind == sm.SADDLE])
"""


def test_saddle_seed_loads_scipy_on_demand():
    """SciPy is imported by the first saddle seed's Nelder-Mead hunt, not by importing qcs."""
    code = SADDLE_HUNT.format(jx=G_NEAR.jx, jy=G_NEAR.jy, jz=G_NEAR.jz, window=G_NEAR_WINDOW)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[('SADDLE', 1.0, 0.0)]\n"


def test_shallow_valley_minima_are_kept():
    """Seeds up to 0.5 from a shallow minimum (six steps of this grid) still reach it."""
    params = CouplingParams.xyz(jx=1.6980793402194458, jy=-0.5241278911809659, jz=1.751768203344752)
    window = (-2.481228575094236, 2.518771424905764, -2.4826186258668765, 2.5173813741331235)
    grid = energy_surface(params, "P+", window, 0.08, "closed")
    assert [e.kind for e in grid.extrema] == [sm.MIN, sm.MIN]
    for e, y in zip(grid.extrema, (-1.0, 1.0)):
        assert math.hypot(e.x, e.y - y) <= 1e-7


def test_minimum_seed_beside_a_saddle_descends_to_a_minimum():
    """Newton steps follow |eigenvalues|: a MIN seed near a saddle does not converge onto it."""
    params = CouplingParams.xyz(jx=1.2654864670238135, jy=1.2770941634217208, jz=0.14200448231306373)
    window = (-2.512951134121445, 2.487048865878555, -2.544793412870247, 2.455206587129753)
    seed_point = (-1.0181710384184002, 0.046158753015030474)  # a grid node of this window
    f = sm._surface_function(params, "G+", "closed", "all-pairs")
    assert np.linalg.eigvalsh(sm._stencil(f, *seed_point)[2])[0] > 0.0
    e = sm.refine_extremum(params, "G+", seed_point, "closed")
    assert e.kind == sm.MIN and math.hypot(e.x, e.y - 1.0) <= 1e-7
    grid = energy_surface(params, "G+", window, 0.099652006380203, "closed")
    assert [(e.kind, round(e.x, 6) + 0.0, round(e.y, 6) + 0.0) for e in grid.extrema] == [
        (sm.MIN, 0.0, -1.0), (sm.MIN, 0.0, 1.0), (sm.SADDLE, 1.0, 0.0), (sm.MAX, 0.0, 0.0)
    ]


def _newton_iterates(points):
    """The iterates among the `_stencil` points of one Newton run: the seed, then each accepted trial.

    A rejected trial is followed by the trial at half its step from the same
    iterate, so a point is accepted unless the next one is that midpoint.
    """
    iterates = [points[0]]
    for a, b in zip(points[1:], points[2:] + [None]):
        x, y = iterates[-1]
        tol = 1e-6 * math.hypot(a[0] - x, a[1] - y) + 1e-15 * (1.0 + abs(x) + abs(y))
        if b is None or math.hypot(b[0] - (x + a[0]) / 2, b[1] - (y + a[1]) / 2) > tol:
            iterates.append(a)
    return iterates


def test_newton_steps_are_capped_and_descend(monkeypatch):
    """On a smoothed cusp the full Newton step overshoots five-fold; the safeguards still converge."""
    cusp = lambda x, y: (1e-4 + x * x) ** 0.6 + y * y
    stencil = sm._stencil
    points = [(1.0, 0.5)]

    def recording_stencil(f, x, y):
        points.append((x, y))
        return stencil(f, x, y)

    monkeypatch.setattr(sm, "_stencil", recording_stencil)
    x, y, iterations, _ = sm._newton(cusp, 1.0, 0.5, 1.0, stencil(cusp, 1.0, 0.5))
    iterates = _newton_iterates(points)
    assert iterates[-1] == (x, y) and len(iterates) == iterations + 1
    assert len(points) > len(iterates)  # some trials were rejected
    assert math.hypot(x, y) <= 1e-9
    assert iterations >= 5  # 0.25 at a time over a distance of 1.12
    for (xa, ya), (xb, yb) in zip(iterates, iterates[1:]):
        assert math.hypot(xb - xa, yb - ya) <= sm._TRUST_RADIUS * (1.0 + 1e-12)
        assert cusp(xb, yb) <= cusp(xa, ya) + 1e-13 * (1.0 + cusp(xa, ya))


def test_exhausted_line_search_takes_the_last_halved_step(monkeypatch):
    """When all 30 halvings rise, Newton moves by the step halved 30 times and reads its stencil there."""
    # A downward spike at the seed: every trial beside it lies above the seed's value.
    spiked = lambda x, y: (x - 1.0) ** 2 + (y - 0.5) ** 2 - ((x == 0.0) & (y == 0.0))
    stencil = sm._stencil
    seed_stencil = stencil(spiked, 0.0, 0.0)
    trials = []

    def recording_stencil(f, x, y):
        trials.append((x, y, stencil(f, x, y)))
        return trials[-1][2]

    monkeypatch.setattr(sm, "_stencil", recording_stencil)
    x, y, iterations, final = sm._newton(spiked, 0.0, 0.0, 1.0, seed_stencil)
    assert len(trials) == 31 and iterations == 1
    level = seed_stencil[0] + 1e-13 * (1.0 + abs(seed_stencil[0]))
    assert all(t[2][0] > level for t in trials)
    (x_first, y_first, _), (x_last, y_last, last) = trials[0], trials[-1]
    assert (x, y) == (x_last, y_last) == (x_first / 2**30, y_first / 2**30) != (0.0, 0.0)
    assert final is last


def test_degenerate_maxima_converge():
    """Maxima with a curvature of -0.0086 stop on the gradient floor, not on step jitter."""
    params = CouplingParams.xyz(jx=1.8882018549708155, jy=-1.6874178590416822, jz=-1.6831326434938143)
    window = (-2.512865184530696, 2.487134815469304, -2.542852504454167, 2.457147495545833)
    grid = energy_surface(params, "G+", window, 0.1, "direct")
    maxima = [e for e in grid.extrema if e.kind == sm.MAX]
    assert [(round(e.x, 6) + 0.0, round(e.y, 6)) for e in maxima] == [(0.0, -1.0), (0.0, 1.0)]
    oracle = _oracle_kernel(params, "G+", "direct", "all-pairs")
    for e in maxima:
        assert np.linalg.norm(sm._gradient(oracle, e.x, e.y)) <= 1e-6


def _nelder_mead_refine(params, state_id, seed, source="direct", bonds="all-pairs"):
    """Nelder-Mead refinement of every seed, the route used before Newton; the reference below."""
    f = sm._surface_function(params, state_id, source, bonds)
    x0, y0 = float(seed[0]), float(seed[1])
    _, grad0, hess0 = sm._stencil(f, x0, y0)
    if float(np.max(np.abs(hess0))) < sm._CURVATURE_FLOOR and float(np.linalg.norm(grad0)) < 1e-9:
        return sm.Extremum(x0, y0, float(f(x0, y0)), sm.CONSTANT)
    eigs = np.linalg.eigvalsh(hess0)
    if eigs[0] > 0.0:
        objective = lambda v: float(f(*v.tolist()))
    elif eigs[1] < 0.0:
        objective = lambda v: -float(f(*v.tolist()))
    else:
        objective = lambda v: float(np.sum(sm._gradient(f, *v.tolist()) ** 2))
    res = sm.minimize(
        objective,
        np.array([x0, y0]),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 10000, "maxfev": 20000},
    )
    if not res.success:
        raise NoConvergence(f"refinement stalled at {res.x}: {res.message}")
    x, y = float(res.x[0]), float(res.x[1])
    return sm.Extremum(x, y, float(f(x, y)), sm._kind(np.linalg.eigvalsh(sm._stencil(f, x, y)[2])))


def _random_surfaces(n, rng):
    """XYZ surfaces with offset windows, so extrema fall between grid nodes.

    The couplings differ pairwise by 0.05 or more.  Where two of them nearly
    agree, an extremum sits in a valley whose curvature is about their gap,
    and Nelder-Mead, which stops once its simplex values agree to 1e-13,
    leaves it off along the valley (8.3e-7 off, gradient 1e-8, on PG+ at
    a gap of 2.7e-4, where Newton's gradient is 2e-11).
    """
    for _ in range(n):
        j = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        while min(abs(a - b) for a, b in ((j[0], j[1]), (j[1], j[2]), (j[0], j[2]))) < 0.05:
            j = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        jx, jy, jz = j
        sid = rng.choice(["P+", "P-", "G+", "PG+", "PG-"])
        ox, oy = rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)
        window = (-2.5 + ox, 2.5 + ox, -2.5 + oy, 2.5 + oy)
        yield CouplingParams.xyz(jx=jx, jy=jy, jz=jz), sid, window, rng.uniform(0.05, 0.1)


def test_newton_matches_nelder_mead_on_random_surfaces(monkeypatch):
    """Newton finds the extrema Nelder-Mead found: same kinds, counts and order, within 2e-7."""
    cases = list(_random_surfaces(40, random.Random(61)))
    newton = [energy_surface(p, sid, w, step, "closed", "chain") for p, sid, w, step in cases]
    monkeypatch.setattr(sm, "refine_extremum", _nelder_mead_refine)
    count = 0
    for (params, sid, window, step), grid in zip(cases, newton):
        reference = energy_surface(params, sid, window, step, "closed", "chain")
        assert [e.kind for e in grid.extrema] == [e.kind for e in reference.extrema], (params, sid)
        oracle = _oracle_kernel(params, sid, "closed", "chain")
        for e, r in zip(grid.extrema, reference.extrema):
            assert math.hypot(e.x - r.x, e.y - r.y) <= 2e-7
            assert abs(e.value - r.value) <= 1e-10
            assert np.linalg.norm(sm._gradient(oracle, e.x, e.y)) <= 1e-6
        count += len(grid.extrema)
    assert count >= 80


def _refine_classifying_afresh(params, state_id, seed, source="direct", bonds="all-pairs"):
    """Reference: the refinement route whose final point is classified by a fresh stencil Hessian."""
    f = sm._surface_function(params, state_id, source, bonds)
    x0, y0 = float(seed[0]), float(seed[1])
    stencil = sm._stencil(f, x0, y0)
    value0, grad0, hess0 = stencil
    if float(np.max(np.abs(hess0))) < sm._CURVATURE_FLOOR and float(np.linalg.norm(grad0)) < 1e-9:
        return sm.Extremum(x0, y0, value0, sm.CONSTANT)
    eigs = np.linalg.eigvalsh(hess0)
    if eigs[0] > 0.0 or eigs[1] < 0.0:
        x, y = sm._newton(f, x0, y0, 1.0 if eigs[0] > 0.0 else -1.0, stencil)[:2]
    else:
        res = sm.minimize(
            lambda v: float(np.sum(sm._gradient(f, *v.tolist()) ** 2)),
            np.array([x0, y0]),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 10000, "maxfev": 20000},
        )
        if not res.success:
            raise NoConvergence(f"refinement stalled at {res.x}: {res.message}")
        x, y = float(res.x[0]), float(res.x[1])
    return sm.Extremum(x, y, float(f(x, y)), sm._kind(np.linalg.eigvalsh(sm._stencil(f, x, y)[2])))


@pytest.mark.parametrize("source", ["direct", "closed"])
def test_stencil_kinds_match_fresh_hessians_on_random_surfaces(monkeypatch, source):
    """Kinds read from the stencils in hand give the extrema of a fresh Hessian, bit for bit."""
    cases = list(_random_surfaces(40, random.Random(67)))
    grids = [energy_surface(p, sid, w, step, source, "chain") for p, sid, w, step in cases]
    monkeypatch.setattr(sm, "refine_extremum", _refine_classifying_afresh)
    count = 0
    for (params, sid, window, step), grid in zip(cases, grids):
        reference = energy_surface(params, sid, window, step, source, "chain")
        assert grid.values.tobytes() == reference.values.tobytes()
        assert [(e.x, e.y, e.value, e.kind) for e in grid.extrema] == [
            (e.x, e.y, e.value, e.kind) for e in reference.extrema
        ], (params, sid)
        count += len(grid.extrema)
    assert count >= 80


def _spy_on_kernel_sizes(monkeypatch) -> list:
    """Make every surface kernel record the number of labels of each call in the returned list."""
    kernel = sm._surface_function
    sizes = []

    def spying_kernel(*key):
        f = kernel(*key)

        def spy(x, y):
            sizes.append(np.broadcast(x, y).size)
            return f(x, y)

        return spy

    monkeypatch.setattr(sm, "_surface_function", spying_kernel)
    return sizes


def test_seed_left_in_place_costs_one_stencil(monkeypatch):
    """A seed Newton leaves in place costs one 13-label kernel call, whose centre is the value."""
    sizes = _spy_on_kernel_sizes(monkeypatch)
    cases = [
        (PG, "PG+", (1.0, 0.0), "direct", "chain", sm.MIN),
        (PG, "PG+", (0.0, 1.0), "closed", "chain", sm.MAX),
        (GEN, "G+", (-1.0, 0.0), "direct", "all-pairs", sm.MIN),
    ]
    for params, sid, seed_point, source, bonds, kind in cases:
        sizes.clear()
        e = sm.refine_extremum(params, sid, seed_point, source, bonds)
        assert (e.x, e.y, e.kind) == (*seed_point, kind)
        assert sizes == [13]
        assert e.value == float(sm._surface_function(params, sid, source, bonds)(*seed_point))


def test_refinements_read_every_hessian_from_a_13_label_stencil(monkeypatch):
    """Refinement calls the kernel with 13-label stencils and the saddle hunt's 4-label gradients only."""
    sizes = _spy_on_kernel_sizes(monkeypatch)
    stencil, refine = sm._stencil, sm.refine_extremum
    points = []
    routes = {"in place": 0, "gradient floor": 0, "step size": 0, "saddle": 0}

    def recording_stencil(f, x, y):
        points.append((x, y))
        return stencil(f, x, y)

    def recording_refine(*args):
        sizes.clear()
        points.clear()
        e = refine(*args)
        assert set(sizes) <= {13, 4}
        if sizes == [13]:
            routes["in place"] += 1
            return e
        assert sizes[0] == sizes[-1] == 13 and (e.x, e.y) == points[-1]
        if 4 in sizes:
            assert set(sizes[1:-1]) == {4}
            routes["saddle"] += 1
            return e
        (xa, ya), (xb, yb) = _newton_iterates(points)[-2:]
        if math.hypot(xb - xa, yb - ya) <= 1e-10 * (1.0 + math.hypot(xb, yb)):
            routes["step size"] += 1
        else:
            routes["gradient floor"] += 1
        return e

    monkeypatch.setattr(sm, "_stencil", recording_stencil)
    monkeypatch.setattr(sm, "refine_extremum", recording_refine)
    for params, sid, window, step in _random_surfaces(40, random.Random(67)):
        energy_surface(params, sid, window, step, "closed", "chain")
    energy_surface(G_NEAR, "G+", G_NEAR_WINDOW, 0.1, "closed")
    energy_surface(PG, "PG+", (-1.7, 1.7, -1.7, 1.7), 0.1, "direct", "chain")
    assert min(routes.values()) >= 1, routes


def test_grid_node_ceiling():
    """Oversized grids raise BadParams from their node count, before the grid is allocated."""
    side = math.isqrt(sm.MAX_GRID_NODES)
    xs, ys = sm._grid_axes((0.0, side - 1.0, 0.0, side - 1.0), 1.0)
    assert xs.size * ys.size <= sm.MAX_GRID_NODES
    # Each axis of these stays small, so a missing ceiling fails here without a huge allocation.
    for window, step in (((0.0, side + 1.0, 0.0, side + 1.0), 1.0), ((0.0, 1e5, 0.0, 1e5), 1.0)):
        with pytest.raises(BadParams):
            sm._grid_axes(window, step)
    with pytest.raises(BadParams):  # the span overflows to inf
        energy_surface(CouplingParams.xxx(j=1.0), "P+", (-1e308, 1e308, 0.0, 1.0), 0.05)


def test_step_that_does_not_divide_window_ends_at_nearest_node():
    grid = energy_surface(CouplingParams.xxx(j=1.0), "P+", window=(0, 1, 0, 1), step=0.3, refine=False)
    assert np.allclose(grid.xs, [0.0, 0.3, 0.6, 0.9]) and grid.xs[-1] < 1.0
    grid = energy_surface(CouplingParams.xxx(j=1.0), "P+", window=(0, 1, 0, 1), step=0.35, refine=False)
    assert np.allclose(grid.ys, [0.0, 0.35, 0.7, 1.05])


def test_grid_blocks_match_one_kernel_call_per_row(monkeypatch):
    """Grids evaluated in blocks of whole rows equal, bit for bit, one kernel call per row."""
    block = 10
    kernel = sm._surface_function
    calls = []

    def spying_kernel(*key):
        f = kernel(*key)

        def spy(x, y):
            calls.append((np.asarray(x), np.asarray(y)))
            return f(x, y)

        return spy

    monkeypatch.setattr(sm, "_GRID_BLOCK", block)
    monkeypatch.setattr(sm, "_surface_function", spying_kernel)
    # 4 x 7 nodes: two rows per call, the last call one row; 13 x 3: rows wider than a block.
    for window in ((0.0, 0.3, 0.0, 0.6), (-0.6, 0.6, 0.0, 0.2)):
        xs, ys = sm._grid_axes(window, 0.1)
        for params, sid, bonds in ((GEN, "P+", "all-pairs"), (GEN, "G-", "all-pairs"), (PG, "PG-", "chain")):
            for source in ("direct", "closed"):
                f = kernel(params, sid, source, bonds)
                per_row = np.vstack([f(xs, y) for y in ys])
                calls.clear()
                values = sm._evaluate_grid(params, sid, source, bonds, xs, ys)
                assert values.tobytes() == per_row.tobytes(), (window, sid, source)
                for x, y in calls:
                    assert x.shape == (1, xs.size) and np.array_equal(x[0], xs)
                    assert y.shape[1] == 1 and y.size * xs.size <= max(block, xs.size)
                assert np.array_equal(np.concatenate([y[:, 0] for _, y in calls]), ys)
                assert len(calls) == math.ceil(ys.size / max(1, block // xs.size))


CLOSED_PAIRS = [(CouplingParams.xxx(j=0.9), "P+"), (XXZ, "P+")] + [(GEN, sid) for sid in STATE_IDS]


@pytest.mark.parametrize("params, sid", CLOSED_PAIRS)
def test_closed_form_overflow_raises(params, sid):
    """At |psi| = 1e160 a closed form is its constant or raises BadParams; never NaN."""
    bonds = "chain" if sid.startswith("PG") else "all-pairs"
    big = 1e160
    window = (big, 2.0 * big, -big, big)
    for p in (big, 1j * big, big * (0.6 - 0.8j)):
        try:
            value = q_symbol_closed(params, sid, p)
        except BadParams:
            with pytest.raises(BadParams):
                energy_surface(params, sid, window, big, "closed", bonds, refine=False)
            continue
        assert (params.model, sid) in (("XXX", "P+"), ("XYZ", "G-"))  # the constant forms
        assert abs(value - q_symbol_direct(params, sid, p, bonds)) < 1e-12
        grid = energy_surface(params, sid, window, big, "closed", bonds, refine=False)
        assert np.all(grid.values == value)


SHAPES = [(2, "all-pairs"), (3, "chain"), (3, "all-pairs")]


def test_xxx_is_xxz_at_delta_minus_j():
    """XXX and XXZ share one coefficient branch: xxx(J) and xxz(J, delta=-J) have the same H bytes."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        j, hbar = float(rng.uniform(-3.0, 3.0)), float(10.0 ** rng.uniform(-2.0, 2.0))
        xxx, xxz = CouplingParams.xxx(j=j, hbar=hbar), CouplingParams.xxz(j=j, delta=-j, hbar=hbar)
        assert sm._term_couplings(xxx) == sm._term_couplings(xxz)
        for n, bonds in SHAPES:
            assert hamiltonian(xxx, n, bonds).tobytes() == hamiltonian(xxz, n, bonds).tobytes()


def test_hbar_scan_embeds_each_unit_operator_set_once():
    """hbar lives in the coefficients, so 50 hbar values miss the operator cache once per key."""
    sm._embedded_terms.cache_clear()
    for hbar in np.geomspace(1e-3, 1e3, 50).tolist():
        for params in (CouplingParams.xxx(j=0.7, hbar=hbar), CouplingParams.xxz(j=1.1, delta=-0.4, hbar=hbar),
                       CouplingParams.xyz(jx=1.1, jy=-0.4, jz=0.9, hbar=hbar)):
            for n, bonds in SHAPES:
                hamiltonian(params, n, bonds)
    info = sm._embedded_terms.cache_info()
    assert info.misses == 3 * len(SHAPES)  # (model, n_qubits, bonds)
    assert info.hits == 50 * 3 * len(SHAPES) - info.misses


def _pauli_couplings(h, n_qubits, i, j):
    """C[a, b] = Tr(H sigma_a(i) sigma_b(j)) / 2^n, with sigma_0 the identity."""
    paulis = (np.eye(2, dtype=complex), sigma_x(), sigma_y(), sigma_z())
    return np.array([[np.trace(h @ embed_pair(pa, pb, i, j, n_qubits)).real / 2**n_qubits for pb in paulis]
                     for pa in paulis])


@pytest.mark.parametrize("n, bonds", SHAPES)
def test_term_couplings_are_the_pauli_coupling_table(n, bonds):
    """Each bond of H is sum_a K_a sigma_a sigma_a, with K read from `_term_couplings`.

    K is (c0, c1, c2) for XYZ and (c0/2, c1/2, c2) for XXX and XXZ, whose
    S+ S- and S- S+ terms each carry half of sx sx + sy sy.  No identity,
    one-site or cross term appears, and pairs that are not bonds couple by 0.
    """
    rng = np.random.default_rng(23)
    for _ in range(20):
        j, hbar = rng.uniform(-2.0, 2.0, 3).tolist(), float(10.0 ** rng.uniform(-1.0, 1.0))
        for params in (CouplingParams.xxx(j=j[0], hbar=hbar), CouplingParams.xxz(j=j[0], delta=j[1], hbar=hbar),
                       CouplingParams.xyz(jx=j[0], jy=j[1], jz=j[2], hbar=hbar)):
            c0, c1, c2 = sm._term_couplings(params)
            k = (c0, c1, c2) if params.model == "XYZ" else (c0 / 2.0, c1 / 2.0, c2)
            h = hamiltonian(params, n, bonds)
            for pair in ((0, 1), (0, 2), (1, 2))[: 1 if n == 2 else 3]:
                want = np.diag([0.0, *k]) if pair in sm._bond_list(n, bonds) else np.zeros((4, 4))
                assert np.allclose(_pauli_couplings(h, n, *pair), want, rtol=0.0, atol=1e-15 * max(map(abs, k)))


@pytest.mark.parametrize("build", [
    lambda: CouplingParams.xxz(j=1.0, delta=0.5, hbar=1e300),
    lambda: CouplingParams.xxz(j=1.0, delta=0.5, hbar=1e160),
    lambda: CouplingParams.xxx(j=1e300, hbar=1e10),
    lambda: CouplingParams.xxx(j=1.7e308),  # -2J overflows
    lambda: CouplingParams.xxz(j=1.0, delta=1e308),
])
def test_overflowing_bond_coefficients_raise_before_any_array(build):
    """Direct route, closed route and CLI share these params, so all three reject them with this message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="bond coefficients"):
            build()


def test_huge_xyz_couplings_raise_bad_params_without_warnings():
    """Overflow in the summed H, on the grid or in a refinement stencil is BadParams, never inf or a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="Hamiltonian overflows"):  # three bonds of 8.5e307
            hamiltonian(CouplingParams.xyz(jx=1.0, jy=1.0, jz=1.7e308), 3, "all-pairs")
        with pytest.raises(BadParams, match="grid overflow"):
            energy_surface(CouplingParams.xyz(jx=1.7e308, jy=1e8, jz=-1.0), "PG-", (-1.0, 0.5, 0.0, 1.0), 0.5)
        with pytest.raises(BadParams, match="stencil"):  # a finite grid whose differences overflow
            energy_surface(CouplingParams.xyz(jx=1.7e308, jy=3.0), "G+", step=0.5)
        f = sm._surface_function(CouplingParams.xyz(jx=1.7e308, jy=3.0), "G+", "direct", "all-pairs")
        with pytest.raises(BadParams, match="stencil"):
            sm._stencil(f, 1.0, 0.0)
        # Finite energies from -1.7e308 to 1.7e308: their spread overflows, the surface does not.
        grid = energy_surface(CouplingParams.xyz(jx=1.7e308, jy=-1.7e308), "G+", step=0.5, refine=False)
        assert np.isfinite(grid.values).all() and not grid.constant
        # 1e200 is large but its differences are finite: the extrema come out scaled, with no warning.
        grid = energy_surface(CouplingParams.xyz(jx=1e200, jy=3.0, jz=1.0), "G+", step=0.5)
        assert [e.kind for e in grid.extrema] == [MIN, MIN] and grid.extrema[0].value == pytest.approx(-5e199)
