import math
import random
import subprocess
import sys
import warnings
from fractions import Fraction

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
    log_radius=st.floats(-300.0, 300.0),
    angles=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=6),
)
@example(j=(1.1, -0.4, 0.9), log_radius=-300.0, angles=[0.0, 0.3, -2.0])
@example(j=(1.1, -0.4, 0.9), log_radius=300.0, angles=[0.0, 0.3, -2.0])
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


def _neighbor_extreme(extreme, values):
    """`extreme` (np.minimum or np.maximum) over the 8 neighbors of each inner node, in separable steps.

    The 3-wide extreme of every row serves the rows above and below a
    node, the left/right pair its own row.  Both ufuncs are exact, so this
    equals the extreme over the eight shifted copies of the grid.
    """
    across = extreme(extreme(values[:, :-2], values[:, 1:-1]), values[:, 2:])
    beside = extreme(values[1:-1, :-2], values[1:-1, 2:])
    return extreme(beside, extreme(across[:-2], across[2:]))


def _grid_seeds(values):
    """Strict 8-neighbor extremum seeds (row, col, MIN|MAX) of a grid, in row-major order: the grid route that
    `energy_surface` used before it read its extrema from the census.  The seeds feed the single-seed
    `refine_extremum` tests and the Nelder-Mead reference below.

    A node is a seed when it lies below the least of its 8 neighbors (MIN)
    or above the greatest (MAX) by more than FLATNESS_REL * (1 + |value|).
    """
    inner = values[1:-1, 1:-1]
    margin = sm.FLATNESS_REL * (1.0 + np.abs(inner))
    is_min = inner < _neighbor_extreme(np.minimum, values) - margin
    is_max = inner > _neighbor_extreme(np.maximum, values) + margin
    rows, cols = np.divmod(np.flatnonzero(is_min | is_max), inner.shape[1])
    return [(int(i) + 1, int(j) + 1, sm.MIN if is_min[i, j] else sm.MAX) for i, j in zip(rows, cols)]


def _grid_seeds_loop(values):
    """Reference: the node-by-node seed scan `_grid_seeds` vectorises."""
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
    assert _grid_seeds(values) == _grid_seeds_loop(values)


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
            seeds = _grid_seeds(grid.values)
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
    seeds = _grid_seeds(values)
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
    """The census's extrema equal those that grid seeds refine to through the scalar oracle."""
    kernel = energy_surface(params, sid, window, step, source, bonds)
    oracle = _oracle_kernel(params, sid, source, bonds)
    monkeypatch.setattr(sm, "_surface_function", lambda *args: oracle)
    scalar = _seeded_extrema(params, sid, window, step, source, bonds)
    assert len(kernel.extrema) == len(scalar) >= 2
    for e, o in zip(kernel.extrema, scalar):
        assert e.kind == o.kind
        assert math.hypot(e.x - o.x, e.y - o.y) <= 1e-7
        assert np.linalg.norm(_central_gradient(oracle, e.x, e.y)) <= 1e-6


def test_indefinite_seed_refines_to_saddle(monkeypatch):
    """A seed with an indefinite Hessian lands on its nearest fixed label, through the kernel and the scalar oracle."""
    seed_point = (0.02, 0.01)
    eigs = sm._eigenvalues(sm._derivatives(GEN, "G+", "direct", "all-pairs")(*seed_point)[1])
    assert eigs[0] < 0.0 < eigs[1]
    kernel = sm.refine_extremum(GEN, "G+", seed_point)
    oracle = _oracle_kernel(GEN, "G+", "direct", "all-pairs")
    monkeypatch.setattr(sm, "_surface_function", lambda *args: oracle)
    scalar = sm.refine_extremum(GEN, "G+", seed_point)
    for e in (kernel, scalar):
        assert e.kind == sm.SADDLE
        assert math.hypot(e.x, e.y) <= 1e-7
    assert math.hypot(kernel.x - scalar.x, kernel.y - scalar.y) <= 1e-7
    assert np.linalg.norm(_central_gradient(oracle, kernel.x, kernel.y)) <= 1e-6


def _seeded_extrema(params, sid, window, step, source, bonds, refine=None):
    """Reference: the grid route the census replaced.  Each `_grid_seeds` seed is refined (by `refine`, default
    `refine_extremum`), a seed with no label of its kind is dropped, refined points within 1e-4 of one kept
    already are merged, and the MIN and MAX are sorted as `energy_surface` sorts them."""
    refine = refine or sm.refine_extremum
    grid = energy_surface(params, sid, window, step, source, bonds, refine=False)
    found = []
    for i, j, _ in _grid_seeds(grid.values):
        try:
            e = refine(params, sid, (float(grid.xs[j]), float(grid.ys[i])), source, bonds)
        except NoConvergence:
            continue
        if e.kind in (sm.MIN, sm.MAX) and all(math.hypot(e.x - f.x, e.y - f.y) > 1e-4 for f in found):
            found.append(e)
    return sm._sort_extrema(found)


def _central_gradient(f, x, y, h=1e-5):
    """The gradient of a scalar kernel (the oracle's, which has no exact derivatives) by central differences."""
    return np.array([(f(x + h, y) - f(x - h, y)) / (2.0 * h), (f(x, y + h) - f(x, y - h)) / (2.0 * h)])


class _Jet:
    """An exact second-order Taylor jet (f, f_x, f_y, f_xx, f_xy, f_yy) over Fractions.

    Floats enter exactly, so formulas written for floats, the closed forms
    among them, run on it in rational arithmetic and carry their exact
    derivatives along.
    """

    def __init__(self, *terms):
        self.d = tuple(Fraction(t) for t in terms) + (Fraction(0),) * (6 - len(terms))

    @staticmethod
    def of(value):
        return value if isinstance(value, _Jet) else _Jet(value)

    def __add__(self, other):
        return _Jet(*(a + b for a, b in zip(self.d, _Jet.of(other).d)))

    __radd__ = __add__

    def __neg__(self):
        return _Jet(*(-a for a in self.d))

    def __sub__(self, other):
        return self + -_Jet.of(other)

    def __rsub__(self, other):
        return _Jet.of(other) + -self

    def __mul__(self, other):
        (u, ux, uy, uxx, uxy, uyy), (v, vx, vy, vxx, vxy, vyy) = self.d, _Jet.of(other).d
        return _Jet(u * v, ux * v + u * vx, uy * v + u * vy, uxx * v + 2 * ux * vx + u * vxx,
                    uxy * v + ux * vy + uy * vx + u * vxy, uyy * v + 2 * uy * vy + u * vyy)

    __rmul__ = __mul__

    def reciprocal(self):
        f, fx, fy, fxx, fxy, fyy = self.d
        return _Jet(1 / f, -fx / f**2, -fy / f**2, (2 * fx * fx - f * fxx) / f**3, (2 * fx * fy - f * fxy) / f**3,
                    (2 * fy * fy - f * fyy) / f**3)

    def __truediv__(self, other):
        return self * _Jet.of(other).reciprocal()

    def __rtruediv__(self, other):
        return _Jet.of(other) * self.reciprocal()

    def __pow__(self, n):
        result = _Jet(1)
        for _ in range(n):
            result = result * self
        return result


def _exact_closed_form(params, sid, x, y):
    """`_closed_form` in rational arithmetic at the float label x + 1j*y, as a `_Jet`; constant forms included."""
    value = sm._closed_form(params, sid, _Jet(x, 1), _Jet(y, 0, 1))
    return value if isinstance(value, _Jet) else _Jet(value.item())


def test_closed_forms_are_the_law_at_their_k():
    """Every closed form is the rotation law at its own K, exactly: the six XYZ forms at K = J / 2 (PG on the
    chain), XXX P+ at its H's K, and XXZ P+ at K' = -hbar^2 (J, J, Jz).  `_derivatives` differentiates the
    closed source as the law at these K.

    This is the XXZ P+ WARN: H's K is hbar^2 (-J/2, -J/2, Delta/2), so the closed form doubles the xy terms
    and puts -Jz where Delta/2 belongs on zz.  Couplings are multiples of 1/64 and hbar of 1/4, so the forms'
    float coefficients (j_plus, hbar^2, ...) are exact too.
    """
    rng = random.Random(89)
    checked = 0
    for _ in range(4):
        j, delta, jz = (rng.randint(-128, 128) / 64.0 for _ in range(3))
        hbar = rng.randint(1, 8) / 4.0
        hb2 = Fraction(hbar) ** 2
        xyz = CouplingParams.xyz(jx=j, jy=delta, jz=jz)
        xxx, xxz = CouplingParams.xxx(j=j, hbar=hbar), CouplingParams.xxz(j=j, delta=delta, hbar=hbar)
        cases = [(xyz, sid, [Fraction(t) / 2 for t in (j, delta, jz)]) for sid in STATE_IDS]
        cases += [(xxx, "P+", sm._pauli_diagonal(xxx)), (xxz, "P+", [-hb2 * Fraction(t) for t in (j, j, xxz.jz)])]
        assert [Fraction(t) for t in sm._pauli_diagonal(xxz)] == [-hb2 * Fraction(j) / 2, -hb2 * Fraction(j) / 2,
                                                                  hb2 * Fraction(delta) / 2]
        for params, sid, k in cases:
            n_bonds = 2 if sid.startswith("PG") else 1
            random_labels = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(5)]
            for x, y in [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0)] + random_labels:
                law = _exact_law(k, sid, n_bonds, _Jet(x, 1), _Jet(y, 0, 1))
                assert _exact_closed_form(params, sid, x, y).d == law.d, (params, sid, x, y)
                checked += 1
    assert checked == 4 * 8 * 8


def test_derivatives_match_exact_rationals():
    """`_derivatives` is within 4e-15 (1 + n_bonds sum |K|) of the exact gradient and Hessian, for all six states,
    both sources and both bond sets, XXZ P+ closed (the law at K') included: 468 random labels and the fixed
    ones.  The worst measured is 1.9e-15 over 2080 random labels."""
    rng = np.random.default_rng(31)
    fixed = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    random_labels = 0
    for _ in range(3):
        j, delta, jz = rng.uniform(-2.0, 2.0, 3).tolist()
        hbar = float(10.0 ** rng.uniform(-1.0, 1.0))
        for params in (CouplingParams.xxx(j=j, hbar=hbar), CouplingParams.xxz(j=j, delta=delta, hbar=hbar),
                       CouplingParams.xyz(jx=j, jy=delta, jz=jz)):
            for sid in STATE_IDS:
                n = 3 if sid.startswith("PG") else 2
                for source in ("direct", "closed"):
                    for bonds in sm.BOND_CHOICES:
                        try:
                            jet = sm._derivatives(params, sid, source, bonds)
                        except FormulaUnavailable:
                            continue
                        k = sm._pauli_diagonal(params)
                        if source == "closed" and params.model == "XXZ":
                            k = [-params.hbar**2 * t for t in (params.j, params.j, params.jz)]
                        n_bonds = len(sm._bond_list(n, bonds)) if source == "direct" else n - 1
                        bound = 4e-15 * (1.0 + n_bonds * sum(map(abs, k)))
                        labels = rng.uniform(-3.0, 3.0, (3, 2)).tolist()
                        random_labels += len(labels)
                        for x, y in fixed + labels:
                            if source == "direct":
                                exact = _exact_law(k, sid, n_bonds, _Jet(x, 1), _Jet(y, 0, 1))
                            else:
                                exact = _exact_closed_form(params, sid, x, y)
                            grad, hess = jet(x, y)
                            for got, want in zip(grad + hess, exact.d[1:]):
                                assert abs(Fraction(got) - want) <= bound, (params, sid, source, bonds, x, y)
    assert random_labels == 468


def test_merge_orders_last_bit_ties_by_position():
    """Values equal to within 1e-12 (relative) are ordered by (x, y); values further apart by value."""
    v = -2.0
    w = math.nextafter(v, 0.0)
    on_y = [sm.Extremum(1e-9, 1.0, v, sm.MAX), sm.Extremum(-1e-9, -1.0, w, sm.MAX)]
    on_x = [sm.Extremum(1.0, -1e-9, w, sm.MIN), sm.Extremum(-1.0, 1e-9, v, sm.MIN)]
    for pair, first in ((on_y, (-1e-9, -1.0)), (on_x, (-1.0, 1e-9))):
        for ordered in (pair, pair[::-1]):
            merged = sm._sort_extrema(list(ordered))
            assert (merged[0].x, merged[0].y) == first
    # Values that differ beyond rounding still order by value.
    apart = [sm.Extremum(-1.0, 0.0, 1.0, sm.MAX), sm.Extremum(1.0, 0.0, 1.0 - 1e-9, sm.MAX)]
    assert [e.x for e in sm._sort_extrema(apart)] == [1.0, -1.0]


# P- XYZ with jy close to jz: a nearly level landscape whose grid holds 26
# seeds, 15 of them MIN or MAX seeds for which no fixed label is a MIN or MAX.
FLAT_P_MINUS = CouplingParams.xyz(jx=-1.6348598864076163, jy=1.2227705348787286, jz=1.2169120785849414)
FLAT_P_MINUS_WINDOW = (-2.499966197682181, 2.500033802317819, -2.5374097855496878, 2.4625902144503122)
FLAT_P_MINUS_STEP = 0.08276295886670162


def test_failed_refinement_keeps_other_extrema(monkeypatch):
    """A seed with no label of its kind is dropped after one jet per label and no kernel call; the other seeds
    refine.  The census lists no extremum here: both fixed P- labels are saddles."""
    grid = energy_surface(FLAT_P_MINUS, "P-", FLAT_P_MINUS_WINDOW, FLAT_P_MINUS_STEP, "closed")
    assert grid.extrema == ()
    sizes = _spy_on_kernel_sizes(monkeypatch)
    points = _spy_on_jet_points(monkeypatch)
    costs = {"kept": [], "dropped": []}
    kept = set()
    for i, j, _ in _grid_seeds(grid.values):
        sizes.clear()
        points.clear()
        try:
            e = sm.refine_extremum(FLAT_P_MINUS, "P-", (float(grid.xs[j]), float(grid.ys[i])), "closed")
        except NoConvergence:
            costs["dropped"].append((list(sizes), len(points)))
            continue
        costs["kept"].append((list(sizes), len(points)))
        if e.kind != sm.CONSTANT:  # a foot on the critical imaginary axis
            kept.add((e.kind, e.x, e.y))
    assert len(costs["dropped"]) == 15
    assert len(costs["kept"]) + len(costs["dropped"]) == 26
    # The seed's jet, then one per fixed P- label (the foot on the imaginary axis, +1, -1); a kept seed's value
    # is one kernel call at its final point.
    assert all(cost == ([], 4) for cost in costs["dropped"])
    assert all(sizes == [1] and 1 <= jets <= 4 for sizes, jets in costs["kept"])
    assert kept == {(sm.SADDLE, -1.0, 0.0), (sm.SADDLE, 1.0, 0.0)}


# G+ XYZ near jx = jy: the grid seed near (1.04, 0.02) has Hessian eigenvalues
# (-0.375, 1.45e-4), so it lands on its nearest label, the SADDLE (1, 0).
G_NEAR = CouplingParams.xyz(jx=0.465721243863944, jy=0.45666640033603256, jz=0.6800728488750654)
G_NEAR_WINDOW = (-2.457453444314526, 2.542546555685474, -2.4792202943370514, 2.5207797056629486)
G_NEAR_SADDLE_SEED = (1.0425465556854738, 0.020779705662948622)


def test_refinement_logs_route_per_seed(caplog):
    """Each refinement logs its seed, route, the number of labels tried and its final gradient at DEBUG on "qcs"."""
    surfaces = [(G_NEAR, "G+", G_NEAR_WINDOW, "closed", "all-pairs"),
                (PG, "PG+", (-1.7, 1.7, -1.7, 1.7), "direct", "chain")]
    with caplog.at_level("DEBUG", logger="qcs"):
        for params, sid, window, source, bonds in surfaces:
            grid = energy_surface(params, sid, window, 0.1, source, bonds, refine=False)
            for i, j, _ in _grid_seeds(grid.values):
                sm.refine_extremum(params, sid, (float(grid.xs[j]), float(grid.ys[i])), source, bonds)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("refined seed")]
    assert len(lines) == 8
    assert all(" G+ surface onto label (" in line and ", labels tried 1, " in line for line in lines[:4])
    assert all(" PG+ surface in place, labels tried 0, " in line for line in lines[4:])
    for line in lines:
        assert float(line.rsplit("|grad| ", 1)[1]) <= 1e-6


SADDLE_SNAP = """
import sys
from qcs import spin_models as sm
params = sm.CouplingParams.xyz(jx={jx!r}, jy={jy!r}, jz={jz!r})
grid = sm.energy_surface(params, "G+", {window!r}, 0.1, "closed")
e = sm.refine_extremum(params, "G+", {seed!r}, "closed")
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
print([(e.kind, e.x, e.y) for e in grid.extrema if e.kind == sm.SADDLE], (e.kind, e.x, e.y))
"""


def test_saddle_seed_loads_no_scipy():
    """A saddle seed lands exactly on its stationary label, the surface lists no saddle, and no SciPy module is
    loaded on the way."""
    code = SADDLE_SNAP.format(jx=G_NEAR.jx, jy=G_NEAR.jy, jz=G_NEAR.jz, window=G_NEAR_WINDOW, seed=G_NEAR_SADDLE_SEED)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] ('SADDLE', 1.0, 0.0)\n"


def _fixed_stationary_labels(sid, t):
    """The table refinement reads, written out: t is a coordinate along the P+ or P- axis."""
    if sid == "P+":
        return [(t, 0.0), (0.0, 1.0), (0.0, -1.0)]
    if sid == "P-":
        return [(0.0, t), (1.0, 0.0), (-1.0, 0.0)]
    return [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]


@pytest.mark.parametrize("model", ["XXX", "XXZ", "XYZ"])
def test_fixed_stationary_labels_are_stationary(model):
    """Every surface is stationary on its state's fixed labels, whatever the couplings, source or bonds.

    Each bond is sum_a K_a sigma_a sigma_a with a diagonal K, so G and PG
    surfaces are stationary at 0, +-1 and +-i, P+ along the real axis and
    at +-i, P- along the imaginary axis and at +-1.  Refinement sends a seed
    to one of these labels, nearest first, and trusts that it is stationary.
    """
    rng = random.Random(71)
    checked = 0
    for _ in range(10):
        j, delta, jz = (rng.uniform(-2.0, 2.0) for _ in range(3))
        hbar = 10.0 ** rng.uniform(-1.0, 1.0)
        params = {"XXX": lambda: CouplingParams.xxx(j=j, hbar=hbar),
                  "XXZ": lambda: CouplingParams.xxz(j=j, delta=delta, hbar=hbar),
                  "XYZ": lambda: CouplingParams.xyz(jx=j, jy=delta, jz=jz, hbar=hbar)}[model]()
        for sid in STATE_IDS:
            ts = [rng.uniform(-3.0, 3.0) for _ in range(3)]
            labels = {p for t in ts for p in _fixed_stationary_labels(sid, t)}
            x, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            foot = x if sid == "P+" else y
            table = _fixed_stationary_labels(sid, foot)
            assert sm._stationary_points(sid, x, y) == sorted(table, key=lambda p: math.hypot(p[0] - x, p[1] - y))
            for source in ("direct", "closed"):
                for bonds in sm.BOND_CHOICES:
                    try:
                        f = sm._surface_function(params, sid, source, bonds)
                        jet = sm._derivatives(params, sid, source, bonds)
                    except FormulaUnavailable:
                        continue
                    for label in labels:
                        value, grad = float(f(*label)), jet(*label)[0]
                        assert math.hypot(*grad) <= 1e-8 * (1.0 + abs(value)), (params, sid, source, bonds, label)
                        checked += 1
    assert checked >= 10 * 6 * 2 * 5


def test_scalar_oracle_raises_where_the_grid_does():
    """q_symbol_direct raises BadParams, not inf, at a label whose energy overflows on the grid too.

    G+ at psi = 0 has the energy tr K - 2 K_z = 1.8e308 from a finite H.
    PG- at 0.5i has the representable 1.7e308, which H a overflowed on its
    way to: both routes return it.
    """
    params = CouplingParams.xyz(jx=1.2e308, jy=1.2e308, jz=-1.2e308)
    huge = CouplingParams.xyz(jx=1.7e308, jy=1e8, jz=-1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="overflows"):
            q_symbol_direct(params, "G+", 0.0)
        with pytest.raises(BadParams, match="grid overflow"):
            energy_surface(params, "G+", (-1.0, 0.5, 0.0, 1.0), 0.5, refine=False)
        assert q_symbol_direct(params, "G+", 1.0) == pytest.approx(-6e307, rel=1e-15)
        grid = energy_surface(huge, "PG-", (-1.0, 0.5, 0.0, 1.0), 0.5, refine=False)
        assert grid.values[1, 2] == pytest.approx(q_symbol_direct(huge, "PG-", 0.5j), rel=1e-15)
        assert q_symbol_direct(huge, "PG-", 0.5j) == pytest.approx(1.7e308, rel=1e-15)


def test_shallow_valley_minima_are_kept():
    """Seeds up to 0.5 from a shallow minimum (six steps of this grid) still reach it."""
    params = CouplingParams.xyz(jx=1.6980793402194458, jy=-0.5241278911809659, jz=1.751768203344752)
    window = (-2.481228575094236, 2.518771424905764, -2.4826186258668765, 2.5173813741331235)
    census = energy_surface(params, "P+", window, 0.08, "closed").extrema
    for extrema in (census, _seeded_extrema(params, "P+", window, 0.08, "closed", "all-pairs")):
        assert [e.kind for e in extrema] == [sm.MIN, sm.MIN]
        for e, y in zip(extrema, (-1.0, 1.0)):
            assert math.hypot(e.x, e.y - y) <= 1e-7


# G+ XYZ near jx = jy whose MIN seed beside (-1, 0) sees a SADDLE there first.
G_TIE = CouplingParams.xyz(jx=1.2654864670238135, jy=1.2770941634217208, jz=0.14200448231306373)
G_TIE_WINDOW = (-2.512951134121445, 2.487048865878555, -2.544793412870247, 2.455206587129753)
G_TIE_STEP = 0.099652006380203


def test_minimum_seed_beside_a_saddle_descends_to_a_minimum():
    """A MIN or MAX seed whose nearest label is a saddle passes it for the nearest label of its own kind.

    Near-tie couplings make flat valleys; snapping every seed to its
    nearest label, whatever that label's kind, loses an extremum on each
    of the surfaces below.  Their grid seeds refine to the census's rows.
    """
    seed_point = (-1.0181710384184002, 0.046158753015030474)  # a grid node of G_TIE_WINDOW
    jet = sm._derivatives(G_TIE, "G+", "closed", "all-pairs")
    assert sm._eigenvalues(jet(*seed_point)[1])[0] > 0.0
    assert sm._kind(sm._eigenvalues(jet(-1.0, 0.0)[1])) == sm.SADDLE
    e = sm.refine_extremum(G_TIE, "G+", seed_point, "closed")
    assert (e.kind, e.x, e.y) == (sm.MIN, 0.0, 1.0)
    cases = [
        (G_TIE, "G+", "closed", "all-pairs", G_TIE_WINDOW, G_TIE_STEP,
         [(sm.MIN, 0.0, -1.0), (sm.MIN, 0.0, 1.0), (sm.MAX, 0.0, 0.0)]),
        (CouplingParams.xyz(jx=-0.8554756749999948, jy=-0.855547582836675, jz=-1.2066975644306197), "G+", "closed",
         "chain", (-2.081887372034269, 1.651013213372578, -1.7658990384421667, 1.9670015469646807),
         0.47133334792440396, [(sm.MIN, -1.0, 0.0), (sm.MIN, 1.0, 0.0), (sm.MAX, 0.0, 0.0)]),
        (CouplingParams.xyz(jx=0.6049465862801942, jy=0.6047575898085654, jz=1.3580984488149737), "PG-", "direct",
         "all-pairs", (-1.6424825814912976, 1.9104672552563726, -1.5804849538055104, 1.9724648829421598),
         0.44594362288031086, [(sm.MIN, 0.0, 0.0), (sm.MAX, 0.0, -1.0), (sm.MAX, 0.0, 1.0)]),
    ]
    for params, sid, source, bonds, window, step, expected in cases:
        census = energy_surface(params, sid, window, step, source, bonds).extrema
        for extrema in (census, _seeded_extrema(params, sid, window, step, source, bonds)):
            assert [(e.kind, round(e.x, 6) + 0.0, round(e.y, 6) + 0.0) for e in extrema] == expected, (params, sid)


def test_degenerate_maxima_converge():
    """Maxima with a curvature of -0.0086 still reach their labels (0, +-1)."""
    params = CouplingParams.xyz(jx=1.8882018549708155, jy=-1.6874178590416822, jz=-1.6831326434938143)
    window = (-2.512865184530696, 2.487134815469304, -2.542852504454167, 2.457147495545833)
    oracle = _oracle_kernel(params, "G+", "direct", "all-pairs")
    census = energy_surface(params, "G+", window, 0.1, "direct").extrema
    for extrema in (census, _seeded_extrema(params, "G+", window, 0.1, "direct", "all-pairs")):
        maxima = [e for e in extrema if e.kind == sm.MAX]
        assert [(round(e.x, 6) + 0.0, round(e.y, 6)) for e in maxima] == [(0.0, -1.0), (0.0, 1.0)]
        for e in maxima:
            assert np.linalg.norm(_central_gradient(oracle, e.x, e.y)) <= 1e-6


def _nelder_mead_refine(params, state_id, seed, source="direct", bonds="all-pairs"):
    """Nelder-Mead refinement of every seed, a search that knows nothing of the fixed labels; the reference below."""
    f = sm._surface_function(params, state_id, source, bonds)
    jet = sm._derivatives(params, state_id, source, bonds)
    x0, y0 = float(seed[0]), float(seed[1])
    grad0, hess0 = jet(x0, y0)
    if max(map(abs, hess0)) < sm._CURVATURE_FLOOR and math.hypot(*grad0) < 1e-9:
        return sm.Extremum(x0, y0, float(f(x0, y0)), sm.CONSTANT)
    eigs = sm._eigenvalues(hess0)
    if eigs[0] > 0.0:
        objective = lambda v: float(f(*v.tolist()))
    elif eigs[1] < 0.0:
        objective = lambda v: -float(f(*v.tolist()))
    else:
        objective = lambda v: math.hypot(*jet(*v.tolist())[0]) ** 2
    res = sm.minimize(
        objective,
        np.array([x0, y0]),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 10000, "maxfev": 20000},
    )
    if not res.success:
        raise NoConvergence(f"refinement stalled at {res.x}: {res.message}")
    x, y = float(res.x[0]), float(res.x[1])
    return sm.Extremum(x, y, float(f(x, y)), sm._kind(sm._eigenvalues(jet(x, y)[1])))


def _random_surfaces(n, rng):
    """XYZ surfaces with offset windows, so extrema fall between grid nodes.

    The couplings differ pairwise by 0.05 or more.  Where two of them nearly
    agree, an extremum sits in a valley whose curvature is about their gap,
    and Nelder-Mead, which stops once its simplex values agree to 1e-13,
    leaves it off along the valley (8.3e-7 off, gradient 1e-8, on PG+ at
    a gap of 2.7e-4, where refinement lands on the label itself).
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


def test_refinement_matches_nelder_mead_on_random_surfaces():
    """The census's extrema are the ones Nelder-Mead finds from the grid seeds: same kinds and counts, within
    2e-7."""
    at = lambda e: (e.kind, round(e.x, 4) + 0.0, round(e.y, 4) + 0.0)
    count = 0
    for params, sid, window, step in _random_surfaces(40, random.Random(61)):
        census = sorted(energy_surface(params, sid, window, step, "closed", "chain").extrema, key=at)
        reference = sorted(_seeded_extrema(params, sid, window, step, "closed", "chain", _nelder_mead_refine), key=at)
        assert [e.kind for e in census] == [e.kind for e in reference], (params, sid)
        oracle = _oracle_kernel(params, sid, "closed", "chain")
        for e, r in zip(census, reference):
            assert math.hypot(e.x - r.x, e.y - r.y) <= 2e-7
            assert abs(e.value - r.value) <= 1e-10
            assert np.linalg.norm(_central_gradient(oracle, e.x, e.y)) <= 1e-6
        count += len(census)
    assert count >= 80


def _refine_classifying_afresh(params, state_id, seed, source="direct", bonds="all-pairs"):
    """Reference: the refinement route with every kind read from a fresh jet by eigvalsh and every value from f."""
    f = sm._surface_function(params, state_id, source, bonds)
    x0, y0 = float(seed[0]), float(seed[1])

    def fresh(x, y):
        grad, (fxx, fxy, fyy) = sm._derivatives(params, state_id, source, bonds)(x, y)
        return grad, (fxx, fxy, fyy), np.linalg.eigvalsh([[fxx, fxy], [fxy, fyy]])

    grad0, hess0, eigs = fresh(x0, y0)
    if max(map(abs, hess0)) < sm._CURVATURE_FLOOR and math.hypot(*grad0) < 1e-9:
        return sm.Extremum(x0, y0, float(f(x0, y0)), sm.CONSTANT)
    wanted = sm.MIN if eigs[0] > 0.0 else sm.MAX if eigs[1] < 0.0 else None
    fresh_kind = lambda x, y: sm._kind(fresh(x, y)[2])
    if wanted is not None and math.hypot(*grad0) <= 1e-9:
        return sm.Extremum(x0, y0, float(f(x0, y0)), fresh_kind(x0, y0))
    for x, y in sm._stationary_points(state_id.upper(), x0, y0):
        if wanted in (None, fresh_kind(x, y)):
            return sm.Extremum(x, y, float(f(x, y)), fresh_kind(x, y))
    raise NoConvergence(f"no label is a {wanted}")


@pytest.mark.parametrize("source", ["direct", "closed"])
def test_stencil_kinds_match_fresh_hessians_on_random_surfaces(source):
    """The census's kinds and values are those that grid seeds refine to with every kind read by eigvalsh from a
    fresh jet and every value from the kernel, bit for bit."""
    count = 0
    for params, sid, window, step in _random_surfaces(40, random.Random(67)):
        census = energy_surface(params, sid, window, step, source, "chain").extrema
        reference = _seeded_extrema(params, sid, window, step, source, "chain", _refine_classifying_afresh)
        assert [(e.x, e.y, e.value, e.kind) for e in census] == [
            (e.x, e.y, e.value, e.kind) for e in reference
        ], (params, sid)
        count += len(census)
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


def _spy_on_jet_points(monkeypatch) -> list:
    """Make every `_derivatives` jet record the label of each call in the returned list."""
    derivatives = sm._derivatives
    points = []

    def spying_derivatives(*key):
        jet = derivatives(*key)

        def spy(x, y):
            points.append((x, y))
            return jet(x, y)

        return spy

    monkeypatch.setattr(sm, "_derivatives", spying_derivatives)
    return points


def test_seed_left_in_place_costs_one_kernel_call(monkeypatch):
    """A seed already stationary stays in place for one jet and one single-label kernel call, its value."""
    sizes = _spy_on_kernel_sizes(monkeypatch)
    points = _spy_on_jet_points(monkeypatch)
    cases = [
        (PG, "PG+", (1.0, 0.0), "direct", "chain", sm.MIN),
        (PG, "PG+", (0.0, 1.0), "closed", "chain", sm.MAX),
        (GEN, "G+", (-1.0, 0.0), "direct", "all-pairs", sm.MIN),
    ]
    for params, sid, seed_point, source, bonds, kind in cases:
        sizes.clear()
        points.clear()
        e = sm.refine_extremum(params, sid, seed_point, source, bonds)
        assert (e.x, e.y, e.kind) == (*seed_point, kind)
        assert sizes == [1] and points == [seed_point]
        assert e.value == float(sm._surface_function(params, sid, source, bonds)(*seed_point))


def test_refinement_calls_the_kernel_at_single_labels_nearest_first(monkeypatch):
    """Refinement calls the kernel with single labels only, at most twice per seed, and reads its kinds from one
    jet at the seed, then one per label tried, nearest first."""
    sizes = _spy_on_kernel_sizes(monkeypatch)
    points = _spy_on_jet_points(monkeypatch)
    refine = sm.refine_extremum
    routes = {"in place": 0, "nearest label": 0, "farther label": 0}

    def recording_refine(*args):
        sizes.clear()
        points.clear()
        e = refine(*args)
        assert set(sizes) == {1} and len(sizes) <= 2
        assert (e.x, e.y) == points[-1]
        if len(points) == 1:
            routes["in place"] += 1
            return e
        # The labels tried are the nearest ones, in order.
        assert points[1:] == sm._stationary_points(args[1], *points[0])[: len(points) - 1]
        routes["nearest label" if len(points) == 2 else "farther label"] += 1
        return e

    surfaces = [(params, sid, window, step, "closed", "chain")
                for params, sid, window, step in _random_surfaces(40, random.Random(67))]
    surfaces += [(G_NEAR, "G+", G_NEAR_WINDOW, 0.1, "closed", "all-pairs"),
                 (G_TIE, "G+", G_TIE_WINDOW, G_TIE_STEP, "closed", "all-pairs"),
                 (PG, "PG+", (-1.7, 1.7, -1.7, 1.7), 0.1, "direct", "chain")]
    for surface in surfaces:
        _seeded_extrema(*surface, recording_refine)
    assert min(routes.values()) >= 1, routes


def test_census_lists_the_max_the_grid_seeds_miss():
    """G+ at (Jx, Jy, Jz) = (-1.763, 0.678, -1.766): K_x and K_z nearly tie, so the MAX at psi = 0 has Hessian
    eigenvalues -0.024 and -19.552, and at step 0.188 no grid node there is a strict 8-neighbor maximum.  The
    census lists it; the grid route it replaced did not."""
    params = CouplingParams.xyz(jx=-1.763, jy=0.678, jz=-1.766)
    window, step = (-2.5, 2.5, -2.5, 2.5), 0.188
    rows = [(e.kind, e.x, e.y) for e in energy_surface(params, "G+", window, step).extrema]
    assert rows == [(MIN, 0.0, -1.0), (MIN, 0.0, 1.0), (sm.MAX, 0.0, 0.0)]
    origin = next(row for row in sm._census(params, "G+", "direct", "all-pairs") if row[:2] == (0.0, 0.0))
    assert origin[3] == pytest.approx((-19.552, -0.024), abs=1e-12)
    seeded = _seeded_extrema(params, "G+", window, step, "direct", "all-pairs")
    assert [(e.kind, e.x, e.y) for e in seeded] == rows[:2]


def test_energy_surface_reads_extrema_from_one_grid_pass(monkeypatch):
    """`energy_surface` evaluates its grid once and takes its extrema from the census: no refinement, no
    derivative and no kernel call beyond the grid's blocks."""
    passes = []
    evaluate = sm._evaluate_grid
    monkeypatch.setattr(sm, "_evaluate_grid", lambda *args: passes.append(args) or evaluate(*args))
    sizes = _spy_on_kernel_sizes(monkeypatch)

    def off_the_surface_path(*args, **kwargs):
        raise AssertionError("energy_surface called refinement")

    monkeypatch.setattr(sm, "refine_extremum", off_the_surface_path)
    monkeypatch.setattr(sm, "_derivatives", off_the_surface_path)
    cases = [(XXZ, "P+", (-2.0, 2.0, -2.0, 2.0), 0.1, "closed", "all-pairs"),
             (PG, "PG+", (-1.7, 1.7, -1.7, 1.7), 0.1, "direct", "chain"),
             (GEN, "G+", (-2.5, 2.5, -2.5, 2.5), 0.1, "direct", "all-pairs"),
             (G_TIE, "G+", G_TIE_WINDOW, G_TIE_STEP, "closed", "all-pairs")]
    for params, sid, window, step, source, bonds in cases:
        passes.clear()
        sizes.clear()
        grid = energy_surface(params, sid, window, step, source, bonds)
        assert len(passes) == 1 and len(grid.extrema) >= 2
        assert sum(sizes) == grid.values.size


def test_census_matches_derivatives_kernel_and_refinement_on_random_surfaces():
    """At every fixed label of 3000 random surfaces (every model, state, source and bond set; a fifth of them XYZ
    with |Jx - Jy| from 1e-7 to 1e-2), the census's eigenvalues are those of the exact Hessian within
    2e-15 (1 + n_bonds sum |K|), its value is the kernel's to the last bit and the sign of zero, and
    `refine_extremum` seeded at a MIN or MAX returns the census's row.  The worst eigenvalue gap measured is
    1.59e-15 on this draw and 1.67e-15 on another like it: each side rounds by about 1e-15 of that scale."""
    rng = random.Random(97)
    surfaces = rows = 0
    while surfaces < 3000:
        j, delta, jz = (rng.uniform(-2.0, 2.0) for _ in range(3))
        hbar = 10.0 ** rng.uniform(-1.0, 1.0)
        model = "XYZ" if surfaces % 5 == 0 else rng.choice(sm.MODELS)
        if surfaces % 5 == 0:
            delta = j + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-7.0, -2.0)
        params = {"XXX": lambda: CouplingParams.xxx(j=j, hbar=hbar),
                  "XXZ": lambda: CouplingParams.xxz(j=j, delta=delta, hbar=hbar),
                  "XYZ": lambda: CouplingParams.xyz(jx=j, jy=delta, jz=jz)}[model]()
        sid, source, bonds = rng.choice(STATE_IDS), rng.choice(("direct", "closed")), rng.choice(sm.BOND_CHOICES)
        try:
            census = sm._census(params, sid, source, bonds)
        except FormulaUnavailable:
            continue
        f, jet = sm._surface_function(params, sid, source, bonds), sm._derivatives(params, sid, source, bonds)
        k = sm._pauli_diagonal(params)
        if source == "closed" and model == "XXZ":
            k = [-hbar**2 * t for t in (params.j, params.j, params.jz)]
        n = 3 if sid.startswith("PG") else 2
        n_bonds = len(sm._bond_list(n, bonds)) if source == "direct" else n - 1
        bound = 2e-15 * (1.0 + n_bonds * sum(map(abs, k)))
        for x, y, value, eigs, kind in census:
            want = sm._eigenvalues(jet(x, y)[1])
            assert max(abs(a - b) for a, b in zip(eigs, want)) <= bound, (params, sid, source, bonds, x, y)
            assert repr(value) == repr(float(f(x, y))), (params, sid, source, bonds, x, y)
            if kind in (MIN, sm.MAX):
                e = sm.refine_extremum(params, sid, (x, y), source, bonds)
                assert (e.x, e.y, repr(e.value), e.kind) == (x, y, repr(value), kind)
            rows += 1
        surfaces += 1
    assert rows >= 3000 * 2


def test_closed_refinement_rejects_non_finite_seeds():
    """A non-finite seed is InfinitePoint on the closed source too, as on the direct one."""
    for seed_point in ((math.inf, 0.0), (0.5, -math.inf), (math.nan, 0.0)):
        with pytest.raises(InfinitePoint):
            sm.refine_extremum(GEN, "G+", seed_point, "closed")


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
    """Each bond of H is sum_a K_a sigma_a sigma_a, with K = `_pauli_diagonal`, the law's K.

    K is (c0, c1, c2) of `_term_couplings` for XYZ and (c0/2, c1/2, c2) for
    XXX and XXZ, whose S+ S- and S- S+ terms each carry half of
    sx sx + sy sy.  No identity, one-site or cross term appears, and pairs
    that are not bonds couple by 0.
    """
    rng = np.random.default_rng(23)
    for _ in range(20):
        j, hbar = rng.uniform(-2.0, 2.0, 3).tolist(), float(10.0 ** rng.uniform(-1.0, 1.0))
        for params in (CouplingParams.xxx(j=j[0], hbar=hbar), CouplingParams.xxz(j=j[0], delta=j[1], hbar=hbar),
                       CouplingParams.xyz(jx=j[0], jy=j[1], jz=j[2], hbar=hbar)):
            k = sm._pauli_diagonal(params)
            h = hamiltonian(params, n, bonds)
            for pair in ((0, 1), (0, 2), (1, 2))[: 1 if n == 2 else 3]:
                want = np.diag([0.0, *k]) if pair in sm._bond_list(n, bonds) else np.zeros((4, 4))
                assert np.allclose(_pauli_couplings(h, n, *pair), want, rtol=0.0, atol=1e-15 * max(map(abs, k)))


def _pair_correlation(state, i, j, n_qubits):
    """D[a, b] = <B|sigma_a(i) sigma_b(j)|B> over a, b in x, y, z."""
    paulis = (sigma_x(), sigma_y(), sigma_z())
    a = state.amplitudes
    return np.array([[np.vdot(a, embed_pair(pa, pb, i, j, n_qubits) @ a).real for pb in paulis] for pa in paulis])


def test_law_rows_are_the_reference_correlations():
    """Each `_LAW` row (c, s, axis) is its psi = 0 reference state's D_B = c I + s e_axis e_axis^T, for every
    qubit pair of the three-qubit states, so the law's f = n_bonds (c tr K + s v^T K v) is sum_bonds <K, O D_B O^T>."""
    for sid in STATE_IDS:
        n = 3 if sid.startswith("PG") else 2
        c, s, axis = sm._LAW[sid]
        e = np.eye(3)["xyz".index(axis)]
        for pair in ((0, 1), (0, 2), (1, 2))[: 1 if n == 2 else 3]:
            d_b = _pair_correlation(entangled_state(sid, 0.0), *pair, n)
            assert np.allclose(d_b, c * np.eye(3) + s * np.outer(e, e), rtol=0.0, atol=1e-15), (sid, pair)


def _exact_law(k, sid, n_bonds, x, y):
    """The law in rational arithmetic at the float label x + 1j*y, or at `_Jet` labels, from README's forms of v."""
    c, s, axis = sm._LAW[sid]
    c, s = Fraction(c).limit_denominator(3), Fraction(s)
    if not isinstance(x, _Jet):
        x, y = Fraction(x), Fraction(y)
    r2 = x * x + y * y
    p = {"z": (2 * x, 2 * y, 1 - r2), "y": (-2 * x * y, 1 + x * x - y * y, -2 * y),
         "x": (1 - x * x + y * y, -2 * x * y, -2 * x)}[axis]
    k = [Fraction(t) for t in k]
    return n_bonds * (c * sum(k) + s * sum(t * u * u for t, u in zip(k, p)) / ((1 + r2) * (1 + r2)))


def test_law_kernel_is_as_accurate_as_the_amplitude_kernel():
    """Errors against exact arithmetic, over n_bonds * sum |K|, stay within those of the amplitude kernel the law
    replaced.  Over 288,000 random labels the law measured at most 9.3e-16 against 1.5e-15, and at 0, +-1 and
    +-i at most 1.7e-16 against 4.2e-16."""
    rng = np.random.default_rng(29)
    fixed = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    for _ in range(4):
        j, delta, jz = rng.uniform(-2.0, 2.0, 3).tolist()
        hbar = float(10.0 ** rng.uniform(-1.0, 1.0))
        for params in (CouplingParams.xxx(j=j, hbar=hbar), CouplingParams.xxz(j=j, delta=delta, hbar=hbar),
                       CouplingParams.xyz(jx=j, jy=delta, jz=jz)):
            k = sm._pauli_diagonal(params)
            for sid in STATE_IDS:
                for bonds in sm.BOND_CHOICES:
                    n_bonds = len(sm._bond_list(3 if sid.startswith("PG") else 2, bonds))
                    scale = n_bonds * sum(map(abs, k))
                    f = sm._surface_function(params, sid, "direct", bonds)
                    for labels, bound in ((fixed, 3e-16), (rng.uniform(-3.0, 3.0, (20, 2)).tolist(), 1.5e-15)):
                        xs, ys = np.array(labels).T
                        for x, y, value in zip(xs.tolist(), ys.tolist(), f(xs, ys).tolist()):
                            error = abs(Fraction(value) - _exact_law(k, sid, n_bonds, x, y))
                            assert error <= bound * scale, (params, sid, bonds, x, y)


def test_direct_kernel_rejects_non_finite_labels():
    """A non-finite label, as from a non-finite refinement seed, is InfinitePoint on the direct source."""
    for seed_point in ((math.inf, 0.0), (0.5, -math.inf), (math.nan, 0.0)):
        with pytest.raises(InfinitePoint):
            sm.refine_extremum(GEN, "G+", seed_point)


@pytest.mark.parametrize("corner, step, shrink", [
    ((1e200, -3e200), 1e199, 1.0),
    ((-2e300, 1e300), 3e299, 1.0),
    ((5e153, 5e153), 3e153, 1.0),
    ((1.4e308, -1.7e308), 1e307, 2.0**-30),
])
def test_direct_grid_far_from_the_origin_matches_the_oracle(corner, step, shrink):
    """Windows near 1e200 and 1e300, and one across |psi| ~ 1.3e154 where r^2 overflows and the law changes
    charts, give finite values within 1e-12 of q_symbol_direct, with no warning.  Where |psi| itself
    overflows, no state can be built; the oracle is read at the labels times 2^-30, a ray on which the
    surface has long reached its limit."""
    window = (corner[0], corner[0] + 3.0 * step, corner[1], corner[1] + 2.0 * step)
    params = CouplingParams.xyz(jx=1.1, jy=-0.4, jz=0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sid in STATE_IDS:
            for bonds in sm.BOND_CHOICES:
                grid = energy_surface(params, sid, window, step, bonds=bonds, refine=False)
                xs, ys = shrink * grid.xs[None, :], shrink * grid.ys[:, None]
                oracle = _oracle_kernel(params, sid, "direct", bonds)(xs, ys)
                assert np.max(np.abs(grid.values - oracle)) <= 1e-12, (sid, bonds)


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
    """Overflow in the summed H, on the grid, at an extremum or in a refinement derivative is BadParams, never inf
    or a warning."""
    huge = CouplingParams.xyz(jx=1.2e308, jy=1.2e308, jz=-1.2e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="Hamiltonian overflows"):  # three bonds of 8.5e307
            hamiltonian(CouplingParams.xyz(jx=1.0, jy=1.0, jz=1.7e308), 3, "all-pairs")
        with pytest.raises(BadParams, match="grid overflow"):
            energy_surface(huge, "G+", (-1.0, 0.5, 0.0, 1.0), 0.5)
        with pytest.raises(BadParams, match=r"energy at \(0.0, 0.0\) overflows"):  # 1.8e308 between finite nodes
            energy_surface(huge, "G+", (-0.25, 0.25, -0.2, 0.3), 0.5)
        for source in ("direct", "closed"):
            jet = sm._derivatives(CouplingParams.xyz(jx=1.7e308, jy=3.0), "G+", source, "all-pairs")
            with pytest.raises(BadParams, match="derivatives"):
                jet(1.0, 0.0)
        # The census reads no derivative: a finite grid whose curvature f_xx = 4 K_x overflows lists its extrema.
        grid = energy_surface(CouplingParams.xyz(jx=1.7e308, jy=3.0), "G+", step=0.5)
        assert [(e.kind, e.x, e.y, e.value) for e in grid.extrema] == [
            (MIN, -1.0, 0.0, -8.5e307), (MIN, 1.0, 0.0, -8.5e307), (sm.MAX, 0.0, 0.0, 8.5e307)]
        # Finite energies from -1.7e308 to 1.7e308: their spread overflows, the surface does not.
        grid = energy_surface(CouplingParams.xyz(jx=1.7e308, jy=-1.7e308), "G+", step=0.5, refine=False)
        assert np.isfinite(grid.values).all() and not grid.constant
        # 1e200 is large but finite: the extrema come out scaled, with no warning.  The MAX at 0 stands above its
        # neighbor nodes by less than their rounding, so no grid seed could find it.
        grid = energy_surface(CouplingParams.xyz(jx=1e200, jy=3.0, jz=1.0), "G+", step=0.5)
        assert [e.kind for e in grid.extrema] == [MIN, MIN, sm.MAX] and grid.extrema[0].value == pytest.approx(-5e199)
