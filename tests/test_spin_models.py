import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcs import spin_models as sm
from qcs.entangled_basis import STATE_IDS, entangled_state
from qcs.errors import BadParams, FormulaUnavailable, InfinitePoint
from qcs.spin_models import (
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


@seed(43)
@settings(max_examples=25, deadline=None)
@given(
    j=st.tuples(couplings, couplings, couplings),
    corner=st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
    step=st.floats(0.01, 3.0),
)
def test_surface_grid_matches_scalar_routes(j, corner, step):
    """Every node of the array route equals the scalar q_symbol_direct/closed."""
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
                    f = sm._surface_function(params, sid, source, bonds)
                    try:
                        grid = energy_surface(params, sid, window, step, source, bonds, refine=False)
                    except FormulaUnavailable:
                        with pytest.raises(FormulaUnavailable):
                            f(0.0, 0.0)
                        continue
                    assert grid.values.shape == (grid.ys.size, grid.xs.size) == (3, 4)
                    for i, y in enumerate(grid.ys):
                        for k, x in enumerate(grid.xs):
                            assert abs(grid.values[i, k] - f(x, y)) <= 1e-12, (params, sid, bonds, source)


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


def test_surface_source_case_insensitive():
    params = CouplingParams.xyz(jx=1.0, jy=0.5, jz=0.2)
    a = energy_surface(params, "P+", window=(-1, 1, -1, 1), step=0.5, source="CLOSED", refine=False)
    b = energy_surface(params, "P+", window=(-1, 1, -1, 1), step=0.5, source="closed", refine=False)
    assert np.array_equal(a.values, b.values)
