"""Seeded invariant suite spanning every module; backs the verify command.

Each check returns its worst measured deviation against a hard tolerance.
Two checks exercise closed-form expressions that are known to disagree
with the direct numeric oracle (the XXZ P+ closed form and the closed-form
concurrence reading); those report their deviation as WARN and never
fail the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import complex_geometry as cg
from . import coherent_states as cs
from . import entangled_basis as eb
from . import entanglement_measures as em
from . import evolution as ev
from . import gates as gt
from . import spin_models as sm

__all__ = ["CheckResult", "run_suite", "format_report", "WARN_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS, WARN, or FAIL
    max_dev: float
    tolerance: Optional[float]
    detail: str = ""


def _random_points(rng: np.random.Generator, n: int, scale: float = 1.5) -> np.ndarray:
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _random_shell(rng: np.random.Generator, n: int, lo: float = 0.2, hi: float = 2.0) -> np.ndarray:
    radii = rng.uniform(lo, hi, n)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return radii * np.exp(1j * angles)


def _random_state(rng: np.random.Generator, dim: int) -> cs.PureState:
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return cs.PureState(a / np.linalg.norm(a))


def _random_mobius(rng: np.random.Generator) -> cg.MobiusMap:
    while True:
        a, b, c, d = (complex(z) for z in _random_points(rng, 4, scale=1.0))
        det = a * d - b * c
        if abs(det) > 0.3:
            root = np.sqrt(det)
            return cg.MobiusMap(a / root, b / root, c / root, d / root)


def _check_cross_ratio_invariance(rng) -> float:
    worst = 0.0
    accepted = 0
    while accepted < 1000:
        pts = _random_points(rng, 4, scale=1.2)
        if min(abs(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4)) < 0.25:
            continue
        accepted += 1
        m = _random_mobius(rng)
        before = cg.cross_ratio(*pts)
        after = cg.cross_ratio(*(cg.mobius_apply(m, z) for z in pts))
        if before.is_infinity or after.is_infinity:
            worst = max(worst, 0.0 if before.is_infinity == after.is_infinity else math.inf)
            continue
        worst = max(worst, abs(before.value - after.value))
    return worst


def _check_hadamard_symmetric_points(rng) -> float:
    h_map = gt.induced_mobius(gt.gate_hadamard())
    worst = 0.0
    for psi in _random_shell(rng, 1000):
        if abs(psi + 1.0) < 0.1:
            continue
        image = cg.mobius_apply(h_map, psi).value
        unit = cg.mobius_apply(h_map, cg.symmetric_point(psi, cg.SymmetryKind.UNIT_CIRCLE))
        anti = cg.mobius_apply(h_map, cg.symmetric_point(psi, cg.SymmetryKind.ANTIPODAL))
        worst = max(worst, abs(unit.value - np.conj(-image)))
        worst = max(worst, abs(anti.value - (-1.0 / np.conj(image))))
    return worst


def _check_symmetric_point_structure(rng) -> float:
    worst = 0.0
    kinds = list(cg.SymmetryKind)
    for psi in _random_points(rng, 300):
        if abs(psi) < 1e-3:
            continue
        for kind in kinds:
            twice = cg.symmetric_point(cg.symmetric_point(psi, kind), kind)
            worst = max(worst, abs(twice.value - psi))
        composed = cg.symmetric_point(
            cg.symmetric_point(
                cg.symmetric_point(psi, cg.SymmetryKind.CONJUGATE), cg.SymmetryKind.NEG_CONJUGATE
            ),
            cg.SymmetryKind.UNIT_CIRCLE,
        )
        worst = max(worst, abs(composed.value - (-1.0 / np.conj(psi))))
    return worst


def _check_stereo_round_trip(rng) -> float:
    worst = 0.0
    for psi in _random_points(rng, 300):
        back = cg.stereo_project(cg.stereo_lift(psi))
        worst = max(worst, abs(back.value - psi))
        lifted = cg.stereo_lift(psi)
        anti = cg.stereo_project(lifted.antipode())
        expected = cg.symmetric_point(psi, cg.SymmetryKind.ANTIPODAL)
        if abs(psi) > 1e-3:
            worst = max(worst, abs(anti.value - expected.value))
    north = cg.stereo_project(cg.SpherePoint(0.0, 0.0, 1.0))
    south = cg.stereo_project(cg.SpherePoint(0.0, 0.0, -1.0))
    worst = max(worst, abs(north.value))
    if not south.is_infinity:
        worst = math.inf
    return worst


def _check_antipodal_orthogonality(rng) -> float:
    worst = 0.0
    for psi in _random_points(rng, 1000):
        ket = cs.coherent(psi)
        bra = cs.symmetric_state(psi, cg.SymmetryKind.ANTIPODAL)
        worst = max(worst, abs(cs.overlap(bra, ket)))
    return worst


def _check_state_normalization(rng) -> float:
    worst = 0.0
    labels = list(_random_points(rng, 200)) + [1e8, 1e8 * 1j, cg.INFINITY]
    for p in labels:
        worst = max(worst, abs(np.linalg.norm(cs.coherent(p).amplitudes) - 1.0))
        for kind in cg.SymmetryKind:
            worst = max(
                worst, abs(np.linalg.norm(cs.symmetric_state(p, kind).amplitudes) - 1.0)
            )
        for j in (0.5, 1.0, 1.5, 2.0, 2.5):
            worst = max(
                worst, abs(np.linalg.norm(cs.spin_j_coherent(j, p).amplitudes) - 1.0)
            )
    return worst


def _check_antipodal_expansion(rng) -> float:
    worst = 0.0
    for psi in _random_points(rng, 300):
        state = _random_state(rng, 2)
        e1, e2 = cs.expand_in_antipodal_basis(state, psi)
        worst = max(worst, abs(abs(e1) ** 2 + abs(e2) ** 2 - 1.0))
        rebuilt = (
            e1 * cs.coherent(psi).amplitudes
            + e2 * cs.symmetric_state(psi, cg.SymmetryKind.ANTIPODAL).amplitudes
        )
        worst = max(worst, float(np.max(np.abs(rebuilt - state.amplitudes))))
    return worst


def _check_spin_j_overlaps(rng) -> float:
    worst = 0.0
    for j in (0.5, 1.0, 1.5, 2.0, 2.5):
        for _ in range(100):
            phi, psi = _random_points(rng, 2)
            direct = cs.spin_j_overlap(cs.spin_j_coherent(j, phi), cs.spin_j_coherent(j, psi))
            closed = cs.spin_j_overlap_closed(j, phi, psi)
            worst = max(worst, abs(direct - closed))
            anti = cg.symmetric_point(psi, cg.SymmetryKind.ANTIPODAL)
            ortho = cs.spin_j_overlap(cs.spin_j_coherent(j, anti), cs.spin_j_coherent(j, psi))
            worst = max(worst, abs(ortho))
    return worst


def _check_gate_mobius_commutation(rng) -> float:
    worst = 0.0
    gates = [gt.gate_not(), gt.gate_hadamard(), gt.gate_phase(0.7), gt.gate_phase(-2.1)]
    for psi in _random_points(rng, 100):
        gates.append(gt.coherent_generator(psi))
    for gate in gates:
        m = gt.induced_mobius(gate)
        for psi in _random_points(rng, 25):
            via_state = cs.amplitude_ratio(gate.apply(cs.coherent(psi)))
            via_map = cg.mobius_apply(m, psi)
            if via_state.is_infinity or via_map.is_infinity:
                if via_state.is_infinity != via_map.is_infinity:
                    worst = math.inf
                continue
            worst = max(worst, abs(via_state.value - via_map.value))
    return worst


def _check_generator_columns(rng) -> float:
    worst = 0.0
    for psi in _random_points(rng, 200):
        u = gt.coherent_generator(psi)
        worst = max(
            worst,
            float(np.max(np.abs(u.matrix[:, 0] - cs.coherent(psi).amplitudes))),
            float(
                np.max(
                    np.abs(
                        u.matrix[:, 1]
                        - cs.symmetric_state(psi, cg.SymmetryKind.ANTIPODAL).amplitudes
                    )
                )
            ),
        )
        plus, minus = gt.coherent_hadamard_basis(psi)
        gram = np.array(
            [
                [cs.overlap(plus, plus), cs.overlap(plus, minus)],
                [cs.overlap(minus, plus), cs.overlap(minus, minus)],
            ]
        )
        worst = max(worst, float(np.max(np.abs(gram - np.eye(2)))))
    return worst


def _check_basis_orthonormality(rng) -> float:
    worst = 0.0
    for psi in _random_points(rng, 100):
        members = list(eb.entangled_basis_2q(psi)) + list(eb.coherent_basis_2q(psi))
        vectors = np.array([s.amplitudes for s in members[:4]])
        gram = vectors.conj() @ vectors.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(4)))))
        vectors = np.array([s.amplitudes for s in members[4:]])
        gram = vectors.conj() @ vectors.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(4)))))
        three = eb.entangled_basis_3q(psi)
        worst = max(worst, abs(cs.overlap(three[0], three[1])))
    return worst


def _check_component_formulas(rng) -> float:
    """Basis amplitudes against their hand-reduced component formulas."""
    worst = 0.0
    for psi in _random_points(rng, 200):
        n = math.sqrt(2.0) * (1.0 + abs(psi) ** 2)
        conj = np.conj(psi)
        p_plus, p_minus, g_plus, g_minus = eb.entangled_basis_2q(psi)
        expected = {
            0: np.array([1 + conj**2, psi - conj, psi - conj, 1 + psi**2]) / n,
            1: np.array([1 - conj**2, psi + conj, psi + conj, -1 + psi**2]) / n,
            2: np.array([-2 * conj, 1 - abs(psi) ** 2, 1 - abs(psi) ** 2, 2 * psi]) / n,
            3: np.array([0, 1 + abs(psi) ** 2, -(1 + abs(psi) ** 2), 0]) / n,
        }
        for i, state in enumerate((p_plus, p_minus, g_plus, g_minus)):
            worst = max(worst, float(np.max(np.abs(state.amplitudes - expected[i]))))
        singlet_overlap = cs.overlap(g_minus, eb.entangled_basis_2q(0.0)[3])
        worst = max(worst, abs(abs(singlet_overlap) - 1.0))
    return worst


def _check_bell_ghz_w_limits(rng) -> float:
    worst = 0.0
    bell = eb.bell_states()
    basis0 = eb.entangled_basis_2q(0.0)
    pairs = [
        (basis0[0], bell[0]),  # P+ -> Phi+
        (basis0[1], bell[2]),  # P- -> Phi-
        (basis0[2], bell[1]),  # G+ -> Psi+
        (basis0[3], bell[3]),  # G- -> Psi-
    ]
    for got, want in pairs:
        worst = max(worst, abs(abs(cs.overlap(want, got)) - 1.0))
    pg_plus, pg_minus = eb.entangled_basis_3q(0.0)
    worst = max(worst, abs(abs(cs.overlap(eb.ghz_state(), pg_plus)) - 1.0))
    worst = max(worst, abs(abs(cs.overlap(eb.w_state(), pg_minus)) - 1.0))
    return worst


def _check_concurrence_routes(rng) -> float:
    worst = 0.0
    for _ in range(500):
        state = _random_state(rng, 4)
        psi = complex(_random_points(rng, 1)[0])
        det = em.concurrence_det(state)
        rdm = em.concurrence_rdm(state)
        exp = em.concurrence_from_expansion(eb.expand_in_entangled_basis(state, psi))
        worst = max(worst, abs(det - rdm), abs(det - exp))
    return worst


def _check_concurrence_range(rng) -> float:
    worst = 0.0
    for _ in range(200):
        p1, p2 = _random_points(rng, 2)
        product = eb.product_state(p1, p2)
        worst = max(worst, em.concurrence_det(product))
        state = _random_state(rng, 4)
        c = em.concurrence_det(state)
        worst = max(worst, max(0.0, -c), max(0.0, c - 1.0))
    return worst


def _check_basis_concurrence(rng) -> float:
    worst = 0.0
    for psi in _random_points(rng, 200):
        for state in eb.entangled_basis_2q(psi):
            worst = max(worst, abs(em.concurrence_det(state) - 1.0))
            worst = max(worst, abs(em.concurrence_rdm(state) - 1.0))
    return worst


def _check_reduced_density(rng) -> float:
    worst = 0.0
    half = 0.5 * np.eye(2)
    for psi in _random_points(rng, 200):
        basis = eb.entangled_basis_2q(psi)
        for state in basis[:2]:
            rho = em.partial_trace(em.density(state), keep=1)
            worst = max(worst, float(np.max(np.abs(rho.matrix - half))))
            worst = max(worst, abs(rho.purity() - 0.5))
    return worst


def _check_spin_sum_averages(rng) -> float:
    worst = 0.0
    for psi in _random_points(rng, 200):
        for state in eb.entangled_basis_2q(psi):
            worst = max(worst, em.spin_sum_averages(state).max_abs())
    up = cs.PureState([1.0, 0.0])
    zz = em.spin_sum_averages(eb.tensor(up, up), hbar=1.0)
    worst = max(worst, abs(zz.z_sum - 1.0), abs(zz.z_diff))
    return worst


def _check_hamiltonian_hermiticity(rng) -> float:
    worst = 0.0
    for _ in range(50):
        jx, jy, jz = rng.uniform(-2.0, 2.0, 3)
        for params in (
            sm.CouplingParams.xyz(jx=jx, jy=jy, jz=jz),
            sm.CouplingParams.xxx(j=jx if jx else 1.0),
            sm.CouplingParams.xxz(j=jx if jx else 1.0, delta=jz),
        ):
            for n, bonds in ((2, "all-pairs"), (3, "all-pairs"), (3, "chain")):
                h = sm.hamiltonian(params, n, bonds)
                worst = max(worst, float(np.max(np.abs(h - h.conj().T))))
    return worst


def _check_q_symbol_reality_bounds(rng) -> float:
    worst = 0.0
    for _ in range(50):
        jx, jy, jz = rng.uniform(-2.0, 2.0, 3)
        params = sm.CouplingParams.xyz(jx=jx, jy=jy, jz=jz)
        psi = complex(_random_points(rng, 1)[0])
        for sid in eb.STATE_IDS:
            n = 3 if sid.startswith("PG") else 2
            value = sm.q_symbol_direct(params, sid, psi)
            spectrum = np.linalg.eigvalsh(sm.hamiltonian(params, n, "all-pairs"))
            slack = 1e-10 * (1.0 + float(np.max(np.abs(spectrum))))
            excess = max(spectrum[0] - value, value - spectrum[-1], 0.0)
            worst = max(worst, max(0.0, excess - slack))
    return worst


def _check_q_symbol_constants(rng) -> float:
    worst = 0.0
    grid = np.linspace(-4.0, 4.0, 17)
    xxx = sm.CouplingParams.xxx(j=1.3, hbar=0.8)
    xyz = sm.CouplingParams.xyz(jx=0.7, jy=0.3, jz=-1.1)
    g_minus_expected = -(xyz.jz / 2.0 + xyz.j_plus)
    for x in grid:
        for y in grid:
            psi = complex(x, y)
            worst = max(
                worst,
                abs(sm.q_symbol_direct(xxx, "P+", psi) + xxx.j * xxx.hbar**2 / 2.0),
                abs(sm.q_symbol_direct(xyz, "G-", psi) - g_minus_expected),
            )
    return worst


def _closed_vs_direct(params, sid, bonds) -> float:
    x, y = np.meshgrid(np.linspace(-2.0, 2.0, 21), np.linspace(-2.0, 2.0, 21))
    direct = sm._surface_function(params, sid, "direct", bonds)(x, y)
    closed = sm._surface_function(params, sid, "closed", bonds)(x, y)
    return float(np.max(np.abs(closed - direct)))


def _check_closed_vs_direct_xyz(rng) -> float:
    jx, jy, jz = 1.1, -0.4, 0.9
    params = sm.CouplingParams.xyz(jx=jx, jy=jy, jz=jz)
    worst = 0.0
    for sid in ("P+", "P-", "G+", "G-"):
        worst = max(worst, _closed_vs_direct(params, sid, "all-pairs"))
    for sid in ("PG+", "PG-"):
        worst = max(worst, _closed_vs_direct(params, sid, "chain"))
    worst = max(worst, _closed_vs_direct(sm.CouplingParams.xxx(j=0.9), "P+", "all-pairs"))
    return worst


def _check_xxz_closed_vs_direct(rng) -> float:
    params = sm.CouplingParams.xxz(j=1.0, jz=-2.0)
    return _closed_vs_direct(params, "P+", "all-pairs")


def _check_xxz_symmetry(rng) -> float:
    params = sm.CouplingParams.xxz(j=1.0, jz=-2.0)
    worst = 0.0
    for _ in range(200):
        x, y = rng.uniform(-3.0, 3.0, 2)
        for source in ("direct", "closed"):
            f = sm._surface_function(params, "P+", source, "all-pairs")
            base = f(x, y)
            worst = max(worst, abs(f(-x, y) - base), abs(f(x, -y) - base))
    return worst


def _oracle_deviation(f: Callable[[complex], float], e: sm.Extremum) -> float:
    """How far a printed extremum is from the scalar oracle f: its value, its central-difference gradient
    (h = 1e-5), and inf where the kind of a central-difference Hessian (h = 1e-4) is not its own."""
    at = lambda dx, dy: f(complex(e.x + dx, e.y + dy))
    h = 1e-5
    grad = math.hypot((at(h, 0.0) - at(-h, 0.0)) / (2.0 * h), (at(0.0, h) - at(0.0, -h)) / (2.0 * h))
    h, centre = 1e-4, at(0.0, 0.0)
    fxx = (at(h, 0.0) - 2.0 * centre + at(-h, 0.0)) / (h * h)
    fyy = (at(0.0, h) - 2.0 * centre + at(0.0, -h)) / (h * h)
    fxy = (at(h, h) - at(h, -h) - at(-h, h) + at(-h, -h)) / (4.0 * h * h)
    if sm._kind(np.linalg.eigvalsh([[fxx, fxy], [fxy, fyy]])) != e.kind:
        return math.inf
    return max(abs(e.value - centre), grad)


def _check_surface_extrema(rng) -> float:
    """Extremum counts for the two figure configurations; returns the worst deviation of an extremum from the
    scalar oracle of its source (`_oracle_deviation`)."""
    worst = 0.0
    xxz = sm.CouplingParams.xxz(j=1.0, jz=-2.0)
    grid = sm.energy_surface(xxz, "P+", source="closed")
    minima = [e for e in grid.extrema if e.kind == sm.MIN]
    if len(minima) != 2 or len(grid.extrema) != 2:
        return math.inf
    pg = sm.CouplingParams.xyz(j_plus=-1.0, j_minus=-1.0, jz=-1.0)
    grid_pg = sm.energy_surface(pg, "PG+", source="direct", bonds="chain")
    kinds = sorted(e.kind for e in grid_pg.extrema)
    if kinds != [sm.MAX, sm.MAX, sm.MIN, sm.MIN]:
        return math.inf
    for surface, oracle in (
        (grid, lambda p: sm.q_symbol_closed(xxz, "P+", p)),
        (grid_pg, lambda p: sm.q_symbol_direct(pg, "PG+", p, "chain")),
    ):
        for e in surface.extrema:
            worst = max(worst, _oracle_deviation(oracle, e))
    xxx_grid = sm.energy_surface(sm.CouplingParams.xxx(j=1.0), "P+", step=0.5)
    if not xxx_grid.constant or xxx_grid.extrema:
        return math.inf
    return worst


def _check_evolution_core(rng) -> float:
    """The XX fidelity law, the propagator's norm, group law and energy, and the Bell-spectrum
    series against concurrence and overlap of evolve(h, P+(psi), t) on XYZ couplings off the circle."""
    worst = 0.0
    ts = np.linspace(0.0, 10.0, 21)
    for jx, jy, jz in rng.uniform(-1.5, 1.5, (4, 3)):
        xyz = sm.CouplingParams.xyz(jx=jx, jy=jy, jz=jz, hbar=float(rng.uniform(0.5, 2.0)))
        h = ev.exchange_hamiltonian(xyz)
        for psi in _random_shell(rng, 2):
            state0 = eb.entangled_state("P+", psi)
            evolved = [ev.evolve(h, state0, t, xyz.hbar) for t in ts]
            conc = [em.concurrence_det(state) for state in evolved]
            fid = [abs(np.vdot(state0.amplitudes, state.amplitudes)) ** 2 for state in evolved]
            worst = max(worst, float(np.max(np.abs(ev.concurrence_series(xyz, psi, ts).values - conc))))
            worst = max(worst, float(np.max(np.abs(ev.fidelity_series(xyz, psi, ts).values - fid))))
    params = sm.CouplingParams.xyz(jx=1.0, jy=1.0, jz=0.0)
    h = ev.exchange_hamiltonian(params)
    for theta in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        psi = complex(math.cos(theta), math.sin(theta))
        state0 = eb.entangled_state("P+", psi)
        ts = np.linspace(0.0, 4.0 * math.pi, 161)
        fid = ev.fidelity_series(params, psi, ts)
        closed = ev.closed_form_fidelity(theta, ts, 1.0)
        worst = max(worst, float(np.max(np.abs(fid.values - closed))))
        for t in (0.37, 1.9):
            one = ev.evolve(h, state0, t)
            worst = max(worst, abs(float(np.linalg.norm(one.amplitudes)) - 1.0))
            two = ev.evolve(h, one, 2.1 - t)
            direct = ev.evolve(h, state0, 2.1)
            worst = max(worst, float(np.max(np.abs(two.amplitudes - direct.amplitudes))))
            e0 = np.vdot(state0.amplitudes, h @ state0.amplitudes).real
            et = np.vdot(one.amplitudes, h @ one.amplitudes).real
            worst = max(worst, abs(e0 - et))
    return worst


def _check_revivals(rng) -> float:
    """Structural revival properties; the threshold crossing sits within
    1e-4 of the analytic first zero pi*hbar/J for theta = pi/4."""
    params = sm.CouplingParams.xyz(jx=1.0, jy=1.0, jz=0.0)
    psi = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    quarter = ev.revival_time(params, psi)
    if quarter.status != ev.FOUND:
        return math.inf
    worst = max(0.0, abs(quarter.time - math.pi) - 1e-4)
    fid = ev.fidelity_series(params, psi, [quarter.time, 2.0 * math.pi])
    worst = max(worst, max(0.0, float(np.max(1.0 - fid.values)) - 1e-9))
    flat = ev.revival_time(params, 1.0 + 0.0j)
    if flat.status != ev.ALWAYS_ONE:
        return math.inf
    return worst


def _check_concurrence_series_structure(rng) -> float:
    params = sm.CouplingParams.xyz(jx=1.0, jy=1.0, jz=0.0)
    ts = np.linspace(0.0, 2.0 * math.pi, 101)
    worst = 0.0
    real_series = ev.concurrence_series(params, 0.7 + 0.0j, ts)
    worst = max(worst, float(np.max(np.abs(real_series.values - real_series.values[0]))))
    series_i = ev.concurrence_series(params, 1j, ts)
    shifted = ev.concurrence_series(params, 1j, ts + math.pi)
    worst = max(worst, float(np.max(np.abs(series_i.values - shifted.values))))
    worst = max(worst, abs(series_i.values[0] - 1.0))
    return worst


def _check_concurrence_closed_form(rng) -> float:
    params = sm.CouplingParams.xyz(jx=1.0, jy=1.0, jz=0.0)
    ts = np.linspace(0.0, 2.0 * math.pi, 101)
    worst = 0.0
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        psi = complex(math.cos(theta), math.sin(theta))
        numeric = ev.concurrence_series(params, psi, ts)
        reading = ev.closed_form_concurrence_reading(theta, ts, 1.0)
        worst = max(worst, float(np.max(np.abs(numeric.values - reading))))
    return worst


_CHECKS: list[tuple[str, float, Callable]] = [
    ("cross-ratio-mobius-invariance", 1e-10, _check_cross_ratio_invariance),
    ("hadamard-symmetric-points", 1e-10, _check_hadamard_symmetric_points),
    ("symmetric-point-structure", 1e-12, _check_symmetric_point_structure),
    ("stereo-round-trip", 1e-12, _check_stereo_round_trip),
    ("antipodal-orthogonality", 1e-12, _check_antipodal_orthogonality),
    ("state-normalization", 1e-12, _check_state_normalization),
    ("antipodal-expansion", 1e-12, _check_antipodal_expansion),
    ("spin-j-overlaps", 1e-12, _check_spin_j_overlaps),
    ("gate-mobius-commutation", 1e-10, _check_gate_mobius_commutation),
    ("generator-columns", 1e-12, _check_generator_columns),
    ("basis-orthonormality", 1e-12, _check_basis_orthonormality),
    ("component-formulas", 1e-12, _check_component_formulas),
    ("bell-ghz-w-limits", 1e-12, _check_bell_ghz_w_limits),
    ("concurrence-three-routes", 1e-10, _check_concurrence_routes),
    ("concurrence-range", 1e-12, _check_concurrence_range),
    ("basis-concurrence", 1e-12, _check_basis_concurrence),
    ("reduced-density", 1e-12, _check_reduced_density),
    ("spin-sum-averages", 1e-12, _check_spin_sum_averages),
    ("hamiltonian-hermiticity", 1e-12, _check_hamiltonian_hermiticity),
    ("q-symbol-reality-bounds", 1e-12, _check_q_symbol_reality_bounds),
    ("q-symbol-constants", 1e-10, _check_q_symbol_constants),
    ("closed-vs-direct-xyz", 1e-10, _check_closed_vs_direct_xyz),
    ("xxz-p-plus-closed-vs-direct", None, _check_xxz_closed_vs_direct),
    ("xxz-surface-symmetry", 1e-12, _check_xxz_symmetry),
    ("surface-extrema", 1e-6, _check_surface_extrema),
    ("evolution-core", 1e-8, _check_evolution_core),
    ("revival-detection", 1e-6, _check_revivals),
    ("concurrence-series-structure", 1e-10, _check_concurrence_series_structure),
    ("concurrence-closed-form", None, _check_concurrence_closed_form),
]

WARN_CHECKS = tuple(name for name, tolerance, _ in _CHECKS if tolerance is None)


def run_suite(seed: int = 0) -> list[CheckResult]:
    """Run every check with one seeded generator; deterministic for a fixed seed."""
    results = []
    for name, tolerance, func in _CHECKS:
        rng = np.random.Generator(np.random.PCG64(seed))
        dev = float(func(rng))
        if tolerance is None:
            status = "WARN"
            detail = "documented discrepancy, reported not asserted"
        else:
            status = "PASS" if dev <= tolerance else "FAIL"
            detail = ""
        results.append(CheckResult(name, status, dev, tolerance, detail))
    return results


def format_report(results: list[CheckResult], seed: int) -> str:
    """Fixed-format text report; byte-identical for identical results."""
    lines = [f"verification report (seed={seed})"]
    width = max(len(r.name) for r in results)
    for r in results:
        tol = "n/a" if r.tolerance is None else f"{r.tolerance:.1e}"
        line = f"{r.status:<4} {r.name:<{width}}  max_dev={r.max_dev:.3e}  tol={tol}"
        if r.detail:
            line += f"  ({r.detail})"
        lines.append(line)
    n_pass = sum(1 for r in results if r.status == "PASS")
    n_warn = sum(1 for r in results if r.status == "WARN")
    n_fail = sum(1 for r in results if r.status == "FAIL")
    lines.append(f"summary: {len(results)} checks, {n_pass} pass, {n_warn} warn, {n_fail} fail")
    lines.append("result: " + ("PASS" if n_fail == 0 else "FAIL"))
    return "\n".join(lines) + "\n"
