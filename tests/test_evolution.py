import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import qcs.evolution as ev
from qcs.coherent_states import PureState
from qcs.entangled_basis import entangled_state
from qcs.entanglement_measures import concurrence_det
from qcs.errors import BadParams, NotNormalized
from qcs.evolution import (
    ALWAYS_ONE,
    FOUND,
    NO_REVIVAL,
    Revival,
    TimeSeries,
    closed_form_fidelity,
    concurrence_series,
    evolve,
    exchange_hamiltonian,
    fidelity_series,
    is_xx_like,
    revival_time,
)
from qcs.operators import embed_pair, sigma_x, sigma_y, sigma_z
from qcs.spin_models import CouplingParams

XX = CouplingParams.xyz(jx=1.0, jy=1.0, jz=0.0)
# Revival times are checked to 1e-4 hbar / |J| of pi hbar / |J|.
REVIVAL_TOL = 1e-4


def unit_label(theta):
    return complex(math.cos(theta), math.sin(theta))


def test_time_series_guards():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def test_exchange_hamiltonian_form():
    h = exchange_hamiltonian(XX)
    # two-qubit XX exchange: off-diagonal 2J in the flip-flop block
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = 2.0
    assert np.allclose(h, expected, atol=1e-15)


def test_exchange_hamiltonian_rejects_non_xyz():
    with pytest.raises(BadParams):
        exchange_hamiltonian(CouplingParams.xxx(j=1.0))


def test_exchange_hamiltonian_from_cached_terms_is_byte_identical():
    """Jx XX + Jy YY + Jz ZZ from the cached embedded terms has the bytes of fresh Kronecker products."""
    rng = np.random.default_rng(31)
    couplings = [tuple(rng.uniform(-2.0, 2.0, 3)) for _ in range(200)] + [(1.0, 1.0, 0.0), (0.0, 0.0, -0.0)]
    for jx, jy, jz in couplings:
        params = CouplingParams.xyz(jx=float(jx), jy=float(jy), jz=float(jz), hbar=float(rng.uniform(0.5, 2.0)))
        fresh = (
            params.jx * embed_pair(sigma_x(), sigma_x(), 0, 1, 2)
            + params.jy * embed_pair(sigma_y(), sigma_y(), 0, 1, 2)
            + params.jz * embed_pair(sigma_z(), sigma_z(), 0, 1, 2)
        )
        assert exchange_hamiltonian(params).tobytes() == fresh.tobytes()


def test_is_xx_like():
    assert is_xx_like(XX)
    assert not is_xx_like(CouplingParams.xyz(jx=1.0, jy=1.0, jz=0.5))
    assert not is_xx_like(CouplingParams.xyz(jx=1.0, jy=0.9, jz=0.0))


def test_evolve_identity_cases():
    state = entangled_state("P+", 0.3 + 0.7j)
    h = exchange_hamiltonian(XX)
    at_zero = evolve(h, state, 0.0)
    assert np.allclose(at_zero.amplitudes, state.amplitudes, atol=1e-12)
    frozen = evolve(np.zeros((4, 4)), state, 2.7)
    assert np.allclose(frozen.amplitudes, state.amplitudes, atol=1e-12)


def test_evolve_norm_and_energy_conserved():
    state = entangled_state("P+", 0.3 + 0.7j)
    h = exchange_hamiltonian(CouplingParams.xyz(jx=0.8, jy=-0.3, jz=0.5))
    e0 = float(np.real(np.vdot(state.amplitudes, h @ state.amplitudes)))
    for t in (0.4, 1.9, 13.0):
        out = evolve(h, state, t)
        assert math.isclose(np.linalg.norm(out.amplitudes), 1.0, abs_tol=1e-12)
        e_t = float(np.real(np.vdot(out.amplitudes, h @ out.amplitudes)))
        assert abs(e_t - e0) < 1e-10


def test_evolve_group_law():
    state = entangled_state("P+", -0.2 + 1.1j)
    h = exchange_hamiltonian(XX)
    one_step = evolve(h, evolve(h, state, 0.7), 0.6)
    direct = evolve(h, state, 1.3)
    assert np.max(np.abs(one_step.amplitudes - direct.amplitudes)) < 1e-12


def test_middle_amplitudes_carry_phase():
    theta = 0.9
    state = entangled_state("P+", unit_label(theta))
    h = exchange_hamiltonian(XX)
    t = 0.37
    out = evolve(h, state, t)
    phase = np.exp(-2j * t)
    assert abs(out.amplitudes[1] - phase * state.amplitudes[1]) < 1e-12
    assert abs(out.amplitudes[2] - phase * state.amplitudes[2]) < 1e-12
    assert abs(out.amplitudes[0] - state.amplitudes[0]) < 1e-12
    assert abs(out.amplitudes[3] - state.amplitudes[3]) < 1e-12


def test_fidelity_series_closed_form():
    ts = np.linspace(0.0, 4.0 * math.pi, 161)
    for theta in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        fid = fidelity_series(XX, unit_label(theta), ts)
        law = 1.0 - np.sin(2.0 * theta) ** 2 * np.sin(ts) ** 2
        assert np.max(np.abs(fid.values - law)) < 1e-8
        assert np.max(np.abs(closed_form_fidelity(theta, ts, 1.0) - law)) < 1e-12


def test_fidelity_scales_with_coupling_and_hbar():
    params = CouplingParams.xyz(jx=2.5, jy=2.5, jz=0.0, hbar=0.7)
    ts = np.linspace(0.0, 2.0, 41)
    theta = 0.6
    fid = fidelity_series(params, unit_label(theta), ts)
    law = 1.0 - np.sin(2.0 * theta) ** 2 * np.sin(2.5 * ts / 0.7) ** 2
    assert np.max(np.abs(fid.values - law)) < 1e-8


def test_concurrence_series_structure():
    ts = np.linspace(0.0, 2.0 * math.pi, 101)
    # real label: the state is stationary up to phase
    flat = concurrence_series(XX, 0.6, ts)
    assert np.ptp(flat.values) < 1e-12
    # unit-circle label: C(0) = 1 and period pi in t
    conc = concurrence_series(XX, unit_label(0.9), ts)
    assert abs(conc.values[0] - 1.0) < 1e-10
    shifted = concurrence_series(XX, unit_label(0.9), ts + math.pi)
    assert np.max(np.abs(conc.values - shifted.values)) < 1e-10


# Magic basis (Hill and Wootters, PRL 78, 5022 (1997)), one state per column:
# (|00> + |11>), i(|00> - |11>), i(|01> + |10>), (|01> - |10>), each over sqrt 2.
MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]) / math.sqrt(2.0)


def test_concurrence_series_matches_magic_basis_law():
    """C(t) = |sum_k alpha_k^2 exp(-2i E_k t / hbar)|, alpha_k the magic-basis amplitudes of P+(psi).

    The XYZ exchange Hamiltonian is diagonal in the magic basis with
    energies E_k, and the concurrence of a pure state is |sum_k alpha_k^2|.
    """
    rng = np.random.default_rng(41)
    ts = np.linspace(0.0, 10.0, 101)
    for _ in range(200):
        jx, jy, jz = rng.uniform(-1.5, 1.5, 3)
        params = CouplingParams.xyz(jx=jx, jy=jy, jz=jz, hbar=float(rng.uniform(0.5, 2.0)))
        radius, angle = rng.uniform(0.0, 3.0), rng.uniform(-math.pi, math.pi)
        psi = radius * complex(math.cos(angle), math.sin(angle))
        h_magic = MAGIC.conj().T @ exchange_hamiltonian(params) @ MAGIC
        energies = h_magic.diagonal().real
        assert np.max(np.abs(h_magic - np.diag(energies))) <= 1e-15
        alpha = MAGIC.conj().T @ entangled_state("P+", psi).amplitudes
        law = np.abs(np.exp(-2j * np.outer(ts, energies) / params.hbar) @ alpha**2)
        assert np.max(np.abs(concurrence_series(params, psi, ts).values - law)) <= 1e-12


def _scalar_concurrence(params, psi, ts):
    """One validated PureState and one determinant per evolved row."""
    c0 = entangled_state("P+", psi).amplitudes
    evolved = ev._spectral_propagator(exchange_hamiltonian(params), params.hbar)(c0, ts)
    return np.array([concurrence_det(PureState(row)) for row in evolved])


TIME_GRIDS = (
    np.array([0.0]),
    np.linspace(0.0, 1.0, 5),
    0.01 * np.arange(1257),
    np.linspace(0.0, 4.0 * math.pi, 161),
    np.linspace(0.3, 250.0, 97),
)


@seed(53)
@settings(max_examples=60, deadline=None)
@given(
    j=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    radius=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    angle=st.floats(-math.pi, math.pi),
    ts=st.sampled_from(TIME_GRIDS),
)
def test_concurrence_series_matches_scalar_route(j, radius, angle, ts):
    """The array determinant agrees with the per-row PureState route to the last bits."""
    params = CouplingParams.xyz(jx=j[0], jy=j[1], jz=j[2])
    psi = radius * complex(math.cos(angle), math.sin(angle))
    conc = concurrence_series(params, psi, ts)
    assert np.array_equal(conc.t, ts)
    assert np.max(np.abs(conc.values - _scalar_concurrence(params, psi, ts))) <= 1e-15


@seed(59)
@settings(max_examples=40, deadline=None)
@given(
    j=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    radius=st.one_of(st.just(1.0), st.floats(0.0, 1e3)),
    angle=st.floats(-math.pi, math.pi),
    ts=st.sampled_from(TIME_GRIDS),
)
@example(j=(1.0, 1.0, 0.0), radius=1.0, angle=0.0, ts=np.array([0.0, 0.01, 0.02]))
def test_series_are_capped_at_one(j, radius, angle, ts):
    """Rounding never lifts C or F above 1, and the cap moves only values that exceeded it."""
    params = CouplingParams.xyz(jx=j[0], jy=j[1], jz=j[2])
    psi = radius * complex(math.cos(angle), math.sin(angle))
    conc = concurrence_series(params, psi, ts).values
    fid = fidelity_series(params, psi, ts).values
    assert conc.max() <= 1.0 and fid.max() <= 1.0
    c0 = entangled_state("P+", psi).amplitudes
    evolved = ev._spectral_propagator(exchange_hamiltonian(params), params.hbar)(c0, ts)
    assert np.array_equal(fid, np.minimum(np.abs(evolved @ c0.conj()) ** 2, 1.0))


def _scaled_propagator(monkeypatch, factor):
    """Make the propagator scale the last evolved row by `factor`."""
    real = ev._spectral_propagator

    def scaled(h, hbar):
        apply = real(h, hbar)

        def apply_scaled(c0, t):
            out = apply(c0, t)
            out[-1] *= factor
            return out

        return apply_scaled

    monkeypatch.setattr(ev, "_spectral_propagator", scaled)


def test_concurrence_series_rejects_unnormalized_rows(monkeypatch):
    ts = np.linspace(0.0, 1.0, 5)
    reference = concurrence_series(XX, unit_label(0.9), ts).values
    _scaled_propagator(monkeypatch, 1.0 + 1e-12)  # inside NORM_TOL: renormalized
    inside = concurrence_series(XX, unit_label(0.9), ts).values
    assert np.max(np.abs(inside - reference)) <= 1e-15
    _scaled_propagator(monkeypatch, 1.0 + 1e-6)
    with pytest.raises(NotNormalized):
        concurrence_series(XX, unit_label(0.9), ts)


def _ten_period_revival(params, psi, scipy_peak=False):
    """Revival search over all ten periods at once, kept as the reference.

    Peaks are refined by the library's Newton step (`ev._peak_time`), or by
    `minimize_scalar` when `scipy_peak` is set.
    """
    j, hbar = abs(params.jx), params.hbar
    dt = 1e-3 * hbar / j
    t_max = 10 * 2.0 * math.pi * hbar / j
    c0 = entangled_state("P+", psi).amplitudes
    energies, vectors = np.linalg.eigh(exchange_hamiltonian(params))
    weights = np.abs(vectors.conj().T @ c0) ** 2

    def fidelity(t):
        amp = weights @ np.exp(-1j * np.multiply.outer(energies, t) / hbar)
        return np.abs(amp) ** 2

    def peak(lo, t, hi):
        if scipy_peak:  # bounded Brent, the peak step before Newton
            result = minimize_scalar(
                lambda s: -fidelity(s), bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
            )
            return float(result.x)
        return ev._peak_time(energies, weights, hbar, lo, t, hi)

    threshold = 1.0 - 1e-9
    ts = dt * np.arange(1, int(math.ceil(t_max / dt)) + 1)
    f = fidelity(ts)
    below = f < threshold
    if not below.any():
        return Revival(ALWAYS_ONE)
    first_below = int(np.argmax(below))
    peaks = 1 + np.nonzero((f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:]))[0]
    for k in peaks:
        if k <= first_below:
            continue
        t_peak = peak(float(ts[k - 1]), float(ts[k]), float(ts[k + 1]))
        if fidelity(t_peak) < threshold:
            continue
        left = k - 1
        while left > 0 and f[left] >= threshold:
            left -= 1
        lo, hi = float(ts[left]), t_peak
        while (hi - lo) * j / hbar > 1e-9:
            mid = 0.5 * (lo + hi)
            if fidelity(mid) >= threshold:
                hi = mid
            else:
                lo = mid
        return Revival(FOUND, float(hi))
    return Revival(NO_REVIVAL)


@pytest.mark.parametrize("hbar", [0.8, 1.0])
@pytest.mark.parametrize("j", [0.37, 1.0, 2.5])
@pytest.mark.parametrize("theta", [0.0, 1e-4, 0.1, math.pi / 8, 0.6, math.pi / 2])
def test_revival_matches_ten_period_scan(theta, j, hbar):
    """Scanning one period first confirms exactly the revival the full scan does."""
    params = CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar)
    psi = unit_label(theta)
    assert revival_time(params, psi) == _ten_period_revival(params, psi)


def _random_revival_cases(n, rng):
    for _ in range(n):
        j = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        yield rng.uniform(-math.pi, math.pi), j, rng.uniform(0.5, 2.0)


@pytest.mark.parametrize(
    "theta, j, hbar",
    [(theta, j, hbar) for theta in (0.0, 1e-4, 0.1, math.pi / 8, 0.6, math.pi / 2)
     for j in (0.37, 1.0, 2.5) for hbar in (0.8, 1.0)]
    + list(_random_revival_cases(24, np.random.default_rng(8))),
)
def test_revival_peak_matches_minimize_scalar(theta, j, hbar):
    """Newton's peak gives the status a minimize_scalar peak does, and the time within 1e-9."""
    params = CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar)
    psi = unit_label(theta)
    got = revival_time(params, psi)
    want = _ten_period_revival(params, psi, scipy_peak=True)
    assert got.status == want.status
    if want.status == FOUND:
        assert abs(got.time - want.time) <= 1e-9
    else:
        assert got.time is None and want.time is None


def test_peak_time_reaches_the_fidelity_maximum():
    """Newton stops on the analytic maximum, inside its bracket, and does not climb a valley."""
    params = CouplingParams.xyz(jx=1.0, jy=1.0, jz=0.0)
    c0 = entangled_state("P+", unit_label(0.6)).amplitudes
    energies, vectors = np.linalg.eigh(exchange_hamiltonian(params))
    weights = np.abs(vectors.conj().T @ c0) ** 2
    # F(t) = 1 - sin^2(2 theta) sin^2(t) peaks at t = pi and dips at t = pi / 2.
    t = ev._peak_time(energies, weights, 1.0, math.pi - 1e-3, math.pi + 4e-4, math.pi + 1e-3)
    assert abs(t - math.pi) <= 1e-12
    t = ev._peak_time(energies, weights, 1.0, 3.0, 3.05, 3.1)
    assert t == 3.1  # clamped: the maximum lies beyond the bracket
    t = ev._peak_time(energies, weights, 1.0, 1.5, 1.56, 1.6)
    assert t == 1.56  # convex there: no step


def test_revival_near_pi():
    rev = revival_time(XX, unit_label(math.pi / 8))
    assert rev.status == FOUND
    assert abs(rev.time - math.pi) < 1e-4


def test_revival_scales():
    params = CouplingParams.xyz(jx=2.5, jy=2.5, jz=0.0, hbar=0.7)
    rev = revival_time(params, unit_label(0.6))
    assert rev.status == FOUND
    assert abs(rev.time - math.pi * 0.7 / 2.5) < 1e-4


def test_revival_degenerate_labels():
    assert revival_time(XX, 1.0).status == ALWAYS_ONE
    assert revival_time(XX, 1j).status == ALWAYS_ONE


def test_revival_guards():
    with pytest.raises(BadParams):
        revival_time(CouplingParams.xyz(jx=1.0, jy=0.5, jz=0.0), 1.0)
    with pytest.raises(BadParams):
        revival_time(XX, 2.0)  # off the unit circle


def test_spectral_fidelity_matches_complex_form():
    """The real-arithmetic scan is |w . exp(-i E t / hbar)|^2 to within 1e-13 over ten periods."""
    rng = np.random.default_rng(12)
    for theta, j, hbar in _random_revival_cases(30, rng):
        params = CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar)
        c0 = entangled_state("P+", unit_label(theta)).amplitudes
        energies, vectors = np.linalg.eigh(exchange_hamiltonian(params))
        weights = np.abs(vectors.conj().T @ c0) ** 2
        ts = 1e-3 * hbar / abs(j) * np.arange(1, 62833)
        complex_form = np.abs(weights @ np.exp(-1j * np.multiply.outer(energies, ts) / hbar)) ** 2
        real_form = ev._spectral_fidelity(energies / hbar, weights, ts)
        assert np.max(np.abs(real_form - complex_form)) <= 1e-13
        # Bisection calls it with one time at a time.
        assert abs(ev._spectral_fidelity(energies / hbar, weights, float(ts[777])) - real_form[777]) <= 1e-15


@pytest.mark.parametrize(
    "j, hbar",
    [(1e-6, 1.0), (1.0, 1.0), (-3.0, 1e-3), (1e100, 1.0), (1e155, 1.0), (1e200, 1.0), (-1e200, 1.0),
     (1.0, 1e-300)],
)
def test_revival_at_extreme_couplings(j, hbar):
    """Newton's peak holds for |J| / hbar from 1e-6 to 1e300: r^2 no longer overflows."""
    params = CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rev = revival_time(params, unit_label(0.7))
    assert rev.status == FOUND
    unit = hbar / abs(j)
    assert abs(rev.time - math.pi * unit) <= REVIVAL_TOL * unit


@pytest.mark.parametrize("j, hbar", [(1e300, 1e-10), (1e-10, 1e300)])
def test_revival_rejects_couplings_outside_the_double_range(j, hbar):
    """|J| / hbar = 1e310 leaves no normal scan step, 1e-310 overflows ten periods: BadParams, no warning."""
    params = CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar)
    with pytest.raises(BadParams, match="revival scan"):
        revival_time(params, unit_label(0.7))


def test_revival_crossing_is_the_same_at_every_scale():
    """The crossing is bisected in |J| t / hbar, so (t - pi hbar/J) / (hbar/J) reads one value at any scale."""
    readings = []
    for j, hbar in ((1e-7, 1.0), (1.0, 1.0), (1e100, 1.0), (1e300, 1.0), (1.0, 1e-300)):
        rev = revival_time(CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar), unit_label(0.7))
        unit = hbar / j
        readings.append((rev.time - math.pi * unit) / unit)
    assert max(readings) - min(readings) <= 1e-8, readings
    assert max(readings) < -1e-5  # the band crossing, ahead of the refined peak at pi hbar / J


TINY_COUPLINGS = """
import math, os
from qcs.cli import main
from qcs.evolution import revival_time
from qcs.spin_models import CouplingParams

for j in (3e-7, 1e-7):
    rev = revival_time(CouplingParams.xyz(jx=j, jy=j, jz=0.0), complex(math.cos(0.7), math.sin(0.7)))
    print(j, rev.status, repr(rev.time))
assert main(["evolve", "--j", "3e-7", "--theta", "0.5", "--dt", "1e5", "--output", os.devnull]) == 0
"""


def test_revival_bisection_ends_at_tiny_couplings():
    """Revivals near t = pi hbar / J ~ 1e7 are found, and the bisection ends.

    It runs in a child process with a timeout, so a bisection that never
    ends fails this test instead of stalling the suite.
    """
    proc = subprocess.run(
        [sys.executable, "-c", TINY_COUPLINGS], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        j, status, time = line.split()
        assert status == FOUND
        unit = 1.0 / float(j)
        assert abs(float(time) - math.pi * unit) <= REVIVAL_TOL * unit
    assert len(proc.stdout.splitlines()) == 2
