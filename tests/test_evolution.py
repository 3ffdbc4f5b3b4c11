import functools
import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import qcs.evolution as ev
from qcs.cli import main
from qcs.complex_geometry import INFINITY
from qcs.entangled_basis import entangled_state
from qcs.entanglement_measures import concurrence_det
from qcs.errors import BadParams, DimensionMismatch, QcsError
from qcs.evolution import (
    ALWAYS_ONE,
    FOUND,
    NO_REVIVAL,
    Revival,
    TimeSeries,
    closed_form_concurrence_reading,
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
EPS = np.finfo(float).eps


def unit_label(theta):
    return complex(math.cos(theta), math.sin(theta))


def test_time_series_guards():
    """Unequal shapes are DimensionMismatch and a time grid that is not increasing is BadParams: each a QcsError
    that is still a ValueError."""
    for t, values, error in ((np.array([0.0, 1.0]), np.array([1.0]), DimensionMismatch),
                             (np.zeros((2, 2)), np.zeros((2, 2)), DimensionMismatch),
                             (np.array([0.0, 0.0]), np.array([1.0, 1.0]), BadParams),
                             (np.array([0.0, 2.0, 1.0]), np.zeros(3), BadParams),
                             (np.array([0.0, math.nan]), np.zeros(2), BadParams)):
        with pytest.raises(error) as raised:
            TimeSeries(t, values)
        assert isinstance(raised.value, QcsError) and isinstance(raised.value, ValueError)


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


def _evolved_series(params, psi, ts):
    """Determinant concurrence and overlap fidelity of evolve(h, P+, t), one evolved state per time."""
    h = exchange_hamiltonian(params)
    state0 = entangled_state("P+", psi)
    evolved = [evolve(h, state0, t, params.hbar) for t in ts]
    conc = np.array([concurrence_det(state) for state in evolved])
    fid = np.array([abs(np.vdot(state0.amplitudes, state.amplitudes)) ** 2 for state in evolved])
    return conc, fid


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
    """Both series agree with evolve(h, P+, t) state by state, to rounding in the phases E t / hbar."""
    params = CouplingParams.xyz(jx=j[0], jy=j[1], jz=j[2])
    psi = radius * complex(math.cos(angle), math.sin(angle))
    conc = concurrence_series(params, psi, ts)
    fid = fidelity_series(params, psi, ts)
    assert np.array_equal(conc.t, ts) and np.array_equal(fid.t, ts)
    energies, _ = ev._p_plus_spectrum(params, psi)
    bound = 8.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(energies)) * ts.max() / params.hbar)
    conc_ref, fid_ref = _evolved_series(params, psi, ts)
    assert np.max(np.abs(conc.values - conc_ref)) <= bound
    assert np.max(np.abs(fid.values - fid_ref)) <= bound


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
    _, re, im = ev._p_plus_sums(params, psi, ts, 1.0)
    assert np.array_equal(fid, np.minimum(re**2 + im**2, 1.0))
    _, re, im = ev._p_plus_sums(params, psi, ts, 2.0)
    assert np.array_equal(conc, np.minimum(np.hypot(re, im), 1.0))


def test_each_series_evaluates_only_its_own_sums(monkeypatch):
    """fidelity_series takes the sums at scale 1 only, concurrence_series at scale 2 only."""
    calls = []
    sums = ev._p_plus_sums
    monkeypatch.setattr(ev, "_p_plus_sums", lambda *args: calls.append(args[-1]) or sums(*args))
    params, ts = CouplingParams.xyz(jx=0.8, jy=-0.3, jz=1.1), np.linspace(0.5, 3.0, 26)
    fidelity_series(params, 0.5 + 0.4j, ts)
    assert calls == [1.0]
    calls.clear()
    concurrence_series(params, 0.5 + 0.4j, ts)
    assert calls == [2.0]


def _peak_time(rates, weights, lo, t, hi):
    """Newton's maximum of F(t) = |A(t)|^2, A(t) = sum_k w_k e^{-i E_k t / hbar}, from t in [lo, hi].

    `rates` are E_k / hbar.  With a_k = w_k e^{r_k t} and r_k = -i E_k / hbar,
    A' = sum r_k a_k and A'' = sum r_k^2 a_k, so F' = 2 Re(conj(A) A') and
    F'' = 2 (|A'|^2 + Re(conj(A) A'')).  Steps are clamped to [lo, hi] and
    taken only while F'' < 0; a point that is not concave is no revival
    peak, and the band check of the caller rejects it.  The derivatives
    are taken in the time unit 1 / omega, omega the power of two just
    above max |r|, so r^2 cannot overflow.
    """
    r = -1j * rates
    scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(r), initial=0.0)))[1])
    s = scale * r
    s2 = s * s
    for _ in range(50):
        a = weights * np.exp(r * t)
        amp, d1, d2 = a.sum(), s @ a, s2 @ a
        f1 = 2.0 * (amp.conjugate() * d1).real
        f2 = 2.0 * (abs(d1) ** 2 + (amp.conjugate() * d2).real)
        if not f2 < 0.0:
            break
        t_next = min(max(t - f1 / f2 * scale, lo), hi)
        step, t = t_next - t, t_next
        if abs(step) <= 1e-12:
            break
    return float(t)


SCAN_THRESHOLD = 1.0 - 1e-9


def _fidelity(energies, weights, t, hbar=1.0):
    """F(t) = (w . cos phi)^2 + (w . sin phi)^2, phi = (E (x) t) / hbar: the real-arithmetic F of the
    reference scan, the same operations as `fidelity_series` before its cap at 1."""
    phi = np.multiply.outer(energies, t) / hbar
    return (weights @ np.cos(phi)) ** 2 + (weights @ np.sin(phi)) ** 2


def _first_revival(ts, f, first_below, fidelity, peak, rate):
    """The first scan peak after `first_below` whose refined fidelity re-enters the band.

    `peak(lo, t, hi)` refines a sampled peak t to the fidelity maximum in
    [lo, hi]; the upward crossing is then bisected to 1e-9 in rate * t.
    """
    peaks = 1 + np.nonzero((f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:]))[0]
    for k in peaks:
        if k <= first_below:
            continue
        t_peak = peak(float(ts[k - 1]), float(ts[k]), float(ts[k + 1]))
        if fidelity(t_peak) < SCAN_THRESHOLD:
            continue
        left = k - 1
        while left > 0 and f[left] >= SCAN_THRESHOLD:
            left -= 1
        lo, hi = float(ts[left]), t_peak
        while (hi - lo) * rate > 1e-9:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if fidelity(mid) >= SCAN_THRESHOLD:
                hi = mid
            else:
                lo = mid
        return float(hi)
    return None


def _scan_revival(params, psi, scipy_peak=False):
    """A sampled revival search, kept as the reference for the closed form of `revival_time`.

    The fidelity is sampled at steps of 1e-3 hbar / |J|, over one period and
    then, if no revival is confirmed there, ten; each sampled peak is
    refined by Newton (`_peak_time`), or by bounded Brent when `scipy_peak`
    is set, and the upward crossing of 1 - 1e-9 is bisected to 1e-9 in
    |J| t / hbar.  The fidelity is the library's own rounded F(t), so the
    scan resolves the crossing only to about eps / F'(t) (see `_scan_resolution`).
    """
    j, hbar = abs(params.jx), params.hbar
    dt = 1e-3 * hbar / j
    energies, weights = ev._p_plus_spectrum(params, psi)
    rates = energies / hbar
    fidelity = functools.partial(_fidelity, rates, weights)

    def peak(lo, t, hi):
        if scipy_peak:
            result = minimize_scalar(
                lambda s: -fidelity(s), bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
            )
            return float(result.x)
        return _peak_time(rates, weights, lo, t, hi)

    for n in (int(math.ceil(2.0 * math.pi * hbar / j / dt)) + 1, int(math.ceil(20.0 * math.pi * hbar / j / dt))):
        ts = dt * np.arange(1, n + 1)
        f = fidelity(ts)
        below = f < SCAN_THRESHOLD
        if below.any():
            t = _first_revival(ts, f, int(np.argmax(below)), fidelity, peak, j / hbar)
            if t is not None:
                return Revival(FOUND, t)
    return Revival(NO_REVIVAL if below.any() else ALWAYS_ONE)


def _mp_bell_spectrum(params, psi):
    """The Bell energies E_k and weights w_k = |<Bell_k|P+(psi)>|^2 at the working mpmath precision.

    Both come from the formulas at the exact double inputs: the amplitudes of P+(psi) from the
    normalized coherent-state factors, and E = (Jx - Jy + Jz, -Jx + Jy + Jz, Jx + Jy - Jz,
    -Jx - Jy - Jz) in the Bell order (Phi+, Phi-, Psi+, Psi-).
    """
    z = mpmath.mpc(psi.real, psi.imag)
    norm = mpmath.sqrt(1 + abs(z) ** 2)
    k, a = (1 / norm, z / norm), (-mpmath.conj(z) / norm, 1 / norm)
    amps = [(k[m] * k[n] + a[m] * a[n]) / mpmath.sqrt(2) for m in (0, 1) for n in (0, 1)]
    bell = ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))
    w = [abs(sum(c * x for c, x in zip(row, amps))) ** 2 / 2 for row in bell]
    jx, jy, jz = (mpmath.mpf(v) for v in (params.jx, params.jy, params.jz))
    return (jx - jy + jz, -jx + jy + jz, jx + jy - jz, -jx - jy - jz), w


def _mp_revival(params, psi):
    """The first upward crossing of 1 - 1e-9 by the 50-digit fidelity of P+(psi), as (t, q).

    Amplitudes, Bell weights and F(t) = |sum_k w_k e^{-i E_k t / hbar}|^2 are
    taken at 50 digits from the formulas, not from the library, and the
    crossing is the root of F - (1 - 1e-9) on tau = |J| t / hbar in
    [pi/2, pi], where F rises.  q = 1e-9 / 4ab sets the conditioning of the
    closed form.  Returns None where F(pi/2), the minimum, is in the band.
    """
    with mpmath.workdps(50):
        energies, w = _mp_bell_spectrum(params, psi)
        jx = mpmath.mpf(params.jx)
        unit = mpmath.mpf(params.hbar) / abs(jx)
        threshold = 1 - mpmath.mpf(1e-9)

        def gap(tau):
            return abs(sum(wk * mpmath.expj(-e * tau / abs(jx)) for wk, e in zip(w, energies))) ** 2 - threshold

        if gap(mpmath.pi / 2) >= 0:
            return None
        tau = mpmath.findroot(gap, (mpmath.pi / 2, mpmath.pi), solver="anderson")
        return float(tau * unit), float(mpmath.mpf(1e-9) / (4 * (w[0] + w[1]) * w[2]))


def _sin2_2theta(psi):
    return math.sin(2.0 * math.atan2(psi.imag, psi.real)) ** 2


def _scan_resolution(psi):
    """How far the scan's crossing may sit from the exact one, in hbar / |J|.

    Its bisection stops within 1e-9, and its rounded F, a few eps off,
    moves the crossing by that over the slope F' = 2 sqrt(1e-9 (4ab - 1e-9))
    there (4ab = sin^2(2 theta)).
    """
    excess = max(_sin2_2theta(psi) - 1e-9, 1e-30)
    return 1e-9 + 4.0 * EPS / (2.0 * math.sqrt(1e-9 * excess))


def _revival_sweep(n, rng):
    """XX couplings J = +-10^U(-3, 3), hbar = 10^U(-2, 2), random theta, every other label 1e-6 off the circle."""
    for i in range(n):
        j = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        params = CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=float(10.0 ** rng.uniform(-2.0, 2.0)))
        radius = 1.0 + rng.uniform(-1e-6, 1e-6) if i % 2 else 1.0
        yield params, radius * unit_label(rng.uniform(-math.pi, math.pi))


def _ill_conditioned_sweep(n, rng):
    """Labels within 10^U(-6, -4) of a multiple of pi/2, where sin^2(2 theta) is within a few 1e-9 or below."""
    for params, psi in _revival_sweep(n, rng):
        theta = rng.integers(-2, 3) * math.pi / 2 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -4.0)
        yield params, abs(psi) * unit_label(theta)


REVIVAL_SWEEP = list(_revival_sweep(640, np.random.default_rng(16)))
ILL_CONDITIONED = list(_ill_conditioned_sweep(64, np.random.default_rng(17)))


@pytest.mark.parametrize("hbar", [0.8, 1.0])
@pytest.mark.parametrize("j", [0.37, 1.0, 2.5])
@pytest.mark.parametrize("theta", [0.0, 1e-4, 0.1, math.pi / 8, 0.6, math.pi / 2])
def test_revival_matches_ten_period_scan(theta, j, hbar):
    """The closed form finds the scan's status, and its time to within the scan's resolution."""
    params = CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar)
    psi = unit_label(theta)
    got, want = revival_time(params, psi), _scan_revival(params, psi)
    assert got.status == want.status
    if want.status == FOUND:
        assert abs(got.time - want.time) <= _scan_resolution(psi) * hbar / j
    else:
        assert got.time is None and want.time is None


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
    """A scan refining its peaks by minimize_scalar, not Newton, agrees with the closed form the same way."""
    params = CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar)
    psi = unit_label(theta)
    got, want = revival_time(params, psi), _scan_revival(params, psi, scipy_peak=True)
    assert got.status == want.status
    if want.status == FOUND:
        assert abs(got.time - want.time) <= _scan_resolution(psi) * hbar / abs(j)
    else:
        assert got.time is None and want.time is None


@pytest.mark.parametrize("cases", [REVIVAL_SWEEP, ILL_CONDITIONED], ids=["sweep", "ill-conditioned"])
def test_revival_matches_the_scan(cases):
    """No status differs from the scan's, and every time is within the scan's resolution.

    The sweep has 640 couplings and labels, half of them up to 1e-6 off the
    circle; the ill-conditioned cases sit within 1e-4 of a multiple of
    pi/2, where the scan's rounded F moves its crossing by up to about
    1e-6 hbar / |J| (1.1e-6 measured, at 0.69 of `_scan_resolution`).
    """
    for params, psi in cases:
        got, want = revival_time(params, psi), _scan_revival(params, psi)
        assert got.status == want.status, (params, psi)
        if want.status == FOUND:
            unit = params.hbar / abs(params.jx)
            assert abs(got.time - want.time) <= _scan_resolution(psi) * unit, (params, psi)
        else:
            assert got.time is None and want.time is None


# Relative rounding of 4ab in the closed form.  The weights carry a few eps
# on the circle, but off it near theta = pi/2 the Phi+ weight w_0 comes
# from a cancelling sum: 4ab was measured up to about 1e-14 off there.
FOUR_AB_ROUNDING = 1e-13


@pytest.mark.parametrize("cases", [REVIVAL_SWEEP, ILL_CONDITIONED], ids=["sweep", "ill-conditioned"])
def test_revival_matches_a_50_digit_crossing(cases):
    """Against the 50-digit crossing the status agrees everywhere, and the time is within the rounding
    of 4ab carried through asin, amplified by 1 / sqrt(1 - q) where q = 1e-9 / 4ab is near 1.

    Measured: 8.7e-16 hbar / |J| at worst on the sweep, 2.2e-14 on the ill-conditioned cases.
    """
    for params, psi in cases:
        got, want = revival_time(params, psi), _mp_revival(params, psi)
        if want is None:
            assert got.status == ALWAYS_ONE, (params, psi)
            continue
        assert got.status == FOUND, (params, psi)
        t, q = want
        unit = params.hbar / abs(params.jx)
        assert abs(got.time - t) <= FOUR_AB_ROUNDING * (math.pi + 1.0 / math.sqrt(1.0 - q)) * unit, (params, psi)


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
    """`fidelity_series` and the real-arithmetic F of the reference scan are |w . exp(-i E t / hbar)|^2 to
    within 1e-13 over ten periods."""
    rng = np.random.default_rng(12)
    for theta, j, hbar in _random_revival_cases(30, rng):
        params = CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar)
        energies, weights = ev._p_plus_spectrum(params, unit_label(theta))
        ts = 1e-3 * hbar / abs(j) * np.arange(1, 62833)
        complex_form = np.abs(weights @ np.exp(-1j * np.multiply.outer(energies, ts) / hbar)) ** 2
        assert np.max(np.abs(fidelity_series(params, unit_label(theta), ts).values - complex_form)) <= 1e-13
        real_form = _fidelity(energies / hbar, weights, ts)
        assert np.max(np.abs(real_form - complex_form)) <= 1e-13
        # The scan's bisection calls it with one time at a time.
        assert abs(_fidelity(energies / hbar, weights, float(ts[777])) - real_form[777]) <= 1e-15


@pytest.mark.parametrize(
    "j, hbar",
    [(1e-6, 1.0), (1.0, 1.0), (-3.0, 1e-3), (1e100, 1.0), (1e155, 1.0), (1e200, 1.0), (-1e200, 1.0),
     (1.0, 1e-300), (1e-310, 1e-310), (3e-310, 1e-309), (1e307, 1.0), (1e-300, 1e7)],
)
def test_revival_at_extreme_couplings(j, hbar):
    """The revival is found for |J| / hbar from 1e-307 to 1e307, subnormal J and hbar included, with no
    RuntimeWarning; the last two couplings lay outside the range the scan resolved."""
    params = CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rev = revival_time(params, unit_label(0.7))
    assert rev.status == FOUND
    unit = hbar / abs(j)
    assert abs(rev.time - math.pi * unit) <= REVIVAL_TOL * unit


@pytest.mark.parametrize("j, hbar", [(1e300, 1e-10), (1e-10, 1e300)])
def test_revival_rejects_couplings_outside_the_double_range(j, hbar):
    """hbar / |J| = 1e-310 puts the revival below the normal doubles, 1e310 overflows: BadParams, no warning."""
    params = CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar)
    with pytest.raises(BadParams, match="not a normal double"):
        revival_time(params, unit_label(0.7))


def test_revival_crossing_is_the_same_at_every_scale():
    """The crossing is taken in tau = |J| t / hbar, so (t - pi hbar/J) / (hbar/J) reads one value at any scale."""
    readings = []
    for j, hbar in ((1e-7, 1.0), (1.0, 1.0), (1e100, 1.0), (1e300, 1.0), (1.0, 1e-300), (1e-310, 1e-310),
                    (3e-310, 1e-309)):
        rev = revival_time(CouplingParams.xyz(jx=j, jy=j, jz=0.0, hbar=hbar), unit_label(0.7))
        unit = hbar / j
        readings.append((rev.time - math.pi * unit) / unit)
    assert max(readings) - min(readings) <= 1e-8, readings
    assert max(readings) < -1e-5  # the band crossing, ahead of the fidelity peak at pi hbar / J


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
    """Revivals near t = pi hbar / J ~ 1e7 are found, and `evolve` writes its footer there.

    It runs in a child process with a timeout, so a revival search that
    never ends fails this test instead of stalling the suite.
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


BELL_LABELS = [0.0, 1.0, 1j, -0.3 + 0.8j, 2.5 - 1.5j, 1e-8, 1e8j, 1e150, INFINITY]
# Rows: the Bell states Phi+, Phi-, Psi+, Psi-, which are P+, P-, G+ and G- at psi = 0.
BELL = np.array([entangled_state(sid, 0.0).amplitudes for sid in ("P+", "P-", "G+", "G-")])


def test_p_plus_has_no_psi_minus_weight():
    """P+(psi) is symmetric under qubit exchange, so its Psi- weight is exactly 0: the closed revival relies on it."""
    rng = np.random.default_rng(71)
    radii = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 1000), 1.0 + rng.uniform(-1e-6, 1e-6, 1000)])
    labels = [r * unit_label(a) for r, a in zip(radii, rng.uniform(-math.pi, math.pi, radii.size))]
    for psi in labels + BELL_LABELS:
        assert ev._p_plus_spectrum(XX, psi)[1][3] == 0.0, psi


def test_bell_basis_diagonalizes_the_exchange_hamiltonian():
    """H Bell^T = Bell^T diag(E), the weights are |Bell P+(psi)|^2, and sum_k w_k e^{-i E_k t / hbar} is
    <P+|evolve(h, P+, t)>.  At INFINITY, P+ is Phi+, so the weights there are exactly (1, 0, 0, 0)."""
    assert ev._p_plus_spectrum(XX, INFINITY)[1].tolist() == [1.0, 0.0, 0.0, 0.0]
    rng = np.random.default_rng(61)
    eps = np.finfo(float).eps
    for _ in range(100):
        jx, jy, jz = rng.uniform(-2.0, 2.0, 3)
        params = CouplingParams.xyz(jx=jx, jy=jy, jz=jz, hbar=float(rng.uniform(0.5, 2.0)))
        h = exchange_hamiltonian(params)
        for psi in BELL_LABELS + [complex(*rng.normal(size=2))]:
            energies, weights = ev._p_plus_spectrum(params, psi)
            bell_t = BELL.T
            assert np.max(np.abs(h @ bell_t - bell_t * energies)) <= 4.0 * eps * np.max(np.abs(energies))
            state0 = entangled_state("P+", psi)
            assert np.max(np.abs(weights - np.abs(BELL @ state0.amplitudes) ** 2)) <= 4.0 * eps, psi
            for t in (0.0, 0.37, 2.9, 11.0):
                amp = weights @ np.exp(-1j * energies * t / params.hbar)
                assert abs(amp - np.vdot(state0.amplitudes, evolve(h, state0, t, params.hbar).amplitudes)) <= 1e-13


def test_dynamics_build_no_hamiltonian_and_call_no_eigh(monkeypatch, tmp_path):
    """The series, the revival search and `qcs evolve` read only the closed Bell spectrum."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the P+ dynamics must not build or diagonalize a Hamiltonian")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(ev, "exchange_hamiltonian", forbidden)
    params = CouplingParams.xyz(jx=0.8, jy=-0.3, jz=1.1)
    ts = np.linspace(0.0, 3.0, 31)
    assert concurrence_series(params, 0.5 + 0.4j, ts).values.size == 31
    assert fidelity_series(params, 0.5 + 0.4j, ts).values.size == 31
    assert revival_time(XX, unit_label(0.7)).status == FOUND
    for argv in (["--j", "1", "--theta", "0.7"], ["--jx", "0.8", "--jy=-0.3", "--jz", "1.1", "--psi", "0.5,0.4"]):
        assert main(["evolve", *argv, "--output", str(tmp_path / "series.csv")]) == 0


def test_evolve_rejects_non_finite_time_and_hbar():
    state = entangled_state("P+", 0.3 + 0.7j)
    h = exchange_hamiltonian(XX)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(BadParams):
            evolve(h, state, t)
    for hbar in (math.inf, math.nan, 0.0):
        with pytest.raises(BadParams):
            evolve(h, state, 1.0, hbar=hbar)


@pytest.mark.parametrize(
    "params, ts",
    [
        (XX, [0.0, math.inf]),
        (XX, [0.0, math.nan]),
        (CouplingParams.xyz(jx=0.0, jy=0.0, jz=0.0), [0.0, math.inf]),
        # E t / hbar overflows at 2t, where the concurrence is read.
        (XX, [0.0, 5e307]),
        # Jx + Jy overflows: the energy itself is not finite.
        (CouplingParams.xyz(jx=1e308, jy=1e308, jz=0.0), [0.0, 1.0]),
    ],
)
def test_series_reject_non_finite_phases(params, ts):
    """A time, energy or phase E t / hbar that is not finite raises BadParams, with no NaN or warning."""
    for series in (concurrence_series, fidelity_series):
        with pytest.raises(BadParams):
            series(params, 0.3, ts)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 8, 0.9, math.pi / 4, 2.0])
def test_concurrence_law_on_the_unit_circle(theta):
    """Under XX, P+(e^{i theta}) has C(t) = sqrt(1 - sin^2(2 theta) sin^2(2 J t / hbar))."""
    params = CouplingParams.xyz(jx=1.3, jy=1.3, jz=0.0, hbar=0.8)
    ts = np.linspace(0.0, 4.0 * math.pi * 0.8 / 1.3, 301)
    law = np.sqrt(1.0 - np.sin(2.0 * theta) ** 2 * np.sin(2.0 * 1.3 * ts / 0.8) ** 2)
    assert np.max(np.abs(concurrence_series(params, unit_label(theta), ts).values - law)) <= 1e-12


def test_concurrence_reading_is_the_law_at_half_coupling():
    """The diagnostic reading carries the 1/2 prefactor of the energy surfaces: at theta = pi/4 it is
    the law at J/2, and elsewhere it starts at C(0) = 1 + (c^2 - c)/2, c = cos 2 theta, not 1."""
    ts = np.linspace(0.0, 10.0, 401)
    for j, hbar in ((1.0, 1.0), (1.3, 0.8), (-2.5, 1.7)):
        params = CouplingParams.xyz(jx=j / 2.0, jy=j / 2.0, jz=0.0, hbar=hbar)
        law = concurrence_series(params, unit_label(math.pi / 4), ts).values
        assert np.max(np.abs(closed_form_concurrence_reading(math.pi / 4, ts, j, hbar) - law)) <= 1e-12
    for theta in np.linspace(0.0, math.pi, 17):
        c = math.cos(2.0 * theta)
        assert abs(closed_form_concurrence_reading(theta, 0.0, 1.0) - (1.0 + (c * c - c) / 2.0)) <= 1e-12
    assert abs(closed_form_concurrence_reading(math.pi / 8, 0.0, 1.0) - 0.896) <= 1e-3
