"""Unitary dynamics of entangled coherent states under exchange couplings.

Evolution uses the pair-exchange form H = Jx sx sx + Jy sy sy + Jz sz sz
(bare Paulis, one bond, no 1/2 prefactor).  This normalization is fixed
by the XX-model dynamics of P+(e^{i theta}): under it the fidelity takes
the closed form F(t) = 1 - sin^2(2 theta) sin^2(J t / hbar), the middle
amplitudes carry the phase e^{-2iJt/hbar}, and the first revival of a
generic theta sits at pi hbar / J.  It differs by a factor of two from
the energy-surface XYZ convention in :mod:`qcs.spin_models`.

The numeric route (spectral evolution, then determinant concurrence and
overlap fidelity) is authoritative; closed-form readings are diagnostics.
Revival peaks are refined by Newton on the analytic derivatives of the
spectral fidelity, so this module needs NumPy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .coherent_states import NORM_TOL, PureState
from .complex_geometry import PointLike, as_point
from .entangled_basis import entangled_state
from .errors import BadParams, DimensionMismatch, NotNormalized
from .spin_models import CouplingParams, _embedded_terms

__all__ = [
    "TimeSeries",
    "Revival",
    "FOUND",
    "ALWAYS_ONE",
    "NO_REVIVAL",
    "exchange_hamiltonian",
    "is_xx_like",
    "evolve",
    "concurrence_series",
    "fidelity_series",
    "closed_form_fidelity",
    "closed_form_concurrence_reading",
    "revival_time",
]

FOUND = "FOUND"
ALWAYS_ONE = "ALWAYS_ONE"
NO_REVIVAL = "NO_REVIVAL"

_REVIVAL_THRESHOLD = 1.0 - 1e-9
_REVIVAL_PERIODS = 10
_BISECT_TOL = 1e-9
_PEAK_TOL = 1e-12
_PEAK_MAX_ITER = 50


@dataclass(frozen=True)
class TimeSeries:
    """Real values sampled on a strictly increasing time grid."""

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("t and values must be equal-length vectors")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Revival:
    """Outcome of revival detection: a time, or a typed reason there is none."""

    status: str
    time: Optional[float] = None


def exchange_hamiltonian(params: CouplingParams, n_qubits: int = 2) -> np.ndarray:
    """Two-qubit exchange Hamiltonian Jx sx sx + Jy sy sy + Jz sz sz.

    The three Pauli products are the cached embedded terms that
    `spin_models.hamiltonian` sums for XYZ.
    """
    if params.model != "XYZ":
        raise BadParams("dynamics are parameterized by XYZ exchange couplings")
    if n_qubits != 2:
        raise BadParams("exchange dynamics implemented for two qubits")
    ((xx, yy, zz),) = _embedded_terms("XYZ", params.hbar, 2, "all-pairs")
    return params.jx * xx + params.jy * yy + params.jz * zz


def is_xx_like(params: CouplingParams) -> bool:
    """True for XYZ couplings of XX form: Jx = Jy != 0, Jz = 0."""
    return params.model == "XYZ" and params.jx == params.jy != 0.0 and params.jz == 0.0


def _spectral_propagator(
    h: np.ndarray, hbar: float
) -> Callable[[np.ndarray, Union[float, np.ndarray]], np.ndarray]:
    """Return amps(c0, t) evaluating exp(-iHt/hbar) c0 via the eigenbasis."""
    energies, vectors = np.linalg.eigh(h)

    def apply(c0: np.ndarray, t):
        coeffs = vectors.conj().T @ c0
        phases = np.exp(-1j * np.outer(np.atleast_1d(t), energies) / hbar)
        out = (phases * coeffs) @ vectors.T
        return out[0] if np.isscalar(t) else out

    return apply


def evolve(h: np.ndarray, state: PureState, t: float, hbar: float = 1.0) -> PureState:
    """Evolved state exp(-iHt/hbar) |state> by spectral decomposition."""
    h = np.asarray(h, dtype=complex)
    if not hbar > 0:
        raise BadParams(f"hbar must be positive, got {hbar}")
    if h.shape != (state.dim, state.dim):
        raise DimensionMismatch(f"operator shape {h.shape} vs state dim {state.dim}")
    return PureState(_spectral_propagator(h, hbar)(state.amplitudes, float(t)))


def _initial_p_plus(params: CouplingParams, p: PointLike) -> tuple[np.ndarray, np.ndarray]:
    psi = as_point(p)
    state0 = entangled_state("P+", psi)
    h = exchange_hamiltonian(params)
    return state0.amplitudes, h


def _p_plus_series(params: CouplingParams, p: PointLike, t_grid) -> tuple[TimeSeries, TimeSeries]:
    """Concurrence and fidelity series of the evolved P+(psi), from one propagation.

    Each evolved row must lie within NORM_TOL of unit norm, as a
    PureState would require; it is renormalized and C = 2 |a00 a11 - a01 a10|.
    The fidelity |<psi(t)|P+(psi)>|^2 is read from the rows as evolved.
    Both are capped at 1 so rounding cannot push them past their bound.
    """
    c0, h = _initial_p_plus(params, p)
    ts = np.asarray(t_grid, dtype=float)
    evolved = _spectral_propagator(h, params.hbar)(c0, ts)
    norms = np.linalg.norm(evolved, axis=1, keepdims=True)
    off = np.abs(norms - 1.0) > NORM_TOL
    if off.any():
        norm = float(norms[off][0])
        raise NotNormalized(f"|amplitudes| = {norm!r}, expected 1 within {NORM_TOL}")
    a = evolved / norms
    concurrence = 2.0 * np.abs(a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2])
    fidelity = np.abs(evolved @ c0.conj()) ** 2
    return TimeSeries(ts, np.minimum(concurrence, 1.0)), TimeSeries(ts, np.minimum(fidelity, 1.0))


def concurrence_series(params: CouplingParams, p: PointLike, t_grid) -> TimeSeries:
    """Determinant concurrence of the evolved P+(psi) on the time grid.

    Raises NotNormalized if an evolved row is off unit norm by more than
    NORM_TOL (see `_p_plus_series`).
    """
    return _p_plus_series(params, p, t_grid)[0]


def fidelity_series(params: CouplingParams, p: PointLike, t_grid) -> TimeSeries:
    """Fidelity |<psi(t)|P+(psi)>|^2 of the evolved state with its initial state, capped at 1."""
    return _p_plus_series(params, p, t_grid)[1]


def closed_form_fidelity(theta: float, t, j: float, hbar: float = 1.0):
    """XX-model fidelity law 1 - sin^2(2 theta) sin^2(J t / hbar) for psi = e^{i theta}."""
    t = np.asarray(t, dtype=float)
    out = 1.0 - np.sin(2.0 * theta) ** 2 * np.sin(j * t / hbar) ** 2
    return float(out) if out.ndim == 0 else out


def closed_form_concurrence_reading(theta: float, t, j: float, hbar: float = 1.0):
    """A closed-form C(t) diagnostic for psi = e^{i theta}, cos^2(2 theta) convention.

    C(t) = (1/4) sqrt[(2 + 2cos^2(2 theta))^2
                      + 8 (2 + 2cos^2(2 theta)) sin^2(theta) cos(2 J t / hbar)
                      + 16 sin^4(theta)]

    Diagnostic only; it disagrees with the numeric determinant route and
    the deviation is reported, never asserted.
    """
    t = np.asarray(t, dtype=float)
    a = 2.0 + 2.0 * math.cos(2.0 * theta) ** 2
    s2 = math.sin(theta) ** 2
    out = 0.25 * np.sqrt(a * a + 8.0 * a * s2 * np.cos(2.0 * j * t / hbar) + 16.0 * s2 * s2)
    return float(out) if out.ndim == 0 else out


def _spectral_fidelity(rates: np.ndarray, weights: np.ndarray, t):
    """|sum_k w_k e^{-i phi_k}|^2 with phi = rates (x) t, for real weights w_k.

    Computed as (w . cos phi)^2 + (w . sin phi)^2: real arithmetic only,
    equal to the complex form to within rounding.
    """
    phi = np.multiply.outer(rates, t)
    return (weights @ np.cos(phi)) ** 2 + (weights @ np.sin(phi)) ** 2


def _peak_time(
    energies: np.ndarray, weights: np.ndarray, hbar: float, lo: float, t: float, hi: float
) -> float:
    """Newton's maximum of F(t) = |A(t)|^2, A(t) = sum_k w_k e^{-i E_k t / hbar}, from t in [lo, hi].

    With a_k = w_k e^{r_k t} and r_k = -i E_k / hbar, A' = sum r_k a_k and
    A'' = sum r_k^2 a_k, so F' = 2 Re(conj(A) A') and
    F'' = 2 (|A'|^2 + Re(conj(A) A'')).  Steps are clamped to [lo, hi] and
    taken only while F'' < 0; a point that is not concave is no revival
    peak, and the band check of the caller rejects it.

    The derivatives are taken in the time unit 1 / omega, omega the power
    of two just above max |r|, so r^2 cannot overflow when |E| / hbar is
    near the top of the double range.  Scaling by a power of two is exact,
    so every step equals the unscaled one wherever that one is finite.
    """
    r = -1j * energies / hbar
    scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(r), initial=0.0)))[1])
    s = scale * r
    s2 = s * s
    for _ in range(_PEAK_MAX_ITER):
        a = weights * np.exp(r * t)
        amp, d1, d2 = a.sum(), s @ a, s2 @ a
        f1 = 2.0 * (amp.conjugate() * d1).real
        f2 = 2.0 * (abs(d1) ** 2 + (amp.conjugate() * d2).real)
        if not f2 < 0.0:
            break
        t_next = min(max(t - f1 / f2 * scale, lo), hi)
        step, t = t_next - t, t_next
        if abs(step) <= _PEAK_TOL:
            break
    return float(t)


def _first_revival(
    ts: np.ndarray,
    f: np.ndarray,
    first_below: int,
    fidelity: Callable,
    peak: Callable[[float, float, float], float],
    rate: float,
) -> Optional[float]:
    """The first scan peak after `first_below` whose refined fidelity re-enters the band.

    `peak(lo, t, hi)` refines a sampled peak t to the fidelity maximum in [lo, hi].
    The upward crossing is bisected in the dimensionless time rate * t,
    rate = |J| / hbar, so it ends at the same point of the curve at any scale.
    """
    # The band [1 - 1e-9, 1] is a few 1e-5 wide in t near a revival, far
    # narrower than the scan step, so raw samples almost never land in it.
    # Locate the fidelity peaks instead, refine each, and take the first
    # whose refined value re-enters the band.
    peaks = 1 + np.nonzero((f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:]))[0]
    for k in peaks:
        if k <= first_below:
            continue
        t_peak = peak(float(ts[k - 1]), float(ts[k]), float(ts[k + 1]))
        if fidelity(t_peak) < _REVIVAL_THRESHOLD:
            continue
        left = k - 1
        while left > 0 and f[left] >= _REVIVAL_THRESHOLD:
            left -= 1
        lo, hi = float(ts[left]), t_peak
        while (hi - lo) * rate > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            # Should mid round onto an end, the bracket is as narrow as
            # doubles near t allow: hi is final.
            if not lo < mid < hi:
                break
            if fidelity(mid) >= _REVIVAL_THRESHOLD:
                hi = mid
            else:
                lo = mid
        return float(hi)
    return None


def revival_time(params: CouplingParams, p: PointLike) -> Revival:
    """Smallest t > 0 at which the P+(psi) fidelity returns above 1 - 1e-9.

    Samples the fidelity on a fine grid (dt = 1e-3 hbar/J), locates the
    first peak after it leaves the band whose value, refined by Newton
    (`_peak_time`), re-enters it, and bisects the upward crossing to
    1e-9 hbar/|J|, the same point of the curve at every scale.  Scan and
    bisection evaluate the fidelity in real arithmetic
    (`_spectral_fidelity`).  The samples of one period
    (2 pi hbar / J) are scanned first, since the revival of the XX model
    sits at pi hbar / J; ten periods are scanned only if none is confirmed
    there.  The shorter scan is a prefix of the longer one, so both
    confirm the same first revival.  A fidelity that never leaves the
    band over ten periods is ALWAYS_ONE (the theta = 0 degenerate case);
    one that leaves and never returns is NO_REVIVAL.
    """
    if not is_xx_like(params):
        raise BadParams("revival detection is defined for XX-form couplings")
    psi = as_point(p)
    if psi.is_infinity or abs(abs(psi.value) - 1.0) > 1e-6:
        raise BadParams("revival detection needs a unit-circle label psi = e^{i theta}")

    j = abs(params.jx)
    hbar = params.hbar
    dt = 1e-3 * hbar / j
    t_period = 2.0 * math.pi * hbar / j
    t_max = _REVIVAL_PERIODS * 2.0 * math.pi * hbar / j

    c0, h = _initial_p_plus(params, p)
    energies, vectors = np.linalg.eigh(h)
    weights = np.abs(vectors.conj().T @ c0) ** 2

    fidelity = functools.partial(_spectral_fidelity, energies / hbar, weights)
    peak = functools.partial(_peak_time, energies, weights, hbar)
    for n in (int(math.ceil(t_period / dt)) + 1, int(math.ceil(t_max / dt))):
        ts = dt * np.arange(1, n + 1)
        f = fidelity(ts)
        below = f < _REVIVAL_THRESHOLD
        if below.any():
            t = _first_revival(ts, f, int(np.argmax(below)), fidelity, peak, j / hbar)
            if t is not None:
                return Revival(FOUND, t)
    return Revival(NO_REVIVAL if below.any() else ALWAYS_ONE)
