"""Unitary dynamics of entangled coherent states under exchange couplings.

Evolution uses the pair-exchange form H = Jx sx sx + Jy sy sy + Jz sz sz
(bare Paulis, one bond, no 1/2 prefactor).  This normalization is fixed
by the XX-model dynamics of P+(e^{i theta}): under it the fidelity takes
the closed form F(t) = 1 - sin^2(2 theta) sin^2(J t / hbar), the middle
amplitudes carry the phase e^{-2iJt/hbar}, and the first revival of a
generic theta sits at pi hbar / J.  It differs by a factor of two from
the energy-surface XYZ convention in :mod:`qcs.spin_models`.

H is diagonal in the Bell basis (Phi+, Phi-, Psi+, Psi-) with energies
E = (Jx - Jy + Jz, -Jx + Jy + Jz, Jx + Jy - Jz, -Jx - Jy - Jz), and P+(psi)
has real amplitudes in the magic basis (Hill and Wootters, PRL 78, 5022
(1997)).  So with w_k = |<Bell_k|P+(psi)>|^2 and
A(t) = sum_k w_k e^{-i E_k t / hbar}, the evolved P+(psi) has fidelity
F(t) = |A(t)|^2 and concurrence C(t) = |A(2t)|: the series and the revival
search need no Hamiltonian and no diagonalization.  Closed-form readings
are diagnostics; NumPy is the only dependency.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coherent_states import PureState
from .complex_geometry import PointLike, as_point
from .entangled_basis import entangled_state
from .errors import BadParams, DimensionMismatch
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
# Rows: the Bell states Phi+, Phi-, Psi+, Psi- over |00>, |01>, |10>, |11>.
_BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2.0)


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


def evolve(h: np.ndarray, state: PureState, t: float, hbar: float = 1.0) -> PureState:
    """Evolved state exp(-iHt/hbar) |state> by spectral decomposition."""
    t = float(t)
    if not (math.isfinite(hbar) and hbar > 0):
        raise BadParams(f"hbar must be finite and positive, got {hbar}")
    if not math.isfinite(t):
        raise BadParams(f"t must be finite, got {t}")
    h = np.asarray(h, dtype=complex)
    if h.shape != (state.dim, state.dim):
        raise DimensionMismatch(f"operator shape {h.shape} vs state dim {state.dim}")
    energies, vectors = np.linalg.eigh(h)
    coeffs = vectors.conj().T @ state.amplitudes
    phases = np.exp(-1j * np.outer(t, energies) / hbar)
    return PureState(((phases * coeffs) @ vectors.T)[0])


def _p_plus_spectrum(params: CouplingParams, p: PointLike) -> tuple[np.ndarray, np.ndarray]:
    """Energies E_k of the exchange Hamiltonian and weights w_k = |<Bell_k|P+(psi)>|^2.

    Both are in the Bell order of `_BELL`, in which the Hamiltonian is
    diagonal; the weights sum to 1 within rounding.
    """
    if params.model != "XYZ":
        raise BadParams("dynamics are parameterized by XYZ exchange couplings")
    jx, jy, jz = params.jx, params.jy, params.jz
    energies = np.array([jx - jy + jz, -jx + jy + jz, jx + jy - jz, -jx - jy - jz])
    weights = np.abs(_BELL @ entangled_state("P+", p).amplitudes) ** 2
    return energies, weights


def _p_plus_series(params: CouplingParams, p: PointLike, t_grid) -> tuple[TimeSeries, TimeSeries]:
    """Concurrence C(t) = |A(2t)| and fidelity F(t) = |A(t)|^2 of the evolved P+(psi).

    A(t) = sum_k w_k e^{-i E_k t / hbar} from `_p_plus_spectrum`.  C is the
    hypot of the real sums at 2t, not sqrt(F(2t)), which loses accuracy
    near C = 0.  Both are capped at 1 so rounding cannot push them past
    their bound.
    """
    ts = np.asarray(t_grid, dtype=float)
    energies, weights = _p_plus_spectrum(params, p)
    # The largest phase, formed as below: a non-finite time, energy or
    # phase raises here instead of turning into NaN.
    e_max, t_max = float(np.max(np.abs(energies))), float(np.max(np.abs(ts), initial=0.0))
    if not math.isfinite(e_max * (2.0 * t_max) / params.hbar):
        raise BadParams(f"phases E t / hbar must be finite, got |E| up to {e_max!r}, |t| up to {t_max!r}")
    fidelity = _spectral_fidelity(energies, weights, ts, params.hbar)
    concurrence = np.hypot(*_spectral_sums(energies, weights, 2.0 * ts, params.hbar))
    return TimeSeries(ts, np.minimum(concurrence, 1.0)), TimeSeries(ts, np.minimum(fidelity, 1.0))


def concurrence_series(params: CouplingParams, p: PointLike, t_grid) -> TimeSeries:
    """Concurrence of the evolved P+(psi) on the time grid, capped at 1 (see `_p_plus_series`)."""
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


def _spectral_sums(energies: np.ndarray, weights: np.ndarray, t, hbar: float = 1.0):
    """Re A(t) and -Im A(t) as w . cos phi and w . sin phi, phi = (E (x) t) / hbar, for real w_k.

    Forming E t before dividing by hbar keeps phi finite wherever E t / hbar
    is, even where E / hbar overflows.  Callers that pass rates E / hbar
    keep hbar = 1, which divides exactly.
    """
    phi = np.multiply.outer(energies, t) / hbar
    return weights @ np.cos(phi), weights @ np.sin(phi)


def _spectral_fidelity(energies: np.ndarray, weights: np.ndarray, t, hbar: float = 1.0):
    """F(t) = |A(t)|^2 = (w . cos phi)^2 + (w . sin phi)^2 (see `_spectral_sums`).

    Real arithmetic only, equal to the complex form to within rounding.
    """
    re, im = _spectral_sums(energies, weights, t, hbar)
    return re**2 + im**2


def _peak_time(rates: np.ndarray, weights: np.ndarray, lo: float, t: float, hi: float) -> float:
    """Newton's maximum of F(t) = |A(t)|^2, A(t) = sum_k w_k e^{-i E_k t / hbar}, from t in [lo, hi].

    `rates` are E_k / hbar.  With a_k = w_k e^{r_k t} and r_k = -i E_k / hbar,
    A' = sum r_k a_k and A'' = sum r_k^2 a_k, so F' = 2 Re(conj(A) A') and
    F'' = 2 (|A'|^2 + Re(conj(A) A'')).  Steps are clamped to [lo, hi] and
    taken only while F'' < 0; a point that is not concave is no revival
    peak, and the band check of the caller rejects it.

    The derivatives are taken in the time unit 1 / omega, omega the power
    of two just above max |r|, so r^2 cannot overflow when |E| / hbar is
    near the top of the double range.  Scaling by a power of two is exact,
    so every step equals the unscaled one wherever that one is finite.
    """
    r = -1j * rates
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
    (`_spectral_fidelity`) on the energies and weights of
    `_p_plus_spectrum`.  The samples of one period
    (2 pi hbar / J) are scanned first, since the revival of the XX model
    sits at pi hbar / J; ten periods are scanned only if none is confirmed
    there.  The shorter scan is a prefix of the longer one, so both
    confirm the same first revival.  A fidelity that never leaves the
    band over ten periods is ALWAYS_ONE (the theta = 0 degenerate case);
    one that leaves and never returns is NO_REVIVAL.  Raises BadParams
    when |J| / hbar, the scan step or ten periods fall outside the normal
    doubles (|J| / hbar below about 3.5e-307 or above about 4.5e304).
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
    # Where |J| / hbar overflows or underflows, so does the scan step or ten periods.
    if not (dt >= sys.float_info.min and t_max < math.inf):
        raise BadParams(f"|J| / hbar = {j!r} / {hbar!r} is outside the range the revival scan resolves")

    energies, weights = _p_plus_spectrum(params, psi)
    # In range, |E| / hbar is finite, so divide it in real arithmetic once:
    # a complex division would take 1 / hbar, which overflows for subnormal hbar.
    rates = energies / hbar
    fidelity = functools.partial(_spectral_fidelity, rates, weights)
    peak = functools.partial(_peak_time, rates, weights)
    for n in (int(math.ceil(t_period / dt)) + 1, int(math.ceil(t_max / dt))):
        ts = dt * np.arange(1, n + 1)
        f = fidelity(ts)
        below = f < _REVIVAL_THRESHOLD
        if below.any():
            t = _first_revival(ts, f, int(np.argmax(below)), fidelity, peak, j / hbar)
            if t is not None:
                return Revival(FOUND, t)
    return Revival(NO_REVIVAL if below.any() else ALWAYS_ONE)
