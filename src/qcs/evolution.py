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

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coherent_states import PureState, _hypot1
from .complex_geometry import PointLike, as_point
from .errors import BadParams, DimensionMismatch
from .spin_models import CouplingParams, _embedded_terms, _rotated_axis

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
"""A fidelity that leaves the band and never returns.  No accepted input reaches it:
F depends on t only through sin^2(|J| t / hbar), which has period pi hbar / |J|,
so a fidelity that leaves the band returns within one period (see `revival_time`)."""

# The revival band is F >= 1 - _REVIVAL_BAND.
_REVIVAL_BAND = 1e-9


@dataclass(frozen=True)
class TimeSeries:
    """Real values sampled on a strictly increasing time grid."""

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise DimensionMismatch("t and values must be equal-length vectors")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise BadParams("time grid must be strictly increasing")
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
    ((xx, yy, zz),) = _embedded_terms("XYZ", 2, "all-pairs")
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

    Both are in the Bell order (Phi+, Phi-, Psi+, Psi-), in which the
    Hamiltonian is diagonal.  P+(psi) is Phi+ rotated by R(psi) (x) R(psi),
    which rotates the triplet by O(psi) and fixes the singlet, so the
    weights are (m_y^2, m_x^2, m_z^2, 0) with m = O(psi) e_y from
    `_rotated_axis` (m = e_y at INFINITY, where P+ is Phi+).
    """
    if params.model != "XYZ":
        raise BadParams("dynamics are parameterized by XYZ exchange couplings")
    jx, jy, jz = params.jx, params.jy, params.jz
    energies = np.array([jx - jy + jz, -jx + jy + jz, jx + jy - jz, -jx - jy - jz])
    psi = as_point(p)
    if psi.is_infinity:
        mx, my, mz = 0.0, 1.0, 0.0
    else:
        _hypot1(psi.value)  # BadParams where |psi| overflows, as where P+(psi) is built
        mx, my, mz = (float(v[0]) for v in _rotated_axis("y", np.array([psi.value.real]), np.array([psi.value.imag])))
    return energies, np.array([my * my, mx * mx, mz * mz, 0.0])


def _p_plus_sums(params: CouplingParams, p: PointLike, t_grid, scale: float):
    """The time grid ts with w . cos phi and w . sin phi, phi = (E (x) scale ts) / hbar.

    E and w are from `_p_plus_spectrum`; the sums are Re A and -Im A at
    scale * t, read at scale 1 for F(t) and 2 for C(t).  Forming E t before
    dividing by hbar keeps phi finite wherever E t / hbar is.  Both scales
    raise BadParams unless the largest phase at 2t is finite, so a
    non-finite time, energy or phase raises instead of turning into NaN.
    """
    ts = np.asarray(t_grid, dtype=float)
    energies, weights = _p_plus_spectrum(params, p)
    e_max, t_max = float(np.max(np.abs(energies))), float(np.max(np.abs(ts), initial=0.0))
    if not math.isfinite(e_max * (2.0 * t_max) / params.hbar):
        raise BadParams(f"phases E t / hbar must be finite, got |E| up to {e_max!r}, |t| up to {t_max!r}")
    phi = np.multiply.outer(energies, scale * ts) / params.hbar
    return ts, weights @ np.cos(phi), weights @ np.sin(phi)


def concurrence_series(params: CouplingParams, p: PointLike, t_grid) -> TimeSeries:
    """Concurrence C(t) = |A(2t)| of the evolved P+(psi) on the time grid, capped at 1.

    The hypot of the sums at 2t, not sqrt(F(2t)), which loses accuracy near C = 0.
    """
    ts, re, im = _p_plus_sums(params, p, t_grid, 2.0)
    return TimeSeries(ts, np.minimum(np.hypot(re, im), 1.0))


def fidelity_series(params: CouplingParams, p: PointLike, t_grid) -> TimeSeries:
    """Fidelity |<psi(t)|P+(psi)>|^2 = |A(t)|^2 of the evolved state with its initial state, capped at 1."""
    ts, re, im = _p_plus_sums(params, p, t_grid, 1.0)
    return TimeSeries(ts, np.minimum(re**2 + im**2, 1.0))


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


def revival_time(params: CouplingParams, p: PointLike) -> Revival:
    """Smallest t > 0 at which the P+(psi) fidelity returns above 1 - 1e-9, in closed form.

    XX couplings have the Bell energies (0, 0, 2J, -2J), and P+(psi) is
    symmetric under qubit exchange, so its Psi- weight w_3 is exactly 0.
    With a = w_0 + w_1, b = w_2 and tau = |J| t / hbar the fidelity is
    F = (a + b)^2 - 4ab sin^2(tau), 4ab = sin^2(2 theta) on the unit circle
    (`closed_form_fidelity`).  P+(psi) is a unit vector, so F(0) = a + b = 1
    exactly, and F stays in the band while sin^2(tau) <= q = 1e-9 / 4ab.
    It first returns at tau = pi - asin(sqrt(q)), taken as
    pi/2 + asin(sqrt(1 - q)) where q is near 1.  Where 4ab <= 1e-9 it
    never leaves the band: ALWAYS_ONE (theta within about 1.6e-5 of a
    multiple of pi/2).  Taking F(0) = 1 rather than the rounded (a + b)^2
    keeps the rounding of the weights out of the 1e-9 gap.  Only q near 1,
    where sin^2(2 theta) barely exceeds 1e-9, stays sensitive: there
    sqrt(1 - q) amplifies the relative rounding of 4ab.

    Raises BadParams off XX couplings, for labels more than 1e-6 off the
    unit circle, and where tau hbar / |J| for tau in [pi/2, pi] is not a
    finite normal double (hbar / |J| below about 1.4e-308 or above about
    5.7e307).
    """
    if not is_xx_like(params):
        raise BadParams("revival detection is defined for XX-form couplings")
    psi = as_point(p)
    if psi.is_infinity or abs(abs(psi.value) - 1.0) > 1e-6:
        raise BadParams("revival detection needs a unit-circle label psi = e^{i theta}")
    j, hbar = abs(params.jx), params.hbar
    unit = hbar / j
    if not (0.5 * math.pi * unit >= sys.float_info.min and math.pi * unit < math.inf):
        raise BadParams(f"revival time pi hbar / |J| at |J| = {j!r}, hbar = {hbar!r} is not a normal double")

    _, weights = _p_plus_spectrum(params, psi)
    four_ab = 4.0 * float(weights[0] + weights[1]) * float(weights[2])
    if four_ab <= _REVIVAL_BAND:
        return Revival(ALWAYS_ONE)
    q = _REVIVAL_BAND / four_ab
    tau = math.pi - math.asin(math.sqrt(q)) if q < 0.5 else 0.5 * math.pi + math.asin(math.sqrt(1.0 - q))
    return Revival(FOUND, tau * unit)
