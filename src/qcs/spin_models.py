"""Heisenberg-family Hamiltonians and their coherent-state energy surfaces.

The Q symbol of a model is the diagonal expectation E(psi) =
<B(psi)|H|B(psi)> taken in one maximally entangled basis member B; plotted
over the label plane it forms an energy surface.  Every isolated finite
extremum sits on one of its state's fixed labels, where the surface is
stationary whatever the couplings, and the Hessian there is a table in
the couplings (`_census`), so extrema are read off that table, not
searched for on the grid.

Two scalar routes exist: `q_symbol_direct` (matrix element, the oracle
of the rotation law that surfaces use) and `q_symbol_closed` (hand-reduced
formulas, available only for specific model/state pairs).  Each bond is
three hbar-free unit operators (`_unit_terms`) times coefficients that
carry hbar (`_term_couplings`): XXX and XXZ are written in spin operators
and carry hbar^2, XYZ in bare Pauli matrices with a 1/2 prefactor and no
hbar.  Three-qubit energies depend on the bond topology; the closed forms
take the open chain (1,2)+(2,3).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .complex_geometry import PointLike, as_point
from .entangled_basis import _state_id, entangled_state
from .errors import BadParams, FormulaUnavailable, InfinitePoint, NoConvergence
from .operators import embed_pair, sigma_x, sigma_y, sigma_z, spin_minus, spin_plus

__all__ = [
    "CouplingParams",
    "hamiltonian",
    "q_symbol_direct",
    "q_symbol_closed",
    "q_symbol_pair",
    "Extremum",
    "SurfaceGrid",
    "energy_surface",
    "refine_extremum",
    "MIN",
    "MAX",
    "SADDLE",
    "CONSTANT",
]

MODELS = ("XXX", "XXZ", "XYZ")
BOND_CHOICES = ("all-pairs", "chain")

# Extremum kinds.
MIN = "MIN"
MAX = "MAX"
SADDLE = "SADDLE"
CONSTANT = "CONSTANT"

# A surface is flagged constant when its total spread is below this
# relative floor; the same relative margin guards the strict-dominance
# test against float noise on flat ridges.
FLATNESS_REL = 1e-10
_CURVATURE_FLOOR = 1e-5
# A definite seed whose exact gradient is this small is refined in place.
_STATIONARY_GRAD_TOL = 1e-9
# Extremum values this close (relative) are ordered by position, not by rounding noise.
_TIE_REL = 1e-12
# Largest grid a surface may sample (about 32 MB of float64 values).
MAX_GRID_NODES = 4_000_000
# Labels per kernel call on a grid, in whole rows (one row when a row is longer).
# Fewer calls save NumPy's per-call overhead; much larger blocks of the law's temporaries
# fall out of cache (2048-32768 labels on a 2-core Xeon: 20 ns per node here, 25 at 4096).
_GRID_BLOCK = 8192

_log = logging.getLogger("qcs")


@dataclass(frozen=True)
class CouplingParams:
    """Coupling constants for one model; build via the xxx/xxz/xyz constructors.

    XXZ keeps the redundant pair (delta, jz) consistent as jz = j * delta.
    XYZ accepts either Cartesian (jx, jy) or the sum/difference pair
    (j_plus, j_minus) with jx = j_plus + j_minus, jy = j_plus - j_minus.
    """

    model: str
    j: float = 0.0
    delta: float = 0.0
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise BadParams(f"unknown model {self.model!r}; expected one of {MODELS}")
        for name in ("j", "delta", "jx", "jy", "jz", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise BadParams(f"{name} must be finite, got {getattr(self, name)}")
        if not self.hbar > 0:
            raise BadParams(f"hbar must be positive, got {self.hbar}")
        if not all(map(math.isfinite, _term_couplings(self))):
            raise BadParams(f"bond coefficients {_term_couplings(self)} overflow at hbar={self.hbar}")
        if self.model == "XXZ" and abs(self.jz - self.j * self.delta) > 1e-12 * (
            1.0 + abs(self.jz)
        ):
            raise BadParams(f"inconsistent XXZ couplings: jz={self.jz} != j*delta={self.j * self.delta}")

    @classmethod
    def xxx(cls, j: float, hbar: float = 1.0) -> "CouplingParams":
        return cls(model="XXX", j=float(j), hbar=hbar)

    @classmethod
    def xxz(
        cls,
        j: float,
        delta: Optional[float] = None,
        jz: Optional[float] = None,
        hbar: float = 1.0,
    ) -> "CouplingParams":
        if delta is None and jz is None:
            raise BadParams("XXZ needs delta or jz")
        if delta is None:
            if j == 0:
                raise BadParams("cannot infer delta from jz when j = 0")
            delta = jz / j
        if jz is None:
            jz = j * delta
        return cls(model="XXZ", j=float(j), delta=float(delta), jz=float(jz), hbar=hbar)

    @classmethod
    def xyz(
        cls,
        jx: Optional[float] = None,
        jy: Optional[float] = None,
        jz: float = 0.0,
        j_plus: Optional[float] = None,
        j_minus: Optional[float] = None,
        hbar: float = 1.0,
    ) -> "CouplingParams":
        cartesian = jx is not None or jy is not None
        sum_diff = j_plus is not None or j_minus is not None
        if cartesian and sum_diff:
            raise BadParams("give (jx, jy) or (j_plus, j_minus), not both")
        if sum_diff:
            j_plus = j_plus or 0.0
            j_minus = j_minus or 0.0
            jx = j_plus + j_minus
            jy = j_plus - j_minus
        elif cartesian:
            jx = jx or 0.0
            jy = jy or 0.0
        else:
            raise BadParams("XYZ needs (jx, jy) or (j_plus, j_minus)")
        return cls(model="XYZ", jx=float(jx), jy=float(jy), jz=float(jz), hbar=hbar)

    @property
    def j_plus(self) -> float:
        return 0.5 * (self.jx + self.jy)

    @property
    def j_minus(self) -> float:
        return 0.5 * (self.jx - self.jy)


def _bond_list(n_qubits: int, bonds: str) -> tuple[tuple[int, int], ...]:
    if bonds not in BOND_CHOICES:
        raise BadParams(f"unknown bond topology {bonds!r}; expected one of {BOND_CHOICES}")
    if n_qubits == 2:
        return ((0, 1),)
    if bonds == "chain":
        return ((0, 1), (1, 2))
    return ((0, 1), (0, 2), (1, 2))


def _unit_terms(model: str) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(left, right) hbar-free single-site operators of one bond's terms, in `_term_couplings` order."""
    if model == "XYZ":
        return ((sigma_x(), sigma_x()), (sigma_y(), sigma_y()), (sigma_z(), sigma_z()))
    return ((spin_plus(), spin_minus()), (spin_minus(), spin_plus()), (sigma_z(), sigma_z()))


def _term_couplings(params: CouplingParams) -> tuple[float, float, float]:
    """The coefficient of each of one bond's `_unit_terms`, hbar rounded in as the spin operators round it."""
    if params.model == "XYZ":
        return (0.5 * params.jx, 0.5 * params.jy, 0.5 * params.jz)
    hb = params.hbar
    zz = (-2.0 * params.j if params.model == "XXX" else 2.0 * params.delta) * ((hb / 2.0) * (hb / 2.0))
    return (-params.j * (hb * hb), -params.j * (hb * hb), zz)


@lru_cache(maxsize=64)
def _embedded_terms(model: str, n_qubits: int, bonds: str) -> tuple[tuple[np.ndarray, ...], ...]:
    """Each bond's unit two-site operators embedded in n_qubits, one tuple per bond; read-only.

    Neither couplings nor hbar enter, so a scan over either builds these once.
    """
    embedded = []
    for i, j in _bond_list(n_qubits, bonds):
        ops = tuple(embed_pair(left, right, i, j, n_qubits) for left, right in _unit_terms(model))
        for op in ops:
            op.flags.writeable = False
        embedded.append(ops)
    return tuple(embedded)


@lru_cache(maxsize=256)
def hamiltonian(params: CouplingParams, n_qubits: int = 2, bonds: str = "all-pairs") -> np.ndarray:
    """Dense Hermitian Hamiltonian on 2 or 3 qubits.

    XXX: -J (S1+ S2- + S1- S2+ + 2 S1z S2z) per bond.
    XXZ: -J (S1+ S2- + S1- S2+) + 2 Delta S1z S2z per bond.
    XYZ: (Jx sx sx + Jy sy sy + Jz sz sz) / 2 per bond (bare Paulis).

    For three qubits the topology is "chain" ((1,2)+(2,3)) or "all-pairs".
    H is summed term by term, bond by bond, from unit two-site operators
    embedded once per (model, n_qubits, bonds), so new couplings or hbar
    cost no Kronecker products.  The returned array is cached and read-only;
    couplings whose sum over bonds overflows raise BadParams.
    """
    if n_qubits not in (2, 3):
        raise BadParams(f"n_qubits must be 2 or 3, got {n_qubits}")
    h = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    couplings = _term_couplings(params)
    with np.errstate(over="ignore", invalid="ignore"):
        for bond in _embedded_terms(params.model, n_qubits, bonds):
            for coeff, op in zip(couplings, bond):
                h += coeff * op
    if not np.isfinite(h).all():
        raise BadParams(f"the {n_qubits}-qubit {bonds} Hamiltonian overflows at bond coefficients {couplings}")
    h.flags.writeable = False
    return h


def _require_finite(p: PointLike) -> complex:
    q = as_point(p)
    if q.is_infinity:
        raise InfinitePoint("energy surfaces are evaluated at finite labels")
    return q.value


# The rotation law's (c, s, axis) per state: <B(0)|sigma_a sigma_b|B(0)> = c I + s e_axis e_axis^T.
_LAW = {"P+": (1.0, -2.0, "y"), "P-": (1.0, -2.0, "x"), "G+": (1.0, -2.0, "z"), "G-": (-1.0, 0.0, "z"),
        "PG+": (0.0, 1.0, "z"), "PG-": (2.0 / 3.0, -1.0, "z")}


def _pauli_diagonal(params: CouplingParams) -> tuple[float, float, float]:
    """K of one bond sum_a K_a sigma_a sigma_a; S+ S- and S- S+ each carry half of sx sx + sy sy."""
    c0, c1, c2 = _term_couplings(params)
    return (c0, c1, c2) if params.model == "XYZ" else (c0 / 2.0, c1 / 2.0, c2)


def _rotated_axis(axis: str, x: np.ndarray, y: np.ndarray, t=1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """v = O(psi) e_axis at the finite labels x + 1j*y of 1-D arrays, by README's forms at t = 1.

    The forms are quadratics in (x, y, t) over t^2 + r^2, so where r^2 overflows (|psi| from about 1.3e154)
    they are read at 2^-e (x, y, 1), a point below 1 that gives the same v."""
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = x * x + y * y
        d = t * t + r2
        if axis == "z":
            v = (2.0 * t * x / d, 2.0 * t * y / d, (t * t - r2) / d)
        elif axis == "y":
            v = (-2.0 * x * y / d, (t * t + x * x - y * y) / d, -2.0 * t * y / d)
        else:
            v = ((t * t - x * x + y * y) / d, -2.0 * x * y / d, -2.0 * t * x / d)
    far = np.isinf(r2)
    if far.any():
        scale = np.ldexp(1.0, -np.frexp(np.maximum(np.abs(x[far]), np.abs(y[far])))[1])
        for component, value in zip(v, _rotated_axis(axis, scale * x[far], scale * y[far], scale)):
            component[far] = value
    return v


def q_symbol_direct(
    params: CouplingParams, state_id: str, p: PointLike, bonds: str = "all-pairs"
) -> float:
    """Q symbol <B(psi)|H|B(psi)> by direct matrix element (the oracle route); BadParams where it overflows.

    H is scaled by 2^-e, max |H| < 2^e, so only the energy itself can overflow; no normal value changes.
    """
    psi = _require_finite(p)
    sid = state_id.upper()
    n = 3 if sid.startswith("PG") else 2
    h = hamiltonian(params, n, bonds)
    a = entangled_state(sid, psi).amplitudes
    scale = max(0, math.frexp(float(np.max(np.abs(h))))[1])
    energy = complex(np.vdot(a, (h * math.ldexp(1.0, -scale)) @ a))
    if abs(energy.imag) > 1e-12 * (1.0 + abs(energy.real)):
        raise ValueError("non-real expectation of a Hermitian operator")
    try:
        return math.ldexp(energy.real, scale)
    except OverflowError:
        raise BadParams(f"the energy at {psi} overflows; couplings this large are beyond the double range") from None


def q_symbol_closed(params: CouplingParams, state_id: str, p: PointLike) -> float:
    """Q symbol by hand-reduced closed formula.

    Available pairs: (XXX, P+), (XXZ, P+), and XYZ with any of P+, P-,
    G+, G-, PG+, PG-.  Three-qubit forms correspond to the chain
    topology.  Raises FormulaUnavailable for anything else.
    """
    psi = _require_finite(p)
    return float(_closed_values(params, _state_id(state_id), psi.real, psi.imag))


def _closed_values(params: CouplingParams, sid: str, x, y):
    """`_closed_form`, raising BadParams where it overflows.  The forms are linear in the couplings, so the
    overflow is the labels' (|psi| from about 1e50) where it persists at couplings scaled to at most 1 and hbar 1."""
    val = _closed_or_inf(params, sid, x, y)
    if not (np.isfinite(val).all() if isinstance(val, np.ndarray) else math.isfinite(val)):
        scale = max(1.0, abs(params.j), abs(params.jx), abs(params.jy), abs(params.jz))
        unit = replace(params, hbar=1.0, **{name: getattr(params, name) / scale for name in ("j", "jx", "jy", "jz")})
        if np.isfinite(_closed_or_inf(unit, sid, x, y)).all():
            raise BadParams(f"closed form overflows at couplings this large: {params}")
        raise BadParams("closed form overflows at labels this large; use the direct source")
    return val


def _closed_or_inf(params: CouplingParams, sid: str, x, y):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _closed_form(params, sid, x, y)
    except OverflowError:  # float ** int raises where float * float gives inf
        return math.inf


def _closed_form(params: CouplingParams, sid: str, x, y):
    """The closed formulas of `q_symbol_closed` at floats or broadcastable arrays x, y.

    The result has the broadcast shape of x and y, constant forms included.
    """
    r2 = x * x + y * y
    d2 = 1.0 + r2

    if params.model == "XXX":
        if sid == "P+":
            return np.full_like(r2, -params.j * params.hbar**2 / 2.0)
        raise FormulaUnavailable(f"no closed form for (XXX, {sid})")

    if params.model == "XXZ":
        if sid == "P+":
            hb2 = params.hbar**2
            return -hb2 * (8.0 * params.j * y * y + params.jz * (1.0 + 2.0 * x * x - 6.0 * y * y + r2 * r2)) / (d2 * d2)
        raise FormulaUnavailable(f"no closed form for (XXZ, {sid})")

    jp, jm, jz = params.j_plus, params.j_minus, params.jz
    # Real reductions used below: (psi - conj psi)^2 = -4 y^2,
    # (psi + conj psi)^2 = 4 x^2, psi^2 + conj(psi)^2 = 2 (x^2 - y^2).
    psi2_sum = 2.0 * (x * x - y * y)
    if sid == "P+":
        num = (
            8.0 * jp * y * y
            + 2.0 * jm * ((1.0 + x * x - y * y) ** 2 - 4.0 * x * x * y * y)
            + jz * ((1.0 - r2) ** 2 + 2.0 * psi2_sum)
        )
        return num / (2.0 * d2 * d2)
    if sid == "P-":
        num = (
            8.0 * jp * x * x
            - 2.0 * jm * ((1.0 - x * x + y * y) ** 2 - 4.0 * x * x * y * y)
            + jz * ((1.0 - x * x + y * y) ** 2 + 4.0 * x * x * y * y - 4.0 * x * x)
        )
        return num / (2.0 * d2 * d2)
    if sid == "G+":
        num = 2.0 * jp * (1.0 - r2) ** 2 - 4.0 * jm * psi2_sum + jz * (4.0 * r2 - (1.0 - r2) ** 2)
        return num / (2.0 * d2 * d2)
    if sid == "G-":
        return np.full_like(r2, -(jz / 2.0 + jp))
    if sid == "PG+":
        num = (
            4.0 * jp * r2 * d2
            + 2.0 * jm * d2 * psi2_sum
            + jz * (1.0 - r2 - r2 * r2 + r2 * r2 * r2)
        )
        return num / d2**3
    if sid == "PG-":
        num = (
            4.0 * jp * (1.0 + r2 * r2 * r2)
            - 6.0 * jm * d2 * psi2_sum
            - jz * (1.0 - 9.0 * r2 - 9.0 * r2 * r2 + r2 * r2 * r2)
        )
        return num / (3.0 * d2**3)
    raise FormulaUnavailable(f"no closed form for (XYZ, {sid})")


def q_symbol_pair(
    params: CouplingParams, state_id: str, p: PointLike, bonds: str = "all-pairs"
) -> tuple[float, float, float]:
    """(direct, closed, closed - direct) at one label; the residual is diagnostic."""
    direct = q_symbol_direct(params, state_id, p, bonds)
    closed = q_symbol_closed(params, state_id, p)
    return direct, closed, closed - direct


@dataclass(frozen=True)
class Extremum:
    """An isolated stationary point of an energy surface."""

    x: float
    y: float
    value: float
    kind: str


@dataclass(frozen=True)
class SurfaceGrid:
    """Energy values sampled on a rectangular label grid.

    values[i, j] is the energy at (xs[j], ys[i]); extrema are refined
    stationary points sorted by value, and `constant` flags surfaces whose
    total spread is below the flatness floor.
    """

    window: tuple[float, float, float, float]
    step: float
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    extrema: tuple[Extremum, ...]
    constant: bool
    source: str
    state_id: str


def _source(source: str) -> str:
    kind = source.lower()
    if kind not in ("direct", "closed"):
        raise BadParams(f"unknown source {source!r}; expected 'direct' or 'closed'")
    return kind


def _law(params: CouplingParams, sid: str, source: str, bonds: str):
    """(n_bonds, c, s, axis, K 2^-e, e): one surface's rotation law n_bonds (c tr K + s v^T K v) (README).

    e is the exponent of max |K|, so no sum of the scaled K overflows and
    no normal value changes.  The direct source is the law at its own K
    and bonds; every closed form is the law on the chain at K itself, but
    XXZ P+ at K' = -hbar^2 (J, J, Jz).  BadParams for unknown bonds,
    FormulaUnavailable for a closed pair with no form.
    """
    n_qubits = 3 if sid.startswith("PG") else 2
    n_bonds = len(_bond_list(n_qubits, bonds))
    k = _pauli_diagonal(params)
    if _source(source) == "closed":
        if params.model != "XYZ" and sid != "P+":
            raise FormulaUnavailable(f"no closed form for ({params.model}, {sid})")
        n_bonds = n_qubits - 1
        if params.model == "XXZ":
            k = tuple(-params.hbar**2 * j for j in (params.j, params.j, params.jz))
    e = math.frexp(max(map(abs, k)))[1]
    return (n_bonds, *_LAW[sid], tuple(math.ldexp(ka, -e) for ka in k), e)


def _surface_function(params: CouplingParams, state_id: str, source: str, bonds: str) -> Callable:
    """The array Q-symbol kernel f(x, y) of one surface, for broadcastable label arrays x, y.

    f returns the energies at x + 1j*y in their broadcast shape.  Grids
    call it once per block of whole rows (`_evaluate_grid`).

    The direct source is the rotation law (`_law`) with v from
    `_rotated_axis`; `hamiltonian` rejects the couplings `q_symbol_direct`
    does.  Kernels are not cached: building one costs a few microseconds.
    Both sources check the state id and the bonds here.  Where an energy
    overflows, the closed kernel raises BadParams and the direct one
    returns +-inf without a warning; its callers check the values.
    """
    sid = _state_id(state_id)
    n_bonds, c, s, axis, (kx, ky, kz), scale = _law(params, sid, source, bonds)
    if source.lower() == "closed":
        return lambda x, y: _closed_values(params, sid, x, y)
    hamiltonian(params, 3 if sid.startswith("PG") else 2, bonds)
    c_trace = c * (kx + ky + kz)

    def direct(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InfinitePoint("energy surfaces are evaluated at finite labels")
        vx, vy, vz = _rotated_axis(axis, x.ravel(), y.ravel())
        with np.errstate(over="ignore"):
            values = np.ldexp(n_bonds * (c_trace + s * (kx * vx * vx + ky * vy * vy + kz * vz * vz)), scale)
        return values.reshape(x.shape)[()]

    return direct


def _grid_axes(window: tuple[float, float, float, float], step: float) -> tuple[np.ndarray, np.ndarray]:
    x_min, x_max, y_min, y_max = window
    if not all(math.isfinite(v) for v in (*window, step)):
        raise BadParams(f"window {window} and step {step} must be finite")
    if not (x_max > x_min and y_max > y_min):
        raise BadParams(f"empty window {window}")
    if not step > 0:
        raise BadParams(f"step must be positive, got {step}")
    spans = ((x_max - x_min) / step, (y_max - y_min) / step)  # inf when the span overflows
    nx, ny = (math.floor(s + 0.5) + 1 if s < MAX_GRID_NODES else MAX_GRID_NODES + 1 for s in spans)
    if nx * ny > MAX_GRID_NODES:
        raise BadParams(f"window {window} at step {step} needs more than {MAX_GRID_NODES} grid nodes")
    # Nodes increase along each axis, so the far node is the one that can overflow.
    if not (math.isfinite(x_min + step * (nx - 1)) and math.isfinite(y_min + step * (ny - 1))):
        raise BadParams(f"window {window} at step {step} has grid nodes beyond the double range")
    return x_min + step * np.arange(nx), y_min + step * np.arange(ny)


def _evaluate_grid(
    params: CouplingParams, sid: str, source: str, bonds: str, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """values[i, j] = Q symbol at label xs[j] + 1j * ys[i].

    One kernel call per block of whole rows: as many rows as fit in
    _GRID_BLOCK labels, or one row when a row is longer.  The kernel treats
    each label on its own, so the values equal one call per row to the bit.
    Raises BadParams where a value overflows.
    """
    f = _surface_function(params, sid, source, bonds)
    rows = max(1, _GRID_BLOCK // xs.size)
    values = np.vstack([f(xs[None, :], ys[i : i + rows, None]) for i in range(0, ys.size, rows)])
    if not np.isfinite(values).all():
        raise BadParams("energies on this grid overflow; couplings this large are beyond the double range")
    return values


# `_rotated_axis`'s forms v_a = p_a / (t^2 + x^2 + y^2): each p_a's coefficients of (t^2, t x, t y, x^2, x y, y^2).
_AXIS_FORMS = {
    "z": ((0, 2, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0), (1, 0, 0, -1, 0, -1)),
    "y": ((0, 0, 0, 0, -2, 0), (1, 0, 0, 1, 0, -1), (0, 0, -2, 0, 0, 0)),
    "x": ((1, 0, 0, -1, 0, 1), (0, 0, 0, 0, -2, 0), (0, -2, 0, 0, 0, 0)),
}


def _derivatives(params: CouplingParams, sid: str, source: str, bonds: str) -> Callable:
    """jet(x, y) -> ((f_x, f_y), (f_xx, f_xy, f_yy)), a surface's exact derivatives at one finite label, in floats.

    Both sources are the rotation law at their own K (`_law`).  v is differentiated by the quotient rule, at K
    scaled by 2^-e and in `_rotated_axis`'s chart.  InfinitePoint at a non-finite label, BadParams where a
    derivative overflows.
    """
    n_bonds, _, s, axis, k, scale = _law(params, _state_id(sid), source, bonds)
    terms = list(zip(k, _AXIS_FORMS[axis]))

    def jet(x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InfinitePoint("energy surfaces are evaluated at finite labels")
        e = math.frexp(max(abs(x), abs(y)))[1] if math.isinf(x * x + y * y) else 0
        t, x, y = math.ldexp(1.0, -e), math.ldexp(x, -e), math.ldexp(y, -e)
        d = t * t + x * x + y * y
        fx = fy = fxx = fxy = fyy = 0.0
        for ka, (c0, c1, c2, c3, c4, c5) in terms:
            v = (c0 * t * t + c1 * t * x + c2 * t * y + c3 * x * x + c4 * x * y + c5 * y * y) / d
            vx = (c1 * t + 2 * c3 * x + c4 * y - 2.0 * x * v) / d
            vy = (c2 * t + c4 * x + 2 * c5 * y - 2.0 * y * v) / d
            vxx = (2 * c3 - 4.0 * x * vx - 2.0 * v) / d
            vxy = (c4 - 2.0 * y * vx - 2.0 * x * vy) / d
            vyy = (2 * c5 - 4.0 * y * vy - 2.0 * v) / d
            fx, fy = fx + ka * v * vx, fy + ka * v * vy
            fxx, fyy = fxx + ka * (vx * vx + v * vxx), fyy + ka * (vy * vy + v * vyy)
            fxy += ka * (vx * vy + v * vxy)
        # f = n_bonds (c tr K + s sum_a K_a v_a^2), and each d/dx in the chart is 2^-e d/dX.
        try:
            grad = tuple(math.ldexp(2.0 * n_bonds * s * g, scale - e) for g in (fx, fy))
            hess = tuple(math.ldexp(2.0 * n_bonds * s * h, scale - 2 * e) for h in (fxx, fxy, fyy))
        except OverflowError:
            raise BadParams("derivatives overflow here; couplings this large are beyond the double range") from None
        return grad, hess

    return jet


def _eigenvalues(hess: tuple[float, float, float]) -> tuple[float, float]:
    """Ascending eigenvalues of [[f_xx, f_xy], [f_xy, f_yy]], halved first so that no sum overflows."""
    fxx, fxy, fyy = hess
    mean, radius = fxx / 2.0 + fyy / 2.0, math.hypot(fxx / 2.0 - fyy / 2.0, fxy)
    return mean - radius, mean + radius


def _kind(eigs) -> str:
    """MIN, MAX, SADDLE or CONSTANT from ascending Hessian eigenvalues."""
    if eigs[0] > _CURVATURE_FLOOR:
        return MIN
    if eigs[1] < -_CURVATURE_FLOOR:
        return MAX
    if eigs[0] < -_CURVATURE_FLOOR < _CURVATURE_FLOOR < eigs[1]:
        return SADDLE
    return CONSTANT


def minimize(fun, x0, **options):
    """`scipy.optimize.minimize`, imported on the first call.  No library route calls it; the tests'
    Nelder-Mead reference does, and the benchmark's tracer still wraps it."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


# Each state's isolated fixed labels (x, y, a, lambda) (README): the rotated axis there is v = +-e_a, and the
# Hessian's eigenvalues are 2 n_bonds s lambda (K_b - K_a) for b != a.  P+ (P-) is also stationary on the whole
# real (imaginary) axis, where no point is isolated.
_G_LABELS = ((0.0, 0.0, 2, 4), (1.0, 0.0, 0, 1), (-1.0, 0.0, 0, 1), (0.0, 1.0, 1, 1), (0.0, -1.0, 1, 1))
_FIXED_LABELS = {"P+": ((0.0, 1.0, 2, 1), (0.0, -1.0, 2, 1)), "P-": ((1.0, 0.0, 2, 1), (-1.0, 0.0, 2, 1)),
                 **dict.fromkeys(("G+", "G-", "PG+", "PG-"), _G_LABELS)}


def _census(params: CouplingParams, sid: str, source: str, bonds: str) -> list[tuple]:
    """(x, y, value, eigenvalues, kind) at each of a surface's `_FIXED_LABELS`, read from the table in K.

    The ascending eigenvalues are computed at K 2^-e (`_law`) and scaled
    back, +-inf where that overflows, so that `_kind` still reads the sign
    of a curvature beyond the double range.  The value equals the kernel's
    bit for bit: the direct law in floats at v = e_a (a zero component
    of v adds a zero of K_b's sign to v^T K v, as in the kernel), the
    closed form at the label.  BadParams where the value overflows.
    """
    n_bonds, c, s, _, k, e = _law(params, sid, source, bonds)
    rows = []
    for x, y, a, lam in _FIXED_LABELS[sid]:
        eigs = sorted(_unscaled(2.0 * n_bonds * s * lam * (k[b] - k[a]), e) for b in range(3) if b != a)
        if source.lower() == "closed":
            value = float(_closed_values(params, sid, x, y))
        else:
            vx, vy, vz = (1.0 if b == a else 0.0 for b in range(3))
            law = c * (k[0] + k[1] + k[2]) + s * (k[0] * vx * vx + k[1] * vy * vy + k[2] * vz * vz)
            value = _unscaled(n_bonds * law, e)
            if math.isinf(value):
                raise BadParams(f"the energy at ({x}, {y}) overflows; couplings this large are beyond the double range")
        rows.append((x, y, value, tuple(eigs), _kind(eigs)))
    return rows


def _unscaled(value: float, e: int) -> float:
    """value 2^e, +-inf where that overflows."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.copysign(math.inf, value)


def _stationary_points(sid: str, x: float, y: float) -> list[tuple[float, float]]:
    """The labels where every `sid` surface is stationary whatever the couplings (README), nearest (x, y) first:
    G, PG: 0, +-1, +-i.  P+: the real axis (foot (x, 0)), +-i.  P-: the imaginary axis (foot (0, y)), +-1."""
    foot = {"P+": ((x, 0.0),), "P-": ((0.0, y),)}.get(sid, ())
    points = foot + tuple((lx, ly) for lx, ly, _, _ in _FIXED_LABELS[sid])
    return sorted(points, key=lambda p: math.hypot(p[0] - x, p[1] - y))


def refine_extremum(
    params: CouplingParams,
    state_id: str,
    seed: tuple[float, float],
    source: str = "direct",
    bonds: str = "all-pairs",
) -> Extremum:
    """Move one coarse extremum seed onto the stationary point it stands for.

    This is the single-seed API; `energy_surface` reads its extrema from
    the census and does not call it.  Every isolated finite stationary
    point of a surface is one of its state's fixed stationary labels
    (`_stationary_points`; README derives both directions), so refinement
    picks a label instead of searching.
    A flat seed is returned as CONSTANT.  A seed whose Hessian is definite
    and whose gradient is already at most _STATIONARY_GRAD_TOL stays in
    place.  Every other seed walks the labels nearest first and takes the
    first whose kind it needs: MIN for a positive-definite seed, MAX for a
    negative-definite one, any kind for an indefinite (saddle) seed.
    Raises NoConvergence when no label has that kind.

    Every gradient and kind comes from the law's exact derivatives
    (`_derivatives`) at the seed and at each label tried, at most five.
    The value is one kernel call at the final point; BadParams where it
    or a derivative overflows.
    """
    f = _surface_function(params, state_id, source, bonds)
    jet = _derivatives(params, state_id, source, bonds)
    sid, x0, y0 = state_id.upper(), float(seed[0]), float(seed[1])
    grad, hess = jet(x0, y0)
    eigs = _eigenvalues(hess)
    x, y, kind, tried = x0, y0, _kind(eigs), 0
    wanted = MIN if eigs[0] > 0.0 else MAX if eigs[1] < 0.0 else None
    flat = max(map(abs, hess)) < _CURVATURE_FLOOR and math.hypot(*grad) < 1e-9
    if flat:
        kind = CONSTANT
    elif wanted is None or math.hypot(*grad) > _STATIONARY_GRAD_TOL:
        for x, y in _stationary_points(sid, x0, y0):
            grad, hess = jet(x, y)
            kind, tried = _kind(_eigenvalues(hess)), tried + 1
            if wanted in (None, kind):
                break
        else:
            raise NoConvergence(f"no fixed stationary label of the {sid} surface is a {wanted}")
    value = float(f(x, y))
    if not math.isfinite(value):
        raise BadParams(f"the energy at ({x}, {y}) overflows; couplings this large are beyond the double range")
    if not flat and _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "refined seed %s of %s surface %s, labels tried %d, |grad| %.3g",
            (x0, y0), sid, "in place" if tried == 0 else f"onto label {(x, y)}", tried, math.hypot(*grad),
        )
    return Extremum(x, y, value, kind)


def _sort_extrema(extrema: list[Extremum]) -> tuple[Extremum, ...]:
    """Sort by value; values equal to within _TIE_REL form one tier ordered by (x, y), so that symmetric extrema do
    not swap places on last-bit rounding of their values."""
    tiers: list[list[Extremum]] = []
    for e in sorted(extrema, key=lambda e: (e.value, e.x, e.y)):
        if tiers and e.value - tiers[-1][0].value <= _TIE_REL * (1.0 + abs(e.value)):
            tiers[-1].append(e)
        else:
            tiers.append([e])
    return tuple(e for tier in tiers for e in sorted(tier, key=lambda e: (e.x, e.y)))


def energy_surface(
    params: CouplingParams,
    state_id: str,
    window: tuple[float, float, float, float] = (-3.0, 3.0, -3.0, 3.0),
    step: float = 0.05,
    source: str = "direct",
    bonds: str = "all-pairs",
    refine: bool = True,
) -> SurfaceGrid:
    """Sample the Q-symbol surface on a grid and locate its isolated extrema.

    Grid nodes are x = x_min + i*step, y = y_min + j*step, for i up to
    round((x_max - x_min) / step) and likewise for j.  A step that does
    not divide the window therefore ends each axis at the node nearest
    the far edge, short of it or past it by up to half a step: (0, 1) at
    step 0.3 ends at 0.9, at step 0.35 at 1.05.  Grids of more than
    MAX_GRID_NODES nodes raise BadParams before anything is allocated.

    The extrema are the MIN and MAX labels of the surface's `_census`
    inside the node span [xs[0], xs[-1]] x [ys[0], ys[-1]], sorted by
    value (`_sort_extrema`); the grid takes no part in finding them, and
    saddles are not listed.  refine=False skips the census.  A surface
    whose spread is below 1e-10 * (1 + |max|) is flagged constant and
    carries no extrema.  A grid energy, or an extremum's energy, beyond
    the double range raises BadParams.
    """
    sid = state_id.upper()
    source = _source(source)
    xs, ys = _grid_axes(window, step)
    values = _evaluate_grid(params, sid, source, bonds, xs, ys)

    spread = float(values.max()) - float(values.min())  # a Python float: inf, not a warning, if it overflows
    constant = spread < FLATNESS_REL * (1.0 + abs(float(values.max())))
    extrema: tuple[Extremum, ...] = ()
    if not constant and refine:
        x_lo, x_hi, y_lo, y_hi = float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])
        census = _census(params, sid, source, bonds)
        extrema = _sort_extrema([Extremum(x, y, value, kind) for x, y, value, _, kind in census
                                 if kind in (MIN, MAX) and x_lo <= x <= x_hi and y_lo <= y <= y_hi])
    return SurfaceGrid(
        window=tuple(float(w) for w in window),
        step=float(step),
        xs=xs,
        ys=ys,
        values=values,
        extrema=extrema,
        constant=constant,
        source=source,
        state_id=sid,
    )
