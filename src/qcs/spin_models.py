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

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .complex_geometry import PointLike, as_point
from .entangled_basis import _state_id, entangled_state
from .errors import BadParams, FormulaUnavailable, InfinitePoint
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

# A surface is flagged constant when its spread over the whole plane, read from K, is below this relative floor.
FLATNESS_REL = 1e-10
_CURVATURE_FLOOR = 1e-5
# Largest grid a surface may sample (about 32 MB of float64 values).
MAX_GRID_NODES = 4_000_000
# Labels per kernel call on a grid, in whole rows (one row when a row is longer).
# Fewer calls save NumPy's per-call overhead; much larger blocks of the kernels' temporaries
# fall out of cache.  2048-32768 labels on a 2-core Xeon (4 MB L2), ns per node here and at
# 16384: 121^2 direct 13 / 11, closed 12 / 10.5 (one call there); 601^2 direct 16 / 13,
# closed 13.5 / 17.  2048 and 4096 cost 18-26 on both sources.
_GRID_BLOCK = 8192


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


# Each entry of H sums at most 9 bond terms (three bonds of three), each a coefficient times a unit entry of
# modulus <= 1, so H overflows only where some |coefficient| reaches 2^1019 (9 * 2^1019 < 2^1023).
_H_SAFE = 2.0**1019


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
    """v = O(psi) e_axis at the labels x + 1j*y of broadcastable arrays, by README's forms at t = 1.

    Each component has the broadcast shape of x and y.  Terms in x or y
    alone are formed on their own axes, so a grid's (1, nx) and (rows, 1)
    axes square each coordinate once, not once per node, and every node
    gets the bits it would get alone.  The forms are quadratics in (x, y, t)
    over t^2 + r^2, so where r^2 overflows (|psi| from about 1.3e154) they
    are read, label by label, at 2^-e (x, y, 1), a point below 1 that gives
    the same v.  Nodes are searched for such labels only where the largest
    x^2 plus the largest y^2 overflows.  InfinitePoint at a non-finite label."""
    with np.errstate(over="ignore", invalid="ignore"):
        xx, yy = x * x, y * y
        r2 = xx + yy
        d = t * t + r2
        if axis == "z":
            v = (2.0 * t * x / d, 2.0 * t * y / d, (t * t - r2) / d)
        elif axis == "y":
            v = (-2.0 * x * y / d, (t * t + xx - yy) / d, -2.0 * t * y / d)
        else:
            v = ((t * t - xx + yy) / d, -2.0 * x * y / d, -2.0 * t * x / d)
    if float(xx.max(initial=0.0)) + float(yy.max(initial=0.0)) < math.inf:
        return v
    far = ~np.isfinite(r2)
    if far.any():
        x, y = np.broadcast_to(x, r2.shape)[far], np.broadcast_to(y, r2.shape)[far]
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InfinitePoint("energy surfaces are evaluated at finite labels")
        scale = np.ldexp(1.0, -np.frexp(np.maximum(np.abs(x), np.abs(y)))[1])
        v = tuple(np.asarray(component) for component in v)  # 0-d labels give NumPy scalars, which take no index
        for component, value in zip(v, _rotated_axis(axis, scale * x, scale * y, scale)):
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

    values[i, j] is the energy at (xs[j], ys[i]); extrema are the MIN and
    MAX fixed labels of the surface's census inside the node span, sorted
    by (value, x, y), and `constant` flags surfaces whose spread over the
    whole plane is below the flatness floor.
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
    """The array Q-symbol kernel f(x, y) of one surface: `_kernel` at its `_law`."""
    sid = _state_id(state_id)
    return _kernel(params, sid, source, bonds, _law(params, sid, source, bonds))


def _kernel(params: CouplingParams, sid: str, source: str, bonds: str, law: tuple) -> Callable:
    """The array Q-symbol kernel f(x, y) of one surface from its `_law`, for broadcastable label arrays x, y.

    f returns the energies at x + 1j*y in their broadcast shape.  Grids
    call it once per block of whole rows (`_evaluate_grid`), the census
    once at its fixed labels (`_census`).

    The direct source is the rotation law with v from `_rotated_axis`, on
    the arrays as given: a grid's (1, nx) and (rows, 1) axes are not
    expanded to full size first.  It rejects the couplings
    `q_symbol_direct` does; H is built for that only where some bond
    coefficient reaches `_H_SAFE`, below which no entry of H can overflow.
    Kernels are not cached: building one costs a few microseconds.  Where
    an energy overflows, the closed kernel raises BadParams and the direct
    one returns +-inf without a warning; its callers check the values.
    """
    n_bonds, c, s, axis, (kx, ky, kz), scale = law
    if source.lower() == "closed":
        return lambda x, y: _closed_values(params, sid, x, y)
    if not all(abs(coeff) < _H_SAFE for coeff in _term_couplings(params)):
        hamiltonian(params, 3 if sid.startswith("PG") else 2, bonds)
    c_trace = c * (kx + ky + kz)

    def direct(x, y):
        vx, vy, vz = _rotated_axis(axis, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        with np.errstate(over="ignore"):
            values = np.ldexp(n_bonds * (c_trace + s * (kx * vx * vx + ky * vy * vy + kz * vz * vz)), scale)
        return values[()]

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


def _evaluate_grid(f: Callable, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """values[i, j] = f(xs[j], ys[i]): a surface's kernel f at label xs[j] + 1j * ys[i].

    One call of f per block of whole rows: as many rows as fit in
    _GRID_BLOCK labels, or one row when a row is longer.  The kernel treats
    each label on its own, so the values equal one call per row to the bit.
    Raises BadParams where a value overflows.
    """
    rows = max(1, _GRID_BLOCK // xs.size)
    values = np.empty((ys.size, xs.size))
    for i in range(0, ys.size, rows):
        values[i : i + rows] = f(xs[None, :], ys[i : i + rows, None])
    if not np.isfinite(values).all():
        raise BadParams("energies on this grid overflow; couplings this large are beyond the double range")
    return values


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


def _census(sid: str, law: tuple, f: Callable) -> list[tuple]:
    """(x, y, value, eigenvalues, kind) at each of a surface's `_FIXED_LABELS`, from its `_law` and kernel f.

    The values are one call of f at the labels, so they are the grid's to
    the bit.  The ascending eigenvalues are the table in K: computed at
    K 2^-e and scaled back, +-inf where that overflows, so that `_kind`
    still reads the sign of a curvature beyond the double range.
    BadParams where a value overflows (the closed kernel raises it itself).
    """
    n_bonds, _, s, _, k, e = law
    labels = _FIXED_LABELS[sid]
    values = f(np.array([label[0] for label in labels]), np.array([label[1] for label in labels]))
    rows = []
    for (x, y, a, lam), value in zip(labels, values.tolist()):
        if math.isinf(value):
            raise BadParams(f"the energy at ({x}, {y}) overflows; couplings this large are beyond the double range")
        eigs = sorted(_unscaled(2.0 * n_bonds * s * lam * (k[b] - k[a]), e) for b in range(3) if b != a)
        rows.append((x, y, value, tuple(eigs), _kind(eigs)))
    return rows


def _unscaled(value: float, e: int) -> float:
    """value 2^e, +-inf where that overflows."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.copysign(math.inf, value)


def refine_extremum(
    params: CouplingParams,
    state_id: str,
    seed: tuple[float, float],
    source: str = "direct",
    bonds: str = "all-pairs",
) -> Extremum:
    """The `_census` row at the fixed label nearest one seed; a tie goes to the first label in `_FIXED_LABELS`.

    This is the single-seed API; `energy_surface` reads the census itself.
    Every isolated finite stationary point of a surface is one of its
    state's fixed labels (README derives both directions), so a seed is
    looked up, not refined: the row carries the label's value and kind
    (MIN, MAX, SADDLE or CONSTANT), whatever the seed's own curvature.
    InfinitePoint for a non-finite seed; BadParams and FormulaUnavailable
    where the surface itself raises them.
    """
    x0, y0 = float(seed[0]), float(seed[1])
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise InfinitePoint("energy surfaces are evaluated at finite labels")
    sid = _state_id(state_id)
    law = _law(params, sid, source, bonds)
    census = _census(sid, law, _kernel(params, sid, source, bonds, law))
    x, y, value, _, kind = min(census, key=lambda r: math.hypot(r[0] - x0, r[1] - y0))
    return Extremum(x, y, value, kind)


def _sort_extrema(extrema: list[Extremum]) -> tuple[Extremum, ...]:
    """Sort by (value, x, y).  Mirror labels carry equal values to the bit (the law sees v only through squares,
    and every closed form is even in x and y), so a symmetric pair orders by position."""
    return tuple(sorted(extrema, key=lambda e: (e.value, e.x, e.y)))


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
    (value, x, y); the grid takes no part in finding them, and saddles
    are not listed.  refine=False lists none.  One `_law` serves the grid's
    kernel, the census and the constant flag.  A surface is
    flagged constant, and carries no extrema, when its spread over the
    whole plane, n_bonds |s| (max K - min K) by the law, is below
    1e-10 * (1 + |max|) of the grid's values: a window whose few nodes
    tie by symmetry is not mistaken for a flat surface.  A grid energy,
    or an extremum's energy, beyond the double range raises BadParams.
    """
    source = _source(source)
    xs, ys = _grid_axes(window, step)
    sid = _state_id(state_id)
    law = _law(params, sid, source, bonds)
    f = _kernel(params, sid, source, bonds, law)
    values = _evaluate_grid(f, xs, ys)

    n_bonds, _, s, _, k, e = law
    spread = _unscaled(n_bonds * abs(s) * (max(k) - min(k)), e)
    constant = spread < FLATNESS_REL * (1.0 + abs(float(values.max())))
    extrema: tuple[Extremum, ...] = ()
    if not constant and refine:
        x_lo, x_hi, y_lo, y_hi = float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])
        census = _census(sid, law, f)
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
