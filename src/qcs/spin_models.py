"""Heisenberg-family Hamiltonians and their coherent-state energy surfaces.

The Q symbol of a model is the diagonal expectation E(psi) =
<B(psi)|H|B(psi)> taken in one maximally entangled basis member B; plotted
over the label plane it forms an energy surface whose isolated extrema
are located on a grid and refined: minima and maxima by safeguarded
Newton on difference stencils, saddles by Nelder-Mead on the squared
gradient.  Only the saddle route uses SciPy, and `minimize` imports it on
its first call, so importing this module does not load SciPy.

Two evaluation routes exist: `q_symbol_direct` (matrix element, the
oracle) and `q_symbol_closed` (hand-reduced formulas, available only for
specific model/state pairs).  Each bond is three hbar-free unit operators
(`_unit_terms`) times coefficients that carry hbar (`_term_couplings`):
XXX and XXZ are written in spin operators and carry hbar^2, XYZ in bare
Pauli matrices with a 1/2 prefactor and no hbar.  Three-qubit energies
depend on the bond topology; the closed forms take the open chain (1,2)+(2,3).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .complex_geometry import PointLike, as_point
from .entangled_basis import _state_id, entangled_amplitudes, entangled_state
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
_GRAD_STEP = 1e-5
_HESS_STEP = 1e-4
_CURVATURE_FLOOR = 1e-5
_MERGE_DIST = 1e-4
# Safeguarded Newton refinement: step cap, gradient floor and iteration cap.
_TRUST_RADIUS = 0.25
_NEWTON_GRAD_TOL = 1e-9
_NEWTON_MAX_ITER = 100
# Extremum values this close (relative) are ordered by position, not by rounding noise.
_TIE_REL = 1e-12
# Largest grid a surface may sample (about 32 MB of float64 values).
MAX_GRID_NODES = 4_000_000
# Labels per kernel call on a grid, in whole rows (one row when a row is longer).
# Fewer calls save NumPy's per-call overhead; much larger blocks of the direct
# kernel's amplitudes fall out of cache (a sweep of 1024-16384 labels chose it).
_GRID_BLOCK = 4096

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
def _hamiltonian_cached(params: CouplingParams, n_qubits: int, bonds: str) -> np.ndarray:
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
    return _hamiltonian_cached(params, n_qubits, bonds)


def _require_finite(p: PointLike) -> complex:
    q = as_point(p)
    if q.is_infinity:
        raise InfinitePoint("energy surfaces are evaluated at finite labels")
    return q.value


def _real(val):
    """Real part of Hermitian expectations; raises unless each imaginary part is rounding."""
    if (np.abs(np.imag(val)) > 1e-12 * (1.0 + np.abs(np.real(val)))).any():
        raise ValueError("non-real expectation of a Hermitian operator")
    return np.real(val)


def q_symbol_direct(
    params: CouplingParams, state_id: str, p: PointLike, bonds: str = "all-pairs"
) -> float:
    """Q symbol <B(psi)|H|B(psi)> by direct matrix element (the oracle route)."""
    psi = _require_finite(p)
    sid = state_id.upper()
    n = 3 if sid.startswith("PG") else 2
    h = hamiltonian(params, n, bonds)
    a = entangled_state(sid, psi).amplitudes
    return float(_real(complex(np.vdot(a, h @ a))))


def q_symbol_closed(params: CouplingParams, state_id: str, p: PointLike) -> float:
    """Q symbol by hand-reduced closed formula.

    Available pairs: (XXX, P+), (XXZ, P+), and XYZ with any of P+, P-,
    G+, G-, PG+, PG-.  Three-qubit forms correspond to the chain
    topology.  Raises FormulaUnavailable for anything else.
    """
    psi = _require_finite(p)
    return float(_closed_values(params, _state_id(state_id), psi.real, psi.imag))


def _closed_values(params: CouplingParams, sid: str, x, y):
    """`_closed_form`, raising BadParams where it overflows at a finite label (|psi| from about 1e50)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            val = _closed_form(params, sid, x, y)
    except OverflowError:  # float ** int raises where float * float gives inf
        val = math.inf
    if not (np.isfinite(val).all() if isinstance(val, np.ndarray) else math.isfinite(val)):
        raise BadParams("closed form overflows at labels this large; use the direct source")
    return val


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


def _surface_function(params: CouplingParams, state_id: str, source: str, bonds: str) -> Callable:
    """The array Q-symbol kernel f(x, y) of one surface, for broadcastable label arrays x, y.

    f returns the energies at x + 1j*y in their broadcast shape.  Grids
    call it once per block of whole rows (`_evaluate_grid`).  Refinement
    calls it in two shapes (see `refine_extremum`): a 13-label `_stencil`
    at the seed and at every Newton line-search trial, and a 4-label
    `_gradient` per simplex point of the saddle hunt, which ends on one
    more stencil.

    The direct route divides <a|H|a> by <a|a>, which cancels the rounding
    of the batched amplitudes' norm as PureState's renormalization does for
    `q_symbol_direct`.  Kernels are not cached: building one costs about a
    microsecond, and the Hamiltonian it fetches is cached by `hamiltonian`.
    Both sources check the state id and the bonds here.  Where an energy
    overflows, the closed kernel raises BadParams and the direct one
    returns inf or nan without a warning; its callers check the values.
    """
    sid = _state_id(state_id)
    n_qubits = 3 if sid.startswith("PG") else 2
    _bond_list(n_qubits, bonds)
    if _source(source) == "closed":
        return lambda x, y: _closed_values(params, sid, x, y)
    h = hamiltonian(params, n_qubits, bonds)

    def direct(x, y):
        psi = np.asarray(x) + 1j * np.asarray(y)
        a = entangled_amplitudes(sid, psi)
        with np.errstate(over="ignore", invalid="ignore"):
            energy = np.einsum("ni,ij,nj->n", a.conj(), h, a) / np.einsum("ni,ni->n", a.conj(), a)
        return _real(energy).reshape(psi.shape)[()]

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


def _neighbor_extreme(extreme: np.ufunc, values: np.ndarray) -> np.ndarray:
    """`extreme` (np.minimum or np.maximum) over the 8 neighbors of each inner node, in separable steps.

    The 3-wide extreme of every row serves the rows above and below a
    node, the left/right pair its own row.  Both ufuncs are exact, so this
    equals the extreme over the eight shifted copies of the grid.
    """
    across = extreme(extreme(values[:, :-2], values[:, 1:-1]), values[:, 2:])
    beside = extreme(values[1:-1, :-2], values[1:-1, 2:])
    return extreme(beside, extreme(across[:-2], across[2:]))


def _grid_seeds(values: np.ndarray) -> list[tuple[int, int, str]]:
    """Strict 8-neighbor extremum candidates (row, col, MIN|MAX) in row-major order.

    A node is a candidate when it lies below the least of its 8 neighbors
    (MIN) or above the greatest (MAX) by more than FLATNESS_REL * (1 + |value|).
    """
    inner = values[1:-1, 1:-1]
    margin = FLATNESS_REL * (1.0 + np.abs(inner))
    is_min = inner < _neighbor_extreme(np.minimum, values) - margin
    is_max = inner > _neighbor_extreme(np.maximum, values) + margin
    # np.nonzero of a 2-D mask costs several times flatnonzero's single pass.
    rows, cols = np.divmod(np.flatnonzero(is_min | is_max), inner.shape[1])
    return [(int(i) + 1, int(j) + 1, MIN if is_min[i, j] else MAX) for i, j in zip(rows, cols)]


# Offsets (dx row, dy row) of the central differences: the 4-point gradient
# stencil at _GRAD_STEP, then the 9-point Hessian stencil (centre first) at _HESS_STEP.
_STENCIL = np.hstack([
    _GRAD_STEP * np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]),
    _HESS_STEP * np.array([[0.0, 1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0],
                           [0.0, 0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]]),
])


def _gradient_of(e) -> np.ndarray:
    return np.array([(e[0] - e[1]) / (2.0 * _GRAD_STEP), (e[2] - e[3]) / (2.0 * _GRAD_STEP)])


def _gradient(f: Callable, x: float, y: float) -> np.ndarray:
    """Central-difference gradient of the kernel f: the 4 gradient labels of `_STENCIL` in one call."""
    return _gradient_of(f(x + _STENCIL[0, :4], y + _STENCIL[1, :4]))


def _stencil(f: Callable, x: float, y: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(value, gradient, Hessian) at (x, y) from one 13-label kernel call over `_STENCIL`.

    This is the only place refinement takes a Hessian from.  The
    differences are taken in Python floats (the same IEEE arithmetic, with
    no warning where it overflows); BadParams where one is not finite.
    """
    e = f(x + _STENCIL[0], y + _STENCIL[1]).tolist()
    c, grad = e[4], _gradient_of(e)
    fxx = (e[5] - 2.0 * c + e[6]) / _HESS_STEP**2
    fyy = (e[7] - 2.0 * c + e[8]) / _HESS_STEP**2
    fxy = (e[9] - e[10] - e[11] + e[12]) / (4.0 * _HESS_STEP**2)
    if not all(map(math.isfinite, (c, *grad, fxx, fyy, fxy))):
        raise BadParams(f"the stencil at ({x}, {y}) overflows; couplings this large are beyond the double range")
    return c, grad, np.array([[fxx, fxy], [fxy, fyy]])


def _kind(eigs: np.ndarray) -> str:
    """MIN, MAX, SADDLE or CONSTANT from ascending Hessian eigenvalues."""
    scale = _CURVATURE_FLOOR
    if eigs[0] > scale and eigs[1] > scale:
        return MIN
    if eigs[0] < -scale and eigs[1] < -scale:
        return MAX
    if eigs[0] < -scale < scale < eigs[1]:
        return SADDLE
    return CONSTANT


def _newton(
    f: Callable, x: float, y: float, sign: float, stencil: tuple[float, np.ndarray, np.ndarray]
) -> tuple[float, float, int, tuple[float, np.ndarray, np.ndarray]]:
    """Minimise sign * f from (x, y) by safeguarded Newton; returns (x, y, iterations, stencil).

    `stencil` is `_stencil(f, x, y)`, and the returned one is `_stencil` at
    the returned point (the given one itself when Newton stops at once).
    The Hessian's eigenvalues are replaced by max(|lambda|, 1e-8), so every
    step goes downhill even where the iterate's Hessian is not definite;
    steps are capped at _TRUST_RADIUS and halved while sign * f rises
    beyond rounding, at most 30 times, then taken as it is.  Each trial is
    one `_stencil`, and the accepted one is the next iterate's.  Stops
    once the step or the gradient is below tolerance; the gradient floor
    ends the jitter that difference noise causes near a degenerate
    extremum.  Raises NoConvergence after _NEWTON_MAX_ITER iterations.
    """
    for iteration in range(1, _NEWTON_MAX_ITER + 1):
        value, grad, hess = stencil
        if math.hypot(*grad) <= _NEWTON_GRAD_TOL:  # np.linalg.norm squares, and overflows from 1e154
            return x, y, iteration - 1, stencil
        lam, vecs = np.linalg.eigh(sign * hess)
        step = -vecs @ ((vecs.T @ (sign * grad)) / np.maximum(np.abs(lam), 1e-8))
        step *= min(1.0, _TRUST_RADIUS / float(np.linalg.norm(step)))
        level = sign * value + 1e-13 * (1.0 + abs(value))
        for _ in range(30):
            stencil = _stencil(f, x + float(step[0]), y + float(step[1]))
            if sign * stencil[0] <= level:
                break
            step /= 2.0
        else:
            stencil = _stencil(f, x + float(step[0]), y + float(step[1]))
        x, y = x + float(step[0]), y + float(step[1])
        if float(np.linalg.norm(step)) <= 1e-10 * (1.0 + math.hypot(x, y)):
            return x, y, iteration, stencil
    raise NoConvergence(f"Newton refinement did not converge in {_NEWTON_MAX_ITER} iterations, at ({x}, {y})")


def minimize(fun, x0, **options):
    """`scipy.optimize.minimize`, imported on the first call: only saddle seeds need SciPy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


def refine_extremum(
    params: CouplingParams,
    state_id: str,
    seed: tuple[float, float],
    source: str = "direct",
    bonds: str = "all-pairs",
) -> Extremum:
    """Polish a coarse extremum seed into a stationary point.

    The route follows the local Hessian at the seed.  A definite Hessian
    (a minimum or maximum seed) is polished by safeguarded Newton on the
    difference stencils (`_newton`), whose steps are halved while the value
    gets worse beyond rounding; an indefinite one by Nelder-Mead on the
    squared gradient norm.  Either way the central-difference gradient is driven below
    1e-6.  A flat seed is returned as CONSTANT.  Raises NoConvergence when
    Newton exceeds its iteration cap or the simplex stalls.

    The kind and the value come from the `_stencil` at the final point
    (its Hessian's eigenvalues and its centre): the seed's when Newton
    leaves the seed in place, Newton's last when it moves, and one more
    stencil after the saddle hunt.  So the kernel sees two call shapes:
    one 13-label stencil per Newton point (the seed, and each line-search
    trial) and the saddle hunt's 4-label `_gradient`s.  A seed left in
    place costs one stencil; a saddle costs one at the seed, one 4-label
    call per simplex point and one at its final point.
    """
    f = _surface_function(params, state_id, source, bonds)
    x0, y0 = float(seed[0]), float(seed[1])
    seed_stencil = _stencil(f, x0, y0)
    value0, grad0, hess0 = seed_stencil
    if float(np.max(np.abs(hess0))) < _CURVATURE_FLOOR and float(np.linalg.norm(grad0)) < 1e-9:
        return Extremum(x0, y0, value0, CONSTANT)

    eigs = np.linalg.eigvalsh(hess0)
    if eigs[0] > 0.0 or eigs[1] < 0.0:
        route = "newton"
        x, y, iterations, stencil = _newton(f, x0, y0, 1.0 if eigs[0] > 0.0 else -1.0, seed_stencil)
    else:
        route = "stationary"
        # tolist(): Python floats keep the closed forms in plain scalar arithmetic.
        res = minimize(
            lambda v: float(np.sum(_gradient(f, *v.tolist()) ** 2)),
            np.array([x0, y0]),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 10000, "maxfev": 20000},
        )
        if not res.success:
            raise NoConvergence(f"refinement stalled at {res.x}: {res.message}")
        x, y, iterations = float(res.x[0]), float(res.x[1]), int(res.nit)
        stencil = _stencil(f, x, y)
    value, grad, hess = stencil
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "refined seed %s of %s surface by %s in %d iterations, |grad| %.3g",
            (x0, y0), state_id.upper(), route, iterations, math.hypot(*grad),
        )
    kind = _kind(eigs if stencil is seed_stencil else np.linalg.eigvalsh(hess))
    return Extremum(x, y, value, kind)


def _merge_extrema(extrema: list[Extremum]) -> tuple[Extremum, ...]:
    """Drop duplicates within _MERGE_DIST, keeping the lowest value, then sort by value.

    Values equal to within _TIE_REL form one tier ordered by (x, y) at
    the merge resolution, so that symmetric extrema do not swap places on
    last-bit rounding of their values or on noise in their positions.
    """
    kept: list[Extremum] = []
    for e in sorted(extrema, key=lambda e: (e.value, e.x, e.y)):
        if all(math.hypot(e.x - k.x, e.y - k.y) > _MERGE_DIST for k in kept):
            kept.append(e)
    tiers: list[list[Extremum]] = []
    for e in kept:
        if tiers and e.value - tiers[-1][0].value <= _TIE_REL * (1.0 + abs(e.value)):
            tiers[-1].append(e)
        else:
            tiers.append([e])
    position = lambda e: (round(e.x / _MERGE_DIST), round(e.y / _MERGE_DIST), e.x, e.y)
    return tuple(e for tier in tiers for e in sorted(tier, key=position))


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

    Seeds come from strict 8-neighbor dominance with a relative noise
    margin; each seed is refined by `refine_extremum` (Newton for a definite
    Hessian at the seed, Nelder-Mead on the squared gradient otherwise) and
    duplicates within 1e-4 are merged.  Each refinement is logged at DEBUG
    on the "qcs" logger with its route, iterations and final gradient.  A
    seed whose refinement raises NoConvergence is dropped (also logged at
    DEBUG) and the other extrema are kept.  A surface whose spread is
    below 1e-10 * (1 + |max|) is flagged constant and carries no extrema.
    A grid energy or a refinement stencil beyond the double range raises
    BadParams.
    """
    sid = state_id.upper()
    source = _source(source)
    xs, ys = _grid_axes(window, step)
    values = _evaluate_grid(params, sid, source, bonds, xs, ys)

    spread = float(values.max()) - float(values.min())  # a Python float: inf, not a warning, if it overflows
    constant = spread < FLATNESS_REL * (1.0 + abs(float(values.max())))
    extrema: tuple[Extremum, ...] = ()
    if not constant and refine:
        refined = []
        for i, j, _ in _grid_seeds(values):
            seed = (float(xs[j]), float(ys[i]))
            try:
                refined.append(refine_extremum(params, sid, seed, source, bonds))
            except NoConvergence as exc:
                _log.debug("dropping seed %s of %s surface: %s", seed, sid, exc)
        extrema = _merge_extrema([e for e in refined if e.kind != CONSTANT])
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
