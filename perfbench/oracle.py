"""Independent reference values that the benchmark checks qcs output against.

Basis states are rebuilt here from explicit Kronecker products of the
coherent pair k = [1, psi] and a = [-conj psi, 1] (both over
sqrt(1 + |psi|^2)); only `qcs.hamiltonian` is taken from the library.
Dynamics are checked against a dense matrix exponential of the exchange
Hamiltonian built from Pauli matrices.

Tolerances are the ones the test suite and `qcs verify` already assert.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

import qcs
from qcs import hamiltonian  # bound before the tracer patches qcs

# Tolerances shared with tests/ and `qcs verify`.
VALUE_TOL = 1e-10  # closed-vs-direct, q-symbol-constants
GRAD_TOL = 1e-6  # surface-extrema gradient norm
DYNAMICS_TOL = 1e-8  # evolution-core fidelity law
UNIT_TOL = 1e-10  # concurrence-series-structure C(0) = 1
RANGE_TOL = 1e-12  # concurrence-range
REVIVAL_TOL = 1e-4  # revival-detection, in units of hbar / J

_GRAD_STEP = 1e-5
_HESS_STEP = 1e-4
_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def coherent_pair(psi: complex) -> tuple[np.ndarray, np.ndarray]:
    norm = math.sqrt(1.0 + abs(psi) ** 2)
    return np.array([1.0, psi]) / norm, np.array([-np.conj(psi), 1.0]) / norm


def _kron(*vectors: np.ndarray) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out


def basis_state(state_id: str, psi: complex) -> np.ndarray:
    """P+, P-, G+, G-, PG+ or PG- at label psi, from the coherent pair."""
    k, a = coherent_pair(psi)
    sid = state_id.upper()
    if sid == "P+":
        return (_kron(k, k) + _kron(a, a)) / _SQRT2
    if sid == "P-":
        return (_kron(k, k) - _kron(a, a)) / _SQRT2
    if sid == "G+":
        return (_kron(k, a) + _kron(a, k)) / _SQRT2
    if sid == "G-":
        return (_kron(k, a) - _kron(a, k)) / _SQRT2
    if sid == "PG+":
        return (_kron(k, k, k) + _kron(a, a, a)) / _SQRT2
    if sid == "PG-":
        return (_kron(k, k, a) + _kron(k, a, k) + _kron(a, k, k)) / _SQRT3
    raise ValueError(f"unknown state id {state_id!r}")


def _xxz_closed_operator(params: qcs.CouplingParams) -> np.ndarray:
    """H' = -hbar^2 [J (sx sx + sy sy) + Jz sz sz] in bare Paulis.

    The paper's XXZ P+ closed form is exactly the Q symbol of H', not of
    the library's XXZ operator; that mismatch is the documented WARN in
    `qcs verify`, so closed XXZ output is checked against H'.
    """
    pairs = np.kron(_SX, _SX) + np.kron(_SY, _SY)
    return -params.hbar**2 * (params.j * pairs + params.jz * np.kron(_SZ, _SZ))


def operator(params: qcs.CouplingParams, state_id: str, source: str, bonds: str) -> np.ndarray:
    """The operator whose Q symbol the given qcs route should produce."""
    sid = state_id.upper()
    n = 3 if sid.startswith("PG") else 2
    if source == "closed":
        if params.model == "XXZ":
            return _xxz_closed_operator(params)
        bonds = "chain"  # the closed three-qubit forms are the open chain
    return np.asarray(hamiltonian(params, n, bonds))


def q_symbol(h: np.ndarray, state_id: str, x: float, y: float) -> float:
    b = basis_state(state_id, complex(x, y))
    return float(np.vdot(b, h @ b).real)


def gradient(h: np.ndarray, state_id: str, x: float, y: float) -> np.ndarray:
    f = lambda u, v: q_symbol(h, state_id, u, v)
    d = _GRAD_STEP
    return np.array([(f(x + d, y) - f(x - d, y)), (f(x, y + d) - f(x, y - d))]) / (2.0 * d)


def hessian_eigs(h: np.ndarray, state_id: str, x: float, y: float) -> np.ndarray:
    f = lambda u, v: q_symbol(h, state_id, u, v)
    d = _HESS_STEP
    c = f(x, y)
    fxx = (f(x + d, y) - 2.0 * c + f(x - d, y)) / d**2
    fyy = (f(x, y + d) - 2.0 * c + f(x, y - d)) / d**2
    fxy = (f(x + d, y + d) - f(x + d, y - d) - f(x - d, y + d) + f(x - d, y - d)) / (4.0 * d**2)
    return np.linalg.eigvalsh(np.array([[fxx, fxy], [fxy, fyy]]))


def exchange_operator(jx: float, jy: float, jz: float) -> np.ndarray:
    return jx * np.kron(_SX, _SX) + jy * np.kron(_SY, _SY) + jz * np.kron(_SZ, _SZ)


def evolved_p_plus(jx: float, jy: float, jz: float, hbar: float, psi: complex, t: float) -> tuple[float, float]:
    """(concurrence, fidelity) of P+(psi) after time t under the exchange operator."""
    c0 = basis_state("P+", psi)
    ct = expm(-1j * t / hbar * exchange_operator(jx, jy, jz)) @ c0
    concurrence = 2.0 * abs(ct[0] * ct[3] - ct[1] * ct[2])
    fidelity = abs(np.vdot(c0, ct)) ** 2
    return float(concurrence), float(fidelity)


def xx_fidelity_law(theta: float, t: np.ndarray, j: float, hbar: float) -> np.ndarray:
    return 1.0 - np.sin(2.0 * theta) ** 2 * np.sin(j * t / hbar) ** 2
