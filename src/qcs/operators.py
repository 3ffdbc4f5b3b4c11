"""Pauli and spin-1/2 operator matrices, with embedding helpers.

Qubit ordering convention everywhere: leftmost tensor factor is qubit 1
and the most significant bit of the basis index, so |q1 q2 ... qn> has
index q1 2^{n-1} + ... + qn.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = [
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "spin_plus",
    "spin_minus",
    "spin_z",
    "embed_pair",
    "kron_all",
]

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)


def sigma_x() -> np.ndarray:
    return _SX.copy()


def sigma_y() -> np.ndarray:
    return _SY.copy()


def sigma_z() -> np.ndarray:
    return _SZ.copy()


def spin_plus(hbar: float = 1.0) -> np.ndarray:
    """Raising operator S+ = hbar |0><1| (flips spin-down to spin-up)."""
    return hbar * np.array([[0, 1], [0, 0]], dtype=complex)


def spin_minus(hbar: float = 1.0) -> np.ndarray:
    """Lowering operator S- = hbar |1><0|."""
    return hbar * np.array([[0, 0], [1, 0]], dtype=complex)


def spin_z(hbar: float = 1.0) -> np.ndarray:
    """Sz = (hbar/2) diag(1, -1)."""
    return (hbar / 2.0) * _SZ.copy()


def kron_all(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of the factors, leftmost most significant."""
    return reduce(np.kron, factors)


def embed_pair(op_i: np.ndarray, op_j: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Embed single-site operators on qubits i and j (0-based) of an n-qubit register."""
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    factors = [_ID] * n
    factors[i] = op_i
    factors[j] = op_j
    return kron_all(*factors)

