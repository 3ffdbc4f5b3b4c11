"""Maximally entangled bases built from a coherent state and its antipode.

From the orthonormal qubit pair (|psi>, |a> = |-psi*>) the four two-qubit
combinations

    P+ = (|psi psi> + |a a>) / sqrt(2)      P- = (|psi psi> - |a a>) / sqrt(2)
    G+ = (|psi a> + |a psi>) / sqrt(2)      G- = (|psi a> - |a psi>) / sqrt(2)

form an orthonormal, maximally entangled basis for every label psi; at
psi = 0 they reduce to the Bell basis (Phi+, Phi-, Psi+, Psi-) and G- is
the label-independent singlet.  The three-qubit analogues

    PG+ = (|psi psi psi> + |a a a>) / sqrt(2)
    PG- = (|psi psi a> + |psi a psi> + |a psi psi>) / sqrt(3)

reduce to the GHZ and W states at psi = 0.  The six formulas live in
`_combine`, the one amplitude route; `spin_models` reads the surfaces
from the members' rotation law instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent_states import PureState, coherent, overlap, symmetric_state
from .complex_geometry import PointLike, SymmetryKind
from .errors import BadParams, DimensionMismatch
from .gates import gate_cnot, gate_hadamard, UnitaryGate
from .operators import kron_all

__all__ = [
    "STATE_IDS",
    "tensor",
    "product_state",
    "coherent_basis_2q",
    "bell_states",
    "ghz_state",
    "w_state",
    "entangled_basis_2q",
    "entangled_basis_3q",
    "entangled_state",
    "BellExpansion",
    "expand_in_entangled_basis",
    "reconstruct_from_expansion",
]

STATE_IDS = ("P+", "P-", "G+", "G-", "PG+", "PG-")

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)


def tensor(*states: PureState) -> PureState:
    """Tensor product of register states, leftmost factor most significant."""
    return PureState(kron_all(*(s.amplitudes for s in states)))


def product_state(p1: PointLike, p2: PointLike) -> PureState:
    """Two-qubit product of coherent states |psi1> (x) |psi2>."""
    return tensor(coherent(p1), coherent(p2))


def _pair(p: PointLike) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of the orthonormal pair (|psi>, |-psi*>)."""
    return (
        coherent(p).amplitudes,
        symmetric_state(p, SymmetryKind.ANTIPODAL).amplitudes,
    )


def coherent_basis_2q(p: PointLike) -> tuple[PureState, PureState, PureState, PureState]:
    """Product basis (|psi psi>, |psi a>, |a psi>, |a a>) from the antipodal pair."""
    k, a = _pair(p)
    return (
        PureState(np.kron(k, k)),
        PureState(np.kron(k, a)),
        PureState(np.kron(a, k)),
        PureState(np.kron(a, a)),
    )


def bell_states() -> tuple[PureState, PureState, PureState, PureState]:
    """Bell basis generated by the circuit CNOT (H (x) I) on the computational basis.

    Returned in image order of |00>, |01>, |10>, |11>, i.e.
    (Phi+, Psi+, Phi-, Psi-).
    """
    circuit = gate_cnot() @ UnitaryGate(np.kron(gate_hadamard().matrix, np.eye(2)))
    basis = np.eye(4)
    return tuple(circuit.apply(PureState(basis[i])) for i in range(4))


def ghz_state() -> PureState:
    """(|000> + |111>) / sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0 / _SQRT2
    return PureState(amps)


def w_state() -> PureState:
    """(|001> + |010> + |100>) / sqrt(3)."""
    amps = np.zeros(8, dtype=complex)
    amps[1] = amps[2] = amps[4] = 1.0 / _SQRT3
    return PureState(amps)


def _combine(sid: str, k: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The P/G/PG formulas: the amplitudes of member sid from the factors k = |psi>, a = |-psi*>."""
    if sid == "PG+":
        return (kron_all(k, k, k) + kron_all(a, a, a)) / _SQRT2
    if sid == "PG-":
        return (kron_all(k, k, a) + kron_all(k, a, k) + kron_all(a, k, k)) / _SQRT3
    first, second = (kron_all(k, k), kron_all(a, a)) if sid[0] == "P" else (kron_all(k, a), kron_all(a, k))
    return (first + second if sid.endswith("+") else first - second) / _SQRT2


def _members(p: PointLike, sids: tuple[str, ...]) -> tuple[PureState, ...]:
    """Basis members sids at one label."""
    k, a = _pair(p)
    return tuple(PureState(_combine(sid, k, a)) for sid in sids)


def entangled_basis_2q(p: PointLike) -> tuple[PureState, PureState, PureState, PureState]:
    """The maximally entangled basis (P+, P-, G+, G-) at label psi.

    Every member has concurrence 1 for every label; at psi = 0 the tuple
    is (Phi+, Phi-, Psi+, Psi-).
    """
    return _members(p, STATE_IDS[:4])


def entangled_basis_3q(p: PointLike) -> tuple[PureState, PureState]:
    """The three-qubit pair (PG+, PG-), reducing to (GHZ, W) at psi = 0."""
    return _members(p, STATE_IDS[4:])


def _state_id(state_id: str) -> str:
    sid = state_id.upper()
    if sid not in STATE_IDS:
        raise BadParams(f"unknown state id {state_id!r}; expected one of {STATE_IDS}")
    return sid


def entangled_state(state_id: str, p: PointLike) -> PureState:
    """Look up one basis member by identifier: P+, P-, G+, G-, PG+ or PG-."""
    return _members(p, (_state_id(state_id),))[0]


@dataclass(frozen=True)
class BellExpansion:
    """Coefficients of a two-qubit state in the basis (P+, P-, G+, G-)."""

    b_plus: complex
    b_minus: complex
    c_plus: complex
    c_minus: complex

    def coefficients(self) -> np.ndarray:
        return np.array([self.b_plus, self.b_minus, self.c_plus, self.c_minus])

    def weight(self) -> float:
        """Total probability carried by the four coefficients."""
        return float(np.sum(np.abs(self.coefficients()) ** 2))


def expand_in_entangled_basis(state: PureState, p: PointLike) -> BellExpansion:
    """Expansion coefficients <basis|state> of a two-qubit state at label psi."""
    if state.dim != 4:
        raise DimensionMismatch("expansion needs a two-qubit state")
    basis = entangled_basis_2q(p)
    b1, b2, c1, c2 = (overlap(b, state) for b in basis)
    return BellExpansion(b1, b2, c1, c2)


def reconstruct_from_expansion(expansion: BellExpansion, p: PointLike) -> PureState:
    """Rebuild the state from its coefficients; inverse of the expansion."""
    basis = entangled_basis_2q(p)
    amps = sum(
        c * b.amplitudes for c, b in zip(expansion.coefficients(), basis)
    )
    return PureState(amps)
