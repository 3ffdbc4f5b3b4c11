"""Qubit coherent states: geometry, entangled bases, energy surfaces, dynamics.

Conventions used throughout:

- A single-qubit coherent state |psi> has amplitude ratio psi = a1/a0, so
  psi = 0 is |0> and the point at infinity is |1>.  Labels live on the
  extended complex plane (`ComplexPoint`, `INFINITY`) which maps to the
  unit sphere by stereographic projection from the south pole.
- Multi-qubit kets order tensor factors most-significant-first: amplitude
  index 0b10 of a two-qubit state is qubit 1 in |1> and qubit 2 in |0>.
- hbar is an explicit parameter (default 1.0) everywhere it matters.
"""

import importlib

# Each public name, by the module that defines it.  `import qcs` loads none
# of them: `__getattr__` imports a name's module on its first access.
_EXPORTS = {
    "complex_geometry": (
        "INFINITY", "ComplexPoint", "MobiusMap", "SpherePoint", "SymmetryKind", "cross_ratio",
        "mobius_apply", "stereo_lift", "stereo_project", "symmetric_point",
    ),
    "coherent_states": (
        "PureState", "SpinJState", "amplitude_ratio", "canonical_phase", "coherent",
        "equal_up_to_phase", "expand_in_antipodal_basis", "from_bloch", "overlap",
        "spin_j_coherent", "spin_j_overlap", "spin_j_overlap_closed", "symmetric_state",
    ),
    "entangled_basis": (
        "STATE_IDS", "BellExpansion", "bell_states", "coherent_basis_2q", "entangled_basis_2q",
        "entangled_basis_3q", "entangled_state", "expand_in_entangled_basis", "ghz_state",
        "product_state", "reconstruct_from_expansion", "w_state",
    ),
    "entanglement_measures": (
        "DensityMatrix", "SpinSumAverages", "concurrence_det", "concurrence_from_expansion",
        "concurrence_rdm", "density", "partial_trace", "spin_sum_averages",
    ),
    "errors": (
        "BadParams", "BadSubsystem", "DegenerateTriple", "DimensionMismatch", "FormulaUnavailable",
        "InfinitePoint", "NoConvergence", "NotNormalized", "QcsError",
    ),
    "evolution": (
        "Revival", "TimeSeries", "closed_form_fidelity", "concurrence_series", "evolve",
        "exchange_hamiltonian", "fidelity_series", "revival_time",
    ),
    "gates": (
        "UnitaryGate", "coherent_generator", "coherent_hadamard_basis", "gate_cnot",
        "gate_hadamard", "gate_not", "gate_phase", "induced_mobius",
    ),
    "spin_models": (
        "CouplingParams", "Extremum", "SurfaceGrid", "energy_surface", "hamiltonian",
        "q_symbol_closed", "q_symbol_direct", "q_symbol_pair",
    ),
    "verify": (
        "format_report", "run_suite",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, imported from its module on first access (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
