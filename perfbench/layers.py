"""Which qcs functions the traced run wraps, and how spans become per-layer metrics.

Metric names are `<module>.<function>.<quantity>`; "per_op" divides by
the traced operations.  Self time is a span's duration minus the time its
traced children cover, so `cli.main` self time is argument parsing, CSV
formatting and writing, and `spin_models.energy_surface` self time is
seed detection and merging (the grid itself is the `spin_models.grid`
span).  A metric whose layer did no work on the workload is reported as 0
and listed as not applicable.
"""

from __future__ import annotations

from collections import defaultdict

import qcs.cli as cli
import qcs.coherent_states as cs
import qcs.entangled_basis as eb
import qcs.entanglement_measures as em
import qcs.evolution as ev
import qcs.spin_models as sm
import qcs.verify as vf
from spans import Tracer, self_times

VERIFY_CHECK_NAMES = (
    "cross-ratio-mobius-invariance", "hadamard-symmetric-points", "symmetric-point-structure",
    "stereo-round-trip", "antipodal-orthogonality", "state-normalization", "antipodal-expansion",
    "spin-j-overlaps", "gate-mobius-commutation", "generator-columns", "basis-orthonormality",
    "component-formulas", "bell-ghz-w-limits", "concurrence-three-routes", "concurrence-range",
    "basis-concurrence", "reduced-density", "spin-sum-averages", "hamiltonian-hermiticity",
    "q-symbol-reality-bounds", "q-symbol-constants", "closed-vs-direct-xyz",
    "xxz-p-plus-closed-vs-direct", "xxz-surface-symmetry", "surface-extrema", "evolution-core",
    "revival-detection", "concurrence-series-structure", "concurrence-closed-form",
)

PER_LAYER = {
    "spin_models.q_symbol_direct.calls_per_op": "count",
    "spin_models.q_symbol_direct.self_ms_per_op": "ms",
    "entangled_basis.entangled_state.calls_per_op": "count",
    "entangled_basis.entangled_state.self_ms_per_op": "ms",
    "coherent_states.coherent.self_ms_per_op": "ms",
    "coherent_states.symmetric_state.self_ms_per_op": "ms",
    "spin_models.grid.nodes_per_op": "count",
    "spin_models.grid.us_per_node": "us",
    "spin_models.grid.useful_ratio": "ratio",
    "spin_models.refine_extremum.calls_per_op": "count",
    "spin_models.refine_extremum.self_ms_per_op": "ms",
    "spin_models.refine_extremum.nfev_per_call": "count",
    "spin_models.refine_extremum.failed": "count",
    "spin_models.refine_extremum.useful_ratio": "ratio",
    "spin_models.energy_surface.self_ms_per_op": "ms",
    "spin_models.q_symbol_closed.calls_per_op": "count",
    "spin_models.q_symbol_closed.self_ms_per_op": "ms",
    "spin_models.hamiltonian.calls_per_op": "count",
    "spin_models.hamiltonian.self_ms_per_op": "ms",
    "evolution.concurrence_series.self_ms_per_op": "ms",
    "evolution.fidelity_series.self_ms_per_op": "ms",
    "evolution.revival_time.self_ms_per_op": "ms",
    "evolution.exchange_hamiltonian.calls_per_op": "count",
    "evolution.steps_per_op": "count",
    "entanglement_measures.concurrence_det.calls_per_op": "count",
    "entanglement_measures.concurrence_det.self_ms_per_op": "ms",
    "cli.main.self_ms_per_op": "ms",
    "cli.bytes_out_per_op": "bytes",
    "trace.untraced_ms_per_op": "ms",
    "trace.overhead_ratio": "ratio",
}

# Reported only by the on-request `verify` workload (see workloads.py).
VERIFY_PER_LAYER = {f"verify.check.{name}.ms": "ms" for name in VERIFY_CHECK_NAMES}


def per_layer_units(workload: str) -> dict:
    """Per-layer metric names and units that a traced run of `workload` reports."""
    return {**PER_LAYER, **VERIFY_PER_LAYER} if workload == "verify" else dict(PER_LAYER)


def _record_surface(tracer, idx, args, kwargs, result):
    refine = kwargs.get("refine", args[6] if len(args) > 6 else True)
    tracer.attrs[idx] = {"refine": bool(refine), "extrema": len(result.extrema)}


def _record_nodes(tracer, idx, args, kwargs, result):
    tracer.attrs[idx] = {"nodes": int(result.size)}


def _record_steps(tracer, idx, args, kwargs, result):
    tracer.attrs[idx] = {"steps": int(result.t.size)}


TRACED = [
    ("spin_models.q_symbol_direct", sm.q_symbol_direct, None),
    ("spin_models.q_symbol_closed", sm.q_symbol_closed, None),
    ("spin_models.hamiltonian", sm.hamiltonian, None),
    ("spin_models.refine_extremum", sm.refine_extremum, None),
    ("spin_models.energy_surface", sm.energy_surface, _record_surface),
    ("spin_models.grid", sm._evaluate_grid, _record_nodes),
    ("entangled_basis.entangled_state", eb.entangled_state, None),
    ("coherent_states.coherent", cs.coherent, None),
    ("coherent_states.symmetric_state", cs.symmetric_state, None),
    ("evolution.concurrence_series", ev.concurrence_series, _record_steps),
    ("evolution.fidelity_series", ev.fidelity_series, _record_steps),
    ("evolution.revival_time", ev.revival_time, None),
    ("evolution.exchange_hamiltonian", ev.exchange_hamiltonian, None),
    ("entanglement_measures.concurrence_det", em.concurrence_det, None),
    ("cli.main", cli.main, None),
]


def install_tracer() -> Tracer:
    """Patch every traced function at each name that holds it; undo with tracer.unpatch()."""
    tracer = Tracer()
    for name, fn, on_exit in TRACED:
        tracer.patch_everywhere(fn, tracer.wrap(name, fn, on_exit))

    minimize = sm.minimize

    def counted_minimize(*args, **kwargs):
        result = minimize(*args, **kwargs)
        refine = tracer.innermost()
        if refine >= 0:
            tracer.attrs.setdefault(refine, {})["nfev"] = int(result.nfev)
        return result

    tracer.patch(sm, "minimize", counted_minimize)
    tracer.patch(
        vf,
        "_CHECKS",
        [(n, tol, tracer.wrap(f"verify.check.{n}", f)) for n, tol, f in vf._CHECKS],
    )
    return tracer


def _layers_behind(metric: str) -> tuple[str, ...]:
    """The span names whose calls a metric is about; empty for the trace overhead."""
    if metric.startswith("trace."):
        return ()
    if metric == "evolution.steps_per_op":
        return ("evolution.concurrence_series", "evolution.fidelity_series")
    if metric == "cli.bytes_out_per_op":
        return ("cli.main",)
    return (metric.rsplit(".", 1)[0],)


def per_layer(tracer: Tracer, untraced: list, traced: list, units: dict) -> tuple[dict, list]:
    """The metrics named in `units` from the traced operations; returns (metrics, names not applicable)."""
    n_ops = len(traced)
    outcomes = [outcome for _, outcome in traced]
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
    grid_nodes = useful_nodes = nfev = failed_refines = steps = 0
    for i in range(len(tracer)):
        op = tracer.op[i]
        if op < 0:
            continue
        name = tracer.names[tracer.name_id[i]]
        calls[name] += 1
        self_s[name] += selfs[i]
        total_s[name] += tracer.end[i] - tracer.start[i]
        attrs = tracer.attrs.get(i, {})
        if name == "spin_models.grid":
            grid_nodes += attrs["nodes"]
            surface = tracer.attrs.get(tracer.parent[i], {})
            if outcomes[op].prints_grid or surface.get("refine", True):
                useful_nodes += attrs["nodes"]
        elif name == "spin_models.refine_extremum":
            nfev += attrs.get("nfev", 0)
            failed_refines += i in tracer.failed
        elif name in ("evolution.concurrence_series", "evolution.fidelity_series"):
            steps += attrs["steps"]

    def ratio(num, den):
        return num / den if den else 0.0

    refines = calls["spin_models.refine_extremum"]
    untraced_s = sum(outcome.seconds for _, outcome in untraced) / len(untraced)
    traced_s = sum(outcome.seconds for outcome in outcomes) / n_ops
    metrics = {
        "spin_models.grid.nodes_per_op": grid_nodes / n_ops,
        "spin_models.grid.us_per_node": 1e6 * ratio(total_s["spin_models.grid"], grid_nodes),
        "spin_models.grid.useful_ratio": ratio(useful_nodes, grid_nodes),
        "spin_models.refine_extremum.nfev_per_call": ratio(nfev, refines),
        "spin_models.refine_extremum.failed": failed_refines,
        "spin_models.refine_extremum.useful_ratio": ratio(
            sum(outcome.extrema_out for outcome in outcomes), refines
        ),
        "evolution.steps_per_op": steps / n_ops,
        "cli.bytes_out_per_op": sum(outcome.bytes_out for outcome in outcomes) / n_ops,
        "trace.untraced_ms_per_op": 1e3 * untraced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    for metric in units:
        layer, quantity = metric.rsplit(".", 1)
        if quantity == "calls_per_op":
            metrics[metric] = calls[layer] / n_ops
        elif quantity == "self_ms_per_op":
            metrics[metric] = 1e3 * self_s[layer] / n_ops
        elif quantity == "ms":  # verify checks: whole check time per operation
            metrics[metric] = 1e3 * total_s[layer] / n_ops
    not_applicable = [
        metric for metric in units
        if _layers_behind(metric) and not any(calls[layer] for layer in _layers_behind(metric))
    ]
    return {name: metrics[name] for name in units}, not_applicable
