"""Self-tests of the benchmark: reference, span arithmetic, seeding, metric names.

Run from the repository root with `python3 -m pytest -q perfbench`.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import qcs  # noqa: E402
import qcs.spin_models as sm  # noqa: E402
import qcs.verify as vf  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NO_PARENT, self_times  # noqa: E402

PARAMS = [
    qcs.CouplingParams.xyz(jx=1.1, jy=-0.4, jz=0.9),
    qcs.CouplingParams.xyz(j_plus=-1.0, j_minus=-1.0, jz=-1.0),
    qcs.CouplingParams.xxz(j=1.3, jz=-2.6, hbar=0.8),
    qcs.CouplingParams.xxx(j=0.7, hbar=1.2),
]


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.model)
@pytest.mark.parametrize("bonds", ["all-pairs", "chain"])
def test_oracle_agrees_with_direct_route(params, bonds):
    rng = np.random.default_rng(7)
    for sid in qcs.STATE_IDS:
        h = oracle.operator(params, sid, "direct", bonds)
        for x, y in 1.5 * rng.standard_normal((25, 2)):
            ref = oracle.q_symbol(h, sid, x, y)
            assert abs(ref - sm.q_symbol_direct(params, sid, complex(x, y), bonds)) <= 1e-12


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.model)
def test_oracle_agrees_with_closed_route(params):
    rng = np.random.default_rng(8)
    for sid in qcs.STATE_IDS:
        try:
            sm.q_symbol_closed(params, sid, 0.3)
        except qcs.FormulaUnavailable:
            continue
        h = oracle.operator(params, sid, "closed", "all-pairs")
        for x, y in 1.5 * rng.standard_normal((25, 2)):
            ref = oracle.q_symbol(h, sid, x, y)
            assert abs(ref - sm.q_symbol_closed(params, sid, complex(x, y))) <= 1e-12


def test_dynamics_oracle_follows_xx_law():
    theta, j = 0.6, 1.7
    for t in (0.0, 0.4, 2.5):
        c, f = oracle.evolved_p_plus(j, j, 0.0, 1.0, complex(np.cos(theta), np.sin(theta)), t)
        assert abs(f - oracle.xx_fidelity_law(theta, np.array(t), j, 1.0)) <= 1e-12
        assert 0.0 <= c <= 1.0 + 1e-12


def test_self_time_of_hand_built_tree():
    # root [0, 10] with children a [1, 4], b [3, 6] (overlapping a) and
    # c [9, 12] (running past its parent); a has one child [2, 3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [NO_PARENT, 0, 0, 0, 1]
    assert self_times(start, end, parent) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_tracer_nests_spans_at_the_callers_name():
    tracer = layers.install_tracer()
    try:
        root = tracer.begin_op()
        sm.q_symbol_direct(PARAMS[0], "P+", 0.3 + 0.1j)
        tracer.end_op(root)
    finally:
        tracer.unpatch()
    assert not hasattr(sm.q_symbol_direct, "__wrapped__")
    names = [tracer.names[i] for i in tracer.name_id]
    by_name = {name: i for i, name in enumerate(names)}
    assert tracer.parent[by_name["spin_models.q_symbol_direct"]] == root
    assert tracer.parent[by_name["entangled_basis.entangled_state"]] == by_name["spin_models.q_symbol_direct"]
    assert tracer.parent[by_name["coherent_states.coherent"]] == by_name["entangled_basis.entangled_state"]
    assert all(op == 0 for op in tracer.op)


def _first_cycles(workload, seed, n=3):
    gen = workloads.cycles(workload, seed)
    return json.dumps([next(gen) for _ in range(n)])


@pytest.mark.parametrize("workload", workloads.WORKLOADS + workloads.EXTRA_WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _first_cycles(workload, 11) == _first_cycles(workload, 11)
    if workload != "verify":
        assert _first_cycles(workload, 11) != _first_cycles(workload, 12)


def test_every_cycle_holds_the_whole_table():
    gen = workloads.cycles("cli-surface", 5)
    for _ in range(3):
        cycle = next(gen)
        assert len(cycle) == len(workloads.CLI_SURFACE_TABLE)
        assert sorted((s["op"], s["state"], s["source"]) for s in cycle) == sorted(
            (row[0], row[1], row[4]) for row in workloads.CLI_SURFACE_TABLE
        )


def test_tail_has_ten_operations_beyond_it():
    durations = [float(i) for i in range(48)]
    value, pct = run.tail(durations)
    assert sum(d > value for d in durations) == 10
    assert pct == pytest.approx(100.0 * 38 / 48)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(layers.PER_LAYER.values())
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    assert layers.VERIFY_CHECK_NAMES == tuple(name for name, _, _ in vf._CHECKS)
    assert list(layers.per_layer_units("verify")) == list(layers.PER_LAYER) + [
        f"verify.check.{name}.ms" for name in layers.VERIFY_CHECK_NAMES
    ]


def test_check_rejects_a_wrong_energy():
    spec = next(workloads.cycles("extrema-search", 3))[0]
    params = workloads._params(spec["couplings"])
    grid = sm.energy_surface(
        params, spec["state"], window=tuple(spec["window"]), step=spec["step"],
        source=spec["source"], bonds=spec["bonds"],
    )
    values = grid.values.copy()
    values += 1e-8
    with pytest.raises(workloads.CheckFailed):
        workloads._check_grid_values(spec, values, grid.xs, grid.ys, random.Random(0))
