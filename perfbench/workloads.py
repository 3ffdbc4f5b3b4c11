"""Seeded workload inputs, how to run them through qcs, and their correctness checks.

A workload is an endless sequence of cycles.  Each cycle holds every
configuration of the workload's table once, in a seeded order, so every
complete cycle does the same mix of work whatever the seed.  The seed
also draws what leaves the expected results known: the order, a positive
coupling scale (which moves no extremum) and dynamics angles and labels;
`verify` runs with the workload seed itself.  The library only ever sees
the generated inputs.

An operation is a plain dict (a spec) so that inputs can be compared and
recorded; `execute` turns a spec into one timed call and checks it.
"""

from __future__ import annotations

import math
import os
import random
import re
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

import oracle
import qcs
import qcs.cli
import qcs.spin_models as sm

# The benchmark's workloads, as BENCHMARK.json lists them.
WORKLOADS = ("cli-surface", "extrema-search", "dynamics")
# Run on request only.  `qcs verify --seed s` FAILs its stereo-round-trip
# check on about 6% of seeds (e.g. 1008208770: 1.18e-12 against a 1e-12
# tolerance, from stereo_project's (x + iy) / (1 + z) near z = -1), and
# this workload reports those runs as incorrect.  It can join WORKLOADS
# once that is fixed in qcs.
EXTRA_WORKLOADS = ("verify",)

# Named couplings (unscaled); the seed multiplies them by a positive scale.
XXX = ("xxx", {"j": 1.0})
XXZ = ("xxz", {"j": 1.0, "jz": -2.0})
PG = ("xyz", {"j-plus": -1.0, "j-minus": -1.0, "jz": -1.0})
GEN = ("xyz", {"jx": 1.1, "jy": -0.4, "jz": 0.9})

# Expected extrema as (kind, x, y); they sit on the axes of the label plane.
ON_X = lambda kind: [(kind, 1.0, 0.0), (kind, -1.0, 0.0)]
ON_Y = lambda kind: [(kind, 0.0, 1.0), (kind, 0.0, -1.0)]
CONSTANT = "constant"

# cli-surface: (command, state, couplings, bonds, source, half-width, step, expected).
# `surface` throws its refined extrema away; `extrema --source closed`
# throws its direct residual grid away.  Windows and steps are sized so
# that every operation costs about the same (51 x 51 two-qubit or 35 x 35
# three-qubit direct nodes), which keeps the median and tail inside one
# cluster of durations instead of on the edge between two.
CLI_SURFACE_TABLE = [
    ("surface", "P+", XXZ, "all-pairs", "direct", 2.5, 0.1, None),
    ("surface", "P+", XXZ, "all-pairs", "closed", 2.5, 0.1, None),
    ("extrema", "P+", XXZ, "all-pairs", "closed", 2.5, 0.1, ON_Y("MIN")),
    ("extrema", "PG+", PG, "chain", "direct", 1.7, 0.1, ON_X("MIN") + ON_Y("MAX")),
    ("surface", "G+", GEN, "all-pairs", "direct", 1.5, 0.06, None),
    ("extrema", "PG-", PG, "all-pairs", "direct", 1.36, 0.08, ON_Y("MIN") + ON_X("MAX")),
    ("surface", "PG+", GEN, "all-pairs", "direct", 1.02, 0.06, None),
    ("extrema", "G+", GEN, "all-pairs", "direct", 2.5, 0.1, ON_X("MIN") + ON_Y("MAX")),
    ("surface", "P-", GEN, "all-pairs", "closed", 2.0, 0.08, None),
    ("extrema", "PG+", PG, "chain", "closed", 1.7, 0.1, ON_X("MIN") + ON_Y("MAX")),
    ("surface", "P+", XXX, "all-pairs", "direct", 1.25, 0.05, CONSTANT),
    ("extrema", "G-", GEN, "all-pairs", "direct", 2.5, 0.1, CONSTANT),
]

# extrema-search: (state, couplings, bonds, source, window or None for the default, expected).
# Closed sources on the default window are dominated by seed detection;
# direct sources on small windows by Nelder-Mead refinement.
EXTREMA_SEARCH_TABLE = [
    ("P+", XXZ, "all-pairs", "closed", None, ON_Y("MIN")),
    ("PG+", PG, "chain", "closed", None, ON_X("MIN") + ON_Y("MAX")),
    ("PG-", PG, "chain", "closed", None, ON_Y("MIN") + ON_X("MAX")),
    ("G+", GEN, "all-pairs", "closed", None, ON_X("MIN") + ON_Y("MAX")),
    ("P+", GEN, "all-pairs", "closed", None, []),
    ("PG+", PG, "chain", "direct", (0.7, 1.3, -0.3, 0.3), [("MIN", 1.0, 0.0)]),
    ("PG+", PG, "chain", "direct", (-0.3, 0.3, 0.7, 1.3), [("MAX", 0.0, 1.0)]),
    ("P+", XXZ, "all-pairs", "direct", (-0.3, 0.3, -1.3, -0.7), [("MAX", 0.0, -1.0)]),
    ("G+", GEN, "all-pairs", "direct", (-1.3, -0.7, -0.3, 0.3), [("MIN", -1.0, 0.0)]),
    ("PG-", PG, "all-pairs", "direct", (-0.3, 0.3, 0.7, 1.3), [("MIN", 0.0, 1.0)]),
    ("PG+", GEN, "all-pairs", "direct", (0.7, 1.3, -0.3, 0.3), [("MAX", 1.0, 0.0)]),
]

# dynamics: per cycle, this many of each operation kind.
DYNAMICS_PER_KIND = 3
DYNAMICS_STEPS = 1256  # time steps per evolve; dt is derived from it
POSITION_TOL = 1e-6
SAMPLES_PER_CSV = 48
VERIFY_CHECKS = 29
VERIFY_WARN = ("xxz-p-plus-closed-vs-direct", "concurrence-closed-form")


def _scale(rng: random.Random) -> float:
    return rng.uniform(0.5, 2.0)


def _scaled(couplings, s: float) -> dict:
    model, values = couplings
    return {"model": model, **{k: v * s for k, v in values.items()}}


def _cli_surface_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for cmd, sid, couplings, bonds, source, half, step, expected in CLI_SURFACE_TABLE:
        ops.append(
            {
                "op": cmd,
                "state": sid,
                "couplings": _scaled(couplings, _scale(rng)),
                "bonds": bonds,
                "source": source,
                "window": [-half, half, -half, half],
                "step": step,
                "expected": expected,
            }
        )
    return ops


def _extrema_search_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for sid, couplings, bonds, source, window, expected in EXTREMA_SEARCH_TABLE:
        ops.append(
            {
                "op": "energy_surface",
                "state": sid,
                "couplings": _scaled(couplings, _scale(rng)),
                "bonds": bonds,
                "source": source,
                "window": list(window) if window else [-3.0, 3.0, -3.0, 3.0],
                "step": 0.05,
                "expected": expected,
            }
        )
    return ops


def _off_circle_label(rng: random.Random) -> list[float]:
    radius = rng.choice([rng.uniform(0.3, 0.8), rng.uniform(1.25, 2.0)])
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return [radius * math.cos(angle), radius * math.sin(angle)]


def _dynamics_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for _ in range(DYNAMICS_PER_KIND):
        # |sin 2 theta| >= 0.47 keeps the revival within REVIVAL_TOL of pi hbar / J.
        j = _scale(rng)
        ops.append({"op": "evolve-xx", "j": j, "theta": rng.uniform(0.25, 1.3)})
        ops.append({"op": "revival", "j": _scale(rng), "theta": rng.uniform(0.25, 1.3)})
        ops.append(
            {
                "op": "evolve-xyz",
                "jx": rng.uniform(-1.5, 1.5),
                "jy": rng.uniform(-1.5, 1.5),
                "jz": rng.uniform(-1.5, 1.5),
                "psi": _off_circle_label(rng),
            }
        )
    return ops


def cycles(workload: str, seed: int) -> Iterator[list[dict]]:
    """The workload's operations, one shuffled cycle at a time; same seed, same inputs."""
    if workload not in WORKLOADS + EXTRA_WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS + EXTRA_WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "cli-surface":
            ops = _cli_surface_cycle(rng)
        elif workload == "extrema-search":
            ops = _extrema_search_cycle(rng)
        elif workload == "dynamics":
            ops = _dynamics_cycle(rng)
        else:
            ops = [{"op": "verify", "seed": seed}]
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------- running


class CheckFailed(Exception):
    """The operation's output disagrees with the reference."""


@dataclass
class Outcome:
    seconds: float
    error: Optional[str]  # None when the operation succeeded and passed its check
    bytes_out: int = 0
    extrema_out: int = 0  # extrema that reached the operation's output
    prints_grid: bool = False  # whether grid values are written to the output


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _fmt(x: float) -> str:
    return repr(float(x))


def _params(couplings: dict) -> qcs.CouplingParams:
    c = dict(couplings)
    model = c.pop("model")
    if model == "xxx":
        return qcs.CouplingParams.xxx(j=c["j"])
    if model == "xxz":
        return qcs.CouplingParams.xxz(j=c["j"], jz=c["jz"])
    if "j-plus" in c:
        return qcs.CouplingParams.xyz(j_plus=c["j-plus"], j_minus=c["j-minus"], jz=c["jz"])
    return qcs.CouplingParams.xyz(jx=c["jx"], jy=c["jy"], jz=c["jz"])


def _coupling_flags(couplings: dict) -> list[str]:
    flags = [f"--model={couplings['model']}"]
    flags += [f"--{k}={_fmt(v)}" for k, v in couplings.items() if k != "model"]
    return flags


def _axes(window, step) -> tuple[np.ndarray, np.ndarray]:
    x_min, x_max, y_min, y_max = window
    nx = int(math.floor((x_max - x_min) / step + 0.5)) + 1
    ny = int(math.floor((y_max - y_min) / step + 0.5)) + 1
    return x_min + step * np.arange(nx), y_min + step * np.arange(ny)


def _check_extrema(spec: dict, rows: list[tuple[str, float, float, float]]) -> None:
    """Reported (kind, x, y, value) rows against the expected set and the reference."""
    params = _params(spec["couplings"])
    sid = spec["state"]
    h = oracle.operator(params, sid, spec["source"], spec["bonds"])
    expected = list(spec["expected"])
    _require(len(rows) == len(expected), f"{len(rows)} extrema reported, {len(expected)} expected")
    for kind, x, y, value in rows:
        match = [
            e for e in expected
            if e[0] == kind and math.hypot(e[1] - x, e[2] - y) <= POSITION_TOL
        ]
        _require(len(match) == 1, f"unexpected extremum {kind} at ({x}, {y})")
        expected.remove(match[0])
        ref = oracle.q_symbol(h, sid, x, y)
        _require(abs(value - ref) <= oracle.VALUE_TOL, f"extremum value {value} vs reference {ref}")
        grad = float(np.linalg.norm(oracle.gradient(h, sid, x, y)))
        _require(grad <= oracle.GRAD_TOL, f"reference gradient {grad:.3e} at {kind} ({x}, {y})")
        eigs = oracle.hessian_eigs(h, sid, x, y)
        agrees = eigs[0] > 0 if kind == "MIN" else eigs[1] < 0
        _require(agrees, f"reference Hessian eigenvalues {eigs} disagree with {kind}")


def _check_grid_values(spec: dict, values, xs, ys, rng: random.Random, residual=None) -> None:
    """A seeded sample of grid values (and closed_minus_direct residuals) against the reference."""
    params = _params(spec["couplings"])
    sid = spec["state"]
    h = oracle.operator(params, sid, spec["source"], spec["bonds"])
    h_direct = oracle.operator(params, sid, "direct", spec["bonds"])
    for node in rng.sample(range(values.size), min(SAMPLES_PER_CSV, values.size)):
        i, j = divmod(node, xs.size)
        ref = oracle.q_symbol(h, sid, xs[j], ys[i])
        _require(
            abs(values[i, j] - ref) <= oracle.VALUE_TOL,
            f"energy {values[i, j]} at ({xs[j]}, {ys[i]}) vs reference {ref}",
        )
        if residual is not None:
            expected = values[i, j] - oracle.q_symbol(h_direct, sid, xs[j], ys[i])
            _require(
                abs(residual[i, j] - expected) <= oracle.VALUE_TOL,
                f"closed_minus_direct {residual[i, j]} at ({xs[j]}, {ys[i]}) vs reference {expected}",
            )


def _split_marker(text: str) -> tuple[list[str], Optional[float]]:
    """CSV lines without the trailing `# CONSTANT value=v` line, and v (None when absent)."""
    lines = text.splitlines()
    if lines and lines[-1].startswith("# CONSTANT value="):
        return lines[:-1], float(lines[-1].split("=", 1)[1])
    return lines, None


def _check_constant(spec: dict, marker: Optional[float]) -> None:
    if spec["expected"] != CONSTANT:
        _require(marker is None, "unexpected CONSTANT marker")
        return
    _require(marker is not None, "constant surface without its CONSTANT marker")
    params = _params(spec["couplings"])
    h = oracle.operator(params, spec["state"], spec["source"], spec["bonds"])
    ref = oracle.q_symbol(h, spec["state"], 0.0, 0.0)
    _require(abs(marker - ref) <= oracle.VALUE_TOL, f"CONSTANT value {marker} vs reference {ref}")


def _check_surface_csv(spec: dict, text: str, rng: random.Random) -> None:
    lines, marker = _split_marker(text)
    closed = spec["source"] == "closed"
    header = "x,y,energy" + (",closed_minus_direct" if closed else "")
    _require(lines[0] == header, f"header {lines[0]!r}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    xs, ys = _axes(spec["window"], spec["step"])
    _require(rows.shape[0] == xs.size * ys.size, f"{rows.shape[0]} rows for {xs.size}x{ys.size} nodes")
    _require(
        np.max(np.abs(rows[:, 0] - np.tile(xs, ys.size))) <= 1e-12
        and np.max(np.abs(rows[:, 1] - np.repeat(ys, xs.size))) <= 1e-12,
        "rows are not the window's nodes, y outer and x inner",
    )
    grid = rows[:, 2:].reshape(ys.size, xs.size, -1)
    _check_grid_values(spec, grid[..., 0], xs, ys, rng, grid[..., 1] if closed else None)
    _check_constant(spec, marker)


def _check_extrema_csv(spec: dict, text: str) -> int:
    lines, marker = _split_marker(text)
    _require(lines[0] == "x,y,value,kind", f"header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        x, y, value, kind = line.split(",")
        rows.append((kind, float(x), float(y), float(value)))
    _check_constant(spec, marker)
    if spec["expected"] == CONSTANT:
        _require(not rows, "constant surface reported extrema")
    else:
        _check_extrema(spec, rows)
    return len(rows)


def _check_evolve_csv(spec: dict, text: str, rng: random.Random) -> None:
    lines = text.splitlines()
    footer = [line for line in lines if line.startswith("#")]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:] if not line.startswith("#")])
    t, conc, fid = rows[:, 0], rows[:, 1], rows[:, 2]
    _require(rows.shape[0] == DYNAMICS_STEPS + 1, f"{rows.shape[0]} time steps")
    _require(abs(conc[0] - 1.0) <= oracle.UNIT_TOL and abs(fid[0] - 1.0) <= oracle.UNIT_TOL, "C(0) or F(0) != 1")
    for name, series in (("concurrence", conc), ("fidelity", fid)):
        _require(
            series.min() >= -oracle.RANGE_TOL and series.max() <= 1.0 + oracle.RANGE_TOL,
            f"{name} outside [0, 1]",
        )
    if spec["op"] == "evolve-xx":
        j, theta = spec["j"], spec["theta"]
        _require(lines[0] == "t,concurrence,fidelity,closed_form_C,closed_form_F", f"header {lines[0]!r}")
        law = oracle.xx_fidelity_law(theta, t, j, 1.0)
        dev = float(np.max(np.abs(fid - law)))
        _require(dev <= oracle.DYNAMICS_TOL, f"fidelity deviates from the XX law by {dev:.3e}")
        _require(len(footer) == 1 and footer[0].startswith("# revival_time = "), f"footer {footer}")
        _check_revival(float(footer[0].split("=", 1)[1]), j)
    else:
        _require(lines[0] == "t,concurrence,fidelity" and not footer, f"header {lines[0]!r}")
        psi = complex(*spec["psi"])
        for k in rng.sample(range(t.size), 6):
            c_ref, f_ref = oracle.evolved_p_plus(spec["jx"], spec["jy"], spec["jz"], 1.0, psi, t[k])
            _require(
                abs(conc[k] - c_ref) <= oracle.DYNAMICS_TOL and abs(fid[k] - f_ref) <= oracle.DYNAMICS_TOL,
                f"(C, F) at t={t[k]} is ({conc[k]}, {fid[k]}), reference ({c_ref}, {f_ref})",
            )


def _check_revival(time_found: float, j: float) -> None:
    expected = math.pi / j
    _require(
        abs(time_found - expected) <= oracle.REVIVAL_TOL / j,
        f"revival at {time_found}, expected {expected}",
    )


_VERIFY_LINE = re.compile(r"^(PASS|WARN|FAIL) +(\S+) ")


def _check_verify_report(text: str) -> None:
    statuses = {}
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            statuses[m.group(2)] = m.group(1)
    _require(len(statuses) == VERIFY_CHECKS, f"{len(statuses)} checks reported")
    failed = sorted(n for n, s in statuses.items() if s == "FAIL")
    warned = tuple(sorted(n for n, s in statuses.items() if s == "WARN"))
    _require(not failed, f"FAIL checks: {failed}")
    _require(warned == tuple(sorted(VERIFY_WARN)), f"WARN checks: {warned}")
    _require(text.rstrip().endswith("result: PASS"), "report does not end in PASS")


def cli_argv(spec: dict, output: str) -> list[str]:
    op = spec["op"]
    if op in ("surface", "extrema"):
        w = ",".join(_fmt(v) for v in spec["window"])
        return [
            op, f"--state={spec['state']}", *_coupling_flags(spec["couplings"]),
            f"--bonds={spec['bonds']}", f"--source={spec['source']}",
            f"--window={w}", f"--step={_fmt(spec['step'])}", "--output", output,
        ]
    if op == "evolve-xx":
        j = spec["j"]
        return [
            "evolve", f"--jx={_fmt(j)}", f"--jy={_fmt(j)}", "--jz=0", f"--theta={_fmt(spec['theta'])}",
            f"--dt={_fmt(4.0 * math.pi / j / DYNAMICS_STEPS)}", "--output", output,
        ]
    if op == "evolve-xyz":
        psi = ",".join(_fmt(v) for v in spec["psi"])
        return [
            "evolve", f"--jx={_fmt(spec['jx'])}", f"--jy={_fmt(spec['jy'])}", f"--jz={_fmt(spec['jz'])}",
            f"--psi={psi}", f"--t-max={_fmt(4.0 * math.pi)}",
            f"--dt={_fmt(4.0 * math.pi / DYNAMICS_STEPS)}", "--output", output,
        ]
    if op == "verify":
        return ["verify", f"--seed={spec['seed']}", "--output", output]
    raise ValueError(f"{op!r} is not a CLI operation")


def _timed(call, tracer):
    """(result, seconds, error) of one call; traced calls get an "op" root span."""
    root = tracer.begin_op() if tracer is not None else None
    t0 = time.perf_counter()
    try:
        return call(), time.perf_counter() - t0, None
    except Exception as exc:  # a raising operation counts as failed
        return None, time.perf_counter() - t0, f"raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.end_op(root)


def execute(spec: dict, workdir: str, check_rng: random.Random, tracer=None) -> Outcome:
    """Run one operation (timed), then check its output (untimed)."""
    op = spec["op"]
    if op == "energy_surface":
        params = _params(spec["couplings"])
        grid, seconds, error = _timed(
            lambda: sm.energy_surface(
                params, spec["state"], window=tuple(spec["window"]), step=spec["step"],
                source=spec["source"], bonds=spec["bonds"], refine=True,
            ),
            tracer,
        )
        outcome = Outcome(seconds, error, extrema_out=len(grid.extrema) if grid else 0)
        check = lambda: (
            _check_extrema(spec, [(e.kind, e.x, e.y, e.value) for e in grid.extrema]),
            _check_grid_values(spec, grid.values, grid.xs, grid.ys, check_rng),
        )
    elif op == "revival":
        params = qcs.CouplingParams.xyz(jx=spec["j"], jy=spec["j"], jz=0.0)
        psi = complex(math.cos(spec["theta"]), math.sin(spec["theta"]))
        revival, seconds, error = _timed(lambda: qcs.revival_time(params, psi), tracer)
        outcome = Outcome(seconds, error)

        def check():
            _require(revival.status == "FOUND", f"revival status {revival.status}")
            _check_revival(revival.time, spec["j"])

    else:
        output = os.path.join(workdir, "op.out")
        argv = cli_argv(spec, output)
        code, seconds, error = _timed(lambda: qcs.cli.main(argv), tracer)
        outcome = Outcome(seconds, error, prints_grid=(op == "surface"))
        if error is None and code != 0:
            outcome.error = f"exit code {code}"
        if outcome.error is None:
            with open(output) as handle:
                text = handle.read()
            outcome.bytes_out = len(text.encode())

        def check():
            if op == "surface":
                _check_surface_csv(spec, text, check_rng)
            elif op == "extrema":
                outcome.extrema_out = _check_extrema_csv(spec, text)
            elif op.startswith("evolve"):
                _check_evolve_csv(spec, text, check_rng)
            else:
                _check_verify_report(text)

    if outcome.error is None:
        try:
            check()
        except (CheckFailed, ValueError, IndexError) as exc:
            outcome.error = f"check failed: {exc}"
    return outcome
