"""Command-line interface: state inspection, surfaces, extrema, dynamics, verify.

All numeric output uses 17 significant digits so CSV files round-trip to
the exact in-memory doubles, and every command is deterministic for a
fixed configuration.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import evolution as ev
from . import spin_models as sm
from . import verify as vf
from .entangled_basis import STATE_IDS, entangled_state, expand_in_entangled_basis
from .entanglement_measures import (
    concurrence_det,
    concurrence_from_expansion,
    concurrence_rdm,
    spin_sum_averages,
)
from .errors import BadParams, QcsError

USAGE_ERROR = 2
# 128 + SIGPIPE, what a shell reports for a writer whose reader went away.
BROKEN_PIPE = 141
# `evolve` holds its whole time grid in memory: a few (4, steps) real
# arrays and one (steps, columns) table of the CSV values.  A constant,
# not an option: no caller needs more, and a tiny --dt must fail before
# anything is allocated.
MAX_TIME_STEPS = 1_000_000
# `_write_rows` formats this many rows, and `_write_grid` this many grid
# nodes (or one grid row if longer), with one `%` and one write.
_ROW_BLOCK = 4096


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}j"


def _write_rows(out, columns) -> None:
    """Write equal-size arrays as CSV columns, each value as _fmt writes it.

    Rows are formatted _ROW_BLOCK at a time, by one `%` over the block and
    one write, so only one block of text and Python floats is alive at once.
    """
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    table = np.column_stack([np.asarray(c, dtype=float).ravel() for c in columns])
    for start in range(0, len(table), _ROW_BLOCK):
        block = table[start:start + _ROW_BLOCK]
        out.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_grid(out, xs: np.ndarray, ys: np.ndarray, planes) -> None:
    """Write `x,y,<planes>` CSV rows, y outer and x inner, each value as _fmt writes it.

    planes are (ys.size, xs.size) arrays, taken as one (ny, nx, k) table and
    written in blocks of whole rows of at most _ROW_BLOCK nodes (one row when
    a row is longer).  Each axis value is formatted once.  In a block, each
    distinct double (by bit pattern, so -0 stays apart from 0) is formatted
    once and gathered into the cells, and the block is written by one `%`
    over row templates that hold the x cells and the row's y cell, so only
    one block of text and cells is alive at once.
    """
    table = np.stack([np.asarray(p, dtype=float) for p in planes], axis=-1)
    tail = "," + ",".join(["%s"] * len(planes)) + "\n"
    x_cells = ["%.17g," % x for x in xs.tolist()]
    # A y cell joined over seps is that row's template: `x,y,%s...` per node.
    seps = x_cells[:1] + [tail + x for x in x_cells[1:]] + [tail]
    y_cells = ["%.17g" % y for y in ys.tolist()]
    rows = max(1, _ROW_BLOCK // len(x_cells))
    for start in range(0, len(y_cells), rows):
        bits, index = np.unique(table[start:start + rows].view(np.int64), return_inverse=True)
        text = ("%.17g\0" * len(bits) % tuple(bits.view(np.float64).tolist())).split("\0")
        cells = np.array(text, dtype=object)[index.ravel()]
        out.write("".join([y.join(seps) for y in y_cells[start:start + rows]]) % tuple(cells.tolist()))


@contextmanager
def _open_output(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as handle:
            yield handle


def _parse_psi(args) -> complex:
    if args.theta is not None:
        return complex(math.cos(args.theta), math.sin(args.theta))
    raw = args.psi or "0,0"
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"--psi expects 're,im', got {raw!r}")
    return complex(float(parts[0]), float(parts[1]))


def _parse_window(raw: str) -> tuple[float, float, float, float]:
    parts = raw.split(",")
    if len(parts) != 4:
        raise ValueError(f"--window expects 'x_min,x_max,y_min,y_max', got {raw!r}")
    return tuple(float(p) for p in parts)


def _coupling_params(args) -> sm.CouplingParams:
    model = args.model.upper()
    if model in ("XXX", "XXZ") and args.j is None:
        raise ValueError(f"{model} needs --j")
    if model == "XXX":
        return sm.CouplingParams.xxx(j=args.j, hbar=args.hbar)
    if model == "XXZ":
        return sm.CouplingParams.xxz(j=args.j, delta=args.delta, jz=args.jz, hbar=args.hbar)
    if model == "XYZ":
        return sm.CouplingParams.xyz(
            jx=args.jx, jy=args.jy, jz=args.jz or 0.0,
            j_plus=args.j_plus, j_minus=args.j_minus, hbar=args.hbar,
        )
    raise ValueError(f"unknown model {args.model!r}")


def _add_coupling_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--model", default="xyz", help="xxx, xxz, or xyz")
    parser.add_argument("--j", type=float, default=None, help="exchange J (xxx/xxz)")
    parser.add_argument("--delta", type=float, default=None, help="xxz anisotropy (jz = j*delta)")
    parser.add_argument("--jz", type=float, default=None)
    parser.add_argument("--jx", type=float, default=None)
    parser.add_argument("--jy", type=float, default=None)
    parser.add_argument("--j-plus", type=float, default=None, help="(jx + jy)/2")
    parser.add_argument("--j-minus", type=float, default=None, help="(jx - jy)/2")
    parser.add_argument("--hbar", type=float, default=1.0)


def _add_psi_flags(parser: argparse.ArgumentParser):
    label = parser.add_mutually_exclusive_group()
    label.add_argument("--psi", default=None, help="label as 're,im'")
    label.add_argument("--theta", type=float, default=None, help="psi = (cos th, sin th)")


def _add_grid_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--window", default="-3,3,-3,3", help="x_min,x_max,y_min,y_max")
    parser.add_argument(
        "--step",
        type=float,
        default=0.05,
        help="grid spacing; a step that does not divide the window ends each axis at the node "
        "nearest its far edge, up to half a step short of it or past it (0,1 at 0.3 ends at 0.9)",
    )
    parser.add_argument("--source", default="direct", choices=["direct", "closed"])
    parser.add_argument("--bonds", default="all-pairs", choices=["all-pairs", "chain"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="amplitudes, concurrence, spin sums")
    p_state.add_argument("--state", required=True, help="P+, P-, G+, G-, PG+, PG-")
    _add_psi_flags(p_state)
    p_state.add_argument("--hbar", type=float, default=1.0)
    p_state.add_argument("--output", default="-")

    p_surface = sub.add_parser("surface", help="energy surface CSV")
    p_surface.add_argument("--state", required=True)
    _add_coupling_flags(p_surface)
    _add_grid_flags(p_surface)
    p_surface.add_argument("--output", default="-")

    p_extrema = sub.add_parser("extrema", help="refined surface extrema CSV")
    p_extrema.add_argument("--state", required=True)
    _add_coupling_flags(p_extrema)
    _add_grid_flags(p_extrema)
    p_extrema.add_argument("--output", default="-")

    p_evolve = sub.add_parser("evolve", help="concurrence/fidelity time series CSV")
    _add_coupling_flags(p_evolve)
    _add_psi_flags(p_evolve)
    p_evolve.add_argument("--t-max", type=float, default=None, help="default 4*pi*hbar/J")
    p_evolve.add_argument("--dt", type=float, default=0.01)
    p_evolve.add_argument("--output", default="-")

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--output", default="-")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built once per process, since parsing leaves it unchanged."""
    return build_parser()


def cmd_state(args) -> int:
    psi = _parse_psi(args)
    sid = args.state.upper()
    state = entangled_state(sid, psi)
    # Before any output, for every state: --hbar scales only the two-qubit spin sums.
    if not (math.isfinite(args.hbar) and args.hbar > 0):
        raise BadParams(f"hbar must be finite and positive, got {args.hbar}")
    sums = spin_sum_averages(state, hbar=args.hbar) if state.n_qubits == 2 else None
    with _open_output(args.output) as out:
        out.write(f"state: {sid}\n")
        out.write(f"psi: {_fmt_complex(psi)}\n")
        labels = [format(i, f"0{state.n_qubits}b") for i in range(state.dim)]
        for label, amp in zip(labels, state.amplitudes):
            out.write(f"amplitude[{label}] = {_fmt_complex(complex(amp))}\n")
        if state.n_qubits == 2:
            expansion = expand_in_entangled_basis(state, psi)
            out.write(f"concurrence_det = {_fmt(concurrence_det(state))}\n")
            out.write(f"concurrence_rdm = {_fmt(concurrence_rdm(state))}\n")
            out.write(
                f"concurrence_expansion = {_fmt(concurrence_from_expansion(expansion))}\n"
            )
            out.write(f"sz_sum = {_fmt(sums.z_sum)}\n")
            out.write(f"sz_diff = {_fmt(sums.z_diff)}\n")
            out.write(f"s_raising_sum = {_fmt_complex(sums.raising_sum)}\n")
            out.write(f"s_raising_diff = {_fmt_complex(sums.raising_diff)}\n")
    return 0


def _surface(args, source: str, refine: bool) -> sm.SurfaceGrid:
    params, window = _coupling_params(args), _parse_window(args.window)
    return sm.energy_surface(
        params, args.state, window, args.step, source=source, bonds=args.bonds, refine=refine
    )


def cmd_surface(args) -> int:
    grid = _surface(args, args.source, refine=False)
    planes = [grid.values]
    if args.source == "closed":
        planes.append(grid.values - _surface(args, "direct", refine=False).values)
    with _open_output(args.output) as out:
        out.write("x,y,energy" + (",closed_minus_direct" if len(planes) > 1 else "") + "\n")
        _write_grid(out, grid.xs, grid.ys, planes)
        if grid.constant:
            out.write(f"# CONSTANT value={_fmt(float(grid.values[0, 0]))}\n")
    return 0


def cmd_extrema(args) -> int:
    grid = _surface(args, args.source, refine=True)
    with _open_output(args.output) as out:
        out.write("x,y,value,kind\n")
        for e in grid.extrema:
            out.write(f"{_fmt(e.x)},{_fmt(e.y)},{_fmt(e.value)},{e.kind}\n")
        if grid.constant:
            out.write(f"# CONSTANT value={_fmt(float(grid.values[0, 0]))}\n")
    return 0


def _evolve_params(args) -> sm.CouplingParams:
    if args.model.upper() == "XYZ" and args.j is not None and not (
        args.jx is not None or args.jy is not None or args.j_plus is not None
    ):
        # `evolve --j 1` sugar: the XX model.
        return sm.CouplingParams.xyz(jx=args.j, jy=args.j, jz=args.jz or 0.0, hbar=args.hbar)
    return _coupling_params(args)


def cmd_evolve(args) -> int:
    params = _evolve_params(args)
    psi = _parse_psi(args)
    xx_like = ev.is_xx_like(params)
    j = abs(params.jx) if xx_like else max(abs(params.jx), abs(params.jy), abs(params.jz), 1.0)
    t_max = args.t_max if args.t_max is not None else 4.0 * math.pi * params.hbar / j
    for name, value in (("--dt", args.dt), ("--t-max", t_max)):
        if not (math.isfinite(value) and value > 0):
            raise BadParams(f"{name} must be finite and positive, got {value}")
    if t_max / args.dt >= MAX_TIME_STEPS:
        raise BadParams(f"t_max {t_max} at dt {args.dt} needs more than {MAX_TIME_STEPS} time steps")
    n_steps = int(math.floor(t_max / args.dt + 0.5))
    ts = args.dt * np.arange(n_steps + 1)

    conc, fid = ev.concurrence_series(params, psi, ts), ev.fidelity_series(params, psi, ts)
    # The closed forms and the revival footer both need psi = e^{i theta}.
    on_circle = xx_like and abs(abs(psi) - 1.0) <= 1e-9
    closed_c = closed_f = None
    if on_circle:
        theta = math.atan2(psi.imag, psi.real)
        closed_c = ev.closed_form_concurrence_reading(theta, ts, params.jx, params.hbar)
        closed_f = ev.closed_form_fidelity(theta, ts, params.jx, params.hbar)
    # Before the output opens, so a coupling the revival search rejects writes nothing.
    revival = ev.revival_time(params, psi) if on_circle else None

    with _open_output(args.output) as out:
        header = "t,concurrence,fidelity"
        if closed_c is not None:
            header += ",closed_form_C,closed_form_F"
        out.write(header + "\n")
        columns = [ts, conc.values, fid.values]
        if closed_c is not None:
            columns += [closed_c, closed_f]
        _write_rows(out, columns)
        if revival is not None:
            if revival.status == ev.FOUND:
                out.write(f"# revival_time = {_fmt(revival.time)}\n")
            else:
                out.write(f"# revival = {revival.status}\n")
    return 0


def cmd_verify(args) -> int:
    results = vf.run_suite(seed=args.seed)
    report = vf.format_report(results, seed=args.seed)
    with _open_output(args.output) as out:
        out.write(report)
    return 0 if all(r.status != "FAIL" for r in results) else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "state": cmd_state,
        "surface": cmd_surface,
        "extrema": cmd_extrema,
        "evolve": cmd_evolve,
        "verify": cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`qcs ... | head`).  Point stdout at devnull
        # so the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except (QcsError, ValueError) as exc:
        print(f"qcs {args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
