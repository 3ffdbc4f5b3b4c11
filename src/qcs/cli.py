"""Command-line interface: state inspection, surfaces, extrema, dynamics, verify.

All numeric output uses 17 significant digits so CSV files round-trip to
the exact in-memory doubles, and every command is deterministic for a
fixed configuration.  Every value is written as format(x, ".17g") writes
it, by exact integer arithmetic in NumPy (`_format_rows`), with `%` for
the few cells outside fixed notation: `evolve` rows, and `surface` axes
and each distinct double of a block.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import spin_models as sm
from .entangled_basis import entangled_state, expand_in_entangled_basis
from .errors import BadParams, QcsError

USAGE_ERROR = 2
# 128 + SIGPIPE, what a shell reports for a writer whose reader went away.
BROKEN_PIPE = 141
# `evolve` holds its whole time grid in memory: a few (4, steps) real
# arrays and one (steps, columns) table of the CSV values.  A constant,
# not an option: no caller needs more, and a tiny --dt must fail before
# anything is allocated.
MAX_TIME_STEPS = 1_000_000
# `_write_rows` formats this many rows, and `_write_grid` this many grid nodes
# (or one grid row if longer), per `_format_rows` call and write, so only one
# block's text and temporaries are alive at once.
_ROW_BLOCK = 4096


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}j"


def _write_rows(out, columns) -> None:
    """Write equal-size arrays as CSV columns, each value as format(x, ".17g") writes it.

    Rows are formatted _ROW_BLOCK at a time by `_format_rows`, in exact
    integer arithmetic with `%` only for cells outside fixed notation, and
    each block is one write.
    """
    table = np.column_stack([np.asarray(c, dtype=float).ravel() for c in columns])
    for start in range(0, len(table), _ROW_BLOCK):
        out.write(_format_rows(table[start:start + _ROW_BLOCK]))


@functools.cache
def _fixed_tables():
    """The tables of `_format_rows`, built on its first call: 5^s 2^9 and 10^s (exact), s = 20 - k, for
    k = E + 4 in [0, 20]; the ASCII of each 4-digit group as a uint32, plain at 0..9999 and with its
    trailing zeros as NUL at 10000..19999; per key 4k + 2 (has a fraction) + (sign bit), three 32-byte
    masks (the bytes kept from the integer row, those kept from the fraction row, and the sign, '.',
    zeros of "0.000" and ','); and the kernel's scalars as 0-d arrays, which NumPy takes faster than
    Python ints."""
    s, v = np.arange(20, -1, -1), np.arange(10000, dtype=np.int32)[:, None]
    quad = (v // 10 ** np.arange(3, -1, -1, dtype=np.int32) % 10 + ord("0")).astype(np.uint8)
    trail = quad * (v % 10 ** np.arange(4, 0, -1, dtype=np.int32) != 0).astype(np.uint8)
    # The integer row has its 17 digits at bytes 7..23 and the fraction row at 8..24, so the '.' goes at e + 8.
    e, frac, sign, b = np.ogrid[-4:17, :2, :2, :32]
    keep_int = (b >= 7) & (b <= e + 7)
    keep_frac = (b >= np.maximum(e + 9, 8)) & (b <= 24)
    const = np.select([(b == 0) & (sign == 1), b == 31, (b == e + 8) & ((frac == 1) | (e < 0)),
                       (e < 0) & ((b == e + 7) | ((b >= e + 9) & (b <= 7)))], [ord("-"), ord(","), ord("."), ord("0")])
    masks = np.stack(np.broadcast_arrays(keep_int * 255, keep_frac * 255, const)).astype(np.uint8)
    lo, hi, one = np.array([1e-4, 1e17, 1.0]).view(np.uint64).tolist()
    c = {name: np.array(value, np.uint64) for name, value in dict(
        abs=2**63 - 1, fixed_lo=lo, fixed_span=hi - lo, one=one, frac_bits=2**52 - 1, implicit=2**52, zero=0, odd=1,
        half=2**63, e16=10**16, span16=9 * 10**16, e8=10**8, e4=10**4, ascii=ord("0"), b8=8, b52=52, b56=56, b64=64,
    ).items()}
    c |= {name: np.array(value) for name, value in dict(bias=1064, i0=0, trail=10000, two=2, f4=4.0, f16=16.0).items()}
    return (5 ** s.astype(np.uint64) << 9, 10.0 ** s, np.concatenate([quad, trail]).view(np.uint32).ravel(),
            masks.reshape(3, 84, 32).view("V32")[..., 0], c)


def _significand(x, m, bexp, k, pow5, pow10, c):
    """floor(n) and whether rounding n half to even adds 1, for n = x 10^(20 - k) = m 5^(20 - k) 2^(bexp - 1055 - k).

    p = m 5^(20 - k) 2^9 is exact modulo 2^64, and floor(n) = p >> r, r = k + 1064 - bexp.  y = fl(n) is
    within 8 of n while n < 2^57, so floor(n) is y - 16 plus the low 64 - r bits of (p >> r) - (y - 16),
    and r is in [2, 59] while k is within one of its true value, room for a gap below 32.  The remainder,
    shifted to the top bits, rounds up past 2^63, or at 2^63 when floor(n) is odd.
    """
    p = m * pow5[k]
    r = (k - bexp + c["bias"]).view(np.uint64)
    est = (x * pow10[k] - c["f16"]).astype(np.uint64)
    trunc = ((((p >> r) - est) << r) >> r) + est
    p <<= c["b64"] - r
    return trunc, p + (trunc & c["odd"]) > c["half"]


def _digits17(cells: np.ndarray, pow5, pow10, c):
    """The 17 significant digits n and the mask key of each cell in fixed notation, and which cells those are.

    Fixed notation is 0 or 1e-4 <= |x| < 1e17; every other cell is worked as 1.0.  With |x| = m 2^q and
    E = floor(log10 |x|), n = m 5^s 2^(q + s), s = 16 - E, rounded half to even on the exact remainder, as
    the correctly rounded `%` rounds.  E is estimated by log10 and corrected until 10^16 <= n < 10^17
    before rounding.  A zero has n = 0 and E = 0.  The key is 4 (E + 4) + 2 (has a fraction) + (sign bit).
    A cell with E >= 0 has a fraction exactly when it is not an integer: 17 digits hold every integer
    below 10^17, and any other double lies at least 2^-53 |x| from one, past the 5e-17 |x| rounding moves.
    """
    bits = cells.view(np.uint64) & c["abs"]
    zero = bits == c["zero"]
    fixed = bits - c["fixed_lo"] < c["fixed_span"]
    bits = np.where(fixed, bits, c["one"])
    x = bits.view(np.float64)
    bexp = (bits >> c["b52"]).view(np.intp)
    m = (bits & c["frac_bits"]) | c["implicit"]
    k = (np.minimum(np.log10(x), c["f16"]) + c["f4"]).astype(np.intp)
    trunc, up = _significand(x, m, bexp, k, pow5, pow10, c)
    while (off := (trunc - c["e16"] >= c["span16"]).nonzero()[0]).size:
        k[off] += np.where(trunc[off] < c["e16"], -1, 1)
        trunc[off], up[off] = _significand(x[off], m[off], bexp[off], k[off], pow5, pow10, c)
    # n stays below 10^17: the largest double below 10^(E + 1) is at least 2^-54 of it away, relative,
    # more than the half unit 5e-18 of a 17th digit, for E + 1 in [-3, 17].
    trunc += up
    trunc[zero] = 0  # worked as 1.0, so k is already 4 and it has no fraction
    return trunc, (k * c["two"] + (np.trunc(x) != x)) * c["two"] + np.signbit(cells), fixed | zero


def _digit_rows(n: np.ndarray, quads: np.ndarray, c) -> np.ndarray:
    """The integer row and the fraction row of 32-byte cells, as (2, 4 n.size) uint64: the 17 digits of n
    at bytes 7..23 of the first, and at 8..24 of the second with its trailing zeros as NUL; other bytes
    are left for the masks to drop.  n is its lead digit and two halves of two 4-digit groups, and one
    gather puts a half's ASCII in a uint64, in the fraction row from the table's second half for each
    group whose later groups are all 0."""
    q = n // c["e8"]
    half = np.empty((2, n.size), np.uint64)
    np.subtract(n, q * c["e8"], out=half[1])
    lead = q // c["e8"]
    np.subtract(q, lead * c["e8"], out=half[0])
    high = half // c["e4"]
    index = np.empty((2, n.size, 2), np.intp)  # index[h, :, j]: digits 1 + 8h + 4j .. 4 + 8h + 4j
    index[:, :, 0] = high
    index[:, :, 1] = half - high * c["e4"]
    # Every later group is 0: for [0, :, 1] where the second half is, and for [h, :, 0] where [h, :, 1] is too.
    later_zero = np.empty((2, n.size, 2), bool)
    np.equal(half[1], c["zero"], out=later_zero[0, :, 1])
    later_zero[1, :, 1] = True
    np.logical_and(later_zero[:, :, 1], index[:, :, 1] == c["i0"], out=later_zero[:, :, 0])
    plain = quads[index].view(np.uint64)[..., 0]
    index += later_zero * c["trail"]
    trail = quads[index].view(np.uint64)[..., 0]
    lead |= c["ascii"]
    rows = np.empty((2, n.size, 4), np.uint64)
    np.left_shift(lead, c["b56"], out=rows[0, :, 0])
    rows[0, :, 1], rows[0, :, 2] = plain
    np.left_shift(trail, c["b8"], out=rows[1, :, 1:3].T)
    rows[1, :, 1] |= lead
    rows[1, :, 2] |= trail[0] >> c["b56"]
    np.right_shift(trail[1], c["b56"], out=rows[1, :, 3])
    return rows.reshape(2, -1)


def _format_rows(block: np.ndarray) -> str:
    """The CSV text of a (rows, columns) float block, each cell as format(x, ".17g") writes it.

    Cells in fixed notation take exact integer arithmetic (`_digits17`) and two digit rows
    (`_digit_rows`).  Masks per (E, has a fraction, sign) keep the integer part from the first row and
    the fraction from the second, one byte to its right, and add the sign, the '.', the zeros of "0.000"
    and the ','.  Each cell is 32 bytes (text, NUL padding, separator), and the NULs are compressed out.
    The other cells (exponent notation, subnormals, inf and nan) are formatted by `%`, those cells only.
    """
    cells = block.ravel()
    pow5, pow10, quads, (keep_int, keep_frac, const), c = _fixed_tables()
    n, key, fast = _digits17(cells, pow5, pow10, c)
    text, fraction = _digit_rows(n, quads, c)
    text &= keep_int.take(key).view(np.uint64)
    fraction &= keep_frac.take(key).view(np.uint64)
    text |= fraction
    text |= const.take(key).view(np.uint64)
    text = text.view(np.uint8).reshape(-1, 32)
    text[block.shape[1] - 1::block.shape[1], 31] = ord("\n")
    slow = (~fast).nonzero()[0]
    if slow.size:
        # At most 24 characters: "-2.2250738585072014e-308".
        text[slow, :24] = np.array(["%.17g" % x for x in cells[slow].tolist()], "S24").view(np.uint8).reshape(-1, 24)
    text = text.ravel()
    return text[text.astype(bool)].tobytes().decode("ascii")


def _write_grid(out, xs: np.ndarray, ys: np.ndarray, planes) -> None:
    """Write `x,y,<planes>` CSV rows, y outer and x inner, each value as _fmt writes it.

    planes are (ys.size, xs.size) arrays, taken as one (ny, nx, k) table and written in blocks of whole
    rows of at most _ROW_BLOCK nodes (one row when a row is longer).  One `_format_rows` call per block
    gives the text of the x axis, the block's y cells and each distinct double of the block (by bit
    pattern, so -0 stays apart from 0).  The block is one bytes `%` (which copies the literal text
    between its fields whole) over row templates that hold the x cells and the row's y cell, with the
    distinct texts gathered into the cells.
    """
    table = np.asarray(planes, dtype=float).transpose(1, 2, 0)
    tail = b"," + b",".join([b"%s"] * len(planes)) + b"\n"
    rows = max(1, _ROW_BLOCK // xs.size)
    for start in range(0, ys.size, rows):
        bits, index = np.unique(table[start:start + rows].view(np.int64), return_inverse=True)
        y = ys[start:start + rows]
        text = _format_rows(np.concatenate([xs, y, bits.view(np.float64)])[:, None]).encode("ascii").split(b"\n")
        x_cells, y_cells = text[:xs.size], text[xs.size:xs.size + y.size]
        # A y cell joined over seps is that row's template: `x,y,%s...` per node.
        seps = [x_cells[0] + b","] + [tail + x + b"," for x in x_cells[1:]] + [tail]
        cells = np.array(text[xs.size + y.size:-1], dtype=object)[index.ravel()]
        out.write((b"".join([y.join(seps) for y in y_cells]) % tuple(cells.tolist())).decode("ascii"))


@contextmanager
def _open_output(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as handle:
            yield handle


def _floats(flag: str, raw: str, form: str) -> list[float]:
    """The comma-separated floats of an option whose value reads as `form`."""
    parts = raw.split(",")
    if len(parts) != form.count(",") + 1:
        raise BadParams(f"{flag} expects {form!r}, got {raw!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise BadParams(str(exc)) from None


def _parse_psi(args) -> complex:
    if args.theta is not None:
        return complex(math.cos(args.theta), math.sin(args.theta))
    return complex(*_floats("--psi", args.psi or "0,0", "re,im"))


def _parse_window(raw: str) -> tuple[float, float, float, float]:
    return tuple(_floats("--window", raw, "x_min,x_max,y_min,y_max"))


def _coupling_params(args) -> sm.CouplingParams:
    model = args.model.upper()
    if model in ("XXX", "XXZ") and args.j is None:
        raise BadParams(f"{model} needs --j")
    if model == "XXX":
        return sm.CouplingParams.xxx(j=args.j, hbar=args.hbar)
    if model == "XXZ":
        return sm.CouplingParams.xxz(j=args.j, delta=args.delta, jz=args.jz, hbar=args.hbar)
    if model == "XYZ":
        return sm.CouplingParams.xyz(
            jx=args.jx, jy=args.jy, jz=args.jz or 0.0,
            j_plus=args.j_plus, j_minus=args.j_minus, hbar=args.hbar,
        )
    raise BadParams(f"unknown model {args.model!r}")


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

    for name, text in (("surface", "energy surface CSV"), ("extrema", "refined surface extrema CSV")):
        p_grid = sub.add_parser(name, help=text)
        p_grid.add_argument("--state", required=True)
        _add_coupling_flags(p_grid)
        _add_grid_flags(p_grid)
        p_grid.add_argument("--output", default="-")

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
    from .entanglement_measures import concurrence_det, concurrence_from_expansion, concurrence_rdm, spin_sum_averages
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
    from . import evolution as ev
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
    # The closed forms and the revival footer need psi = e^{i theta}; hypot is inf where abs(psi) would raise.
    on_circle = xx_like and abs(math.hypot(psi.real, psi.imag) - 1.0) <= 1e-9
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
    from . import verify as vf
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
