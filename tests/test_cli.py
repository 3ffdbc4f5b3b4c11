import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qcs import cli
from qcs import evolution as ev
from qcs import spin_models as sm
from qcs.cli import main
from qcs.errors import BadParams
from qcs.spin_models import CouplingParams, energy_surface

CLI = [sys.executable, "-m", "qcs"]


def run_cli(*args, expect=0):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return proc.stdout


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    header, body = rows[0], rows[1:]
    return header, [[float(v) for v in row] for row in body]


def test_state_reports_concurrence():
    out = run_cli("state", "--state", "P-", "--psi", "0.5,0.2")
    assert "state: P-" in out
    for line in out.splitlines():
        if line.startswith("concurrence_det"):
            assert abs(float(line.split("=")[1]) - 1.0) < 1e-10


def test_state_theta_sugar():
    out = run_cli("state", "--state", "P+", "--theta", str(math.pi / 4))
    psi_line = next(ln for ln in out.splitlines() if ln.startswith("psi:"))
    val = complex(psi_line.split()[1])
    assert abs(val - complex(math.cos(math.pi / 4), math.sin(math.pi / 4))) < 1e-12


def test_state_three_qubit_has_no_concurrence_lines():
    out = run_cli("state", "--state", "PG+", "--psi", "1,0")
    assert "concurrence" not in out
    assert out.count("amplitude[") == 8


def test_surface_csv_shape_and_order():
    out = run_cli(
        "surface", "--state", "P+", "--model", "xyz", "--jx", "1", "--jy", "0.5",
        "--jz", "0.2", "--window=-1,1,-1,1", "--step", "0.5",
    )
    header, body = parse_csv(out)
    assert header == ["x", "y", "energy"]
    assert len(body) == 25
    xs = [row[0] for row in body]
    ys = [row[1] for row in body]
    assert ys == sorted(ys)  # y is the outer loop
    assert xs[:5] == sorted(xs[:5])  # x ascending within a y block


def test_surface_closed_adds_residual_column():
    out = run_cli(
        "surface", "--state", "P+", "--model", "xxz", "--j", "1", "--jz", "-2",
        "--source", "closed", "--window=-1,1,-1,1", "--step", "1",
    )
    header, body = parse_csv(out)
    assert header == ["x", "y", "energy", "closed_minus_direct"]
    assert any(abs(row[3]) > 0.1 for row in body)  # documented model gap


def test_surface_round_trips_doubles():
    args = [
        "surface", "--state", "G+", "--model", "xyz", "--jx", "1.1", "--jy", "-0.4",
        "--jz", "0.9", "--window=-2,2,-2,2", "--step", "0.25",
    ]
    out = run_cli(*args)
    header, body = parse_csv(out)

    grid = energy_surface(
        CouplingParams.xyz(jx=1.1, jy=-0.4, jz=0.9), "G+",
        window=(-2, 2, -2, 2), step=0.25, refine=False,
    )
    flattened = [
        grid.values[i, j] for i in range(grid.ys.size) for j in range(grid.xs.size)
    ]
    assert all(row[2] == ref for row, ref in zip(body, flattened))


def _fmt_rows(*columns):
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in zip(*columns))


@pytest.mark.parametrize(
    "argv, sid, params, window, step",
    [
        (["--model", "xyz", "--jx", "1.1", "--jy", "-0.4", "--jz", "0.9"], "G+",
         CouplingParams.xyz(jx=1.1, jy=-0.4, jz=0.9), (-1.5, 1.5, -1.5, 1.5), 0.06),
        (["--model", "xxz", "--j", "1", "--jz", "-2"], "P+",
         CouplingParams.xxz(j=1.0, jz=-2.0), (-2.5, 2.5, -2.5, 2.5), 0.1),
        # Not square: 35 x nodes by 17 y nodes, so the axes cannot stand in for each other.
        (["--model", "xyz", "--j-plus", "-1", "--j-minus", "-1", "--jz", "-1", "--bonds", "chain"], "PG-",
         CouplingParams.xyz(j_plus=-1.0, j_minus=-1.0, jz=-1.0), (-1.3, 2.1, -0.7, 0.9), 0.1),
    ],
)
@pytest.mark.parametrize("source", ["direct", "closed"])
def test_surface_bytes_match_per_value_format(tmp_path, argv, sid, params, window, step, source):
    """`surface` writes each value exactly as format(x, ".17g"), row by row."""
    target = tmp_path / "surface.csv"
    window_arg = "--window=" + ",".join(str(w) for w in window)
    assert main(["surface", "--state", sid, *argv, window_arg, "--step", str(step),
                 "--source", source, "--output", str(target)]) == 0

    bonds = argv[argv.index("--bonds") + 1] if "--bonds" in argv else "all-pairs"
    grids = {s: energy_surface(params, sid, window, step, source=s, bonds=bonds, refine=False)
             for s in ("direct", "closed")}
    grid = grids[source]
    xs, ys = np.meshgrid(grid.xs, grid.ys)
    columns = [xs.ravel(), ys.ravel(), grid.values.ravel()]
    header = "x,y,energy"
    if source == "closed":
        columns.append((grid.values - grids["direct"].values).ravel())
        header += ",closed_minus_direct"
    expected = header + "\n" + _fmt_rows(*columns)
    # Lines, not one string: a failure then reports the first differing row.
    assert target.read_text().splitlines(keepends=True) == expected.splitlines(keepends=True)


def _per_row_format(columns):
    """The per-row route `_write_rows` replaced: one `%` per row."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    values = [np.asarray(c, dtype=float).ravel().tolist() for c in columns]
    return "".join(row % r for r in zip(*values))


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e300, -1e300, 1.0 / 3.0, -7.0, 0.1]


@pytest.mark.parametrize("n_rows", [1, len(SPECIAL_VALUES), cli._ROW_BLOCK, 2 * cli._ROW_BLOCK + 37])
@pytest.mark.parametrize("n_cols", [3, 5])
def test_write_rows_matches_per_row_format(n_rows, n_cols):
    """Block formatting writes the bytes one `%` per row wrote, one write per block: signed zeros,
    subnormals, +-1e300, one row, and row counts on and off a multiple of the block size.  The first
    n_cols columns span 10^(-320..300), where almost every cell takes `%`; two more are what `evolve`
    writes, a time grid k dt and values in [0, 1], where every cell takes the integer route."""
    rng = np.random.default_rng(n_rows * n_cols)
    columns = [rng.standard_normal(n_rows) * 10.0 ** rng.integers(-320, 300, n_rows) for _ in range(n_cols)]
    for k, column in enumerate(columns):
        m = min(n_rows, len(SPECIAL_VALUES))
        column[:m] = np.roll(SPECIAL_VALUES, k)[:m]
    columns += [4.0 * math.pi / rng.uniform(0.3, 3.0) / 1256 * np.arange(n_rows), rng.uniform(0.0, 1.0, n_rows)]
    writes = []
    out = io.StringIO()
    out.write = lambda text: writes.append(text)
    cli._write_rows(out, columns)
    assert len(writes) == -(-n_rows // cli._ROW_BLOCK)
    assert "".join(writes) == _per_row_format(columns)


def _format_families(rng, n):
    """6 n + 103 doubles across the families `_format_rows` must format exactly."""
    edges = np.array([float(f"1e{k}") for k in range(-12, 18)] + [5e-324, 2.2250738585072014e-308])
    # x = N / 2^j for odd N < 2^53 with 10^17 <= N 5^j < 10^18: exactly 18 significant digits, the last a
    # 5, so rounding to 17 digits is an exact tie.  |x| runs from 1e-7 to 1e16.
    j = rng.integers(2, 23, n)
    lo = -(-(10**17) // 5**j)
    hi = np.minimum(10**18 // 5**j, 2**53)
    ties = (rng.integers(lo, hi - 1) | 1) / 2.0**j
    return {
        "uniform": rng.uniform(-2.0, 2.0, n),
        "log-uniform 1e-14..1e19": np.exp(rng.uniform(math.log(1e-14), math.log(1e19), n)) * rng.choice([-1.0, 1.0], n),
        "bit patterns": rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64),
        "dyadic m / 2^k": rng.integers(-(2**53), 2**53, n) / 2.0 ** rng.integers(0, 64, n),
        "ties": ties,
        "t = k dt": rng.uniform(1e-3, 0.1) * np.arange(n),
        "10^k and 1 ulp either side": np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)]),
        "zeros, subnormals, inf, nan, the largest": np.array([0.0, -0.0, 5e-324, 1e-310, np.inf, np.nan, 1.7976931348623157e308]),
    }


def test_format_rows_matches_format_on_every_route():
    """`_format_rows` writes format(x, ".17g") for each of about 320k doubles: the integer route (fixed
    notation: 0 and 1e-4 <= |x| < 1e17, exact ties, 10^k and its neighbours at both ends) and the `%`
    route (exponent notation, subnormals, inf, nan, the largest double), negated as well."""
    families = _format_families(np.random.default_rng(31), 26_000)
    for v in families["ties"].tolist():
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, v
    checked = 0
    for name, values in families.items():
        values = np.concatenate([values, -values])
        for n_cols in (1, 3):
            block = values[:len(values) // n_cols * n_cols].reshape(-1, n_cols)
            expected = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in block.tolist())
            # Lines first: a failure then names the first differing cell's row.
            assert cli._format_rows(block).splitlines() == expected.splitlines(), name
            assert cli._format_rows(block) == expected, name
        checked += values.size
    assert checked >= 300_000


# The axes x_min + i step of the `surface` windows (half-width, step) of the cli-surface benchmark workload.
CLI_SURFACE_AXES = [sm._grid_axes((-h, h, -h, h), step)[0] for h, step in
                    ((2.5, 0.1), (1.5, 0.06), (1.02, 0.06), (2.0, 0.08), (1.25, 0.05))]


@pytest.mark.parametrize("ny, nx", [
    (1, 1),
    (64, 64),  # exactly one block of rows
    (3 * 64 + 5, 64),  # off a multiple of the block
    (3, cli._ROW_BLOCK + 3),  # each row longer than a block: one row per write
])
@pytest.mark.parametrize("n_planes", [1, 2])
def test_write_grid_matches_per_value_format(ny, nx, n_planes, monkeypatch):
    """`_write_grid` writes each cell as format(v, ".17g"), with one `_format_rows` call and one write per
    block of rows.  The axes start with signed zeros, subnormals and +-1e300 and go on as the grid axes
    of the cli-surface windows; the cells mix those with values of 10^(-320..300), values in [0, 1),
    exact 17-digit ties, 10^k and 1 ulp either side, and the axes, repeated inside and across blocks."""
    rng = np.random.default_rng(ny * nx + n_planes)
    families = _format_families(rng, 40)
    pool = np.concatenate([SPECIAL_VALUES, rng.standard_normal(40) * 10.0 ** rng.integers(-320, 300, 40),
                           rng.uniform(0.0, 1.0, 40), families["ties"], families["10^k and 1 ulp either side"],
                           *CLI_SURFACE_AXES])
    xs, ys = (np.concatenate([SPECIAL_VALUES, CLI_SURFACE_AXES[(n + n_planes) % 5], rng.choice(pool, n)])[:n]
              for n in (nx, ny))
    planes = [rng.choice(pool, (ny, nx)) for _ in range(n_planes)]
    planes[0][0, :len(SPECIAL_VALUES)] = SPECIAL_VALUES[:nx]

    calls, writes = [], []
    format_rows = cli._format_rows
    monkeypatch.setattr(cli, "_format_rows", lambda block: calls.append(block.copy()) or format_rows(block))
    out = io.StringIO()
    out.write = lambda text: writes.append(text)
    cli._write_grid(out, xs, ys, planes)

    rows_per_block = max(1, cli._ROW_BLOCK // nx)
    assert len(writes) == len(calls) == -(-ny // rows_per_block)
    # Each call takes the x axis, the block's y cells and its distinct doubles; later blocks repeat earlier values.
    for k, block in enumerate(calls):
        assert block.shape[1] == 1 and np.array_equal(block[:nx, 0], xs)
        assert np.array_equal(block[nx:nx + min(rows_per_block, ny - k * rows_per_block), 0],
                              ys[k * rows_per_block:(k + 1) * rows_per_block])
    if len(calls) > 1:
        assert np.intersect1d(calls[0][nx + rows_per_block:], calls[1][nx + rows_per_block:]).size
    expected = [
        ",".join(format(v, ".17g") for v in (x, y, *(p[i, j] for p in planes))) + "\n"
        for i, y in enumerate(ys.tolist()) for j, x in enumerate(xs.tolist())
    ]
    assert "".join(writes).splitlines(keepends=True) == expected


# SHA-256 of `evolve` bodies (footer lines dropped) as the per-row writer
# wrote them.  NumPy's sin and cos are not correctly rounded, so a NumPy
# build with another libm may differ in a last digit and fail here.
EVOLVE_BODY_SHA256 = [
    (["--j", "1.3", "--theta", "0.7"], "77d9e97bc38e971f1dd7235863a7f02dd46e8c1aa9fa937e4fbb4dd19a8cda1d"),
    (["--j", "1", "--theta", "0.5", "--t-max", "100", "--dt", "0.01"],
     "8cb4910306aedd28a1176dd266ecdfd9973ec0e08ac914e37ab96275877873f9"),
    (["--j", "2.5", "--hbar", "0.7", "--psi", "1.0000001,0"],
     "17f5cd1657fc5b178e02578778201c977bbe1cd5d26e8bcd4c6df26916ab13d7"),
    (["--jx", "0.8", "--jy=-0.3", "--jz", "1.1", "--psi", "0.5,0.4"],
     "d44ac983b25359f0ea62c2462e640d71f134c75f808130938fa72a04d950639c"),
]


@pytest.mark.parametrize("argv, digest", EVOLVE_BODY_SHA256)
def test_evolve_body_digests(argv, digest, tmp_path):
    target = tmp_path / "series.csv"
    assert main(["evolve", *argv, "--output", str(target)]) == 0
    body = "".join(line for line in target.read_text().splitlines(keepends=True) if not line.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def _evolve_errors_against_50_digits(argv, target):
    """Per column of one pinned `evolve` run, the worst |value - reference| / scale and its row.

    concurrence |A(2t)| and fidelity |A(t)|^2, A(t) = sum_k w_k e^{-i E_k t / hbar}, come from the
    50-digit Bell energies and weights at the exact double inputs.  closed_form_F = 1 - sin^2(2 theta)
    sin^2(phi) and closed_form_C = (1/4) sqrt(a^2 + 8 a sin^2(theta) cos(2 phi) + 16 sin^4(theta)),
    a = 2 + 2 cos^2(2 theta), phi = J t / hbar, come from their formulas at the double theta the command
    takes.  A phase carries a rounding error of order its size times an ulp, so each scale is 1 plus the
    column's largest phase: max |E| t / hbar for the fidelity and twice that for the concurrence, |phi|
    and 2 |phi| for the closed forms.
    """
    from test_evolution import _mp_bell_spectrum

    args = cli.build_parser().parse_args(["evolve", *argv])
    params, psi = cli._evolve_params(args), cli._parse_psi(args)
    assert main(["evolve", *argv, "--output", str(target)]) == 0
    lines = target.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if not line.startswith("#")]
    worst = {name: (0.0, None) for name in header[1:]}

    def record(name, value, ref, scale, k):
        err = float(abs(value - ref) / scale)
        if err > worst[name][0]:
            worst[name] = (err, k)

    with mpmath.workdps(50):
        energies, weights = _mp_bell_spectrum(params, psi)
        hbar = mpmath.mpf(params.hbar)
        rate = max(abs(e) for e in energies) / hbar
        # Energies E and -E share one cos_sin: (weight sum, weight difference) per rate |E| / hbar.
        still, moving = sum(w for w, e in zip(weights, energies) if not e), {}
        for w, e in zip(weights, energies):
            if e:
                plus, minus = moving.get(abs(e) / hbar, (0, 0))
                moving[abs(e) / hbar] = (plus + w, minus + w) if e > 0 else (plus + w, minus - w)

        def amplitudes(t):
            """A(t) and A(2t) as (re, im) pairs, A(2t) by the double-angle formulas."""
            cs = [(mpmath.cos_sin(r * t), total, diff) for r, (total, diff) in moving.items()]
            at_t = (still + sum(total * c for (c, _), total, _ in cs), -sum(diff * s for (_, s), _, diff in cs))
            at_2t = (still + sum(total * (c * c - s * s) for (c, s), total, _ in cs),
                     -sum(2 * diff * s * c for (c, s), _, diff in cs))
            return at_t, at_2t

        closed = "closed_form_C" in header
        if closed:
            theta = mpmath.mpf(math.atan2(psi.imag, psi.real))
            s2, c2 = mpmath.sin(theta) ** 2, mpmath.cos(2 * theta) ** 2
            a = 2 + 2 * c2
        for k, row in enumerate(rows):
            # The time grid is dt k rounded once.
            assert abs(Fraction(row[0]) - k * Fraction(args.dt)) <= 2.0**-53 * k * args.dt, (argv, k)
            values = dict(zip(header, row))
            t = mpmath.mpf(row[0])
            (re, im), (re2, im2) = amplitudes(t)
            record("fidelity", values["fidelity"], re * re + im * im, 1 + rate * t, k)
            record("concurrence", values["concurrence"], mpmath.sqrt(re2 * re2 + im2 * im2), 1 + 2 * rate * t, k)
            if closed:
                phase = abs(mpmath.mpf(params.jx) * t / hbar)
                cos2 = mpmath.cos(2 * phase)
                record("closed_form_F", values["closed_form_F"], 1 - (1 - c2) * (1 - cos2) / 2, 1 + phase, k)
                closed_c = mpmath.sqrt(a * a + 8 * a * s2 * cos2 + 16 * s2 * s2) / 4
                record("closed_form_C", values["closed_form_C"], closed_c, 1 + 2 * phase, k)
    return worst


# Each bound is 4 times the worst measured over the four pins, per unit of the column's scale (see
# `_evolve_errors_against_50_digits`): 4.44e-16 concurrence and 9.69e-16 fidelity, both within the first
# rows of the generic XYZ pin, where the rounded weights' sum decides; 1.24e-16 and 9.71e-17 for the
# closed forms.
EVOLVE_ERROR_BOUNDS = {"concurrence": 1.8e-15, "fidelity": 3.9e-15, "closed_form_C": 5.0e-16, "closed_form_F": 3.9e-16}


@pytest.mark.parametrize("argv", [argv for argv, _ in EVOLVE_BODY_SHA256])
def test_evolve_pins_are_within_rounding_of_50_digit_references(argv, tmp_path):
    """Every value of each `EVOLVE_BODY_SHA256` output is within its column's bound of a 50-digit reference."""
    for name, (err, row) in _evolve_errors_against_50_digits(argv, tmp_path / "series.csv").items():
        assert err <= EVOLVE_ERROR_BOUNDS[name], (name, err, row)


# SHA-256 of `extrema` output: the six `extrema` rows of the benchmark's
# cli-surface table at unscaled couplings, and two closed G+ surfaces near
# jx = jy whose SADDLE at (1, 0) is not listed.  Every extremum sits
# exactly on a fixed label (0, +-1, +-i); `test_extrema_pins_are_exact_labels`
# bounds each value against exact arithmetic.
PG_FLAGS = ["--model=xyz", "--j-plus=-1.0", "--j-minus=-1.0", "--jz=-1.0"]
GEN_FLAGS = ["--model=xyz", "--jx=1.1", "--jy=-0.4", "--jz=0.9"]
EXTREMA_SHA256 = [
    (["--state=P+", "--model=xxz", "--j=1.0", "--jz=-2.0", "--source=closed", "--window=-2.5,2.5,-2.5,2.5",
      "--step=0.1"], "a941f12e5123e12b58f56ecfaea3dac8b8d0599a770723770529c14b075749d7"),
    (["--state=PG+", *PG_FLAGS, "--bonds=chain", "--window=-1.7,1.7,-1.7,1.7", "--step=0.1"],
     "212e90c343164c86ad27bd99ca014c2e3c31bff552f2e1f79a587e82ab22b7db"),
    (["--state=PG-", *PG_FLAGS, "--window=-1.36,1.36,-1.36,1.36", "--step=0.08"],
     "0e5710bc61e3b55212e9d9911a6a81719cacd2d947f781f8fd6830070d1a7ea5"),
    (["--state=G+", *GEN_FLAGS, "--window=-2.5,2.5,-2.5,2.5", "--step=0.1"],
     "ac6e02842641c28385a79ca6cc37f8947a1ab7710e1063e6aea8b6dd6cf16219"),
    (["--state=PG+", *PG_FLAGS, "--bonds=chain", "--source=closed", "--window=-1.7,1.7,-1.7,1.7", "--step=0.1"],
     "212e90c343164c86ad27bd99ca014c2e3c31bff552f2e1f79a587e82ab22b7db"),
    (["--state=G-", *GEN_FLAGS, "--window=-2.5,2.5,-2.5,2.5", "--step=0.1"],
     "d46da3f2fe180f9bb546043c984d18adbabf327a5be498bb8417a5e84886d0a0"),
    (["--state=G+", "--jx=0.465721243863944", "--jy=0.45666640033603256", "--jz=0.6800728488750654",
      "--source=closed", "--step=0.1",
      "--window=-2.457453444314526,2.542546555685474,-2.4792202943370514,2.5207797056629486"],
     "3bb20f5f8de1104f707800e43b676ba9eed92c3483990a419e1181c801b54a63"),
    (["--state=G+", "--jx=1.2654864670238135", "--jy=1.2770941634217208", "--jz=0.14200448231306373",
      "--source=closed", "--step=0.099652006380203",
      "--window=-2.512951134121445,2.487048865878555,-2.544793412870247,2.455206587129753"],
     "292e8520f0e6ee3a8d5423374dcd592b841d006b5ccf4c499eb2c16c7f067abf"),
]


@pytest.mark.parametrize("argv, digest", EXTREMA_SHA256)
def test_extrema_digests(argv, digest, tmp_path):
    target = tmp_path / "extrema.csv"
    assert main(["extrema", *argv, "--output", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_extrema_pins_are_exact_labels(tmp_path):
    """Every pinned `extrema` row lies exactly on one of its state's fixed labels, and its value is within
    2.1e-16 (1 + n_bonds sum |K|) of the exact value: n_bonds (c tr K + s K_a) on the direct source, where the
    label's rotated axis is e_a, and the closed form in rational arithmetic on the closed one.  The worst
    measured is 5.05e-17 (G+ at +-i)."""
    from test_spin_models import _exact_closed_form

    rows_checked = 0
    for argv, _ in EXTREMA_SHA256:
        args = cli.build_parser().parse_args(["extrema", *argv])
        params, sid = cli._coupling_params(args), args.state.upper()
        target = tmp_path / "extrema.csv"
        assert main(["extrema", *argv, "--output", str(target)]) == 0
        axes = {(x, y): a for x, y, a, _ in sm._FIXED_LABELS[sid]}
        n_qubits = 3 if sid.startswith("PG") else 2
        k = [Fraction(t) for t in sm._pauli_diagonal(params)]
        n_bonds = len(sm._bond_list(n_qubits, args.bonds)) if args.source == "direct" else n_qubits - 1
        c, s, _ = sm._LAW[sid]
        for row in target.read_text().splitlines()[1:]:
            if row.startswith("# CONSTANT"):
                continue
            x, y, value = map(float, row.split(",")[:3])
            assert (x, y) in axes, (argv, row)
            if args.source == "direct":
                exact = n_bonds * (Fraction(c).limit_denominator(3) * sum(k) + Fraction(s) * k[axes[x, y]])
            else:
                exact = _exact_closed_form(params, sid, x, y).d[0]
            assert abs(Fraction(value) - exact) <= 2.1e-16 * (1 + n_bonds * sum(map(abs, k))), (argv, row)
            rows_checked += 1
    assert rows_checked == 24


# SHA-256 of `surface` output as the per-row grid writer wrote it: the six
# `surface` rows of the benchmark's cli-surface table at unscaled couplings,
# a PG- window that is neither square nor symmetric, and the default
# 121 x 121 window.
XXZ_FLAGS = ["--model=xxz", "--j=1.0", "--jz=-2.0"]
SURFACE_SHA256 = [
    (["--state=P+", *XXZ_FLAGS, "--window=-2.5,2.5,-2.5,2.5", "--step=0.1"],
     "97f7d7bb5e49ff88484b1d9a53c636ca852188b681afce6094ba7c00bd1c62b7"),
    (["--state=P+", *XXZ_FLAGS, "--source=closed", "--window=-2.5,2.5,-2.5,2.5", "--step=0.1"],
     "06716286cc8a53cf6e7e658e4a395d7a2bc367dc2acdca8cfc15b4920479aa7a"),
    (["--state=G+", *GEN_FLAGS, "--window=-1.5,1.5,-1.5,1.5", "--step=0.06"],
     "01b10005b7734fc1c31b6cccd3a3d64463109bd8ef99a3cfba2a215ef853c1a6"),
    (["--state=PG+", *GEN_FLAGS, "--window=-1.02,1.02,-1.02,1.02", "--step=0.06"],
     "d58dff7cc033143cb33c7c8c4fe6399c2ac9b5db70d3fc809138a14aa8e23c14"),
    (["--state=P-", *GEN_FLAGS, "--source=closed", "--window=-2,2,-2,2", "--step=0.08"],
     "b61b59cb1dba7343e8648f3d39e995529e012415f05c2edca6971cb72f511333"),
    (["--state=P+", "--model=xxx", "--j=1.0", "--window=-1.25,1.25,-1.25,1.25", "--step=0.05"],
     "1b70eeadb5cbc85bb1db8c725b18b3c2e5d105e0a8007e46170d7e140a77d368"),
    (["--state=PG-", *PG_FLAGS, "--bonds=chain", "--source=closed", "--window=-1.3,2.1,-0.7,0.9", "--step=0.1"],
     "03c5372d5ad6ca688eaa8e4247f56318d376cfb8090c5907ddce0c9618a7024a"),
    (["--state=G+", *GEN_FLAGS], "d29f189bd046e235b866513f5f48a9ffa60cbe9c0c380f40c30f4231e440cdd9"),
]


@pytest.mark.parametrize("argv, digest", SURFACE_SHA256)
def test_surface_digests(argv, digest, tmp_path):
    target = tmp_path / "surface.csv"
    assert main(["surface", *argv, "--output", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_surface_pins_are_within_rounding_of_exact(tmp_path):
    """Every 7th cell of each pinned `surface` output is within 1.1e-15 (1 + n_bonds sum |K|) of its exact value:
    the rotation law in rational arithmetic (`_exact_law`) on the direct source, the closed form in rational
    arithmetic (`_exact_closed_form`) on the closed one, each at its own n_bonds and K (K' for XXZ P+).  Each
    `closed_minus_direct` is within 1e-15 of the exact difference, relative to the sum of both sources' scales.
    Over 4212 cells the worst measured are 2.71e-16 and 2.44e-16; the bounds are those times 4."""
    from test_spin_models import _exact_closed_form, _exact_law

    def law(params, sid, source, bonds):
        n_bonds = len(sm._bond_list(3 if sid.startswith("PG") else 2, bonds)) if source == "direct" else (
            2 if sid.startswith("PG") else 1)
        k = [Fraction(t) for t in sm._pauli_diagonal(params)]
        if source == "closed" and params.model == "XXZ":
            k = [-Fraction(params.hbar) ** 2 * Fraction(t) for t in (params.j, params.j, params.jz)]
        return n_bonds, k, 1 + n_bonds * sum(map(abs, k))

    cells = 0
    for argv, _ in SURFACE_SHA256:
        args = cli.build_parser().parse_args(["surface", *argv])
        params, sid = cli._coupling_params(args), args.state.upper()
        target = tmp_path / "surface.csv"
        assert main(["surface", *argv, "--output", str(target)]) == 0
        n_bonds, k, direct_scale = law(params, sid, "direct", args.bonds)
        closed_scale = law(params, sid, "closed", args.bonds)[2] if args.source == "closed" else None
        rows = [row for row in target.read_text().splitlines()[1:] if not row.startswith("#")]
        for row in rows[::7]:
            x, y, *values = row.split(",")
            x, y = float(x), float(y)
            direct = _exact_law(k, sid, n_bonds, x, y)
            if args.source == "direct":
                assert abs(Fraction(values[0]) - direct) <= 1.1e-15 * direct_scale, (argv, row)
            else:
                closed = _exact_closed_form(params, sid, x, y).d[0]
                assert abs(Fraction(values[0]) - closed) <= 1.1e-15 * closed_scale, (argv, row)
                gap = abs(Fraction(values[1]) - (closed - direct))
                assert gap <= 1e-15 * (closed_scale + direct_scale), (argv, row)
            cells += 1
    assert cells == 4212


# SHA-256 of `state` runs, per state, over these labels: signed zeros, the
# axes, a subnormal, a huge label and seeded random labels.  Each run adds
# its exit code, stdout and stderr to the digest.
STATE_LABELS = ["0,0", "-0,0", "0,-0", "1,0", "-1,0", "0,1", "0,-1", "1e-320,0", "0,1e-320",
                "1e300,0", "1e300,-1e300"] + [
    f"{x!r},{y!r}" for x, y in np.random.default_rng(19).uniform(-3.0, 3.0, (16, 2)).tolist()]
STATE_SHA256 = {
    "P+": "8cd8c8cdb804ba732ccb9cd433b57138ca097ba10db024ab657ba50d123c06e0",
    "P-": "337f9abeeea8b5e47a9728e51827324a90f41562fc8640ad7360a0f9fdd60cff",
    "G+": "a13003e4375f2ec8351e16ba2f07b4946a68cdf427f006b7ec1346ee5ddc1cd6",
    "G-": "ff1caea7fd4d73839393fbe2cb1983247d49d38587bcad78e8e751dca3b20ac1",
    "PG+": "f9c010367c2c5cd8d6c12009dc933907559bda4cdbf0b75d43d18387aea33d24",
    "PG-": "ef20c73ca6ef8aa560a2bb80a6eb4946c5217ae786a5259fee08df0a8a464d54",
}


@pytest.mark.parametrize("sid, digest", STATE_SHA256.items())
def test_state_digests(sid, digest, capsys):
    runs = []
    for label in STATE_LABELS:
        code = main(["state", "--state", sid, f"--psi={label}"])
        out, err = capsys.readouterr()
        runs.append(f"{code}\n{out}{err}")
    assert hashlib.sha256("".join(runs).encode()).hexdigest() == digest


def test_evolve_bytes_match_per_value_format(tmp_path):
    """`evolve` rows and footer are the library series written with format(x, ".17g"), on and off the circle."""
    target = tmp_path / "series.csv"
    assert main(["evolve", "--j", "1.3", "--theta", "0.9", "--hbar", "0.8", "--dt", "0.01",
                 "--output", str(target)]) == 0
    params = CouplingParams.xyz(jx=1.3, jy=1.3, jz=0.0, hbar=0.8)
    psi = complex(math.cos(0.9), math.sin(0.9))
    ts = 0.01 * np.arange(int(math.floor(4.0 * math.pi * 0.8 / 1.3 / 0.01 + 0.5)) + 1)
    revival = ev.revival_time(params, psi)
    expected = (
        "t,concurrence,fidelity,closed_form_C,closed_form_F\n"
        + _fmt_rows(
            ts,
            ev.concurrence_series(params, psi, ts).values,
            ev.fidelity_series(params, psi, ts).values,
            ev.closed_form_concurrence_reading(0.9, ts, 1.3, 0.8),
            ev.closed_form_fidelity(0.9, ts, 1.3, 0.8),
        )
        + f"# revival_time = {format(revival.time, '.17g')}\n"
    )
    assert target.read_text().splitlines(keepends=True) == expected.splitlines(keepends=True)

    # Off the circle and off XX: the numeric columns alone, over the default 4 pi hbar / max(|J|, 1).
    assert main(["evolve", "--jx", "0.8", "--jy=-0.3", "--jz", "1.1", "--psi", "0.5,0.4",
                 "--output", str(target)]) == 0
    params = CouplingParams.xyz(jx=0.8, jy=-0.3, jz=1.1)
    ts = 0.01 * np.arange(int(math.floor(4.0 * math.pi / 1.1 / 0.01 + 0.5)) + 1)
    expected = "t,concurrence,fidelity\n" + _fmt_rows(
        ts,
        ev.concurrence_series(params, 0.5 + 0.4j, ts).values,
        ev.fidelity_series(params, 0.5 + 0.4j, ts).values,
    )
    assert target.read_text().splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_surface_unknown_state_reads_the_same_on_both_sources():
    for source in ("direct", "closed"):
        proc = subprocess.run(CLI + ["surface", "--state", "XX", "--jx", "1", "--source", source],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("qcs surface: unknown state id 'XX'")


def test_surface_constant_marker():
    out = run_cli(
        "surface", "--state", "P+", "--model", "xxx", "--j", "1",
        "--window=-1,1,-1,1", "--step", "0.5",
    )
    marker = [ln for ln in out.splitlines() if ln.startswith("# CONSTANT")]
    assert len(marker) == 1
    assert "value=-0.5" in marker[0]


def test_window_whose_nodes_tie_by_symmetry_is_not_constant(tmp_path):
    """At step 3 this G+ window has four nodes, its corners, which tie by symmetry.  The surface still varies,
    so neither command prints the CONSTANT marker, and `extrema` lists the MINs at +-1 and the MAXs at +-i."""
    argv = ["--state", "G+", *GEN_FLAGS, "--window=-1.5,1.5,-1.5,1.5", "--step", "3"]
    for command in ("surface", "extrema"):
        target = tmp_path / f"{command}.csv"
        assert main([command, *argv, "--output", str(target)]) == 0
        text = target.read_text()
        assert "# CONSTANT" not in text
    assert text == ("x,y,value,kind\n-1,0,-0.30000000000000004,MIN\n1,0,-0.30000000000000004,MIN\n"
                    "0,-1,1.2000000000000002,MAX\n0,1,1.2000000000000002,MAX\n")
    surface = (tmp_path / "surface.csv").read_text().splitlines()
    assert len(surface) == 5 and len({row.split(",")[2] for row in surface[1:]}) == 1


def test_extrema_subcommand():
    out = run_cli(
        "extrema", "--state", "P+", "--model", "xxz", "--j", "1", "--jz", "-2",
        "--source", "closed", "--step", "0.1",
    )
    assert out.splitlines()[0] == "x,y,value,kind"
    lines = [ln for ln in out.splitlines()[1:] if ln and not ln.startswith("#")]
    assert len(lines) == 2
    for ln in lines:
        x, y, value, kind = ln.split(",")
        assert kind == "MIN"
        assert abs(float(value) + 4.0) < 1e-8
    values = [float(ln.split(",")[2]) for ln in lines]
    assert values == sorted(values)


def test_evolve_closed_form_columns_on_unit_circle():
    out = run_cli(
        "evolve", "--model", "xyz", "--jx", "1", "--jy", "1", "--jz", "0",
        "--theta", "0.5", "--t-max", "1.0", "--dt", "0.25",
    )
    header, body = parse_csv(out)
    assert header == ["t", "concurrence", "fidelity", "closed_form_C", "closed_form_F"]
    assert len(body) == 5
    for row in body:
        assert abs(row[2] - row[4]) < 1e-10  # numeric fidelity vs closed form
    assert any(ln.startswith("# revival_time") for ln in out.splitlines())


def test_evolve_off_circle_drops_closed_forms():
    # 1.0000001 is off the circle by 1e-7: no closed-form columns and no revival footer either.
    for psi in ("0.5,0", "1.0000001,0"):
        out = run_cli(
            "evolve", "--model", "xyz", "--jx", "1", "--jy", "1", "--jz", "0",
            "--psi", psi, "--t-max", "0.5", "--dt", "0.25",
        )
        header, _ = parse_csv(out)
        assert header == ["t", "concurrence", "fidelity"]
        assert not any(ln.startswith("#") for ln in out.splitlines()), psi


def test_evolve_generic_coupling_numeric_only():
    out = run_cli(
        "evolve", "--model", "xyz", "--jx", "1", "--jy", "0.5", "--jz", "0.2",
        "--psi", "1,0", "--t-max", "0.5", "--dt", "0.25",
    )
    header, body = parse_csv(out)
    assert header == ["t", "concurrence", "fidelity"]
    assert not any(ln.startswith("# revival") for ln in out.splitlines())


def test_verify_exits_zero_and_reports():
    out = run_cli("verify", "--seed", "3")
    assert "result: PASS" in out
    assert "summary:" in out


def test_outputs_are_deterministic_across_runs():
    args = [
        "surface", "--state", "PG+", "--model", "xyz", "--j-plus=-1",
        "--j-minus=-1", "--jz=-1", "--bonds", "chain", "--step", "0.5",
    ]
    assert run_cli(*args) == run_cli(*args)
    assert run_cli("verify", "--seed", "5") == run_cli("verify", "--seed", "5")


def test_output_file(tmp_path):
    target = tmp_path / "series.csv"
    run_cli(
        "evolve", "--model", "xyz", "--jx", "1", "--jy", "1", "--jz", "0",
        "--theta", "0.3", "--t-max", "0.2", "--dt", "0.1", "--output", str(target),
    )
    text = target.read_text()
    assert text.startswith("t,concurrence,fidelity")


def test_oversized_window_exits_two():
    """A window whose node count overflows is a usage error, not a traceback."""
    proc = subprocess.run(
        CLI + ["surface", "--state", "P+", "--jx", "1", "--window=-1e308,1e308,0,1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and "grid nodes" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["surface", "extrema"])
def test_window_whose_far_nodes_overflow_exits_two(command, capsys):
    """A finite window whose last grid node rounds past the doubles is a one-line usage error, with no
    RuntimeWarning."""
    argv = [command, "--state", "P+", "--jx", "1", "--jy", "0.5",
            "--window=1.7e308,1.75e308,1.7e308,1.75e308", "--step", "1e307"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"qcs {command}: window") and "beyond the double range" in err, err
    assert err.count("\n") == 1, err


BAD_TIME_GRIDS = [
    ["--dt", "0"],
    ["--t-max", "inf"],
    ["--dt", "inf"],
    ["--dt", "-0.1"],
    ["--t-max", "-1"],
    ["--dt", "nan"],
    ["--dt", "1e-9"],  # about 1.3e10 steps: over MAX_TIME_STEPS
]


def test_bad_time_grid_exits_two_without_traceback():
    """Time grids that raised ZeroDivisionError, OverflowError or ran out of memory fail cleanly."""
    for bad in (["--dt", "0"], ["--t-max", "inf"], ["--dt", "1e-9"]):
        proc = subprocess.run(
            CLI + ["evolve", "--j", "1", "--theta", "0.5", *bad], capture_output=True, text=True
        )
        assert proc.returncode == 2, bad
        assert proc.stdout == "" and "Traceback" not in proc.stderr, bad
        assert proc.stderr.startswith("qcs evolve: "), bad


# Each fails inside a command handler, which makes `main` return 2.
HANDLER_USAGE_ERRORS = [
    ["state", "--state", "NOPE"],
    ["surface", "--state", "P+", "--model", "xxz"],  # missing couplings
    ["surface", "--state", "P+", "--jx", "1", "--j-plus", "1"],  # mixed xyz forms
    ["surface", "--state", "P+", "--model", "xyz", "--jz", "1"],  # no xyz couplings
    ["extrema", "--state", "P+", "--model", "xxz", "--j", "0", "--jz", "1"],
    ["surface", "--state", "P+", "--jx", "nan", "--jy", "1"],
    ["evolve", "--model", "xxx", "--j", "1", "--hbar", "inf"],
    ["surface", "--state", "P+", "--jx", "1", "--window=0,inf,0,1"],
    ["extrema", "--state", "P+", "--jx", "1", "--step", "nan"],
    ["state", "--state", "P+", "--psi", "1,0", "--hbar", "0"],
    ["state", "--state", "P+", "--psi", "1,0", "--hbar", "-1"],
    ["state", "--state", "P+", "--psi", "1,0", "--hbar", "nan"],
    # Three-qubit states have no spin sums to scale, but --hbar is checked all the same.
    ["state", "--state", "PG+", "--psi", "1,0", "--hbar", "nan"],
    ["state", "--state", "PG+", "--psi", "1,0", "--hbar", "-1"],
    ["state", "--state", "PG-", "--psi", "1,0", "--hbar", "0"],
    ["state", "--state", "PG-", "--psi", "1,0", "--hbar", "inf"],
]


def test_usage_errors_exit_two(capsys):
    # Through the entry point: one handler failure and one argparse failure.
    run_cli("surface", "--state", "P+", "--model", "xxz", "--j", "1", "--jz", "-2",
            "--window=3,-3,-3,3", expect=2)
    run_cli("state", "--state", "P+", "--psi", "1,0", "--theta", "0.5", expect=2)  # two labels
    # In-process: the subprocess route is tested just above.
    for argv in HANDLER_USAGE_ERRORS:
        assert main(argv) == 2, argv
        assert capsys.readouterr().out == "", argv
    for bad in BAD_TIME_GRIDS:
        assert main(["evolve", "--model", "xyz", "--jx", "1", "--jy", "0.5", "--psi", "1,0", *bad]) == 2


@pytest.mark.parametrize("parse, argv, message", [
    (cli._parse_psi, ["state", "--state", "P+", "--psi", "1,2,3"], "--psi expects 're,im', got '1,2,3'"),
    (lambda args: cli._parse_window(args.window), ["surface", "--state", "P+", "--jx", "1", "--window=0,1,0"],
     "--window expects 'x_min,x_max,y_min,y_max', got '0,1,0'"),
    (cli._parse_psi, ["evolve", "--j", "1", "--psi=1,i"], "could not convert string to float: 'i'"),
    (lambda args: cli._parse_window(args.window), ["extrema", "--state", "P+", "--jx", "1", "--window=0,1,0,1e"],
     "could not convert string to float: '1e'"),
    (cli._coupling_params, ["surface", "--state", "P+", "--model", "xxx"], "XXX needs --j"),
    (cli._coupling_params, ["extrema", "--state", "P+", "--model", "xxz", "--jz", "1"], "XXZ needs --j"),
    (cli._evolve_params, ["evolve", "--model", "ising", "--j", "1", "--psi", "1,0"], "unknown model 'ising'"),
])
def test_parse_errors_are_bad_params(parse, argv, message, capsys):
    """The CLI's own argument parsing raises BadParams, and `main` reports it as before: one line, exit 2."""
    with pytest.raises(BadParams) as raised:
        parse(cli._parser().parse_args(argv))
    assert str(raised.value) == message
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"qcs {argv[0]}: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "--state", "P+", "--psi", "1.7e308,1.7e308"],
        ["state", "--state", "PG-", "--psi=-1.7e308,1.7e308"],
        ["evolve", "--j", "1", "--psi", "1.7e308,1.7e308"],
        ["evolve", "--jx", "0.8", "--jy", "0.3", "--psi", "1.7e308,-1.7e308"],
    ],
)
def test_label_whose_modulus_overflows_exits_two(argv, capsys):
    """A finite label whose |psi| overflows is a one-line usage error, not an OverflowError traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"qcs {argv[0]}: label |psi| overflows") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, message",
    [
        # hbar^2 overflows in the XXZ and XXX bond coefficients.
        (["surface", "--state", "G+", "--model", "xxz", "--j", "1", "--delta", "0.5", "--hbar", "1e300"],
         "bond coefficients"),
        (["extrema", "--state", "G+", "--model", "xxz", "--j", "1", "--delta", "0.5", "--hbar", "1e160"],
         "bond coefficients"),
        (["surface", "--state", "P+", "--model", "xxx", "--j", "1e300", "--hbar", "1e10"], "bond coefficients"),
        # Huge XYZ couplings: finite coefficients whose energies overflow on the grid, or at the MAX psi = 0
        # (1.8e308) of a window whose nodes stay finite.
        (["surface", "--state", "G+", "--jx", "1.2e308", "--jy", "1.2e308", "--jz=-1.2e308", "--window=-1,0.5,-0,1",
          "--step", "0.5"], "grid overflow"),
        (["extrema", "--state", "G+", "--jx", "1.2e308", "--jy", "1.2e308", "--jz=-1.2e308",
          "--window=-0.25,0.25,-0.2,0.3", "--step", "0.5"], "energy at (0.0, 0.0) overflows"),
        (["surface", "--state", "PG+", "--jx", "1", "--jy", "1", "--jz", "1.7e308", "--step", "0.5"],
         "Hamiltonian overflows"),
    ],
)
def test_overflowing_couplings_exit_two(argv, message, capsys):
    """Couplings or hbar whose energies overflow are a one-line BadParams, with no output and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"qcs {argv[0]}: ") and message in err and err.count("\n") == 1, err


def test_extrema_of_couplings_whose_curvature_overflows(capsys):
    """G+ at jx = 1.7e308 has curvatures beyond the double range but representable extrema: they are listed, with
    no warning and no inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["extrema", "--state", "G+", "--jx", "1.7e308", "--jy", "3", "--step", "0.5"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == ["x,y,value,kind", "-1,0,-8.4999999999999997e+307,MIN",
                                "1,0,-8.4999999999999997e+307,MIN", "0,0,8.4999999999999997e+307,MAX"]


CLOSED_G = ["surface", "--state", "G+", "--source", "closed"]


def test_closed_overflow_blames_the_couplings_or_the_labels(tmp_path, capsys):
    """Huge couplings are named in the message; only huge labels send the user to the direct source."""
    huge_couplings = CLOSED_G + ["--jx", "1.7e308", "--jy=-1.7e308", "--step", "0.5"]
    huge_labels = CLOSED_G + ["--jx", "1", "--jy", "0.5", "--window=1e80,2e80,0,1", "--step", "1e80"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(huge_couplings) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("qcs surface: closed form overflows at couplings this large: CouplingParams(")
        assert "jx=1.7e+308, jy=-1.7e+308" in err and "direct" not in err and err.count("\n") == 1, err
        assert main(huge_labels) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qcs surface: closed form overflows at labels this large; use the direct source\n"
        direct = huge_labels[:3] + huge_labels[5:]
        assert main(direct + ["--output", str(tmp_path / "direct.csv")]) == 0


# One process, one parser: label flags that must not leak into the next
# call, two surface windows, and an argparse error between good calls.
PARSER_SEQUENCE = [
    ["evolve", "--j", "1", "--theta", "0.5", "--t-max", "0.5", "--dt", "0.25"],
    ["evolve", "--j", "1", "--psi", "0.5,0", "--t-max", "0.5", "--dt", "0.25"],
    ["state", "--state", "P+", "--theta", "0.5"],
    ["state", "--state", "P+", "--psi", "0.3,0.4"],
    ["surface", "--state", "P+", "--jx", "1", "--jy", "0.5", "--window=-1,1,-1,1", "--step", "0.5"],
    ["surface", "--state", "G+", "--jx", "1", "--jy", "0.5", "--jz", "0.2", "--source", "closed",
     "--window=-0.5,0.5,0,1", "--step", "0.25"],
    ["state", "--state", "P+", "--psi", "1,0", "--theta", "0.5"],  # two labels: argparse exits 2
    ["state", "--state", "P+"],
]


def _run_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_matches_a_fresh_parser(monkeypatch, capsys):
    """`main` reuses one parser; each call gives the bytes and exit code a fresh parser gives."""
    cached = [_run_in_process(argv, capsys) for argv in PARSER_SEQUENCE]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_run_in_process(argv, capsys) for argv in PARSER_SEQUENCE]
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert cached == fresh


def test_main_builds_its_parser_once(monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    cli._parser.cache_clear()
    try:
        for theta in ("0.1", "0.2", "0.3"):
            assert main(["state", "--state", "P+", "--theta", theta, "--output", os.devnull]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_evolve_calls_each_public_series_once(monkeypatch):
    """The concurrence and fidelity columns of `evolve` come from one call of each public series."""
    calls = []
    for name in ("concurrence_series", "fidelity_series"):
        series = getattr(ev, name)
        monkeypatch.setattr(ev, name, lambda *args, name=name, series=series: calls.append(name) or series(*args))
    assert main(["evolve", "--jx", "1", "--jy", "0.5", "--jz", "0.2", "--psi", "1,0",
                 "--t-max", "0.5", "--dt", "0.25", "--output", os.devnull]) == 0
    assert calls == ["concurrence_series", "fidelity_series"]


def test_evolve_circle_test_takes_a_label_whose_modulus_overflows(monkeypatch, capsys):
    """Where |psi| overflows the label is off the unit circle: no closed-form columns, no footer, no OverflowError.

    The series reject such a label first, so here they are stood in for by series that take it."""
    for name in ("concurrence_series", "fidelity_series"):
        monkeypatch.setattr(ev, name, lambda params, psi, ts: ev.TimeSeries(ts, np.ones_like(ts)))
    assert main(["evolve", "--j", "1", "--psi", "1.7e308,1.7e308", "--t-max", "0.5", "--dt", "0.25"]) == 0
    assert capsys.readouterr().out == "t,concurrence,fidelity\n0,1,1\n0.25,1,1\n0.5,1,1\n"


# SHA-256 of `qcs surface --help` and `qcs extrema --help` at 80 columns; the two share one set of flags.
GRID_HELP_DIGESTS = {
    "surface": "478cda572c6182da7cf2271f25db8a27f0b5efa43eec87f1715b92deae6235d9",
    "extrema": "74604823be73eaff3a8e0aba6e17bde2600540cd0fe943b6801237e1de531e15",
}


@pytest.mark.parametrize("command", sorted(GRID_HELP_DIGESTS))
def test_grid_command_help_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args([command, "--help"])
    assert exit_info.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GRID_HELP_DIGESTS[command]


def test_evolve_footer_at_extreme_coupling(tmp_path):
    """At J = 1e300 the footer is the first revival, pi hbar / J, with no overflow warning."""
    target = tmp_path / "series.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["evolve", "--j", "1e300", "--theta", "0.5", "--t-max", "0.02",
                     "--output", str(target)]) == 0
    footer = target.read_text().splitlines()[-1]
    assert footer.startswith("# revival_time = ")
    assert abs(float(footer.split("=")[1]) - math.pi * 1e-300) <= 1e-4 * 1e-300


def test_evolve_rejects_revival_coupling_before_writing(tmp_path, capsys):
    """A coupling the revival search rejects exits 2 and writes nothing, to a file or to stdout."""
    argv = ["evolve", "--jx", "1e300", "--jy", "1e300", "--jz", "0", "--hbar", "1e-10", "--theta", "0.7"]
    target = tmp_path / "series.csv"
    assert main(argv + ["--output", str(target)]) == 2
    assert not target.exists() or target.read_text() == ""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qcs evolve: ") and "revival time" in err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_broken_pipe_exits_quietly(unbuffered):
    """A reader that has gone away ends the command with 141 (128 + SIGPIPE), not a traceback.

    Buffered, the pipe breaks on the final flush; unbuffered, on the first write.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes anything
    try:
        proc = subprocess.run(
            CLI + ["state", "--state", "P+", "--theta", "0.5"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


START_PATH = """
import os, sys
import qcs.cli
qcs.cli.build_parser()
for argv in (
    ["evolve", "--j", "1", "--theta", "0.5"],
    ["extrema", "--state", "P+", "--model", "xxz", "--j", "1", "--jz", "-2"],
    ["verify", "--seed", "0"],
):
    assert qcs.cli.main(argv + ["--output", os.devnull]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_start_path_does_not_load_scipy():
    """Import, parser, evolve, extrema without saddles and verify all run without SciPy."""
    proc = subprocess.run([sys.executable, "-c", START_PATH], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


MODULE_PATH = """
import json, os, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "qcs")
import qcs.cli
qcs.cli.build_parser()
steps = {"import": loaded()}
for argv in (
    ["surface", "--state", "G+", "--jx", "1", "--jy", "0.5", "--jz", "0.2", "--step", "0.5"],
    ["extrema", "--state", "P+", "--model", "xxz", "--j", "1", "--jz", "-2"],
    ["state", "--state", "P+", "--theta", "0.5"],
    ["evolve", "--j", "1", "--theta", "0.5"],
    ["verify", "--seed", "0"],
):
    assert qcs.cli.main(argv + ["--output", os.devnull]) == 0, argv
    steps[argv[0]] = loaded()
print(json.dumps(steps))
"""


def test_each_command_loads_only_the_modules_it_runs():
    """`import qcs.cli` loads the grid path's modules and nothing more; `state`, `evolve` and `verify` add
    their own modules as they first run, in one process, in this order."""
    proc = subprocess.run([sys.executable, "-c", MODULE_PATH], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    steps = {name: set(loaded) for name, loaded in json.loads(proc.stdout).items()}
    grid_path = {f"qcs.{m}" for m in ("cli", "coherent_states", "complex_geometry", "entangled_basis", "errors",
                                       "gates", "operators", "spin_models")} | {"qcs"}
    assert steps["import"] == steps["surface"] == steps["extrema"] == grid_path
    assert steps["state"] == grid_path | {"qcs.entanglement_measures"}
    assert steps["evolve"] == steps["state"] | {"qcs.evolution"}
    assert steps["verify"] == steps["evolve"] | {"qcs.verify"}


# Edge values of the double range, and ordinary magnitudes in [0.25, 4]: a
# window span over a step, or t_max over dt, then stays a few thousand nodes
# or rows unless the command rejects it.  Ordinary values come first, as
# Hypothesis draws earlier branches more often, so that many argv get past
# every check.
EDGE = st.sampled_from(["0", "1e-320", "-1e-320", "1e-300", "1e300", "1.7e308", "-1.7e308", "nan", "inf", "-inf"])
MAGNITUDE = st.floats(0.25, 4.0).map(repr)
NEGATIVE = st.floats(0.25, 4.0).map(lambda m: repr(-m))
FUZZ_VALUES = st.one_of(MAGNITUDE, NEGATIVE, EDGE)
POSITIVE_VALUES = st.one_of(MAGNITUDE, EDGE)
MODEL_FLAGS = {"xyz": [["jx", "jy", "jz"], ["j-plus", "j-minus"]], "xxz": [["j", "delta"], ["j", "jz"]], "xxx": [["j"]]}
COUPLING_FLAGS = ["hbar", "jz", "j", "delta", "jx", "jy", "j-plus", "j-minus"]


@st.composite
def fuzz_argv(draw):
    """Random argv for `state`, `surface`, `extrema` or `evolve`, every value as --flag=value.

    Each model gets one complete set of its coupling flags and may get a
    stray flag more; a window's ordinary edges lie either side of 0.
    """
    command = draw(st.sampled_from(["state", "surface", "extrema", "evolve"]))
    argv = [command]
    if command != "evolve":
        argv.append("--state=" + draw(st.sampled_from(["P+", "P-", "G+", "G-", "PG+", "PG-", "Q+"])))
    if command != "state":
        # `evolve` takes XYZ couplings only, and --j alone as the XX model.
        model = "xyz" if command == "evolve" else draw(st.sampled_from(list(MODEL_FLAGS)))
        sets = MODEL_FLAGS[model] + ([["j"]] if command == "evolve" else [])
        flags = draw(st.sampled_from(sets)) + draw(st.lists(st.sampled_from(COUPLING_FLAGS), max_size=1))
        argv += [f"--model={model}", *(f"--{flag}={draw(FUZZ_VALUES)}" for flag in dict.fromkeys(flags))]
    if command in ("surface", "extrema"):
        edges = [draw(st.one_of(NEGATIVE, EDGE) if k % 2 == 0 else POSITIVE_VALUES) for k in range(4)]
        argv += ["--window=" + ",".join(edges), f"--step={draw(POSITIVE_VALUES)}",
                 "--source=" + draw(st.sampled_from(["direct", "closed"])),
                 "--bonds=" + draw(st.sampled_from(["all-pairs", "chain"]))]
    else:
        label = draw(st.sampled_from(["psi", "theta", None]))
        if label == "psi":
            argv.append(f"--psi={draw(FUZZ_VALUES)},{draw(FUZZ_VALUES)}")
        elif label == "theta":
            argv.append(f"--theta={draw(FUZZ_VALUES)}")
    if command == "state" and draw(st.booleans()):
        argv.append(f"--hbar={draw(POSITIVE_VALUES)}")
    if command == "evolve":
        argv.append(f"--dt={draw(POSITIVE_VALUES)}")
        if draw(st.booleans()):
            argv.append(f"--t-max={draw(POSITIVE_VALUES)}")
    return argv


def _numeric_cells(text):
    """Every cell of the output that reads as a float or a complex number."""
    for token in text.replace(",", " ").replace("=", " ").replace(":", " ").split():
        for parse in (float, complex):
            try:
                yield parse(token)
                break
            except ValueError:
                pass


@seed(23)
@settings(max_examples=300, deadline=None)
@given(argv=fuzz_argv())
def test_fuzzed_argv_exit_cleanly_with_finite_cells(argv):
    """Any argv of these commands exits 0 or 2, warns nothing, and prints only finite numbers."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert not caught, (argv, [str(w.message) for w in caught])
    assert all(np.isfinite(cell) for cell in _numeric_cells(out.getvalue())), argv
