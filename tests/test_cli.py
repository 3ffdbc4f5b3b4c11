import csv
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qcs import cli
from qcs import evolution as ev
from qcs.cli import main
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


def test_evolve_bytes_match_per_value_format(tmp_path):
    """`evolve` rows and footer are the library series written with format(x, ".17g")."""
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


def test_surface_constant_marker():
    out = run_cli(
        "surface", "--state", "P+", "--model", "xxx", "--j", "1",
        "--window=-1,1,-1,1", "--step", "0.5",
    )
    marker = [ln for ln in out.splitlines() if ln.startswith("# CONSTANT")]
    assert len(marker) == 1
    assert "value=-0.5" in marker[0]


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


def test_evolve_propagates_once(monkeypatch):
    """Concurrence and fidelity columns come from one spectral propagation."""
    calls = []
    propagator = ev._spectral_propagator
    monkeypatch.setattr(ev, "_spectral_propagator", lambda h, hbar: calls.append(1) or propagator(h, hbar))
    assert main(["evolve", "--jx", "1", "--jy", "0.5", "--jz", "0.2", "--psi", "1,0",
                 "--t-max", "0.5", "--dt", "0.25", "--output", os.devnull]) == 0
    assert len(calls) == 1


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
    """A coupling the revival scan rejects exits 2 and writes nothing, to a file or to stdout."""
    argv = ["evolve", "--jx", "1e300", "--jy", "1e300", "--jz", "0", "--hbar", "1e-10", "--theta", "0.7"]
    target = tmp_path / "series.csv"
    assert main(argv + ["--output", str(target)]) == 2
    assert not target.exists() or target.read_text() == ""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qcs evolve: ") and "revival scan" in err


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
