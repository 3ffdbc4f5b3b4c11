"""Benchmark for qcs: seeded workloads timed through the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-surface --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Load model: one client in a closed loop, in one fresh Python process per
workload.  QCS_THREADS is left as the environment has it (normally unset)
and recorded.  One warm-up operation runs before timing.  CLI operations
run in-process through `qcs.cli.main(argv)` with output to a file in
`.perfbench_work/`; interpreter start-up is measured on its own as
`setup_s`.  Operations run in whole cycles (see workloads.py) until
`--seconds` have passed, so every run does the same mix of work.  Each
operation's output is checked against an independent reference after
its timer stops.

Besides the benchmark's workloads (workloads.WORKLOADS), `--workload
verify` times `qcs verify --seed s` on request; it is not one of the
benchmark's because of a seed-dependent FAIL in qcs (see workloads.py).

`--trace 0` prints the end-to-end metrics; `--trace 1` runs half the time
untraced and half traced and prints the per-layer metrics.  The last line
of output is one JSON object; a full record (environment, tail
percentile, failures, n/a layers) goes to `.perfbench_out/`, and traced
runs also write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
SETUP_CODE = "import qcs.cli; qcs.cli.build_parser()"
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

def _load_program():
    """Import qcs from this checkout's src/, or exit non-zero if it is not there."""
    if not (SRC / "qcs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qcs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcs

    if Path(qcs.__file__).resolve().parent != SRC / "qcs":
        sys.exit(f"perfbench: imported qcs from {qcs.__file__}, not from {SRC}")


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcs").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "QCS_THREADS": os.environ.get("QCS_THREADS"),
    }


def measure_setup() -> float:
    """Median wall time of fresh interpreters that import qcs and build the CLI parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_cycles(cycles, seconds: float, check_rng: random.Random, tracer=None) -> list:
    """Run whole cycles until `seconds` have passed; returns (spec, outcome) pairs."""
    import workloads

    done = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        for spec in next(cycles):
            done.append((spec, workloads.execute(spec, str(WORK), check_rng, tracer)))
    return done


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND operations beyond it.

    With too few operations for that, the slowest operation (percentile 100).
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(done: list, setup_s: float) -> tuple[dict, dict]:
    durations = [outcome.seconds for _, outcome in done]
    tail_s, tail_pct = tail(durations)
    failed = sum(1 for _, outcome in done if outcome.error)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": 1e3 * statistics.median(durations),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "op_tail_percentile": tail_pct,
        "ops": len(durations),
        "fail_ratio": failed / len(durations),
    }
    return metrics, extra


def run_traced(cycles, seconds: float, check_rng: random.Random):
    from layers import install_tracer

    tracer = install_tracer()
    try:
        return run_cycles(cycles, seconds, check_rng, tracer), tracer
    finally:
        tracer.unpatch()


def run_workload(args) -> int:
    import workloads

    env = environment(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    cycles = workloads.cycles(args.workload, args.seed)
    check_rng = random.Random(f"check:{args.workload}:{args.seed}")
    try:
        setup_s = None if args.trace else measure_setup()
        warmup = workloads.execute(next(cycles)[0], str(WORK), check_rng)
        if args.trace:
            untraced = run_cycles(cycles, args.seconds / 2.0, check_rng)
            traced, tracer = run_traced(cycles, args.seconds / 2.0, check_rng)
            done = untraced + traced
            from layers import per_layer, per_layer_units

            units = per_layer_units(args.workload)
            metrics, na = per_layer(tracer, untraced, traced, units)
            tracer.write(str(OUT / f"{args.workload}-seed{args.seed}-spans.tsv"))
            extra = {"not_applicable": na}
        else:
            done = run_cycles(cycles, args.seconds, check_rng)
            metrics, extra = end_to_end(done, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = sum(1 for _, outcome in done if outcome.error)
    errors = [(spec, outcome.error) for spec, outcome in [(None, warmup)] + done if outcome.error]
    result = {
        "correct": not errors,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"environment": env, **extra, "errors": errors[:20], "result": result}
    mode = "trace" if args.trace else "e2e"
    with open(OUT / f"{args.workload}-seed{args.seed}-{mode}.json", "w") as handle:
        json.dump(record, handle, indent=1)

    print("environment " + json.dumps(env))
    for name, unit in units.items():
        mark = " (n/a: layer does no work here)" if name in extra.get("not_applicable", ()) else ""
        print(f"{args.workload:>15}  {name:<58} {metrics[name]:>14.6g} {unit}{mark}")
    if not args.trace:
        print(
            f"{args.workload:>15}  {'fail_ratio':<58} {extra['fail_ratio']:>14.6g} fraction"
            f" ({result['failed']}/{result['attempted']})"
        )
        print(
            f"{args.workload:>15}  op_tail_ms is p{extra['op_tail_percentile']:.4g}"
            f" of {extra['ops']} operations"
        )
    for spec, error in errors[:5]:
        print(f"FAILED {json.dumps(spec)}: {error}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            sys.exit(f"perfbench: workload {workload} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        help="a workload name (the benchmark's, or 'verify'), or 'all' for the benchmark's",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
