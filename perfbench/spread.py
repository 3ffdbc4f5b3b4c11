"""Run the benchmark over several seeds and report each metric's quartile spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload cli-surface --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --workload all --seeds 1-10 --seconds 20 --save runs.json

For every end-to-end metric it prints the median over the seeds and the
spread (q3 - q1) / median, with q1 and q3 from
`statistics.quantiles(values, n=4)`.  Runs go one after another, each in
its own process, exactly as `run.py` is run on its own.  `--save` writes
every run's result line to a JSON file (used to build baseline.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"spread: {workload} seed {seed} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' for those BENCHMARK.json lists")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's result line to this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    names = listed if args.workload == "all" else [args.workload]
    seeds = parse_seeds(args.seeds)
    saved = {}
    for workload in names:
        results = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false", flush=True)
            results.append(result)
            values = "  ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {values}", flush=True)
        saved[workload] = {"seeds": seeds, "results": results}
        if len(results) < 2:
            continue
        for name in results[0]["metrics"]:
            s = summary([r["metrics"][name]["value"] for r in results])
            print(
                f"{workload:>15}  {name:<14} median {s['median']:<12.6g}"
                f" spread {s['spread']:.3f}",
                flush=True,
            )
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
