"""Record a baseline: every workload on several seeds, plus one traced run each.

    python3 bench/baseline.py [--out FILE]

It runs seeds 1 to 10 for `run_seconds` from BENCHMARK.json each and writes
bench/baseline.json, or FILE (say, a second set to compare with the first).
For each end-to-end metric it stores the median, the quartiles and the
spread (quartile distance over the median) across seeds, next to the output
digests, failure counts and the traced per-layer figures of the first seed.
It also records the Python and numpy versions, nproc, the CPU model and the
git commit the program came from.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def environment() -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "git_sha": sha}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args()

    result = {"environment": environment(), "seeds": list(SEEDS), "run_seconds": SECONDS,
              "workloads": {}}
    for name in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in SEEDS:
            report, res = run(name, seed, SECONDS, 0)
            runs.append({"seed": seed, "attempted": res["attempted"], "failed": res["failed"],
                         "correct": res["correct"], "failed_frac": report["failed_frac"],
                         "latency_samples": report["latency_samples"],
                         "distinct_queries": report["distinct_queries"],
                         "wall_clock": report["wall_clock"], "speed": report["speed"],
                         "output_digest": report["output_digest"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(name, seed, runs[-1]["metrics"], flush=True)
        summary = {}
        for k, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            summary[k] = {"median": statistics.median(v), "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(v)}
        report, res = run(name, SEEDS[0], SECONDS, 1)
        result["workloads"][name] = {
            "end_to_end": summary, "runs": runs,
            "traced": {"seed": SEEDS[0], "correct": res["correct"],
                       "metrics": {k: v["value"] for k, v in res["metrics"].items()}},
        }
        print(name, json.dumps(summary), flush=True)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    print("median over seeds (quartile spread)")
    for name, w in result["workloads"].items():
        cells = [f"{k} {v['median']:.4g} {units[k]} ({v['spread']:.3f})"
                 for k, v in w["end_to_end"].items()]
        runs = w["runs"]
        cells.append(f"failed_frac {statistics.median(r['failed_frac'] for r in runs):.4g} ratio")
        cells.append(f"samples >= {min(r['latency_samples'] for r in runs)} executions of "
                     f"{runs[0]['distinct_queries']} distinct queries")
        print(f"{name}: " + "; ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
