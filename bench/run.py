"""quivermod benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop caller in one process: each query starts when the previous
one has returned, and no query passes `jobs` or `budget`. The run builds the
workload's fixed query set from the seed, executes it once in full, and then
keeps executing whole rounds of it until S seconds have passed. Each
execution's time is scaled to nominal machine speed (see "machine speed"
below and README.md); throughput and latency quantiles are taken over all
executions of the run.

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see bench/README.md). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it is a report with the output digest, failed_frac, sample
counts and the first failures.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBES = 7          # fresh interpreters timed per run; setup_s is their median
OUT_DIR = ROOT / ".bench_out"


# --- machine speed ------------------------------------------------------------
#
# The machine is shared: its speed changes by up to 2x within a minute, and the
# change is invisible from inside (CPU time equals wall time, no steal, no run
# delay). So the run times a fixed reference kernel between queries, at least
# EVERY_S apart, and reports each time scaled to the speed at which the kernel
# takes REFERENCE_S (bench/README.md, "Machine speed"). The kernel shares no
# code with quivermod and does the same kinds of work: int and Fraction
# elimination in pure Python, small int64 numpy products, tuple-keyed dicts.

REFERENCE_S = 0.003   # the kernel's time at nominal speed
_REF_RNG = random.Random(0)
_REF_INT = [[_REF_RNG.randrange(1000003) for _ in range(12)] for _ in range(12)]
_REF_FRAC = [[Fraction(_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9)) for _ in range(7)]
             for _ in range(7)]
_REF_NP = np.array([[_REF_RNG.randrange(101) for _ in range(6)] for _ in range(6)],
                   dtype=np.int64)


def reference_kernel() -> None:
    import checker
    checker.det(_REF_INT, 1000003)
    checker.det(_REF_FRAC, None)
    x = _REF_NP
    for _ in range(300):
        x = np.dot(x, _REF_NP) % 101
    memo: dict = {}
    for a in range(60):
        for b in range(60):
            memo[(a, b)] = memo.get((b, a), 0) + a * b


def reference_time(repeat: int = 3) -> float:
    """Median time of `repeat` runs of the reference kernel."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speedometer:
    """Reference-kernel timings taken between queries through the run."""

    EVERY_S = 0.1

    def __init__(self):
        self.at: list[float] = []
        self.ref: list[float] = []

    def sample(self, force: bool = False) -> None:
        if force or not self.at or time.perf_counter() - self.at[-1] >= self.EVERY_S:
            self.ref.append(reference_time())
            self.at.append(time.perf_counter())

    def factor(self, start: float) -> float:
        """Scale to nominal speed for a query that started at `start`: from
        the kernel timings just before and just after it."""
        i = bisect.bisect(self.at, start)
        near = self.ref[max(0, i - 1):i + 1]
        return REFERENCE_S / statistics.mean(near)

    def run_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.ref)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# Set-up probes are process start-up and import work, which the kernel above
# tracks poorly. So each probe is scaled instead by a reference process timed
# just before and just after it: a fresh interpreter that imports numpy and
# the standard modules quivermod imports, and nothing of quivermod.
REFERENCE_PROCESS = ("import numpy, argparse, dataclasses, fractions, functools, itertools, "
                     "json, random, re, typing")
REFERENCE_PROCESS_S = 0.2   # its time at nominal speed: about a bare `import numpy`


def timed_process(args: list[str]) -> tuple[float, str]:
    """Wall time and standard output of one process run to completion."""
    start = time.perf_counter()
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args[1:])} failed: {done.stderr.strip()}")
    return wall, done.stdout


def probe_setups(workload: str, seed: int) -> list[tuple[float, float, dict]]:
    """PROBES fresh interpreters' set-up: for each, the scale to nominal speed,
    the wall time and the phase times."""
    def reference() -> float:
        return timed_process([sys.executable, "-c", REFERENCE_PROCESS])[0]

    refs = [reference()]
    setups = []
    for _ in range(PROBES):
        wall, out = timed_process([sys.executable, str(BENCH / "probe.py"), workload, str(seed)])
        refs.append(reference())
        setups.append((REFERENCE_PROCESS_S / statistics.mean(refs[-2:]), wall,
                       json.loads(out.strip().splitlines()[-1])))
    return setups


# What the int64 matmul overflow at p = 2^31 - 1 (ROADMAP item 3) looks like,
# by query kind: a wrong semi-invariant value or law, or exact inverses that
# fail the program's own relation check. Nothing else is excused.
OVERFLOW_SIGNATURE = {
    "law": ("d_sigma(M) = ", "d_sigma(g.M) = ", "d_sigma(g.M) != chi_theta(g)^z"),
    "check-point": ("exact inverses reported as failing the relation check",),
}


def known_overflow(query, problems) -> bool:
    signature = OVERFLOW_SIGNATURE.get(query.kind, ())
    return query.known_defect and all(p.startswith(signature) for p in problems)


class Ledger:
    """Outcome of every distinct query. The first run of a query is checked
    independently; a later run must give the same answer, byte for byte.
    `attempted` and `failed` count distinct queries, so they depend on the
    seed alone and not on how many rounds a run had time for."""

    def __init__(self, workloads, checker):
        self.workloads = workloads
        self.checker = checker
        self.first: dict[int, tuple[str, list[str]]] = {}
        self.failures: dict[int, tuple[object, list[str]]] = {}

    @property
    def attempted(self) -> int:
        return len(self.first)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def settle(self, query, out) -> None:
        w = self.workloads
        rec = None
        if isinstance(out, Exception):
            text = f"raised {type(out).__name__}: {out}"
            problems = [text]
        else:
            try:
                rec = w.record(query, out)
                text = w.canonical(rec)
                problems = []
            except Exception as exc:  # a malformed answer counts as a failure
                text = f"unreadable answer: {type(exc).__name__}: {exc}"
                problems = [text]
        h = w.digest(text)
        if query.qid not in self.first:
            if rec is not None:
                try:
                    problems = self.checker.check(query.kind, query.spec, rec)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.first[query.qid] = (h, problems)
        else:
            problems = [] if h == self.first[query.qid][0] else \
                ["answer differs from this query's first run"]
        if problems:
            known = self.failures.setdefault(query.qid, (query, []))[1]
            known.extend(p for p in problems if p not in known)

    def output_digest(self) -> str:
        return self.workloads.digest("".join(h for _, (h, _) in sorted(self.first.items())))

    def correct(self) -> bool:
        """Every failure is the known int64 overflow at p = 2^31 - 1."""
        return all(known_overflow(q, problems) for q, problems in self.failures.values())


def run_round(workloads, ledger, rnd, speed=None) -> list[tuple[int, float, float]]:
    """Run the round's queries; (query id, start, duration) of each."""
    times = []
    for query in rnd:
        if speed is not None:
            speed.sample()
        start = time.perf_counter()
        try:
            out = workloads.call(query)
        except Exception as exc:  # counted, never fatal
            out = exc
        times.append((query.qid, start, time.perf_counter() - start))
        ledger.settle(query, out)
    return times


def run_traced_round(workloads, ledger, tracer, rnd) -> list[tuple[int, float, float]]:
    times = []
    tracer.install()
    try:
        for query in rnd:
            tracer.query_id = query.qid
            root = tracer.open(tracer.name_id(f"query.{query.kind}"))
            start = time.perf_counter()
            try:
                out = workloads.call(query)
            except Exception as exc:
                out = exc
            times.append((query.qid, start, time.perf_counter() - start))
            tracer.close(root)
            if isinstance(out, str):  # localize, root: the serialised record
                tracer.counts["localization.output_bytes"] += len(out.encode())
            ledger.settle(query, out)
    finally:
        tracer.uninstall()
        tracer.query_id = -1
    return times


def latency_metrics(latencies: list[float]) -> dict:
    """Throughput and latency quantiles over all executions of the run."""
    return {
        "queries_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def end_to_end(latencies, setups) -> dict:
    lat = latency_metrics(latencies)
    return {
        "setup_s": (statistics.median(f * w for f, w, _ in setups), "s"),
        "queries_per_s": (lat["queries_per_s"], "1/s"),
        "latency_p50_ms": (lat["latency_p50_ms"], "ms"),
        "latency_p90_ms": (lat["latency_p90_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, setup, passes, setups, untraced, traced, setup_wall) -> dict:
    """Per-layer figures for one session: set-up once plus one pass over the
    fixed query set (query-phase totals divided by the number of passes).
    `setup` holds the span calls, self times and counts after set-up."""
    by_name, calls = tracer.summary()

    def session(total, at_setup):
        return {k: at_setup.get(k, 0) + (v - at_setup.get(k, 0)) / passes
                for k, v in total.items()}

    ncalls = session(calls, setup[0])
    selfs = session(by_name, setup[1])
    counts = session(tracer.counts, setup[2])

    def self_s(*prefixes):
        return sum(v for k, v in selfs.items() if k.startswith(prefixes))

    def n_calls(*prefixes):
        return sum(v for k, v in ncalls.items() if k.startswith(prefixes))

    def ratio(a, b):
        return a / b if b else 0.0

    tuples = counts.get("stability.tuples_product", 0)
    subreps = counts.get("stability.subreps", 0)
    ext_calls = n_calls("moduli.GenericExtTable.ext")
    distinct = counts.get("moduli.ext.distinct", 0)
    c = counts.get
    return {
        "stability.self_s": (self_s("stability."), "s"),
        "stability.us_per_tuple": (ratio(self_s("stability."), tuples) * 1e6, "us"),
        "stability.tuples_product": (tuples, "count"),
        "stability.subreps": (subreps, "count"),
        "stability.subrep_ratio": (ratio(subreps, tuples), "ratio"),
        "stability.primes_tested": (c("stability.primes_tested", 0), "count"),
        "stability.primes_skipped": (c("stability.primes_skipped", 0), "count"),
        "stability.proof_ratio": (ratio(c("stability.proofs", 0),
                                        c("stability.rational_verdicts", 0)), "ratio"),
        "moduli.tables": (c("moduli.tables", 0), "count"),
        "moduli.ext.calls": (ext_calls, "count"),
        "moduli.ext.distinct": (distinct, "count"),
        "moduli.memo_hit_ratio": (ratio(ext_calls - distinct, ext_calls), "ratio"),
        "moduli.self_s": (self_s("moduli."), "s"),
        "rep.construct.calls": (n_calls("rep.representation"), "count"),
        "rep.construct.self_s": (self_s("rep.representation"), "s"),
        "fields.array.calls": (n_calls("fields."), "count"),
        "fields.array.self_s": (self_s("fields."), "s"),
        "rep.hom.calls": (n_calls("rep.hom_space"), "count"),
        "rep.ext.calls": (n_calls("rep.ext_space"), "count"),
        "rep.system_cells": (c("rep.system_cells", 0), "count"),
        "rep.self_s": (self_s("rep."), "s"),
        "linalg.fp.self_s": (sum(v for k, v in selfs.items() if k.endswith("#fp")), "s"),
        "linalg.q.self_s": (sum(v for k, v in selfs.items() if k.endswith("#q")), "s"),
        "linalg.rref.calls": (n_calls("linalg.rref#"), "count"),
        "linalg.rref.cells": (c("linalg.rref.cells", 0), "count"),
        "linalg.calls": (n_calls("linalg."), "count"),
        "linalg.det.calls": (n_calls("linalg.det#"), "count"),
        "linalg.inv.calls": (n_calls("linalg.inv#"), "count"),
        "linalg.matmul.calls": (n_calls("linalg.matmul#"), "count"),
        "rep.evaluate_path.calls": (n_calls("rep.evaluate_path"), "count"),
        "localization.sigma.calls": (n_calls("localization.evaluate_sigma"), "count"),
        "localization.sigma_cells": (c("localization.sigma_cells", 0), "count"),
        "localization.relations": (c("localization.relations", 0), "count"),
        "localization.terms": (c("localization.terms", 0), "count"),
        "localization.output_bytes": (c("localization.output_bytes", 0), "bytes"),
        "localization.loops": (c("localization.loops", 0), "count"),
        "localization.self_s": (self_s("localization."), "s"),
        "quiver.paths.calls": (n_calls("quiver.enumerate_paths", "quiver.paths_between"),
                               "count"),
        "quiver.self_s": (self_s("quiver."), "s"),
        "setup.import_s": (statistics.median(f * d["import_s"] for f, _, d in setups), "s"),
        "setup.inputs_s": (statistics.median(f * d["inputs_s"] for f, _, d in setups), "s"),
        "trace.setup_s": (setup_wall, "s"),
        "trace.query_s": (traced / passes, "s"),
        "trace.overhead_frac": (traced / untraced - 1, "ratio"),
    }


def main(argv=None) -> int:
    if not (SRC / "quivermod" / "__init__.py").is_file():
        return fail(f"no quivermod sources in {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import quivermod
    if Path(quivermod.__file__).resolve().parent != (SRC / "quivermod").resolve():
        return fail(f"imported quivermod from {quivermod.__file__}, not from {SRC}")
    import checker
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setups = probe_setups(args.workload, args.seed)
    ledger = Ledger(workloads, checker)
    rounds_times: list[list[tuple[int, float, float]]] = []
    speed = Speedometer()
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    setup_wall = time.perf_counter()
    try:
        rounds = workloads.build_rounds(args.workload, args.seed)
    finally:
        if args.trace:
            tracer.uninstall()
    setup_wall = time.perf_counter() - setup_wall
    # the query set lives for the whole run: keep the collector from
    # rescanning it, as it would not exist in a single CLI call
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    if not args.trace:
        while len(rounds_times) < len(rounds) or time.perf_counter() - t0 < args.seconds:
            rnd = rounds[len(rounds_times) % len(rounds)]
            rounds_times.append(run_round(workloads, ledger, rnd, speed))
        speed.sample(force=True)
        latencies = [t * speed.factor(start) for times in rounds_times for _, start, t in times]
        metrics = end_to_end(latencies, setups)
    else:
        by_name, calls = tracer.summary()
        setup = (dict(calls), dict(by_name), dict(tracer.counts))
        untraced = traced = pass_s = 0.0
        passes = 0
        # whole passes keep the counts exact; stop before one would overrun
        while passes == 0 or time.perf_counter() - t0 + pass_s <= args.seconds:
            pass_start = time.perf_counter()
            for rnd in rounds:  # each round untraced, then traced
                times = run_round(workloads, ledger, rnd)
                untraced += sum(t for _, _, t in times)
                rounds_times.append(times)
                times = run_traced_round(workloads, ledger, tracer, rnd)
                traced += sum(t for _, _, t in times)
                rounds_times.append(times)
            passes += 1
            pass_s = time.perf_counter() - pass_start
        metrics = per_layer(tracer, setup, passes, setups, untraced, traced, setup_wall)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv.gz")
    raw = [t for times in rounds_times for _, _, t in times]

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wall_s": time.perf_counter() - t0, "rounds_run": len(rounds_times),
        "latency_samples": len(raw),
        "distinct_queries": sum(map(len, rounds)),
        "wall_clock": dict(latency_metrics(raw),
                           setup_s=statistics.median(w for _, w, _ in setups)),
        "speed": speed.run_factor() if speed.ref else None,
        "setup_speed": statistics.median(f for f, _, _ in setups),
        "output_digest": ledger.output_digest(),
        "failed_frac": ledger.failed / ledger.attempted,
        # the first failures, those outside the known overflow first
        "failures": sorted(({"qid": q.qid, "kind": q.kind, "p_is_2^31-1": q.known_defect,
                             "known_overflow": known_overflow(q, problems),
                             "problems": problems[:3]}
                            for q, problems in ledger.failures.values()),
                           key=lambda f: (f["known_overflow"], f["qid"]))[:8],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.correct(), "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
