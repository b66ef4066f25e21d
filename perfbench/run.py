#!/usr/bin/env python3
"""Benchmark of palwidth: seeded workloads with every output checked.

One run:
    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

prints one line per metric and, as its last line, a JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 they are the
per-layer ones, taken from traced rounds interleaved with untraced ones.

Steadiness:
    python3 perfbench/run.py --steadiness

runs every workload once per seed 1..10 in a child process each, the
workloads in turn for each seed, and prints the median, quartiles and
spread of every end-to-end metric.

Run it from the root of a palwidth checkout; the package is imported from
its src/ directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from oracles import CheckFailed
from tracing import Tracer, no_span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PER_ROUND = 2  # fresh interpreters timed after each untraced round
STEADINESS_SEEDS = range(1, 11)
SETUP_CODE = """\
from time import perf_counter
start = perf_counter()
import palwidth.cli
from palwidth import baumslag, heisenberg, wreath
wreath.evaluator(), heisenberg.evaluator(), baumslag.evaluator(2)
print(perf_counter() - start)
"""


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def program_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def setup_times(count: int) -> list[float]:
    """Seconds each of `count` fresh interpreters takes to import palwidth
    and build the wreath, heis and bs:2 evaluators, as every CLI call does."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=program_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(workload, tracer, traced: bool) -> dict:
    """Run every part of one round. Returns the seconds of each timed part,
    the operations attempted and failed, and whether every output passed
    its check."""
    span = tracer.span if traced else no_span
    since = len(tracer.spans) if tracer else 0
    workload.begin_round(traced)
    gc.collect()
    out = {"times": {}, "attempted": 0, "failed": 0, "correct": True, "layers": None}
    for part in workload.parts:
        out["attempted"] += part.ops
        start = perf_counter()
        try:
            with span(f"part:{part.name}"):
                result = part.run(span)
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            out["failed"] += part.ops
            continue
        seconds = perf_counter() - start
        try:
            out["failed"] += part.check(result)
        except CheckFailed as exc:
            print(f"check failed in {part.name}: {exc}", file=sys.stderr)
            out["correct"] = False
        except Exception:  # output the checks cannot read
            print(f"check failed in {part.name}: unreadable output", file=sys.stderr)
            traceback.print_exc()
            out["correct"] = False
        if part.timed:
            out["times"][part.name] = seconds
        if traced and part.replay:
            with span(f"replay:{part.name}"):
                part.replay(result, span)
    if traced:
        # layer spans are named after the palwidth function they time; the
        # part and replay spans that cause them carry a colon
        totals = tracer.totals(since)
        out["layers"] = {f"{name}_s": s for name, s in totals.items() if ":" not in name}
        out["layers"].update(workload.layer_metrics(totals))
    return out


def part_means(rounds: list[dict]) -> dict[str, float]:
    """Mean seconds of each timed part over `rounds`.

    This machine runs in a fast and a slow mode for seconds at a time
    (a heis ball of radius 8 takes 12 ms or 19 ms), so per-round times are
    bimodal: a median lands in whichever mode held most rounds, while the
    mean weighs the modes by how long each held."""
    names = {n for r in rounds for n in r["times"]}
    return {n: statistics.fmean(r["times"][n] for r in rounds if n in r["times"]) for n in names}


def stage_metrics(workload, means: dict[str, float]) -> dict[str, float]:
    """Rates of each stage from the mean time of its parts: units per
    second, or seconds per round for verify_suites_s."""
    seconds: dict[str, float] = {}
    units: dict[str, int] = {}
    for part in workload.parts:
        if part.timed and part.name in means:
            seconds[part.stage] = seconds.get(part.stage, 0.0) + means[part.name]
            units[part.stage] = units.get(part.stage, 0) + part.units
    return {s: units[s] / seconds[s] if s.endswith("_per_s") else seconds[s] for s in seconds}


def run_workload(args) -> int:
    spec = declared()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup_times(1)  # the first start may compile bytecode
    setup = [] if args.trace else setup_times(SETUP_PER_ROUND)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    imported_mb = peak_rss_mb()
    workload = workloads.WORKLOADS[args.workload](args.seed, str(ROOT))
    built_mb = peak_rss_mb()
    gc.collect()
    gc.freeze()  # inputs and oracle tables stay out of the timed collections
    tracer = Tracer() if args.trace else None

    # round 0 warms caches; with tracing, odd rounds are traced. A round
    # starts only if it should end within the run's seconds.
    rounds = []
    walls = []
    start = perf_counter()
    while True:
        index = len(rounds)
        began = perf_counter()
        rounds.append(run_round(workload, tracer, bool(tracer) and index % 2 == 1))
        walls.append(perf_counter() - began)
        if not tracer:
            # spread over the run, so the median sees the machine as the rounds do
            setup += setup_times(SETUP_PER_ROUND)
        untraced = sum(1 for r in rounds[1:] if r["layers"] is None)
        traced = len(rounds) - 1 - untraced
        enough = untraced >= 2 and (traced >= 2 or not tracer)
        if enough and perf_counter() - start + max(walls[-2:]) > args.seconds:
            break

    measured = [r for r in rounds[1:] if r["layers"] is None]
    means = part_means(measured)
    round_s = sum(means.values())
    if tracer:
        traced_rounds = [r for r in rounds[1:] if r["layers"] is not None]
        traced_round_s = sum(part_means(traced_rounds).values())
        # a layer the workload does not reach reads 0
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        for name in traced_rounds[0]["layers"]:
            values[name] = statistics.fmean(r["layers"].get(name, 0.0) for r in traced_rounds)
        values.update(stage_metrics(workload, means))
        values["trace.overhead"] = 100.0 * (traced_round_s / round_s - 1.0)
        metric_spec = spec["per_layer"]
        trace_dir = HERE / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "round_s": round_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        metric_spec = spec["end_to_end"]

    missing = {m["name"] for m in metric_spec} ^ set(values)
    if missing:
        print(f"error: metrics out of step with BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({len(measured)} untraced measured), {result['attempted']} operations, "
          f"{result['failed']} failed")
    print(f"# peak RSS {imported_mb:.1f} MB after imports, {built_mb:.1f} MB after building "
          f"the inputs and expected outputs")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def steadiness(args) -> int:
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    shares: dict[str, list[str]] = {w: [] for w in names}
    # the workloads take turns within each seed, so a slow spell of the
    # host falls on all of them rather than on whichever runs then
    for seed in STEADINESS_SEEDS:
        for workload in names:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed their checks", file=sys.stderr)
                return 1
            shares[workload].append(f"{result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
    print(f"{'workload':12s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}  failed/attempted")
    for workload in names:
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:12s} {name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{(q3 - q1) / med:7.3f} {bounds[name]:6.2f}  {' '.join(shares[workload])}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "palwidth" / "__init__.py").is_file():
        print(f"error: no palwidth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
