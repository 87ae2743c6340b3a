#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report spreads.

Usage, from the repository root::

    python3 perfbench/steady.py --workloads service back-to-back --seeds 5
    python3 perfbench/steady.py --seeds 10 --out perfbench/steadiness.json --set set-a
    python3 perfbench/steady.py --seeds 10 --first-seed 11 \\
        --out perfbench/steadiness.json --set set-b

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, with
``run_seconds`` from ``BENCHMARK.json``, and prints, per end-to-end metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median next to the metric's bound.  A
spread above a third of its bound is marked ``!``.  The same summary of the
times as measured, before the host-speed conversion, follows, read from
each run's report.  ``--out`` merges the raw values and the summary into a
JSON file, keyed by ``--set`` and then by workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py")]
    command += ["--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    report = ROOT / ".perfbench-runs" / f"report-{workload}-seed{seed}-trace0.json"
    result["measured"] = json.loads(report.read_text())["measured"]
    return result


def summarise(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--set", default="set-a", help="key of this set in --out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds]
        if not all(r["correct"] for r in results):
            print(f"{workload}: a run failed its output checks", file=sys.stderr)
            return 1
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in bounds
        }
        measured = {
            name: summarise([r["measured"][name] for r in results])
            for name in results[0]["measured"]
        }
        summary[workload] = {
            "seeds": list(seeds),
            "wall_s": summarise([r["wall_s"] for r in results]),
            "metrics": metrics,
            "measured": measured,
        }
        print(f"\n{workload}: seeds {seeds.start}..{seeds.stop - 1}, "
              f"median wall {summary[workload]['wall_s']['median']:.1f} s")
        print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, stats in metrics.items():
            flag = " !" if stats["spread"] > bounds[name] / 3 else ""
            print(f"{name:<18}{stats['median']:>12.5g}{stats['q1']:>12.5g}"
                  f"{stats['q3']:>12.5g}{stats['spread']:>9.4f}{bounds[name]:>7}{flag}")
        print("as measured, before the host-speed conversion:")
        for name, stats in measured.items():
            print(f"{name:<18}{stats['median']:>12.5g}{stats['q1']:>12.5g}"
                  f"{stats['q3']:>12.5g}{stats['spread']:>9.4f}")
    if args.out is not None:
        existing = json.loads(args.out.read_text()) if args.out.exists() else {}
        existing.setdefault(args.set, {}).update(summary)
        args.out.write_text(json.dumps(existing, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
