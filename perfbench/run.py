#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload marginal-perfect --seed 1 \\
        --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up, throughput, latency,
time to answer, peak memory); ``--trace 1`` is the separate traced run that
reports per-layer metrics.  Every output is checked; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``, the
line before it the host and provenance record.  A full report (and, traced,
the span log) goes to ``.perfbench-runs/``.  The exit code is 0 only when
every check passed; without a ``src/repro`` package next to this directory
the command exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.common import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    RUNS,
    metric,
    tail,
)
from perfbench.reference import HostClock  # noqa: E402

WORKLOADS = ("marginal-perfect", "marginal-imperfect", "back-to-back", "service")
#: the timed window is cut into this many segments (full size, smoke size);
#: after each one the run makes the workload's answer calls and one set-up
#: probe, so every metric samples the whole run, not one moment of it.
#: The answers stay out of the op stream: on ``service`` the requests right
#: after an answer made most of the tail.
SEGMENTS = (5, 1)
#: ops are timed in groups of at least this many seconds, each bracketed
#: by host-speed readings (a single op on the engine workloads)
GROUP_S = 0.1
READY = "perfbench-ready"


def make_workload(name: str, seed: int, smoke: bool):
    if name == "service":
        from perfbench.serve import ServiceWorkload

        return ServiceWorkload(seed, smoke)
    from perfbench.engine import make_engine_workload

    return make_engine_workload(name, seed, smoke)


def setup_probe(args: argparse.Namespace) -> None:
    """Child side of a set-up measurement: set up, say so, tear down."""
    common.use_repository_source()
    workload = make_workload(args.workload, args.seed, args.smoke)
    try:
        workload.setup()
        print(READY, flush=True)
    finally:
        workload.close()


def setup_seconds(args: argparse.Namespace) -> float:
    """Seconds from a fresh process's start until its warm-up op finished."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    command += ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=common.ROOT
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
    if line.strip() != READY or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


def timed_window(workload, args: argparse.Namespace) -> dict:
    """Closed loop of ops for ``--seconds`` of op time, in segments.

    Ops run in groups of at least ``GROUP_S`` (one op on the engine
    workloads), each bracketed by host-speed readings that convert its
    times to nominal-host seconds (``perfbench/reference.py``).  After each
    segment, off the op clock, the run makes the workload's answer calls
    and takes one set-up probe.  These are few and long, and a reading
    right after one is disturbed by the work the program or the probe
    leaves behind, so they take the median factor of the segment's groups.
    """
    clock = HostClock()
    latencies, setups, answers = [], [], []
    completed = 0
    elapsed = 0.0
    measured = {"elapsed": 0.0, "latencies": [], "setups": [], "answers": []}
    index = 0
    segments = SEGMENTS[1 if args.smoke else 0]
    for _ in range(segments):
        spent = 0.0
        factors = []
        while spent < args.seconds / segments or not factors:
            group = []
            start = time.perf_counter()
            while True:
                ops, latency = workload.run_op(index)
                index += 1
                if ops:
                    completed += ops
                    group.append(latency)
                if time.perf_counter() - start >= GROUP_S:
                    break
            took = time.perf_counter() - start
            spent += took
            factors.append(clock.factor())
            elapsed += took * factors[-1]
            latencies += [latency * factors[-1] for latency in group]
            measured["elapsed"] += took
            measured["latencies"] += group
        batch = [workload.answer_once() for _ in range(workload.answers_per_segment)]
        setup = setup_seconds(args)

        factor = statistics.median(factors)
        answers += [answer * factor for answer in batch]
        measured["answers"] += batch
        setups.append(setup * factor)
        measured["setups"].append(setup)
    return {
        "elapsed": elapsed,
        "completed": completed,
        "latencies": latencies,
        "setups": setups,
        "answers": answers,
        "measured": measured,
        "readings": clock.readings,
    }


def measure(args: argparse.Namespace) -> dict:
    common.use_repository_source()
    workload = make_workload(args.workload, args.seed, args.smoke)
    report: dict = {}
    try:
        workload.setup()
        if args.trace:
            from perfbench.tracing import Tracer

            tracer = Tracer()
            layers = workload.trace(args.seconds, tracer)
            tracer.write(RUNS / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = {
                name: metric(layers.get(name, 0.0), unit)
                for name, unit in PER_LAYER_UNITS.items()
            }
        else:
            window = timed_window(workload, args)
            peak = workload.peak_rss_mb()
            values = _time_metrics(window, window["completed"])
            values["peak_rss_mb"] = peak
            metrics = {
                name: metric(values[name], unit)
                for name, unit in END_TO_END_UNITS.items()
            }
            tail_ms = tail(window["latencies"])
            report.update(
                tail={
                    "percentile": tail_ms["percentile"],
                    "samples": tail_ms["samples"],
                },
                measured=_time_metrics(window["measured"], window["completed"]),
                host_readings=window["readings"],
                window_seconds=window["measured"]["elapsed"],
                setup_samples=window["setups"],
                answer_samples=window["answers"],
            )
        engine = workload.engine()
    finally:
        workload.close()
    attempted, failed, checks = workload.check()
    report["checks"] = checks
    report["provenance"] = common.host_record(args.workload, args.seed, engine)
    report["op_unit"] = workload.op_unit
    return {
        "report": report,
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
    }


def _time_metrics(window: dict, completed: int) -> dict:
    return {
        "setup_s": statistics.median(window["setups"]),
        "ops_per_s": completed / window["elapsed"],
        "p50_ms": 1e3 * statistics.median(window["latencies"]),
        "tail_ms": 1e3 * tail(window["latencies"])["value"],
        "time_to_answer_s": statistics.median(window["answers"]),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's tests"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        outcome = measure(args)
    except common.SourceMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    report, result = outcome["report"], outcome["result"]
    RUNS.mkdir(parents=True, exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUNS / name).write_text(json.dumps({**report, **result}, indent=2) + "\n")
    print(json.dumps({"provenance": report["provenance"], "tail": report.get("tail")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
