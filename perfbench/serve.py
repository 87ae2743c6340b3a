"""The service workload: one closed-loop client against an in-process server.

A ``ThreadedServer`` (HTTP front end, ``JobScheduler`` with one worker
process, ``TwoTierCache`` over a fresh JSONL store) answers one client
connection that sends its next request only after the previous one
returns.  The request script is a pure function of the workload seed: in
every block of four requests three are cold ``POST /run`` calls of the
cheap ``x3`` experiment on fresh seeds (writes) and one repeats an earlier
request (a read served from the cache), so the median request is always a
computed one.
"""

from __future__ import annotations

import itertools
import os
import shutil
import time
from statistics import median
from typing import Dict, Iterator, List, Optional, Tuple

from .common import RUNS, derive_seed, peak_rss_mb, resolved_engine
from .tracing import Tracer, instrument, layer_metrics

EXPERIMENT = "x3"
#: the answer to a stated precision: an adaptive x3 run
PRECISION = {"rel_hw": 0.01}
#: requests per block of the script, of which one is a repeat
BLOCK = 4
#: (full size, smoke size) knobs
REPLAY_SAMPLE = (8, 2)
TRACE_REQUESTS = (200, 12)
TRACE_REPLAYS = (32, 2)
#: cold seeds are base + k with base below this, so the script's seeds stay
#: int32-sized like the CLI's
SEED_SPACE = 2**31 - 2**24
#: answer k uses seed ANSWER_SEEDS + k in every run, above the script's
#: seeds, so every run asks the same questions; each run's store is fresh,
#: so they are cold all the same
ANSWER_SEEDS = SEED_SPACE + 2**20


def script_base(seed: int) -> int:
    return 1 + derive_seed(seed, 10) % SEED_SPACE


def request_script(seed: int) -> Iterator[Tuple[int, bool]]:
    """Yield ``(experiment seed, served from cache)`` requests forever."""
    import numpy as np

    rng = np.random.default_rng(derive_seed(seed, 11))
    base = script_base(seed)
    cold: List[int] = []
    for block in itertools.count():
        repeat_at = int(rng.integers(1 if block == 0 else 0, BLOCK))
        for position in range(BLOCK):
            if position == repeat_at:
                yield cold[int(rng.integers(len(cold)))], True
            else:
                cold.append(base + len(cold))
                yield cold[-1], False


def _claims_hold(record: dict) -> bool:
    result = record.get("result") or {}
    claims = result.get("claims") or []
    return bool(result.get("passed")) and all(claim["holds"] for claim in claims)


class _Instance:
    """One hosted service over a fresh store, and a client connected to it."""

    def __init__(self, seed: int) -> None:
        from repro.service import ServiceClient, ThreadedServer

        self.directory = RUNS / f"service-{os.getpid()}-{time.monotonic_ns()}"
        self.directory.mkdir(parents=True)
        try:
            self.server = ThreadedServer(
                store_path=self.directory / "store.jsonl", procs=1
            )
        except BaseException:
            shutil.rmtree(self.directory, ignore_errors=True)
            raise
        self.client = ServiceClient(self.server.url)
        # warm-up: one cold request below the script's seed range
        self.request(script_base(seed) - 1)

    def request(self, seed: int, params: Optional[dict] = None) -> Tuple[dict, float]:
        start = time.perf_counter()
        payload = self.client.submit(EXPERIMENT, seed=seed, params=params, wait=True)
        return payload, time.perf_counter() - start

    def close(self) -> None:
        try:
            self.client.close()
            self.server.stop()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


class ServiceWorkload:
    """The service workload: set-up, timed requests, answer, checks, trace."""

    name = "service"
    op_unit = "request"
    #: an answer is one cheap request whose round trip varies by 3x from
    #: one request to the next, so take six per window segment
    answers_per_segment = 6

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = int(seed)
        size = 1 if smoke else 0
        self.replay_sample = REPLAY_SAMPLE[size]
        self.trace_requests = TRACE_REQUESTS[size]
        self.trace_replays = TRACE_REPLAYS[size]
        self.instance: Optional[_Instance] = None
        self.script = request_script(self.seed)
        #: per request: (seed, expected cached, check passed)
        self.outputs: List[Tuple[int, bool, bool]] = []
        #: cold records by seed, for the byte-equality replay
        self.records: Dict[int, dict] = {}
        self.answer_attempts = 0
        self.answer_failures = 0

    def setup(self) -> None:
        """Imports, server construction and one warm-up request."""
        self.instance = _Instance(self.seed)

    def engine(self) -> str:
        return resolved_engine()

    def close(self) -> None:
        if self.instance is not None:
            self.instance.close()
            self.instance = None

    # -- timed window ----------------------------------------------------

    def _checked_request(
        self, instance: _Instance, seed: int, cached: bool
    ) -> Tuple[bool, float, dict]:
        from repro.service import ServiceError

        try:
            payload, elapsed = instance.request(seed)
        except ServiceError:
            return False, float("nan"), {}
        record = payload.get("record") or {}
        ok = (
            payload.get("state") == "done"
            and payload.get("cached") is cached
            and record.get("experiment_id") == EXPERIMENT
            and record.get("seed") == seed
            and _claims_hold(record)
        )
        return ok, elapsed, record

    def run_op(self, index: int) -> Tuple[int, float]:
        seed, cached = next(self.script)
        ok, elapsed, record = self._checked_request(self.instance, seed, cached)
        self.outputs.append((seed, cached, ok))
        if ok and not cached:
            self.records[seed] = record
        if not ok:
            return 0, elapsed
        return 1, elapsed

    def answer_once(self) -> float:
        """One cold adaptive ``x3`` request on a seed outside the script."""
        from repro.service import ServiceError

        seed = ANSWER_SEEDS + self.answer_attempts
        self.answer_attempts += 1
        try:
            payload, elapsed = self.instance.request(seed, params={"precision": PRECISION})
        except ServiceError:
            self.answer_failures += 1
            return float("nan")
        record = payload.get("record") or {}
        if payload.get("state") != "done" or payload.get("cached") or not _claims_hold(record):
            self.answer_failures += 1
        return elapsed

    def peak_rss_mb(self) -> float:
        """This process plus the server's worker and manager processes."""
        return peak_rss_mb(include_children=True)

    # -- output checks ---------------------------------------------------

    def check(self) -> Tuple[int, int, Dict[str, object]]:
        """Per-request checks, plus a seeded sample of cold records
        replayed in-process and compared byte for byte."""
        import numpy as np

        from repro.experiments import run_experiment
        from repro.store.records import canonical_json, make_record

        failed = sum(1 for _, _, ok in self.outputs if not ok)
        seeds = sorted(self.records)
        rng = np.random.default_rng(derive_seed(self.seed, 12))
        sample = rng.choice(seeds, size=min(self.replay_sample, len(seeds)), replace=False)
        mismatched = 0
        for seed in sample.tolist():
            record = self.records[seed]
            replay = make_record(
                EXPERIMENT,
                seed=seed,
                result=run_experiment(EXPERIMENT, seed=seed),
            )
            if canonical_json(replay["result"]) != canonical_json(record["result"]):
                mismatched += 1
        attempted = len(self.outputs) + self.answer_attempts
        failed += mismatched + self.answer_failures
        return attempted, failed, {
            "replayed": len(sample),
            "replay_mismatches": mismatched,
            "cold_requests": sum(1 for _, cached, _ in self.outputs if not cached),
            "answer_failures": self.answer_failures,
        }

    # -- traced run ------------------------------------------------------

    def trace(self, seconds: float, tracer: Tracer) -> Dict[str, float]:
        """Per-layer metrics from alternating untraced and traced passes.

        Each pass hosts a fresh service (fresh store, so cold requests stay
        cold) and sends the same script prefix; the traced pass wraps each
        round trip in a span and reads ``GET /metrics`` before and after.
        Then the cache, the store and the experiment are timed directly on
        the traced pass's cold requests.
        """
        self.close()
        untraced: List[float] = []
        traced: List[float] = []
        covered: List[float] = []
        hits: List[float] = []
        misses: List[float] = []
        jobs: Dict[str, float] = {}
        cold: List[dict] = []
        deadline = time.perf_counter() + seconds
        while True:
            untraced.append(self._pass(None)[0])
            mark = len(tracer.spans)
            elapsed, before, after, records = self._pass(tracer, hits, misses)
            traced.append(elapsed)
            round_trips = sum(end - start for _, start, end, _, _ in tracer.spans[mark:])
            covered.append(round_trips / elapsed)
            if not jobs:
                jobs = _job_deltas(before, after)
                cold = records
            if time.perf_counter() >= deadline:
                break
        miss_ms = 1e3 * median(misses)
        metrics = {
            "service.http.hit_ms": 1e3 * median(hits),
            "service.http.miss_ms": miss_ms,
            "service.jobs.wait_ms": miss_ms - 1e3 * jobs["service.jobs.compute_s"],
            "trace.coverage_ratio": median(covered),
            "trace.overhead_ratio": median(t / u for t, u in zip(traced, untraced)),
        }
        metrics.update(jobs)
        metrics.update(self._direct_cache_and_store(tracer, cold))
        metrics.update(self._replays(tracer, cold[: self.trace_replays]))
        return metrics

    def _pass(self, tracer: Optional[Tracer], hits=None, misses=None):
        instance = _Instance(self.seed)
        try:
            script = request_script(self.seed)
            before = instance.client.metrics()
            records = []
            start = time.perf_counter()
            for index in range(self.trace_requests):
                seed, cached = next(script)
                if tracer is None:
                    ok, elapsed, record = self._checked_request(instance, seed, cached)
                else:
                    tracer.op_id = index
                    with tracer.span("service.http:" + ("hit" if cached else "miss")):
                        ok, elapsed, record = self._checked_request(instance, seed, cached)
                    (hits if cached else misses).append(elapsed)
                    if not cached:
                        records.append(record)
                self.outputs.append((seed, cached, ok))
                if ok and not cached:
                    self.records[seed] = record
            elapsed = time.perf_counter() - start
            after = instance.client.metrics()
        finally:
            instance.close()
        return elapsed, before, after, records

    def _direct_cache_and_store(self, tracer: Tracer, records: List[dict]) -> Dict[str, float]:
        """Time ``TwoTierCache`` puts and lookups, and ``ResultStore`` puts
        and gets, on the pass's cold records, each over a fresh store."""
        from repro.obs.metrics import MetricsRegistry
        from repro.service import TwoTierCache
        from repro.store import ResultStore

        directory = RUNS / f"direct-{os.getpid()}-{time.monotonic_ns()}"
        try:
            cache = TwoTierCache(
                ResultStore(directory / "cache.jsonl"), registry=MetricsRegistry()
            )
            store = ResultStore(directory / "store.jsonl")
            timings: Dict[str, List[float]] = {}
            for name, call, argument in (
                ("service.cache:put", cache.put, lambda record: record),
                ("service.cache:lookup", cache.lookup, lambda record: record["key"]),
                ("store:put", store.put, lambda record: record),
                ("store:get", store.get, lambda record: record["key"]),
            ):
                for record in records:
                    value = argument(record)
                    with tracer.span(name):
                        call(value)
                    timings.setdefault(name, []).append(tracer.spans[-1][2] - tracer.spans[-1][1])
            size = os.path.getsize(directory / "store.jsonl")
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return {
            "service.cache.lookup_us": 1e6 * median(timings["service.cache:lookup"]),
            "service.cache.put_us": 1e6 * median(timings["service.cache:put"]),
            "store.put_us": 1e6 * median(timings["store:put"]),
            "store.get_us": 1e6 * median(timings["store:get"]),
            "store.bytes_per_record": size / len(records),
        }

    def _replays(self, tracer: Tracer, records: List[dict]) -> Dict[str, float]:
        """Run the scripted cold requests in-process: once untraced, to
        size the experiment's share of a miss, then with the engine's
        layers wrapped, to split that share by layer."""
        from repro.experiments import run_experiment
        from repro.faults import FaultUniverse
        from repro.mc import MeanEstimator
        from repro.populations import BernoulliFaultPopulation
        from repro.testing import OperationalSuiteGenerator

        durations = []
        for record in records:
            start = time.perf_counter()
            run_experiment(EXPERIMENT, seed=record["seed"])
            durations.append(time.perf_counter() - start)
        mark = len(tracer.spans)
        with instrument(
            tracer,
            population=BernoulliFaultPopulation,
            generator=OperationalSuiteGenerator,
            universe=FaultUniverse,
            estimator=MeanEstimator,
        ):
            for index, record in enumerate(records):
                tracer.op_id = index
                with tracer.span("experiments:run"):
                    run_experiment(EXPERIMENT, seed=record["seed"])
        metrics = layer_metrics([tracer.self_times(mark)], dict(tracer.counts), len(records))
        metrics["experiments.run_ms"] = 1e3 * median(durations)
        return metrics


def _job_deltas(before: dict, after: dict) -> Dict[str, float]:
    """Scheduler counters over one pass, from two ``GET /metrics`` reads."""
    jobs = {
        name: after["jobs"][name] - before["jobs"][name]
        for name in ("submitted", "cache_served", "completed", "failed")
    }
    compute_before = before["compute_seconds"]
    compute_after = after["compute_seconds"]
    total = compute_after["count"] * compute_after["mean"] - compute_before["count"] * (
        compute_before["mean"] or 0.0
    )
    count = compute_after["count"] - compute_before["count"]
    cache_before, cache_after = before["cache"], after["cache"]
    hits = (cache_after["memory_hits"] + cache_after["store_hits"]) - (
        cache_before["memory_hits"] + cache_before["store_hits"]
    )
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    return {
        "service.jobs.submitted": jobs["submitted"],
        "service.jobs.cache_served": jobs["cache_served"],
        "service.jobs.completed": jobs["completed"],
        "service.jobs.failed": jobs["failed"],
        "service.jobs.compute_s": total / count if count else 0.0,
        "service.cache.hit_ratio": hits / lookups if lookups else 0.0,
    }
