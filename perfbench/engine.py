"""The three engine workloads: marginal pfd (perfect, imperfect), back-to-back.

Every workload runs the ROADMAP baseline scenario —
``standard_scenario(n_demands=400, n_faults=60, suite_size=100)`` tested
with ``SameSuite`` — through the public API on the default engine
(``engine="auto"``).  The workload seed only derives the random streams of
each call; the scenario itself is fixed, so every seed does the same work.
"""

from __future__ import annotations

import math
import time
from statistics import fmean, median, stdev
from typing import Dict, List, Tuple

from .common import derive_seed, peak_rss_mb, resolved_engine
from .tracing import Tracer, instrument, layer_metrics

PERFECT = "marginal-perfect"
IMPERFECT = "marginal-imperfect"
BACK_TO_BACK = "back-to-back"

#: replications per timed call (full size, smoke size)
CALL_SIZE = {PERFECT: (8192, 512), IMPERFECT: (8192, 512), BACK_TO_BACK: (2048, 128)}
#: timed calls per traced pass (full size, smoke size)
TRACE_CALLS = {PERFECT: (16, 2), IMPERFECT: (8, 2), BACK_TO_BACK: (8, 2)}
#: replications of one back-to-back "answer": ~1.4% relative standard
#: error on the perfect-tested system pfd
ANSWER_ENVELOPE = (4096, 256)
#: the paper's answer to a stated precision, and the adaptive budget cap
PRECISION = ({"rel_hw": 0.01}, {"rel_hw": 0.05})
ADAPTIVE_BUDGET = 1_000_000

#: ImperfectOracle / ImperfectFixing probabilities of marginal-imperfect
DETECTION_P, FIX_P = 0.7, 0.8

#: output checks: per-call z, pooled z, and the relative allowance for the
#: suite-sampled perfect-testing reference of ``imperfect_system_envelope``
Z_CALL, Z_POOLED = 5.0, 4.0
SUITE_ALLOWANCE = 0.03
REFERENCE_SUITES = 2048
REFERENCE_SEED = 2004
#: the pooled back-to-back checks need a between-call standard error
MIN_POOLED_CALLS = 3


def _standard_error(moments: Tuple[int, float, float]) -> float:
    count, _, m2 = moments
    if count < 2:
        return math.inf
    return math.sqrt(m2 / (count - 1) / count)


def _within(mean: float, error: float, low: float, high: float, z: float) -> bool:
    return low - z * error <= mean <= high + z * error


def make_engine_workload(name: str, seed: int, smoke: bool = False):
    """The workload object for an engine workload name."""
    if name == BACK_TO_BACK:
        return BackToBackWorkload(seed, smoke)
    if name in (PERFECT, IMPERFECT):
        return MarginalWorkload(name, seed, smoke)
    raise ValueError(f"unknown engine workload {name!r}")


class _EngineWorkload:
    """What the engine workloads share: the scenario, the timed loop and
    the traced run.  Subclasses supply the call, its summary, the answer
    and the checks."""

    op_unit = "replication"
    answers_per_segment = 1
    name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = int(seed)
        size = 1 if smoke else 0
        self.call_size = CALL_SIZE[self.name][size]
        self.trace_calls = TRACE_CALLS[self.name][size]
        self.size = size
        #: per-call outputs kept for the checks after the window
        self.outputs: List[object] = []
        self.answer = None
        self.policies: Dict[str, object] = {}

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Imports, scenario construction and one warm-up call."""
        from repro.core import SameSuite
        from repro.experiments.models import standard_scenario

        self.scenario = standard_scenario(n_demands=400, n_faults=60, suite_size=100)
        self.regime = SameSuite(self.scenario.generator)
        self._call(derive_seed(self.seed, 0), self.call_size)

    def engine(self) -> str:
        return resolved_engine(self.policies.get("oracle"), self.policies.get("fixing"))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        """Nothing to release: the engine runs in this process."""

    def _call(self, rng: int, size: int):
        raise NotImplementedError

    def _summary(self, output):
        return output

    def _references(self) -> Tuple[float, float]:
        """The perfect-tested and untested system pfd of the scenario:
        the suite-sampled perfect-testing value and the exact ``E[Θ²]``."""
        from repro.core.bounds import imperfect_system_envelope

        sc = self.scenario
        return imperfect_system_envelope(
            self.regime,
            sc.population,
            sc.profile,
            n_suites=REFERENCE_SUITES,
            rng=REFERENCE_SEED,
        )

    # -- timed window ----------------------------------------------------

    def run_op(self, index: int) -> Tuple[int, float]:
        """One timed call; returns (replications, seconds)."""
        rng = derive_seed(self.seed, 1, index)
        start = time.perf_counter()
        output = self._call(rng, self.call_size)
        elapsed = time.perf_counter() - start
        self.outputs.append(self._summary(output))
        return self.call_size, elapsed

    # -- traced run ------------------------------------------------------

    def trace(self, seconds: float, tracer: Tracer) -> Dict[str, float]:
        """Per-layer metrics from alternating untraced and traced passes.

        Each pass makes the same fixed calls (same seeds), so layer counts
        repeat exactly; passes alternate until ``seconds`` are used, and
        layer times are medians over traced passes, per call.
        """
        from repro.mc import MeanEstimator

        seeds = [derive_seed(self.seed, 2, i) for i in range(self.trace_calls)]
        sc = self.scenario
        targets = dict(
            population=sc.population,
            regime=self.regime,
            generator=sc.generator,
            universe=sc.universe,
            estimator=MeanEstimator,
        )
        untraced: List[float] = []
        traced: List[float] = []
        layer_times: List[Dict[str, float]] = []
        counts: Dict[str, float] = {}
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            for rng in seeds:
                self.outputs.append(self._summary(self._call(rng, self.call_size)))
            untraced.append(time.perf_counter() - start)
            mark = len(tracer.spans)
            with instrument(tracer, **targets):
                start = time.perf_counter()
                for index, rng in enumerate(seeds):
                    tracer.op_id = index
                    with tracer.span("op:call"):
                        output = self._call(rng, self.call_size)
                    self.outputs.append(self._summary(output))
                traced.append(time.perf_counter() - start)
            layer_times.append(tracer.self_times(mark))
            if not counts:
                counts = dict(tracer.counts)
            if time.perf_counter() >= deadline:
                break

        calls = len(seeds)
        covered = [
            sum(t for layer, t in times.items() if layer != "op") / base
            for times, base in zip(layer_times, untraced)
        ]
        metrics = layer_metrics(layer_times, counts, calls)
        metrics["trace.coverage_ratio"] = median(covered)
        metrics["trace.overhead_ratio"] = median(
            t / u for t, u in zip(traced, untraced)
        )
        tracer.op_id = calls
        metrics.update(self._trace_answer(tracer))
        return metrics

    def _trace_answer(self, tracer: Tracer) -> Dict[str, float]:
        """Per-layer metrics of the answer call, where it has them."""
        return {}


class MarginalWorkload(_EngineWorkload):
    """``simulate_marginal_system_pfd`` with the perfect or the imperfect
    oracle and fixing; the answer is one adaptive call to a stated
    precision."""

    def __init__(self, name: str, seed: int, smoke: bool = False) -> None:
        if name not in (PERFECT, IMPERFECT):
            raise ValueError(f"unknown marginal workload {name!r}")
        self.name = name
        super().__init__(seed, smoke)
        self.precision = PRECISION[self.size]

    def setup(self) -> None:
        from repro.testing import ImperfectFixing, ImperfectOracle

        if self.name == IMPERFECT:
            self.policies = {
                "oracle": ImperfectOracle(DETECTION_P),
                "fixing": ImperfectFixing(FIX_P),
            }
        super().setup()

    def _call(self, rng: int, size: int, **extra):
        from repro.mc import simulate_marginal_system_pfd

        sc = self.scenario
        return simulate_marginal_system_pfd(
            self.regime,
            sc.population,
            sc.profile,
            n_replications=size,
            rng=rng,
            **self.policies,
            **extra,
        )

    def _summary(self, output):
        return output.moments

    def answer_once(self) -> float:
        """One adaptive call, always on the same seed; returns its seconds."""
        rng = derive_seed(self.seed, 3)
        start = time.perf_counter()
        self.answer = self._call(rng, ADAPTIVE_BUDGET, precision=self.precision)
        return time.perf_counter() - start

    def answer_ops(self) -> int:
        return self.answer.adaptive.replications

    def _bounds(self) -> Tuple[float, float]:
        """Interval the system pfd must lie in, before sampling error.

        Perfect testing: the suite-sampled perfect-testing value, widened
        by the suite-sampling allowance.  Imperfect testing: between that
        value and the untested system pfd ``E[Θ²]``.
        """
        perfect, untested = self._references()
        if self.name == PERFECT:
            return perfect * (1 - SUITE_ALLOWANCE), perfect * (1 + SUITE_ALLOWANCE)
        return perfect * (1 - SUITE_ALLOWANCE), untested

    def check(self) -> Tuple[int, int, Dict[str, object]]:
        """Check every call's output; returns (attempted, failed, details).

        Runs after the timed window, so the references it needs cost
        neither set-up nor window time.
        """
        from repro.mc import MeanEstimator

        low, high = self._bounds()
        failed = 0
        attempted = 0
        for moments in self.outputs:
            attempted += moments[0]
            if not _within(moments[1], _standard_error(moments), low, high, Z_CALL):
                failed += moments[0]
        pooled = MeanEstimator()
        for moments in self.outputs:
            pooled.add_moments(*moments)
        pooled_ok = _within(
            pooled.mean, _standard_error(pooled.moments), low, high, Z_POOLED
        )
        if not pooled_ok:
            failed = attempted
        details: Dict[str, object] = {
            "reference_low": low,
            "reference_high": high,
            "pooled_mean": pooled.mean,
            "pooled_ok": pooled_ok,
        }
        if self.answer is not None:
            report = self.answer.adaptive.only
            answer_ops = self.answer_ops()
            attempted += answer_ops
            answer_ok = report.converged and _within(
                report.estimate.mean, report.estimate.std_error, low, high, Z_CALL
            )
            if not answer_ok:
                failed += answer_ops
            details.update(
                answer_mean=report.estimate.mean,
                answer_replications=answer_ops,
                answer_rounds=self.answer.adaptive.rounds,
                answer_ok=answer_ok,
            )
        return attempted, failed, details

    def _trace_answer(self, tracer: Tracer) -> Dict[str, float]:
        with tracer.span("adaptive:call"):
            duration = self.answer_once()
        return {
            "adaptive.rounds": self.answer.adaptive.rounds,
            "adaptive.replications": self.answer_ops(),
            "adaptive.busy_s": duration,
        }


class BackToBackWorkload(_EngineWorkload):
    """``back_to_back_envelope`` with all three output models; the answer
    is one larger envelope, as the envelope has no precision API."""

    name = BACK_TO_BACK

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.answer_size = ANSWER_ENVELOPE[self.size]

    def _call(self, rng: int, size: int):
        from repro.core.bounds import back_to_back_envelope

        sc = self.scenario
        return back_to_back_envelope(
            sc.population, sc.generator, sc.profile, n_replications=size, rng=rng
        )

    def answer_once(self) -> float:
        """One answer envelope, always on the same seed; returns its seconds."""
        rng = derive_seed(self.seed, 3)
        start = time.perf_counter()
        self.answer = self._call(rng, self.answer_size)
        return time.perf_counter() - start

    def answer_ops(self) -> int:
        return self.answer.n_replications

    def check(self) -> Tuple[int, int, Dict[str, object]]:
        """Check every envelope; returns (attempted, failed, details).

        Each envelope must keep the paired design's guarantees: optimistic
        equals perfect, and the §4.2 ordering perfect ≤ optimistic ≤
        shared-fault ≤ pessimistic ≤ untested.  The timed calls have one
        size, so their values are samples of one mean: pooled over the
        calls, the perfect-tested system pfd must match the suite-sampled
        perfect-testing reference (within the suite allowance) and the
        untested one the exact ``E[Θ²]``, each within ``Z_POOLED``
        between-call standard errors.  The answer envelope is held to the
        same references with the error scaled to its size.
        """
        perfect, untested = self._references()
        calls = [env for env in self.outputs if env.n_replications == self.call_size]
        bad = {
            id(env)
            for env in self.outputs + ([self.answer] if self.answer else [])
            if not (env.optimistic_matches_perfect and env.ordering_holds)
        }
        details: Dict[str, object] = {
            "reference_perfect": perfect,
            "reference_untested": untested,
        }
        pooled_ok = True
        errors = {}
        if len(calls) >= MIN_POOLED_CALLS:
            for field, reference, allowance in (
                ("perfect_system_pfd", perfect, SUITE_ALLOWANCE),
                ("untested_system_pfd", untested, 0.0),
            ):
                values = [getattr(env, field) for env in calls]
                errors[field] = stdev(values) / math.sqrt(len(values))
                ok = _within(
                    fmean(values),
                    errors[field],
                    reference * (1 - allowance),
                    reference * (1 + allowance),
                    Z_POOLED,
                )
                details[f"pooled_{field}"] = fmean(values)
                details[f"pooled_{field}_ok"] = ok
                pooled_ok = pooled_ok and ok
        if self.answer is not None and errors:
            scale = math.sqrt(self.call_size / self.answer_size)
            answer_ok = _within(
                self.answer.perfect_system_pfd,
                errors["perfect_system_pfd"] * scale,
                perfect * (1 - SUITE_ALLOWANCE),
                perfect * (1 + SUITE_ALLOWANCE),
                Z_CALL,
            )
            details["answer_perfect_system_pfd"] = self.answer.perfect_system_pfd
            details["answer_ok"] = answer_ok
            if not answer_ok:
                bad.add(id(self.answer))
        outputs = self.outputs + ([self.answer] if self.answer else [])
        attempted = sum(env.n_replications for env in outputs)
        if pooled_ok:
            failed = sum(env.n_replications for env in outputs if id(env) in bad)
        else:
            failed = attempted
        details.update(pooled_ok=pooled_ok, bad_calls=len(bad))
        return attempted, failed, details
