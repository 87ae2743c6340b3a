"""Tests of the benchmark itself: declared metrics, determinism, smoke size.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import common, run
from perfbench.common import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, tail
from perfbench.tracing import Tracer, instrument

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int, seed: int = 3) -> dict:
    command = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0.5"]
    command += ["--trace", str(trace), "--smoke"]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_declared_metrics_and_workloads_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_declared_metric_and_passes_checks(workload, trace):
    start = time.monotonic()
    result = _smoke(workload, trace)
    assert time.monotonic() - start < 60
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["marginal-perfect", "marginal-imperfect", "back-to-back"])
def test_engine_workloads_repeat_bit_identically_for_a_seed(workload):
    from perfbench.engine import make_engine_workload

    def outputs(seed):
        bench = make_engine_workload(workload, seed, smoke=True)
        bench.setup()
        for index in range(3):
            bench.run_op(index)
        bench.answer_once()
        return repr(bench.outputs), bench.answer_ops(), repr(bench.answer)

    common.use_repository_source()
    first = outputs(5)
    assert first == outputs(5)
    assert first[0] != outputs(6)[0]


def test_service_script_repeats_for_a_seed_and_keeps_two_thirds_cold():
    from perfbench.serve import request_script

    first = list(itertools.islice(request_script(5), 400))
    assert first == list(itertools.islice(request_script(5), 400))
    assert first != list(itertools.islice(request_script(6), 400))
    cold_seen = set()
    for count, (seed, cached) in enumerate(first, start=1):
        if cached:
            assert seed in cold_seen
        else:
            assert seed not in cold_seen
            cold_seen.add(seed)
        if count % 4 == 0:
            assert len(cold_seen) * 3 >= count * 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    result = tail(list(range(1, 101)))
    assert result == {"value": 90, "percentile": 90.0, "samples": 100}
    assert tail([3.0, 1.0, 2.0])["value"] == 3.0


def test_self_times_subtract_child_spans():
    tracer = Tracer()
    with tracer.span("op:call"):
        with tracer.span("testing:draw"):
            time.sleep(0.01)
        time.sleep(0.005)
    times = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert times["testing"] >= 0.01
    assert times["op"] == pytest.approx(total - times["testing"])


def test_instrument_restores_every_wrapped_function():
    common.use_repository_source()
    import repro.mc.batch as engine_module
    from repro.mc import MeanEstimator

    original = engine_module.apply_testing_batch
    merge = MeanEstimator.add_moments
    with instrument(Tracer(), estimator=MeanEstimator) as wrapped:
        assert engine_module.apply_testing_batch is not original
        assert "MeanEstimator.add_moments" in wrapped
    assert engine_module.apply_testing_batch is original
    assert MeanEstimator.add_moments is merge


def test_fails_without_printing_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _back_to_back_with_calls(calls: int):
    from perfbench.engine import make_engine_workload

    common.use_repository_source()
    bench = make_engine_workload("back-to-back", 4, smoke=True)
    bench.setup()
    for index in range(calls):
        bench.run_op(index)
    return bench


def test_back_to_back_check_passes_true_envelopes_and_fails_wrong_ones():
    import dataclasses

    bench = _back_to_back_with_calls(6)
    attempted, failed, details = bench.check()
    assert failed == 0 and details["pooled_ok"], details

    true_outputs = list(bench.outputs)
    # every system pfd halved: the paired guarantees still hold, the
    # pooled comparison with the analytic references must not
    bench.outputs = [
        dataclasses.replace(
            env,
            **{
                field: getattr(env, field) / 2
                for field in (
                    "untested_system_pfd",
                    "perfect_system_pfd",
                    "optimistic_system_pfd",
                    "pessimistic_system_pfd",
                    "shared_fault_system_pfd",
                )
            },
        )
        for env in true_outputs
    ]
    attempted, failed, details = bench.check()
    assert failed == attempted and not details["pooled_ok"]

    # an all-zero envelope
    bench.outputs = [
        dataclasses.replace(
            env,
            untested_system_pfd=0.0,
            perfect_system_pfd=0.0,
            optimistic_system_pfd=0.0,
            pessimistic_system_pfd=0.0,
            shared_fault_system_pfd=0.0,
        )
        for env in true_outputs
    ]
    assert bench.check()[1] > 0

    # one envelope out of the §4.2 order fails that envelope
    broken = dataclasses.replace(
        true_outputs[0], pessimistic_system_pfd=true_outputs[0].perfect_system_pfd / 2
    )
    bench.outputs = [broken] + true_outputs[1:]
    attempted, failed, details = bench.check()
    assert failed == broken.n_replications and details["bad_calls"] == 1


def test_host_clock_factor_uses_the_readings_around_a_stretch():
    from perfbench.reference import NOMINAL_S, HostClock

    clock = HostClock()
    clock.readings = [0.02]
    factor = clock.factor()
    assert factor == pytest.approx(NOMINAL_S * 2 / (0.02 + clock.readings[-1]))
    assert len(clock.readings) == 2 and clock.factors == [factor]


def test_resolved_engine_is_a_concrete_backend_or_marked_unresolved(monkeypatch):
    common.use_repository_source()
    from repro.mc import experiments

    assert common.resolved_engine() not in ("auto", common.UNRESOLVED)
    monkeypatch.delattr(experiments, "_engine_choice")
    assert common.resolved_engine() == common.UNRESOLVED
