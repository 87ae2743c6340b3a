"""Spans around calls into the program's layers, recorded from outside.

The traced run installs thin wrappers over the public functions each layer
exposes — the calls the engine makes in every chunk, in chunk order: RNG
streams (``spawn_many``), versions (``sample_fault_matrix``), suites
(``draw_suite_*``, ``sample_demand_sequences``), the testing closure
(``apply_*testing*``, ``back_to_back_*``), scoring (``failure_matrix``) and
the estimator merge (``add_moments``).  Each wrapped call becomes a span
(name, start, end, parent, op id) kept in memory; counts of the work each
call did are taken after its span closes, so counting costs no layer time.
Nothing inside ``src/`` changes: a function the program no longer has is
skipped, and the layer then reads zero, which ``trace.coverage_ratio``
shows.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from statistics import median
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np


class Tracer:
    """An in-memory span log with per-layer counters."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def parent_layer(self) -> Optional[str]:
        """Layer of the innermost open span (None at top level)."""
        if not self._stack:
            return None
        return layer_of(self.spans[self._stack[-1]][0])

    def self_times(self, start: int = 0, stop: Optional[int] = None) -> Dict[str, float]:
        """Seconds per layer spent in spans ``start:stop`` minus their children.

        Spans nest (one thread), so a span's children cover disjoint parts
        of its interval and its self time is its duration minus theirs.
        """
        spans = self.spans[start:stop]
        covered = [0.0] * len(spans)
        for name, begin, end, parent, _ in spans:
            if parent >= start:
                covered[parent - start] += end - begin
        totals: Dict[str, float] = defaultdict(float)
        for (name, begin, end, _, _), child in zip(spans, covered):
            totals[layer_of(name)] += (end - begin) - child
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, begin, end, parent, op_id in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": begin,
                            "end": end,
                            "parent": parent,
                            "op": op_id,
                        }
                    )
                    + "\n"
                )


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


# ---------------------------------------------------------------------------
# counters: what each wrapped call did, read from its arguments and result
# ---------------------------------------------------------------------------


def _count_streams(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["rng.streams"] += len(result)


def _count_rows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["populations.rows"] += np.shape(result)[0]


def _count_suite_demands(tracer: Tracer, args, kwargs, result) -> None:
    """Demand executions in a drawn suite block; a block both channels
    share (the same array object) counts once."""
    blocks = result if isinstance(result, tuple) else (result,)
    seen = []
    for block in blocks:
        if any(block is other for other in seen):
            continue
        seen.append(block)
        # masks count distinct demands, count blocks every execution
        tracer.counts["testing.demands"] += int(np.asarray(block).sum())


def _count_sequences(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["testing.demands"] += int((np.asarray(result) >= 0).sum())


def _count_closure(tracer: Tracer, args, kwargs, result) -> None:
    """Faults in and out of a set-wise closure, and its coverage product
    size: 2·R·D·F multiply-adds for an (R, D) suite block."""
    faults, block, universe = args[0], args[1], args[2]
    before = int(np.count_nonzero(faults))
    after = int(np.count_nonzero(result))
    rows, demands = np.shape(block)
    tracer.counts["mc.batch.faults_in"] += before
    tracer.counts["mc.batch.faults_removed"] += before - after
    tracer.counts["mc.batch.flops_computed"] += 2.0 * rows * demands * len(universe)


def _count_sequential_closure(tracer: Tracer, args, kwargs, result) -> None:
    """Faults in and out of the order-dependent closure, and its per-step
    cause updates: 2 channels · R · L · F element operations."""
    faults_a, faults_b, sequences = args[0], args[1], args[2]
    before = int(np.count_nonzero(faults_a)) + int(np.count_nonzero(faults_b))
    after = int(np.count_nonzero(result[0])) + int(np.count_nonzero(result[1]))
    rows, length = np.shape(sequences)
    tracer.counts["mc.batch.faults_in"] += before
    tracer.counts["mc.batch.faults_removed"] += before - after
    tracer.counts["mc.batch.flops_computed"] += (
        2.0 * rows * length * np.shape(faults_a)[1]
    )


def _count_scoring(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["faults.bytes_computed"] += (
        np.asarray(args[1]).nbytes + np.asarray(result).nbytes
    )


def _count_merge(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["mc.estimator.chunks"] += 1


#: layer functions reached through module globals: (module, name, layer, counter)
MODULE_HOOKS = (
    ("repro.rng", "spawn_many", "rng", _count_streams),
    ("repro.testing", "demand_sequences_to_counts", "testing", None),
    ("repro.mc", "apply_testing_batch", "mc.batch", _count_closure),
    ("repro.mc", "apply_imperfect_testing_batch", "mc.batch", _count_closure),
    ("repro.mc", "back_to_back_batch", "mc.batch", _count_sequential_closure),
)

#: layer methods reached through an object: (method, layer, counter)
METHOD_HOOKS = {
    "population": (("sample_fault_matrix", "populations", _count_rows),),
    "regime": (
        ("draw_suite_masks", "testing", _count_suite_demands),
        ("draw_suite_counts", "testing", _count_suite_demands),
    ),
    "generator": (
        ("sample_demand_sequences", "testing", _count_sequences),
        ("sample_demand_masks", "testing", _count_suite_demands),
        ("sample_demand_counts", "testing", _count_suite_demands),
    ),
    "universe": (("failure_matrix", "faults", _count_scoring),),
    "estimator": (("add_moments", "mc.estimator", _count_merge),),
}


def _wrap(tracer: Tracer, function: Callable, span_name: str, counter) -> Callable:
    layer = layer_of(span_name)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        outermost = tracer.parent_layer() != layer
        with tracer.span(span_name):
            result = function(*args, **kwargs)
        if counter is not None and outermost:
            counter(tracer, args, kwargs, result)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer, **targets) -> Iterator[List[str]]:
    """Wrap the layer functions for the duration of the block.

    ``targets`` maps the keys of :data:`METHOD_HOOKS` to objects whose
    classes get wrapped (``population=…``, ``regime=…``, ``generator=…``,
    ``universe=…``, ``estimator=<class>``).  Yields the names wrapped.
    Module functions are replaced wherever a ``repro`` module holds them,
    so the engine's own imports see the wrappers too.
    """
    undo: List[Callable[[], None]] = []
    wrapped: List[str] = []
    try:
        for home, name, layer, counter in MODULE_HOOKS:
            try:
                original = getattr(importlib.import_module(home), name)
            except (ImportError, AttributeError):
                continue
            replacement = _wrap(tracer, original, f"{layer}:{name}", counter)
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("repro") or module is None:
                    continue
                if getattr(module, name, None) is original:
                    setattr(module, name, replacement)
                    undo.append(functools.partial(setattr, module, name, original))
            wrapped.append(name)
        for key, target in targets.items():
            cls = target if isinstance(target, type) else type(target)
            for name, layer, counter in METHOD_HOOKS[key]:
                original = getattr(cls, name, None)
                if original is None:
                    continue
                own = cls.__dict__.get(name)
                setattr(cls, name, _wrap(tracer, original, f"{layer}:{name}", counter))
                if own is None:
                    undo.append(functools.partial(delattr, cls, name))
                else:
                    undo.append(functools.partial(setattr, cls, name, own))
                wrapped.append(f"{cls.__name__}.{name}")
        yield wrapped
    finally:
        for step in reversed(undo):
            step()


def layer_metrics(
    layer_times: List[Dict[str, float]], counts: Dict[str, float], calls: int
) -> Dict[str, float]:
    """The engine layers' per-call metrics.

    ``layer_times`` holds one :meth:`Tracer.self_times` result per traced
    pass of ``calls`` calls (times are medians over passes); ``counts`` are
    one pass's counters, which repeat exactly from pass to pass.
    """

    def busy(layer: str) -> float:
        return median(times.get(layer, 0.0) for times in layer_times) / calls

    def count(name: str) -> float:
        return counts.get(name, 0.0) / calls

    faults_in = counts.get("mc.batch.faults_in", 0.0)
    return {
        "testing.busy_s": busy("testing"),
        "testing.demands": count("testing.demands"),
        "mc.batch.closure_s": busy("mc.batch"),
        "mc.batch.faults_in": count("mc.batch.faults_in"),
        "mc.batch.faults_removed": count("mc.batch.faults_removed"),
        "mc.batch.removed_ratio": (
            counts.get("mc.batch.faults_removed", 0.0) / faults_in if faults_in else 0.0
        ),
        "mc.batch.flops_computed": count("mc.batch.flops_computed"),
        "faults.scoring_s": busy("faults"),
        "faults.bytes_computed": count("faults.bytes_computed"),
        "populations.busy_s": busy("populations"),
        "populations.rows": count("populations.rows"),
        "rng.spawn_s": busy("rng"),
        "rng.streams": count("rng.streams"),
        "mc.estimator.merge_s": busy("mc.estimator"),
        "mc.estimator.chunks": count("mc.estimator.chunks"),
    }
