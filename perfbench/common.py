"""Shared pieces of the benchmark: paths, statistics, host record, memory.

Nothing here imports ``repro``; :func:`use_repository_source` puts the
checkout's ``src/`` on the path first, so the benchmark always measures the
source tree it sits in and never an installed copy.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for stores and run reports, inside the checkout (gitignored)
RUNS = ROOT / ".perfbench-runs"

#: end-to-end metric units, in output order
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "time_to_answer_s": "s",
    "peak_rss_mb": "MB",
}


#: per-layer metric units of the traced run, in output order
PER_LAYER_UNITS = {
    "testing.busy_s": "s",
    "testing.demands": "count",
    "mc.batch.closure_s": "s",
    "mc.batch.faults_in": "count",
    "mc.batch.faults_removed": "count",
    "mc.batch.removed_ratio": "ratio",
    "mc.batch.flops_computed": "count",
    "faults.scoring_s": "s",
    "faults.bytes_computed": "B",
    "populations.busy_s": "s",
    "populations.rows": "count",
    "rng.spawn_s": "s",
    "rng.streams": "count",
    "mc.estimator.merge_s": "s",
    "mc.estimator.chunks": "count",
    "adaptive.rounds": "count",
    "adaptive.replications": "count",
    "adaptive.busy_s": "s",
    "service.http.hit_ms": "ms",
    "service.http.miss_ms": "ms",
    "service.jobs.submitted": "count",
    "service.jobs.cache_served": "count",
    "service.jobs.completed": "count",
    "service.jobs.failed": "count",
    "service.jobs.compute_s": "s",
    "service.jobs.wait_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.cache.lookup_us": "us",
    "service.cache.put_us": "us",
    "store.put_us": "us",
    "store.get_us": "us",
    "store.bytes_per_record": "B",
    "experiments.run_ms": "ms",
    "trace.coverage_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def use_repository_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SourceMissing(f"repro imported from {repro.__file__}, not {SRC}")


def derive_seed(seed: int, *keys: int) -> int:
    """A 63-bit integer seed for sub-stream ``keys`` of workload ``seed``."""
    import numpy as np

    state = np.random.SeedSequence([int(seed), *map(int, keys)])
    return int(state.generate_state(1, dtype=np.uint64)[0] >> 1)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it.

    For ``n`` sorted samples that is the ``n - 11``-th (zero-based) value,
    the ``100 (n - 10) / n`` percentile.  With eleven samples or fewer
    (smoke runs) it is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 11:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n}
    return {
        "value": ordered[n - 11],
        "percentile": round(100.0 * (n - 10) / n, 3),
        "samples": n,
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# host and memory
# ---------------------------------------------------------------------------


def _blas_threads() -> object:
    """OpenBLAS thread count via the library numpy bundles, if exported."""
    import ctypes
    import glob

    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def host_record(workload: str, seed: int, engine: str) -> Dict[str, object]:
    """Where a result came from: cores, interpreter, numpy, BLAS, engine."""
    import numpy as np

    import repro

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": int(seed),
        "resolved_engine": engine,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "repro": repro.__version__,
    }


#: recorded as the resolved engine when the program offers no resolver
UNRESOLVED = "unresolved"


def resolved_engine(oracle=None, fixing=None) -> str:
    """The concrete engine ``engine="auto"`` runs for this testing pair.

    Asks the engine's own resolver.  If a later version of the program has
    none under that name, the record says :data:`UNRESOLVED` rather than
    passing ``"auto"`` off as a concrete backend.
    """
    from repro.mc import experiments

    choose = getattr(experiments, "_engine_choice", None)
    if choose is None:
        return UNRESOLVED
    return str(choose("auto", oracle, fixing))


def _high_water_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # the process ended between listing and reading
        pass
    return 0


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident memory of this process, plus its live descendants."""
    pids = [os.getpid()]
    if include_children:
        pending = _children(os.getpid())
        while pending:
            pid = pending.pop()
            pids.append(pid)
            pending.extend(_children(pid))
    return sum(_high_water_kb(pid) for pid in pids) / 1024.0
