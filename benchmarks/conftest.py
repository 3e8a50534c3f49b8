"""Shared configuration for the benchmark harness.

Every benchmark verifies correctness before reporting timings, and
records the *simulated round counts* (the paper's metric) in
``benchmark.extra_info`` — wall-clock time of the simulator is secondary.
Sizes are kept laptop-scale.  ``--bench-scale full`` runs the same
experiment declarations as ``python -m repro.analysis.report`` on larger
grids than the report's: CONGEST n = 64…256 (the report: 64…160) and
CONGESTED CLIQUE n = 256 (the report: 128).

Gate policy: the gated benches (kernel / routing / stream / parallel)
record raw best-of-N samples, wall-clock timestamps and cpu/worker
counts in their emitted ``--benchmark-json`` files; the committed floor
ratios live in **one place**, ``scripts/check_bench.py``, which CI runs
over the JSON artifacts.  Benches assert correctness inline but no
longer assert speed floors themselves.
"""

from __future__ import annotations

import os
import time
from datetime import datetime, timezone
from typing import Any, Dict, List, NamedTuple

import pytest


class TimedResult(NamedTuple):
    """One best-of-N measurement: the robust min, the last call's result,
    every raw sample, and the timing metadata cross-run comparisons need
    (the bench boxes show 3–4× run-to-run variance, so a ratio is only
    interpretable next to when and on how many cpus it was taken)."""

    best: float
    result: Any
    samples: List[float]
    meta: Dict[str, Any]


def _affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="session")
def bench_env():
    """Machine/timing context every gated bench merges into its
    ``extra_info`` — cpu counts for the parallel gate's applicability
    check, wall-clock stamps so JSON artifacts order across runs."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "affinity_cpus": _affinity_cpus(),
        "wall_clock_unix": round(time.time(), 3),
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


@pytest.fixture(scope="session")
def best_of():
    """Shared best-of-N timing helper returning a :class:`TimedResult`.

    All raw samples (not just the min) land in the emitted JSON so the
    gate's margin can be read against the actual spread, and ``meta``
    carries start/end wall-clock stamps plus the cpu counts the run had
    — the context needed to compare ratios across bench boxes.
    ``repeats`` is explicit at every call site so each benchmark's
    timing protocol stays visible.
    """

    def _best_of(fn, repeats):
        samples = []
        result = None
        started = time.time()
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            samples.append(time.perf_counter() - start)
        meta = {
            "repeats": repeats,
            "started_unix": round(started, 3),
            "ended_unix": round(time.time(), 3),
            "cpu_count": os.cpu_count() or 1,
            "affinity_cpus": _affinity_cpus(),
        }
        return TimedResult(min(samples), result, samples, meta)

    return _best_of


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        action="store",
        default="small",
        choices=["small", "full"],
        help="small: CI-friendly sizes; full: larger grids than the report's",
    )


@pytest.fixture(scope="session")
def bench_scale(request):
    return request.config.getoption("--bench-scale")


@pytest.fixture(scope="session")
def congest_sizes(bench_scale):
    return [48, 72, 96] if bench_scale == "small" else [64, 96, 128, 192, 256]


@pytest.fixture(scope="session")
def cc_sizes(bench_scale):
    return [96] if bench_scale == "small" else [128, 256]
