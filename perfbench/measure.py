"""Measurement helpers: host-speed kernel, normalization, percentiles,
peak RSS and the run context printed beside every result.

Host-speed normalization
------------------------
The same listing op measured on one box can drift by 1.7x within an
hour as neighbours load the machine.  Right before and right after
every closed-loop timed section the benchmark times :class:`HostKernel`
-- ``np.nonzero`` over a fixed 20 MB ``uint8`` array that is 2 % dense,
code that never touches ``repro`` -- and reports ``section_ms /
kernel_ms * REF_KERNEL_MS`` with the mean of the two kernel passes: the
section's time on a host where the kernel takes exactly
``REF_KERNEL_MS``.  Bracketing the section halved the spread of the
per-op ratio against a single pass before it.  Raw and kernel
milliseconds are printed beside every normalized value.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: The kernel's time on the reference host, in ms.  A normalized value
#: reads as the section's time on a host where the kernel takes this long.
REF_KERNEL_MS = 50.0

KERNEL_BYTES = 20_000_000
KERNEL_ONE_IN = 50  # 2 % of the bytes are nonzero
KERNEL_SEED = 20200705  # fixed: the kernel never depends on the run seed


class HostKernel:
    """A fixed numpy kernel timed before each closed-loop section."""

    def __init__(self) -> None:
        rng = np.random.default_rng(KERNEL_SEED)
        data = np.empty(KERNEL_BYTES, dtype=np.uint8)
        chunk = 1 << 20
        for lo in range(0, KERNEL_BYTES, chunk):
            hi = min(lo + chunk, KERNEL_BYTES)
            draws = rng.integers(0, KERNEL_ONE_IN, size=hi - lo, dtype=np.uint8)
            data[lo:hi] = draws == 0
        self._data = data
        self._nonzero = int(np.count_nonzero(data))

    def time_ms(self) -> float:
        """One timed pass; raises if the kernel's answer ever changes."""
        start = time.perf_counter()
        found = np.nonzero(self._data)[0].size
        elapsed = (time.perf_counter() - start) * 1e3
        if found != self._nonzero:
            raise RuntimeError(f"host kernel found {found} != {self._nonzero}")
        return elapsed


def normalize(raw: float, kernel_ms: float, ref_ms: float = REF_KERNEL_MS) -> float:
    """``raw`` (any unit) as measured on a host whose kernel takes ``ref_ms``."""
    if kernel_ms <= 0:
        raise ValueError(f"kernel time must be positive, got {kernel_ms}")
    return raw / kernel_ms * ref_ms


def timed(kernel: HostKernel, fn):
    """Run ``fn()`` between two kernel passes.

    The garbage an earlier section left is collected first, so no
    section pays for another's.  Returns ``(result, raw_ms, kernel_ms)``
    with the mean of the two passes as ``kernel_ms``.
    """
    gc.collect()
    before = kernel.time_ms()
    start = time.perf_counter()
    result = fn()
    raw_ms = (time.perf_counter() - start) * 1e3
    return result, raw_ms, (before + kernel.time_ms()) / 2


def nearest_rank(q: float, count: int) -> int:
    """1-based nearest rank of percentile ``q`` (0..100] among ``count``."""
    if count < 1:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    return max(1, -(-int(round(q * count)) // 100))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    return sorted(values)[nearest_rank(q, len(values)) - 1]


def beyond(q: float, count: int) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q`` rank."""
    return count - nearest_rank(q, count)


def min_samples_for(q: float, tail: int = 10) -> int:
    """Smallest sample count with at least ``tail`` samples beyond ``q``."""
    count = 1
    while beyond(q, count) < tail:
        count += 1
    return count


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child process reaped so far, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_context(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Everything needed to read the numbers on another machine."""
    try:
        affinity: List[int] = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = []
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "ref_kernel_ms": REF_KERNEL_MS,
    }


def section_summary(samples: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Medians of ``(raw_ms, kernel_ms)`` pairs plus the normalized median."""
    raw = [r for r, _ in samples]
    kern = [k for _, k in samples]
    norm = [normalize(r, k) for r, k in samples]
    return {
        "count": len(samples),
        "raw_ms_p50": statistics.median(raw),
        "kernel_ms_p50": statistics.median(kern),
        "normalized_ms_p50": statistics.median(norm),
    }
