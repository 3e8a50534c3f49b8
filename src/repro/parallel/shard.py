"""Deterministic shard planning: contiguous, weight-balanced ranges.

Every parallel kernel in :mod:`repro.parallel` shards a *contiguous*
index space — the root edges of a level pipeline — because contiguous
ranges keep the shard→merge step a plain concatenation in shard order,
which is what makes the parallel plane's outputs
order-independent-equal to the single-core batch plane.

The planner balances by *weight* (per-index work estimate: the root
edges' predicted work, :func:`repro.graphs.csr.predict_root_work`), not
by index count: work falls steeply along a forward adjacency's root
edges, so an unweighted split leaves one worker most of it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

Range = Tuple[int, int]


def balanced_ranges(weights: Sequence[float], shards: int) -> List[Range]:
    """Split ``range(len(weights))`` into ``shards`` contiguous ranges of
    near-equal total weight.

    Deterministic: cut k sits after the first index whose cumulative
    weight reaches k/shards of the total.  Ranges cover the index space
    exactly, never overlap, and may be empty (all-zero weights degrade
    to an equal-count split so no shard is starved by accounting-only
    zeros).  ``shards`` is clamped to ``[1, len(weights)]``.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    weights = np.asarray(weights, dtype=np.float64)
    n = int(weights.size)
    if n == 0:
        return [(0, 0)]
    if np.any(weights < 0):
        raise ValueError("shard weights must be non-negative")
    shards = min(shards, n)
    total = float(weights.sum())
    if total <= 0.0:
        # Equal-count split: cuts at ceil(k·n/shards).
        cuts = [(k * n + shards - 1) // shards for k in range(1, shards)]
    else:
        prefix = np.cumsum(weights)
        targets = total * np.arange(1, shards, dtype=np.float64) / shards
        cuts = (np.searchsorted(prefix, targets, side="left") + 1).tolist()
    bounds = [0] + [min(int(c), n) for c in cuts] + [n]
    for i in range(1, len(bounds)):  # enforce monotone cuts
        bounds[i] = max(bounds[i], bounds[i - 1])
    return list(zip(bounds[:-1], bounds[1:]))


def range_weights(ranges: Sequence[Range], weights: Sequence[float]) -> List[float]:
    """Total weight per range (diagnostics / balance assertions)."""
    weights = np.asarray(weights, dtype=np.float64)
    return [float(weights[lo:hi].sum()) for lo, hi in ranges]
