"""Seeded inputs, built here so that a change to ``repro.workloads``
cannot change what the benchmark measures.

``repro`` receives only edge lists, :class:`repro.UpdateBatch` objects
and :class:`repro.serve.Request` reads.

Each workload lists one fixed random instance (drawn from
:data:`INSTANCE_SEED`).  For the drivers the run seed relabels its nodes
with a random permutation: the structure and the clique counts stay the
same for every seed while the program sees a new edge list.  So do the
charged rounds, but for about one run seed in fifteen, where one of the
Theorem 1.3 driver's partition seeds charges 2 rounds more or fewer
(seeds 15 and 25 of 1..30).  Fresh ER draws would not do: at n=160 the CONGEST
driver's rounds move by +-10% between draws, which would swamp the
program's own run-to-run spread.  Serve keeps its churn stream as drawn
(relabelling moves the Theorem 1.3 partition, and with it the rounds of
learned reads, by +-12%); its run seed draws the read schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

INSTANCE_SEED = 20200705
READ_MIX = {"count": 0.5, "cliques": 0.35, "learned": 0.15}
ZIPF_THETA = 1.1


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (run seed, input stream)."""
    return np.random.default_rng([int(seed), *stream])


def er_edges(n: int, p_edge: float, rng: np.random.Generator) -> np.ndarray:
    """G(n, p_edge) as a ``(m, 2)`` array of ``u < v`` rows."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p_edge
    return np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)


def relabel(edges: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Edges with node ``v`` renamed ``perm[v]``, rows kept ``u < v``."""
    if edges.shape[0] == 0:
        return edges
    return np.sort(perm[edges], axis=1)


def driver_edges(n: int, p_edge: float, seed: int) -> np.ndarray:
    """The fixed ER instance, relabelled by the run seed."""
    edges = er_edges(n, p_edge, rng_for(INSTANCE_SEED, 1))
    return relabel(edges, rng_for(seed, 1).permutation(n))


def adversarial_core_edges(
    n: int, rng: np.random.Generator, core_to_outside_p: float = 0.5,
    background_p: float = 0.05,
) -> Tuple[np.ndarray, int]:
    """ER background plus a ``isqrt(n)``-node clique core wired to a
    ``core_to_outside_p`` share of the outside; returns (edges, core)."""
    core = max(2, math.isqrt(n))
    background = er_edges(n, background_p, rng)
    cu, cv = np.triu_indices(core, k=1)
    ou, ov = np.nonzero(rng.random((core, n - core)) < core_to_outside_p)
    edges = np.concatenate([
        background,
        np.stack([cu, cv], axis=1),
        np.stack([ou, ov + core], axis=1),
    ]).astype(np.int64)
    return np.unique(edges, axis=0), core


@dataclass(frozen=True)
class ChurnStream:
    """Base edges plus batches of (deleted, re-inserted) core edges."""

    n: int
    base: np.ndarray
    deletes: List[np.ndarray]
    inserts: List[np.ndarray]


def churn_stream(n: int, batches: int, churn: int) -> ChurnStream:
    """Each batch deletes ``churn`` live core-incident edges and
    re-inserts the previous batch's deletions: every touched edge has a
    large common neighbourhood, the worst case for delta maintenance."""
    rng = rng_for(INSTANCE_SEED, 2)
    base, core = adversarial_core_edges(n, rng)
    alive = base[base[:, 0] < core]  # rows are u < v: u is the core end
    previous = np.empty((0, 2), dtype=np.int64)
    deletes, inserts = [], []
    for _ in range(batches):
        picked = np.sort(rng.choice(alive.shape[0], size=churn, replace=False))
        dropped = alive[picked]
        deletes.append(dropped)
        inserts.append(previous)
        alive = np.concatenate([np.delete(alive, picked, axis=0), previous])
        previous = dropped
    return ChurnStream(n=n, base=base, deletes=deletes, inserts=inserts)


def update_batch(deleted: np.ndarray, inserted: np.ndarray):
    """One ``repro`` batch: re-inserts first, then deletes."""
    from repro import UpdateBatch

    edges = np.concatenate([inserted, deleted])
    ops = np.concatenate([
        np.full(inserted.shape[0], UpdateBatch.INSERT, dtype=np.int8),
        np.full(deleted.shape[0], UpdateBatch.DELETE, dtype=np.int8),
    ])
    return UpdateBatch(edges[:, 0], edges[:, 1], ops)


@dataclass(frozen=True)
class Read:
    """One scheduled read: offset (s) into the window, kind and node."""

    at: float
    kind: str
    node: int


def read_schedule(
    count: int, rate: float, n: int, rng: np.random.Generator
) -> List[Read]:
    """Open-loop Poisson arrivals at ``rate``/s with zipfian node keys
    (rank weights 1/r^theta over a random permutation of the ids) and
    the kinds of :data:`READ_MIX`."""
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=count))
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** ZIPF_THETA
    ranks = rng.choice(n, size=count, p=weights / weights.sum())
    nodes = rng.permutation(n)[ranks]
    kinds = list(READ_MIX)
    shares = np.array([READ_MIX[k] for k in kinds])
    picks = rng.choice(len(kinds), size=count, p=shares / shares.sum())
    return [
        Read(at=float(arrivals[i]), kind=kinds[picks[i]], node=int(nodes[i]))
        for i in range(count)
    ]


def replay_edges(stream: ChurnStream, epochs: int) -> np.ndarray:
    """The edge set after the first ``epochs`` batches, as sorted rows."""
    live = {tuple(e) for e in stream.base.tolist()}
    for deleted, inserted in zip(stream.deletes[:epochs], stream.inserts[:epochs]):
        live.update(map(tuple, inserted.tolist()))
        live.difference_update(map(tuple, deleted.tolist()))
    return np.array(sorted(live), dtype=np.int64).reshape(-1, 2)
