"""The shard executor: one process pool, three deterministic kernels.

:class:`ShardExecutor` owns a persistent worker pool and exposes the
parallel twins of the batch plane's hot kernels:

- :meth:`fanout_tables` — the Theorem 1.3 listing: sharded
  :func:`repro.graphs.csr.grouped_clique_tables` over ranges of the
  owners' already-grouped mailboxes, concatenating the per-shard
  ``(owners, table)`` results, or over root-edge slices of a lone
  mailbox;
- :meth:`clique_table` — sharded
  :func:`repro.graphs.csr.clique_table_from_edge_array` (compaction on
  the parent, root-edge slices on the workers);
- :meth:`count_csr` — sharded Kp count of a CSR snapshot (the
  streaming engine's compaction-time recount path).

Determinism contract: shards are contiguous ranges of the kernel's
index space, each shard runs the *identical* single-core kernel on its
slice, and merges concatenate in shard order — so results are equal to
the single-core batch plane as sets/sums (and the drivers only consume
them as sets/sums).  The differential suite in
``tests/test_parallel_plane.py`` pins this across every workload family.

Degenerate modes, all yielding byte-identical results:

- ``workers=1`` — no pool, no shared memory: every kernel calls the
  serial function directly;
- small inputs (below :data:`MIN_PARALLEL_ITEMS`) — per-call pool and
  shared-memory overhead would dominate, so the serial path runs even
  when a pool is available;
- daemonic processes (e.g. inside a ``multiprocessing`` sweep worker,
  which may not spawn children) — the executor detects this and runs
  inline.

Pools are created lazily, cached per worker count by
:func:`get_executor`, and torn down at interpreter exit.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.csr import (
    BITSET_MAX_NODES,
    CSRGraph,
    clique_table_from_edge_array,
    compact_edge_array,
    count_cliques_csr,
    grouped_clique_tables,
    pack_bitset_rows,
    pack_goal_bits,
)
from repro.parallel import tasks
from repro.parallel.shard import balanced_ranges, indptr_ranges
from repro.parallel.shm import mem_ref, sharing

#: Below this many work items (messages, edges) a kernel runs serially —
#: the pool round-trip plus shared-memory setup costs ~1 ms, which only
#: pays for itself once the numpy work comfortably exceeds it.
MIN_PARALLEL_ITEMS = 2048


def _in_daemon() -> bool:
    """Daemonic processes (sweep pool workers) may not fork children."""
    return multiprocessing.current_process().daemon


class ShardExecutor:
    """A persistent process pool running the shard kernels.

    Parameters
    ----------
    workers:
        Worker process count; ``1`` means strictly inline (no pool is
        ever created).  Values above the machine's core count are
        allowed — correctness never depends on parallel execution.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = int(workers)
        self._pool = None

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether calls may actually fan out to a pool right now."""
        return self.workers > 1 and not _in_daemon()

    def _ensure_pool(self):
        if self._pool is None:
            # Forked children inherit a *running* tracker: their shared-
            # memory attaches then register with the parent's tracker,
            # which the parent's unlink clears (bpo-39959).
            resource_tracker.ensure_running()
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0]
            )
            self._pool = ctx.Pool(self.workers)
        return self._pool

    def prewarm(self) -> bool:
        """Fork the worker pool now instead of on the first kernel call.

        Long-running front ends (the serve plane) call this at startup
        so the first query is not the one paying the pool cold start.
        Returns whether a pool is actually live afterwards (``False`` in
        the inline/daemon degenerate modes, where there is nothing to
        warm).
        """
        if not self.parallel:
            return False
        self._ensure_pool()
        return True

    def close(self) -> None:
        """Shut the pool down (idempotent); the executor stays usable —
        the next parallel call lazily builds a fresh pool.

        Shutdown is graceful — ``close()`` then ``join()`` — so worker
        processes run their cleanup handlers; terminating them mid-task
        is how shared-memory segments and pool semaphores leak past
        interpreter exit (the resource-tracker warnings).  ``terminate``
        remains the fallback if the graceful path itself fails.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.close()
            pool.join()
        except Exception:  # pragma: no cover - defensive fallback
            pool.terminate()
            pool.join()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "pool" if self._pool is not None else "idle"
        return f"ShardExecutor(workers={self.workers}, {state})"

    def _run(
        self,
        fn,
        arrays: Dict[str, np.ndarray],
        shard_args: Sequence[tuple],
    ) -> List:
        """Fan one kernel over shard argument tuples; results in order."""
        if not shard_args:
            return []
        if not self.parallel or len(shard_args) == 1:
            refs = {name: mem_ref(array) for name, array in arrays.items()}
            return [fn(refs, *args) for args in shard_args]
        pool = self._ensure_pool()
        with sharing(arrays) as refs:
            return pool.starmap(
                tasks.invoke, [(fn, refs, args) for args in shard_args]
            )

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def fanout_tables(
        self,
        group_indptr: np.ndarray,
        edges: np.ndarray,
        p: int,
        assume_unique: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sharded :func:`~repro.graphs.csr.grouped_clique_tables`.

        Takes the ``(indptr, payload)`` mailboxes
        :func:`~repro.core.partition.owner_mailboxes` gathers: group
        ``g`` owns ``edges[group_indptr[g]:group_indptr[g + 1]]``.
        Groups are sharded into contiguous ranges balanced by per-group
        edge counts (owners differ in load); a clique never crosses
        groups, so per-shard results concatenate into exactly the
        single-core answer (same rows, row order by shard).

        A lone group (the Theorem 1.3 driver's one mailbox of an intact
        delivery) has nothing to split by group, so it goes through
        :meth:`clique_table` instead: compaction on the parent,
        root-edge slices on the workers.  The rows are the single-core
        answer's as a set, every one in group 0.
        """
        group_indptr = np.asarray(group_indptr, dtype=np.int64)
        edges = np.asarray(edges)
        if not self.parallel or edges.shape[0] < MIN_PARALLEL_ITEMS:
            return grouped_clique_tables(group_indptr, edges, p, assume_unique)
        if group_indptr.size == 2:
            table = self.clique_table(edges[group_indptr[0] : group_indptr[1]], p)
            return np.zeros(table.shape[0], dtype=np.int64), table
        ranges = indptr_ranges(group_indptr, self.workers)
        results = self._run(
            tasks.grouped_tables_shard,
            {"indptr": group_indptr, "edges": edges},
            [(lo, hi, p, assume_unique) for lo, hi in ranges if hi > lo],
        )
        return _merge_owner_tables(results, p)

    def clique_table(
        self, edges: np.ndarray, p: int, goal: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Sharded :func:`~repro.graphs.csr.clique_table_from_edge_array`.

        The parent compacts the edge array once (vertex relabelling,
        dedup, identity-order forward CSR, bitset rows, and the goal
        bitset when ``goal`` is given); workers run the level pipeline
        over disjoint root-edge slices.  Root edges partition the
        cliques, so concatenation is exact.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if not self.parallel or edges.shape[0] < MIN_PARALLEL_ITEMS:
            return clique_table_from_edge_array(edges, p, goal)
        verts, fptr, findices = compact_edge_array(edges)
        if verts.size > BITSET_MAX_NODES:  # pragma: no cover - huge subgraphs
            return clique_table_from_edge_array(edges, p, goal)
        arrays = {
            "fptr": fptr,
            "findices": findices,
            "bits": pack_bitset_rows(fptr, findices, verts.size),
        }
        if goal is not None:
            arrays["goal_bits"] = pack_goal_bits(verts, goal)
        ranges = balanced_ranges(np.ones(findices.size), self.workers)
        results = self._run(
            tasks.forward_table_shard,
            arrays,
            [(lo, hi, p) for lo, hi in ranges if hi > lo],
        )
        tables = [t for t in results if t.shape[0]]
        if not tables:
            return np.empty((0, p), dtype=np.int64)
        local = np.concatenate(tables) if len(tables) > 1 else tables[0]
        return verts[local]

    def count_csr(self, csr: CSRGraph, p: int) -> int:
        """Sharded Kp count of a snapshot (exact: per-slice counts sum).

        Falls back to the serial counter when the answer is already
        memoized on the snapshot, when the snapshot exceeds the bitset
        regime, or below the parallel threshold.
        """
        if p <= 2 or p in csr._tables or not self.parallel:
            return count_cliques_csr(csr, p)
        bits = csr.forward_bits()
        if bits is None:  # pragma: no cover - n > BITSET_MAX_NODES streams
            return count_cliques_csr(csr, p)
        fptr, findices = csr.forward()
        if findices.size < MIN_PARALLEL_ITEMS:
            return count_cliques_csr(csr, p)
        ranges = balanced_ranges(np.ones(findices.size), self.workers)
        results = self._run(
            tasks.forward_count_shard,
            {"fptr": fptr, "findices": findices, "bits": bits},
            [(lo, hi, p) for lo, hi in ranges if hi > lo],
        )
        return int(sum(results))


def _merge_owner_tables(
    results: Sequence[Tuple[np.ndarray, np.ndarray]], p: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate per-shard ``(owners, table)`` pairs in shard order."""
    owners = [o for o, t in results if t.shape[0]]
    tables = [t for o, t in results if t.shape[0]]
    if not tables:
        return np.empty(0, dtype=np.int64), np.empty((0, p), dtype=np.int64)
    if len(tables) == 1:
        return owners[0], tables[0]
    return np.concatenate(owners), np.concatenate(tables)


# ----------------------------------------------------------------------
# Registry: one executor (and pool) per worker count, process-wide
# ----------------------------------------------------------------------
_EXECUTORS: Dict[int, ShardExecutor] = {}
_INLINE = ShardExecutor(1)


def get_executor(workers: Optional[int]) -> ShardExecutor:
    """The process-wide executor for a worker count (pool reused across
    calls; ``workers<=1`` or ``None`` returns the inline singleton)."""
    if not workers or workers <= 1:
        return _INLINE
    executor = _EXECUTORS.get(workers)
    if executor is None:
        executor = _EXECUTORS[workers] = ShardExecutor(workers)
    return executor


def shutdown_executors() -> None:
    """Tear down every cached pool (registered at interpreter exit)."""
    for executor in _EXECUTORS.values():
        executor.close()
    _EXECUTORS.clear()


atexit.register(shutdown_executors)


def default_workers() -> int:
    """A sensible worker count for ``--workers 0`` style auto requests."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(8, cpus))
