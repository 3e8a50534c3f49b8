"""The streaming engine: live graph state served without recompute.

:class:`StreamEngine` owns the evolving graph as a *delta-buffered CSR*:
an immutable :class:`~repro.graphs.csr.CSRGraph` base snapshot plus a
:class:`~repro.graphs.overlay.CSROverlay` recording the net changes
since.  Update batches apply in three moves:

1. reduce the batch to its net inserts/deletes against the current
   state (:meth:`UpdateBatch.net_against`);
2. compute the exact per-p clique delta — ``removed`` on the pre-state,
   ``added`` on the post-state — via
   :func:`~repro.stream.delta.touched_clique_table`;
3. fold the delta into the maintained counts/listings.

No snapshot is rebuilt per mutation: compaction
(:meth:`CSROverlay.compact`) runs once every ``compact_every`` applied
updates, which is the boundary the differential suite pins against a
from-scratch recompute.

Reads are the engine's own maintained state — counts and canonical
:class:`~repro.graphs.table.CliqueTable` listings, O(1) per query.  A
full distributed listing run (Theorem 1.3 driver) over a maintained
table goes through the ``precomputed_table`` entry point of
:func:`~repro.core.congested_clique_listing.list_cliques_congested_clique`
(:meth:`StreamEngine.clique_table` returns the rows it accepts); the
serve plane caches one such run per immutable epoch
(:meth:`repro.serve.epoch.EpochSnapshot.listing_result`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set, Union

import numpy as np

from repro.graphs.csr import CSRGraph, count_cliques_csr
from repro.graphs.graph import Graph
from repro.graphs.overlay import CSROverlay
from repro.graphs.table import CliqueTable
from repro.stream.delta import KpDelta, touched_clique_table
from repro.stream.log import UpdateBatch

Clique = FrozenSet[int]


@dataclass(frozen=True)
class ApplyResult:
    """Outcome of applying one batch: net changes + per-p deltas."""

    inserted: np.ndarray
    deleted: np.ndarray
    deltas: Dict[int, KpDelta] = field(default_factory=dict)
    compacted: bool = False


class StreamEngine:
    """Incremental K_p maintenance over a delta-buffered CSR.

    Parameters
    ----------
    graph:
        Initial state — a :class:`Graph` (snapshotted once) or an
        existing :class:`CSRGraph` snapshot.
    compact_every:
        Fold the overlay into a fresh snapshot after this many applied
        (net) updates.  Between compactions mutations touch only the
        overlay — the fix for the per-mutation snapshot invalidation of
        :meth:`Graph.to_csr`.
    workers:
        Worker processes for snapshot-scale counting work — the
        baseline count a :meth:`track` call establishes and the
        compaction-time recounts below.  ``1`` (default) runs serially;
        ``> 1`` shards root-edge slices across the process-wide
        :class:`repro.parallel.ShardExecutor` (exact: per-slice counts
        sum to the single-core number).
    recount_on_compact:
        Trust-but-verify mode: after every compaction, recount each
        tracked ``p`` from the fresh snapshot (through the shard
        executor when ``workers > 1``) and raise if the incrementally
        maintained count has drifted.  This is the streaming twin of
        the differential suite's compaction-boundary checks, cheap
        enough to leave on in replay tooling (``repro.cli stream
        --verify``).
    """

    def __init__(
        self,
        graph: Union[Graph, CSRGraph],
        compact_every: int = 256,
        workers: int = 1,
        recount_on_compact: bool = False,
    ) -> None:
        if compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        snapshot = graph.to_csr() if isinstance(graph, Graph) else graph
        self._snapshot = snapshot
        self._overlay = CSROverlay(snapshot)
        self.compact_every = int(compact_every)
        self.workers = int(workers)
        self.recount_on_compact = bool(recount_on_compact)
        self._pending = 0
        self._epoch = 0
        self._counts: Dict[int, int] = {}
        #: Maintained canonical clique tables for listing-tracked sizes;
        #: each batch folds its delta in with vectorized row set algebra
        #: (never python-set mutation), and the current table object is
        #: shared as-is with epochs — tables are immutable, so a
        #: fold replaces the reference instead of writing in place.
        self._listings: Dict[int, CliqueTable] = {}
        self.stats: Dict[str, int] = {
            "batches": 0,
            "updates": 0,
            "inserted": 0,
            "deleted": 0,
            "compactions": 0,
            "cliques_added": 0,
            "cliques_removed": 0,
            "recounts": 0,
        }

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._overlay.num_nodes

    @property
    def num_edges(self) -> int:
        return self._overlay.num_edges

    @property
    def snapshot(self) -> CSRGraph:
        """The current base snapshot (stale by :attr:`overlay` delta)."""
        return self._snapshot

    @property
    def overlay(self) -> CSROverlay:
        return self._overlay

    @property
    def epoch(self) -> int:
        """Number of applied batches — the serve plane's epoch counter.

        Compaction folds the overlay without changing the graph state,
        so it does *not* advance the epoch; only :meth:`apply` does.
        """
        return self._epoch

    def frozen_view(self):
        """An immutable point-in-time view of the current graph state
        (:meth:`CSROverlay.freeze <repro.graphs.overlay.CSROverlay.freeze>`)
        — the epoch-pinning seam :mod:`repro.serve` reads through while
        later batches keep applying."""
        return self._overlay.freeze()

    def tracked_ps(self) -> Set[int]:
        return set(self._counts)

    def counts(self) -> Dict[int, int]:
        """A copy of the maintained ``{p: count}`` map (tracked sizes only)."""
        return dict(self._counts)

    def listed_ps(self) -> Set[int]:
        """The sizes maintained with full listings (``track(p, listing=True)``)."""
        return set(self._listings)

    def has_edge(self, u: int, v: int) -> bool:
        return self._overlay.has_edge(u, v)

    def graph(self) -> Graph:
        """Materialize the current state as a mutable graph (for
        verification and for driving the distributed simulators)."""
        return self._overlay.to_graph()

    def __repr__(self) -> str:
        return (
            f"StreamEngine(n={self.num_nodes}, m={self.num_edges}, "
            f"tracked={sorted(self._counts)}, pending={self._pending})"
        )

    # ------------------------------------------------------------------
    # Tracking
    # ------------------------------------------------------------------
    def track(self, p: int, listing: bool = False) -> None:
        """Start maintaining K_p incrementally (idempotent).

        The baseline is computed once from a compacted snapshot; from
        then on every applied batch folds its exact delta in.  With
        ``listing=True`` the full clique set is maintained too, and the
        baseline count is its length (counts alone never materialize
        clique objects).
        """
        if p < 3:
            raise ValueError(f"tracking exists for p >= 3 only, got {p}")
        if listing and p not in self._listings:
            self._listings[p] = self._compacted().clique_result(p)
            self._counts[p] = len(self._listings[p])
        if p not in self._counts:
            self._counts[p] = self._snapshot_count(self._compacted(), p)

    def _snapshot_count(self, snapshot: CSRGraph, p: int) -> int:
        """Count K_p on a snapshot — sharded across the executor's
        workers when configured, the exact same integer either way."""
        if self.workers > 1:
            from repro.parallel import get_executor

            return get_executor(self.workers).count_csr(snapshot, p)
        return count_cliques_csr(snapshot, p)

    def _compacted(self) -> CSRGraph:
        if self._overlay.delta_size:
            self._compact()
        return self._snapshot

    def _compact(self) -> None:
        self._snapshot = self._overlay.compact()
        self._overlay = CSROverlay(self._snapshot)
        self._pending = 0
        self.stats["compactions"] += 1
        if self.recount_on_compact and self._counts:
            self.recount()

    def recount(self) -> Dict[int, int]:
        """Recount every tracked ``p`` from the current base snapshot and
        check the incrementally maintained numbers against it.

        This is the compaction-time self-check (automatic when
        ``recount_on_compact`` is set): the recount runs on the freshly
        folded snapshot — through the shard executor when ``workers > 1``
        — and a mismatch raises, naming the drifted ``p``.  Note the
        overlay must be empty for the check to be meaningful; callers
        outside :meth:`_compact` get a compaction first.

        Returns ``{p: recounted value}``.
        """
        if self._overlay.delta_size:
            self._compact()  # recounts via the recount_on_compact hook
            if self.recount_on_compact:
                return dict(self._counts)
        snapshot = self._snapshot
        recounted: Dict[int, int] = {}
        for p in sorted(self._counts):
            actual = self._snapshot_count(snapshot, p)
            recounted[p] = actual
            if actual != self._counts[p]:
                raise RuntimeError(
                    f"maintained K{p} count {self._counts[p]} drifted from "
                    f"snapshot recount {actual} at compaction "
                    f"{self.stats['compactions']}"
                )
        self.stats["recounts"] += len(recounted)
        return recounted

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply(self, batch: UpdateBatch) -> ApplyResult:
        """Apply one update batch; returns the net changes and, for
        every tracked ``p``, the exact :class:`KpDelta`.

        A batch naming a node outside ``[0, n)`` raises ``ValueError``
        before any state changes, so the engine is left as it was."""
        if len(batch):
            low, high = int(batch.u.min()), int(batch.v.max())  # u < v per row
            if low < 0 or high >= self.num_nodes:
                bad = low if low < 0 else high
                raise ValueError(f"node {bad} out of range for n={self.num_nodes}")
        inserts, deletes = batch.net_against(self._overlay.has_edge)
        removed = {
            p: touched_clique_table(self._overlay, deletes, p) for p in self._counts
        }
        self._overlay.apply(inserts, deletes)
        deltas: Dict[int, KpDelta] = {}
        for p in sorted(self._counts):
            added = touched_clique_table(self._overlay, inserts, p)
            delta = KpDelta(p=p, removed=removed[p], added=added)
            self._counts[p] += delta.net
            listing = self._listings.get(p)
            if listing is not None:
                if delta.removed.shape[0]:
                    listing = listing.difference(delta.removed)
                if delta.added.shape[0]:
                    listing = listing.union(delta.added)
                self._listings[p] = listing
                self._counts[p] = len(listing)
            self.stats["cliques_added"] += int(delta.added.shape[0])
            self.stats["cliques_removed"] += int(delta.removed.shape[0])
            deltas[p] = delta
        self.stats["batches"] += 1
        self.stats["updates"] += len(batch)
        self.stats["inserted"] += int(inserts.shape[0])
        self.stats["deleted"] += int(deletes.shape[0])
        self._pending += int(inserts.shape[0] + deletes.shape[0])
        self._epoch += 1
        compacted = False
        if self._pending >= self.compact_every:
            self._compact()
            compacted = True
        return ApplyResult(
            inserted=inserts, deleted=deletes, deltas=deltas, compacted=compacted
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, p: int) -> int:
        """Current K_p count (starts tracking ``p`` on first use)."""
        if p < 1:
            raise ValueError(f"clique size must be >= 1, got {p}")
        if p == 1:
            return self.num_nodes
        if p == 2:
            return self.num_edges
        if p not in self._counts:
            self.track(p)
        return self._counts[p]

    def cliques(self, p: int) -> FrozenSet[Clique]:
        """Current K_p set (upgrades ``p`` to listing maintenance).

        For maintained sizes this is the table's cached frozenset — one
        shared immutable object per maintained table, not a per-call
        copy."""
        return self.clique_result(p).as_frozenset()

    def clique_result(self, p: int) -> CliqueTable:
        """The maintained K_p listing as a canonical
        :class:`~repro.graphs.table.CliqueTable` (upgrades ``p`` to
        listing maintenance).  The returned object is the maintained
        table itself — immutable and shared, so epoch snapshots alias it
        for free."""
        if p < 1:
            raise ValueError(f"clique size must be >= 1, got {p}")
        if p == 1:
            rows = np.arange(self.num_nodes, dtype=np.int64).reshape(-1, 1)
            return CliqueTable.from_rows(rows, p=1)
        if p == 2:
            # Served from the overlay's live edge table: a pure read must
            # not trigger a compaction (it would reset the pending
            # counter, inflate stats["compactions"] and — with
            # recount_on_compact — run recounts as a side effect of a
            # query).
            return CliqueTable.from_rows(self._overlay.edge_table(), p=2)
        if p not in self._listings:
            self.track(p, listing=True)
        return self._listings[p]

    def clique_table(self, p: int) -> np.ndarray:
        """The maintained K_p listing as a canonical ``(count, p)``
        row matrix — the shape the ``precomputed_table`` listing entry
        point of the Theorem 1.3 driver accepts."""
        return self.clique_result(p).rows
