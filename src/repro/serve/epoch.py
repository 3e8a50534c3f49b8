"""Epoch snapshots: the unit of snapshot isolation in the serve plane.

An :class:`EpochSnapshot` is everything a reader needs, frozen at the
instant one update batch finished applying: the engine's immutable base
CSR plus a :class:`~repro.graphs.overlay.FrozenOverlay` delta view, and
the maintained per-p counts and canonical
:class:`~repro.graphs.table.CliqueTable` listings.  Once built it is
never mutated (the lazily materialized listing runs are cached under an
internal lock), so any number of reader threads can answer queries from
one epoch while the writer keeps publishing newer ones — an in-flight
query can never observe a half-applied batch, because nothing it
touches is shared with the live engine state.

Clique-set reads need no lock at all: a table materializes its
frozenset view at most once and caches it on itself, so ``cliques(p)``
is a plain attribute read after the first call — and because the
*table objects* are shared with the engine (tables are immutable; the
engine replaces references instead of writing in place), epochs across
which K_p did not change share one table and one materialized set.

Epoch lifetime is managed by
:class:`~repro.serve.service.CliqueService`: readers *pin* the current
epoch, and an epoch is garbage-collected when its last reader releases
it and a newer epoch has been published.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Mapping, Optional, Union

import numpy as np

from repro.graphs.overlay import FrozenOverlay
from repro.graphs.table import CliqueTable

Clique = FrozenSet[int]


class UntrackedSizeError(ValueError):
    """A query asked for a clique size the service does not maintain."""

    def __init__(self, p: int, tracked) -> None:
        super().__init__(
            f"clique size p={p} is not served; tracked sizes: "
            f"{sorted(tracked) or 'none'} (plus p=1/p=2, always available)"
        )
        self.p = p


class EpochSnapshot:
    """One immutable compaction epoch: frozen graph view + frozen answers.

    Parameters
    ----------
    epoch:
        The engine's batch counter at publish time.
    view:
        The engine's :class:`FrozenOverlay` at publish time.
    counts:
        Maintained ``{p: count}`` at publish time (copied).
    tables:
        Maintained ``{p: listing}`` for every listing-tracked size —
        :class:`CliqueTable` objects (shared with the engine; they are
        immutable) or raw ``(count, p)`` row arrays, which are wrapped
        and canonicalized on construction.
    """

    __slots__ = (
        "epoch", "view", "_counts", "_tables",
        "_p1", "_p2", "_graph", "_results", "_lock",
    )

    def __init__(
        self,
        epoch: int,
        view: FrozenOverlay,
        counts: Mapping[int, int],
        tables: Mapping[int, Union[CliqueTable, np.ndarray]],
    ) -> None:
        self.epoch = int(epoch)
        self.view = view
        self._counts: Dict[int, int] = dict(counts)
        self._tables: Dict[int, CliqueTable] = {
            p: t if isinstance(t, CliqueTable) else CliqueTable.from_rows(t, p=p)
            for p, t in tables.items()
        }
        self._p1: Optional[CliqueTable] = None
        self._p2: Optional[CliqueTable] = None
        self._graph = None
        self._results: Dict[tuple, object] = {}
        # Reentrant: listing_result materializes graph() under the lock.
        # Guards only the lazily built _graph/_results (and _p1/_p2
        # construction is a benign race — dict/slot stores are atomic
        # and any winner is correct); clique-set reads are lock-free.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.view.num_nodes

    @property
    def num_edges(self) -> int:
        return self.view.num_edges

    def tracked_ps(self):
        return set(self._counts)

    def __repr__(self) -> str:
        return (
            f"EpochSnapshot(epoch={self.epoch}, n={self.num_nodes}, "
            f"m={self.num_edges}, tracked={sorted(self._counts)})"
        )

    # ------------------------------------------------------------------
    # Queries — all answered from frozen state only
    # ------------------------------------------------------------------
    def count(self, p: int) -> int:
        """K_p count at this epoch."""
        if p < 1:
            raise ValueError(f"clique size must be >= 1, got {p}")
        if p == 1:
            return self.num_nodes
        if p == 2:
            return self.num_edges
        if p not in self._counts:
            raise UntrackedSizeError(p, self._counts)
        return self._counts[p]

    def table(self, p: int) -> CliqueTable:
        """The K_p listing at this epoch as a canonical
        :class:`CliqueTable` — the zero-materialization read the
        service serves when ``materialize`` is off."""
        if p < 1:
            raise ValueError(f"clique size must be >= 1, got {p}")
        if p == 1:
            if self._p1 is None:
                rows = np.arange(self.num_nodes, dtype=np.int64)
                self._p1 = CliqueTable.from_rows(rows.reshape(-1, 1), p=1)
            return self._p1
        if p == 2:
            if self._p2 is None:
                self._p2 = CliqueTable.from_rows(self.view.edge_table(), p=2)
            return self._p2
        if p not in self._tables:
            raise UntrackedSizeError(p, self._tables)
        return self._tables[p]

    def clique_table(self, p: int) -> np.ndarray:
        """The K_p listing at this epoch as an id-ascending row matrix."""
        return self.table(p).rows

    def cliques(self, p: int) -> FrozenSet[Clique]:
        """The K_p set at this epoch — the frozen table's lazily
        materialized frozenset, built at most once *per table* and
        shared across readers and across epochs whose K_p listing is
        the same object (no lock: epochs and tables are immutable)."""
        return self.table(p).as_frozenset()

    def graph(self):
        """The epoch's graph, materialized lazily (cached)."""
        with self._lock:
            if self._graph is None:
                self._graph = self.view.to_graph()
            return self._graph

    def listing_result(self, p: int, seed: int = 0):
        """A full CONGESTED CLIQUE listing run over *this epoch's* graph,
        the local-listing tail served from the epoch's frozen table.

        Lazy and cached per ``(p, seed)`` — the first reader of an epoch
        pays the simulated run, later readers (and the per-node
        :meth:`learned` queries) share it.
        """
        if p < 3:
            raise ValueError(f"a listing run needs clique size p >= 3, got {p}")
        if p not in self._tables:
            raise UntrackedSizeError(p, self._tables)
        key = (p, seed)
        with self._lock:
            result = self._results.get(key)
            if result is None:
                from repro.core.congested_clique_listing import (
                    list_cliques_congested_clique,
                )

                result = list_cliques_congested_clique(
                    self.graph(),
                    p,
                    seed=seed,
                    precomputed_table=self._tables[p],
                )
                self._results[key] = result
            return result

    def learned(self, node: int, p: int, seed: int = 0) -> FrozenSet[Clique]:
        """The cliques attributed to ``node`` by this epoch's listing
        run — the per-node learned subgraph's output.  Materializes only
        that node's rows of the run's columnar attribution."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} out of range for n={self.num_nodes}"
            )
        result = self.listing_result(p, seed=seed)
        return result.cliques_of(node)
