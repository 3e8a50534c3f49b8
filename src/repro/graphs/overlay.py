"""Delta-buffered CSR access: a mutable overlay over an immutable snapshot.

The mutable :class:`~repro.graphs.graph.Graph` invalidates its cached CSR
snapshot on *every* mutation, so a stream of single-edge updates pays a
full snapshot rebuild (plus re-derived orientation, bitsets and clique
tables) per query — the cache-thrash the streaming subsystem exists to
fix.  :class:`CSROverlay` is the middle ground:

- a frozen :class:`~repro.graphs.csr.CSRGraph` **base** snapshot;
- a small per-node **delta** (edges added / removed since the snapshot),
  applied in net form via :meth:`apply`;
- overlay-aware accessors (:meth:`neighbors`, :meth:`has_edge`,
  :meth:`degree`) that merge base rows with the delta on demand;
- an incrementally-maintained full-adjacency bitset matrix
  (:meth:`adjacency_bits`) — the structure the streaming delta kernels
  in :mod:`repro.stream.delta` intersect to enumerate the cliques a
  batch of edge updates touches;
- :meth:`compact`, which folds the delta into a fresh immutable
  snapshot.  The :class:`~repro.stream.engine.StreamEngine` calls this
  every K updates instead of on every mutation.

The read accessors are written once, on :class:`FrozenOverlay` — the
immutable point-in-time view :meth:`CSROverlay.freeze` hands to
concurrent readers — and the live overlay inherits them.

The overlay is *net*: re-inserting an edge removed since the snapshot
(or vice versa) cancels out, so :attr:`delta_size` measures the true
distance from the base snapshot and ``compact()`` on a clean overlay
returns the base unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph, _scatter_bits
from repro.graphs.graph import Graph
from repro.graphs.keys import contains_sorted, edge_keys, key_pairs, unique_sorted


def _write_bits(bits: np.ndarray, edges: np.ndarray, present: bool) -> None:
    """Set/clear both direction bits of each edge in a bitset matrix.

    ``bits`` is the uint64 word matrix from
    :meth:`~repro.graphs.csr.CSRGraph.adjacency_bits`; the scatter goes
    through its uint8 view (see :func:`repro.graphs.csr._scatter_bits`).
    """
    if edges.shape[0] == 0:
        return
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    _scatter_bits(bits, rows, cols, clear=not present)


def _delta_keys(delta: Dict[int, Set[int]], n: int) -> np.ndarray:
    """Canonical keys of a symmetric node -> neighbours delta."""
    return edge_keys([(u, v) for u, vs in delta.items() for v in vs if u < v], n)


def _directed_keys(delta: Dict[int, Set[int]], n: int) -> np.ndarray:
    """Sorted ``u·n + v`` keys of every (node, neighbour) entry of a
    delta — both directions of each edge, the CSR's own key order."""
    keys = np.fromiter(
        (u * n + v for u, vs in delta.items() for v in vs), dtype=np.int64
    )
    keys.sort()
    return keys


class FrozenOverlay:
    """An immutable snapshot-isolated view: base CSR + frozen delta.

    Produced by :meth:`CSROverlay.freeze`; never mutated afterwards, so
    any number of reader threads can share one instance while the live
    overlay keeps applying batches.  Every read accessor answers from the
    base snapshot and the ``node -> neighbours`` delta dicts only, which
    is why :class:`CSROverlay` inherits them unchanged.
    """

    __slots__ = ("base", "_added", "_removed", "_num_edges", "_delta_edges")

    def __init__(
        self,
        base: CSRGraph,
        added: Dict[int, frozenset],
        removed: Dict[int, frozenset],
        num_edges: int,
        delta_edges: int,
    ) -> None:
        self.base = base
        self._added = added
        self._removed = removed
        self._num_edges = num_edges
        self._delta_edges = delta_edges

    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def delta_size(self) -> int:
        """Number of edges on which the view differs from the base."""
        return self._delta_edges

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if v in self._added.get(u, ()):
            return True
        if v in self._removed.get(u, ()):
            return False
        return self.base.has_edge(u, v)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` with the delta merged in."""
        row = self.base.neighbors(v)
        removed = self._removed.get(v)
        if removed:
            row = row[~np.isin(row, np.fromiter(removed, dtype=np.int64))]
        added = self._added.get(v)
        if added:
            row = unique_sorted(
                np.concatenate([row, np.fromiter(added, dtype=np.int64)])
            )
        return row

    def degree(self, v: int) -> int:
        return int(self.neighbors(v).size)

    def edge_table(self) -> np.ndarray:
        """All current edges as a canonical ``(m, 2)`` int64 table sorted
        by ``(u, v)``."""
        n = self.num_nodes
        keys = edge_keys(self.base.edge_table(), n)
        keys = keys[~contains_sorted(_delta_keys(self._removed, n), keys)]
        added = _delta_keys(self._added, n)
        return key_pairs(unique_sorted(np.concatenate([keys, added])), n)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All current edges in canonical ``u < v`` form."""
        for u, v in self.edge_table().tolist():
            yield (u, v)

    def to_graph(self) -> Graph:
        """Materialize the current state as a mutable :class:`Graph`
        (array-built: it holds its CSR snapshot and no neighbour sets)."""
        return Graph.from_edge_array(self.num_nodes, self.edge_table())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.num_nodes}, m={self.num_edges}, "
            f"delta={self.delta_size})"
        )


class CSROverlay(FrozenOverlay):
    """Mutable delta overlay over an immutable :class:`CSRGraph` base.

    Adds to the inherited reads what a live overlay needs: net
    :meth:`apply`, the maintained bitset matrix, a per-node cache of
    merged rows behind :meth:`neighbors`, :meth:`compact` and an
    O(delta) :meth:`freeze`.
    """

    __slots__ = ("_bits", "_rows")

    def __init__(self, base: CSRGraph) -> None:
        super().__init__(base, {}, {}, base.num_edges, 0)
        abits = base.adjacency_bits()
        self._bits = None if abits is None else abits.copy()
        self._rows: Dict[int, np.ndarray] = {}

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` with the delta merged in.

        Clean nodes return the base row (a view); dirty nodes build and
        cache a merged row, invalidated by the next :meth:`apply` that
        touches them.
        """
        if v not in self._added and v not in self._removed:
            return self.base.neighbors(v)
        row = self._rows.get(v)
        if row is None:
            row = self._rows[v] = super().neighbors(v)
        return row

    def adjacency_bits(self) -> "np.ndarray | None":
        """Full-adjacency bitset rows kept in sync with the delta, or
        ``None`` past :data:`~repro.graphs.csr.BITSET_MAX_NODES` (the
        delta kernels then fall back to sorted-row intersections)."""
        return self._bits

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, inserts: np.ndarray, deletes: np.ndarray) -> None:
        """Record a *net* batch of edge changes.

        ``inserts`` / ``deletes`` are ``(k, 2)`` canonical edge arrays;
        the caller guarantees net semantics (every insert is currently
        absent, every delete currently present) —
        :meth:`repro.stream.log.UpdateBatch.net_against` produces
        exactly this.
        """
        inserts = np.asarray(inserts, dtype=np.int64).reshape(-1, 2)
        deletes = np.asarray(deletes, dtype=np.int64).reshape(-1, 2)
        for u, v in inserts.tolist():
            self._record(u, v, present=True)
        for u, v in deletes.tolist():
            self._record(u, v, present=False)
        self._num_edges += inserts.shape[0] - deletes.shape[0]
        if self._bits is not None:
            _write_bits(self._bits, inserts, True)
            _write_bits(self._bits, deletes, False)

    def _record(self, u: int, v: int, present: bool) -> None:
        forward, backward = (self._removed, self._added) if present else (
            self._added,
            self._removed,
        )
        if v in forward.get(u, ()):  # cancels an earlier opposite change
            forward[u].discard(v)
            forward[v].discard(u)
            self._delta_edges -= 1
        else:
            backward.setdefault(u, set()).add(v)
            backward.setdefault(v, set()).add(u)
            self._delta_edges += 1
        self._rows.pop(u, None)
        self._rows.pop(v, None)

    # ------------------------------------------------------------------
    # Freezing / compaction
    # ------------------------------------------------------------------
    def freeze(self) -> FrozenOverlay:
        """An immutable point-in-time view of the current state.

        The view shares the (already immutable) base snapshot and copies
        only the dirty delta sets — bounded by the engine's
        ``compact_every``, so freezing is O(delta), not O(m).  Later
        :meth:`apply` calls on this overlay never show through a frozen
        view, which is what makes it safe to hand to concurrent readers
        (the serve plane's epoch pinning, :mod:`repro.serve`).
        """
        return FrozenOverlay(
            self.base,
            {v: frozenset(s) for v, s in self._added.items() if s},
            {v: frozenset(s) for v, s in self._removed.items() if s},
            self._num_edges,
            self._delta_edges,
        )

    def compact(self) -> CSRGraph:
        """Fold the delta into a fresh immutable snapshot.

        A clean overlay returns the base itself, preserving every
        memoized structure (orientation, bitsets, clique tables) the
        base has accumulated.
        """
        if self._delta_edges == 0:
            return self.base
        # A sorted-key merge on the directed keys u·n + v, the base's
        # already in CSR order: the removed keys (all in the base, by
        # apply's net contract) are deleted and the added ones inserted
        # at their searchsorted slots; row v starts at the first key at
        # or past v·n.
        n = self.num_nodes
        base = self.base
        row_base = np.arange(n + 1, dtype=np.int64) * n
        keys = np.repeat(row_base[:-1], np.diff(base.indptr)) + base.indices
        keys = np.delete(keys, np.searchsorted(keys, _directed_keys(self._removed, n)))
        added = _directed_keys(self._added, n)
        keys = np.insert(keys, np.searchsorted(keys, added), added)
        indptr = np.searchsorted(keys, row_base)
        snapshot = CSRGraph(indptr, keys - np.repeat(row_base[:-1], np.diff(indptr)))
        if self._bits is not None:
            # The maintained bitset matrix *is* the folded state's full
            # adjacency, so seed the snapshot's cache with a copy —
            # compaction then costs a memcpy here instead of a full
            # bitwise-scatter re-pack in the next overlay's __init__.
            snapshot._abits = self._bits.copy()
        return snapshot
