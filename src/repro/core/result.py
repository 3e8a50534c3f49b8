"""Result object shared by every listing algorithm in the library.

Historically a plain ``set[frozenset]`` container; now a *columnar-first*
result: the fast listing planes attribute whole clique tables at once
(:meth:`ListingResult.attribute_table`), and the python ``cliques`` /
``per_node`` views are materialized lazily, only when something actually
reads them.  The verification and stream/serve paths consume the
canonical :meth:`table` instead, so a full run → verify → report cycle
never builds a frozenset unless the caller asks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.congest.errors import CorruptionDetectedError
from repro.congest.ledger import RoundLedger
from repro.graphs.cliques import clique_table
from repro.graphs.graph import Graph
from repro.graphs.table import CliqueTable, frozenset_rows

Clique = FrozenSet[int]


def attribution_arrays(
    listed: Mapping[int, Iterable[Clique]], p: int
) -> Tuple[np.ndarray, np.ndarray]:
    """A node -> cliques map as the ``(owners, table)`` int64 pair that
    :meth:`ListingResult.attribute_table` takes: one row per (node,
    clique), members ascending within each row."""
    owners: List[int] = []
    flat: List[int] = []
    for node, cliques in listed.items():
        for clique in cliques:
            owners.append(node)
            flat.extend(sorted(clique))
    return (
        np.asarray(owners, dtype=np.int64),
        np.asarray(flat, dtype=np.int64).reshape(len(owners), p),
    )


def join_attributions(
    chunks: Iterable[Tuple[np.ndarray, np.ndarray]], p: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Join ``(owners, table)`` pairs into one.

    Empty pairs drop out and a lone non-empty pair passes through
    uncopied: a listing layer usually holds one (its cluster's table),
    and copying it once per layer costs more than the bookkeeping around
    it."""
    full = [chunk for chunk in chunks if chunk[0].size]
    if len(full) == 1:
        return full[0]
    if not full:
        return attribution_arrays({}, p)
    owners, table = (np.concatenate(column) for column in zip(*full))
    return owners, table


class ListingResult:
    """Outcome of one listing run.

    Attributes
    ----------
    p:
        Clique size listed.
    model:
        ``"congest"``, ``"congested-clique"`` or a baseline tag.
    cliques:
        Union of all per-node outputs — must equal the ground-truth Kp
        set of the input graph (``analysis.verification`` checks this).
        Materialized lazily from any pending columnar chunks.
    per_node:
        Which node output which cliques.  The listing problem only
        requires the union to be complete; per-node attribution follows
        the algorithm's assignment (the cluster node owning the clique's
        part tuple, the light node that queried it, ...).  Lazy like
        ``cliques``.
    ledger:
        Round accounting with one entry per algorithm phase.
    stats:
        Free-form run metadata (iterations, cluster counts, ...).
    """

    __slots__ = (
        "p", "model", "ledger", "stats",
        "_eager", "_eager_per_node", "_chunks", "_table",
    )

    def __init__(
        self,
        p: int,
        model: str,
        cliques: Optional[Iterable[Clique]] = None,
        per_node: Optional[Dict[int, Set[Clique]]] = None,
        ledger: Optional[RoundLedger] = None,
        stats: Optional[Dict[str, float]] = None,
    ) -> None:
        self.p = p
        self.model = model
        self.ledger = ledger if ledger is not None else RoundLedger()
        self.stats: Dict[str, float] = stats if stats is not None else {}
        self._eager: Set[Clique] = set(cliques) if cliques else set()
        self._eager_per_node: Dict[int, Set[Clique]] = (
            per_node if per_node is not None else {}
        )
        #: Columnar attributions not yet materialized: (owners, rows)
        #: integer-array pairs, each row a clique owned by its owner.
        self._chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        self._table: Optional[CliqueTable] = None

    @property
    def rounds(self) -> float:
        """Total charged rounds."""
        return self.ledger.total_rounds

    @property
    def makespan(self) -> float:
        """Total topology-aware completion time (== ``rounds`` on the
        default clique topology — see ``repro.congest.topology``)."""
        return self.ledger.total_makespan

    # ------------------------------------------------------------------
    # Columnar fast path
    # ------------------------------------------------------------------
    def attribute_table(self, owners: np.ndarray, rows: np.ndarray) -> None:
        """Record a whole ``(count, p)`` clique table at once: row ``i``
        was output by node ``owners[i]``.  No python objects are built
        until someone reads :attr:`cliques` / :attr:`per_node`."""
        rows = np.asarray(rows)
        if rows.shape[0] == 0:
            return
        if rows.ndim != 2 or rows.shape[1] != self.p:
            raise ValueError(
                f"expected (count, {self.p}) rows, got shape {rows.shape}"
            )
        owners = np.broadcast_to(np.asarray(owners), (rows.shape[0],))
        self._chunks.append((owners, rows))
        self._table = None

    @property
    def num_cliques(self) -> int:
        """``len(cliques)`` without materializing python objects."""
        if not self._chunks:
            return len(self._eager)
        return len(self.table())

    def table(self) -> CliqueTable:
        """The union of all outputs as a canonical :class:`CliqueTable`."""
        if self._table is None:
            if self._eager:
                # Mixed eager/columnar: union through the set view.
                self._table = CliqueTable.from_cliques(self.cliques, self.p)
            elif self._chunks:
                chunks = [rows for _, rows in self._chunks]
                rows = chunks[0] if len(chunks) == 1 else np.concatenate(
                    [np.asarray(c, dtype=np.int64) for c in chunks]
                )
                self._table = CliqueTable.from_rows(rows, p=self.p)
            else:
                self._table = CliqueTable.empty(self.p)
        return self._table

    def cliques_of(self, node: int) -> FrozenSet[Clique]:
        """The cliques attributed to ``node``, materializing only that
        node's rows (the serve plane's ``learned`` reads hit this)."""
        if not self._chunks:
            return frozenset(self._eager_per_node.get(node, frozenset()))
        out: Set[Clique] = set(self._eager_per_node.get(node, ()))
        for owners, rows in self._chunks:
            mask = owners == node
            if mask.any():
                out.update(frozenset_rows(rows[mask]))
        return frozenset(out)

    # ------------------------------------------------------------------
    # Python-object views (lazy)
    # ------------------------------------------------------------------
    def _flush_chunks(self) -> None:
        chunks, self._chunks = self._chunks, []
        for owners, rows in chunks:
            cliques = frozenset_rows(rows)
            self._eager.update(cliques)
            per = self._eager_per_node
            for node, clique in zip(owners.tolist(), cliques):
                per.setdefault(node, set()).add(clique)

    @property
    def cliques(self) -> Set[Clique]:
        if self._chunks:
            self._flush_chunks()
        return self._eager

    @property
    def per_node(self) -> Dict[int, Set[Clique]]:
        if self._chunks:
            self._flush_chunks()
        return self._eager_per_node

    # ------------------------------------------------------------------
    # Scalar mutation / merging
    # ------------------------------------------------------------------
    def attribute(self, node: int, clique: Clique) -> None:
        """Record that ``node`` output ``clique``."""
        self._eager.add(clique)
        self._eager_per_node.setdefault(node, set()).add(clique)
        self._table = None

    def merge_output(self, other: "ListingResult") -> None:
        """Fold another result's outputs (not its ledger) into this one."""
        self._eager |= other._eager
        for node, cliques in other._eager_per_node.items():
            self._eager_per_node.setdefault(node, set()).update(cliques)
        self._chunks.extend(other._chunks)
        self._table = None

    def __repr__(self) -> str:
        return (
            f"ListingResult(p={self.p}, model={self.model!r}, "
            f"cliques={self.num_cliques}, rounds={self.rounds:.1f})"
        )


def recount_self_check(result: ListingResult, graph: Graph) -> None:
    """End-of-run verification of a driver run under an active fault seam.

    Records the run's ``fault_recovery_rounds``, then recounts.  The
    healing protocol guarantees delivery of every checksummed copy, but
    *silent* (checksum-evading) corruption survives it by design.  A
    trusted local recount — the same pattern as
    :meth:`repro.stream.engine.StreamEngine.recount` — catches whatever
    damage got through: any mismatch between the listed cliques and a
    fault-free enumeration aborts the run with a typed error instead of
    returning wrong counts (``docs/faults.md``).
    """
    result.stats["fault_recovery_rounds"] = result.ledger.recovery_rounds
    truth = clique_table(graph, result.p, backend="auto")
    if result.table() != truth:
        raise CorruptionDetectedError(
            "recount self-check failed after faulted run",
            phase="recount",
            expected=len(truth),
            actual=result.num_cliques,
        )
