"""Output verification: the correctness gate of every experiment.

A distributed listing is correct iff (a) **complete** — the union of all
per-node outputs contains every Kp of the input graph — and (b) **sound**
— every output is a real Kp.  These checks run inside tests and inside
every benchmark before timings are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Set

from repro.core.result import ListingResult
from repro.graphs.cliques import clique_table
from repro.graphs.graph import Graph
from repro.graphs.properties import is_clique

Clique = FrozenSet[int]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying one listing result against a graph."""

    complete: bool
    sound: bool
    expected: int
    produced: int
    missing: FrozenSet[Clique] = frozenset()
    spurious: FrozenSet[Clique] = frozenset()

    @property
    def ok(self) -> bool:
        return self.complete and self.sound

    def raise_if_failed(self) -> None:
        if not self.sound:
            raise AssertionError(
                f"unsound listing: {len(self.spurious)} spurious cliques, "
                f"e.g. {next(iter(self.spurious))}"
            )
        if not self.complete:
            raise AssertionError(
                f"incomplete listing: {len(self.missing)} of {self.expected} "
                f"cliques missing, e.g. {next(iter(self.missing))}"
            )


def verify_listing(
    graph: Graph,
    result: ListingResult,
    truth: Optional[Set[Clique]] = None,
    backend: str = "auto",
) -> VerificationReport:
    """Verify completeness and soundness of a listing result.

    Passing a precomputed ``truth`` set avoids re-enumeration when many
    algorithms run on the same graph (the benchmark harness does this)
    and forces the legacy set-based comparison.  Without it, the check
    compares canonical clique *tables* directly — ``np.array_equal`` on
    the sorted rows in the common all-correct case, vectorized row set
    difference otherwise — so no frozensets are built unless there is an
    actual discrepancy to report.  ``backend`` selects the ground-truth
    kernel (csr on large graphs by default), which is what keeps
    verification from dominating sweep wall-time.
    """
    if truth is None:
        expected_table = clique_table(graph, result.p, backend=backend)
        produced_table = result.table()
        if expected_table == produced_table:
            return VerificationReport(
                complete=True,
                sound=True,
                expected=len(expected_table),
                produced=len(produced_table),
            )
        missing = expected_table.difference(produced_table).as_frozenset()
        spurious = produced_table.difference(expected_table).as_frozenset()
        expected_count = len(expected_table)
        produced_count = len(produced_table)
    else:
        produced = result.cliques
        missing = frozenset(truth - produced)
        spurious = frozenset(produced - truth)
        expected_count = len(truth)
        produced_count = len(produced)
    # Structural double-check: a "spurious" clique that is in fact a real
    # clique of the graph would indicate a bug in the truth enumeration
    # itself — fail loudly rather than report a soundness violation.
    for clique in spurious:
        if len(clique) == result.p and is_clique(graph, set(clique)):
            raise AssertionError(
                f"truth enumeration missed a real clique {sorted(clique)}"
            )
    return VerificationReport(
        complete=not missing,
        sound=not spurious,
        expected=expected_count,
        produced=produced_count,
        missing=missing,
        spurious=spurious,
    )


def verify_per_node_consistency(result: ListingResult) -> bool:
    """Check that ``result.cliques`` equals the union of per-node outputs."""
    union: Set[Clique] = set()
    for cliques in result.per_node.values():
        union |= cliques
    return union == result.cliques


def verify_partition_bound(
    num_edges: int, num_parts: int, max_pair_load: int, slack: float = 6.0
) -> bool:
    """The Lemma 2.7-style balance check: max pair load ≤ slack·m/s² + O(1).

    The +log term absorbs integrality at small scales; the benchmark
    reports the raw ratio as well.
    """
    import math

    expected = num_edges / (num_parts * num_parts)
    return max_pair_load <= slack * expected + 8 * math.log2(max(2, num_edges + 2))
