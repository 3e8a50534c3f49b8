"""Differential suite for the columnar clique tables (repro.graphs.table).

The CliqueTable is the canonical result type stack-wide: kernels, the
CONGEST/congested-clique listing tails, the streaming engine and the
serve plane all hand tables around and materialize python frozensets
only at the API edge (lazily, cached at most once per table).  This
suite certifies the table against the legacy set semantics:

- canonical-form invariants (ascending members, lex-sorted unique rows,
  uint32, immutable backing array);
- table <-> frozenset round trips across both enumeration backends;
- vectorized set algebra (difference / union / membership) against the
  python set operators;
- the shared-cache identity contracts that let engines and epochs
  alias one table (and its one materialized set);
- the streaming engine's maintained tables against from-scratch
  recomputes, byte-identical;
- verification's table fast path against the legacy truth-set path;
- the serve plane's ``materialize`` switch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.verification import verify_listing
from repro.core.result import ListingResult
from repro.graphs.cliques import clique_table, enumerate_cliques
from repro.graphs.graph import Graph
from repro.graphs.table import (
    CliqueTable,
    canonical_rows,
    frozenset_rows,
    materialize_rows,
    rows_from_cliques,
    structured_view,
)
from repro.workloads import create_workload


def er(n=40, density=0.25, seed=0):
    return create_workload("er", density=density).instance(n, seed=seed)


# ----------------------------------------------------------------------
# Canonical form
# ----------------------------------------------------------------------
class TestCanonicalRows:
    def test_sorts_members_rows_and_dedupes(self):
        rows = np.array(
            [[3, 1, 2], [1, 2, 3], [9, 8, 7], [2, 3, 1]], dtype=np.int64
        )
        out = canonical_rows(rows)
        assert out.dtype == np.uint32
        assert out.tolist() == [[1, 2, 3], [7, 8, 9]]
        assert out.flags.c_contiguous

    def test_lex_order_is_numeric_not_bytewise(self):
        # 256 vs 1: a little-endian memcmp view would order these wrong.
        out = canonical_rows(np.array([[256, 300], [1, 2]], dtype=np.int64))
        assert out.tolist() == [[1, 2], [256, 300]]

    def test_empty_and_width_validation(self):
        assert canonical_rows(np.empty((0, 3), dtype=np.int64)).shape == (0, 3)
        assert canonical_rows(np.array([]), p=4).shape == (0, 4)
        with pytest.raises(ValueError):
            canonical_rows(np.zeros((2, 3), dtype=np.int64), p=4)
        with pytest.raises(TypeError):
            canonical_rows(np.zeros((2, 3), dtype=np.float64))

    def test_out_of_range_ids_rejected(self):
        # A uint32 cast would wrap these onto other ids: -1 -> 2**32 - 1,
        # 2**32 -> 0, and 2**32 + 2 -> 2 (deleting the real (0, 1, 2)).
        for row, bad in (([-1, 2, 3], -1), ([1, 2, 2**32], 2**32)):
            with pytest.raises(ValueError, match=str(bad)):
                canonical_rows(np.array([row], dtype=np.int64))
        with pytest.raises(ValueError, match=str(2**63)):
            canonical_rows(np.array([[1, 2, 2**63]], dtype=np.uint64))
        table = CliqueTable.from_rows(np.array([[0, 1, 2], [0, 1, 5]]), p=3)
        with pytest.raises(ValueError, match=str(2**32 + 2)):
            table.difference(np.array([[0, 1, 2**32 + 2]]))
        assert table.rows.tolist() == [[0, 1, 2], [0, 1, 5]]
        top = canonical_rows(np.array([[2**32 - 1, 0]], dtype=np.int64))
        assert top.tolist() == [[0, 2**32 - 1]]

    def test_structured_view_orders_like_rows(self):
        rows = canonical_rows(
            np.array([[5, 6, 7], [1, 2, 3], [1, 2, 9]], dtype=np.int64)
        )
        view = structured_view(rows)
        assert np.array_equal(np.sort(view), view)  # already sorted

    def test_rows_from_cliques_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            rows_from_cliques([frozenset({1, 2})], p=3)


class TestTableInvariants:
    def test_backing_array_is_immutable(self):
        table = CliqueTable.from_rows(np.array([[1, 2, 3]], dtype=np.int64))
        with pytest.raises(ValueError):
            table.rows[0, 0] = 7

    def test_empty_len_bool_p(self):
        table = CliqueTable.empty(4)
        assert len(table) == 0 and not table and table.p == 4
        assert table.as_frozenset() == frozenset()
        assert list(table) == []

    def test_eq_hash_and_set_compare(self):
        a = CliqueTable.from_cliques([frozenset({2, 1, 0})], p=3)
        b = CliqueTable.from_rows(np.array([[2, 1, 0]], dtype=np.int64))
        assert a == b and hash(a) == hash(b)
        assert a == {frozenset({0, 1, 2})}
        assert a != {frozenset({0, 1, 3})}
        assert (a == 42) is False  # NotImplemented falls back to identity

    def test_iter_preserves_row_order(self):
        table = CliqueTable.from_rows(
            np.array([[4, 5, 6], [1, 2, 3]], dtype=np.int64)
        )
        assert [sorted(c) for c in table] == [[1, 2, 3], [4, 5, 6]]


# ----------------------------------------------------------------------
# Table <-> frozenset round trips, across backends
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("p", [3, 4])
    def test_backends_agree_and_match_truth_sets(self, p):
        g = er()
        csr_table = clique_table(g, p, backend="csr")
        py_table = clique_table(g, p, backend="python")
        assert np.array_equal(csr_table.rows, py_table.rows)
        truth = enumerate_cliques(g, p, backend="python")
        assert csr_table.as_frozenset() == truth
        assert CliqueTable.from_cliques(truth, p) == csr_table

    def test_p1_and_p2_tables(self):
        g = er(n=12, density=0.4)
        ones = clique_table(g, 1)
        assert ones.rows[:, 0].tolist() == sorted(g.nodes())
        twos = clique_table(g, 2)
        assert twos.as_frozenset() == {frozenset(e) for e in g.edges()}

    def test_materialize_rows_equals_frozenset_rows(self):
        rows = clique_table(er(), 3).rows
        assert materialize_rows(rows) == set(frozenset_rows(rows))
        assert len(frozenset_rows(rows)) == rows.shape[0]


# ----------------------------------------------------------------------
# Vectorized set algebra vs python set operators
# ----------------------------------------------------------------------
class TestSetAlgebra:
    def _two_tables(self):
        a = clique_table(er(seed=1), 3)
        b = clique_table(er(seed=2), 3)
        return a, b

    def test_difference_matches_sets(self):
        a, b = self._two_tables()
        assert a.difference(b).as_frozenset() == a.as_frozenset() - b.as_frozenset()
        assert b.difference(a).as_frozenset() == b.as_frozenset() - a.as_frozenset()

    def test_union_matches_sets(self):
        a, b = self._two_tables()
        union = a.union(b)
        assert union.as_frozenset() == a.as_frozenset() | b.as_frozenset()
        # The union is canonical: building from the merged set agrees.
        assert union == CliqueTable.from_cliques(union.as_frozenset(), 3)

    def test_membership_mask_matches_sets(self):
        a, b = self._two_tables()
        mask = a.membership(b)
        bset = b.as_frozenset()
        expected = [frozenset(row) in bset for row in a.rows.tolist()]
        assert mask.tolist() == expected

    def test_contains_binary_search(self):
        table = clique_table(er(), 3)
        for clique in list(table.as_frozenset())[:25]:
            assert clique in table
        assert frozenset({0, 1}) not in table  # wrong size
        assert frozenset({10_000, 10_001, 10_002}) not in table
        assert "junk" not in table
        assert frozenset({-1, 0, 1}) not in table
        assert frozenset({0.5, 1, 2}) not in table  # non-integer
        wrapped = CliqueTable.from_rows(np.array([[0, 1, 2], [0, 1, 5]]), p=3)
        assert frozenset({0, 1, 2}) in wrapped
        assert frozenset({0, 1, 2**32 + 2}) not in wrapped  # cast -> (0, 1, 2)
        assert frozenset({0, 1, 2**32}) not in wrapped

    def test_p_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CliqueTable.empty(3).difference(CliqueTable.empty(4))


# ----------------------------------------------------------------------
# Shared-cache identity contracts
# ----------------------------------------------------------------------
class TestSharing:
    def test_as_frozenset_cached_once(self):
        table = clique_table(er(), 3)
        assert table.as_frozenset() is table.as_frozenset()
        assert table.as_sets() is table.as_frozenset()

    def test_to_set_is_fresh_and_mutable(self):
        table = clique_table(er(), 3)
        owned = table.to_set()
        owned.clear()
        assert len(table.as_frozenset()) == len(table)

    def test_disjoint_difference_returns_self(self):
        a = clique_table(er(seed=3), 3)
        empty = CliqueTable.empty(3)
        assert a.difference(empty) is a
        assert a.union(empty) is a
        assert a.union(a) is a  # every row already present
        assert a.union(a.rows[::2]) is a
        assert empty.union(a).as_frozenset() == a.as_frozenset()

    def test_csr_clique_result_is_memoized(self):
        csr = er().to_csr()
        assert csr.clique_result(3) is csr.clique_result(3)
        assert enumerate_cliques(er(), 3, backend="csr") == csr.clique_result(
            3
        ).as_frozenset()


# ----------------------------------------------------------------------
# Listing results: columnar attribution
# ----------------------------------------------------------------------
class TestListingResultTables:
    def test_attribute_table_matches_eager_attribution(self):
        g = er(n=24, density=0.3)
        table = clique_table(g, 3)
        columnar = ListingResult(p=3, model="congest")
        columnar.attribute_table(table.owners(), table.rows)
        eager = ListingResult(p=3, model="congest")
        for clique in table:
            eager.attribute(min(clique), clique)
        assert columnar.table() == eager.table()
        assert columnar.cliques == eager.cliques
        assert columnar.num_cliques == len(table)
        for node in g.nodes():
            assert columnar.cliques_of(node) == eager.cliques_of(node)

    def test_attribute_table_validates_shape(self):
        result = ListingResult(p=3, model="congest")
        with pytest.raises(ValueError):
            result.attribute_table(
                np.zeros(2, dtype=np.int64), np.zeros((2, 4), dtype=np.int64)
            )


# ----------------------------------------------------------------------
# Streaming: maintained tables vs recompute, byte-identical
# ----------------------------------------------------------------------
class TestStreamTables:
    def test_maintained_table_equals_recompute_every_batch(self):
        from repro.stream import StreamEngine

        instance = create_workload("stream_churn").stream(48, seed=0)
        engine = StreamEngine(instance.base, compact_every=64)
        engine.track(3, listing=True)
        for batch in instance.batches:
            engine.apply(batch)
            maintained = engine.clique_result(3)
            truth = clique_table(engine.graph(), 3)
            assert maintained.rows.tobytes() == truth.rows.tobytes()
            assert maintained.rows.dtype == truth.rows.dtype == np.uint32

    def test_fold_canonicalizes_only_the_delta(self, monkeypatch):
        """The maintained table absorbs a batch by binary search: no
        canonicalization during ``apply`` sees more rows than the delta."""
        import repro.graphs.table as table_module
        from repro.stream import StreamEngine

        real = table_module.canonical_rows
        seen = []

        def spy(rows, p=None):
            seen.append(len(rows))
            return real(rows, p)

        instance = create_workload("stream_churn").stream(48, seed=0)
        engine = StreamEngine(instance.base, compact_every=64)
        engine.track(3, listing=True)
        monkeypatch.setattr(table_module, "canonical_rows", spy)
        folded = 0
        for batch in instance.batches:
            seen.clear()
            delta = engine.apply(batch).deltas[3]
            largest = max(delta.removed.shape[0], delta.added.shape[0])
            assert max(seen, default=0) <= largest
            folded += delta.added.shape[0] > 0
        assert folded and len(engine.clique_result(3)) > largest


# ----------------------------------------------------------------------
# Verification: table fast path vs legacy truth-set path
# ----------------------------------------------------------------------
class TestVerificationPaths:
    def test_paths_agree_on_correct_result(self):
        g = er(n=24, density=0.3)
        result = ListingResult(p=3, model="congest")
        table = clique_table(g, 3)
        result.attribute_table(table.owners(), table.rows)
        by_table = verify_listing(g, result)
        by_sets = verify_listing(g, result, truth=enumerate_cliques(g, 3))
        assert by_table.ok and by_sets.ok
        assert by_table.expected == by_sets.expected
        assert by_table.produced == by_sets.produced

    def test_paths_agree_on_corrupt_result(self):
        g = er(n=24, density=0.3)
        truth = enumerate_cliques(g, 3)
        assert len(truth) >= 2
        kept = sorted(truth, key=sorted)[1:]  # drop one -> incomplete
        spurious = frozenset({g.num_nodes, g.num_nodes + 1, g.num_nodes + 2})
        result = ListingResult(
            p=3, model="congest", cliques=set(kept) | {spurious}
        )
        by_table = verify_listing(g, result)
        by_sets = verify_listing(g, result, truth=truth)
        assert not by_table.ok and not by_sets.ok
        assert by_table.missing == by_sets.missing
        assert by_table.spurious == by_sets.spurious


# ----------------------------------------------------------------------
# Serve plane: the materialize switch
# ----------------------------------------------------------------------
class TestServeMaterialize:
    def _request(self, p):
        from repro.serve.traffic import Request

        return Request(index=0, at=0.0, kind="cliques", p=p)

    def test_cliques_value_type_follows_materialize(self):
        from repro.serve import CliqueService

        g = er(n=24, density=0.3)
        lean = CliqueService(g, ps=(3,), materialize=False)
        legacy = CliqueService(g, ps=(3,))
        table_value = lean.handle(self._request(3)).value
        set_value = legacy.handle(self._request(3)).value
        assert isinstance(table_value, CliqueTable)
        assert isinstance(set_value, frozenset)
        assert table_value.as_frozenset() == set_value

    def test_epoch_tables_shared_with_engine(self):
        from repro.serve import CliqueService

        service = CliqueService(er(n=24, density=0.3), ps=(3,))
        with service.read() as epoch:
            assert epoch.table(3) is service.engine.clique_result(3)

    def test_open_loop_verifies_without_materialize(self):
        from repro.serve import CliqueService, create_traffic, run_open_loop

        instance = create_workload("stream_churn").stream(32, seed=0)
        service = CliqueService(
            instance.base, ps=(3,), compact_every=32, materialize=False
        )
        with service:
            report = run_open_loop(
                service,
                create_traffic("uniform"),
                requests=60,
                rate=2000.0,
                read_mix={"count": 0.4, "cliques": 0.4, "learned": 0.2},
                seed=0,
                ingest=instance.batches,
                verify=True,
            )
        assert report.errors == 0
        assert report.mismatches == []


# ----------------------------------------------------------------------
# Ledger byte-identity: tables must not perturb charge accounting
# ----------------------------------------------------------------------
class TestLedgerUnchanged:
    @pytest.mark.parametrize("model", ["congest", "congested-clique"])
    def test_materialization_never_touches_the_ledger(self, model):
        from repro import list_cliques

        g = er(n=30, density=0.3, seed=4)
        before = list_cliques(g, p=3, model=model, seed=0)
        rows_before = [
            (ph.name, ph.rounds, ph.stats) for ph in before.ledger.phases()
        ]
        after = list_cliques(g, p=3, model=model, seed=0)
        after.cliques  # materialize the API edge on one of the runs
        after.table()
        rows_after = [
            (ph.name, ph.rounds, ph.stats) for ph in after.ledger.phases()
        ]
        assert rows_before == rows_after
        assert before.table() == after.table()
