"""Unit tests for the CSR snapshot and its kernels.

The cross-backend agreement checks live in
``tests/test_backend_differential.py``; this module covers the CSR layer
itself: snapshot structure, caching/invalidation, the sorted-array
fallback used above :data:`repro.graphs.csr.BITSET_MAX_NODES`, and the
deep-search safety of the explicit-stack enumeration (the former
recursive ``extend``).
"""

from __future__ import annotations

import inspect
import itertools
import math
import sys

import numpy as np
import pytest

import repro.graphs.csr as csr_module
from repro.graphs.cliques import count_cliques, enumerate_cliques
from repro.graphs.csr import (
    CSRGraph,
    clique_table_from_edge_array,
    count_cliques_csr,
    degeneracy_csr,
    degeneracy_order,
    enumerate_cliques_csr,
    forward_adjacency,
    intersect_sorted,
)
from repro.graphs.generators import complete_graph, erdos_renyi
from repro.graphs.graph import Graph


class TestSnapshot:
    def test_structure_matches_graph(self, small_er):
        snap = small_er.to_csr()
        assert snap.num_nodes == small_er.num_nodes
        assert snap.num_edges == small_er.num_edges
        for v in small_er.nodes():
            row = snap.neighbors(v)
            assert list(row) == sorted(small_er.neighbors(v))
            assert snap.degree(v) == small_er.degree(v)
        assert snap.degrees().sum() == 2 * small_er.num_edges

    def test_has_edge(self, small_er):
        snap = small_er.to_csr()
        for u, v in small_er.edges():
            assert snap.has_edge(u, v) and snap.has_edge(v, u)
        assert not snap.has_edge(0, 0)
        assert not snap.has_edge(0, small_er.num_nodes + 5)

    def test_round_trip(self, small_er):
        assert small_er.to_csr().to_graph() == small_er

    def test_empty_and_isolated(self):
        assert Graph(0).to_csr().num_nodes == 0
        g = Graph(5, [(0, 1)])
        snap = g.to_csr()
        assert snap.degree(3) == 0
        assert snap.to_graph() == g

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 3]), np.array([1]))

    def test_snapshot_cached_and_invalidated(self):
        g = erdos_renyi(20, 0.3, seed=0)
        snap = g.to_csr()
        assert g.to_csr() is snap  # cached while unchanged
        tri = count_cliques(g, 3, backend="csr")
        g.add_edge(*next(self._missing_edges(g)))
        fresh = g.to_csr()
        assert fresh is not snap  # mutation invalidates
        # Recomputed on the fresh snapshot (adding an edge never removes
        # a triangle, and the python backend is the arbiter).
        after = count_cliques(g, 3, backend="csr")
        assert after >= tri
        assert after == count_cliques(g, 3, backend="python")

    @staticmethod
    def _missing_edges(g):
        for u in g.nodes():
            for v in range(u + 1, g.num_nodes):
                if not g.has_edge(u, v):
                    yield (u, v)

    def test_enumerate_shares_cached_frozenset(self):
        g = erdos_renyi(24, 0.4, seed=3)
        first = enumerate_cliques(g, 3, backend="csr")
        again = enumerate_cliques(g, 3, backend="csr")
        # One shared immutable set per (snapshot, p): no per-call copy,
        # and accidental mutation fails loudly instead of corrupting it.
        assert isinstance(first, frozenset)
        assert again is first
        with pytest.raises(AttributeError):
            first.clear()
        assert again == enumerate_cliques(g, 3, backend="python")


class TestOrientationKernels:
    def test_order_is_permutation(self, medium_er):
        order = degeneracy_order(medium_er.to_csr())
        assert sorted(order.tolist()) == list(medium_er.nodes())

    def test_lowest_id_tie_break(self):
        # A 4-cycle: all degrees equal, so the order must be exactly by id.
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert degeneracy_order(g.to_csr()).tolist() == [0, 1, 2, 3]

    def test_forward_rows_sorted_and_partition_edges(self, medium_er):
        snap = medium_er.to_csr()
        fptr, findices = forward_adjacency(snap, degeneracy_order(snap))
        assert findices.size == medium_er.num_edges
        for v in medium_er.nodes():
            row = findices[fptr[v] : fptr[v + 1]].tolist()
            assert row == sorted(row)

    def test_degeneracy_on_known_graphs(self):
        assert degeneracy_csr(complete_graph(7).to_csr()) == 6
        path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert degeneracy_csr(path.to_csr()) == 1
        assert degeneracy_csr(Graph(3).to_csr()) == 0


class TestIntersectSorted:
    def test_matches_set_intersection(self, small_er):
        snap = small_er.to_csr()
        for u in range(0, small_er.num_nodes, 3):
            for v in range(1, small_er.num_nodes, 5):
                expected = small_er.neighbors(u) & small_er.neighbors(v)
                got = intersect_sorted(snap.neighbors(u), snap.neighbors(v))
                assert set(got.tolist()) == expected


class TestSortedFallback:
    """Force the n > BITSET_MAX_NODES code path on small instances."""

    def test_fallback_matches_bitset_and_python(self, monkeypatch):
        g = erdos_renyi(40, 0.3, seed=11)
        expected = {p: enumerate_cliques(g, p, backend="python") for p in (3, 4, 5)}
        monkeypatch.setattr(csr_module, "BITSET_MAX_NODES", 4)
        snap = CSRGraph.from_graph(g)  # bypass the Graph-level cache
        assert snap.forward_bits() is None
        for p in (3, 4, 5):
            assert enumerate_cliques_csr(snap, p) == expected[p]
            assert count_cliques_csr(snap, p) == len(expected[p])

    def test_edge_array_fallback_honours_goal(self, monkeypatch):
        g = erdos_renyi(40, 0.3, seed=11)
        edges = g.to_csr().edge_table()
        rng = np.random.default_rng(5)
        goal = np.concatenate(
            [
                edges[rng.random(edges.shape[0]) < 0.2][:, ::-1],  # either orientation
                [[0, 0], [3, 97], [97, 98]],  # a loop, outside ids
            ]
        )
        goal_set = {frozenset(pair) for pair in goal.tolist()}
        bitset = {p: clique_table_from_edge_array(edges, p, goal) for p in (3, 4, 5)}
        monkeypatch.setattr(csr_module, "BITSET_MAX_NODES", 4)
        for p in (3, 4, 5):
            expected = {
                c
                for c in enumerate_cliques(g, p, backend="python")
                if any(frozenset(e) in goal_set for e in itertools.combinations(c, 2))
            }
            for table in (clique_table_from_edge_array(edges, p, goal), bitset[p]):
                assert (np.diff(table, axis=1) > 0).all()
                assert {frozenset(row) for row in table.tolist()} == expected


class TestGoalKernel:
    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_one_goal_pair_in_every_position(self, p):
        """On K_{p+2} a one-pair goal keeps exactly the Kp holding that
        pair, whether its endpoints join as root, middle or last members."""
        n = p + 2
        edges = np.array(list(itertools.combinations(range(n), 2)))
        for pair in edges.tolist():
            table = clique_table_from_edge_array(edges, p, np.array([pair]))
            expected = [
                c for c in itertools.combinations(range(n), p) if set(pair) <= set(c)
            ]
            assert table.tolist() == [list(c) for c in expected]


class TestDeepSearchSafety:
    """Satellite: the recursive ``extend`` became an explicit stack."""

    def test_p6_on_40_clique(self):
        # C(40, 6) = 3,838,380 — the count kernel never materializes them.
        assert count_cliques(complete_graph(40), 6, backend="csr") == math.comb(40, 6)

    def test_p6_enumeration_agrees_on_clique(self):
        k = complete_graph(15)
        found = enumerate_cliques(k, 6, backend="python")
        assert len(found) == math.comb(15, 6)
        assert found == enumerate_cliques(k, 6, backend="csr")

    def test_python_backend_survives_tiny_recursion_limit(self):
        # Depth of the old recursion was p + O(1); at p = 43 a limit of
        # current-depth + 20 would blow it.  The explicit stack must not
        # care.  (The margin accounts for the frames pytest itself is
        # already holding.)
        depth = len(inspect.stack(0))
        k = complete_graph(45)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 20)
        try:
            found = enumerate_cliques(k, 43, backend="python")
        finally:
            sys.setrecursionlimit(limit)
        assert len(found) == math.comb(45, 43)


class TestBitsetBoundary:
    """Real-size round-trips at n = BITSET_MAX_NODES ± 1 (satellite).

    :class:`TestSortedFallback` shrinks the constant to force the sorted
    regime on toy graphs; these tests keep the constant at its shipped
    value (16384) and cross it with *actual* node counts, pinning that
    the regime switch itself — bitset rows on one side, sorted-array
    intersections on the other — never changes a round-trip or a clique.
    """

    BOUNDARY = 16384  # mirrors the shipped constant; asserted below

    def test_shipped_constant(self):
        from repro.graphs.csr import BITSET_MAX_NODES

        assert BITSET_MAX_NODES == self.BOUNDARY

    @staticmethod
    def _sparse(n, seed=0):
        from repro.graphs.generators import bounded_arboricity_graph

        return bounded_arboricity_graph(n, 2, seed=seed)

    @pytest.mark.parametrize(
        "n", [BOUNDARY - 1, BOUNDARY, BOUNDARY + 1], ids=["below", "at", "above"]
    )
    def test_round_trip_across_boundary(self, n):
        g = self._sparse(n)
        snap = g.to_csr()
        assert snap.num_nodes == n
        assert snap.to_graph() == g
        if n <= self.BOUNDARY:
            assert snap.adjacency_bits() is not None
            assert snap.forward_bits() is not None
        else:
            assert snap.adjacency_bits() is None
            assert snap.forward_bits() is None

    def test_regimes_list_identical_cliques(self):
        # Same edge set, padded with isolated nodes to straddle the
        # boundary: n = 16383 and 16384 run the bitset kernels, 16385
        # the sorted fallback.  Padding never adds or removes a clique,
        # so all three listings must coincide exactly.
        base = self._sparse(self.BOUNDARY - 1, seed=5)
        edges = list(base.edges())
        tables = {}
        for n in (self.BOUNDARY - 1, self.BOUNDARY, self.BOUNDARY + 1):
            snap = CSRGraph.from_graph(Graph(n, edges))
            tables[n] = enumerate_cliques_csr(snap, 3)
            assert count_cliques_csr(snap, 3) == len(tables[n])
        assert tables[self.BOUNDARY - 1] == tables[self.BOUNDARY]
        assert tables[self.BOUNDARY] == tables[self.BOUNDARY + 1]
        assert len(tables[self.BOUNDARY]) > 0  # a vacuous pass pins nothing


class TestFrozenOverlay:
    """FrozenOverlay.to_graph() and snapshot isolation (satellite)."""

    @staticmethod
    def _overlay(n=24, seed=4):
        from repro.graphs.overlay import CSROverlay

        g = erdos_renyi(n, 0.3, seed=seed)
        return g, CSROverlay(g.to_csr())

    def test_clean_freeze_round_trips(self):
        g, ov = self._overlay()
        frozen = ov.freeze()
        assert frozen.to_graph() == g
        assert frozen.num_edges == g.num_edges
        assert frozen.delta_size == 0

    def test_freeze_reflects_delta(self):
        g, ov = self._overlay()
        present = next(iter(g.edges()))
        absent = next(
            (u, v)
            for u in g.nodes()
            for v in range(u + 1, g.num_nodes)
            if not g.has_edge(u, v)
        )
        ov.apply(np.array([absent]), np.array([present]))
        frozen = ov.freeze()
        expected = g.to_csr().to_graph()  # copy of g
        expected.add_edge(*absent)
        expected.remove_edge(*present)
        materialized = frozen.to_graph()
        assert materialized == expected
        assert frozen.has_edge(*absent) and not frozen.has_edge(*present)
        assert frozen.num_edges == expected.num_edges

    def test_frozen_view_is_isolated_from_later_applies(self):
        g, ov = self._overlay()
        frozen = ov.freeze()
        victim = next(iter(g.edges()))
        ov.apply(np.empty((0, 2), dtype=np.int64), np.array([victim]))
        # The live overlay moved on; the frozen view did not.
        assert not ov.has_edge(*victim)
        assert frozen.has_edge(*victim)
        assert frozen.to_graph() == g

    def test_to_graph_past_bitset_boundary(self):
        # Above BITSET_MAX_NODES the overlay maintains no bitset matrix
        # (adjacency_bits() is None); to_graph() must not care.
        from repro.graphs.generators import bounded_arboricity_graph
        from repro.graphs.overlay import CSROverlay

        n = TestBitsetBoundary.BOUNDARY + 1
        g = bounded_arboricity_graph(n, 2, seed=2)
        ov = CSROverlay(g.to_csr())
        assert ov.adjacency_bits() is None
        edge = np.array([[0, n - 1]], dtype=np.int64)
        assert not g.has_edge(0, n - 1)
        ov.apply(edge, np.empty((0, 2), dtype=np.int64))
        frozen = ov.freeze()
        expected = g.to_csr().to_graph()
        expected.add_edge(0, n - 1)
        assert frozen.to_graph() == expected
