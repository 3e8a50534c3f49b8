"""Graph storage: a built graph holds one CSR snapshot, neighbour sets are
made only when something reads them, and malformed edges raise a typed
error before anything is stored."""

import sys
import threading

import numpy as np
import pytest

import repro.graphs.graph as graph_module
import repro.parallel.executor as executor_module
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.listing import list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.graphs import cliques as cliques_module
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.graphs.keys import edge_array
from repro.serve import CliqueService, Request
from repro.stream import UpdateBatch


@pytest.fixture
def set_builds(monkeypatch):
    """The node counts of the neighbour-set builds made during the test."""
    builds = []
    build = graph_module.neighbor_sets

    def counted(csr):
        builds.append(csr.num_nodes)
        return build(csr)

    monkeypatch.setattr(graph_module, "neighbor_sets", counted)
    return builds


def grown(n, pairs):
    """The reference graph: ``Graph(n)`` plus one ``add_edge`` per pair."""
    g = Graph(n)
    for u, v in pairs:
        g.add_edge(u, v)
    return g


def er_graph(n, density, seed):
    """G(n, density) built from its edge array (the generators still grow
    their graphs edge by edge, which builds the sets)."""
    iu, ju = np.triu_indices(n, k=1)
    keep = np.random.default_rng(seed).random(iu.size) < density
    return Graph.from_edge_array(n, np.stack([iu[keep], ju[keep]], axis=1))


def csr_bytes(g):
    csr = g.to_csr()
    return csr.indptr.tobytes(), csr.indices.tobytes()


PAIRS = [(0, 1), (1, 2), (2, 0), (2, 3), (4, 3), (5, 6), (1, 0)]


# ----------------------------------------------------------------------
# Malformed edges
# ----------------------------------------------------------------------
class TestMalformedEdges:
    def test_float_id_in_a_pair_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"edge \(0\.5, 1\) is not a pair of integer"):
            Graph(3, [(0.5, 1)])

    def test_numpy_ids_of_mixed_signedness_are_stored_as_python_ints(self):
        g = Graph(3, [(np.int64(0), np.uint64(1))])
        assert g.edge_set() == {(0, 1)}
        assert all(type(v) is int for v in g.neighbors(0) | g.neighbors(1))

    def test_items_that_are_not_pairs_are_a_value_error(self):
        with pytest.raises(ValueError, match=r"edge \(0, 1, 2\) is not a pair"):
            edge_array([(0, 1, 2), (3, 4, 5)])

    def test_float_ids_are_not_truncated(self):
        with pytest.raises(ValueError, match=r"edge \[0\.5, 1\.0\] is not a pair"):
            Graph.from_edge_array(4, [[0.5, 1.0], [1.9, 3.2]])

    def test_float_array_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"edge \[0\.0, 1\.0\] is not a pair"):
            edge_array(np.array([[0.0, 1.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("shape", [(6,), (2, 3), (1, 2, 2)])
    def test_array_that_is_not_m_by_2_is_a_value_error(self, shape):
        with pytest.raises(ValueError, match=r"shape \(m, 2\)"):
            edge_array(np.zeros(shape, dtype=np.int64))

    def test_index_compatible_ids_are_accepted(self):
        mixed = [(True, 2), (np.uint8(3), np.int64(4)), (np.int32(5), np.uint64(6))]
        assert edge_array(mixed).tolist() == [[1, 2], [3, 4], [5, 6]]
        assert edge_array(np.array([[1, 2]], dtype=np.uint64)).dtype == np.int64
        assert edge_array(np.array([[True, False]])).tolist() == [[1, 0]]
        assert edge_array(iter([(0, 1)])).tolist() == [[0, 1]]

    def test_empty_input_is_the_empty_edge_set(self):
        for empty in ([], (), iter(()), np.array([]), np.empty((0, 2), dtype=np.int64)):
            assert edge_array(empty).shape == (0, 2)


# ----------------------------------------------------------------------
# The lazy form
# ----------------------------------------------------------------------
class TestLazyGraph:
    def test_a_built_graph_answers_from_its_snapshot(self, set_builds):
        g = Graph(8, PAIRS)
        assert g.num_edges == 6
        assert [g.degree(v) for v in range(8)] == [2, 2, 3, 2, 1, 1, 1, 0]
        g.copy()
        g.to_csr()
        CSRGraph.from_graph(g)
        assert set_builds == []

    @pytest.mark.parametrize(
        "read",
        [
            lambda g: g.neighbors(0),
            lambda g: list(g.edges()),
            lambda g: g.has_edge(0, 1),
            lambda g: g.connected_components(),
            lambda g: g.subgraph_nodes([0, 1, 2]),
        ],
    )
    def test_set_reads_build_the_sets_once(self, set_builds, read):
        g = Graph(8, PAIRS)
        read(g)
        read(g)
        assert set_builds == [8]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(6, 7),
            lambda g: g.add_edge(1, 0),
            lambda g: g.remove_edge(2, 3),
            lambda g: g.add_edges([(6, 7), (0, 7), (2, 1)]),
            lambda g: g.remove_edges([(0, 1), (4, 3), (6, 7)]),
        ],
    )
    def test_a_mutation_matches_the_grown_graph(self, mutate):
        lazy, reference = Graph(8, PAIRS), grown(8, PAIRS)
        assert mutate(lazy) == mutate(reference)
        assert lazy == reference and lazy.num_edges == reference.num_edges
        for v in range(8):
            assert lazy.degree(v) == reference.degree(v)
            assert lazy.neighbors(v) == reference.neighbors(v)
        assert csr_bytes(lazy) == csr_bytes(reference)

    def test_a_snapshot_handed_out_before_a_mutation_keeps_its_bytes(self):
        g = Graph(8, PAIRS)
        before = g.to_csr()
        held = csr_bytes(g)
        g.add_edge(6, 7)
        g.remove_edge(0, 1)
        assert (before.indptr.tobytes(), before.indices.tobytes()) == held
        assert g.to_csr() is not before
        assert csr_bytes(g) == csr_bytes(grown(8, PAIRS[1:-1] + [(6, 7)]))

    def test_snapshot_arrays_are_read_only(self):
        g = Graph(8, PAIRS)
        for csr in (g.to_csr(), CSRGraph.from_graph(g)):
            with pytest.raises(ValueError, match="read-only"):
                csr.indices[0] = 5
            with pytest.raises(ValueError, match="read-only"):
                csr.indptr[1] = 0
        g.add_edge(6, 7)  # a walked snapshot is read-only too
        with pytest.raises(ValueError, match="read-only"):
            g.to_csr().indices[0] = 5

    def test_from_graph_wraps_the_held_arrays(self):
        g = Graph(8, PAIRS)
        wrapped = CSRGraph.from_graph(g)
        assert wrapped is not g.to_csr()
        assert np.shares_memory(wrapped.indices, g.to_csr().indices)
        assert np.shares_memory(wrapped.indptr, g.to_csr().indptr)

    def test_copy_stays_lazy_and_independent(self, set_builds):
        g = Graph(8, PAIRS)
        held = csr_bytes(g)
        c = g.copy()
        assert set_builds == []
        assert c.to_csr() is g.to_csr()
        c.add_edge(6, 7)
        assert set_builds == [8]
        assert not g.has_edge(6, 7) and c.has_edge(6, 7)
        assert csr_bytes(g) == held and g.num_edges == 6 and c.num_edges == 7
        # A copy of a mutated graph copies its sets.
        d = c.copy()
        d.remove_edge(6, 7)
        assert c.has_edge(6, 7) and not d.has_edge(6, 7)

    def test_concurrent_first_readers_see_equal_sets(self, set_builds):
        # More readers than cores and a short switch interval, so that
        # readers interleave inside the first build.
        g = er_graph(400, 0.05, seed=3)
        readers = 4
        barrier = threading.Barrier(readers)
        seen = [None] * readers

        def read(slot):
            barrier.wait()
            seen[slot] = [g.neighbors(v) for v in range(400)]

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(sets == seen[0] for sets in seen)
        assert all(a is b for sets in seen for a, b in zip(sets, seen[0]))
        assert set_builds == [400]


# ----------------------------------------------------------------------
# No set builds on the batch plane
# ----------------------------------------------------------------------
class TestBatchPlaneBuildsNoSets:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_theorem_1_3_run(self, set_builds, monkeypatch, workers):
        monkeypatch.setattr(executor_module, "MIN_PARALLEL_ITEMS", 0)
        g = er_graph(200, 0.08, seed=5)
        params = AlgorithmParameters(p=3, execution=ExecutionConfig(workers=workers))
        result = list_cliques_congested_clique(g, 3, params=params, seed=1)
        assert result.rounds > 0 and len(result.table()) > 0
        assert set_builds == []

    def test_congest_run_on_er_160(self, set_builds, monkeypatch):
        enumerations = []
        enumerate_python = cliques_module._enumerate_python
        clique_result = CSRGraph.clique_result
        monkeypatch.setattr(
            cliques_module,
            "_enumerate_python",
            lambda graph, p: enumerations.append(graph) or enumerate_python(graph, p),
        )
        monkeypatch.setattr(
            CSRGraph,
            "clique_result",
            lambda csr, p: enumerations.append(csr) or clique_result(csr, p),
        )
        g = er_graph(160, 0.5, seed=1)
        result = list_cliques_congest(g, 4, seed=1)
        assert len(result.table()) > 0
        assert set_builds == []
        # The tail's remainder is empty: no enumerator runs on it.
        assert enumerations == []

    def test_serve_ingest_then_learned_read(self, set_builds):
        base = er_graph(60, 0.3, seed=2)
        service = CliqueService(
            base, ps=(3,), compact_every=4, query_threads=1, materialize=False
        )
        edges = base.to_csr().edge_table()[:6].tolist()
        service.ingest(UpdateBatch.deletes(edges))
        learned = service.handle(Request(index=0, at=0.0, kind="learned", p=3, node=0))
        assert learned.epoch == 1
        assert set_builds == []


# ----------------------------------------------------------------------
# Generators build arrays
# ----------------------------------------------------------------------
def er_reference(n, p, rng):
    """``erdos_renyi``'s draws, grown edge by edge."""
    if n < 2 or p == 0.0:
        return Graph(n)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return grown(n, zip(iu[mask].tolist(), ju[mask].tolist()))


def power_law_reference(n, exponent, rng):
    """``power_law_graph``'s draws, grown edge by edge."""
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    weights *= (0.5 * n) / weights.sum()
    iu, ju = np.triu_indices(n, k=1)
    probs = np.minimum(1.0, weights[iu] * weights[ju] / weights.sum())
    mask = rng.random(iu.shape[0]) < probs
    return grown(n, zip(iu[mask].tolist(), ju[mask].tolist()))


class TestGeneratorsBuildArrays:
    """The random generators hand their draws to ``Graph(n, edges)``: the
    same edge set as growing the graph edge by edge from the same draws,
    the same draws consumed, and no neighbour set built."""

    @pytest.mark.parametrize(
        "n, p, seed",
        [(0, 0.5, 1), (1, 0.5, 1), (30, 0.0, 2), (30, 1.0, 3), (50, 0.2, 4),
         (120, 0.05, 5), (200, 0.01, "generator")],
    )
    def test_erdos_renyi(self, set_builds, n, p, seed):
        from repro.graphs.generators import erdos_renyi

        if seed == "generator":
            seed, reference_rng = np.random.default_rng(9), np.random.default_rng(9)
        else:
            reference_rng = np.random.default_rng(seed)
        g = erdos_renyi(n, p, seed)
        assert g._adj is None and set_builds == []
        reference = er_reference(n, p, reference_rng)
        assert np.array_equal(g.to_csr().edge_table(), reference.to_csr().edge_table())
        assert g.num_edges == reference.num_edges
        if isinstance(seed, np.random.Generator):
            assert seed.random() == reference_rng.random()

    @pytest.mark.parametrize("n, exponent, seed", [(1, 2.5, 0), (40, 2.5, 1), (300, 2.1, 2)])
    def test_power_law_graph(self, set_builds, n, exponent, seed):
        from repro.graphs.generators import power_law_graph

        g = power_law_graph(n, exponent, seed=seed)
        assert g._adj is None and set_builds == []
        reference = power_law_reference(n, exponent, np.random.default_rng(seed))
        assert np.array_equal(g.to_csr().edge_table(), reference.to_csr().edge_table())
        assert g.num_edges == reference.num_edges
