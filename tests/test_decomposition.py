"""Tests for the expander decomposition substrate (Definition 2.2)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import repro

from repro.congest.ledger import RoundLedger
from repro.decomposition import (
    Decomposition,
    estimate_mixing_time,
    expander_decomposition,
    peel_low_degree,
    spectral_gap,
    sweep_cut,
    validate_decomposition,
)
from repro.decomposition.arboricity import validate_peeling
from repro.decomposition.cluster import Cluster
from repro.decomposition.mixing import polylog_mixing_budget, simulate_mixing_time
from repro.decomposition.spectral import (
    adjacency_matrix,
    normalized_laplacian_second_eigenpair,
)
from repro.graphs.generators import (
    barbell_graph,
    bounded_arboricity_graph,
    clustered_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    random_regular,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.keys import key_pairs
from repro.graphs.orientation import Orientation


def rows(edges):
    """An ``(m, 2)`` edge array as a set of row tuples."""
    return set(map(tuple, np.asarray(edges).tolist()))


def peeled(orientation):
    """The canonical edges an orientation covers, as a set of tuples."""
    return rows(key_pairs(orientation.canonical_keys(), orientation.num_nodes))


class TestPeeling:
    def test_path_fully_peels(self):
        g = path_graph(10)
        remainder, orientation = peel_low_degree(g, threshold=2)
        assert remainder.num_edges == 0
        assert peeled(orientation) == g.edge_set()
        validate_peeling(g, remainder, orientation, 2)

    def test_clique_survives(self):
        g = complete_graph(6)
        remainder, orientation = peel_low_degree(g, threshold=3)
        assert remainder.num_edges == 15
        assert not orientation.keys.size

    def test_threshold_zero_is_identity(self):
        g = cycle_graph(5)
        remainder, orientation = peel_low_degree(g, 0)
        assert remainder == g and not orientation.keys.size

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            peel_low_degree(cycle_graph(4), -1)

    def test_cascading_peel(self):
        # A clique with a pendant path: peeling eats the whole path.
        g = complete_graph(5)
        g2 = Graph(8, g.edge_set() | {(4, 5), (5, 6), (6, 7)})
        remainder, orientation = peel_low_degree(g2, threshold=3)
        assert peeled(orientation) == {(4, 5), (5, 6), (6, 7)}
        assert remainder.num_edges == 10
        validate_peeling(g2, remainder, orientation, 3)

    def test_witness_out_degree_below_threshold(self):
        g = erdos_renyi(60, 0.15, seed=4)
        remainder, orientation = peel_low_degree(g, threshold=6)
        assert orientation.max_out_degree < 6
        validate_peeling(g, remainder, orientation, 6)

    def test_surviving_degrees_at_least_threshold(self):
        g = erdos_renyi(60, 0.3, seed=5)
        remainder, _o = peel_low_degree(g, threshold=8)
        for v in remainder.nodes():
            assert remainder.degree(v) == 0 or remainder.degree(v) >= 8


class TestSpectral:
    def test_gap_of_clique_is_large(self):
        g = complete_graph(12)
        gap = spectral_gap(g, list(range(12)))
        assert gap is not None and gap > 0.3

    def test_gap_of_barbell_is_small(self):
        g = barbell_graph(8, 2)
        gap_barbell = spectral_gap(g, list(g.nodes()))
        g2 = complete_graph(18)
        gap_clique = spectral_gap(g2, list(range(18)))
        assert gap_barbell < gap_clique / 5

    def test_gap_none_for_tiny(self):
        g = Graph(2, [(0, 1)])
        assert spectral_gap(g, [0, 1]) is None


#: λ₂, Fiedler vector and lazy-walk gap of an ER n=160 component (above
#: the dense cutoff, so all three come from ARPACK), as exact bit patterns.
SPECTRAL_FINGERPRINT = """
from repro.decomposition.mixing import spectral_gap
from repro.decomposition.spectral import (
    adjacency_matrix,
    normalized_laplacian_second_eigenpair,
)
from repro.graphs.generators import erdos_renyi

graph = erdos_renyi(160, 0.5, seed=1)
nodes = list(range(160))
lambda2, fiedler = normalized_laplacian_second_eigenpair(adjacency_matrix(graph, nodes))
print(float(lambda2).hex(), fiedler.tobytes().hex(), float(spectral_gap(graph, nodes)).hex())
"""


class TestArpackStartVector:
    """ARPACK starts from a pinned ``v0``: the spectral quantities the
    sweep cut and the mixing estimate read are pure functions of the
    matrix, bit for bit, within a process and across processes."""

    @staticmethod
    def fingerprint():
        graph = erdos_renyi(160, 0.5, seed=1)
        nodes = list(range(160))
        lambda2, fiedler = normalized_laplacian_second_eigenpair(
            adjacency_matrix(graph, nodes)
        )
        return (
            float(lambda2).hex(),
            fiedler.tobytes().hex(),
            float(spectral_gap(graph, nodes)).hex(),
        )

    def test_repeated_calls_are_bitwise_identical(self):
        first = self.fingerprint()
        for _ in range(3):
            assert self.fingerprint() == first

    def test_a_fresh_process_gets_the_same_bits(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", SPECTRAL_FINGERPRINT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert tuple(proc.stdout.split()) == self.fingerprint()


class TestMixing:
    def test_clique_mixes_fast(self):
        g = complete_graph(16)
        t = estimate_mixing_time(g, list(range(16)))
        assert t is not None and t < polylog_mixing_budget(16)

    def test_barbell_mixes_slowly(self):
        g = barbell_graph(10, 2)
        slow = estimate_mixing_time(g, list(g.nodes()))
        fast = estimate_mixing_time(complete_graph(22), list(range(22)))
        assert slow > 5 * fast

    def test_simulated_vs_spectral_consistent(self):
        g = random_regular(30, 6, seed=3)
        spectral = estimate_mixing_time(g, list(g.nodes()))
        simulated = simulate_mixing_time(g, list(g.nodes()))
        # The relaxation bound upper-bounds the simulated t_mix(1/4).
        assert simulated <= spectral * 2 + 5

    def test_budget_monotone(self):
        assert polylog_mixing_budget(1024) > polylog_mixing_budget(16)

    def test_clusters_reuse_the_sweep_solve(self, monkeypatch):
        """A cluster's mixing estimate takes the gap from the λ₂ its
        sweep cut already solved for: the lazy walk's gap is λ₂/2, so no
        second (non-symmetric) eigen-solve runs."""

        def refuse(*args, **kwargs):
            raise AssertionError("a second eigen-solve ran")

        monkeypatch.setattr(spla, "eigs", refuse)
        g = random_regular(100, 12, seed=5)
        decomposition = expander_decomposition(g, threshold=4)
        assert decomposition.clusters
        for cluster in decomposition.clusters:
            members = sorted(cluster.nodes)
            assert len(members) > 64  # the ARPACK-sized path
            local = {v: i for i, v in enumerate(members)}
            adj = np.zeros((len(members), len(members)))
            for u, v in cluster.edges:
                adj[local[u], local[v]] = adj[local[v], local[u]] = 1.0
            degrees = adj.sum(axis=1)
            scale = 1.0 / np.sqrt(degrees)
            laplacian = np.eye(len(members)) - scale[:, None] * adj * scale[None, :]
            lambda2 = np.linalg.eigvalsh(laplacian)[1]
            pi_min = degrees.min() / degrees.sum()
            expected = (2.0 / lambda2) * math.log(4.0 / pi_min)
            assert cluster.mixing_time == pytest.approx(expected, rel=1e-9)


class TestSweepCut:
    def test_finds_barbell_bottleneck(self):
        g = barbell_graph(10, 0)
        result = sweep_cut(g, list(g.nodes()))
        assert result is not None
        assert result.conductance < 0.05
        # The cut side should be one of the two cliques.
        assert len(result.side) == 10

    def test_clique_has_no_sparse_cut(self):
        g = complete_graph(12)
        result = sweep_cut(g, list(range(12)))
        assert result is None or result.conductance > 0.3

    def test_too_small_returns_none(self):
        g = complete_graph(3)
        assert sweep_cut(g, [0, 1, 2]) is None


class TestClusterObject:
    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            Cluster(0, frozenset({1}), frozenset(), 1)

    def test_edge_endpoints_inside(self):
        with pytest.raises(ValueError):
            Cluster(0, frozenset({0, 1}), frozenset({(1, 2)}), 1)

    def test_new_ids_are_one_to_k(self):
        c = Cluster(0, frozenset({5, 9, 2}), frozenset({(2, 5), (5, 9), (2, 9)}), 2)
        ids = c.new_ids()
        assert sorted(ids.values()) == [1, 2, 3]
        assert ids[2] == 1  # sorted by global ID


class TestExpanderDecomposition:
    def test_clustered_graph_recovers_blocks(self, caveman):
        # At n=80 the default phi = 1/(2 log2^2 n) is lenient enough to
        # accept the whole caveman graph as one (slow-ish) expander; an
        # explicit phi recovers the planted blocks.
        dec = expander_decomposition(caveman, threshold=6, phi=0.06)
        validate_decomposition(caveman, dec)
        assert len(dec.clusters) == 4
        sizes = sorted(c.size for c in dec.clusters)
        assert sizes == [20, 20, 20, 20]

    def test_dense_er_is_one_cluster(self):
        g = erdos_renyi(80, 0.4, seed=2)
        dec = expander_decomposition(g, threshold=8)
        validate_decomposition(g, dec)
        assert len(dec.clusters) == 1

    def test_sparse_graph_fully_peels(self):
        g = bounded_arboricity_graph(100, 2, seed=3)
        dec = expander_decomposition(g, threshold=8)
        validate_decomposition(g, dec)
        assert not dec.clusters
        assert rows(dec.es_edges) == g.edge_set()

    def test_er_bound_holds(self, caveman):
        dec = expander_decomposition(caveman, threshold=6, phi=0.06)
        assert len(dec.er_edges) <= caveman.num_edges / 6

    def test_partition_is_exact(self, caveman):
        dec = expander_decomposition(caveman, threshold=6)
        em, es, er = rows(dec.em_edges), rows(dec.es_edges), rows(dec.er_edges)
        assert em | es | er == caveman.edge_set()
        assert not (em & es) and not (em & er) and not (es & er)
        parts = (dec.em_edges, dec.es_edges, dec.er_edges)
        assert sum(len(part) for part in parts) == caveman.num_edges

    def test_cluster_min_degree(self, caveman):
        dec = expander_decomposition(caveman, threshold=6)
        for cluster in dec.clusters:
            assert cluster.min_internal_degree >= 6

    def test_cluster_mixing_polylog(self, caveman):
        dec = expander_decomposition(caveman, threshold=6)
        validate_decomposition(caveman, dec, strict_mixing=True)

    def test_es_witness_out_degree(self):
        g = erdos_renyi(100, 0.08, seed=9)
        dec = expander_decomposition(g, threshold=5)
        assert dec.es_orientation.max_out_degree <= 5
        validate_decomposition(g, dec)

    def test_ledger_charged_theorem_2_3(self):
        g = erdos_renyi(64, 0.3, seed=1)
        ledger = RoundLedger()
        dec = expander_decomposition(g, threshold=8, ledger=ledger)
        phase = ledger.phases()[0]
        assert phase.name == "expander_decomposition"
        # Õ(n^{1−δ}) with n=64, threshold=8 → δ=1/2 → 8·log2(64)=48.
        assert phase.rounds == pytest.approx((64**0.5) * 6, rel=0.01)

    def test_barbell_splits(self):
        g = barbell_graph(12, 0)
        dec = expander_decomposition(g, threshold=4)
        validate_decomposition(g, dec)
        assert len(dec.clusters) == 2

    def test_empty_graph(self):
        g = Graph(10)
        dec = expander_decomposition(g, threshold=3)
        validate_decomposition(g, dec)
        assert not dec.clusters and not len(dec.es_edges) and not len(dec.er_edges)

    def test_stats_keys(self, caveman):
        dec = expander_decomposition(caveman, threshold=6)
        stats = dec.stats()
        for key in ("num_clusters", "er_fraction", "es_out_degree"):
            assert key in stats

    def test_delta_exponent(self):
        g = erdos_renyi(100, 0.3, seed=2)
        dec = expander_decomposition(g, threshold=10)
        assert dec.delta_exponent == pytest.approx(math.log(10) / math.log(100))


class TestValidationCatchesViolations:
    def test_detects_leftover_overflow(self, caveman):
        dec = expander_decomposition(caveman, threshold=6)
        # Corrupt: move most of Em into Er.
        dec.er_edges = np.concatenate(
            [dec.er_edges, dec.em_edges[: caveman.num_edges // 2]]
        )
        with pytest.raises(ValueError):
            validate_decomposition(caveman, dec)

    def test_detects_missing_edges(self, caveman):
        dec = expander_decomposition(caveman, threshold=6)
        dec.er_edges = dec.er_edges[:0]  # drop Er edges entirely
        if caveman.edge_set() != rows(dec.em_edges) | rows(dec.es_edges):
            with pytest.raises(ValueError, match="cover"):
                validate_decomposition(caveman, dec)


def two_triangles(threshold=2, es_orientation=None, clusters=None, extra=()):
    """Two triangle clusters {0,1,2} and {3,4,5} joined by the Es edge
    (2, 3) oriented 2 → 3, as a hand-built array decomposition of the
    graph on their edges plus ``extra``."""
    first = np.array([[0, 1], [0, 2], [1, 2]])
    second = np.array([[3, 4], [3, 5], [4, 5]])
    if clusters is None:
        clusters = [
            Cluster(0, frozenset({0, 1, 2}), first, 2),
            Cluster(1, frozenset({3, 4, 5}), second, 2),
        ]
    if es_orientation is None:
        es_orientation = Orientation.from_pairs(6, [2], [3])
    edges = [tuple(e) for c in clusters for e in c.edges.tolist()]
    graph = Graph(6, [*edges, (2, 3), *extra])
    decomposition = Decomposition(
        n=6,
        threshold=threshold,
        phi=0.1,
        clusters=clusters,
        es_orientation=es_orientation,
        er_edges=np.empty((0, 2), dtype=np.int64),
    )
    return graph, decomposition


class TestValidationOnArrays:
    """Each ``ValueError`` of :func:`validate_decomposition`, reached on
    a hand-built decomposition whose edge sets are arrays."""

    def test_valid_decomposition_passes(self):
        validate_decomposition(*two_triangles())

    def test_missing_edge(self):
        graph, dec = two_triangles(extra=[(0, 5)])
        with pytest.raises(ValueError, match="do not cover the edge set"):
            validate_decomposition(graph, dec)

    def test_parts_overlap(self):
        graph, dec = two_triangles()
        dec.er_edges = np.array([[0, 1]])
        with pytest.raises(ValueError, match="not disjoint"):
            validate_decomposition(graph, dec)

    def test_cluster_overlap(self):
        shared = [
            Cluster(0, frozenset({0, 1, 2}), [(0, 1), (0, 2), (1, 2)], 2),
            Cluster(1, frozenset({2, 4, 5}), [(2, 4), (2, 5), (4, 5)], 2),
        ]
        graph, dec = two_triangles(clusters=shared)
        with pytest.raises(ValueError, match="node 2 belongs to clusters 0 and 1"):
            validate_decomposition(graph, dec)

    def test_internal_degree_below_threshold(self):
        graph, dec = two_triangles(threshold=3)
        with pytest.raises(ValueError, match="internal degree 2 < threshold 3"):
            validate_decomposition(graph, dec)

    def test_es_out_degree_equal_to_threshold(self):
        # A peeled node had degree < threshold, so out-degree == threshold
        # is already a violation.
        fan = Orientation.from_pairs(6, [2, 2], [3, 4])
        graph, dec = two_triangles(es_orientation=fan, extra=[(2, 4)])
        with pytest.raises(ValueError, match="Es witness out-degree 2 >= threshold 2"):
            validate_decomposition(graph, dec)

    def test_er_above_a_sixth_of_the_edges(self):
        graph, dec = two_triangles(extra=[(0, 3), (1, 4)])
        dec.er_edges = np.array([[0, 3], [1, 4]])
        with pytest.raises(ValueError, match=r"\|Er\| = 2 exceeds \|E\|/6 = 1.5"):
            validate_decomposition(graph, dec)

    def test_mixing_time_over_budget_under_strict_mixing(self):
        budget = polylog_mixing_budget(6)
        slow = [
            Cluster(0, frozenset({0, 1, 2}), [(0, 1), (0, 2), (1, 2)], 2),
            Cluster(1, frozenset({3, 4, 5}), [(3, 4), (3, 5), (4, 5)], 2, budget + 1),
        ]
        graph, dec = two_triangles(clusters=slow)
        validate_decomposition(graph, dec)
        with pytest.raises(ValueError, match="cluster 1 mixing time .* exceeds budget"):
            validate_decomposition(graph, dec, strict_mixing=True)
