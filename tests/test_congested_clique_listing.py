"""Tests for Theorem 1.3: sparsity-aware CONGESTED CLIQUE listing."""

import math

import numpy as np
import pytest

import repro.core.congested_clique_listing as cc_listing
from repro.analysis.verification import verify_listing
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import (
    list_cliques_congested_clique,
    num_parts_for_clique,
)
from repro.core.params import AlgorithmParameters
from repro.core.partition import (
    radix_digit_table,
    random_partition,
    responsible_index_array,
)
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.generators import (
    bounded_arboricity_graph,
    complete_graph,
    erdos_renyi,
    gnm_random_graph,
)
from repro.graphs.graph import Graph


class TestNumParts:
    @pytest.mark.parametrize("n,p,expected", [(16, 4, 2), (81, 4, 3), (1000, 3, 10)])
    def test_floor_root(self, n, p, expected):
        assert num_parts_for_clique(n, p) == expected

    def test_coverage(self):
        for p in (3, 4, 5):
            for n in (8, 27, 100, 500):
                s = num_parts_for_clique(n, p)
                assert s**p <= n


class TestCorrectness:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_er_graphs(self, p):
        g = erdos_renyi(60, 0.3, seed=p)
        result = list_cliques_congested_clique(g, p, seed=p)
        verify_listing(g, result).raise_if_failed()

    def test_complete_graph(self):
        g = complete_graph(16)
        result = list_cliques_congested_clique(g, 4)
        assert len(result.cliques) == math.comb(16, 4)

    def test_sparse_graph(self):
        g = bounded_arboricity_graph(100, 2, seed=1)
        result = list_cliques_congested_clique(g, 3, seed=1)
        verify_listing(g, result).raise_if_failed()

    def test_empty(self):
        result = list_cliques_congested_clique(Graph(10), 4)
        assert not result.cliques

    def test_p_exceeds_n(self):
        result = list_cliques_congested_clique(complete_graph(3), 4)
        assert not result.cliques

    def test_attribution_within_range(self):
        g = erdos_renyi(50, 0.4, seed=4)
        result = list_cliques_congested_clique(g, 4, seed=4)
        assert all(0 <= node < 50 for node in result.per_node)

    def test_params_mismatch(self):
        with pytest.raises(ValueError):
            list_cliques_congested_clique(
                complete_graph(8), 4, params=AlgorithmParameters(p=3)
            )


class TestSparsityScaling:
    def test_rounds_grow_with_m(self):
        n, p = 100, 4
        rounds = []
        for m in (200, 1000, 3000):
            g = gnm_random_graph(n, m, seed=6)
            result = list_cliques_congested_clique(g, p, seed=6)
            rounds.append(result.rounds)
        assert rounds[0] <= rounds[1] <= rounds[2]
        assert rounds[2] > rounds[0]

    def test_sparse_regime_near_constant(self):
        """Below m = n^{1+2/p} the learn phase is O(1) rounds."""
        n, p = 128, 4
        g = gnm_random_graph(n, n, seed=7)  # m = n ≪ n^{1.5}
        result = list_cliques_congested_clique(g, p, seed=7)
        learn = [ph for ph in result.ledger.phases() if ph.name == "learn_edges"][0]
        assert learn.rounds <= 8  # a small constant (Lenzen slack · O(1))

    def test_theory_stat_reported(self):
        g = gnm_random_graph(64, 500, seed=8)
        result = list_cliques_congested_clique(g, 4, seed=8)
        assert result.stats["theory_rounds"] == pytest.approx(
            1 + 500 / 64**1.5, rel=1e-9
        )

    def test_fake_edge_padding_inflates_loads(self):
        g = gnm_random_graph(64, 100, seed=9)
        plain = list_cliques_congested_clique(g, 4, seed=9)
        padded = list_cliques_congested_clique(g, 4, seed=9, pad_fake_edges=True)
        assert padded.stats["fake_edges"] > 0
        assert padded.cliques == plain.cliques  # fakes never listed
        learn_plain = [p_ for p_ in plain.ledger.phases() if p_.name == "learn_edges"][0]
        learn_padded = [p_ for p_ in padded.ledger.phases() if p_.name == "learn_edges"][0]
        assert learn_padded.stats["max_recv_words"] >= learn_plain.stats["max_recv_words"]


class TestLoadBounds:
    def test_recv_load_near_paper_bound(self):
        """§2.4.3 / §4: max receive load O(p²·m/n^{2/p}) w.h.p."""
        n, p = 125, 3
        g = gnm_random_graph(n, 2500, seed=10)
        result = list_cliques_congested_clique(g, p, seed=10)
        learn = [ph for ph in result.ledger.phases() if ph.name == "learn_edges"][0]
        bound = 8 * p * p * 2 * g.num_edges / (n ** (2 / p))
        assert learn.stats["max_recv_words"] <= bound


class TestOwnerOnlyListing:
    """The array planes charge the full fan-out but list only rows an
    owning node can keep; the object plane lists every mailbox."""

    @staticmethod
    def _ledger_rows(result):
        return [(ph.name, ph.rounds, ph.stats) for ph in result.ledger.phases()]

    @pytest.mark.parametrize("n,p,seed", [(60, 3, 1), (81, 4, 2), (64, 3, 5)])
    def test_kernel_sees_only_owner_rows(self, monkeypatch, n, p, seed):
        g = erdos_renyi(n, 0.3, seed=seed)
        s = num_parts_for_clique(n, p)
        part = random_partition(n, s, np.random.default_rng(seed)).part_array()
        digits = radix_digit_table(s, p)
        # Owners, independently of the driver's helper: the IDs that are
        # the responsible index of their own digits.
        owned_digits = digits[responsible_index_array(digits, s) == np.arange(s**p)]
        calls = []
        kernel = cc_listing.grouped_clique_tables

        def spy(indptr, edges, p_, assume_unique=False):
            calls.append((np.asarray(indptr).copy(), np.asarray(edges).copy()))
            return kernel(indptr, edges, p_, assume_unique)

        monkeypatch.setattr(cc_listing, "grouped_clique_tables", spy)
        batch = list_cliques_congested_clique(g, p, seed=seed)
        assert len(calls) == 1
        indptr, edges = calls[0]
        # One mailbox per owning ID, none for the other n - C(s+p-1, p).
        assert indptr.size - 1 == math.comb(s + p - 1, p)
        for rank, digits in enumerate(owned_digits.tolist()):
            for u, v in edges[indptr[rank] : indptr[rank + 1]].tolist():
                a, b = part[u], part[v]
                assert a in digits and b in digits
                if a == b:  # an owner holding part a once never needs it
                    assert digits.count(a) >= 2

        obj = list_cliques_congested_clique(
            g, p, seed=seed,
            params=AlgorithmParameters(p=p, execution=ExecutionConfig(plane="object")),
        )
        assert batch.table() == obj.table()
        assert batch.per_node == obj.per_node
        assert self._ledger_rows(batch) == self._ledger_rows(obj)

    def test_shard_planes_receive_the_masked_batch(self, monkeypatch):
        from repro.parallel.executor import ShardExecutor

        n, p, seed = 81, 4, 3
        g = erdos_renyi(n, 0.3, seed=seed)
        s = num_parts_for_clique(n, p)
        seen = []
        fanout = ShardExecutor.fanout_tables

        def spy(self, indptr, edges, p_, assume_unique=False):
            seen.append((indptr.size - 1, assume_unique))
            return fanout(self, indptr, edges, p_, assume_unique)

        monkeypatch.setattr(ShardExecutor, "fanout_tables", spy)
        params = AlgorithmParameters(
            p=p, execution=ExecutionConfig(plane="parallel", workers=2)
        )
        sharded = list_cliques_congested_clique(g, p, params=params, seed=seed)
        owners = math.comb(s + p - 1, p)
        assert seen == [(owners, True)]
        batch = list_cliques_congested_clique(g, p, seed=seed)
        assert sharded.table() == batch.table()
        assert sharded.per_node == batch.per_node


class TestTracedPath:
    """perfbench/tracing.py wraps these names where the Theorem 1.3 driver
    looks them up.  A refactor that builds, charges or lists the fan-out
    under another name passes every other test but silently drops the
    benchmark's spans, so each must still run exactly once per op."""

    @pytest.mark.parametrize("plane", ["batch", "parallel"])
    def test_patched_names_run_once_per_op(self, monkeypatch, plane):
        from repro.congest.congested_clique import CongestedClique
        from repro.parallel.executor import ShardExecutor

        calls = {}
        charged = []

        def spy(owner, attr):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[attr] = calls.get(attr, 0) + 1
                if attr == "charge_batch":
                    charged.append(args[1])
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        spy(cc_listing, "fanout_edges_by_pair")
        spy(CongestedClique, "charge_batch")
        spy(cc_listing, "grouped_clique_tables")
        spy(ShardExecutor, "fanout_tables")
        n, p, seed = 81, 4, 3
        g = erdos_renyi(n, 0.3, seed=seed)
        workers = 2 if plane == "parallel" else 1
        params = AlgorithmParameters(
            p=p, execution=ExecutionConfig(plane=plane, workers=workers)
        )
        result = list_cliques_congested_clique(g, p, params=params, seed=seed)
        lister = "grouped_clique_tables" if plane == "batch" else "fanout_tables"
        assert calls == {"fanout_edges_by_pair": 1, "charge_batch": 1, lister: 1}
        (learn,) = [ph for ph in result.ledger.phases() if ph.name == "learn_edges"]
        (batch,) = charged
        assert len(batch) * batch.words_per_message == 2 * learn.stats["messages"]
        assert result.num_cliques > 0
