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
    """An intact delivery is listed as one mailbox, each Kp attributed to
    the owner of its part multiset; a delivery with silently corrupted
    rows, or a graph past the bitset cap, lists one mailbox per owner
    holding only rows that owner can keep.  Every layout equals the
    object plane, which lists every node's learned subgraph."""

    #: (n, p, edge density, seed).  At p = 5 and 6 s = 2, so every
    #: owner's digits repeat a part.
    CASES = [
        (60, 3, 0.3, 1), (81, 4, 0.3, 2), (64, 3, 0.3, 5),
        (40, 5, 0.5, 3), (70, 6, 0.4, 4),
    ]

    @staticmethod
    def _ledger_rows(result):
        return [(ph.name, ph.rounds, ph.stats) for ph in result.ledger.phases()]

    @staticmethod
    def _spy_kernel(monkeypatch):
        calls = []
        kernel = cc_listing.grouped_clique_tables

        def spy(indptr, edges, p_):
            calls.append((np.asarray(indptr).copy(), np.asarray(edges).copy()))
            return kernel(indptr, edges, p_)

        monkeypatch.setattr(cc_listing, "grouped_clique_tables", spy)
        return calls

    def _assert_equals_object_plane(self, result, g, p, seed):
        obj = list_cliques_congested_clique(
            g, p, seed=seed,
            params=AlgorithmParameters(p=p, execution=ExecutionConfig(plane="object")),
        )
        assert result.num_cliques > 0
        assert result.table() == obj.table()
        assert result.per_node == obj.per_node
        assert self._ledger_rows(result) == self._ledger_rows(obj)

    @staticmethod
    def _assert_owner_mailboxes(calls, n, p, seed):
        s = num_parts_for_clique(n, p)
        part = random_partition(n, s, np.random.default_rng(seed)).part_array()
        digits = radix_digit_table(s, p)
        # Owners, independently of the driver's helper: the IDs that are
        # the responsible index of their own digits.
        owned_digits = digits[responsible_index_array(digits, s) == np.arange(s**p)]
        ((indptr, edges),) = calls
        # One mailbox per owning ID, none for the other n - C(s+p-1, p).
        assert indptr.size - 1 == math.comb(s + p - 1, p)
        inside = 0
        for rank, digits in enumerate(owned_digits.tolist()):
            for u, v in edges[indptr[rank] : indptr[rank + 1]].tolist():
                a, b = part[u], part[v]
                assert a in digits and b in digits
                if a == b:  # an owner holding part a once never needs it
                    assert digits.count(a) >= 2
                    inside += 1
        assert inside > 0  # the repeated-digit rule was exercised

    @pytest.mark.parametrize("n,p,density,seed", CASES)
    def test_intact_delivery_is_listed_as_one_mailbox(
        self, monkeypatch, n, p, density, seed
    ):
        g = erdos_renyi(n, density, seed=seed)
        calls = self._spy_kernel(monkeypatch)
        result = list_cliques_congested_clique(g, p, seed=seed)
        ((indptr, edges),) = calls
        assert indptr.tolist() == [0, g.num_edges]
        # Every delivered edge, once: the graph's edge set, no repeats.
        assert sorted(map(tuple, np.sort(edges, axis=1).tolist())) == sorted(
            map(tuple, g.to_csr().edge_table().tolist())
        )
        self._assert_equals_object_plane(result, g, p, seed)

    @pytest.mark.parametrize("n,p,density,seed", CASES)
    def test_past_the_bitset_cap_each_owner_lists_its_mailbox(
        self, monkeypatch, n, p, density, seed
    ):
        g = erdos_renyi(n, density, seed=seed)
        calls = self._spy_kernel(monkeypatch)
        monkeypatch.setattr(cc_listing, "BITSET_MAX_NODES", n - 1)
        result = list_cliques_congested_clique(g, p, seed=seed)
        self._assert_owner_mailboxes(calls, n, p, seed)
        self._assert_equals_object_plane(result, g, p, seed)

    @pytest.mark.parametrize(
        "n,p,density,seed,fault_seed", [(64, 3, 0.3, 5, 3), (40, 5, 0.5, 3, 0)]
    )
    def test_silent_corruption_keeps_the_owner_mailboxes(
        self, monkeypatch, n, p, density, seed, fault_seed
    ):
        from repro.faults import FaultModel

        g = erdos_renyi(n, density, seed=seed)
        calls = self._spy_kernel(monkeypatch)
        model = FaultModel(seed=fault_seed, silent_corruption_rate=0.0005)
        result = list_cliques_congested_clique(
            g, p, seed=seed,
            params=AlgorithmParameters(p=p, execution=ExecutionConfig(faults=model)),
        )
        self._assert_owner_mailboxes(calls, n, p, seed)
        # The corrupted rows miss every kept Kp here, so the run passes
        # its recount.  The object plane orders its rows by sender, so
        # the same model corrupts other rows there: compare with its
        # fault-free run (silent corruption adds no ledger rows).
        self._assert_equals_object_plane(result, g, p, seed)

    @pytest.mark.parametrize("executor", ["pool", "cluster"])
    def test_shard_planes_split_the_mailbox_by_root_edges(self, monkeypatch, executor):
        from repro.dist import Cluster, LocalNode, register_cluster
        from repro.parallel import executor as executor_mod
        from repro.parallel.executor import ShardExecutor

        monkeypatch.setattr(executor_mod, "MIN_PARALLEL_ITEMS", 0)
        n, p, seed = 81, 4, 3
        g = erdos_renyi(n, 0.3, seed=seed)
        if executor == "pool":
            execution, runner = ExecutionConfig(workers=2), ShardExecutor
        else:
            hosts = ("test-mailbox-a", "test-mailbox-b")
            cluster = Cluster([LocalNode(), LocalNode()], name="test-mailbox")
            register_cluster(hosts, cluster)
            execution, runner = ExecutionConfig(hosts=hosts), Cluster
        seen, listed = [], []
        fanout, run = ShardExecutor.fanout_tables, runner._run

        def spy_fanout(self, indptr, edges, p_):
            listed.append(np.asarray(indptr).tolist())
            return fanout(self, indptr, edges, p_)

        def spy_run(self, fn, arrays, shard_args):
            seen.append((fn.__name__, len(shard_args)))
            return run(self, fn, arrays, shard_args)

        monkeypatch.setattr(ShardExecutor, "fanout_tables", spy_fanout)
        monkeypatch.setattr(runner, "_run", spy_run)
        try:
            sharded = list_cliques_congested_clique(
                g, p, seed=seed, params=AlgorithmParameters(p=p, execution=execution)
            )
        finally:
            if executor == "cluster":
                cluster.close()
        assert listed == [[0, g.num_edges]]
        ((task, shards),) = seen
        assert task == "forward_table_shard" and shards >= 2
        if executor == "cluster":
            assert cluster.stats["dispatched"] >= 2
        self._assert_equals_object_plane(sharded, g, p, seed)


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
