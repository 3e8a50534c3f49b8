"""Differential tests: object vs batch routing plane.

The batch plane must be a *drop-in* for the tuple plane: byte-identical
ledger charges (phase names, rounds, stats), identical per-node received
multisets out of the routers, and identical ``ListingResult`` outputs
from both end-to-end drivers — across all workload families and seeds.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.congest.batch import MessageBatch, bincount_loads, deliver
from repro.congest.congested_clique import CongestedClique
from repro.congest.ledger import RoundLedger
from repro.congest.message import Message, payload_words
from repro.congest.routing import ClusterRouter
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.listing import default_parameters, list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.graphs.cliques import enumerate_cliques
from repro.workloads import available_workloads, create_workload

FAMILIES = sorted(available_workloads())
SEEDS = (0, 1, 2)


def ledger_rows(result):
    """The full charge record: (name, rounds, stats) per phase."""
    return [(ph.name, ph.rounds, ph.stats) for ph in result.ledger.phases()]


def on_object(p):
    """Parameters that put a run on the object (reference) plane."""
    return AlgorithmParameters(p, execution=ExecutionConfig(plane="object"))


def random_pattern(rng, n, messages):
    """A random message pattern incl. self-messages and silent senders."""
    src = rng.integers(0, n, size=messages)
    dst = rng.integers(0, n, size=messages)
    endpoints = rng.integers(0, n, size=(messages, 2))
    return MessageBatch.of_edges(
        src=src.astype(np.int64), dst=dst.astype(np.int64),
        endpoints=endpoints.astype(np.uint32),
    )


class TestRouterParity:
    """route() vs route_batch() on identical patterns."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_congested_clique_routers_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = 17
        batch = random_pattern(rng, n, messages=200)
        net = CongestedClique(n)
        object_ledger, batch_ledger = RoundLedger(), RoundLedger()
        delivered_obj = net.route(
            batch.to_object_messages(), object_ledger, "t", words_per_message=2
        )
        delivered_batch = net.route_batch(batch, batch_ledger, "t")
        assert ledger_rows_equal(object_ledger, batch_ledger)
        for v in range(n):
            assert sorted(delivered_obj[v]) == sorted(delivered_batch.payloads(v))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cluster_router_agrees(self, seed):
        rng = np.random.default_rng(seed)
        members = sorted(rng.choice(40, size=12, replace=False).tolist())
        lookup = np.asarray(members, dtype=np.int64)
        src = lookup[rng.integers(0, len(members), size=150)]
        dst = lookup[rng.integers(0, len(members), size=150)]
        endpoints = rng.integers(0, 40, size=(150, 2)).astype(np.uint32)
        batch = MessageBatch.of_edges(src=src, dst=dst, endpoints=endpoints)
        router = ClusterRouter(members, capacity=3, n=40)
        object_ledger, batch_ledger = RoundLedger(), RoundLedger()
        delivered_obj = router.route(
            batch.to_object_messages(), object_ledger, "t", words_per_message=2
        )
        delivered_batch = router.route_batch(batch, batch_ledger, "t")
        assert ledger_rows_equal(object_ledger, batch_ledger)
        for v in members:
            assert sorted(delivered_obj[v]) == sorted(delivered_batch.payloads(v))

    def test_cluster_router_rejects_non_members(self):
        router = ClusterRouter([1, 2, 3], capacity=1, n=10)
        bad = MessageBatch.of_edges(
            src=np.array([1]), dst=np.array([7]),
            endpoints=np.zeros((1, 2), dtype=np.uint32),
        )
        with pytest.raises(ValueError):
            router.route_batch(bad, RoundLedger(), "t")


def ledger_rows_equal(a: RoundLedger, b: RoundLedger) -> bool:
    return [(p.name, p.rounds, p.stats) for p in a.phases()] == [
        (p.name, p.rounds, p.stats) for p in b.phases()
    ]


class TestDriverParity:
    """End-to-end drivers across every workload family and several seeds."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_congested_clique_driver(self, family, seed):
        g = create_workload(family).instance(48, seed=seed)
        batch = list_cliques_congested_clique(g, 3, seed=seed)
        obj = list_cliques_congested_clique(g, 3, seed=seed, params=on_object(3))
        assert batch.cliques == obj.cliques == enumerate_cliques(g, 3)
        assert batch.per_node == obj.per_node
        assert ledger_rows(batch) == ledger_rows(obj)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("stop_scale", [1.0, 0.1])
    def test_congest_driver(self, family, seed, p, stop_scale):
        # stop_scale=0.1 lowers the outer loop's stop so the cluster
        # pipeline runs at n=40; at 1.0 only the local tail does.
        g = create_workload(family).instance(40, seed=seed)
        params = replace(default_parameters(p), stop_scale=stop_scale)
        batch = list_cliques_congest(g, p, seed=seed, params=params)
        obj = list_cliques_congest(
            g, p, seed=seed,
            params=replace(params, execution=ExecutionConfig(plane="object")),
        )
        assert batch.cliques == obj.cliques == enumerate_cliques(g, p)
        assert batch.per_node == obj.per_node
        assert ledger_rows(batch) == ledger_rows(obj)
        if stop_scale < 1.0 and family != "zipfian":  # zipfian: no cluster
            assert batch.stats["outer_iterations"] >= 1

    @pytest.mark.parametrize("p", [4, 5])
    def test_higher_p_parity(self, p):
        g = create_workload("er").instance(40, seed=7)
        batch = list_cliques_congested_clique(g, p, seed=7)
        obj = list_cliques_congested_clique(g, p, seed=7, params=on_object(p))
        assert batch.cliques == obj.cliques == enumerate_cliques(g, p)
        assert ledger_rows(batch) == ledger_rows(obj)

    def test_fake_edge_padding_parity(self):
        g = create_workload("sparse").instance(40, seed=3)
        batch = list_cliques_congested_clique(
            g, 3, seed=3, pad_fake_edges=True
        )
        obj = list_cliques_congested_clique(
            g, 3, seed=3, pad_fake_edges=True, params=on_object(3)
        )
        assert batch.cliques == obj.cliques
        assert ledger_rows(batch) == ledger_rows(obj)
        assert batch.stats["fake_edges"] > 0

    def test_unknown_plane_rejected(self):
        g = create_workload("er").instance(16, seed=0)
        with pytest.raises(ValueError):
            list_cliques_congested_clique(
                g, 3,
                params=AlgorithmParameters(3, execution=ExecutionConfig(plane="vector")),
            )


class TestGroupedCompactionPaths:
    """The grouped kernel's dense and sort-based vertex compactions must
    agree — production sweeps (n > ~4096) take the sort path that the
    small differential instances never reach."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("p", [3, 4])
    def test_dense_and_sort_compaction_agree(self, monkeypatch, seed, p):
        from repro.graphs import csr

        rng = np.random.default_rng(seed)
        groups = 7
        counts = rng.integers(0, 40, size=groups)
        indptr = np.zeros(groups + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        edges = rng.integers(0, 25, size=(int(indptr[-1]), 2))
        edges[:, 1] = (edges[:, 1] + 1 + edges[:, 0]) % 26  # no self-loops
        dense = csr.grouped_clique_tables(indptr, edges, p)
        monkeypatch.setattr(csr, "DENSE_COMPACTION_CELLS", 0)
        sorted_path = csr.grouped_clique_tables(indptr, edges, p)
        assert dense[0].tolist() == sorted_path[0].tolist()
        assert dense[1].tolist() == sorted_path[1].tolist()

    def test_batch_driver_on_sort_compaction(self, monkeypatch):
        from repro.graphs import csr

        g = create_workload("er").instance(48, seed=5)
        expected = list_cliques_congested_clique(g, 3, seed=5, params=on_object(3))
        monkeypatch.setattr(csr, "DENSE_COMPACTION_CELLS", 0)
        batch = list_cliques_congested_clique(g, 3, seed=5)
        assert batch.cliques == expected.cliques
        assert batch.per_node == expected.per_node
        assert ledger_rows(batch) == ledger_rows(expected)


class TestMessageBatchBasics:
    def test_round_trip_object_messages(self):
        messages = {0: [(1, (2, 3)), (2, (4, 5))], 3: [(0, (6, 7))]}
        batch = MessageBatch.of_edges(
            np.array([0, 0, 3]), np.array([1, 2, 0]), np.array([[2, 3], [4, 5], [6, 7]])
        )
        assert len(batch) == 3
        assert batch.to_object_messages() == messages

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MessageBatch(
                src=np.array([0]), dst=np.array([1, 2]),
                payload=np.empty((1, 0), dtype=np.uint32),
            )

    @pytest.mark.parametrize("word", [-1, 2**32, 2**32 + 5])
    def test_out_of_range_payload_word_rejected(self, word):
        """A word outside [0, 2**32) raises, naming the word, instead of
        wrapping onto another word (numpy's uint32 cast turns -1 into
        4294967295 and 2**32 + 5 into 5)."""
        with pytest.raises(ValueError, match=rf"payload word {word} is outside"):
            MessageBatch(
                src=np.array([0, 1]), dst=np.array([1, 0]),
                payload=np.array([[3, 4], [5, word]], dtype=np.int64),
            )
        with pytest.raises(ValueError, match=rf"payload word {word} is outside"):
            MessageBatch.of_edges(
                src=np.array([0]), dst=np.array([1]), endpoints=[[word, 1]]
            )

    def test_in_range_payload_words_cast_exactly(self):
        top = 2**32 - 1
        wide = MessageBatch(
            src=np.array([0]), dst=np.array([1]),
            payload=np.array([[0, top]], dtype=np.int64),
        )
        assert wide.payload.dtype == np.uint32
        assert wide.payload.tolist() == [[0, top]]
        words = np.array([[7, top]], dtype=np.uint32)
        narrow = MessageBatch(src=np.array([0]), dst=np.array([1]), payload=words)
        assert narrow.payload is words  # a uint32 input is taken as is

    def test_empty_batch_loads(self):
        batch = MessageBatch.empty(width=2, words_per_message=2)
        send, recv = bincount_loads(batch.src, batch.dst, 5, 2)
        assert send.tolist() == [0] * 5
        assert recv.tolist() == [0] * 5
        assert batch.send_words(5).tolist() == [0] * 5
        assert batch.recv_words(5).tolist() == [0] * 5

    def test_directional_loads_and_nonempty_nodes(self):
        batch = MessageBatch.of_edges(
            src=np.array([0, 0, 2]), dst=np.array([1, 1, 0]),
            endpoints=np.zeros((3, 2), dtype=np.uint32),
        )
        assert batch.send_words(3).tolist() == [4, 0, 2]
        assert batch.recv_words(3).tolist() == [2, 4, 0]
        assert deliver(batch, 3).nonempty_nodes().tolist() == [0, 1]


class TestNumpyScalarEnvelopes:
    """Satellite: numpy integer scalars at the envelope boundary."""

    def test_message_of_numpy_edge_payload(self):
        msg = Message.of(np.uint32(3), np.int64(5), (np.uint32(7), np.uint32(9)))
        assert msg.words == 2  # an edge is two words, not one opaque object
        assert (msg.src, msg.dst) == (3, 5)
        assert msg.payload == (7, 9)
        assert all(isinstance(x, int) for x in msg.payload)

    def test_message_equality_across_planes(self):
        assert Message.of(np.uint32(1), np.uint32(2), (np.uint32(3), np.uint32(4))) == \
            Message.of(1, 2, (3, 4))

    def test_payload_words_numpy_scalars_and_arrays(self):
        assert payload_words(np.uint32(7)) == 1
        assert payload_words((np.uint32(1), np.uint32(2))) == 2
        assert payload_words(np.array([1, 2, 3], dtype=np.uint32)) == 3

    def test_non_integer_endpoint_rejected(self):
        with pytest.raises(TypeError):
            Message(src=1.5, dst=2, payload="x")
