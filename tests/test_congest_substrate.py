"""Unit tests for the CONGEST substrate: messages, ledger, routing, clique."""

import math

import pytest

from repro.congest.congested_clique import CongestedClique
from repro.congest.ledger import Phase, RoundLedger
from repro.congest.message import Message, payload_words
from repro.congest.routing import ClusterRouter, CostModel, broadcast_rounds


class TestPayloadWords:
    def test_atomic_is_one(self):
        assert payload_words(42) == 1
        assert payload_words("tag") == 1

    def test_tuple_counts_elements(self):
        assert payload_words((1, 2)) == 2

    def test_nested(self):
        assert payload_words(("edge", (3, 4))) == 3

    def test_set(self):
        assert payload_words(frozenset({1, 2, 3})) == 3


class TestMessage:
    def test_of_estimates_words(self):
        m = Message.of(0, 1, (5, 6))
        assert m.words == 2

    def test_zero_words_rejected(self):
        with pytest.raises(ValueError):
            Message(0, 1, "x", words=0)


class TestLedger:
    def test_total_rounds(self):
        ledger = RoundLedger()
        ledger.charge("a", 3)
        ledger.charge("b", 4.5)
        assert ledger.total_rounds == 7.5

    def test_negative_rounds_rejected(self):
        ledger = RoundLedger()
        with pytest.raises(ValueError):
            ledger.charge("bad", -1)

    def test_grouped_by_prefix(self):
        ledger = RoundLedger()
        ledger.charge("list/decomp", 1)
        ledger.charge("list/gather", 2)
        ledger.charge("final", 3)
        assert ledger.grouped() == {"list": 3.0, "final": 3.0}

    def test_rounds_by_prefix(self):
        ledger = RoundLedger()
        ledger.charge("x/a", 1)
        ledger.charge("x/b", 2)
        ledger.charge("y/a", 4)
        assert ledger.rounds_by_prefix("x/") == 3.0

    def test_extend_with_prefix(self):
        inner = RoundLedger()
        inner.charge("step", 2, load=7)
        outer = RoundLedger()
        outer.extend(inner, prefix="iter0/")
        assert outer.phases()[0].name == "iter0/step"
        assert outer.phases()[0].stats["load"] == 7

    def test_max_stat(self):
        ledger = RoundLedger()
        ledger.charge("a", 1, load=5)
        ledger.charge("b", 1, load=9)
        ledger.charge("c", 1)
        assert ledger.max_stat("load") == 9
        assert ledger.max_stat("absent") is None

    def test_summary_contains_phases(self):
        ledger = RoundLedger()
        ledger.charge("phase_x", 2, k=1)
        text = ledger.summary()
        assert "phase_x" in text and "total rounds" in text

    def test_len_and_iter(self):
        ledger = RoundLedger()
        ledger.charge("a", 1)
        assert len(ledger) == 1
        assert [p.name for p in ledger] == ["a"]


class TestBroadcastRounds:
    def test_empty(self):
        assert broadcast_rounds({}) == 0

    def test_max_edge_load(self):
        assert broadcast_rounds({(0, 1): 3, (1, 2): 7}) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            broadcast_rounds({(0, 1): -2})


class TestCostModel:
    def test_default_routing_factor_is_log(self):
        model = CostModel()
        assert model.routing_factor(1024) == pytest.approx(10.0)

    def test_constant_slack(self):
        assert CostModel(routing_slack=1).routing_factor(10**6) == 1.0

    def test_callable_slack(self):
        model = CostModel(routing_slack=lambda n: 2 * math.log2(n))
        assert model.routing_factor(16) == 8.0


class TestClusterRouter:
    def test_delivers_payloads(self):
        router = ClusterRouter([0, 1, 2], capacity=4, n=16)
        ledger = RoundLedger()
        out = router.route({0: [(1, "a"), (2, "b")]}, ledger, "t")
        assert out[1] == ["a"] and out[2] == ["b"]

    def test_zero_load_zero_rounds(self):
        router = ClusterRouter([0, 1], capacity=2, n=16)
        assert router.rounds_for_load(0, 0) == 0.0

    def test_rounds_scale_with_load(self):
        model = CostModel(routing_slack=1)
        router = ClusterRouter([0, 1], capacity=10, n=16, cost_model=model)
        light = router.rounds_for_load(10, 0)
        heavy = router.rounds_for_load(100, 0)
        assert heavy == 10 * light

    def test_receive_load_counts(self):
        model = CostModel(routing_slack=1)
        router = ClusterRouter([0, 1], capacity=5, n=16, cost_model=model)
        assert router.rounds_for_load(1, 50) == 10.0

    def test_non_member_source_rejected(self):
        router = ClusterRouter([0, 1], capacity=2, n=16)
        with pytest.raises(ValueError, match="not a member"):
            router.route({5: [(0, "x")]}, RoundLedger(), "t")

    def test_non_member_destination_rejected(self):
        router = ClusterRouter([0, 1], capacity=2, n=16)
        with pytest.raises(ValueError, match="not in the cluster"):
            router.route({0: [(5, "x")]}, RoundLedger(), "t")

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterRouter([], capacity=1, n=4)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ClusterRouter([0], capacity=0, n=4)

    def test_ledger_records_stats(self):
        router = ClusterRouter([0, 1], capacity=3, n=16)
        ledger = RoundLedger()
        router.route({0: [(1, "x")] * 6}, ledger, "phase", words_per_message=2)
        phase = ledger.phases()[0]
        assert phase.stats["max_send_words"] == 12
        assert phase.stats["max_recv_words"] == 12

    def test_charge_for_word_load(self):
        router = ClusterRouter([0, 1], capacity=4, n=16, cost_model=CostModel(routing_slack=1))
        ledger = RoundLedger()
        rounds = router.charge_for_word_load(ledger, "x", 9)
        assert rounds == 3.0  # ceil(9/4)


class TestCongestedClique:
    def test_route_and_charge(self):
        cc = CongestedClique(4)
        ledger = RoundLedger()
        out = cc.route({0: [(3, "m")]}, ledger, "t")
        assert out[3] == ["m"]
        assert ledger.total_rounds > 0

    def test_zero_load(self):
        cc = CongestedClique(4)
        assert cc.rounds_for_load(0, 0) == 0.0

    def test_lenzen_scaling(self):
        cc = CongestedClique(10)
        assert cc.rounds_for_load(10, 10) == pytest.approx(2.0)  # slack 2 · ⌈10/10⌉
        assert cc.rounds_for_load(100, 100) == pytest.approx(20.0)

    def test_broadcast_rounds(self):
        cc = CongestedClique(8)
        assert cc.broadcast_rounds(5) == 5.0
        assert cc.broadcast_rounds(0) == 0.0

    def test_out_of_range_node(self):
        cc = CongestedClique(4)
        with pytest.raises(ValueError):
            cc.route({0: [(9, "x")]}, RoundLedger(), "t")

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CongestedClique(0)
