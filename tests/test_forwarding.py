"""Tests for faithful cluster routing and its cross-validation against the
Theorem 2.4 analytic charge."""

import math

import numpy as np
import pytest

from repro.congest.forwarding import bfs_next_hops, run_cluster_routing
from repro.congest.ledger import RoundLedger
from repro.congest.routing import ClusterRouter, CostModel
from repro.graphs.generators import complete_graph, cycle_graph, erdos_renyi, random_regular
from repro.graphs.graph import Graph


class TestNextHops:
    def test_clique_next_hop_is_destination(self):
        g = complete_graph(5)
        tables = bfs_next_hops(g, set(range(5)))
        for src in range(5):
            for dst in range(5):
                if src != dst:
                    assert tables[src][dst] == dst

    def test_cycle_routes_shortest(self):
        g = cycle_graph(6)
        tables = bfs_next_hops(g, set(range(6)))
        # From 0 toward 2 the next hop is 1 (distance 2 vs 4).
        assert tables[0][2] == 1

    def test_path_reaches_everywhere(self):
        from repro.graphs.generators import path_graph

        g = path_graph(7)
        tables = bfs_next_hops(g, set(range(7)))
        assert tables[0][6] == 1
        assert tables[6][0] == 5


class TestRouting:
    def test_all_payloads_arrive(self):
        g = erdos_renyi(20, 0.4, seed=1)
        members = max(g.connected_components(), key=len)
        rng = np.random.default_rng(0)
        member_list = sorted(members)
        demands = {
            v: [(int(rng.choice(member_list)), f"m{v}-{i}") for i in range(3)]
            for v in member_list
        }
        delivered, rounds = run_cluster_routing(g, members, demands)
        sent = sum(len(batch) for batch in demands.values())
        arrived = sum(len(msgs) for msgs in delivered.values())
        assert arrived == sent
        assert rounds >= 1

    def test_self_delivery_is_free(self):
        g = complete_graph(4)
        delivered, rounds = run_cluster_routing(
            g, set(range(4)), {0: [(0, "self")]}
        )
        assert delivered[0] == ["self"]

    def test_non_member_rejected(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            run_cluster_routing(g, {0, 1, 2}, {0: [(3, "x")]})

    def test_higher_bandwidth_faster(self):
        g = cycle_graph(10)
        demands = {0: [(5, i) for i in range(12)]}
        _d1, slow = run_cluster_routing(g, set(range(10)), demands, bandwidth=1)
        _d2, fast = run_cluster_routing(g, set(range(10)), demands, bandwidth=4)
        assert fast < slow


class TestTheorem24CrossValidation:
    """On an expander cluster, faithful routing must land within a small
    polylog factor of the ClusterRouter charge."""

    def test_expander_cluster_near_charge(self):
        k, d = 32, 8
        g = random_regular(k, d, seed=3)
        members = set(range(k))
        rng = np.random.default_rng(1)
        # Per-node demand = min degree (the Theorem 2.4 regime L = n^δ).
        min_deg = min(g.degree(v) for v in members)
        demands = {
            v: [(int(rng.integers(0, k)), ("e", v, i)) for i in range(min_deg)]
            for v in members
        }
        delivered, faithful_rounds = run_cluster_routing(g, members, demands)
        assert sum(len(m) for m in delivered.values()) == k * min_deg

        router = ClusterRouter(
            sorted(members), capacity=min_deg, n=k, cost_model=CostModel(routing_slack=1)
        )
        send = {v: 2 * len(demands[v]) for v in members}
        recv = {v: 0 for v in members}
        for batch in demands.values():
            for dst, _ in batch:
                recv[dst] += 2
        charge = router.rounds_for_load(max(send.values()), max(recv.values()))
        # Faithful ≥ the pure charge (it is a real execution) and within a
        # generous polylog envelope of it.
        assert faithful_rounds >= charge
        budget = charge * (math.log2(k) ** 2) * 4
        assert faithful_rounds <= budget, (faithful_rounds, charge, budget)

    def test_bottleneck_cluster_is_slower_than_expander(self):
        """The min-degree capacity model is only honest on expanders —
        a cycle (conductance Θ(1/k)) must route far slower than a random
        regular graph at equal degree-normalized demand."""
        k = 24
        rng = np.random.default_rng(2)
        demands = {v: [(int(rng.integers(0, k)), i) for i in range(2)] for v in range(k)}
        cyc = cycle_graph(k)
        reg = random_regular(k, 6, seed=4)
        _d, cycle_rounds = run_cluster_routing(cyc, set(range(k)), demands)
        _d, expander_rounds = run_cluster_routing(reg, set(range(k)), demands)
        assert cycle_rounds > expander_rounds
