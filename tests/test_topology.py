"""Unit tests for the overlay-topology plane (repro.congest.topology).

Every compiled overlay is checked against an *independent* per-message
reference router (python dicts, one message at a time): route lengths,
per-link bottleneck load, total word·hops, links used.  On top of that:
spec-grammar round-trips, the makespan formula, the spanner's stretch
and sparsification guarantees, the broadcast accounting (including the
chunked path), and the CostModel construction-time validation.
"""

import math

import numpy as np
import pytest

from repro.congest.routing import ClusterRouter, CostModel
from repro.congest.topology import (
    DEFAULT_TOPOLOGY,
    TOPOLOGY_KINDS,
    LinkCharge,
    Topology,
    makespan_charge,
    makespan_for_rounds,
    parse_topology,
    pattern_pairs,
)

OVERLAY_KINDS = tuple(k for k in TOPOLOGY_KINDS if k != "clique")


# ----------------------------------------------------------------------
# Reference router: one message at a time, python all the way.
# ----------------------------------------------------------------------
def _ref_route(compiled, s, d):
    """The overlay route s → … → d as a node list (independent of the
    vectorized difference-array accumulators under test)."""
    kind = compiled.topology.kind
    n = compiled.n
    if s == d:
        return [s]
    if kind == "star":
        route = [s] + ([] if 0 in (s, d) else [0]) + [d]
        return route
    if kind == "chain":
        step = 1 if d > s else -1
        return list(range(s, d + step, step))
    if kind == "ring":
        cw = (d - s) % n
        step = 1 if cw <= n - cw else -1
        route, cur = [s], s
        while cur != d:
            cur = (cur + step) % n
            route.append(cur)
        return route
    if kind == "grid":
        w = compiled.width
        r1, c1, r2, c2 = s // w, s % w, d // w, d % w
        turn = (r1, c2) if r1 * w + c2 < n else (r2, c1)
        route = [(r1, c1)]
        while route[-1] != turn:
            r, c = route[-1]
            if c != turn[1] and r == turn[0]:
                c += 1 if turn[1] > c else -1
            else:
                r += 1 if turn[0] > r else -1
            route.append((r, c))
        while route[-1] != (r2, c2):
            r, c = route[-1]
            if c != c2:
                c += 1 if c2 > c else -1
            else:
                r += 1 if r2 > r else -1
            route.append((r, c))
        return [r * w + c for r, c in route]
    if kind == "spanner":
        # Climb both endpoints level by level until the hubs meet, then
        # cross; mirrors the route contract, not the implementation.
        route = [s]
        cur_s, cur_d, down_tail = s, d, []
        met = False
        for level in range(1, compiled.k):
            if met:
                break
            nxt_s, nxt_d = int(compiled.hubs[level][s]), int(compiled.hubs[level][d])
            if cur_s != nxt_s:
                route.append(nxt_s)
            if cur_d != nxt_d:
                down_tail.append(cur_d)
            cur_s, cur_d = nxt_s, nxt_d
            met = cur_s == cur_d
        if not met:
            route.append(cur_d)
        return route + list(reversed(down_tail))
    raise AssertionError(kind)


def _ref_charge(compiled, src, dst, words):
    """LinkCharge aggregates computed by the per-message reference."""
    loads = {}
    max_hops = 0
    for s, d in zip(src.tolist(), dst.tolist()):
        route = _ref_route(compiled, int(s), int(d))
        max_hops = max(max_hops, len(route) - 1)
        for u, v in zip(route, route[1:]):
            loads[(u, v)] = loads.get((u, v), 0) + words
    max_link = max(loads.values()) if loads else 0
    return {
        "max_link_words": max_link,
        "total_link_words": sum(loads.values()),
        "links_used": len(loads),
        "max_hops": max_hops if loads else 0,
    }


def _random_pattern(rng, n, size):
    src = rng.integers(0, n, size=size, dtype=np.int64)
    dst = rng.integers(0, n, size=size, dtype=np.int64)
    return src, dst


# ----------------------------------------------------------------------
# Spec / validation
# ----------------------------------------------------------------------
class TestTopologySpec:
    def test_default_is_clique(self):
        assert DEFAULT_TOPOLOGY.is_clique
        assert DEFAULT_TOPOLOGY == Topology()
        assert DEFAULT_TOPOLOGY.spec() == "clique"

    @pytest.mark.parametrize(
        "spec",
        [
            "clique",
            "star",
            "ring",
            "chain",
            "grid",
            "grid:8",
            "spanner:3",
            "star@bw=0.5",
            "ring@lat=2",
            "grid:8@bw=0.5,lat=2",
            "spanner:4@bw=4,lat=0.5",
        ],
    )
    def test_spec_round_trip(self, spec):
        assert parse_topology(spec).spec() == spec

    def test_spanner_default_k_omitted_from_spec(self):
        assert parse_topology("spanner:2").spec() == "spanner"
        assert parse_topology("spanner").spanner_k == 2

    def test_parse_aliases_and_defaults(self):
        t = parse_topology("star@bandwidth=2,latency=1")
        assert (t.bandwidth, t.latency) == (2.0, 1.0)
        # Explicit @ keys beat the argument defaults; absent keys fall
        # back to them.
        t = parse_topology("star@bw=2", bandwidth=9.0, latency=3.0)
        assert (t.bandwidth, t.latency) == (2.0, 3.0)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "  ",
            "torus",
            "grid:x",
            "star:3",
            "grid:8@bw",
            "grid:8@speed=1",
            "ring@bw=fast",
        ],
    )
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_topology(bad)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "torus"},
            {"bandwidth": 0},
            {"bandwidth": -1.0},
            {"latency": -0.5},
            {"kind": "grid", "grid_width": 0},
            {"kind": "grid", "grid_width": 2.5},
            {"kind": "spanner", "spanner_k": 1},
            {"kind": "spanner", "spanner_k": "2"},
        ],
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises((TypeError, ValueError)):
            Topology(**kwargs)

    def test_with_updates_and_freezes(self):
        t = Topology(kind="ring").with_(latency=2.0)
        assert (t.kind, t.latency) == ("ring", 2.0)
        with pytest.raises(AttributeError):
            t.latency = 0.0

    def test_clique_has_no_compiled_overlay(self):
        with pytest.raises(ValueError, match="no compiled overlay"):
            Topology().compile(8)


# ----------------------------------------------------------------------
# Routes and loads vs the reference router
# ----------------------------------------------------------------------
class TestOverlayAccounting:
    @pytest.mark.parametrize("kind", OVERLAY_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 5, 12, 30])
    def test_pattern_charge_matches_reference(self, kind, n):
        compiled = Topology(kind=kind).compile(n)
        rng = np.random.default_rng(n * 31 + len(kind))
        src, dst = _random_pattern(rng, n, 200)
        charge = compiled.pattern_charge(src, dst, words_per_message=3)
        ref = _ref_charge(compiled, src, dst, 3)
        assert charge.max_link_words == ref["max_link_words"]
        assert charge.total_link_words == ref["total_link_words"]
        assert charge.links_used == ref["links_used"]
        assert charge.max_hops == ref["max_hops"]
        assert charge.pattern_pairs == pattern_pairs(src, dst, n)

    @pytest.mark.parametrize("kind", OVERLAY_KINDS)
    @pytest.mark.parametrize("n", [2, 7, 13, 24])
    def test_hops_match_reference_routes(self, kind, n):
        compiled = Topology(kind=kind).compile(n)
        ids = np.arange(n, dtype=np.int64)
        src = np.repeat(ids, n)
        dst = np.tile(ids, n)
        hops = compiled.hops(src, dst)
        for s, d, h in zip(src.tolist(), dst.tolist(), hops.tolist()):
            route = _ref_route(compiled, s, d)
            assert h == len(route) - 1, (kind, n, s, d)
            # Every route actually exists on the overlay's link set.
            assert len(set(route)) == len(route)

    def test_grid_ragged_edge_routes(self):
        # n=5, width=3: node ids 3,4 sit on a ragged second row.  The
        # row-first turn cell for 2→4 is (row 0, col 1) = 1 (valid);
        # for 4→2 it is (row 1, col 2) = 5 ≥ n, so the route must fall
        # back to column-first — both directions still take 2 hops.
        compiled = parse_topology("grid:3").compile(5)
        hops = compiled.hops(
            np.array([2, 4], dtype=np.int64), np.array([4, 2], dtype=np.int64)
        )
        assert hops.tolist() == [2, 2]
        charge = compiled.pattern_charge(
            np.array([4], dtype=np.int64), np.array([2], dtype=np.int64)
        )
        assert charge.max_hops == 2
        assert charge.total_link_words == 2

    def test_ring_tie_goes_clockwise(self):
        compiled = Topology(kind="ring").compile(4)
        # 0 → 2 is distance 2 either way; clockwise means links
        # 0→1 and 1→2 carry the words.
        charge = compiled.pattern_charge(
            np.array([0], dtype=np.int64), np.array([2], dtype=np.int64), 5
        )
        assert charge.max_link_words == 5
        assert charge.total_link_words == 10
        assert charge.links_used == 2
        state = compiled.new_state()
        compiled.accumulate(
            state, np.array([0], dtype=np.int64), np.array([2], dtype=np.int64), 5
        )
        loads = compiled.loads(state)
        # cw links 0→1, 1→2 loaded; everything else empty.
        assert loads[:4].tolist() == [5, 5, 0, 0]
        assert loads[4:].tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("kind", OVERLAY_KINDS)
    def test_self_messages_and_empty_patterns_cost_nothing(self, kind):
        compiled = Topology(kind=kind).compile(9)
        empty = compiled.pattern_charge(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        loopback = compiled.pattern_charge(
            np.arange(9, dtype=np.int64), np.arange(9, dtype=np.int64)
        )
        for charge in (empty, loopback):
            assert charge.makespan == 0.0
            assert charge.max_link_words == 0
            assert charge.links_used == 0

    @pytest.mark.parametrize("kind", OVERLAY_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_broadcast_equals_materialized_all_pairs(self, kind, n):
        compiled = Topology(kind=kind).compile(n)
        ids = np.arange(n, dtype=np.int64)
        src = np.repeat(ids, n)
        dst = np.tile(ids, n)
        off = src != dst
        assert compiled.broadcast_charge(2) == compiled.pattern_charge(
            src[off], dst[off], 2
        )

    @pytest.mark.parametrize("kind", ["star", "ring"])
    def test_broadcast_chunked_path_is_exact(self, kind):
        # n > 256 crosses the _BROADCAST_CHUNK boundary, so the additive
        # chunk accumulation actually runs multi-chunk.
        n = 300
        compiled = Topology(kind=kind).compile(n)
        ids = np.arange(n, dtype=np.int64)
        src = np.repeat(ids, n)
        dst = np.tile(ids, n)
        off = src != dst
        assert compiled.broadcast_charge(1) == compiled.pattern_charge(
            src[off], dst[off], 1
        )


# ----------------------------------------------------------------------
# Makespan formulas
# ----------------------------------------------------------------------
class TestMakespan:
    def test_formula_bandwidth_and_latency(self):
        # Chain 0→3 with 5 words: three links each carry 5 words, 3 hops.
        compiled = parse_topology("chain@bw=2,lat=1.5").compile(4)
        charge = compiled.pattern_charge(
            np.array([0], dtype=np.int64), np.array([3], dtype=np.int64), 5
        )
        assert charge.max_link_words == 5
        assert charge.max_hops == 3
        assert charge.makespan == math.ceil(5 / 2.0) + 1.5 * 3

    def test_makespan_for_rounds(self):
        assert makespan_for_rounds(None, 7.5) == 7.5
        assert makespan_for_rounds(Topology(), 7.5) == 7.5
        assert makespan_for_rounds(Topology(bandwidth=0.5, latency=2.0), 8.0) == 18.0
        assert makespan_for_rounds(Topology(bandwidth=0.5, latency=2.0), 0.0) == 0.0
        assert makespan_for_rounds(None, 0) == 0.0

    def test_makespan_charge_clique_is_rounds_with_no_stats(self):
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([1, 2], dtype=np.int64)
        for topo in (None, Topology()):
            makespan, stats = makespan_charge(topo, 8, src, dst, 1, 4.0)
            assert makespan == 4.0
            assert stats == {}

    def test_makespan_charge_overlay_reports_stats(self):
        src = np.array([1, 2, 3], dtype=np.int64)
        dst = np.array([2, 3, 1], dtype=np.int64)
        makespan, stats = makespan_charge(Topology(kind="star"), 8, src, dst, 1, 4.0)
        assert makespan > 0
        assert set(stats) == {
            "max_link_words",
            "link_words",
            "links_used",
            "overlay_hops",
            "pattern_pairs",
        }
        assert stats["pattern_pairs"] == 3.0

    def test_link_charge_stats_are_floats(self):
        charge = LinkCharge(3.0, 3, 6, 2, 2, 4)
        assert all(isinstance(v, float) for v in charge.stats().values())


# ----------------------------------------------------------------------
# Spanner guarantees
# ----------------------------------------------------------------------
class TestSpanner:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 9, 30, 61])
    def test_stretch_bound(self, k, n):
        compiled = Topology(kind="spanner", spanner_k=k).compile(n)
        ids = np.arange(n, dtype=np.int64)
        src = np.repeat(ids, n)
        dst = np.tile(ids, n)
        hops = compiled.hops(src, dst)
        assert int(hops.max(initial=0)) <= 2 * k - 1
        assert (hops[src == dst] == 0).all()
        assert (hops[src != dst] >= 1).all()

    @pytest.mark.parametrize("k", [2, 3])
    def test_link_budget_is_subquadratic(self, k):
        n = 400
        compiled = Topology(kind="spanner", spanner_k=k).compile(n)
        links = compiled.num_links()
        budget = 4 * (k * n + math.ceil(n ** (1.0 / k)) ** 2)
        assert 0 < links <= budget
        assert links < n * (n - 1) / 10

    def test_dense_pattern_bandwidth_reduction(self):
        # The sparsification claim the benchmark gates on: an all-pairs
        # pattern lights up n·(n−1) clique links but only the provisioned
        # hub links of the spanner.
        n = 200
        compiled = Topology(kind="spanner").compile(n)
        charge = compiled.broadcast_charge(1)
        assert charge.pattern_pairs == n * (n - 1)
        assert charge.links_used <= compiled.num_links()
        assert charge.pattern_pairs / charge.links_used >= 20.0


# ----------------------------------------------------------------------
# CostModel construction-time validation (used to be a latent TypeError
# at first routing_factor() call)
# ----------------------------------------------------------------------
class TestCostModelValidation:
    def test_accepts_none_number_callable(self):
        assert CostModel().routing_factor(256) == 8.0
        assert CostModel(routing_slack=1.5).routing_factor(999) == 1.5
        assert CostModel(routing_slack=lambda n: 3.0).routing_factor(7) == 3.0

    @pytest.mark.parametrize("bad", ["polylog", True, False, [2.0]])
    def test_rejects_wrong_types(self, bad):
        with pytest.raises(TypeError, match="routing_slack"):
            CostModel(routing_slack=bad)

    @pytest.mark.parametrize("bad", [0, -1.0, float("inf"), float("nan")])
    def test_rejects_non_positive_or_non_finite(self, bad):
        with pytest.raises(ValueError, match="routing_slack"):
            CostModel(routing_slack=bad)

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -2.0, float("inf")])
    def test_rejects_bad_callable_value(self, bad):
        # nan used to charge 0 rounds (max(0.0, nan) is 0.0), inf an
        # infinite total, and -2 only failed later as negative rounds.
        model = CostModel(routing_slack=lambda n: bad)
        with pytest.raises(ValueError, match=rf"routing_slack returned {bad!r} for n=40"):
            model.routing_factor(40)
        # The router computes its factor once, so it fails when built.
        with pytest.raises(ValueError, match="routing_slack"):
            ClusterRouter([0, 1], capacity=1, n=40, cost_model=model)

    @pytest.mark.parametrize("bad", [0, -2.0, float("nan"), True, "2"])
    def test_lenzen_slack_validated(self, bad):
        with pytest.raises(ValueError, match="lenzen_slack"):
            CostModel(lenzen_slack=bad)
