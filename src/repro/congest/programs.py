"""Faithful node programs for the protocol building blocks.

These are message-level implementations (on the
:class:`~repro.congest.network.Network` engine) of the primitive protocol
steps the listing algorithm charges analytically:

- :class:`ClusterAnnounce` — §2.4.1 step 1: cluster members announce
  their cluster ID; outside nodes count g_{v,C} and classify themselves
  heavy/light (2 rounds).
- :class:`OutEdgeBroadcast` — the final stage of Theorem 1.1 and the
  orientation-broadcast baseline: every node ships its oriented out-edges
  to all neighbors (2·max-out-degree rounds).
- :class:`TokenFlood` — connectivity/diameter probe used in tests.

They serve two purposes: executable documentation of what the charged
primitives abstract, and *cross-validation* — the test suite runs both
the faithful program and the analytic charge on the same graph and
asserts the round counts agree (see tests/test_cost_model_validation.py).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.graphs.graph import Graph
from repro.graphs.orientation import Orientation


class ClusterAnnounce(NodeProgram):
    """§2.4.1 classification protocol, message-faithful.

    Round 1: members broadcast ``("cluster", id)``.  Round 2: outside
    nodes that heard announcements tally g_{v,C} per cluster and record
    their classification; everyone halts.
    """

    def __init__(
        self, cluster_of: Dict[int, int], heavy_threshold: int
    ) -> None:
        self._cluster_of = cluster_of
        self._threshold = heavy_threshold
        self.cluster_degree: Dict[int, int] = {}
        self.is_heavy: Dict[int, bool] = {}

    def on_start(self, ctx: Context) -> None:
        cluster = self._cluster_of.get(ctx.node)
        if cluster is not None:
            ctx.broadcast(("cluster", cluster))
        if self._cluster_of.get(ctx.node) is not None:
            ctx.halt()

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        for message in inbox:
            tag, cluster = message.payload
            if tag == "cluster" and self._cluster_of.get(ctx.node) != cluster:
                self.cluster_degree[cluster] = self.cluster_degree.get(cluster, 0) + 1
        for cluster, degree in self.cluster_degree.items():
            self.is_heavy[cluster] = degree > self._threshold
        ctx.halt()


class OutEdgeBroadcast(NodeProgram):
    """Every node sends its oriented out-edges to every neighbor.

    After termination, ``known_edges`` at each node contains its incident
    edges plus all out-edges of its neighbors — enough to list every
    clique through the node (each clique edge leaves one of its two
    endpoints, both of which are the node's neighbors).
    """

    def __init__(self, orientation: Orientation) -> None:
        self._orientation = orientation
        self.known_edges: Set[Tuple[int, int]] = set()
        self._to_send: List[Tuple[int, int]] = []
        self._expected: Dict[int, int] = {}
        self._received: Dict[int, int] = {}

    def on_start(self, ctx: Context) -> None:
        out = self._orientation.out_neighbors(ctx.node).tolist()
        self._to_send = [(ctx.node, w) for w in out]
        for v in ctx.neighbors:
            self.known_edges.add((min(ctx.node, v), max(ctx.node, v)))
        # Announce how many edge messages each neighbor should expect.
        ctx.broadcast(("count", len(self._to_send)))
        for edge in self._to_send:
            ctx.broadcast(("edge", edge), words=2)

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        for message in inbox:
            tag, payload = message.payload
            if tag == "count":
                self._expected[message.src] = payload
            else:
                u, w = payload
                self.known_edges.add((min(u, w), max(u, w)))
                self._received[message.src] = self._received.get(message.src, 0) + 1
        done = all(
            self._received.get(v, 0) >= self._expected.get(v, 0)
            for v in ctx.neighbors
            if v in self._expected
        ) and len(self._expected) == len(ctx.neighbors)
        if done:
            ctx.halt()


class TokenFlood(NodeProgram):
    """Flood a token from a source; ``distance`` ≈ arrival round."""

    def __init__(self, source: int) -> None:
        self._source = source
        self.heard = False
        self.arrival_round: Optional[int] = None

    def on_start(self, ctx: Context) -> None:
        if ctx.node == self._source:
            self.heard = True
            self.arrival_round = 0
            ctx.broadcast("token")
            ctx.halt()

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        if inbox and not self.heard:
            self.heard = True
            self.arrival_round = ctx.round
            ctx.broadcast("token")
        ctx.halt()


def run_out_edge_broadcast(
    graph: Graph, orientation: Orientation, bandwidth: int = 1
) -> Tuple[Dict[int, Set[Tuple[int, int]]], int]:
    """Execute :class:`OutEdgeBroadcast` faithfully; return knowledge + rounds."""
    programs = {v: OutEdgeBroadcast(orientation) for v in graph.nodes()}
    network = Network(graph, programs, bandwidth=bandwidth)
    rounds = network.run()
    knowledge = {v: programs[v].known_edges for v in graph.nodes()}
    return knowledge, rounds


def run_cluster_announce(
    graph: Graph, cluster_of: Dict[int, int], heavy_threshold: int
) -> Tuple[Dict[int, Dict[int, int]], int]:
    """Execute :class:`ClusterAnnounce`; return per-node g_{v,C} maps + rounds."""
    programs = {
        v: ClusterAnnounce(cluster_of, heavy_threshold) for v in graph.nodes()
    }
    network = Network(graph, programs)
    rounds = network.run()
    degrees = {v: programs[v].cluster_degree for v in graph.nodes()}
    return degrees, rounds
