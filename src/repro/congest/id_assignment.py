"""Faithful intra-cluster ID assignment (Lemma 2.5).

The listing pipeline charges Lemma 2.5 analytically (O(polylog n) rounds
to give every cluster fresh IDs 1..k).  This module implements the
protocol at message level on the faithful engine, as executable
documentation and for cross-validation:

1. the minimum-ID member becomes the root (here: known upfront, as the
   cluster ID protocol of Theorem 2.3 provides a cluster leader);
2. a BFS tree is grown from the root (O(cluster diameter) rounds —
   polylog for expander clusters, since diameter ≤ mixing time);
3. a convergecast computes subtree sizes;
4. a downcast assigns contiguous ID ranges per subtree, giving each
   member a unique new ID in [1, k].

Total: O(diameter) rounds, each message one O(log n)-bit word.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.graphs.graph import Graph


class IdAssignment(NodeProgram):
    """BFS-tree based new-ID assignment within one cluster.

    Nodes outside the cluster run the default halting program; cluster
    members run this.  After termination, ``new_id`` holds the member's
    ID in [1, k].
    """

    def __init__(self, root: int, members: Set[int]) -> None:
        self._root = root
        self._members = members
        self.parent: Optional[int] = None
        self.children: Set[int] = set()
        self.depth: Optional[int] = None
        self.subtree_size: Optional[int] = None
        self.new_id: Optional[int] = None
        self._pending_children: Set[int] = set()
        self._child_sizes: Dict[int, int] = {}
        self._claimed: Set[int] = set()
        self._range_assigned = False

    # -- helpers -------------------------------------------------------
    def _cluster_neighbors(self, ctx: Context) -> Set[int]:
        return {v for v in ctx.neighbors if v in self._members}

    def on_start(self, ctx: Context) -> None:
        if ctx.node == self._root:
            self.depth = 0
            for v in self._cluster_neighbors(ctx):
                ctx.send(v, ("bfs", 0))
                self._pending_children.add(v)
            if not self._pending_children:
                self.subtree_size = 1
                self.new_id = 1
                ctx.halt()

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        for message in inbox:
            tag = message.payload[0]
            if tag == "bfs":
                self._on_bfs(ctx, message)
            elif tag == "accept":
                self.children.add(message.src)
            elif tag == "reject":
                self._pending_children.discard(message.src)
            elif tag == "size":
                self._child_sizes[message.src] = message.payload[1]
            elif tag == "range":
                self._on_range(ctx, message.payload[1], message.payload[2])
        self._maybe_report_size(ctx)

    def _on_bfs(self, ctx: Context, message: Message) -> None:
        depth = message.payload[1]
        if self.depth is None and ctx.node != self._root:
            self.depth = depth + 1
            self.parent = message.src
            ctx.send(message.src, ("accept",))
            for v in self._cluster_neighbors(ctx):
                if v != message.src:
                    ctx.send(v, ("bfs", self.depth))
                    self._pending_children.add(v)
        elif message.src != self.parent:
            ctx.send(message.src, ("reject",))

    def _maybe_report_size(self, ctx: Context) -> None:
        if self.subtree_size is not None or self.depth is None:
            return
        # All pending children have either accepted (and reported a size)
        # or rejected.
        unresolved = {
            v
            for v in self._pending_children
            if v not in self._child_sizes and v not in self.children
        }
        waiting_sizes = {v for v in self.children if v not in self._child_sizes}
        if unresolved or waiting_sizes:
            return
        self.subtree_size = 1 + sum(self._child_sizes.values())
        if ctx.node == self._root:
            self._assign_ranges(ctx, 1)
        else:
            assert self.parent is not None
            ctx.send(self.parent, ("size", self.subtree_size))

    def _on_range(self, ctx: Context, start: int, end: int) -> None:
        # Receive our subtree's contiguous ID range [start, end].
        self._assign_ranges(ctx, start)

    def _assign_ranges(self, ctx: Context, start: int) -> None:
        if self._range_assigned:
            return
        self._range_assigned = True
        self.new_id = start
        cursor = start + 1
        for child in sorted(self.children):
            size = self._child_sizes[child]
            ctx.send(child, ("range", cursor, cursor + size - 1))
            cursor += size
        ctx.halt()


def run_id_assignment(
    graph: Graph, members: Set[int]
) -> Tuple[Dict[int, int], int]:
    """Run the Lemma 2.5 protocol for one cluster; return (new_ids, rounds).

    ``members`` must induce a connected subgraph of ``graph`` (clusters
    always do, being connected components of Em).
    """
    if not members:
        raise ValueError("cluster must be non-empty")
    root = min(members)
    programs = {v: IdAssignment(root, members) for v in members}
    network = Network(graph.subgraph_nodes(members), programs)
    rounds = network.run()
    new_ids: Dict[int, int] = {}
    for v in members:
        new_id = programs[v].new_id
        if new_id is None:
            raise RuntimeError(f"member {v} did not receive a new ID (disconnected?)")
        new_ids[v] = new_id
    return new_ids, rounds
