"""Update batches that name a node outside ``[0, n)`` are rejected whole.

``StreamEngine.apply`` checks a batch's ids before it changes any state,
so a rejected batch leaves the engine — and the epoch a
``CliqueService`` last published — exactly as they were, and the next
valid batch folds as if the bad one had never come.
"""

from __future__ import annotations

import itertools

import pytest

from repro.graphs.cliques import clique_table
from repro.graphs.graph import Graph
from repro.serve import CliqueService
from repro.stream import StreamEngine, UpdateBatch

N = 6

#: Each bad batch carries a valid update too: the batch is rejected whole.
BAD_BATCHES = [
    pytest.param(UpdateBatch.inserts([(4, 5), (-1, 0)]), -1, id="insert-negative"),
    pytest.param(UpdateBatch.inserts([(4, 5), (0, N)]), N, id="insert-past-n"),
    pytest.param(UpdateBatch.deletes([(0, 1), (0, N)]), N, id="delete-past-n"),
]

#: Closes the triangle (3, 4, 5): 10 → 12 edges, 10 → 11 triangles.
VALID = UpdateBatch.inserts([(4, 5), (3, 5)])


def k5_and_an_isolated_node() -> Graph:
    """K5 on nodes 0..4 plus node 5: 10 edges, 10 triangles."""
    g = Graph(N)
    for u, v in itertools.combinations(range(5), 2):
        g.add_edge(u, v)
    return g


def engine_state(engine: StreamEngine):
    bits = engine.overlay.adjacency_bits()
    return (
        engine.num_edges,
        engine.epoch,
        engine.overlay.delta_size,
        engine.counts(),
        engine.clique_result(3).rows.tobytes(),
        bits.tobytes(),
        dict(engine.stats),
    )


def epoch_state(service: CliqueService):
    with service.read() as epoch:
        return (
            epoch.epoch,
            epoch.num_edges,
            epoch.count(2),
            epoch.count(3),
            epoch.table(3).rows.tobytes(),
        )


class TestStreamEngine:
    @pytest.mark.parametrize("batch, node", BAD_BATCHES)
    def test_rejected_before_any_state_change(self, batch, node):
        engine = StreamEngine(k5_and_an_isolated_node())
        engine.track(3, listing=True)
        before = engine_state(engine)
        with pytest.raises(ValueError, match=f"node {node} out of range for n={N}"):
            engine.apply(batch)
        assert engine_state(engine) == before
        engine.apply(VALID)
        assert (engine.num_edges, engine.epoch, engine.count(3)) == (12, 1, 11)
        assert engine.clique_result(3) == clique_table(engine.graph(), 3)

    def test_ids_at_both_ends_of_the_range_accepted(self):
        engine = StreamEngine(k5_and_an_isolated_node())
        engine.track(3)
        engine.apply(UpdateBatch.inserts([(0, N - 1)]))
        assert engine.num_edges == 11 and engine.has_edge(0, N - 1)


class TestCliqueService:
    @pytest.mark.parametrize("batch, node", BAD_BATCHES)
    def test_ingest_publishes_nothing(self, batch, node):
        service = CliqueService(k5_and_an_isolated_node(), ps=(3,))
        before = epoch_state(service)
        published = service.stats.published
        with pytest.raises(ValueError, match=f"node {node} out of range for n={N}"):
            service.ingest(batch)
        assert epoch_state(service) == before
        assert service.stats.published == published
        assert engine_state(service.engine)[:4] == (10, 0, 0, {3: 10})
        service.ingest(VALID)
        after = epoch_state(service)
        assert after[:4] == (1, 12, 12, 11)
        with service.read() as epoch:
            assert epoch.table(3) == clique_table(epoch.graph(), 3)
