"""Unit tests for repro.graphs.orientation."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import complete_graph, erdos_renyi, path_graph
from repro.graphs.graph import Graph
from repro.graphs.keys import key_pairs
from repro.graphs.orientation import (
    Orientation,
    degeneracy_orientation,
    validate_orientation,
)


class TestOrientation:
    def test_orient_and_direction(self):
        o = Orientation.from_pairs(3, [0], [1])
        assert o.direction(0, 1) == (0, 1)
        assert o.direction(1, 0) == (0, 1)

    def test_double_orientation_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(1, 0\) already oriented"):
            Orientation.from_pairs(3, [0, 1], [1, 0])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="cannot orient self-loop at 2"):
            Orientation.from_pairs(3, [2], [2])

    @pytest.mark.parametrize("src, dst", [([3], [0]), ([0], [3]), ([-1], [1])])
    def test_ids_outside_the_node_range_rejected(self, src, dst):
        # In key form (0, 3) on 3 nodes would alias the edge (1, 0).
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            Orientation.from_pairs(3, src, dst)

    def test_immutable(self):
        o = Orientation.from_pairs(3, [0], [1])
        with pytest.raises(ValueError):
            o.keys[0] = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            o.keys = np.array([2])

    def test_missing_direction_raises(self):
        o = Orientation(3)
        with pytest.raises(KeyError):
            o.direction(0, 2)

    def test_covers(self):
        o = Orientation.from_pairs(3, [0], [1])
        assert o.canonical_keys().tolist() == [0 * 3 + 1]

    def test_max_out_degree(self):
        o = Orientation.from_pairs(4, [0, 0, 3], [1, 2, 0])
        assert o.max_out_degree == 2

    def test_empty_orientation(self):
        assert Orientation(0).max_out_degree == 0

    def test_edges_canonical(self):
        o = Orientation.from_pairs(3, [2], [1])
        assert key_pairs(o.canonical_keys(), 3).tolist() == [[1, 2]]

    def test_num_edges(self):
        o = Orientation.from_pairs(4, [0, 2], [1, 3])
        assert o.keys.size == 2


@st.composite
def oriented_pairs(draw, max_nodes=8):
    """``(n, pairs)``: distinct undirected edges on ``n`` nodes, each
    given one direction."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not possible:
        return n, []
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=12))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]


@st.composite
def pair_lists(draw):
    """``(n, pairs)`` for ``from_pairs``: valid orientations plus up to
    two arbitrary pairs over ``[-1, n]`` (ids outside ``[0, n)``,
    self-loops and repeats in either direction)."""
    n, pairs = draw(oriented_pairs())
    ids = st.integers(min_value=-1, max_value=n)
    extra = draw(st.lists(st.tuples(ids, ids), max_size=2))
    at = draw(st.integers(min_value=0, max_value=len(pairs)))
    return n, pairs[:at] + extra + pairs[at:]


def _build(n, pairs):
    return Orientation.from_pairs(n, [u for u, _ in pairs], [v for _, v in pairs])


def _oriented(orientation):
    pairs = key_pairs(orientation.keys, orientation.num_nodes)
    return [tuple(pair) for pair in pairs.tolist()]


class TestSetModelProperties:
    """The key array against a set-of-pairs model of the orientation."""

    @given(pair_lists())
    @settings(max_examples=200, deadline=None)
    def test_from_pairs_matches_set_model(self, case):
        n, pairs = case
        edges = [frozenset(pair) for pair in pairs]
        loops = [u for u, v in pairs if u == v]
        if any(not 0 <= x < n for pair in pairs for x in pair):
            with pytest.raises(ValueError, match="outside"):
                _build(n, pairs)
        elif loops:
            with pytest.raises(ValueError, match=f"self-loop at {loops[0]}$"):
                _build(n, pairs)
        elif len(set(edges)) < len(edges):
            with pytest.raises(ValueError, match="already oriented") as info:
                _build(n, pairs)
            # The reported pair repeats an edge given earlier.
            u, v = map(int, re.search(r"\((-?\d+), (-?\d+)\)", str(info.value)).groups())
            assert any(
                pairs[i] == (u, v) and edges[i] in edges[:i] for i in range(len(pairs))
            )
        else:
            o = _build(n, pairs)
            assert _oriented(o) == sorted(set(pairs))
            assert np.all(np.diff(o.keys) > 0)
            for v in range(n):
                expected = sorted(w for u, w in pairs if u == v)
                assert o.out_neighbors(v).tolist() == expected
            out = [sum(1 for u, _ in pairs if u == v) for v in range(n)]
            assert o.max_out_degree == max(out)

    @given(oriented_pairs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_merged_with_matches_set_union(self, case, data):
        n, pairs = case
        in_a = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        a = [pair for pair, keep in zip(pairs, in_a) if keep]
        b = [pair for pair, keep in zip(pairs, in_a) if not keep]
        # Re-give some of a's edges to b, in either direction.
        shared = data.draw(st.lists(st.sampled_from(a), unique=True)) if a else []
        flip = data.draw(st.booleans())
        b = b + [(v, u) if flip else (u, v) for u, v in shared]
        left, right = _build(n, a), _build(n, b)
        if shared:
            with pytest.raises(ValueError, match="already oriented"):
                left.merged_with(right)
        else:
            merged = left.merged_with(right)
            assert _oriented(merged) == sorted(set(a) | set(b))
            assert merged.max_out_degree <= left.max_out_degree + right.max_out_degree

    @given(oriented_pairs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_restricted_to_matches_set_filter(self, case, data):
        n, pairs = case
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = []
        if possible:
            keep = data.draw(st.lists(st.sampled_from(possible), unique=True))
        o = _build(n, pairs)
        wanted = {frozenset(edge) for edge in keep}
        expected = sorted(pair for pair in pairs if frozenset(pair) in wanted)
        assert _oriented(o.restricted_to(keep)) == expected
        if keep:
            keys = np.unique([u * n + v for u, v in keep])
            assert _oriented(o.restricted_to(keys)) == expected

    @given(oriented_pairs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_direction_array_matches_set_lookup(self, case, data):
        n, pairs = case
        o = _build(n, pairs)
        nodes = st.integers(min_value=0, max_value=n - 1)
        queries = data.draw(st.lists(st.tuples(nodes, nodes), max_size=8))
        model = set(pairs)
        a = np.array([u for u, _ in queries], dtype=np.int64)
        b = np.array([v for _, v in queries], dtype=np.int64)
        if all((u, v) in model or (v, u) in model for u, v in queries):
            src, dst = o.direction_array(a, b)
            expected = [(u, v) if (u, v) in model else (v, u) for u, v in queries]
            assert list(zip(src.tolist(), dst.tolist())) == expected
            assert [o.direction(u, v) for u, v in queries] == expected
        else:
            with pytest.raises(KeyError):
                o.direction_array(a, b)
            absent = [(u, v) for u, v in queries if (u, v) not in model and (v, u) not in model]
            u, v = absent[0]
            with pytest.raises(KeyError):
                o.direction(u, v)


class TestRestrictMerge:
    def test_restricted_to_subset(self):
        o = Orientation.from_pairs(4, [0, 2], [1, 3])
        sub = o.restricted_to([(0, 1)])
        assert sub.keys.tolist() == [0 * 4 + 1]

    def test_restriction_preserves_direction(self):
        o = Orientation.from_pairs(3, [2], [0])
        sub = o.restricted_to([(0, 2)])
        assert sub.direction(0, 2) == (2, 0)

    def test_merge_disjoint(self):
        a = Orientation.from_pairs(4, [0], [1])
        b = Orientation.from_pairs(4, [2], [3])
        merged = a.merged_with(b)
        assert merged.keys.size == 2

    def test_merge_overlapping_rejected(self):
        a = Orientation.from_pairs(3, [0], [1])
        b = Orientation.from_pairs(3, [1], [0])
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_merge_out_degrees_add(self):
        a = Orientation.from_pairs(4, [0], [1])
        b = Orientation.from_pairs(4, [0], [2])
        assert np.array_equal(a.merged_with(b).out_neighbors(0), [1, 2])

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            Orientation(3).merged_with(Orientation(4))


class TestDegeneracyOrientation:
    def test_path_out_degree_one(self):
        o = degeneracy_orientation(path_graph(10))
        assert o.max_out_degree == 1

    def test_complete_graph_out_degree(self):
        o = degeneracy_orientation(complete_graph(6))
        assert o.max_out_degree == 5  # degeneracy of K6 is 5

    def test_covers_all_edges(self):
        g = erdos_renyi(40, 0.2, seed=5)
        o = degeneracy_orientation(g)
        validate_orientation(g, o)

    def test_empty_graph(self):
        o = degeneracy_orientation(Graph(5))
        assert o.max_out_degree == 0

    def test_out_degree_bounded_by_max_degree(self):
        g = erdos_renyi(50, 0.3, seed=6)
        o = degeneracy_orientation(g)
        max_deg = max(g.degree(v) for v in g.nodes())
        assert o.max_out_degree <= max_deg

    def test_star_graph_low_out_degree(self):
        from repro.graphs.generators import star_graph

        o = degeneracy_orientation(star_graph(20))
        # Leaves (degree 1) are peeled first and orient toward the hub.
        assert o.max_out_degree == 1


class TestValidateOrientation:
    def test_detects_missing_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        o = Orientation.from_pairs(3, [0], [1])
        with pytest.raises(ValueError, match="misses"):
            validate_orientation(g, o)

    def test_detects_extra_edge(self):
        g = Graph(3, [(0, 1)])
        o = Orientation.from_pairs(3, [0, 1], [1, 2])
        with pytest.raises(ValueError, match="non-edges"):
            validate_orientation(g, o)
