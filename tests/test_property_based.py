"""Property-based tests (hypothesis) on core data structures and invariants."""

import itertools
import math
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.congest.ledger import RoundLedger
from repro.congest.routing import ClusterRouter
from repro.core.bad_edges import split_bad_edges
from repro.core.heavy_light import classify_outside_neighbors
from repro.core.params import AlgorithmParameters
from repro.core.partition import (
    pair_recipient_count,
    radix_assignment,
    random_partition,
    responsible_new_id,
)
from repro.core.reshuffle import owner_assignment, reshuffle_edges
from repro.decomposition.arboricity import peel_low_degree, validate_peeling
from repro.decomposition.spectral import (
    adjacency_matrix,
    normalized_laplacian_second_eigenpair,
)
from repro.decomposition.sweep_cut import sweep_cut
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.csr import CSRGraph, clique_table_from_edge_array, intersect_sorted
from repro.graphs.generators import barbell_graph, erdos_renyi
from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.keys import unique_sorted
from repro.graphs.orientation import degeneracy_orientation, validate_orientation


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_nodes=24, max_density=0.6):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.floats(min_value=0.0, max_value=max_density))
    count = int(density * len(possible))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=max(0, len(possible) - 1)),
            min_size=0,
            max_size=count,
            unique=True,
        )
    )
    return Graph(n, [possible[i] for i in indices])


def grown_graph(n, pairs):
    """``Graph(n)`` plus one ``add_edge`` per pair."""
    g = Graph(n)
    for u, v in pairs:
        g.add_edge(u, v)
    return g


# ----------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_equals_twice_edges(self, g):
        assert sum(g.degree(v) for v in g.nodes()) == 2 * g.num_edges

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_edges_are_canonical_and_unique(self, g):
        edges = list(g.edges())
        assert len(edges) == len(set(edges)) == g.num_edges
        assert all(u < v for u, v in edges)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_components_partition_nodes(self, g):
        comps = g.connected_components()
        union = set().union(*comps) if comps else set()
        assert union == set(g.nodes())
        assert sum(len(c) for c in comps) == g.num_nodes

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_copy_equals_original(self, g):
        assert g.copy() == g

    @given(st.integers(min_value=2, max_value=24), st.data())
    @settings(max_examples=60, deadline=None)
    def test_array_constructor_matches_the_edge_loop(self, n, data):
        # Reference: the graph grown one add_edge per pair, which stays
        # the per-edge definition of a valid edge.
        ids = st.integers(min_value=0, max_value=n - 1)
        pairs = data.draw(
            st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=80)
        )
        pairs += [(v, u) for u, v in pairs[::3]]  # repeats, either orientation
        loop = grown_graph(n, pairs)
        array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        for built in (Graph(n, pairs), Graph.from_edge_array(n, array)):
            assert built.num_edges == loop.num_edges
            assert [built.degree(v) for v in range(n)] == [
                loop.degree(v) for v in range(n)
            ]
            seeded, walked = built.to_csr(), loop.to_csr()
            assert seeded.indptr.tobytes() == walked.indptr.tobytes()
            assert seeded.indices.tobytes() == walked.indices.tobytes()
            assert sorted(built.edges()) == sorted(loop.edges())
            for v in range(n):
                assert built.neighbors(v) == loop.neighbors(v)

    @given(st.integers(min_value=1, max_value=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_array_constructor_raises_the_edge_loops_error(self, n, data):
        ids = st.integers(min_value=-3, max_value=n + 3)
        pairs = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=20))
        assume(any(u == v or not (0 <= min(u, v) and max(u, v) < n) for u, v in pairs))
        with pytest.raises(ValueError) as loop_error:
            grown_graph(n, pairs)
        for build in (
            lambda: Graph(n, pairs),
            lambda: Graph.from_edge_array(n, np.array(pairs, dtype=np.int64)),
        ):
            with pytest.raises(ValueError) as array_error:
                build()
            assert str(array_error.value) == str(loop_error.value)


class TestOrientationProperties:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_degeneracy_orientation_is_valid(self, g):
        orientation = degeneracy_orientation(g)
        validate_orientation(g, orientation)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_degeneracy_out_degree_bounded_by_density(self, g):
        # Out-degree (degeneracy) is at least the global density bound
        # m/(n-1) can exceed it; but degeneracy <= max degree always.
        orientation = degeneracy_orientation(g)
        if g.num_edges:
            max_deg = max(g.degree(v) for v in g.nodes())
            assert orientation.max_out_degree <= max_deg

    @given(graphs(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_peeling_postconditions(self, g, threshold):
        remainder, orientation = peel_low_degree(g, threshold)
        validate_peeling(g, remainder, orientation, threshold)

    @given(graphs(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_peeling_keys_match_the_per_edge_loop(self, g, threshold):
        # Reference: the peel as a per-edge loop filling a set of
        # oriented pairs.
        reference = g.copy()
        oriented = set()
        queue = deque(v for v in g.nodes() if 0 < reference.degree(v) < threshold)
        queued = set(queue)
        while queue:
            v = queue.popleft()
            queued.discard(v)
            if reference.degree(v) == 0 or reference.degree(v) >= threshold:
                continue
            for u in sorted(reference.neighbors(v)):
                oriented.add((v, u))
                reference.remove_edge(v, u)
                if 0 < reference.degree(u) < threshold and u not in queued:
                    queue.append(u)
                    queued.add(u)
        remainder, orientation = peel_low_degree(g, threshold)
        n = g.num_nodes
        assert orientation.keys.tolist() == sorted(v * n + u for v, u in oriented)
        assert remainder.edge_set() == reference.edge_set()


class TestCliqueEnumerationProperties:
    @given(graphs(max_nodes=16), st.integers(min_value=3, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_every_clique_is_complete(self, g, p):
        for clique in enumerate_cliques(g, p):
            assert len(clique) == p
            members = sorted(clique)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert g.has_edge(u, v)

    @given(graphs(max_nodes=14))
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_edge_addition(self, g):
        before = enumerate_cliques(g, 3)
        h = g.copy()
        # Add a missing edge if any exists.
        for u in range(h.num_nodes):
            for v in range(u + 1, h.num_nodes):
                if not h.has_edge(u, v):
                    h.add_edge(u, v)
                    after = enumerate_cliques(h, 3)
                    assert before <= after
                    return

    @given(graphs(max_nodes=14), st.integers(min_value=3, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_count_bounded_by_binomial(self, g, p):
        assert len(enumerate_cliques(g, p)) <= math.comb(g.num_nodes, p)


class TestCSRProperties:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_graph_csr_graph(self, g):
        assert g.to_csr().to_graph() == g

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_snapshot_degrees_and_edges(self, g):
        snap = g.to_csr()
        assert snap.num_edges == g.num_edges
        for v in g.nodes():
            assert snap.degree(v) == g.degree(v)
            row = snap.neighbors(v).tolist()
            assert row == sorted(g.neighbors(v))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_intersection_matches_set_and(self, g):
        snap = g.to_csr()
        for u in g.nodes():
            for v in g.nodes():
                if u >= v:
                    continue
                expected = g.neighbors(u) & g.neighbors(v)
                got = intersect_sorted(snap.neighbors(u), snap.neighbors(v))
                assert set(got.tolist()) == expected

    @given(graphs(max_nodes=14), st.integers(min_value=3, max_value=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_enumeration_invariant_under_relabeling(self, g, p, data):
        perm = data.draw(st.permutations(range(g.num_nodes)))
        relabeled = Graph(g.num_nodes, [(perm[u], perm[v]) for u, v in g.edges()])
        original = enumerate_cliques(g, p, backend="csr")
        mapped = {frozenset(perm[x] for x in clique) for clique in original}
        assert enumerate_cliques(relabeled, p, backend="csr") == mapped

    @given(graphs(max_nodes=16), st.integers(min_value=3, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_backends_agree_on_random_graphs(self, g, p):
        assert enumerate_cliques(g, p, backend="csr") == enumerate_cliques(
            g, p, backend="python"
        )

    @given(graphs(max_nodes=40))
    @settings(max_examples=60, deadline=None)
    def test_from_graph_is_byte_identical_to_the_node_loop(self, g):
        indptr, indices = _from_graph_node_loop(g)
        snap = CSRGraph.from_graph(g)
        assert snap.indptr.dtype == indptr.dtype and snap.indices.dtype == indices.dtype
        assert snap.indptr.tobytes() == indptr.tobytes()
        assert snap.indices.tobytes() == indices.tobytes()


def _from_graph_node_loop(graph):
    """``CSRGraph.from_graph`` as the per-node loop it replaced."""
    n = graph.num_nodes
    indptr = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        indptr[v + 1] = indptr[v] + graph.degree(v)
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for v in range(n):
        indices[indptr[v] : indptr[v + 1]] = sorted(graph.neighbors(v))
    return indptr, indices


# ----------------------------------------------------------------------
# Decomposition on arrays vs the loops it replaced
# ----------------------------------------------------------------------
def _adjacency_neighbour_loop(graph, nodes):
    """``adjacency_matrix`` as the neighbour loop it replaced."""
    ordered = sorted(nodes)
    index = {v: i for i, v in enumerate(ordered)}
    rows, cols = [], []
    for u in ordered:
        for v in graph.neighbors(u):
            if v in index:
                rows.append(index[u])
                cols.append(index[v])
    k = len(ordered)
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(k, k))


def _sweep_prefix_loop(graph, nodes):
    """``sweep_cut``'s ``(side, conductance)`` by the per-vertex prefix
    loop the cumulative scan replaced (``None`` when it finds no cut)."""
    ordered = sorted(nodes)
    adj = adjacency_matrix(graph, ordered)
    degrees = np.asarray(adj.sum(axis=1)).flatten()
    _lambda2, fiedler = normalized_laplacian_second_eigenpair(adj)
    order = np.argsort(fiedler / np.sqrt(degrees))
    total_volume = float(degrees.sum())
    adj_lil = adj.tolil()
    in_prefix = np.zeros(len(ordered), dtype=bool)
    cut_edges = 0.0
    prefix_volume = 0.0
    best_conductance = np.inf
    best_prefix_len = 0
    for step, local_v in enumerate(order[:-1]):
        to_prefix = sum(1 for u in adj_lil.rows[local_v] if in_prefix[u])
        deg_v = degrees[local_v]
        cut_edges += deg_v - 2 * to_prefix
        prefix_volume += deg_v
        in_prefix[local_v] = True
        denom = min(prefix_volume, total_volume - prefix_volume)
        if denom <= 0:
            continue
        conductance = cut_edges / denom
        if conductance < best_conductance:
            best_conductance = conductance
            best_prefix_len = step + 1
    if best_prefix_len == 0 or not np.isfinite(best_conductance):
        return None
    side_local = order[:best_prefix_len]
    side = {ordered[i] for i in side_local}
    if float(degrees[side_local].sum()) > total_volume / 2:
        side = set(ordered) - side
    return side, float(best_conductance)


class TestDecompositionArrayProperties:
    @given(graphs(max_nodes=30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_matrix_matches_the_neighbour_loop(self, g, data):
        nodes = data.draw(st.sets(st.integers(min_value=0, max_value=g.num_nodes - 1)))
        got = adjacency_matrix(g, nodes)
        want = _adjacency_neighbour_loop(g, nodes)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @given(
        st.one_of(
            graphs(max_nodes=30),
            st.builds(
                barbell_graph,
                st.integers(min_value=3, max_value=9),
                st.integers(min_value=0, max_value=4),
            ),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_scan_matches_the_prefix_loop(self, g):
        component = max(g.connected_components(), key=len)
        assume(len(component) >= 4)
        cut = sweep_cut(g, component)
        want = _sweep_prefix_loop(g, component)
        if want is None:
            assert cut is None
        else:
            assert cut.side == want[0]
            assert cut.conductance.hex() == want[1].hex()


def _classify_neighbour_loop(graph, cluster_nodes, heavy_threshold):
    """``classify_outside_neighbors`` as a per-neighbour Python loop."""
    cluster_degree = {}
    for u in cluster_nodes:
        for v in graph.neighbors(u):
            if v not in cluster_nodes:
                cluster_degree[v] = cluster_degree.get(v, 0) + 1
    heavy = frozenset(v for v, g in cluster_degree.items() if g > heavy_threshold)
    return heavy, frozenset(cluster_degree) - heavy, cluster_degree


def _bad_edges_neighbour_loop(graph, cluster_nodes, cluster_edges, light, bad_threshold):
    """``split_bad_edges`` as a per-neighbour Python loop."""
    light_degree = {
        u: sum(1 for v in graph.neighbors(u) if v in light) for u in cluster_nodes
    }
    bad_nodes = frozenset(u for u, d in light_degree.items() if d > bad_threshold)
    bad_edges = {e for e in cluster_edges if e[0] in bad_nodes and e[1] in bad_nodes}
    return bad_nodes, bad_edges, set(cluster_edges) - bad_edges, light_degree


class TestClusterSplitProperties:
    @given(
        st.one_of(
            graphs(max_nodes=30, max_density=0.7),
            st.builds(
                erdos_renyi,
                st.integers(min_value=4, max_value=40),
                st.floats(min_value=0.1, max_value=0.8),
                seed=st.integers(min_value=0, max_value=2**16),
            ),
        ),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_csr_splits_match_the_neighbour_loops(self, g, data):
        """The §2.4.1 splits (one CSR gather + ``bincount`` each) equal
        the per-neighbour loops: same node sets, same degree dicts, and
        the goal/bad rows are the loops' edge sets.  Members, C-light
        nodes and kept cluster edges are drawn per node or edge, so
        dense draws reach heavy nodes and edges with one bad endpoint."""
        n = g.num_nodes

        def subset(items):
            flags = data.draw(st.lists(st.booleans(), min_size=len(items)))
            return [item for item, kept in zip(items, flags) if kept]

        members = set(subset(range(n))) or {0}
        heavy_threshold = data.draw(st.integers(min_value=1, max_value=12))
        bad_threshold = data.draw(st.integers(min_value=1, max_value=4))
        light = frozenset(subset([v for v in range(n) if v not in members]))
        cluster_edges = subset(sorted(e for e in g.edges() if set(e) <= members))

        split = classify_outside_neighbors(g, members, heavy_threshold)
        heavy, light_loop, cluster_degree = _classify_neighbour_loop(
            g, members, heavy_threshold
        )
        assert split.heavy == heavy and split.light == light_loop
        assert split.cluster_degree == cluster_degree

        table = np.asarray(cluster_edges, dtype=np.int64).reshape(-1, 2)
        bad = split_bad_edges(g, members, table, light, bad_threshold)
        bad_nodes, bad_edges, goal_edges, light_degree = _bad_edges_neighbour_loop(
            g, members, cluster_edges, light, bad_threshold
        )
        assert bad.bad_nodes == bad_nodes
        assert bad.light_degree == light_degree
        assert set(map(tuple, bad.bad_edges.tolist())) == bad_edges
        assert set(map(tuple, bad.goal_edges.tolist())) == goal_edges
        assert len(bad.bad_edges) + len(bad.goal_edges) == len(cluster_edges)


class TestReshuffleProperties:
    @given(graphs(max_nodes=20, max_density=0.7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_owned_equals_object_owned_with_duplicated_rows(self, g, data):
        """Gathered rows repeat and overlap the members' own edges: the
        batch plane's two sorts deduplicate to the object plane's sets,
        at the same charge."""
        edges = sorted(g.edges())
        assume(edges)
        n = g.num_nodes
        members = sorted(
            data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
        )
        orientation = degeneracy_orientation(g)
        gathered_rows = {}
        for u in members:
            picks = data.draw(st.lists(st.sampled_from(edges), max_size=12))
            rows = [(b, a) if (a + b + u) % 2 else (a, b) for a, b in picks]
            gathered_rows[u] = rows + rows[: len(rows) // 2 + 1]
        results = {}
        for plane in ("object", "batch"):
            gathered = {
                u: set(rows)
                if plane == "object"
                else np.asarray(rows, dtype=np.int64).reshape(-1, 2)
                for u, rows in gathered_rows.items()
            }
            router = ClusterRouter(members, capacity=2, n=n)
            results[plane] = reshuffle_edges(
                g, orientation, members, gathered, router, RoundLedger(),
                "reshuffle", plane=plane,
            )
        assert results["batch"].rounds == results["object"].rounds
        assert results["batch"].stats == results["object"].stats
        for u in members:
            got = [tuple(row) for row in results["batch"].owned[u].tolist()]
            assert got == sorted(results["object"].owned[u])


class TestSortedDedupProperties:
    @given(st.sampled_from(["int32", "uint32", "int64"]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_unique_sorted_equals_np_unique(self, dtype, data):
        info = np.iinfo(dtype)
        values = data.draw(
            st.lists(
                st.one_of(
                    st.integers(min_value=int(info.min), max_value=int(info.max)),
                    st.integers(min_value=max(int(info.min), -4), max_value=4),
                ),
                max_size=40,
            )
        )
        array = np.array(values + values[::2], dtype=dtype)  # repeats
        got, want = unique_sorted(array), np.unique(array)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("dtype", ["int32", "uint32", "int64"])
    @pytest.mark.parametrize("values", [[], [7], [3, 3, 3], [5, -1, 5, -1, 0]])
    def test_unique_sorted_edge_cases(self, dtype, values):
        if dtype == "uint32":
            values = [abs(v) for v in values]
        array = np.array(values, dtype=dtype)
        got, want = unique_sorted(array), np.unique(array)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


@st.composite
def dense_graphs(draw, max_nodes=12):
    """Graphs dense enough to hold K5 and K6: every pair is an edge with a
    drawn probability of at least one half."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    density = draw(st.floats(min_value=0.5, max_value=1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, [e for e in pairs if rng.random() < density])


class TestGoalTableProperties:
    """``clique_table_from_edge_array(edges, p, goal)`` against brute force:
    the Kp of the edge set with at least one goal pair among their edges."""

    @given(
        st.one_of(graphs(max_nodes=12), dense_graphs()),
        st.integers(min_value=3, max_value=6),
        st.sampled_from(["empty", "all", "subset", "non_edges", "outside"]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_goal_kernel_matches_brute_force(self, g, p, kind, data):
        n = g.num_nodes
        edges = g.to_csr().edge_table()
        edge_list = [tuple(e) for e in edges.tolist()]
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        if kind == "empty":
            goal = []
        elif kind == "all":
            goal = edge_list
        elif kind == "subset":
            goal = data.draw(st.lists(st.sampled_from(edge_list))) if edge_list else []
        elif kind == "non_edges":
            goal = [
                (u, v)
                for u, v in data.draw(st.lists(pairs, max_size=10))
                if u != v and not g.has_edge(u, v)
            ]
        else:  # an endpoint no edge touches: isolated, or past every id
            outside = [v for v in range(n) if g.degree(v) == 0] + [n, n + 5]
            goal = data.draw(
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.sampled_from(outside)),
                    max_size=10,
                )
            )
        if data.draw(st.booleans()):
            goal = [(v, u) for u, v in goal]  # orientation must not matter
        goal_set = {frozenset(pair) for pair in goal}

        cliques = [
            frozenset(c)
            for c in itertools.combinations(range(n), p)
            if all(g.has_edge(u, v) for u, v in itertools.combinations(c, 2))
        ]
        touching = {
            c
            for c in cliques
            if any(frozenset(e) in goal_set for e in itertools.combinations(c, 2))
        }
        full = clique_table_from_edge_array(edges, p)
        kept = clique_table_from_edge_array(
            edges, p, np.asarray(goal, dtype=np.int64).reshape(-1, 2)
        )
        for table, expected in ((full, set(cliques)), (kept, touching)):
            assert table.shape == (len(expected), p)
            assert (np.diff(table, axis=1) > 0).all()  # rows ascend unsorted
            assert {frozenset(row) for row in table.tolist()} == expected


class TestRadixProperties:
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=3, max_value=6),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_responsibility_covers_multiset(self, s, p, data):
        multiset = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=s - 1), min_size=1, max_size=p
            )
        )
        new_id = responsible_new_id(multiset, s, p)
        assert 1 <= new_id <= s**p
        assignment = radix_assignment(new_id, s, p)
        assert assignment is not None
        for part in multiset:
            assert part in assignment

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=3, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_recipient_count_symmetry(self, s, p):
        for a in range(s):
            for b in range(s):
                assert pair_recipient_count(s, p, a, b) == pair_recipient_count(
                    s, p, b, a
                )

    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=3, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_num_parts_coverage(self, k, p):
        params = AlgorithmParameters(p=p)
        s = params.num_parts(k)
        assert s == 1 or s**p <= k


class TestOwnerAssignmentProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=12, unique=True),
        st.integers(min_value=64, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_and_balanced(self, members, n):
        owner_of, new_id = owner_assignment(members, n)
        assert set(owner_of.keys()) == set(range(n))
        from collections import Counter

        loads = Counter(owner_of.values())
        assert max(loads.values()) <= math.ceil(n / len(members))
        assert sorted(new_id.values()) == list(range(1, len(members) + 1))


class TestPartitionProperties:
    @given(
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_partition_total(self, n, s, seed):
        partition = random_partition(n, s, np.random.default_rng(seed))
        assert partition.n == n
        assert sum(len(partition.members(i)) for i in range(s)) == n


# ----------------------------------------------------------------------
# Columnar clique tables (repro.graphs.table)
# ----------------------------------------------------------------------
@st.composite
def clique_matrices(draw, max_p=5, max_rows=40, max_node=200):
    """A random (count, p) integer matrix — members unique within each
    row, but rows unsorted, duplicated and shuffled freely."""
    p = draw(st.integers(min_value=1, max_value=max_p))
    rows = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=max_node),
                min_size=p,
                max_size=p,
                unique=True,
            ),
            max_size=max_rows,
        )
    )
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), p), p


#: An injective relabelling of the strategy's ids 0..200 onto uint32 ids:
#: id v moves into byte v % 4, so rows mix ids below 2**8 with ids up to
#: 199 * 2**24 and every comparison can cross a byte boundary.
WIDE_IDS = np.array([v << (8 * (v % 4)) for v in range(201)], dtype=np.int64)


class TestCliqueTableProperties:
    @given(clique_matrices())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_through_frozensets(self, spec):
        """rows -> CliqueTable -> frozensets -> CliqueTable is lossless
        and lands on the identical canonical matrix."""
        from repro.graphs.table import CliqueTable

        rows, p = spec
        table = CliqueTable.from_rows(rows, p=p)
        assert len(table.as_frozenset()) == len(table)
        rebuilt = CliqueTable.from_cliques(table.as_frozenset(), p)
        assert np.array_equal(table.rows, rebuilt.rows)
        assert table.rows.dtype == np.uint32

    @given(clique_matrices())
    @settings(max_examples=80, deadline=None)
    def test_canonical_rows_sorted_unique_ascending(self, spec):
        from repro.graphs.table import canonical_rows, structured_view

        rows, p = spec
        out = canonical_rows(rows, p=p)
        assert np.all(out[:, :-1] <= out[:, 1:]) if p > 1 else True
        view = structured_view(out)
        assert np.array_equal(np.sort(view), view)
        assert len(np.unique(out, axis=0)) == out.shape[0]

    @given(clique_matrices(max_node=60), st.data())
    @settings(max_examples=50, deadline=None)
    def test_canonical_form_invariant_under_relabeling(self, spec, data):
        """Relabeling nodes by any permutation then canonicalizing equals
        canonicalizing then relabeling+recanonicalizing — the table is a
        function of the clique *set*, not of input row order."""
        from repro.graphs.table import CliqueTable

        rows, p = spec
        perm = np.asarray(data.draw(st.permutations(range(61))), dtype=np.int64)
        direct = CliqueTable.from_rows(perm[rows], p=p)
        via_set = CliqueTable.from_cliques(
            {frozenset(int(perm[m]) for m in clique) for clique in
             CliqueTable.from_rows(rows, p=p).as_frozenset()},
            p,
        )
        assert np.array_equal(direct.rows, via_set.rows)

    @given(clique_matrices(), clique_matrices(), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_set_algebra_matches_python_sets(self, a_spec, b_spec, shared):
        """difference / union / membership agree with the python set
        operators byte for byte, for a table and a raw-matrix operand,
        on ids spread over all four bytes of a uint32."""
        from repro.graphs.table import CliqueTable

        (a_rows, p), (b_rows, q) = a_spec, b_spec
        if p != q:
            b_rows = np.empty((0, p), dtype=np.int64)
        b_rows = np.concatenate([b_rows, a_rows[:shared]])  # overlap
        a_rows, b_rows = WIDE_IDS[a_rows], WIDE_IDS[b_rows]
        a = CliqueTable.from_rows(a_rows, p=p)
        b = CliqueTable.from_rows(b_rows, p=p)
        a_set, b_set = a.as_frozenset(), b.as_frozenset()
        for operand in (b, b_rows):
            for got, want in (
                (a.difference(operand), a_set - b_set),
                (a.union(operand), a_set | b_set),
            ):
                expected = CliqueTable.from_cliques(want, p).rows
                assert got.rows.dtype == np.uint32
                assert got.rows.shape == expected.shape
                assert got.rows.tobytes() == expected.tobytes()
            mask = a.membership(operand)
            assert mask.tolist() == [frozenset(r) in b_set for r in a.rows.tolist()]
        for clique in list(a_set)[:10]:
            assert clique in a
            assert (clique in b) == (clique in b_set)


#: ``(p, b)`` layouts at the packed keys' edges: p·b = 32 fits a uint32
#: key and 33 does not; p·b = 64 fits one uint64 word and 65 does not.
#: p = 3 with 32-bit ids and p = 43 on K45's 6-bit ids take several words.
KEY_LAYOUTS = [
    (1, 32), (2, 16), (4, 8), (8, 4),  # p·b = 32
    (3, 11),  # p·b = 33
    (2, 32), (4, 16), (8, 8),  # p·b = 64
    (5, 13), (13, 5),  # p·b = 65
    (3, 32), (43, 6),  # w > 1
]


def bits_for(p):
    """The narrowest width that holds ``p`` distinct ids."""
    return max(1, (p - 1).bit_length())


@st.composite
def width_rows(draw, p, width, max_rows=30):
    """Rows of ``p`` distinct ids below ``2**width``, shuffled within and
    across rows, with repeats.  The first row is the ``p`` largest ids,
    so the table is exactly ``width`` bits wide and some row's smallest
    member has its top bit set: a key that drops high bits loses it."""
    top = 2**width - 1
    ids = st.one_of(st.integers(0, top), st.integers(max(0, top - 2 * p), top))
    rows = [list(range(top, top - p, -1))] + draw(
        st.lists(st.lists(ids, min_size=p, max_size=p, unique=True), max_size=max_rows)
    )
    rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    return [draw(st.permutations(r)) for r in rows]


#: Every K43 of K45, C(45, 43) = 990 of them.
K45_K43 = list(itertools.combinations(range(45), 43))


def k45_rows(data):
    """Some K43s of K45, members shuffled, with repeats."""
    picks = data.draw(st.lists(st.sampled_from(K45_K43), min_size=1, max_size=40))
    return [data.draw(st.permutations(r)) for r in picks]


def key_layout(data):
    return data.draw(
        st.one_of(
            st.sampled_from(KEY_LAYOUTS),
            st.integers(1, 6).flatmap(
                lambda p: st.tuples(st.just(p), st.integers(bits_for(p), 32))
            ),
        )
    )


def layout_rows(data, p, width):
    return k45_rows(data) if p == 43 else data.draw(width_rows(p, width))


def oracle(rows):
    """The clique set of ``rows`` as Python sorted tuples."""
    return {tuple(sorted(r)) for r in rows}


def tuples(table):
    return [tuple(r) for r in table.rows.tolist()]


class TestPackedKeyProperties:
    """Packed sort keys against an oracle that shares no code with the
    table: Python sets of sorted tuples.  Checking one ``CliqueTable``
    against another would hide a packing bug, since both sides pack the
    same way."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_canonical_rows_match_sorted_tuples(self, data):
        from repro.graphs.table import CliqueTable, canonical_rows

        p, width = key_layout(data)
        rows = layout_rows(data, p, width)
        want = sorted(oracle(rows))
        for dtype in (np.int64, np.uint64, np.uint32):
            got = canonical_rows(np.asarray(rows, dtype=dtype), p=p)
            assert got.dtype == np.uint32 and got.flags.c_contiguous
            assert [tuple(r) for r in got.tolist()] == want
        assert tuples(CliqueTable.from_rows(np.asarray(rows), p=p)) == want

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_set_algebra_across_widths(self, data):
        """difference, union, membership and ``in`` between operands of
        two different widths, each way round, as table and raw matrix."""
        from repro.graphs.table import CliqueTable

        p, width = key_layout(data)
        if p == 43:  # every K45 id is 6 bits wide
            a_rows, b_rows = k45_rows(data), k45_rows(data)
        else:
            other = data.draw(st.integers(bits_for(p), 32).filter(lambda b: b != width))
            a_rows = layout_rows(data, p, width)
            shared = data.draw(st.integers(0, len(a_rows)))
            b_rows = layout_rows(data, p, other) + a_rows[:shared]
        for x_rows, y_rows in ((a_rows, b_rows), (b_rows, a_rows)):
            x, y = oracle(x_rows), oracle(y_rows)
            table = CliqueTable.from_rows(np.asarray(x_rows, dtype=np.int64), p=p)
            raw = np.asarray(y_rows, dtype=np.int64)
            for operand in (CliqueTable.from_rows(raw, p=p), raw):
                assert tuples(table.difference(operand)) == sorted(x - y)
                merged = table.union(operand)
                assert tuples(merged) == sorted(x | y)
                assert merged.rows.dtype == np.uint32
                mask = table.membership(operand)
                assert mask.tolist() == [r in y for r in sorted(x)]
            for clique in sorted(x | y):
                assert (frozenset(clique) in table) == (clique in x)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_chained_folds_match_the_oracle(self, data):
        """Folds carry their keys along: each fold on a folded table
        still agrees with the oracle, and the carried keys are
        read-only."""
        from repro.graphs.table import CliqueTable

        p, width = key_layout(data)
        rows = layout_rows(data, p, width)
        table = CliqueTable.from_rows(np.asarray(rows), p=p)
        truth = oracle(rows)
        for _ in range(3):
            removed = layout_rows(data, p, width)
            added = layout_rows(data, p, width)
            table = table.difference(np.asarray(removed)).union(np.asarray(added))
            truth = (truth - oracle(removed)) | oracle(added)
            assert tuples(table) == sorted(truth)
            assert not table._packed()[1].flags.writeable

    @pytest.fixture
    def packs(self, monkeypatch):
        """The row count of every key pack from here on."""
        import repro.graphs.table as table_module

        seen = []
        real = table_module._pack

        def spy(rows, width):
            seen.append(rows.shape[0])
            return real(rows, width)

        monkeypatch.setattr(table_module, "_pack", spy)
        return seen

    def test_wide_needles_never_pack_the_table(self, packs):
        """A needle wider than the table is absent: ``in`` and
        difference pack only needles, never the table.  Only a union
        whose merged width grows re-packs it, once."""
        from repro.graphs.table import CliqueTable

        table = CliqueTable.from_rows(np.array([[0, 1, 2], [1, 2, 3], [5, 6, 7]]))
        wide = np.array([[0, 1, 2**20], [1, 2, 2**31 + 5]])
        kept = table._packed()
        packs.clear()
        assert frozenset({0, 1, 2**20}) not in table
        # At 3 bits per id, (0, 1, 10) would pack onto (0, 1, 2)'s key.
        assert frozenset({0, 1, 10}) not in table
        assert frozenset({0, 1, 2}) in table
        assert table.difference(wide) is table
        assert table.difference(np.array([[0, 1, 10]])) is table
        assert max(packs) < len(table) and table._packed() is kept
        packs.clear()
        grown = table.union(wide)
        assert packs.count(len(table)) == 1  # 3 bits per id -> 32
        assert grown.rows.tolist() == [
            [0, 1, 2], [0, 1, 2**20], [1, 2, 3], [1, 2, 2**31 + 5], [5, 6, 7]
        ]
        assert table._packed() is kept

    def test_stream_fold_never_canonicalizes_the_table(self, packs, monkeypatch):
        """The engine's fold canonicalizes and packs the delta only: a
        touched table holds each K3 at most once per edge, so no call
        sees more than 3× the larger delta side, except the one re-pack
        of a union whose merged width grows (the last batch closes a
        triangle on node 128, which widens ids from 7 to 8 bits)."""
        import repro.graphs.table as table_module
        from repro.graphs.cliques import clique_table
        from repro.stream import StreamEngine, UpdateBatch
        from repro.workloads import create_workload

        canonicalized = []
        real = table_module._canonical

        def spy(rows, p=None):
            canonicalized.append(len(rows))
            return real(rows, p)

        core = create_workload("er", density=0.4).instance(100, seed=0)
        engine = StreamEngine(Graph(129, core.edges()), compact_every=16)
        engine.track(3, listing=True)
        rng = np.random.default_rng(0)
        batches = []
        for _ in range(6):
            pairs = rng.choice(100, size=(8, 2))
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            ops = np.where(np.arange(len(pairs)) % 2, 1, -1)
            batches.append(UpdateBatch(pairs[:, 0], pairs[:, 1], ops))
        batches.append(UpdateBatch.inserts([(100, 101), (100, 128), (101, 128)]))
        monkeypatch.setattr(table_module, "_canonical", spy)
        grown = 0
        for batch in batches:
            canonicalized.clear()
            packs.clear()
            before = engine.clique_result(3)
            width = before._packed()[0]
            delta = engine.apply(batch).deltas[3]
            bound = 3 * max(delta.removed.shape[0], delta.added.shape[0])
            assert len(before) > 10 * bound
            assert max(canonicalized, default=0) <= bound
            grew = engine.clique_result(3)._packed()[0] > width
            assert [n for n in packs if n > bound] == ([len(before)] if grew else [])
            grown += grew
        assert grown == 1 and engine.clique_result(3) == clique_table(engine.graph(), 3)

    def test_table_without_keys_packs_them_once(self, packs):
        from repro.graphs.table import CliqueTable, canonical_rows

        rows = canonical_rows(np.array([[3, 1, 2], [9, 8, 7]]))
        table = CliqueTable(rows, _trusted=True)
        packs.clear()
        assert frozenset({7, 8, 9}) in table
        assert frozenset({1, 2, 9}) not in table
        assert packs.count(len(table)) == 1
        assert not table._packed()[1].flags.writeable


ALL_ONES = 2**64 - 1

#: Packed bitset words, weighted toward the edge cases of the expand
#: kernel: empty words, all-ones words and the top bit (node 63).
bitset_words = st.one_of(
    st.sampled_from([0, ALL_ONES, 1 << 63, 1]),
    st.integers(min_value=0, max_value=ALL_ONES),
)


class TestPopcountProperties:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**64 - 1),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_uint64_uint8_and_python_agree(self, words):
        """The uint64 popcount reduction == the same bytes popcounted as
        uint8 == python's bit_count, word by word and in total."""
        from repro.graphs.csr import _popcount, _popcount_sum

        arr = np.asarray(words, dtype=np.uint64)
        per_word = _popcount(arr).astype(np.int64)
        expected = [int(w).bit_count() for w in words]
        assert per_word.tolist() == expected
        as_bytes = arr.view(np.uint8)
        assert int(_popcount(as_bytes).sum()) == sum(expected)
        assert int(_popcount_sum(arr.reshape(1, -1))) == sum(expected)
        assert int(_popcount_sum(as_bytes.reshape(1, -1))) == sum(expected)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda width: st.lists(
                st.lists(bitset_words, min_size=width, max_size=width),
                min_size=1,
                max_size=8,
            )
        )
    )
    @example([[0, 0], [ALL_ONES, 1 << 63], [0, 0], [1, 0]])
    @settings(max_examples=80, deadline=None)
    def test_packed_rows_round_trip_members(self, matrix):
        """Expanding a (rows, words) matrix yields the set bits that
        ``np.unpackbits`` sees, row-major and node-ascending, on either
        word byte order; scattering them back rebuilds the matrix."""
        from repro.graphs.csr import _expand_members, _scatter_bits

        bits = np.asarray(matrix, dtype=np.uint64)
        # Node j is bit j & 63 of word j >> 6: little-endian bytes, low bit first.
        as_bytes = bits.astype("<u8").view(np.uint8)
        unpacked = np.unpackbits(as_bytes, axis=1, bitorder="little")
        expected = [r.tolist() for r in np.nonzero(unpacked)]
        for words in (bits, bits.astype(">u8")):
            ri, ci = _expand_members(words)
            assert [ri.tolist(), ci.tolist()] == expected
        rebuilt = np.zeros_like(bits)
        _scatter_bits(rebuilt, ri, ci)
        assert np.array_equal(rebuilt, bits)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda width: st.lists(
                st.lists(bitset_words, min_size=width, max_size=width),
                min_size=0,
                max_size=8,
            ).map(lambda rows: np.asarray(rows, dtype=np.uint64).reshape(-1, width))
        )
    )
    @example(np.asarray([[0, 0], [ALL_ONES, 1 << 63], [0, 0], [1, 0]], dtype=np.uint64))
    @settings(max_examples=60, deadline=None)
    def test_swar_fallback_expands_and_counts(self, bits):
        """With ``_popcount`` bound to the numpy 1.x SWAR fallback, whose
        counts are ``uint64``, the peel and the popcount reduction still
        match ``np.unpackbits`` on either word byte order."""
        from unittest import mock

        from repro.graphs import csr

        unpacked = np.unpackbits(
            bits.astype("<u8").view(np.uint8), axis=1, bitorder="little"
        )
        expected = [r.tolist() for r in np.nonzero(unpacked)]
        with mock.patch.object(csr, "_popcount", csr._popcount_swar):
            for words in (bits, bits.astype(">u8")):
                ri, ci = csr._expand_members(words)
                assert ri.dtype.kind == ci.dtype.kind == "i"
                assert [ri.tolist(), ci.tolist()] == expected
                assert csr._popcount_sum(words) == int(unpacked.sum())


# ----------------------------------------------------------------------
# Routing-plane load accounting
# ----------------------------------------------------------------------
@st.composite
def message_patterns(draw, max_nodes=20, max_messages=120):
    """(n, src, dst) with self-messages allowed and silent senders likely
    (node ids are drawn independently, so some never appear as a source)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    count = draw(st.integers(min_value=0, max_value=max_messages))
    node = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(node, min_size=count, max_size=count))
    dst = draw(st.lists(node, min_size=count, max_size=count))
    return n, src, dst


class TestBincountLoadProperties:
    @given(message_patterns(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_bincount_equals_counter_accounting(self, pattern, words):
        """The batch plane's np.bincount loads must equal the tuple
        plane's per-message Counter accumulation — including empty
        patterns, silent senders and self-messages."""
        from collections import Counter

        from repro.congest.batch import bincount_loads

        n, src, dst = pattern
        send, recv = bincount_loads(
            np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64), n, words
        )
        send_counter = Counter()
        recv_counter = Counter()
        for a, b in zip(src, dst):
            send_counter[a] += words
            recv_counter[b] += words
        assert send.tolist() == [send_counter[v] for v in range(n)]
        assert recv.tolist() == [recv_counter[v] for v in range(n)]
        assert send.sum() == recv.sum() == words * len(src)

    @given(message_patterns())
    @settings(max_examples=60, deadline=None)
    def test_route_and_route_batch_charge_identically(self, pattern):
        """The two planes of CongestedClique must charge the same rounds
        and stats for any random pattern."""
        from repro.congest.batch import MessageBatch
        from repro.congest.congested_clique import CongestedClique
        from repro.congest.ledger import RoundLedger

        n, src, dst = pattern
        endpoints = np.zeros((len(src), 2), dtype=np.uint32)
        batch = MessageBatch.of_edges(
            src=np.asarray(src, dtype=np.int64),
            dst=np.asarray(dst, dtype=np.int64),
            endpoints=endpoints,
        )
        net = CongestedClique(n)
        object_ledger, batch_ledger = RoundLedger(), RoundLedger()
        net.route(batch.to_object_messages(), object_ledger, "t", words_per_message=2)
        net.route_batch(batch, batch_ledger, "t")
        a, b = object_ledger.phases()[0], batch_ledger.phases()[0]
        assert (a.name, a.rounds, a.stats) == (b.name, b.rounds, b.stats)


# ----------------------------------------------------------------------
# CSR cache-invalidation invariants (streaming satellite)
# ----------------------------------------------------------------------
@st.composite
def mutation_sequences(draw, max_nodes=14, max_ops=8):
    """A graph plus a random sequence of single/bulk mutations."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda e: e[0] != e[1])
    initial = draw(st.lists(pairs, max_size=2 * n))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["add_edge", "remove_edge", "add_edges", "remove_edges"]
                ),
                st.lists(pairs, min_size=1, max_size=5),
            ),
            max_size=max_ops,
        )
    )
    return n, initial, ops


class TestCSRCacheInvalidation:
    @given(mutation_sequences())
    @settings(max_examples=40, deadline=None)
    def test_to_csr_tracks_any_mutation_sequence(self, spec):
        """Any interleaving of add_edge / remove_edge / add_edges /
        remove_edges (with snapshot reads in between) leaves ``to_csr()``
        equal to a from-scratch rebuild — the cached snapshot is never
        stale and never rebuilt spuriously."""
        from repro.graphs.csr import CSRGraph

        n, initial, ops = spec
        g = Graph(n, initial)
        for kind, edges in ops:
            before = g.to_csr()
            if kind == "add_edge":
                changed = g.add_edge(*edges[0])
            elif kind == "remove_edge":
                changed = g.remove_edge(*edges[0])
            elif kind == "add_edges":
                changed = g.add_edges(edges) > 0
            else:
                changed = g.remove_edges(edges) > 0
            snapshot = g.to_csr()
            if changed:
                assert snapshot is not before  # stale snapshot never served
            else:
                assert snapshot is before  # no-ops never thrash the cache
            fresh = CSRGraph.from_graph(g)
            assert snapshot.indptr.tolist() == fresh.indptr.tolist()
            assert snapshot.indices.tolist() == fresh.indices.tolist()
            assert snapshot.num_edges == g.num_edges


# ----------------------------------------------------------------------
# Fault-schedule invariants (fault-injection plane)
# ----------------------------------------------------------------------
@st.composite
def fault_models(draw, max_nodes=20, with_silent=True):
    """A random seeded FaultModel: rates, stragglers, bounded crash
    windows and a within-budget adversary.  ``with_silent=False`` keeps
    delivered payloads intact (for exact-recovery properties)."""
    from repro.faults import FaultModel

    node = st.integers(min_value=0, max_value=max_nodes - 1)
    stragglers = draw(
        st.lists(
            st.tuples(
                node,
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=4.0),
            ),
            max_size=2,
        )
    )
    crash_windows = draw(
        st.lists(
            st.tuples(
                node,
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=3, max_value=6),
            ),
            max_size=1,
        )
    )
    return FaultModel(
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        drop_rate=draw(st.floats(min_value=0.0, max_value=0.3)),
        corruption_rate=draw(st.floats(min_value=0.0, max_value=0.2)),
        silent_corruption_rate=(
            draw(st.floats(min_value=0.0, max_value=0.2)) if with_silent else 0.0
        ),
        stragglers=tuple(stragglers),
        crash_windows=tuple(crash_windows),
        adversary_pairs=draw(st.integers(min_value=0, max_value=2)),
        adversary_attempts=draw(st.integers(min_value=0, max_value=3)),
        retry_budget=50,
    )


class TestFaultScheduleProperties:
    @given(fault_models(), message_patterns(max_messages=60))
    @settings(max_examples=60, deadline=None)
    def test_same_seed_replays_bit_identical(self, model, pattern):
        """Determinism invariant: two injectors built from the same
        model, fed the same attempt sequence, produce byte-identical
        perturbation masks and identical counts."""
        n, src, dst = pattern
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        first, second = model.injector(), model.injector()
        for attempt in range(3):
            a = first.attempt("t", attempt, src, dst, n)
            b = second.attempt("t", attempt, src, dst, n)
            assert a.failed.tobytes() == b.failed.tobytes()
            assert a.silent.tobytes() == b.silent.tobytes()
            assert (a.dropped, a.corrupted, a.crashed, a.adversarial) == (
                b.dropped, b.corrupted, b.crashed, b.adversarial
            )
            assert a.straggler_rounds == b.straggler_rounds

    @given(message_patterns(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_zero_drop_rate_is_byte_identical_noop(self, pattern, seed):
        """A fault model with drop rate 0.0 (and everything else off)
        must be a byte-identical no-op on route_batch: same delivered
        columns, same single ledger row, no recovery charges."""
        from repro.congest.batch import MessageBatch
        from repro.congest.congested_clique import CongestedClique
        from repro.congest.ledger import RoundLedger
        from repro.faults import FaultModel

        n, src, dst = pattern
        batch = MessageBatch.of_edges(
            src=np.asarray(src, dtype=np.int64),
            dst=np.asarray(dst, dtype=np.int64),
            endpoints=np.zeros((len(src), 2), dtype=np.uint32),
        )
        clean_ledger, seam_ledger = RoundLedger(), RoundLedger()
        clean = CongestedClique(n).route_batch(batch, clean_ledger, "t")
        seamed = CongestedClique(
            n, faults=FaultModel(seed=seed, drop_rate=0.0)
        ).route_batch(batch, seam_ledger, "t")
        assert clean.payload.tobytes() == seamed.payload.tobytes()
        assert clean.src.tobytes() == seamed.src.tobytes()
        assert clean.indptr.tobytes() == seamed.indptr.tobytes()
        assert len(seam_ledger) == 1
        assert [(p.name, p.rounds, p.stats) for p in clean_ledger.phases()] == [
            (p.name, p.rounds, p.stats) for p in seam_ledger.phases()
        ]

    @given(fault_models(with_silent=False), message_patterns(max_messages=60))
    @settings(max_examples=40, deadline=None)
    def test_healing_recovers_exact_delivery(self, model, pattern):
        """For any silent-free schedule with a generous budget, the
        healed router delivers exactly the fault-free payload multisets
        and its delivery rows equal the fault-free ledger."""
        from repro.congest.batch import MessageBatch
        from repro.congest.congested_clique import CongestedClique
        from repro.congest.ledger import RoundLedger

        n, src, dst = pattern
        batch = MessageBatch.of_edges(
            src=np.asarray(src, dtype=np.int64),
            dst=np.asarray(dst, dtype=np.int64),
            endpoints=np.zeros((len(src), 2), dtype=np.uint32),
        )
        clean_ledger, fault_ledger = RoundLedger(), RoundLedger()
        clean = CongestedClique(n).route_batch(batch, clean_ledger, "t")
        faulted = CongestedClique(n, faults=model).route_batch(
            batch, fault_ledger, "t"
        )
        for v in range(n):
            assert sorted(clean.payloads(v)) == sorted(faulted.payloads(v))
        assert [(p.name, p.rounds, p.stats) for p in clean_ledger.phases()] == [
            (p.name, p.rounds, p.stats) for p in fault_ledger.delivery_phases()
        ]
        assert fault_ledger.recovery_rounds >= 0.0


# ----------------------------------------------------------------------
# Factored §2.4.3 fan-out vs its materialized rows (Theorem 1.3)
# ----------------------------------------------------------------------
def _repeat_tile_fanout(edge_src, edge_dst, pair_of_edge, recipients_of_pair):
    """The fan-out rows as spelled out before the batch was factored:
    edges argsort-grouped by pair, one ``np.repeat`` (sources) plus
    ``np.tile`` (recipients) per group.  Returns ``(src, dst, payload)``."""
    src_cols, dst_cols, pay_cols = [], [], []
    if edge_src.size:
        order = np.argsort(pair_of_edge, kind="stable")
        boundaries = np.nonzero(np.diff(pair_of_edge[order]))[0] + 1
        for group in np.split(order, boundaries):
            recipients = recipients_of_pair[int(pair_of_edge[group[0]])]
            if recipients.size == 0:
                continue
            repeated_src = np.repeat(edge_src[group], recipients.size)
            src_cols.append(repeated_src)
            dst_cols.append(np.tile(recipients, group.size))
            endpoints = np.empty((repeated_src.size, 2), dtype=np.uint32)
            endpoints[:, 0] = repeated_src
            endpoints[:, 1] = np.repeat(edge_dst[group], recipients.size)
            pay_cols.append(endpoints)
    if not src_cols:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty((0, 2), dtype=np.uint32),
        )
    return np.concatenate(src_cols), np.concatenate(dst_cols), np.concatenate(pay_cols)


@st.composite
def fanout_inputs(draw):
    """A random §2.4.3 fan-out input: n ≤ 60 nodes in s = 1…4 random
    parts, p = 3…5, an oriented edge set from empty to dense (so some
    part pairs carry no edge), and the generator that draws the
    silent-corruption mask."""
    s = draw(st.integers(min_value=1, max_value=4))
    p = draw(st.integers(min_value=3, max_value=5))
    n = draw(st.integers(min_value=1, max_value=60))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.4]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    part = rng.integers(0, s, size=n).astype(np.int64)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    flip = rng.random(int(keep.sum())) < 0.5
    edge_src = np.where(flip, ju[keep], iu[keep]).astype(np.int64)
    edge_dst = np.where(flip, iu[keep], ju[keep]).astype(np.int64)
    return s, p, n, part, edge_src, edge_dst, rng


class TestFactoredFanoutProperties:
    @staticmethod
    def _build(s, p, part, edge_src, edge_dst):
        from repro.congest.batch import fanout_edges_by_pair
        from repro.core.partition import pair_index_array, pair_recipient_lists

        pair = pair_index_array(part[edge_src], part[edge_dst], s)
        recipients = pair_recipient_lists(s, p)
        factored = fanout_edges_by_pair(edge_src, edge_dst, pair, recipients)
        return factored, _repeat_tile_fanout(edge_src, edge_dst, pair, recipients)

    @staticmethod
    def _expected_mailboxes(delivered, part, s, p):
        """``deliver`` of the ``owner_rows`` output: the reference gather."""
        from repro.congest.batch import MessageBatch, deliver
        from repro.core.partition import owner_rows

        owners, rows, rank = owner_rows(delivered.dst, delivered.payload, part, s, p)
        owned = MessageBatch(
            src=delivered.src[rows], dst=rank, payload=delivered.payload[rows],
            words_per_message=2,
        )
        mailboxes = deliver(owned, owners.size)
        return owners, mailboxes.indptr, mailboxes.payload

    @given(fanout_inputs())
    @settings(max_examples=60, deadline=None)
    def test_rows_len_and_loads_match_materialized(self, spec):
        s, p, n, part, edge_src, edge_dst, _ = spec
        factored, (src, dst, payload) = self._build(s, p, part, edge_src, edge_dst)
        rows = factored.materialize()
        assert rows.src.tobytes() == src.tobytes()
        assert rows.dst.tobytes() == dst.tobytes()
        assert rows.payload.tobytes() == payload.tobytes()
        assert len(factored) == len(rows) == src.size
        assert factored.words_per_message == rows.words_per_message == 2
        space = max(n, s**p)
        for got, want in zip(factored.loads(space), rows.loads(space)):
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist()

    @given(fanout_inputs())
    @settings(max_examples=60, deadline=None)
    def test_charge_and_validation_match_materialized(self, spec):
        """Same ledger row, or the same validation error (recipients of
        s**p > n ids lie outside the clique), for either batch kind."""
        from repro.congest.congested_clique import CongestedClique
        from repro.congest.ledger import RoundLedger

        s, p, n, part, edge_src, edge_dst, _ = spec
        factored, _ = self._build(s, p, part, edge_src, edge_dst)
        outcomes = []
        for batch in (factored, factored.materialize()):
            ledger = RoundLedger()
            try:
                CongestedClique(n).charge_batch(batch, ledger, "learn_edges", parts=s)
            except ValueError as exc:
                outcomes.append(("error", str(exc)))
            else:
                outcomes.append([(ph.name, ph.rounds, ph.stats) for ph in ledger.phases()])
        assert outcomes[0] == outcomes[1]

    @given(fanout_inputs(), st.sampled_from([0.0, 0.1, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_owner_mailboxes_match_owner_rows_delivery(self, spec, silent_rate):
        """The direct gather equals ``deliver`` of the ``owner_rows``
        output on the materialized batch — clean, and with a random
        silent mask applied through ``corrupt_batch`` to both kinds."""
        from repro.core.partition import owner_mailboxes
        from repro.faults.model import corrupt_batch

        s, p, n, part, edge_src, edge_dst, rng = spec
        factored, _ = self._build(s, p, part, edge_src, edge_dst)
        silent = rng.random(len(factored)) < silent_rate
        factored = corrupt_batch(factored, silent, n)
        delivered = corrupt_batch(
            self._build(s, p, part, edge_src, edge_dst)[0].materialize(), silent, n
        )
        assert factored.materialize().payload.tobytes() == delivered.payload.tobytes()
        got = owner_mailboxes(factored, part, s, p)
        want = self._expected_mailboxes(delivered, part, s, p)
        for a, b in zip(got, want):
            assert a.tolist() == b.tolist()
