"""Workload generators.

These are the graph families used by the examples, tests and benchmark
harness.  All generators take an explicit ``seed`` (or a
``numpy.random.Generator``) so every experiment in the tables
``python -m repro.analysis.report`` prints is reproducible bit-for-bit.

The families mirror the regimes the paper's analysis distinguishes:

- dense random graphs (`erdos_renyi`) — the hard case for listing, where
  the n^{p/(p+2)} term dominates;
- sparse bounded-arboricity graphs (`bounded_arboricity_graph`) — where
  the sparsity-aware CONGESTED CLIQUE algorithm (Theorem 1.3) runs in
  Õ(1) rounds;
- planted cliques (`planted_cliques`) — make the *output* non-trivial so
  correctness checks actually exercise the listing path;
- clustered graphs (`clustered_graph`) — graphs whose expander
  decomposition has many well-separated clusters, exercising the
  per-cluster machinery;
- expander-ish graphs (`random_regular`) — single-cluster decompositions;
- random multipartite graphs (`random_multipartite`) — dense yet
  K_{parts+1}-free, so the listing's round cost can grow with n while
  the output stays empty.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Set, Union

import numpy as np

from repro.graphs.graph import Edge, Graph, canonical_edge

SeedLike = Union[int, np.random.Generator, None]


def _rng(seed: SeedLike) -> np.random.Generator:
    """Normalize a seed-like argument into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def erdos_renyi(n: int, p: float, seed: SeedLike = None) -> Graph:
    """G(n, p) random graph.

    Uses a vectorized upper-triangle Bernoulli draw, so it is practical up
    to the ``n`` ranges used by the benchmarks (a few thousand nodes).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = _rng(seed)
    if n < 2 or p == 0.0:
        return Graph(n)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return Graph(n, np.stack([iu[mask], ju[mask]], axis=1))


def gnm_random_graph(n: int, m: int, seed: SeedLike = None) -> Graph:
    """G(n, m): exactly ``m`` distinct uniform random edges.

    Used by the CONGESTED CLIQUE sparsity sweep (experiment E3) where the
    round complexity Θ̃(1 + m/n^{1+2/p}) is a function of ``m`` directly.
    """
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"requested m={m} exceeds maximum {max_m} for n={n}")
    rng = _rng(seed)
    if m == 0:
        return Graph(n)
    if m > max_m // 2:
        # Dense regime: draw m of the pairs at once, rejection would stall.
        iu, ju = np.triu_indices(n, k=1)
        chosen = rng.choice(max_m, size=m, replace=False)
        return Graph(n, np.stack([iu[chosen], ju[chosen]], axis=1))
    seen: Set[Edge] = set()
    while len(seen) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            seen.add(canonical_edge(u, v))
    return Graph(n, seen)


def random_multipartite(n: int, parts: int, q: float, seed: SeedLike = None) -> Graph:
    """Random ``parts``-partite graph on contiguous parts.

    Node ``v`` is in part ``⌊v·parts/n⌋``, so part sizes differ by at
    most one; every pair of nodes in different parts is an edge
    independently with probability ``q``.  The graph has no
    K_{parts+1} at any density.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {q}")
    rng = _rng(seed)
    part = np.arange(n) * parts // max(1, n)
    iu, ju = np.triu_indices(n, k=1)
    cross = part[iu] != part[ju]
    iu, ju = iu[cross], ju[cross]
    keep = rng.random(iu.size) < q
    return Graph.from_edge_array(n, np.stack([iu[keep], ju[keep]], axis=1))


def complete_graph(n: int) -> Graph:
    """K_n."""
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def empty_graph(n: int) -> Graph:
    """n isolated nodes."""
    return Graph(n)


def cycle_graph(n: int) -> Graph:
    """C_n (n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 nodes, got {n}")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    """P_n."""
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(n: int) -> Graph:
    """Star with center 0 and ``n - 1`` leaves."""
    return Graph(n, ((0, i) for i in range(1, n)))


def planted_cliques(
    n: int,
    clique_sizes: Sequence[int],
    background_p: float = 0.0,
    seed: SeedLike = None,
    overlapping: bool = False,
) -> Graph:
    """Random background graph with planted cliques.

    Parameters
    ----------
    n:
        Number of nodes.
    clique_sizes:
        Sizes of cliques to plant on randomly chosen node sets.
    background_p:
        Erdős–Rényi background density.
    overlapping:
        If ``False`` (default), planted cliques use disjoint node sets
        (raises if they do not fit).  If ``True``, each clique samples its
        nodes independently, so cliques may share nodes.
    """
    rng = _rng(seed)
    g = erdos_renyi(n, background_p, rng)
    if not overlapping and sum(clique_sizes) > n:
        raise ValueError(
            f"disjoint cliques of sizes {list(clique_sizes)} do not fit in n={n} nodes"
        )
    available = list(rng.permutation(n))
    for size in clique_sizes:
        if size < 2:
            raise ValueError(f"clique size must be >= 2, got {size}")
        if overlapping:
            members = rng.choice(n, size=size, replace=False)
        else:
            members, available = available[:size], available[size:]
        for u, v in itertools.combinations(members, 2):
            g.add_edge(int(u), int(v))
    return g


def random_regular(n: int, d: int, seed: SeedLike = None) -> Graph:
    """Random d-regular-ish graph via the configuration model.

    Multi-edges and self-loops from the pairing are dropped, so a few
    nodes may have degree slightly below ``d``; for the expander-workload
    purposes here (spectral gap bounded away from 0) that is fine and is
    what the decomposition tests assert.
    """
    if d >= n:
        raise ValueError(f"degree d={d} must be < n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = _rng(seed)
    g = Graph(n)
    stubs = np.repeat(np.arange(n), d)
    # A handful of retries makes near-perfect matchings overwhelmingly likely.
    for _attempt in range(10):
        perm = rng.permutation(stubs)
        trial = Graph(n)
        ok = True
        for i in range(0, len(perm) - 1, 2):
            u, v = int(perm[i]), int(perm[i + 1])
            if u == v or trial.has_edge(u, v):
                ok = False
            else:
                trial.add_edge(u, v)
        g = trial
        if ok:
            break
    return g


def clustered_graph(
    num_clusters: int,
    cluster_size: int,
    intra_p: float = 0.8,
    inter_edges_per_pair: int = 1,
    seed: SeedLike = None,
) -> Graph:
    """Dense clusters joined by a few inter-cluster edges ("caveman").

    This is the canonical workload for expander decomposition: each dense
    block should be recovered as one cluster, and the sparse inter-block
    edges should land in ``Es``/``Er``.
    """
    rng = _rng(seed)
    n = num_clusters * cluster_size
    g = Graph(n)
    blocks: List[range] = [
        range(c * cluster_size, (c + 1) * cluster_size) for c in range(num_clusters)
    ]
    for block in blocks:
        for u, v in itertools.combinations(block, 2):
            if rng.random() < intra_p:
                g.add_edge(u, v)
    for a, b in itertools.combinations(range(num_clusters), 2):
        for _ in range(inter_edges_per_pair):
            u = int(rng.choice(list(blocks[a])))
            v = int(rng.choice(list(blocks[b])))
            g.add_edge(u, v)
    return g


def bounded_arboricity_graph(
    n: int, arboricity: int, seed: SeedLike = None
) -> Graph:
    """Graph whose arboricity is at most ``arboricity`` by construction.

    Built as a union of ``arboricity`` random forests (each forest is a
    uniform random spanning tree on a random node subset).  By
    Nash-Williams, a union of k forests has arboricity <= k.
    """
    if arboricity < 1:
        raise ValueError(f"arboricity must be >= 1, got {arboricity}")
    rng = _rng(seed)
    g = Graph(n)
    for _ in range(arboricity):
        order = rng.permutation(n)
        # Random recursive tree on the permuted order: node i attaches to a
        # uniform earlier node.
        for i in range(1, n):
            j = int(rng.integers(0, i))
            g.add_edge(int(order[i]), int(order[j]))
    return g


def barbell_graph(clique_size: int, path_len: int) -> Graph:
    """Two cliques joined by a path — a classic bad-mixing instance."""
    n = 2 * clique_size + path_len
    g = Graph(n)
    left = range(clique_size)
    right = range(clique_size + path_len, n)
    for u, v in itertools.combinations(left, 2):
        g.add_edge(u, v)
    for u, v in itertools.combinations(right, 2):
        g.add_edge(u, v)
    chain = [clique_size - 1] + list(range(clique_size, clique_size + path_len)) + [
        clique_size + path_len
    ]
    for a, b in zip(chain, chain[1:]):
        g.add_edge(a, b)
    return g


def power_law_graph(n: int, exponent: float = 2.5, seed: SeedLike = None) -> Graph:
    """Chung-Lu style graph with power-law expected degrees.

    Heavy-tailed degree workloads stress the heavy/light classification in
    §2.4.1 (a few nodes have many cluster neighbors, most have few).
    """
    rng = _rng(seed)
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    weights *= (0.5 * n) / weights.sum()  # target average degree ~1 per side
    total = weights.sum()
    iu, ju = np.triu_indices(n, k=1)
    probs = np.minimum(1.0, weights[iu] * weights[ju] / total)
    mask = rng.random(iu.shape[0]) < probs
    return Graph(n, np.stack([iu[mask], ju[mask]], axis=1))


def adversarial_heavy_edge(
    n: int,
    core_size: Optional[int] = None,
    core_to_outside_p: float = 0.5,
    background_p: float = 0.05,
    seed: SeedLike = None,
) -> Graph:
    """Adversarial workload: a small dense core incident to most edges.

    A clique core of ``core_size`` nodes (default ``⌈√n⌉``) is wired to a
    ``core_to_outside_p`` fraction of the outside, on top of a sparse
    Erdős–Rényi background.  Every core-incident edge has a large joint
    neighborhood, so the heavy/light classification of §2.4.1 marks nearly
    all listing work as heavy — the worst case for the gather machinery,
    and the stress test the uniform families never produce.
    """
    if n < 2:
        return Graph(n)
    rng = _rng(seed)
    if core_size is None:
        core_size = max(2, int(math.isqrt(n)))
    core_size = min(core_size, n)
    g = erdos_renyi(n, background_p, rng)
    core = range(core_size)
    for u, v in itertools.combinations(core, 2):
        g.add_edge(u, v)
    for u in core:
        for v in range(core_size, n):
            if rng.random() < core_to_outside_p:
                g.add_edge(u, v)
    return g


def graph_with_density_for_cliques(
    n: int, p: int, expected_cliques: int, seed: SeedLike = None
) -> Graph:
    """Erdős–Rényi graph tuned so the expected number of Kp is a target.

    Solves E[#Kp] = C(n, p) q^{C(p,2)} = expected_cliques for q.  Useful
    for benchmarks that want non-empty but bounded listing output.
    """
    from math import comb

    if expected_cliques <= 0:
        raise ValueError("expected_cliques must be positive")
    pairs = comb(p, 2)
    q = (expected_cliques / comb(n, p)) ** (1.0 / pairs)
    return erdos_renyi(n, min(1.0, q), seed)
