"""Topology plane: spanner sparsification and overlay makespans.

The ISSUE-10 acceptance floor: on a dense adversarial instance, the
Parter–Yogev-style spanner overlay must *measurably* cut the charged
bandwidth of the congested-clique driver's routed fan-out — the dominant
``learn_edges`` pattern lights up ``pattern_pairs`` directed clique links
under direct routing but crosses only ``links_used`` provisioned hub
links on the spanner.  The ``pattern_pairs / links_used`` ratio is the
gated number (floor in ``scripts/check_bench.py``); the raw pattern
accounting, the resulting makespans, and the overlay grid alongside it
are recorded for the trajectory table.

Correctness before accounting: every overlay run must produce the same
listings and byte-identical uniform rounds as the bare run — overlays
re-price time, never the algorithm.
"""

from __future__ import annotations

from repro.congest.topology import Topology
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.params import AlgorithmParameters
from repro.workloads import create_workload

N = 256
P = 4
SEED = 0

#: The sweep of overlays the makespan grid records (clique last as the
#: baseline the others are compared against).
OVERLAYS = ("star", "ring", "chain", "grid", "spanner", "clique")


def _instance():
    # The adversarial family is the dense worst case: a planted
    # near-clique core plus background noise, so the fan-out pattern
    # touches a quadratic share of the directed pairs.
    return create_workload("adversarial").instance(N, seed=SEED)


def _run(g, topology=None):
    params = AlgorithmParameters(p=P, execution=ExecutionConfig(topology=topology))
    return list_cliques_congested_clique(g, P, params=params, seed=SEED)


def _rounds_rows(result):
    return [(ph.name, ph.rounds) for ph in result.ledger.phases()]


def test_spanner_bandwidth_reduction(benchmark, bench_env):
    g = _instance()
    bare = _run(g)
    spanner = _run(g, topology="spanner")

    # Overlays never change the algorithm: identical listings, charges.
    assert spanner.cliques == bare.cliques
    assert _rounds_rows(spanner) == _rounds_rows(bare)

    routed = [
        ph for ph in spanner.ledger.phases() if "pattern_pairs" in ph.stats
    ]
    assert routed, "expected overlay-priced routed phases"
    # The dominant fan-out pattern: most pairs under direct routing.
    dominant = max(routed, key=lambda ph: ph.stats["pattern_pairs"])
    pairs = dominant.stats["pattern_pairs"]
    links = dominant.stats["links_used"]
    compiled = Topology(kind="spanner").compile(g.num_nodes)

    def record():
        return {"pattern_pairs": pairs, "links_used": links}

    benchmark.pedantic(record, iterations=1, rounds=1)
    benchmark.extra_info.update(
        {
            "instance": f"adversarial n={N} seed={SEED}",
            "p": P,
            "phase": dominant.name,
            "cliques": spanner.num_cliques,
            "rounds": round(spanner.rounds, 1),
            "makespan_clique": round(bare.makespan, 1),
            "makespan_spanner": round(spanner.makespan, 1),
            # The gated pair: directed clique links a direct routing of
            # the pattern needs vs spanner links actually provisioned+used.
            "pattern_pairs": pairs,
            "links_used": links,
            "bandwidth_reduction": round(pairs / links, 1),
            "provisioned_links": compiled.num_links(),
            "clique_links": g.num_nodes * (g.num_nodes - 1),
            "max_link_words": dominant.stats["max_link_words"],
            "overlay_hops": dominant.stats["overlay_hops"],
            **bench_env,
        }
    )
    # The >= 10x floor is enforced by scripts/check_bench.py against
    # these recorded scalars (measured margin is several-fold beyond it).


def test_overlay_makespan_grid(benchmark, bench_env):
    g = _instance()
    bare = _run(g)
    makespans = {}
    for kind in OVERLAYS:
        result = _run(g, topology=Topology(kind=kind))
        assert result.cliques == bare.cliques
        assert _rounds_rows(result) == _rounds_rows(bare)
        makespans[kind] = round(result.makespan, 1)

    def record():
        return makespans

    benchmark.pedantic(record, iterations=1, rounds=1)
    benchmark.extra_info.update(
        {
            "instance": f"adversarial n={N} seed={SEED}",
            "p": P,
            "rounds": round(bare.rounds, 1),
            **{f"makespan_{kind}": value for kind, value in makespans.items()},
            **bench_env,
        }
    )
    # The clique overlay must price exactly the uniform rounds and every
    # sparser overlay pays congestion on top; the chain's linear diameter
    # makes it at least as congested as the ring that shortcuts it.
    assert makespans["clique"] == round(bare.rounds, 1)
    assert makespans["clique"] == min(makespans.values())
    assert makespans["chain"] >= makespans["ring"]
