"""Topology-differential tests: the clique overlay is a perfect no-op.

The topology plane prices every charged primitive on an overlay network
(``repro.congest.topology``), but the default clique must change
*nothing*: a run with ``topology=Topology()`` (or a ``"clique"`` spec)
has to produce byte-identical ledger rows — name, rounds, stats,
recovery flag, makespan — and identical listings to a run with no
topology at all, across every static workload family × seed × routing
plane and both drivers.  Overlays in turn must leave rounds and results
untouched, adding only the makespan/overlay-stat columns.
"""

import pytest

from repro.congest.topology import Topology, parse_topology
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.listing import list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.graphs.cliques import enumerate_cliques
from repro.workloads import create_workload

#: The six static workload families (stream_* replay to static
#: instances and are covered by the stream differential suite).
STATIC_FAMILIES = ("adversarial", "caveman", "er", "planted", "sparse", "zipfian")
SEEDS = (0, 1, 2)
ROUTING_PLANES = ("object", "batch")

OVERLAY_SPECS = ("star", "ring", "chain", "grid", "spanner")


def ledger_rows(result):
    """The full charge record: every field a phase row carries."""
    return [
        (ph.name, ph.rounds, ph.stats, ph.recovery, ph.makespan)
        for ph in result.ledger.phases()
    ]


def listing_key(result):
    return sorted(sorted(c) for c in result.cliques)


def run_params(p, **execution):
    """Parameters for a K_p run on the given execution surface."""
    return AlgorithmParameters(p=p, execution=ExecutionConfig(**execution))


class TestCliqueTopologyIsByteIdentical:
    """topology=clique vs topology=None: row-for-row equality."""

    @pytest.mark.parametrize("family", STATIC_FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("plane", ROUTING_PLANES)
    def test_congested_clique_driver(self, family, seed, plane):
        g = create_workload(family).instance(36, seed=seed)
        bare = list_cliques_congested_clique(
            g, 3, seed=seed, params=run_params(3, plane=plane)
        )
        pinned = list_cliques_congested_clique(
            g,
            3,
            params=run_params(3, plane=plane, topology=Topology()),
            seed=seed,
        )
        assert ledger_rows(pinned) == ledger_rows(bare)
        assert listing_key(pinned) == listing_key(bare)
        assert pinned.per_node == bare.per_node
        assert pinned.rounds == bare.rounds
        # On the clique, makespan degenerates to the charged rounds.
        assert pinned.makespan == pinned.rounds == bare.makespan

    @pytest.mark.parametrize("family", STATIC_FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("plane", ROUTING_PLANES)
    def test_congest_driver(self, family, seed, plane):
        g = create_workload(family).instance(36, seed=seed)
        bare = list_cliques_congest(
            g, 3, seed=seed, params=run_params(3, plane=plane)
        )
        pinned = list_cliques_congest(
            g,
            3,
            params=run_params(3, plane=plane, topology="clique"),
            seed=seed,
        )
        assert ledger_rows(pinned) == ledger_rows(bare)
        assert listing_key(pinned) == listing_key(bare)
        assert pinned.rounds == bare.rounds
        assert pinned.makespan == pinned.rounds == bare.makespan

    def test_cluster_pipeline_rows_identical(self):
        # stop_scale forces the outer loop so gather/reshuffle/listing —
        # the phases that route through ClusterRouter — actually charge.
        g = create_workload("caveman").instance(40, seed=1)
        kwargs = dict(p=3, stop_scale=0.01, max_list_iterations=2)
        bare = list_cliques_congest(
            g, 3, params=AlgorithmParameters(**kwargs), seed=1
        )
        pinned = list_cliques_congest(
            g,
            3,
            params=AlgorithmParameters(
                **kwargs, execution=ExecutionConfig(topology=Topology())
            ),
            seed=1,
        )
        assert any("reshuffle" in ph.name or "gather" in ph.name
                   for ph in bare.ledger.phases())
        assert ledger_rows(pinned) == ledger_rows(bare)


class TestOverlaysPreserveResultsAndRounds:
    """Overlays re-price time, never the algorithm: rounds, listings and
    attribution stay identical; only makespan/overlay stats change."""

    @pytest.mark.parametrize("spec", OVERLAY_SPECS)
    @pytest.mark.parametrize("plane", ROUTING_PLANES)
    def test_congested_clique_driver(self, spec, plane):
        g = create_workload("er").instance(36, seed=0)
        bare = list_cliques_congested_clique(
            g, 3, seed=0, params=run_params(3, plane=plane)
        )
        overlay = list_cliques_congested_clique(
            g,
            3,
            params=run_params(3, plane=plane, topology=spec),
            seed=0,
        )
        assert listing_key(overlay) == listing_key(bare) == sorted(
            sorted(c) for c in enumerate_cliques(g, 3)
        )
        assert overlay.per_node == bare.per_node
        # Same rounds row for row; the uniform charge is untouched.
        assert [(ph.name, ph.rounds) for ph in overlay.ledger.phases()] == [
            (ph.name, ph.rounds) for ph in bare.ledger.phases()
        ]
        # Every routed phase carries an explicit makespan.
        assert all(ph.makespan is not None for ph in overlay.ledger.phases())
        assert overlay.makespan > 0

    @pytest.mark.parametrize("spec", OVERLAY_SPECS)
    def test_congest_driver(self, spec):
        g = create_workload("er").instance(36, seed=1)
        bare = list_cliques_congest(g, 3, seed=1)
        overlay = list_cliques_congest(
            g, 3, params=run_params(3, topology=spec), seed=1
        )
        assert listing_key(overlay) == listing_key(bare)
        assert [(ph.name, ph.rounds) for ph in overlay.ledger.phases()] == [
            (ph.name, ph.rounds) for ph in bare.ledger.phases()
        ]

    def test_overlay_stats_on_routed_phases(self):
        g = create_workload("er").instance(48, seed=0)
        overlay = list_cliques_congested_clique(
            g,
            4,
            params=run_params(4, topology="spanner"),
            seed=0,
        )
        routed = [
            ph for ph in overlay.ledger.phases() if "max_link_words" in ph.stats
        ]
        assert routed, "expected at least one overlay-priced routed phase"
        for ph in routed:
            assert ph.stats["links_used"] >= 1
            assert ph.stats["pattern_pairs"] >= ph.stats["links_used"] or (
                ph.stats["overlay_hops"] >= 1
            )
            assert ph.makespan is not None and ph.makespan > 0

    def test_bandwidth_and_latency_scale_makespan_not_rounds(self):
        g = create_workload("er").instance(36, seed=2)
        params = run_params(3, topology="star")
        base = list_cliques_congested_clique(g, 3, params=params, seed=2)
        slow = list_cliques_congested_clique(
            g,
            3,
            params=run_params(3, topology="star@bw=0.5,lat=2"),
            seed=2,
        )
        assert slow.rounds == base.rounds
        assert slow.makespan > base.makespan

    def test_faults_and_overlays_compose(self):
        from repro.faults import FaultModel

        g = create_workload("er").instance(36, seed=0)
        faults = FaultModel(seed=7, drop_rate=0.05, retry_budget=12)
        clean = list_cliques_congested_clique(
            g, 3, params=run_params(3, topology="ring"), seed=0
        )
        healed = list_cliques_congested_clique(
            g,
            3,
            params=run_params(3, topology="ring", faults=faults),
            seed=0,
        )
        assert listing_key(healed) == listing_key(clean)
        assert healed.ledger.recovery_rounds > 0
        # Delivery rows (incl. makespans) are identical; the healing
        # overhead lives in separately tagged recovery rows.
        assert [
            (ph.name, ph.rounds, ph.makespan)
            for ph in healed.ledger.delivery_phases()
        ] == [(ph.name, ph.rounds, ph.makespan) for ph in clean.ledger.phases()]


class TestSweepDifferential:
    """The sweep runner's topology axis: a clique-spec grid cell is
    byte-identical to the no-topology cell, and its cache key differs."""

    def test_execute_run_clique_row_matches(self):
        from repro.analysis.sweeps import RunSpec, execute_run

        base = RunSpec(
            workload="er", params=(), n=28, p=3, variant=None,
            model="congest", seed=0, verify=True,
        )
        clique = RunSpec(
            workload="er", params=(), n=28, p=3, variant=None,
            model="congest", seed=0, verify=True, topology="clique",
        )
        row_base = execute_run(base)
        row_clique = execute_run(clique)
        skip = {"wall_seconds", "topology"}
        assert {k: v for k, v in row_base.items() if k not in skip} == {
            k: v for k, v in row_clique.items() if k not in skip
        }
        assert row_base["topology"] == "clique"
        assert row_clique["topology"] == "clique"
        assert row_base["makespan"] == row_base["rounds"]
        assert clique.cache_key() != base.cache_key()

    def test_overlay_row_same_rounds_new_makespan(self):
        from repro.analysis.sweeps import RunSpec, execute_run

        base = RunSpec(
            workload="er", params=(), n=32, p=4, variant=None,
            model="congested-clique", seed=0, verify=True,
        )
        overlay = RunSpec(
            workload="er", params=(), n=32, p=4, variant=None,
            model="congested-clique", seed=0, verify=True,
            topology="star@bw=0.5",
        )
        row_base = execute_run(base)
        row_overlay = execute_run(overlay)
        assert row_overlay["rounds"] == row_base["rounds"]
        assert row_overlay["cliques"] == row_base["cliques"]
        assert row_overlay["topology"] == "star@bw=0.5"
        assert row_overlay["makespan"] > row_base["makespan"]


class TestParameterSeam:
    """The topology= seam of ExecutionConfig."""

    def test_spec_strings_are_parsed_once(self):
        params = ExecutionConfig(topology="grid:8@bw=0.5")
        assert isinstance(params.topology, Topology)
        assert params.topology == parse_topology("grid:8@bw=0.5")

    def test_invalid_topology_rejected_at_construction(self):
        with pytest.raises(ValueError):
            run_params(3, topology="torus")
        with pytest.raises(TypeError):
            run_params(3, topology=3.14)
