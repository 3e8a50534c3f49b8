"""Fault-differential tests: faulted runs must equal fault-free runs.

The fault-injection plane (:mod:`repro.faults`) perturbs every routed
pattern — drops, detected corruption, crashes, adversarial kills — and
the self-healing drivers retransmit around it with a bounded retry
budget.  The contract under test:

- for every static workload family × seed × plane, a run under bounded
  fault rates (drop ≤ 0.05, corruption ≤ 0.02) produces *exactly* the
  fault-free results: same clique set, same sorted listing, same
  per-node attribution;
- the faulted ledger's delivery rows (name, rounds, stats) are
  byte-identical to the fault-free ledger — all healing overhead lives
  in separately-tagged recovery rows, visible and honestly charged;
- an attached-but-inactive fault model is a complete no-op;
- a crash schedule the retry budget cannot outlast fails loudly with a
  typed error instead of returning wrong counts, and silent
  (checksum-evading) corruption is caught by the end-of-run recount.
"""

from dataclasses import replace

import pytest

from repro.congest.errors import CorruptionDetectedError, RetryBudgetExceededError
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.listing import list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.faults import FaultModel
from repro.graphs.cliques import enumerate_cliques
from repro.workloads import available_workloads, create_workload

#: The six static workload families (the stream_* families replay to
#: static instances and are exercised by the stream differential tests).
STATIC_FAMILIES = ("adversarial", "caveman", "er", "planted", "sparse", "zipfian")
SEEDS = (0, 1, 2)
ROUTING_PLANES = ("object", "batch")

#: The bounded-rate model of the acceptance criteria: drop rate ≤ 0.05,
#: corruption rate ≤ 0.02, budget high enough that healing always wins.
BOUNDED_FAULTS = FaultModel(
    seed=7, drop_rate=0.05, corruption_rate=0.02, retry_budget=12
)


def ledger_rows(ledger_phases):
    """The full charge record: (name, rounds, stats) per phase."""
    return [(ph.name, ph.rounds, ph.stats) for ph in ledger_phases]


def k3_params(**execution):
    """Triangle-listing parameters on the given execution surface."""
    return AlgorithmParameters(p=3, execution=ExecutionConfig(**execution))


def test_families_are_the_static_registry():
    assert set(STATIC_FAMILIES) <= set(available_workloads())
    assert all(not f.startswith("stream_") for f in STATIC_FAMILIES)


class TestCongestedCliqueDifferential:
    """Theorem 1.3 driver: 6 families × 3 seeds × both planes."""

    @pytest.mark.parametrize("family", STATIC_FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("plane", ROUTING_PLANES)
    def test_exact_recovery_under_bounded_faults(self, family, seed, plane):
        g = create_workload(family).instance(36, seed=seed)
        clean = list_cliques_congested_clique(
            g, 3, seed=seed, params=k3_params(plane=plane)
        )
        params = k3_params(plane=plane, faults=BOUNDED_FAULTS)
        faulted = list_cliques_congested_clique(g, 3, params=params, seed=seed)

        # Exactly equal results: counts, sorted listings, attribution.
        assert faulted.cliques == clean.cliques == enumerate_cliques(g, 3)
        assert sorted(map(sorted, faulted.cliques)) == sorted(
            map(sorted, clean.cliques)
        )
        assert faulted.per_node == clean.per_node

        # Delivery rows byte-identical; healing only in recovery rows.
        assert ledger_rows(faulted.ledger.delivery_phases()) == ledger_rows(
            clean.ledger.phases()
        )
        assert faulted.ledger.recovery_rounds > 0
        assert (
            faulted.ledger.total_rounds
            == clean.ledger.total_rounds + faulted.ledger.recovery_rounds
        )

    def test_recovery_rows_are_tagged_and_named(self):
        g = create_workload("er").instance(36, seed=0)
        params = k3_params(faults=BOUNDED_FAULTS)
        result = list_cliques_congested_clique(g, 3, params=params, seed=0)
        recovery = [ph for ph in result.ledger.phases() if ph.recovery]
        assert recovery
        assert all("/faults/" in ph.name for ph in recovery)
        assert all(ph.rounds > 0 for ph in recovery)
        assert result.stats["fault_recovery_rounds"] == pytest.approx(
            sum(ph.rounds for ph in recovery)
        )

    def test_parallel_plane_recovers_exactly(self):
        g = create_workload("er").instance(36, seed=1)
        clean = list_cliques_congested_clique(g, 3, seed=1)
        params = k3_params(plane="parallel", workers=2, faults=BOUNDED_FAULTS)
        faulted = list_cliques_congested_clique(g, 3, params=params, seed=1)
        assert faulted.cliques == clean.cliques
        assert faulted.per_node == clean.per_node
        assert ledger_rows(faulted.ledger.delivery_phases()) == ledger_rows(
            clean.ledger.phases()
        )
        assert faulted.ledger.recovery_rounds > 0


class TestCongestPipelineDifferential:
    """CONGEST cluster pipeline (gather/reshuffle/sparsity) under faults.

    ``stop_scale`` forces the outer loop so the per-cluster reshuffle —
    the pipeline's routed data movement — actually runs and heals.
    """

    @pytest.mark.parametrize("family", ("er", "caveman", "planted"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_recovery_in_cluster_pipeline(self, family, seed):
        g = create_workload(family).instance(40, seed=seed)
        base = AlgorithmParameters(p=3, stop_scale=0.1)
        clean = list_cliques_congest(g, 3, params=base, seed=seed)
        faulted = list_cliques_congest(
            g, 3,
            params=replace(base, execution=ExecutionConfig(faults=BOUNDED_FAULTS)),
            seed=seed,
        )
        assert clean.stats["outer_iterations"] >= 1  # pipeline really ran
        assert faulted.cliques == clean.cliques == enumerate_cliques(g, 3)
        assert faulted.per_node == clean.per_node
        assert ledger_rows(faulted.ledger.delivery_phases()) == ledger_rows(
            clean.ledger.phases()
        )
        assert faulted.ledger.recovery_rounds > 0

    def test_recovery_charge_is_tagged_under_arb_prefix(self):
        g = create_workload("planted").instance(40, seed=2)
        base = AlgorithmParameters(p=3, stop_scale=0.1)
        faulted = list_cliques_congest(
            g, 3,
            params=replace(base, execution=ExecutionConfig(faults=BOUNDED_FAULTS)),
            seed=2,
        )
        recovery = [ph for ph in faulted.ledger.phases() if ph.recovery]
        assert recovery
        assert any(ph.name.endswith("fault_recovery") for ph in recovery)


class TestFaultFreeSeamIdentity:
    """The seam itself must be invisible when faults are off."""

    @pytest.mark.parametrize("plane", ROUTING_PLANES)
    def test_inactive_model_is_a_noop(self, plane):
        g = create_workload("zipfian").instance(36, seed=1)
        clean = list_cliques_congested_clique(
            g, 3, seed=1, params=k3_params(plane=plane)
        )
        params = k3_params(plane=plane, faults=FaultModel(seed=9))
        seamed = list_cliques_congested_clique(g, 3, params=params, seed=1)
        assert seamed.cliques == clean.cliques
        assert seamed.per_node == clean.per_node
        assert ledger_rows(seamed.ledger.phases()) == ledger_rows(
            clean.ledger.phases()
        )
        assert seamed.ledger.recovery_rounds == 0.0

    def test_no_model_attached_charges_no_recovery(self):
        g = create_workload("er").instance(36, seed=0)
        result = list_cliques_congested_clique(g, 3, seed=0)
        assert result.ledger.recovery_rounds == 0.0
        assert result.ledger.delivery_phases() == result.ledger.phases()


class TestFailureModes:
    """Past-budget crashes and surviving corruption fail loudly."""

    def test_crash_past_budget_raises_typed_error(self):
        g = create_workload("er").instance(36, seed=0)
        # Node 0 receives fan-out traffic and never comes back up.
        model = FaultModel(seed=0, crash_windows=((0, 0, -1),), retry_budget=3)
        params = k3_params(faults=model)
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            list_cliques_congested_clique(g, 3, params=params, seed=0)
        err = excinfo.value
        assert err.phase == "learn_edges"
        assert err.attempt == 3 and err.budget == 3
        assert err.pending > 0

    def test_crash_window_within_budget_recovers(self):
        g = create_workload("er").instance(36, seed=0)
        clean = list_cliques_congested_clique(g, 3, seed=0)
        model = FaultModel(seed=0, crash_windows=((0, 0, 2),), retry_budget=6)
        faulted = list_cliques_congested_clique(
            g, 3, params=k3_params(faults=model), seed=0
        )
        assert faulted.cliques == clean.cliques
        assert faulted.ledger.recovery_rounds > 0

    def test_adversary_past_budget_raises(self):
        g = create_workload("er").instance(36, seed=0)
        model = FaultModel(
            seed=0, adversary_pairs=2, adversary_attempts=99, retry_budget=4
        )
        with pytest.raises(RetryBudgetExceededError):
            list_cliques_congested_clique(
                g, 3, params=k3_params(faults=model), seed=0
            )

    @pytest.mark.parametrize("plane", ROUTING_PLANES)
    def test_silent_corruption_caught_by_recount(self, plane):
        g = create_workload("er").instance(36, seed=0)
        model = FaultModel(seed=2, silent_corruption_rate=0.3)
        params = k3_params(plane=plane, faults=model)
        with pytest.raises(CorruptionDetectedError) as excinfo:
            list_cliques_congested_clique(g, 3, params=params, seed=0)
        assert excinfo.value.phase == "recount"
        assert excinfo.value.expected != excinfo.value.actual

    def test_silent_corruption_caught_in_congest_pipeline(self):
        g = create_workload("planted").instance(40, seed=0)
        params = AlgorithmParameters(
            p=3,
            stop_scale=0.1,
            execution=ExecutionConfig(
                faults=FaultModel(seed=3, silent_corruption_rate=0.4)
            ),
        )
        with pytest.raises(CorruptionDetectedError):
            list_cliques_congest(g, 3, params=params, seed=0)


class TestStragglers:
    """Straggler stalls are charged as recovery rows, results unchanged."""

    def test_straggler_delay_charged_not_hidden(self):
        g = create_workload("er").instance(36, seed=0)
        clean = list_cliques_congested_clique(g, 3, seed=0)
        model = FaultModel(seed=5, stragglers=((1, 1.0, 3.0),))
        faulted = list_cliques_congested_clique(
            g, 3, params=k3_params(faults=model), seed=0
        )
        assert faulted.cliques == clean.cliques
        stragglers = [
            ph for ph in faulted.ledger.phases()
            if ph.recovery and "straggler" in ph.name
        ]
        assert stragglers
        assert all(ph.rounds == 3.0 for ph in stragglers)
