"""Coverage for the model-substrate exception types (congest/errors.py).

Every error type must be constructible, the fault errors must carry
their round/phase context, and the retry-budget-exhausted path must
raise (never swallow) the typed error.
"""

import numpy as np
import pytest

from repro.congest import (
    BandwidthExceededError,
    CorruptionDetectedError,
    FaultError,
    ModelViolationError,
    RetryBudgetExceededError,
    SimulationLimitError,
)
from repro.congest.batch import MessageBatch
from repro.congest.congested_clique import CongestedClique
from repro.congest.ledger import RoundLedger
from repro.congest.routing import ClusterRouter
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.params import AlgorithmParameters
from repro.faults import FaultModel
from repro.workloads import create_workload


class TestConstructibility:
    """Every exported error type builds and str()s cleanly."""

    def test_model_violation_hierarchy(self):
        assert issubclass(BandwidthExceededError, ModelViolationError)
        assert isinstance(BandwidthExceededError("too big"), ModelViolationError)
        assert "too big" in str(BandwidthExceededError("too big"))

    def test_simulation_limit(self):
        err = SimulationLimitError("round cap hit")
        assert "round cap hit" in str(err)

    def test_fault_error_carries_context(self):
        err = FaultError("link died", phase="reshuffle", attempt=4)
        assert err.phase == "reshuffle"
        assert err.attempt == 4
        assert "reshuffle" in str(err) and "attempt=4" in str(err)

    def test_retry_budget_error_fields(self):
        err = RetryBudgetExceededError(
            phase="learn_edges", attempt=8, pending=17, budget=8
        )
        assert isinstance(err, FaultError)
        assert (err.phase, err.attempt, err.pending, err.budget) == (
            "learn_edges", 8, 17, 8
        )
        assert "17" in str(err) and "learn_edges" in str(err)

    def test_corruption_detected_fields(self):
        err = CorruptionDetectedError(
            "recount mismatch", phase="recount", expected=12, actual=9
        )
        assert isinstance(err, FaultError)
        assert err.phase == "recount"
        assert (err.expected, err.actual) == (12, 9)
        assert "12" in str(err) and "9" in str(err)


def crash_pattern(n=8, messages=40):
    rng = np.random.default_rng(0)
    return MessageBatch.of_edges(
        src=rng.integers(0, n, messages).astype(np.int64),
        dst=rng.integers(0, n, messages).astype(np.int64),
        endpoints=rng.integers(0, n, (messages, 2)).astype(np.uint32),
    )


class TestRetryBudgetPathRaises:
    """The budget-exhausted path surfaces the typed error with context
    — it is never swallowed into a partial delivery."""

    def test_clique_route_batch_raises_with_context(self):
        model = FaultModel(seed=0, crash_windows=((0, 0, -1),), retry_budget=2)
        net = CongestedClique(8, faults=model)
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            net.route_batch(crash_pattern(), RoundLedger(), "learn")
        err = excinfo.value
        assert err.phase == "learn"
        assert err.attempt == err.budget == 2
        assert err.pending > 0

    def test_clique_object_route_raises_too(self):
        model = FaultModel(seed=0, crash_windows=((0, 0, -1),), retry_budget=2)
        net = CongestedClique(8, faults=model)
        with pytest.raises(RetryBudgetExceededError):
            net.route(
                crash_pattern().to_object_messages(),
                RoundLedger(),
                "learn",
                words_per_message=2,
            )

    def test_cluster_router_raises_too(self):
        members = list(range(8))
        model = FaultModel(seed=0, crash_windows=((1, 0, -1),), retry_budget=1)
        router = ClusterRouter(members, capacity=2, n=8, faults=model)
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            router.route_batch(crash_pattern(), RoundLedger(), "reshuffle")
        assert excinfo.value.phase == "reshuffle"

    def test_partial_recovery_rows_remain_charged(self):
        """Retries charged before the abort stay on the ledger — the
        failed run's cost is honest right up to the abort."""
        model = FaultModel(seed=0, crash_windows=((0, 0, -1),), retry_budget=3)
        ledger = RoundLedger()
        with pytest.raises(RetryBudgetExceededError):
            CongestedClique(8, faults=model).route_batch(
                crash_pattern(), ledger, "t"
            )
        recovery = [ph for ph in ledger.phases() if ph.recovery]
        assert len(recovery) == 3  # one row per spent retry
        assert all("/faults/retry[" in ph.name for ph in recovery)


def recount_failure(**execution):
    """(expected, actual) of the recount self-check on a silently
    corrupted Theorem 1.3 run."""
    g = create_workload("er").instance(36, seed=0)
    model = FaultModel(seed=2, silent_corruption_rate=0.3)
    params = AlgorithmParameters(
        p=3, execution=ExecutionConfig(faults=model, **execution)
    )
    with pytest.raises(CorruptionDetectedError) as excinfo:
        list_cliques_congested_clique(g, 3, params=params, seed=0)
    assert excinfo.value.phase == "recount"
    return excinfo.value.expected, excinfo.value.actual


class TestSilentCorruptionIsPlaneInvariant:
    """One fault model, one outcome: the shard planes list the batch the
    network delivered, so silent corruption damages them exactly as it
    damages the batch plane."""

    @pytest.mark.parametrize(
        "execution",
        [
            {"plane": "parallel", "workers": 2},
            {"plane": "dist", "hosts": ("local", "local")},
        ],
        ids=["parallel", "dist"],
    )
    def test_shard_planes_fail_like_batch(self, execution):
        assert recount_failure(**execution) == recount_failure(plane="batch")
