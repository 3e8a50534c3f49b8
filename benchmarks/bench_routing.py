"""E-routing: batch vs object routing plane on the Theorem 1.3 driver.

The ISSUE-3 acceptance floor: the end-to-end congested-clique listing
driver (orientation → partition → §2.4.3 edge fan-out → per-node learned-
subgraph listing) on ER n = 1500, p = 3 must be ≥ 5× faster on the
columnar batch plane than on the per-message tuple plane, with the two
planes charging **byte-identical** ledger rounds.  The floor itself is
enforced by ``scripts/check_bench.py`` over the emitted JSON.

Timing protocol (shared with bench_kernel): best-of-5 on the fast batch
side — the bench boxes show 3-4x run-to-run variance, and the minimum is
the robust estimator for a deterministic computation.  ``steady`` means
repeat invocations on the same ``Graph`` object, so the batch plane's
memoized CSR snapshot is warm — exactly the sweep runner's view of
repeated listing calls.  The cold (first-call) number is reported
alongside so nobody mistakes memoized for miraculous.  The object plane
has no snapshot to warm and takes ~36 s per run, so it gets
``OBJECT_REPEATS`` repeats — relative noise on the long deterministic
side is small against the gate's ~14x margin.

Every timed run is cross-checked: identical clique sets, identical
per-node attribution, identical (name, rounds) ledger rows.
"""

from __future__ import annotations

import time

from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.params import AlgorithmParameters
from repro.workloads import create_workload

N = 1500
P = 3
EDGE_P = 0.01  # ~11k edges -> ~675k routed messages on both planes
REPEATS = 5  # best-of, to ride out the 3-4x bench-box timing variance
# The ratio's noise lives almost entirely on the sub-second batch side;
# an unlucky slice on a ~36 s deterministic object run moves the ratio
# by a few percent against a ~14x margin.  Two object repeats keep the
# reference honest without tripling the job's wall-clock.
OBJECT_REPEATS = 2


def _instance():
    return create_workload("er", density=EDGE_P).instance(N, seed=0)


def _ledger_rows(result):
    return [(ph.name, ph.rounds) for ph in result.ledger.phases()]


def test_routing_plane_speedup(benchmark, best_of, bench_env):
    timings = {}

    def measure():
        g = _instance()
        on_object = AlgorithmParameters(P, execution=ExecutionConfig(plane="object"))
        cold_start = time.perf_counter()
        cold = list_cliques_congested_clique(g, P, seed=0)
        cold_s = time.perf_counter() - cold_start
        batch_s, batch, batch_samples, batch_meta = best_of(
            lambda: list_cliques_congested_clique(g, P, seed=0),
            REPEATS,
        )
        object_s, obj, object_samples, object_meta = best_of(
            lambda: list_cliques_congested_clique(g, P, params=on_object, seed=0),
            OBJECT_REPEATS,
        )
        # Correctness before speed: identical outputs, identical charges.
        assert batch.cliques == cold.cliques == obj.cliques
        assert batch.per_node == obj.per_node
        assert _ledger_rows(batch) == _ledger_rows(obj)
        timings.update(
            {
                "cliques": len(batch.cliques),
                "rounds": batch.rounds,
                "batch_cold_s": cold_s,
                "batch_steady_s": batch_s,
                "batch_steady_samples_s": batch_samples,
                "object_s": object_s,
                "object_samples_s": object_samples,
                "batch_timing": batch_meta,
                "object_timing": object_meta,
            }
        )
        return timings

    benchmark.pedantic(measure, iterations=1, rounds=1)
    steady_speedup = timings["object_s"] / timings["batch_steady_s"]
    cold_speedup = timings["object_s"] / timings["batch_cold_s"]
    benchmark.extra_info.update(
        {
            "instance": f"er n={N} p_edge={EDGE_P} seed=0",
            "p": P,
            "cliques": timings["cliques"],
            "rounds": round(timings["rounds"], 1),
            "object_s": round(timings["object_s"], 3),
            "object_samples_s": [round(s, 3) for s in timings["object_samples_s"]],
            "batch_cold_s": round(timings["batch_cold_s"], 3),
            "batch_steady_s": round(timings["batch_steady_s"], 4),
            "batch_steady_samples_s": [
                round(s, 4) for s in timings["batch_steady_samples_s"]
            ],
            "batch_timing": timings["batch_timing"],
            "object_timing": timings["object_timing"],
            "cold_speedup": round(cold_speedup, 1),
            "steady_speedup": round(steady_speedup, 1),
            **bench_env,
        }
    )
    # The >= 5x floor is enforced by scripts/check_bench.py against the
    # raw samples (measured margin is ~10x beyond it).
