"""E-parallel: shard-executor plane vs single-core batch plane.

The ISSUE-5 acceptance floor: the end-to-end Theorem 1.3 driver on
ER n = 2000, p = 3 must run ≥ 2× faster steady-state on the parallel
plane with 4 workers than on the single-core batch plane — with
**identical** clique sets, per-node attribution and ledger rows.  The
floor is enforced by ``scripts/check_bench.py`` over the emitted JSON,
and only where it is *physically meaningful*: the JSON records the cpu
counts the run had (``affinity_cpus``), and the checker skips the
parallel floor on boxes with fewer cpus than workers (a 4-worker pool
on a 1-core container measures scheduling, not scaling).

Timing protocol (shared with bench_kernel/bench_routing): best-of-5 on
both sides against the 3–4× bench-box variance, every raw sample
recorded.  ``steady`` means the memoized CSR snapshot is warm *and* the
worker pool is already forked — the first parallel call pays the pool
cold start, reported separately as ``parallel_cold_s``.

A floor-free scaling benchmark records the same driver's steady seconds
at workers = 1, 2, ... up to min(4, affinity cpus), so the pool's
scaling is on record on boxes where the gate above skips.

A second, floor-free benchmark records the sharded snapshot recount
(the streaming engine's compaction-time verification path) against the
serial counter on the heavier ER n = 2000, p_edge = 0.05 instance.

The executor dispatches only listings predicted at
``MIN_PARALLEL_ITEMS`` or more (counts at ``MIN_PARALLEL_COUNT``), so on
a pool configuration the gated Theorem 1.3 listing and the recount
above both run inline.  A third, floor-free benchmark times a forced
dispatch: the CONGEST driver on ER n = 160, density 0.5, p = 4, inline
and at workers = 2, ... up to min(4, affinity cpus), with
``MIN_PARALLEL_ITEMS`` dropped to 0 so its in-cluster K4 listing
(~2.6 M predicted, below the floor) is sharded.  It records whether
that listing pays on a wider pool, which moving the floor would need.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.listing import default_parameters, list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.graphs.csr import count_cliques_csr
from repro.graphs.generators import erdos_renyi
from repro.parallel import executor as executor_mod
from repro.parallel import get_executor
from repro.workloads import create_workload

N = 2000
P = 3
EDGE_P = 0.01  # ~20k edges -> ~1.3M routed messages on both planes
WORKERS = 4
REPEATS = 5  # best-of, to ride out the 3-4x bench-box timing variance
COUNT_EDGE_P = 0.05  # the recount instance (~100k edges, ~167k triangles)
CONGEST_N, CONGEST_DENSITY, CONGEST_P = 160, 0.5, 4  # the CLI smoke's CONGEST run


def _instance(density=EDGE_P):
    return create_workload("er", density=density).instance(N, seed=0)


def _ledger_rows(result):
    return [(ph.name, ph.rounds, ph.stats) for ph in result.ledger.phases()]


def test_parallel_plane_speedup(benchmark, best_of, bench_env):
    params = AlgorithmParameters(
        p=P, execution=ExecutionConfig(plane="parallel", workers=WORKERS)
    )
    timings = {}

    def measure():
        g = _instance()
        list_cliques_congested_clique(g, P, seed=0)  # warm CSR
        batch_s, batch, batch_samples, batch_meta = best_of(
            lambda: list_cliques_congested_clique(g, P, seed=0),
            REPEATS,
        )
        cold_start = time.perf_counter()
        cold = list_cliques_congested_clique(g, P, params=params, seed=0)
        cold_s = time.perf_counter() - cold_start  # includes the pool fork
        parallel_s, par, parallel_samples, parallel_meta = best_of(
            lambda: list_cliques_congested_clique(g, P, params=params, seed=0),
            REPEATS,
        )
        # Correctness before speed: identical outputs, identical charges.
        assert par.cliques == cold.cliques == batch.cliques
        assert par.per_node == batch.per_node
        assert _ledger_rows(par) == _ledger_rows(batch)
        timings.update(
            {
                "cliques": len(par.cliques),
                "rounds": par.rounds,
                "batch_steady_s": batch_s,
                "batch_samples_s": batch_samples,
                "parallel_cold_s": cold_s,
                "parallel_steady_s": parallel_s,
                "parallel_samples_s": parallel_samples,
                "batch_timing": batch_meta,
                "parallel_timing": parallel_meta,
            }
        )
        return timings

    benchmark.pedantic(measure, iterations=1, rounds=1)
    steady_speedup = timings["batch_steady_s"] / timings["parallel_steady_s"]
    benchmark.extra_info.update(
        {
            "instance": f"er n={N} p_edge={EDGE_P} seed=0",
            "p": P,
            "workers": WORKERS,
            "cliques": timings["cliques"],
            "rounds": round(timings["rounds"], 1),
            "batch_steady_s": round(timings["batch_steady_s"], 4),
            "batch_samples_s": [round(s, 4) for s in timings["batch_samples_s"]],
            "parallel_cold_s": round(timings["parallel_cold_s"], 4),
            "parallel_steady_s": round(timings["parallel_steady_s"], 4),
            "parallel_samples_s": [
                round(s, 4) for s in timings["parallel_samples_s"]
            ],
            "batch_timing": timings["batch_timing"],
            "parallel_timing": timings["parallel_timing"],
            "steady_speedup": round(steady_speedup, 2),
            **bench_env,
        }
    )
    # The >= 2x floor (4 workers, cpus permitting) is enforced by
    # scripts/check_bench.py, which reads the cpu counts recorded above.


def test_pool_scaling(benchmark, best_of, bench_env):
    """The pool-scaling curve at the cpus actually present.

    Floor-free (recorded for trajectory): steady best-of seconds of the
    same driver run on the parallel plane at workers = 1, 2, ... up to
    min(4, affinity cpus).  The gated 4-worker ratio above only runs on
    boxes with >= 4 cpus; this curve is recorded everywhere.
    """
    counts = list(range(1, min(WORKERS, bench_env["affinity_cpus"]) + 1))
    timings = {}

    def measure():
        g = _instance()
        reference = list_cliques_congested_clique(g, P, seed=0)  # warm CSR
        for workers in counts:
            params = AlgorithmParameters(
                p=P, execution=ExecutionConfig(plane="parallel", workers=workers)
            )
            list_cliques_congested_clique(g, P, params=params, seed=0)  # fork
            steady_s, result, samples, _meta = best_of(
                lambda: list_cliques_congested_clique(g, P, params=params, seed=0),
                REPEATS,
            )
            assert result.per_node == reference.per_node
            assert _ledger_rows(result) == _ledger_rows(reference)
            timings[workers] = (steady_s, samples)
        return timings

    benchmark.pedantic(measure, iterations=1, rounds=1)
    one_worker_s = timings[1][0]
    benchmark.extra_info.update(
        {
            "instance": f"er n={N} p_edge={EDGE_P} seed=0",
            "p": P,
            "workers": counts,
            "steady_s": {str(w): round(t[0], 4) for w, t in timings.items()},
            "samples_s": {
                str(w): [round(s, 4) for s in t[1]] for w, t in timings.items()
            },
            "speedup_vs_1": {
                str(w): round(one_worker_s / t[0], 2) for w, t in timings.items()
            },
            **bench_env,
        }
    )


def test_sharded_recount(benchmark, best_of, bench_env):
    """Compaction-time recount: sharded exact count vs the serial kernel.

    Floor-free (recorded for trajectory): the win tracks core count and
    the instance is count-bound, not driver-bound.
    """
    executor = get_executor(WORKERS)
    timings = {}

    def measure():
        serial_snapshot = _instance(density=COUNT_EDGE_P).to_csr()
        serial_s, serial_count, serial_samples, serial_meta = best_of(
            lambda: count_cliques_csr(serial_snapshot, P), REPEATS
        )
        sharded_snapshot = _instance(density=COUNT_EDGE_P).to_csr()
        executor.count_csr(sharded_snapshot, P)  # warm pool + forward bits
        sharded_s, sharded_count, sharded_samples, sharded_meta = best_of(
            lambda: executor.count_csr(sharded_snapshot, P), REPEATS
        )
        assert serial_count == sharded_count  # exact, not approximate
        timings.update(
            {
                "count": serial_count,
                "serial_s": serial_s,
                "serial_samples_s": serial_samples,
                "sharded_s": sharded_s,
                "sharded_samples_s": sharded_samples,
                "serial_timing": serial_meta,
                "sharded_timing": sharded_meta,
            }
        )
        return timings

    benchmark.pedantic(measure, iterations=1, rounds=1)
    benchmark.extra_info.update(
        {
            "instance": f"er n={N} p_edge={COUNT_EDGE_P} seed=0",
            "p": P,
            "workers": WORKERS,
            "count": timings["count"],
            "serial_s": round(timings["serial_s"], 4),
            "serial_samples_s": [round(s, 4) for s in timings["serial_samples_s"]],
            "sharded_s": round(timings["sharded_s"], 4),
            "sharded_samples_s": [
                round(s, 4) for s in timings["sharded_samples_s"]
            ],
            "serial_timing": timings["serial_timing"],
            "sharded_timing": timings["sharded_timing"],
            "recount_speedup": round(timings["serial_s"] / timings["sharded_s"], 2),
            **bench_env,
        }
    )


def test_congest_pool_scaling(benchmark, best_of, bench_env, monkeypatch):
    """The CONGEST driver with its K4 listing forced onto the pool.

    Floor-free (recorded for trajectory): steady best-of seconds of
    ``list_cliques_congest`` on ER n = 160, density 0.5, p = 4 (seed 0,
    the CLI smoke test's instance), inline and at workers = 2, ... up to
    min(4, affinity cpus).  ``MIN_PARALLEL_ITEMS`` is dropped to 0, so
    the pool shards the in-cluster K4 listing (~411k rows) that the
    shipped floor lists inline: the record says whether dispatching it
    pays on the runner.  Ledger rows and per-node attribution must equal
    the inline run's.
    """
    monkeypatch.setattr(executor_mod, "MIN_PARALLEL_ITEMS", 0)
    counts = list(range(2, min(WORKERS, bench_env["affinity_cpus"]) + 1))
    params = default_parameters(CONGEST_P)
    timings = {}

    def measure():
        g = erdos_renyi(CONGEST_N, CONGEST_DENSITY, seed=0)

        def run(config):
            return list_cliques_congest(
                g, CONGEST_P, params=replace(params, execution=config), seed=0
            )

        reference = run(ExecutionConfig())  # warm CSR
        inline_s, _, inline_samples, _meta = best_of(
            lambda: run(ExecutionConfig()), REPEATS
        )
        timings["inline"] = (inline_s, inline_samples)
        for workers in counts:
            config = ExecutionConfig(workers=workers)
            run(config)  # fork
            steady_s, result, samples, _meta = best_of(lambda: run(config), REPEATS)
            assert result.per_node == reference.per_node
            assert _ledger_rows(result) == _ledger_rows(reference)
            timings[str(workers)] = (steady_s, samples)
        return timings

    benchmark.pedantic(measure, iterations=1, rounds=1)
    inline_s = timings["inline"][0]
    benchmark.extra_info.update(
        {
            "instance": (
                f"er n={CONGEST_N} density={CONGEST_DENSITY} seed=0, congest driver, "
                "MIN_PARALLEL_ITEMS=0"
            ),
            "p": CONGEST_P,
            "workers": counts,
            "steady_s": {w: round(t[0], 4) for w, t in timings.items()},
            "samples_s": {w: [round(s, 4) for s in t[1]] for w, t in timings.items()},
            "speedup_vs_inline": {
                w: round(inline_s / t[0], 2) for w, t in timings.items() if w != "inline"
            },
            **bench_env,
        }
    )
