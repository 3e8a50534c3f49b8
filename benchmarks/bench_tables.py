"""Columnar clique tables vs the frozenset floor.

Measures the result-type refactor on the kernel-bench reference
instance — ER n = 2000, p_edge = 0.05 (≈ 167k triangles) — at p = 3
and p = 4.  Two comparisons matter:

- **consumption**: delivering a queryable, verified listing as a
  canonical :class:`~repro.graphs.table.CliqueTable` vs the legacy path
  (materialize every clique as a python frozenset and compare sets).
  ``table_steady`` is the stack's actual read path — engines, epochs
  and the verifier share the kernel's cached canonical table and
  compare matrices with ``np.array_equal`` — and carries the gate;
  ``table_cold`` (canonicalize a raw int64 kernel matrix from scratch)
  is reported alongside so nobody mistakes cached for miraculous.
  Wall time **and** allocation peak (tracemalloc) are recorded: the
  frozenset floor was ~100 ns and ~200 bytes *per clique*, the table
  path is a handful of numpy passes total.
- **popcount width**: the cache-blocked popcount reduction over the
  same bitset bytes viewed as uint64 words vs uint8 bytes — the packing
  change in ``repro.graphs.csr`` (8× fewer lanes for numpy to chew).

The floors (table path ≥ 5× the frozenset path; uint64 ≥ 1.5× uint8)
are enforced by ``scripts/check_bench.py`` over the emitted JSON.
Every timed run cross-checks that both paths agree before any number
is reported.

``test_packed_key_fold_and_cold_build`` records, without a floor, the
two costs the packed row keys set: the serve-shaped fold (a ~700-row
removed delta, then a ~700-row added delta, into a K3 table of over
100k rows) and a cold canonicalization of the K4 table of ER n = 160,
p_edge = 0.5 (~390k rows).  No floor: no other implementation is left
to take a ratio against.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.graphs.csr import _popcount_sum
from repro.graphs.table import CliqueTable, materialize_rows
from repro.workloads import create_workload

N = 2000
EDGE_P = 0.05
# Best-of-5, same protocol as bench_kernel (3-4x bench-box variance).
REPEATS = 5


def _instance():
    return create_workload("er", density=EDGE_P).instance(N, seed=0)


def _peak_bytes(fn) -> int:
    """Allocation high-water mark of one call, via tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("p", [3, 4])
def test_table_vs_frozenset_consumption(benchmark, best_of, bench_env, p):
    """Deliver + verify one listing: canonical table vs frozenset path."""
    csr = _instance().to_csr()
    truth = csr.clique_result(p)  # warm kernel; the verifier's table
    raw = np.array(csr.clique_table(p))  # fresh int64 kernel matrix
    truth_set = truth.as_frozenset()

    def table_steady():
        # The stack's read path: the kernel's canonical table is cached
        # on the snapshot (engines/epochs alias it), a verify-read is a
        # matrix equality — no per-clique python objects, ever.
        produced = csr.clique_result(p)
        assert produced == truth  # np.array_equal — the verify fast path
        return len(produced)

    def table_cold():
        produced = CliqueTable.from_rows(raw, p=p)
        assert produced == truth
        return len(produced)

    def frozenset_path():
        produced = materialize_rows(raw)
        assert produced == truth_set  # the legacy set comparison
        return len(produced)

    timings = {}

    def measure():
        steady_s, count, steady_samples, steady_meta = best_of(
            table_steady, REPEATS
        )
        cold_s, cold_count, _, _ = best_of(table_cold, REPEATS)
        set_s, set_count, set_samples, set_meta = best_of(frozenset_path, REPEATS)
        assert count == cold_count == set_count == len(truth)
        timings.update(
            {
                "cliques": count,
                "table_steady_s": steady_s,
                "table_steady_samples_s": steady_samples,
                "table_cold_s": cold_s,
                "frozenset_s": set_s,
                "frozenset_samples_s": set_samples,
                "table_steady_timing": steady_meta,
                "frozenset_timing": set_meta,
            }
        )
        return timings

    benchmark.pedantic(measure, iterations=1, rounds=1)
    # Allocation peaks in a separate untimed pass (tracemalloc slows
    # every allocation, so it must never overlap the wall samples).
    table_peak = _peak_bytes(table_steady)
    frozenset_peak = _peak_bytes(frozenset_path)
    benchmark.extra_info.update(
        {
            "instance": f"er n={N} p_edge={EDGE_P} seed=0",
            "p": p,
            "cliques": timings["cliques"],
            "table_steady_s": round(timings["table_steady_s"], 6),
            "table_steady_samples_s": [
                round(s, 6) for s in timings["table_steady_samples_s"]
            ],
            "table_cold_s": round(timings["table_cold_s"], 5),
            "frozenset_s": round(timings["frozenset_s"], 4),
            "frozenset_samples_s": [
                round(s, 4) for s in timings["frozenset_samples_s"]
            ],
            "table_steady_timing": timings["table_steady_timing"],
            "frozenset_timing": timings["frozenset_timing"],
            "table_peak_mb": round(table_peak / 2**20, 3),
            "frozenset_peak_mb": round(frozenset_peak / 2**20, 2),
            "steady_speedup": round(
                timings["frozenset_s"] / timings["table_steady_s"], 1
            ),
            "cold_speedup": round(timings["frozenset_s"] / timings["table_cold_s"], 2),
            "peak_ratio": round(frozenset_peak / max(1, table_peak), 2),
            **bench_env,
        }
    )
    # Floor (steady table read >= 5x the frozenset path) is enforced by
    # scripts/check_bench.py against the raw samples recorded above.


def test_uint64_popcount_beats_uint8(benchmark, best_of, bench_env):
    """The same bitset bytes, popcount-reduced as uint64 vs uint8."""
    rng = np.random.default_rng(0)
    words = rng.integers(0, 2**63, size=(4096, 512), dtype=np.uint64)  # 16 MB
    bytes_view = words.view(np.uint8)

    timings = {}

    def measure():
        u64_s, u64_total, u64_samples, u64_meta = best_of(
            lambda: int(_popcount_sum(words)), REPEATS
        )
        u8_s, u8_total, u8_samples, u8_meta = best_of(
            lambda: int(_popcount_sum(bytes_view)), REPEATS
        )
        assert u64_total == u8_total  # same bytes, same bits
        timings.update(
            {
                "set_bits": u64_total,
                "uint64_s": u64_s,
                "uint64_samples_s": u64_samples,
                "uint8_s": u8_s,
                "uint8_samples_s": u8_samples,
                "uint64_timing": u64_meta,
                "uint8_timing": u8_meta,
            }
        )
        return timings

    benchmark.pedantic(measure, iterations=1, rounds=1)
    benchmark.extra_info.update(
        {
            "matrix": f"{words.shape[0]}x{words.shape[1]} uint64 (16 MiB)",
            "set_bits": timings["set_bits"],
            "uint64_s": round(timings["uint64_s"], 5),
            "uint64_samples_s": [round(s, 5) for s in timings["uint64_samples_s"]],
            "uint8_s": round(timings["uint8_s"], 5),
            "uint8_samples_s": [round(s, 5) for s in timings["uint8_samples_s"]],
            "uint64_timing": timings["uint64_timing"],
            "uint8_timing": timings["uint8_timing"],
            "speedup": round(timings["uint8_s"] / timings["uint64_s"], 2),
            **bench_env,
        }
    )
    # Floor (uint64 >= 1.5x uint8; measured ~3.5x) lives in
    # scripts/check_bench.py with the rest of the gates.


FOLD_N, FOLD_EDGE_P = 600, 0.15  # ≈ 123k triangles
FOLD_DELTA = 700
FOLD_REPEATS = 25
COLD_N, COLD_EDGE_P = 160, 0.5


def _fold_inputs():
    """A K3 table, ~700 of its rows as the removed delta and ~700 rows
    of another draw that it lacks as the added delta, both as the int64
    matrices a stream batch hands the fold."""
    rng = np.random.default_rng(0)
    er = create_workload("er", density=FOLD_EDGE_P)
    table = er.instance(FOLD_N, seed=0).to_csr().clique_result(3)
    other = er.instance(FOLD_N, seed=1).to_csr().clique_result(3).difference(table)
    removed = table.rows[rng.choice(len(table), FOLD_DELTA, replace=False)]
    added = other.rows[rng.choice(len(other), FOLD_DELTA, replace=False)]
    return table, removed.astype(np.int64), added.astype(np.int64)


def test_packed_key_fold_and_cold_build(benchmark, best_of, bench_env):
    """Record only: the serve-shaped fold and a cold K4 canonicalization."""
    table, removed, added = _fold_inputs()
    raw = np.array(
        create_workload("er", density=COLD_EDGE_P)
        .instance(COLD_N, seed=0)
        .to_csr()
        .clique_table(4)
    )

    def fold():
        return table.difference(removed).union(added)

    def cold():
        return CliqueTable.from_rows(raw, p=4)

    def measure():
        return best_of(fold, FOLD_REPEATS), best_of(cold, REPEATS)

    folded, built = benchmark.pedantic(measure, iterations=1, rounds=1)
    # Frozenset truth, built from the raw matrices without the packer.
    truth = (
        table.as_frozenset() - materialize_rows(removed)
    ) | materialize_rows(added)
    assert folded.result.as_frozenset() == truth
    assert len(folded.result) == len(table)
    assert built.result.as_frozenset() == materialize_rows(raw)
    width, keys = table._packed()
    benchmark.extra_info.update(
        {
            "fold_instance": f"er n={FOLD_N} p_edge={FOLD_EDGE_P} seed=0, K3",
            "fold_table_rows": len(table),
            "fold_delta_rows": FOLD_DELTA,
            "fold_key": f"{keys.dtype} at {width} bits per id",
            "fold_s": round(folded.best, 6),
            "fold_samples_s": [round(s, 6) for s in folded.samples],
            "fold_timing": folded.meta,
            "cold_instance": f"er n={COLD_N} p_edge={COLD_EDGE_P} seed=0, K4",
            "cold_rows": len(built.result),
            "cold_s": round(built.best, 5),
            "cold_samples_s": [round(s, 5) for s in built.samples],
            "cold_timing": built.meta,
            **bench_env,
        }
    )
