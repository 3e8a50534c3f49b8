"""E-kernel: CSR clique kernels vs the pure-Python ground truth.

Measures the backend seam on the ISSUE-2 reference instance —
ER n = 2000, p_edge = 0.05 (≈ 100k edges, ≈ 167k triangles) — at
p = 3 and p = 4, plus the orientation kernel.  Three numbers matter:

- ``python``      — the dict/set explicit-stack enumeration (the spec);
- ``csr_cold``    — first CSR call on a fresh graph: snapshot build +
  degeneracy order + bitset packing + level pipeline + set
  materialization;
- ``csr_steady``  — the verification pipeline's view: the snapshot and
  its clique table are memoized on the immutable ``CSRGraph``, so a
  repeat query costs one ``set.copy()``.

The acceptance floors (≥ 5× steady at p = 3, cold within 2× of python)
are enforced by ``scripts/check_bench.py`` over the emitted JSON — the
single source of truth for every gated bench's floor ratios.  The cold
ratio is reported alongside so nobody mistakes memoized for miraculous.
Every timed run cross-checks that all paths return the identical clique
set before any number is reported.

``test_member_expansion`` records (no gate) the level pipeline's member
expansion in ns per set bit on a dense and a sparse candidate stack, so
an expansion whose cost follows the word count instead of the set bits
shows in the sparse case.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graphs.cliques import count_cliques, enumerate_cliques
from repro.graphs.csr import (
    _expand_members,
    clique_table_from_edge_array,
    prepare_edge_array,
    table_from_forward_bits,
)
from repro.graphs.orientation import degeneracy_orientation
from repro.workloads import create_workload

N = 2000
EDGE_P = 0.05
# Best-of-5: the bench boxes show 3-4x run-to-run variance, and a single
# unlucky scheduler slice on the fast side can sink a ratio gate.  Five
# repeats keep the minimum robust without stretching the job.
REPEATS = 5


def _instance():
    return create_workload("er", density=EDGE_P).instance(N, seed=0)


@pytest.mark.parametrize("p", [3, 4])
def test_enumerate_backend_speedup(benchmark, best_of, bench_env, p):
    timings = {}

    def measure():
        python_graph = _instance()
        python_s, python_set, python_samples, python_meta = best_of(
            lambda: enumerate_cliques(python_graph, p, backend="python"), REPEATS
        )
        csr_graph = _instance()
        cold_start = time.perf_counter()
        cold_set = enumerate_cliques(csr_graph, p, backend="csr")
        cold_s = time.perf_counter() - cold_start
        steady_s, steady_set, steady_samples, steady_meta = best_of(
            lambda: enumerate_cliques(csr_graph, p, backend="csr"), REPEATS
        )
        assert python_set == cold_set == steady_set  # correctness before speed
        timings.update(
            {
                "cliques": len(python_set),
                "python_s": python_s,
                "python_samples_s": python_samples,
                "csr_cold_s": cold_s,
                "csr_steady_s": steady_s,
                "csr_steady_samples_s": steady_samples,
                "python_timing": python_meta,
                "csr_steady_timing": steady_meta,
            }
        )
        return timings

    benchmark.pedantic(measure, iterations=1, rounds=1)
    cold_speedup = timings["python_s"] / timings["csr_cold_s"]
    steady_speedup = timings["python_s"] / timings["csr_steady_s"]
    benchmark.extra_info.update(
        {
            "instance": f"er n={N} p_edge={EDGE_P} seed=0",
            "p": p,
            "cliques": timings["cliques"],
            "python_s": round(timings["python_s"], 4),
            "python_samples_s": [round(s, 4) for s in timings["python_samples_s"]],
            "csr_cold_s": round(timings["csr_cold_s"], 4),
            # 7 decimals: the steady read is a cached-frozenset return
            # (~1 us) since the columnar-table refactor — 5 decimals
            # would round the samples to 0.0 and blind the gate.
            "csr_steady_s": round(timings["csr_steady_s"], 7),
            "csr_steady_samples_s": [
                round(s, 7) for s in timings["csr_steady_samples_s"]
            ],
            "python_timing": timings["python_timing"],
            "csr_steady_timing": timings["csr_steady_timing"],
            "cold_speedup": round(cold_speedup, 2),
            "steady_speedup": round(steady_speedup, 1),
            **bench_env,
        }
    )
    # Floors (steady >= 5x, cold within 2x of python) are enforced by
    # scripts/check_bench.py against the raw samples recorded above.


def test_count_kernel_never_materializes(benchmark, best_of, bench_env):
    """Counting goes through popcounts — no 167k frozensets."""
    g = _instance()
    enumerate_cliques(g, 3, backend="csr")  # warm the snapshot

    def measure():
        python_s, python_count, _, _ = best_of(
            lambda: count_cliques(g, 3, backend="python"), 1
        )
        csr_fresh = _instance()
        csr_s, csr_count, csr_samples, csr_meta = best_of(
            lambda: count_cliques(csr_fresh, 3, backend="csr"), REPEATS
        )
        assert python_count == csr_count
        return python_s, csr_s, csr_samples, csr_meta, csr_count

    python_s, csr_s, csr_samples, csr_meta, triangles = benchmark.pedantic(
        measure, iterations=1, rounds=1
    )
    benchmark.extra_info.update(
        {
            "triangles": triangles,
            "python_s": round(python_s, 4),
            "csr_s": round(csr_s, 4),
            "csr_samples_s": [round(s, 4) for s in csr_samples],
            "csr_timing": csr_meta,
            "speedup": round(python_s / csr_s, 2),
            **bench_env,
        }
    )
    # Kernel floor: the popcount pipeline re-executes on every call (only
    # the snapshot/orientation are reused between repeats), so the >= 5x
    # floor in scripts/check_bench.py catches a real CSR kernel
    # regression that the memoized steady-state numbers above would
    # hide.  Measured margin is ~50x.


def test_orientation_backend_consistent_and_timed(benchmark, best_of):
    """Both orientation backends, timed on the reference instance; the
    csr path must reproduce the python orientation exactly (the
    differential suite re-checks this across families)."""
    g = _instance()

    def measure():
        python_s, py, _, _ = best_of(
            lambda: degeneracy_orientation(g, backend="python"), 1
        )
        csr_s, via_csr, csr_samples, _ = best_of(
            lambda: degeneracy_orientation(g, backend="csr"), REPEATS
        )
        assert py.max_out_degree == via_csr.max_out_degree
        sample = range(0, g.num_nodes, 97)
        assert all(
            np.array_equal(py.out_neighbors(v), via_csr.out_neighbors(v)) for v in sample
        )
        return python_s, csr_s, csr_samples, py.max_out_degree

    python_s, csr_s, csr_samples, degeneracy = benchmark.pedantic(
        measure, iterations=1, rounds=1
    )
    benchmark.extra_info.update(
        {
            "degeneracy": degeneracy,
            "python_s": round(python_s, 4),
            "csr_s": round(csr_s, 4),
            "csr_samples_s": [round(s, 4) for s in csr_samples],
        }
    )


def _er_edges(n, p_edge):
    """A fixed G(n, p_edge) draw as ``(m, 2)`` u < v rows — the instance
    perfbench's ``congest_er160_p4`` and ``cc_er1500_p3`` relabel."""
    rng = np.random.default_rng([20200705, 1])
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p_edge
    return np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)


#: name -> (n, p_edge, p, goal).  The stack is the candidate rows of the
#: pipeline's last level for ``clique_table_from_edge_array(edges, p,
#: goal)``: dense is the CONGEST driver's learned subgraph (every edge a
#: goal, 411,342 K4 from 83,930 triangle rows of 3 words), sparse the
#: root candidate rows of a sparse K3 listing (11k rows of 24 words,
#: almost every word zero).
EXPANSION_STACKS = {
    "dense": (160, 0.5, 4, True),
    "sparse": (1500, 0.01, 3, False),
}


def _last_level_stack(edges, p):
    """Candidate rows of every (p−1)-member prefix, identity order (the
    K2 "prefixes" of a p = 3 listing are the forward edges)."""
    prepared = prepare_edge_array(edges)
    bits = prepared.bits
    prefixes = table_from_forward_bits(prepared.fptr, prepared.findices, bits, p - 1)
    stack = bits[prefixes[:, 0]]
    for column in prefixes[:, 1:].T:
        stack &= bits[column]
    return stack


@pytest.mark.parametrize("name", sorted(EXPANSION_STACKS))
def test_member_expansion(benchmark, best_of, bench_env, name):
    n, p_edge, p, every_edge_a_goal = EXPANSION_STACKS[name]
    edges = _er_edges(n, p_edge)
    goal = edges if every_edge_a_goal else None
    stack = _last_level_stack(edges, p)

    def measure():
        expand = best_of(lambda: _expand_members(stack), REPEATS)
        listing = best_of(lambda: clique_table_from_edge_array(edges, p, goal), REPEATS)
        return expand, listing

    expand, listing = benchmark.pedantic(measure, iterations=1, rounds=1)
    unpacked = np.unpackbits(
        stack.astype("<u8").view(np.uint8), axis=1, bitorder="little"
    )
    rows, nodes = expand.result
    expected_rows, expected_nodes = np.nonzero(unpacked)
    assert np.array_equal(rows, expected_rows)
    assert np.array_equal(nodes, expected_nodes)
    set_bits = int(rows.size)
    assert listing.result.shape == (set_bits, p)  # one Kp per last-level bit
    benchmark.extra_info.update(
        {
            "instance": f"er n={n} p_edge={p_edge} p={p}",
            "stack_rows": int(stack.shape[0]),
            "stack_words": int(stack.size),
            "live_words": int(np.count_nonzero(stack)),
            "set_bits": set_bits,
            "expand_s": round(expand.best, 6),
            "expand_samples_s": [round(s, 6) for s in expand.samples],
            "expand_ns_per_bit": round(expand.best / max(1, set_bits) * 1e9, 2),
            "listing_s": round(listing.best, 6),
            "listing_samples_s": [round(s, 6) for s in listing.samples],
            "listing_ns_per_row": round(listing.best / max(1, set_bits) * 1e9, 2),
            **bench_env,
        }
    )
