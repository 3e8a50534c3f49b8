"""The three listing-driver workloads: closed-loop ``repro.list_cliques``.

One caller runs ops back to back on one graph, cycling the partition
seed through ``0 .. CYCLE-1`` and stopping on a whole cycle, so every
run weighs the partition seeds alike.  After each op the caller times
one ingest sample (a batch of CSR snapshots of the same graph), so the
ingest median, like the op median, is taken over the whole window: with
all samples taken in the first two seconds of a run, a burst of load on
the host there moved the ingest median of ten runs by 15-25% IQR.
Host-kernel passes bracket every timed section (``measure.timed``).
Every op's clique table is compared after the timed loop with an
independent python-backend enumeration, computed once per run; repeated
ops with the same partition seed must charge identical rounds.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List

from inputs import driver_edges
from measure import (
    HostKernel, children_peak_rss_mb, normalize, peak_rss_mb, section_summary, timed,
)
from tracing import END, START, Instrumentation, Tracer, roots, self_ms_per_op

CYCLE = 3  # distinct partition seeds an op cycles through
SETUPS = 5  # fresh set-ups per run; setup_s is their median
INGEST_SAMPLE_MS = 100.0  # one snapshot takes 1-5 ms, too short to time alone
MIN_OPS = 2 * CYCLE


@dataclass(frozen=True)
class DriverSpec:
    n: int
    p_edge: float
    p: int
    model: str
    pool: bool = False


SPECS = {
    "cc_er1500_p3": DriverSpec(1500, 0.01, 3, "congested-clique"),
    "cc_er1500_p3_pool2": DriverSpec(1500, 0.01, 3, "congested-clique", pool=True),
    "congest_er160_p4": DriverSpec(160, 0.5, 4, "congest"),
}


def pool_execution(p: int) -> Dict:
    """The only place the benchmark spells the execution API: keyword
    arguments that put a listing run on a two-process pool."""
    from repro import AlgorithmParameters, ExecutionConfig

    config = ExecutionConfig(plane="parallel", workers=2)
    return {"params": AlgorithmParameters(p=p, execution=config)}


def close_pool(spec: DriverSpec) -> None:
    """Shut the process-wide pool the run used (the next op respawns it)."""
    executor = pool_execution(spec.p)["params"].execution.resolve_executor()
    executor.close()


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process the pool's shared memory started
    (``multiprocessing`` would otherwise leave it to outlive this run)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def digest(table) -> str:
    """Fingerprint of a canonical clique table (rows sorted, uint32)."""
    return hashlib.sha1(table.rows.tobytes()).hexdigest() + f":{len(table)}"


class DriverRun:
    """One run of a driver workload: set-ups, timed ops, then checks."""

    def __init__(self, name: str, seed: int) -> None:
        import repro

        self.repro = repro
        self.spec = SPECS[name]
        self.edges = driver_edges(self.spec.n, self.spec.p_edge, seed)
        self.kwargs = pool_execution(self.spec.p) if self.spec.pool else {}
        self.kernel = HostKernel()
        self.checks: List[tuple] = []  # (partition seed, rounds, digest)
        self.failures: List[str] = []  # one message per failed op
        self.attempted = 0

    def graph(self):
        return self.repro.Graph(self.spec.n, map(tuple, self.edges.tolist()))

    def ingest_sampler(self, graph):
        """A timed ingest sample: ``(raw_ms, kernel_ms)`` per CSR snapshot
        of ``graph`` -- the form every listing run reads its input in --
        over enough snapshots to take ~``INGEST_SAMPLE_MS``, or ``None``."""
        from repro.graphs.csr import CSRGraph

        start = time.perf_counter()
        CSRGraph.from_graph(graph)
        once_ms = (time.perf_counter() - start) * 1e3
        count = max(5, math.ceil(INGEST_SAMPLE_MS / max(once_ms, 1e-3)))

        def snapshots():
            for _ in range(count):
                CSRGraph.from_graph(graph)

        def sample():
            out = self.attempt(snapshots)
            return None if out is None else (out[1] / count, out[2])

        return sample

    def op(self, graph, pseed: int):
        return self.repro.list_cliques(
            graph, self.spec.p, model=self.spec.model, seed=pseed, **self.kwargs
        )

    def attempt(self, fn):
        """Run one timed op; an exception counts as a failed op."""
        self.attempted += 1
        try:
            return timed(self.kernel, fn)
        except Exception as exc:  # the run must go on and report it
            self.failures.append(f"op raised {type(exc).__name__}: {exc}")
            return None

    def record(self, pseed: int, result) -> None:
        self.checks.append((pseed, result.rounds, digest(result.table())))

    def setup(self):
        """Build the graph and run the first cold op (pool2: respawn the
        pool first, so its spawn is part of the set-up)."""
        if self.spec.pool:
            close_pool(self.spec)
        pseed = 0

        def build():
            graph = self.graph()
            return graph, self.op(graph, pseed)

        out = self.attempt(build)
        if out is None:
            return None, None
        (graph, result), raw_ms, kernel_ms = out
        self.record(pseed, result)
        return graph, (raw_ms, kernel_ms)

    def timed_op(self, graph, pseed: int):
        """One warm op; returns ``(raw_ms, kernel_ms)`` or ``None``."""
        out = self.attempt(lambda: self.op(graph, pseed))
        if out is None:
            return None
        result, raw_ms, kernel_ms = out
        self.record(pseed, result)
        return raw_ms, kernel_ms

    def verify(self) -> Dict[int, float]:
        """Compare every op with the truth; returns rounds per seed."""
        from repro.graphs.cliques import clique_table

        truth = digest(clique_table(self.graph(), self.spec.p, backend="python"))
        rounds: Dict[int, float] = {}
        for pseed, charged, got in self.checks:
            first = rounds.setdefault(pseed, charged)
            if got != truth:
                self.failures.append(f"seed {pseed}: table {got} != truth {truth}")
            elif charged != first:
                self.failures.append(f"seed {pseed}: rounds {charged} != {first}")
        return rounds

    def finish(self) -> Dict:
        """Peak RSS (plus the largest pool worker), pool shut down."""
        peak = peak_rss_mb()
        if self.spec.pool:
            close_pool(self.spec)
            stop_resource_tracker()
            peak += children_peak_rss_mb()
        return {"peak_rss_mb": peak}


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    bench = DriverRun(name, seed)
    setups, graph = [], None
    for _ in range(1 if trace else SETUPS):
        built, sample = bench.setup()
        if sample is not None:
            graph = built
            setups.append(sample)
    if graph is None:
        graph = bench.graph()
    if trace:
        return _traced(bench, graph, seconds)

    ingest = bench.ingest_sampler(graph)
    ops, ingests, tries = [], [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ops) < MIN_OPS or len(ops) % CYCLE:
        tries += 1
        if tries > MIN_OPS * 20:  # every op failing would never end
            break
        out = bench.timed_op(graph, len(ops) % CYCLE)
        if out is None:
            continue
        ops.append(out)
        sample = ingest()
        if sample is not None:
            ingests.append(sample)
    memory = bench.finish()
    rounds = bench.verify()
    metrics = {
        "setup_s": statistics.median(normalize(r, k) for r, k in setups) / 1e3
        if setups else float("nan"),
        "latency_p50_ms": statistics.median(normalize(r, k) for r, k in ops)
        if ops else float("nan"),
        "ingest_p50_ms": statistics.median(normalize(r, k) for r, k in ingests)
        if ingests else float("nan"),
        "rounds": statistics.fmean(rounds.values()) if rounds else float("nan"),
        **memory,
    }
    context = {
        "setup": section_summary(setups) if setups else {},
        "op": section_summary(ops) if ops else {},
        "ingest": section_summary(ingests) if ingests else {},
        "ops_raw_ms": [round(r, 3) for r, _ in ops],
        "ops_kernel_ms": [round(k, 3) for _, k in ops],
        "ingests_raw_ms": [round(r, 4) for r, _ in ingests],
        "ingests_kernel_ms": [round(k, 3) for _, k in ingests],
        "setups_raw_ms": [round(r, 3) for r, _ in setups],
        "setups_kernel_ms": [round(k, 3) for _, k in setups],
        "rounds_by_partition_seed": rounds,
        "m": int(bench.edges.shape[0]),
    }
    return {
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures,
        "metrics": metrics,
        "context": context,
    }


def _traced(bench: DriverRun, graph, seconds: float) -> Dict:
    """Alternate untraced and traced ops on the same partition seed.

    Per-layer values are per-op means over the traced ops; the median
    ratio of each pair's normalized times is the tracing overhead.
    """
    tracer = Tracer()
    pairs, listed = [], 0  # (untraced, traced) normalized ms per seed
    deadline = time.perf_counter() + seconds
    index = 0
    while (time.perf_counter() < deadline or len(pairs) < CYCLE) and index < MIN_OPS * 20:
        pseed = index % CYCLE
        index += 1
        plain = bench.timed_op(graph, pseed)

        def traced_op():
            root = tracer.enter("core.driver")
            try:
                return bench.op(graph, pseed)
            finally:
                tracer.exit(root)

        with Instrumentation(tracer):
            out = bench.attempt(traced_op)
        if out is not None:
            result, raw_ms, kernel_ms = out
            bench.record(pseed, result)
            listed += result.num_cliques
            if plain is not None:
                pairs.append((normalize(*plain), normalize(raw_ms, kernel_ms)))
            del result, out
    bench.finish()
    bench.verify()

    ops = roots(tracer.spans)
    layers = self_ms_per_op(tracer.spans)
    layers = {f"{name}.self_ms": ms for name, ms in layers.items()}
    counters = tracer.counters()
    layers.update({name: total / max(1, len(ops)) for name, total in counters.items()})
    rows = counters.get("csr.grouped_clique_tables.rows", 0)
    layers["csr.kept_ratio"] = listed / rows if rows else 0.0
    layers["trace.overhead_pct"] = (
        100.0 * (statistics.median(t / u for u, t in pairs) - 1.0) if pairs else float("nan")
    )
    covered = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    op_ms = statistics.fmean((r[END] - r[START]) * 1e3 for r in ops) if ops else 0.0
    context = {
        "op_pairs": len(pairs),
        "traced_op_ms_mean": op_ms,
        "self_ms_sum": covered,
        "self_ms_coverage": covered / op_ms if op_ms else float("nan"),
        "spans": len(tracer.spans),
    }
    return {
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures,
        "metrics": layers,
        "context": context,
        "tracer": tracer,
    }
