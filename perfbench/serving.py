"""The serve workload: open-loop reads beside churn ingest.

``CliqueService`` lists p=3 with ``compact_every=64``,
``materialize=False`` and two query threads.  The main thread submits
reads on a fixed Poisson schedule (``CliqueService.submit``); one ingest
thread applies a churn batch every :data:`BATCH_EVERY_S` seconds
(``CliqueService.ingest``), timing the host kernel once right before
each batch so ingest times are host-normalized like the drivers' ops.
A read's latency is its completion time minus its scheduled arrival,
raw: normalizing it by the kernel widened its spread.

The load sits well below saturation.  Each batch holds the interpreter
lock for ~150 ms and the epoch's first learned read for another
~150-190 ms; with a batch every 0.75 s a host slowed by a third pushed
the read p75 from ~4 ms to 20-46 ms and the p99 past 300 ms, so the
batches come every 1.5 s.

After the window every response is checked against a recompute of its
pinned epoch made here, from the same batches, with a numpy triangle
enumeration that shares no code with ``repro``.
"""

from __future__ import annotations

import statistics
import threading
import time
from concurrent.futures import wait
from typing import Dict, List, Optional

import numpy as np

from inputs import churn_stream, read_schedule, replay_edges, rng_for, update_batch
from measure import (
    HostKernel, min_samples_for, normalize, peak_rss_mb, percentile, section_summary,
    timed,
)
from tracing import (
    END, NAME, START, TAG, Instrumentation, Tracer, roots, self_ms_per_op,
)

N = 600
P = 3
RATE = 100.0  # reads per second
BATCH_EVERY_S = 1.5
CHURN = 24  # deletes (and re-inserts) per batch
QUERY_THREADS = 2
COMPACT_EVERY = 64
SETUPS = 9
#: Enough reads that at least ten lie beyond the p99 rank.
MIN_READS = min_samples_for(99)
ANSWER_TIMEOUT_S = 60.0


def triangles(edges: np.ndarray, n: int) -> np.ndarray:
    """Every triangle of the graph as ``u < v < w`` rows."""
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    adj[edges[:, 1], edges[:, 0]] = True
    rows = [np.empty((0, 3), dtype=np.int64)]
    for u in range(n):
        up = np.flatnonzero(adj[u, u + 1:]) + u + 1
        if up.size < 2:
            continue
        a, b = np.nonzero(np.triu(adj[np.ix_(up, up)], k=1))
        rows.append(np.stack([np.full(a.size, u), up[a], up[b]], axis=1))
    return np.concatenate(rows)


class ServeRun:
    """Inputs, set-ups and the open-loop window of one serve run."""

    def __init__(self, seed: int, seconds: float) -> None:
        import repro

        self.repro = repro
        count = max(int(RATE * seconds), MIN_READS)
        self.schedule = read_schedule(count, RATE, N, rng_for(seed, 3))
        batches = int(self.schedule[-1].at / BATCH_EVERY_S)
        self.stream = churn_stream(N, batches, CHURN)
        self.batches = [
            update_batch(d, i) for d, i in zip(self.stream.deletes, self.stream.inserts)
        ]
        self.kernel = HostKernel()
        self.failures: List[str] = []
        self.attempted = 0

    def service(self):
        from repro.serve import CliqueService

        graph = self.repro.Graph(N, map(tuple, self.stream.base.tolist()))
        return CliqueService(
            graph, ps=(P,), compact_every=COMPACT_EVERY,
            query_threads=QUERY_THREADS, materialize=False,
        )

    def setup(self):
        """One fresh service: graph, engine and its baseline listing."""
        self.attempted += 1
        try:
            return timed(self.kernel, self.service)
        except Exception as exc:
            self.failures.append(f"setup raised {type(exc).__name__}: {exc}")
            return None

    def window(self, service) -> Dict:
        """Play the schedule; returns per-read and per-ingest timings."""
        from repro.serve import Request

        reads = len(self.schedule)
        due = [0.0] * reads
        late = [0.0] * reads
        # index -> (finished, epoch, kind, compact value) or (finished, exc)
        answers: Dict[int, tuple] = {}
        waiting: Dict[int, object] = {}  # futures not yet done
        ingests: List[tuple] = []  # (raw_ms, kernel_ms) per batch
        origin = time.perf_counter() + 0.05

        def done(index: int, future) -> None:
            finished = time.perf_counter()
            if future.exception() is not None:
                answers[index] = (finished, future.exception())
            else:
                response = future.result()
                answers[index] = (finished, response.epoch, response.request.kind,
                                  compact(response.request.kind, response.value))
            waiting.pop(index, None)  # drop the future and its full answer

        def ingest() -> None:
            for i, batch in enumerate(self.batches):
                pause = origin + (i + 1) * BATCH_EVERY_S - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                kernel_ms = self.kernel.time_ms()
                start = time.perf_counter()
                try:
                    service.ingest(batch)
                except Exception as exc:
                    self.failures.append(f"ingest {i} raised {type(exc).__name__}: {exc}")
                    continue
                ingests.append(((time.perf_counter() - start) * 1e3, kernel_ms))

        writer = threading.Thread(target=ingest, name="bench-ingest")
        self.attempted += len(self.batches) + reads
        writer.start()
        try:
            for i, read in enumerate(self.schedule):
                due[i] = origin + read.at
                pause = due[i] - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                late[i] = time.perf_counter() - due[i]
                request = Request(index=i, at=read.at, kind=read.kind, p=P, node=read.node)
                future = waiting[i] = service.submit(request)
                future.add_done_callback(lambda f, i=i: done(i, f))
            wait(list(waiting.values()), timeout=ANSWER_TIMEOUT_S)
        finally:
            writer.join()
        latency: Dict[int, float] = {}
        for i in range(reads):
            answer = answers.get(i)
            if answer is None:
                self.failures.append(f"read {i} unanswered")
            elif len(answer) == 2:
                exc = answer[1]
                self.failures.append(f"read {i} raised {type(exc).__name__}: {exc}")
            else:
                latency[i] = (answer[0] - due[i]) * 1e3
        return {
            "latency_ms": latency,
            "late_ms": [x * 1e3 for x in late],
            "ingests": ingests,
            "answers": [a[1:] for a in answers.values() if len(a) == 4],
        }

    def final_rounds(self, service) -> float:
        """Charged rounds of the final epoch's listing run (the one its
        learned reads use), through the public epoch API."""
        self.attempted += 1
        try:
            with service.read() as epoch:
                return epoch.listing_result(P).rounds
        except Exception as exc:
            self.failures.append(f"listing run raised {type(exc).__name__}: {exc}")
            return float("nan")

    def verify(self, answers) -> None:
        """Check each ``(epoch, kind, value)`` answer against a recompute
        of its pinned epoch."""
        from repro.graphs.table import CliqueTable

        truth: Dict[int, CliqueTable] = {}
        for epoch, kind, value in answers:
            if not 0 <= epoch <= len(self.batches):
                self.failures.append(f"read pinned unknown epoch {epoch}")
                continue
            if epoch not in truth:
                rows = triangles(replay_edges(self.stream, epoch), N)
                truth[epoch] = CliqueTable.from_rows(rows, p=P)
            problem = check(kind, value, truth[epoch])
            if problem is not None:
                self.failures.append(f"epoch {epoch}: {problem}")


def compact(kind: str, value):
    """A learned read's frozenset answer as ``(count, p)`` rows, so that
    holding answers for the check after the window costs little memory;
    counts and the epoch's shared tables are kept as they are."""
    if kind != "learned":
        return value
    rows = [sorted(clique) for clique in value]
    return np.array(rows, dtype=np.int64).reshape(len(rows), P)


def check(kind: str, value, truth) -> Optional[str]:
    """``None`` if a compacted answer agrees with ``truth``, else why not."""
    from repro.graphs.table import CliqueTable

    if kind == "count":
        return None if value == len(truth) else f"count {value} != {len(truth)}"
    if kind == "cliques":
        return None if value == truth else f"table of {len(value)} != truth {len(truth)}"
    if kind == "learned":
        if value.shape[0] == 0:
            return None
        learned = CliqueTable.from_rows(value, p=P)
        return None if learned.membership(truth).all() else "learned non-cliques"
    return f"unknown read kind {kind!r}"


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    bench = ServeRun(seed, seconds)
    setups, service = [], None
    for _ in range(1 if trace else SETUPS):
        out = bench.setup()
        if out is not None:
            service, raw_ms, kernel_ms = out
            setups.append((raw_ms, kernel_ms))
    if service is None:
        return _result(bench, {}, {"error": "no service could be set up"})

    tracer = Tracer() if trace else None
    compactions = service.engine.stats["compactions"]
    with service:
        if tracer is None:
            window = bench.window(service)
        else:
            with Instrumentation(tracer):
                window = bench.window(service)
    compactions = service.engine.stats["compactions"] - compactions
    peak = peak_rss_mb()
    rounds = bench.final_rounds(service)
    bench.verify(window["answers"])

    latency = list(window["latency_ms"].values())
    ingests = window["ingests"]
    context = {
        "reads": len(bench.schedule),
        "reads_answered": len(latency),
        "batches": len(bench.batches),
        "window_s": bench.schedule[-1].at,
        "m": int(bench.stream.base.shape[0]),
        "setup": section_summary(setups) if setups else {},
        "setups_raw_ms": [round(r, 3) for r, _ in setups],
        "setups_kernel_ms": [round(k, 3) for _, k in setups],
        "ingest": section_summary(ingests) if ingests else {},
        "ingests_raw_ms": [round(r, 3) for r, _ in ingests],
        "ingests_kernel_ms": [round(k, 3) for _, k in ingests],
        "read_ms": {q: percentile(latency, q) for q in (50, 75, 90, 95, 99)} if latency else {},
        "read_ms_mean": statistics.fmean(latency) if latency else None,
        "loadgen_late_ms_p99": percentile(window["late_ms"], 99),
        "compactions": compactions,
    }
    if tracer is not None:
        layers = serve_layers(tracer, window, compactions)
        context["spans"] = len(tracer.spans)
        return _result(bench, layers, context, tracer)
    metrics = {
        "setup_s": statistics.median(normalize(r, k) for r, k in setups) / 1e3,
        "latency_p50_ms": percentile(latency, 50) if latency else float("nan"),
        "ingest_p50_ms": statistics.median(normalize(r, k) for r, k in ingests)
        if ingests else float("nan"),
        "rounds": rounds,
        "peak_rss_mb": peak,
    }
    return _result(bench, metrics, context)


def _result(bench: ServeRun, metrics: Dict, context: Dict, tracer=None) -> Dict:
    out = {
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures,
        "metrics": metrics,
        "context": context,
    }
    if tracer is not None:
        out["tracer"] = tracer
    return out


def serve_layers(tracer: Tracer, window: Dict, compactions: int) -> Dict[str, float]:
    """Per-layer metrics of a traced window.

    Self times are means per op of the kind that ran them (reads for the
    query path, ingests for the write path); counters are window totals.
    """
    spans = tracer.spans
    layers = {f"{name}.self_ms": ms for name, ms in self_ms_per_op(spans).items()}
    layers.update(tracer.counters())
    latency = window["latency_ms"]
    service = {r[TAG]: (r[END] - r[START]) * 1e3 for r in spans if r[NAME] == "serve.handle"}
    waits = [latency[i] - service[i] for i in latency if i in service]
    handled = list(service.values())
    answered = list(latency.values())
    layers["serve.read_ms_p99"] = percentile(answered, 99) if answered else 0.0
    layers["serve.service_ms_p50"] = percentile(handled, 50) if handled else 0.0
    layers["serve.service_ms_p99"] = percentile(handled, 99) if handled else 0.0
    layers["serve.queue_wait_ms_p50"] = percentile(waits, 50) if waits else 0.0
    layers["serve.queue_wait_ms_p99"] = percentile(waits, 99) if waits else 0.0
    runs = sum(1 for r in spans if r[NAME] == "core.driver")
    learned = sum(1 for _, kind, _ in window["answers"] if kind == "learned")
    layers["serve.listing_runs"] = runs
    layers["serve.learned_hit_ratio"] = 1.0 - runs / learned if learned else 0.0
    layers["stream.compactions"] = compactions
    ordered = [latency[i] for i in sorted(latency)]
    decile = max(1, len(ordered) // 10)
    first = statistics.median(ordered[:decile]) if ordered else 0.0
    layers["loadgen.late_ms_p99"] = percentile(window["late_ms"], 99)
    layers["loadgen.backlog_ratio"] = (
        statistics.median(ordered[-decile:]) / first if first else 0.0
    )
    busy_ms = sum((r[END] - r[START]) * 1e3 for r in roots(spans))
    layers["trace.overhead_pct"] = (
        100.0 * len(spans) * span_cost_ms() / busy_ms if busy_ms else 0.0
    )
    return layers


def span_cost_ms(calls: int = 20000) -> float:
    """Measured cost of one traced call on this host: a wrapped no-op
    against the bare no-op, in ms per call."""
    tracer = Tracer()

    def noop():
        return None

    def traced():
        record = tracer.enter("calibration")
        try:
            return noop()
        finally:
            tracer.exit(record)

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - bare) * 1e3 / calls)
    return best
