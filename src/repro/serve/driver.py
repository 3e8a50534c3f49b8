"""The mixed read+ingest open-loop driver and its latency report.

:func:`run_open_loop` plays one finite traffic schedule against a
:class:`~repro.serve.service.CliqueService` while an ingest thread
applies update batches spread across the same window — the serve
plane's end-to-end harness.  Latency is measured **open-loop**: each
request has a scheduled arrival instant fixed up front, and its latency
is completion minus schedule, so a service that falls behind pays the
queueing delay in its tail percentiles instead of silently shedding
load (the closed-loop fallacy).

With ``verify=True`` the driver also maintains the fault-free
differential answer for *every epoch* (a shadow graph replayed
batch-for-batch, recounted/relisted from scratch), and checks each
response against the expected answer **for the epoch it pinned** — the
no-torn-reads contract: a response may be one epoch behind the newest
ingest, but it must be exactly right for the epoch it claims.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.graphs.cliques import enumerate_cliques
from repro.graphs.table import CliqueTable
from repro.serve.service import CliqueService, Response
from repro.serve.traffic import TrafficPattern, create_traffic
from repro.stream.log import UpdateBatch


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))  # ceil without floats
    return ordered[rank - 1]


@dataclass
class ServeReport:
    """Outcome of one open-loop run: latency distribution + epoch facts."""

    pattern: Dict[str, object]
    requests: int
    completed: int
    errors: int
    offered_qps: float
    sustained_qps: float
    duration_s: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    by_kind: Dict[str, int] = field(default_factory=dict)
    epochs_published: int = 0
    epochs_retired: int = 0
    max_live_epochs: int = 0
    epochs_observed: Tuple[int, int] = (0, 0)
    verified: bool = False
    mismatches: List[str] = field(default_factory=list)

    def summary(self) -> str:
        kinds = " ".join(f"{k}={v}" for k, v in sorted(self.by_kind.items()))
        lines = [
            f"pattern: {self.pattern}",
            f"requests: {self.completed}/{self.requests} completed "
            f"({self.errors} errors)  kinds: {kinds}",
            f"offered {self.offered_qps:.0f} rps -> sustained "
            f"{self.sustained_qps:.0f} rps over {self.duration_s:.2f}s",
            f"latency: p50 {self.p50_ms:.2f} ms  p99 {self.p99_ms:.2f} ms  "
            f"max {self.max_ms:.2f} ms",
            f"epochs: observed {self.epochs_observed[0]}..."
            f"{self.epochs_observed[1]}, published {self.epochs_published}, "
            f"retired {self.epochs_retired}, max live {self.max_live_epochs}",
        ]
        if self.verified:
            state = (
                "every response matched its pinned epoch's recompute"
                if not self.mismatches
                else f"{len(self.mismatches)} MISMATCH(ES): "
                + "; ".join(self.mismatches[:3])
            )
            lines.append(f"verified: {state}")
        return "\n".join(lines)


class _EpochOracle:
    """Fault-free differential answers, one entry per epoch.

    The shadow graph replays exactly the batches the service ingests;
    each epoch's expected clique sets are recomputed from scratch
    (``enumerate_cliques`` through the CSR backend), never incrementally
    — so agreement means the engine's incremental maintenance, the
    frozen epoch views and the concurrent plumbing all line up.
    """

    def __init__(self, service: CliqueService) -> None:
        self._ps = sorted(p for p in service.tracked_ps() if p >= 3)
        self._shadow = service.engine.graph()
        self._lock = threading.Lock()
        self._expected: Dict[int, Dict[int, frozenset]] = {}
        self._snap(service.current_epoch)

    def _snap(self, epoch: int) -> None:
        answers = {
            p: frozenset(enumerate_cliques(self._shadow, p, backend="csr"))
            for p in self._ps
        }
        with self._lock:
            self._expected[epoch] = answers

    def advance(self, epoch: int, batch: UpdateBatch) -> None:
        """Fold one batch into the shadow and record ``epoch``'s truth.
        Must run *before* the service publishes ``epoch``."""
        ins, dels = batch.net_against(self._shadow.has_edge)
        self._shadow.remove_edges(map(tuple, dels.tolist()))
        self._shadow.add_edges(map(tuple, ins.tolist()))
        self._snap(epoch)

    def check(self, response: Response) -> Optional[str]:
        """None if the response matches its pinned epoch, else a message."""
        with self._lock:
            answers = self._expected.get(response.epoch)
        if answers is None:
            return f"epoch {response.epoch} has no recorded truth"
        request = response.request
        expected = answers.get(request.p)
        if expected is None:
            return None  # p outside the verified sizes
        if request.kind == "count":
            if response.value != len(expected):
                return (
                    f"count(p={request.p})@{response.epoch}: got "
                    f"{response.value}, expected {len(expected)}"
                )
        elif request.kind == "cliques":
            value = response.value
            if isinstance(value, CliqueTable):
                # Non-materializing services answer with the epoch's
                # frozen table; verify against the same set truth.
                value = value.as_frozenset()
            if value != expected:
                return (
                    f"cliques(p={request.p})@{response.epoch}: got "
                    f"{len(value)} cliques, expected {len(expected)}"
                )
        elif request.kind == "learned":
            if not response.value <= expected:
                return (
                    f"learned(node={request.node}, p={request.p})"
                    f"@{response.epoch}: output contains non-cliques"
                )
        return None


def run_open_loop(
    service: CliqueService,
    pattern: TrafficPattern,
    requests: int,
    rate: float,
    read_mix: Optional[Mapping[str, float]] = None,
    seed: int = 0,
    ingest: Sequence[UpdateBatch] = (),
    verify: bool = False,
) -> ServeReport:
    """One finite open-loop run: reads on the schedule, ingest interleaved.

    The ingest batches are spread evenly across the request window on
    their own thread; reads are submitted at their scheduled instants
    and never wait for ingest (nor vice versa).  Returns the
    :class:`ServeReport`; with ``verify=True`` every response is checked
    against the differential answer for its pinned epoch and mismatches
    are recorded (callers decide whether to raise).
    """
    schedule = pattern.schedule(
        requests, rate, service.num_nodes, sorted(service.tracked_ps()),
        read_mix=read_mix, seed=seed,
    )
    window = schedule[-1].at
    oracle = _EpochOracle(service) if verify else None

    batches = list(ingest)
    origin = time.perf_counter()

    def run_ingest() -> None:
        for i, batch in enumerate(batches):
            due = origin + window * (i + 1) / (len(batches) + 1)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if oracle is not None:
                # Record the truth for the epoch this batch creates
                # before any reader can pin it.
                oracle.advance(service.engine.epoch + 1, batch)
            service.ingest(batch)

    ingester = threading.Thread(target=run_ingest, name="serve-ingest")
    ingester.start()

    done_lock = threading.Lock()
    outcomes: List[Tuple[Response, float]] = []
    errors: List[BaseException] = []
    # A future wakes its waiters before it runs its done-callbacks, so
    # the run waits on the callbacks: each one releases this once.
    recorded = threading.Semaphore(0)

    def on_done(future, scheduled: float) -> None:
        try:
            finished = time.perf_counter()
            exc = future.exception()
            with done_lock:
                if exc is not None:
                    errors.append(exc)
                else:
                    outcomes.append((future.result(), finished - scheduled))
        finally:
            recorded.release()

    for request in schedule:
        scheduled = origin + request.at
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        future = service.submit(request)
        future.add_done_callback(lambda f, s=scheduled: on_done(f, s))
    for _ in schedule:
        recorded.acquire()
    ingester.join()

    duration = max(
        time.perf_counter() - origin, window, 1e-9
    )
    latencies = [latency for _, latency in outcomes]
    by_kind: Dict[str, int] = {}
    epochs = [response.epoch for response, _ in outcomes]
    for response, _ in outcomes:
        kind = response.request.kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
    mismatches: List[str] = []
    if oracle is not None:
        for response, _ in outcomes:
            problem = oracle.check(response)
            if problem is not None:
                mismatches.append(problem)
    stats = service.stats
    return ServeReport(
        pattern=pattern.describe(),
        requests=len(schedule),
        completed=len(outcomes),
        errors=len(errors),
        offered_qps=float(rate),
        sustained_qps=len(outcomes) / duration,
        duration_s=duration,
        p50_ms=1e3 * percentile(latencies, 50) if latencies else float("nan"),
        p99_ms=1e3 * percentile(latencies, 99) if latencies else float("nan"),
        max_ms=1e3 * max(latencies) if latencies else float("nan"),
        by_kind=by_kind,
        epochs_published=stats.published,
        epochs_retired=stats.retired,
        max_live_epochs=stats.max_live,
        epochs_observed=(min(epochs), max(epochs)) if epochs else (0, 0),
        verified=verify,
        mismatches=mismatches,
    )


def demo_report(
    n: int = 96,
    seed: int = 0,
    requests: int = 320,
    rate: float = 600.0,
    pattern: str = "zipfian",
    ps: Sequence[int] = (3,),
    query_threads: int = 4,
    verify: bool = True,
) -> Tuple[ServeReport, CliqueService]:
    """The ``repro.cli serve --demo`` workload: zipfian reads (counts,
    clique sets and per-node learned subgraphs) against churn ingest
    from the ``stream_churn`` family, every response differentially
    verified for its pinned epoch."""
    from repro.workloads import create_workload

    instance = create_workload("stream_churn").stream(n, seed=seed)
    service = CliqueService(
        instance.base, ps=ps, compact_every=64, query_threads=query_threads
    )
    with service:
        report = run_open_loop(
            service,
            create_traffic(pattern),
            requests=requests,
            rate=rate,
            read_mix={"count": 0.5, "cliques": 0.35, "learned": 0.15},
            seed=seed,
            ingest=instance.batches,
            verify=verify,
        )
    return report, service
