"""Tests for the serve plane: epochs, service, traffic, driver."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.generators import complete_graph, erdos_renyi
from repro.graphs.graph import Graph
from repro.serve import (
    CliqueService,
    EpochSnapshot,
    Request,
    UntrackedSizeError,
    available_patterns,
    create_traffic,
    percentile,
    register_pattern,
    run_open_loop,
)
from repro.serve.traffic import TrafficPattern
from repro.stream import StreamEngine, UpdateBatch
from repro.workloads import create_workload

PATTERNS = ("uniform", "zipfian", "hotspot", "bursty")


def _service(n=20, seed=11, **kwargs):
    kwargs.setdefault("compact_every", 16)
    return CliqueService(erdos_renyi(n, 0.4, seed=seed), ps=(3,), **kwargs)


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------
class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([7.0], 99) == 7.0

    def test_order_independent(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)
        with pytest.raises(ValueError, match="in \\[0, 100\\]"):
            percentile([1.0], 101)


# ----------------------------------------------------------------------
# EpochSnapshot
# ----------------------------------------------------------------------
class TestEpochSnapshot:
    def _snap(self, n=18, seed=5):
        engine = StreamEngine(erdos_renyi(n, 0.4, seed=seed))
        engine.track(3, listing=True)
        return engine, self._publish(engine)

    @staticmethod
    def _publish(engine):
        return EpochSnapshot(
            epoch=engine.epoch,
            view=engine.frozen_view(),
            counts=engine.counts(),
            tables={3: engine.clique_table(3)},
        )

    def test_counts_and_tables(self):
        engine, snap = self._snap()
        assert snap.count(1) == engine.num_nodes
        assert snap.count(2) == engine.num_edges
        assert snap.count(3) == engine.count(3)
        assert snap.cliques(3) == frozenset(engine.cliques(3))
        assert snap.cliques(2) == frozenset(
            frozenset(e) for e in engine.graph().edges()
        )
        table = snap.clique_table(2)
        assert table.shape == (engine.num_edges, 2)

    def test_untracked_sizes_raise(self):
        _, snap = self._snap()
        with pytest.raises(UntrackedSizeError, match="p=4"):
            snap.count(4)
        with pytest.raises(UntrackedSizeError):
            snap.clique_table(5)
        with pytest.raises(UntrackedSizeError, match="p=4"):
            snap.listing_result(4)
        with pytest.raises(ValueError, match=">= 1"):
            snap.count(0)

    def test_clique_table_p1_is_always_available(self):
        _, snap = self._snap()
        rows = snap.clique_table(1)
        assert rows.tolist() == [[v] for v in range(snap.num_nodes)]
        assert rows is snap.table(1).rows

    @pytest.mark.parametrize("p", [0, -1])
    def test_clique_table_rejects_sizes_below_one(self, p):
        """Like ``count`` and ``table``: a size below 1 is a bad
        argument, not an untracked size."""
        _, snap = self._snap()
        with pytest.raises(ValueError, match=">= 1") as excinfo:
            snap.clique_table(p)
        assert not isinstance(excinfo.value, UntrackedSizeError)

    @pytest.mark.parametrize("p", [-1, 0, 1, 2])
    def test_listing_runs_reject_sizes_below_three(self, p):
        """The listing driver needs p >= 3: a run at p <= 2 is a bad
        argument, not an untracked size whose message calls p=1/p=2
        always available."""
        _, snap = self._snap()
        for read in (snap.listing_result, lambda p: snap.learned(0, p)):
            with pytest.raises(ValueError, match=">= 3") as excinfo:
                read(p)
            assert not isinstance(excinfo.value, UntrackedSizeError)

    @staticmethod
    def _run_rows(result):
        """Immutable copies of what a run answers, so a later read can
        show whether the run changed."""
        return (
            frozenset(result.cliques),
            {node: frozenset(c) for node, c in result.per_node.items()},
            [(ph.name, ph.rounds) for ph in result.ledger.phases()],
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_listing_result_is_a_fresh_run_cached_per_key(self, seed):
        _, snap = self._snap()
        result = snap.listing_result(3, seed=seed)
        fresh = list_cliques_congested_clique(snap.graph(), 3, seed=seed)
        assert self._run_rows(result) == self._run_rows(fresh)
        assert result.stats["precomputed_table"] == 1.0
        assert snap.listing_result(3, seed=seed) is result
        assert snap.listing_result(3, seed=seed + 1) is not result

    def test_listing_result_is_per_epoch(self):
        """An epoch published after a later apply runs its own listing;
        the earlier epoch keeps its run, which still matches its graph."""
        engine, before = self._snap()
        first = before.listing_result(3)
        first_rows = self._run_rows(first)
        triangle = sorted(next(iter(before.cliques(3))))
        engine.apply(UpdateBatch.deletes([(triangle[0], triangle[1])]))
        after = self._publish(engine)
        second = after.listing_result(3)
        assert second is not first
        assert second.cliques != first.cliques
        fresh = list_cliques_congested_clique(after.graph(), 3, seed=0)
        assert self._run_rows(second) == self._run_rows(fresh)
        assert before.listing_result(3) is first
        assert self._run_rows(first) == first_rows
        reference = list_cliques_congested_clique(before.graph(), 3, seed=0)
        assert self._run_rows(first) == self._run_rows(reference)

    def test_listing_result_reruns_when_only_m_changes(self):
        """An insert that closes no triangle leaves both epochs sharing
        one K_3 table, yet the later epoch runs its own listing: the
        ledger charges depend on m, not only on the cliques."""
        engine = StreamEngine(Graph(6, [(0, 1), (1, 2), (0, 2)]))
        engine.track(3, listing=True)

        def publish():
            return EpochSnapshot(
                epoch=engine.epoch,
                view=engine.frozen_view(),
                counts=engine.counts(),
                tables={3: engine.clique_result(3)},
            )

        before = publish()
        first = before.listing_result(3)
        engine.apply(UpdateBatch.inserts([(3, 4)]))
        after = publish()
        assert after.table(3) is before.table(3)
        second = after.listing_result(3)
        assert second.cliques == first.cliques
        assert self._run_rows(second) != self._run_rows(first)
        fresh = list_cliques_congested_clique(after.graph(), 3, seed=0)
        assert self._run_rows(second) == self._run_rows(fresh)

    def test_isolated_from_later_ingest(self):
        """The frozen view must not see batches applied after publish —
        the snapshot-isolation contract at the data layer."""
        engine, snap = self._snap()
        m = snap.count(2)
        triangles = snap.cliques(3)
        edges = sorted(engine.graph().edge_set())
        engine.apply(UpdateBatch.deletes(edges[:4]))
        assert snap.count(2) == m
        assert snap.cliques(3) == triangles
        assert engine.num_edges == m - 4

    def test_learned_is_attributed_subset(self):
        engine, snap = self._snap()
        all_cliques = snap.cliques(3)
        union = set()
        for v in range(snap.num_nodes):
            learned = snap.learned(v, 3)
            assert learned <= all_cliques
            union |= learned
        assert union == all_cliques
        with pytest.raises(ValueError, match="out of range"):
            snap.learned(snap.num_nodes, 3)


# ----------------------------------------------------------------------
# CliqueService: pinning and epoch GC
# ----------------------------------------------------------------------
class TestServiceEpochs:
    def test_pin_survives_later_ingest(self):
        service = _service()
        pinned = service.pin()
        m = pinned.count(2)
        edges = sorted(service.engine.graph().edge_set())
        service.ingest(UpdateBatch.deletes(edges[:3]))
        assert service.current_epoch == pinned.epoch + 1
        assert service.live_epochs() == 2  # pinned + current
        assert pinned.count(2) == m  # still answers from its epoch
        service.release(pinned)
        assert service.live_epochs() == 1
        assert service.stats.retired == 1

    def test_unpinned_epoch_retires_on_publish(self):
        service = _service()
        for i in range(3):
            service.ingest(UpdateBatch.inserts([(0, 10 + i)]))
        assert service.live_epochs() == 1
        assert service.stats.published == 4  # initial + 3 ingests
        assert service.stats.retired == 3

    def test_read_context_pins_and_releases(self):
        service = _service()
        with service.read() as epoch:
            assert epoch.epoch == service.current_epoch
            assert service._pins[epoch.epoch] == 1
        assert service._pins[epoch.epoch] == 0

    def test_double_release_raises(self):
        service = _service()
        pinned = service.pin()
        service.release(pinned)
        with pytest.raises(ValueError, match="double release"):
            service.release(pinned)

    def test_submit_requires_start(self):
        service = _service()
        request = Request(index=0, at=0.0, kind="count", p=3)
        with pytest.raises(RuntimeError, match="not started"):
            service.submit(request)
        with service:
            assert service.submit(request).result().value == service.engine.count(3)

    def test_handle_kinds_and_stats(self):
        service = _service()
        count = service.handle(Request(index=0, at=0.0, kind="count", p=3))
        cliques = service.handle(Request(index=1, at=0.0, kind="cliques", p=3))
        learned = service.handle(
            Request(index=2, at=0.0, kind="learned", p=3, node=0)
        )
        assert count.value == len(cliques.value)
        assert learned.value <= cliques.value
        assert service.stats.reads == 3
        assert service.stats.by_kind == {"count": 1, "cliques": 1, "learned": 1}
        with pytest.raises(ValueError, match="unknown request kind"):
            service.handle(Request(index=3, at=0.0, kind="drop", p=3))

    def test_accepts_existing_engine(self):
        engine = StreamEngine(complete_graph(6))
        service = CliqueService(engine, ps=(3, 4))
        assert service.engine is engine
        assert service.tracked_ps() == {3, 4}
        assert service.handle(
            Request(index=0, at=0.0, kind="count", p=4)
        ).value == 15

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one clique size"):
            CliqueService(complete_graph(5), ps=())
        with pytest.raises(ValueError, match="query_threads"):
            CliqueService(complete_graph(5), query_threads=0)


# ----------------------------------------------------------------------
# Concurrent correctness: no torn reads under interleaved ingest
# ----------------------------------------------------------------------
class TestConcurrentCorrectness:
    def test_every_response_matches_its_pinned_epoch(self):
        """The ISSUE-7 stress test: interleaved ingest + concurrent reads
        through the serve front end, every response equal to the
        fault-free differential answer for the epoch it pinned."""
        instance = create_workload("stream_churn").stream(48, seed=3)
        service = CliqueService(
            instance.base, ps=(3,), compact_every=32, query_threads=4
        )
        with service:
            report = run_open_loop(
                service,
                create_traffic("zipfian"),
                requests=160,
                rate=800.0,
                read_mix={"count": 0.5, "cliques": 0.35, "learned": 0.15},
                seed=1,
                ingest=instance.batches,
                verify=True,
            )
        assert report.completed == 160 and report.errors == 0
        assert report.verified and report.mismatches == []
        assert report.epochs_published == len(instance.batches) + 1
        assert report.epochs_observed[1] >= report.epochs_observed[0]
        assert report.max_live_epochs >= 1
        assert report.by_kind and sum(report.by_kind.values()) == 160
        assert "verified: every response matched" in report.summary()

    def test_reader_threads_pin_consistent_epochs(self):
        """Hammer reads from several threads while the main thread
        ingests: each response's (count, cliques) pair must be
        internally consistent for some single epoch."""
        service = _service(n=24, seed=7)
        truth = {}  # epoch -> triangle set, recorded before publish
        graph = service.engine.graph()
        truth[service.current_epoch] = frozenset(
            enumerate_cliques(graph, 3, backend="csr")
        )
        stop = threading.Event()
        problems = []

        def reader():
            while not stop.is_set():
                with service.read() as epoch:
                    got = epoch.cliques(3)
                    count = epoch.count(3)
                expected = truth.get(epoch.epoch)
                if count != len(got) or (expected is not None and got != expected):
                    problems.append(epoch.epoch)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        rng = np.random.default_rng(0)
        for _ in range(12):
            edges = sorted(graph.edge_set())
            drop = [edges[i] for i in rng.choice(len(edges), 2, replace=False)]
            batch = UpdateBatch.deletes(drop)
            graph.remove_edges(drop)
            truth[service.current_epoch + 1] = frozenset(
                enumerate_cliques(graph, 3, backend="csr")
            )
            service.ingest(batch)
            time.sleep(0.002)
        stop.set()
        for t in threads:
            t.join()
        assert problems == []


# ----------------------------------------------------------------------
# Traffic patterns
# ----------------------------------------------------------------------
class TestTrafficPatterns:
    def test_registry(self):
        assert set(available_patterns()) >= set(PATTERNS)
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            create_traffic("tsunami")
        with pytest.raises(TypeError, match="unknown parameter"):
            create_traffic("uniform", theta=2.0)

    def test_register_rejects_duplicates_and_anonymous(self):
        class Unnamed(TrafficPattern):
            def _keys(self, count, n, rng):  # pragma: no cover
                return np.zeros(count, dtype=int)

        with pytest.raises(ValueError, match="non-empty"):
            register_pattern(Unnamed)

        class Imposter(TrafficPattern):
            name = "uniform"

            def _keys(self, count, n, rng):  # pragma: no cover
                return np.zeros(count, dtype=int)

        with pytest.raises(ValueError, match="already registered"):
            register_pattern(Imposter)

    @pytest.mark.parametrize("name", PATTERNS)
    def test_schedule_shape_and_reproducibility(self, name):
        pattern = create_traffic(name)
        a = pattern.schedule(64, 100.0, 32, [3], seed=4)
        b = pattern.schedule(64, 100.0, 32, [3], seed=4)
        assert a == b
        assert [r.index for r in a] == list(range(64))
        assert all(0 <= r.node < 32 for r in a)
        assert all(r.p == 3 for r in a)
        ats = [r.at for r in a]
        assert ats == sorted(ats) and ats[0] >= 0
        # offered rate is respected in the long run (Poisson: generous slack)
        assert 64 / (3.0 * 100.0) < ats[-1] < 3.0 * 64 / 100.0
        assert pattern.schedule(64, 100.0, 32, [3], seed=5) != a

    def test_kind_mix_and_p_cycling(self):
        schedule = create_traffic("uniform").schedule(
            300, 1000.0, 16, [3, 4], read_mix={"count": 1.0}, seed=0
        )
        assert {r.kind for r in schedule} == {"count"}
        assert [r.p for r in schedule[:4]] == [3, 4, 3, 4]

    def test_zipfian_is_skewed_uniform_is_not(self):
        n, count = 64, 4000
        zipf = create_traffic("zipfian", theta=1.2).schedule(
            count, 1000.0, n, [3], seed=0
        )
        uni = create_traffic("uniform").schedule(count, 1000.0, n, [3], seed=0)

        def top_share(schedule):
            _, freq = np.unique([r.node for r in schedule], return_counts=True)
            return np.sort(freq)[-n // 10 :].sum() / len(schedule)

        assert top_share(zipf) > 0.5 > top_share(uni)

    def test_hotspot_concentration(self):
        n = 50
        schedule = create_traffic(
            "hotspot", hot_fraction=0.1, hot_weight=0.9
        ).schedule(3000, 1000.0, n, [3], seed=1)
        _, freq = np.unique([r.node for r in schedule], return_counts=True)
        hot_size = n // 10
        assert np.sort(freq)[-hot_size:].sum() / len(schedule) > 0.8

    def test_bursty_preserves_long_run_rate(self):
        rate, count = 500.0, 640
        schedule = create_traffic("bursty", burst=16).schedule(
            count, rate, 32, [3], seed=2
        )
        gaps = np.diff([0.0] + [r.at for r in schedule])
        # clustered: many tiny intra-burst gaps, a few long quiet ones
        assert np.percentile(gaps, 75) < np.mean(gaps) / 2
        assert gaps.max() > 4 * np.mean(gaps)
        span = schedule[-1].at
        assert count / (3.0 * rate) < span < 3.0 * count / rate

    def test_schedule_validation(self):
        pattern = create_traffic("uniform")
        with pytest.raises(ValueError, match="count >= 1"):
            pattern.schedule(0, 100.0, 8, [3])
        with pytest.raises(ValueError, match="rate must be > 0"):
            pattern.schedule(8, 0.0, 8, [3])
        with pytest.raises(ValueError, match="clique size"):
            pattern.schedule(8, 100.0, 8, [])
        with pytest.raises(ValueError, match="unknown request kind"):
            pattern.schedule(8, 100.0, 8, [3], read_mix={"delete": 1.0})
        with pytest.raises(ValueError, match="sum to > 0"):
            pattern.schedule(8, 100.0, 8, [3], read_mix={"count": 0.0})
        with pytest.raises(ValueError, match="theta"):
            create_traffic("zipfian", theta=-1.0).schedule(8, 100.0, 8, [3])
        with pytest.raises(ValueError, match="hot_fraction"):
            create_traffic("hotspot", hot_fraction=0.0).schedule(8, 100.0, 8, [3])
        with pytest.raises(ValueError, match="spread"):
            create_traffic("bursty", spread=1.0).schedule(8, 100.0, 8, [3])

    def test_describe(self):
        assert create_traffic("zipfian").describe() == {
            "pattern": "zipfian",
            "theta": 1.1,
        }


# ----------------------------------------------------------------------
# Driver report plumbing
# ----------------------------------------------------------------------
class TestRunOpenLoop:
    def test_report_fields_without_verify(self):
        service = _service(n=16, seed=2)
        with service:
            report = run_open_loop(
                service,
                create_traffic("uniform"),
                requests=40,
                rate=2000.0,
                seed=0,
            )
        assert report.requests == report.completed == 40
        assert report.errors == 0 and not report.verified
        assert report.sustained_qps > 0
        assert 0 <= report.p50_ms <= report.p99_ms <= report.max_ms
        assert report.pattern == {"pattern": "uniform"}
        assert "latency: p50" in report.summary()
        assert "verified" not in report.summary()

    def test_waits_for_every_done_callback(self, monkeypatch):
        # A future wakes its waiters before it runs its done-callbacks.
        # Late callbacks on the query threads make a wait on the futures
        # alone return before the last responses are recorded.
        original = Future._invoke_callbacks

        def late_callbacks(future):
            if threading.current_thread().name.startswith("serve-query"):
                time.sleep(0.05)
            original(future)

        monkeypatch.setattr(Future, "_invoke_callbacks", late_callbacks)
        service = _service(n=16, seed=2)
        with service:
            report = run_open_loop(
                service,
                create_traffic("uniform"),
                requests=40,
                rate=2000.0,
                seed=0,
                verify=True,
            )
        assert report.completed == report.requests == 40
        assert report.errors == 0 and report.verified and not report.mismatches
