"""Tests of the benchmark's own helpers.

Run from the repository root (the file name keeps it out of the
package's own test suite)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import statistics
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import drivers  # noqa: E402
import measure  # noqa: E402
import serving  # noqa: E402
from tracing import (  # noqa: E402
    END, NAME, OP, SID, START, Instrumentation, Tracer, self_ms_per_op, self_times,
)


# ----------------------------------------------------------------------
# Nearest-rank percentiles and sample counts
# ----------------------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(values, 100) == 100
    assert measure.percentile(list(range(13)), 50) == 6  # rank 7 of 13
    assert measure.percentile([5.0], 99) == 5.0


def test_percentile_ignores_input_order():
    assert measure.percentile([3, 1, 2], 50) == 2


def test_samples_beyond_the_rank():
    assert measure.beyond(99, 1000) == 10
    assert measure.beyond(99, 999) == 9
    assert measure.min_samples_for(99) == 1000
    assert measure.min_samples_for(50) == 20


@pytest.mark.parametrize("q, count", [(0, 5), (101, 5), (50, 0)])
def test_percentile_rejects_bad_input(q, count):
    with pytest.raises(ValueError):
        measure.nearest_rank(q, count)


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert measure.spread(values) == pytest.approx((q3 - q1) / q2)


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
def test_normalize_scales_to_the_reference_kernel():
    assert measure.normalize(500.0, 50.0) == pytest.approx(500.0)
    assert measure.normalize(500.0, 100.0) == pytest.approx(250.0)
    assert measure.normalize(500.0, 25.0, ref_ms=10.0) == pytest.approx(200.0)
    with pytest.raises(ValueError):
        measure.normalize(1.0, 0.0)


def test_timed_uses_the_mean_of_the_bracketing_passes():
    passes = iter([40.0, 60.0])
    kernel = types.SimpleNamespace(time_ms=lambda: next(passes))
    result, raw_ms, kernel_ms = measure.timed(kernel, lambda: "done")
    assert result == "done"
    assert raw_ms >= 0.0
    assert kernel_ms == pytest.approx(50.0)


def test_host_kernel_is_fixed():
    kernel = measure.HostKernel()
    assert kernel._nonzero == measure.HostKernel()._nonzero
    assert kernel.time_ms() > 0.0


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def _span(tracer, name, start, end, parent=None):
    record = tracer.enter(name, parent=parent)
    record[START], record[END] = start, end
    tracer.exit(record)
    record[END] = end  # exit stamps the real clock
    return record


def test_self_time_subtracts_children_on_the_same_thread_only():
    tracer = Tracer()
    root = tracer.enter("root")
    child = _span(tracer, "child", 1.0, 3.0)
    root[START] = 0.0
    tracer.exit(root)
    root[END] = 10.0
    remote = {}

    def other_thread():
        # Explicitly parented under ``root`` but run on another thread:
        # it overlaps the root's interval without eating its self time.
        outer = tracer.enter("remote", parent=root)
        inner = _span(tracer, "remote.inner", 5.0, 6.0)
        outer[START] = 4.0
        tracer.exit(outer)
        outer[END] = 8.0
        remote.update(outer=outer, inner=inner)

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()

    own = self_times(tracer.spans)
    assert own[root[SID]] == pytest.approx(8.0)  # 10 - child's 2
    assert own[child[SID]] == pytest.approx(2.0)
    assert own[remote["outer"][SID]] == pytest.approx(3.0)  # 4 - inner's 1
    assert own[remote["inner"][SID]] == pytest.approx(1.0)
    # All four spans belong to the root's op.
    assert {r[NAME]: r[OP] for r in tracer.spans} == dict.fromkeys(
        ("root", "child", "remote", "remote.inner"), root[SID]
    )


def test_self_ms_per_op_sums_to_the_op_time():
    tracer = Tracer()
    for offset in (0.0, 100.0):
        root = tracer.enter("op")
        _span(tracer, "layer", offset + 1.0, offset + 4.0)
        root[START] = offset
        tracer.exit(root)
        root[END] = offset + 10.0
    per_op = self_ms_per_op(tracer.spans)
    assert per_op == {"op": pytest.approx(7000.0), "layer": pytest.approx(3000.0)}
    assert sum(per_op.values()) == pytest.approx(10000.0)


def test_instrumentation_restores_every_original():
    from repro.core import congested_clique_listing as cc
    from repro.core.result import ListingResult

    before = (cc.grouped_clique_tables, ListingResult.__dict__["attribute"])
    with Instrumentation(Tracer()):
        assert cc.grouped_clique_tables is not before[0]
    assert (cc.grouped_clique_tables, ListingResult.__dict__["attribute"]) == before


# ----------------------------------------------------------------------
# Failed ops are counted
# ----------------------------------------------------------------------
TINY = drivers.DriverSpec(30, 0.4, 3, "congested-clique")


def _tiny(monkeypatch):
    monkeypatch.setattr(drivers, "SPECS", {"tiny": TINY})
    monkeypatch.setattr(drivers, "SETUPS", 1)


def _ingests(out) -> int:
    """Ingest samples of a driver run (attempted, never checked)."""
    return len(out["context"].get("ingests_raw_ms", []))


def test_a_forced_wrong_answer_is_a_failed_op(monkeypatch):
    _tiny(monkeypatch)
    correct = drivers.run("tiny", seed=1, seconds=0.0, trace=False)
    assert correct["failed"] == 0

    from repro.graphs.table import CliqueTable

    listing = drivers.DriverRun.op

    def drop_a_clique(self, graph, pseed):
        result = listing(self, graph, pseed)
        rows = result.table().rows[1:]
        return types.SimpleNamespace(
            rounds=result.rounds, table=lambda: CliqueTable.from_rows(rows, p=3)
        )

    monkeypatch.setattr(drivers.DriverRun, "op", drop_a_clique)
    wrong = drivers.run("tiny", seed=1, seconds=0.0, trace=False)
    checked = wrong["attempted"] - _ingests(wrong)
    assert wrong["failed"] == checked > 0
    assert all("truth" in message for message in wrong["failures"])


def test_rounds_that_move_between_repeats_fail(monkeypatch):
    _tiny(monkeypatch)
    listing = drivers.DriverRun.op
    calls = iter(range(1000))

    def drifting_rounds(self, graph, pseed):
        result = listing(self, graph, pseed)
        return types.SimpleNamespace(rounds=next(calls), table=result.table)

    monkeypatch.setattr(drivers.DriverRun, "op", drifting_rounds)
    out = drivers.run("tiny", seed=1, seconds=0.0, trace=False)
    assert out["failed"] > 0
    assert all("rounds" in message for message in out["failures"])


def test_an_op_that_raises_is_a_failed_op(monkeypatch):
    _tiny(monkeypatch)

    def broken(self, graph, pseed):
        raise RuntimeError("boom")

    monkeypatch.setattr(drivers.DriverRun, "op", broken)
    out = drivers.run("tiny", seed=1, seconds=0.0, trace=False)
    assert out["failed"] == out["attempted"] > 0
    assert _ingests(out) == 0


def test_serve_check_flags_wrong_answers():
    from repro.graphs.table import CliqueTable

    truth = CliqueTable.from_rows(np.array([[0, 1, 2], [1, 2, 3]]), p=3)
    assert serving.check("count", 2, truth) is None
    assert serving.check("count", 3, truth) is not None
    assert serving.check("cliques", truth, truth) is None
    assert serving.check("cliques", CliqueTable.from_rows(np.array([[0, 1, 2]]), p=3), truth)
    assert serving.check("learned", serving.compact("learned", frozenset()), truth) is None
    good = serving.compact("learned", frozenset({frozenset({1, 2, 3})}))
    bad = serving.compact("learned", frozenset({frozenset({0, 2, 3})}))
    assert serving.check("learned", good, truth) is None
    assert serving.check("learned", bad, truth) is not None
