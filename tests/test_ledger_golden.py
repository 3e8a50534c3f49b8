"""Golden ledger rows: charged rounds pinned across commits.

Every other differential suite compares two planes, modes or overlays
*within* one tree, so a change that moved a stat key or a round count
on every plane at once would pass all of them.  This suite compares the
full ledger rows of a fixed set of runs — phase name, rounds, makespan,
recovery flag and stats in insertion order — with a checked-in JSON
fixture under ``tests/fixtures/ledger_rows/``:

- the Theorem 1.3 driver (K3, ``er`` n=40) and the generic CONGEST
  driver (K3, ``planted`` n=40, ``stop_scale=0.1``), each clean, under
  bounded drop/corruption faults, on ``spanner:2`` and on
  ``ring@bw=2,lat=1``;
- the K4 variant (``er`` n=60);
- direct ``route`` / ``route_batch`` / ``charge_batch`` /
  ``charge_for_word_load`` calls on a 17-node clique and on a
  12-of-40-member cluster router, on three overlays, with and without
  the fault model.

Rows are compared as canonical JSON, so an int that turns into a float
fails as loudly as a changed value.  Regenerate the fixture only for an
intended ledger change::

    PYTHONPATH=src python tests/test_ledger_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np
import pytest

from repro.congest.batch import MessageBatch
from repro.congest.congested_clique import CongestedClique
from repro.congest.ledger import RoundLedger
from repro.congest.routing import ClusterRouter, CostModel
from repro.congest.topology import parse_topology
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.listing import list_cliques_congest
from repro.core.params import K4_VARIANT, AlgorithmParameters
from repro.faults import FaultModel
from repro.workloads import create_workload

FIXTURE = Path(__file__).parent / "fixtures" / "ledger_rows" / "ledger_rows.json"
NOTE = (
    "Ledger rows per run: [name, rounds, makespan, recovery, [[stat, value], ...]]. "
    "Written by tests/test_ledger_golden.py --write."
)

#: The bounded-rate model of the fault-differential suite.
FAULTS = FaultModel(seed=7, drop_rate=0.05, corruption_rate=0.02, retry_budget=12)

#: Driver configurations: name -> ExecutionConfig keyword arguments.
DRIVER_CONFIGS = {
    "clean": {},
    "faults": {"faults": FAULTS},
    "spanner:2": {"topology": "spanner:2"},
    "ring@bw=2,lat=1": {"topology": "ring@bw=2,lat=1"},
}

#: Overlays for the direct router calls (None = no topology attached).
DIRECT_TOPOLOGIES = (None, "star", "grid:4@bw=3")


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"unexpected stat type {type(value).__name__}")


def canonical_rows(ledger: RoundLedger) -> List[str]:
    """One canonical JSON line per phase row, stats in insertion order."""
    return [
        json.dumps(
            [ph.name, ph.rounds, ph.makespan, ph.recovery, list(ph.stats.items())],
            default=_jsonable,
        )
        for ph in ledger.phases()
    ]


def _cc_run(config: str) -> RoundLedger:
    g = create_workload("er").instance(40, seed=0)
    params = AlgorithmParameters(p=3, execution=ExecutionConfig(**DRIVER_CONFIGS[config]))
    return list_cliques_congested_clique(g, 3, seed=0, params=params).ledger


def _congest_run(config: str) -> RoundLedger:
    g = create_workload("planted").instance(40, seed=0)
    params = AlgorithmParameters(
        p=3, stop_scale=0.1, execution=ExecutionConfig(**DRIVER_CONFIGS[config])
    )
    return list_cliques_congest(g, 3, seed=0, params=params).ledger


def _k4_run() -> RoundLedger:
    g = create_workload("er").instance(60, seed=3)
    params = AlgorithmParameters(p=4, variant=K4_VARIANT)
    return list_cliques_congest(g, 4, seed=3, params=params).ledger


def _pattern(lookup: np.ndarray, n: int, seed: int, size: int) -> MessageBatch:
    rng = np.random.default_rng(seed)
    return MessageBatch.of_edges(
        src=lookup[rng.integers(0, lookup.size, size=size)],
        dst=lookup[rng.integers(0, lookup.size, size=size)],
        endpoints=rng.integers(0, n, size=(size, 2)).astype(np.uint32),
    )


def _direct_clique(topology, faulted: bool) -> RoundLedger:
    n = 17
    net = CongestedClique(
        n,
        faults=FAULTS if faulted else None,
        topology=None if topology is None else parse_topology(topology),
    )
    lookup = np.arange(n, dtype=np.int64)
    extra = np.arange(n, dtype=np.int64) % 3
    ledger = RoundLedger()
    net.route(
        _pattern(lookup, n, 0, 90).to_object_messages(), ledger, "route",
        words_per_message=2, extra_send_words=extra, parts=4,
    )
    net.route_batch(
        _pattern(lookup, n, 1, 120), ledger, "route_batch",
        extra_recv_words=extra, fake_edges=5,
    )
    net.charge_batch(_pattern(lookup, n, 2, 150), ledger, "charge_batch", parts=2)
    net.charge_for_word_load(ledger, "word_load", 29, tag=1)
    return ledger


def _direct_cluster(topology, faulted: bool) -> RoundLedger:
    n = 40
    members = sorted(np.random.default_rng(5).choice(n, size=12, replace=False).tolist())
    router = ClusterRouter(
        members,
        capacity=3,
        n=n,
        cost_model=CostModel(routing_slack=1.5),
        faults=FAULTS if faulted else None,
        topology=None if topology is None else parse_topology(topology),
    )
    lookup = np.asarray(members, dtype=np.int64)
    ledger = RoundLedger()
    router.route(
        _pattern(lookup, n, 3, 80).to_object_messages(), ledger, "route",
        words_per_message=2,
    )
    router.route_batch(_pattern(lookup, n, 4, 110), ledger, "route_batch")
    router.charge_batch(_pattern(lookup, n, 5, 140), ledger, "charge_batch")
    router.charge_for_word_load(ledger, "word_load", 23, tag=2)
    return ledger


def _runs() -> Dict[str, Callable[[], RoundLedger]]:
    runs: Dict[str, Callable[[], RoundLedger]] = {}
    for config in DRIVER_CONFIGS:
        runs[f"cc/er40/p3/{config}"] = lambda c=config: _cc_run(c)
    for config in DRIVER_CONFIGS:
        runs[f"congest/planted40/p3/{config}"] = lambda c=config: _congest_run(c)
    runs["congest/er60/k4"] = _k4_run
    for kind, build in (("clique", _direct_clique), ("cluster", _direct_cluster)):
        for topology in DIRECT_TOPOLOGIES:
            for faulted in (False, True):
                name = f"direct/{kind}/{topology or 'none'}/{'faults' if faulted else 'clean'}"
                runs[name] = lambda b=build, t=topology, f=faulted: b(t, f)
    return runs


RUNS = _runs()


@pytest.fixture(scope="module")
def golden() -> Dict[str, List[str]]:
    """The fixture's rows, re-serialized canonically."""
    payload = json.loads(FIXTURE.read_text())
    return {
        name: [json.dumps(row) for row in rows] for name, rows in payload["runs"].items()
    }


def test_fixture_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("run", list(RUNS))
def test_ledger_rows_match_fixture(golden, run):
    expected = golden[run]
    actual = canonical_rows(RUNS[run]())
    for index, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, f"run {run!r}, row {index} differs:\n  want {want}\n  got  {got}"
    assert len(actual) == len(expected), (
        f"run {run!r}: {len(actual)} rows, fixture has {len(expected)}"
    )


def write_fixture() -> None:
    """Regenerate the fixture from the current tree, one row per line."""
    runs = ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(canonical_rows(build())) + "\n]"
        for name, build in RUNS.items()
    )
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(f'{{\n"note": {json.dumps(NOTE)},\n"runs": {{\n{runs}\n}}\n}}\n')


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_ledger_golden.py --write")
    write_fixture()
