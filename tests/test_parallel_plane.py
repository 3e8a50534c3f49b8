"""Differential tests: parallel shard plane vs single-core batch plane.

The parallel plane must be a *drop-in* for the batch plane: identical
ledger charges (phase names, rounds, stats), identical clique sets and
per-node attribution from both end-to-end drivers, identical maintained
stream counts — across every static workload family, several seeds, and
including the ``workers=1`` degenerate mode.  The shard threshold is
forced to zero throughout so even toy instances exercise the real pool
path (shared-memory transport, worker-side delivery, shard merge).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.congest.batch import MessageBatch, fanout_edges_by_pair
from repro.congest.congested_clique import CongestedClique
from repro.congest.ledger import RoundLedger
from repro.congest.routing import ClusterRouter
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import (
    list_cliques_congested_clique,
    num_parts_for_clique,
)
from repro.core.listing import default_parameters, list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.core.partition import (
    owner_mailboxes,
    pair_index_array,
    pair_recipient_lists,
)
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.csr import (
    clique_table_from_edge_array,
    count_cliques_csr,
    grouped_clique_tables,
    predict_root_work,
    prepare_edge_array,
)
from repro.graphs.generators import erdos_renyi
from repro.parallel import (
    ArrayRef,
    ShardExecutor,
    balanced_ranges,
    get_executor,
    mem_ref,
    range_weights,
    resolved,
    share,
    sharing,
)
from repro.parallel import executor as executor_mod
from repro.parallel import shm as shm_mod
from repro.stream import StreamEngine
from repro.workloads import (
    available_stream_workloads,
    available_workloads,
    create_workload,
)

STATIC_FAMILIES = sorted(
    set(available_workloads()) - set(available_stream_workloads())
)
SEEDS = (0, 1, 2)
WORKERS = (1, 2)


@pytest.fixture
def force_sharding(monkeypatch):
    """Drop the shard thresholds so toy instances hit the real pool."""
    monkeypatch.setattr(executor_mod, "MIN_PARALLEL_ITEMS", 0)
    monkeypatch.setattr(executor_mod, "MIN_PARALLEL_COUNT", 0)


def ledger_rows(result):
    return [(ph.name, ph.rounds, ph.stats) for ph in result.ledger.phases()]


def sorted_listing(result):
    return sorted(sorted(c) for c in result.cliques)


def parallel_params(p, workers, **kw):
    return AlgorithmParameters(
        p=p, execution=ExecutionConfig(plane="parallel", workers=workers), **kw
    )


def rows_as_set(owners, table):
    return set(zip(owners.tolist(), map(tuple, table.tolist())))


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
class TestShardPlanning:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_ranges_cover_and_balance(self, seed, shards):
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, 50, size=40)
        ranges = balanced_ranges(weights, shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == 40
        for (a, b), (c, _d) in zip(ranges, ranges[1:]):
            assert a <= b == c  # contiguous, non-overlapping, in order
        total = float(weights.sum())
        heaviest = float(weights.max())
        # A contiguous split can never beat (ideal + heaviest item).
        assert max(range_weights(ranges, weights)) <= total / len(ranges) + heaviest

    def test_zero_weights_split_by_count(self):
        assert balanced_ranges([0, 0, 0, 0], 2) == [(0, 2), (2, 4)]

    def test_empty_and_clamped(self):
        assert balanced_ranges([], 3) == [(0, 0)]
        assert balanced_ranges([5, 5], 8) == [(0, 1), (1, 2)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            balanced_ranges([1, 2], 0)
        with pytest.raises(ValueError):
            balanced_ranges([1, -2], 2)


# ----------------------------------------------------------------------
# Shared-memory transport
# ----------------------------------------------------------------------
class TestSharedMemoryTransport:
    def test_mem_ref_round_trip(self):
        arr = np.arange(12, dtype=np.int64).reshape(3, 4)
        with resolved({"a": mem_ref(arr)}) as views:
            assert np.array_equal(views["a"], arr)

    def test_shm_round_trip(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "SHM_MIN_BYTES", 0)
        arr = np.arange(100, dtype=np.uint32).reshape(25, 4)
        ref, block = share(arr)
        try:
            assert ref.kind == "shm" and ref.nbytes == arr.nbytes
            with resolved({"a": ref}) as views:
                copied = views["a"].copy()
            assert np.array_equal(copied, arr)
        finally:
            block.close()

    def test_small_arrays_ride_the_pickle_lane(self):
        ref, block = share(np.arange(4))
        assert ref.kind == "mem" and block is None
        ref, block = share(np.empty(0, dtype=np.int64))
        assert ref.kind == "mem" and block is None

    def test_sharing_context_cleans_up(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "SHM_MIN_BYTES", 0)
        with sharing({"x": np.arange(64, dtype=np.int64)}) as refs:
            assert refs["x"].kind == "shm"
            name = refs["x"].name
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_array_ref_validation(self):
        with pytest.raises(ValueError):
            ArrayRef(kind="disk", shape=(1,), dtype="int64")
        with pytest.raises(ValueError):
            ArrayRef(kind="shm", shape=(1,), dtype="int64", name="")
        with pytest.raises(ValueError):
            ArrayRef(kind="mem", shape=(1,), dtype="int64")


# ----------------------------------------------------------------------
# Executor kernels vs their serial twins
# ----------------------------------------------------------------------
class TestExecutorKernels:
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("p", [3, 4])
    def test_grouped_tables_parity(self, force_sharding, workers, p):
        rng = np.random.default_rng(7 * p + workers)
        counts = rng.integers(0, 60, size=9)
        indptr = np.zeros(10, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        edges = rng.integers(0, 30, size=(int(indptr[-1]), 2))
        edges[:, 1] = (edges[:, 1] + 1 + edges[:, 0]) % 31
        serial = grouped_clique_tables(indptr, edges, p)
        sharded = get_executor(workers).fanout_tables(indptr, edges, p)
        assert rows_as_set(*serial) == rows_as_set(*sharded)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_clique_table_parity(self, force_sharding, workers):
        g = create_workload("er", density=0.15).instance(80, seed=3)
        edges = g.to_csr().edge_table()
        serial = clique_table_from_edge_array(edges, 3)
        sharded = get_executor(workers).clique_table(edges, 3)
        assert sorted(map(tuple, serial.tolist())) == sorted(
            map(tuple, sharded.tolist())
        )
        # A goal subset rides to the workers as the named goal_bits array.
        goal = edges[np.random.default_rng(workers).random(edges.shape[0]) < 0.3]
        serial = clique_table_from_edge_array(edges, 3, goal)
        sharded = get_executor(workers).clique_table(edges, 3, goal)
        assert 0 < serial.shape[0] < clique_table_from_edge_array(edges, 3).shape[0]
        assert sorted(map(tuple, serial.tolist())) == sorted(
            map(tuple, sharded.tolist())
        )

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_count_parity(self, force_sharding, workers, p):
        g = create_workload("er", density=0.2).instance(90, seed=1)
        serial = count_cliques_csr(g.to_csr(), p)
        sharded = get_executor(workers).count_csr(g.to_csr(), p)
        assert serial == sharded

    @pytest.mark.parametrize("workers", WORKERS)
    def test_fanout_tables_parity(self, force_sharding, workers):
        """The §2.4.3 owner mailboxes: central list vs sharded workers."""
        g = create_workload("er").instance(60, seed=5)
        csr = g.to_csr()
        fptr, findices = csr.forward()
        n = g.num_nodes
        s = num_parts_for_clique(n, 3)
        rng = np.random.default_rng(11)
        part = rng.integers(0, s, size=n).astype(np.int64)
        edge_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(fptr))
        batch = fanout_edges_by_pair(
            edge_src,
            findices,
            pair_index_array(part[edge_src], part[findices], s),
            pair_recipient_lists(s, 3),
        )
        _owners, indptr, payload = owner_mailboxes(batch, part, s, 3)
        central = grouped_clique_tables(indptr, payload, 3, assume_unique=True)
        sharded = get_executor(workers).fanout_tables(
            indptr, payload, 3, assume_unique=True
        )
        assert central[1].shape[0] > 0
        assert rows_as_set(*central) == rows_as_set(*sharded)

    def test_empty_inputs(self, force_sharding):
        executor = get_executor(2)
        owners, table = executor.fanout_tables(
            np.zeros(11, dtype=np.int64), np.empty((0, 2), dtype=np.uint32), 3
        )
        assert owners.size == 0 and table.shape == (0, 3)
        assert executor.clique_table(np.empty((0, 2), dtype=np.int64), 3).shape == (0, 3)

    def test_task_kernels_run_in_process(self):
        """The worker task functions directly, on inline refs — the exact
        code pool children execute, minus the pool."""
        from repro.parallel import tasks

        g = create_workload("er", density=0.2).instance(60, seed=9)
        csr = g.to_csr()
        fptr, findices = csr.forward()
        bits = csr.forward_bits()
        refs = {
            "fptr": mem_ref(fptr),
            "findices": mem_ref(findices),
            "bits": mem_ref(bits),
        }
        m = int(findices.size)
        halves = [(0, m // 2), (m // 2, m)]
        total = sum(
            tasks.invoke(tasks.forward_count_shard, refs, (lo, hi, 3))
            for lo, hi in halves
        )
        assert total == count_cliques_csr(csr, 3)
        tables = [tasks.forward_table_shard(refs, lo, hi, 3) for lo, hi in halves]
        assert sum(t.shape[0] for t in tables) == total

        rng = np.random.default_rng(3)
        counts = rng.integers(1, 30, size=6)
        indptr = np.zeros(7, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        edges = rng.integers(0, 20, size=(int(indptr[-1]), 2))
        edges[:, 1] = (edges[:, 1] + 1 + edges[:, 0]) % 21
        grefs = {"indptr": mem_ref(indptr), "edges": mem_ref(edges)}
        merged = [
            tasks.grouped_tables_shard(grefs, lo, hi, 3, False)
            for lo, hi in ((0, 3), (3, 6))
        ]
        serial = grouped_clique_tables(indptr, edges, 3)
        combined = (
            np.concatenate([o for o, _t in merged]),
            np.concatenate([t for _o, t in merged]) if any(
                t.shape[0] for _o, t in merged
            ) else np.empty((0, 3), dtype=np.int64),
        )
        assert rows_as_set(*serial) == rows_as_set(*combined)

    def test_daemon_processes_fall_back_inline(self, force_sharding, monkeypatch):
        monkeypatch.setattr(executor_mod, "_in_daemon", lambda: True)
        executor = ShardExecutor(2)
        assert not executor.parallel
        g = create_workload("er", density=0.2).instance(60, seed=0)
        assert executor.count_csr(g.to_csr(), 3) == count_cliques_csr(g.to_csr(), 3)
        assert executor._pool is None  # never forked a child

    def test_executor_validation_and_registry(self):
        with pytest.raises(ValueError):
            ShardExecutor(0)
        assert get_executor(None) is get_executor(1)
        assert get_executor(2) is get_executor(2)
        assert repr(ShardExecutor(3)).startswith("ShardExecutor(workers=3")

    def test_close_is_idempotent_and_reusable(self, force_sharding):
        executor = ShardExecutor(2)
        g = create_workload("er", density=0.2).instance(60, seed=2)
        first = executor.count_csr(g.to_csr(), 3)
        executor.close()
        executor.close()
        assert executor.count_csr(g.to_csr(), 3) == first

    def test_registry_shutdown_and_default_workers(self, force_sharding):
        from repro.parallel import default_workers, shutdown_executors

        executor = get_executor(2)
        shutdown_executors()
        assert executor._pool is None  # pool torn down, executor reusable
        assert get_executor(2) is not executor  # registry was cleared
        assert default_workers() >= 1


# ----------------------------------------------------------------------
# The dispatch decision: predicted work, work-cut slices, narrow tables
# ----------------------------------------------------------------------
def spread_edges(k, seed=0):
    """Edges that compact to exactly ``k`` vertices (ids spread out, so
    compaction relabels them), with triangles on the highest ids."""
    rng = np.random.default_rng(seed)
    ids = 7 + 3 * np.arange(k)
    pairs = np.array([(i, i + 1) for i in range(k - 1)] + [(k - 3, k - 1)])
    extra = rng.integers(0, k, size=(20 * k, 2))
    pairs = np.concatenate([pairs, extra[extra[:, 0] != extra[:, 1]]])
    return ids[pairs]


@pytest.fixture(scope="module")
def congest_k4_listing():
    """The CONGEST in-cluster K4 listing of the CLI's ER n=160, density
    0.5 instance on a two-process pool: its edge and goal arrays, every
    ``_run`` dispatch (task, shard count) and the pool and inline results."""
    g = erdos_renyi(160, 0.5, seed=0)
    params = default_parameters(4)
    calls, runs = [], []
    table, run = ShardExecutor.clique_table, ShardExecutor._run

    def spy_table(self, edges, p, goal=None):
        calls.append((np.asarray(edges), p, goal))
        return table(self, edges, p, goal)

    def spy_run(self, fn, arrays, shard_args):
        runs.append((fn.__name__, len(shard_args)))
        return run(self, fn, arrays, shard_args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ShardExecutor, "clique_table", spy_table)
        mp.setattr(ShardExecutor, "_run", spy_run)
        pooled = list_cliques_congest(
            g, 4, params=replace(params, execution=ExecutionConfig(workers=2)), seed=0
        )
    inline = list_cliques_congest(g, 4, params=params, seed=0)
    ((edges, p, goal),) = calls
    return {"edges": edges, "goal": goal, "runs": runs, "pooled": pooled, "inline": inline}


def spy_runs(monkeypatch):
    """Record every ``ShardExecutor._run`` dispatch as (task, shards)."""
    runs, run = [], ShardExecutor._run

    def spy_run(self, fn, arrays, shard_args):
        runs.append((fn.__name__, len(shard_args)))
        return run(self, fn, arrays, shard_args)

    monkeypatch.setattr(ShardExecutor, "_run", spy_run)
    return runs


class TestDispatchDecision:
    @pytest.mark.parametrize("k", [255, 256, 257])
    @pytest.mark.parametrize("plane", ["pool", "cluster"])
    def test_narrow_tables_at_dtype_boundaries(self, force_sharding, monkeypatch, k, plane):
        from repro.dist import Cluster, LocalNode

        edges = spread_edges(k)
        assert np.unique(edges).size == k
        runner = get_executor(2) if plane == "pool" else Cluster([LocalNode(), LocalNode()])
        dtypes, run = [], type(runner)._run

        def spy_run(self, fn, arrays, shard_args):
            results = run(self, fn, arrays, shard_args)
            dtypes.extend(t.dtype for t in results)
            return results

        monkeypatch.setattr(type(runner), "_run", spy_run)
        try:
            for p in (3, 4):
                expected = clique_table_from_edge_array(edges, p)
                got = runner.clique_table(edges, p)
                assert expected.shape[0] > 0
                assert got.dtype == np.int64 and np.array_equal(got, expected)
        finally:
            if plane == "cluster":
                runner.close()
        narrow = np.uint8 if k <= 256 else np.uint16
        assert len(dtypes) >= 4 and set(dtypes) == {np.dtype(narrow)}

    def test_theorem_13_instance_lists_inline_without_a_pool(self):
        """The cc_er1500_p3 listing (one mailbox, ~0.27 M predicted
        word-equivalents) is below the floor: no pool is ever forked."""
        executor = get_executor(2)
        executor.close()
        g = erdos_renyi(1500, 0.01, seed=0)
        pooled = list_cliques_congested_clique(g, 3, params=parallel_params(3, 2), seed=0)
        assert executor._pool is None
        inline = list_cliques_congested_clique(g, 3, seed=0)
        assert pooled.per_node == inline.per_node
        assert ledger_rows(pooled) == ledger_rows(inline)

    def test_congest_k4_instance_lists_inline(self, congest_k4_listing):
        """The CONGEST in-cluster K4 listing (~2.6 M predicted) is below
        the floor, so a two-process pool configuration lists it inline."""
        assert congest_k4_listing["runs"] == []
        pooled, inline = congest_k4_listing["pooled"], congest_k4_listing["inline"]
        assert pooled.per_node == inline.per_node
        assert ledger_rows(pooled) == ledger_rows(inline)

    def test_tcp_instance_shards_its_listing_but_not_its_count(self, monkeypatch):
        """ER n=2000, p_edge 0.05 (the TCP bench's listing and the
        recount bench's count, ~3.9 M predicted) sits between the floors:
        its K3 listing shards, its K3 count runs inline."""
        csr = erdos_renyi(2000, 0.05, seed=0).to_csr()
        fptr, findices = csr.forward()
        work = predict_root_work(fptr, findices, csr.forward_bits(), 3)
        assert executor_mod.MIN_PARALLEL_ITEMS <= work.total < executor_mod.MIN_PARALLEL_COUNT
        runs = spy_runs(monkeypatch)
        executor = get_executor(2)
        edges = csr.edge_table()
        table = executor.clique_table(edges, 3)
        assert np.array_equal(table, clique_table_from_edge_array(edges, 3))
        assert executor.count_csr(csr, 3) == table.shape[0]
        assert runs == [("forward_table_shard", 2)]

    def test_heavy_count_shards(self, monkeypatch):
        """A K4 count of ER n=700, p_edge 0.2 (~10 M predicted) shards."""
        csr = erdos_renyi(700, 0.2, seed=1).to_csr()
        runs = spy_runs(monkeypatch)
        assert get_executor(2).count_csr(csr, 4) == count_cliques_csr(csr, 4)
        assert runs == [("forward_count_shard", 2)]

    @pytest.mark.parametrize("p", [3, 4, 5])
    @pytest.mark.parametrize("with_goal", [False, True])
    def test_step_one_predicts_every_level_exactly(self, p, with_goal):
        edges = erdos_renyi(70, 0.35, seed=p).to_csr().edge_table()
        rng = np.random.default_rng(p)
        goal = edges[rng.random(edges.shape[0]) < 0.3] if with_goal else None
        prepared = prepare_edge_array(edges, goal)
        expected = [clique_table_from_edge_array(edges, k).shape[0] for k in range(3, p)]
        expected.append(clique_table_from_edge_array(edges, p, goal).shape[0])
        work = predict_root_work(
            prepared.fptr, prepared.findices, prepared.bits, p,
            goal_bits=prepared.goal_bits, step=1,
        )
        assert work.rows.tolist() == expected
        assert work.weights.shape == prepared.findices.shape

    def test_work_cut_slices_balance_the_k4_listing(self, congest_k4_listing):
        prepared = prepare_edge_array(congest_k4_listing["edges"], congest_k4_listing["goal"])
        args = (prepared.fptr, prepared.findices, prepared.bits, 4, prepared.goal_bits)
        predicted = predict_root_work(*args)
        exact = predict_root_work(*args, step=1)
        slices = balanced_ranges(predicted.weights, 2)
        for weights in (predicted.weights, exact.weights):
            low, high = sorted(range_weights(slices, weights))
            assert high <= 1.15 * low
        # Uniform slices (the old cut) are far apart on this listing.
        low, high = sorted(range_weights(balanced_ranges(np.ones(exact.weights.size), 2), exact.weights))
        assert high > 1.5 * low


# ----------------------------------------------------------------------
# Charging parity: charge_batch vs route_batch
# ----------------------------------------------------------------------
class TestChargeBatchParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_congested_clique_charges_identically(self, seed):
        rng = np.random.default_rng(seed)
        n = 19
        batch = MessageBatch.of_edges(
            src=rng.integers(0, n, size=300).astype(np.int64),
            dst=rng.integers(0, n, size=300).astype(np.int64),
            endpoints=rng.integers(0, n, size=(300, 2)).astype(np.uint32),
        )
        net = CongestedClique(n)
        routed, charged = RoundLedger(), RoundLedger()
        net.route_batch(batch, routed, "t", parts=3)
        net.charge_batch(batch, charged, "t", parts=3)
        assert [(p.name, p.rounds, p.stats) for p in routed.phases()] == [
            (p.name, p.rounds, p.stats) for p in charged.phases()
        ]

    def test_congested_clique_charge_validates_endpoints(self):
        net = CongestedClique(4)
        bad = MessageBatch.of_edges(
            src=np.array([0]), dst=np.array([9]),
            endpoints=np.zeros((1, 2), dtype=np.uint32),
        )
        with pytest.raises(ValueError):
            net.charge_batch(bad, RoundLedger(), "t")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cluster_router_charges_identically(self, seed):
        rng = np.random.default_rng(seed)
        members = sorted(rng.choice(30, size=9, replace=False).tolist())
        lookup = np.asarray(members, dtype=np.int64)
        batch = MessageBatch.of_edges(
            src=lookup[rng.integers(0, len(members), size=120)],
            dst=lookup[rng.integers(0, len(members), size=120)],
            endpoints=rng.integers(0, 30, size=(120, 2)).astype(np.uint32),
        )
        router = ClusterRouter(members, capacity=2, n=30)
        routed, charged = RoundLedger(), RoundLedger()
        router.route_batch(batch, routed, "t")
        router.charge_batch(batch, charged, "t")
        assert [(p.name, p.rounds, p.stats) for p in routed.phases()] == [
            (p.name, p.rounds, p.stats) for p in charged.phases()
        ]

    def test_cluster_router_charge_validates_membership(self):
        router = ClusterRouter([1, 2, 3], capacity=1, n=10)
        bad = MessageBatch.of_edges(
            src=np.array([1]), dst=np.array([7]),
            endpoints=np.zeros((1, 2), dtype=np.uint32),
        )
        with pytest.raises(ValueError):
            router.charge_batch(bad, RoundLedger(), "t")


# ----------------------------------------------------------------------
# End-to-end drivers: the ISSUE-5 differential matrix
# ----------------------------------------------------------------------
class TestDriverParity:
    """All 6 static families × 3 seeds, parallel vs batch — ledger rows
    and sorted listings exactly equal, including workers=1."""

    @pytest.mark.parametrize("family", STATIC_FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_congested_clique_driver(self, force_sharding, family, seed):
        g = create_workload(family).instance(48, seed=seed)
        batch = list_cliques_congested_clique(g, 3, seed=seed)
        par = list_cliques_congested_clique(
            g, 3, params=parallel_params(3, workers=2), seed=seed
        )
        assert par.cliques == batch.cliques == enumerate_cliques(g, 3)
        assert sorted_listing(par) == sorted_listing(batch)
        assert par.per_node == batch.per_node
        assert ledger_rows(par) == ledger_rows(batch)

    @pytest.mark.parametrize("family", STATIC_FAMILIES)
    def test_workers_one_degenerate_case(self, force_sharding, family):
        g = create_workload(family).instance(48, seed=0)
        batch = list_cliques_congested_clique(g, 3, seed=0)
        degenerate = list_cliques_congested_clique(
            g, 3, params=parallel_params(3, workers=1), seed=0
        )
        assert sorted_listing(degenerate) == sorted_listing(batch)
        assert degenerate.per_node == batch.per_node
        assert ledger_rows(degenerate) == ledger_rows(batch)

    @pytest.mark.parametrize("p", [4, 5])
    def test_higher_p_parity(self, force_sharding, p):
        g = create_workload("er").instance(40, seed=7)
        batch = list_cliques_congested_clique(g, p, seed=7)
        par = list_cliques_congested_clique(
            g, p, params=parallel_params(p, workers=2), seed=7
        )
        assert sorted_listing(par) == sorted_listing(batch)
        assert ledger_rows(par) == ledger_rows(batch)

    def test_fake_edge_padding_parity(self, force_sharding):
        g = create_workload("sparse").instance(40, seed=3)
        batch = list_cliques_congested_clique(
            g, 3, seed=3, pad_fake_edges=True
        )
        par = list_cliques_congested_clique(
            g, 3, params=parallel_params(3, workers=2), seed=3, pad_fake_edges=True
        )
        assert sorted_listing(par) == sorted_listing(batch)
        assert ledger_rows(par) == ledger_rows(batch)
        assert par.stats["fake_edges"] > 0

    def test_precomputed_table_parity(self, force_sharding):
        g = create_workload("er").instance(40, seed=4)
        table = g.to_csr().clique_table(3)
        batch = list_cliques_congested_clique(
            g, 3, seed=4, precomputed_table=table
        )
        par = list_cliques_congested_clique(
            g, 3, params=parallel_params(3, workers=2), seed=4,
            precomputed_table=table,
        )
        assert par.per_node == batch.per_node
        assert ledger_rows(par) == ledger_rows(batch)
        assert par.stats["precomputed_table"] == 1.0

    @pytest.mark.parametrize("family", ["er", "caveman", "planted"])
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_congest_driver(self, force_sharding, family, seed):
        g = create_workload(family).instance(40, seed=seed)
        batch = list_cliques_congest(g, 3, seed=seed)
        par = list_cliques_congest(
            g, 3,
            params=parallel_params(3, workers=2, variant="generic"),
            seed=seed,
        )
        assert par.cliques == batch.cliques == enumerate_cliques(g, 3)
        assert par.per_node == batch.per_node
        assert ledger_rows(par) == ledger_rows(batch)

    def test_unknown_plane_and_bad_workers_rejected(self):
        g = create_workload("er").instance(16, seed=0)
        with pytest.raises(ValueError):
            list_cliques_congested_clique(
                g, 3,
                params=AlgorithmParameters(3, execution=ExecutionConfig(plane="vector")),
            )
        with pytest.raises(ValueError):
            AlgorithmParameters(p=3, execution=ExecutionConfig(workers=0))


# ----------------------------------------------------------------------
# Streaming: sharded baseline counts and compaction-time recounts
# ----------------------------------------------------------------------
class TestStreamWorkers:
    def _replay(self, workers):
        instance = create_workload("stream_churn").stream(96, seed=2)
        engine = StreamEngine(
            instance.base, compact_every=32, workers=workers,
            recount_on_compact=True,
        )
        engine.track(3)
        engine.track(4)
        for batch in instance.batches:
            engine.apply(batch)
        return engine

    def test_workers_match_serial_engine(self, force_sharding):
        serial = self._replay(workers=1)
        sharded = self._replay(workers=2)
        assert serial.count(3) == sharded.count(3)
        assert serial.count(4) == sharded.count(4)
        assert serial.stats == sharded.stats
        assert sharded.stats["recounts"] > 0

    def test_recount_detects_drift(self, force_sharding):
        engine = self._replay(workers=2)
        engine._counts[3] += 1  # simulate a maintenance bug
        with pytest.raises(RuntimeError, match="drifted"):
            engine.recount()

    def test_recount_compacts_pending_overlay_first(self):
        instance = create_workload("stream_churn").stream(64, seed=1)
        engine = StreamEngine(instance.base, compact_every=10**9)
        engine.track(3)
        engine.apply(instance.batches[0])
        assert engine.overlay.delta_size > 0
        recounted = engine.recount()
        assert recounted[3] == engine.count(3)
        assert engine.overlay.delta_size == 0

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            StreamEngine(create_workload("er").instance(8, seed=0), workers=0)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliWorkers:
    def test_stream_workers_flag(self, capsys, force_sharding):
        from repro.cli import main

        assert (
            main(
                [
                    "stream", "--family", "stream_churn", "--n", "64",
                    "--p", "3", "--workers", "2", "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr()
        assert "recount check(s)" in out.out
        assert "verified" in out.err

    def test_sweep_workers_flag(self, capsys, tmp_path, force_sharding):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep", "--workloads", "sparse", "--n", "24", "--p", "3",
                    "--jobs", "1", "--workers", "2", "--model",
                    "congested-clique", "--cache-dir", str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        assert "sparse" in capsys.readouterr().out

    def test_workers_flags_validated(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--workloads", "sparse", "--n", "8", "--p", "3",
                  "--workers", "0", "--cache-dir", ""])
        with pytest.raises(SystemExit):
            main(["stream", "--family", "stream_churn", "--n", "16",
                  "--workers", "0"])
