"""Differential tests: distributed execution plane vs batch/parallel.

The dist plane must be a *drop-in* for the batch and parallel planes:
identical ledger charges (phase names, rounds, stats — byte-identical
rows), identical clique sets and per-node attribution from both
end-to-end drivers — across every static workload family, several
seeds, including the degenerate one-LocalNode mode and a forced
node-failure-with-retry.  The shard threshold is forced to zero
throughout so toy instances exercise real cluster dispatch.

Out-of-core: :class:`~repro.dist.PartitionedCSR` listings off
``np.memmap`` must equal the in-memory ``CSRGraph`` results
byte-for-byte, in both the bitset and the sorted (past
``BITSET_MAX_NODES``) regimes.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.listing import list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.dist import (
    Cluster,
    ClusterError,
    CSRPartition,
    HostSpecError,
    LocalNode,
    NodeFailure,
    PartitionedCSR,
    ProtocolError,
    SubprocessNode,
    TaskError,
    UnknownTaskError,
    get_cluster,
    parse_host,
    register_cluster,
    spawn_local_tcp,
    validate_host_specs,
    write_partitioned,
)
from repro.dist import protocol
from repro.dist.registry import TASKS, resolve_task
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.csr import (
    BITSET_MAX_NODES,
    clique_table_from_edge_array,
    count_cliques_csr,
    grouped_clique_tables,
)
from repro.parallel import executor as executor_mod
from repro.parallel import get_executor
from repro.workloads import (
    available_stream_workloads,
    available_workloads,
    create_workload,
)

STATIC_FAMILIES = sorted(
    set(available_workloads()) - set(available_stream_workloads())
)
SEEDS = (0, 1, 2)


@pytest.fixture
def force_sharding(monkeypatch):
    """Drop the shard threshold so toy instances hit real dispatch —
    the cluster kernels read the same module global as the pool."""
    monkeypatch.setattr(executor_mod, "MIN_PARALLEL_ITEMS", 0)


@pytest.fixture
def two_locals():
    """A 2-LocalNode cluster registered behind a synthetic hosts key, so
    ``ExecutionConfig(hosts=...)`` routes the drivers to it."""
    hosts = ("test-local-a", "test-local-b")
    cluster = Cluster([LocalNode(), LocalNode()], name="test-2local")
    register_cluster(hosts, cluster)
    yield hosts, cluster
    cluster.close()


def ledger_rows(result):
    return [(ph.name, ph.rounds, ph.stats) for ph in result.ledger.phases()]


def sorted_listing(result):
    return sorted(sorted(c) for c in result.cliques)


def dist_params(p, hosts, **kw):
    return AlgorithmParameters(
        p=p, execution=ExecutionConfig(plane="dist", hosts=hosts), **kw
    )


def rows_sorted(table):
    return sorted(map(tuple, np.asarray(table).tolist()))


class FailingOnceNode(LocalNode):
    """Dies (NodeFailure) on its first call — the retry the differential
    suite forces.  Subsequent calls never happen: the cluster marks it
    dead and requeues the shard on a survivor."""

    def __init__(self):
        super().__init__(name="failing-once")
        self.failures = 0

    def call(self, task, arrays, args):
        if self.failures == 0:
            self.failures += 1
            self.alive = False
            raise NodeFailure("injected transport failure", node=self.name)
        return super().call(task, arrays, args)


class LyingNode(LocalNode):
    """Returns a corrupted copy of the true result — caught only by the
    redundant dispatch's agreement check, never by transport health."""

    def call(self, task, arrays, args):
        value = super().call(task, arrays, args)
        if isinstance(value, np.ndarray) and value.size:
            value = value.copy()
            value.flat[0] += 1
        elif isinstance(value, (int, np.integer)):
            value = int(value) + 1
        return value


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
class TestProtocol:
    @pytest.mark.parametrize(
        "message",
        [
            ("ping",),
            ("ok", {"a": 1, "b": [1.5, None, "x"]}),
            ("call", "task", {"arr": np.arange(7, dtype=np.int64)}, [0, 3, True]),
        ],
    )
    def test_pickle_frame_round_trip(self, message):
        stream = io.BytesIO()
        protocol.write_frame(stream, message, protocol.PICKLE_TAG)
        stream.seek(0)
        decoded, tag = protocol.read_frame(stream)
        assert tag == protocol.PICKLE_TAG
        if isinstance(message[-1], dict) or (
            len(message) > 2 and isinstance(message[2], dict)
        ):
            assert decoded[0] == message[0]
        else:
            assert decoded[:2] == message[:2]

    def test_array_payload_survives(self):
        array = np.arange(24, dtype=np.int64).reshape(4, 6)
        stream = io.BytesIO()
        protocol.write_frame(
            stream, ("ok", {"table": array}), protocol.default_codec_tag()
        )
        stream.seek(0)
        decoded, _ = protocol.read_frame(stream)
        assert np.array_equal(decoded[1]["table"], array)

    def test_eof_on_clean_close(self):
        with pytest.raises(EOFError):
            protocol.read_frame(io.BytesIO())

    def test_eof_mid_frame(self):
        stream = io.BytesIO()
        protocol.write_frame(stream, ("ping",), protocol.PICKLE_TAG)
        truncated = io.BytesIO(stream.getvalue()[:-1])
        with pytest.raises(EOFError):
            protocol.read_frame(truncated)

    def test_corrupt_header_rejected(self):
        bogus = protocol.HEADER.pack(protocol.MAX_FRAME_BYTES + 1) + b"P"
        with pytest.raises(ProtocolError):
            protocol.read_frame(io.BytesIO(bogus))

    def test_unknown_codec_tag_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode(("ping",), b"Z")
        with pytest.raises(ProtocolError):
            protocol.decode(b"x", b"Z")

    def test_default_codec_matches_availability(self):
        if protocol.msgpack_available():
            assert protocol.default_codec_tag() == protocol.MSGPACK_TAG
        else:
            assert protocol.default_codec_tag() == protocol.PICKLE_TAG

    @pytest.mark.skipif(
        not protocol.msgpack_available(), reason="msgpack not installed"
    )
    def test_msgpack_array_ext(self):  # pragma: no cover - env-dependent
        array = np.arange(10, dtype=np.uint32).reshape(2, 5)
        payload = protocol.encode({"a": array}, protocol.MSGPACK_TAG)
        decoded = protocol.decode(payload, protocol.MSGPACK_TAG)
        assert np.array_equal(decoded["a"], array)


# ----------------------------------------------------------------------
# Task registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_allowlisted_task_resolves(self):
        for name in TASKS:
            assert callable(resolve_task(name))

    def test_unknown_task_rejected(self):
        with pytest.raises(UnknownTaskError):
            resolve_task("os.system")

    def test_worker_never_executes_callables(self):
        node = LocalNode()
        with pytest.raises(UnknownTaskError):
            node.call("not-a-task", {}, ())


# ----------------------------------------------------------------------
# Nodes: transports and the failure split
# ----------------------------------------------------------------------
class TestLocalNode:
    def test_executes_allowlisted_kernel(self):
        edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        indptr = np.array([0, 3], dtype=np.int64)
        node = LocalNode()
        owners, table = node.call(
            "grouped_tables_shard",
            {"indptr": indptr, "edges": edges},
            (0, 1, 3, False),
        )
        assert table.shape == (1, 3) and node.calls == 1

    def test_ping_and_close(self):
        node = LocalNode()
        assert node.ping()
        node.close()
        assert not node.ping() and not node.alive
        assert "dead" in repr(node)


class TestSubprocessNode:
    def test_ping_call_shutdown(self):
        node = SubprocessNode()
        try:
            assert node.ping()
            edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
            indptr = np.array([0, 3], dtype=np.int64)
            owners, table = node.call(
                "grouped_tables_shard",
                {"indptr": indptr, "edges": edges},
                (0, 1, 3, False),
            )
            assert table.shape == (1, 3)
            with pytest.raises(TaskError):
                node.call("grouped_tables_shard", {}, (0, 1))  # missing refs
        finally:
            node.close()
        assert not node.alive

    def test_dead_transport_is_node_failure(self):
        node = SubprocessNode()
        node._proc.kill()
        node._proc.wait()
        with pytest.raises(NodeFailure):
            node.call("grouped_tables_shard", {}, (0, 0, 3, False))
        assert not node.alive
        assert not node.ping()
        node.close()


class TestTcpNodes:
    def test_spawned_workers_round_trip(self):
        nodes = spawn_local_tcp(2)
        try:
            assert all(node.ping() for node in nodes)
            edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
            results = [
                node.call("forward_count_shard", {
                    "fptr": np.array([0, 2, 3, 3], dtype=np.int64),
                    "findices": np.array([1, 2, 2], dtype=np.int64),
                    "bits": _bits_for(edges, 3),
                }, (0, 3, 3))
                for node in nodes
            ]
            assert all(int(r) == 1 for r in results)
        finally:
            for node in nodes:
                node.close()
        assert all(not node.alive for node in nodes)

    def test_connect_refused_is_node_failure(self):
        from repro.dist.node import TcpNode

        with pytest.raises(NodeFailure):
            TcpNode("127.0.0.1", 1, connect_timeout=0.5)


def _bits_for(edges, n):
    from repro.graphs.csr import pack_bitset_rows

    fptr = np.array([0, 2, 3, 3], dtype=np.int64)
    findices = np.array([1, 2, 2], dtype=np.int64)
    return pack_bitset_rows(fptr, findices, n)


# ----------------------------------------------------------------------
# Host-spec grammar
# ----------------------------------------------------------------------
class TestHostSpecs:
    def test_local_spec(self):
        node = parse_host("local")
        assert isinstance(node, LocalNode)
        node.close()

    @pytest.mark.parametrize(
        "spec",
        ["", "  ", "justahost", ":", "host:", "host:notaport", "host:0",
         "host:70000", "tcp://:99"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(HostSpecError):
            validate_host_specs([spec])
        with pytest.raises((HostSpecError, NodeFailure)):
            parse_host(spec)

    def test_host_spec_error_is_value_error(self):
        with pytest.raises(ValueError):
            validate_host_specs(["host:notaport"])

    def test_validate_normalizes_without_connecting(self):
        specs = validate_host_specs(
            [" local ", "spawn", "subprocess", "tcp://box:9000", "box2:9001"]
        )
        assert specs == ("local", "spawn", "subprocess", "tcp://box:9000", "box2:9001")


# ----------------------------------------------------------------------
# Cluster dispatch, retry, redundancy
# ----------------------------------------------------------------------
class TestCluster:
    def test_needs_nodes(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_map_task_preserves_input_order(self):
        cluster = Cluster([LocalNode(), LocalNode()])
        fptr = np.array([0, 2, 3, 3], dtype=np.int64)
        findices = np.array([1, 2, 2], dtype=np.int64)
        arrays = {
            "fptr": fptr, "findices": findices,
            "bits": _bits_for(None, 3),
        }
        results = cluster.map_task(
            "forward_count_shard", arrays, [(0, 3, 3), (0, 0, 3), (0, 3, 3)]
        )
        assert [int(r) for r in results] == [1, 0, 1]
        assert cluster.stats["dispatched"] == 3

    def test_failed_node_retries_on_survivor(self):
        failing = FailingOnceNode()
        cluster = Cluster([failing, LocalNode()])
        arrays = {
            "fptr": np.array([0, 2, 3, 3], dtype=np.int64),
            "findices": np.array([1, 2, 2], dtype=np.int64),
            "bits": _bits_for(None, 3),
        }
        results = cluster.map_task(
            "forward_count_shard", arrays, [(0, 3, 3)] * 4
        )
        assert [int(r) for r in results] == [1, 1, 1, 1]
        assert cluster.stats["retries"] >= 1
        assert cluster.failed_nodes() == ("failing-once",)
        assert cluster.health_check()["failing-once"] is False

    def test_all_nodes_dead_raises_cluster_error(self):
        nodes = [LocalNode(), LocalNode()]
        cluster = Cluster(nodes)
        for node in nodes:
            node.alive = False
        with pytest.raises(ClusterError) as excinfo:
            cluster.map_task("forward_count_shard", {}, [(0, 0, 3)])
        assert excinfo.value.pending == 1

    def test_task_error_propagates_without_retry(self):
        cluster = Cluster([LocalNode(), LocalNode()])
        with pytest.raises(UnknownTaskError):
            cluster.map_task("no-such-task", {}, [(1,), (2,)])
        # Both nodes stay alive: a task bug is not a transport failure.
        assert len(cluster.alive_nodes()) == 2

    def test_redundant_agreement(self):
        cluster = Cluster([LocalNode(), LocalNode(), LocalNode()])
        arrays = {
            "fptr": np.array([0, 2, 3, 3], dtype=np.int64),
            "findices": np.array([1, 2, 2], dtype=np.int64),
            "bits": _bits_for(None, 3),
        }
        results = cluster.map_task_redundant(
            "forward_count_shard", arrays, [(0, 3, 3), (0, 0, 3)], redundancy=3
        )
        assert [int(r) for r in results] == [1, 0]

    def test_redundant_catches_lying_node(self):
        cluster = Cluster([LocalNode(), LyingNode()])
        arrays = {
            "fptr": np.array([0, 2, 3, 3], dtype=np.int64),
            "findices": np.array([1, 2, 2], dtype=np.int64),
            "bits": _bits_for(None, 3),
        }
        with pytest.raises(ClusterError, match="disagreement"):
            cluster.map_task_redundant(
                "forward_count_shard", arrays, [(0, 3, 3)], redundancy=2
            )

    def test_redundancy_needs_enough_nodes(self):
        cluster = Cluster([LocalNode()])
        with pytest.raises(ClusterError):
            cluster.map_task_redundant("forward_count_shard", {}, [(0, 0, 3)])

    def test_context_manager_closes_nodes(self):
        nodes = [LocalNode(), LocalNode()]
        with Cluster(nodes) as cluster:
            assert cluster.parallel
        assert all(not node.alive for node in nodes)

    def test_registry_and_resolver(self):
        degenerate = get_cluster(())
        assert get_cluster(()) is degenerate
        assert not degenerate.parallel  # one LocalNode -> inline kernels
        assert ExecutionConfig(plane="dist").resolve_executor() is degenerate
        assert ExecutionConfig().resolve_executor() is None
        assert ExecutionConfig(plane="object").resolve_executor() is None
        pool = ExecutionConfig(plane="parallel", workers=2).resolve_executor()
        assert pool is get_executor(2)


# ----------------------------------------------------------------------
# Cluster kernels vs their serial twins (inherited executor surface)
# ----------------------------------------------------------------------
class TestClusterKernels:
    def test_clique_table_parity(self, force_sharding, two_locals):
        _, cluster = two_locals
        g = create_workload("er", density=0.15).instance(80, seed=3)
        edges = g.to_csr().edge_table()
        serial = clique_table_from_edge_array(edges, 3)
        dist_table = cluster.clique_table(edges, 3)
        assert rows_sorted(serial) == rows_sorted(dist_table)
        # A goal subset rides to the nodes as the named goal_bits array.
        goal = edges[np.random.default_rng(2).random(edges.shape[0]) < 0.3]
        serial = clique_table_from_edge_array(edges, 3, goal)
        dist_table = cluster.clique_table(edges, 3, goal)
        assert 0 < serial.shape[0] < clique_table_from_edge_array(edges, 3).shape[0]
        assert rows_sorted(serial) == rows_sorted(dist_table)

    def test_count_parity(self, force_sharding, two_locals):
        _, cluster = two_locals
        g = create_workload("er", density=0.2).instance(90, seed=1)
        assert cluster.count_csr(g.to_csr(), 3) == count_cliques_csr(g.to_csr(), 3)

    def test_grouped_tables_parity(self, force_sharding, two_locals):
        _, cluster = two_locals
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 60, size=9)
        indptr = np.zeros(10, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        edges = rng.integers(0, 30, size=(int(indptr[-1]), 2))
        edges[:, 1] = (edges[:, 1] + 1 + edges[:, 0]) % 31
        serial_owners, serial_table = grouped_clique_tables(indptr, edges, 3)
        owners, table = cluster.fanout_tables(indptr, edges, 3)
        assert set(zip(serial_owners.tolist(), map(tuple, serial_table.tolist()))) \
            == set(zip(owners.tolist(), map(tuple, table.tolist())))


# ----------------------------------------------------------------------
# End-to-end drivers: the dist-differential matrix
# ----------------------------------------------------------------------
class TestDriverParity:
    """All static families × seeds, dist vs parallel vs batch — ledger
    rows byte-identical, sorted listings and attribution exactly equal."""

    @pytest.mark.parametrize("family", STATIC_FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_congested_clique_driver(self, force_sharding, two_locals, family, seed):
        hosts, _ = two_locals
        g = create_workload(family).instance(48, seed=seed)
        batch = list_cliques_congested_clique(g, 3, seed=seed)
        par = list_cliques_congested_clique(
            g, 3, seed=seed,
            params=AlgorithmParameters(
                p=3, execution=ExecutionConfig(plane="parallel", workers=2)
            ),
        )
        dist = list_cliques_congested_clique(
            g, 3, seed=seed, params=dist_params(3, hosts)
        )
        assert dist.cliques == batch.cliques == enumerate_cliques(g, 3)
        assert sorted_listing(dist) == sorted_listing(batch)
        assert dist.per_node == batch.per_node == par.per_node
        assert ledger_rows(dist) == ledger_rows(batch) == ledger_rows(par)

    @pytest.mark.parametrize("family", ["er", "caveman", "planted"])
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_congest_driver(self, force_sharding, two_locals, family, seed):
        hosts, _ = two_locals
        g = create_workload(family).instance(40, seed=seed)
        batch = list_cliques_congest(g, 3, seed=seed)
        dist = list_cliques_congest(
            g, 3, seed=seed, params=dist_params(3, hosts, variant="generic")
        )
        assert dist.cliques == batch.cliques == enumerate_cliques(g, 3)
        assert dist.per_node == batch.per_node
        assert ledger_rows(dist) == ledger_rows(batch)

    def test_degenerate_empty_hosts(self, force_sharding):
        g = create_workload("er").instance(48, seed=0)
        batch = list_cliques_congested_clique(g, 3, seed=0)
        dist = list_cliques_congested_clique(
            g, 3, seed=0,
            params=AlgorithmParameters(p=3, execution=ExecutionConfig(plane="dist")),
        )
        assert sorted_listing(dist) == sorted_listing(batch)
        assert dist.per_node == batch.per_node
        assert ledger_rows(dist) == ledger_rows(batch)

    @pytest.mark.parametrize("p", [4, 5])
    def test_higher_p_parity(self, force_sharding, two_locals, p):
        hosts, _ = two_locals
        g = create_workload("er").instance(40, seed=7)
        batch = list_cliques_congested_clique(g, p, seed=7)
        dist = list_cliques_congested_clique(
            g, p, seed=7, params=dist_params(p, hosts)
        )
        assert sorted_listing(dist) == sorted_listing(batch)
        assert ledger_rows(dist) == ledger_rows(batch)

    def test_node_failure_mid_driver_retries(self, force_sharding):
        """The acceptance scenario: one node dies mid-run; the shard is
        retried on the survivor and the results stay byte-identical."""
        hosts = ("test-failing", "test-survivor")
        failing = FailingOnceNode()
        cluster = Cluster([failing, LocalNode()], name="test-retry")
        register_cluster(hosts, cluster)
        try:
            g = create_workload("er").instance(48, seed=2)
            batch = list_cliques_congested_clique(g, 3, seed=2)
            dist = list_cliques_congested_clique(
                g, 3, seed=2, params=dist_params(3, hosts)
            )
            assert failing.failures == 1
            assert cluster.stats["retries"] >= 1
            assert cluster.failed_nodes() == ("failing-once",)
            assert sorted_listing(dist) == sorted_listing(batch)
            assert dist.per_node == batch.per_node
            assert ledger_rows(dist) == ledger_rows(batch)
        finally:
            cluster.close()

    def test_real_tcp_workers_end_to_end(self, force_sharding):
        """One driver run over real spawned TCP workers (sockets, frames,
        worker processes) — everything else in the matrix uses LocalNode
        doubles for speed; this pins the full transport."""
        hosts = ("test-tcp-a", "test-tcp-b")
        cluster = Cluster(spawn_local_tcp(2), name="test-tcp")
        register_cluster(hosts, cluster)
        try:
            g = create_workload("er").instance(48, seed=0)
            batch = list_cliques_congested_clique(g, 3, seed=0)
            dist = list_cliques_congested_clique(
                g, 3, seed=0, params=dist_params(3, hosts)
            )
            assert sorted_listing(dist) == sorted_listing(batch)
            assert dist.per_node == batch.per_node
            assert ledger_rows(dist) == ledger_rows(batch)
            assert cluster.stats["dispatched"] > 0
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# ExecutionConfig plumbing
# ----------------------------------------------------------------------
class TestParams:
    def test_dist_plane_accepted(self):
        params = ExecutionConfig(plane="dist", hosts=("local",))
        assert params.hosts == ("local",)

    def test_hosts_frozen_to_tuple(self):
        params = ExecutionConfig(plane="dist", hosts=["a:1", "b:2"])
        assert params.hosts == ("a:1", "b:2")
        assert isinstance(hash(params), int)

    def test_bad_hosts_rejected(self):
        with pytest.raises(ValueError):
            ExecutionConfig(plane="dist", hosts=("", "x:1"))
        with pytest.raises(ValueError):
            ExecutionConfig(plane="dist", hosts=(7,))


# ----------------------------------------------------------------------
# Out-of-core partitions
# ----------------------------------------------------------------------
class TestPartitionedCSR:
    def _graph(self, n=200, density=0.15, seed=0):
        return create_workload("er", density=density).instance(n, seed=seed)

    @pytest.mark.parametrize("partitions", [1, 3, 8])
    def test_bitset_regime_byte_identity(self, tmp_path, partitions):
        csr = self._graph().to_csr()
        pcsr = write_partitioned(csr, tmp_path / "p", partitions=partitions)
        assert np.array_equal(pcsr.clique_table(3), csr.clique_table(3))
        assert pcsr.clique_result(4) == csr.clique_result(4)
        assert pcsr.count(3) == count_cliques_csr(csr, 3)

    def test_sorted_regime_byte_identity(self, tmp_path):
        """Past BITSET_MAX_NODES the root-node-range kernel serves the
        partitions; rows must still match the in-memory listing exactly."""
        from repro.graphs.generators import bounded_arboricity_graph

        g = bounded_arboricity_graph(BITSET_MAX_NODES + 40, 3, seed=1)
        csr = g.to_csr()
        pcsr = write_partitioned(csr, tmp_path / "big", partitions=5)
        assert np.array_equal(pcsr.clique_table(3), csr.clique_table(3))
        assert pcsr.count(3) == count_cliques_csr(csr, 3)

    def test_open_round_trip_and_manifest(self, tmp_path):
        csr = self._graph().to_csr()
        write_partitioned(csr, tmp_path / "p", partitions=4)
        pcsr = PartitionedCSR.open(tmp_path / "p")
        # Partition table covers the root space contiguously.
        assert pcsr.partitions[0].lo == 0
        assert pcsr.partitions[-1].hi == csr.num_nodes
        for a, b in zip(pcsr.partitions, pcsr.partitions[1:]):
            assert a.hi == b.lo and a.edge_hi == b.edge_lo
        assert pcsr.max_partition_nbytes >= max(
            part.nbytes for part in pcsr.partitions
        )
        restored = pcsr.to_csr()
        assert np.array_equal(restored.indptr, csr.indptr)
        assert np.array_equal(restored.indices, csr.indices)
        assert "partitions=4" in repr(pcsr)

    def test_unsupported_manifest_format(self, tmp_path):
        root = tmp_path / "p"
        write_partitioned(self._graph(n=40).to_csr(), root, partitions=2)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["format"] = 99
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            PartitionedCSR.open(root)

    def test_invalid_partition_count(self, tmp_path):
        with pytest.raises(ValueError):
            write_partitioned(self._graph(n=20).to_csr(), tmp_path / "p", partitions=0)

    def test_empty_graph(self, tmp_path):
        from repro.graphs.graph import Graph

        pcsr = write_partitioned(Graph(5), tmp_path / "empty", partitions=3)
        assert pcsr.clique_table(3).shape == (0, 3)
        assert pcsr.count(3) == 0

    def test_partition_nbytes(self):
        part = CSRPartition(0, 10, 20, 100, 400)
        assert part.num_roots == 10 and part.num_edges == 300
        assert part.nbytes == 8 * (300 + 10 + 1)

    def test_cluster_dispatched_partitions(self, tmp_path, two_locals):
        _, cluster = two_locals
        csr = self._graph().to_csr()
        pcsr = write_partitioned(csr, tmp_path / "p", partitions=4)
        assert np.array_equal(
            pcsr.clique_table(3, cluster=cluster), csr.clique_table(3)
        )
        assert pcsr.count(3, cluster=cluster) == count_cliques_csr(csr, 3)

    def test_p_validation(self, tmp_path):
        pcsr = write_partitioned(self._graph(n=30).to_csr(), tmp_path / "p")
        with pytest.raises(ValueError):
            pcsr.clique_table(2)


# ----------------------------------------------------------------------
# Distributed sweeps
# ----------------------------------------------------------------------
class TestDistributedSweep:
    STABLE = ("workload", "n", "p", "rounds", "ratio", "cliques", "variant")

    def test_rows_match_local_runner(self, two_locals):
        from repro.analysis.sweeps import SweepSpec, run_sweep

        hosts, _ = two_locals
        spec = SweepSpec(
            workloads=["sparse", "er"], sizes=[24], ps=[3], model="congested-clique"
        )
        local = run_sweep(spec, cache_dir=None, jobs=1)
        dist = run_sweep(spec, cache_dir=None, hosts=hosts)
        assert len(local.rows) == len(dist.rows) == 2
        for mine, theirs in zip(local.rows, dist.rows):
            for key in self.STABLE:
                assert mine[key] == theirs[key]

    def test_cache_oblivious_to_dispatch(self, tmp_path, two_locals):
        from repro.analysis.sweeps import SweepSpec, run_sweep

        hosts, _ = two_locals
        spec = SweepSpec(workloads=["sparse"], sizes=[20], ps=[3])
        first = run_sweep(spec, cache_dir=tmp_path, hosts=hosts)
        second = run_sweep(spec, cache_dir=tmp_path, jobs=1)
        assert first.cache_misses == 1 and second.cache_hits == 1


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliDistributed:
    def test_distributed_sweep_runs(self, capsys, two_locals):
        from repro.cli import main

        # Registered test cluster is keyed by synthetic names the CLI
        # validator would reject, so use real 'local' specs here.
        assert (
            main(
                [
                    "sweep", "--workloads", "sparse", "--n", "20", "--p", "3",
                    "--distributed", "--hosts", "local,local",
                    "--cache-dir", "",
                ]
            )
            == 0
        )
        assert "sparse" in capsys.readouterr().out

    def test_hosts_without_distributed_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="requires --distributed"):
            main(["sweep", "--workloads", "sparse", "--n", "8", "--p", "3",
                  "--hosts", "local", "--cache-dir", ""])

    def test_distributed_without_hosts_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="requires --hosts"):
            main(["sweep", "--workloads", "sparse", "--n", "8", "--p", "3",
                  "--distributed", "--cache-dir", ""])

    def test_malformed_hosts_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="invalid --hosts"):
            main(["sweep", "--workloads", "sparse", "--n", "8", "--p", "3",
                  "--distributed", "--hosts", "host:badport", "--cache-dir", ""])

    @pytest.mark.parametrize("command", [
        ["sweep", "--workloads", "sparse", "--n", "8", "--p", "3",
         "--workers", "-2", "--cache-dir", ""],
        ["stream", "--family", "stream_churn", "--n", "16", "--workers", "0"],
        ["serve", "--n", "16", "--requests", "1", "--workers", "zero"],
    ])
    def test_nonpositive_workers_rejected(self, command):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(command)


# ----------------------------------------------------------------------
# Executor lifecycle (satellite: graceful shutdown, no leaked pools)
# ----------------------------------------------------------------------
class TestExecutorLifecycle:
    def test_context_manager_closes_pool(self, force_sharding):
        from repro.parallel.executor import ShardExecutor

        g = create_workload("er", density=0.2).instance(60, seed=0)
        with ShardExecutor(2) as executor:
            expected = count_cliques_csr(g.to_csr(), 3)
            assert executor.count_csr(g.to_csr(), 3) == expected
            assert executor._pool is not None
        assert executor._pool is None
        # Still usable after close: lazily re-pools.
        assert executor.count_csr(g.to_csr(), 3) == expected
        executor.close()

    def test_close_without_pool_is_noop(self):
        from repro.parallel.executor import ShardExecutor

        executor = ShardExecutor(2)
        executor.close()
        assert executor._pool is None
