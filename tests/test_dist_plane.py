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
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TcpNode,
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
    def test_frame_round_trip(self, message):
        stream = io.BytesIO()
        protocol.write_frame(stream, message)
        stream.seek(0)
        decoded = protocol.read_frame(stream)
        assert isinstance(decoded, list) and decoded[:2] == list(message[:2])
        if message[0] == "call":
            assert np.array_equal(decoded[2]["arr"], message[2]["arr"])
            assert decoded[3] == message[3]

    def test_array_payload_survives(self):
        arrays = {
            dtype: (np.arange(24) % 5).astype(dtype).reshape(4, 6)
            for dtype in protocol.DTYPES
        }
        arrays.update(
            scalar=np.array(7, dtype=np.uint64),
            empty=np.zeros((0, 3), dtype=np.int32),
            fortran=np.asfortranarray(np.arange(6.0).reshape(2, 3)),
            strided=np.arange(20, dtype=np.int64)[::3],
        )
        stream = io.BytesIO()
        protocol.write_frame(stream, ("ok", arrays))
        stream.seek(0)
        decoded = protocol.read_frame(stream)
        assert decoded[1].keys() == arrays.keys()
        for name, array in arrays.items():
            got = decoded[1][name]
            assert got.dtype == array.dtype and got.shape == array.shape
            assert np.array_equal(got, array)
            assert got.flags.writeable and got.flags.c_contiguous

    def test_numpy_scalars_travel_as_numbers(self):
        message = [np.int64(3), np.float32(0.5), np.bool_(True), float("inf")]
        stream = io.BytesIO(protocol.encode(message))
        assert protocol.read_frame(stream) == [3, 0.5, True, float("inf")]

    def test_eof_on_clean_close(self):
        with pytest.raises(EOFError):
            protocol.read_frame(io.BytesIO())

    def test_eof_mid_frame(self):
        stream = io.BytesIO()
        protocol.write_frame(stream, ("ping",))
        truncated = io.BytesIO(stream.getvalue()[:-1])
        with pytest.raises(EOFError):
            protocol.read_frame(truncated)

    def test_corrupt_header_rejected(self):
        bogus = protocol.HEADER.pack(protocol.MAX_FRAME_BYTES + 1) + b"P"
        with pytest.raises(ProtocolError):
            protocol.read_frame(io.BytesIO(bogus))

    @staticmethod
    def _frame(header, buffers=b"", format_byte=protocol.FORMAT):
        """A hand-built frame; ``header`` is JSON text as bytes, or a tree."""
        text = header if isinstance(header, bytes) else json.dumps(header).encode()
        body = format_byte + struct.pack(">I", len(text)) + text + buffers
        return io.BytesIO(protocol.HEADER.pack(len(body)) + body)

    def test_old_peer_format_rejected(self):
        # An old peer's frame: format byte P, then a pickle.
        body = b"P" + pickle.dumps(("ping",), protocol=pickle.HIGHEST_PROTOCOL)
        frame = io.BytesIO(protocol.HEADER.pack(len(body)) + body)
        with pytest.raises(ProtocolError, match="format"):
            protocol.read_frame(frame)
        with pytest.raises(ProtocolError, match="format"):
            protocol.read_frame(self._frame(["ping"], format_byte=b"P"))

    def test_object_dtype_rejected(self):
        with pytest.raises(ProtocolError, match="dtype"):
            protocol.read_frame(self._frame({"__nd__": [0, "|O", [1]]}, bytes(8)))

    def test_buffer_past_payload_rejected(self):
        marker = {"__nd__": [0, "<i8", [4]]}
        with pytest.raises(ProtocolError, match="past"):
            protocol.read_frame(self._frame(marker, bytes(31)))
        assert protocol.read_frame(self._frame(marker, bytes(32))).shape == (4,)
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.read_frame(self._frame(marker, bytes(33)))

    @pytest.mark.parametrize(
        "header, reason",
        [
            ({"__nd__": [1, "<i8", [1]]}, "index"),  # out of order
            ({"__nd__": [True, "<i8", [1]]}, "index"),  # a bool
            ({"__nd__": [0, "<i8", [-1]]}, "shape"),
            ({"__nd__": [0, "<i8", [1]], "x": 1}, "marker"),
            ({"__nd__": [0, "<i8"]}, "marker"),
            (b"[" * 100_000 + b"]" * 100_000, "RecursionError"),
            (b"{not json", "JSONDecodeError"),
            (b'"\xff"', "UnicodeDecodeError"),
        ],
    )
    def test_malformed_header_rejected(self, header, reason):
        with pytest.raises(ProtocolError, match=reason):
            protocol.read_frame(self._frame(header, bytes(8)))

    @pytest.mark.parametrize(
        "message",
        [{1: "int key"}, {"__nd__": "reserved"}, {"a": {2, 3}}, [b"bytes"],
         [object()], np.array(["text"]), np.array([None], dtype=object)],
    )
    def test_encode_refuses_what_json_would_rewrite(self, message):
        with pytest.raises(ProtocolError, match="cannot encode"):
            protocol.encode(message)

    def test_encode_refuses_deep_nesting(self):
        message: list = []
        for _ in range(5000):
            message = [message]
        with pytest.raises(ProtocolError):
            protocol.encode(message)

    @settings(max_examples=1500, deadline=None)
    @given(st.binary(max_size=200))
    def test_random_bytes_fail_typed(self, data):
        self._read_typed(data)
        self._read_typed(protocol.HEADER.pack(len(data)) + data)
        self._read_typed(protocol.HEADER.pack(len(data) + 1) + protocol.FORMAT + data)

    #: A valid call frame the mutation fuzz starts from.
    CALL_FRAME = protocol.encode(
        ["call", "forward_count_shard",
         {"fptr": np.arange(4), "bits": np.ones((3, 2), dtype=np.uint64)},
         [0, 3, 3.5, None, "s", {"k": [True]}]]
    )

    @settings(max_examples=750, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 1 << 16), st.sampled_from("fid"),
                  st.binary(min_size=1, max_size=8)),
        min_size=1, max_size=4,
    ))
    def test_mutated_frames_fail_typed(self, edits):
        frame = bytearray(self.CALL_FRAME)
        for position, action, chunk in edits:
            position %= len(frame)
            if action == "f":  # flip bits
                frame[position] ^= chunk[0] or 1
            elif action == "i":  # insert bytes
                frame[position:position] = chunk
            else:  # delete bytes
                del frame[position : position + len(chunk)]
        self._read_typed(bytes(frame))
        # Resealed with a true length, the mutation reaches the decoder.
        body = bytes(frame[protocol.HEADER.size :])
        self._read_typed(protocol.HEADER.pack(len(body)) + body)

    @staticmethod
    def _read_typed(data):
        try:
            protocol.read_frame(io.BytesIO(data))
        except (ProtocolError, EOFError):
            pass


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


class TestWorkerRobustness:
    """A request of the wrong shape fails one call; a frame that does not
    decode ends its connection.  Neither takes a worker down."""

    @pytest.fixture
    def tcp_node(self):
        (node,) = spawn_local_tcp(1)
        yield node
        node.close()

    def test_wrong_shaped_requests_get_protocol_errors(self, tcp_node):
        for message in (
            ["call", "grouped_tables_shard"],
            ["call", "grouped_tables_shard", {"edges": [[0, 1]]}, []],
            ["call", 7, {}, []],
            ["launch"],
            [],
            [np.arange(3)],
            {"op": "ping"},
            "ping",
        ):
            reply = tcp_node._roundtrip(message, 5.0)
            assert reply[:2] == ["err", "protocol"]
        assert tcp_node.ping() and tcp_node._proc.poll() is None

    def test_undecodable_frame_ends_only_its_connection(self, tcp_node):
        body = b"P" + bytes(16)  # an old peer's pickle frame
        tcp_node._writer.write(protocol.HEADER.pack(len(body)) + body)
        tcp_node._writer.flush()
        with pytest.raises((EOFError, OSError)):
            protocol.read_frame(tcp_node._reader)
        assert tcp_node._proc.poll() is None
        fresh = TcpNode("127.0.0.1", tcp_node.port)
        try:
            assert fresh.ping()
        finally:
            fresh.close()

    def test_undecodable_frame_ends_a_stdio_worker(self):
        node = SubprocessNode()
        try:
            node._proc.stdin.write(protocol.HEADER.pack(3) + b"P..")
            node._proc.stdin.flush()
            assert node._proc.wait(timeout=30) == 0
            assert not node.ping()
        finally:
            node.close()


class TestCodecBoundary:
    """What crosses real frames: a faulted sweep cell arrives intact, and
    an argument the codec refuses never reaches a node."""

    def test_faulted_sweep_over_subprocess_nodes(self):
        from repro.analysis.sweeps import SweepSpec, run_sweep
        from repro.faults import FaultModel

        faults = FaultModel(
            seed=3, drop_rate=0.05, stragglers=((1, 0.5, 2.0),),
            crash_windows=((2, 0, 2),),
        )
        spec = SweepSpec(
            workloads=["sparse", "er"], sizes=[24], ps=[3],
            model="congested-clique", algo_overrides={"faults": faults},
        )
        hosts = ("test-proc-a", "test-proc-b")
        cluster = Cluster([SubprocessNode(), SubprocessNode()], name="test-procs")
        register_cluster(hosts, cluster)
        try:
            local = run_sweep(spec, cache_dir=None, jobs=1)
            dist = run_sweep(spec, cache_dir=None, hosts=hosts)
            assert cluster.stats == {"dispatched": 2, "retries": 0}
        finally:
            cluster.close()
        for mine, theirs in zip(local.rows, dist.rows, strict=True):
            assert mine["stats"]["fault_recovery_rounds"] > 0
            del mine["wall_seconds"], theirs["wall_seconds"]
            assert mine == theirs

    def test_unencodable_argument_raises_and_nodes_live(self):
        cluster = Cluster([SubprocessNode(), SubprocessNode()], name="test-procs")
        arrays = {
            "fptr": np.array([0, 2, 3, 3], dtype=np.int64),
            "findices": np.array([1, 2, 2], dtype=np.int64),
            "bits": _bits_for(None, 3),
        }
        try:
            with pytest.raises(ProtocolError, match="cannot encode"):
                cluster.map_task("forward_count_shard", arrays, [(0, 3, {3})] * 2)
            assert len(cluster.alive_nodes()) == 2
            assert cluster.stats == {"dispatched": 0, "retries": 0}
            results = cluster.map_task("forward_count_shard", arrays, [(0, 3, 3)] * 2)
            assert [int(r) for r in results] == [1, 1]
        finally:
            cluster.close()


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
