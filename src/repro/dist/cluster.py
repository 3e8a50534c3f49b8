"""The cluster: shard kernels dispatched across nodes, with retry.

:class:`Cluster` subclasses :class:`~repro.parallel.executor.
ShardExecutor` and keeps its entire kernel surface (``fanout_tables`` /
``clique_table`` / ``count_csr``) — the shard *planning* (contiguous
weight-balanced ranges) and the shard→merge concatenation discipline
are inherited unchanged, so the determinism argument of the parallel
plane carries over verbatim.  Only the transport differs: instead of a
process pool, :meth:`_run` fans the shard argument tuples over
:class:`~repro.dist.node.Node` objects via :meth:`map_task`.

Scheduling and fault handling:

- one dispatcher thread per live node pulls shard indices from a shared
  queue (work stealing: fast nodes drain more shards);
- a :class:`~repro.dist.errors.NodeFailure` marks that node dead,
  requeues its shard, and retires the thread — a surviving node picks
  the shard up (the *retry* the differential suite forces);
- results land in a per-index slot, so the merged output is in shard
  order regardless of which node computed what — byte-identical to the
  single-box pool;
- when every node is dead and shards remain, :class:`~repro.dist.errors.
  ClusterError` reports the shortfall;
- :meth:`map_task_redundant` is the robustness hook (anticipating
  LDC-style robust Congested Clique computation): every shard runs on
  ``r`` distinct nodes and the replies must agree exactly.

Charging stays local: the drivers charge the ledger through
``charge_batch`` *before* dispatch (exactly like a pool run), so ledger
rows are byte-identical inline, on a pool and on a cluster by
construction — nothing about rounds ever crosses the wire.

The process-wide registry (:func:`get_cluster`) mirrors
:func:`repro.parallel.executor.get_executor`: one cluster per hosts
tuple, nodes connected lazily on first use, torn down at interpreter
exit.  A run reaches it through ``ExecutionConfig(hosts=...)``
(:meth:`~repro.core.config.ExecutionConfig.resolve_executor`); tests
inject custom node sets with :func:`register_cluster`.
"""

from __future__ import annotations

import atexit
import threading
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dist.errors import ClusterError, NodeFailure
from repro.dist.node import LocalNode, Node, parse_hosts
from repro.parallel.executor import ShardExecutor
from repro.parallel.shm import mem_ref


def _agree(a: Any, b: Any) -> bool:
    """Exact agreement of two task results (array trees compared
    element-wise; the kernels are deterministic, so replicas must be
    byte-identical)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and bool(np.array_equal(a, b))
        )
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_agree(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_agree(a[k], b[k]) for k in a)
    return bool(a == b)


class Cluster(ShardExecutor):
    """A set of nodes behind the shard-executor kernel interface.

    Parameters
    ----------
    nodes:
        The :class:`~repro.dist.node.Node` set.  A single-node cluster
        is the degenerate mode: kernels run serially (for a
        :class:`LocalNode`, byte-identical to the inline executor).
    name:
        Label for reprs and error messages.
    """

    def __init__(self, nodes: Sequence[Node], name: str = "cluster") -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        super().__init__(workers=len(nodes))
        self.nodes: List[Node] = list(nodes)
        self.name = name
        self.stats: Dict[str, int] = {"dispatched": 0, "retries": 0}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def alive_nodes(self) -> List[Node]:
        return [node for node in self.nodes if node.alive]

    @property
    def parallel(self) -> bool:
        """Fan out whenever more than one node survives.  Unlike the
        pool executor this holds inside daemonic processes too — node
        transports are sockets/pipes, not forked children."""
        return len(self.alive_nodes()) > 1

    def health_check(self) -> Dict[str, bool]:
        """Ping every node; a failed ping marks it dead permanently."""
        return {node.name: node.ping() for node in self.nodes}

    def failed_nodes(self) -> Tuple[str, ...]:
        return tuple(node.name for node in self.nodes if not node.alive)

    def close(self) -> None:
        """Close every node (idempotent).  Unlike the pool executor the
        cluster does NOT resurrect: closed nodes stay closed."""
        for node in self.nodes:
            try:
                node.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        alive = len(self.alive_nodes())
        return f"Cluster({self.name}, nodes={len(self.nodes)}, alive={alive})"

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _run(self, fn, arrays, shard_args):
        """The transport override: shard tuples → nodes, via map_task.

        Single-shard (or single-survivor) calls execute in-process —
        exactly the inline lane of the pool executor, so the degenerate
        modes of both planes coincide.
        """
        if not shard_args:
            return []
        if not self.parallel or len(shard_args) == 1:
            refs = {name: mem_ref(array) for name, array in arrays.items()}
            return [fn(refs, *args) for args in shard_args]
        return self.map_task(fn.__name__, arrays, shard_args)

    def map_task(
        self,
        task: str,
        arrays: Dict[str, np.ndarray],
        args_list: Sequence[tuple],
    ) -> List[Any]:
        """Run ``task(arrays, *args)`` for every args tuple; results in
        input order.  Retries shards of failed nodes on survivors."""
        count = len(args_list)
        if count == 0:
            return []
        results: List[Any] = [None] * count
        done = [False] * count
        queue: deque = deque(range(count))
        task_error: List[BaseException] = []

        def pull() -> Optional[int]:
            with self._lock:
                if task_error or not queue:
                    return None
                return queue.popleft()

        def dispatcher(node: Node) -> None:
            while True:
                index = pull()
                if index is None:
                    return
                try:
                    value = node.call(task, arrays, args_list[index])
                except NodeFailure:
                    with self._lock:
                        queue.append(index)
                        self.stats["retries"] += 1
                    return  # node is dead; its thread retires
                except Exception as exc:
                    # A task bug: record and stop dispatching (retrying
                    # a deterministic failure elsewhere cannot help).
                    with self._lock:
                        task_error.append(exc)
                        queue.append(index)
                    return
                results[index] = value
                done[index] = True
                with self._lock:
                    self.stats["dispatched"] += 1

        while not all(done):
            if task_error:
                raise task_error[0]
            alive = self.alive_nodes()
            if not alive:
                raise ClusterError(
                    f"cluster {self.name!r} ran out of nodes",
                    pending=sum(1 for flag in done if not flag),
                    failed_nodes=self.failed_nodes(),
                    task=task,
                )
            if len(alive) == 1:
                # No concurrency left; drain inline on the survivor.
                dispatcher(alive[0])
                continue
            threads = [
                threading.Thread(target=dispatcher, args=(node,), daemon=True)
                for node in alive
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if task_error:
            raise task_error[0]
        return results

    def map_task_redundant(
        self,
        task: str,
        arrays: Dict[str, np.ndarray],
        args_list: Sequence[tuple],
        redundancy: int = 2,
    ) -> List[Any]:
        """Robust dispatch: every shard on ``redundancy`` distinct nodes,
        replies cross-checked for exact agreement.

        The hook anticipating LDC-style robust computation: a node that
        returns a *wrong* answer (not just a dead one) is caught by the
        agreement check, which raises :class:`ClusterError` rather than
        merging a corrupt shard.  Requires at least ``redundancy`` live
        nodes.
        """
        if redundancy < 2:
            return self.map_task(task, arrays, args_list)
        alive = self.alive_nodes()
        if len(alive) < redundancy:
            raise ClusterError(
                f"redundancy {redundancy} needs that many live nodes, "
                f"have {len(alive)}",
                pending=len(args_list),
                failed_nodes=self.failed_nodes(),
                task=task,
            )
        results: List[Any] = []
        for index, args in enumerate(args_list):
            replies = []
            for offset in range(redundancy):
                node = alive[(index + offset) % len(alive)]
                replies.append(node.call(task, arrays, args))
            first = replies[0]
            for replica, other in enumerate(replies[1:], start=1):
                if not _agree(first, other):
                    raise ClusterError(
                        f"replica disagreement on shard {index} "
                        f"({alive[index % len(alive)].name} vs "
                        f"{alive[(index + replica) % len(alive)].name})",
                        pending=len(args_list) - index,
                        failed_nodes=self.failed_nodes(),
                        task=task,
                    )
            results.append(first)
            with self._lock:
                self.stats["dispatched"] += redundancy
        return results

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_hosts(cls, hosts: Sequence[str], name: str = "") -> "Cluster":
        """Parse and connect a ``--hosts`` spec list into a cluster."""
        specs = tuple(hosts) if hosts else ("local",)
        return cls(parse_hosts(specs), name=name or ",".join(specs))


# ----------------------------------------------------------------------
# Registry: one cluster per hosts tuple, process-wide
# ----------------------------------------------------------------------
_CLUSTERS: Dict[Tuple[str, ...], Cluster] = {}
_REGISTRY_LOCK = threading.Lock()


def get_cluster(hosts: Sequence[str] = ()) -> Cluster:
    """The process-wide cluster for a hosts tuple (nodes connected on
    first use, reused across calls; ``()`` → one in-process LocalNode,
    the degenerate mode whose kernels are byte-identical to batch)."""
    key = tuple(hosts) if hosts else ("local",)
    with _REGISTRY_LOCK:
        cluster = _CLUSTERS.get(key)
        if cluster is None:
            cluster = _CLUSTERS[key] = Cluster.from_hosts(key)
        return cluster


def register_cluster(hosts: Sequence[str], cluster: Cluster) -> None:
    """Pre-seed the registry (tests inject failing/lying node doubles
    behind a synthetic hosts key; ``ExecutionConfig.hosts`` then
    routes the drivers to them)."""
    with _REGISTRY_LOCK:
        _CLUSTERS[tuple(hosts)] = cluster


def shutdown_clusters() -> None:
    """Close every registered cluster (registered at interpreter exit)."""
    with _REGISTRY_LOCK:
        clusters = list(_CLUSTERS.values())
        _CLUSTERS.clear()
    for cluster in clusters:
        cluster.close()


atexit.register(shutdown_clusters)
