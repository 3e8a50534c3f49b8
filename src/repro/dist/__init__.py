"""Distributed execution: remote nodes + out-of-core partitions.

Where the batch plane's kernels run when ``ExecutionConfig.hosts`` is
set: the existing shard kernels of :mod:`repro.parallel` dispatched
across :class:`Node` transports — in-process, subprocess pipes, TCP
sockets — by a :class:`Cluster` that health-checks nodes and retries
failed shards on survivors, plus memory-mapped :class:`PartitionedCSR`
partitions so graphs larger than RAM are listed one partition-range at
a time.  Charges stay local and byte-identical to inline and pool runs;
see ``docs/distributed.md`` and the differential suite in
``tests/test_dist_plane.py``.
"""

from repro.dist.cluster import (
    Cluster,
    get_cluster,
    register_cluster,
    shutdown_clusters,
)
from repro.dist.errors import (
    ClusterError,
    DistError,
    HostSpecError,
    NodeFailure,
    ProtocolError,
    TaskError,
    UnknownTaskError,
)
from repro.dist.node import (
    LocalNode,
    Node,
    SubprocessNode,
    TcpNode,
    parse_host,
    parse_hosts,
    spawn_local_tcp,
    validate_host_specs,
)
from repro.dist.partition import CSRPartition, PartitionedCSR, write_partitioned

__all__ = [
    "Cluster",
    "ClusterError",
    "CSRPartition",
    "DistError",
    "HostSpecError",
    "LocalNode",
    "Node",
    "NodeFailure",
    "PartitionedCSR",
    "ProtocolError",
    "SubprocessNode",
    "TaskError",
    "TcpNode",
    "UnknownTaskError",
    "get_cluster",
    "parse_host",
    "parse_hosts",
    "register_cluster",
    "shutdown_clusters",
    "spawn_local_tcp",
    "validate_host_specs",
    "write_partitioned",
]
