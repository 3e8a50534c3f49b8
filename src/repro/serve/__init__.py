"""The serve plane: an always-on clique query service.

Turns the library's :class:`~repro.stream.engine.StreamEngine` into a
served system — concurrent snapshot-isolated reads (per-p counts,
clique listings, per-node learned subgraphs) interleaved with
update-stream ingest — plus the open-loop traffic harness that measures
it (uniform / zipfian / hotspot / bursty patterns, p50/p99 latency,
sustained QPS).  Design notes in ``docs/serving.md``.
"""

from repro.serve.epoch import EpochSnapshot, UntrackedSizeError
from repro.serve.service import CliqueService, Response, ServeStats
from repro.serve.traffic import (
    BurstyTraffic,
    DEFAULT_READ_MIX,
    HotspotTraffic,
    Request,
    TrafficPattern,
    UniformTraffic,
    ZipfianTraffic,
    available_patterns,
    create_traffic,
    register_pattern,
)
from repro.serve.driver import (
    ServeReport,
    demo_report,
    percentile,
    run_open_loop,
)

__all__ = [
    "BurstyTraffic",
    "CliqueService",
    "DEFAULT_READ_MIX",
    "EpochSnapshot",
    "HotspotTraffic",
    "Request",
    "Response",
    "ServeReport",
    "ServeStats",
    "TrafficPattern",
    "UniformTraffic",
    "UntrackedSizeError",
    "ZipfianTraffic",
    "available_patterns",
    "create_traffic",
    "demo_report",
    "percentile",
    "register_pattern",
    "run_open_loop",
]
