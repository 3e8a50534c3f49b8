"""Multi-core shard executor for the batch plane.

The batch routing plane (``docs/architecture.md`` § routing planes) made
the simulated data movement columnar; this subpackage spreads the
kernels that consume those columns across worker processes:

- :mod:`repro.parallel.shard` — deterministic, weight-balanced
  contiguous range planning;
- :mod:`repro.parallel.shm` — shared-memory numpy transport
  (:class:`ArrayRef`, one memcpy in, zero copies worker-side);
- :mod:`repro.parallel.tasks` — the worker-side shard kernels (each a
  range-restricted call of the exact single-core batch kernel);
- :mod:`repro.parallel.executor` — :class:`ShardExecutor`, the
  persistent pool with inline/daemon/small-input fallbacks, plus the
  process-wide :func:`get_executor` registry.

Everything observable — listing results, ledger rounds and stats,
maintained stream counts — is identical to the single-core batch plane;
``ExecutionConfig(workers=N)`` only changes *where* the numpy work runs.
See ``docs/parallel.md`` for the design and the determinism argument.
"""

from repro.parallel.executor import (
    MIN_PARALLEL_COUNT,
    MIN_PARALLEL_ITEMS,
    ShardExecutor,
    default_workers,
    get_executor,
    shutdown_executors,
)
from repro.parallel.shard import balanced_ranges, range_weights
from repro.parallel.shm import ArrayRef, SharedBlock, mem_ref, resolved, share, sharing

__all__ = [
    "MIN_PARALLEL_COUNT",
    "MIN_PARALLEL_ITEMS",
    "ShardExecutor",
    "default_workers",
    "get_executor",
    "shutdown_executors",
    "balanced_ranges",
    "range_weights",
    "ArrayRef",
    "SharedBlock",
    "mem_ref",
    "resolved",
    "share",
    "sharing",
]
