"""Streaming update subsystem: dynamic graphs served without recompute.

Every other entry point in this library treats its input graph as a
frozen snapshot.  This subpackage makes the graph an *evolving* object:

- :mod:`repro.stream.log` — the columnar :class:`UpdateBatch` update
  log (int64 ``u``/``v`` columns, int8 insert/delete ops) plus seeded
  stream generators (sliding window, preferential-attachment growth,
  adversarial churn) registered as workload families
  (``stream_window`` / ``stream_growth`` / ``stream_churn``);
- :mod:`repro.stream.delta` — batched incremental K\\ :sub:`p`
  maintenance: the cliques an update batch creates/destroys, computed
  from bitset-row common neighborhoods and the block-diagonal
  :func:`~repro.graphs.csr.grouped_clique_tables` pipeline, per batch
  rather than per edge;
- :mod:`repro.stream.engine` — :class:`StreamEngine`, a live
  delta-buffered CSR (base snapshot + :class:`~repro.graphs.overlay.CSROverlay`
  with periodic compaction) maintaining exact per-p counts/listings
  incrementally; its reads are that maintained state, and its
  canonical clique tables feed full distributed listing runs through
  the Theorem 1.3 driver's ``precomputed_table`` entry point.

CLI: ``python -m repro.cli stream``.  Design notes: ``docs/streaming.md``.
"""

from repro.stream.delta import KpDelta, touched_clique_table
from repro.stream.engine import ApplyResult, StreamEngine
from repro.stream.log import (
    StreamInstance,
    StreamWorkload,
    UpdateBatch,
    available_stream_workloads,
)

__all__ = [
    "UpdateBatch",
    "StreamInstance",
    "StreamWorkload",
    "available_stream_workloads",
    "KpDelta",
    "touched_clique_table",
    "ApplyResult",
    "StreamEngine",
]
