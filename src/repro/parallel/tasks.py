"""Worker-side shard kernels of the parallel plane.

Each function here is one shard's unit of work.  The contract shared by
all of them:

- the first argument is a mapping of named :class:`~repro.parallel.shm.
  ArrayRef` inputs (resolved to real arrays for the duration of the
  call — shared-memory blocks on the pool path, the parent's own arrays
  on the inline path);
- remaining arguments are small picklable scalars (shard bounds, p);
- the return value contains only *fresh* arrays (never views into a
  shared block, which dies when the parent unlinks it).

Every kernel is a thin wrapper around the exact single-core function the
batch plane runs (:func:`repro.graphs.csr.grouped_clique_tables`,
:func:`~repro.graphs.csr.table_from_forward_bits`,
:func:`~repro.graphs.csr.count_from_forward_bits`), restricted to a
contiguous shard of its index space.  That is the whole determinism
argument of the parallel plane: shards partition the work, the per-item
computation is byte-for-byte the batch plane's, and the merge is a
concatenation in shard order.

Functions must stay module-level (the pool pickles them by qualified
name) and import-light (``spawn`` children re-import this module).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.graphs.csr import (
    count_from_forward_bits,
    grouped_clique_tables,
    table_from_forward_bits,
)
from repro.parallel.shm import ArrayRef, resolved


def invoke(fn, refs: Dict[str, ArrayRef], args: tuple):
    """Pool entry point: apply a shard kernel to its resolved inputs."""
    return fn(refs, *args)


def grouped_tables_shard(
    refs: Dict[str, ArrayRef], lo: int, hi: int, p: int, assume_unique: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Kp tables of groups ``[lo, hi)`` of a grouped edge layout.

    Inputs: ``indptr`` (the full group boundary array) and ``edges``
    (the full ``(messages, 2)`` matrix).  The shard rebases its slice to
    a local group space, runs the identical block-diagonal pipeline, and
    shifts the owner column back to global group ids.
    """
    with resolved(refs) as a:
        indptr = a["indptr"]
        base = int(indptr[lo])
        local_indptr = indptr[lo : hi + 1] - base
        edges = a["edges"][base : int(indptr[hi])]
        owners, table = grouped_clique_tables(
            local_indptr, edges, p, assume_unique=assume_unique
        )
    return owners + lo, table


def fanout_listing_shard(
    refs: Dict[str, ArrayRef], lo: int, hi: int, p: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Deliver-and-list for destination nodes ``[lo, hi)`` of a fan-out.

    Inputs: the undelivered :class:`~repro.congest.batch.MessageBatch`
    columns ``dst`` (int64) and ``payload`` (``(messages, 2)`` uint32
    edge endpoints).  The shard performs its own slice of the columnar
    mailbox fill — boolean mask, stable argsort, bincount boundaries,
    exactly :func:`repro.congest.batch.deliver` restricted to its range
    — then lists every mailbox through the same grouped pipeline the
    batch plane uses.  Returns global ``(owners, table)``.
    """
    with resolved(refs) as a:
        dst = a["dst"]
        mask = (dst >= lo) & (dst < hi)
        local = dst[mask] - lo
        rows = a["payload"][mask]
        order = np.argsort(local, kind="stable")
        local = local[order]
        rows = rows[order]
        indptr = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(np.bincount(local, minlength=hi - lo), out=indptr[1:])
        owners, table = grouped_clique_tables(indptr, rows, p, assume_unique=True)
    return owners + lo, table


def forward_table_shard(
    refs: Dict[str, ArrayRef], lo: int, hi: int, p: int
) -> np.ndarray:
    """Kp table of root edges ``[lo, hi)`` of one forward adjacency.

    Inputs: ``fptr``/``findices`` (the forward CSR), ``bits`` (its
    packed bitset rows) and, optionally, ``goal_bits`` (keep only the
    cliques holding a goal pair).  Output rows are in the adjacency's
    *local* id space; the parent maps them through its vertex table.
    """
    with resolved(refs) as a:
        return table_from_forward_bits(
            a["fptr"], a["findices"], a["bits"], p, start=lo, stop=hi,
            goal_bits=a.get("goal_bits"),
        )


def forward_count_shard(refs: Dict[str, ArrayRef], lo: int, hi: int, p: int) -> int:
    """Kp count contribution of root edges ``[lo, hi)``."""
    with resolved(refs) as a:
        return count_from_forward_bits(
            a["fptr"], a["findices"], a["bits"], p, start=lo, stop=hi
        )
