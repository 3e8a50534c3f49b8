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

    A task of the node registry (:mod:`repro.dist.registry`); the
    executors list several mailboxes inline.  Inputs: ``indptr`` (the
    full group boundary array) and ``edges`` (the full ``(messages, 2)``
    matrix).  The shard rebases its slice to a local group space, runs
    the identical block-diagonal pipeline, and shifts the owner column
    back to global group ids.
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


def forward_table_shard(
    refs: Dict[str, ArrayRef], lo: int, hi: int, p: int
) -> np.ndarray:
    """Kp table of root edges ``[lo, hi)`` of one forward adjacency.

    Inputs: ``fptr``/``findices`` (the forward CSR), ``bits`` (its
    packed bitset rows) and, optionally, ``goal_bits`` (keep only the
    cliques holding a goal pair).  Output rows are in the adjacency's
    *local* id space, in the narrowest unsigned dtype that holds its
    largest id (uint8 up to 256 vertices, uint16 up to 65,536), so a
    shard's table crosses the result pipe in one or two bytes an id;
    the parent maps them through its vertex table.
    """
    with resolved(refs) as a:
        table = table_from_forward_bits(
            a["fptr"], a["findices"], a["bits"], p, start=lo, stop=hi,
            goal_bits=a.get("goal_bits"),
        )
        return table.astype(np.min_scalar_type(max(a["fptr"].size - 2, 0)))


def forward_count_shard(refs: Dict[str, ArrayRef], lo: int, hi: int, p: int) -> int:
    """Kp count contribution of root edges ``[lo, hi)``."""
    with resolved(refs) as a:
        return count_from_forward_bits(
            a["fptr"], a["findices"], a["bits"], p, start=lo, stop=hi
        )
