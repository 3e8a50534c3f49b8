"""Out-of-core CSR partitions: memmap-backed slices of one big graph.

:func:`write_partitioned` persists a :class:`~repro.graphs.csr.CSRGraph`
to a directory as flat int64 binaries plus a JSON manifest:

``manifest.json``   n, edge counts, format version, partition table
``indptr.bin``      undirected CSR row pointers  (n+1)
``indices.bin``     undirected CSR neighbor ids  (2m)
``order.bin``       the deterministic degeneracy order (n)
``fptr.bin``        forward-adjacency row pointers under that order (n+1)
``findices.bin``    forward-adjacency neighbor ids (m)

:class:`PartitionedCSR` opens the manifest with every binary as a
read-only ``np.memmap`` — nothing is loaded up front except the O(n)
pointer arrays.  The partition table splits the *root-node* space into
contiguous ranges balanced by forward out-degree; each
:class:`CSRPartition` also records its forward-edge slice
``[edge_lo, edge_hi) == [fptr[lo], fptr[hi])``.

Listing walks one partition-range at a time through the *existing*
range-restricted kernels — :func:`~repro.graphs.csr.
table_from_forward_bits` (root-edge slices, bitset regime) or
:func:`~repro.graphs.csr.table_from_forward_sorted` (root-node slices,
n past the bitset cap).  Root ranges partition the cliques and
consecutive ranges concatenate in order, so the result is
**byte-identical** to the in-memory ``csr.clique_table(p)`` — the
dist-differential suite pins this, and the gated bench additionally
bounds the python-heap peak (tracemalloc) by the partition size: file
pages stream through the OS page cache instead of the heap.

A :class:`~repro.dist.cluster.Cluster` can list partitions remotely
(``partition_table_shard`` / ``partition_count_shard`` in the task
allowlist): workers re-open the manifest themselves, so only the
directory path and the tiny result rows cross the wire.  This assumes
the partition directory is reachable on every node (shared filesystem
or a copy) — see ``docs/distributed.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.graphs.csr import (
    BITSET_MAX_NODES,
    CSRGraph,
    count_from_forward_bits,
    count_from_forward_sorted,
    pack_bitset_rows,
    table_from_forward_bits,
    table_from_forward_sorted,
)
from repro.graphs.graph import Graph
from repro.graphs.table import CliqueTable
from repro.parallel.shard import balanced_ranges

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1

_FILES = ("indptr", "indices", "order", "fptr", "findices")


@dataclass(frozen=True)
class CSRPartition:
    """One contiguous root-range of a partitioned forward adjacency."""

    index: int
    lo: int  # root-node range [lo, hi)
    hi: int
    edge_lo: int  # forward-edge slice [fptr[lo], fptr[hi])
    edge_hi: int

    @property
    def num_roots(self) -> int:
        return self.hi - self.lo

    @property
    def num_edges(self) -> int:
        return self.edge_hi - self.edge_lo

    @property
    def nbytes(self) -> int:
        """Bytes this partition's slices occupy (the RSS budget of one
        out-of-core listing step): its findices slice plus its fptr
        window, all int64."""
        return 8 * (self.num_edges + self.num_roots + 1)


def write_partitioned(
    source: Union[Graph, CSRGraph],
    root: Union[str, Path],
    partitions: int = 8,
) -> "PartitionedCSR":
    """Persist ``source`` as a partitioned on-disk CSR; returns it opened.

    The write path runs in memory (it needs the degeneracy order, which
    is a whole-graph computation); the payoff is every *subsequent*
    listing, which runs partition-by-partition off the memmaps.
    ``partitions`` bounds the per-step working set: weights are forward
    out-degrees, so each range carries ≈ ``m/partitions`` edges.
    """
    if partitions < 1:
        raise ValueError(f"need at least one partition, got {partitions}")
    csr = source.to_csr() if isinstance(source, Graph) else source
    fptr, findices = csr.forward()
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    arrays = {
        "indptr": csr.indptr,
        "indices": csr.indices,
        "order": csr.order(),
        "fptr": fptr,
        "findices": findices,
    }
    for name, array in arrays.items():
        np.ascontiguousarray(array, dtype=np.int64).tofile(root / f"{name}.bin")
    ranges = balanced_ranges(np.diff(fptr), partitions)
    table = [
        [int(lo), int(hi), int(fptr[lo]), int(fptr[hi])]
        for lo, hi in ranges
        if hi > lo
    ] or [[0, 0, 0, 0]]
    manifest = {
        "format": MANIFEST_FORMAT,
        "n": int(csr.num_nodes),
        "num_edges": int(csr.num_edges),
        "num_forward_edges": int(findices.size),
        "dtype": "int64",
        "files": {name: f"{name}.bin" for name in _FILES},
        "partitions": table,
    }
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return PartitionedCSR.open(root)


class PartitionedCSR:
    """A partitioned on-disk CSR, opened read-only via ``np.memmap``.

    Construct with :meth:`open` (existing directory) or
    :func:`write_partitioned` (persist + open).  The pointer arrays
    (``fptr``, ``indptr`` — O(n)) are materialized because the search
    kernels index them randomly; the edge arrays stay memmapped.
    """

    def __init__(self, root: Path, manifest: dict) -> None:
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"unsupported partition manifest format "
                f"{manifest.get('format')!r} (want {MANIFEST_FORMAT})"
            )
        self.root = Path(root)
        self.n = int(manifest["n"])
        self.num_edges = int(manifest["num_edges"])
        self.num_forward_edges = int(manifest["num_forward_edges"])
        files = manifest["files"]
        self._maps: Dict[str, np.ndarray] = {
            name: self._open_binary(self.root / files[name])
            for name in _FILES
        }
        self.fptr = np.asarray(self._maps["fptr"], dtype=np.int64)
        if self.fptr.size != self.n + 1:
            raise ValueError(
                f"fptr has {self.fptr.size} entries, expected n+1={self.n + 1}"
            )
        self.partitions: List[CSRPartition] = [
            CSRPartition(i, lo, hi, edge_lo, edge_hi)
            for i, (lo, hi, edge_lo, edge_hi) in enumerate(manifest["partitions"])
        ]
        self._bits: Optional[np.ndarray] = None

    @staticmethod
    def _open_binary(path: Path) -> np.ndarray:
        if path.stat().st_size == 0:
            return np.empty(0, dtype=np.int64)
        return np.memmap(path, dtype=np.int64, mode="r")

    @classmethod
    def open(cls, root: Union[str, Path]) -> "PartitionedCSR":
        root = Path(root)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        return cls(root, manifest)

    def __repr__(self) -> str:
        return (
            f"PartitionedCSR(n={self.n}, m={self.num_edges}, "
            f"partitions={len(self.partitions)}, root={str(self.root)!r})"
        )

    @property
    def max_partition_nbytes(self) -> int:
        return max(part.nbytes for part in self.partitions)

    def to_csr(self) -> CSRGraph:
        """Materialize the full in-memory snapshot (tests/small graphs)."""
        return CSRGraph(
            np.asarray(self._maps["indptr"], dtype=np.int64).copy(),
            np.asarray(self._maps["indices"], dtype=np.int64).copy(),
        )

    # ------------------------------------------------------------------
    # Per-partition kernels
    # ------------------------------------------------------------------
    def _bitset(self) -> np.ndarray:
        """The forward bitset matrix (bitset regime only, built once)."""
        if self._bits is None:
            self._bits = pack_bitset_rows(
                self.fptr, np.asarray(self._maps["findices"]), self.n
            )
        return self._bits

    def partition_rows(self, part: CSRPartition, p: int) -> np.ndarray:
        """This partition's Kp rows — exactly the slice ``[lo, hi)`` of
        the in-memory ``clique_table(p)`` row stream (fresh arrays)."""
        if part.num_roots == 0 or part.num_edges == 0:
            return np.empty((0, p), dtype=np.int64)
        findices = self._maps["findices"]
        if self.n <= BITSET_MAX_NODES:
            return table_from_forward_bits(
                self.fptr, findices, self._bitset(), p,
                start=part.edge_lo, stop=part.edge_hi,
            )
        return table_from_forward_sorted(
            self.fptr, findices, p, start=part.lo, stop=part.hi
        )

    def partition_count(self, part: CSRPartition, p: int) -> int:
        """This partition's Kp count (no table is ever materialized)."""
        if part.num_roots == 0 or part.num_edges == 0:
            return 0
        findices = self._maps["findices"]
        if self.n <= BITSET_MAX_NODES:
            return count_from_forward_bits(
                self.fptr, findices, self._bitset(), p,
                start=part.edge_lo, stop=part.edge_hi,
            )
        return count_from_forward_sorted(
            self.fptr, findices, p, start=part.lo, stop=part.hi
        )

    # ------------------------------------------------------------------
    # Whole-graph results, one partition-range at a time
    # ------------------------------------------------------------------
    def clique_table(self, p: int, cluster=None) -> np.ndarray:
        """All Kp rows, listed partition-by-partition.

        Byte-identical to the in-memory ``csr.clique_table(p)`` (same
        order file, same kernels, ranges concatenated in order).  With a
        ``cluster``, partitions dispatch as ``partition_table_shard``
        tasks — workers open this manifest themselves.
        """
        if p < 3:
            raise ValueError("clique tables exist for p >= 3 only")
        if cluster is not None:
            tables = cluster.map_task(
                "partition_table_shard",
                {},
                [(str(self.root), part.index, p) for part in self.partitions],
            )
        else:
            tables = [self.partition_rows(part, p) for part in self.partitions]
        tables = [np.asarray(t, dtype=np.int64).reshape(-1, p) for t in tables]
        kept = [t for t in tables if t.shape[0]]
        if not kept:
            return np.empty((0, p), dtype=np.int64)
        return np.concatenate(kept) if len(kept) > 1 else kept[0].copy()

    def clique_result(self, p: int, cluster=None) -> CliqueTable:
        """Canonical :class:`CliqueTable` of all Kp — equal to the
        in-memory ``csr.clique_result(p)``."""
        return CliqueTable.from_rows(self.clique_table(p, cluster=cluster), p=p)

    def count(self, p: int, cluster=None) -> int:
        """Total Kp count; per-partition counts sum exactly."""
        if cluster is not None:
            counts = cluster.map_task(
                "partition_count_shard",
                {},
                [(str(self.root), part.index, p) for part in self.partitions],
            )
        else:
            counts = [self.partition_count(part, p) for part in self.partitions]
        return int(sum(int(c) for c in counts))


# ----------------------------------------------------------------------
# Worker-side tasks (allowlisted in repro.dist.registry)
# ----------------------------------------------------------------------
#: Per-process manifest cache: a worker serving many partition shards of
#: the same directory opens (and bitset-packs) it once.
_OPENED: Dict[str, PartitionedCSR] = {}


def _opened(root: str) -> PartitionedCSR:
    part_csr = _OPENED.get(root)
    if part_csr is None:
        part_csr = _OPENED[root] = PartitionedCSR.open(root)
    return part_csr


def partition_table_shard(refs, root: str, index: int, p: int) -> np.ndarray:
    """One partition's Kp rows, computed where the call lands.  The
    manifest travels by *path* — nodes must see the same filesystem."""
    del refs  # inputs are on disk, not in the array channel
    part_csr = _opened(root)
    return part_csr.partition_rows(part_csr.partitions[int(index)], int(p))


def partition_count_shard(refs, root: str, index: int, p: int) -> int:
    """One partition's Kp count (see :func:`partition_table_shard`)."""
    del refs
    part_csr = _opened(root)
    return part_csr.partition_count(part_csr.partitions[int(index)], int(p))
