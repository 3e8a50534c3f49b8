"""Columnar clique tables: the canonical listing result type.

A :class:`CliqueTable` wraps a canonical ``(count, p)`` ``uint32``
matrix — every row is a clique with its members in ascending order,
rows are unique and sorted lexicographically.  Canonical form makes
structural operations cheap numpy work instead of python-set work:

- equality is ``np.array_equal`` on the raw matrix,
- membership, set difference and union binary-search one table's rows
  in the other's canonical order (``searchsorted`` on
  :func:`structured_view`) — O(k log N) for k rows against N, with no
  re-sort — and then move whole rows as single ``V{4p}`` elements,
- per-owner attribution is a column slice (``rows[:, 0]`` is the
  minimum member of each clique).

Frozenset materialization (:meth:`as_frozenset`) is lazy and cached at
most once per table; everything upstream of the API edge works on the
matrix.  Tables are immutable after construction — the backing array is
marked non-writeable so accidental mutation fails loudly, which is what
lets snapshots, stream engines and epochs share one table (and its one
cached frozenset) without copying.
"""

from __future__ import annotations

import gc
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

Clique = FrozenSet[int]

__all__ = [
    "CliqueTable",
    "canonical_rows",
    "frozenset_rows",
    "materialize_rows",
    "rows_from_cliques",
    "structured_view",
]


def structured_view(rows: np.ndarray) -> np.ndarray:
    """A 1-D structured view of ``rows`` whose element order is the
    numeric lexicographic order of the rows.

    Structured dtypes compare field-by-field (numerically), unlike raw
    ``np.void`` byte views which compare by memcmp and would mis-sort
    little-endian integers.  Works for ``sort``/``searchsorted`` on any
    contiguous 2-D integer matrix.
    """
    rows = np.ascontiguousarray(rows)
    dtype = np.dtype([(f"f{k}", rows.dtype) for k in range(rows.shape[1])])
    return rows.view(dtype)[:, 0]


def _row_view(rows: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous ``(count, p)`` uint32 matrix as one
    ``V{4p}`` element, so a gather or an insert moves whole rows with
    one memcpy each.  Equal rows are equal elements, but the element
    order is memcmp order, not numeric (see :func:`structured_view`)."""
    return rows.view(np.dtype((np.void, 4 * rows.shape[1])))[:, 0]


def _from_row_view(view: np.ndarray, p: int) -> np.ndarray:
    return view.view(np.uint32).reshape(-1, p)


def _search(needles: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Binary-search canonical ``needles`` in canonical ``rows``: the
    insertion point of each needle and whether the row there equals it."""
    pos = np.searchsorted(structured_view(rows), structured_view(needles))
    found = np.zeros(needles.shape[0], dtype=bool)
    inside = pos < rows.shape[0]
    found[inside] = _row_view(rows)[pos[inside]] == _row_view(needles)[inside]
    return pos, found


def canonical_rows(rows: np.ndarray, p: Optional[int] = None) -> np.ndarray:
    """Canonicalize a clique matrix: sort members within each row,
    lex-sort the rows, drop duplicates, cast to ``uint32``.

    Raises ``ValueError`` for a member outside ``[0, 2**32)``: a cast
    would wrap it onto another id and break the canonical order."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        if rows.size == 0 and p is not None:
            return np.empty((0, p), dtype=np.uint32)
        raise ValueError(f"clique table must be 2-D, got shape {rows.shape}")
    if p is not None and rows.shape[1] != p:
        raise ValueError(
            f"clique table width {rows.shape[1]} does not match p={p}"
        )
    if rows.shape[0] == 0:
        return np.empty((0, rows.shape[1]), dtype=np.uint32)
    if not np.issubdtype(rows.dtype, np.integer):
        raise TypeError(f"clique table must be integral, got {rows.dtype}")
    if not np.can_cast(rows.dtype, np.uint32):
        low, high = rows.min(), rows.max()
        if low < 0 or high > np.iinfo(np.uint32).max:
            bad = int(low) if low < 0 else int(high)
            raise ValueError(f"clique member {bad} is outside [0, 2**32)")
    rows = np.sort(rows, axis=1).astype(np.uint32, copy=False)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    if rows.shape[0] > 1:
        keep = np.empty(rows.shape[0], dtype=bool)
        keep[0] = True
        np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
        if not keep.all():
            rows = rows[keep]
    return np.ascontiguousarray(rows)


def rows_from_cliques(cliques: Iterable[Clique], p: int) -> np.ndarray:
    """Canonical uint32 rows from an iterable of size-``p`` cliques."""
    flat: List[int] = []
    count = 0
    for clique in cliques:
        members = sorted(clique)
        if len(members) != p:
            raise ValueError(
                f"clique {members} has size {len(members)}, expected {p}"
            )
        flat.extend(members)
        count += 1
    rows = np.asarray(flat, dtype=np.int64).reshape(count, p)
    return canonical_rows(rows, p=p)


def frozenset_rows(rows: np.ndarray) -> List[Clique]:
    """Materialize each row as a frozenset, preserving row order.

    Column-major: ``p`` flat python lists (one per column) zipped into
    row tuples — never the ``(count, p)`` list-of-lists that
    ``table.tolist()`` would build.
    """
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        return []
    cols = rows.T.tolist()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return list(map(frozenset, zip(*cols)))
    finally:
        if was_enabled:
            gc.enable()


def materialize_rows(rows: np.ndarray) -> Set[Clique]:
    """Bulk-materialize a clique matrix as ``set[frozenset[int]]``.

    Same column-major trick as :func:`frozenset_rows`; GC is paused
    during the bulk allocation burst (collection cannot free anything
    mid-build, it only adds bookkeeping per container).
    """
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        return set()
    cols = rows.T.tolist()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return set(map(frozenset, zip(*cols)))
    finally:
        if was_enabled:
            gc.enable()


class CliqueTable:
    """An immutable canonical ``(count, p)`` uint32 clique matrix.

    Construct with :meth:`from_rows` (canonicalizes arbitrary integer
    input) or :meth:`from_cliques`; the bare constructor trusts its
    input to already be canonical and is for internal fast paths.
    """

    __slots__ = ("rows", "_frozen")

    def __init__(self, rows: np.ndarray, *, _trusted: bool = False) -> None:
        if not _trusted:
            rows = canonical_rows(rows)
        if not rows.flags.writeable:
            self.rows = rows
        else:
            self.rows = rows
            rows.flags.writeable = False
        self._frozen: Optional[FrozenSet[Clique]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: np.ndarray, p: Optional[int] = None) -> "CliqueTable":
        """Canonicalize any 2-D integer matrix of cliques."""
        return cls(canonical_rows(rows, p=p), _trusted=True)

    @classmethod
    def from_cliques(cls, cliques: Iterable[Clique], p: int) -> "CliqueTable":
        """Build from python cliques (sets/frozensets/sequences)."""
        return cls(rows_from_cliques(cliques, p), _trusted=True)

    @classmethod
    def empty(cls, p: int) -> "CliqueTable":
        return cls(np.empty((0, p), dtype=np.uint32), _trusted=True)

    # ------------------------------------------------------------------
    # Shape / identity
    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        return int(self.rows.shape[1])

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def __bool__(self) -> bool:
        return self.rows.shape[0] > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CliqueTable):
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, (set, frozenset)):
            return len(other) == len(self) and self.as_frozenset() == other
        return NotImplemented

    def __hash__(self) -> int:  # tables are immutable values
        return hash((self.rows.shape, self.rows.tobytes()))

    def __repr__(self) -> str:
        return f"CliqueTable(p={self.p}, count={len(self)})"

    # ------------------------------------------------------------------
    # Lazy set semantics
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Clique]:
        """Yield cliques in lexicographic row order, without building
        (or caching) the full set unless it is already cached."""
        if self._frozen is not None:
            return iter(self._frozen)
        return iter(frozenset_rows(self.rows))

    def __contains__(self, clique: object) -> bool:
        """One-row binary search — no set materialization.  Anything
        that is not ``p`` integer ids in ``[0, 2**32)`` is absent."""
        try:
            members = np.array([sorted(clique)])  # type: ignore[arg-type]
            needle = canonical_rows(members, p=self.p)
        except (TypeError, ValueError):
            return False
        return bool(_search(needle, self.rows)[1][0])

    def as_frozenset(self) -> FrozenSet[Clique]:
        """The table as ``frozenset[frozenset[int]]``, materialized at
        most once and cached (a benign race under the GIL: two threads
        may both build it, one assignment wins, both are equal)."""
        cached = self._frozen
        if cached is None:
            cached = frozenset(materialize_rows(self.rows))
            self._frozen = cached
        return cached

    def as_sets(self) -> FrozenSet[Clique]:
        """Alias for :meth:`as_frozenset` (the API-edge name)."""
        return self.as_frozenset()

    def to_set(self) -> Set[Clique]:
        """A fresh *mutable* set of the cliques (callers own it)."""
        return set(self.as_frozenset())

    # ------------------------------------------------------------------
    # Vectorized set algebra
    # ------------------------------------------------------------------
    def _other_rows(self, other) -> np.ndarray:
        if isinstance(other, CliqueTable):
            if other.p != self.p:
                raise ValueError(f"p mismatch: {self.p} vs {other.p}")
            return other.rows
        return canonical_rows(other, p=self.p)

    def membership(self, other) -> np.ndarray:
        """Boolean mask over ``self.rows``: which rows appear in
        ``other`` (a CliqueTable or any integer clique matrix)."""
        rows = self._other_rows(other)
        if len(self) == 0 or rows.shape[0] == 0:
            return np.zeros(len(self), dtype=bool)
        return _search(self.rows, rows)[1]

    def difference(self, other) -> "CliqueTable":
        """Rows of ``self`` not in ``other`` (canonical order kept)."""
        rows = self._other_rows(other)
        if len(self) == 0 or rows.shape[0] == 0:
            return self
        pos, found = _search(rows, self.rows)
        if not found.any():
            return self
        kept = np.delete(_row_view(self.rows), pos[found])
        return CliqueTable(_from_row_view(kept, self.p), _trusted=True)

    def union(self, other) -> "CliqueTable":
        """Merge of ``self`` and ``other`` (deduplicated, canonical):
        each missing row goes in at its search position."""
        rows = self._other_rows(other)
        if rows.shape[0] == 0:
            return self
        if len(self) == 0:
            return CliqueTable(rows, _trusted=True)
        pos, found = _search(rows, self.rows)
        if found.all():
            return self
        missing = ~found
        merged = np.insert(
            _row_view(self.rows), pos[missing], _row_view(rows)[missing]
        )
        return CliqueTable(_from_row_view(merged, self.p), _trusted=True)

    def owners(self) -> np.ndarray:
        """The minimum member of every clique — rows ascend, so this is
        just the first column."""
        return self.rows[:, 0]
