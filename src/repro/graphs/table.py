"""Columnar clique tables: the canonical listing result type.

A :class:`CliqueTable` wraps a canonical ``(count, p)`` ``uint32``
matrix — every row is a clique with its members in ascending order,
rows are unique and sorted lexicographically — and, beside it, one
packed sort key per row, ordered like the rows.

**Packed keys.**  A table's *width* ``b`` is the bit length of its
largest id.  A 64-bit word holds ``⌊64/b⌋`` members, so a row packs
into ``w = ⌈p/⌊64/b⌋⌉`` words, its first member in the highest bits.
Members ascend within a row, so the keys' numeric order is the rows'
lexicographic order.  One word covers K3 on up to 2**21 nodes and K4 on
up to 2**16; its keys are ``uint32`` when ``p·b ≤ 32`` (half the bytes
to sort, search and move, and half the cache a shared table keeps) and
``uint64`` otherwise.  Only wider rows take ``w > 1`` ``uint64`` words,
seen as one :func:`structured_view` element so that a search compares
them word by word.

- Canonicalization sorts within each row, packs, sorts the keys, drops
  adjacent repeats and unpacks.
- Membership, difference, union and ``in`` binary-search one operand's
  keys in the other's — O(k log N) for k rows against N, no re-sort —
  and a fold deletes or inserts rows and keys at the same positions,
  each row as a single ``V{4p}`` element.
- A table keeps the keys its canonicalization or fold produced, or
  packs them once on its first search.  A needle wider than the table
  holds an id the table does not, so it is absent: the table is never
  re-packed for it.  Only :meth:`CliqueTable.union` re-packs, when the
  merged width grows.

The rows stay the stored form.  Kernels, attribution (``rows[:, 0]`` is
each clique's minimum member), the ``precomputed_table`` listing entry
point, equality (``np.array_equal``), hashing and frozenset
materialization all read them, and their bytes do not depend on the
width the keys were packed at.

Frozenset materialization (:meth:`as_frozenset`) is lazy and cached at
most once per table; everything upstream of the API edge works on the
matrix.  Tables are immutable after construction — the rows and the
keys are marked non-writeable so accidental mutation fails loudly,
which is what lets snapshots, stream engines and epochs share one table
(and its one cached frozenset and keys) without copying.
"""

from __future__ import annotations

import gc
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.keys import contains_sorted, unique_sorted

Clique = FrozenSet[int]

#: A table's search index: its width in bits per id and its sorted keys.
Packed = Tuple[int, np.ndarray]

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


def _width(high) -> int:
    """Bits per packed id for ids up to ``high``."""
    return max(1, int(high).bit_length())


def _pack(rows: np.ndarray, width: int) -> np.ndarray:
    """One key per ascending ``uint32`` row at ``width`` bits per id."""
    p = rows.shape[1]
    per = 64 // width
    words = []
    for start in range(0, p, per):
        word = rows[:, start].astype(np.uint32 if p * width <= 32 else np.uint64)
        for j in range(start + 1, min(start + per, p)):
            word <<= width
            word |= rows[:, j]
        words.append(word)
    return words[0] if len(words) == 1 else structured_view(np.stack(words, axis=1))


def _words(keys: np.ndarray) -> np.ndarray:
    """Keys as a ``(count, w)`` word matrix."""
    if keys.dtype.names is None:
        return keys[:, None]
    return keys.view(np.uint64).reshape(-1, keys.dtype.itemsize // 8)


def _unpack(keys: np.ndarray, p: int, width: int) -> np.ndarray:
    """The ``(count, p)`` uint32 rows that :func:`_pack` made ``keys`` of."""
    words = _words(keys)
    per = 64 // width
    mask = (1 << width) - 1
    rows = np.empty((keys.shape[0], p), dtype=np.uint32)
    for j in range(p):
        word, slot = divmod(j, per)
        last = min(per, p - word * per) - 1  # slot of the word's lowest member
        rows[:, j] = (words[:, word] >> (width * (last - slot))) & mask
    return rows


def _sort_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys; multi-word keys sort by ``lexsort`` over
    their words (a structured ``np.sort`` is ~3× slower)."""
    if keys.dtype.names is None:
        return unique_sorted(keys)
    ordered = keys[np.lexsort(_words(keys).T[::-1])]
    keep = np.ones(ordered.shape[0], dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _needle_keys(
    rows: np.ndarray, packed: Packed, width: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Keys of canonical needle ``rows`` at a haystack's ``width``, and
    the indices of the rows they are keys of (``None``: every row).

    A row holding an id wider than ``width`` is not in the haystack, so
    it is left out rather than widening the haystack."""
    own, keys = packed
    if own == width:
        return keys, None
    if own < width:
        return _pack(rows, width), None
    index = np.flatnonzero(rows[:, -1] < (1 << width))  # the last member is the largest
    return _pack(rows[index], width), index


def _search(needles: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Binary-search ``needles`` in non-empty sorted ``keys``: the
    insertion point of each needle and whether the key there equals it."""
    pos = np.searchsorted(keys, needles)
    found = keys[np.minimum(pos, keys.shape[0] - 1)] == needles
    return pos, found


def _canonical(rows, p: Optional[int] = None) -> Tuple[np.ndarray, Optional[Packed]]:
    """:func:`canonical_rows` and the packed keys of its rows (``None``
    when there are none)."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        if rows.size == 0 and p is not None:
            return np.empty((0, p), dtype=np.uint32), None
        raise ValueError(f"clique table must be 2-D, got shape {rows.shape}")
    if p is not None and rows.shape[1] != p:
        raise ValueError(
            f"clique table width {rows.shape[1]} does not match p={p}"
        )
    if rows.shape[0] == 0:
        return np.empty((0, rows.shape[1]), dtype=np.uint32), None
    if not np.issubdtype(rows.dtype, np.integer):
        raise TypeError(f"clique table must be integral, got {rows.dtype}")
    high = rows.max()
    if not np.can_cast(rows.dtype, np.uint32):
        low = rows.min()
        if low < 0 or high > np.iinfo(np.uint32).max:
            bad = int(low) if low < 0 else int(high)
            raise ValueError(f"clique member {bad} is outside [0, 2**32)")
    width = _width(high)
    rows = rows.astype(np.uint32)  # a copy, so the in-place sort is safe
    rows.sort(axis=1)
    keys = _sort_unique(_pack(rows, width))
    return _unpack(keys, rows.shape[1], width), (width, keys)


def canonical_rows(rows: np.ndarray, p: Optional[int] = None) -> np.ndarray:
    """Canonicalize a clique matrix: sort members within each row,
    lex-sort the rows, drop duplicates, cast to ``uint32``.

    Raises ``ValueError`` for a member outside ``[0, 2**32)``: a cast
    would wrap it onto another id and break the canonical order."""
    return _canonical(rows, p)[0]


def rows_from_cliques(cliques: Iterable[Clique], p: int) -> np.ndarray:
    """Canonical uint32 rows from an iterable of size-``p`` cliques."""
    return CliqueTable.from_cliques(cliques, p).rows


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

    __slots__ = ("rows", "_frozen", "_keys")

    def __init__(
        self,
        rows: np.ndarray,
        *,
        _trusted: bool = False,
        _keys: Optional[Packed] = None,
    ) -> None:
        if not _trusted:
            rows, _keys = _canonical(rows)
        rows.flags.writeable = False
        if _keys is not None:
            _keys[1].flags.writeable = False
        self.rows = rows
        self._frozen: Optional[FrozenSet[Clique]] = None
        self._keys = _keys

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: np.ndarray, p: Optional[int] = None) -> "CliqueTable":
        """Canonicalize any 2-D integer matrix of cliques."""
        rows, keys = _canonical(rows, p=p)
        return cls(rows, _trusted=True, _keys=keys)

    @classmethod
    def from_cliques(cls, cliques: Iterable[Clique], p: int) -> "CliqueTable":
        """Build from python cliques (sets/frozensets/sequences)."""
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
        return cls.from_rows(np.asarray(flat, dtype=np.int64).reshape(count, p), p=p)

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
        """One-key binary search — no set materialization.  Anything
        that is not ``p`` integer ids in ``[0, 2**32)`` is absent."""
        try:
            members = np.array([sorted(clique)])  # type: ignore[arg-type]
            needle, packed = _canonical(members, p=self.p)
        except (TypeError, ValueError):
            return False
        if len(self) == 0:
            return False
        width, keys = self._packed()
        needles, _ = _needle_keys(needle, packed, width)
        return bool(contains_sorted(keys, needles).any())

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
    def _packed(self) -> Packed:
        """``(width, keys)`` of a non-empty table: the kept ones, or
        packed once here (the same benign race as :meth:`as_frozenset`)."""
        packed = self._keys
        if packed is None:
            width = _width(self.rows[:, -1].max())
            keys = _pack(self.rows, width)
            keys.flags.writeable = False
            packed = self._keys = (width, keys)
        return packed

    def _operand(self, other) -> Tuple[np.ndarray, Optional[Packed]]:
        """``other``'s canonical rows and, when it has any, its keys."""
        if isinstance(other, CliqueTable):
            if other.p != self.p:
                raise ValueError(f"p mismatch: {self.p} vs {other.p}")
            return other.rows, other._packed() if len(other) else None
        return _canonical(other, p=self.p)

    def membership(self, other) -> np.ndarray:
        """Boolean mask over ``self.rows``: which rows appear in
        ``other`` (a CliqueTable or any integer clique matrix)."""
        rows, packed = self._operand(other)
        if len(self) == 0 or rows.shape[0] == 0:
            return np.zeros(len(self), dtype=bool)
        width, keys = packed
        needles, index = _needle_keys(self.rows, self._packed(), width)
        found = contains_sorted(keys, needles)
        if index is None:
            return found
        mask = np.zeros(len(self), dtype=bool)
        mask[index] = found
        return mask

    def difference(self, other) -> "CliqueTable":
        """Rows of ``self`` not in ``other`` (canonical order kept)."""
        rows, packed = self._operand(other)
        if len(self) == 0 or rows.shape[0] == 0:
            return self
        width, keys = self._packed()
        needles, _ = _needle_keys(rows, packed, width)
        pos, found = _search(needles, keys)
        if not found.any():
            return self
        hit = pos[found]
        kept = np.delete(_row_view(self.rows), hit)
        return CliqueTable(
            _from_row_view(kept, self.p),
            _trusted=True,
            _keys=(width, np.delete(keys, hit)),
        )

    def union(self, other) -> "CliqueTable":
        """Merge of ``self`` and ``other`` (deduplicated, canonical):
        each missing row goes in at its search position."""
        rows, packed = self._operand(other)
        if rows.shape[0] == 0:
            return self
        if len(self) == 0:
            return CliqueTable(rows, _trusted=True, _keys=packed)
        own, keys = self._packed()
        width = max(own, packed[0])
        if width > own:  # the merged width grows: the one re-pack
            keys = _pack(self.rows, width)
        needles, _ = _needle_keys(rows, packed, width)
        pos, found = _search(needles, keys)
        if found.all():
            return self
        missing = ~found
        at = pos[missing]
        merged = np.insert(_row_view(self.rows), at, _row_view(rows)[missing])
        return CliqueTable(
            _from_row_view(merged, self.p),
            _trusted=True,
            _keys=(width, np.insert(keys, at, needles[missing])),
        )

    def owners(self) -> np.ndarray:
        """The minimum member of every clique — rows ascend, so this is
        just the first column."""
        return self.rows[:, 0]
