"""Overlay network topologies and the makespan cost surface.

The ledger has always charged the *uniform* CONGESTED CLIQUE: every pair
of nodes shares a dedicated unit-bandwidth link, so a routed pattern
costs ``lenzen_slack · ⌈max-node-load / n⌉`` rounds regardless of which
pairs actually talk.  This module parameterizes the network instead: a
frozen :class:`Topology` names an overlay (clique, star, ring, chain,
grid, or a spanner-sparsified hub hierarchy à la Parter–Yogev,
arXiv:1805.05404) together with per-link ``bandwidth`` (words/round)
and ``latency`` (rounds/hop), and every charged primitive reports — in
addition to the unchanged uniform-clique rounds — a topology-aware
**makespan**:

    makespan = ⌈ max-directed-link-words / bandwidth ⌉ + latency · max-hops

Messages route along deterministic shortest overlay routes (star via
the hub, ring along the shorter arc, grid row-first with a column-first
fallback at the ragged edge, spanner up/across/down its hub hierarchy),
and per-link word loads are accumulated with vectorized difference
arrays — no per-message Python loop, so overlay accounting stays cheap
even for the million-row fan-out batches of the batch plane.

The clique is the degenerate overlay: every route is one hop, the
Lenzen schedule already *is* the per-link schedule, so its makespan is
defined as ``rounds / bandwidth + latency`` — byte-identical to the
charged rounds at the default ``bandwidth=1, latency=0``.  The
differential suite in ``tests/test_topology_differential.py`` pins
clique-topology runs to the no-topology runs row for row.

Spanner overlays answer the Parter–Yogev question "how few links can
carry a clique algorithm": a ``k``-level hub hierarchy with branching
``⌈n^{1/k}⌉`` has O(k·n + n^{2/k}) directed links and stretch ≤ 2k−1
over the clique, so a dense pattern that would light up Θ(n²) clique
pairs crosses only O(n) provisioned links (the ``pattern_pairs`` /
``links_used`` ratio the topology benchmark gates on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Overlay kinds every topology-aware entry point accepts.
TOPOLOGY_KINDS = ("clique", "star", "ring", "chain", "grid", "spanner")

#: Source chunk size for the all-pairs broadcast accounting: loads are
#: additive, so the n·(n−1) pattern accumulates in bounded memory.
_BROADCAST_CHUNK = 256


@dataclass(frozen=True)
class Topology:
    """A frozen overlay-network specification.

    Attributes
    ----------
    kind:
        One of :data:`TOPOLOGY_KINDS`.  ``"clique"`` (the default) is
        the uniform all-to-all network the ledger has always charged.
    bandwidth:
        Words one directed overlay link carries per round (> 0).
    latency:
        Rounds one overlay hop adds to a message's journey (>= 0).
    grid_width:
        Columns of the ``"grid"`` overlay (``None`` → ⌈√n⌉ at compile
        time).  Ignored by every other kind.
    spanner_k:
        Stretch parameter of the ``"spanner"`` overlay: a ``k``-level
        hub hierarchy with stretch ≤ 2k−1 and O(k·n + n^{2/k}) links
        (k ≥ 2).  Ignored by every other kind.
    """

    kind: str = "clique"
    bandwidth: float = 1.0
    latency: float = 0.0
    grid_width: Optional[int] = None
    spanner_k: int = 2

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; use one of {TOPOLOGY_KINDS}"
            )
        if not (isinstance(self.bandwidth, (int, float)) and self.bandwidth > 0):
            raise ValueError(
                f"link bandwidth must be a positive number of words/round, "
                f"got {self.bandwidth!r}"
            )
        if not (isinstance(self.latency, (int, float)) and self.latency >= 0):
            raise ValueError(
                f"link latency must be a non-negative number of rounds/hop, "
                f"got {self.latency!r}"
            )
        if self.grid_width is not None and (
            not isinstance(self.grid_width, int) or self.grid_width < 1
        ):
            raise ValueError(
                f"grid_width must be a positive integer or None, got {self.grid_width!r}"
            )
        if not isinstance(self.spanner_k, int) or self.spanner_k < 2:
            raise ValueError(
                f"spanner_k must be an integer >= 2, got {self.spanner_k!r}"
            )

    # ------------------------------------------------------------------
    @property
    def is_clique(self) -> bool:
        return self.kind == "clique"

    def with_(self, **changes) -> "Topology":
        """Functional update (wrapper over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

    def spec(self) -> str:
        """The canonical spec string (``parse_topology`` round-trips it)."""
        text = self.kind
        if self.kind == "grid" and self.grid_width is not None:
            text += f":{self.grid_width}"
        elif self.kind == "spanner" and self.spanner_k != 2:
            text += f":{self.spanner_k}"
        extras = []
        if self.bandwidth != 1.0:
            extras.append(f"bw={self.bandwidth:g}")
        if self.latency != 0.0:
            extras.append(f"lat={self.latency:g}")
        if extras:
            text += "@" + ",".join(extras)
        return text

    def compile(self, n: int) -> "CompiledTopology":
        """The routing tables/accumulators for an ``n``-node instance
        (cached per ``(topology, n)``)."""
        return _compile(self, n)


#: The uniform clique every router defaults to (``topology=None``).
DEFAULT_TOPOLOGY = Topology()


def parse_topology(
    spec: str, bandwidth: Optional[float] = None, latency: Optional[float] = None
) -> Topology:
    """Parse an overlay spec string (the CLI / sweep grammar).

    Grammar: ``KIND[:PARAM][@KEY=VALUE[,KEY=VALUE]...]`` where ``KIND``
    is one of :data:`TOPOLOGY_KINDS`, ``PARAM`` is the grid width
    (``grid:8``) or the spanner level count (``spanner:3``), and the
    ``@`` keys are ``bw``/``bandwidth`` and ``lat``/``latency``.  The
    ``bandwidth`` / ``latency`` arguments are defaults the ``@`` keys
    override.

    >>> parse_topology("grid:8@bw=0.5,lat=2").spec()
    'grid:8@bw=0.5,lat=2'
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"empty topology spec {spec!r}")
    text = spec.strip()
    kw: Dict[str, float] = {}
    if "@" in text:
        text, _, tail = text.partition("@")
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(
                    f"topology spec {spec!r}: expected KEY=VALUE after '@', got {item!r}"
                )
            key = key.strip()
            if key in ("bw", "bandwidth"):
                field_name = "bandwidth"
            elif key in ("lat", "latency"):
                field_name = "latency"
            else:
                raise ValueError(
                    f"topology spec {spec!r}: unknown key {key!r} "
                    f"(use bw/bandwidth or lat/latency)"
                )
            try:
                kw[field_name] = float(value)
            except ValueError:
                raise ValueError(
                    f"topology spec {spec!r}: {key} expects a number, got {value!r}"
                )
    kind, _, param = text.partition(":")
    kind = kind.strip()
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(
            f"unknown topology kind {kind!r}; use one of {TOPOLOGY_KINDS}"
        )
    fields: Dict[str, object] = dict(kw)
    if bandwidth is not None:
        fields.setdefault("bandwidth", float(bandwidth))
    if latency is not None:
        fields.setdefault("latency", float(latency))
    if param:
        try:
            value = int(param)
        except ValueError:
            raise ValueError(
                f"topology spec {spec!r}: parameter must be an integer, got {param!r}"
            )
        if kind == "grid":
            fields["grid_width"] = value
        elif kind == "spanner":
            fields["spanner_k"] = value
        else:
            raise ValueError(
                f"topology spec {spec!r}: {kind!r} takes no ':' parameter"
            )
    return Topology(kind=kind, **fields)


# ----------------------------------------------------------------------
# Charges
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkCharge:
    """The per-link accounting of one routed pattern on one overlay.

    ``makespan`` is the headline number (bottleneck link time plus hop
    latency along the longest route); the rest back it up: the
    bottleneck load itself, total words crossing links (word·hops), the
    number of distinct directed links that carried traffic, the longest
    route, and the distinct (src, dst) pairs of the pattern — the links
    a direct clique routing would have needed, which is what the
    spanner's bandwidth-reduction gate compares ``links_used`` against.
    """

    makespan: float
    max_link_words: int
    total_link_words: int
    links_used: int
    max_hops: int
    pattern_pairs: int

    def stats(self) -> Dict[str, float]:
        """The ledger-stat dict routers merge into overlay phase rows."""
        return {
            "max_link_words": float(self.max_link_words),
            "link_words": float(self.total_link_words),
            "links_used": float(self.links_used),
            "overlay_hops": float(self.max_hops),
            "pattern_pairs": float(self.pattern_pairs),
        }


def makespan_for_rounds(topology: Optional[Topology], rounds: float) -> float:
    """Clique / aggregate-only makespan: the uniform charge rescaled.

    The Lenzen schedule is already a per-link schedule on the clique
    (every link carries ≈ load/n words), so the makespan of a clique
    phase charged ``rounds`` is ``rounds / bandwidth`` plus one hop of
    latency.  Zero traffic costs zero.  ``None`` means the default
    clique (makespan == rounds exactly).
    """
    if rounds <= 0:
        return 0.0
    if topology is None:
        return float(rounds)
    return rounds / topology.bandwidth + topology.latency


def pattern_pairs(src: np.ndarray, dst: np.ndarray, n: int) -> int:
    """Distinct ordered (src, dst) pairs with src ≠ dst — the directed
    clique links a direct routing of the pattern would occupy."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    mask = src != dst
    if not mask.any():
        return 0
    return int(np.unique(src[mask] * n + dst[mask]).size)


# ----------------------------------------------------------------------
# Compiled overlays
# ----------------------------------------------------------------------
class CompiledTopology:
    """Routing tables + load accumulators for one overlay instance.

    Subclasses implement the three accumulator hooks; the shared
    :meth:`pattern_charge` / :meth:`broadcast_charge` drive them.  Load
    state is additive, so one pattern can be accumulated in chunks
    (broadcast does) without changing any number.
    """

    def __init__(self, topology: Topology, n: int) -> None:
        self.topology = topology
        self.n = n

    # -- subclass hooks -------------------------------------------------
    def new_state(self):
        raise NotImplementedError

    def accumulate(self, state, src: np.ndarray, dst: np.ndarray, words: int) -> int:
        """Add one message chunk's per-link loads; return the chunk's
        max route length in hops."""
        raise NotImplementedError

    def loads(self, state) -> np.ndarray:
        """Flatten accumulated state into one directed-link load vector."""
        raise NotImplementedError

    def num_links(self) -> int:
        """Directed links the overlay provisions (0 for n == 1)."""
        raise NotImplementedError

    def hops(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Per-message route lengths (0 for src == dst)."""
        raise NotImplementedError

    # -- shared driving logic ------------------------------------------
    def _finish(self, state, max_hops: int, pairs: int) -> LinkCharge:
        loads = self.loads(state)
        used = loads[loads > 0]
        max_link = int(used.max()) if used.size else 0
        if max_link == 0:
            return LinkCharge(0.0, 0, 0, 0, 0, pairs)
        makespan = (
            math.ceil(max_link / self.topology.bandwidth)
            + self.topology.latency * max_hops
        )
        return LinkCharge(
            makespan=float(makespan),
            max_link_words=max_link,
            total_link_words=int(used.sum()),
            links_used=int(used.size),
            max_hops=int(max_hops),
            pattern_pairs=pairs,
        )

    def pattern_charge(
        self, src: np.ndarray, dst: np.ndarray, words_per_message: int = 1
    ) -> LinkCharge:
        """Per-link accounting of an arbitrary multicommodity pattern."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        state = self.new_state()
        max_hops = self.accumulate(state, src, dst, int(words_per_message))
        return self._finish(state, max_hops, pattern_pairs(src, dst, self.n))

    def broadcast_charge(self, words_per_node: int) -> LinkCharge:
        """The uniform all-to-all pattern: every node sends
        ``words_per_node`` words to every other node.  Exact — the n·(n−1)
        pattern is accumulated in source chunks, never materialized."""
        n = self.n
        if n < 2 or words_per_node <= 0:
            return LinkCharge(0.0, 0, 0, 0, 0, 0)
        state = self.new_state()
        max_hops = 0
        others = np.arange(n, dtype=np.int64)
        for lo in range(0, n, _BROADCAST_CHUNK):
            sources = np.arange(lo, min(lo + _BROADCAST_CHUNK, n), dtype=np.int64)
            src = np.repeat(sources, n - 1)
            dst = np.concatenate(
                [others[others != s] for s in sources]
            )
            max_hops = max(
                max_hops, self.accumulate(state, src, dst, int(words_per_node))
            )
        return self._finish(state, max_hops, n * (n - 1))


class _StarTopology(CompiledTopology):
    """Hub-and-spoke: node 0 relays everything (routes ≤ 2 hops)."""

    HUB = 0

    def new_state(self):
        # up[v] = load on v→hub, down[v] = load on hub→v.
        return (np.zeros(self.n, dtype=np.int64), np.zeros(self.n, dtype=np.int64))

    def num_links(self) -> int:
        return 2 * (self.n - 1) if self.n > 1 else 0

    def hops(self, src, dst):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        return np.where(
            src == dst, 0, (src != self.HUB).astype(np.int64) + (dst != self.HUB)
        )

    def accumulate(self, state, src, dst, words):
        up, down = state
        moving = src != dst
        np.add.at(up, src[moving & (src != self.HUB)], words)
        np.add.at(down, dst[moving & (dst != self.HUB)], words)
        h = self.hops(src, dst)
        return int(h.max(initial=0))

    def loads(self, state):
        up, down = state
        return np.concatenate([up, down])


class _ChainTopology(CompiledTopology):
    """The path 0−1−…−(n−1); a message traverses |src − dst| links."""

    def new_state(self):
        # right[k] = load on k→k+1, left[k] = load on k+1→k.
        return (np.zeros(self.n, dtype=np.int64), np.zeros(self.n, dtype=np.int64))

    def num_links(self) -> int:
        return 2 * (self.n - 1) if self.n > 1 else 0

    def hops(self, src, dst):
        return np.abs(np.asarray(src, np.int64) - np.asarray(dst, np.int64))

    def accumulate(self, state, src, dst, words):
        right, left = state
        going_right = dst > src
        going_left = src > dst
        # Difference arrays: +w at the first link, −w one past the last,
        # cumsum in loads() turns them into per-link totals.
        np.add.at(right, src[going_right], words)
        np.add.at(right, dst[going_right], -words)
        np.add.at(left, dst[going_left], words)
        np.add.at(left, src[going_left], -words)
        h = self.hops(src, dst)
        return int(h.max(initial=0))

    def loads(self, state):
        right, left = state
        return np.concatenate(
            [np.cumsum(right)[: self.n - 1], np.cumsum(left)[: self.n - 1]]
        )


class _RingTopology(CompiledTopology):
    """The cycle 0−1−…−(n−1)−0; messages take the shorter arc
    (clockwise on ties)."""

    def new_state(self):
        # cw[k] = load on k→(k+1) mod n, ccw[k] = load on (k+1) mod n → k.
        return (np.zeros(self.n, dtype=np.int64), np.zeros(self.n, dtype=np.int64))

    def num_links(self) -> int:
        if self.n < 2:
            return 0
        if self.n == 2:
            return 2
        return 2 * self.n

    def hops(self, src, dst):
        cw = np.mod(np.asarray(dst, np.int64) - np.asarray(src, np.int64), self.n)
        return np.minimum(cw, self.n - cw)

    def accumulate(self, state, src, dst, words):
        cw_load, ccw_load = state
        n = self.n
        cw_dist = np.mod(dst - src, n)
        moving = cw_dist != 0
        clockwise = moving & (cw_dist <= n - cw_dist)
        counter = moving & ~clockwise
        # Clockwise cyclic interval [src, dst): linear diff, plus a full
        # +w from 0 for wrapped messages.
        s, d = src[clockwise], dst[clockwise]
        wrap = s > d
        np.add.at(cw_load, s, words)
        np.add.at(cw_load, d, -words)
        np.add.at(cw_load, np.zeros(int(wrap.sum()), dtype=np.int64), words)
        # Counter-clockwise cyclic interval [dst, src) on the mirrored
        # orientation.
        s, d = src[counter], dst[counter]
        wrap = d > s
        np.add.at(ccw_load, d, words)
        np.add.at(ccw_load, s, -words)
        np.add.at(ccw_load, np.zeros(int(wrap.sum()), dtype=np.int64), words)
        h = self.hops(src, dst)
        return int(h.max(initial=0))

    def loads(self, state):
        cw_load, ccw_load = state
        return np.concatenate([np.cumsum(cw_load), np.cumsum(ccw_load)])


class _GridTopology(CompiledTopology):
    """A width × height mesh in row-major id order (the last row may be
    ragged).  Routes are dimension-ordered: along the source row, then
    the target column — unless the turn cell falls off the ragged edge,
    in which case the column-first order is used (one of the two always
    exists)."""

    def __init__(self, topology: Topology, n: int) -> None:
        super().__init__(topology, n)
        self.width = topology.grid_width or max(1, math.ceil(math.sqrt(n)))
        self.height = max(1, math.ceil(n / self.width))

    def new_state(self):
        shape = (self.height, self.width)
        return tuple(np.zeros(shape, dtype=np.int64) for _ in range(4))

    def num_links(self) -> int:
        ids = np.arange(self.n, dtype=np.int64)
        r, c = ids // self.width, ids % self.width
        horizontal = int(((c + 1 < self.width) & (ids + 1 < self.n)).sum())
        vertical = int((ids + self.width < self.n).sum())
        return 2 * (horizontal + vertical)

    def _row_first(self, src, dst):
        """True where the row-first turn cell (src row, dst column)
        exists; its column-first mirror is valid everywhere else."""
        r1, c2 = src // self.width, dst % self.width
        return r1 * self.width + c2 < self.n

    def hops(self, src, dst):
        src = np.asarray(src, np.int64)
        dst = np.asarray(dst, np.int64)
        r1, c1 = src // self.width, src % self.width
        r2, c2 = dst // self.width, dst % self.width
        return np.abs(r1 - r2) + np.abs(c1 - c2)

    def accumulate(self, state, src, dst, words):
        right, left, down, up = state
        src = np.asarray(src, np.int64)
        dst = np.asarray(dst, np.int64)
        moving = src != dst
        src, dst = src[moving], dst[moving]
        r1, c1 = src // self.width, src % self.width
        r2, c2 = dst // self.width, dst % self.width
        row_first = self._row_first(src, dst)
        # Horizontal leg: row r1 (row-first) or r2 (column-first), from
        # the source column to the target column.
        h_row = np.where(row_first, r1, r2)
        self._segment(right, left, h_row, c1, c2, words)
        # Vertical leg: column c2 (row-first) or c1 (column-first).
        v_col = np.where(row_first, c2, c1)
        self._segment(down, up, v_col, r1, r2, words, transpose=True)
        h = np.abs(r1 - r2) + np.abs(c1 - c2)
        return int(h.max(initial=0))

    @staticmethod
    def _segment(fwd, bwd, fixed, start, stop, words, transpose=False):
        """Difference-array update of one axis-aligned leg per message."""
        forward = stop > start
        backward = start > stop
        def _add(grid, line, a, b):
            if transpose:
                np.add.at(grid, (a, line), words)
                np.add.at(grid, (b, line), -words)
            else:
                np.add.at(grid, (line, a), words)
                np.add.at(grid, (line, b), -words)
        _add(fwd, fixed[forward], start[forward], stop[forward])
        _add(bwd, fixed[backward], stop[backward], start[backward])

    def loads(self, state):
        right, left, down, up = state
        return np.concatenate(
            [
                np.cumsum(right, axis=1)[:, : self.width - 1].ravel(),
                np.cumsum(left, axis=1)[:, : self.width - 1].ravel(),
                np.cumsum(down, axis=0)[: self.height - 1].ravel(),
                np.cumsum(up, axis=0)[: self.height - 1].ravel(),
            ]
        )


class _SpannerTopology(CompiledTopology):
    """A Parter–Yogev-style sparsifier of the clique: a ``k``-level hub
    hierarchy with branching b = ⌈n^{1/k}⌉.

    Node v's level-i hub is ``(v // bⁱ)·bⁱ``; every node links to its
    level-1 hub, hubs link up the hierarchy, and the ⌈n/b^{k−1}⌉
    top-level hubs form a clique.  Any two nodes connect through at most
    2(k−1)+1 hops — stretch ≤ 2k−1 over the clique's unit distances —
    using O(k·n + n^{2/k}) directed links instead of n·(n−1)."""

    def __init__(self, topology: Topology, n: int) -> None:
        super().__init__(topology, n)
        k = topology.spanner_k
        self.k = k
        self.branch = max(2, math.ceil(n ** (1.0 / k))) if n > 1 else 2
        ids = np.arange(n, dtype=np.int64)
        #: hubs[i][v] = v's level-i hub (hubs[0] is v itself).
        self.hubs: List[np.ndarray] = [ids]
        for level in range(1, k):
            stride = self.branch**level
            self.hubs.append((ids // stride) * stride)
        codes: List[np.ndarray] = []
        for level in range(k - 1):
            lo, hi = self.hubs[level], self.hubs[level + 1]
            different = lo != hi
            codes.append(lo[different] * n + hi[different])
            codes.append(hi[different] * n + lo[different])
        top = np.unique(self.hubs[k - 1])
        if top.size > 1:
            a = np.repeat(top, top.size)
            b = np.tile(top, top.size)
            off_diagonal = a != b
            codes.append(a[off_diagonal] * n + b[off_diagonal])
        #: Sorted directed-link code table; state is indexed through it.
        self.link_codes = (
            np.unique(np.concatenate(codes)) if codes else np.empty(0, np.int64)
        )

    def new_state(self):
        return np.zeros(self.link_codes.size, dtype=np.int64)

    def num_links(self) -> int:
        return int(self.link_codes.size)

    def _add_links(self, state, frm, to, words):
        use = frm != to
        if not use.any():
            return
        idx = np.searchsorted(self.link_codes, frm[use] * self.n + to[use])
        np.add.at(state, idx, words)

    def _walk(self, src, dst, state=None, words=0):
        """Shared route walk: counts hops, optionally loading links."""
        src = np.asarray(src, np.int64)
        dst = np.asarray(dst, np.int64)
        hops = np.zeros(src.shape, dtype=np.int64)
        met = src == dst
        cur_s, cur_d = src, dst
        for level in range(1, self.k):
            nxt_s, nxt_d = self.hubs[level][src], self.hubs[level][dst]
            climbing = ~met
            up = climbing & (cur_s != nxt_s)
            down = climbing & (cur_d != nxt_d)
            if state is not None:
                self._add_links(state, cur_s[up], nxt_s[up], words)
                self._add_links(state, nxt_d[down], cur_d[down], words)
            hops[up] += 1
            hops[down] += 1
            cur_s = np.where(climbing, nxt_s, cur_s)
            cur_d = np.where(climbing, nxt_d, cur_d)
            met = met | (cur_s == cur_d)
        crossing = ~met
        if state is not None:
            self._add_links(state, cur_s[crossing], cur_d[crossing], words)
        hops[crossing] += 1
        return hops

    def hops(self, src, dst):
        return self._walk(src, dst)

    def accumulate(self, state, src, dst, words):
        hops = self._walk(src, dst, state=state, words=words)
        return int(hops.max(initial=0))

    def loads(self, state):
        return state


_COMPILED_KINDS = {
    "star": _StarTopology,
    "ring": _RingTopology,
    "chain": _ChainTopology,
    "grid": _GridTopology,
    "spanner": _SpannerTopology,
}


@lru_cache(maxsize=128)
def _compile(topology: Topology, n: int) -> CompiledTopology:
    if topology.is_clique:
        raise ValueError(
            "the clique topology has no compiled overlay — its makespan is "
            "the uniform rounds charge (makespan_for_rounds)"
        )
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    return _COMPILED_KINDS[topology.kind](topology, n)


def makespan_charge(
    topology: Optional[Topology],
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    words_per_message: int,
    rounds: float,
) -> Tuple[float, Dict[str, float]]:
    """The (makespan, extra-stats) pair a router records for one pattern.

    The single seam both routers charge through: the clique (or
    ``topology=None``) reports ``makespan == rounds`` at the default
    bandwidth/latency and **no** extra stats — the byte-identity the
    differential suite pins — while overlays report the per-link
    accounting of :class:`LinkCharge` alongside the unchanged uniform
    rounds.
    """
    if topology is None or topology.is_clique:
        return makespan_for_rounds(topology, rounds), {}
    charge = topology.compile(n).pattern_charge(src, dst, words_per_message)
    return charge.makespan, charge.stats()
