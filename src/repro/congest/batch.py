"""Columnar message plane: batched routing as parallel numpy arrays.

The tuple plane (:meth:`CongestedClique.route` / :meth:`ClusterRouter.route`)
moves every message as an individual Python object through dict mailboxes.
That is the right *reference semantics* — one payload, one envelope — but
the Lenzen/Theorem-2.4 fan-outs of the listing algorithms move the same
edge to O(p²·k^{1−2/p}) recipients, and at bench scale that is millions of
tuples.  This module is the fast lane: a message batch is a *column
family* —

- ``src`` / ``dst``  — ``int64`` endpoint columns,
- ``payload``        — a ``(messages, width)`` ``uint32`` matrix for fixed-
  width word payloads (an edge is the ``width == 2`` case),
- ``obj``            — an optional ``object`` column as the escape hatch
  for payloads that do not fit fixed-width words.

Load accounting is one :func:`numpy.bincount` per direction, and
delivery is one stable argsort on ``dst`` instead of millions of
``list.append`` calls.  The charged rounds are **identical** to the
tuple plane by construction: both planes charge through one
:class:`~repro.congest.routing.Router` core; ``tests/test_routing_plane.py``
holds them to it bit-for-bit, and ``tests/test_property_based.py`` checks
the bincount loads against an independent per-message ``Counter``.

The §2.4.3 fan-out of Theorem 1.3 is the one pattern that stays
*factored*: a :class:`FanoutBatch` holds the edges grouped by part pair
plus one recipient list per pair, never the (edge, recipient) rows.
Its loads follow from the per-pair edge counts, the owners' mailboxes
are slices of its edge array, and :meth:`FanoutBatch.materialize` spells
the rows out only for the consumers that need every message (the fault
seam and non-clique overlays).  Both batch kinds answer the router's
questions — ``len``, ``words_per_message``, :meth:`~MessageBatch.endpoints`,
:meth:`~MessageBatch.loads`, :meth:`~MessageBatch.materialize` — the same
way.

This is the ``"batch"`` layout of
:attr:`~repro.core.config.ExecutionConfig.plane`.  Batches are always
built and charged in the calling process; only the listing kernels that
consume them move to a pool or a cluster, when ``workers``/``hosts``
ask for one (:meth:`~repro.core.config.ExecutionConfig.resolve_executor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np


def bincount_loads(
    src: np.ndarray, dst: np.ndarray, n: int, words_per_message: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized per-node send/receive word loads of a message pattern.

    Equivalent to the tuple plane's per-message ``Counter`` accumulation:
    ``send[v] = words_per_message · #{messages with src == v}`` and the
    mirror image for ``recv`` — one ``np.bincount`` per direction.  Nodes
    that send or receive nothing (including the empty pattern) report 0.
    """
    send = np.bincount(np.asarray(src, dtype=np.int64), minlength=n)
    recv = np.bincount(np.asarray(dst, dtype=np.int64), minlength=n)
    return send * int(words_per_message), recv * int(words_per_message)


def _as_words(payload: Any) -> np.ndarray:
    """``payload`` as a contiguous ``uint32`` word matrix.

    Raises ``ValueError`` for a word outside ``[0, 2**32)``: numpy's cast
    would wrap it onto another word (−1 onto 4294967295, 2**32 + 5 onto
    5).  An input whose dtype casts to ``uint32`` safely pays no check.
    """
    payload = np.asarray(payload)
    if payload.size and not np.can_cast(payload.dtype, np.uint32):
        low, high = payload.min(), payload.max()
        if low < 0 or high > np.iinfo(np.uint32).max:
            bad = low if low < 0 else high
            raise ValueError(f"payload word {bad} is outside [0, 2**32)")
    return np.ascontiguousarray(payload, dtype=np.uint32)


@dataclass
class MessageBatch:
    """A batch of directed messages as parallel columns.

    Attributes
    ----------
    src, dst:
        ``int64`` endpoint columns of equal length.
    payload:
        ``(len, width)`` ``uint32`` payload matrix; ``width == 0`` for
        messages with no word payload.  Edge payloads use ``width == 2``
        (the two endpoint identifiers).
    obj:
        Optional ``object`` column for arbitrary payloads (the escape
        hatch keeping the batch plane total over the tuple plane's
        payload space).
    words_per_message:
        Uniform size in O(log n)-bit words, exactly as in the tuple
        plane's ``route(..., words_per_message=...)``.
    """

    src: np.ndarray
    dst: np.ndarray
    payload: np.ndarray
    obj: Optional[np.ndarray] = None
    words_per_message: int = 1

    def __post_init__(self) -> None:
        self.src = np.ascontiguousarray(self.src, dtype=np.int64)
        self.dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        self.payload = _as_words(self.payload)
        if self.payload.ndim != 2:
            raise ValueError("payload must be a 2-D (messages, width) matrix")
        if not (self.src.shape[0] == self.dst.shape[0] == self.payload.shape[0]):
            raise ValueError(
                f"column lengths disagree: src={self.src.shape[0]}, "
                f"dst={self.dst.shape[0]}, payload={self.payload.shape[0]}"
            )
        if self.obj is not None and len(self.obj) != self.src.shape[0]:
            raise ValueError("obj column length disagrees with src")
        if self.words_per_message < 1:
            raise ValueError(
                f"messages occupy at least 1 word, got {self.words_per_message}"
            )

    def __len__(self) -> int:
        return int(self.src.shape[0])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, width: int = 0, words_per_message: int = 1) -> "MessageBatch":
        return cls(
            src=np.empty(0, dtype=np.int64),
            dst=np.empty(0, dtype=np.int64),
            payload=np.empty((0, width), dtype=np.uint32),
            words_per_message=words_per_message,
        )

    @classmethod
    def of_edges(
        cls, src: np.ndarray, dst: np.ndarray, endpoints: np.ndarray
    ) -> "MessageBatch":
        """Edge-carrying batch: ``endpoints`` is ``(messages, 2)`` and each
        message costs 2 words — the batch twin of ``Message.of`` on an
        edge payload."""
        endpoints = np.asarray(endpoints)
        if endpoints.ndim != 2 or endpoints.shape[1] != 2:
            raise ValueError(
                f"edge payloads are (messages, 2) matrices, got {endpoints.shape}"
            )
        return cls(src=src, dst=dst, payload=endpoints, words_per_message=2)

    @classmethod
    def from_object_messages(
        cls,
        messages: Mapping[int, Sequence[Tuple[int, Any]]],
        words_per_message: int = 1,
    ) -> "MessageBatch":
        """Columnarize a tuple-plane ``{src: [(dst, payload), ...]}`` map.

        Fixed-width integer-tuple payloads of one common width land in the
        ``payload`` matrix; anything else rides the ``obj`` column.  Used
        by the differential tests to drive both planes from one pattern.
        """
        srcs: List[int] = []
        dsts: List[int] = []
        payloads: List[Any] = []
        for src, batch in messages.items():
            for dst, payload in batch:
                srcs.append(int(src))
                dsts.append(int(dst))
                payloads.append(payload)
        width = _uniform_int_tuple_width(payloads)
        if width is not None:
            matrix = np.asarray(
                [[int(x) for x in p] for p in payloads], dtype=np.uint32
            ).reshape(len(payloads), width)
            obj = None
        else:
            matrix = np.empty((len(payloads), 0), dtype=np.uint32)
            obj = np.empty(len(payloads), dtype=object)
            obj[:] = payloads
        return cls(
            src=np.asarray(srcs, dtype=np.int64),
            dst=np.asarray(dsts, dtype=np.int64),
            payload=matrix,
            obj=obj,
            words_per_message=words_per_message,
        )

    # ------------------------------------------------------------------
    # Accounting and views
    # ------------------------------------------------------------------
    def endpoints(self) -> Tuple[Tuple[str, np.ndarray], ...]:
        """The node ids the batch names, by role: what a router validates."""
        return (("source", self.src), ("destination", self.dst))

    def loads(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node ``(send, recv)`` words over ids ``0..n-1``."""
        return bincount_loads(self.src, self.dst, n, self.words_per_message)

    def materialize(self) -> "MessageBatch":
        """The batch itself: its rows are already spelled out."""
        return self

    def send_words(self, n: int) -> np.ndarray:
        """Per-node sent words (vectorized ``Counter`` replacement)."""
        return self.loads(n)[0]

    def recv_words(self, n: int) -> np.ndarray:
        """Per-node received words (vectorized ``Counter`` replacement)."""
        return self.loads(n)[1]

    def payload_tuples(self) -> List[Any]:
        """Payloads as the tuple plane would carry them (obj wins if set)."""
        if self.obj is not None:
            return list(self.obj)
        return [tuple(row) for row in self.payload.tolist()]

    def to_object_messages(self) -> Dict[int, List[Tuple[int, Any]]]:
        """The tuple-plane view of this batch, for differential testing."""
        payloads = self.payload_tuples()
        messages: Dict[int, List[Tuple[int, Any]]] = {}
        for i, (src, dst) in enumerate(zip(self.src.tolist(), self.dst.tolist())):
            messages.setdefault(src, []).append((dst, payloads[i]))
        return messages


def _uniform_int_tuple_width(payloads: Sequence[Any]) -> Optional[int]:
    """Common tuple-of-uint32 width of the payloads, or ``None``."""
    width: Optional[int] = None
    for payload in payloads:
        if not isinstance(payload, tuple):
            return None
        if width is None:
            width = len(payload)
        elif len(payload) != width:
            return None
        for item in payload:
            if isinstance(item, bool) or not isinstance(item, (int, np.integer)):
                return None
            if not 0 <= int(item) < 2**32:
                return None
    return width


@dataclass
class DeliveredBatch:
    """A routed batch, grouped by destination.

    One stable argsort on ``dst`` orders the columns so that every
    destination's mailbox is a contiguous slice; ``indptr`` is the CSR-
    style boundary array (``indptr[v]:indptr[v+1]`` is node ``v``'s
    slice).  Within a mailbox, messages keep the batch's send order
    (stable sort), mirroring the tuple plane's arrival order per sender.
    """

    n: int
    indptr: np.ndarray
    src: np.ndarray
    payload: np.ndarray
    obj: Optional[np.ndarray] = None

    def payload_rows(self, v: int) -> np.ndarray:
        """Node ``v``'s received payload matrix (``(k, width)`` view)."""
        return self.payload[self.indptr[v] : self.indptr[v + 1]]

    def payloads(self, v: int) -> List[Any]:
        """Node ``v``'s mailbox as the tuple plane would hand it over."""
        lo, hi = int(self.indptr[v]), int(self.indptr[v + 1])
        if self.obj is not None:
            return list(self.obj[lo:hi])
        return [tuple(row) for row in self.payload[lo:hi].tolist()]

    def nonempty_nodes(self) -> np.ndarray:
        """Destinations with at least one message, ascending."""
        return np.nonzero(np.diff(self.indptr) > 0)[0]


def deliver(batch: MessageBatch | FanoutBatch, n: int) -> DeliveredBatch:
    """Group a batch (either kind) by destination — the columnar mailbox
    fill.

    Zero per-payload Python objects: one stable argsort plus fancy
    indexing reorders every column at once.
    """
    batch = batch.materialize()
    order = np.argsort(batch.dst, kind="stable")
    dst_sorted = batch.dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst_sorted, minlength=n), out=indptr[1:])
    return DeliveredBatch(
        n=n,
        indptr=indptr,
        src=batch.src[order],
        payload=batch.payload[order],
        obj=None if batch.obj is None else batch.obj[order],
    )


@dataclass
class FanoutBatch:
    """The §2.4.3 fan-out, factored: every edge goes to every recipient of
    its part pair, and the (edge, recipient) rows are never stored.

    Attributes
    ----------
    payload:
        ``(edges, 2)`` ``uint32`` edge endpoints, stably grouped by part
        pair.  An edge's first endpoint is the sender of all its copies.
    indptr:
        ``(pairs + 1,)`` — pair ``g``'s edges are
        ``payload[indptr[g]:indptr[g + 1]]``.  Every stored edge has at
        least one recipient.
    recipients, recipient_ptr:
        Pair ``g``'s recipients are
        ``recipients[recipient_ptr[g]:recipient_ptr[g + 1]]``.
    silent, silent_payload:
        The message rows the network delivered silently corrupted
        (ascending row indices) and the payloads they arrived with;
        ``None`` while every row arrives as sent.

    Message row order — what :meth:`materialize` spells out and the
    fault seam indexes — is pairs ascending, then the pair's edges, then
    each edge's recipients in list order.
    """

    payload: np.ndarray
    indptr: np.ndarray
    recipients: np.ndarray
    recipient_ptr: np.ndarray
    silent: Optional[np.ndarray] = None
    silent_payload: Optional[np.ndarray] = None

    #: Every copy carries one edge: two words.
    words_per_message: ClassVar[int] = 2

    def __len__(self) -> int:
        return int(np.diff(self.indptr) @ np.diff(self.recipient_ptr))

    def endpoints(self) -> Tuple[Tuple[str, np.ndarray], ...]:
        """The node ids the message rows name, by role.  A pair without
        edges sends nothing, so its recipients are not named."""
        active = np.repeat(np.diff(self.indptr) > 0, np.diff(self.recipient_ptr))
        return (("source", self.payload[:, 0]), ("destination", self.recipients[active]))

    def loads(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node ``(send, recv)`` words over ids ``0..n-1``, from the
        per-pair counts alone: a sender pays its pair's recipient count
        per edge, a recipient the edge count of every pair it is in.
        (``bincount`` weights are float64, exact for any total below
        2**53 messages.)"""
        edges = np.diff(self.indptr)
        fan = np.diff(self.recipient_ptr)
        send = np.bincount(
            self.payload[:, 0], weights=np.repeat(fan, edges), minlength=n
        )
        recv = np.bincount(
            self.recipients, weights=np.repeat(edges, fan), minlength=n
        )
        words = self.words_per_message
        return send.astype(np.int64) * words, recv.astype(np.int64) * words

    def locate(self, rows: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """``(edge, recipient)`` of the given message rows (every row when
        ``None``); ``edge`` indexes :attr:`payload`."""
        pair = np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))
        fan = np.diff(self.recipient_ptr)[pair]
        first = np.zeros(fan.size + 1, dtype=np.int64)
        np.cumsum(fan, out=first[1:])
        if rows is None:
            rows = np.arange(first[-1], dtype=np.int64)
            edge = np.repeat(np.arange(fan.size, dtype=np.int64), fan)
        else:
            edge = np.searchsorted(first, rows, side="right") - 1
        slot = self.recipient_ptr[pair[edge]] + rows - first[edge]
        return edge, self.recipients[slot]

    def materialize(self) -> MessageBatch:
        """The message rows as the network delivered them: one
        :class:`MessageBatch` row per (edge, recipient), silently
        corrupted rows carrying the payload they arrived with."""
        edge, dst = self.locate()
        payload = self.payload[edge]
        src = payload[:, 0].astype(np.int64)
        if self.silent is not None:
            payload[self.silent] = self.silent_payload
        return MessageBatch.of_edges(src=src, dst=dst, endpoints=payload)


def fanout_edges_by_pair(
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    pair_of_edge: np.ndarray,
    recipients_of_pair: Sequence[np.ndarray],
) -> FanoutBatch:
    """Address every edge to all recipients of its part pair, factored.

    The §2.4.3 fan-out: edge ``(u, v)`` between part pair ``g`` goes to
    every node whose radix assignment contains both parts — the
    ``recipients_of_pair[g]`` array.  The edges are stably sorted by
    pair and kept beside the recipient lists; an edge whose pair has no
    recipient sends nothing and is dropped.  ``len()`` of the result is
    the message count, and :meth:`FanoutBatch.materialize` builds the
    rows.
    """
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    pair_of_edge = np.asarray(pair_of_edge, dtype=np.int64)
    if not (edge_src.size == edge_dst.size == pair_of_edge.size):
        raise ValueError("edge columns must have equal length")
    recipients = [np.asarray(r, dtype=np.int64) for r in recipients_of_pair]
    fan = np.array([r.size for r in recipients], dtype=np.int64)
    if pair_of_edge.size and (
        pair_of_edge.min() < 0 or pair_of_edge.max() >= fan.size
    ):
        raise ValueError(f"pair indices must lie in [0, {fan.size})")
    routed = np.flatnonzero(fan[pair_of_edge] > 0)
    order = routed[np.argsort(pair_of_edge[routed], kind="stable")]
    indptr = np.zeros(fan.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_of_edge[order], minlength=fan.size), out=indptr[1:])
    recipient_ptr = np.zeros(fan.size + 1, dtype=np.int64)
    np.cumsum(fan, out=recipient_ptr[1:])
    return FanoutBatch(
        payload=_as_words(np.stack((edge_src[order], edge_dst[order]), axis=1)),
        indptr=indptr,
        recipients=np.concatenate(recipients or [np.empty(0, dtype=np.int64)]),
        recipient_ptr=recipient_ptr,
    )
