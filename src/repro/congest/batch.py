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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: The routing planes every plane-aware entry point accepts: ``"batch"``
#: moves columnar arrays on one core, ``"object"`` moves per-message
#: Python tuples (the reference semantics), ``"parallel"`` moves the
#: same columns sharded across a worker-process pool
#: (:mod:`repro.parallel`), ``"dist"`` dispatches the identical shard
#: kernels across cluster nodes (:mod:`repro.dist`).  All planes charge
#: identical ledger rounds.
PLANES = ("batch", "object", "parallel", "dist")

#: The default plane of :class:`~repro.core.config.ExecutionConfig`.
DEFAULT_PLANE = "batch"

#: The planes whose data movement is columnar numpy arrays.
#: ``"parallel"`` is the batch plane with its delivery/listing tail
#: sharded across a local worker pool; ``"dist"`` is the same tail
#: dispatched across cluster nodes — every array-plane code path serves
#: all three, which is why they cannot drift apart.
ARRAY_PLANES = ("batch", "parallel", "dist")


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
        self.payload = np.ascontiguousarray(self.payload, dtype=np.uint32)
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
    def send_words(self, n: int) -> np.ndarray:
        """Per-node sent words (vectorized ``Counter`` replacement)."""
        return bincount_loads(self.src, self.dst, n, self.words_per_message)[0]

    def recv_words(self, n: int) -> np.ndarray:
        """Per-node received words (vectorized ``Counter`` replacement)."""
        return bincount_loads(self.src, self.dst, n, self.words_per_message)[1]

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


def deliver(batch: MessageBatch, n: int) -> DeliveredBatch:
    """Group a batch by destination — the columnar mailbox fill.

    Zero per-payload Python objects: one stable argsort plus fancy
    indexing reorders every column at once.
    """
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


def fanout_edges_by_pair(
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    pair_of_edge: np.ndarray,
    recipients_of_pair: Sequence[np.ndarray],
) -> MessageBatch:
    """Replicate every edge to all recipients of its part pair, as arrays.

    The §2.4.3 fan-out: edge ``(u, v)`` between part pair ``g`` goes to
    every node whose radix assignment contains both parts — the
    ``recipients_of_pair[g]`` array.  Edges are argsort-grouped by pair so
    each group is one ``np.repeat`` (sources) + ``np.tile`` (recipients);
    no per-message Python objects are created.
    """
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    pair_of_edge = np.asarray(pair_of_edge, dtype=np.int64)
    if not (edge_src.size == edge_dst.size == pair_of_edge.size):
        raise ValueError("edge columns must have equal length")
    if edge_src.size == 0:
        return MessageBatch.empty(width=2, words_per_message=2)

    order = np.argsort(pair_of_edge, kind="stable")
    src_cols: List[np.ndarray] = []
    dst_cols: List[np.ndarray] = []
    pay_cols: List[np.ndarray] = []
    boundaries = np.nonzero(np.diff(pair_of_edge[order]))[0] + 1
    for group in np.split(order, boundaries):
        pair = int(pair_of_edge[group[0]])
        recipients = recipients_of_pair[pair]
        if recipients.size == 0:
            continue
        repeated_src = np.repeat(edge_src[group], recipients.size)
        src_cols.append(repeated_src)
        dst_cols.append(np.tile(recipients, group.size))
        endpoints = np.empty((repeated_src.size, 2), dtype=np.uint32)
        endpoints[:, 0] = repeated_src
        endpoints[:, 1] = np.repeat(edge_dst[group], recipients.size)
        pay_cols.append(endpoints)
    if not src_cols:
        return MessageBatch.empty(width=2, words_per_message=2)
    return MessageBatch.of_edges(
        src=np.concatenate(src_cols),
        dst=np.concatenate(dst_cols),
        endpoints=np.concatenate(pay_cols),
    )
