"""Node program API for the faithful CONGEST engine.

Algorithms for :class:`~repro.congest.network.Network` are written as
:class:`NodeProgram` subclasses.  The engine instantiates one program per
node and drives them in synchronous rounds:

1. ``on_start(ctx)`` — round 0 setup; may already send.
2. each round: ``on_round(ctx, inbox)`` with the messages delivered this
   round (messages sent in round r arrive in round r+1, subject to the
   per-edge bandwidth — excess queues on the link).
3. a program calls ``ctx.halt()`` when locally done; the engine stops when
   every program has halted and all link queues are drained.

The context exposes exactly what a CONGEST node knows: its identifier, its
neighbor list, ``n``, and a send primitive restricted to neighbors.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Set

from repro.congest.errors import UnknownRecipientError
from repro.congest.message import Message, payload_words


class Context:
    """Per-node handle given to programs by the engine."""

    def __init__(self, node: int, n: int, neighbors: Set[int]) -> None:
        self._node = node
        self._n = n
        self._neighbors = neighbors
        self._outbox: List[Message] = []
        self._halted = False
        self.round: int = 0

    @property
    def node(self) -> int:
        """This node's identifier."""
        return self._node

    @property
    def n(self) -> int:
        """Number of nodes in the network (global knowledge in CONGEST)."""
        return self._n

    @property
    def neighbors(self) -> Set[int]:
        """Identifiers of adjacent nodes."""
        return self._neighbors

    def send(self, dst: int, payload: Any, words: int = 0) -> None:
        """Queue a message to neighbor ``dst``.

        ``words`` defaults to the automatic estimate of
        :func:`~repro.congest.message.payload_words`.
        """
        if dst not in self._neighbors:
            raise UnknownRecipientError(
                f"node {self._node} tried to message non-neighbor {dst}"
            )
        size = words if words > 0 else payload_words(payload)
        self._outbox.append(Message(self._node, dst, payload, size))

    def broadcast(self, payload: Any, words: int = 0) -> None:
        """Send the same payload to every neighbor."""
        for dst in self._neighbors:
            self.send(dst, payload, words)

    def halt(self) -> None:
        """Mark this node's program as locally finished."""
        self._halted = True

    @property
    def halted(self) -> bool:
        return self._halted

    def _drain_outbox(self) -> List[Message]:
        out, self._outbox = self._outbox, []
        return out


class NodeProgram:
    """Base class for node-local algorithms on the faithful engine."""

    def on_start(self, ctx: Context) -> None:
        """Called once before round 1; may send initial messages."""

    def on_round(self, ctx: Context, inbox: Sequence[Message]) -> None:
        """Called every round with the messages delivered this round.

        Subclasses must eventually call ``ctx.halt()``.
        """
        raise NotImplementedError
