"""Charged communication primitives for the CONGEST algorithms.

The paper invokes two black-box routing results:

- **Theorem 2.4 (intra-cluster routing)** — inside an n^δ-cluster, if
  every node sends and receives at most O(n^δ) messages, all of them can
  be routed in Õ(1) rounds (using only cluster edges, so clusters route in
  parallel).  More generally a load of L per node costs ⌈L/n^δ⌉·Õ(1).
- **Lenzen routing (Theorem 1.3)** — in the CONGESTED CLIQUE, a load of
  n·w words per node costs O(w) rounds.

:class:`Router` *performs* such routing steps (moving payloads between
per-node mailboxes) and charges the measured loads; :class:`ClusterRouter`
and :class:`~repro.congest.congested_clique.CongestedClique` are its two
charge policies.  The polylog slack is represented by :class:`CostModel`,
which is explicit and configurable so the benchmarks can report both
"pure" (slack = 1) and "with polylog" charges.  :func:`broadcast_rounds`
prices neighbor broadcast by pipelining.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.congest.batch import DeliveredBatch, FanoutBatch, MessageBatch, deliver
from repro.congest.ledger import RoundLedger
from repro.congest.topology import Topology, makespan_charge, makespan_for_rounds
from repro.faults.heal import heal_pattern
from repro.faults.model import FaultInjector, corrupt_batch, mangle_payload


@dataclass(frozen=True)
class CostModel:
    """Round-cost parameters for the charged primitives.

    Attributes
    ----------
    routing_slack:
        Multiplier standing in for the Õ(1)/2^{O(√log n)} factor of
        Theorem 2.4.  ``None`` (default) uses ``log2(n)``; a callable maps
        n to a factor; a number is used verbatim.
    lenzen_slack:
        Constant factor for Lenzen routing in the CONGESTED CLIQUE
        (2 covers the two phases of Lenzen's scheme).
    """

    routing_slack: Optional[Any] = None
    lenzen_slack: float = 2.0

    def __post_init__(self) -> None:
        slack = self.routing_slack
        if slack is not None and not callable(slack):
            if isinstance(slack, bool) or not isinstance(slack, (int, float)):
                raise TypeError(
                    f"routing_slack must be None (log2(n) default), a callable "
                    f"n -> factor, or a number; got {type(slack).__name__} "
                    f"{slack!r}"
                )
            if not math.isfinite(slack) or slack <= 0:
                raise ValueError(
                    f"routing_slack must be a positive finite factor, got {slack!r}"
                )
        if (
            isinstance(self.lenzen_slack, bool)
            or not isinstance(self.lenzen_slack, (int, float))
            or not math.isfinite(self.lenzen_slack)
            or self.lenzen_slack <= 0
        ):
            raise ValueError(
                f"lenzen_slack must be a positive finite number, "
                f"got {self.lenzen_slack!r}"
            )

    def routing_factor(self, n: int) -> float:
        """The Õ(1) slack used for intra-cluster routing charges.

        A callable's result must be a positive finite factor: the rule
        ``__post_init__`` applies to a numeric ``routing_slack``.
        """
        if self.routing_slack is None:
            return max(1.0, math.log2(max(2, n)))
        if not callable(self.routing_slack):
            return float(self.routing_slack)
        factor = float(self.routing_slack(n))
        if not math.isfinite(factor) or factor <= 0:
            raise ValueError(
                f"routing_slack returned {factor!r} for n={n}; it must be a "
                f"positive finite factor"
            )
        return factor


DEFAULT_COST_MODEL = CostModel()


def broadcast_rounds(per_edge_words: Mapping[Tuple[int, int], int]) -> int:
    """Rounds to clear the given per-directed-edge word loads by pipelining.

    This is the elementary CONGEST fact: a directed edge carries one word
    per round, so a phase where edge (u, v) must carry ``w`` words costs
    ``max w`` rounds (all edges work in parallel).
    """
    if not per_edge_words:
        return 0
    worst = max(per_edge_words.values())
    if worst < 0:
        raise ValueError("negative edge load")
    return int(worst)


class Router:
    """Performs and charges routing among a fixed member set.

    One routing step costs ``factor · ⌈L / capacity⌉`` rounds, where L
    is the measured max per-node send or receive load in words.  The
    subclasses pick the policy: :class:`ClusterRouter` (Theorem 2.4) and
    :class:`~repro.congest.congested_clique.CongestedClique` (Lenzen).
    Every ledger row starts with the router's ``identity`` stats.

    Mailboxes are indexed by global node id up to the largest member;
    non-members' mailboxes stay empty.

    ``faults`` optionally attaches the fault-injection seam: a
    :class:`~repro.faults.model.FaultInjector` (or a
    :class:`~repro.faults.model.FaultModel`, instantiated on the spot)
    that perturbs every routed pattern.  The router then self-heals via
    the checksummed ack-and-retry protocol of :mod:`repro.faults.heal`,
    charging recovery rounds as tagged ledger rows, and delivers the
    silently corrupted copies mangled.  With ``faults=None`` every code
    path is byte-identical to the fault-free router.

    ``topology`` optionally routes the same traffic over a non-clique
    overlay (:mod:`repro.congest.topology`): the uniform rounds stay the
    headline charge, and a topology-aware ``makespan`` (bottleneck-link
    words ÷ bandwidth + hop latency) is recorded next to them.  ``None``
    or the default clique keeps every ledger row byte-identical to the
    uniform model.
    """

    def __init__(
        self,
        members: Sequence[int],
        capacity: int,
        factor: float,
        n: int,
        faults: Optional[Any],
        topology: Optional[Topology],
        *,
        identity: Dict[str, Any],
        scope: str,
    ) -> None:
        self.capacity = capacity
        self.factor = factor
        self.n = n
        self.topology = topology
        if faults is not None and not isinstance(faults, FaultInjector):
            faults = faults.injector()
        self.faults: Optional[FaultInjector] = faults
        self._identity = identity
        self._scope = scope
        self._members = members
        # A range is its own O(1) member set (the clique's n ids).
        self._member_set = members if isinstance(members, range) else frozenset(members)
        self._lo = members[0]
        self._space = members[-1] + 1
        # Batch validation is a bounds test, plus a mask when ids have gaps.
        self._mask: Optional[np.ndarray] = None
        if len(self._member_set) != self._space - self._lo:
            self._mask = np.zeros(self._space, dtype=bool)
            self._mask[np.asarray(members, dtype=np.int64)] = True

    def route(
        self,
        messages: Mapping[int, Sequence[Tuple[int, Any]]],
        ledger: RoundLedger,
        phase: str,
        words_per_message: int = 1,
        extra_send_words: Optional[np.ndarray] = None,
        extra_recv_words: Optional[np.ndarray] = None,
        **stats: Any,
    ) -> Dict[int, List[Any]]:
        """Deliver ``{src: [(dst, payload), ...]}`` and charge the ledger.

        The tuple plane: one Python payload per message, the reference
        semantics of :meth:`route_batch`.  Both endpoints must be members.
        ``words_per_message`` is the uniform message size (an edge
        payload is 2).  ``extra_send_words`` / ``extra_recv_words`` are
        optional accounting-only loads indexed by node id, added on top
        of the measured ones (the fake-edge padding of Theorem 1.3's
        proof — words that are charged but carry no payload); ``stats``
        is merged into the phase charge.

        Returns ``{member: [payloads in arrival order]}``.
        """
        members = self._member_set
        flat_src: List[int] = []
        flat_dst: List[int] = []
        flat_payload: List[Any] = []
        for src, batch in messages.items():
            if src not in members:
                raise ValueError(f"source {src} is not a member of the {self._scope}")
            for dst, payload in batch:
                if dst not in members:
                    raise ValueError(f"destination {dst} is not in the {self._scope}")
                flat_src.append(src)
                flat_dst.append(dst)
                flat_payload.append(payload)
        pattern = MessageBatch(
            src=flat_src,
            dst=flat_dst,
            payload=np.empty((len(flat_src), 0), dtype=np.uint32),
            words_per_message=words_per_message,
        )
        silent = self._charge(
            ledger, phase, pattern, extra_send_words, extra_recv_words, stats
        )
        delivered: Dict[int, List[Any]] = {v: [] for v in self._members}
        for i, (dst, payload) in enumerate(zip(flat_dst, flat_payload)):
            if silent is not None and silent[i]:
                payload = mangle_payload(payload, self.n)
            delivered[dst].append(payload)
        return delivered

    def route_batch(
        self,
        batch: MessageBatch | FanoutBatch,
        ledger: RoundLedger,
        phase: str,
        extra_send_words: Optional[np.ndarray] = None,
        extra_recv_words: Optional[np.ndarray] = None,
        **stats: Any,
    ) -> DeliveredBatch:
        """Columnar twin of :meth:`route`: same ledger charge, zero
        per-payload Python objects.

        ``batch`` is a :class:`~repro.congest.batch.MessageBatch` or a
        :class:`~repro.congest.batch.FanoutBatch`.  Delivery is an
        argsort-group on ``dst`` (:func:`repro.congest.batch.deliver`).
        """
        batch = self._charge_batch(
            batch, ledger, phase, extra_send_words, extra_recv_words, stats
        )
        return deliver(batch, self._space)

    def charge_batch(
        self,
        batch: MessageBatch | FanoutBatch,
        ledger: RoundLedger,
        phase: str,
        extra_send_words: Optional[np.ndarray] = None,
        extra_recv_words: Optional[np.ndarray] = None,
        **stats: Any,
    ) -> MessageBatch | FanoutBatch:
        """Validate and charge a batch pattern without central delivery.

        The charge-only endpoint: the ledger rows are exactly
        :meth:`route_batch`'s, and the returned batch is the one the
        network delivered (silently corrupted rows mangled), of the
        kind passed in.  The Theorem 1.3 driver charges its factored
        fan-out (:class:`~repro.congest.batch.FanoutBatch`) here on
        the batch plane, then gathers only the owners' mailboxes
        (:func:`repro.core.partition.owner_mailboxes`) for its own
        delivery.
        """
        return self._charge_batch(
            batch, ledger, phase, extra_send_words, extra_recv_words, stats
        )

    def _charge_batch(
        self,
        batch: MessageBatch | FanoutBatch,
        ledger: RoundLedger,
        phase: str,
        extra_send_words: Optional[np.ndarray],
        extra_recv_words: Optional[np.ndarray],
        stats: Dict[str, Any],
    ) -> MessageBatch | FanoutBatch:
        """Validate and charge a batch; return it as delivered."""
        for role, ids in batch.endpoints():
            if ids.size and (
                ids.min() < self._lo
                or ids.max() >= self._space
                or (self._mask is not None and not self._mask[ids].all())
            ):
                raise ValueError(f"a batch {role} is outside the {self._scope}")
        silent = self._charge(
            ledger, phase, batch, extra_send_words, extra_recv_words, stats
        )
        if silent is not None and silent.any():
            batch = corrupt_batch(batch, silent, self.n)
        return batch

    def _charge(
        self,
        ledger: RoundLedger,
        phase: str,
        batch: MessageBatch | FanoutBatch,
        extra_send_words: Optional[np.ndarray],
        extra_recv_words: Optional[np.ndarray],
        stats: Dict[str, Any],
    ) -> Optional[np.ndarray]:
        """Charge one validated pattern, then run the healing loop.

        The loads come from ``batch.loads``; the per-message columns
        (``batch.materialize()``) are built only for an overlay's link
        accounting and for the fault seam.  The primary charge is always
        computed on the intended pattern — faults only ever *add* tagged
        recovery rows after it.  Returns the silent-corruption mask over
        the message rows (None without an active fault seam).
        """
        words_per_message = batch.words_per_message
        send_load, recv_load = batch.loads(self._space)
        if extra_send_words is not None:
            send_load = send_load + np.asarray(extra_send_words, dtype=np.int64)
        if extra_recv_words is not None:
            recv_load = recv_load + np.asarray(extra_recv_words, dtype=np.int64)
        max_send = int(send_load.max(initial=0))
        max_recv = int(recv_load.max(initial=0))
        rounds = self.rounds_for_load(max_send, max_recv)
        if self.topology is None or self.topology.is_clique:
            makespan, overlay_stats = makespan_for_rounds(self.topology, rounds), {}
        else:
            pattern = batch.materialize()
            makespan, overlay_stats = makespan_charge(
                self.topology, self.n, pattern.src, pattern.dst,
                words_per_message, rounds,
            )
        ledger.charge(
            phase,
            rounds,
            makespan=makespan,
            **self._identity,
            messages=len(batch),
            max_send_words=max_send,
            max_recv_words=max_recv,
            **stats,
            **overlay_stats,
        )
        if self.faults is None or not self.faults.active:
            return None
        pattern = batch.materialize()
        return heal_pattern(
            self.faults,
            ledger,
            phase,
            pattern.src,
            pattern.dst,
            space=self._space,
            n=self.n,
            words_per_message=words_per_message,
            retry_rounds=self.rounds_for_load,
        )

    def rounds_for_load(self, max_send_words: int, max_recv_words: int) -> float:
        """``factor · ⌈L / capacity⌉`` for the worst per-node load L of
        the two directions; zero load costs zero rounds."""
        worst = max(max_send_words, max_recv_words)
        if worst == 0:
            return 0.0
        return self.factor * math.ceil(worst / self.capacity)

    def charge_for_word_load(
        self, ledger: RoundLedger, phase: str, max_words: int, **stats: Any
    ) -> float:
        """Charge for a routing step whose max per-node load is known.

        Convenience for phases that compute loads themselves (e.g. the
        final "learn edges between my parts" step, where the receive load
        is the number of edges between assigned parts).
        """
        rounds = self.rounds_for_load(max_words, max_words)
        # No per-message pattern is available here: the caller only
        # reports an aggregate load, so the makespan is the uniform
        # charge rescaled by the topology's link costs.
        ledger.charge(
            phase,
            rounds,
            makespan=makespan_for_rounds(self.topology, rounds),
            **self._identity,
            max_words=max_words,
            **stats,
        )
        return rounds


class ClusterRouter(Router):
    """Executes and charges intra-cluster routing (Theorem 2.4).

    Parameters
    ----------
    cluster_nodes:
        The nodes of the cluster C.
    capacity:
        The per-node per-Õ(1)-rounds throughput, i.e. the n^δ of the
        cluster guarantee.  The expander decomposition supplies the actual
        minimum cluster degree here, which is the real bandwidth the
        routing theorem exploits.
    n:
        Global number of nodes (for the polylog factor).
    cost_model:
        Slack configuration: the charge is ``⌈L / capacity⌉ ·
        routing_factor(n)``.
    faults / topology:
        The fault seam and overlay of :class:`Router`.
    """

    def __init__(
        self,
        cluster_nodes: Iterable[int],
        capacity: int,
        n: int,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        faults: Optional[Any] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        members = sorted(cluster_nodes)
        if not members:
            raise ValueError("cluster must contain at least one node")
        if capacity < 1:
            raise ValueError(f"cluster capacity must be >= 1, got {capacity}")
        super().__init__(
            members, capacity, cost_model.routing_factor(n), n, faults, topology,
            identity={"cluster_size": len(members), "capacity": capacity},
            scope="cluster",
        )

    # perfbench/tracing.py patches these names through this class's __dict__.
    route = Router.route
    route_batch = Router.route_batch
    charge_batch = Router.charge_batch
