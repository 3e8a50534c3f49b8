"""The fault model: seeded, deterministic network perturbations.

A :class:`FaultModel` is a frozen description of everything that can go
wrong on the wire: per-message drop and corruption rates, per-node
straggler delay distributions, crash schedules, and an adversarial
worst-pair scheduler.  It is *pure configuration* — hashable, picklable,
and safe to embed in :class:`~repro.core.params.AlgorithmParameters` and
sweep cache keys.

A :class:`FaultInjector` is one run's stateful instance of the model.
Determinism is structural: the injector keeps a call counter and seeds a
fresh ``np.random.default_rng([seed, call_index])`` per routing attempt,
so replaying the same seed against the same message sequence yields a
bit-identical perturbation sequence regardless of how rates are set.

Corruption comes in two flavors.  *Detected* corruption mangles a
message whose checksummed envelope then fails verification at the
receiver — the healing protocol retransmits it like a drop.  *Silent*
corruption evades the checksum: the delivered payload is mangled
in-place (node ids stay in ``[0, n)`` so downstream kernels keep
working) and only an end-of-run recount self-check can catch it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Tuple

import numpy as np

from repro.congest.batch import FanoutBatch, MessageBatch
from repro.graphs.keys import unique_sorted


@dataclass(frozen=True)
class FaultModel:
    """Seeded, deterministic description of network faults.

    Attributes
    ----------
    seed:
        Root seed for every random draw the injector makes.
    drop_rate:
        Per-message probability that a copy is lost in flight.
    corruption_rate:
        Per-message probability of a detected (checksum-failing)
        corruption; healed exactly like a drop.
    silent_corruption_rate:
        Per-message probability of a checksum-evading corruption on the
        *delivered* copy; only the recount self-check can catch it.
    stragglers:
        ``((node, probability, delay_rounds), ...)`` — per-node straggler
        distributions.  Each attempt in which a configured node
        participates, it stalls the whole attempt by ``delay_rounds``
        with the given probability (the attempt pays the max delay over
        triggered nodes, charged as a tagged recovery row).
    crash_windows:
        ``((node, down_from, up_at), ...)`` — node crash schedules in
        units of retransmission attempts: the node is down for attempts
        ``down_from <= a < up_at`` (``up_at = -1`` means it never comes
        back).  Messages touching a down node fail that attempt.
    adversary_pairs:
        The adversarial worst-pair scheduler kills every message between
        the ``adversary_pairs`` busiest (src, dst) pairs of the pattern.
    adversary_attempts:
        Number of leading attempts the adversary acts on (``0`` disables
        it).  A value above ``retry_budget`` starves those pairs for the
        whole healing loop and forces a typed abort.
    retry_budget:
        Maximum number of retransmission attempts the self-healing
        protocol may spend per routing step before raising
        :class:`~repro.congest.errors.RetryBudgetExceededError`.
    """

    seed: int = 0
    drop_rate: float = 0.0
    corruption_rate: float = 0.0
    silent_corruption_rate: float = 0.0
    stragglers: Tuple[Tuple[int, float, float], ...] = ()
    crash_windows: Tuple[Tuple[int, int, int], ...] = ()
    adversary_pairs: int = 0
    adversary_attempts: int = 0
    retry_budget: int = 8

    def __post_init__(self) -> None:
        for name in ("drop_rate", "corruption_rate", "silent_corruption_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {self.retry_budget}")
        if self.adversary_pairs < 0 or self.adversary_attempts < 0:
            raise ValueError("adversary configuration must be non-negative")
        # Normalize to tuples-of-tuples so the model stays hashable even
        # when constructed from lists.
        object.__setattr__(
            self, "stragglers",
            tuple((int(v), float(p), float(d)) for v, p, d in self.stragglers),
        )
        object.__setattr__(
            self, "crash_windows",
            tuple((int(v), int(a), int(b)) for v, a, b in self.crash_windows),
        )
        for _, prob, delay in self.stragglers:
            if not 0.0 <= prob <= 1.0 or delay < 0:
                raise ValueError(f"bad straggler entry in {self.stragglers}")

    @property
    def active(self) -> bool:
        """Whether this model can perturb anything at all."""
        return bool(
            self.drop_rate > 0
            or self.corruption_rate > 0
            or self.silent_corruption_rate > 0
            or self.stragglers
            or self.crash_windows
            or (self.adversary_pairs > 0 and self.adversary_attempts > 0)
        )

    def injector(self) -> "FaultInjector":
        """A fresh stateful injector for one run."""
        return FaultInjector(self)


@dataclass
class AttemptReport:
    """What the network did to one routing attempt.

    ``failed`` / ``silent`` are boolean masks over the attempt's messages
    (failed copies are detected and retransmitted; silent ones are
    delivered mangled).  The counts break ``failed`` down by cause and
    ``straggler_rounds`` is the stall the attempt pays before completing.
    """

    failed: np.ndarray
    silent: np.ndarray
    dropped: int = 0
    corrupted: int = 0
    crashed: int = 0
    adversarial: int = 0
    straggler_rounds: float = 0.0


class FaultInjector:
    """One run's deterministic instance of a :class:`FaultModel`."""

    def __init__(self, model: FaultModel) -> None:
        self.model = model
        self._calls = 0

    @property
    def active(self) -> bool:
        return self.model.active

    def attempt(
        self, phase: str, attempt: int, src: np.ndarray, dst: np.ndarray, n: int
    ) -> AttemptReport:
        """Perturb one (re)transmission attempt of ``len(src)`` messages.

        Every call consumes exactly one point of the injector's seed
        sequence — ``default_rng([seed, call_index])`` — so two injectors
        built from the same model and fed the same attempt sequence
        produce bit-identical reports.
        """
        m = len(src)
        rng = np.random.default_rng([self.model.seed, self._calls])
        self._calls += 1
        model = self.model
        dropped = rng.random(m) < model.drop_rate
        corrupted = rng.random(m) < model.corruption_rate
        silent = rng.random(m) < model.silent_corruption_rate
        crashed = np.zeros(m, dtype=bool)
        for node, down_from, up_at in model.crash_windows:
            if attempt >= down_from and (up_at < 0 or attempt < up_at):
                crashed |= (src == node) | (dst == node)
        adversarial = np.zeros(m, dtype=bool)
        if model.adversary_pairs > 0 and attempt < model.adversary_attempts and m:
            adversarial = self._worst_pairs(src, dst, n)
        failed = dropped | corrupted | crashed | adversarial
        # A failed copy is retransmitted, so silent corruption only
        # matters on copies that actually get through.
        silent &= ~failed
        straggler_rounds = 0.0
        for node, prob, delay in model.stragglers:
            participates = bool(((src == node) | (dst == node)).any())
            stalls = rng.random() < prob
            if participates and stalls:
                straggler_rounds = max(straggler_rounds, delay)
        return AttemptReport(
            failed=failed,
            silent=silent,
            dropped=int(dropped.sum()),
            corrupted=int((corrupted & ~dropped).sum()),
            crashed=int((crashed & ~dropped & ~corrupted).sum()),
            adversarial=int(adversarial.sum()),
            straggler_rounds=straggler_rounds,
        )

    def _worst_pairs(self, src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
        """Mask of messages on the ``adversary_pairs`` busiest (src, dst)
        pairs — ties broken by pair id so the choice is deterministic."""
        keys = src.astype(np.int64) * n + dst.astype(np.int64)
        uniq, inverse, counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        order = np.lexsort((uniq, -counts))
        top = order[: self.model.adversary_pairs]
        return np.isin(inverse, top)


def mangle_payload_matrix(
    payload: np.ndarray, rows: np.ndarray, n: int
) -> np.ndarray:
    """Silently corrupt the given rows of a payload word matrix.

    The last word of each row is shifted by one modulo ``n`` — a valid
    node id, so downstream kernels never crash, but for edge payloads
    the edge now names a different endpoint.  Collisions with the first
    word are skipped so no self-loop edges appear.
    """
    out = payload.copy()
    if out.shape[1] == 0 or len(rows) == 0:
        return out
    span = max(2, n)
    col = out.shape[1] - 1
    vals = (out[rows, col].astype(np.int64) + 1) % span
    if out.shape[1] >= 2:
        clash = vals == out[rows, 0].astype(np.int64)
        vals[clash] = (vals[clash] + 1) % span
    out[rows, col] = vals.astype(out.dtype)
    return out


def mangle_payload(payload: Any, n: int) -> Any:
    """Object-plane twin of :func:`mangle_payload_matrix` for one tuple
    payload.  Non-integer payloads pass through untouched (the fault
    plane only models corruption of word-encoded payloads)."""
    if (
        isinstance(payload, tuple)
        and payload
        and all(isinstance(x, (int, np.integer)) for x in payload)
    ):
        span = max(2, n)
        last = (int(payload[-1]) + 1) % span
        if len(payload) >= 2 and last == int(payload[0]):
            last = (last + 1) % span
        return payload[:-1] + (last,)
    return payload


def corrupt_batch(
    batch: MessageBatch | FanoutBatch, silent: np.ndarray, n: int
) -> MessageBatch | FanoutBatch:
    """A copy of ``batch`` with the silently-corrupted rows mangled.

    Endpoint columns (src/dst) are left intact — the envelope survives,
    only the payload lies — so delivery order and loads are unchanged.
    ``silent`` masks the message rows; a
    :class:`~repro.congest.batch.FanoutBatch` stays factored and records
    the mangled rows beside its edges.
    """
    rows = np.nonzero(silent)[0]
    if len(rows) == 0:
        return batch
    if isinstance(batch, FanoutBatch):
        payload = mangle_payload_matrix(batch.materialize().payload, rows, n)
        if batch.silent is not None:
            rows = unique_sorted(np.concatenate([batch.silent, rows]))
        return replace(batch, silent=rows, silent_payload=payload[rows])
    return replace(batch, payload=mangle_payload_matrix(batch.payload, rows, n))
