"""Open-loop traffic generation for the serve plane.

A :class:`TrafficPattern` is to the query service what a
:class:`~repro.workloads.base.Workload` is to the graph algorithms: a
named, parameterized, seeded recipe — here producing a *request
schedule* instead of a graph.  :meth:`TrafficPattern.schedule` draws a
reproducible open-loop arrival process (requests arrive at their
scheduled instants regardless of how fast the service answers — the
load model under which tail latency means anything) plus a per-request
key/kind mix.  Four patterns cover the canonical key distributions:

=============  ========================================================
pattern        regime it stresses
=============  ========================================================
``uniform``    every node equally likely — no cache locality at all
``zipfian``    heavy-tailed key popularity (``theta`` skew) — hot keys
``hotspot``    a small hot set takes a fixed share of all requests
``bursty``     uniform keys, but arrivals clustered into bursts
=============  ========================================================

:func:`repro.serve.driver.run_open_loop` replays a schedule against a
:class:`~repro.serve.service.CliqueService`.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Type

import numpy as np

#: Default read mix: mostly O(1) count lookups, a solid share of clique
#: set reads, no listing-run queries (those are opt-in — each epoch's
#: first one pays a full simulated listing run).
DEFAULT_READ_MIX: Mapping[str, float] = {"count": 0.6, "cliques": 0.4}

REQUEST_KINDS = ("count", "cliques", "learned")


@dataclass(frozen=True)
class Request:
    """One read request: arrival offset (seconds from window start),
    query kind, clique size and — for ``learned`` — the target node."""

    index: int
    at: float
    kind: str
    p: int
    node: Optional[int] = None
    seed: int = 0


_PATTERNS: Dict[str, Type["TrafficPattern"]] = {}


class TrafficPattern(ABC):
    """A named, parameterized, seeded request-schedule family."""

    name: ClassVar[str]
    defaults: ClassVar[Mapping[str, Any]] = {}

    def __init__(self, **params: Any) -> None:
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise TypeError(
                f"traffic pattern {self.name!r} got unknown parameter(s) "
                f"{sorted(unknown)}; accepted: {sorted(self.defaults)}"
            )
        self.params: Dict[str, Any] = {**self.defaults, **params}

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def schedule(
        self,
        count: int,
        rate: float,
        n: int,
        ps: Sequence[int],
        read_mix: Optional[Mapping[str, float]] = None,
        seed: int = 0,
    ) -> List[Request]:
        """A reproducible open-loop schedule of ``count`` requests.

        ``rate`` is the *offered* load in requests/second; arrival
        instants are drawn by the pattern (Poisson by default, bursts
        for ``bursty``) and never depend on service completions — the
        open-loop contract.  Keys follow the pattern's distribution,
        kinds follow ``read_mix`` (weights over ``count`` / ``cliques``
        / ``learned``), sizes cycle through ``ps``.
        """
        if count < 1:
            raise ValueError(f"schedule needs count >= 1, got {count}")
        if rate <= 0:
            raise ValueError(f"offered rate must be > 0, got {rate}")
        if n < 1:
            raise ValueError(f"schedule needs n >= 1, got {n}")
        ps = [int(p) for p in ps]
        if not ps:
            raise ValueError("schedule needs at least one clique size")
        mix = dict(DEFAULT_READ_MIX if read_mix is None else read_mix)
        unknown = set(mix) - set(REQUEST_KINDS)
        if unknown:
            raise ValueError(
                f"unknown request kind(s) {sorted(unknown)}; "
                f"valid: {REQUEST_KINDS}"
            )
        total = float(sum(mix.values()))
        if total <= 0:
            raise ValueError("read mix weights must sum to > 0")
        rng = self._rng(count, n, seed)
        arrivals = self._arrivals(count, rate, rng)
        keys = self._keys(count, n, rng)
        kinds = list(mix)
        picks = rng.choice(len(kinds), size=count, p=[mix[k] / total for k in kinds])
        return [
            Request(
                index=i,
                at=float(arrivals[i]),
                kind=kinds[picks[i]],
                p=ps[i % len(ps)],
                node=int(keys[i]),
                seed=seed,
            )
            for i in range(count)
        ]

    def describe(self) -> Dict[str, Any]:
        """JSON-serializable identity: pattern name plus effective params."""
        return {"pattern": self.name, **self.params}

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{type(self).__name__}({params})"

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _rng(self, count: int, n: int, seed: int) -> np.random.Generator:
        return np.random.default_rng(
            [seed, count, n, zlib.crc32(self.name.encode())]
        )

    def _arrivals(
        self, count: int, rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Arrival offsets — Poisson process at ``rate`` by default."""
        return np.cumsum(rng.exponential(1.0 / rate, size=count))

    @abstractmethod
    def _keys(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` node keys in ``[0, n)`` under the pattern's law."""


def register_pattern(cls: Type[TrafficPattern]) -> Type[TrafficPattern]:
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"{cls.__name__} must define a non-empty `name`")
    if name in _PATTERNS and _PATTERNS[name] is not cls:
        raise ValueError(f"traffic pattern {name!r} is already registered")
    _PATTERNS[name] = cls
    return cls


def create_traffic(name: str, **params: Any) -> TrafficPattern:
    """Instantiate a registered traffic pattern by name."""
    try:
        cls = _PATTERNS[name]
    except KeyError:
        raise ValueError(
            f"unknown traffic pattern {name!r}; "
            f"available: {', '.join(available_patterns())}"
        ) from None
    return cls(**params)


def available_patterns() -> List[str]:
    """Sorted names of every registered traffic pattern."""
    return sorted(_PATTERNS)


@register_pattern
class UniformTraffic(TrafficPattern):
    """Every node equally likely — the no-locality baseline."""

    name = "uniform"
    defaults: ClassVar[Mapping[str, Any]] = {}

    def _keys(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, n, size=count)


@register_pattern
class ZipfianTraffic(TrafficPattern):
    """Heavy-tailed key popularity: rank r drawn with weight 1/r^theta
    over a seed-deterministic permutation of the node ids (so the hot
    keys are stable within a schedule but uncorrelated with node id)."""

    name = "zipfian"
    defaults: ClassVar[Mapping[str, Any]] = {"theta": 1.1}

    def _keys(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        theta = float(self.params["theta"])
        if theta <= 0:
            raise ValueError(f"zipfian theta must be > 0, got {theta}")
        weights = 1.0 / np.arange(1, n + 1, dtype=float) ** theta
        ranks = rng.choice(n, size=count, p=weights / weights.sum())
        return rng.permutation(n)[ranks]


@register_pattern
class HotspotTraffic(TrafficPattern):
    """A ``hot_fraction`` of the nodes receives a fixed ``hot_weight``
    share of all requests; the remainder spreads uniformly."""

    name = "hotspot"
    defaults: ClassVar[Mapping[str, Any]] = {"hot_fraction": 0.1, "hot_weight": 0.9}

    def _keys(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        fraction = float(self.params["hot_fraction"])
        weight = float(self.params["hot_weight"])
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in (0, 1], got {fraction}")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"hot_weight must be in [0, 1], got {weight}")
        hot_size = max(1, int(round(fraction * n)))
        hot = rng.permutation(n)[:hot_size]
        is_hot = rng.random(count) < weight
        keys = rng.integers(0, n, size=count)
        keys[is_hot] = hot[rng.integers(0, hot_size, size=int(is_hot.sum()))]
        return keys


@register_pattern
class BurstyTraffic(TrafficPattern):
    """Uniform keys, clustered arrivals: requests land in bursts of
    ``burst`` spaced so the long-run offered rate still equals ``rate``
    (intra-burst gaps are ``spread``× the mean gap; the remainder of
    each burst's time budget becomes the inter-burst quiet period)."""

    name = "bursty"
    defaults: ClassVar[Mapping[str, Any]] = {"burst": 16, "spread": 0.05}

    def _arrivals(
        self, count: int, rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        burst = max(1, int(self.params["burst"]))
        spread = float(self.params["spread"])
        if not 0.0 <= spread < 1.0:
            raise ValueError(f"bursty spread must be in [0, 1), got {spread}")
        mean_gap = 1.0 / rate
        gaps = np.empty(count)
        for start in range(0, count, burst):
            size = min(burst, count - start)
            intra = rng.exponential(spread * mean_gap, size=size)
            # The burst's unused time budget opens the next quiet period.
            intra[0] = rng.exponential(max(1e-9, size * mean_gap - intra[1:].sum()))
            gaps[start : start + size] = intra
        return np.cumsum(gaps)

    def _keys(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, n, size=count)
