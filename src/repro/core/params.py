"""All thresholds and constants of the listing algorithm, in one place.

The paper fixes its thresholds asymptotically (heavy iff more than n^{1/4}
cluster neighbors; bad iff more than 100·√n·log n light neighbors; peel at
n^δ = A/(2 log n); stop the outer loop at arboricity ≈ n^{max(3/4, p/(p+2))}).
At finite n the *formulas* and the paper's constants (:data:`BAD_CONSTANT`,
:data:`PEEL_DIVISOR`) are kept, and *scale factors* are exposed, so tests
can force rarely-taken paths (e.g. scale the bad threshold down to
actually produce bad nodes at n = 200) and benchmarks can report the paper
defaults.  The random partitions' seed is the drivers' ``seed=`` argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import ExecutionConfig

GENERIC_VARIANT = "generic"
K4_VARIANT = "k4"

#: A cluster node is bad above BAD_CONSTANT · √n · log₂n light
#: neighbours (§2.4.1), before ``bad_scale``.
BAD_CONSTANT = 100.0

#: One LIST call peels at A / (PEEL_DIVISOR · log₂ n) (Theorem 2.8).
PEEL_DIVISOR = 2.0


@dataclass(frozen=True)
class AlgorithmParameters:
    """Tunable parameters of the Kp listing algorithm.

    Attributes
    ----------
    p:
        Clique size (p ≥ 3; p = 3 runs the pipeline as the Chang-et-al.-
        style triangle algorithm, p ≥ 4 is the paper's main regime).
    variant:
        ``"generic"`` (Theorem 1.1) or ``"k4"`` (Theorem 1.2, only valid
        for p = 4).
    heavy_scale:
        Constant factor on the heavy threshold n^{1/4} (generic variant).
    bad_scale:
        The bad-node threshold is ``bad_scale · BAD_CONSTANT · √n · log₂n``.
    stop_scale:
        The outer loop stops when the arboricity witness drops to
        ``stop_scale · n^e`` with e = max(3/4, p/(p+2)) (2/3 for the K4
        variant).
    phi:
        Conductance target handed to the expander decomposition
        (``None`` → the decomposition default 1/(2 log₂² n)).
    max_list_iterations / max_arb_iterations:
        Safety bounds (``None`` → ⌈log₂ n⌉ + 2 at call time).
    execution:
        The run's :class:`~repro.core.config.ExecutionConfig`: routing
        plane, workers, hosts, faults, cost model and topology are set
        there and nowhere else (default ``ExecutionConfig()``).
    """

    p: int
    variant: str = GENERIC_VARIANT
    heavy_scale: float = 1.0
    bad_scale: float = 1.0
    stop_scale: float = 1.0
    phi: Optional[float] = None
    max_list_iterations: Optional[int] = None
    max_arb_iterations: Optional[int] = None
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        if self.p < 3:
            raise ValueError(f"clique size p must be >= 3, got {self.p}")
        if self.variant not in (GENERIC_VARIANT, K4_VARIANT):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == K4_VARIANT and self.p != 4:
            raise ValueError("the k4 variant requires p = 4")
        if not isinstance(self.execution, ExecutionConfig):
            raise TypeError(
                f"execution must be an ExecutionConfig, got "
                f"{type(self.execution).__name__}"
            )

    # ------------------------------------------------------------------
    # Derived thresholds (the paper's formulas)
    # ------------------------------------------------------------------
    def exponent(self) -> float:
        """The round-complexity exponent e with target Õ(n^e).

        Theorem 1.1: e = max(3/4, p/(p+2)); Theorem 1.2 (k4): e = 2/3.
        """
        if self.variant == K4_VARIANT:
            return 2.0 / 3.0
        return max(0.75, self.p / (self.p + 2.0))

    def heavy_threshold(self, n: int, arboricity: int) -> int:
        """g_{v,C} above which an outside node is C-heavy.

        Generic variant (§2.4.1): n^{1/4}.  K4 variant (§3): n^{d−1/3},
        i.e. arboricity / n^{1/3}.
        """
        if self.variant == K4_VARIANT:
            value = self.heavy_scale * arboricity / (n ** (1.0 / 3.0))
        else:
            value = self.heavy_scale * n**0.25
        # Tolerate float undershoot (e.g. 512^{1/3} = 7.9999...).
        return max(1, math.ceil(value - 1e-9))

    def bad_threshold(self, n: int) -> int:
        """u_light above which a cluster node is bad (§2.4.1).

        Paper: 100 · √n · log n.  The K4 variant never marks bad nodes
        (callers skip the check there).
        """
        value = self.bad_scale * BAD_CONSTANT * math.sqrt(n) * math.log2(max(2, n))
        return max(1, math.ceil(value))

    def peel_threshold(self, n: int, arboricity: int) -> int:
        """The n^δ of one LIST call: A / (PEEL_DIVISOR · log₂ n)."""
        value = arboricity / (PEEL_DIVISOR * math.log2(max(2, n)))
        return max(1, round(value))

    def stop_arboricity(self, n: int) -> int:
        """Outer-loop stop: arboricity at/below this ends with a broadcast."""
        return max(2, math.ceil(self.stop_scale * n ** self.exponent()))

    def list_iteration_budget(self, n: int) -> int:
        if self.max_list_iterations is not None:
            return self.max_list_iterations
        return math.ceil(math.log2(max(4, n))) + 2

    def arb_iteration_budget(self, n: int) -> int:
        if self.max_arb_iterations is not None:
            return self.max_arb_iterations
        return math.ceil(math.log2(max(4, n))) + 2

    def num_parts(self, k: int) -> int:
        """Number of partition parts for a k-node cluster: ⌊k^{1/p}⌋.

        Floor guarantees every p-tuple of parts is covered by one of the
        k new cluster IDs (s^p ≤ k), which the completeness argument of
        §2.4.3 requires.
        """
        if k < 1:
            raise ValueError(f"cluster size must be >= 1, got {k}")
        s = int(math.floor(k ** (1.0 / self.p)))
        # Guard against floating point undershoot, e.g. 8**(1/3) = 1.9999.
        while (s + 1) ** self.p <= k:
            s += 1
        return max(1, s)
