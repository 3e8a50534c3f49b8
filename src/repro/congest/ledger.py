"""Round accounting: the ledger every algorithm writes its cost into.

The paper's round-complexity proofs decompose into named phases
("expander decomposition", "learning outside edges", "reshuffling",
"listing by learning graph edges", ...).  The :class:`RoundLedger` mirrors
that structure: every phase of every algorithm charges its rounds under a
name, together with the measured loads that justify the charge.  Benchmark
output then reports both the total and the per-phase breakdown, which is
what the tables ``python -m repro.analysis.report`` prints compare against
the paper's terms (n^{3/4} vs n^{p/(p+2)} etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Phase:
    """One charged phase of an algorithm run.

    Attributes
    ----------
    name:
        Phase label, e.g. ``"arb_list/gather_heavy"``.
    rounds:
        Rounds charged for the phase (non-negative).
    stats:
        Free-form measured quantities backing the charge (max load,
        message totals, cluster count, ...), kept for the benchmark
        reports.
    recovery:
        True for charges created by the fault-recovery protocol
        (retransmissions, straggler stalls).  Recovery rounds are honest
        cost — they count toward :attr:`RoundLedger.total_rounds` — but
        stay distinguishable so fault-differential tests can compare the
        delivery rows of a faulted run against a fault-free one.
    makespan:
        Topology-aware completion time of the phase (bottleneck-link
        words ÷ bandwidth plus hop latency along overlay routes — see
        ``repro.congest.topology``).  ``None`` means the charger did not
        compute one, in which case the uniform ``rounds`` stand in; on
        the default clique topology the two are numerically identical,
        so clique ledgers stay byte-identical to pre-topology runs.
    """

    name: str
    rounds: float
    stats: Dict[str, Any] = field(default_factory=dict)
    recovery: bool = False
    makespan: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError(f"phase {self.name!r} has negative rounds {self.rounds}")
        if self.makespan is not None and self.makespan < 0:
            raise ValueError(
                f"phase {self.name!r} has negative makespan {self.makespan}"
            )

    @property
    def effective_makespan(self) -> float:
        """The phase's completion time: its makespan, else its rounds."""
        return self.rounds if self.makespan is None else self.makespan


class RoundLedger:
    """Accumulates :class:`Phase` charges for one algorithm execution."""

    def __init__(self) -> None:
        self._phases: List[Phase] = []

    def charge(
        self,
        name: str,
        rounds: float,
        *,
        makespan: Optional[float] = None,
        **stats: Any,
    ) -> Phase:
        """Record a phase charge and return the created :class:`Phase`.

        ``makespan`` is the optional topology-aware completion time; when
        omitted the phase falls back to its uniform ``rounds`` (see
        :attr:`Phase.effective_makespan`).
        """
        phase = Phase(name, float(rounds), dict(stats), makespan=makespan)
        self._phases.append(phase)
        return phase

    def charge_recovery(
        self,
        name: str,
        rounds: float,
        *,
        makespan: Optional[float] = None,
        **stats: Any,
    ) -> Phase:
        """Record a fault-recovery charge (a :class:`Phase` with the
        ``recovery`` flag set).  Recovery rounds are real cost, charged
        honestly; the flag only keeps them separable from delivery rows."""
        phase = Phase(
            name, float(rounds), dict(stats), recovery=True, makespan=makespan
        )
        self._phases.append(phase)
        return phase

    def extend(self, other: "RoundLedger", prefix: str = "") -> None:
        """Absorb another ledger's phases, optionally prefixing names.

        Sub-algorithms (e.g. one ARB-LIST invocation inside LIST) run with
        their own ledger, which the caller then folds in under a prefix
        like ``"list[3]/"``.
        """
        for phase in other.phases():
            self._phases.append(
                Phase(
                    prefix + phase.name,
                    phase.rounds,
                    dict(phase.stats),
                    recovery=phase.recovery,
                    makespan=phase.makespan,
                )
            )

    def phases(self) -> List[Phase]:
        """All recorded phases, in charge order."""
        return list(self._phases)

    def delivery_phases(self) -> List[Phase]:
        """Phases excluding fault-recovery charges — a faulted run's
        delivery rows must equal the fault-free run's :meth:`phases`."""
        return [p for p in self._phases if not p.recovery]

    @property
    def recovery_rounds(self) -> float:
        """Total rounds charged by the fault-recovery protocol."""
        return sum(p.rounds for p in self._phases if p.recovery)

    @property
    def total_rounds(self) -> float:
        """Sum of all phase charges."""
        return sum(phase.rounds for phase in self._phases)

    @property
    def total_makespan(self) -> float:
        """Sum of topology-aware phase completion times.

        Phases charged without a makespan contribute their uniform
        rounds, so on the default clique topology this equals
        :attr:`total_rounds` exactly.
        """
        return sum(phase.effective_makespan for phase in self._phases)

    def rounds_by_prefix(self, prefix: str) -> float:
        """Total rounds of phases whose name starts with ``prefix``."""
        return sum(p.rounds for p in self._phases if p.name.startswith(prefix))

    def grouped(self) -> Dict[str, float]:
        """Rounds aggregated by the first ``/``-separated name component."""
        groups: Dict[str, float] = {}
        for phase in self._phases:
            key = phase.name.split("/", 1)[0]
            groups[key] = groups.get(key, 0.0) + phase.rounds
        return groups

    def max_stat(self, key: str) -> Optional[float]:
        """Maximum of a named stat across phases that report it."""
        values = [p.stats[key] for p in self._phases if key in p.stats]
        return max(values) if values else None

    def summary(self) -> str:
        """Human-readable multi-line breakdown (used by examples)."""
        lines = [f"total rounds: {self.total_rounds:.1f}"]
        for phase in self._phases:
            stat_str = ", ".join(f"{k}={v}" for k, v in sorted(phase.stats.items()))
            suffix = f"  [{stat_str}]" if stat_str else ""
            lines.append(f"  {phase.name}: {phase.rounds:.1f}{suffix}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._phases)

    def __iter__(self) -> Iterator[Phase]:
        return iter(self._phases)

    def __repr__(self) -> str:
        return f"RoundLedger(phases={len(self._phases)}, total={self.total_rounds:.1f})"
