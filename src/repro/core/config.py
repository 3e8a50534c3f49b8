"""The unified execution surface: one frozen object per run.

:class:`ExecutionConfig` is the only place a run's cross-cutting knobs
are set — the listing drivers, the CLI subcommands and the sweep runner
all read them from here:

- ``plane`` — the data layout (:data:`PLANES`): ``"batch"`` columnar
  numpy arrays or ``"object"`` per-message Python tuples.
- ``workers`` + ``hosts`` — where batch kernels run, resolved through
  the **single** seam :meth:`ExecutionConfig.resolve_executor`: the
  ``hosts`` cluster, else a ``workers``-process pool, else inline.
- ``faults`` — the optional fault-injection seam (``docs/faults.md``).
- ``cost_model`` — round-charge slack (:class:`repro.congest.routing.CostModel`).
- ``topology`` — the overlay network charges are additionally priced on
  (:mod:`repro.congest.topology`); accepts a :class:`Topology`, a spec
  string like ``"grid:8@bw=0.5"``, or ``None`` for the uniform clique.

:class:`~repro.core.params.AlgorithmParameters` carries one as its
``execution`` field::

    AlgorithmParameters(p, execution=ExecutionConfig(workers=2))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

from repro.congest.routing import CostModel, DEFAULT_COST_MODEL
from repro.congest.topology import Topology, parse_topology
from repro.faults.model import FaultModel

#: The data layouts: ``"batch"`` moves columnar numpy arrays,
#: ``"object"`` moves per-message Python tuples (the reference
#: semantics).  Both charge identical ledger rounds.
PLANES = ("batch", "object")

#: ``"parallel"`` and ``"dist"`` once named planes that differed from
#: ``"batch"`` only in where its kernels ran.  Saved sweep grids, the
#: frozen benchmark and the differential suites still spell them, so
#: both keep meaning the batch layout on a pool or a cluster.
_LEGACY_PLANES = {"parallel": "batch", "dist": "batch"}


@dataclass(frozen=True)
class ExecutionConfig:
    """Cross-cutting run configuration, shared by every entry point.

    Attributes
    ----------
    plane:
        Data layout (:data:`PLANES`): ``"batch"`` (columnar numpy,
        default) or ``"object"`` (reference tuple semantics).  Charged
        rounds are identical on both.
    workers:
        Process count of the pool batch kernels run on (``1`` =
        inline).  The object plane runs inline only.
    hosts:
        Host specs of the cluster batch kernels run on (``local``,
        ``spawn``, ``subprocess``, or ``host:port`` —
        :func:`repro.dist.parse_host`); frozen to a tuple.  Takes
        precedence over ``workers``; ``()`` runs no cluster.
    faults:
        Optional :class:`~repro.faults.model.FaultModel` attached to the
        run's routers; ``None`` keeps every code path byte-identical to
        the fault-free simulators.
    cost_model:
        Round-charge slack for the routing theorems.
    topology:
        Overlay network for makespan accounting — a
        :class:`~repro.congest.topology.Topology`, a spec string
        (parsed at construction), or ``None`` for the uniform clique
        (byte-identical charges to the pre-topology ledger).
    """

    plane: str = "batch"
    workers: int = 1
    hosts: Tuple[str, ...] = ()
    faults: Optional[FaultModel] = None
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    topology: Optional[Union[Topology, str]] = None

    def __post_init__(self) -> None:
        # Old configs spell the executor as a plane; read them as batch.
        plane = _LEGACY_PLANES.get(self.plane, self.plane)
        if plane not in PLANES:
            raise ValueError(
                f"unknown routing plane {self.plane!r}; use one of {PLANES}"
            )
        if isinstance(self.workers, bool):
            raise TypeError(f"workers must be an integer, got {self.workers!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {self.workers!r}")
        if isinstance(self.hosts, str):
            raise TypeError(
                f"hosts must be a sequence of host specs, got the string "
                f"{self.hosts!r}; use ({self.hosts!r},)"
            )
        if not isinstance(self.hosts, tuple):
            object.__setattr__(self, "hosts", tuple(self.hosts))
        if not all(isinstance(spec, str) and spec for spec in self.hosts):
            raise ValueError(
                f"hosts must be non-empty host-spec strings, got {self.hosts!r}"
            )
        if self.plane == "dist" and not self.hosts:
            # The old dist plane's empty hosts was one in-process node.
            object.__setattr__(self, "hosts", ("local",))
        if plane == "object" and (self.workers > 1 or self.hosts):
            raise ValueError(
                f"the object plane runs inline; workers={self.workers} and "
                f"hosts={self.hosts!r} need the batch plane"
            )
        object.__setattr__(self, "plane", plane)
        if self.faults is not None and not isinstance(self.faults, FaultModel):
            raise TypeError(
                f"faults must be a FaultModel or None, got {type(self.faults).__name__}"
            )
        if not isinstance(self.cost_model, CostModel):
            raise TypeError(
                f"cost_model must be a CostModel, got {type(self.cost_model).__name__}"
            )
        if isinstance(self.topology, str):
            object.__setattr__(self, "topology", parse_topology(self.topology))
        elif self.topology is not None and not isinstance(self.topology, Topology):
            raise TypeError(
                f"topology must be a Topology, a spec string, or None; "
                f"got {type(self.topology).__name__}"
            )

    # ------------------------------------------------------------------
    def resolve_executor(self):
        """Where batch kernels run: the ``hosts`` cluster, else the
        ``workers``-process pool, else ``None`` (inline).

        The single executor seam: both listing drivers and the
        sparsity-aware lister go through here.  Both executors expose
        the same kernels (:class:`repro.parallel.ShardExecutor`).
        """
        if self.hosts:
            from repro.dist.cluster import get_cluster

            return get_cluster(self.hosts)
        if self.workers > 1:
            from repro.parallel.executor import get_executor

            return get_executor(self.workers)
        return None

    def topology_spec(self) -> Optional[str]:
        """The topology's canonical spec string (``None`` for clique
        default) — the form cache keys and remote payloads carry."""
        return None if self.topology is None else self.topology.spec()

    def with_(self, **changes) -> "ExecutionConfig":
        """Functional update (wrapper over :func:`dataclasses.replace`)."""
        return replace(self, **changes)
