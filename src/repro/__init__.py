"""repro — a reproduction of "On Distributed Listing of Cliques".

Censor-Hillel, Le Gall, Leitersdorf (PODC 2020, arXiv:2007.05316):
sub-linear Kp-listing in the CONGEST model for every p ≥ 4 — Õ(n^{p/(p+2)})
rounds for p = 4 and p ≥ 6, Õ(n^{3/4}) for p = 5, Õ(n^{2/3}) for the
K4-specific variant — plus an optimal sparsity-aware Θ̃(1 + m/n^{1+2/p})
Kp-listing algorithm for the CONGESTED CLIQUE.

Quickstart
----------
>>> from repro import Graph, list_cliques
>>> from repro.graphs.generators import planted_cliques
>>> g = planted_cliques(128, [6, 5, 4], background_p=0.05, seed=7)
>>> result = list_cliques(g, p=4)
>>> len(result.cliques) > 0, result.rounds > 0
(True, True)

The result's :class:`~repro.congest.ledger.RoundLedger` decomposes the
simulated CONGEST round cost by algorithm phase, mirroring the paper's
analysis.  See README.md / docs/architecture.md for the architecture and
the tables ``python -m repro.analysis.report`` prints for the
theorem-by-theorem reproduction.

Workloads
---------
Input graphs come from the workload registry (:mod:`repro.workloads`):
named, parameterized, seeded graph families with a uniform interface —
``create_workload(name, **params).instance(n, seed)``.  Built-in
families: ``er``, ``zipfian``, ``planted``, ``caveman``, ``sparse``,
``adversarial`` (:func:`available_workloads` lists them all).  The
batched sweep runner (:mod:`repro.analysis.sweeps`, CLI:
``python -m repro.cli sweep``) fans listing runs out over
workload × n × p × variant grids with a JSON result cache.

>>> from repro import create_workload
>>> create_workload("er", density=0.3).instance(32, seed=1).num_nodes
32

Streaming
---------
Dynamic graphs are served by :mod:`repro.stream` without recompute:
:class:`StreamEngine` maintains exact per-p clique counts/listings
incrementally over a delta-buffered CSR (periodic compaction instead of
per-mutation rebuilds), fed by columnar :class:`UpdateBatch` updates
from the ``stream_window`` / ``stream_growth`` / ``stream_churn``
families.  CLI: ``python -m repro.cli stream``; design:
``docs/streaming.md``.

>>> from repro import StreamEngine, UpdateBatch
>>> engine = StreamEngine(create_workload("er", density=0.3).instance(32, seed=1))
>>> before = engine.count(3)
>>> _ = engine.apply(UpdateBatch.deletes(list(engine.graph().edges())[:5]))
>>> engine.count(3) <= before
True
"""

from repro.congest.topology import Topology, parse_topology
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.detection import count_cliques_distributed, detect_clique
from repro.core.listing import list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.core.result import ListingResult
from repro.graphs.graph import Graph
from repro.workloads import Workload, available_workloads, create_workload
from repro.stream import StreamEngine, UpdateBatch

__version__ = "1.1.0"


def list_cliques(graph: Graph, p: int, model: str = "congest", **kwargs) -> ListingResult:
    """List all Kp of ``graph`` in a distributed model (the public API).

    Parameters
    ----------
    graph:
        Input graph on nodes 0..n-1.
    p:
        Clique size (>= 3).
    model:
        ``"congest"`` (Theorems 1.1/1.2) or ``"congested-clique"``
        (Theorem 1.3).
    **kwargs:
        Forwarded to the model's driver (``params``, ``variant``,
        ``seed``, ...).
    """
    if model == "congest":
        return list_cliques_congest(graph, p, **kwargs)
    if model in ("congested-clique", "congested_clique"):
        return list_cliques_congested_clique(graph, p, **kwargs)
    raise ValueError(f"unknown model {model!r}; use 'congest' or 'congested-clique'")


__all__ = [
    "Graph",
    "AlgorithmParameters",
    "ExecutionConfig",
    "Topology",
    "parse_topology",
    "ListingResult",
    "list_cliques",
    "list_cliques_congest",
    "list_cliques_congested_clique",
    "detect_clique",
    "count_cliques_distributed",
    "Workload",
    "available_workloads",
    "create_workload",
    "UpdateBatch",
    "StreamEngine",
    "__version__",
]
