"""Graph substrate: data structures, generators, and structural analysis.

This subpackage provides everything the distributed algorithms need from
the *input graph* side:

- :class:`~repro.graphs.graph.Graph` — a compact undirected graph with
  canonical edge representation, used throughout the library.
- :mod:`~repro.graphs.generators` — random and structured graph families
  used as workloads (Erdős–Rényi, planted cliques, expander-ish graphs,
  clustered graphs, bounded-arboricity graphs).
- :mod:`~repro.graphs.orientation` — low-out-degree orientations that act
  as arboricity witnesses (the paper's algorithms carry such orientations
  through every iteration).
- :mod:`~repro.graphs.properties` — degeneracy, arboricity bounds and
  degree statistics.
- :mod:`~repro.graphs.cliques` — sequential ground-truth Kp enumeration
  used to verify the distributed algorithms' outputs, with selectable
  backends (pure Python vs the vectorized CSR kernels).
- :mod:`~repro.graphs.csr` — immutable CSR snapshots
  (:meth:`~repro.graphs.graph.Graph.to_csr`) plus the numpy kernels
  behind the ``"csr"`` backend: degeneracy ordering, forward
  neighborhoods, bitset-row intersections, triangle/Kp counting.
- :mod:`~repro.graphs.overlay` — the delta-buffered side of the CSR:
  :class:`~repro.graphs.overlay.CSROverlay` records net edge changes
  over a frozen snapshot (merged neighbor rows, live adjacency
  bitsets) and compacts into a fresh snapshot every K updates — the
  substrate of the streaming engine (:mod:`repro.stream`).
"""

from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.graphs.csr import CSRGraph
from repro.graphs.overlay import CSROverlay
from repro.graphs.orientation import BACKENDS, Orientation, degeneracy_orientation
from repro.graphs.properties import (
    arboricity_lower_bound,
    arboricity_upper_bound,
    degeneracy,
    density,
    triangle_count,
)
from repro.graphs.cliques import count_cliques, enumerate_cliques

__all__ = [
    "Edge",
    "Graph",
    "CSRGraph",
    "CSROverlay",
    "canonical_edge",
    "Orientation",
    "degeneracy_orientation",
    "degeneracy",
    "density",
    "triangle_count",
    "arboricity_lower_bound",
    "arboricity_upper_bound",
    "BACKENDS",
    "enumerate_cliques",
    "count_cliques",
]
