"""Expander decomposition substrate (Chang–Pettie–Zhang, SODA 2019).

The paper's algorithms consume a δ-expander decomposition
(Definition 2.2): a partition of the edge set into

- ``Em`` — a union of vertex-disjoint *clusters*, each with minimum
  internal degree Ω(n^δ) and polylogarithmic mixing time;
- ``Es`` — a set of arboricity ≤ n^δ together with a witness orientation
  of out-degree ≤ n^δ;
- ``Er`` — a leftover set with |Er| ≤ |E|/6.

This subpackage constructs such decompositions sequentially (spectral
sweep cuts + low-degree peeling) and charges the CONGEST round cost the
distributed construction would take (Theorem 2.3: Õ(n^{1−δ})).  The
listing algorithms only ever rely on the *output guarantees*, which
:func:`~repro.decomposition.expander.validate_decomposition` checks
explicitly.
"""

from repro.decomposition.cluster import Cluster
from repro.decomposition.expander import (
    Decomposition,
    expander_decomposition,
    validate_decomposition,
)
from repro.decomposition.arboricity import peel_low_degree
from repro.decomposition.mixing import estimate_mixing_time, spectral_gap
from repro.decomposition.sweep_cut import sweep_cut

__all__ = [
    "Cluster",
    "Decomposition",
    "expander_decomposition",
    "validate_decomposition",
    "peel_low_degree",
    "estimate_mixing_time",
    "spectral_gap",
    "sweep_cut",
]
