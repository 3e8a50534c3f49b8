"""Round-complexity formulas from the paper and the related literature.

Pure functions of (n, p, m) used by the comparison benchmarks (E4, E9)
to draw the theory curves next to the measured round counts.  Polylog and
n^{o(1)} factors are set to 1 unless a ``polylog`` argument is supplied —
the tables ``python -m repro.analysis.report`` prints report both.
"""

from __future__ import annotations

import math


def _polylog(n: int, exponent: float) -> float:
    return math.log2(max(2, n)) ** exponent


# ----------------------------------------------------------------------
# This paper
# ----------------------------------------------------------------------
def this_paper_congest(n: int, p: int, polylog: float = 0.0) -> float:
    """Theorem 1.1: Õ(n^{3/4} + n^{p/(p+2)}) (p ≥ 4)."""
    if p < 4:
        raise ValueError("Theorem 1.1 covers p >= 4")
    base = n**0.75 + n ** (p / (p + 2.0))
    return base * _polylog(n, polylog)


def this_paper_k4(n: int, polylog: float = 0.0) -> float:
    """Theorem 1.2: Õ(n^{2/3})."""
    return (n ** (2.0 / 3.0)) * _polylog(n, polylog)


def this_paper_congested_clique(n: int, p: int, m: int, polylog: float = 0.0) -> float:
    """Theorem 1.3: Θ̃(1 + m/n^{1+2/p})."""
    return (1.0 + m / (n ** (1.0 + 2.0 / p))) * _polylog(n, polylog)


# ----------------------------------------------------------------------
# Prior upper bounds
# ----------------------------------------------------------------------
def eden_k4(n: int, polylog: float = 0.0) -> float:
    """Eden et al. [DISC 2019]: O(n^{5/6 + o(1)}) for K4."""
    return (n ** (5.0 / 6.0)) * _polylog(n, polylog)


def eden_k5(n: int, polylog: float = 0.0) -> float:
    """Eden et al. [DISC 2019]: O(n^{21/22 + o(1)}) for K5."""
    return (n ** (21.0 / 22.0)) * _polylog(n, polylog)


def eden_generic_subgraph(n: int, p: int, polylog: float = 0.0) -> float:
    """Eden et al.: arbitrary p-node subgraphs in O(n^{2−2/(3p+1)+o(1)})."""
    return (n ** (2.0 - 2.0 / (3.0 * p + 1.0))) * _polylog(n, polylog)


def chang_saranurak_triangle(n: int, polylog: float = 1.0) -> float:
    """Chang–Saranurak [PODC 2019]: Õ(n^{1/3}) triangle listing (tight)."""
    return (n ** (1.0 / 3.0)) * _polylog(n, polylog)


def chang_pettie_zhang_triangle(n: int, polylog: float = 1.0) -> float:
    """Chang–Pettie–Zhang [SODA 2019]: Õ(n^{1/2}) triangle listing."""
    return (n**0.5) * _polylog(n, polylog)


def izumi_legall_triangle(n: int, polylog: float = 1.0) -> float:
    """Izumi–Le Gall [PODC 2017]: Õ(n^{3/4}) triangle listing."""
    return (n**0.75) * _polylog(n, polylog)


def congested_clique_general(n: int, p: int) -> float:
    """General (non-sparsity-aware) CONGESTED CLIQUE Kp listing: O(n^{1−2/p})."""
    return n ** (1.0 - 2.0 / p)


def trivial_broadcast(n: int) -> float:
    """Remark 2.6: Θ̃(n) by broadcasting neighborhoods."""
    return float(n)


# ----------------------------------------------------------------------
# Lower bounds
# ----------------------------------------------------------------------
def fischer_listing_lower_bound(n: int, p: int, polylog: float = 0.0) -> float:
    """Fischer et al. [SPAA 2018]: Ω̃(n^{(p−2)/p}) for Kp listing."""
    return (n ** ((p - 2.0) / p)) * _polylog(n, polylog)


def czumaj_konrad_detection_lower_bound(n: int, p: int) -> float:
    """Czumaj–Konrad [DISC 2018]: Ω̃(n^{1/2}) for Kp detection, 4 ≤ p ≤ √n;
    Ω̃(n/p) for p ≥ √n."""
    if p < 4:
        raise ValueError("bound stated for p >= 4")
    if p <= math.isqrt(n):
        return n**0.5
    return n / p


def congested_clique_listing_lower_bound(n: int, p: int, m: int) -> float:
    """Tightness direction of Theorem 1.3: Ω̃(m/n^{1+2/p}) (via [10, 15])."""
    return m / (n ** (1.0 + 2.0 / p))


def optimality_gap(n: int, p: int) -> float:
    """Upper/lower exponent gap for this paper's CONGEST result.

    Theorem 1.1 exponent max(3/4, p/(p+2)) versus the Ω̃(n^{(p−2)/p})
    lower bound; the gap shrinks as p grows (§5 discussion).
    """
    upper = max(0.75, p / (p + 2.0))
    lower = (p - 2.0) / p
    return upper - lower
