"""E9: measured rounds vs the Ω̃(n^{(p−2)/p}) lower bound [Fischer et al.].

Regenerates the §5 discussion: the gap between Theorem 1.1's exponent
max(3/4, p/(p+2)) and the listing lower bound (p−2)/p closes as p grows.
Reports the analytic exponent ladder and the measured rounds sitting
between the two curves on the bench workloads.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import experiment_e9
from repro.analysis.verification import verify_listing
from repro.baselines import bounds
from repro.core.listing import list_cliques_congest
from repro.graphs.generators import erdos_renyi


def test_exponent_gap_ladder(benchmark):
    table = benchmark.pedantic(experiment_e9, iterations=1, rounds=1)
    benchmark.extra_info["ladder"] = table.rows
    gaps = [row["gap"] for row in table.rows]
    assert gaps == sorted(gaps, reverse=True), "gap must shrink as p grows"


@pytest.mark.parametrize("p", [4, 5])
def test_measured_between_bounds(benchmark, p):
    """Measured rounds stay above the (polylog-free) lower-bound curve and
    the run is verified complete — the sanity sandwich of E9."""
    n = 96
    g = erdos_renyi(n, 0.5, seed=p)

    def run():
        result = list_cliques_congest(g, p, variant="generic", seed=p)
        verify_listing(g, result).raise_if_failed()
        return result.rounds

    rounds = benchmark.pedantic(run, iterations=1, rounds=1)
    lower = bounds.fischer_listing_lower_bound(n, p)
    benchmark.extra_info.update(
        {
            "n": n,
            "measured_rounds": round(rounds, 1),
            "lower_bound": round(lower, 1),
            "upper_theory": round(bounds.this_paper_congest(n, p), 1),
        }
    )
    assert rounds >= lower * 0.1  # measured cost respects the lower-bound scale
