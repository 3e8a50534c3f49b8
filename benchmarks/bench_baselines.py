"""E4: head-to-head K4 round comparison — ours vs Eden-style vs broadcasts.

Regenerates the paper's positioning table: Theorem 1.2's Õ(n^{2/3}) K4
against Eden et al.'s O(n^{5/6+o(1)}) and the trivial bounds, measured on
identical workloads with identical accounting rules, plus the analytic
curves for the asymptotic picture.

The grids are the report's E4 declaration (``repro.analysis.report.e4_specs``):
our K4 driver and the ``eden-k4``, ``broadcast`` and
``neighborhood-broadcast`` comparator models on the identical sweep cells,
each verified against ground truth by the sweep runner.
"""

from __future__ import annotations

from repro.analysis.report import e4_specs, e4_table, sweep_rows
from repro.baselines import bounds


def test_k4_baseline_showdown(benchmark, congest_sizes):
    specs = tuple(e4_specs(congest_sizes))
    rows = benchmark.pedantic(sweep_rows, args=specs, iterations=1, rounds=1)
    # execute_run raised on any listing that missed or invented a K4.
    assert all(spec.verify for spec in specs)
    assert {row["model"] for row in rows} == {spec.model for spec in specs}
    assert all(row["verified"] for row in rows)
    table = e4_table(rows)
    benchmark.extra_info.update(
        {
            "measured": {
                str(row["n"]): {k: round(v, 1) for k, v in row.items() if k != "n"}
                for row in table.rows
            },
            "analytic_exponents": {
                "ours_k4": round(2 / 3, 3),
                "eden_k4": round(5 / 6, 3),
                "trivial": 1.0,
            },
            # The measured ours <= Eden crossover, and why it lies
            # beyond simulation n.
            "notes": table.notes,
        }
    )


def test_analytic_ordering_asymptotic(benchmark):
    """At large n the analytic curves order as the paper claims."""

    def check():
        n = 10**6
        assert bounds.this_paper_k4(n) < bounds.eden_k4(n) < bounds.trivial_broadcast(n)
        assert bounds.this_paper_congest(n, 5) < bounds.eden_k5(n)
        for p in (6, 7, 8):
            assert bounds.this_paper_congest(n, p) < bounds.trivial_broadcast(n)
            assert bounds.fischer_listing_lower_bound(n, p) < bounds.this_paper_congest(n, p)
        return True

    assert benchmark.pedantic(check, iterations=1, rounds=1)
