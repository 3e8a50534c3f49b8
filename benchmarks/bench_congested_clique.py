"""E3 (Theorem 1.3): CONGESTED CLIQUE rounds vs m — Θ̃(1 + m/n^{1+2/p}).

Two claims to regenerate: (a) rounds are O(1) below the knee
m = n^{1+2/p} and grow ~linearly in m above it; (b) the sparsity-aware
algorithm beats the density-blind general baseline on sparse inputs.

The grids are the report's E3 declaration (``repro.analysis.report.e3_specs``):
ER instances at densities m/C(n,2), listed by our driver and by the
``cc-general`` comparator, every run verified by the sweep runner.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.report import e3_specs, e3_table, sweep_rows


@pytest.mark.parametrize("p", [3, 4, 5])
def test_cc_rounds_vs_m(benchmark, cc_sizes, p):
    n = cc_sizes[-1]
    specs = tuple(e3_specs(p, n))
    rows = benchmark.pedantic(sweep_rows, args=specs, iterations=1, rounds=1)
    table = sorted(e3_table(rows).rows, key=lambda row: row["m"])
    benchmark.extra_info.update(
        {"n": n, "knee_m": round(n ** (1.0 + 2.0 / p)), "rows": table}
    )
    # Shape gates: monotone in m, and the dense end costs strictly more
    # than the sparse end (the knee exists).
    measured = [row["rounds"] for row in table]
    assert all(a <= b + 1e-9 for a, b in zip(measured, measured[1:]))
    assert measured[-1] > measured[0]


def test_cc_sparsity_aware_beats_general(benchmark, cc_sizes):
    n, p = cc_sizes[-1], 4
    # Expected m = n: far below the knee n^{1.5}.
    sparse = [("er", {"density": 2 / (n - 1)})]
    specs = tuple(replace(spec, workloads=sparse) for spec in e3_specs(p, n))
    rows = benchmark.pedantic(sweep_rows, args=specs, iterations=1, rounds=1)
    (row,) = e3_table(rows).rows
    benchmark.extra_info.update(
        {"m": row["m"], "ours": row["rounds"], "general": row["general_measured"]}
    )
    assert row["rounds"] < row["general_measured"]
