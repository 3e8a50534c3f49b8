"""E5 (Definition 2.2 / Theorem 2.3): expander decomposition quality.

Regenerates the structural guarantees the listing algorithm consumes:
|Er| ≤ |E|/6, arboricity(Es) ≤ n^δ with a witness orientation, cluster
min internal degree ≥ n^δ, and polylog cluster mixing times — across
three structurally different graph families — the report's E5 table
(``repro.analysis.report.E5_FAMILIES``).
"""

from __future__ import annotations

import pytest

from repro.analysis.report import E5_FAMILIES, e5_row


@pytest.mark.parametrize("family", sorted(E5_FAMILIES))
def test_decomposition_quality(benchmark, family):
    # e5_row validates the decomposition with strict_mixing=True.
    row = benchmark.pedantic(e5_row, args=(family,), iterations=1, rounds=1)
    benchmark.extra_info.update(row)
    assert row["er_frac"] <= 1 / 6
    assert row["es_outdeg"] <= row["threshold"]
