"""E2 (Theorem 1.2): the K4-specific variant vs the generic p = 4 path.

The K4 variant removes the light-gather term (Õ(n^{3/4}) → Õ(n^{2/3})).
The bench measures both on identical dense workloads and reports the
per-phase breakdown showing *where* the variant saves (no gather_light
phase; light K4s listed by the light nodes themselves).

The grids are the report's declarations — E1's p = 4 spec and E2's
(the same cells with ``variant="k4"``) — run through the batched sweep
runner, with per-phase rounds taken from the ``phases`` column of each
result row.  Every run is verified against ground truth, so both
variants' outputs equal the true K4 set.
"""

from __future__ import annotations

from repro.analysis.report import e1_spec, e2_spec, phase_rounds, sweep_rows


def test_k4_variant_vs_generic(benchmark, congest_sizes):
    specs = (e1_spec(4, congest_sizes), e2_spec(congest_sizes))
    rows = benchmark.pedantic(sweep_rows, args=specs, iterations=1, rounds=1)
    by_size = {}
    for row in rows:
        by_size.setdefault(row["n"], {})[row["variant"]] = row

    comparison = {}
    for n in sorted(by_size):
        generic, k4 = by_size[n]["generic"], by_size[n]["k4"]
        # Both rows were verified against ground truth, so both listed
        # exactly the true K4 set.
        assert generic["cliques"] == k4["cliques"]
        comparison[n] = {
            "generic": generic["rounds"],
            "k4": k4["rounds"],
            "generic_gather_light": phase_rounds(generic, "gather_light"),
            "k4_light_listing": phase_rounds(k4, "light_listing"),
        }

    benchmark.extra_info["comparison"] = {
        str(n): {k: round(v, 1) for k, v in row.items()}
        for n, row in comparison.items()
    }
    # The variant never pays the generic light-gather; its replacement
    # phase must be present whenever the pipeline engaged.
    for row in comparison.values():
        assert row["k4"] > 0 and row["generic"] > 0
