"""The paper's experiment tables: ``python -m repro.analysis.report``.

E1–E4, the paper's measured claims, are each declared once here: one
function returns the experiment's sweep specs and one turns their rows
into an :class:`~repro.analysis.sweeps.ExperimentTable`.  :func:`main`
and the E1–E4 benchmarks run the same specs through
:func:`~repro.analysis.sweeps.run_sweep`, so a table and its bench share
cells and cache keys.  E5–E7 and E9 follow; every listing run is
verified against sequential ground truth.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.analysis.complexity import crossover_size, fit_exponent
from repro.analysis.sweeps import ExperimentTable, SweepSpec, run_sweep
from repro.baselines import bounds
from repro.congest.ledger import RoundLedger
from repro.core.arb_list import ArbListState, arb_list
from repro.core.params import GENERIC_VARIANT, K4_VARIANT, AlgorithmParameters
from repro.decomposition import expander_decomposition, validate_decomposition
from repro.decomposition.mixing import polylog_mixing_budget
from repro.graphs.generators import (
    bounded_arboricity_graph,
    clustered_graph,
    erdos_renyi,
    gnm_random_graph,
)
from repro.graphs.orientation import degeneracy_orientation

Row = Dict[str, Any]

#: The report's n axis for E1/E2; E4 runs the first three sizes.
SIZES = (64, 96, 128, 160)
E1_PS = (4, 5, 6)
#: The dense regime the sub-linear claims are about.
DENSE_ER = ("er", {"density": 0.5})
#: At these n the initial arboricity (~n/4) sits right at the paper's
#: stop threshold n^{3/4}; halving the stop keeps the full pipeline
#: engaged at every size, so the fit measures one regime, not the
#: engage/skip transition.
STOP_SCALE = 0.5


def sweep_rows(*specs: SweepSpec) -> List[Row]:
    """Every row of ``specs``, each run through :func:`run_sweep`."""
    return [row for spec in specs for row in run_sweep(spec).rows]


def comparator_spec(spec: SweepSpec, model: str) -> SweepSpec:
    """``spec``'s instances under the comparator ``model``, which takes
    no overrides or variant."""
    return replace(spec, model=model, variants=[None], algo_overrides={})


def phase_rounds(row: Row, suffix: str) -> float:
    """A sweep row's rounds summed over the phases named ``...suffix``."""
    return sum(r for name, r in row["phases"].items() if name.endswith(suffix))


def _by_model(rows: Sequence[Row], key) -> List[Dict[str, Row]]:
    """The rows grouped by ascending ``key(row)``, each as ``{model: row}``."""
    groups: Dict[Any, Dict[str, Row]] = {}
    for row in rows:
        groups.setdefault(key(row), {})[row["model"]] = row
    return [groups[k] for k in sorted(groups)]


# ----------------------------------------------------------------------
# E1–E4 — Theorems 1.1–1.3 and the comparison with Eden et al.
# ----------------------------------------------------------------------
def e1_spec(p: int, sizes: Sequence[int] = SIZES) -> SweepSpec:
    """E1 (Theorem 1.1): generic CONGEST K_p rounds vs n on dense ER."""
    return SweepSpec(
        workloads=[DENSE_ER],
        sizes=list(sizes),
        ps=[p],
        variants=[GENERIC_VARIANT],
        algo_overrides={"stop_scale": STOP_SCALE},
    )


def e2_spec(sizes: Sequence[int] = SIZES) -> SweepSpec:
    """E2 (Theorem 1.2): E1's p = 4 grid with the K4 variant."""
    return replace(e1_spec(4, sizes), variants=[K4_VARIANT])


def e1_table(rows: Sequence[Row]) -> ExperimentTable:
    """Rounds vs n for E1's rows of one p, or E2's, with the fitted
    exponent against the theorem's."""
    rows = sorted(rows, key=lambda row: row["n"])
    p, k4 = rows[0]["p"], rows[0]["variant"] == K4_VARIANT
    table = ExperimentTable(
        name="E2 p=4 (k4 variant)" if k4 else f"E1 p={p} (generic)",
        description=(
            f"Rounds vs n (ER density 0.5, stop_scale={STOP_SCALE}); "
            f"theory exponent {'2/3' if k4 else 'max(3/4, p/(p+2))'}."
        ),
    )
    for row in rows:
        table.add(
            n=row["n"],
            m=row["m"],
            rounds=round(row["rounds"], 1),
            cliques=row["cliques"],
            outer=row["stats"]["outer_iterations"],
            theory_n_e=round(row["theory"], 1),
        )
    fit = fit_exponent([row["n"] for row in rows], [row["rounds"] for row in rows])
    theory_exp = 2 / 3 if k4 else max(0.75, p / (p + 2))
    table.notes.append(
        f"fitted exponent **{fit.slope:.2f}** (R²={fit.r_squared:.3f}) vs theory "
        f"**{theory_exp:.2f}** + polylog"
    )
    return table


def e2b_spec() -> SweepSpec:
    """E2b (§3): both variants on 4 × 32 caveman blocks whose sparse
    boundaries leave C-light nodes."""
    caveman = {"block_size": 32, "intra_p": 0.85, "inter_edges_per_pair": 10}
    return SweepSpec(
        workloads=[("caveman", caveman)],
        sizes=[128],
        ps=[4],
        variants=[GENERIC_VARIANT, K4_VARIANT],
        seed=9,
        algo_overrides={"stop_scale": STOP_SCALE, "phi": 0.05},
    )


def e2b_table(rows: Sequence[Row]) -> ExperimentTable:
    """Where each variant pays: the light gather, or the light listing."""
    table = ExperimentTable(
        name="E2b K4-variant phase swap",
        description=(
            "Clustered workload (4 × 32 blocks, sparse boundaries): the K4 "
            "variant eliminates gather_light and pays light_listing instead "
            "— the mechanism behind the Õ(n^{3/4}) → Õ(n^{2/3}) improvement."
        ),
    )
    for row in rows:
        table.add(
            variant=row["variant"],
            rounds=round(row["rounds"], 1),
            gather_light=round(phase_rounds(row, "gather_light"), 1),
            light_listing=round(phase_rounds(row, "light_listing"), 1),
            cliques=row["cliques"],
        )
    return table


def e3_specs(p: int, n: int = 128) -> List[SweepSpec]:
    """E3 (Theorem 1.3): CONGESTED CLIQUE rounds vs m at fixed n — ours
    and the density-blind ``cc-general`` on the same ER instances, at
    0.1…4 times the knee m = n^{1+2/p}.  Densities are capped at 0.55:
    beyond that the ground-truth count, not the algorithm, dominates
    wall time."""
    knee, pairs = n ** (1 + 2 / p), n * (n - 1) / 2
    densities = sorted(
        {min(round(knee * f / pairs, 4), 0.55) for f in (0.1, 0.5, 1.0, 2.0, 4.0)}
    )
    ours = SweepSpec(
        workloads=[("er", {"density": d}) for d in densities],
        sizes=[n],
        ps=[p],
        model="congested-clique",
    )
    return [ours, comparator_spec(ours, "cc-general")]


def e3_table(rows: Sequence[Row]) -> ExperimentTable:
    """Rounds and their learn_edges share vs m, next to ``cc-general``."""
    cells = _by_model(rows, lambda row: row["workload_params"]["density"])
    n, p = rows[0]["n"], rows[0]["p"]
    table = ExperimentTable(
        name=f"E3 p={p}, n={n} (CONGESTED CLIQUE)",
        description=f"Sparsity-aware CONGESTED CLIQUE Kp rounds vs m (p={p}, n={n}).",
    )
    for cell in cells:
        ours = cell["congested-clique"]
        table.add(
            m=ours["m"],
            rounds=ours["rounds"],
            learn_rounds=phase_rounds(ours, "learn_edges"),
            cliques=ours["cliques"],
            theory=ours["theory"],
            general_measured=cell["cc-general"]["rounds"],
        )
    table.notes.append(
        "theory = 1 + m/n^{1+2/p}; the O(1) regime is m ≤ n^{1+2/p} "
        f"= {n ** (1 + 2 / p):.0f} edges here"
    )
    return table


def e4_specs(sizes: Sequence[int] = SIZES[:3]) -> List[SweepSpec]:
    """E4: our K4 listing against Eden et al. [DISC 2019] and the two
    broadcasts, on the same dense ER cells."""
    ours = SweepSpec(
        workloads=[DENSE_ER], sizes=list(sizes), ps=[4], variants=[K4_VARIANT]
    )
    comparators = ("eden-k4", "broadcast", "neighborhood-broadcast")
    return [ours] + [comparator_spec(ours, model) for model in comparators]


def e4_table(rows: Sequence[Row]) -> ExperimentTable:
    """Every model's rounds per n, the two sub-linear theory curves, and
    the measured ours ≤ Eden crossover."""
    table = ExperimentTable(
        name="E4 K4 baselines",
        description="K4 listing round comparison (measured, same workloads).",
    )
    for cell in _by_model(rows, lambda row: row["n"]):
        table.add(
            n=cell["congest"]["n"],
            ours_k4=cell["congest"]["rounds"],
            eden_k4=cell["eden-k4"]["rounds"],
            broadcast_orientation=cell["broadcast"]["rounds"],
            broadcast_neighborhood=cell["neighborhood-broadcast"]["rounds"],
            theory_ours=cell["congest"]["theory"],
            theory_eden=cell["eden-k4"]["theory"],
        )
    column = {k: [row[k] for row in table.rows] for k in ("n", "ours_k4", "eden_k4")}
    crossover = crossover_size(column["n"], column["ours_k4"], column["eden_k4"])
    table.notes.append(
        f"measured crossover ours<=eden at n={crossover} (inf = not within the sweep)"
    )
    table.notes.append(
        "At simulation scale the polylog routing slack dominates all sub-linear "
        "algorithms, so the trivial broadcasts win and the Eden comparator "
        "(a coarser operational model with fewer charged phases) sits below "
        "ours; the asymptotic ordering is carried by the theory columns "
        "(exponents 2/3 < 5/6 < 1)."
    )
    return table


# ----------------------------------------------------------------------
# E5–E9 — the lemmas the listing consumes
# ----------------------------------------------------------------------
#: E5's graph families: name → (graph, threshold, phi), built on demand.
E5_FAMILIES = {
    "dense_er": lambda: (erdos_renyi(192, 0.4, seed=4), 12, None),
    "caveman": lambda: (
        clustered_graph(4, 48, intra_p=0.8, inter_edges_per_pair=2, seed=4),
        10,
        0.05,
    ),
    "sparse_arb3": lambda: (bounded_arboricity_graph(384, 3, seed=4), 8, None),
}


def e5_row(family: str) -> Row:
    """Decompose one :data:`E5_FAMILIES` graph, check Definition 2.2
    strictly (mixing included), and return its E5 row."""
    graph, threshold, phi = E5_FAMILIES[family]()
    ledger = RoundLedger()
    decomposition = expander_decomposition(
        graph, threshold=threshold, phi=phi, ledger=ledger
    )
    validate_decomposition(graph, decomposition, strict_mixing=True)
    stats = decomposition.stats()
    mixing = [
        c.mixing_time for c in decomposition.clusters if c.mixing_time is not None
    ]
    return dict(
        family=family,
        n=graph.num_nodes,
        m=graph.num_edges,
        clusters=int(stats["num_clusters"]),
        er_frac=stats["er_fraction"],
        es_outdeg=int(stats["es_out_degree"]),
        threshold=threshold,
        worst_mix=max(mixing) if mixing else "-",
        budget=polylog_mixing_budget(graph.num_nodes),
        charged_rounds=ledger.total_rounds,
    )


def experiment_e5() -> ExperimentTable:
    table = ExperimentTable(
        name="E5 decomposition quality",
        description="Definition 2.2 guarantees, measured per graph family.",
    )
    table.rows.extend(e5_row(family) for family in E5_FAMILIES)
    table.notes.append("All rows satisfy |Er| ≤ |E|/6, out-deg(Es) ≤ n^δ, mixing ≤ polylog budget.")
    return table


def experiment_e6() -> ExperimentTable:
    table = ExperimentTable(
        name="E6 ARB-LIST contraction",
        description=(
            "|Êr| ≤ |Er|/4 per invocation; bad-edge fraction ≤ 1/25.  "
            "Workload: a 6-block caveman graph whose inter-block edges force "
            "multiple deferral rounds (a dense ER input collapses to one "
            "cluster in a single invocation)."
        ),
    )
    g = clustered_graph(6, 22, intra_p=0.75, inter_edges_per_pair=6, seed=5)
    orientation = degeneracy_orientation(g)
    state = ArbListState(
        n=g.num_nodes,
        er_edges=g.edge_set(),
        orientation=orientation,
        arboricity=max(1, orientation.max_out_degree),
        threshold=8,
    )
    params = AlgorithmParameters(p=4, phi=0.08)
    iteration = 0
    while state.er_keys.size and iteration < 6:
        before = state.er_keys.size
        outcome = arb_list(state, params, np.random.default_rng(0), RoundLedger())
        table.add(
            iteration=iteration,
            er_before=before,
            er_after=state.er_keys.size,
            ratio=round(state.er_keys.size / before, 3),
            bad_edges=len(outcome.bad_edges),
            goal_edges=len(outcome.goal_edges),
        )
        iteration += 1
    table.notes.append("ratio column must stay ≤ 0.25 (Theorem 2.9).")
    return table


def experiment_e7() -> ExperimentTable:
    from repro.core.partition import (
        lemma_2_7_bound,
        max_pair_load,
        random_partition,
        sample_induced_edges,
    )

    table = ExperimentTable(
        name="E7 Lemma 2.7",
        description="Sampling: induced edges vs the 6q²m̄ bound (50 trials each).",
    )
    g = gnm_random_graph(400, 12_000, seed=6)
    rng = np.random.default_rng(6)
    for q in (0.2, 0.3, 0.5):
        worst = 0.0
        for _ in range(50):
            _, induced = sample_induced_edges(g, q, rng)
            worst = max(worst, induced / lemma_2_7_bound(g, q))
        table.add(q=q, worst_induced_over_bound=round(worst, 3), violations=0 if worst <= 1 else 1)
    for s in (2, 3, 4):
        worst_load = 0
        for _ in range(50):
            partition = random_partition(g.num_nodes, s, rng)
            worst_load = max(worst_load, max_pair_load(g.edges(), partition))
        table.add(
            q=f"parts={s}",
            worst_induced_over_bound=round(worst_load / (g.num_edges / s**2), 3),
            violations="-",
        )
    table.notes.append(
        "Top rows: vertex sampling (ratio ≤ 1 ⇒ within the 6q²m̄ bound).  "
        "Bottom rows: partition pair loads over the m/s² expectation."
    )
    return table


def experiment_e9() -> ExperimentTable:
    table = ExperimentTable(
        name="E9 upper/lower exponent ladder",
        description="Theorem 1.1 exponent vs the Ω̃(n^{(p−2)/p}) lower bound.",
    )
    for p in (4, 5, 6, 8, 10, 14, 20):
        table.add(
            p=p,
            upper=round(max(0.75, p / (p + 2)), 4),
            lower=round((p - 2) / p, 4),
            gap=round(bounds.optimality_gap(0, p), 4),
        )
    table.notes.append("The gap closes as p grows (§5 of the paper).")
    return table


def main() -> None:
    tables: List[ExperimentTable] = []
    print("running E1/E2 (CONGEST sweeps)...", file=sys.stderr)
    tables.extend(e1_table(sweep_rows(e1_spec(p))) for p in E1_PS)
    tables.append(e1_table(sweep_rows(e2_spec())))
    tables.append(e2b_table(sweep_rows(e2b_spec())))
    print("running E3 (CONGESTED CLIQUE)...", file=sys.stderr)
    tables.extend(e3_table(sweep_rows(*e3_specs(p))) for p in (3, 4, 5))
    print("running E4 (baselines)...", file=sys.stderr)
    tables.append(e4_table(sweep_rows(*e4_specs())))
    print("running E5 (decomposition)...", file=sys.stderr)
    tables.append(experiment_e5())
    print("running E6 (ARB-LIST)...", file=sys.stderr)
    tables.append(experiment_e6())
    print("running E7 (Lemma 2.7)...", file=sys.stderr)
    tables.append(experiment_e7())
    tables.append(experiment_e9())
    for table in tables:
        print(table.to_markdown())


if __name__ == "__main__":
    main()
