"""Shared experiment driver used by the benchmarks and by the tables
``python -m repro.analysis.report`` prints.

Each experiment (E1–E10) is a function that runs a sweep, verifies
correctness, and returns a table of rows.  Benchmarks wrap these with
pytest-benchmark; the ``__main__`` entry point prints the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.complexity import crossover_size, fit_exponent
from repro.analysis.verification import verify_listing
from repro.baselines import bounds
from repro.baselines.broadcast import broadcast_listing, neighborhood_broadcast_listing
from repro.baselines.cc_general import general_congested_clique_listing
from repro.baselines.eden import eden_k4_listing
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.listing import list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.generators import erdos_renyi, gnm_random_graph
from repro.graphs.graph import Graph


@dataclass
class ExperimentTable:
    """A named table of result rows (dicts), printable as markdown."""

    name: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **row: object) -> None:
        self.rows.append(row)

    def to_markdown(self) -> str:
        if not self.rows:
            return f"### {self.name}\n\n(no rows)\n"
        headers = list(self.rows[0].keys())
        lines = [f"### {self.name}", "", self.description, ""]
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join("---" for _ in headers) + "|")
        for row in self.rows:
            cells = []
            for h in headers:
                value = row.get(h, "")
                if isinstance(value, float):
                    cells.append(f"{value:.3g}")
                else:
                    cells.append(str(value))
            lines.append("| " + " | ".join(cells) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines) + "\n"


def dense_workload(n: int, seed: int = 0) -> Graph:
    """The dense regime the sub-linear claims are about: ER with p = 0.5."""
    return erdos_renyi(n, 0.5, seed=seed)


def run_congest_sweep(
    p: int,
    sizes: Sequence[int],
    variant: Optional[str] = None,
    density: float = 0.5,
    seed: int = 0,
    verify: bool = True,
) -> ExperimentTable:
    """E1/E2 core: rounds vs n for the CONGEST algorithm."""
    label = variant or ("k4" if p == 4 else "generic")
    table = ExperimentTable(
        name=f"congest_p{p}_{label}",
        description=(
            f"Kp listing rounds vs n (p={p}, variant={label}, ER density {density})."
        ),
    )
    rounds_list: List[float] = []
    for n in sizes:
        g = erdos_renyi(n, density, seed=seed)
        result = list_cliques_congest(g, p, variant=variant, seed=seed)
        if verify:
            verify_listing(g, result).raise_if_failed()
        rounds_list.append(result.rounds)
        table.add(
            n=n,
            m=g.num_edges,
            rounds=result.rounds,
            cliques=len(result.cliques),
            outer_iterations=result.stats.get("outer_iterations", 0.0),
            theory=bounds.this_paper_k4(n)
            if label == "k4"
            else bounds.this_paper_congest(n, p),
        )
    if len(sizes) >= 2:
        fit = fit_exponent(list(sizes), rounds_list)
        theory_exp = 2.0 / 3.0 if label == "k4" else max(0.75, p / (p + 2.0))
        table.notes.append(
            f"fitted exponent {fit.slope:.3f} (R²={fit.r_squared:.3f}) vs theory "
            f"{theory_exp:.3f} (+polylog at finite n)"
        )
    return table


def run_congested_clique_sweep(
    p: int,
    n: int,
    edge_counts: Sequence[int],
    seed: int = 0,
    verify: bool = True,
) -> ExperimentTable:
    """E3: CONGESTED CLIQUE rounds vs m at fixed n."""
    table = ExperimentTable(
        name=f"congested_clique_p{p}_n{n}",
        description=f"Sparsity-aware CONGESTED CLIQUE Kp rounds vs m (p={p}, n={n}).",
    )
    for m in edge_counts:
        g = gnm_random_graph(n, m, seed=seed)
        truth = enumerate_cliques(g, p) if verify else None
        result = list_cliques_congested_clique(g, p, seed=seed)
        general = general_congested_clique_listing(g, p)
        if verify:
            verify_listing(g, result, truth=truth).raise_if_failed()
            verify_listing(g, general, truth=truth).raise_if_failed()
        table.add(
            m=m,
            rounds=result.rounds,
            learn_rounds=result.ledger.rounds_by_prefix("learn_edges"),
            cliques=len(result.cliques),
            theory=bounds.this_paper_congested_clique(n, p, m),
            general_measured=general.rounds,
        )
    table.notes.append(
        "theory = 1 + m/n^{1+2/p}; the O(1) regime is m ≤ n^{1+2/p} "
        f"= {n ** (1 + 2 / p):.0f} edges here"
    )
    return table


def run_baseline_comparison(
    sizes: Sequence[int], density: float = 0.5, seed: int = 0
) -> ExperimentTable:
    """E4: our K4 vs Eden-style K4 vs broadcast baselines."""
    table = ExperimentTable(
        name="baselines_k4",
        description="K4 listing round comparison (measured, same workloads).",
    )
    ours: List[float] = []
    eden: List[float] = []
    bcast: List[float] = []
    for n in sizes:
        g = erdos_renyi(n, density, seed=seed)
        truth = enumerate_cliques(g, 4)
        r_ours = list_cliques_congest(g, 4, variant="k4", seed=seed)
        r_eden = eden_k4_listing(g, seed=seed)
        r_bcast = broadcast_listing(g, 4)
        r_nbr = neighborhood_broadcast_listing(g, 4)
        for r in (r_ours, r_eden, r_bcast, r_nbr):
            verify_listing(g, r, truth=truth).raise_if_failed()
        ours.append(r_ours.rounds)
        eden.append(r_eden.rounds)
        bcast.append(r_bcast.rounds)
        table.add(
            n=n,
            ours_k4=r_ours.rounds,
            eden_k4=r_eden.rounds,
            broadcast_orientation=r_bcast.rounds,
            broadcast_neighborhood=r_nbr.rounds,
            theory_ours=bounds.this_paper_k4(n),
            theory_eden=bounds.eden_k4(n),
        )
    table.notes.append(
        f"measured crossover ours<=eden at n={crossover_size(list(sizes), ours, eden)} "
        "(inf = not within the sweep)"
    )
    table.notes.append(
        "At simulation scale the polylog routing slack dominates all sub-linear "
        "algorithms, so the trivial broadcasts win and the Eden comparator "
        "(a coarser operational model with fewer charged phases) sits below "
        "ours; the asymptotic ordering is carried by the theory columns "
        "(exponents 2/3 < 5/6 < 1)."
    )
    return table
