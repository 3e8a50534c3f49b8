"""Batched sweep runner: grid specs → cached, parallel listing runs.

This module is the batch layer over the single-run API
(:func:`repro.list_cliques`): you describe a grid —
workload families × sizes × clique sizes × variants — and it

1. expands the grid into :class:`RunSpec` cells (skipping invalid
   combinations such as the ``k4`` variant with p ≠ 4),
2. answers each cell from a JSON result cache keyed by a hash of the
   spec (same spec ⇒ same result, because workloads are seeded and the
   simulators are deterministic),
3. fans the remaining cells out over a ``multiprocessing`` pool,
4. runs each cell through one entry of the :data:`MODELS` table — the
   paper's two drivers or one of the comparators — and verifies it
   against sequential ground truth (unless disabled),
5. aggregates everything into one :class:`ExperimentTable` per
   workload, rendered by :meth:`SweepResult.to_markdown`.

The CLI front-end is ``python -m repro.cli sweep``;
:mod:`repro.analysis.report` declares the paper's experiments E1–E4 as
specs, and the E1–E4 benchmarks run those same declarations.

>>> from repro.analysis.sweeps import SweepSpec, run_sweep
>>> spec = SweepSpec(workloads=["sparse"], sizes=[24], ps=[3], verify=False)
>>> result = run_sweep(spec)
>>> [row["workload"] for row in result.rows]
['sparse']
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.verification import verify_listing
from repro.baselines import bounds
from repro.baselines.broadcast import broadcast_listing, neighborhood_broadcast_listing
from repro.baselines.cc_general import general_congested_clique_listing
from repro.baselines.eden import eden_k4_listing
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.listing import default_parameters, list_cliques_congest
from repro.core.params import AlgorithmParameters, GENERIC_VARIANT, K4_VARIANT
from repro.core.result import ListingResult
from repro.faults.model import FaultModel
from repro.graphs.graph import Graph
from repro.workloads import create_workload

# Bump when the row schema or run semantics change; stale cache entries
# keyed under an older format are then simply never hit again.
# 2: degeneracy orientation adopted the deterministic lowest-id
#    tie-break (per-node out-degrees, and with them measured loads and
#    round counts, can differ from format-1 runs).
# 3: the routing planes landed — the congested-clique driver now
#    *executes* the §2.4.3 fan-out (batch plane by default) instead of
#    only charging analytic loads, and new stats (n, messages) appear on
#    the learn_edges phase; format-2 rows predate that execution.
# 4: the streaming subsystem landed — the stream_* families joined the
#    registry (their instances are defined by replaying an update
#    stream), and graph construction moved to the bulk mutators
#    (`Graph.add_edges`).  Edge sets are unchanged, but format-3 rows
#    predate the replay-defined instance contract the differential
#    suite now certifies, so they are retired rather than trusted.
# 5: the parallel plane landed and `algo_overrides` now reach the
#    congested-clique model too (previously silently ignored there);
#    format-4 rows with a non-empty `extra` under that model could
#    reflect defaults rather than the requested overrides.
# 6: the fault-injection plane landed: a `faults` override reaches the
#    key only through its repr (`default=str`), and faulted rows carry
#    tagged recovery rounds in their totals — format-5 rows were
#    computed by drivers without the healing seam, so they are retired
#    rather than mixed with fault-aware rows.
# 7: columnar clique tables became the canonical result type: runs now
#    verify and count through the frozen `(count, p)` table instead of
#    materialized frozensets, and the `materialize` knob joined the spec
#    (and thus the key).  Numbers are identical, but format-6 rows were
#    produced before the table differential certified that, so they are
#    retired rather than grandfathered.
# 8: the topology axis landed: the `topology` overlay spec joined the
#    RunSpec (and thus the key), and every row now carries a topology-
#    aware `makespan` next to its uniform `rounds`.  Clique rounds are
#    unchanged, but format-7 rows predate the makespan column, so they
#    are retired rather than patched.
CACHE_FORMAT = 8

WorkloadLike = Union[str, Tuple[str, Mapping[str, Any]]]


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One fully-determined cell of a sweep grid.

    Everything that influences the run's outcome is part of the spec —
    and therefore part of the cache key.  ``params`` and ``extra`` are
    stored as sorted item tuples so the dataclass stays hashable and
    picklable for the multiprocessing pool.
    """

    workload: str
    params: Tuple[Tuple[str, Any], ...]
    n: int
    p: int
    variant: Optional[str]
    model: str
    seed: int
    verify: bool
    extra: Tuple[Tuple[str, Any], ...] = ()
    topology: Optional[str] = None

    def cache_key(self) -> str:
        """Stable content hash identifying this run in the cache.

        ``"materialize": False`` stays in the payload: format-8 keys
        were hashed with the since-removed frozenset switch off, and
        keeping it keeps every existing cache entry reachable.
        """
        payload = json.dumps(
            {
                "format": CACHE_FORMAT,
                "workload": self.workload,
                "params": list(self.params),
                "n": self.n,
                "p": self.p,
                "variant": self.variant,
                "model": self.model,
                "seed": self.seed,
                "verify": self.verify,
                "extra": list(self.extra),
                "materialize": False,
                "topology": self.topology,
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _freeze(mapping: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted((str(k), v) for k, v in mapping.items()))


@dataclass
class SweepSpec:
    """A sweep grid: workloads × sizes × clique sizes × variants.

    Parameters
    ----------
    workloads:
        Family names, or ``(name, params)`` pairs for parameterized
        families, e.g. ``["er", ("caveman", {"intra_p": 0.7})]``.
    sizes / ps / variants:
        Grid axes.  ``variants`` entries are ``None`` (paper default per
        p), ``"generic"`` or ``"k4"``; ``"k4"`` cells with p ≠ 4 are
        dropped from the grid rather than erroring.
    model:
        A :data:`MODELS` key: ``"congest"`` (the only model variants
        apply to; any other model raises on one), ``"congested-clique"``,
        or a comparator.  Comparator grids with overrides, a variant or a
        topology raise rather than drop them, as does ``"eden-k4"`` with
        p ≠ 4.
    seed:
        Base seed; workload instances further mix in family and n.
    verify:
        Check every run against sequential ground-truth enumeration.
    algo_overrides:
        Flat field overrides applied to every run: names of
        :class:`~repro.core.config.ExecutionConfig` fields (e.g.
        ``{"faults": FaultModel(...)}``) set the run's execution config,
        every other name an :class:`~repro.core.params.AlgorithmParameters`
        field (e.g. ``{"stop_scale": 0.5}``) other than ``p`` or
        ``execution``; :meth:`runs` raises on any other name, and on
        ``variant`` or ``topology``, which the ``variants`` and
        ``topologies`` axes set per cell.
    topologies:
        Overlay-topology axis (:mod:`repro.congest.topology` spec
        strings, e.g. ``["clique", "star", "spanner:3"]``; ``None`` is
        the uniform-clique default).  Every entry multiplies the grid;
        specs are normalized at expansion, and rows carry a topology-
        aware ``makespan`` next to their uniform ``rounds``.
    """

    workloads: Sequence[WorkloadLike]
    sizes: Sequence[int]
    ps: Sequence[int]
    variants: Sequence[Optional[str]] = (None,)
    model: str = "congest"
    seed: int = 0
    verify: bool = True
    algo_overrides: Mapping[str, Any] = field(default_factory=dict)
    topologies: Sequence[Optional[str]] = (None,)

    def runs(self) -> List[RunSpec]:
        """Expand the grid into its valid cells, in deterministic order."""
        for variant in self.variants:
            if variant not in (None, GENERIC_VARIANT, K4_VARIANT):
                raise ValueError(
                    f"unknown variant {variant!r}; use None, "
                    f"{GENERIC_VARIANT!r} or {K4_VARIANT!r}"
                )
        if self.model in COMPARATORS and (
            self.algo_overrides or {*self.variants, *self.topologies} != {None}
        ):
            raise ValueError(
                f"comparator model {self.model!r} runs on the instance alone: "
                "it takes no algo_overrides, variant or topology"
            )
        if self.model != "congest" and set(self.variants) != {None}:
            raise ValueError(f"model {self.model!r} takes no variant (congest only)")
        bypass = sorted(set(self.algo_overrides) & set(_AXIS_FIELDS))
        if bypass:
            raise ValueError(
                f"algo_overrides {bypass} would bypass the grid; set them "
                f"through the {[_AXIS_FIELDS[name] for name in bypass]} axis"
            )
        unknown = sorted(set(self.algo_overrides) - _OVERRIDE_NAMES)
        if unknown:
            raise ValueError(
                f"unknown algo_overrides {unknown}; accepted: {sorted(_OVERRIDE_NAMES)}"
            )
        if self.model == "eden-k4" and {int(p) for p in self.ps} != {4}:
            raise ValueError(f"model 'eden-k4' lists K4 only; got ps={list(self.ps)}")
        from repro.congest.topology import parse_topology

        # Normalize every topology entry to its canonical spec string so
        # "ring@bw=1" and "ring" key the cache identically.
        topologies: List[Optional[str]] = []
        for entry in self.topologies:
            topologies.append(
                None if entry is None else parse_topology(entry).spec()
            )
        cells: List[RunSpec] = []
        for entry in self.workloads:
            name, params = (entry, {}) if isinstance(entry, str) else entry
            # Fail fast — unknown families/params or unusable param values
            # (a tiny probe instance) — before any fan-out work is done.
            try:
                create_workload(name, **dict(params)).instance(4, seed=0)
            except (TypeError, ValueError):
                raise
            except Exception as exc:
                raise ValueError(
                    f"workload {name!r} with params {dict(params)} cannot "
                    f"build an instance: {exc}"
                ) from exc
            for n in self.sizes:
                for p in self.ps:
                    for variant in self.variants:
                        if variant == "k4" and p != 4:
                            continue
                        for topology in topologies:
                            cells.append(
                                RunSpec(
                                    workload=name,
                                    params=_freeze(params),
                                    n=int(n),
                                    p=int(p),
                                    variant=variant,
                                    model=self.model,
                                    seed=self.seed,
                                    verify=self.verify,
                                    extra=_freeze(self.algo_overrides),
                                    topology=topology,
                                )
                            )
        return cells


# ----------------------------------------------------------------------
# Single-run execution (top-level so the pool can pickle it)
# ----------------------------------------------------------------------
def _congest_theory(n: int, p: int, variant: str) -> float:
    """The paper curve a CONGEST run is compared against in the report.

    Theorem 1.2 for the K4 variant, Theorem 1.1 for p ≥ 4; at p = 3 the
    pipeline runs as an expander-decomposition triangle lister, whose
    driver stops at the n^{3/4} witness — the Izumi–Le Gall exponent.
    """
    if variant == "k4":
        return bounds.this_paper_k4(n)
    if p == 3:
        return bounds.izumi_legall_triangle(n, polylog=0.0)
    return bounds.this_paper_congest(n, p)


_EXECUTION_NAMES = frozenset(f.name for f in fields(ExecutionConfig))

#: Fields a grid axis sets per cell: as an ``algo_overrides`` entry one
#: would run every cell alike under cache keys that differ.
_AXIS_FIELDS = {"variant": "variants", "topology": "topologies"}

#: The names :func:`_run_params` can apply as an ``algo_overrides`` entry.
_OVERRIDE_NAMES = (
    _EXECUTION_NAMES | {f.name for f in fields(AlgorithmParameters)}
) - {"p", "execution", *_AXIS_FIELDS}


def _run_params(spec: RunSpec, params: AlgorithmParameters) -> AlgorithmParameters:
    """``params`` with the cell's flat ``extra`` overrides and topology
    applied: ExecutionConfig field names go to ``params.execution``,
    every other name to the algorithm parameters themselves."""
    extra = dict(spec.extra)
    execution = {name: extra.pop(name) for name in _EXECUTION_NAMES & set(extra)}
    if spec.topology is not None:
        execution["topology"] = spec.topology
    return replace(params, execution=replace(params.execution, **execution), **extra)


def _congest(spec: RunSpec, graph: Graph) -> Tuple[ListingResult, str, float]:
    params = _run_params(spec, default_parameters(spec.p, spec.variant))
    result = list_cliques_congest(graph, spec.p, params=params, seed=spec.seed)
    return result, params.variant, _congest_theory(spec.n, spec.p, params.variant)


def _congested_clique(spec: RunSpec, graph: Graph) -> Tuple[ListingResult, str, float]:
    params = _run_params(spec, AlgorithmParameters(p=spec.p))
    result = list_cliques_congested_clique(graph, spec.p, params=params, seed=spec.seed)
    theory = bounds.this_paper_congested_clique(spec.n, spec.p, graph.num_edges)
    return result, "-", theory


#: Model name → ``(cell, instance) -> (result, variant label, theory)``.
#: The comparators run on the same instance, verification and cache as
#: the paper's drivers, each against its own bound in
#: :mod:`repro.baselines.bounds`.
MODELS: Dict[str, Callable[[RunSpec, Graph], Tuple[ListingResult, str, float]]] = {
    "congest": _congest,
    "congested-clique": _congested_clique,
    "congested_clique": _congested_clique,
    "eden-k4": lambda spec, g: (
        eden_k4_listing(g, seed=spec.seed), "-", bounds.eden_k4(spec.n)
    ),
    "broadcast": lambda spec, g: (
        broadcast_listing(g, spec.p), "-", bounds.trivial_broadcast(spec.n)
    ),
    "neighborhood-broadcast": lambda spec, g: (
        neighborhood_broadcast_listing(g, spec.p), "-", bounds.trivial_broadcast(spec.n)
    ),
    "cc-general": lambda spec, g: (
        general_congested_clique_listing(g, spec.p),
        "-",
        bounds.congested_clique_general(spec.n, spec.p),
    ),
}

#: The models that take neither overrides, a variant nor a topology.
COMPARATORS = frozenset(
    {"eden-k4", "broadcast", "neighborhood-broadcast", "cc-general"}
)


def execute_run(spec: RunSpec) -> Dict[str, Any]:
    """Run one grid cell and return its JSON-serializable result row."""
    if spec.model not in MODELS:
        raise ValueError(
            f"unknown model {spec.model!r}; use one of {', '.join(sorted(MODELS))}"
        )
    workload = create_workload(spec.workload, **dict(spec.params))
    graph = workload.instance(spec.n, seed=spec.seed)
    start = time.perf_counter()
    result, variant, theory = MODELS[spec.model](spec, graph)
    wall = time.perf_counter() - start
    if spec.verify:
        # Table differential: verify_listing compares canonical
        # (count, p) matrices directly — no python sets built.
        verify_listing(graph, result).raise_if_failed()

    phase_rounds: Dict[str, float] = {}
    for phase in result.ledger.phases():
        phase_rounds[phase.name] = phase_rounds.get(phase.name, 0.0) + phase.rounds
    return {
        "workload": spec.workload,
        "workload_params": dict(spec.params),
        "n": spec.n,
        "m": graph.num_edges,
        "p": spec.p,
        "variant": variant,
        "model": spec.model,
        "seed": spec.seed,
        "verified": spec.verify,
        "rounds": result.rounds,
        "makespan": result.makespan,
        "topology": spec.topology or "clique",
        "cliques": result.num_cliques,
        "theory": theory,
        "ratio": result.rounds / theory if theory else float("inf"),
        "wall_seconds": wall,
        "phases": phase_rounds,
        "stats": {k: v for k, v in result.stats.items()},
        "cached": False,
    }


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class SweepCache:
    """One JSON file per run, named by the spec hash, written atomically."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.cache_key()}.json"

    def get(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        path = self.path(spec)
        try:
            row = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return row

    def put(self, spec: RunSpec, row: Mapping[str, Any]) -> None:
        path = self.path(spec)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(dict(row), indent=1, sort_keys=True))
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """All result rows of one sweep, plus cache accounting."""

    rows: List[Dict[str, Any]]
    cache_hits: int = 0
    cache_misses: int = 0
    cache_dir: Optional[str] = None

    @property
    def total_rounds(self) -> float:
        return sum(row["rounds"] for row in self.rows)

    @property
    def total_wall_seconds(self) -> float:
        return sum(row["wall_seconds"] for row in self.rows)

    def tables(self) -> List[ExperimentTable]:
        """Per-workload detail tables plus an overall summary table.

        Grouping is by (family, params), not family name alone, so two
        entries of the same family with different parameters get separate,
        correctly-labelled tables.
        """
        by_group: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        for row in self.rows:
            params_label = json.dumps(row["workload_params"], sort_keys=True)
            by_group.setdefault((row["workload"], params_label), []).append(row)
        # Only annotate names with params when a family appears more than once.
        family_counts: Dict[str, int] = {}
        for workload, _ in by_group:
            family_counts[workload] = family_counts.get(workload, 0) + 1

        tables: List[ExperimentTable] = []
        summary = ExperimentTable(
            name="sweep summary",
            description="Per-workload aggregates over the whole grid.",
        )
        # The topology / makespan columns only appear when the sweep
        # actually exercises a non-default overlay, so plain clique
        # sweeps render exactly as before.
        show_topology = any(
            row.get("topology", "clique") != "clique" for row in self.rows
        )
        for workload, params_label in sorted(by_group):
            rows = sorted(
                by_group[(workload, params_label)],
                key=lambda r: (r["n"], r["p"], r.get("topology", "clique")),
            )
            label = workload
            if family_counts[workload] > 1:
                label = f"{workload} {params_label}"
            table = ExperimentTable(
                name=f"workload {label}",
                description=(
                    f"Rounds vs the paper bound, model={rows[0]['model']}, "
                    f"params={rows[0]['workload_params'] or 'defaults'}."
                ),
            )
            for row in rows:
                cells: Dict[str, Any] = dict(
                    n=row["n"],
                    m=row["m"],
                    p=row["p"],
                    variant=row["variant"],
                )
                if show_topology:
                    cells["topology"] = row.get("topology", "clique")
                cells.update(
                    rounds=round(row["rounds"], 1),
                )
                if show_topology:
                    cells["makespan"] = round(row.get("makespan", row["rounds"]), 1)
                cells.update(
                    theory=round(row["theory"], 1),
                    ratio=round(row["ratio"], 2),
                    cliques=row["cliques"],
                    wall_s=round(row["wall_seconds"], 3),
                    cached="yes" if row.get("cached") else "no",
                )
                table.add(**cells)
            tables.append(table)
            summary_cells: Dict[str, Any] = dict(
                workload=label,
                runs=len(rows),
                total_rounds=round(sum(r["rounds"] for r in rows), 1),
            )
            if show_topology:
                summary_cells["total_makespan"] = round(
                    sum(r.get("makespan", r["rounds"]) for r in rows), 1
                )
            summary_cells.update(
                worst_ratio=round(max(r["ratio"] for r in rows), 2),
                total_cliques=sum(r["cliques"] for r in rows),
                wall_s=round(sum(r["wall_seconds"] for r in rows), 3),
            )
            summary.add(**summary_cells)
        tables.append(summary)
        return tables

    def to_markdown(self) -> str:
        """The :meth:`tables` as markdown, then a cache-accounting footer
        (so batch jobs can confirm reuse)."""
        sections = [table.to_markdown() for table in self.tables()]
        sections.append(
            f"cache: {self.cache_hits} hit(s), {self.cache_misses} miss(es)"
            + (f" in {self.cache_dir}" if self.cache_dir else " (caching disabled)")
            + f"; total wall {self.total_wall_seconds:.2f}s\n"
        )
        return "\n".join(sections)

    def to_json(self) -> str:
        return json.dumps(
            {
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_dir": self.cache_dir,
                "rows": self.rows,
            },
            indent=1,
            sort_keys=True,
        )


def resolve_jobs(jobs: int, num_tasks: int) -> int:
    """0 → auto (bounded by cores and tasks); otherwise clamp to tasks."""
    if jobs <= 0:
        jobs = min(8, os.cpu_count() or 1)
    return max(1, min(jobs, num_tasks))


def _cell_payload(cell: RunSpec) -> dict:
    """A ``RunSpec`` as the plain field dict the ``sweep_cell`` remote
    task rebuilds (see :func:`repro.dist.registry.sweep_cell`); a
    :class:`FaultModel` in ``extra`` travels as its own field dict."""
    payload = {f.name: getattr(cell, f.name) for f in fields(cell)}
    payload["extra"] = [
        (name, asdict(value) if isinstance(value, FaultModel) else value)
        for name, value in cell.extra
    ]
    return payload


def run_sweep(
    spec: SweepSpec,
    cache_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    hosts: Optional[Sequence[str]] = None,
) -> SweepResult:
    """Execute a sweep grid with caching and fan-out.

    Parameters
    ----------
    spec:
        The grid to run.
    cache_dir:
        Directory for the per-run JSON cache (``None`` disables caching).
    jobs:
        Worker processes for the uncached cells; ``1`` runs inline in
        this process, ``0`` picks an automatic level.  Note: pool
        workers are daemonic, so cells that request a shard pool
        (``algo_overrides={"workers": N}``) fall back to inline shard
        execution inside a ``jobs > 1`` fan-out — run such sweeps with
        ``jobs=1`` to give the shard executor the machine.
    hosts:
        Cluster host specs (``repro.dist``).  When set, the uncached
        cells dispatch as ``sweep_cell`` tasks across the cluster
        instead of a local multiprocessing pool — ``jobs`` is ignored.
        Each cell row comes back exactly as :func:`execute_run` would
        produce it locally (cells are independent, results land in grid
        order), so caching and reporting are oblivious to where the
        cells ran.
    """
    cells = spec.runs()
    cache = SweepCache(cache_dir) if cache_dir is not None else None
    rows: List[Optional[Dict[str, Any]]] = [None] * len(cells)

    pending: List[Tuple[int, RunSpec]] = []
    for index, cell in enumerate(cells):
        cached = cache.get(cell) if cache else None
        if cached is not None:
            cached["cached"] = True
            rows[index] = cached
        else:
            pending.append((index, cell))

    if pending:
        if hosts is not None:
            from repro.dist import get_cluster

            cluster = get_cluster(tuple(hosts))
            computed = cluster.map_task(
                "sweep_cell",
                {},
                [(_cell_payload(cell),) for _, cell in pending],
            )
        else:
            workers = resolve_jobs(jobs, len(pending))
            if workers > 1:
                with multiprocessing.Pool(workers) as pool:
                    computed = pool.map(
                        execute_run, [cell for _, cell in pending]
                    )
            else:
                computed = [execute_run(cell) for _, cell in pending]
        for (index, cell), row in zip(pending, computed):
            rows[index] = row
            if cache:
                cache.put(cell, row)

    return SweepResult(
        rows=[row for row in rows if row is not None],
        cache_hits=cache.hits if cache else 0,
        cache_misses=cache.misses if cache else len(cells),
        cache_dir=str(cache.root) if cache else None,
    )
