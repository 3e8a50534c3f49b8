"""Command-line interface.

Usage (after installing the package):

    python -m repro.cli list --generator er --n 96 --density 0.4 --p 4
    python -m repro.cli list --input my_graph.edges --p 5 --model congested-clique
    python -m repro.cli decompose --generator caveman --n 128 --threshold 8
    python -m repro.cli bounds --n 1024
    python -m repro.cli sweep --workloads er,zipfian --n 64,96 --p 3
    python -m repro.cli sweep --workloads er --n 2000 --p 3 --jobs 1 --workers 4
    python -m repro.cli sweep --workloads er --n 64 --p 3 --drop-rate 0.05
    python -m repro.cli sweep --workloads er --n 64,96 --p 3 --distributed --hosts spawn,spawn
    python -m repro.cli list --generator er --n 128 --p 4 --topology spanner:2 --show-ledger
    python -m repro.cli sweep --workloads er --n 64 --p 3 --topology star,ring,grid:8@bw=0.5
    python -m repro.cli stream --family stream_churn --n 256 --p 3,4 --verify
    python -m repro.cli stream --family stream_churn --n 2000 --workers 4
    python -m repro.cli serve --demo
    python -m repro.cli serve --family stream_window --n 192 --pattern hotspot --requests 500

Every run-shaped subcommand (``list``/``sweep``/``stream``/``serve``)
shares one *execution* flag group — declared once by
:func:`add_execution_args` and parsed by
:func:`execution_config_from_args` into the
:class:`repro.core.config.ExecutionConfig` the library consumes:
``--plane`` (data layout: ``batch`` or ``object``, where supported),
``--workers`` (a process pool for the batch kernels),
``--distributed --hosts`` (a cluster instead, where supported),
``--topology`` (overlay makespan accounting, see
``docs/topologies.md``) and ``--fault-seed``/``--drop-rate`` (the
fault seam).

Sub-commands
------------
``list``       run a listing algorithm, print cliques/rounds/ledger.
``decompose``  run the expander decomposition, print the quality report.
``bounds``     print the round-complexity formula table at a given n.
``sweep``      run a batched workload × n × p × variant grid through the
               sweep runner (JSON result cache, multiprocessing fan-out
               or ``--distributed --hosts`` cluster dispatch,
               per-workload markdown report).
``stream``     replay a dynamic workload family through the streaming
               engine (incremental K_p maintenance with periodic
               compaction), print per-p counts and engine statistics.
``serve``      run the always-on query service under an open-loop traffic
               pattern with interleaved ingest; print p50/p99 latency,
               sustained QPS and epoch statistics (``--verify`` checks
               every response against its pinned epoch's recompute).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional

from repro import list_cliques
from repro.analysis.sweeps import SweepSpec, run_sweep
from repro.analysis.verification import verify_listing
from repro.baselines import bounds
from repro.congest.ledger import RoundLedger
from repro.core.config import PLANES, ExecutionConfig
from repro.core.listing import default_parameters
from repro.core.params import AlgorithmParameters
from repro.decomposition import expander_decomposition, validate_decomposition
from repro.graphs.generators import (
    bounded_arboricity_graph,
    clustered_graph,
    erdos_renyi,
    planted_cliques,
)
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list
from repro.workloads import available_workloads


def build_graph(args: argparse.Namespace) -> Graph:
    """Materialize the input graph from --input or --generator."""
    if args.input:
        return read_edge_list(args.input)
    n, seed = args.n, args.seed
    if args.generator == "er":
        return erdos_renyi(n, args.density, seed=seed)
    if args.generator == "caveman":
        blocks = max(2, n // 32)
        return clustered_graph(blocks, n // blocks, intra_p=0.8, seed=seed)
    if args.generator == "planted":
        return planted_cliques(n, [6, 5, 4], background_p=args.density / 4, seed=seed)
    if args.generator == "sparse":
        return bounded_arboricity_graph(n, 3, seed=seed)
    raise SystemExit(f"unknown generator {args.generator!r}")


def cmd_list(args: argparse.Namespace) -> int:
    graph = build_graph(args)
    print(f"input: {graph}", file=sys.stderr)
    config = execution_config_from_args(args)
    try:
        if args.model == "congest":
            params = default_parameters(args.p, args.variant)
        elif args.variant is not None:
            raise ValueError(f"--variant {args.variant} applies to --model congest only")
        else:
            params = AlgorithmParameters(p=args.p)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid run parameters: {exc}")
    result = list_cliques(
        graph,
        p=args.p,
        model=args.model,
        params=replace(params, execution=config),
        seed=args.seed,
    )
    if args.verify:
        verify_listing(graph, result).raise_if_failed()
        print("verified: complete and sound", file=sys.stderr)
    print(f"cliques: {result.num_cliques}")
    print(f"rounds:  {result.rounds:.1f}")
    if config.topology is not None:
        print(f"makespan: {result.makespan:.1f} on {config.topology.spec()}")
    if args.show_ledger:
        print(result.ledger.summary())
    if args.show_cliques:
        for clique in sorted(sorted(c) for c in result.cliques):
            print(" ".join(map(str, clique)))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    graph = build_graph(args)
    ledger = RoundLedger()
    decomposition = expander_decomposition(
        graph, threshold=args.threshold, phi=args.phi, ledger=ledger
    )
    validate_decomposition(graph, decomposition)
    stats = decomposition.stats()
    print(f"input: {graph}")
    for key, value in sorted(stats.items()):
        print(f"  {key}: {value}")
    print(f"  charged_rounds: {ledger.total_rounds:.1f}")
    for cluster in decomposition.clusters:
        mix = "-" if cluster.mixing_time is None else f"{cluster.mixing_time:.1f}"
        print(
            f"  cluster {cluster.cluster_id}: k={cluster.size} "
            f"m={cluster.num_edges} min_deg={cluster.min_internal_degree} t_mix={mix}"
        )
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    n = args.n
    print(f"round-complexity formulas at n={n} (polylog factors = 1):")
    print(f"  {'this paper, K4 variant (Thm 1.2)':<42} {bounds.this_paper_k4(n):>12.1f}")
    for p in (4, 5, 6, 8):
        print(
            f"  {'this paper, K%d (Thm 1.1)' % p:<42} "
            f"{bounds.this_paper_congest(n, p):>12.1f}"
        )
    print(f"  {'Eden et al. K4':<42} {bounds.eden_k4(n):>12.1f}")
    print(f"  {'Eden et al. K5':<42} {bounds.eden_k5(n):>12.1f}")
    print(f"  {'trivial broadcast':<42} {bounds.trivial_broadcast(n):>12.1f}")
    for p in (4, 6, 8):
        print(
            f"  {'lower bound K%d (Fischer et al.)' % p:<42} "
            f"{bounds.fischer_listing_lower_bound(n, p):>12.1f}"
        )
    return 0


def _parse_csv_ints(text: str, flag: str) -> list:
    try:
        return [int(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise SystemExit(f"{flag} expects a comma-separated list of ints, got {text!r}")


def _positive_int(text: str) -> int:
    """argparse type for flags that must be a positive integer — rejects
    non-numeric and non-positive values with a typed parse error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for flags that must be a positive finite float —
    ``serve --rate`` used to accept 0/negative/inf and fail obscurely."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _resolve_hosts(args: argparse.Namespace):
    """The validated host tuple for ``--distributed``, or ``None``.

    Syntax errors (:class:`repro.dist.HostSpecError`) surface as a clean
    CLI error before any connection is attempted; the flag pairing is
    enforced both ways so a stray ``--hosts`` never silently runs
    single-box.
    """
    specs = [item for item in (args.hosts or "").split(",") if item.strip()]
    if not args.distributed:
        if specs:
            raise SystemExit("--hosts requires --distributed")
        return None
    if not specs:
        raise SystemExit(
            "--distributed requires --hosts HOST[,HOST...] "
            "(local, subprocess, spawn, or HOST:PORT)"
        )
    from repro.dist import HostSpecError, validate_host_specs

    try:
        return validate_host_specs(specs)
    except HostSpecError as exc:
        raise SystemExit(f"invalid --hosts entry: {exc}")


def _parse_param_value(text: str):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _fault_model_from_args(args: argparse.Namespace):
    """The fault model requested by --fault-seed/--drop-rate, or None.

    Either flag alone activates the plane: a bare ``--fault-seed`` runs
    the seam with zero rates (a deliberate no-op schedule), a bare
    ``--drop-rate`` uses seed 0.
    """
    if args.fault_seed is None and args.drop_rate == 0.0:
        return None
    from repro.faults import FaultModel

    return FaultModel(seed=args.fault_seed or 0, drop_rate=args.drop_rate)


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for the deterministic fault-injection plane (repro.faults)",
    )
    p.add_argument(
        "--drop-rate",
        type=float,
        default=0.0,
        help="per-message drop probability; healing drivers retransmit "
        "and charge the overhead as tagged recovery rounds",
    )


def _split_topology_list(text: str) -> List[str]:
    """Split a comma-separated topology list, keeping the commas inside
    a spec's ``@bw=...,lat=...`` cost suffix attached to their spec
    (``"grid:8@bw=0.5,lat=2,ring"`` → ``["grid:8@bw=0.5,lat=2", "ring"]``)."""
    items: List[str] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if items and "=" in part and part.split("=", 1)[0] in ("bw", "lat"):
            items[-1] += "," + part
        else:
            items.append(part)
    return items


def add_execution_args(
    parser: argparse.ArgumentParser,
    *,
    plane: bool = True,
    topology: Optional[str] = "single",
    faults: bool = True,
) -> None:
    """Declare the shared execution surface on a subcommand parser.

    One declaration site for ``--plane/--workers/--distributed/--hosts/
    --topology/--fault-seed/--drop-rate`` — every
    subcommand used to re-declare its own subset with drifting help
    text.  ``plane=False`` omits the layout/cluster flags (stream/serve
    run the engine single-box), ``topology=None`` omits ``--topology``,
    ``topology="list"`` documents it as a comma-separated grid axis
    (sweep), and ``faults=False`` omits the fault seam.  Parse the
    result with :func:`execution_config_from_args`.
    """
    group = parser.add_argument_group(
        "execution",
        "cross-cutting run surface (repro.core.config.ExecutionConfig)",
    )
    group.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help=(
            "shard-executor processes; > 1 runs the batch plane's kernels "
            "on a process pool (identical results and round charges)"
        ),
    )
    if plane:
        group.add_argument(
            "--plane",
            choices=list(PLANES),
            default="batch",
            help=(
                "data layout: batch (columnar numpy) or object (reference "
                "per-message tuples, inline only); charges are "
                "plane-invariant"
            ),
        )
        group.add_argument(
            "--distributed",
            action="store_true",
            help=(
                "run against the --hosts cluster (repro.dist) instead "
                "of a local process pool; results are identical to the "
                "single-box planes"
            ),
        )
        group.add_argument(
            "--hosts",
            default="",
            help=(
                "comma-separated cluster host specs for --distributed: "
                "local | subprocess | spawn | HOST:PORT (a running "
                "`python -m repro.dist.worker --port PORT`)"
            ),
        )
    if topology is not None:
        group.add_argument(
            "--topology",
            default=None,
            metavar="SPEC[,SPEC...]" if topology == "list" else "SPEC",
            help=(
                (
                    "comma-separated topology grid axis; every run is "
                    "repeated per spec and the report grows topology + "
                    "makespan columns"
                )
                if topology == "list"
                else (
                    "overlay network for makespan accounting "
                    "(repro.congest.topology)"
                )
            )
            + "; a spec is KIND[:PARAM][@bw=F,lat=F] with KIND one of "
            "clique|star|ring|chain|grid|spanner, e.g. grid:8@bw=0.5 "
            "— clique keeps charges byte-identical to the default",
        )
    if faults:
        _add_fault_args(group)


def execution_config_from_args(args: argparse.Namespace) -> ExecutionConfig:
    """Build the :class:`ExecutionConfig` described by the shared flags.

    The single flags→config path for every subcommand: host-spec and
    flag-pairing validation (:func:`_resolve_hosts`), the fault seam
    (:func:`_fault_model_from_args`) and topology-spec parsing.  Where
    the batch kernels run follows from ``--workers``/``--hosts`` inside
    the config.  Flags a subcommand did not declare fall back to the
    config defaults.
    """
    hosts = _resolve_hosts(args) if hasattr(args, "distributed") else None
    faults = _fault_model_from_args(args) if hasattr(args, "fault_seed") else None
    topology = None
    spec = getattr(args, "topology", None)
    if spec:
        from repro.congest.topology import parse_topology

        try:
            topology = parse_topology(spec)
        except ValueError as exc:
            raise SystemExit(f"invalid --topology: {exc}")
    try:
        return ExecutionConfig(
            plane=getattr(args, "plane", "batch"),
            workers=getattr(args, "workers", 1),
            hosts=hosts or (),
            faults=faults,
            topology=topology,
        )
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid execution configuration: {exc}")


def cmd_sweep(args: argparse.Namespace) -> int:
    overrides: Dict[str, Dict[str, object]] = {}
    for item in args.param or []:
        try:
            target, value = item.split("=", 1)
            family, key = target.split(".", 1)
        except ValueError:
            raise SystemExit(
                f"--param expects FAMILY.KEY=VALUE, got {item!r}"
            )
        overrides.setdefault(family, {})[key] = _parse_param_value(value)

    names = [name for name in args.workloads.split(",") if name.strip()]
    known = set(available_workloads())
    for name in names:
        if name not in known:
            raise SystemExit(
                f"unknown workload {name!r}; available: {', '.join(sorted(known))}"
            )
    stray = sorted(set(overrides) - set(names))
    if stray:
        raise SystemExit(
            f"--param targets workload(s) not in --workloads: {', '.join(stray)}"
        )
    # Two flags mean something grid-shaped here rather than per-run:
    # --topology is a sweep *axis* (comma-separated specs, one grid cell
    # per spec) and --distributed/--hosts fan grid cells over the
    # cluster.  Both are consumed before the shared flags→config path,
    # so the per-cell ExecutionConfig stays single-box/clique.
    topologies = _split_topology_list(args.topology) if args.topology else None
    args.topology = None
    hosts = _resolve_hosts(args)
    args.distributed, args.hosts = False, ""
    config = execution_config_from_args(args)
    algo_overrides = {}
    if config.faults is not None:
        # Reaches ExecutionConfig.faults through RunSpec.extra; the
        # model's repr feeds the cache key, so faulted and fault-free
        # grids never share rows.
        algo_overrides["faults"] = config.faults
    if config.plane != "batch":
        algo_overrides["plane"] = config.plane
    if config.workers > 1:
        # A pool is charge- and output-identical to inline; only the
        # numpy work moves.
        algo_overrides["workers"] = config.workers
        if hosts is None and args.jobs != 1:
            # Inside a --jobs fan-out every cell runs in a daemonic pool
            # worker, where the shard executor must fall back to inline
            # execution — the requested workers would silently do
            # nothing.  Give the machine to the shard executor instead.
            print(
                f"--workers {config.workers} requires --jobs 1 "
                f"(cells in a --jobs pool cannot fork shard workers); "
                f"forcing --jobs 1",
                file=sys.stderr,
            )
            args.jobs = 1
    spec = SweepSpec(
        workloads=[(name, overrides.get(name, {})) for name in names],
        sizes=_parse_csv_ints(args.n, "--n"),
        ps=_parse_csv_ints(args.p, "--p"),
        variants=[v or None for v in args.variants.split(",")] if args.variants else (None,),
        model=args.model,
        seed=args.seed,
        verify=not args.no_verify,
        algo_overrides=algo_overrides,
        topologies=topologies if topologies else (None,),
    )
    try:
        spec.runs()  # validate the grid (families, params, probe instances)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid sweep grid: {exc}")
    result = run_sweep(
        spec, cache_dir=args.cache_dir or None, jobs=args.jobs, hosts=hosts
    )
    print(result.to_markdown())
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(result.to_json())
        print(f"wrote {len(result.rows)} result rows to {args.output}", file=sys.stderr)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    from repro.graphs.cliques import clique_table
    from repro.stream import StreamEngine
    from repro.workloads import available_stream_workloads, create_workload

    known = available_stream_workloads()
    if args.family not in known:
        raise SystemExit(
            f"unknown stream family {args.family!r}; available: {', '.join(known)}"
        )
    params = {}
    for item in args.param or []:
        try:
            key, value = item.split("=", 1)
        except ValueError:
            raise SystemExit(f"--param expects KEY=VALUE, got {item!r}")
        params[key] = _parse_param_value(value)
    try:
        workload = create_workload(args.family, **params)
        instance = workload.stream(args.n, seed=args.seed)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid stream spec: {exc}")
    ps = _parse_csv_ints(args.p, "--p")
    config = execution_config_from_args(args)

    engine = StreamEngine(
        instance.base,
        compact_every=args.compact_every,
        workers=config.workers,
        recount_on_compact=args.verify,
    )
    for p in ps:
        engine.track(p, listing=args.verify)
    print(
        f"stream: {args.family} n={args.n} seed={args.seed} "
        f"batches={len(instance.batches)} updates={instance.num_updates}",
        file=sys.stderr,
    )
    for index, batch in enumerate(instance.batches):
        outcome = engine.apply(batch)
        counts = " ".join(f"K{p}={engine.count(p)}" for p in ps)
        flag = " [compacted]" if outcome.compacted else ""
        print(
            f"batch {index:3d}: +{outcome.inserted.shape[0]} "
            f"-{outcome.deleted.shape[0]} edges  m={engine.num_edges}  "
            f"{counts}{flag}"
        )
    if args.verify:
        final = engine.graph()
        for p in ps:
            # Table differential: compare canonical (count, p)
            # matrices, no per-clique python objects built.
            if engine.clique_result(p) != clique_table(final, p):
                truth_count = len(clique_table(final, p))
                raise SystemExit(
                    f"stream verification FAILED at p={p}: engine has "
                    f"{engine.count(p)} cliques, recompute has {truth_count}"
                )
        print("verified: maintained counts/listings match recompute", file=sys.stderr)
    if config.faults is not None:
        # Re-list the final graph through the self-healing clique driver
        # and check it lands on the maintained counts: the stream plane
        # and the fault plane must agree on the same instance.  The
        # whole execution surface rides along — a --topology run prices
        # the healed listing on the overlay too.
        from repro.core.congested_clique_listing import list_cliques_congested_clique

        final = engine.graph()
        for p in ps:
            checked = list_cliques_congested_clique(
                final,
                p,
                params=AlgorithmParameters(p=p, execution=config),
                seed=args.seed,
            )
            if checked.num_cliques != engine.count(p):
                raise SystemExit(
                    f"fault-checked listing DIVERGED at p={p}: "
                    f"{checked.num_cliques} cliques vs maintained "
                    f"{engine.count(p)}"
                )
            print(
                f"fault-check p={p}: healed listing matches maintained "
                f"count ({engine.count(p)}), recovery rounds "
                f"{checked.ledger.recovery_rounds:.1f}",
                file=sys.stderr,
            )
    stats = engine.stats
    print(
        f"final: m={engine.num_edges} "
        + " ".join(f"K{p}={engine.count(p)}" for p in ps)
    )
    print(
        f"engine: {stats['batches']} batches, {stats['updates']} updates "
        f"({stats['inserted']} net inserts, {stats['deleted']} net deletes), "
        f"{stats['compactions']} compactions, "
        f"{stats['recounts']} recount check(s), "
        f"+{stats['cliques_added']}/-{stats['cliques_removed']} cliques"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import CliqueService, create_traffic, run_open_loop
    from repro.workloads import available_stream_workloads, create_workload

    if args.demo:
        # The acceptance harness: zipfian reads (counts, clique sets,
        # per-node learned subgraphs) + churn ingest, every response
        # differentially verified for the epoch it pinned.
        args.family = "stream_churn"
        args.pattern = "zipfian"
        args.verify = True
    known = available_stream_workloads()
    if args.family not in known:
        raise SystemExit(
            f"unknown stream family {args.family!r}; available: {', '.join(known)}"
        )
    config = execution_config_from_args(args)
    try:
        pattern = create_traffic(args.pattern)
        instance = create_workload(args.family).stream(args.n, seed=args.seed)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid serve spec: {exc}")
    ps = _parse_csv_ints(args.p, "--p")
    read_mix = {"count": 0.5, "cliques": 0.35, "learned": 0.15}
    service = CliqueService(
        instance.base,
        ps=ps,
        compact_every=args.compact_every,
        workers=config.workers,
        query_threads=args.query_threads,
        materialize=False,
    )
    print(
        f"serve: {args.family} n={args.n} seed={args.seed} ps={ps} "
        f"pattern={args.pattern} offered={args.rate:.0f} rps "
        f"ingest={len(instance.batches)} batches",
        file=sys.stderr,
    )
    with service:
        report = run_open_loop(
            service,
            pattern,
            requests=args.requests,
            rate=args.rate,
            read_mix=read_mix,
            seed=args.seed,
            ingest=instance.batches,
            verify=args.verify,
        )
    print(report.summary())
    if report.errors:
        print(f"serve: {report.errors} request(s) errored", file=sys.stderr)
        return 1
    if args.verify and report.mismatches:
        print(
            f"serve verification FAILED: {len(report.mismatches)} response(s) "
            f"diverged from their pinned epoch's recompute",
            file=sys.stderr,
        )
        return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed clique listing (Censor-Hillel, Le Gall, Leitersdorf; PODC 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="edge-list file (see repro.graphs.io)")
        p.add_argument(
            "--generator",
            default="er",
            choices=["er", "caveman", "planted", "sparse"],
            help="workload generator when no --input is given",
        )
        p.add_argument("--n", type=int, default=96, help="number of nodes")
        p.add_argument("--density", type=float, default=0.4, help="ER edge probability")
        p.add_argument("--seed", type=int, default=0)

    p_list = sub.add_parser("list", help="run a Kp listing algorithm")
    add_graph_args(p_list)
    p_list.add_argument("--p", type=int, default=4, help="clique size")
    p_list.add_argument(
        "--model", default="congest", choices=["congest", "congested-clique"]
    )
    p_list.add_argument("--variant", choices=["generic", "k4"], default=None)
    p_list.add_argument("--verify", action="store_true", help="check vs ground truth")
    p_list.add_argument("--show-ledger", action="store_true")
    p_list.add_argument("--show-cliques", action="store_true")
    add_execution_args(p_list)
    p_list.set_defaults(func=cmd_list)

    p_dec = sub.add_parser("decompose", help="run the expander decomposition")
    add_graph_args(p_dec)
    p_dec.add_argument("--threshold", type=int, default=8, help="the n^δ degree bound")
    p_dec.add_argument("--phi", type=float, default=None, help="conductance target")
    p_dec.set_defaults(func=cmd_decompose)

    p_bounds = sub.add_parser("bounds", help="print the formula catalogue")
    p_bounds.add_argument("--n", type=int, default=1024)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = sub.add_parser(
        "sweep", help="run a batched workload grid through the sweep runner"
    )
    p_sweep.add_argument(
        "--workloads",
        default="er",
        help="comma-separated workload families (see repro.workloads)",
    )
    p_sweep.add_argument("--n", default="64,96", help="comma-separated sizes")
    p_sweep.add_argument("--p", default="4", help="comma-separated clique sizes")
    p_sweep.add_argument(
        "--variants",
        default="",
        help="comma-separated algorithm variants (generic,k4); empty = paper default",
    )
    p_sweep.add_argument(
        "--model", default="congest", choices=["congest", "congested-clique"]
    )
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--param",
        action="append",
        metavar="FAMILY.KEY=VALUE",
        help="workload parameter override, e.g. --param er.density=0.3 (repeatable)",
    )
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes for uncached runs (0 = auto, 1 = inline)",
    )
    p_sweep.add_argument(
        "--cache-dir",
        default=".sweep_cache",
        help="JSON result cache directory ('' disables caching)",
    )
    p_sweep.add_argument(
        "--no-verify", action="store_true", help="skip ground-truth verification"
    )
    p_sweep.add_argument("--output", help="also write all result rows as JSON here")
    add_execution_args(p_sweep, topology="list")
    p_sweep.set_defaults(func=cmd_sweep)

    p_stream = sub.add_parser(
        "stream", help="replay a dynamic workload through the streaming engine"
    )
    p_stream.add_argument(
        "--family",
        default="stream_churn",
        help="stream workload family (stream_window, stream_growth, stream_churn)",
    )
    p_stream.add_argument("--n", type=int, default=256, help="number of nodes")
    p_stream.add_argument("--seed", type=int, default=0)
    p_stream.add_argument("--p", default="3", help="comma-separated clique sizes")
    p_stream.add_argument(
        "--compact-every",
        type=_positive_int,
        default=256,
        help="fold the delta overlay into a fresh snapshot every K updates",
    )
    p_stream.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="stream family parameter override, e.g. --param churn=48 (repeatable)",
    )
    p_stream.add_argument(
        "--verify",
        action="store_true",
        help=(
            "maintain listings, recount tracked sizes at every "
            "compaction, and check against a final recompute"
        ),
    )
    add_execution_args(p_stream, plane=False)
    p_stream.set_defaults(func=cmd_stream)

    p_serve = sub.add_parser(
        "serve", help="run the always-on query service under open-loop traffic"
    )
    p_serve.add_argument(
        "--demo",
        action="store_true",
        help="preset: zipfian reads + stream_churn ingest, verification on",
    )
    p_serve.add_argument(
        "--family",
        default="stream_churn",
        help="stream workload family providing the base graph and ingest batches",
    )
    p_serve.add_argument("--n", type=int, default=96, help="number of nodes")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--p", default="3", help="comma-separated served clique sizes")
    p_serve.add_argument(
        "--pattern",
        default="zipfian",
        choices=["uniform", "zipfian", "hotspot", "bursty"],
        help="open-loop traffic pattern (repro.serve.traffic)",
    )
    p_serve.add_argument(
        "--requests",
        type=_positive_int,
        default=320,
        help="total read requests to schedule",
    )
    p_serve.add_argument(
        "--rate",
        type=_positive_float,
        default=600.0,
        help="offered load, requests/second",
    )
    p_serve.add_argument(
        "--compact-every",
        type=_positive_int,
        default=64,
        help="engine compaction cadence while ingesting",
    )
    p_serve.add_argument(
        "--query-threads", type=_positive_int, default=4, help="query worker threads"
    )
    p_serve.add_argument(
        "--verify",
        action="store_true",
        help="check every response against the recompute for its pinned epoch",
    )
    add_execution_args(p_serve, plane=False, topology=None, faults=False)
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # Flush here, so a reader that closed early is caught below.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's documented recipe: point stdout at devnull, so the
        # flush at interpreter exit cannot raise again, and exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
