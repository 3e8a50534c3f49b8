"""Benchmark of the clique-listing drivers, the pool executor and serve.

Run from the repository root::

    python3 perfbench/run.py --workload cc_er1500_p3 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones (and writes the spans as JSON lines
under ``.perfbench_out/``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the run context (host, versions,
seed, sample counts, every op's raw and kernel milliseconds).

``--steadiness N`` instead repeats the workload (or ``all``) in N fresh
processes with seeds ``seed .. seed+N-1`` and prints, per end-to-end
metric, the median and IQR/median of the reported (normalized) values
beside those of the raw ones.

End-to-end metrics, with what each means on the drivers (the three
``list_cliques`` workloads) and on serve:

``setup_s``
    Set-up, host-normalized, median of fresh set-ups.  Drivers: build
    the ``Graph`` and run the first cold op (pool2 respawns its pool
    first).  Serve: build the ``Graph`` and construct ``CliqueService``,
    including its baseline K3 listing.
``latency_p50_ms``
    Median latency of one request.  Drivers: a warm ``list_cliques``
    call, host-normalized.  Serve: an open-loop read, completion minus
    scheduled arrival, raw.
``ingest_p50_ms``
    Median time for ``repro`` to take in input, host-normalized.
    Drivers: one CSR snapshot of the graph (``CSRGraph.from_graph``,
    what ``Graph.to_csr`` builds), the form every listing run reads its
    input in, sampled after every warm op; timing the pure-Python
    ``Graph`` build as well moved this median by 15-40% between
    processes.  Serve: one ``CliqueService.ingest`` batch (apply plus
    epoch publish).
``rounds``
    Charged rounds of a listing run (the simulated time of the
    modelled algorithm).  Drivers: mean over the partition-seed cycle.
    Serve: the final epoch's Theorem 1.3 run that learned reads use.
``peak_rss_mb``
    Peak RSS of the benchmark process (pool2 adds its largest worker).

Every workload prints every metric, so each is defined on all four.
Serve's read p99 has no driver counterpart (a driver run has tens of
ops, not the thousand a p99 needs), so it is the per-layer
``serve.read_ms_p99``.  Per-layer self times are means per op (a driver
call, a serve read or a serve ingest, whichever ran the layer); driver
counters are per op, serve counters are window totals.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"

DRIVERS = ("cc_er1500_p3", "cc_er1500_p3_pool2", "congest_er160_p4")
SERVE = ("serve_churn_n600",)
WORKLOADS = DRIVERS + SERVE
#: Normalized end-to-end metric -> the context entry holding its raw twin.
RAW_TWINS = {"setup_s": "setup", "latency_p50_ms": "op", "ingest_p50_ms": "ingest"}
CHILD_TIMEOUT_S = 900


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {package}")
    return repro


def load_spec() -> dict:
    if not SPEC.is_file():
        raise SystemExit(f"error: {SPEC} not found")
    return json.loads(SPEC.read_text())


def run_one(args) -> int:
    spec = load_spec()
    import_repro()
    from measure import run_context

    if args.workload in DRIVERS:
        import drivers as module
    else:
        import serving as module
    trace = bool(args.trace)
    out = module.run(args.workload, args.seed, args.seconds, trace)

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics, missing = {}, []
    for metric in wanted:
        value = out["metrics"].get(metric["name"])
        if value is None and trace:
            value = 0.0  # the layer did no work on this workload
        if value is None or not math.isfinite(value):
            missing.append(metric["name"])
            continue
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    context = {
        **run_context(args.workload, args.seed, args.seconds, trace),
        "attempted": out["attempted"],
        "failed": out["failed"],
        **out["context"],
    }
    print("context " + json.dumps(context, default=float))
    for failure in out["failures"][:10]:
        print(f"FAILED: {failure}")
    if missing:
        print(f"FAILED: no value for {', '.join(missing)}")
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        out["tracer"].write_jsonl(path, extra={"context": context})
        print(f"spans written to {path.relative_to(ROOT)}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    correct = out["failed"] == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"] + (1 if missing else 0),
        "metrics": metrics,
    }))
    return 0


def child(workload: str, seed: int, seconds: float):
    """One fresh process; returns (result, context) or raises."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    context = json.loads(next(x for x in lines if x.startswith("context "))[8:])
    return json.loads(lines[-1]), context


def steadiness(args) -> int:
    """Repeat workloads in fresh processes and report the spread."""
    from measure import spread

    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    report = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        raw = {name: [] for name in RAW_TWINS}
        kernel = []
        failed = 0
        for seed in range(args.seed, args.seed + args.steadiness):
            result, context = child(workload, seed, args.seconds)
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            for name, key in RAW_TWINS.items():
                if context.get(key):
                    raw[name].append(context[key]["raw_ms_p50"])
            kernel.append(context["setup"]["kernel_ms_p50"])
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}: " + ", ".join(
                      f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()
                  ), flush=True)
        rows = {}
        for name, series in values.items():
            row = {"median": statistics.median(series), "spread": spread(series),
                   "bound": bounds[name]}
            if raw.get(name):
                row["raw_median_ms"] = statistics.median(raw[name])
                row["raw_spread"] = spread(raw[name])
            rows[name] = row
        report[workload] = {"runs": args.steadiness, "failed": failed,
                            "kernel_ms_spread": spread(kernel), "metrics": rows}
        print(f"\n{workload}: {args.steadiness} runs, {failed} failed, "
              f"kernel spread {spread(kernel):.3f}")
        print(f"  {'metric':<16} {'median':>10} {'IQR/med':>8} {'bound':>6} "
              f"{'raw IQR/med':>11}  verdict")
        for name, row in rows.items():
            share = row["spread"] / row["bound"]
            verdict = "steady" if share < 1 / 3 else ("within" if share <= 1 else "WIDE")
            raw_spread = f"{row['raw_spread']:.3f}" if "raw_spread" in row else "-"
            print(f"  {name:<16} {row['median']:>10.4g} {row['spread']:>8.3f} "
                  f"{row['bound']:>6.2f} {raw_spread:>11}  {verdict}")
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="repeat in N fresh processes and report the spread")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    if args.workload == "all":
        parser.error("--workload all needs --steadiness")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
