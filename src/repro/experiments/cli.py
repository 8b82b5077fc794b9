"""``repro`` command line — resumable figure/table sweeps.

::

    repro sweep --apps PR --datasets lj,pl --schemes RRIP,GRASP --preset smoke
    repro sweep --figure fig5                       # a whole paper figure
    repro sweep --apps PR --graph file:web-Google.txt.gz --schemes RRIP,GRASP
    repro sweep --corun PR,PR --datasets lj,pl --schemes RRIP,GRASP \
        --schedule poisson --partition 8:8          # multi-programmed co-run
    repro sweep --resume 20260807-101501-ab12cd34   # finish an interrupted run
    repro plan explain --apps PR --datasets lj --schemes RRIP,GRASP \
        --preset smoke                              # which route would run, and why
    repro runs                                      # list known runs
    repro graph info lj "rmat:scale=12,seed=7"      # describe graph specs
    repro graph ingest crawl.txt.gz                 # build the binary-CSR cache
    repro graph fetch web-google --dest data/       # checksum-verified download

``sweep`` decomposes the comparison into the content-addressed task DAG of
:mod:`repro.experiments.service`, runs it on this host's process pool with
retry and backoff, prints per-task progress and a terminal summary, and
leaves a JSON run manifest under ``<cache-dir>/runs/<run-id>/manifest.json``.
Because results live in the shared on-disk memo store, re-running (or
``--resume``-ing) only executes tasks whose entries are missing, and
concurrent clients deduplicate work.  A task that hangs hangs the sweep:
interrupt it and ``--resume``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.partition import WayPartition
from repro.experiments.config import ExperimentConfig
from repro.experiments.memo import DiskMemo, default_cache_dir
from repro.experiments.queue import RetryPolicy
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    CorunSpec,
    DataPoint,
    compare_policies_corun,
    plan_corun_task,
    plan_pair_tasks,
    set_disk_memo,
)
from repro.experiments.schemes import (
    ABLATION_SCHEMES,
    HISTORY_SCHEMES,
    PINNING_SCHEMES,
    POLICY_SPECS,
    ROBUSTNESS_SCHEMES,
)
from repro.experiments.service import (
    SweepError,
    SweepResult,
    SweepSpec,
    TaskRecord,
    load_manifest,
    resume_sweep,
    run_sweep,
    runs_root,
)
from repro.trace.interleave import SCHEDULES

#: Fallback cache root when neither --cache-dir nor REPRO_CACHE_DIR is set.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Figure presets: (schemes, dataset group).  Apps always come from the config.
FIGURE_PRESETS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "fig5": (HISTORY_SCHEMES, "high_skew"),
    "fig6": (HISTORY_SCHEMES, "high_skew"),
    "fig7": (ABLATION_SCHEMES, "high_skew"),
    "fig8": (PINNING_SCHEMES, "high_skew"),
    "fig9": (ROBUSTNESS_SCHEMES, "adversarial"),
}

CONFIG_PRESETS = {
    "default": ExperimentConfig.default,
    "benchmark": ExperimentConfig.benchmark,
    "smoke": ExperimentConfig.smoke,
}


def _csv(value: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    """Arguments describing *what* to simulate — shared by ``sweep`` (which
    runs the tasks) and ``plan explain`` (which only plans them)."""
    parser.add_argument("--apps", type=_csv, default=None, help="comma-separated app names")
    parser.add_argument("--datasets", type=_csv, default=None, help="comma-separated dataset names")
    parser.add_argument(
        "--graph", action="append", default=None, metavar="SPEC",
        help="add one repro.graph.load spec as a dataset (repeatable; commas "
             'stay inside the spec, e.g. --graph "rmat:scale=18,seed=7" or '
             '--graph file:web-Google.txt.gz)',
    )
    parser.add_argument(
        "--graph-cache", default=None, metavar="DIR",
        help="binary-CSR cache root for file-backed graph specs "
             "(default: REPRO_GRAPH_CACHE or .repro-cache/graphs)",
    )
    parser.add_argument(
        "--schemes", type=_csv, default=None,
        help=f"comma-separated schemes (known: {', '.join(POLICY_SPECS)})",
    )
    parser.add_argument(
        "--figure", choices=sorted(FIGURE_PRESETS), default=None,
        help="sweep a whole paper figure (schemes + dataset group)",
    )
    parser.add_argument(
        "--preset", choices=sorted(CONFIG_PRESETS), default="default",
        help="experiment scale preset (default: full scale)",
    )
    parser.add_argument("--scale", type=float, default=None, help="override dataset scale")
    parser.add_argument("--seed", type=int, default=None, help="override generation seed")
    parser.add_argument("--reorder", default=None, help="software reordering (default: config)")
    parser.add_argument("--baseline", default="RRIP", help="baseline scheme (default: RRIP)")
    parser.add_argument(
        "--corun", type=_csv, default=None, metavar="APPS",
        help="co-run these apps on one shared LLC (comma-separated; pairs with "
             "--datasets: one dataset broadcast to all apps, or one per app)",
    )
    parser.add_argument(
        "--schedule", choices=SCHEDULES, default="round_robin",
        help="co-run interleaving schedule (default: round_robin)",
    )
    parser.add_argument(
        "--quantum", type=int, default=64,
        help="co-run schedule quantum in accesses (default: 64)",
    )
    parser.add_argument(
        "--partition", default=None, metavar="W1:W2[:...]",
        help="static way-partition shares per co-runner, e.g. 8:8 "
             "(default: unpartitioned shared LLC)",
    )
    parser.add_argument(
        "--corun-seed", type=int, default=0,
        help="seed of the poisson co-run schedule (default: 0)",
    )
    parser.add_argument(
        "--streaming", action="store_true",
        help="sweep full executions through the streaming pipeline",
    )
    parser.add_argument(
        "--chunk-accesses", type=int, default=None,
        help="chunk budget of the streaming pipeline",
    )
    parser.add_argument(
        "--sim-backend", choices=("vector", "scalar", "verify"), default=None,
        help="simulation backend (results are identical; default: vector)",
    )
    parser.add_argument("--cache-dir", default=None, help="content-addressed store root")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRASP-reproduction experiment sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep",
        help="run (or resume) a policy-comparison sweep on the task service",
        description="Run a compare_policies sweep as a fault-tolerant task DAG.",
    )
    _add_spec_args(sweep)
    sweep.add_argument("--workers", type=int, default=None, help="worker count (default: REPRO_WORKERS or CPUs)")
    sweep.add_argument(
        "--worker-backend", choices=("process", "inline"), default="process",
        help="task transport (default: process pool)",
    )
    sweep.add_argument("--run-id", default=None, help="explicit run id")
    sweep.add_argument("--resume", metavar="RUN_ID", default=None, help="resume a recorded run")
    sweep.add_argument("--max-attempts", type=int, default=4, help="executions per task before failing")
    sweep.add_argument("--quiet", action="store_true", help="suppress per-task progress lines")
    sweep.set_defaults(func=cmd_sweep)

    runs = sub.add_parser("runs", help="list recorded sweep runs")
    runs.add_argument("--cache-dir", default=None)
    runs.set_defaults(func=cmd_runs)

    plan = sub.add_parser(
        "plan",
        help="inspect execution plans without running anything",
        description="Capability-driven execution planning (repro.fastsim.plan).",
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)
    explain = plan_sub.add_parser(
        "explain",
        help="print the planned route for every task of a sweep spec, and why",
        description="For each (app, dataset, scheme) task of the spec, print "
                    "the ExecutionPlan the runner would follow — route, engine, "
                    "kernel tier, backend and every fallback reason — without "
                    "building workloads or running simulations.  Cache-state "
                    "probes (memoized traces/chunk stores) consult the same "
                    "memo store a sweep would use.",
    )
    _add_spec_args(explain)
    explain.add_argument(
        "--json", action="store_true",
        help="emit one JSON object mapping task keys to serialized plans",
    )
    explain.set_defaults(func=cmd_plan_explain)

    graph = sub.add_parser(
        "graph",
        help="graph acquisition tools (specs, ingestion cache, datasets)",
        description="Inspect graph specs, manage the binary-CSR cache and "
                    "download/verify real-world datasets.",
    )
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)

    info = graph_sub.add_parser("info", help="describe specs and their skew profiles")
    info.add_argument("specs", nargs="+", metavar="SPEC")
    info.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    info.add_argument("--seed", type=int, default=42, help="generation seed")
    info.add_argument("--graph-cache", default=None, help="binary-CSR cache root")
    info.add_argument(
        "--no-load", action="store_true",
        help="only resolve the specs; skip loading and profiling the graphs",
    )
    info.set_defaults(func=cmd_graph_info)

    ingest = graph_sub.add_parser(
        "ingest", help="parse graph files into the binary-CSR cache (out-of-core)"
    )
    ingest.add_argument("files", nargs="+", metavar="FILE")
    ingest.add_argument("--format", choices=("edgelist", "snap", "mtx"), default=None)
    ingest.add_argument("--graph-cache", default=None, help="binary-CSR cache root")
    ingest.set_defaults(func=cmd_graph_ingest)

    fetch = graph_sub.add_parser(
        "fetch", help="download a known dataset (or URL) with checksum verification"
    )
    fetch.add_argument("names", nargs="*", metavar="NAME_OR_URL")
    fetch.add_argument("--dest", default="data", help="download directory (default: data/)")
    fetch.add_argument("--sha256", default=None, help="expected digest (single download)")
    fetch.add_argument("--force", action="store_true", help="re-download even if present")
    fetch.add_argument("--list", action="store_true", help="list known datasets and exit")
    fetch.set_defaults(func=cmd_graph_fetch)

    verify = graph_sub.add_parser(
        "verify", help="verify downloaded files against the CHECKSUMS.sha256 lockfile"
    )
    verify.add_argument("--dest", default="data", help="directory holding the lockfile")
    verify.set_defaults(func=cmd_graph_verify)
    return parser


def _resolve_cache_dir(value: Optional[str]) -> Path:
    if value:
        return Path(value)
    env = default_cache_dir()
    return env if env is not None else Path(DEFAULT_CACHE_DIR)


def _spec_from_args(args: argparse.Namespace, config: ExperimentConfig) -> SweepSpec:
    apps = args.apps
    datasets = tuple(args.datasets or ()) + tuple(args.graph or ()) or None
    schemes = args.schemes
    if args.figure is not None:
        figure_schemes, group = FIGURE_PRESETS[args.figure]
        schemes = schemes or figure_schemes
        datasets = datasets or tuple(
            config.adversarial_datasets if group == "adversarial" else config.high_skew_datasets
        )
        apps = apps or tuple(config.apps)
    if not (apps and datasets and schemes):
        raise SystemExit(
            "repro sweep: need --apps/--datasets (or --graph)/--schemes "
            "(or --figure to fill them in)"
        )
    return SweepSpec(
        apps=tuple(apps),
        datasets=tuple(datasets),
        schemes=tuple(schemes),
        reorder=args.reorder,
        baseline=args.baseline,
        streaming=args.streaming,
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = CONFIG_PRESETS[args.preset]()
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.sim_backend is not None:
        overrides["backend"] = args.sim_backend
    if args.chunk_accesses is not None:
        overrides["chunk_accesses"] = args.chunk_accesses
    if getattr(args, "graph_cache", None) is not None:
        overrides["graph_cache_dir"] = args.graph_cache
    return config.with_overrides(**overrides) if overrides else config


class _Progress:
    """Per-task progress lines and a live completion counter."""

    def __init__(self, quiet: bool, out) -> None:
        self.quiet = quiet
        self.out = out
        self.total = 0
        self.finished = 0

    def __call__(self, phase: str, record: TaskRecord) -> None:
        if phase in ("done", "cached", "failed"):
            self.finished += 1
        if self.quiet:
            return
        width = len(str(self.total))
        prefix = f"[{min(self.finished, self.total):>{width}}/{self.total}]"
        label = record.task.label or record.task.task_id[:12]
        if phase == "dispatch":
            if record.attempts > 1:
                print(f"{prefix} retry    {label} (attempt {record.attempts})", file=self.out)
        elif phase == "done":
            print(f"{prefix} done     {label}", file=self.out)
        elif phase == "cached":
            print(f"{prefix} cached   {label}", file=self.out)
        elif phase == "retry":
            print(f"{prefix} fault    {label}: {record.error}", file=self.out)
        elif phase == "failed":
            print(f"{prefix} FAILED   {label}: {record.error}", file=self.out)


def _points_rows(points: Sequence[DataPoint]) -> List[Dict[str, object]]:
    return [
        {
            "app": point.app_name,
            "dataset": point.dataset_name,
            "scheme": point.scheme,
            "misses": point.stats.misses,
            "miss_red_%": point.miss_reduction_pct,
            "speedup_%": point.speedup_pct,
        }
        for point in points
    ]


def _print_summary(result: SweepResult, out) -> None:
    report = result.report
    print(
        f"\nrun {result.run_id}: {report.executed} executed, {report.cached} cached, "
        f"{report.retries} retries ({report.worker_deaths} worker deaths, "
        f"{report.task_errors} task errors)",
        file=out,
    )
    print(f"manifest: {result.manifest}", file=out)
    print(file=out)
    print(format_table(_points_rows(result.points), title="DataPoints"), file=out)


def _corun_spec_from_args(args: argparse.Namespace) -> CorunSpec:
    apps = tuple(args.corun)
    datasets = tuple(args.datasets or ()) + tuple(args.graph or ())
    if not datasets or not args.schemes:
        raise SystemExit("repro sweep --corun: need --datasets (or --graph) and --schemes")
    if len(datasets) == 1:
        datasets = datasets * len(apps)
    if len(datasets) != len(apps):
        raise SystemExit(
            f"repro sweep --corun: {len(apps)} app(s) but {len(datasets)} dataset(s) "
            "(give one dataset to broadcast, or exactly one per app)"
        )
    partition = WayPartition.parse(args.partition) if args.partition else None
    if partition is not None and partition.num_streams != len(apps):
        raise SystemExit(
            f"repro sweep --corun: partition {partition} names "
            f"{partition.num_streams} share(s) for {len(apps)} app(s)"
        )
    return CorunSpec(
        pairs=tuple(zip(apps, datasets)),
        schedule=args.schedule,
        quantum=args.quantum,
        seed=args.corun_seed,
        partition=partition,
    )


def _cmd_corun(args: argparse.Namespace, cache_dir: Path) -> int:
    """Serial co-run comparison: one shared LLC, per-stream DataPoints."""
    config = _config_from_args(args)
    spec = _corun_spec_from_args(args)
    set_disk_memo(DiskMemo(cache_dir))
    workloads = " + ".join(f"{app}/{dataset}" for app, dataset in spec.pairs)
    partition = f"partition {spec.partition}" if spec.partition else "shared (no partition)"
    print(
        f"corun: {workloads} [{spec.schedule}, quantum {spec.quantum}, {partition}] "
        f"x {len(args.schemes)} scheme(s)"
    )
    points = compare_policies_corun(
        spec,
        args.schemes,
        config=config,
        reorder=args.reorder,
        baseline=args.baseline,
    )
    print(format_table(_points_rows(points), title="DataPoints"))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cache_dir = _resolve_cache_dir(args.cache_dir)
    if args.corun:
        return _cmd_corun(args, cache_dir)
    progress = _Progress(args.quiet, sys.stdout)
    retry = RetryPolicy(max_attempts=args.max_attempts)
    try:
        if args.resume:
            try:
                stored = load_manifest(cache_dir, args.resume)
            except FileNotFoundError:
                print(f"error: no run {args.resume!r} under {runs_root(cache_dir)}",
                      file=sys.stderr)
                return 1
            progress.total = len(stored.get("tasks", []))
            print(f"resume {args.resume}: {progress.total} tasks ({args.worker_backend} backend)")
            result = resume_sweep(
                args.resume,
                cache_dir=cache_dir,
                workers=args.workers,
                worker_backend=args.worker_backend,
                retry=retry,
                on_event=progress,
            )
        else:
            config = _config_from_args(args)
            spec = _spec_from_args(args, config)
            pairs = len(spec.apps) * len(spec.datasets)
            progress.total = pairs * (2 + len(spec.all_schemes()))
            print(
                f"sweep: {len(spec.apps)} app(s) x {len(spec.datasets)} dataset(s) x "
                f"{len(spec.schemes)} scheme(s) -> {progress.total} tasks "
                f"({args.worker_backend} backend)",
            )
            result = run_sweep(
                spec,
                config=config,
                cache_dir=cache_dir,
                workers=args.workers,
                worker_backend=args.worker_backend,
                run_id=args.run_id,
                retry=retry,
                on_event=progress,
            )
    except SweepError as error:
        print(f"\nerror: {error}", file=sys.stderr)
        for task_id in error.failed:
            print(f"  failed task: {task_id}", file=sys.stderr)
        return 1
    _print_summary(result, sys.stdout)
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    cache_dir = _resolve_cache_dir(args.cache_dir)
    root = runs_root(cache_dir)
    rows = []
    if root.is_dir():
        for run_dir in sorted(root.iterdir()):
            try:
                manifest = load_manifest(cache_dir, run_dir.name)
            except (OSError, json.JSONDecodeError, FileNotFoundError):
                continue
            spec = manifest.get("spec", {})
            rows.append(
                {
                    "run_id": manifest.get("run_id", run_dir.name),
                    "status": manifest.get("status", "?"),
                    "updated": manifest.get("updated_at", "?"),
                    "tasks": len(manifest.get("tasks", [])),
                    "sweep": f"{len(spec.get('apps', []))}x{len(spec.get('datasets', []))}"
                             f"x{len(spec.get('schemes', []))}",
                }
            )
    print(format_table(rows, title=f"runs under {root}"))
    return 0


def cmd_plan_explain(args: argparse.Namespace) -> int:
    """Print the ExecutionPlan for every task of the spec without running it."""
    config = _config_from_args(args)
    set_disk_memo(DiskMemo(_resolve_cache_dir(args.cache_dir)))
    plans: Dict[str, object] = {}
    status = 0
    if args.corun:
        spec = _corun_spec_from_args(args)
        label = "+".join(f"{app}/{dataset}" for app, dataset in spec.pairs)
        for scheme in args.schemes:
            try:
                plans[f"corun:{label}/{scheme}"] = plan_corun_task(
                    spec, scheme, config, args.reorder
                )
            except ValueError as error:
                print(f"error: corun {scheme}: {error}", file=sys.stderr)
                status = 1
    else:
        spec = _spec_from_args(args, config)
        reorder = spec.resolved_reorder(config)
        for dataset in spec.datasets:
            for app in spec.apps:
                pair = plan_pair_tasks(
                    app, dataset, reorder, spec.all_schemes(), config,
                    streaming=spec.streaming,
                )
                for scheme, plan in pair.items():
                    plans[f"{app}/{dataset}/{scheme}"] = plan
    if args.json:
        print(json.dumps({key: plan.to_json() for key, plan in plans.items()},
                         indent=2, sort_keys=True))
        return status
    for key, plan in plans.items():
        print(f"== {key} ==")
        for line in plan.explain().splitlines():
            print(f"  {line}")
    return status


def cmd_graph_info(args: argparse.Namespace) -> int:
    from repro.graph.csr import GraphError
    from repro.graph.properties import skew_report
    from repro.graph.source import describe_spec, load

    rows: List[Dict[str, object]] = []
    status = 0
    for spec in args.specs:
        try:
            info = describe_spec(spec)
        except GraphError as error:
            print(f"error: {error}", file=sys.stderr)
            status = 1
            continue
        row: Dict[str, object] = {
            "spec": info["spec"],
            "head": info["head"],
            "canonical": info.get("canonical", info.get("canonical_error", "?")),
        }
        if not args.no_load:
            try:
                graph = load(
                    spec, scale=args.scale, seed=args.seed,
                    cache_root=args.graph_cache,
                )
            except GraphError as error:
                print(f"error loading {spec!r}: {error}", file=sys.stderr)
                status = 1
                rows.append(row)
                continue
            report = skew_report(graph, extended=True).as_dict()
            report.pop("dataset", None)
            row["mmap"] = graph.is_mmap
            row.update(report)
        rows.append(row)
    if rows:
        print(format_table(rows, title="graph specs"))
    return status


def cmd_graph_ingest(args: argparse.Namespace) -> int:
    from repro.graph.csr import GraphError
    from repro.graph.ingest import ingest_graph

    status = 0
    for filename in args.files:
        try:
            graph = ingest_graph(
                filename, fmt=args.format, mmap=True, cache_root=args.graph_cache,
            )
        except GraphError as error:
            print(f"error: {error}", file=sys.stderr)
            status = 1
            continue
        print(
            f"{filename}: {graph.num_vertices} vertices, {graph.num_edges} edges"
            f"{' (weighted)' if graph.is_weighted else ''} -> {graph.backing_dir}"
        )
    return status


def cmd_graph_fetch(args: argparse.Namespace) -> int:
    from repro.graph.csr import GraphError
    from repro.graph.ingest import KNOWN_DATASETS, fetch_dataset

    if args.list or not args.names:
        rows = [
            {"name": d.name, "description": d.description, "url": d.url}
            for d in KNOWN_DATASETS.values()
        ]
        print(format_table(rows, title="known datasets"))
        return 0
    if args.sha256 and len(args.names) > 1:
        print("error: --sha256 applies to a single download", file=sys.stderr)
        return 1
    status = 0
    for name in args.names:
        try:
            dest = fetch_dataset(
                name, args.dest, sha256=args.sha256, force=args.force,
            )
        except GraphError as error:
            print(f"error: {error}", file=sys.stderr)
            status = 1
            continue
        print(f"{name}: {dest}")
    return status


def cmd_graph_verify(args: argparse.Namespace) -> int:
    from repro.graph.csr import GraphError
    from repro.graph.ingest import load_checksums, verify_file

    directory = Path(args.dest)
    checksums = load_checksums(directory)
    if not checksums:
        print(f"error: no checksum lockfile under {directory}", file=sys.stderr)
        return 1
    status = 0
    for filename, digest in sorted(checksums.items()):
        target = directory / filename
        if not target.exists():
            print(f"MISSING  {filename}")
            status = 1
            continue
        try:
            verify_file(target, digest)
        except GraphError as error:
            print(f"FAILED   {filename}: {error}")
            status = 1
            continue
        print(f"ok       {filename}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
