#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation section.

Produces a Markdown report (printed to stdout, optionally written to a file)
containing the reproduction's numbers for Tables I, IV and VII and Figs. 2,
5, 6, 7, 8, 9, 10a, 10b and 11.  EXPERIMENTS.md is produced by this script.

Usage:
    python examples/full_evaluation.py [--scale S] [--output FILE] [--quick]
                                       [--workers N] [--cache-dir DIR]

``--quick`` trims the workload matrix (three datasets, three applications)
so the whole report finishes in a few minutes; the default runs the full
5-application x 5-dataset matrix of the paper.  ``--workers`` prewarms the
figure drivers by running the main policy comparison as a sweep
(:func:`repro.experiments.run_sweep`) over N worker processes, and
``--cache-dir`` persists workloads/traces/results on disk so repeated runs
(and the individual benchmarks) reuse them; the sweep's run manifest lands
under ``DIR/runs/``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import ExperimentConfig
from repro.experiments.figures import (
    fig2_llc_breakdown,
    fig5_miss_reduction,
    fig7_ablation,
    fig8_pinning,
    fig9_low_skew,
    fig10a_reordering_speedup,
    fig10b_grasp_over_reorderings,
    fig11_vs_opt,
    summarize_fig11,
)
from repro.experiments.reporting import format_table, pivot_by_scheme
from repro.experiments.runner import average_miss_reduction, geometric_mean_speedup
from repro.experiments.tables import table1_skew, table4_merging, table7_llc_sweep


def section(lines, title):
    lines.append(f"\n## {title}\n")


def code_block(lines, text):
    lines.append("```")
    lines.append(text)
    lines.append("```")


def scheme_summary(points, metric, aggregate):
    schemes = sorted({p.scheme for p in points})
    return {scheme: round(aggregate([p for p in points if p.scheme == scheme]), 2) for scheme in schemes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    parser.add_argument("--output", type=str, default=None, help="write the report to this file")
    parser.add_argument("--quick", action="store_true", help="use a reduced workload matrix")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="prewarm the policy comparison across N processes (default: serial)",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None,
        help="persist workloads/traces/results under this directory",
    )
    args = parser.parse_args()

    config = ExperimentConfig.default().with_overrides(scale=args.scale)
    if args.quick:
        config = config.with_overrides(
            apps=("PR", "SSSP", "Radii"),
            high_skew_datasets=("lj", "pl", "kr"),
        )
    reorder_config = config.with_overrides(
        apps=config.apps[: 3 if not args.quick else 2],
        high_skew_datasets=config.high_skew_datasets[: 3 if not args.quick else 2],
    )

    if args.cache_dir or (args.workers or 0) > 1:
        # Sweep the heaviest comparison (Figs. 5/6) across processes and/or
        # into a persistent cache; the figure drivers below then reuse every
        # workload, filtered trace and policy run from the memo.  Worker
        # results only reach this process through the disk memo, so a
        # parallel prewarm without --cache-dir still needs a (throwaway)
        # store for the drivers to read.
        import atexit
        import shutil
        import tempfile

        from repro.experiments import SweepSpec, run_sweep
        from repro.experiments.schemes import HISTORY_SCHEMES

        cache_dir = args.cache_dir
        if cache_dir is None:
            cache_dir = tempfile.mkdtemp(prefix="grasp-memo-")
            atexit.register(shutil.rmtree, cache_dir, ignore_errors=True)
        workers = args.workers or 1
        run_sweep(
            SweepSpec(
                apps=config.apps,
                datasets=config.high_skew_datasets,
                schemes=tuple(HISTORY_SCHEMES),
            ),
            config,
            cache_dir=cache_dir,
            workers=workers,
            worker_backend="process" if workers > 1 else "inline",
        )

    started = time.time()
    lines: list[str] = []
    lines.append("# Reproduction results")
    lines.append("")
    lines.append(
        f"Configuration: scale={config.scale}, LLC={config.hierarchy.llc.size_bytes // 1024} KiB "
        f"({config.hierarchy.llc.ways}-way), apps={list(config.apps)}, "
        f"high-skew datasets={list(config.high_skew_datasets)}, reordering={config.reorder}."
    )

    section(lines, "Table I — dataset skew")
    code_block(lines, format_table(table1_skew(config)))

    section(lines, "Fig. 2 — LLC access/miss breakdown (original ordering, RRIP)")
    code_block(lines, format_table(fig2_llc_breakdown(config, datasets=("pl", "tw") if not args.quick else ("pl",))))

    section(lines, "Table IV — Property-Array merging speed-up (identity ordering, RRIP)")
    code_block(lines, format_table(table4_merging(config)))

    section(lines, "Figs. 5 & 6 — prior schemes vs GRASP over RRIP (DBG reordering)")
    points = fig5_miss_reduction(config)
    code_block(lines, format_table(pivot_by_scheme(points, "miss_reduction_pct"), title="Miss reduction (%)"))
    code_block(lines, format_table(pivot_by_scheme(points, "speedup_pct"), title="Speed-up (%)"))
    lines.append(f"Average miss reduction: {scheme_summary(points, 'miss', average_miss_reduction)}")
    lines.append(f"Geometric-mean speed-up: {scheme_summary(points, 'speedup', geometric_mean_speedup)}")

    section(lines, "Fig. 7 — GRASP feature ablation (speed-up % over RRIP)")
    ablation = fig7_ablation(config)
    code_block(lines, format_table(pivot_by_scheme(ablation, "speedup_pct")))
    lines.append(f"Geometric-mean speed-up: {scheme_summary(ablation, 'speedup', geometric_mean_speedup)}")

    section(lines, "Fig. 8 — pinning vs GRASP on high-skew datasets (speed-up % over RRIP)")
    pinning = fig8_pinning(config)
    code_block(lines, format_table(pivot_by_scheme(pinning, "speedup_pct")))
    lines.append(f"Geometric-mean speed-up: {scheme_summary(pinning, 'speedup', geometric_mean_speedup)}")

    section(lines, "Fig. 9 — robustness on low-/no-skew datasets (speed-up % over RRIP)")
    robustness = fig9_low_skew(config)
    code_block(lines, format_table(pivot_by_scheme(robustness, "speedup_pct")))
    lines.append(f"Geometric-mean speed-up: {scheme_summary(robustness, 'speedup', geometric_mean_speedup)}")

    section(lines, "Fig. 10a — net speed-up of reordering techniques (cost included, %)")
    code_block(lines, format_table(fig10a_reordering_speedup(reorder_config)))

    section(lines, "Fig. 10b — GRASP speed-up over RRIP on top of each reordering (%)")
    code_block(lines, format_table(fig10b_grasp_over_reorderings(reorder_config)))

    section(lines, "Fig. 11 — misses eliminated over LRU (%)")
    fig11 = fig11_vs_opt(config)
    code_block(lines, format_table(fig11))
    lines.append(f"Summary: {summarize_fig11(fig11)}")

    section(lines, "Table VII — misses eliminated over LRU vs LLC size (%)")
    code_block(lines, format_table(table7_llc_sweep(config)))

    lines.append("")
    lines.append(f"_Report generated in {time.time() - started:.0f} s._")

    report = "\n".join(lines)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
