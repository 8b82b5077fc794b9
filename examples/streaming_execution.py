#!/usr/bin/env python
"""Replay a *full* multi-iteration execution with bounded memory.

The ROI pipeline (`examples/policy_comparison.py`) traces the busiest
iteration only; this example streams every iteration of the application run
— warmup, push/pull direction switches, frontier evolution — through the
resumable fast-path engines, chunk by chunk, so peak memory stays bounded by
the chunk budget no matter how long the execution is.  Results are
bit-identical to materializing the whole trace, for every chunk budget.
Both pipelines are the same functions: ``streaming=True`` selects the full
execution as the scope instead of the ROI iteration.

Run with:  python examples/streaming_execution.py [app] [dataset]
"""

import sys

from repro.experiments import ExperimentConfig, build_workload
from repro.experiments.reporting import format_table
from repro.experiments.runner import simulate_scheme, stream_summary, workload_cycles

SCHEMES = ("LRU", "RRIP", "SHiP-MEM", "Hawkeye", "Leeway", "PIN-100", "GRASP")


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "PR"
    dataset = sys.argv[2] if len(sys.argv) > 2 else "pl"
    # A small chunk budget to make the streaming visible; production runs use
    # the default (~1M accesses per chunk) or config.chunk_accesses.
    config = ExperimentConfig.default().with_overrides(scale=0.5, chunk_accesses=1 << 16)

    workload = build_workload(app, dataset, reorder="dbg", config=config)
    iterations = workload.app_result.iterations
    directions = "".join(record.direction[0] for record in iterations)
    print(f"Workload: {app} on {dataset} (DBG-reordered), "
          f"{len(iterations)} iterations [{directions}], "
          f"chunk budget = {config.chunk_accesses} accesses")

    summary = stream_summary(workload, config, streaming=True)
    print(f"Full execution: {summary['total_references']} references, "
          f"{summary['l1_hits']} L1 hits / {summary['l2_hits']} L2 hits "
          f"filtered before the LLC, streamed in {summary['chunks']} chunks\n")

    baseline = simulate_scheme(workload, "RRIP", config, streaming=True)
    baseline_cycles = workload_cycles(workload, baseline, config, streaming=True)

    rows = []
    for scheme in SCHEMES:
        stats = simulate_scheme(workload, scheme, config, streaming=True)
        cycles = workload_cycles(workload, stats, config, streaming=True)
        rows.append(
            {
                "scheme": scheme,
                "misses": stats.misses,
                "miss_rate": round(stats.miss_rate, 3),
                "miss_reduction_vs_RRIP_pct": round(
                    (1 - stats.misses / baseline.misses) * 100, 2
                ),
                "speedup_vs_RRIP_pct": round((baseline_cycles / cycles - 1) * 100, 2),
            }
        )
    opt = simulate_scheme(workload, "OPT", config, streaming=True)
    rows.append(
        {
            "scheme": "OPT (offline bound)",
            "misses": opt.misses,
            "miss_rate": round(opt.miss_rate, 3),
            "miss_reduction_vs_RRIP_pct": round(
                (1 - opt.misses / baseline.misses) * 100, 2
            ),
            "speedup_vs_RRIP_pct": "-",
        }
    )
    print(format_table(rows))


if __name__ == "__main__":
    main()
