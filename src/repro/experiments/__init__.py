"""Experiment drivers regenerating every table and figure of the paper.

Each public function corresponds to one artifact of the evaluation section
(see DESIGN.md's experiment index).  All of them accept a
:class:`~repro.experiments.config.ExperimentConfig` so benchmarks can run the
same experiments at a reduced scale.

==============================  =====================================
Paper artifact                  Function
==============================  =====================================
Table I  (dataset skew)         :func:`repro.experiments.tables.table1_skew`
Fig. 2   (LLC breakdown)        :func:`repro.experiments.figures.fig2_llc_breakdown`
Table IV (array merging)        :func:`repro.experiments.tables.table4_merging`
Fig. 5   (miss reduction)       :func:`repro.experiments.figures.fig5_miss_reduction`
Fig. 6   (speed-up)             :func:`repro.experiments.figures.fig6_speedup`
Fig. 7   (GRASP ablation)       :func:`repro.experiments.figures.fig7_ablation`
Fig. 8   (pinning, high skew)   :func:`repro.experiments.figures.fig8_pinning`
Fig. 9   (low/no skew)          :func:`repro.experiments.figures.fig9_low_skew`
Fig. 10a (reordering cost)      :func:`repro.experiments.figures.fig10a_reordering_speedup`
Fig. 10b (GRASP x reordering)   :func:`repro.experiments.figures.fig10b_grasp_over_reorderings`
Fig. 11  (vs OPT)               :func:`repro.experiments.figures.fig11_vs_opt`
Table VII (LLC size sweep)      :func:`repro.experiments.tables.table7_llc_sweep`
==============================  =====================================
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.memo import DiskMemo
from repro.experiments.queue import FailureEvent, RetryPolicy
from repro.experiments.runner import (
    CorunSpec,
    DataPoint,
    Workload,
    build_workload,
    clear_caches,
    compare_policies,
    compare_policies_corun,
    execution_trace,
    filter_trace,
    iter_execution_chunks,
    set_disk_memo,
    simulate_llc_policy,
    simulate_corun,
    simulate_opt,
    simulate_policy,
    simulate_scheme,
)
from repro.experiments.schemes import POLICY_SPECS, scheme_policy
from repro.experiments.service import (
    SweepError,
    SweepResult,
    SweepSpec,
    resume_sweep,
    run_sweep,
)

__all__ = [
    "CorunSpec",
    "DataPoint",
    "DiskMemo",
    "ExperimentConfig",
    "FailureEvent",
    "POLICY_SPECS",
    "RetryPolicy",
    "SweepError",
    "SweepResult",
    "SweepSpec",
    "Workload",
    "build_workload",
    "clear_caches",
    "compare_policies",
    "compare_policies_corun",
    "execution_trace",
    "filter_trace",
    "iter_execution_chunks",
    "resume_sweep",
    "run_sweep",
    "scheme_policy",
    "set_disk_memo",
    "simulate_llc_policy",
    "simulate_opt",
    "simulate_policy",
    "simulate_scheme",
    "simulate_corun",
]
