"""Experiment configuration: workload scale, cache hierarchy and defaults."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.cache.config import HierarchyConfig
from repro.fastsim.dispatch import BACKENDS
from repro.graph.datasets import ADVERSARIAL_DATASETS, HIGH_SKEW_DATASETS
from repro.perf.timing import TimingModel

#: The five applications the paper evaluates, in figure order.
PAPER_APPS: Tuple[str, ...] = ("BC", "SSSP", "PR", "PRD", "Radii")

#: Environment variable letting CI/benchmarks shrink every experiment.
SCALE_ENV_VAR = "REPRO_SCALE"


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all experiment drivers.

    Attributes
    ----------
    scale:
        Multiplier applied to every dataset's vertex count (1.0 = the default
        registry sizes from DESIGN.md Sec. 5).
    hierarchy:
        Cache hierarchy to simulate.
    seed:
        Seed controlling dataset generation and root selection.
    reorder:
        Default software reordering applied before hardware experiments
        (the paper uses DBG).
    apps / high_skew_datasets / adversarial_datasets:
        Workload lists; benchmarks override these to subsets.
    timing:
        Latency model used to convert misses into speed-ups.
    backend:
        Simulation backend (``"vector"``, ``"scalar"`` or ``"verify"``)
        handed to :mod:`repro.fastsim`; ``None`` defers to the process-wide
        default (``REPRO_SIM_BACKEND`` or ``vector``).  Backends produce
        identical counts, so this never changes experiment results — only how
        fast they are obtained.
    chunk_accesses:
        Access budget per chunk of the simulation pipeline
        (:mod:`repro.experiments.runner`): the full execution is generated,
        filtered and replayed in chunks of this many accesses, and the fused
        routes feed the ROI's raw trace in slices of it.  ``None`` uses the
        runner's default.  Like the backend, this is a performance/memory
        knob only — results are bit-identical for every budget — so it is
        excluded from *result* memo keys (``policystream`` stats, stream
        summaries); only the full execution's chunk store itself
        (``llcchunk`` entries and their ``llcstream`` manifest) is
        budget-keyed, because chunk boundaries depend on it.
    graph_cache_dir:
        Root of the binary-CSR graph cache used when dataset entries are
        ``repro.graph.load`` file specs (``"file:..."``, ``"mtx:..."``);
        ``None`` defers to ``REPRO_GRAPH_CACHE`` / the default cache root.
        Like the backend, this never changes results — file specs enter memo
        keys through their content digest, not through cache paths.
    """

    scale: float = 1.0
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    seed: int = 42
    reorder: str = "dbg"
    apps: Sequence[str] = PAPER_APPS
    high_skew_datasets: Sequence[str] = HIGH_SKEW_DATASETS
    adversarial_datasets: Sequence[str] = ADVERSARIAL_DATASETS
    timing: TimingModel = field(default_factory=TimingModel)
    merged_properties: bool = True
    backend: Optional[str] = None
    chunk_accesses: Optional[int] = None
    graph_cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS} or None"
            )
        if self.chunk_accesses is not None and self.chunk_accesses <= 0:
            raise ValueError("chunk_accesses must be positive (or None)")

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """Full-scale configuration used to produce EXPERIMENTS.md."""
        return cls()

    @classmethod
    def benchmark(cls) -> "ExperimentConfig":
        """Reduced-scale configuration for pytest-benchmark runs.

        The scale can be overridden with the ``REPRO_SCALE`` environment
        variable; workloads are trimmed to two applications and three
        datasets so each benchmark finishes in seconds while still covering
        both pull- and push-dominant applications.
        """
        scale = float(os.environ.get(SCALE_ENV_VAR, "0.25"))
        return cls(
            scale=scale,
            apps=("PR", "SSSP"),
            high_skew_datasets=("lj", "pl", "kr"),
            adversarial_datasets=("uni",),
        )

    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Very small configuration used by the integration test suite."""
        return cls(
            scale=0.12,
            apps=("PR",),
            high_skew_datasets=("lj", "pl"),
            adversarial_datasets=("uni",),
        )
