"""Representative-interval sampling (SimPoint-style) for sweeps.

Instead of simulating every access of a trace, ``repro.sampling``
profiles fixed-size windows into BBV-like feature vectors
(:mod:`~repro.sampling.features`), clusters them with a deterministic
seeded k-means (:mod:`~repro.sampling.kmeans`), selects one weighted
representative interval per cluster (:mod:`~repro.sampling.plan`), and
simulates only those intervals — each preceded by warm-state synthesis
and a short simulated warm-up — before recombining the per-interval
results into a full-run estimate (:mod:`~repro.sampling.executor`).

Accuracy is not assumed: :mod:`~repro.sampling.validate` measures
sampled-vs-full error per suite and the committed budget in
``BENCH_sampling.json`` is gated in CI (see docs/sampling.md).
"""

from .executor import (
    compute_boundary_checkpoints,
    recombine,
    simulate_sampled,
    synthesize_from_checkpoint,
    synthesize_warm_state,
)
from .features import pc_bucket_histogram, window_features
from .kmeans import KMeansResult, kmeans
from .plan import Interval, SamplingPlan, build_plan
from .spec import SYNTHESIS_STRATEGIES, SamplingSpec
from .validate import (
    DEFAULT_SUITES,
    PREFERRED_SYNTHESIS,
    VALIDATED_POLICIES,
    ValidationCell,
    ValidationReport,
    run_validation,
)

__all__ = [
    "DEFAULT_SUITES",
    "PREFERRED_SYNTHESIS",
    "SYNTHESIS_STRATEGIES",
    "VALIDATED_POLICIES",
    "Interval",
    "KMeansResult",
    "SamplingPlan",
    "SamplingSpec",
    "ValidationCell",
    "ValidationReport",
    "build_plan",
    "compute_boundary_checkpoints",
    "kmeans",
    "pc_bucket_histogram",
    "recombine",
    "run_validation",
    "simulate_sampled",
    "synthesize_from_checkpoint",
    "synthesize_warm_state",
    "window_features",
]
