"""Run matrices: (workload x policy) sweeps with result aggregation.

The benchmarks and examples all funnel through :class:`RunMatrix`: give
it traces and policy names, it simulates every cell through the sweep
engine (:mod:`repro.harness.engine`) — parallel across ``jobs`` worker
processes and backed by a content-addressed on-disk result cache when
one is configured — and exposes the aggregations the paper reports:
per-cell IPC/MPKI, per-workload speed-ups over a baseline, and
per-suite geometric means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..analysis.stats import geometric_mean
from ..core.config import MachineConfig
from ..core.results import SimulationResult
from ..core.simulator import DEFAULT_WARMUP_FRACTION
from ..errors import SimulationError
from ..policies.registry import BASELINE_POLICY
from ..resilience.report import FailureReport
from ..trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only (engine imports us)
    from pathlib import Path

    from ..resilience.durability import ShutdownCoordinator
    from ..resilience.policy import RetryPolicy
    from ..sampling.spec import SamplingSpec
    from ..telemetry.collector import TelemetryConfig
    from .engine import SweepEngine, SweepStats


@dataclass
class RunMatrix:
    """Results of a (workload x policy) sweep.

    ``results[workload][policy]`` holds the simulation result of that
    cell; workloads and policies keep insertion order for stable output.
    """

    config: MachineConfig
    results: dict[str, dict[str, SimulationResult]] = field(default_factory=dict)
    #: Filled by the sweep engine: how many cells were cache hits vs
    #: simulated (None when the matrix was assembled by hand).
    sweep_stats: "SweepStats | None" = None
    #: Filled by the sweep engine: every cell failure the sweep met
    #: (empty for a matrix assembled by hand).
    failure_report: FailureReport = field(default_factory=FailureReport)
    #: Filled by the sweep engine when a run journal was armed: the
    #: journalled run id (``repro sweep --resume <run_id>``) and the
    #: journal file itself (None when journalling was off).
    run_id: "str | None" = None
    journal_path: "Path | None" = None

    @property
    def workloads(self) -> list[str]:
        """Workload names in run order."""
        return list(self.results)

    @property
    def policies(self) -> list[str]:
        """Policy names in run order (from the first workload)."""
        if not self.results:
            return []
        return list(next(iter(self.results.values())))

    def get(self, workload: str, policy: str) -> SimulationResult:
        """The result of one cell; raises with context if missing."""
        try:
            return self.results[workload][policy]
        except KeyError as exc:
            raise SimulationError(
                f"no result for workload={workload!r} policy={policy!r}"
            ) from exc

    def speedup(self, workload: str, policy: str, baseline: str = BASELINE_POLICY) -> float:
        """IPC of (workload, policy) relative to the baseline policy."""
        return self.get(workload, policy).speedup_over(self.get(workload, baseline))

    def speedups(self, policy: str, baseline: str = BASELINE_POLICY) -> dict[str, float]:
        """Per-workload speed-ups of one policy."""
        return {
            w: self.speedup(w, policy, baseline) for w in self.workloads
        }

    def geomean_speedup(self, policy: str, baseline: str = BASELINE_POLICY) -> float:
        """The paper's suite aggregate: geomean of per-workload speed-ups."""
        return geometric_mean(self.speedups(policy, baseline).values())

    def mpki_table(self, level: str = "LLC") -> dict[str, dict[str, float]]:
        """MPKI of every cell at one cache level."""
        return {
            w: {p: self.results[w][p].mpki(level) for p in self.results[w]}
            for w in self.workloads
        }


def run_matrix(
    traces: dict[str, Trace] | list[Trace],
    policies: list[str],
    config: MachineConfig | None = None,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    progress: Callable[[str, str], None] | None = None,
    sanitize: bool = False,
    jobs: int | None = None,
    engine: "SweepEngine | None" = None,
    telemetry: "TelemetryConfig | None" = None,
    retry: "RetryPolicy | None" = None,
    cell_engine: str = "fast",
    sampling: "SamplingSpec | None" = None,
    memory_budget_mb: float | None = None,
    shutdown: "ShutdownCoordinator | None" = None,
    drain_timeout: float = 30.0,
    journal_context: dict | None = None,
    failure_report_path: "str | Path | None" = None,
) -> RunMatrix:
    """Simulate every (trace, policy) pair through the sweep engine.

    Cells run in parallel across ``jobs`` worker processes (default: the
    ``REPRO_JOBS`` environment variable, else serial) and are served
    from the engine's content-addressed result cache when one is
    configured (``REPRO_CACHE_DIR`` or an explicit ``engine``) — a
    repeated sweep re-simulates nothing. ``progress`` (if given) is
    called with (workload, policy) as each cell is dispatched —
    benchmarks use it to narrate long sweeps. ``sanitize`` arms the
    runtime invariant sanitizer on every cell (CI runs the synthetic
    sweeps this way; see docs/linting.md). ``telemetry`` arms
    interval-resolved observability on every cell (see
    docs/telemetry.md); each cell's profile lands in its
    ``result.info["telemetry"]``. ``retry`` arms the resilience layer
    (bounded retry with deterministic backoff, per-cell wall-clock
    timeouts, worker-pool recovery — see docs/resilience.md); every
    failed attempt rides back on ``matrix.failure_report``, with or
    without ``retry``. Cell failures that survive the retry budget
    propagate; use
    :meth:`repro.harness.engine.SweepEngine.run` directly for per-cell
    failure isolation and engine statistics.

    ``cell_engine`` picks the simulation engine for uncached cells —
    ``"fast"`` (default), ``"reference"``, or ``"batched"`` which runs
    all eligible policies of a workload over one shared access-stream
    plan (see docs/performance.md); all three are bit-identical.
    (``engine`` names the *sweep* engine instance, hence the separate
    keyword.)

    ``sampling`` runs every cell under representative-interval sampling
    (:mod:`repro.sampling`, docs/sampling.md): only weighted
    representative intervals simulate and each cell's result is a
    recombined estimate, cached under a key that includes the spec.

    The durability knobs thread straight through to the engine (see
    docs/resilience.md): ``memory_budget_mb`` arms the per-worker RSS
    watchdog, ``shutdown``/``drain_timeout`` wire in a
    :class:`~repro.resilience.durability.ShutdownCoordinator` for
    graceful SIGTERM/SIGINT handling, ``journal_context`` is stored in
    the run journal's header (``repro sweep --resume`` rebuilds its
    arguments from it), and ``failure_report_path`` overrides where a
    persisted failure report lands. When the engine journals the run,
    ``matrix.run_id`` / ``matrix.journal_path`` identify it.
    """
    from .engine import SweepEngine

    if engine is None:
        engine = SweepEngine.from_env(jobs=jobs)
    outcome = engine.run(
        traces,
        policies,
        config=config,
        warmup_fraction=warmup_fraction,
        progress=progress,
        sanitize=sanitize,
        telemetry=telemetry,
        retry=retry,
        engine=cell_engine,
        sampling=sampling,
        memory_budget_mb=memory_budget_mb,
        shutdown=shutdown,
        drain_timeout=drain_timeout,
        journal_context=journal_context,
        failure_report_path=failure_report_path,
    )
    outcome.matrix.sweep_stats = outcome.stats
    outcome.matrix.failure_report = outcome.failure_report
    outcome.matrix.run_id = outcome.run_id
    outcome.matrix.journal_path = outcome.journal_path
    return outcome.matrix
