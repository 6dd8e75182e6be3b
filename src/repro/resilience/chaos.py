"""Deterministic fault injection: prove every recovery path end-to-end.

``repro chaos`` runs a small GAP x policy sweep while injecting, from a
seeded schedule, every failure mode the resilience layer claims to
survive:

* a **worker crash** (``os._exit`` mid-cell → ``BrokenProcessPool``);
* a **hang** past the cell timeout (the watchdog must kill and retry);
* a **corrupt cache entry** (checksum mismatch → quarantine + re-run);
* a **truncated trace file** (structured ``TraceFormatError``).

The harness then asserts the contract: the sweep *completes*, every
retried cell's result is **bit-identical** to a fault-free baseline, and
the :class:`~repro.resilience.report.FailureReport` accounts for every
injected fault. CI runs this as the ``chaos-smoke`` step.

**Chaos v2** (:func:`run_chaos_v2`, ``repro chaos --scenario v2``)
covers the failure domains *around* the process that v1 cannot touch
from inside it:

* **kill + resume** — a journaled sweep runs in a child process that is
  ``SIGKILL``-ed mid-matrix; the parent resumes from the run journal and
  must reproduce the uninterrupted results bit-identically;
* **disk full** — the result cache hits a (quota-injected) real
  ``ENOSPC`` mid-sweep; the sweep must finish uncached with exactly one
  warning, no stray temp files, and bit-identical results;
* **memory bomb** — a cell balloons its worker's RSS past the
  per-worker budget; the RSS watchdog must convert it to a structured
  :class:`~repro.errors.MemoryBudgetError` (transient, one strike) that
  recovers on retry instead of drawing the OS OOM-killer.

Injection is exactly-once per fault via marker files in the harness's
scratch directory: a scheduled fault fires the first time its cell
reaches a worker and never again, so recovery is guaranteed to be
exercised regardless of how the pool interleaves cells. The crash and
the hang are chained onto the *same* victim cell (crash on its first
run, hang on its second) because a concurrent crash tears down every
worker — a hang scheduled on another cell could be absorbed by the
crash recovery and never observed as a timeout.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from ..core.config import MachineConfig, small_test_machine
from ..core.simulator import DEFAULT_WARMUP_FRACTION, simulate
from ..errors import ResilienceError, TraceFormatError
from ..trace.io import load_trace, save_trace
from ..trace.trace import Trace
from .policy import RetryPolicy
from .report import FailureReport

#: Exit status of a chaos-crashed worker (visible in pool diagnostics).
CRASH_EXIT_CODE = 66


def _cell_slug(workload: str, policy: str) -> str:
    return hashlib.sha256(f"{workload} x {policy}".encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ChaosPlan:
    """Worker-side fault schedule (picklable; shipped to pool workers).

    Faults are exactly-once: each fires the first time its cell runs in
    a worker, recorded via a marker file under ``marker_dir`` so retries
    (and innocent resubmissions) of the same cell run clean afterwards.
    A hang only fires once every scheduled crash has already happened —
    see the module docstring for why the two must be sequenced.
    """

    marker_dir: str
    crash_cells: tuple[tuple[str, str], ...] = ()
    hang_cells: tuple[tuple[str, str], ...] = ()
    hang_seconds: float = 30.0
    #: Cells that balloon their worker's RSS on first run (chaos v2's
    #: memory-bomb leg); the allocation persists for the duration of the
    #: cell so the per-worker RSS watchdog is guaranteed to observe it.
    bomb_cells: tuple[tuple[str, str], ...] = ()
    bomb_mb: float = 0.0

    def _marker(self, kind: str, workload: str, policy: str) -> Path:
        return Path(self.marker_dir) / f"{kind}-{_cell_slug(workload, policy)}"

    def crashes_done(self) -> bool:
        return all(
            self._marker("crash", w, p).exists() for w, p in self.crash_cells
        )

    def apply(self, workload: str, policy: str) -> None:
        """Inject this cell's scheduled fault, if it has not fired yet."""
        cell = (workload, policy)
        if cell in self.crash_cells:
            marker = self._marker("crash", workload, policy)
            if not marker.exists():
                marker.touch()
                os._exit(CRASH_EXIT_CODE)
        if cell in self.hang_cells and self.crashes_done():
            marker = self._marker("hang", workload, policy)
            if not marker.exists():
                marker.touch()
                time.sleep(self.hang_seconds)
        if cell in self.bomb_cells and self.bomb_mb > 0:
            marker = self._marker("bomb", workload, policy)
            if not marker.exists():
                marker.touch()
                # Non-zero bytes so every page is written and therefore
                # resident — bytearray(n)'s lazily-committed zero pages
                # would never show up in RSS.
                _BOMB.append(b"\x01" * int(self.bomb_mb * 1024 * 1024))


#: The live memory bomb of this worker process. Held at module scope so
#: the allocation outlives :meth:`ChaosPlan.apply`; released at the
#: start of the *next* cell in the same worker (a single large bytes
#: object is mmap'd, so freeing it actually returns the RSS).
_BOMB: list[bytes] = []


def _chaos_simulate_cell(
    plan: ChaosPlan,
    workload: str,
    policy: str,
    trace: Trace,
    config: MachineConfig,
    warmup_fraction: float,
    sanitize: bool,
    telemetry: object,
    memory_budget_mb: float | None = None,
) -> tuple[str, str, object]:
    """Worker entry point: inject the scheduled fault, then simulate."""
    from .durability import memory_guard

    _BOMB.clear()  # a bomb from an earlier cell must not taint this one
    plan.apply(workload, policy)
    with memory_guard(memory_budget_mb):
        result = simulate(
            trace,
            config=config,
            llc_policy=policy,
            warmup_fraction=warmup_fraction,
            sanitize=sanitize,
            telemetry=telemetry,  # type: ignore[arg-type]
        )
    return workload, policy, result


@dataclass(frozen=True)
class ChaosSchedule:
    """The full seeded schedule: worker faults plus on-disk faults."""

    seed: int
    plan: ChaosPlan
    corrupt_cache_cells: tuple[tuple[str, str], ...]
    truncate_workload: str


def plan_chaos(
    cells: list[tuple[str, str]],
    seed: int,
    marker_dir: str | Path,
    hang_seconds: float = 30.0,
) -> ChaosSchedule:
    """Derive a deterministic fault schedule for ``cells`` from ``seed``.

    One victim cell takes the chained crash-then-hang; a *different*
    cell's cache entry is corrupted (so the corruption is detected on
    the cache read path, not shadowed by the worker faults); the
    truncated-trace leg uses the first workload in the matrix.
    """
    if len(cells) < 2:
        raise ResilienceError(
            "chaos needs a matrix of at least 2 cells to spread faults over"
        )
    rng = random.Random(seed)
    shuffled = list(cells)
    rng.shuffle(shuffled)
    victim, corrupt = shuffled[0], shuffled[1]
    plan = ChaosPlan(
        marker_dir=str(marker_dir),
        crash_cells=(victim,),
        hang_cells=(victim,),
        hang_seconds=hang_seconds,
    )
    return ChaosSchedule(
        seed=seed,
        plan=plan,
        corrupt_cache_cells=(corrupt,),
        truncate_workload=cells[0][0],
    )


@dataclass
class ChaosReport:
    """What was injected, what was observed, and whether the contract held."""

    seed: int
    cells: int = 0
    injected_crashes: int = 0
    injected_hangs: int = 0
    injected_corrupt_cache: int = 0
    injected_truncated_traces: int = 0
    observed_crash_recoveries: int = 0
    observed_timeout_recoveries: int = 0
    observed_quarantined: int = 0
    trace_fault_error: str = ""
    bit_identical: bool = False
    sweep_completed: bool = False
    failure_report: FailureReport = field(default_factory=FailureReport)

    @property
    def passed(self) -> bool:
        """Every injected fault observed, recovered, and results exact."""
        return (
            self.sweep_completed
            and self.bit_identical
            and self.failure_report.clean
            and self.observed_crash_recoveries >= self.injected_crashes
            and self.observed_timeout_recoveries >= self.injected_hangs
            and self.observed_quarantined >= self.injected_corrupt_cache
            and (not self.injected_truncated_traces or bool(self.trace_fault_error))
        )

    def to_json_dict(self) -> dict:
        doc = {
            k: getattr(self, k)
            for k in (
                "seed", "cells", "injected_crashes", "injected_hangs",
                "injected_corrupt_cache", "injected_truncated_traces",
                "observed_crash_recoveries", "observed_timeout_recoveries",
                "observed_quarantined", "trace_fault_error",
                "bit_identical", "sweep_completed",
            )
        }
        doc["passed"] = self.passed
        doc["failure_report"] = self.failure_report.to_json_dict()
        return doc

    def render(self) -> str:
        check = "ok" if self.passed else "FAILED"
        lines = [
            f"chaos (seed {self.seed}) over {self.cells} cells: {check}",
            f"  worker crashes:   {self.injected_crashes} injected, "
            f"{self.observed_crash_recoveries} recovered",
            f"  hangs/timeouts:   {self.injected_hangs} injected, "
            f"{self.observed_timeout_recoveries} recovered",
            f"  corrupt cache:    {self.injected_corrupt_cache} injected, "
            f"{self.observed_quarantined} quarantined",
            f"  truncated traces: {self.injected_truncated_traces} injected, "
            + (f"raised {self.trace_fault_error}" if self.trace_fault_error
               else "NOT detected"),
            f"  sweep completed:  {self.sweep_completed}; "
            f"results bit-identical to fault-free baseline: {self.bit_identical}",
            "",
            self.failure_report.render(),
        ]
        return "\n".join(lines)


def run_chaos(
    seed: int = 0,
    kernels: tuple[str, ...] = ("bfs", "pr"),
    policies: tuple[str, ...] = ("lru", "srrip"),
    scale: int = 10,
    degree: int = 8,
    max_accesses: int = 20_000,
    jobs: int = 2,
    retry: RetryPolicy | None = None,
    config: MachineConfig | None = None,
    work_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Run the seeded fault-injection harness over a small GAP matrix.

    Returns a :class:`ChaosReport`; ``report.passed`` is the contract.
    ``work_dir`` (default: a fresh temp directory) holds the scratch
    cache, fault markers and the truncated-trace scratch file.
    """
    from ..gap.suite import gap_suite
    from ..harness.engine import SweepEngine, cell_key

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    if retry is None:
        retry = RetryPolicy(
            max_attempts=3,
            cell_timeout=10.0,
            backoff_base=0.05,
            backoff_max=1.0,
            seed=seed,
        )
    if retry.cell_timeout is None:
        raise ResilienceError("chaos requires a RetryPolicy with cell_timeout set")
    if config is None:
        config = small_test_machine()
    root = Path(work_dir) if work_dir else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    marker_dir = root / "markers"
    marker_dir.mkdir(parents=True, exist_ok=True)

    say(f"building {len(kernels)} GAP traces (scale {scale}) ...")
    traces = gap_suite(scale=scale, degree=degree, kernels=kernels,
                       max_accesses=max_accesses)
    cells = [(w, p) for w in traces for p in policies]
    schedule = plan_chaos(
        cells, seed=seed, marker_dir=marker_dir,
        hang_seconds=max(30.0, retry.cell_timeout * 4),
    )
    report = ChaosReport(
        seed=seed,
        cells=len(cells),
        injected_crashes=len(schedule.plan.crash_cells),
        injected_hangs=len(schedule.plan.hang_cells),
        injected_corrupt_cache=len(schedule.corrupt_cache_cells),
        injected_truncated_traces=1,
    )

    # Leg 1: a truncated trace file must fail with a structured error.
    say("injecting truncated trace ...")
    scratch = save_trace(traces[schedule.truncate_workload], root / "chaos_trace.npz")
    payload = scratch.read_bytes()
    scratch.write_bytes(payload[: int(len(payload) * 0.6)])
    try:
        load_trace(scratch)
    except TraceFormatError as exc:
        report.trace_fault_error = f"{type(exc).__name__}: {exc}"
    # any other exception type escapes: that is exactly the bug this
    # harness exists to catch.

    # Leg 2: fault-free baseline (serial, uncached) for bit-identity.
    say("running fault-free baseline sweep ...")
    baseline = SweepEngine(jobs=1).run(traces, list(policies), config=config)

    # Leg 3: pre-populate and corrupt the scheduled cache entries.
    engine = SweepEngine(cache_dir=root / "cache", jobs=jobs)
    assert engine.cache is not None
    for workload, policy in schedule.corrupt_cache_cells:
        say(f"corrupting cache entry of {workload} x {policy} ...")
        engine.run({workload: traces[workload]}, [policy], config=config)
        key = cell_key(
            traces[workload], policy, config, DEFAULT_WARMUP_FRACTION,
            salt=engine.salt,
        )
        entry = engine.cache.path_for(key)
        doc = json.loads(entry.read_text(encoding="utf-8"))
        doc["result"]["__chaos_corruption__"] = True  # checksum now stale
        entry.write_text(json.dumps(doc), encoding="utf-8")

    # Leg 4: the chaos sweep itself.
    say(f"running chaos sweep ({jobs} jobs, "
        f"cell timeout {retry.cell_timeout:g}s) ...")
    outcome = engine.run(
        traces, list(policies), config=config,
        isolate_failures=True, retry=retry, chaos=schedule.plan,
    )
    report.failure_report = outcome.failure_report
    report.sweep_completed = not outcome.errors and all(
        p in outcome.matrix.results.get(w, {}) for w, p in cells
    )
    report.bit_identical = outcome.matrix.results == baseline.matrix.results
    report.observed_quarantined = outcome.failure_report.quarantined_cache_entries

    recovered = {
        (h.workload, h.policy)
        for h in outcome.failure_report.recovered
    }
    report.observed_crash_recoveries = sum(
        1 for cell in schedule.plan.crash_cells
        if cell in recovered and any(
            a.error_type == "BrokenProcessPool"
            for a in outcome.failure_report.cells[cell].attempts
        )
    )
    report.observed_timeout_recoveries = sum(
        1 for cell in schedule.plan.hang_cells
        if cell in recovered and any(
            a.error_type == "CellTimeoutError"
            for a in outcome.failure_report.cells[cell].attempts
        )
    )
    return report


# -- chaos v2: whole-process, disk and memory failure domains -----------------

#: Scenario names accepted by :func:`run_chaos_v2` / ``repro chaos``.
CHAOS_V2_SCENARIOS = ("kill-resume", "disk-full", "memory-bomb")


class _QuotaCache:
    """A :class:`~repro.harness.engine.ResultCache` with a write quota.

    After ``max_writes`` successful entry writes, every further write
    raises a *real* ``OSError(ENOSPC)`` from inside the store path — the
    disk-full scenario exercises the engine's genuine temp-file cleanup
    and degrade-to-uncached handling, not a simulation of it.
    """

    def __new__(cls, root, salt=None, max_writes: int = 1):
        import errno

        from ..harness.engine import ResultCache

        class Quota(ResultCache):
            def __init__(self) -> None:
                super().__init__(root, salt=salt)
                self.writes = 0

            def _write_payload(self, tmp: Path, text: str) -> None:
                if self.writes >= max_writes:
                    raise OSError(
                        errno.ENOSPC, "No space left on device (chaos quota)"
                    )
                self.writes += 1
                super()._write_payload(tmp, text)

        return Quota()


#: The child program of the kill+resume scenario: a journaled, cached
#: sweep whose cells are artificially slowed so the parent can SIGKILL
#: it deterministically mid-matrix. Parameters arrive as one JSON argv
#: document; traces are loaded from files the parent saved. Pool
#: workers are forked from the child, so they inherit the slowed cell.
_KILL_RESUME_CHILD = """
import json, sys, time

import repro.harness.engine as eng
from repro.core.config import small_test_machine
from repro.harness.engine import SweepEngine
from repro.mem.batch import BatchSimulator
from repro.trace.io import load_trace

params = json.loads(sys.argv[1])
traces = {name: load_trace(path) for name, path in params["traces"].items()}
rank = {name: index for index, name in enumerate(traces)}

# Slow every cell, in a batch unit and on the per-cell phase alike: the
# i-th workload's cells take i + 1 delays, so units running side by side
# finish apart and the kill lands between them.
def _pause(workload):
    time.sleep(params["cell_delay"] * (rank[workload] + 1))

_cell = eng._simulate_cell
_replay = BatchSimulator.run_cell

def _slowed_cell(workload, *args, **kwargs):
    _pause(workload)
    return _cell(workload, *args, **kwargs)

def _slowed_replay(self, *args, **kwargs):
    _pause(self.trace.name)
    return _replay(self, *args, **kwargs)

eng._simulate_cell = _slowed_cell
BatchSimulator.run_cell = _slowed_replay

engine = SweepEngine(
    cache_dir=params["cache_dir"], jobs=params["jobs"],
    journal_dir=params["journal_dir"],
)
engine.run(traces, params["policies"], config=small_test_machine())
"""


@dataclass
class ScenarioResult:
    """Outcome of one chaos-v2 scenario."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class ChaosV2Report:
    """Aggregated chaos-v2 outcome (``repro chaos --scenario v2``)."""

    seed: int
    scenarios: list[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.scenarios) and all(s.passed for s in self.scenarios)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "scenarios": [
                {"name": s.name, "passed": s.passed, "details": s.details}
                for s in self.scenarios
            ],
        }

    def render(self) -> str:
        check = "ok" if self.passed else "FAILED"
        lines = [f"chaos v2 (seed {self.seed}): {check}"]
        for s in self.scenarios:
            status = "ok" if s.passed else "FAILED"
            lines.append(f"  {s.name}: {status}")
            for key in sorted(s.details):
                lines.append(f"    {key}: {s.details[key]}")
        return "\n".join(lines)


def _scenario_kill_resume(
    traces: dict[str, Trace],
    policies: tuple[str, ...],
    config: MachineConfig,
    baseline,
    root: Path,
    say: Callable[[str], None],
    jobs: int,
) -> ScenarioResult:
    """SIGKILL a journaled child sweep mid-matrix, then resume it.

    Child and resume both run at ``jobs``. At ``jobs > 1`` the child's
    orphaned pool workers must exit on their own, or they would hold
    the child's stderr pipe open.
    """
    import signal
    import subprocess
    import sys

    import repro
    from ..harness.engine import SweepEngine
    from ..trace.io import save_trace
    from .durability import JOURNAL_SUFFIX, RunJournal

    work = root / "kill-resume"
    journal_dir = work / "journal"
    work.mkdir(parents=True, exist_ok=True)
    details: dict = {}
    cells = [(w, p) for w in traces for p in policies]

    say("kill-resume: spawning journaled child sweep ...")
    params = {
        "traces": {
            name: str(save_trace(trace, work / f"{name}.npz"))
            for name, trace in traces.items()
        },
        "policies": list(policies),
        "cache_dir": str(work / "cache"),
        "journal_dir": str(journal_dir),
        "jobs": jobs,
        "cell_delay": 0.75,  # slow cells so the kill lands mid-matrix
    }
    env = os.environ.copy()
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", _KILL_RESUME_CHILD, json.dumps(params)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )

    # Wait for the journal to show the first completed cell, then kill
    # -9: the crash lands after some — but provably not all — cells.
    journal_file: Path | None = None
    deadline = time.monotonic() + 120.0
    killed = False
    while time.monotonic() < deadline:
        candidates = (
            sorted(journal_dir.glob(f"*{JOURNAL_SUFFIX}"))
            if journal_dir.is_dir() else []
        )
        if candidates:
            journal_file = candidates[0]
            if journal_file.read_text(encoding="utf-8").count('"cell"') >= 1:
                os.kill(child.pid, signal.SIGKILL)
                killed = True
                break
        if child.poll() is not None:
            break  # child finished (or died) before we could kill it
        time.sleep(0.05)
    returncode = child.wait()
    stderr = (child.stderr.read() if child.stderr else b"").decode(
        errors="replace"
    )
    details["child_returncode"] = returncode
    details["killed"] = killed
    if not killed or journal_file is None:
        details["child_stderr"] = stderr[-2000:]
        return ScenarioResult("kill-resume", passed=False, details=details)

    parsed = RunJournal.load(journal_file)
    partial = len(parsed.completed_cells)
    details["cells_before_kill"] = partial
    details["journal_complete_after_kill"] = parsed.complete

    say(f"kill-resume: child killed after {partial} cells; resuming ...")
    engine = SweepEngine(
        cache_dir=params["cache_dir"], jobs=jobs, journal_dir=journal_dir
    )
    outcome = engine.run(traces, list(policies), config=config)
    details["resumed_cells"] = outcome.stats.resumed
    details["run_id"] = outcome.run_id
    details["bit_identical"] = (
        outcome.matrix.results == baseline.matrix.results
    )
    passed = (
        returncode == -signal.SIGKILL
        and not parsed.complete
        and 0 < partial < len(cells)
        and outcome.run_id == parsed.run_id  # same spec => same journal
        and outcome.stats.resumed == partial
        and outcome.stats.simulated == len(cells) - partial
        and details["bit_identical"]
    )
    return ScenarioResult("kill-resume", passed=passed, details=details)


def _scenario_disk_full(
    traces: dict[str, Trace],
    policies: tuple[str, ...],
    config: MachineConfig,
    baseline,
    root: Path,
    say: Callable[[str], None],
) -> ScenarioResult:
    """Run a cached sweep into a quota-limited cache dir (real ENOSPC)."""
    import warnings

    from ..harness.engine import SweepEngine

    say("disk-full: sweeping into a quota-limited cache ...")
    cache_root = root / "disk-full" / "cache"
    engine = SweepEngine(cache_dir=cache_root, jobs=1)
    engine.cache = _QuotaCache(cache_root, salt=engine.salt, max_writes=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = engine.run(traces, list(policies), config=config)
    runtime_warnings = [
        w for w in caught if issubclass(w.category, RuntimeWarning)
    ]
    stray_tmp = list(cache_root.rglob("*.tmp-*"))
    entries = engine.cache._entry_files()
    details = {
        "warnings": len(runtime_warnings),
        "entries_written": len(entries),
        "stray_tmp_files": len(stray_tmp),
        "bit_identical": outcome.matrix.results == baseline.matrix.results,
        "errors": len(outcome.errors),
    }
    passed = (
        len(runtime_warnings) == 1
        and "unusable" in str(runtime_warnings[0].message)
        and not stray_tmp
        and len(entries) == 1  # the pre-quota write survived intact
        and not outcome.errors
        and details["bit_identical"]
    )
    return ScenarioResult("disk-full", passed=passed, details=details)


def _scenario_memory_bomb(
    traces: dict[str, Trace],
    policies: tuple[str, ...],
    config: MachineConfig,
    baseline,
    root: Path,
    say: Callable[[str], None],
    seed: int,
    jobs: int,
) -> ScenarioResult:
    """Balloon one cell's worker RSS past the budget; expect recovery."""
    work = root / "memory-bomb"
    markers = work / "markers"
    markers.mkdir(parents=True, exist_ok=True)
    cells = [(w, p) for w in traces for p in policies]
    victim = random.Random(seed).choice(cells)
    say(f"memory-bomb: arming {victim[0]} x {victim[1]} ...")
    plan = ChaosPlan(
        marker_dir=str(markers), bomb_cells=(victim,), bomb_mb=320.0
    )
    retry = RetryPolicy(
        max_attempts=3, cell_timeout=60.0, backoff_base=0.05,
        backoff_max=1.0, seed=seed,
    )
    from ..harness.engine import SweepEngine

    outcome = SweepEngine(jobs=jobs).run(
        traces, list(policies), config=config, isolate_failures=True,
        retry=retry, chaos=plan, memory_budget_mb=256.0,
    )
    report = outcome.failure_report
    budget_attempts = report.attempts_with_error("MemoryBudgetError")
    details = {
        "budget_attempts": len(budget_attempts),
        "classifications": sorted(
            {a.classification for a in budget_attempts}
        ),
        "clean": report.clean,
        "bit_identical": outcome.matrix.results == baseline.matrix.results,
        "errors": len(outcome.errors),
    }
    passed = (
        not outcome.errors
        and report.clean
        and len(budget_attempts) >= 1
        and all(a.classification == "transient" for a in budget_attempts)
        and details["bit_identical"]
    )
    return ScenarioResult("memory-bomb", passed=passed, details=details)


def run_chaos_v2(
    seed: int = 0,
    scenarios: tuple[str, ...] = CHAOS_V2_SCENARIOS,
    kernels: tuple[str, ...] = ("bfs", "pr"),
    policies: tuple[str, ...] = ("lru", "srrip"),
    scale: int = 10,
    degree: int = 8,
    max_accesses: int = 20_000,
    jobs: int = 2,
    work_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> ChaosV2Report:
    """Run the chaos-v2 scenarios (process death, disk full, memory bomb).

    Each scenario shares one fault-free serial baseline; the contract of
    every scenario is *bit-identical recovered results* plus the
    scenario-specific accounting (journal resume counts, single
    degradation warning, transient budget classification). Unknown
    scenario names raise :class:`~repro.errors.ResilienceError`.
    """
    from ..gap.suite import gap_suite
    from ..harness.engine import SweepEngine

    unknown = [s for s in scenarios if s not in CHAOS_V2_SCENARIOS]
    if unknown:
        raise ResilienceError(
            f"unknown chaos-v2 scenario(s) {', '.join(unknown)}; "
            f"expected a subset of: {', '.join(CHAOS_V2_SCENARIOS)}"
        )

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    config = small_test_machine()
    root = (
        Path(work_dir) if work_dir
        else Path(tempfile.mkdtemp(prefix="repro-chaos-v2-"))
    )
    say(f"building {len(kernels)} GAP traces (scale {scale}) ...")
    traces = gap_suite(scale=scale, degree=degree, kernels=kernels,
                       max_accesses=max_accesses)
    say("running fault-free baseline sweep ...")
    baseline = SweepEngine(jobs=1).run(traces, list(policies), config=config)

    report = ChaosV2Report(seed=seed)
    for name in scenarios:
        if name == "kill-resume":
            result = _scenario_kill_resume(
                traces, policies, config, baseline, root, say, jobs
            )
        elif name == "disk-full":
            result = _scenario_disk_full(
                traces, policies, config, baseline, root, say
            )
        else:
            result = _scenario_memory_bomb(
                traces, policies, config, baseline, root, say, seed, jobs
            )
        say(f"{name}: {'ok' if result.passed else 'FAILED'}")
        report.scenarios.append(result)
    return report
