"""Parallel, cached sweep execution for (workload x policy) matrices.

Every paper artifact funnels through a (workload x policy) sweep whose
cells are independent, deterministic simulations — embarrassingly
parallel and perfectly cacheable. :class:`SweepEngine` exploits both:

* **Parallelism** — cells fan out over a ``ProcessPoolExecutor``
  (``jobs`` workers); results are reassembled in deterministic
  (workload, policy) order, so a parallel sweep is bit-identical to a
  serial one.
* **Caching** — a content-addressed on-disk :class:`ResultCache` keyed
  on the trace content digest, policy name, machine configuration,
  warm-up fraction and a *simulator-version salt* (a hash of every
  source file of the :mod:`repro` package). Any change under
  ``src/repro`` changes the salt and starts a fresh cache generation;
  ``repro cache prune`` garbage-collects the stale entries.
* **Checkpoint/resume** — each finished cell is persisted atomically the
  moment it completes, so an interrupted sweep resumes from its last
  finished cell on the next invocation (the cache *is* the checkpoint).
* **Failure isolation** — with ``isolate_failures=True`` a crashing cell
  records a structured :class:`CellError` and the rest of the matrix
  completes; failed cells are never cached, so a re-run retries them.
* **One optimized path** — uncached cells run in per-trace batch units
  (:mod:`repro.mem.batch`: one shared plan per trace, one replay per
  policy); only what a unit leaves unfinished, and sanitize, chaos,
  sampled and ``engine="reference"`` sweeps, run cell by cell.
* **One execution path** — every batch unit and every per-cell cell
  runs through :class:`~repro.resilience.executor.ResilientExecutor`,
  in process or in a worker pool. A sweep without a retry policy runs
  under :data:`SINGLE_ATTEMPT`, so failure classification, poison
  isolation, the failure report and shutdown behave the same at any
  ``jobs``.

:func:`repro.harness.runner.run_matrix` routes through a default engine
configured from the environment (``REPRO_JOBS``, ``REPRO_CACHE_DIR``),
so existing callers get both behaviours transparently.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import select
import shutil
import threading
import time
import traceback as traceback_module
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..core.config import MachineConfig, cascade_lake
from ..core.results import RESULT_SCHEMA_VERSION, SimulationResult
from ..core.simulator import DEFAULT_WARMUP_FRACTION, simulate
from ..errors import (
    CacheIntegrityError,
    ConfigurationError,
    SimulationError,
    SweepInterrupted,
)
from ..resilience.durability import (
    CELL_FAILED,
    CELL_OK,
    CELL_POISONED,
    ENV_JOURNAL_DIR,
    RunJournal,
    ShutdownCoordinator,
    memory_guard,
    sweep_spec_doc,
    write_failure_report,
)
from ..resilience.executor import ResilientExecutor
from ..resilience.policy import FailureKind, RetryPolicy
from ..resilience.report import FailureReport
from ..sampling.spec import SamplingSpec
from ..telemetry.collector import TelemetryConfig
from ..trace.trace import Trace
from .runner import RunMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..resilience.chaos import ChaosPlan

#: Version of one on-disk cache entry's envelope (the ``result`` payload
#: inside carries its own schema version from :mod:`repro.core.results`).
#: v2 added the content ``checksum`` field; v1 entries are treated as
#: cache misses (deleted and re-simulated), never as errors.
CACHE_ENTRY_VERSION = 2

#: Directory under the cache root where corrupt entries are moved. A
#: quarantined entry is evidence (of bad disks, bad RAM, or a writer
#: bug), so it is preserved for inspection instead of deleted; the read
#: path treats it as a miss.
QUARANTINE_DIR = "quarantine"

#: Environment variables the default engine is configured from.
ENV_JOBS = "REPRO_JOBS"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

#: The retry policy of a sweep run without one: a single attempt per
#: cell, and the first strike (a worker death, a timeout or a memory
#: budget breach) poisons the cell.
SINGLE_ATTEMPT = RetryPolicy(max_attempts=1, poison_strikes=1)

#: Seconds between a pool worker's checks that the sweeping process is
#: still its parent, where the worker cannot wait on a pidfd.
_PARENT_POLL_S = 0.5


def usable_cpus() -> int:
    """How many CPUs this process may run on.

    The affinity mask where the OS keeps one (a container or ``taskset``
    may grant fewer CPUs than the machine has), else the CPU count.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _salt_root() -> Path:
    """The package directory the salt sources are resolved against."""
    import repro

    return Path(repro.__file__).resolve().parent


def salt_source_files(root: Path | None = None) -> list[Path]:
    """Every source file the simulator-version salt is computed over.

    Every ``.py`` file under the package root, sorted, ``__pycache__``
    skipped. The whole package is hashed rather than a hand-kept subset:
    the code that pairs results with cells and cache keys is as much a
    part of a cached result as the simulator itself.
    """
    if root is None:
        root = _salt_root()
    return [
        path
        for path in sorted(root.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]


def simulator_salt() -> str:
    """A short hash of the package's source (plus result schema).

    Computed over every file from :func:`salt_source_files` in sorted
    order, so it is stable across processes and machines but changes
    with any edit under the package: an edit starts a fresh cache
    generation. Cache entries embed it in their key; ``repro cache
    prune`` deletes entries minted under any other salt.

    The files are hashed on every call (a few milliseconds), so a
    long-lived harness never serves cache entries under a stale salt;
    engines and caches compute it once, at construction.
    """
    root = _salt_root()
    h = hashlib.sha256()
    h.update(f"result-schema={RESULT_SCHEMA_VERSION}".encode())
    for path in salt_source_files(root):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def cell_key(
    trace: Trace,
    policy: str,
    config: MachineConfig,
    warmup_fraction: float,
    sanitize: bool = False,
    salt: str | None = None,
    telemetry: TelemetryConfig | None = None,
    sampling: SamplingSpec | None = None,
) -> str:
    """The content address of one sweep cell.

    SHA-256 over a canonical JSON document of everything that determines
    the cell's result: the trace's content digest, the policy registry
    name (policy *parameters* live in the policy source, which the salt
    covers), the full machine configuration, the warm-up fraction, the
    sanitize flag and telemetry configuration (both add fields to
    ``result.info``), the sampling spec (a sampled cell is an estimate,
    never interchangeable with a full one) and the simulator salt.
    """
    doc = {
        "trace": trace.digest(),
        "policy": policy,
        "config": config.to_json_dict(),
        "warmup_fraction": warmup_fraction,
        "sanitize": bool(sanitize),
        "telemetry": telemetry.to_json_dict() if telemetry is not None else None,
        "sampling": sampling.to_json_dict() if sampling is not None else None,
        "salt": salt if salt is not None else simulator_salt(),
    }
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_checksum(result_doc: dict) -> str:
    """Content checksum of one cache entry's ``result`` payload.

    SHA-256 over the canonical JSON encoding; stable across load/store
    round trips because ``json`` preserves float representations.
    """
    canonical = json.dumps(result_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class CellError:
    """Structured record of one failed sweep cell."""

    workload: str
    policy: str
    error_type: str
    message: str
    #: Failure-taxonomy bucket (:class:`repro.resilience.FailureKind`
    #: value), as :func:`repro.resilience.classify_failure` and the
    #: strike ladder assigned it.
    classification: str
    traceback: str = ""

    def render(self) -> str:
        return f"{self.workload} x {self.policy}: {self.error_type}: {self.message}"


@dataclass
class SweepStats:
    """What the engine did for one sweep."""

    hits: int = 0  # cells loaded from the on-disk cache
    simulated: int = 0  # cells actually run
    errors: int = 0  # cells that failed (isolate_failures=True)
    #: Cells a resumed run journal had already marked complete (a subset
    #: of ``hits``: their results come back from the cache). 0 for fresh
    #: runs and journal-less sweeps.
    resumed: int = 0
    #: Cells the batched pass handed to the per-cell phase: ineligible
    #: policies, plan or replay failures, and the cells of a unit that
    #: timed out, breached its memory budget or lost its worker.
    fallbacks: int = 0

    @property
    def cells(self) -> int:
        """Total cells the sweep covered."""
        return self.hits + self.simulated + self.errors


@dataclass
class SweepOutcome:
    """A completed sweep: the matrix plus errors and engine stats."""

    matrix: RunMatrix
    errors: dict[tuple[str, str], CellError] = field(default_factory=dict)
    stats: SweepStats = field(default_factory=SweepStats)
    #: Per-attempt accounting of every cell failure the sweep met.
    failure_report: FailureReport = field(default_factory=FailureReport)
    #: Identity of the run journal this sweep wrote (``repro sweep
    #: --resume <run_id>``); ``None`` for journal-less sweeps.
    run_id: str | None = None
    journal_path: Path | None = None


@dataclass
class CacheReport:
    """Snapshot of the on-disk cache for ``repro cache stats``."""

    root: str
    current_salt: str
    entries: int = 0
    bytes: int = 0
    by_salt: dict[str, int] = field(default_factory=dict)
    corrupt: int = 0  # live entries failing their content checksum
    quarantined: int = 0  # entries previously moved to quarantine/

    @property
    def stale_entries(self) -> int:
        """Entries minted under a different simulator salt."""
        return sum(
            count for salt, count in self.by_salt.items() if salt != self.current_salt
        )

    def render(self) -> str:
        lines = [
            f"cache root:   {self.root}",
            f"current salt: {self.current_salt}",
            f"entries:      {self.entries} ({self.bytes / 1024:.1f} KiB)",
            f"integrity:    {self.corrupt} corrupt, "
            f"{self.quarantined} quarantined",
        ]
        for salt in sorted(self.by_salt):
            marker = "current" if salt == self.current_salt else "stale"
            lines.append(f"  salt {salt}: {self.by_salt[salt]} entries ({marker})")
        return "\n".join(lines)


@dataclass
class VerifyReport:
    """Result of a full-cache integrity pass (``repro cache verify``)."""

    root: str
    checked: int = 0
    ok: int = 0
    quarantined: int = 0  # corrupt entries moved this pass
    stale_format: int = 0  # well-formed entries with an old envelope version
    previously_quarantined: int = 0  # entries already in quarantine/ before

    @property
    def clean(self) -> bool:
        """No corruption found, now or by any earlier pass.

        ``repro cache verify`` exits nonzero unless this holds, so a CI
        gate catches corruption even when an earlier sweep (whose read
        path quarantines silently) already moved the entry aside.
        """
        return self.quarantined == 0 and self.previously_quarantined == 0

    def to_json_dict(self) -> dict:
        return {
            "root": self.root,
            "checked": self.checked,
            "ok": self.ok,
            "quarantined": self.quarantined,
            "stale_format": self.stale_format,
            "previously_quarantined": self.previously_quarantined,
            "clean": self.clean,
        }

    def render(self) -> str:
        return (
            f"verified {self.checked} entries under {self.root}: "
            f"{self.ok} ok, {self.quarantined} corrupt (quarantined), "
            f"{self.stale_format} stale-format, "
            f"{self.previously_quarantined} previously quarantined"
        )


class ResultCache:
    """Content-addressed on-disk store of :class:`SimulationResult`s.

    Layout: ``root/<salt>/<key[:2]>/<key>.json`` — grouping by salt makes
    pruning stale generations a directory removal, and the two-character
    fan-out keeps directories small on big sweeps. Writes go through a
    temp file + ``os.replace`` so a crash mid-write can never leave a
    half-written entry behind; a corrupt or schema-mismatched entry is
    treated as a miss and deleted.

    An unwritable cache location (read-only filesystem, root shadowed by
    a file, permission loss mid-sweep, ENOSPC) degrades to uncached
    operation with a single :class:`RuntimeWarning` — a sweep never dies
    because its cache directory did.

    ``max_bytes`` bounds the cache's disk footprint: after every store
    the least-recently-used entries (by file mtime — loads touch their
    entry) are pruned until the total fits the budget, so an unattended
    sweep service cannot fill the disk. The entry just written always
    survives, even if it alone exceeds the budget.
    """

    def __init__(
        self,
        root: str | Path,
        salt: str | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError(
                f"ResultCache.max_bytes must be positive, got {max_bytes}"
            )
        self.root = Path(root)
        self.salt = salt if salt is not None else simulator_salt()
        self.max_bytes = max_bytes
        self._disabled = False
        #: Corrupt entries this instance moved to quarantine (the sweep
        #: engine snapshots it around a run for the failure report).
        self.quarantined_count = 0
        #: Entries the byte budget evicted (LRU) over this instance's life.
        self.budget_evictions = 0

    def _disable(self, exc: OSError) -> None:
        """Fall back to uncached operation after a filesystem failure."""
        if not self._disabled:
            self._disabled = True
            warnings.warn(
                f"result cache at {self.root} is unusable ({exc}); "
                "continuing without caching",
                RuntimeWarning,
                stacklevel=3,
            )

    def path_for(self, key: str) -> Path:
        return self.root / self.salt / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (never trust it, never destroy it)."""
        quarantine = self.root / QUARANTINE_DIR
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / path.name)
            self.quarantined_count += 1
        except OSError as exc:
            self._disable(exc)

    @staticmethod
    def _validate_entry(doc: dict) -> SimulationResult:
        """Decode one entry document, enforcing its content checksum.

        Raises :class:`~repro.errors.CacheIntegrityError` on a checksum
        mismatch and :class:`SimulationError` on schema problems.
        """
        if doc.get("entry_version") != CACHE_ENTRY_VERSION:
            raise SimulationError("cache entry version mismatch")
        result_doc = doc["result"]
        expected = doc.get("checksum")
        if expected != result_checksum(result_doc):
            raise CacheIntegrityError(
                f"cache entry checksum mismatch (stored {expected!r})"
            )
        return SimulationResult.from_json_dict(result_doc)

    def load(self, key: str) -> SimulationResult | None:
        """The cached result for ``key``, or None on miss/corruption.

        A corrupt entry (unreadable JSON or checksum mismatch) is moved
        to the quarantine directory and treated as a miss; an entry with
        an outdated envelope version is deleted (old schema, not
        corruption) and treated as a miss.
        """
        path = self.path_for(key)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            result = self._validate_entry(doc)
            if self.max_bytes is not None:
                try:
                    os.utime(path)  # LRU recency for the byte budget
                except OSError:
                    pass  # read-only cache: hits still count, just not as recency
            return result
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, CacheIntegrityError,
                KeyError, TypeError):
            self._quarantine(path)  # corrupt entry: preserve the evidence
            return None
        except SimulationError:
            try:
                path.unlink(missing_ok=True)  # old/foreign schema = plain miss
            except OSError as exc:
                self._disable(exc)
            return None
        except OSError as exc:  # unreadable root (e.g. shadowed by a file)
            self._disable(exc)
            return None

    def store(self, key: str, result: SimulationResult) -> Path | None:
        """Atomically persist one cell result under ``key``.

        Returns the entry path, or ``None`` when the cache location is
        unwritable (the failure is warned about once and the cache
        degrades to a no-op).
        """
        if self._disabled:
            return None
        path = self.path_for(key)
        result_doc = result.to_json_dict()
        doc = {
            "entry_version": CACHE_ENTRY_VERSION,
            "salt": self.salt,
            "key": key,
            "checksum": result_checksum(result_doc),
            "result": result_doc,
        }
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._write_payload(tmp, json.dumps(doc))
            os.replace(tmp, path)
        except OSError as exc:
            # Never leave a partial temp file behind a failed write — a
            # full disk is exactly when stray files hurt most.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            self._disable(exc)
            return None
        if self.max_bytes is not None:
            self._enforce_budget(keep=path)
        return path

    def _write_payload(self, tmp: Path, text: str) -> None:
        """Write one entry's bytes to its temp file.

        The single seam where entry bytes touch the disk — the chaos
        harness's quota-limited cache overrides it to raise a real
        ``ENOSPC``, so the disk-full scenario exercises the genuine
        cleanup/degradation path above.
        """
        tmp.write_text(text, encoding="utf-8")

    def _enforce_budget(self, keep: Path) -> None:
        """LRU-prune entries until the cache fits ``max_bytes``.

        ``keep`` (the entry just stored) is never pruned: evicting the
        result we just computed would make the budget self-defeating.
        Prune failures degrade the cache rather than the sweep.
        """
        assert self.max_bytes is not None
        entries: list[tuple[float, int, Path]] = []
        total = 0
        try:
            for path in self._entry_files():
                try:
                    stat = path.stat()
                except FileNotFoundError:
                    continue  # another sweep pruned it first
                total += stat.st_size
                entries.append((stat.st_mtime, stat.st_size, path))
            if total <= self.max_bytes:
                return
            entries.sort()  # oldest mtime first = least recently used
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                if path == keep:
                    continue
                path.unlink(missing_ok=True)
                total -= size
                self.budget_evictions += 1
        except OSError as exc:
            self._disable(exc)

    def _entry_files(self) -> list[Path]:
        """Live entry files (quarantined entries are not entries)."""
        if not self.root.is_dir():
            return []
        return [
            p
            for p in self.root.rglob("*.json")
            if p.is_file()
            and p.relative_to(self.root).parts[0] != QUARANTINE_DIR
        ]

    def _quarantined_files(self) -> list[Path]:
        quarantine = self.root / QUARANTINE_DIR
        if not quarantine.is_dir():
            return []
        return [p for p in quarantine.iterdir() if p.is_file()]

    def stats(self) -> CacheReport:
        """Count entries and bytes by salt, and verify content checksums.

        ``corrupt`` counts live entries whose checksum no longer matches
        their payload (read-only detection; ``verify`` quarantines
        them), ``quarantined`` counts entries already moved aside.
        """
        report = CacheReport(root=str(self.root), current_salt=self.salt)
        for path in self._entry_files():
            salt = path.relative_to(self.root).parts[0]
            report.entries += 1
            report.bytes += path.stat().st_size
            report.by_salt[salt] = report.by_salt.get(salt, 0) + 1
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                self._validate_entry(doc)
            except (SimulationError, OSError):
                pass  # stale schema / transient read failure: not corruption
            except Exception:
                report.corrupt += 1
        report.quarantined = len(self._quarantined_files())
        return report

    def verify(self) -> VerifyReport:
        """Integrity-check every entry; quarantine the corrupt ones.

        Old-envelope entries are counted as ``stale_format`` and left in
        place (they are schema history, not corruption; the read path
        already treats them as misses and ``prune`` removes stale
        generations wholesale).
        """
        report = VerifyReport(root=str(self.root))
        report.previously_quarantined = len(self._quarantined_files())
        for path in self._entry_files():
            report.checked += 1
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                self._validate_entry(doc)
            except SimulationError:
                report.stale_format += 1
            except OSError as exc:
                self._disable(exc)
            except Exception:
                self._quarantine(path)
                report.quarantined += 1
            else:
                report.ok += 1
        return report

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        A read-only cache directory warns and reports zero removals
        instead of raising.
        """
        removed = len(self._entry_files())
        if self.root.is_dir():
            try:
                shutil.rmtree(self.root)
            except OSError as exc:
                self._disable(exc)
                return 0
        return removed

    def prune(self) -> int:
        """Delete entries minted under a stale simulator salt.

        A read-only cache directory warns and reports what could be
        removed before the failure instead of raising.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        try:
            for child in self.root.iterdir():
                if (
                    child.is_dir()
                    and child.name != self.salt
                    and child.name != QUARANTINE_DIR  # evidence, not staleness
                ):
                    stale = sum(1 for _ in child.rglob("*.json"))
                    shutil.rmtree(child)
                    removed += stale
            # Stray temp files from crashed writers are stale by definition.
            for tmp in self.root.rglob("*.tmp-*"):
                tmp.unlink(missing_ok=True)
        except OSError as exc:
            self._disable(exc)
        return removed


def _simulate_cell(
    workload: str,
    policy: str,
    trace: Trace,
    config: MachineConfig,
    warmup_fraction: float,
    sanitize: bool,
    telemetry: TelemetryConfig | None = None,
    engine: str = "fast",
    sampling: SamplingSpec | None = None,
    memory_budget_mb: float | None = None,
) -> tuple[str, str, SimulationResult]:
    """Worker entry point: simulate one cell (runs in a pool process).

    ``memory_budget_mb`` arms the per-worker RSS watchdog
    (:func:`repro.resilience.durability.memory_guard`): a cell whose
    resident set exceeds the budget raises a structured
    :class:`~repro.errors.MemoryBudgetError` instead of drawing the OS
    OOM-killer onto the whole pool.
    """
    with memory_guard(memory_budget_mb):
        result = simulate(
            trace,
            config=config,
            llc_policy=policy,
            warmup_fraction=warmup_fraction,
            sanitize=sanitize,
            telemetry=telemetry,
            engine=engine,
            sampling=sampling,
        )
    return workload, policy, result


#: Per-worker trace registry installed by the pool initializer. Lives at
#: module scope so worker processes (which import this module afresh)
#: can resolve traces submitted by name instead of by value.
_WORKER_TRACES: dict[str, Trace] = {}


def _install_worker_traces(traces: dict[str, Trace]) -> None:
    """Pool initializer: materialize the sweep's traces in this worker.

    Runs once per worker process, so each trace crosses the process
    boundary at most once per worker instead of once per (cell ×
    attempt) submission — previously a P-policy sweep re-pickled every
    trace P times (more under retries). In a pool worker it also starts
    :func:`_exit_with_sweep`.
    """
    _WORKER_TRACES.clear()
    _WORKER_TRACES.update(traces)
    parent = multiprocessing.parent_process()
    if parent is not None:  # None when called in the sweeping process itself
        threading.Thread(
            target=_exit_with_sweep, args=(parent.pid,), daemon=True
        ).start()


def _exit_with_sweep(sweep_pid: int) -> None:
    """End this pool worker once the sweeping process ``sweep_pid`` is gone.

    A sweep killed with ``SIGKILL`` never shuts its pool down, and its
    orphaned workers would keep their trace registry (and any pipe they
    inherited) alive. The worker's OS parent is not always the sweep:
    under ``forkserver`` it is the fork server, which outlives the sweep
    while any worker does. So the worker waits on a pidfd of the sweep
    itself. Without pidfds (off Linux, or before Linux 5.3) it falls back
    to noticing its own re-parenting, which catches the sweep's death
    under ``fork`` and ``spawn``.
    """
    try:
        pidfd = os.pidfd_open(sweep_pid)
    except ProcessLookupError:
        os._exit(1)  # the sweep is already gone
    except (AttributeError, OSError):
        parent_pid = os.getppid()
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_S)
    else:
        select.select([pidfd], [], [])  # readable once the sweep exits
    os._exit(1)


def _simulate_cell_by_name(
    workload: str,
    policy: str,
    config: MachineConfig,
    warmup_fraction: float,
    sanitize: bool,
    telemetry: TelemetryConfig | None = None,
    engine: str = "fast",
    sampling: SamplingSpec | None = None,
    memory_budget_mb: float | None = None,
) -> tuple[str, str, SimulationResult]:
    """Worker entry point resolving the trace from the worker registry."""
    trace = _WORKER_TRACES.get(workload)
    if trace is None:
        raise SimulationError(
            f"worker has no registered trace for workload {workload!r}; "
            "was the pool created without the trace initializer?"
        )
    return _simulate_cell(
        workload, policy, trace, config, warmup_fraction, sanitize, telemetry,
        engine, sampling, memory_budget_mb,
    )


def _pending_traces(
    pending: list[tuple[str, str]], traces: dict[str, Trace]
) -> dict[str, Trace]:
    """The subset of traces the pending cells actually reference."""
    needed: dict[str, Trace] = {}
    for workload, _ in pending:
        if workload not in needed:
            needed[workload] = traces[workload]
    return needed


def _simulate_group(
    workload: str,
    policies: list[str],
    trace: Trace,
    config: MachineConfig,
    warmup_fraction: float,
    telemetry: TelemetryConfig | None = None,
    memory_budget_mb: float | None = None,
) -> tuple[str, list[tuple[str, bool, SimulationResult | None]]]:
    """Worker entry point: one batch unit, a trace's cells on a shared plan.

    Builds one :class:`~repro.mem.batch.BatchPlan` and replays every
    batch-eligible policy against it. Returns per-policy outcomes as
    ``(policy, completed, result)``; cells that are not batch-eligible,
    or whose batched attempt raised, come back ``completed=False`` so
    the engine can route them through the ordinary per-cell machinery
    (with its own failure classification and retry semantics) instead of
    failing the whole unit. ``memory_budget_mb`` arms the RSS watchdog
    over the whole unit, as :func:`_simulate_cell` does over one cell: a
    breach raises :class:`~repro.errors.MemoryBudgetError` out of the
    unit, whose cells then fall back.
    """
    from ..core.simulator import build_hierarchy
    from ..mem.batch import BatchSimulator
    from ..mem.fastpath import fastpath_eligible

    sim: BatchSimulator | None = None
    plan_failed = False
    outcomes: list[tuple[str, bool, SimulationResult | None]] = []
    with memory_guard(memory_budget_mb):
        for policy in policies:
            try:
                hierarchy = build_hierarchy(config, policy)
                if plan_failed or not fastpath_eligible(hierarchy, trace):
                    outcomes.append((policy, False, None))
                    continue
                if sim is None:
                    try:
                        sim = BatchSimulator(
                            trace, config, warmup_fraction, telemetry
                        )
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception:
                        # Plan construction is shared state: if it fails
                        # once it fails for every policy, so stop
                        # re-attempting.
                        plan_failed = True
                        outcomes.append((policy, False, None))
                        continue
                outcomes.append((policy, True, sim.run_cell(policy, hierarchy)))
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                outcomes.append((policy, False, None))
    return workload, outcomes


def _simulate_group_by_name(
    workload: str,
    policies: list[str],
    config: MachineConfig,
    warmup_fraction: float,
    telemetry: TelemetryConfig | None = None,
    memory_budget_mb: float | None = None,
) -> tuple[str, list[tuple[str, bool, SimulationResult | None]]]:
    """Group worker entry resolving the trace from the worker registry."""
    trace = _WORKER_TRACES.get(workload)
    if trace is None:
        raise SimulationError(
            f"worker has no registered trace for workload {workload!r}; "
            "was the pool created without the trace initializer?"
        )
    return _simulate_group(
        workload, policies, trace, config, warmup_fraction, telemetry,
        memory_budget_mb,
    )


class SweepEngine:
    """Executes (workload x policy) sweeps with parallelism and caching.

    Parameters
    ----------
    cache_dir:
        Root of the on-disk result cache; ``None`` disables caching.
    jobs:
        Worker processes for the batch units and cells that must be
        simulated. ``1`` (the default) runs serially in-process.
    salt:
        Override the simulator-version salt (tests use this to model a
        core change without editing source files).
    journal_dir:
        Directory of crash-safe run journals (see
        :mod:`repro.resilience.durability`); each journaled sweep can be
        resumed after ``kill -9`` at the first incomplete cell. ``None``
        (the default) disables journaling; journaling also requires a
        cache, because the cache holds the results the journal points at.
        It must not be the cache root or lie inside it (cache
        maintenance would count, report or delete journal files);
        :class:`~repro.errors.ConfigurationError` otherwise.
    cache_max_bytes:
        Byte budget of the result cache: after every store the least-
        recently-used entries are pruned until the cache fits. ``None``
        leaves the cache unbounded.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        jobs: int = 1,
        salt: str | None = None,
        journal_dir: str | Path | None = None,
        cache_max_bytes: int | None = None,
    ) -> None:
        self.jobs = max(1, int(jobs or 1))
        self.salt = salt if salt is not None else simulator_salt()
        self.cache = (
            ResultCache(cache_dir, salt=self.salt, max_bytes=cache_max_bytes)
            if cache_dir
            else None
        )
        self.journal_dir = Path(journal_dir) if journal_dir else None
        if self.cache is not None and self.journal_dir is not None:
            if self.journal_dir.resolve().is_relative_to(self.cache.root.resolve()):
                raise ConfigurationError(
                    f"journal directory {self.journal_dir} lies inside the "
                    f"cache root {self.cache.root}; `repro cache prune` and "
                    "`clear` would delete resume state — use a sibling "
                    "directory"
                )

    @classmethod
    def from_env(cls, jobs: int | None = None) -> "SweepEngine":
        """An engine configured from the ``REPRO_*`` environment.

        ``REPRO_JOBS``, ``REPRO_CACHE_DIR``, ``REPRO_JOURNAL_DIR`` and
        ``REPRO_CACHE_MAX_BYTES`` are honoured. With none of them set
        this is a serial, uncached, journal-less engine — exactly the
        pre-engine behaviour, which keeps unit tests hermetic.
        """
        if jobs is None:
            raw = os.environ.get(ENV_JOBS, "").strip()
            jobs = int(raw) if raw else 1
        cache_dir = os.environ.get(ENV_CACHE_DIR, "").strip() or None
        journal_dir = os.environ.get(ENV_JOURNAL_DIR, "").strip() or None
        raw_budget = os.environ.get(ENV_CACHE_MAX_BYTES, "").strip()
        return cls(
            cache_dir=cache_dir,
            jobs=jobs,
            journal_dir=journal_dir if cache_dir else None,
            cache_max_bytes=int(raw_budget) if raw_budget else None,
        )

    # -- sweep execution ----------------------------------------------------

    def run(
        self,
        traces: dict[str, Trace] | list[Trace],
        policies: list[str],
        config: MachineConfig | None = None,
        warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
        progress: Callable[[str, str], None] | None = None,
        sanitize: bool = False,
        isolate_failures: bool = False,
        telemetry: TelemetryConfig | None = None,
        retry: RetryPolicy | None = None,
        chaos: "ChaosPlan | None" = None,
        engine: str = "fast",
        sampling: SamplingSpec | None = None,
        memory_budget_mb: float | None = None,
        shutdown: ShutdownCoordinator | None = None,
        drain_timeout: float = 30.0,
        journal_context: dict | None = None,
        failure_report_path: str | Path | None = None,
    ) -> SweepOutcome:
        """Run every (trace, policy) cell and assemble a :class:`RunMatrix`.

        Cells present in the cache are loaded without simulating; the
        rest run through one :class:`~repro.resilience.ResilientExecutor`:
        in process, or across ``jobs`` worker processes when ``jobs > 1``
        and more than one cell is pending or ``retry`` allows more than
        one attempt. Cell results land in the
        matrix in deterministic (workload, policy) order regardless of
        completion order. With ``isolate_failures`` a failing cell
        becomes a :class:`CellError` in the outcome and the rest of the
        sweep completes; otherwise the first failure propagates
        (completed cells are already checkpointed, so a rerun resumes
        past them). ``telemetry`` arms interval-resolved observability
        (:mod:`repro.telemetry`) on every cell; the configuration is
        part of each cell's cache key, so telemetry-armed results never
        collide with plain ones.

        ``retry`` sets how hard the executor fights for each cell
        (:mod:`repro.resilience`): transient failures are retried with
        deterministic backoff, a ``cell_timeout`` is enforced by a
        watchdog, and worker-pool deaths are recovered. ``None`` means
        :data:`SINGLE_ATTEMPT`: one attempt, and a worker death, timeout
        or memory-budget breach poisons the cell at once. Every failed
        attempt lands in the outcome's
        :class:`~repro.resilience.report.FailureReport`. A timeout (or a
        ``chaos`` plan) forces pool execution even at ``jobs=1``, since
        a hung in-process cell cannot be aborted. ``chaos`` injects
        faults from a seeded schedule (see
        :mod:`repro.resilience.chaos`); neither knob affects cell cache
        keys because neither changes what a *successful* cell computes.

        ``engine`` selects the simulation engine for uncached cells.
        ``"fast"`` (default; ``"batched"`` is a synonym) runs them in
        per-trace batch units (:mod:`repro.mem.batch`): each unit
        replays its batch-eligible policies against one shared
        access-stream plan, and what a unit leaves unfinished
        (ineligible or failed cells) falls back to the per-cell phase
        on the fast engine. With ``n = min(jobs, usable_cpus())`` at
        least twice the number of traces with pending cells, each
        trace's policies split into ``n // traces`` units, so units
        never outnumber workers or the CPUs the sweep may use. A
        unit gets ``cell_timeout`` once per policy it holds, runs under
        ``memory_budget_mb``, and hands its unfinished cells to the
        per-cell phase when it times out, breaches the budget or loses
        its worker; that phase classifies them. ``"reference"`` runs
        every cell on the reference loop. Sanitize, chaos and sampled
        sweeps skip the batched pass and run cell by cell. All paths
        are bit-identical, so the engine choice is deliberately *not*
        part of the cache key. The batched pass honours ``shutdown``
        between units.

        ``sampling`` runs every cell under representative-interval
        sampling (:mod:`repro.sampling`); the spec *is* part of the
        cache key, because sampled cells are estimates. Sampled sweeps
        are bit-identical between serial and parallel execution (the
        plan is a pure function of trace and spec), skip the batched
        pass (a batch plan replays every access by construction)
        and refuse telemetry, sanitize and chaos, which all need the
        full access stream.

        ``memory_budget_mb`` arms a per-worker RSS watchdog on every
        cell: a cell that blows the budget fails with a structured
        :class:`~repro.errors.MemoryBudgetError` (retried with a strike
        under ``retry``; poisoned at once otherwise) instead of drawing
        the OS OOM-killer onto the pool.

        With the engine's ``journal_dir`` set (and a cache configured),
        the sweep writes a crash-safe run journal: every finished cell
        is fsync'd as it completes, and re-running the identical sweep
        spec auto-resumes at the first incomplete cell — even after
        ``kill -9``. ``journal_context`` is an opaque document stored in
        the journal header (the CLI keeps its argv equivalent there so
        ``repro sweep --resume <run-id>`` can rebuild the sweep).

        ``shutdown`` (a :class:`~repro.resilience.durability.ShutdownCoordinator`)
        makes the sweep stop cooperatively on SIGTERM/SIGINT: submission
        halts, in-flight cells drain for at most ``drain_timeout``
        seconds, the journal and failure report flush, and the sweep
        raises :class:`~repro.errors.SweepInterrupted` naming the run id
        to resume from. ``failure_report_path`` persists the
        schema-versioned failure-report JSON there (default, when
        journaled: next to the journal) — on every such sweep, including
        interrupted ones, so a partial sweep still leaves complete
        accounting behind.
        """
        if engine not in ("fast", "reference", "batched"):
            raise ConfigurationError(
                f"unknown sweep engine {engine!r}; "
                "expected 'fast', 'reference' or 'batched'"
            )
        if sampling is not None:
            if telemetry is not None or sanitize:
                raise ConfigurationError(
                    "sampling cannot be combined with telemetry or the "
                    "sanitizer: both need every access of the measured region"
                )
            if chaos is not None:
                raise ConfigurationError(
                    "sampling cannot be combined with chaos injection"
                )
        if isinstance(traces, list):
            traces = {t.name: t for t in traces}
        if config is None:
            config = cascade_lake()

        cells = [(w, p) for w in traces for p in policies]
        stats = SweepStats()
        errors: dict[tuple[str, str], CellError] = {}
        resolved: dict[tuple[str, str], SimulationResult] = {}
        keys: dict[tuple[str, str], str] = {}
        pending: list[tuple[str, str]] = []
        quarantined_before = (
            self.cache.quarantined_count if self.cache is not None else 0
        )

        # The journal needs the cache: the journal records *that* a cell
        # finished, the cache holds *what* it computed. Without a cache
        # a resumed run could not restore any result.
        journal: RunJournal | None = None
        if self.journal_dir is not None and self.cache is not None:
            spec_doc = sweep_spec_doc(
                trace_digests={w: traces[w].digest() for w in traces},
                policies=list(policies),
                config_doc=config.to_json_dict(),
                warmup_fraction=warmup_fraction,
                sanitize=sanitize,
                telemetry_doc=(
                    telemetry.to_json_dict() if telemetry is not None else None
                ),
                sampling_doc=(
                    sampling.to_json_dict() if sampling is not None else None
                ),
                salt=self.salt,
            )
            journal = RunJournal.open_or_create(
                self.journal_dir, spec_doc, context=journal_context
            )
            if journal is not None and journal.resumed:
                stats.resumed = sum(
                    1 for cell in cells if cell in journal.completed_cells
                )

        for workload, policy in cells:
            if progress is not None:
                progress(workload, policy)
            if self.cache is not None:
                key = cell_key(
                    traces[workload], policy, config, warmup_fraction,
                    sanitize=sanitize, salt=self.salt, telemetry=telemetry,
                    sampling=sampling,
                )
                keys[(workload, policy)] = key
                cached = self.cache.load(key)
                if cached is not None:
                    resolved[(workload, policy)] = cached
                    stats.hits += 1
                    if journal is not None:
                        # Hit bursts are frequent and individually cheap
                        # to lose; batch their fsync into one flush.
                        journal.record_cell(
                            workload, policy, CELL_OK, key=key, sync=False
                        )
                    continue
            pending.append((workload, policy))
        if journal is not None:
            journal.flush()
        failure_report = FailureReport()
        if self.cache is not None:
            failure_report.quarantined_cache_entries = (
                self.cache.quarantined_count - quarantined_before
            )

        def record(workload: str, policy: str, result: SimulationResult) -> None:
            resolved[(workload, policy)] = result
            stats.simulated += 1
            key = None
            if self.cache is not None:
                key = keys[(workload, policy)]
                self.cache.store(key, result)
            if journal is not None:
                # Cache store first, then the fsync'd journal record: a
                # crash in between leaves a cache entry without a record
                # (a plain hit on resume), never a record without data.
                journal.record_cell(workload, policy, CELL_OK, key=key)

        def record_failure(
            workload: str, policy: str, exc: BaseException, kind: FailureKind
        ) -> None:
            if journal is not None:
                status = CELL_POISONED if kind is FailureKind.POISON else CELL_FAILED
                journal.record_cell(
                    workload, policy, status, classification=kind.value
                )
            if not isolate_failures:
                raise exc
            stats.errors += 1
            errors[(workload, policy)] = CellError(
                workload=workload,
                policy=policy,
                error_type=type(exc).__name__,
                message=str(exc),
                classification=kind.value,
                traceback="".join(
                    traceback_module.format_exception(type(exc), exc, exc.__traceback__)
                ),
            )

        cell_engine = "fast" if engine == "batched" else engine
        if chaos is not None:
            from ..resilience.chaos import _chaos_simulate_cell

            def submit(pool, workload: str, policy: str, attempt: int):  # noqa: ARG001
                return pool.submit(
                    _chaos_simulate_cell, chaos, workload, policy,
                    traces[workload], config, warmup_fraction, sanitize,
                    telemetry, memory_budget_mb,
                )
        else:
            def submit(pool, workload: str, policy: str, attempt: int):  # noqa: ARG001
                # Traces live in the worker-side registry (installed by
                # the pool initializer); submit names only.
                return pool.submit(
                    _simulate_cell_by_name, workload, policy,
                    config, warmup_fraction, sanitize, telemetry, cell_engine,
                    sampling, memory_budget_mb,
                )

        def run_inline(workload: str, policy: str, attempt: int):  # noqa: ARG001
            return _simulate_cell(
                workload, policy, traces[workload], config, warmup_fraction,
                sanitize, telemetry, cell_engine, sampling, memory_budget_mb,
            )

        retry = retry if retry is not None else SINGLE_ATTEMPT

        def in_pool(units: int) -> bool:
            # A hung or crashing in-process cell takes the sweep with it,
            # so the watchdog and chaos injection need the pool even at
            # jobs=1, and a retried sweep at jobs > 1 keeps a lone unit
            # or cell there too: a worker-killing cell then ends up
            # poisoned instead of taking the sweep down.
            return (
                retry.cell_timeout is not None
                or chaos is not None
                or (self.jobs > 1 and (units > 1 or retry.max_attempts > 1))
            )

        finished = False
        try:
            # The batched pass runs first and only handles what it can:
            # eligible cells complete through shared per-trace plans, the
            # rest stay pending for the per-cell phase below (which
            # preserves retry classification, chaos injection and
            # sanitizer semantics the batch path deliberately excludes).
            if (
                engine != "reference" and pending and not sanitize
                and chaos is None and sampling is None
            ):
                stats.fallbacks = self._run_batched(
                    pending, traces, config, warmup_fraction, telemetry,
                    memory_budget_mb, retry.cell_timeout, in_pool,
                    record, shutdown, drain_timeout,
                )
                pending = [cell for cell in pending if cell not in resolved]

            executor = self._executor(
                retry, len(pending), pending, traces,
                submit=submit,
                run_inline=run_inline,
                on_success=lambda workload, policy, payload: record(
                    workload, policy, payload[2]
                ),
                on_failure=record_failure,
                report=failure_report,
                shutdown=shutdown,
                drain_timeout=drain_timeout,
            )
            if pending and in_pool(len(pending)):
                self._run_parallel(executor, pending)
            else:
                executor.run_serial(pending)

            if (
                shutdown is not None
                and shutdown.requested
                and len(resolved) + len(errors) < len(cells)
            ):
                done = len(resolved) + len(errors)
                raise SweepInterrupted(
                    f"sweep interrupted by {shutdown.signal_name or 'shutdown'}"
                    f" after {done}/{len(cells)} cells"
                    + (
                        f"; resume with run id {journal.run_id}"
                        if journal is not None
                        else ""
                    ),
                    run_id=journal.run_id if journal is not None else None,
                )
            finished = True
        finally:
            # Runs on success, interrupt (including KeyboardInterrupt on
            # the serial path) and failure alike: seal the journal and
            # persist the failure report so a partial sweep still leaves
            # complete, resumable accounting on disk.
            if journal is not None:
                journal.close(
                    complete=finished
                    and len(resolved) + len(errors) == len(cells)
                )
            report_target = failure_report_path
            if report_target is None and journal is not None:
                report_target = journal.failure_report_path
            if report_target is not None:
                try:
                    write_failure_report(
                        report_target, failure_report.to_json_dict()
                    )
                except OSError as exc:
                    warnings.warn(
                        f"could not persist the failure report to "
                        f"{report_target} ({exc})",
                        RuntimeWarning,
                        stacklevel=2,
                    )

        matrix = RunMatrix(config=config)
        for workload in traces:
            row = {
                policy: resolved[(workload, policy)]
                for policy in policies
                if (workload, policy) in resolved
            }
            if row:
                matrix.results[workload] = row
        return SweepOutcome(
            matrix=matrix, errors=errors, stats=stats,
            failure_report=failure_report,
            run_id=journal.run_id if journal is not None else None,
            journal_path=journal.path if journal is not None else None,
        )

    def _executor(
        self,
        retry: RetryPolicy,
        units: int,
        pending: list[tuple[str, str]],
        traces: dict[str, Trace],
        **callbacks,
    ) -> ResilientExecutor:
        """An executor for ``units`` work items over ``pending``'s traces.

        ``callbacks`` are the remaining :class:`ResilientExecutor`
        arguments. Every pool generation (including watchdog rebuilds)
        installs the pending cells' traces in its workers, so work can
        be submitted by workload name.
        """
        workers = min(self.jobs, units)

        def pool_factory() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_install_worker_traces,
                initargs=(_pending_traces(pending, traces),),
            )

        return ResilientExecutor(
            retry=retry, workers=workers, pool_factory=pool_factory, **callbacks
        )

    def _run_parallel(
        self, executor: ResilientExecutor, units: list[tuple[str, str]]
    ) -> None:
        """Run one phase's work items (batch units or cells) in a pool.

        A method of its own so that a profiler can time the pool phases
        by name (the benchmark's traced mode wraps it).
        """
        executor.run_pool(units)

    def _run_batched(
        self,
        pending: list[tuple[str, str]],
        traces: dict[str, Trace],
        config: MachineConfig,
        warmup_fraction: float,
        telemetry: TelemetryConfig | None,
        memory_budget_mb: float | None,
        cell_timeout: float | None,
        in_pool: Callable[[int], bool],
        record: Callable[[str, str, SimulationResult], None],
        shutdown: ShutdownCoordinator | None,
        drain_timeout: float,
    ) -> int:
        """Run pending cells through per-trace batch units (see :meth:`run`).

        Each unit replays its batch-eligible policies against one shared
        :class:`~repro.mem.batch.BatchPlan`. Units are the executor's
        work items, under :data:`SINGLE_ATTEMPT` with ``cell_timeout``
        once per policy of the largest unit; ``in_pool`` decides from
        the unit count whether they run in a pool. Completed cells are
        recorded (and checkpointed) at once; everything else stays
        pending for the per-cell phase, which owns failure
        classification and retries. Returns how many cells units handed
        over that way; the cells of units that never ran (a shutdown
        stops the pass between units) are not counted.
        """
        groups: dict[str, list[str]] = {}
        for workload, policy in pending:
            groups.setdefault(workload, []).append(policy)
        # Split a trace only into units that each get a worker, and a
        # CPU, of their own: a unit queued behind another of its trace
        # would repeat the plan pass on the critical path, and units
        # sharing a CPU each pay the plan pass at a fraction of its speed.
        parts = max(1, min(self.jobs, usable_cpus()) // len(groups))
        units: dict[tuple[str, str], list[str]] = {}
        for workload, policies in groups.items():
            share = min(parts, len(policies))
            for part in range(share):
                units[(workload, str(part))] = policies[part::share]
        largest = max(len(policies) for policies in units.values())
        retry = replace(
            SINGLE_ATTEMPT,
            cell_timeout=None if cell_timeout is None else cell_timeout * largest,
        )
        fallbacks = 0

        def submit(pool, workload: str, unit: str, attempt: int):  # noqa: ARG001
            return pool.submit(
                _simulate_group_by_name, workload, units[(workload, unit)],
                config, warmup_fraction, telemetry, memory_budget_mb,
            )

        def run_inline(workload: str, unit: str, attempt: int):  # noqa: ARG001
            return _simulate_group(
                workload, units[(workload, unit)], traces[workload], config,
                warmup_fraction, telemetry, memory_budget_mb,
            )

        def on_success(workload: str, unit: str, payload: object) -> None:  # noqa: ARG001
            nonlocal fallbacks
            _, outcomes = payload  # type: ignore[misc]
            for policy, completed, result in outcomes:
                if completed and result is not None:
                    record(workload, policy, result)
                else:
                    fallbacks += 1

        def on_failure(workload: str, unit: str, *failure: object) -> None:  # noqa: ARG001
            # A failed unit forfeits only its batch: its cells stay
            # pending and are classified by the per-cell phase.
            nonlocal fallbacks
            fallbacks += len(units[(workload, unit)])

        executor = self._executor(
            retry, len(units), pending, traces,
            submit=submit,
            run_inline=run_inline,
            on_success=on_success,
            on_failure=on_failure,
            report=FailureReport(),
            shutdown=shutdown,
            drain_timeout=drain_timeout,
        )
        if in_pool(len(units)):
            self._run_parallel(executor, list(units))
        else:
            executor.run_serial(units)
        return fallbacks
