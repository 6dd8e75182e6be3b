"""Fault-tolerant execution of sweep cells.

:class:`ResilientExecutor` is the only loop that runs the cells of a
sweep, in process (:meth:`~ResilientExecutor.run_serial`) or in a
worker pool (:meth:`~ResilientExecutor.run_pool`), at any ``jobs``. A
sweep without a :class:`~repro.resilience.policy.RetryPolicy` runs
under a one-attempt policy, so classification, poison isolation, the
failure report and shutdown behave the same with and without retries.
It owns three recovery mechanisms:

* **Retry with deterministic backoff** — transient failures are retried
  up to ``max_attempts`` with exponential backoff and seeded jitter;
  deterministic failures fail fast.
* **Watchdog timeouts** — each in-flight cell carries a wall-clock
  deadline. A cell that blows it has its worker pool torn down (a hung
  worker cannot be cancelled politely), is charged a strike, and is
  retried; innocent in-flight cells are resubmitted at the *same*
  attempt number with no penalty.
* **``BrokenProcessPool`` recovery** — a worker dying (OOM killer,
  ``os._exit``, segfault) breaks the whole ``ProcessPoolExecutor``. The
  executor rebuilds the pool, charges a strike to every cell whose
  future died with it (the culprit cannot be singled out post-mortem;
  innocents rotate, so spurious strikes do not accumulate on any one
  cell), and resubmits. A cell that keeps killing workers past
  ``poison_strikes`` is marked **poison** and abandoned so the rest of
  the matrix can finish.

Submission is bounded to the worker count, so every in-flight future is
actually running — deadlines measure real wall-clock execution, and a
pool break never charges strikes to cells that were still queued.
Freed slots are refilled before the finished cells' callbacks run, so
workers do not idle while the caller stores results. A refill that
finds the pool already broken puts its cell back at the head of the
queue, also without a strike.

Every absorbed failure lands in the shared
:class:`~repro.resilience.report.FailureReport`.
"""

from __future__ import annotations

import heapq
import itertools
import time
import traceback as traceback_module
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..errors import CellTimeoutError, MemoryBudgetError
from .durability import ShutdownCoordinator
from .policy import FailureKind, RetryPolicy, classify_failure
from .report import (
    OUTCOME_FAILED,
    OUTCOME_POISONED,
    OUTCOME_RECOVERED,
    CellAttempt,
    FailureReport,
)

#: Floor on the wait() slice so a pathological deadline spread cannot
#: degenerate into a busy loop.
_MIN_WAIT = 0.01

#: Ceiling on waits while a shutdown coordinator is armed: Python signal
#: handlers cannot interrupt ``concurrent.futures.wait`` or a PEP-475
#: ``time.sleep``, so the loop must come up for air to see the flag.
_SHUTDOWN_POLL = 0.5


@dataclass
class _CellState:
    """Mutable per-cell bookkeeping while the sweep is in flight."""

    workload: str
    policy: str
    attempt: int = 1
    strikes: int = 0  # worker-killing faults (pool breaks, timeouts)

    @property
    def cell_id(self) -> str:
        return f"{self.workload} x {self.policy}"


class ResilientExecutor:
    """Runs sweep cells under a :class:`RetryPolicy`.

    Parameters
    ----------
    retry:
        The retry/timeout/backoff policy.
    workers:
        Worker processes for the pool path (``run_pool``).
    submit:
        ``submit(pool, workload, policy, attempt) -> Future`` — builds
        the worker call for one attempt of one cell.
    run_inline:
        ``run_inline(workload, policy, attempt) -> result`` — the serial
        in-process equivalent (``run_serial``).
    on_success:
        Called with ``(workload, policy, result)`` for every finished
        cell.
    on_failure:
        Called with ``(workload, policy, exc, kind)`` when a cell is
        abandoned (retries exhausted, deterministic, or poison). May
        raise to abort the sweep; the executor then tears the pool down.
    report:
        Shared :class:`FailureReport` receiving every absorbed attempt.
    pool_factory:
        Optional ``() -> ProcessPoolExecutor`` used for every pool
        generation (initial creation and post-recycle rebuilds). The
        sweep engine uses it to install per-worker state — the trace
        registry — via a pool initializer; ``None`` falls back to a
        plain pool of ``workers`` processes.
    shutdown:
        Optional :class:`~repro.resilience.durability.ShutdownCoordinator`.
        When its flag is raised the executor stops submitting, drains
        in-flight cells for at most ``drain_timeout`` seconds, and
        returns — unfinished cells are simply left unrun (the journal
        marks them incomplete, so a resume re-runs them).
    """

    def __init__(
        self,
        retry: RetryPolicy,
        workers: int,
        submit: Callable[[ProcessPoolExecutor, str, str, int], Future],
        run_inline: Callable[[str, str, int], object],
        on_success: Callable[[str, str, object], None],
        on_failure: Callable[[str, str, BaseException, FailureKind], None],
        report: FailureReport,
        pool_factory: Callable[[], ProcessPoolExecutor] | None = None,
        shutdown: ShutdownCoordinator | None = None,
        drain_timeout: float = 30.0,
    ) -> None:
        self.retry = retry
        self.workers = max(1, workers)
        self.submit = submit
        self.run_inline = run_inline
        self.on_success = on_success
        self.on_failure = on_failure
        self.report = report
        self.pool_factory = pool_factory
        self.shutdown = shutdown
        self.drain_timeout = drain_timeout

    def _stopping(self) -> bool:
        return self.shutdown is not None and self.shutdown.requested

    # -- shared bookkeeping -------------------------------------------------

    def _succeed(self, cell: _CellState, result: object) -> None:
        if (cell.workload, cell.policy) in self.report.cells:
            self.report.record_outcome(cell.workload, cell.policy, OUTCOME_RECOVERED)
        self.on_success(cell.workload, cell.policy, result)

    def _absorb(
        self,
        cell: _CellState,
        exc: BaseException,
        duration: float,
        strike: bool,
        reschedule: Callable[[_CellState, float], None],
    ) -> None:
        """Classify one failed attempt; retry, or abandon the cell."""
        kind = classify_failure(exc)
        if strike:
            cell.strikes += 1
            if kind is FailureKind.TRANSIENT and cell.strikes >= self.retry.poison_strikes:
                kind = FailureKind.POISON
        retrying = self.retry.should_retry(kind, cell.attempt)
        backoff = self.retry.backoff_for(cell.cell_id, cell.attempt) if retrying else 0.0
        self.report.record_attempt(
            cell.workload,
            cell.policy,
            CellAttempt(
                attempt=cell.attempt,
                classification=kind.value,
                error_type=type(exc).__name__,
                message=str(exc),
                traceback="".join(
                    traceback_module.format_exception(type(exc), exc, exc.__traceback__)
                ),
                duration=duration,
                backoff=backoff,
            ),
        )
        if retrying:
            cell.attempt += 1
            reschedule(cell, backoff)
            return
        outcome = OUTCOME_POISONED if kind is FailureKind.POISON else OUTCOME_FAILED
        self.report.record_outcome(cell.workload, cell.policy, outcome)
        self.on_failure(cell.workload, cell.policy, exc, kind)

    # -- serial path --------------------------------------------------------

    def run_serial(self, cells: Iterable[tuple[str, str]]) -> None:
        """Retry loop without a pool (no timeout enforcement possible).

        The engine routes timeout-armed or chaos-armed sweeps to
        :meth:`run_pool` even at ``jobs=1``; every other sweep with one
        worker (or one pending cell and a single attempt) runs here, in
        process.
        """
        for workload, policy in cells:
            if self._stopping():
                return  # remaining cells stay unrun (resumable)
            cell = _CellState(workload, policy)
            while True:
                started = time.monotonic()
                try:
                    result = self.run_inline(cell.workload, cell.policy, cell.attempt)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    retry_delay: list[float] = []
                    self._absorb(
                        cell,
                        exc,
                        duration=time.monotonic() - started,
                        # Memory-budget breaches strike even in-process:
                        # a cell that keeps blowing its budget must walk
                        # the same ladder to poison as a worker-killer.
                        strike=isinstance(exc, MemoryBudgetError),
                        reschedule=lambda _cell, backoff: retry_delay.append(backoff),
                    )
                    if not retry_delay:
                        break  # abandoned (on_failure already ran)
                    if self._stopping():
                        break  # skip the backoff wait; cell resumes later
                    time.sleep(retry_delay[0])
                else:
                    self._succeed(cell, result)
                    break

    # -- pool path ----------------------------------------------------------

    def run_pool(self, cells: Iterable[tuple[str, str]]) -> None:
        """Fan cells over a process pool with watchdog + rebuild.

        When every cell has finished, the pool shuts down normally, so
        its workers run their exit handlers. Workers are terminated
        only on abort, timeout, pool break or shutdown drain.
        """
        timeout = self.retry.cell_timeout
        seq = itertools.count()  # heap tie-breaker
        queue: deque[_CellState] = deque(_CellState(w, p) for w, p in cells)
        delayed: list[tuple[float, int, _CellState]] = []  # backoff heap
        inflight: dict[Future, tuple[_CellState, float, float]] = {}  # start, deadline
        pool: ProcessPoolExecutor | None = None

        def reschedule(cell: _CellState, backoff: float) -> None:
            heapq.heappush(delayed, (time.monotonic() + backoff, next(seq), cell))

        def fill() -> None:
            nonlocal pool
            while queue and len(inflight) < self.workers:
                cell = queue.popleft()
                if pool is None:
                    pool = (
                        self.pool_factory()
                        if self.pool_factory is not None
                        else ProcessPoolExecutor(max_workers=self.workers)
                    )
                try:
                    future = self.submit(pool, cell.workload, cell.policy, cell.attempt)
                except BrokenProcessPool:
                    # The pool broke since wait() returned. The cell never
                    # ran, so it goes back first in line without a strike;
                    # in-flight cells report the break through their
                    # futures, and with none in flight the pool is
                    # recycled here.
                    queue.appendleft(cell)
                    if not inflight:
                        pool = self._recycle_pool(pool, inflight, queue, kill=False)
                    return
                started = time.monotonic()
                deadline = float("inf") if timeout is None else started + timeout
                inflight[future] = (cell, started, deadline)

        completed = False
        try:
            while queue or delayed or inflight:
                if self._stopping():
                    self._drain(inflight)
                    return  # queue/delayed cells stay unrun (resumable)
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    queue.append(heapq.heappop(delayed)[2])
                fill()

                if not inflight:
                    if delayed:  # everything is backing off
                        pause = max(_MIN_WAIT, delayed[0][0] - time.monotonic())
                        if self.shutdown is not None:
                            # Signal handlers cannot interrupt the sleep
                            # (PEP 475 retries it); poll the flag instead.
                            pause = min(pause, _SHUTDOWN_POLL)
                        time.sleep(pause)
                    continue

                done, _ = wait(
                    set(inflight),
                    timeout=self._wait_slice(inflight, delayed),
                    return_when=FIRST_COMPLETED,
                )
                ended = time.monotonic()
                finished = [(future, *inflight.pop(future)) for future in done]
                pool_broke = any(
                    isinstance(future.exception(), BrokenProcessPool)
                    for future in done
                )
                if not pool_broke and not self._stopping():
                    # Keep the workers busy while the callbacks below
                    # store results and journal them.
                    fill()

                for future, cell, started, _ in finished:
                    duration = ended - started
                    try:
                        result = future.result()
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BrokenProcessPool as exc:
                        self._absorb(cell, exc, duration, strike=True,
                                     reschedule=reschedule)
                    except Exception as exc:
                        # A memory-budget breach counts as a strike: the
                        # worker survived (unlike an OOM kill), but a
                        # cell that keeps blowing its budget must still
                        # reach poison before the OS OOM-killer does.
                        self._absorb(cell, exc, duration,
                                     strike=isinstance(exc, MemoryBudgetError),
                                     reschedule=reschedule)
                    else:
                        self._succeed(cell, result)

                if pool_broke:
                    pool = self._recycle_pool(pool, inflight, queue, kill=False)
                    continue

                if timeout is not None:
                    now = time.monotonic()
                    expired = [f for f, (_, _, dl) in inflight.items() if dl <= now]
                    for future in expired:
                        cell, started, _ = inflight.pop(future)
                        exc = CellTimeoutError(
                            f"cell {cell.cell_id} exceeded its {timeout:g}s "
                            f"wall-clock budget (attempt {cell.attempt})"
                        )
                        self._absorb(cell, exc, now - started, strike=True,
                                     reschedule=reschedule)
                    if expired:
                        # The hung worker cannot be cancelled; kill the
                        # pool and resubmit the innocent in-flight cells
                        # at the same attempt with no penalty.
                        pool = self._recycle_pool(pool, inflight, queue, kill=True)
            completed = True
        finally:
            if pool is not None:
                if completed:
                    pool.shutdown(wait=True)
                else:
                    self._shutdown_pool(pool, kill=True)

    def _wait_slice(
        self,
        inflight: dict[Future, tuple[_CellState, float, float]],
        delayed: list[tuple[float, int, _CellState]],
    ) -> float | None:
        """How long wait() may block before a deadline or backoff expiry."""
        now = time.monotonic()
        horizon = min(deadline for _, _, deadline in inflight.values())
        if delayed:
            horizon = min(horizon, delayed[0][0])
        if self.shutdown is not None:
            return min(_SHUTDOWN_POLL, max(_MIN_WAIT, horizon - now))
        if horizon == float("inf"):
            return None
        return max(_MIN_WAIT, horizon - now)

    def _drain(self, inflight: dict[Future, tuple[_CellState, float, float]]) -> None:
        """Give in-flight cells a bounded window to finish, then stop.

        Completed cells are recorded (and checkpointed by the engine's
        callbacks) like any other; cells that fail — or are still
        running when the drain deadline expires — are left unfinished
        without retrying, so the journal marks them incomplete and a
        resume re-runs them. The caller's ``finally`` kills the pool.
        """
        deadline = time.monotonic() + self.drain_timeout
        while inflight and time.monotonic() < deadline:
            done, _ = wait(set(inflight), timeout=0.25,
                           return_when=FIRST_COMPLETED)
            for future in done:
                cell, started, _ = inflight.pop(future)
                duration = time.monotonic() - started
                try:
                    result = future.result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    # Account for the attempt but never resubmit during
                    # a shutdown; the cell simply stays unfinished.
                    self.report.record_attempt(
                        cell.workload,
                        cell.policy,
                        CellAttempt(
                            attempt=cell.attempt,
                            classification=classify_failure(exc).value,
                            error_type=type(exc).__name__,
                            message=str(exc),
                            duration=duration,
                        ),
                    )
                else:
                    self._succeed(cell, result)

    def _recycle_pool(
        self,
        pool: ProcessPoolExecutor | None,
        inflight: dict[Future, tuple[_CellState, float, float]],
        queue: deque[_CellState],
        kill: bool,
    ) -> None:
        """Tear the pool down and resubmit innocent in-flight cells.

        Cells still in ``inflight`` were victims of the teardown, not
        its cause — they rejoin the queue at the same attempt number.
        """
        survivors = [cell for cell, _, _ in inflight.values()]
        inflight.clear()
        queue.extend(survivors)
        if pool is not None:
            self._shutdown_pool(pool, kill=kill)
            self.report.pool_rebuilds += 1
        return None

    @staticmethod
    def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
        if kill:
            # Hung workers ignore a polite shutdown; terminate them.
            # ``_processes`` is CPython-private but stable since 3.7 and
            # the only handle on the worker PIDs; degrade to a plain
            # shutdown if it ever disappears.
            try:
                for process in list(pool._processes.values()):
                    process.terminate()
            except (AttributeError, OSError):  # pragma: no cover - fallback
                pass
        pool.shutdown(wait=False, cancel_futures=True)
