"""Tests for the fault-tolerance layer: retry policy, classification,
resilient execution (timeouts, BrokenProcessPool recovery, poison),
cache integrity/quarantine, and the chaos harness end-to-end."""

import itertools
import json
import multiprocessing
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from conftest import inject_cell_faults
from repro.core.config import CacheConfig, MachineConfig
from repro.errors import (
    CacheIntegrityError,
    CellTimeoutError,
    ConfigurationError,
    MemoryBudgetError,
    UnknownPolicyError,
)
from repro.harness.engine import ResultCache, SweepEngine, result_checksum
from repro.resilience import (
    ChaosPlan,
    FailureKind,
    FailureReport,
    ResilientExecutor,
    RetryPolicy,
    classify_failure,
)
from repro.resilience.chaos import plan_chaos, run_chaos
from repro.resilience.durability import RunJournal, ShutdownCoordinator
from repro.resilience.report import (
    OUTCOME_POISONED,
    OUTCOME_RECOVERED,
    CellAttempt,
)
from repro.trace import synthetic


def tiny_config() -> MachineConfig:
    return MachineConfig(
        l1i=CacheConfig("L1I", 1024, 2, hit_latency=1),
        l1d=CacheConfig("L1D", 1024, 2, hit_latency=1),
        l2=CacheConfig("L2C", 4096, 4, hit_latency=4),
        llc=CacheConfig("LLC", 8192, 4, hit_latency=8),
    )


@pytest.fixture(scope="module")
def traces():
    return {
        "zipf": synthetic.zipf_reuse(2000, num_blocks=200, seed=1),
        "stream": synthetic.strided(2000, stride=64, elements=100),
    }


FAST_RETRY = dict(backoff_base=0.01, backoff_max=0.05)


class TestRetryPolicy:
    def test_backoff_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        for attempt in (1, 2, 3):
            assert a.backoff_for("w x p", attempt) == b.backoff_for("w x p", attempt)

    def test_backoff_jitter_varies_by_cell_attempt_and_seed(self):
        p = RetryPolicy(seed=7)
        assert p.jitter_fraction("a", 1) != p.jitter_fraction("b", 1)
        assert p.jitter_fraction("a", 1) != p.jitter_fraction("a", 2)
        assert p.jitter_fraction("a", 1) != RetryPolicy(seed=8).jitter_fraction("a", 1)

    def test_backoff_grows_exponentially_and_clamps(self):
        p = RetryPolicy(backoff_base=1.0, backoff_factor=2.0, backoff_max=3.0,
                        jitter=0.0)
        assert p.backoff_for("c", 1) == 1.0
        assert p.backoff_for("c", 2) == 2.0
        assert p.backoff_for("c", 3) == 3.0  # clamped, would be 4.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(cell_timeout=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(poison_strikes=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)

    def test_should_retry_only_transient_within_budget(self):
        p = RetryPolicy(max_attempts=2)
        assert p.should_retry(FailureKind.TRANSIENT, 1)
        assert not p.should_retry(FailureKind.TRANSIENT, 2)
        assert not p.should_retry(FailureKind.DETERMINISTIC, 1)
        assert not p.should_retry(FailureKind.POISON, 1)


class TestClassification:
    def test_taxonomy(self):
        assert classify_failure(MemoryError()) is FailureKind.POISON
        assert classify_failure(BrokenProcessPool("dead")) is FailureKind.TRANSIENT
        assert classify_failure(CellTimeoutError("slow")) is FailureKind.TRANSIENT
        assert classify_failure(OSError("io")) is FailureKind.TRANSIENT
        assert classify_failure(UnknownPolicyError("nope")) is FailureKind.DETERMINISTIC
        assert classify_failure(ValueError("bug")) is FailureKind.DETERMINISTIC


class TestFailureReport:
    def _attempt(self, n=1, kind=FailureKind.TRANSIENT):
        return CellAttempt(attempt=n, classification=kind.value,
                           error_type="OSError", message="io", backoff=0.1)

    def test_clean_and_aggregates(self):
        report = FailureReport()
        assert report.clean
        report.record_attempt("w", "p", self._attempt())
        report.record_outcome("w", "p", OUTCOME_RECOVERED)
        report.record_attempt("w", "q", self._attempt())
        assert not report.clean  # w x q defaulted to failed
        assert len(report.recovered) == 1
        assert len(report.failed) == 1
        assert report.total_failed_attempts == 2
        assert len(report.attempts_of_kind(FailureKind.TRANSIENT)) == 2
        assert len(report.attempts_with_error("OSError")) == 2

    def test_render_and_json(self):
        report = FailureReport()
        assert "clean" in report.render()
        report.record_attempt("w", "p", self._attempt())
        report.record_outcome("w", "p", OUTCOME_POISONED)
        text = report.render()
        assert "w x p" in text and "poisoned" in text
        md = report.render(markdown=True)
        assert md.startswith("### Failure report")
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["cells"][0]["outcome"] == "poisoned"


class TestResilientExecutorSerial:
    """Unit-level retry loop driven by an injectable inline runner."""

    def _executor(self, run_inline, retry=None, report=None):
        failures = []
        successes = []
        executor = ResilientExecutor(
            retry=retry or RetryPolicy(max_attempts=3, **FAST_RETRY),
            workers=1,
            submit=lambda *a: pytest.fail("serial path must not use a pool"),
            run_inline=run_inline,
            on_success=lambda w, p, r: successes.append((w, p, r)),
            on_failure=lambda w, p, e, k: failures.append((w, p, e, k)),
            report=report if report is not None else FailureReport(),
        )
        return executor, successes, failures

    def test_transient_failure_recovers(self):
        calls = []

        def flaky(workload, policy, attempt):
            calls.append(attempt)
            if attempt < 3:
                raise OSError("transient")
            return "ok"

        report = FailureReport()
        executor, successes, failures = self._executor(flaky, report=report)
        executor.run_serial([("w", "p")])
        assert calls == [1, 2, 3]
        assert successes == [("w", "p", "ok")]
        assert not failures
        history = report.cells[("w", "p")]
        assert history.outcome == OUTCOME_RECOVERED
        assert [a.attempt for a in history.attempts] == [1, 2]
        assert all(a.backoff > 0 for a in history.attempts)

    def test_deterministic_failure_fails_fast(self):
        calls = []

        def broken(workload, policy, attempt):
            calls.append(attempt)
            raise ValueError("bug")

        executor, successes, failures = self._executor(broken)
        executor.run_serial([("w", "p")])
        assert calls == [1], "deterministic failures must not be retried"
        assert failures[0][3] is FailureKind.DETERMINISTIC

    def test_memory_error_is_poison(self):
        def oom(workload, policy, attempt):
            raise MemoryError("oom")

        report = FailureReport()
        executor, _, failures = self._executor(oom, report=report)
        executor.run_serial([("w", "p")])
        assert failures[0][3] is FailureKind.POISON
        assert report.cells[("w", "p")].outcome == OUTCOME_POISONED

    def test_retries_exhausted_fails(self):
        def always(workload, policy, attempt):
            raise OSError("transient forever")

        retry = RetryPolicy(max_attempts=2, **FAST_RETRY)
        executor, _, failures = self._executor(always, retry=retry)
        executor.run_serial([("w", "p")])
        assert len(failures) == 1
        assert failures[0][3] is FailureKind.TRANSIENT

    def test_strike_budget_turns_transient_into_poison(self):
        report = FailureReport()
        executor, _, failures = self._executor(
            lambda *a: None,
            retry=RetryPolicy(max_attempts=10, poison_strikes=2, **FAST_RETRY),
            report=report,
        )
        from repro.resilience.executor import _CellState

        cell = _CellState("w", "p")
        rescheduled = []
        executor._absorb(cell, BrokenProcessPool("x"), 0.0, strike=True,
                         reschedule=lambda c, b: rescheduled.append(b))
        assert rescheduled, "first strike retries"
        executor._absorb(cell, BrokenProcessPool("x"), 0.0, strike=True,
                         reschedule=lambda c, b: rescheduled.append(b))
        assert len(rescheduled) == 1, "second strike hits the poison budget"
        assert failures[0][3] is FailureKind.POISON
        assert report.cells[("w", "p")].outcome == OUTCOME_POISONED


class TestEngineResilience:
    def test_retry_policy_without_faults_is_transparent(self, traces):
        config = tiny_config()
        plain = SweepEngine(jobs=1).run(traces, ["lru"], config=config)
        resilient = SweepEngine(jobs=1).run(
            traces, ["lru"], config=config,
            retry=RetryPolicy(max_attempts=3, **FAST_RETRY),
        )
        assert resilient.matrix.results == plain.matrix.results
        assert resilient.failure_report is not None
        assert resilient.failure_report.clean
        assert not resilient.failure_report.cells

    def test_deterministic_failure_isolated_with_classification(self, traces):
        outcome = SweepEngine(jobs=1).run(
            traces, ["lru", "no-such-policy"], config=tiny_config(),
            isolate_failures=True,
            retry=RetryPolicy(max_attempts=3, **FAST_RETRY),
        )
        assert outcome.stats.errors == 2
        assert outcome.stats.simulated == 2
        for workload in traces:
            error = outcome.errors[(workload, "no-such-policy")]
            assert error.classification == "deterministic"
            history = outcome.failure_report.cells[(workload, "no-such-policy")]
            assert len(history.attempts) == 1, "no retries for deterministic"

    def test_serial_memory_error_marked_poison(self, traces, monkeypatch):
        def oom(workload, policy):
            raise MemoryError("worker would be OOM-killed")

        inject_cell_faults(monkeypatch, traces, oom)
        outcome = SweepEngine(jobs=1).run(
            traces, ["lru"], config=tiny_config(), isolate_failures=True,
        )
        assert outcome.stats.errors == 2
        for error in outcome.errors.values():
            assert error.classification == "poison"
            assert error.error_type == "MemoryError"

    def test_broken_pool_recovery_bit_identical(self, traces, tmp_path):
        """A chaos-crashed worker breaks the pool; the sweep still matches
        a fault-free run bit for bit."""
        config = tiny_config()
        baseline = SweepEngine(jobs=1).run(traces, ["lru", "srrip"], config=config)

        plan = ChaosPlan(marker_dir=str(tmp_path), crash_cells=(("zipf", "srrip"),))
        outcome = SweepEngine(jobs=2).run(
            traces, ["lru", "srrip"], config=config, isolate_failures=True,
            retry=RetryPolicy(max_attempts=3, **FAST_RETRY), chaos=plan,
        )
        assert not outcome.errors
        assert outcome.matrix.results == baseline.matrix.results
        report = outcome.failure_report
        assert report.pool_rebuilds >= 1
        assert report.attempts_with_error("BrokenProcessPool")
        assert report.cells[("zipf", "srrip")].outcome == OUTCOME_RECOVERED
        assert report.clean

    def test_timeout_aborts_and_retries_hung_cell(self, traces, tmp_path):
        """A hung cell is killed at the deadline and recovered on retry,
        even at jobs=1 (the watchdog forces pool execution)."""
        config = tiny_config()
        baseline = SweepEngine(jobs=1).run(traces, ["lru"], config=config)

        plan = ChaosPlan(marker_dir=str(tmp_path), hang_cells=(("stream", "lru"),),
                         hang_seconds=30.0)
        outcome = SweepEngine(jobs=1).run(
            traces, ["lru"], config=config, isolate_failures=True,
            retry=RetryPolicy(max_attempts=3, cell_timeout=1.0, **FAST_RETRY),
            chaos=plan,
        )
        assert not outcome.errors
        assert outcome.matrix.results == baseline.matrix.results
        report = outcome.failure_report
        timeouts = report.attempts_with_error("CellTimeoutError")
        assert timeouts and all(a.classification == "transient" for a in timeouts)
        assert report.cells[("stream", "lru")].outcome == OUTCOME_RECOVERED

    def test_retry_determinism_same_seed_same_schedule(self, traces, tmp_path):
        """Same seed -> same backoff schedule -> bit-identical results."""
        config = tiny_config()
        outcomes = []
        for run in ("a", "b"):
            marker_dir = tmp_path / run
            marker_dir.mkdir()
            plan = ChaosPlan(marker_dir=str(marker_dir),
                             crash_cells=(("zipf", "lru"),))
            outcome = SweepEngine(jobs=2).run(
                traces, ["lru", "srrip"], config=config, isolate_failures=True,
                retry=RetryPolicy(max_attempts=3, seed=11, **FAST_RETRY),
                chaos=plan,
            )
            outcomes.append(outcome)
        a, b = outcomes
        assert a.matrix.results == b.matrix.results
        # The victim's recorded backoff schedule is identical across runs.
        backoffs = [
            [attempt.backoff for attempt in outcome.failure_report.cells[("zipf", "lru")].attempts]
            for outcome in outcomes
        ]
        assert backoffs[0] == backoffs[1]
        assert backoffs[0], "the crash must have been absorbed"


def _cell_faults(faults: dict, traces: dict, monkeypatch) -> None:
    """Make cell (workload, policy) run ``faults[(workload, policy)]()``
    as it starts, in a batch unit and on the per-cell phase alike."""

    def fault(workload, policy):
        if (workload, policy) in faults:
            faults[(workload, policy)]()

    inject_cell_faults(monkeypatch, traces, fault)


def _kill_worker():
    if multiprocessing.parent_process() is None:
        pytest.fail("the cell ran in the test process, not in a pool worker")
    os._exit(66)


def _raise(exc_type, message):
    def fault():
        raise exc_type(message)

    return fault


class TestOneExecutionPath:
    """Failure semantics are the same at any ``jobs`` and with or
    without a retry policy: every cell runs through ResilientExecutor."""

    @pytest.fixture(scope="class")
    def four_traces(self):
        return {
            f"t{i}": synthetic.zipf_reuse(1500, num_blocks=150, seed=i)
            for i in range(4)
        }

    def test_worker_death_without_retries_poisons_only_struck_cells(
            self, four_traces, monkeypatch):
        policies = ["lru", "srrip", "drrip"]
        config = tiny_config()
        baseline = SweepEngine(jobs=1).run(four_traces, policies, config=config)

        _cell_faults({("t1", "srrip"): _kill_worker}, four_traces, monkeypatch)
        outcome = SweepEngine(jobs=2).run(
            four_traces, policies, config=config, isolate_failures=True,
        )
        assert ("t1", "srrip") in outcome.errors
        assert 1 <= len(outcome.errors) <= 2, "only the cells in flight fail"
        for error in outcome.errors.values():
            assert error.error_type == "BrokenProcessPool"
            assert error.classification == "poison"
        for workload, row in baseline.matrix.results.items():
            for policy, result in row.items():
                if (workload, policy) not in outcome.errors:
                    assert outcome.matrix.get(workload, policy) == result
        report = outcome.failure_report
        assert set(report.cells) == set(outcome.errors)
        assert all(h.outcome == OUTCOME_POISONED for h in report.cells.values())
        assert report.pool_rebuilds == 1

    @pytest.mark.parametrize(
        "retry", [None, RetryPolicy(max_attempts=2, **FAST_RETRY)],
        ids=["no-retry", "retry"],
    )
    def test_failure_semantics_equal_at_any_jobs(
            self, traces, tmp_path, monkeypatch, retry):
        _cell_faults({
            ("zipf", "srrip"): _raise(ValueError, "simulator bug"),
            ("stream", "lru"): _raise(MemoryError, "would be OOM-killed"),
            ("stream", "srrip"): _raise(MemoryBudgetError, "RSS over budget"),
        }, traces, monkeypatch)
        seen = []
        for jobs in (1, 2):
            engine = SweepEngine(
                cache_dir=tmp_path / f"cache-{jobs}", jobs=jobs,
                journal_dir=tmp_path / f"journal-{jobs}",
            )
            outcome = engine.run(
                traces, ["lru", "srrip"], config=tiny_config(),
                isolate_failures=True, retry=retry,
            )
            journal = RunJournal.load(outcome.journal_path)
            report_path = outcome.journal_path.with_name(
                f"{outcome.run_id}-failures.json"
            )
            assert report_path.is_file()
            persisted = json.loads(report_path.read_text())
            seen.append((
                {cell: (e.error_type, e.classification)
                 for cell, e in outcome.errors.items()},
                {cell: (r["status"], r["classification"])
                 for cell, r in journal.cells.items()},
                {cell: (h.outcome, len(h.attempts))
                 for cell, h in outcome.failure_report.cells.items()},
                {(c["workload"], c["policy"]): c["outcome"]
                 for c in persisted["cells"]},
            ))
        assert seen[0] == seen[1]
        errors = seen[0][0]
        assert errors[("zipf", "srrip")] == ("ValueError", "deterministic")
        assert errors[("stream", "lru")] == ("MemoryError", "poison")
        assert errors[("stream", "srrip")] == (
            ("MemoryBudgetError", "poison") if retry is None
            else ("MemoryBudgetError", "transient")
        )

    def test_lone_retried_cell_runs_in_the_pool(self, four_traces, monkeypatch):
        """A rerun whose only pending cell kills workers still completes."""
        _cell_faults({("t0", "lru"): _kill_worker}, four_traces, monkeypatch)
        outcome = SweepEngine(jobs=2).run(
            {"t0": four_traces["t0"]}, ["lru"], config=tiny_config(),
            isolate_failures=True,
            retry=RetryPolicy(max_attempts=3, poison_strikes=2, **FAST_RETRY),
        )
        error = outcome.errors[("t0", "lru")]
        assert (error.error_type, error.classification) == (
            "BrokenProcessPool", "poison"
        )
        history = outcome.failure_report.cells[("t0", "lru")]
        assert history.outcome == OUTCOME_POISONED
        assert len(history.attempts) == 2


def _pool_breaking_at(break_at: int, broken_on: list):
    """An in-process stand-in for ``ProcessPoolExecutor`` whose pool
    breaks on the ``break_at``-th submit, counted over every instance.

    Submitted calls run at once, so their futures are done by the time
    ``wait()`` sees them; a broken instance refuses every later submit,
    as a real pool does. ``broken_on`` receives the refused calls'
    (workload, policy), or (workload, policies) for a batch unit;
    ``BreakingPool.instances`` counts the pools built.
    """
    submits = itertools.count(1)

    class BreakingPool:
        instances = 0

        def __init__(self, max_workers, initializer=None, initargs=()):
            if initializer is not None:
                initializer(*initargs)
            self.broken = False
            BreakingPool.instances += 1

        def submit(self, fn, *args, **kwargs):
            if self.broken or next(submits) == break_at:
                self.broken = True
                broken_on.append(tuple(args[:2]))
                raise BrokenProcessPool("a worker died after wait() returned")
            future = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except Exception as exc:  # handed to the caller through the future
                future.set_exception(exc)
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    return BreakingPool


class TestResilientExecutorPool:
    @pytest.mark.parametrize("break_at", [2, 3], ids=["first-fill", "refill"])
    def test_submit_into_broken_pool_requeues_the_cell(
            self, traces, monkeypatch, break_at):
        """A pool that breaks between wait() and the refill costs one
        rebuild, and the refused cell reruns with no failed attempt.

        Pinned to the per-cell phase (``engine="reference"``), whose
        rebuilds the failure report counts; the twin below runs the
        same mechanics on the batched pass."""
        import repro.harness.engine as engine_module

        policies = ["lru", "srrip", "drrip"]
        serial = SweepEngine(jobs=1).run(traces, policies, config=tiny_config())
        broken_on: list = []
        monkeypatch.setattr(engine_module, "_WORKER_TRACES", {})
        monkeypatch.setattr(
            engine_module, "ProcessPoolExecutor",
            _pool_breaking_at(break_at, broken_on),
        )
        outcome = SweepEngine(jobs=2).run(
            traces, policies, config=tiny_config(), isolate_failures=True,
            engine="reference",
        )
        assert broken_on, "the fake pool never broke"
        assert not outcome.errors
        assert outcome.matrix.results == serial.matrix.results
        report = outcome.failure_report
        assert not report.cells, "the refused cell must have no failed attempt"
        assert report.pool_rebuilds == 1

    @pytest.mark.parametrize("break_at", [2, 3], ids=["first-fill", "refill"])
    def test_submit_into_broken_pool_requeues_the_unit(
            self, monkeypatch, break_at):
        """The batched pass's twin: a unit refused by a broken pool
        reruns as a unit after one rebuild; no cell falls back."""
        import repro.harness.engine as engine_module

        four = {
            f"t{i}": synthetic.zipf_reuse(1500, num_blocks=150, seed=i)
            for i in range(4)
        }
        policies = ["lru", "srrip"]
        serial = SweepEngine(jobs=1).run(
            four, policies, config=tiny_config(), engine="reference")
        broken_on: list = []
        pool = _pool_breaking_at(break_at, broken_on)
        monkeypatch.setattr(engine_module, "_WORKER_TRACES", {})
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", pool)
        outcome = SweepEngine(jobs=2).run(
            four, policies, config=tiny_config(), isolate_failures=True,
        )
        assert broken_on, "the fake pool never broke"
        assert all(units == policies for _, units in broken_on)
        assert not outcome.errors
        assert outcome.matrix.results == serial.matrix.results
        assert outcome.stats.fallbacks == 0
        assert not outcome.failure_report.cells
        assert pool.instances == 2, "exactly one rebuild"

    def test_no_submit_after_shutdown_request(self, monkeypatch):
        """A shutdown requested while cells run stops all refills."""
        import repro.resilience.executor as executor_module

        shutdown = ShutdownCoordinator()
        real_wait = executor_module.wait

        def wait_then_request(*args, **kwargs):
            done = real_wait(*args, **kwargs)
            shutdown.request("SIGTERM")
            return done

        monkeypatch.setattr(executor_module, "wait", wait_then_request)
        submitted = []

        def submit(pool, workload, policy, attempt):
            assert not shutdown.requested, f"{workload} submitted after shutdown"
            submitted.append(workload)
            return pool.submit(abs, -1)

        executor = ResilientExecutor(
            retry=RetryPolicy(max_attempts=1),
            workers=2,
            submit=submit,
            run_inline=lambda *a: pytest.fail("pool path must not run inline"),
            on_success=lambda w, p, r: None,
            on_failure=lambda *a: pytest.fail("no cell fails"),
            report=FailureReport(),
            shutdown=shutdown,
        )
        executor.run_pool([(f"w{i}", "p") for i in range(6)])
        assert submitted == ["w0", "w1"]


class TestCacheIntegrity:
    def _first_entry(self, cache_dir):
        return ResultCache(cache_dir)._entry_files()[0]

    def test_entries_carry_checksum(self, traces, tmp_path):
        SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, ["lru"], config=tiny_config()
        )
        doc = json.loads(self._first_entry(tmp_path).read_text(encoding="utf-8"))
        assert doc["checksum"] == result_checksum(doc["result"])

    def test_tampered_entry_quarantined_and_resimulated(self, traces, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(traces, ["lru"], config=tiny_config())
        entry = self._first_entry(tmp_path)
        doc = json.loads(entry.read_text(encoding="utf-8"))
        doc["result"]["__tampered__"] = True
        entry.write_text(json.dumps(doc), encoding="utf-8")

        outcome = engine.run(traces, ["lru"], config=tiny_config())
        assert outcome.stats.hits == 1
        assert outcome.stats.simulated == 1, "the corrupt cell re-simulates"
        quarantine = tmp_path / "quarantine"
        assert quarantine.is_dir() and len(list(quarantine.iterdir())) == 1
        assert engine.cache.quarantined_count == 1

    def test_old_entry_version_is_plain_miss_not_quarantine(self, traces, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(traces, ["lru"], config=tiny_config())
        for entry in ResultCache(tmp_path)._entry_files():
            doc = json.loads(entry.read_text(encoding="utf-8"))
            doc["entry_version"] = 1
            entry.write_text(json.dumps(doc), encoding="utf-8")
        outcome = engine.run(traces, ["lru"], config=tiny_config())
        assert outcome.stats.simulated == 2, "old entries are misses"
        assert not (tmp_path / "quarantine").exists(), "not corruption"

    def test_stats_reports_corrupt_and_quarantined(self, traces, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(traces, ["lru", "srrip"], config=tiny_config())
        cache = ResultCache(tmp_path)
        entries = cache._entry_files()
        entries[0].write_text("{not json", encoding="utf-8")
        report = cache.stats()
        assert report.entries == 4
        assert report.corrupt == 1
        assert report.quarantined == 0
        # Loading the corrupt entry moves it aside; stats now sees it there.
        assert cache.load(entries[0].stem) is None
        report = cache.stats()
        assert report.entries == 3
        assert report.corrupt == 0
        assert report.quarantined == 1
        assert "1 quarantined" in report.render()

    def test_verify_quarantines_and_counts(self, traces, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(traces, ["lru", "srrip"], config=tiny_config())
        cache = ResultCache(tmp_path)
        entries = cache._entry_files()
        entries[0].write_text("garbage", encoding="utf-8")
        doc = json.loads(entries[1].read_text(encoding="utf-8"))
        doc["checksum"] = "0" * 64
        entries[1].write_text(json.dumps(doc), encoding="utf-8")

        report = cache.verify()
        assert report.checked == 4
        assert report.ok == 2
        assert report.quarantined == 2
        assert "2 corrupt" in report.render()
        # Quarantined entries no longer count as live entries.
        assert cache.stats().entries == 2
        # The sweep re-simulates the quarantined cells and completes.
        outcome = engine.run(traces, ["lru", "srrip"], config=tiny_config())
        assert outcome.stats.hits == 2 and outcome.stats.simulated == 2

    def test_validate_entry_raises_integrity_error(self, traces, tmp_path):
        SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, ["lru"], config=tiny_config()
        )
        doc = json.loads(self._first_entry(tmp_path).read_text(encoding="utf-8"))
        doc["result"]["__x__"] = 1
        with pytest.raises(CacheIntegrityError, match="checksum mismatch"):
            ResultCache._validate_entry(doc)

    def test_prune_preserves_quarantine(self, traces, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1, salt="old")
        engine.run(traces, ["lru"], config=tiny_config())
        entry = ResultCache(tmp_path, salt="old")._entry_files()[0]
        entry.write_text("junk", encoding="utf-8")
        cache = ResultCache(tmp_path, salt="old")
        cache.verify()
        assert cache.stats().quarantined == 1
        newer = ResultCache(tmp_path, salt="new")
        newer.prune()  # removes the stale "old" generation...
        assert newer.stats().quarantined == 1  # ...but never the evidence

    def test_cli_cache_verify(self, traces, tmp_path, capsys):
        from repro.__main__ import main

        SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, ["lru"], config=tiny_config()
        )
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 ok, 0 corrupt" in out


class TestChaosHarness:
    def test_plan_is_deterministic_and_spreads_faults(self, tmp_path):
        cells = [(w, p) for w in ("a", "b") for p in ("x", "y")]
        one = plan_chaos(cells, seed=5, marker_dir=tmp_path)
        two = plan_chaos(cells, seed=5, marker_dir=tmp_path)
        assert one.plan.crash_cells == two.plan.crash_cells
        assert one.corrupt_cache_cells == two.corrupt_cache_cells
        # crash/hang chain on one victim; corruption hits a different cell
        assert one.plan.crash_cells == one.plan.hang_cells
        assert one.corrupt_cache_cells[0] != one.plan.crash_cells[0]
        other = plan_chaos(cells, seed=6, marker_dir=tmp_path)
        assert (one.plan.crash_cells, one.corrupt_cache_cells) != (
            other.plan.crash_cells, other.corrupt_cache_cells
        )

    def test_plan_requires_two_cells(self, tmp_path):
        from repro.errors import ResilienceError

        with pytest.raises(ResilienceError, match="at least 2 cells"):
            plan_chaos([("a", "x")], seed=0, marker_dir=tmp_path)

    def test_chaos_end_to_end(self, tmp_path):
        """The acceptance contract: seeded crash + hang + corrupt cache +
        truncated trace; the sweep completes, results are bit-identical
        to fault-free, and the FailureReport accounts for every fault."""
        report = run_chaos(
            seed=3,
            kernels=("bfs", "pr"),
            policies=("lru", "srrip"),
            scale=10,
            degree=8,
            max_accesses=6000,
            jobs=2,
            retry=RetryPolicy(
                max_attempts=3, cell_timeout=5.0,
                backoff_base=0.02, backoff_max=0.2, seed=3,
            ),
            work_dir=tmp_path,
        )
        assert report.passed, report.render()
        assert report.injected_crashes == 1
        assert report.injected_hangs == 1
        assert report.observed_crash_recoveries >= 1
        assert report.observed_timeout_recoveries >= 1
        assert report.observed_quarantined >= 1
        assert "TraceFormatError" in report.trace_fault_error
        assert report.bit_identical and report.sweep_completed
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["passed"] is True
        rendered = report.render()
        assert "bit-identical to fault-free baseline: True" in rendered
