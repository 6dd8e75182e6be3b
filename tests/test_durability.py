"""Tests for sweep durability: the write-ahead run journal and resume,
graceful shutdown, resource governance (cache byte budget, memory
watchdog), failure-report persistence, and the chaos v2 plumbing."""

import errno
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.core.config import CacheConfig, MachineConfig
from repro.errors import (
    ConfigurationError,
    MemoryBudgetError,
    ResilienceError,
    SweepInterrupted,
)
from repro.harness.engine import ResultCache, SweepEngine, cell_key
from repro.resilience import FailureKind, RetryPolicy, classify_failure
from repro.resilience.durability import (
    CELL_FAILED,
    CELL_OK,
    EXIT_INTERRUPTED,
    JOURNAL_SUFFIX,
    RunJournal,
    ShutdownCoordinator,
    memory_guard,
    run_id_for,
    sweep_spec_doc,
    write_failure_report,
)
from repro.trace import synthetic

FAST_RETRY = dict(backoff_base=0.01, backoff_max=0.05)


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


def spec_doc(salt: str = "s1") -> dict:
    return sweep_spec_doc(
        trace_digests={"zipf": "d1", "stream": "d2"},
        policies=["lru", "srrip"],
        config_doc={"llc": 8192},
        warmup_fraction=0.2,
        sanitize=False,
        telemetry_doc=None,
        sampling_doc=None,
        salt=salt,
    )


class TestRunId:
    def test_same_spec_same_id(self):
        assert run_id_for(spec_doc()) == run_id_for(spec_doc())

    def test_any_spec_change_changes_id(self):
        assert run_id_for(spec_doc("s1")) != run_id_for(spec_doc("s2"))
        other = spec_doc()
        other["policies"] = ["lru"]
        assert run_id_for(other) != run_id_for(spec_doc())


class TestRunJournal:
    def test_fresh_journal_roundtrip(self, tmp_path):
        journal = RunJournal.open_or_create(tmp_path, spec_doc(),
                                            context={"window": 5})
        assert journal is not None and not journal.resumed
        journal.record_cell("zipf", "lru", CELL_OK, key="k1")
        journal.record_cell("zipf", "srrip", CELL_FAILED,
                            classification="deterministic")
        journal.close(complete=True)

        parsed = RunJournal.load(journal.path)
        assert parsed.complete
        assert parsed.run_id == run_id_for(spec_doc())
        assert parsed.context == {"window": 5}
        assert parsed.completed_cells == {("zipf", "lru")}
        assert parsed.cells[("zipf", "srrip")]["status"] == CELL_FAILED

    def test_record_cell_is_idempotent_per_status(self, tmp_path):
        journal = RunJournal.open_or_create(tmp_path, spec_doc())
        journal.record_cell("zipf", "lru", CELL_OK)
        journal.record_cell("zipf", "lru", CELL_OK)
        journal.close(complete=False)
        lines = journal.path.read_text().splitlines()
        cell_lines = [l for l in lines if '"record": "cell"' in l]
        assert len(cell_lines) == 1

    def test_incomplete_journal_resumes_in_place(self, tmp_path):
        first = RunJournal.open_or_create(tmp_path, spec_doc())
        first.record_cell("zipf", "lru", CELL_OK)
        first.close(complete=False)

        second = RunJournal.open_or_create(tmp_path, spec_doc())
        assert second.resumed
        assert second.path == first.path
        assert second.completed_cells == {("zipf", "lru")}
        second.record_cell("stream", "lru", CELL_OK)
        second.close(complete=True)
        assert RunJournal.load(second.path).complete

    def test_complete_journal_rotates_aside(self, tmp_path):
        first = RunJournal.open_or_create(tmp_path, spec_doc())
        first.record_cell("zipf", "lru", CELL_OK)
        first.close(complete=True)

        second = RunJournal.open_or_create(tmp_path, spec_doc())
        assert not second.resumed
        assert second.completed_cells == set()
        rotated = first.path.with_name(first.path.name + ".1")
        assert rotated.exists()

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = RunJournal.open_or_create(tmp_path, spec_doc())
        journal.record_cell("zipf", "lru", CELL_OK)
        journal.record_cell("zipf", "srrip", CELL_OK)
        journal.close(complete=False)
        # Simulate kill -9 mid-append: half a JSON line at EOF.
        with journal.path.open("a", encoding="utf-8") as fh:
            fh.write('{"record": "cell", "workload": "str')

        parsed = RunJournal.load(journal.path)
        assert parsed.completed_cells == {("zipf", "lru"), ("zipf", "srrip")}
        assert not parsed.complete
        resumed = RunJournal.open_or_create(tmp_path, spec_doc())
        assert resumed.resumed
        assert len(resumed.completed_cells) == 2

    def test_find_names_known_runs(self, tmp_path):
        journal = RunJournal.open_or_create(tmp_path, spec_doc())
        journal.close(complete=False)
        assert RunJournal.find(tmp_path, journal.run_id) == journal.path
        with pytest.raises(ResilienceError, match=journal.run_id):
            RunJournal.find(tmp_path, "deadbeef00000000")

    def test_unwritable_dir_degrades_with_one_warning(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        with pytest.warns(RuntimeWarning, match="journal"):
            journal = RunJournal.open_or_create(blocked, spec_doc())
        assert journal is None

    def test_failure_report_path_is_sibling(self, tmp_path):
        journal = RunJournal.open_or_create(tmp_path, spec_doc())
        assert journal.failure_report_path.parent == journal.path.parent
        assert journal.failure_report_path.name == (
            f"{journal.run_id}-failures.json"
        )


class TestJournalledSweep:
    def test_run_journals_and_rotates_on_identical_rerun(
            self, tmp_path, traces):
        engine = SweepEngine(cache_dir=tmp_path / "cache", jobs=1,
                             journal_dir=tmp_path / "journal")
        outcome = engine.run(traces, ["lru", "srrip"], config=tiny_config())
        assert outcome.run_id is not None
        assert outcome.journal_path is not None
        assert outcome.journal_path.suffix == JOURNAL_SUFFIX
        assert RunJournal.load(outcome.journal_path).complete

        again = engine.run(traces, ["lru", "srrip"], config=tiny_config())
        assert again.run_id == outcome.run_id
        assert again.stats.hits == 4 and again.stats.simulated == 0
        assert again.matrix.results == outcome.matrix.results

    def test_truncated_journal_resumes_at_first_incomplete_cell(
            self, tmp_path, traces):
        engine = SweepEngine(cache_dir=tmp_path / "cache", jobs=1,
                             journal_dir=tmp_path / "journal")
        outcome = engine.run(traces, ["lru", "srrip"], config=tiny_config())

        # Keep the header and the first two cell records: the state a
        # kill -9 after two cells leaves behind.
        lines = outcome.journal_path.read_text().splitlines()
        outcome.journal_path.write_text("\n".join(lines[:3]) + "\n")

        resumed = engine.run(traces, ["lru", "srrip"], config=tiny_config())
        assert resumed.run_id == outcome.run_id
        assert resumed.stats.resumed == 2
        assert resumed.stats.simulated == 0  # rest restored from cache
        assert resumed.matrix.results == outcome.matrix.results
        assert RunJournal.load(outcome.journal_path).complete

    def test_journal_requires_cache(self, tmp_path, traces):
        engine = SweepEngine(cache_dir=None, jobs=1,
                             journal_dir=tmp_path / "journal")
        outcome = engine.run(traces, ["lru"], config=tiny_config())
        assert outcome.run_id is None
        assert not (tmp_path / "journal").exists()

    def test_journal_inside_cache_root_refused(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        for journal in (cache, cache / "journal"):
            with pytest.raises(ConfigurationError, match="inside the cache root"):
                SweepEngine(cache_dir=cache, journal_dir=journal)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(cache / "journal"))
        with pytest.raises(ConfigurationError, match="inside the cache root"):
            SweepEngine.from_env()


class TestGracefulShutdown:
    def test_exit_code_is_bsd_tempfail(self):
        assert EXIT_INTERRUPTED == 75

    def test_request_sets_flag_and_name(self):
        shutdown = ShutdownCoordinator()
        assert not shutdown.requested
        shutdown.request("SIGTERM")
        assert shutdown.requested
        assert shutdown.signal_name == "SIGTERM"

    def test_serial_sweep_stops_and_raises_interrupted(
            self, tmp_path, traces, monkeypatch):
        import repro.harness.engine as eng

        shutdown = ShutdownCoordinator()
        real = eng._simulate_cell

        def first_cell_then_shutdown(*args, **kwargs):
            shutdown.request("SIGTERM")
            return real(*args, **kwargs)

        monkeypatch.setattr(eng, "_simulate_cell", first_cell_then_shutdown)
        engine = SweepEngine(cache_dir=tmp_path / "cache", jobs=1,
                             journal_dir=tmp_path / "journal")
        with pytest.raises(SweepInterrupted) as excinfo:
            engine.run(traces, ["lru", "srrip"], config=tiny_config(),
                       shutdown=shutdown)
        assert excinfo.value.run_id is not None
        assert "1/4" in str(excinfo.value)

        # The drained cell was journalled; resume completes the rest.
        monkeypatch.setattr(eng, "_simulate_cell", real)
        resumed = engine.run(traces, ["lru", "srrip"], config=tiny_config())
        assert resumed.stats.resumed == 1
        assert len(resumed.matrix.results) == 2

    def test_parallel_sweep_drains_and_raises_interrupted(
            self, tmp_path):
        big = {
            "a": synthetic.zipf_reuse(30_000, num_blocks=500, seed=1),
            "b": synthetic.zipf_reuse(30_000, num_blocks=500, seed=2),
        }
        shutdown = ShutdownCoordinator()
        shutdown.request("SIGTERM")
        engine = SweepEngine(cache_dir=tmp_path / "cache", jobs=2,
                             journal_dir=tmp_path / "journal")
        with pytest.raises(SweepInterrupted):
            engine.run(big, ["lru", "srrip", "drrip"], config=tiny_config(),
                       shutdown=shutdown, drain_timeout=30.0)
        # Whatever drained is journalled and resumable.
        resumed = engine.run(big, ["lru", "srrip", "drrip"],
                             config=tiny_config())
        assert len(resumed.matrix.results) == 2
        assert resumed.stats.cells == 6

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batched_pass_stops_between_groups(
            self, tmp_path, monkeypatch, jobs):
        five = {
            f"t{i}": synthetic.zipf_reuse(2000, num_blocks=200, seed=i)
            for i in range(5)
        }
        policies = ["lru", "srrip"]
        uninterrupted = SweepEngine().run(
            five, policies, config=tiny_config(), engine="batched")

        shutdown = ShutdownCoordinator()
        real_store = ResultCache.store

        def store_then_shutdown(self, key, result):
            shutdown.request("SIGTERM")
            return real_store(self, key, result)

        monkeypatch.setattr(ResultCache, "store", store_then_shutdown)
        engine = SweepEngine(cache_dir=tmp_path / "cache", jobs=jobs,
                             journal_dir=tmp_path / "journal")
        with pytest.raises(SweepInterrupted):
            engine.run(five, policies, config=tiny_config(),
                       engine="batched", shutdown=shutdown)

        monkeypatch.setattr(ResultCache, "store", real_store)
        resumed = engine.run(five, policies, config=tiny_config(),
                             engine="batched")
        assert 0 < resumed.stats.resumed < 10
        assert resumed.stats.simulated == 10 - resumed.stats.resumed
        canonical = {
            (w, p): json.dumps(r.to_json_dict(), sort_keys=True)
            for w, row in resumed.matrix.results.items()
            for p, r in row.items()
        }
        assert canonical == {
            (w, p): json.dumps(r.to_json_dict(), sort_keys=True)
            for w, row in uninterrupted.matrix.results.items()
            for p, r in row.items()
        }

    def test_completed_sweep_ignores_late_request(self, tmp_path, traces):
        shutdown = ShutdownCoordinator()
        engine = SweepEngine(cache_dir=tmp_path / "cache", jobs=1,
                             journal_dir=tmp_path / "journal")
        outcome = engine.run(traces, ["lru"], config=tiny_config(),
                             shutdown=shutdown)
        shutdown.request("SIGTERM")
        assert len(outcome.matrix.results) == 2


#: A journalled jobs=2 sweep whose cells record their worker's pid and
#: then stall, so the test can SIGKILL the sweep with both workers busy.
_STALLED_SWEEP = """
import json, os, sys, time
from pathlib import Path

import repro.harness.engine as eng
from repro.core.config import small_test_machine
from repro.trace import synthetic

params = json.loads(sys.argv[1])
real = eng._simulate_cell

def stalled(*args, **kwargs):
    Path(params["pid_dir"], str(os.getpid())).touch()
    time.sleep(120)
    return real(*args, **kwargs)

eng._simulate_cell = stalled
traces = {f"t{i}": synthetic.zipf_reuse(500, num_blocks=50, seed=i)
          for i in range(2)}
eng.SweepEngine(
    cache_dir=params["cache_dir"], journal_dir=params["journal_dir"], jobs=2,
).run(traces, ["lru", "srrip"], config=small_test_machine())
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` names a live process (zombies count as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to observe worker processes")
def test_pool_workers_exit_when_the_sweep_is_killed(tmp_path):
    import repro

    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    params = {
        "pid_dir": str(pid_dir),
        "cache_dir": str(tmp_path / "cache"),
        "journal_dir": str(tmp_path / "journal"),
    }
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", _STALLED_SWEEP, json.dumps(params)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60.0
        while len(workers) < 2:
            assert child.poll() is None, "the sweep exited early"
            assert time.monotonic() < deadline, "the workers never started"
            time.sleep(0.05)
            workers = [int(p.name) for p in pid_dir.iterdir()]
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=10)

        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, (
                f"orphaned pool workers {workers} outlived the sweep"
            )
            time.sleep(0.1)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


#: A forkserver pool built with the engine's worker initializer: its
#: worker must serve calls that outlive a few parent-watch polls, then
#: exit once the process that built the pool is killed.
_FORKSERVER_POOL = """
import multiprocessing, os, sys, time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.harness.engine import _PARENT_POLL_S, _install_worker_traces

pool = ProcessPoolExecutor(
    max_workers=1, mp_context=multiprocessing.get_context("forkserver"),
    initializer=_install_worker_traces, initargs=({},),
)
pool.submit(time.sleep, 3 * _PARENT_POLL_S).result()
Path(sys.argv[1]).write_text(str(pool.submit(os.getpid).result()))
time.sleep(120)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to observe worker processes")
@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                    reason="needs the forkserver start method")
def test_forkserver_pool_workers_serve_and_exit_with_the_sweep(tmp_path):
    import repro

    pid_file = tmp_path / "worker.pid"
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", _FORKSERVER_POOL, str(pid_file)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    worker = None
    try:
        deadline = time.monotonic() + 60.0
        while not pid_file.exists() or not pid_file.read_text():
            assert child.poll() is None, "the forkserver pool broke"
            assert time.monotonic() < deadline, "the worker never answered"
            time.sleep(0.05)
        worker = int(pid_file.read_text())
        assert _running(worker)
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=10)

        deadline = time.monotonic() + 5.0
        while _running(worker):
            assert time.monotonic() < deadline, (
                f"orphaned forkserver worker {worker} outlived the sweep"
            )
            time.sleep(0.1)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        if worker is not None:
            try:
                os.kill(worker, signal.SIGKILL)
            except ProcessLookupError:
                pass


class TestSerialInterruptRegression:
    def test_keyboard_interrupt_flushes_journal_and_report(
            self, tmp_path, traces, monkeypatch):
        """Ctrl-C mid-serial-sweep must leave resumable state behind."""
        import repro.harness.engine as eng

        real = eng._simulate_cell
        calls = {"n": 0}

        def interrupt_second_cell(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(eng, "_simulate_cell", interrupt_second_cell)
        engine = SweepEngine(cache_dir=tmp_path / "cache", jobs=1,
                             journal_dir=tmp_path / "journal")
        with pytest.raises(KeyboardInterrupt):
            engine.run(traces, ["lru", "srrip"], config=tiny_config(),
                       retry=RetryPolicy(max_attempts=2, **FAST_RETRY))

        journals = list((tmp_path / "journal").glob(f"*{JOURNAL_SUFFIX}"))
        assert len(journals) == 1
        parsed = RunJournal.load(journals[0])
        assert not parsed.complete
        assert len(parsed.completed_cells) == 1

        report_path = journals[0].with_name(
            f"{parsed.run_id}-failures.json")
        doc = json.loads(report_path.read_text())
        assert doc["schema"] == 1

        monkeypatch.setattr(eng, "_simulate_cell", real)
        resumed = engine.run(traces, ["lru", "srrip"], config=tiny_config())
        assert resumed.stats.resumed == 1
        assert len(resumed.matrix.results) == 2


class TestCacheByteBudget:
    def store_result(self, cache, engine, traces, policy):
        outcome = engine.run(traces, [policy], config=tiny_config())
        return outcome

    def test_budget_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path, max_bytes=0)

    def test_oldest_entry_evicted_past_budget(self, tmp_path, traces):
        cache = ResultCache(tmp_path, salt="s")
        engine = SweepEngine(jobs=1, salt="s")
        outcome = engine.run(traces, ["lru"], config=tiny_config())
        keys = {}
        for workload in traces:
            key = cell_key(traces[workload], "lru", tiny_config(), 0.2,
                           sanitize=False, salt="s")
            keys[workload] = key
            cache.store(key, outcome.matrix.results[workload]["lru"])
        entry_bytes = sum(
            p.stat().st_size for p in cache._entry_files()
        )
        # Budget fits one entry but not two; backdate "zipf" so it is
        # unambiguously the LRU victim.
        zipf_path = next(
            p for p in cache._entry_files() if keys["zipf"] in p.name
        )
        os.utime(zipf_path, (time.time() - 100, time.time() - 100))
        cache.max_bytes = entry_bytes - 1
        cache.store(keys["zipf"], outcome.matrix.results["zipf"]["lru"])
        # The just-written entry always survives its own enforcement.
        assert cache.load(keys["zipf"]) is not None
        assert cache.budget_evictions >= 1

    def test_hits_refresh_recency(self, tmp_path, traces):
        cache = ResultCache(tmp_path, salt="s", max_bytes=10**9)
        engine = SweepEngine(jobs=1, salt="s")
        outcome = engine.run(traces, ["lru"], config=tiny_config())
        key = cell_key(traces["zipf"], "lru", tiny_config(), 0.2,
                       sanitize=False, salt="s")
        cache.store(key, outcome.matrix.results["zipf"]["lru"])
        path = next(iter(cache._entry_files()))
        os.utime(path, (time.time() - 100, time.time() - 100))
        before = path.stat().st_mtime
        assert cache.load(key) is not None
        assert path.stat().st_mtime > before

    def test_engine_env_plumbs_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        engine = SweepEngine.from_env()
        assert engine.cache is not None
        assert engine.cache.max_bytes == 12345


class _FailingWriteCache(ResultCache):
    """Raises a real OSError from the store path after ``max_writes``."""

    def __init__(self, root, salt=None, max_writes=0,
                 error=errno.ENOSPC) -> None:
        super().__init__(root, salt=salt)
        self.writes = 0
        self.max_writes = max_writes
        self.error = error

    def _write_payload(self, tmp, text) -> None:
        if self.writes >= self.max_writes:
            raise OSError(self.error, os.strerror(self.error))
        self.writes += 1
        super()._write_payload(tmp, text)


class TestDiskDegradation:
    def test_enospc_degrades_uncached_with_one_warning(
            self, tmp_path, traces):
        baseline = SweepEngine(jobs=1).run(
            traces, ["lru", "srrip"], config=tiny_config())

        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.cache = _FailingWriteCache(tmp_path, salt=engine.salt,
                                          max_writes=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = engine.run(traces, ["lru", "srrip"],
                                 config=tiny_config())
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "unusable" in str(runtime[0].message)
        assert not outcome.errors
        assert outcome.matrix.results == baseline.matrix.results
        assert not list(tmp_path.rglob("*.tmp-*"))

    def test_read_only_cache_racing_parallel_sweep(self, tmp_path, traces):
        """The cache flips read-only mid-parallel-run: the sweep must
        finish uncached, warn exactly once, and stay bit-identical."""
        baseline = SweepEngine(jobs=1).run(
            traces, ["lru", "srrip", "drrip"], config=tiny_config())

        engine = SweepEngine(cache_dir=tmp_path, jobs=2)
        engine.cache = _FailingWriteCache(
            tmp_path, salt=engine.salt, max_writes=2, error=errno.EROFS)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = engine.run(traces, ["lru", "srrip", "drrip"],
                                 config=tiny_config())
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert not outcome.errors
        assert outcome.stats.simulated == 6
        assert outcome.matrix.results == baseline.matrix.results


class TestMemoryGovernance:
    def test_guard_off_is_passthrough(self):
        with memory_guard(None):
            pass

    def test_budget_breach_raises_structured_error(self):
        # Any live test process dwarfs a 1 MiB budget: the watchdog's
        # immediate first sample must trip before the body finishes.
        with pytest.raises(MemoryBudgetError, match="memory budget"):
            with memory_guard(1.0):
                time.sleep(2.0)

    def test_ample_budget_is_silent(self):
        with memory_guard(16384.0):
            time.sleep(0.01)

    def test_classification_ladder(self):
        assert classify_failure(MemoryBudgetError("x")) is FailureKind.TRANSIENT
        assert classify_failure(MemoryError()) is FailureKind.POISON

    def test_serial_sweep_classifies_budget_breach_poison(
            self, traces, monkeypatch):
        import repro.harness.engine as eng

        def blow_budget(*args, **kwargs):
            raise MemoryBudgetError("worker RSS 999 MiB exceeded")

        monkeypatch.setattr(eng, "_simulate_cell", blow_budget)
        outcome = SweepEngine(jobs=1).run(
            traces, ["lru"], config=tiny_config(), isolate_failures=True)
        assert len(outcome.errors) == 2
        assert all(e.classification == "poison"
                   for e in outcome.errors.values())


class TestVerifyReport:
    def test_previously_quarantined_fails_verify(self, tmp_path, traces):
        cache = ResultCache(tmp_path, salt="s")
        engine = SweepEngine(jobs=1, salt="s")
        outcome = engine.run(traces, ["lru"], config=tiny_config())
        for workload in traces:
            key = cell_key(traces[workload], "lru", tiny_config(), 0.2,
                           sanitize=False, salt="s")
            cache.store(key, outcome.matrix.results[workload]["lru"])

        entry = cache._entry_files()[0]
        entry.write_text(entry.read_text()[:40])

        first = cache.verify()
        assert first.quarantined == 1
        assert first.previously_quarantined == 0
        assert not first.clean

        # The corrupt entry is now in quarantine/: a later verify still
        # reports unclean until someone deals with the evidence.
        second = cache.verify()
        assert second.quarantined == 0
        assert second.previously_quarantined == 1
        assert not second.clean
        assert "previously quarantined" in second.render()

    def test_to_json_dict_shape(self, tmp_path):
        report = ResultCache(tmp_path, salt="s").verify()
        doc = report.to_json_dict()
        assert set(doc) == {"root", "checked", "ok", "quarantined",
                            "stale_format", "previously_quarantined",
                            "clean"}
        assert doc["clean"] is True


class TestFailureReportPersistence:
    def test_write_failure_report_atomic_and_versioned(self, tmp_path):
        target = tmp_path / "nested" / "report.json"
        from repro.resilience import FailureReport

        write_failure_report(target, FailureReport().to_json_dict())
        doc = json.loads(target.read_text())
        assert doc["schema"] == 1
        assert doc["clean"] is True
        assert not list(tmp_path.rglob("*.tmp-*"))

    def test_sweep_persists_report_to_explicit_path(
            self, tmp_path, traces):
        target = tmp_path / "failures.json"
        outcome = SweepEngine(jobs=1).run(
            traces, ["lru"], config=tiny_config(),
            retry=RetryPolicy(max_attempts=2, **FAST_RETRY),
            failure_report_path=target,
        )
        assert outcome.failure_report is not None
        doc = json.loads(target.read_text())
        assert doc["schema"] == 1
        assert doc["clean"] is True
