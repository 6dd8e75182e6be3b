"""Tests for the sweep engine: caching, parallelism, isolation, resume."""

import json
import warnings

import pytest

from repro.core.config import CacheConfig, MachineConfig
from repro.core.results import RESULT_SCHEMA_VERSION, SimulationResult
from repro.core.simulator import simulate
from repro.errors import SimulationError, UnknownPolicyError
from repro.harness.engine import (
    ResultCache,
    SweepEngine,
    cell_key,
    simulator_salt,
)
from repro.harness.runner import run_matrix
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
        "zipf": synthetic.zipf_reuse(3000, num_blocks=300, seed=1),
        "stream": synthetic.strided(3000, stride=64, elements=150),
    }


@pytest.fixture(scope="module")
def gap_matrix_traces():
    """A small but real GAP workload set (2 kernels)."""
    from repro.gap.suite import gap_suite

    suite = gap_suite(scale=10, degree=8, max_accesses=3000)
    names = list(suite)[:2]
    return {name: suite[name] for name in names}


class TestTraceDigest:
    def test_same_content_same_digest(self):
        a = synthetic.zipf_reuse(500, num_blocks=50, seed=3)
        b = synthetic.zipf_reuse(500, num_blocks=50, seed=3)
        assert a.digest() == b.digest()

    def test_different_seed_different_digest(self):
        a = synthetic.zipf_reuse(500, num_blocks=50, seed=3)
        b = synthetic.zipf_reuse(500, num_blocks=50, seed=4)
        assert a.digest() != b.digest()

    def test_name_is_part_of_identity(self):
        a = synthetic.zipf_reuse(500, num_blocks=50, seed=3)
        b = a[:]
        b.name = "renamed"
        assert a.digest() != b.digest()


class TestResultJsonRoundTrip:
    def test_round_trip_is_bit_identical(self, traces):
        result = simulate(traces["zipf"], config=tiny_config(), llc_policy="srrip")
        doc = json.loads(json.dumps(result.to_json_dict()))
        assert SimulationResult.from_json_dict(doc) == result

    def test_schema_version_recorded(self, traces):
        result = simulate(traces["zipf"], config=tiny_config())
        assert result.to_json_dict()["schema_version"] == RESULT_SCHEMA_VERSION

    def test_schema_mismatch_rejected(self, traces):
        result = simulate(traces["zipf"], config=tiny_config())
        doc = result.to_json_dict()
        doc["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(SimulationError, match="schema_version"):
            SimulationResult.from_json_dict(doc)


class TestCellKey:
    def test_key_depends_on_every_component(self, traces):
        config = tiny_config()
        base = cell_key(traces["zipf"], "lru", config, 0.2, salt="s")
        assert cell_key(traces["stream"], "lru", config, 0.2, salt="s") != base
        assert cell_key(traces["zipf"], "srrip", config, 0.2, salt="s") != base
        assert cell_key(traces["zipf"], "lru", config, 0.3, salt="s") != base
        assert cell_key(traces["zipf"], "lru", config, 0.2, salt="t") != base
        bigger = config.with_llc_scale(2)
        assert cell_key(traces["zipf"], "lru", bigger, 0.2, salt="s") != base

    def test_key_is_stable_for_equal_inputs(self, traces):
        config_a, config_b = tiny_config(), tiny_config()
        assert cell_key(traces["zipf"], "lru", config_a, 0.2, salt="s") == cell_key(
            traces["zipf"], "lru", config_b, 0.2, salt="s"
        )

    def test_salt_defaults_to_simulator_salt(self, traces):
        config = tiny_config()
        assert cell_key(traces["zipf"], "lru", config, 0.2) == cell_key(
            traces["zipf"], "lru", config, 0.2, salt=simulator_salt()
        )


class TestCacheHitMissInvalidation:
    def test_second_run_is_all_hits(self, tmp_path, traces):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        first = engine.run(traces, ["lru", "srrip"], config=tiny_config())
        assert first.stats.simulated == 4
        assert first.stats.hits == 0

        second = engine.run(traces, ["lru", "srrip"], config=tiny_config())
        assert second.stats.hits == 4
        assert second.stats.simulated == 0, "zero cells may be re-simulated"
        assert second.matrix.results == first.matrix.results

    def test_config_change_invalidates(self, tmp_path, traces):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(traces, ["lru"], config=tiny_config())
        outcome = engine.run(traces, ["lru"], config=tiny_config().with_llc_scale(2))
        assert outcome.stats.hits == 0
        assert outcome.stats.simulated == 2

    def test_salt_change_invalidates(self, tmp_path, traces):
        old = SweepEngine(cache_dir=tmp_path, jobs=1, salt="core-v1")
        old.run(traces, ["lru"], config=tiny_config())
        new = SweepEngine(cache_dir=tmp_path, jobs=1, salt="core-v2")
        outcome = new.run(traces, ["lru"], config=tiny_config())
        assert outcome.stats.hits == 0 and outcome.stats.simulated == 2

    def test_corrupt_entry_treated_as_miss(self, tmp_path, traces):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(traces, ["lru"], config=tiny_config())
        for path in ResultCache(tmp_path)._entry_files():
            path.write_text("{not json", encoding="utf-8")
        outcome = engine.run(traces, ["lru"], config=tiny_config())
        assert outcome.stats.simulated == 2

    def test_cache_stats_clear_prune(self, tmp_path, traces):
        config = tiny_config()
        SweepEngine(cache_dir=tmp_path, jobs=1, salt="old").run(
            traces, ["lru"], config=config
        )
        SweepEngine(cache_dir=tmp_path, jobs=1, salt="new").run(
            traces, ["lru"], config=config
        )
        cache = ResultCache(tmp_path, salt="new")
        report = cache.stats()
        assert report.entries == 4
        assert report.by_salt == {"old": 2, "new": 2}
        assert report.stale_entries == 2
        assert cache.prune() == 2
        assert cache.stats().by_salt == {"new": 2}
        assert cache.clear() == 2
        assert cache.stats().entries == 0


class TestParallelEqualsSerial:
    def test_gap_matrix_bit_identical(self, tmp_path, gap_matrix_traces):
        policies = ["lru", "srrip", "ship"]
        config = tiny_config()
        serial = SweepEngine(jobs=1).run(gap_matrix_traces, policies, config=config)
        parallel = SweepEngine(jobs=4).run(gap_matrix_traces, policies, config=config)
        assert parallel.stats.simulated == len(gap_matrix_traces) * len(policies)
        # Frozen-dataclass equality covers every counter and float metric.
        assert parallel.matrix.results == serial.matrix.results
        for workload in serial.matrix.workloads:
            for policy in policies:
                a = serial.matrix.get(workload, policy)
                b = parallel.matrix.get(workload, policy)
                assert a.ipc == b.ipc
                assert a.llc_mpki == b.llc_mpki

    def test_parallel_populates_cache_for_serial(self, tmp_path, traces):
        config = tiny_config()
        SweepEngine(cache_dir=tmp_path, jobs=4).run(traces, ["lru", "srrip"], config=config)
        outcome = SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, ["lru", "srrip"], config=config
        )
        assert outcome.stats.hits == 4 and outcome.stats.simulated == 0


class TestFailureIsolation:
    def test_isolated_cell_error_rest_completes(self, traces):
        engine = SweepEngine(jobs=1)
        outcome = engine.run(
            traces, ["lru", "no-such-policy"], config=tiny_config(),
            isolate_failures=True,
        )
        assert outcome.stats.errors == 2
        assert outcome.stats.simulated == 2
        for workload in traces:
            assert outcome.matrix.get(workload, "lru").policy == "lru"
            error = outcome.errors[(workload, "no-such-policy")]
            assert error.error_type == "UnknownPolicyError"
            assert "no-such-policy" in error.message
            assert error.render().startswith(workload)

    def test_isolated_parallel_failure(self, traces):
        outcome = SweepEngine(jobs=2).run(
            traces, ["lru", "no-such-policy"], config=tiny_config(),
            isolate_failures=True,
        )
        assert outcome.stats.errors == 2 and outcome.stats.simulated == 2

    def test_default_propagates_first_failure(self, traces):
        with pytest.raises(UnknownPolicyError):
            SweepEngine(jobs=1).run(
                traces, ["no-such-policy"], config=tiny_config()
            )

    def test_failed_cells_are_not_cached(self, tmp_path, traces):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(
            traces, ["lru", "no-such-policy"], config=tiny_config(),
            isolate_failures=True,
        )
        # Only the two successful lru cells were checkpointed.
        assert len(ResultCache(tmp_path)._entry_files()) == 2


class TestCheckpointResume:
    def test_partial_sweep_resumes_from_cache(self, tmp_path, traces):
        config = tiny_config()
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(traces, ["lru"], config=config)  # first half of the matrix
        outcome = engine.run(traces, ["lru", "srrip"], config=config)
        assert outcome.stats.hits == 2
        assert outcome.stats.simulated == 2

    def test_crashed_sweep_keeps_finished_cells(self, tmp_path, traces):
        config = tiny_config()
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        # lru cells run (and checkpoint) before the bad policy crashes
        # the sweep: cells run in (workload, policy) order.
        with pytest.raises(UnknownPolicyError):
            engine.run(traces, ["lru", "no-such-policy"], config=config)
        outcome = engine.run(traces, ["lru"], config=config)
        assert outcome.stats.hits >= 1

    def test_progress_fires_for_cached_cells_too(self, tmp_path, traces):
        config = tiny_config()
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(traces, ["lru"], config=config)
        calls = []
        engine.run(
            traces, ["lru"], config=config,
            progress=lambda w, p: calls.append((w, p)),
        )
        assert calls == [("zipf", "lru"), ("stream", "lru")]


class TestReadOnlyCacheDegradation:
    """An unusable cache location degrades to uncached, never raises.

    chmod tricks don't work under root, so the unwritable root is
    simulated by shadowing it with a regular file (NotADirectoryError,
    an OSError) and by monkeypatching shutil.rmtree for clear/prune.
    """

    @pytest.fixture
    def shadowed_root(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        return blocker / "cache"

    def test_store_warns_once_and_returns_none(self, shadowed_root, traces):
        result = simulate(traces["zipf"], config=tiny_config())
        cache = ResultCache(shadowed_root)
        with pytest.warns(RuntimeWarning, match="continuing without caching"):
            assert cache.store("ab" * 32, result) is None
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert cache.store("cd" * 32, result) is None
        assert not record, "the degradation warning fires only once"

    def test_load_on_unreadable_root_is_a_miss(self, shadowed_root):
        cache = ResultCache(shadowed_root)
        with pytest.warns(RuntimeWarning):
            assert cache.load("ab" * 32) is None

    def test_sweep_completes_uncached(self, shadowed_root, traces):
        engine = SweepEngine(cache_dir=shadowed_root, jobs=1)
        with pytest.warns(RuntimeWarning):
            outcome = engine.run(traces, ["lru"], config=tiny_config())
        assert outcome.stats.simulated == 2
        assert outcome.stats.errors == 0
        # Re-running re-simulates: nothing was (or could be) cached (and
        # the engine's cache stays disabled, so it does not warn again).
        again = engine.run(traces, ["lru"], config=tiny_config())
        assert again.stats.hits == 0 and again.stats.simulated == 2
        assert again.matrix.results == outcome.matrix.results

    def test_clear_on_readonly_dir_warns_not_raises(
        self, tmp_path, traces, monkeypatch
    ):
        SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, ["lru"], config=tiny_config()
        )

        def deny(path, *args, **kwargs):
            raise PermissionError(13, "read-only file system", str(path))

        monkeypatch.setattr("shutil.rmtree", deny)
        cache = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning):
            assert cache.clear() == 0
        assert cache.stats().entries == 2, "entries survive the failed clear"

    def test_prune_on_readonly_dir_warns_not_raises(
        self, tmp_path, traces, monkeypatch
    ):
        SweepEngine(cache_dir=tmp_path, jobs=1, salt="old").run(
            traces, ["lru"], config=tiny_config()
        )

        def deny(path, *args, **kwargs):
            raise PermissionError(13, "read-only file system", str(path))

        monkeypatch.setattr("shutil.rmtree", deny)
        cache = ResultCache(tmp_path, salt="new")
        with pytest.warns(RuntimeWarning):
            assert cache.prune() == 0
        assert cache.stats().stale_entries == 2

    def test_cli_cache_prune_readonly_exits_zero(self, shadowed_root, capsys):
        from repro.__main__ import main

        assert main(["cache", "prune", "--cache-dir", str(shadowed_root)]) == 0
        assert "pruned 0 stale entries" in capsys.readouterr().out


class TestRunMatrixIntegration:
    def test_run_matrix_uses_env_engine(self, tmp_path, traces, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_JOBS", "1")
        first = run_matrix(traces, ["lru"], config=tiny_config())
        assert first.sweep_stats is not None
        assert first.sweep_stats.simulated == 2
        second = run_matrix(traces, ["lru"], config=tiny_config())
        assert second.sweep_stats.hits == 2
        assert second.sweep_stats.simulated == 0
        assert second.results == first.results

    def test_run_matrix_default_is_serial_uncached(self, traces, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        matrix = run_matrix(traces, ["lru"], config=tiny_config())
        assert matrix.sweep_stats.hits == 0
        assert matrix.sweep_stats.simulated == 2

    def test_run_matrix_explicit_engine(self, tmp_path, traces):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        run_matrix(traces, ["lru"], config=tiny_config(), engine=engine)
        matrix = run_matrix(traces, ["lru"], config=tiny_config(), engine=engine)
        assert matrix.sweep_stats.hits == 2


class TestSaltFreshness:
    """simulator_salt() must track source edits within one process.

    A long-lived harness editing policies between sweeps must never
    write cache entries under a stale salt, so every ``.py`` file of
    the package is hashed on each call.
    """

    @pytest.fixture
    def salt_tree(self, tmp_path, monkeypatch):
        from repro.harness import engine

        root = tmp_path / "repro"
        (root / "core").mkdir(parents=True)
        (root / "core" / "simulator.py").write_text("X = 1\n")
        (root / "harness").mkdir()
        (root / "harness" / "engine.py").write_text("Y = 1\n")
        (root / "errors.py").write_text("class E(Exception): pass\n")
        (root / "core" / "__pycache__").mkdir()
        (root / "core" / "__pycache__" / "stale.py").write_text("Z = 0\n")
        (root / "README.md").write_text("not source\n")
        monkeypatch.setattr(engine, "_salt_root", lambda: root)
        return root

    def test_salt_is_memoized_while_sources_unchanged(self, salt_tree):
        # Repeated calls agree: the salt is a pure function of the tree.
        from repro.harness import engine

        first = engine.simulator_salt()
        assert engine.simulator_salt() == first
        assert len(first) == 16

    def test_source_edit_mints_new_salt_same_process(self, salt_tree):
        from repro.harness import engine

        first = engine.simulator_salt()
        (salt_tree / "core" / "simulator.py").write_text("X = 2\n")
        second = engine.simulator_salt()
        assert second != first
        # And it settles: the new salt is itself stable.
        assert engine.simulator_salt() == second

    def test_new_source_file_changes_salt(self, salt_tree):
        from repro.harness import engine

        first = engine.simulator_salt()
        (salt_tree / "core" / "extra.py").write_text("Y = 3\n")
        assert engine.simulator_salt() != first

    def test_single_module_entry_edit_changes_salt(self, salt_tree):
        from repro.harness import engine

        first = engine.simulator_salt()
        (salt_tree / "errors.py").write_text("class E(RuntimeError): pass\n")
        assert engine.simulator_salt() != first

    def test_engine_module_edit_changes_salt(self, salt_tree):
        # The code pairing results with cells and keys is salted too.
        from repro.harness import engine

        first = engine.simulator_salt()
        (salt_tree / "harness" / "engine.py").write_text("Y = 2\n")
        assert engine.simulator_salt() != first

    def test_salt_source_files_lists_py_entries_once(self, salt_tree):
        from repro.harness import engine

        files = engine.salt_source_files(salt_tree)
        names = [p.relative_to(salt_tree).as_posix() for p in files]
        assert names == [
            "core/simulator.py", "errors.py", "harness/engine.py",
        ]

    def test_live_tree_salts_every_package_module(self):
        from pathlib import Path

        import repro
        from repro.harness import engine

        root = Path(repro.__file__).resolve().parent
        expected = sorted(
            p for p in root.rglob("*.py") if "__pycache__" not in p.parts
        )
        files = engine.salt_source_files()
        assert files == expected
        names = {p.relative_to(root).as_posix() for p in files}
        assert {"harness/engine.py", "resilience/executor.py"} <= names
