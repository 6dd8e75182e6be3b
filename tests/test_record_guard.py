"""The benchmark recorders' append guard.

``recording_guard.guard_append`` protects the checked-in trajectory
files (BENCH_sweep.json, BENCH_sampling.json) from two silent poisons:
entries recorded from a dirty tree (misattributed to a commit) and
duplicate (SHA, shape) entries (the latest-vs-previous gates would
compare a commit against itself). These tests exercise the guard
directly and through both recorders' shape definitions.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).parent.parent / "benchmarks"


def _load(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Register before exec so the recorders' own `from recording_guard
    # import ...` resolves to the same module object the tests patch.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


guard = _load("recording_guard")


@pytest.fixture
def clean_tree(monkeypatch):
    """Pretend the working tree is clean regardless of the real repo."""
    monkeypatch.setattr(guard, "working_tree_changes", lambda *a, **k: [])


@pytest.fixture
def dirty_tree(monkeypatch):
    monkeypatch.setattr(
        guard, "working_tree_changes", lambda *a, **k: [" M src/repro/x.py"]
    )


SHAPE_KEYS = ("smoke", "scale")
SHAPE = {"smoke": True, "scale": {"gap_window": 1000}}


def entry(sha: str, **overrides) -> dict:
    doc = {"git_sha": sha, **SHAPE, "value": 1.0}
    doc.update(overrides)
    return doc


class TestGuardAppend:
    def test_clean_tree_new_sha_passes(self, clean_tree, tmp_path):
        guard.guard_append(
            tmp_path / "t.json", [entry("aaa")], "bbb", SHAPE, SHAPE_KEYS
        )

    def test_dirty_tree_refused(self, dirty_tree, tmp_path):
        with pytest.raises(guard.RecordingGuardError, match="uncommitted"):
            guard.guard_append(
                tmp_path / "t.json", [], "bbb", SHAPE, SHAPE_KEYS
            )

    def test_duplicate_sha_same_shape_refused(self, clean_tree, tmp_path):
        with pytest.raises(guard.RecordingGuardError, match="already has"):
            guard.guard_append(
                tmp_path / "t.json", [entry("aaa")], "aaa", SHAPE, SHAPE_KEYS
            )

    def test_duplicate_sha_different_shape_allowed(self, clean_tree, tmp_path):
        # Same commit measured at another scale is a distinct data point.
        smoke_entry = entry("aaa")
        full_shape = {"smoke": False, "scale": {"gap_window": 100000}}
        guard.guard_append(
            tmp_path / "t.json", [smoke_entry], "aaa", full_shape, SHAPE_KEYS
        )

    def test_unknown_sha_skips_duplicate_check(self, clean_tree, tmp_path):
        guard.guard_append(
            tmp_path / "t.json",
            [entry("unknown")],
            "unknown",
            SHAPE,
            SHAPE_KEYS,
        )

    def test_force_downgrades_to_warning(self, dirty_tree, tmp_path, capsys):
        guard.guard_append(
            tmp_path / "t.json",
            [entry("aaa")],
            "aaa",
            SHAPE,
            SHAPE_KEYS,
            force=True,
        )
        captured = capsys.readouterr()
        assert "warning (--force)" in captured.err

    def test_all_reasons_reported_at_once(self, dirty_tree, tmp_path):
        with pytest.raises(guard.RecordingGuardError) as excinfo:
            guard.guard_append(
                tmp_path / "t.json", [entry("aaa")], "aaa", SHAPE, SHAPE_KEYS
            )
        message = str(excinfo.value)
        assert "uncommitted" in message
        assert "already has" in message
        assert "--force" in message

    def test_dirty_listing_truncated(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            guard,
            "working_tree_changes",
            lambda *a, **k: [f" M file{i}.py" for i in range(9)],
        )
        with pytest.raises(guard.RecordingGuardError, match=r"\(9 total\)"):
            guard.guard_append(tmp_path / "t.json", [], "bbb", SHAPE, SHAPE_KEYS)


class TestEntryShape:
    def test_reduces_to_shape_keys(self):
        doc = entry("aaa", extra="ignored")
        assert guard.entry_shape(doc, SHAPE_KEYS) == SHAPE

    def test_missing_keys_become_none(self):
        assert guard.entry_shape({}, SHAPE_KEYS) == {"smoke": None, "scale": None}


class TestWorkingTreeChanges:
    def test_returns_list_of_status_lines(self):
        # Runs against the real repo: just assert the contract shape.
        lines = guard.working_tree_changes()
        assert isinstance(lines, list)
        assert all(isinstance(line, str) for line in lines)

    def test_outside_git_returns_empty(self, tmp_path):
        assert guard.working_tree_changes(tmp_path) == []


class TestRecorderIntegration:
    """The recorders' main() must consult the guard before measuring."""

    def test_sampling_recorder_refuses_duplicate(self, monkeypatch, tmp_path):
        rec = _load("record_sampling")
        monkeypatch.setattr(rec, "_git_sha", lambda: "cafebabe" * 5)
        shape = {"smoke": True, "scale": {}, "spec": {}, "policies": [],
                 "suite_names": ["gap"]}
        monkeypatch.setattr(rec, "expected_shape", lambda suites: dict(shape))
        existing = {"git_sha": "cafebabe" * 5, **shape}
        output = tmp_path / "BENCH_sampling.json"
        output.write_text(
            json.dumps({"schema": 1, "entries": [existing]})
        )
        # A clean tree, so only the duplicate check can fire.
        monkeypatch.setattr(guard, "working_tree_changes", lambda *a, **k: [])
        code = rec.main(["--suites", "gap", "--output", str(output)])
        assert code == 2

    def test_trajectory_recorder_refuses_duplicate(self, monkeypatch, tmp_path):
        rec = _load("record_trajectory")
        monkeypatch.setattr(rec, "_git_sha", lambda: "cafebabe" * 5)
        shape = {"smoke": True, "scale": {}, "matrix": {"cells": 210}}
        monkeypatch.setattr(rec, "expected_shape", lambda: dict(shape))
        monkeypatch.setattr(
            rec, "measure", lambda **kw: pytest.fail("measured a duplicate"))
        existing = {"git_sha": "cafebabe" * 5, **shape}
        output = tmp_path / "BENCH_sweep.json"
        output.write_text(
            json.dumps({"schema": 1, "entries": [existing]})
        )
        # A clean tree, so only the duplicate check can fire.
        monkeypatch.setattr(guard, "working_tree_changes", lambda *a, **k: [])
        assert rec.main(["--output", str(output)]) == 2
