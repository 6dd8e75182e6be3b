"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestSimulate:
    def test_gap_workload(self, capsys):
        rc = main(["simulate", "gap.bfs.10", "--window", "5000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "LLC" in out

    def test_spec_workload_with_policy(self, capsys):
        rc = main(["simulate", "spec06.milc", "--policy", "srrip",
                   "--window", "5000"])
        assert rc == 0
        assert "srrip" in capsys.readouterr().out

    def test_unknown_workload_fails_cleanly(self, capsys):
        rc = main(["simulate", "nonsense.z"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_spec_name_lists_available(self, capsys):
        rc = main(["simulate", "spec06.doesnotexist"])
        assert rc == 1
        assert "mcf" in capsys.readouterr().err

    def test_bad_gap_kernel(self, capsys):
        rc = main(["simulate", "gap.zzz"])
        assert rc == 1
        assert "bfs" in capsys.readouterr().err

    def test_unknown_policy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["simulate", "gap.bfs.10", "--policy", "nope"])


class TestSweep:
    def test_two_workloads_two_policies(self, capsys):
        rc = main([
            "sweep", "spec06.milc", "gap.cc.10",
            "--policies", "srrip", "brrip", "--window", "5000",
            "--jobs", "1", "--no-cache",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Speed-up over LRU" in captured.out
        assert "spec06.milc" in captured.out
        assert "6 simulated" in captured.err  # 2 workloads x (lru + 2 policies)

    def test_gap_graph_built_once_per_scale(self, capsys, monkeypatch):
        import repro.__main__ as cli

        built, swept = [], {}
        real_build, real_matrix = cli.build_graph, cli.run_matrix

        def counting_build(spec):
            built.append(spec.scale)
            return real_build(spec)

        def capturing_matrix(traces, *args, **kwargs):
            swept.update(traces)
            return real_matrix(traces, *args, **kwargs)

        monkeypatch.setattr(cli, "build_graph", counting_build)
        monkeypatch.setattr(cli, "run_matrix", capturing_matrix)
        workloads = ["gap.bfs.10", "gap.pr.10", "gap.cc.9"]
        rc = main(["sweep", *workloads, "--policies", "srrip", "--window", "2000",
                   "--jobs", "1", "--no-cache"])
        assert rc == 0
        assert sorted(built) == [9, 10]
        for workload in workloads:
            alone = cli._build_trace(workload, 2000)
            assert swept[workload].digest() == alone.digest()

    def test_sweep_caches_across_invocations(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "gap.cc.10", "--policies", "srrip",
                "--window", "5000", "--jobs", "1"]
        assert main(argv) == 0
        assert "2 simulated" in capsys.readouterr().err
        assert main(argv) == 0
        assert "2 from cache, 0 simulated" in capsys.readouterr().err


class TestCache:
    def test_stats_clear_prune_cycle(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        main(["sweep", "gap.cc.10", "--policies", "srrip",
              "--window", "5000", "--jobs", "1"])
        capsys.readouterr()

        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:      2" in out
        assert "current salt" in out

        assert main(["cache", "prune"]) == 0
        assert "pruned 0 stale entries" in capsys.readouterr().out

        assert main(["cache", "clear"]) == 0
        assert "removed 2 entries" in capsys.readouterr().out

    def test_salt_is_printable_and_stable(self, capsys):
        assert main(["cache", "salt"]) == 0
        first = capsys.readouterr().out.strip()
        assert main(["cache", "salt"]) == 0
        second = capsys.readouterr().out.strip()
        assert first == second
        assert len(first) == 16

    def test_explicit_cache_dir_flag(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "x")]) == 0
        assert "entries:      0" in capsys.readouterr().out


class TestLint:
    def test_live_tree_is_clean(self, capsys):
        rc = main(["lint"])
        assert rc == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy-hooks" in out
        assert "pc-writeback-guard" in out

    def test_bad_fixture_fails_with_locations(self, tmp_path, capsys):
        bad = tmp_path / "bad_policy.py"
        bad.write_text(
            "class Broken(ReplacementPolicy):\n"
            "    name = 'broken'\n"
            "\n"
            "    def find_victim(self, set_index, access, tags):\n"
            "        return None\n"
            "\n"
            "    def on_fill(self, set_index, way, access):\n"
            "        self._sig[way] = access.pc & 255\n"
        )
        rc = main(["lint", str(bad)])
        assert rc == 1
        out = capsys.readouterr().out
        assert f"{bad}:5: error [victim-return]" in out
        assert "[pc-writeback-guard]" in out
        assert "hint:" in out

    def test_rule_subset(self, tmp_path, capsys):
        bad = tmp_path / "bad_policy.py"
        bad.write_text(
            "class Broken(ReplacementPolicy):\n"
            "    def find_victim(self, set_index, access, tags):\n"
            "        return None\n"
        )
        rc = main(["lint", str(bad), "--rules", "policy-hooks"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[policy-hooks]" in out
        assert "[victim-return]" not in out

    def test_unknown_rule_fails_cleanly(self, capsys):
        rc = main(["lint", "--rules", "nope"])
        assert rc == 1
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_path_fails_cleanly(self, tmp_path, capsys):
        rc = main(["lint", str(tmp_path / "absent.py")])
        assert rc == 1
        assert "does not exist" in capsys.readouterr().err

    def test_non_python_path_fails_cleanly(self, tmp_path, capsys):
        stray = tmp_path / "notes.txt"
        stray.write_text("not code")
        rc = main(["lint", str(stray)])
        assert rc == 1
        assert "not a Python file" in capsys.readouterr().err

    def test_strict_promotes_warnings(self, tmp_path):
        warn_only = tmp_path / "hot.py"
        warn_only.write_text(
            "def lookup(tags, block):  # hot\n"
            "    return [t for t in tags if t == block]\n"
        )
        assert main(["lint", str(warn_only)]) == 0
        assert main(["lint", str(warn_only), "--strict"]) == 1

    def test_strict_full_tree_gate_passes(self, capsys):
        # The CI gate: the live tree under the checked-in baseline.
        assert main(["lint", "--strict"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().err

    def test_no_baseline_surfaces_suppressed_findings(self, capsys):
        assert main(["lint"]) == 0
        baselined_run = capsys.readouterr().err
        assert main(["lint", "--no-baseline"]) == 0  # warnings, not errors
        raw_run = capsys.readouterr().err
        assert "0 warning(s)" in baselined_run
        assert "0 warning(s)" not in raw_run

    def test_format_json_round_trips(self, capsys):
        import json

        from repro.lint import parse_json

        assert main(["lint", "--format", "json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["version"] == 1
        assert doc["summary"]["errors"] == 0
        assert parse_json(out) == []

    def test_format_markdown_renders_summary(self, capsys):
        assert main(["lint", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("## repro lint")
        assert "baselined" in out

    def test_strict_appends_github_step_summary(self, tmp_path, monkeypatch,
                                                capsys):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert main(["lint", "--strict"]) == 0
        capsys.readouterr()
        assert "## repro lint" in summary.read_text()

    def test_non_strict_does_not_write_step_summary(self, tmp_path,
                                                    monkeypatch, capsys):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert main(["lint"]) == 0
        capsys.readouterr()
        assert not summary.exists()

    def test_explicit_baseline_flag_applies_to_paths(self, tmp_path, capsys):
        warn_only = tmp_path / "hot.py"
        warn_only.write_text(
            "def lookup(tags, block):  # hot\n"
            "    return [t for t in tags if t == block]\n"
        )
        baseline = tmp_path / "baseline.txt"
        baseline.write_text(
            "hot-alloc | hot.py | comprehension | expires=2030-01-01 "
            "| known hot helper\n"
        )
        rc = main(["lint", str(warn_only), "--strict",
                   "--baseline", str(baseline)])
        capsys.readouterr()
        assert rc == 0

    def test_missing_baseline_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["lint", "--baseline", str(tmp_path / "absent.txt")])
        assert rc == 1
        assert "baseline file not found" in capsys.readouterr().err

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "error-severity findings" in out


class TestSample:
    def test_plan_inspection(self, capsys):
        rc = main(["sample", "gap.cc.10", "--window", "5000", "--verbose"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "representative" in out
        assert "interval" in out
        assert "reduction" in out

    def test_plan_json_written(self, capsys, tmp_path):
        target = tmp_path / "plan.json"
        rc = main(["sample", "gap.cc.10", "--window", "5000",
                   "--json", str(target)])
        assert rc == 0
        import json

        doc = json.loads(target.read_text())
        assert doc["spec"]["intervals"] == 4
        assert doc["intervals"]

    def test_custom_spec_string(self, capsys):
        rc = main(["sample", "gap.cc.10", "--window", "5000",
                   "--spec", "k=2,window=500,warm=0"])
        assert rc == 0
        assert "of 500 accesses" in capsys.readouterr().out

    def test_bad_spec_fails_cleanly(self, capsys):
        rc = main(["sample", "gap.cc.10", "--spec", "clusters=4"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_no_workload_without_validate_fails(self, capsys):
        rc = main(["sample"])
        assert rc == 1
        assert "at least one workload" in capsys.readouterr().err

    def test_sweep_with_sampling_flag(self, capsys):
        rc = main([
            "sweep", "gap.cc.10", "--policies", "srrip",
            "--window", "5000", "--jobs", "1", "--no-cache",
            "--sampling", "k=2,window=500,warm=0",
        ])
        assert rc == 0
        assert "Speed-up over LRU" in capsys.readouterr().out


class TestExperiment:
    def test_table1(self, capsys):
        rc = main(["experiment", "table1"])
        assert rc == 0
        assert "Cascade" in capsys.readouterr().out or True
        # the rendered table at least mentions the LLC
        # (re-capture since readouterr consumed it above)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestDurableSweep:
    """CLI surface of the run journal, resume, and cache verify --json."""

    def test_journalled_sweep_prints_run_id_and_resumes(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journal"))
        argv = ["sweep", "gap.cc.10", "--policies", "srrip",
                "--window", "5000", "--jobs", "1"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "journalled at" in err
        run_id = err.split("run ")[-1].split(" journalled")[0]
        assert len(run_id) == 16

        # --resume with no workloads rebuilds the sweep from the header;
        # everything is journalled, so it completes on cache hits alone.
        assert main(["sweep", "--resume", run_id]) == 0
        err = capsys.readouterr().err
        assert f"resuming run {run_id}" in err
        assert "2 cell(s) already journalled" in err

    def test_sweep_without_workloads_or_resume_fails(self, capsys):
        rc = main(["sweep"])
        assert rc == 1
        assert "at least one workload" in capsys.readouterr().err

    def test_resume_with_no_cache_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journal"))
        rc = main(["sweep", "--resume", "0" * 16, "--no-cache"])
        assert rc == 1
        assert "--resume needs the result cache" in capsys.readouterr().err

    def test_resume_unknown_run_id_fails_cleanly(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journal"))
        rc = main(["sweep", "--resume", "deadbeefdeadbeef"])
        assert rc == 1
        assert "deadbeefdeadbeef" in capsys.readouterr().err

    def test_cache_verify_json_clean_and_corrupt(
        self, capsys, tmp_path, monkeypatch
    ):
        import json
        from pathlib import Path

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journal"))
        main(["sweep", "gap.cc.10", "--policies", "srrip",
              "--window", "5000", "--jobs", "1"])
        capsys.readouterr()

        assert main(["cache", "verify", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True
        assert report["checked"] == 2

        entry = next(p for p in Path(tmp_path / "cache").rglob("*.json")
                     if p.parent.name != "quarantine")
        entry.write_text(entry.read_text()[:-20], encoding="utf-8")
        assert main(["cache", "verify", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        assert report["quarantined"] == 1

        # The corrupt entry is now quarantined; verify keeps failing on
        # the quarantine evidence until it is inspected and cleared.
        assert main(["cache", "verify", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["previously_quarantined"] == 1

    def test_journal_inside_cache_root_reported(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journal"))
        rc = main(["sweep", "gap.cc.10", "--policies", "srrip",
                   "--window", "2000", "--jobs", "1"])
        assert rc == 1
        assert "inside the cache root" in capsys.readouterr().err
        assert not (tmp_path / "journal").exists()

    def test_chaos_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--scenario", "nope"])
