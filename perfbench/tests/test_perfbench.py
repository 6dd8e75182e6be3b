"""Self-tests of the benchmark at toy sizes.

    python3 -m pytest perfbench/tests -q

Each test drives ``run.py`` or ``phase.py`` in subprocesses, as the
benchmark itself does, so the wrappers the traced mode installs never
leak into this process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "toy", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def phase(tmp_path: Path, request: dict) -> dict:
    request_path = tmp_path / f"{request['phase']}-request.json"
    result_path = tmp_path / f"{request['phase']}-result.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "phase.py"), str(request_path), str(result_path)],
        cwd=ROOT, check=True, timeout=170,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in doc[kind]}


def test_benchmark_json_matches_the_command():
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert declared("per_layer") == dict(run.PER_LAYER)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    for name, unit in expected.items():
        assert printed[name] == unit
    if trace == "0":
        assert printed["failed_cell_frac"] == "ratio"
        sampled = {name for name, _ in run.SAMPLING_ACCURACY} <= set(printed)
        assert sampled == WORKLOADS[workload].sampled
    else:
        assert result["metrics"]["trace.coverage_frac"]["value"] > 0.5


def test_injected_mismatch_counts_as_a_failed_cell():
    done = bench("--workload", "spec-percell", "--seed", "3", "--inject-mismatch")
    assert done.returncode == 1
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] == 1
    failed = [line for line in lines if line.startswith("FAILED ")]
    assert len(failed) == 1 and "reference" in failed[0]
    frac = next(line for line in lines if line.startswith("failed_cell_frac"))
    assert float(frac.split()[1]) == pytest.approx(1 / result["attempted"])


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gap-batched"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and not done.stdout.strip()


@pytest.mark.parametrize("workload", ["gap-batched", "spec-percell"])
def test_one_seed_gives_identical_digests_in_two_processes(tmp_path, workload):
    def digests(seed: int, tag: str) -> dict:
        return phase(tmp_path, {
            "phase": "setup", "workload": workload, "seed": seed, "size": "toy",
            "trace": False, "trace_dir": str(tmp_path / tag),
        })["digests"]

    first = digests(5, "a")
    assert digests(5, "b") == first
    other = digests(6, "c")
    assert other.keys() == first.keys() and other != first


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_spans_nest_and_self_times_sum_to_wall_clock(tmp_path, workload):
    trace_dir = str(tmp_path / "traces")
    phase(tmp_path, {
        "phase": "setup", "workload": workload, "seed": 4, "size": "toy",
        "trace": False, "trace_dir": trace_dir,
    })
    swept = phase(tmp_path, {
        "phase": "sweep", "workload": workload, "seed": 4, "size": "toy",
        "trace": True, "trace_dir": trace_dir, "work_dir": str(tmp_path / "sweep"),
    })
    assert swept["nesting_errors"] == []
    assert swept["self_time_sum_s"] == pytest.approx(swept["traced_wall_s"], abs=1e-6)
    assert swept["traced_wall_s"] <= swept["sweep_s"]
    assert not swept["errors"]
