"""The repo benchmark: one workload, one seed, plain or traced.

    python3 perfbench/run.py --workload gap-batched --seed 1 --seconds 30 --trace 0

Set-up repetitions, sweeps and the correctness check each run in a
fresh interpreter (``phase.py``). The plain run (``--trace 0``) reports
the end-to-end metrics; the traced run (``--trace 1``) alternates plain
and traced sweeps and reports the per-layer metrics. The last line of
standard output is one JSON object; the lines before it list every
metric with its unit and name every failed cell. Exit code: 0 when
every cell is correct, 1 when some cell failed, 2 without repro
sources next to this directory, 3 when a phase fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, POLICIES, SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Per-run working directory for traces, caches and journals (removed after the run).
WORK_DIR = ROOT / ".perfbench-work"
#: Hard stop for a whole run, inside the 180 s a run may take.
BUDGET_S = 170.0
#: Time kept back from the sweep loop for the correctness check.
CHECK_RESERVE_S = 30.0

KERNELS = ("bfs", "pr", "cc", "sssp", "bc", "tc")

END_TO_END = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("sim_accesses_per_s", "accesses/s"),
    ("setup_rss_mb", "MiB"),
    ("sweep_rss_mb", "MiB"),
]
#: Printed with the end-to-end metrics but not compared: failures reach
#: the JSON as ``attempted``/``failed``, and sampling error exists on
#: the sampled workload only.
SAMPLING_ACCURACY = [
    ("llc_mpki_err_mean", "ratio"),
    ("llc_mpki_err_max", "ratio"),
    ("ipc_err_mean", "ratio"),
    ("ipc_err_max", "ratio"),
]
ACCURACY = [("failed_cell_frac", "ratio"), *SAMPLING_ACCURACY]

PER_LAYER = [
    ("graphs.build_s", "s"),
    *[(f"gap.kernel_s.{k}", "s") for k in KERNELS],
    ("spec.build_s", "s"),
    ("harness.salt_s", "s"),
    ("harness.cell_key_s", "s"),
    ("harness.cache_load_s", "s"),
    ("harness.cache_loads", "count"),
    ("harness.cache_store_s", "s"),
    ("harness.cache_stores", "count"),
    ("harness.cache_store_bytes", "B"),
    ("journal.open_s", "s"),
    ("journal.record_s", "s"),
    ("journal.records", "count"),
    ("journal.fsyncs", "count"),
    ("pool.first_result_s", "s"),
    ("pool.trace_ship_bytes", "B"),
    ("pool.busy_frac", "ratio"),
    ("pool.cell_p50_s", "s"),
    ("pool.cell_p90_s", "s"),
    ("batch.plan_s", "s"),
    *[(f"batch.replay_s.{p}", "s") for p in POLICIES],
    ("batch.cells", "count"),
    ("batch.fallback_cells", "count"),
    *[(f"fastpath.cell_s.{p}", "s") for p in POLICIES],
    ("fastpath.fallback_cells", "count"),
    *[(f"policy.extra_s.{p}", "s") for p in POLICIES if p != "lru"],
    ("sampling.plan_s", "s"),
    ("sampling.checkpoint_s", "s"),
    ("sampling.checkpoint_passes", "count"),
    ("sampling.warm_s", "s"),
    ("sampling.interval_s", "s"),
    ("sampling.simulated_frac", "ratio"),
    ("sampling.functional_frac", "ratio"),
    ("sampling.full_batched_s", "s"),
    *[(f"sampling.llc_mpki_err_max.{p}", "ratio") for p in POLICIES],
    *[(f"sampling.ipc_err_max.{p}", "ratio") for p in POLICIES],
    ("model.llc_accesses_per_access", "ratio"),
    ("model.llc_mpki", "MPKI"),
    ("model.dram_reads", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
]


class BenchError(Exception):
    """A phase failed or overran: no result can be reported."""


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_phase(phase: str, request: dict, work: Path, deadline: float) -> tuple[dict, Path]:
    """Run one phase in a fresh interpreter; its result and result file."""
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{phase}-{sum(1 for _ in work.glob(f'{phase}-*.request.json'))}"
    request_path = work / f"{tag}.request.json"
    result_path = work / f"{tag}.result.json"
    request_path.write_text(json.dumps({"phase": phase, **request}), encoding="utf-8")
    # A new process group, so a kill also reaches the phase's pool workers.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "phase.py"), str(request_path), str(result_path)],
        cwd=ROOT, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchError(f"the {phase} phase overran the {BUDGET_S:.0f} s budget") from None
    except BaseException:
        _kill(proc)
        raise
    if code != 0:
        raise BenchError(f"the {phase} phase exited with code {code}")
    return json.loads(result_path.read_text(encoding="utf-8")), result_path


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def measure(args: argparse.Namespace, work: Path, deadline: float) -> dict:
    sizes = SIZES[args.size]
    workload = WORKLOADS[args.workload]
    base = {"workload": args.workload, "seed": args.seed, "size": args.size}
    trace_dir = str(work / "traces")
    traced_run = bool(args.trace)

    setups = [
        run_phase("setup", {
            **base, "trace": traced_run, "trace_dir": trace_dir if rep == 0 else None,
        }, work, deadline)[0]
        for rep in range(sizes.setup_reps)
    ]

    # Sweeps until the next one would end past --seconds; the traced
    # run alternates plain and traced sweeps and stops on a whole pair.
    sweeps: list[tuple[bool, dict, Path]] = []
    step = 2 if traced_run else 1
    started = time.monotonic()
    while True:
        traced = traced_run and len(sweeps) % 2 == 1
        result, path = run_phase("sweep", {
            **base, "trace": traced, "trace_dir": trace_dir,
            "work_dir": str(work / f"sweep-{len(sweeps)}"),
        }, work, deadline)
        if result.get("nesting_errors"):
            raise BenchError("traced spans do not nest: " + "; ".join(result["nesting_errors"]))
        sweeps.append((traced, result, path))
        if len(sweeps) % step:
            continue
        elapsed = time.monotonic() - started
        next_step = step * elapsed / len(sweeps)
        late = time.monotonic() + next_step > deadline - CHECK_RESERVE_S
        if len(sweeps) >= sizes.min_sweeps * step and (
            elapsed + next_step > args.seconds or late
        ):
            break
        if late:
            raise BenchError(f"{len(sweeps)} sweeps fill the whole time budget")

    check, _ = run_phase("check", {
        **base, "trace_dir": trace_dir, "work_dir": str(work / "check"),
        "sweep_files": [str(path) for _, _, path in sweeps],
        "inject_mismatch": args.inject_mismatch,
    }, work, deadline)

    plain = [result for traced, result, _ in sweeps if not traced]
    sweep_s = _median(plain, "sweep_s")
    failed = check["failed"]
    report = {
        "correct": not failed,
        "attempted": check["cells"],
        "failed": failed,
        "end_to_end": {
            "setup_s": _median(setups, "setup_s"),
            "sweep_s": sweep_s,
            "sim_accesses_per_s": setups[0]["accesses"] * len(POLICIES) / sweep_s,
            "setup_rss_mb": _median(setups, "rss_mb"),
            "sweep_rss_mb": _median(plain, "rss_mb"),
        },
        "accuracy": {"failed_cell_frac": len(failed) / check["cells"]},
    }
    errors = check.get("sampling_errors")
    if workload.sampled and errors:
        mpki = [e[0] for e in errors.values()]
        ipc = [e[1] for e in errors.values()]
        report["accuracy"].update({
            "llc_mpki_err_mean": statistics.fmean(mpki),
            "llc_mpki_err_max": max(mpki),
            "ipc_err_mean": statistics.fmean(ipc),
            "ipc_err_max": max(ipc),
        })
    if traced_run:
        traced = [result for is_traced, result, _ in sweeps if is_traced]
        layers = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        for runs in ([s["layers"] for s in setups], [s["layers"] for s in traced]):
            for key in runs[0]:
                layers[key] = statistics.median(run[key] for run in runs)
        layers.update(check["model"])
        layers["sampling.full_batched_s"] = check.get("full_batched_s", 0.0)
        for cell, (mpki_err, ipc_err) in (errors or {}).items():
            policy = cell.split("|")[1]
            key = f"sampling.llc_mpki_err_max.{policy}"
            layers[key] = max(layers[key], mpki_err)
            key = f"sampling.ipc_err_max.{policy}"
            layers[key] = max(layers[key], ipc_err)
        layers["trace.overhead_frac"] = _median(traced, "sweep_s") / sweep_s - 1.0
        report["per_layer"] = layers
    report["sweeps"] = [(run["sweep_s"], run["cpu_s"]) for run in plain]
    return report


def print_report(report: dict, traced: bool) -> None:
    if traced:
        shown = [(name, unit, report["per_layer"][name]) for name, unit in PER_LAYER]
        metrics = shown
    else:
        metrics = [(n, u, report["end_to_end"][n]) for n, u in END_TO_END]
        shown = metrics + [
            (n, u, report["accuracy"][n])
            for n, u in ACCURACY if n in report["accuracy"]
        ]
    print(f"# {report['attempted']} cells; plain sweeps (wall s / cpu s): " + ", ".join(
        f"{wall:.3f}/{cpu:.3f}" for wall, cpu in report["sweeps"]))
    for name, unit, value in shown:
        print(f"{name:<34} {value:>16.6g} {unit}")
    for cell, reason in sorted(report["failed"].items()):
        print(f"FAILED {cell.replace('|', ' x ')}: {reason}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": len(report["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in metrics},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the sweep loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="trace sizes (toy: the self-tests' scale)")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one checked cell's result (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report = measure(args, work, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    print_report(report, traced=bool(args.trace))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
