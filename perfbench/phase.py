"""One phase of a benchmark run, in a fresh interpreter.

    python3 perfbench/phase.py <request.json> <result.json>

``run.py`` starts every phase this way so that no in-process memo (the
simulator salt, trace digests, sampling checkpoints) carries over from
one measurement to the next, and so that each phase has its own peak
RSS. Phases:

* ``setup`` generates the workload's traces and times that alone; the
  first repetition saves them with ``repro.trace.io.save_trace``.
* ``sweep`` loads the saved traces (untimed) and times one cold sweep,
  from constructing ``SweepEngine`` to the returned outcome.
* ``check`` re-simulates a seed-chosen sample of cells with
  ``engine="reference"``, compares results byte for byte and, for the
  sampled workload, measures the sampled cells' error against full
  simulation.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro  # noqa: E402,F401  (imported before any timer starts)
import repro.gap.suite  # noqa: E402,F401
import repro.spec.patterns  # noqa: E402,F401
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.core.config import cascade_lake  # noqa: E402
from repro.core.results import SimulationResult  # noqa: E402
from repro.trace.io import load_trace, save_trace  # noqa: E402


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024


def _cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def canonical(result: SimulationResult) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True, separators=(",", ":"))


def load_traces(trace_dir: Path) -> dict:
    manifest = json.loads((trace_dir / "manifest.json").read_text(encoding="utf-8"))
    return {m["name"]: load_trace(trace_dir / m["file"]) for m in manifest}


def setup(req: dict) -> dict:
    sizes = workloads.SIZES[req["size"]]
    if req["trace"]:
        tracing.install_setup()
    start = time.perf_counter()
    traces = workloads.build_traces(req["workload"], req["seed"], sizes)
    out = {"setup_s": time.perf_counter() - start, "rss_mb": peak_rss_mb()}
    out["accesses"] = sum(len(t) for t in traces.values())
    if req["trace"]:
        out["layers"] = tracing.setup_metrics(tracing.SPANS)
    if req.get("trace_dir"):
        trace_dir = Path(req["trace_dir"])
        trace_dir.mkdir(parents=True)
        manifest = []
        for index, (name, trace) in enumerate(traces.items()):
            path = save_trace(trace, trace_dir / f"trace-{index:02d}.npz")
            manifest.append({"name": name, "file": path.name, "digest": trace.digest()})
        (trace_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out["digests"] = {m["name"]: m["digest"] for m in manifest}
    return out


def sweep(req: dict) -> dict:
    from repro.harness.engine import SweepEngine
    from repro.resilience.durability import ShutdownCoordinator
    from repro.sampling import SamplingSpec

    workload = workloads.WORKLOADS[req["workload"]]
    traces = load_traces(Path(req["trace_dir"]))
    work = Path(req["work_dir"])
    config = cascade_lake()
    traced = req["trace"]
    if traced:
        span_dir = work / "spans"
        span_dir.mkdir(parents=True)
        tracing.install_sweep(span_dir)
    outcomes = []
    with ShutdownCoordinator() as shutdown:
        cpu = _cpu_s()
        start = time.perf_counter()
        with tracing.span("sweep") if traced else nullcontext():
            for policies, strategy in workloads.sweep_groups(workload):
                sampling = SamplingSpec(warm_synthesis=strategy) if strategy else None
                engine = SweepEngine(
                    cache_dir=work / "cache", jobs=workload.jobs,
                    journal_dir=work / "journal",
                )
                outcomes.append(engine.run(
                    traces, policies, config=config, engine=workload.engine,
                    isolate_failures=True, sampling=sampling, shutdown=shutdown,
                    journal_context={
                        "workloads": list(traces), "policies": policies,
                        "engine": workload.engine,
                        "sampling": sampling.describe() if sampling else None,
                    },
                ))
        sweep_s = time.perf_counter() - start
        cpu = _cpu_s() - cpu
    out = {
        "sweep_s": sweep_s,
        "cpu_s": cpu,
        "rss_mb": max(peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN)),
        "results": {},
        "errors": {},
    }
    for outcome in outcomes:
        for name, row in outcome.matrix.results.items():
            for policy, result in row.items():
                out["results"][f"{name}|{policy}"] = canonical(result)
        for (name, policy), error in outcome.errors.items():
            out["errors"][f"{name}|{policy}"] = error.render()
    if traced:
        workers = tracing.worker_spans(span_dir)
        out["layers"] = tracing.sweep_metrics(
            tracing.SPANS, 0, workers, workload.jobs, workload.engine
        )
        out["nesting_errors"] = tracing.nesting_errors(tracing.SPANS) + [
            error for doc in workers
            for error in tracing.nesting_errors(doc["spans"], rooted=False)
        ]
        out["traced_wall_s"] = tracing.SPANS[0][2] - tracing.SPANS[0][1]
        out["self_time_sum_s"] = sum(tracing.self_times(tracing.SPANS))
    return out


def _rel_error(estimate: float, truth: float) -> float:
    """Relative error as ``repro.sampling.validate.ValidationCell`` defines it."""
    return abs(estimate - truth) / truth if truth else abs(estimate)


def model_metrics(results: dict[str, SimulationResult]) -> dict[str, float]:
    """Modelled-machine totals over every cell (deterministic per seed)."""
    measured = sum(
        r.info["measured_accesses"] if "sampling" not in r.info
        else r.info["sampling_plan"]["trace_accesses"] - r.info["warmup_accesses"]
        for r in results.values()
    )
    llc_accesses = sum(r.levels["LLC"].demand_accesses for r in results.values())
    llc_misses = sum(r.levels["LLC"].demand_misses for r in results.values())
    instructions = sum(r.instructions for r in results.values())
    return {
        "model.llc_accesses_per_access": llc_accesses / measured,
        "model.llc_mpki": 1000.0 * llc_misses / instructions,
        "model.dram_reads": sum(r.dram_reads for r in results.values()),
    }


def check(req: dict) -> dict:
    from repro.core.simulator import simulate
    from repro.harness.engine import SweepEngine
    from repro.sampling import PREFERRED_SYNTHESIS, SamplingSpec, simulate_sampled

    workload = workloads.WORKLOADS[req["workload"]]
    traces = load_traces(Path(req["trace_dir"]))
    sweeps = [
        json.loads(Path(path).read_text(encoding="utf-8"))
        for path in req["sweep_files"]
    ]
    cells = [f"{name}|{policy}" for name in traces for policy in workloads.POLICIES]
    first = dict(sweeps[0]["results"])
    failed: dict[str, str] = {}
    for index, done in enumerate(sweeps):
        for cell in cells:
            if cell in failed:
                continue
            if cell in done["errors"]:
                failed[cell] = f"sweep {index} raised: {done['errors'][cell]}"
            elif cell not in done["results"]:
                failed[cell] = f"sweep {index} returned no result"
            elif done["results"][cell] != first[cell]:
                failed[cell] = f"sweep {index} differs from sweep 0"

    sample = random.Random(req["seed"]).sample(cells, min(workload.check_cells, len(cells)))
    if req.get("inject_mismatch") and sample[0] in first:
        doc = json.loads(first[sample[0]])
        doc["cycles"] += 1.0
        first[sample[0]] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    config = cascade_lake()
    for cell in sample:
        if cell in failed:
            continue
        name, policy = cell.split("|")
        if workload.sampled:
            spec = SamplingSpec(warm_synthesis=PREFERRED_SYNTHESIS[policy])
            reference = simulate_sampled(
                traces[name], config=config, llc_policy=policy, sampling=spec,
                engine="reference",
            )
        else:
            reference = simulate(
                traces[name], config=config, llc_policy=policy, engine="reference"
            )
        if canonical(reference) != first[cell]:
            failed[cell] = "differs from the engine=\"reference\" result"

    results = {
        cell: SimulationResult.from_json_dict(json.loads(text))
        for cell, text in first.items()
    }
    out = {
        "cells": len(cells),
        "failed": failed,
        "model": model_metrics(results) if results else {},
    }
    if workload.sampled:
        # The accuracy reference: a full (unsampled) batched sweep of the
        # same cells, outside every timed measurement.
        work = Path(req["work_dir"])
        start = time.perf_counter()
        full = SweepEngine(
            cache_dir=work / "cache", jobs=1, journal_dir=work / "journal"
        ).run(traces, list(workloads.POLICIES), config=config, engine="batched",
              isolate_failures=True)
        out["full_batched_s"] = time.perf_counter() - start
        errors = {}
        for name, row in full.matrix.results.items():
            for policy, truth in row.items():
                estimate = results.get(f"{name}|{policy}")
                if estimate is not None:
                    errors[f"{name}|{policy}"] = (
                        _rel_error(estimate.llc_mpki, truth.llc_mpki),
                        _rel_error(estimate.ipc, truth.ipc),
                    )
        for (name, policy), error in full.errors.items():
            failed.setdefault(f"{name}|{policy}", f"full reference raised: {error.render()}")
        out["sampling_errors"] = errors
    return out


PHASES = {"setup": setup, "sweep": sweep, "check": check}


def main() -> None:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = PHASES[request["phase"]](request)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
