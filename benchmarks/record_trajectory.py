#!/usr/bin/env python
"""Record a sweep-throughput entry in the checked-in perf trajectory.

Times the smoke fig2/fig3 sweep matrix (every GAP + SPEC proxy workload
x every paper policy, at the ``REPRO_SMOKE`` scales) on two sides — the
per-cell fast engine and the batched multi-cell engine — with no result
cache, and appends a schema-versioned entry to ``BENCH_sweep.json`` at
the repository root:

* git SHA and UTC date of the measurement,
* per-engine wall-clock and cells/second for the identical matrix,
* the batched-over-fast wall-clock speed-up.

The ``fast`` side runs ``simulate(engine="fast")`` cell by cell, which
is what a ``fast`` sweep at one job ran before sweeps batched by
default; the ``batched`` side runs a default serial ``SweepEngine``
sweep of each trace. The two sides alternate trace by trace, so host
drift during the minutes-long measurement taxes both alike.

The file is the project's canonical performance trajectory (linked from
README/ROADMAP): every CI benchmarks run appends the current commit's
numbers and ``check_regression.py --trajectory`` gates them against the
last checked-in entry, so a throughput regression (or a batched engine
that quietly stops being faster) fails the build instead of eroding
silently. Because both sides run in the same process on the same
machine, the *ratio* is robust to host speed even though the absolute
cells/second are not.

Usage::

    REPRO_SMOKE=1 python benchmarks/record_trajectory.py
    python benchmarks/check_regression.py --trajectory

Appends are guarded (``recording_guard``): a dirty working tree or an
existing entry for the same commit at the same matrix shape refuses the
recording — either would poison the trajectory's latest-vs-previous
comparison — unless ``--force`` is given.

Everything runs serially in this process: the gated quantity is the
*ratio*, and process-pool startup and per-worker trace transfer are a
fixed absolute cost that would dent the (much shorter) batched
wall-clock disproportionately.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).parent
REPO_ROOT = BENCH_DIR.parent
DEFAULT_TRAJECTORY = REPO_ROOT / "BENCH_sweep.json"

#: Version of one trajectory entry's layout.
ENTRY_SCHEMA = 1

#: Entry fields that together define the "matrix shape" for the
#: duplicate-recording guard: a re-measurement of the same commit at a
#: different scale or matrix is allowed, an identical one is refused.
SHAPE_KEYS = ("smoke", "scale", "matrix")

#: Engines measured per entry. The fast per-cell engine's wall-clock is
#: the numerator of the speed-up.
MEASURED_ENGINES = ("fast", "batched")


def _git_sha() -> str:
    """The commit being measured: CI's GITHUB_SHA, else git, else unknown."""
    env = os.environ.get("GITHUB_SHA", "").strip()
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _smoke_matrix() -> tuple[dict, list[str]]:
    """The fig2/fig3 sweep inputs at the effective (smoke) scales."""
    from repro.harness.experiments import gap_traces, spec_traces
    from repro.policies.registry import BASELINE_POLICY, PAPER_POLICIES

    traces: dict = {}
    traces.update(gap_traces())
    traces.update(spec_traces("spec06"))
    traces.update(spec_traces("spec17"))
    policies = list(dict.fromkeys([BASELINE_POLICY, *PAPER_POLICIES]))
    return traces, policies


def expected_shape() -> dict:
    """The shape the next entry will record, computed before measuring.

    Matches the ``SHAPE_KEYS`` fields :func:`measure` writes, so the
    duplicate-recording guard can refuse *before* the (minutes-long)
    measurement runs.
    """
    from repro.harness.experiments import (
        effective_gap_scale,
        effective_gap_window,
        effective_spec_window,
        smoke_mode,
    )

    traces, policies = _smoke_matrix()
    return {
        "smoke": smoke_mode(),
        "scale": {
            "gap_window": effective_gap_window(),
            "gap_scale": effective_gap_scale(),
            "spec_window": effective_spec_window(),
        },
        "matrix": {
            "workloads": len(traces),
            "policies": len(policies),
            "cells": len(traces) * len(policies),
        },
    }


def _time_side(name: str, workload: str, trace, policies: list[str], config) -> float:
    """Wall-clock seconds of one trace's cells on one side."""
    from repro.core.simulator import simulate
    from repro.harness.engine import SweepEngine

    started = time.perf_counter()
    if name == "fast":
        for policy in policies:
            simulate(trace, config=config, llc_policy=policy, engine="fast")
        simulated = len(policies)
    else:
        outcome = SweepEngine(cache_dir=None, jobs=1).run(
            {workload: trace}, policies, config=config
        )
        simulated = outcome.stats.simulated
    wall = time.perf_counter() - started
    if simulated != len(policies):
        raise RuntimeError(
            f"engine {name!r} simulated {simulated} of {len(policies)} "
            f"cells of {workload} — trajectory numbers would not be "
            "comparable"
        )
    return wall


def measure(repeats: int = 2) -> dict:
    """One trajectory entry: the smoke matrix timed under each engine.

    Caching is disabled so the numbers measure simulation throughput,
    not cache hits; traces are built (and memoized) before the first
    timer starts so workload generation is excluded from both engines
    equally.

    The sides alternate trace by trace, and which side goes first flips
    from one trace (and one repeat) to the next. Each trace is timed
    ``repeats`` times per side and an engine's wall-clock is the sum of
    its per-trace *minima* — the standard estimator of un-contended run
    time, since interference (host contention, thermal throttling, a
    noisy CI neighbour) only ever adds time.
    """
    from repro.core.config import cascade_lake
    from repro.harness.experiments import (
        effective_gap_scale,
        effective_gap_window,
        effective_spec_window,
        smoke_mode,
    )

    traces, policies = _smoke_matrix()
    config = cascade_lake()
    cells = len(traces) * len(policies)
    repeats = max(1, repeats)
    best: dict[tuple[str, str], float] = {}
    # Both engines run with the cyclic garbage collector off: the
    # generational GC repeatedly re-traverses every long-lived container
    # (the batched engine's plans alone hold millions of tuples), which
    # adds double-digit-percent wall-clock that measures the allocator,
    # not the engines. Reference counting still frees everything that
    # matters here; the collector is restored afterwards.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for rep in range(repeats):
            for index, (workload, trace) in enumerate(traces.items()):
                order = (
                    MEASURED_ENGINES if (index + rep) % 2 == 0
                    else MEASURED_ENGINES[::-1]
                )
                for name in order:
                    wall = _time_side(name, workload, trace, policies, config)
                    key = (name, workload)
                    best[key] = min(wall, best.get(key, wall))
                    gc.collect()
            totals = {
                name: sum(best[(name, w)] for w in traces)
                for name in MEASURED_ENGINES
            }
            progress = ", ".join(
                f"engine={name} {totals[name]:.1f}s "
                f"({cells / totals[name]:.2f} cells/s)"
                for name in MEASURED_ENGINES
            )
            print(f"  best of {rep + 1}/{repeats} runs: {progress}",
                  file=sys.stderr)
    finally:
        if gc_was_enabled:
            gc.enable()
    engines = {
        name: {
            "wall_s": round(totals[name], 3),
            "cells_per_sec": round(cells / totals[name], 3),
        }
        for name in MEASURED_ENGINES
    }
    entry = {
        "schema": ENTRY_SCHEMA,
        "git_sha": _git_sha(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "smoke": smoke_mode(),
        "jobs": 1,
        "repeats": repeats,
        "scale": {
            "gap_window": effective_gap_window(),
            "gap_scale": effective_gap_scale(),
            "spec_window": effective_spec_window(),
        },
        "matrix": {
            "workloads": len(traces),
            "policies": len(policies),
            "cells": cells,
        },
        "engines": engines,
    }
    entry["batched_speedup"] = round(
        engines["fast"]["wall_s"] / engines["batched"]["wall_s"], 3
    )
    return entry


def load_trajectory(path: Path) -> dict:
    """The trajectory document, or a fresh empty one."""
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    return {
        "schema": ENTRY_SCHEMA,
        "description": (
            "Sweep-throughput trajectory of the smoke fig2/fig3 matrix; "
            "appended by benchmarks/record_trajectory.py, gated by "
            "benchmarks/check_regression.py --trajectory"
        ),
        "entries": [],
    }


def append_entry(path: Path, entry: dict) -> None:
    document = load_trajectory(path)
    document["entries"].append(entry)
    path.write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="timed runs per trace and engine; the entry sums the "
        "per-trace minima (default 2)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_TRAJECTORY,
        help="trajectory file to append to (default: BENCH_sweep.json)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="record even with a dirty working tree or an existing entry "
             "for this commit at the same matrix shape",
    )
    args = parser.parse_args(argv)
    if str(BENCH_DIR) not in sys.path:  # direct-script and importlib runs
        sys.path.insert(0, str(BENCH_DIR))
    from recording_guard import RecordingGuardError, guard_append

    try:
        guard_append(
            args.output,
            load_trajectory(args.output).get("entries", []),
            _git_sha(),
            expected_shape(),
            SHAPE_KEYS,
            force=args.force,
        )
    except RecordingGuardError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    entry = measure(repeats=args.repeats)
    append_entry(args.output, entry)
    print(
        f"appended entry for {entry['git_sha'][:12]} to {args.output} "
        f"(batched speed-up {entry['batched_speedup']:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
