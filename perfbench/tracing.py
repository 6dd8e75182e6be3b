"""Spans around repro's layer entry points, recorded from outside ``src/``.

:func:`install_setup` and :func:`install_sweep` replace each wrapped
entry point (a module function or a class attribute) with a wrapper
that records a span: name, start, end, parent and the id of the sweep
cell it belongs to. Spans stay in memory. A pool worker forked after
:func:`install_sweep` starts with an empty span list and writes its
spans to ``<span_dir>/spans-<pid>.json`` when it exits; the sweeping
process gathers them with :func:`worker_spans`.

:func:`setup_metrics` and :func:`sweep_metrics` turn the spans into the
per-layer metrics. A span's self time is its duration minus its
children's.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import pickle
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import POLICIES

#: Every span recorded in this process:
#: [name, start, end, parent index or None, cell id or None, attrs].
SPANS: list[list] = []
#: Event counters (calls that are counted, not timed).
COUNTS: dict[str, int] = {}
#: Timestamped instants (e.g. sweep entry), name -> first time seen.
MARKS: dict[str, float] = {}
_STACK: list[int] = []
#: Where pool workers write their spans, and how many pools the sweeping
#: process has created (a forked worker inherits the count).
_STATE = {"span_dir": None, "pool": 0}


def _open(name: str, cell: str | None, attrs: dict) -> int:
    parent = _STACK[-1] if _STACK else None
    if cell is None and parent is not None:
        cell = SPANS[parent][4]
    SPANS.append([name, time.perf_counter(), None, parent, cell, attrs])
    _STACK.append(len(SPANS) - 1)
    return len(SPANS) - 1


def _close(index: int, failed: bool = False) -> None:
    SPANS[index][2] = time.perf_counter()
    if failed:
        SPANS[index][5]["failed"] = True
    _STACK.pop()


@contextmanager
def span(name: str, cell: str | None = None, **attrs):
    """Record a span around a block of the benchmark's own code."""
    index = _open(name, cell, attrs)
    try:
        yield
    except BaseException:
        _close(index, failed=True)
        raise
    _close(index)


def _wrapper(fn, name: str, describe=None, finish=None):
    """``fn`` wrapped in a span; ``describe`` maps the call to (cell, attrs)."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        cell, attrs = describe(*args, **kwargs) if describe else (None, {})
        index = _open(name, cell, dict(attrs))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            _close(index, failed=True)
            raise
        _close(index)
        if finish is not None:
            finish(SPANS[index][5], result)
        return result

    return wrapped


def _patch(owner, attr: str, name: str, describe=None, finish=None) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_wrapper(raw.__func__, name, describe, finish)))
    else:
        setattr(owner, attr, _wrapper(raw, name, describe, finish))


def _count(owner, attr: str, counter: str, when=lambda result: True) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        if when(result):
            COUNTS[counter] = COUNTS.get(counter, 0) + 1
        return result

    setattr(owner, attr, counted)


def _mark(owner, attr: str, mark: str) -> None:
    fn = owner.__dict__[attr]

    @functools.wraps(fn)
    def marked(*args, **kwargs):
        MARKS.setdefault(mark, time.perf_counter())
        return fn(*args, **kwargs)

    setattr(owner, attr, marked)


def install_setup() -> None:
    """Wrap the trace generators: graph build, GAP kernels, SPEC patterns."""
    from repro.gap import suite as gap
    from repro.spec import patterns
    from repro.trace import synthetic

    _patch(gap, "build_graph", "graphs.build_graph")
    _patch(gap, "run_kernel", "gap.run_kernel",
           describe=lambda kernel, *a, **k: (None, {"kernel": kernel}))
    for fn in ("scan_plus_resident", "thrash_cycle", "pointer_working_set",
               "skewed_reuse", "banded_stride", "phased_mix"):
        _patch(patterns, fn, "spec.build")
    for fn in ("working_set_loop", "streaming"):
        _patch(synthetic, fn, "spec.build")


def install_sweep(span_dir: Path) -> None:
    """Wrap the sweep path: harness, journal, pool, batch, fast path, sampling."""
    from repro.core import simulator
    from repro.harness import engine
    from repro.mem import batch
    from repro.resilience import durability
    from repro.sampling import executor
    from repro.trace.trace import Trace

    _STATE["span_dir"] = str(span_dir)

    def cell_of_key(trace, policy, *a, **k):
        return f"{trace.name}|{policy}", {}

    def cell_of_result(self, key, result):
        return f"{result.workload}|{result.policy}", {}

    def store_bytes(attrs, path):
        attrs["bytes"] = path.stat().st_size if path is not None else 0

    def pickled_traces(attrs, traces):
        attrs["bytes"] = len(pickle.dumps(traces, protocol=pickle.HIGHEST_PROTOCOL))
        _STATE["pool"] += 1
        attrs["pool"] = _STATE["pool"]

    _patch(engine, "simulator_salt", "harness.salt")
    _patch(engine, "cell_key", "harness.cell_key", describe=cell_of_key)
    _patch(Trace, "digest", "harness.digest")
    _patch(engine.ResultCache, "load", "harness.cache_load")
    _patch(engine.ResultCache, "store", "harness.cache_store",
           describe=cell_of_result, finish=store_bytes)
    _mark(engine.SweepEngine, "run", "run_entry")
    _patch(engine.SweepEngine, "_run_parallel", "pool.run")
    _patch(engine, "_pending_traces", "pool.pickle_traces", finish=pickled_traces)
    _patch(engine, "_simulate_cell", "harness.simulate_cell",
           describe=lambda w, p, *a, **k: (f"{w}|{p}", {"policy": p}))
    _patch(engine, "_simulate_group", "batch.group",
           describe=lambda w, *a, **k: (w, {}))
    _patch(engine, "simulate", "fastpath.simulate",
           describe=lambda trace, *a, llc_policy="lru", **k: (
               None, {"policy": llc_policy}))
    _patch(batch.BatchSimulator, "__init__", "batch.plan")
    _patch(batch.BatchSimulator, "run_cell", "batch.replay",
           describe=lambda self, llc_policy, *a, **k: (
               f"{self.trace.name}|{llc_policy}", {"policy": llc_policy}))
    _patch(durability.RunJournal, "open_or_create", "journal.open")
    _patch(durability.RunJournal, "record_cell", "journal.record",
           describe=lambda self, w, p, *a, **k: (f"{w}|{p}", {}))
    _patch(durability.RunJournal, "flush", "journal.flush")
    _patch(durability.RunJournal, "close", "journal.close")
    _count(durability.os, "fsync", "journal.fsyncs")
    for module in (simulator, executor):
        _count(module, "fastpath_eligible", "fastpath.ineligible",
               when=lambda eligible: not eligible)

    def describe_sampled(trace, *a, **k):
        return None, {"accesses": len(trace)}

    def plan_fracs(attrs, plan):
        attrs["simulated"] = plan.simulated_accesses
        attrs["accesses"] = plan.trace_accesses

    _patch(executor, "simulate_sampled", "sampling.simulate_sampled",
           describe=describe_sampled)
    _patch(executor, "build_plan", "sampling.plan", finish=plan_fracs)
    _patch(executor, "compute_boundary_checkpoints", "sampling.checkpoint",
           describe=lambda trace, config, policy, boundaries: (
               None, {"prefix": max(boundaries, default=0)}))
    _patch(executor, "synthesize_from_checkpoint", "sampling.warm")
    _patch(executor, "synthesize_warm_state", "sampling.warm")
    multiprocessing.util.register_after_fork(_FORK_TOKEN, _start_worker)


class _Token:
    """``register_after_fork`` keys its hooks by a weakly referenced object."""


_FORK_TOKEN = _Token()


def _start_worker(_token) -> None:
    """After fork in a pool worker: fresh span list, dumped at exit."""
    SPANS.clear()
    _STACK.clear()
    COUNTS.clear()
    MARKS.clear()
    multiprocessing.util.Finalize(None, _dump_worker, exitpriority=100)


def _dump_worker() -> None:
    path = Path(_STATE["span_dir"]) / f"spans-{os.getpid()}.json"
    doc = {"pool": _STATE["pool"], "spans": SPANS, "counts": COUNTS}
    path.write_text(json.dumps(doc), encoding="utf-8")


def worker_spans(span_dir: Path) -> list[dict]:
    """Span documents the exited pool workers left behind."""
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(span_dir).glob("spans-*.json"))
    ]


# -- analysis -------------------------------------------------------------------


def children(spans: list[list]) -> dict[int | None, list[int]]:
    kids: dict[int | None, list[int]] = {}
    for index, s in enumerate(spans):
        kids.setdefault(s[3], []).append(index)
    return kids


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def nesting_errors(spans: list[list], rooted: bool = True) -> list[str]:
    """Spans outside their parent or overlapping a sibling; with
    ``rooted``, also spans outside the first (root) span."""
    errors = [
        f"{s[0]}#{i} has no parent"
        for i, s in enumerate(spans) if rooted and i and s[3] is None
    ]
    for parent, kids in children(spans).items():
        previous_end = None
        for index in kids:
            name, start, end = spans[index][:3]
            if end is None or end < start:
                errors.append(f"{name}#{index} is not closed")
                continue
            if parent is not None and not (
                spans[parent][1] <= start and end <= spans[parent][2]
            ):
                errors.append(f"{name}#{index} lies outside its parent")
            if previous_end is not None and start < previous_end:
                errors.append(f"{name}#{index} overlaps its previous sibling")
            previous_end = end
    return errors


def _outer(spans: list[list], names: set[str]) -> list[int]:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    picked = []
    for index, s in enumerate(spans):
        if s[0] not in names:
            continue
        parent = s[3]
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent is None:
            picked.append(index)
    return picked


def _total(spans: list[list], names: set[str]) -> float:
    return sum(spans[i][2] - spans[i][1] for i in _outer(spans, names))


def _by_policy(spans: list[list], name: str) -> dict[str, float]:
    out = dict.fromkeys(POLICIES, 0.0)
    for s in spans:
        if s[0] == name and s[5].get("policy") in out:
            out[s[5]["policy"]] += s[2] - s[1]
    return out


def setup_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced set-up."""
    metrics = {
        "graphs.build_s": _total(spans, {"graphs.build_graph"}),
        "spec.build_s": _total(spans, {"spec.build"}),
    }
    for kernel in ("bfs", "pr", "cc", "sssp", "bc", "tc"):
        metrics[f"gap.kernel_s.{kernel}"] = sum(
            s[2] - s[1] for s in spans
            if s[0] == "gap.run_kernel" and s[5].get("kernel") == kernel
        )
    return metrics


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th decile of ``values`` (0 when there are none)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def sweep_metrics(
    spans: list[list],
    root: int,
    workers: list[dict],
    jobs: int,
    engine: str,
) -> dict[str, float]:
    """Per-layer metrics of one traced sweep.

    ``spans`` are the sweeping process's spans, ``root`` the index of
    the span around the whole sweep, ``workers`` the pool workers'
    span documents.
    """
    sweep_s = spans[root][2] - spans[root][1]
    everywhere = spans + [s for doc in workers for s in doc["spans"]]

    def count(name: str, among=spans) -> int:
        return sum(1 for s in among if s[0] == name)

    def total(name: str, among=spans) -> float:
        return sum(s[2] - s[1] for s in among if s[0] == name)

    stores = [s for s in spans if s[0] == "harness.cache_store"]
    entry = MARKS.get("run_entry", spans[root][1])
    ship = 0
    for s in spans:
        if s[0] == "pool.pickle_traces":
            workers_of_pool = sum(1 for d in workers if d["pool"] == s[5]["pool"])
            ship += s[5]["bytes"] * workers_of_pool

    if workers:
        busy = sum(
            s[2] - s[1] for doc in workers for s in doc["spans"] if s[3] is None
        ) / (jobs * sweep_s)
    else:
        busy = _total(spans, {"harness.simulate_cell", "batch.group"}) / sweep_s
    cells = [
        s[2] - s[1] for s in everywhere
        if s[0] in ("harness.simulate_cell", "batch.replay")
    ]

    replay = _by_policy(everywhere, "batch.replay")
    cell_time = _by_policy(everywhere, "fastpath.simulate")
    base = replay if engine == "batched" else cell_time

    sampled = [s for s in everywhere if s[0] == "sampling.simulate_sampled"]
    sampled_accesses = sum(s[5]["accesses"] for s in sampled)
    plans = [s for s in everywhere if s[0] == "sampling.plan"]
    # Parent indices are per process, so self times are too.
    own = self_times(spans) + [t for doc in workers for t in self_times(doc["spans"])]

    metrics = {
        "harness.salt_s": total("harness.salt"),
        "harness.cell_key_s": _total(spans, {"harness.cell_key", "harness.digest"}),
        "harness.cache_load_s": total("harness.cache_load"),
        "harness.cache_loads": count("harness.cache_load"),
        "harness.cache_store_s": total("harness.cache_store"),
        "harness.cache_stores": len(stores),
        "harness.cache_store_bytes": sum(s[5].get("bytes", 0) for s in stores),
        "journal.open_s": total("journal.open"),
        "journal.record_s": sum(
            total(name) for name in ("journal.record", "journal.flush", "journal.close")
        ),
        "journal.records": count("journal.record"),
        "journal.fsyncs": COUNTS.get("journal.fsyncs", 0),
        "pool.first_result_s": (stores[0][1] - entry) if stores else 0.0,
        "pool.trace_ship_bytes": ship,
        "pool.busy_frac": busy,
        "pool.cell_p50_s": _quantile(cells, 5),
        "pool.cell_p90_s": _quantile(cells, 9),
        "batch.plan_s": total("batch.plan", everywhere),
        "batch.cells": sum(
            1 for s in everywhere if s[0] == "batch.replay" and not s[5].get("failed")
        ),
        "batch.fallback_cells": (
            count("harness.simulate_cell", everywhere) if engine == "batched" else 0
        ),
        "fastpath.fallback_cells": COUNTS.get("fastpath.ineligible", 0) + sum(
            doc["counts"].get("fastpath.ineligible", 0) for doc in workers
        ),
        "sampling.plan_s": total("sampling.plan", everywhere),
        "sampling.checkpoint_s": total("sampling.checkpoint", everywhere),
        "sampling.checkpoint_passes": count("sampling.checkpoint", everywhere),
        "sampling.warm_s": total("sampling.warm", everywhere),
        "sampling.interval_s": sum(
            own[i] for i, s in enumerate(everywhere)
            if s[0] == "sampling.simulate_sampled"
        ),
        "sampling.simulated_frac": (
            sum(s[5]["simulated"] for s in plans) / sampled_accesses
            if sampled_accesses else 0.0
        ),
        "sampling.functional_frac": (
            sum(s[5]["prefix"] for s in everywhere if s[0] == "sampling.checkpoint")
            / sampled_accesses if sampled_accesses else 0.0
        ),
        "trace.coverage_frac": sum(
            s[2] - s[1] for s in spans if s[3] == root
        ) / sweep_s,
    }
    for policy in POLICIES:
        metrics[f"batch.replay_s.{policy}"] = replay[policy]
        metrics[f"fastpath.cell_s.{policy}"] = cell_time[policy]
        if policy != "lru":
            metrics[f"policy.extra_s.{policy}"] = base[policy] - base["lru"]
    return metrics
