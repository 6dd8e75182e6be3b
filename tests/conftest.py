"""Shared fixtures: tiny machines, graphs and traces for fast tests."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pytest
from hypothesis import settings

from repro.core.config import CacheConfig, CoreConfig, MachineConfig, small_test_machine
from repro.graphs.generators import cycle_graph, grid_graph, path_graph, uniform_random
from repro.trace.record import AccessKind
from repro.trace.trace import Trace

#: ``pytest --hypothesis-profile nightly`` (the nightly workflow) runs the
#: properties that take their example count from the active profile — the
#: engine geometry net in test_engine_geometry.py at twenty times tier-1's
#: count, the sweep and GAP trace-budget properties at about a twentieth
#: of the profile's. Tier-1 keeps Hypothesis's default profile.
settings.register_profile("nightly", max_examples=2000, deadline=None)


@pytest.fixture
def small_machine() -> MachineConfig:
    """The 4/16/32 KB test machine — fast and policy-sensitive."""
    return small_test_machine()


@pytest.fixture
def tiny_machine() -> MachineConfig:
    """An even smaller machine: 512 B L1s, 1 KB L2, 2 KB LLC."""
    return MachineConfig(
        core=CoreConfig(),
        l1i=CacheConfig("L1I", 512, 2, hit_latency=1),
        l1d=CacheConfig("L1D", 512, 2, hit_latency=1),
        l2=CacheConfig("L2C", 1024, 4, hit_latency=4),
        llc=CacheConfig("LLC", 2048, 4, hit_latency=8),
    )


def make_trace(
    addrs: list[int],
    pcs: list[int] | int = 0x400000,
    kinds: list[int] | int = int(AccessKind.LOAD),
    gaps: list[int] | int = 1,
    name: str = "test",
) -> Trace:
    """Convenience trace constructor used across test modules."""
    n = len(addrs)
    if isinstance(pcs, int):
        pcs = [pcs] * n
    if isinstance(kinds, int):
        kinds = [kinds] * n
    if isinstance(gaps, int):
        gaps = [gaps] * n
    return Trace.from_arrays(
        np.array(addrs, dtype=np.uint64),
        np.array(pcs, dtype=np.uint64),
        np.array(kinds, dtype=np.uint8),
        np.array(gaps, dtype=np.uint32),
        name=name,
    )


def inject_cell_faults(
    monkeypatch,
    traces: dict[str, Trace],
    fault: Callable[[str, str], None],
) -> None:
    """Call ``fault(workload, policy)`` as each sweep cell starts, on any path.

    A default sweep starts a cell in a batch unit
    (``BatchSimulator.run_cell``) and, if the unit does not finish it,
    again on the per-cell phase (``repro.harness.engine._simulate_cell``);
    a ``reference`` sweep starts it on the per-cell phase only. Both are
    wrapped, so a fault meets the cell wherever it runs. A unit's trace
    is matched to its workload by digest. Pool workers are forked from
    the test process, so they inherit the patches.
    """
    import repro.harness.engine as engine_module
    from repro.mem.batch import BatchSimulator

    workloads = {trace.digest(): name for name, trace in traces.items()}
    real_cell = engine_module._simulate_cell
    real_replay = BatchSimulator.run_cell

    def cell(workload, policy, *args, **kwargs):
        fault(workload, policy)
        return real_cell(workload, policy, *args, **kwargs)

    def replay(self, llc_policy, *args, **kwargs):
        fault(workloads[self.trace.digest()], llc_policy)
        return real_replay(self, llc_policy, *args, **kwargs)

    monkeypatch.setattr(engine_module, "_simulate_cell", cell)
    monkeypatch.setattr(BatchSimulator, "run_cell", replay)


@pytest.fixture
def block_trace():
    """Factory: trace touching the given block indices (64 B apart)."""

    def _make(blocks: list[int], **kwargs) -> Trace:
        return make_trace([b * 64 for b in blocks], **kwargs)

    return _make


@pytest.fixture
def small_graph():
    """A 64-vertex random graph, connected enough for kernel tests."""
    return uniform_random(64, avg_degree=6, seed=5)


@pytest.fixture
def path5():
    """Path graph 0-1-2-3-4."""
    return path_graph(5)


@pytest.fixture
def cycle6():
    """Cycle graph on 6 vertices."""
    return cycle_graph(6)


@pytest.fixture
def grid4x4():
    """A 4x4 mesh."""
    return grid_graph(4, 4)
