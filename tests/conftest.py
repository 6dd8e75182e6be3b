"""Shared fixtures: tiny machines, graphs and traces for fast tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.config import CacheConfig, CoreConfig, MachineConfig, small_test_machine
from repro.graphs.generators import cycle_graph, grid_graph, path_graph, uniform_random
from repro.trace.record import AccessKind
from repro.trace.trace import Trace

#: ``pytest --hypothesis-profile nightly`` (the nightly workflow) runs the
#: properties that take their example count from the active profile —
#: the engine geometry net in test_engine_geometry.py — at twenty times
#: tier-1's count. Tier-1 keeps Hypothesis's default profile.
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
