"""Property net over machine geometry: every engine matches the reference.

Hypothesis draws a machine (per level, a power-of-two set count and 1-16
ways, so the flat ``set * num_ways + way`` offsets differ between
levels), a warm-up fraction and a LOAD/STORE/IFETCH trace that keeps a
few sets under conflict pressure at every level, so lines are evicted
and dirty victims written back all the way to DRAM. Two properties:

* the fast, batched and reference engines return the same result, as
  canonical JSON, for the seven paper policies plus ``mru``;
* a caller-supplied hierarchy run twice stays identical across the
  engines: equal results, equal final tags and dirty bits, and the same
  per-set LRU order.

Each property runs the active Hypothesis profile's ``max_examples``:
100 under the default profile tier-1 uses (a few seconds), many more
under ``pytest --hypothesis-profile nightly`` (see tests/conftest.py).
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheConfig, MachineConfig
from repro.core.simulator import build_hierarchy, simulate
from repro.mem.batch import BatchSimulator
from repro.policies.basic import LRUPolicy
from repro.trace.record import AccessKind
from repro.trace.trace import Trace

POLICIES = ("lru", "srrip", "drrip", "ship", "hawkeye", "glider", "mpppb", "mru")

#: Set counts are drawn up to ``2**MAX_SET_BITS``, so blocks
#: ``s + k * CONFLICT_STRIDE`` share a set at every level.
MAX_SET_BITS = 5
CONFLICT_STRIDE = 1 << MAX_SET_BITS

EXAMPLES = settings().max_examples

KINDS = (int(AccessKind.LOAD), int(AccessKind.STORE), int(AccessKind.IFETCH))


def canonical(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


@st.composite
def machines(draw) -> MachineConfig:
    def level(name: str, latency: int) -> CacheConfig:
        sets = 1 << draw(st.integers(0, MAX_SET_BITS))
        ways = draw(st.integers(1, 16))
        return CacheConfig(name, sets * ways * 64, ways, hit_latency=latency)

    return MachineConfig(
        l1i=level("L1I", 1),
        l1d=level("L1D", 2),
        l2=level("L2C", 6),
        llc=level("LLC", 12),
    )


@st.composite
def traces(draw) -> Trace:
    """Accesses to up to four hot sets, ``depth`` tags deep.

    A depth above a level's way count forces evictions there; stores
    dirty the lines those evictions write back.
    """
    hot_sets = draw(
        st.lists(st.integers(0, CONFLICT_STRIDE - 1), min_size=1, max_size=4, unique=True)
    )
    depth = draw(st.integers(1, 24))
    accesses = draw(
        st.lists(
            st.tuples(
                st.sampled_from(hot_sets),
                st.integers(0, depth - 1),
                st.sampled_from(KINDS),
                st.integers(0, 7),  # pc slot
                st.integers(1, 6),  # instruction gap
            ),
            min_size=1,
            max_size=300,
        )
    )
    sets, tags, kinds, pc_slots, gaps = zip(*accesses)
    blocks = np.array(sets, dtype=np.uint64) + np.array(tags, dtype=np.uint64) * np.uint64(
        CONFLICT_STRIDE
    )
    return Trace.from_arrays(
        blocks << np.uint64(6),
        np.uint64(0x400000) + np.array(pc_slots, dtype=np.uint64) * np.uint64(4),
        np.array(kinds, dtype=np.uint8),
        np.array(gaps, dtype=np.uint32),
        name="geometry",
    )


warmups = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)


def machine_state(hierarchy) -> dict:
    """Every level's tags, dirty bits and per-set LRU order.

    Stamp values differ between engines (the fast engines share one
    clock over the upper levels); the recency order inside a set, all
    that LRU behaviour depends on, does not.
    """
    state = {}
    for name, cache in hierarchy.caches.items():
        order = None
        if isinstance(cache.policy, LRUPolicy):
            ways = cache.num_ways
            stamps = cache.policy._stamp
            order = [
                sorted(range(ways), key=stamps[base:base + ways].__getitem__)
                for base in range(0, len(stamps), ways)
            ]
        state[name] = (list(cache._tags), bytes(cache._dirty), order)
    return state


@settings(max_examples=EXAMPLES, deadline=None)
@given(config=machines(), trace=traces(), warmup=warmups)
def test_fast_batched_and_reference_agree(config, trace, warmup):
    batch = BatchSimulator(trace, config, warmup)
    for policy in POLICIES:
        expected = canonical(
            simulate(
                trace, config=config, llc_policy=policy,
                warmup_fraction=warmup, engine="reference",
            )
        )
        fast = simulate(
            trace, config=config, llc_policy=policy,
            warmup_fraction=warmup, engine="fast",
        )
        assert canonical(fast) == expected, policy
        assert canonical(batch.run_cell(policy)) == expected, policy


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    config=machines(), trace=traces(), warmup=warmups,
    policy=st.sampled_from(POLICIES),
)
def test_caller_hierarchy_rerun_stays_identical(config, trace, warmup, policy):
    def run(hierarchy, engine: str) -> str:
        return canonical(
            simulate(
                trace, config=config, hierarchy=hierarchy,
                warmup_fraction=warmup, engine=engine,
            )
        )

    reference = build_hierarchy(config, policy)
    fast = build_hierarchy(config, policy)
    batched = build_hierarchy(config, policy)
    batch = BatchSimulator(trace, config, warmup)

    first = run(reference, "reference")
    first_state = machine_state(reference)
    assert run(fast, "fast") == first
    assert canonical(batch.run_cell(policy, batched)) == first
    assert machine_state(fast) == first_state
    assert machine_state(batched) == first_state

    second = run(reference, "reference")
    assert run(fast, "fast") == second
    # A batched cell always starts from an empty machine, so the
    # hierarchy it published into takes its second run on the fast
    # engine: the published state must be one the next run can trust.
    assert run(batched, "fast") == second
    assert machine_state(fast) == machine_state(reference)
    assert machine_state(batched) == machine_state(reference)

    # Rerunning that hierarchy must not have reached back into the plan.
    again = build_hierarchy(config, policy)
    assert canonical(batch.run_cell(policy, again)) == first
    assert machine_state(again) == first_state
