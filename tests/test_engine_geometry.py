"""Property net over machine geometry: every engine matches the reference.

Hypothesis draws a machine (per level, a power-of-two set count and 1-16
ways, so the flat ``set * num_ways + way`` offsets differ between
levels), a warm-up fraction and a LOAD/STORE/IFETCH trace that keeps a
few sets under conflict pressure at every level, so lines are evicted
and dirty victims written back all the way to DRAM. Every registered
policy takes part; ``plru`` only on machines whose LLC way count is a
power of two. Three properties:

* the fast, batched and reference engines return the same result, as
  canonical JSON;
* a caller-supplied hierarchy run twice stays identical across the
  engines: equal results, equal final tags and dirty bits, and the same
  per-set LRU order;
* with a drawn telemetry configuration armed, on a store-heavy trace and
  an LLC that may be smaller than the L2, the engines also agree on the
  telemetry profile, so the LLC tap sees every access and eviction,
  including those of L2 victim writebacks.

The first two properties each run the active Hypothesis profile's
``max_examples``: 100 under the default profile tier-1 uses (a few
seconds), many more under ``pytest --hypothesis-profile nightly`` (see
tests/conftest.py). The telemetry property runs half as many, and a
fixed case pins the writeback evictions it looks for.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheConfig, MachineConfig
from repro.core.simulator import build_hierarchy, simulate
from repro.mem.batch import BatchSimulator
from repro.policies.basic import LRUPolicy
from repro.policies.registry import available_policies
from repro.telemetry import TelemetryConfig
from repro.trace.record import AccessKind
from repro.trace.trace import Trace

POLICIES = tuple(available_policies())

#: Set counts are drawn up to ``2**MAX_SET_BITS``, so blocks
#: ``s + k * CONFLICT_STRIDE`` share a set at every level.
MAX_SET_BITS = 5
CONFLICT_STRIDE = 1 << MAX_SET_BITS

EXAMPLES = settings().max_examples

KINDS = (int(AccessKind.LOAD), int(AccessKind.STORE), int(AccessKind.IFETCH))
#: Half stores: more dirty L2 victims, so more LLC writeback fills.
STORE_HEAVY_KINDS = KINDS + (int(AccessKind.STORE),) * 3


def canonical(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def policies_for(config: MachineConfig) -> tuple[str, ...]:
    """The registered policies that run on ``config``'s LLC.

    Tree-PLRU needs a power-of-two way count.
    """
    ways = config.llc.num_ways
    if ways & (ways - 1):
        return tuple(p for p in POLICIES if p != "plru")
    return POLICIES


@st.composite
def machines(
    draw, upper_ways: int = 16, llc_set_bits: int = MAX_SET_BITS, llc_ways: int = 16
) -> MachineConfig:
    def level(name: str, latency: int, set_bits: int, max_ways: int) -> CacheConfig:
        sets = 1 << draw(st.integers(0, set_bits))
        ways = draw(st.integers(1, max_ways))
        return CacheConfig(name, sets * ways * 64, ways, hit_latency=latency)

    return MachineConfig(
        l1i=level("L1I", 1, MAX_SET_BITS, upper_ways),
        l1d=level("L1D", 2, MAX_SET_BITS, upper_ways),
        l2=level("L2C", 6, MAX_SET_BITS, upper_ways),
        llc=level("LLC", 12, llc_set_bits, llc_ways),
    )


@st.composite
def traces(draw, kinds: tuple[int, ...] = KINDS, min_size: int = 1) -> Trace:
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
                st.sampled_from(kinds),
                st.integers(0, 7),  # pc slot
                st.integers(1, 6),  # instruction gap
            ),
            min_size=min_size,
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

telemetry_configs = st.builds(
    TelemetryConfig,
    interval_instructions=st.integers(25, 400),
    per_set=st.booleans(),
    classify_misses=st.booleans(),
    policy_snapshots=st.booleans(),
)


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


def assert_engines_agree(config, trace, warmup, telemetry=None) -> None:
    batch = BatchSimulator(trace, config, warmup, telemetry)
    for policy in policies_for(config):
        expected = canonical(
            simulate(
                trace, config=config, llc_policy=policy,
                warmup_fraction=warmup, telemetry=telemetry, engine="reference",
            )
        )
        fast = simulate(
            trace, config=config, llc_policy=policy,
            warmup_fraction=warmup, telemetry=telemetry, engine="fast",
        )
        assert canonical(fast) == expected, policy
        assert canonical(batch.run_cell(policy)) == expected, policy


@settings(max_examples=EXAMPLES, deadline=None)
@given(config=machines(), trace=traces(), warmup=warmups)
def test_fast_batched_and_reference_agree(config, trace, warmup):
    assert_engines_agree(config, trace, warmup)


# Half the examples: each one arms telemetry in every cell of every
# engine, which costs about five times an unarmed example.
@settings(max_examples=EXAMPLES // 2, deadline=None)
@given(
    # Small upper levels, an LLC of at most 16 lines and traces of at
    # least 50 store-heavy records: about two in three examples then
    # evict an LLC line with an L2 victim writeback while the tap is on.
    config=machines(upper_ways=4, llc_set_bits=2, llc_ways=4),
    trace=traces(STORE_HEAVY_KINDS, min_size=50),
    warmup=warmups,
    telemetry=telemetry_configs,
)
def test_engines_agree_with_telemetry_armed(config, trace, warmup, telemetry):
    assert_engines_agree(config, trace, warmup, telemetry)


@settings(max_examples=EXAMPLES, deadline=None)
@given(config=machines(), trace=traces(), warmup=warmups, data=st.data())
def test_caller_hierarchy_rerun_stays_identical(config, trace, warmup, data):
    policy = data.draw(st.sampled_from(policies_for(config)), label="policy")

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


def test_tap_counts_writeback_fill_evictions():
    """L2 victim writebacks keep evicting a tiny LLC while the tap is on.

    L2 of 8 sets x 4 ways over an LLC of 2 sets x 2 ways, 3000 accesses,
    half of them stores: the per-set eviction counts in the telemetry
    profile must include the evictions those writeback fills make.
    """
    def level(name: str, sets: int, ways: int, latency: int) -> CacheConfig:
        return CacheConfig(name, sets * ways * 64, ways, hit_latency=latency)

    config = MachineConfig(
        l1i=level("L1I", 2, 2, 1),
        l1d=level("L1D", 2, 2, 2),
        l2=level("L2C", 8, 4, 6),
        llc=level("LLC", 2, 2, 12),
    )
    rng = np.random.default_rng(7)
    n = 3000
    kinds = np.where(rng.random(n) < 0.5, int(AccessKind.STORE), int(AccessKind.LOAD))
    trace = Trace.from_arrays(
        rng.integers(0, 96, n).astype(np.uint64) << np.uint64(6),
        np.uint64(0x400000) + rng.integers(0, 8, n).astype(np.uint64) * np.uint64(4),
        kinds.astype(np.uint8),
        rng.integers(1, 6, n).astype(np.uint32),
        name="writeback-evictions",
    )
    telemetry = TelemetryConfig(interval_instructions=500)

    llc = simulate(
        trace, config=config, llc_policy="lru", telemetry=telemetry,
        engine="reference",
    ).levels["LLC"]
    # Each demand miss evicts at most once, so the surplus evictions
    # are writeback fills: the case exercises what it is named for.
    assert llc.evictions > llc.demand_accesses - llc.demand_hits
    assert_engines_agree(config, trace, 0.2, telemetry)
