"""Building a policy costs a handful of objects, whatever the set count.

Every registered policy keeps its per-line state in flat lists indexed
``set_index * num_ways + way`` (the layout of the cache's own tag array)
and shares tables that depend only on the geometry, so ``initialize``
makes a few allocations rather than one list per set per table. A
short sweep cell builds a fresh LLC policy, so this is per-cell cost.
The check counts the garbage collector's tracked objects with the
collector disabled: it involves no timing.
"""

from __future__ import annotations

import gc

import pytest

from repro.policies.registry import available_policies, make_policy

#: Large enough that one object per set dwarfs any fixed cost.
NUM_SETS = 2048


def objects_created_by_initialize(name: str, num_sets: int, num_ways: int) -> int:
    """How many GC-tracked objects one ``initialize`` call leaves behind."""
    policy = make_policy(name)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        policy.initialize(num_sets, num_ways)
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


@pytest.mark.parametrize("name", available_policies())
def test_initialize_allocates_a_handful_of_objects(name):
    ways = 8 if name == "plru" else 11  # Tree-PLRU needs a power of two
    # The first call may pay one-off costs (RandomPolicy's first
    # generator imports numpy's RNG machinery; shared per-geometry
    # tables are built once), which later cells do not.
    objects_created_by_initialize(name, NUM_SETS, ways)
    created = objects_created_by_initialize(name, NUM_SETS, ways)
    assert created < NUM_SETS // 4, (
        f"{name}.initialize({NUM_SETS}, {ways}) created {created} objects: "
        "per-line state should be flat lists, not one list per set"
    )
