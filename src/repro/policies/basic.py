"""Classic replacement policies: LRU, FIFO, Random, NRU, Tree-PLRU, MRU.

LRU is the paper's baseline — every speed-up in Figure 3 is measured
against it. The others serve as reference points and as substrates for
tests (Random gives a policy-insensitive floor, PLRU approximates LRU the
way real hardware does).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import PolicyAccess, ReplacementPolicy


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used replacement.

    Implemented with monotonic timestamps: each hit or fill stamps the
    line with a global counter, and the victim is the way with the oldest
    stamp. Exact LRU (not an approximation), matching ChampSim's ``lru``.
    Stamps live in one flat list indexed ``set * num_ways + way``, the
    layout of :class:`~repro.mem.cache.Cache`'s tag array, so the
    optimized engines alias it directly.
    """

    name = "lru"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._stamp = [0] * (num_sets * num_ways)
        self._clock = 0

    # hot
    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        # The first way holding the set's smallest stamp.
        base = set_index * self.num_ways
        end = base + self.num_ways
        stamps = self._stamp
        return stamps.index(min(stamps[base:end]), base, end) - base

    # hot
    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        clock = self._clock + 1
        self._clock = clock
        self._stamp[set_index * self.num_ways + way] = clock

    # hot
    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        clock = self._clock + 1
        self._clock = clock
        self._stamp[set_index * self.num_ways + way] = clock

    def snapshot_state(self) -> dict[str, object]:
        # Clock minus the globally oldest stamp bounds how stale the
        # recency state is; it grows when some line is never touched.
        oldest = min(self._stamp)
        return {"clock": self._clock, "oldest_stamp_age": self._clock - oldest}


class MRUPolicy(LRUPolicy):
    """Most-recently-used eviction — an intentionally bad policy.

    Useful as an adversarial reference in tests: on a cyclic working set
    slightly larger than the cache, MRU beats LRU, demonstrating that the
    harness really exercises the policy hook.
    """

    name = "mru"

    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        # The first way holding the set's largest stamp.
        base = set_index * self.num_ways
        end = base + self.num_ways
        stamps = self._stamp
        return stamps.index(max(stamps[base:end]), base, end) - base


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: victim is the oldest *fill*, hits do not refresh."""

    name = "fifo"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        # One fill stamp per line, indexed set_index * num_ways + way.
        self._stamp = [0] * (num_sets * num_ways)
        self._clock = 0

    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        # The first way holding the set's smallest stamp.
        base = set_index * self.num_ways
        end = base + self.num_ways
        stamps = self._stamp
        return stamps.index(min(stamps[base:end]), base, end) - base

    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        pass  # FIFO ignores hits by definition

    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._clock += 1
        self._stamp[set_index * self.num_ways + way] = self._clock

    def snapshot_state(self) -> dict[str, object]:
        oldest = min(self._stamp)
        return {"clock": self._clock, "oldest_stamp_age": self._clock - oldest}


class RandomPolicy(ReplacementPolicy):
    """Uniformly random victim selection (seeded, reproducible)."""

    name = "random"

    def __init__(self, seed: int = 0xCACE) -> None:
        super().__init__()
        self._seed = seed

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._rng = np.random.default_rng(self._seed)

    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        return int(self._rng.integers(0, self.num_ways))

    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        pass

    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        pass

    def snapshot_state(self) -> dict[str, object]:
        # The generator position pins the whole draw history: two runs
        # with equal seed and state word have made identical decisions.
        raw = self._rng.bit_generator.state["state"]["state"]
        return {"seed": self._seed, "rng_state_word": int(raw) & 0xFFFFFFFFFFFFFFFF}


class NRUPolicy(ReplacementPolicy):
    """Not-recently-used: one reference bit per line.

    Hits and fills set the bit; the victim is the lowest-index way with a
    clear bit. When every bit in the set is set, all are cleared first —
    the classic second-chance scheme used by several real L1 designs.
    """

    name = "nru"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        # One reference bit per line, indexed set_index * num_ways + way.
        self._ref = [0] * (num_sets * num_ways)

    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        bits = self._ref
        base = set_index * self.num_ways
        end = base + self.num_ways
        try:
            return bits.index(0, base, end) - base
        except ValueError:
            pass
        for line in range(base, end):
            bits[line] = 0
        return 0

    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._ref[set_index * self.num_ways + way] = 1

    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._ref[set_index * self.num_ways + way] = 1

    def snapshot_state(self) -> dict[str, object]:
        return {"ref_bits_set": sum(self._ref)}


class TreePLRUPolicy(ReplacementPolicy):
    """Tree-based pseudo-LRU, the LRU approximation used in real L1/L2s.

    Maintains ``ways - 1`` tree bits per set arranged as an implicit
    binary tree; each access flips the path bits away from the touched
    way, and the victim is found by following the bits. Requires a
    power-of-two way count; non-power-of-two caches should use
    :class:`LRUPolicy`.
    """

    name = "plru"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        if num_ways & (num_ways - 1):
            raise ConfigurationError(
                f"Tree-PLRU requires a power-of-two way count, got {num_ways}"
            )
        # One tree of ways - 1 bits per set, the trees laid end to end:
        # set s's node n is bit s * tree_size + n.
        self._tree_size = max(1, num_ways - 1)
        self._bits = [0] * (num_sets * self._tree_size)
        self._levels = num_ways.bit_length() - 1

    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        bits = self._bits
        base = set_index * self._tree_size
        node = 0
        for _ in range(self._levels):
            node = 2 * node + 1 + bits[base + node]
        return node - (self.num_ways - 1)

    def _touch(self, set_index: int, way: int) -> None:
        bits = self._bits
        base = set_index * self._tree_size
        node = way + (self.num_ways - 1)
        while node:
            parent = (node - 1) // 2
            went_right = node == 2 * parent + 2
            # Point the bit away from the path we just took.
            bits[base + parent] = 0 if went_right else 1
            node = parent

    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._touch(set_index, way)

    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._touch(set_index, way)

    def snapshot_state(self) -> dict[str, object]:
        return {"tree_bits_set": sum(self._bits)}
