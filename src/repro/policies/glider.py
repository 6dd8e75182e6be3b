"""Glider replacement (Shi, Huang, Jain & Lin, MICRO 2019) — practical ISVM.

Glider's offline study trains an attention-based LSTM and distills the
insight that *the unordered set of recent PCs* predicts reuse better than
the single triggering PC. Its practical hardware design — implemented
here — replaces Hawkeye's counter table with a table of Integer Support
Vector Machines (ISVMs): one ISVM per (hashed) triggering PC, each with 16
small integer weights indexed by hashes of the PCs in a 5-entry PC History
Register (PCHR). Predictions sum the weights of the current history;
training uses the same OPTgen verdicts as Hawkeye, with a fixed margin
(updates stop once the sum exceeds the training threshold).

Structure sizes follow the paper's hardware budget: 2048 ISVMs of 16
weights, 5-PC history, thresholds 0 (averse/friendly) and 60 (high
confidence), training margin 100.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from ..trace.record import AccessKind
from .base import PolicyAccess, ReplacementPolicy
from .hawkeye import HAWKEYE_RRPV_MAX
from .optgen import SetSampler

_KIND_WRITEBACK = int(AccessKind.WRITEBACK)

ISVM_TABLE_BITS = 11
ISVM_TABLE_SIZE = 1 << ISVM_TABLE_BITS
ISVM_WEIGHTS = 16
PCHR_LENGTH = 5
WEIGHT_MIN, WEIGHT_MAX = -31, 31

#: Prediction sum below this is cache-averse.
THRESHOLD_AVERSE = 0
#: Prediction sum at or above this is high-confidence friendly.
THRESHOLD_CONFIDENT = 60
#: Training stops (margin reached) once the sum passes this.
TRAINING_MARGIN = 100


#: The weights of an ISVM never trained: all zero. Absent ISVMs share
#: this tuple (it cannot be written by mistake); the first training gives
#: an ISVM its own list.
UNTRAINED_WEIGHTS = (0,) * ISVM_WEIGHTS


def isvm_index(pc: int) -> int:
    """Select the ISVM for the triggering PC."""
    return (pc ^ (pc >> ISVM_TABLE_BITS) ^ (pc >> (2 * ISVM_TABLE_BITS))) & (
        ISVM_TABLE_SIZE - 1
    )


def weight_index(history_pc: int) -> int:
    """Hash a history PC into one of the 16 ISVM weight slots."""
    return (history_pc ^ (history_pc >> 4) ^ (history_pc >> 8)) & (ISVM_WEIGHTS - 1)


class GliderPolicy(ReplacementPolicy):
    """ISVM-over-PC-history reuse prediction trained by OPTgen."""

    name = "glider"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        # Per-line tables, indexed set_index * num_ways + way.
        lines = num_sets * num_ways
        self._rrpv = [HAWKEYE_RRPV_MAX] * lines
        self._line_friendly = [False] * lines
        # (isvm index, weight indices) of each line's last touch.
        self._line_features: list[tuple[int, tuple[int, ...]]] = [(0, ())] * lines
        self._isvms: list[Sequence[int]] = [UNTRAINED_WEIGHTS] * ISVM_TABLE_SIZE
        self._pchr: deque[int] = deque(maxlen=PCHR_LENGTH)
        # Per-slot occupancy of the PCHR plus the cached sorted distinct
        # slot tuple, maintained incrementally by _push_history so
        # _features need not rehash the whole history on every touch.
        self._pchr_slot_counts = [0] * ISVM_WEIGHTS
        self._pchr_slots: tuple[int, ...] = ()
        self._sampler = SetSampler(num_sets, num_ways)
        self.stat_friendly_fills = 0
        self.stat_averse_fills = 0

    # -- features & prediction -----------------------------------------------

    def _push_history(self, pc: int) -> None:
        """Append ``pc`` to the PCHR, maintaining the slot-set cache.

        The slot tuple only changes when a ``weight_index`` value enters
        or leaves the history's support set, so the sorted rebuild runs
        on that transition rather than on every feature computation.
        """
        counts = self._pchr_slot_counts
        pchr = self._pchr
        slot = weight_index(pc)
        # The slot of the PC the full history drops, or -1.
        oldest = weight_index(pchr[0]) if len(pchr) == PCHR_LENGTH else -1
        pchr.append(pc)
        if slot != oldest:  # else one PC of the slot leaves, one enters
            if oldest >= 0:
                counts[oldest] -= 1
            counts[slot] += 1
            if counts[slot] == 1 or (oldest >= 0 and not counts[oldest]):
                self._pchr_slots = tuple(
                    s for s in range(ISVM_WEIGHTS) if counts[s]
                )

    def _features(self, pc: int) -> tuple[int, tuple[int, ...]]:
        """The (ISVM, weight-slot) feature tuple for the current history."""
        return isvm_index(pc), self._pchr_slots

    def _sum(self, features: tuple[int, tuple[int, ...]]) -> int:
        table, slots = features
        weights = self._isvms[table]
        return sum(map(weights.__getitem__, slots))

    def _train(self, features: tuple[int, tuple[int, ...]], opt_hit: bool) -> None:
        table, slots = features
        weights = self._isvms[table]
        if not isinstance(weights, list):  # UNTRAINED_WEIGHTS
            weights = self._isvms[table] = [0] * ISVM_WEIGHTS
        total = sum(map(weights.__getitem__, slots))
        if opt_hit:
            if total < TRAINING_MARGIN:  # margin: stop once confidently positive
                for s in slots:
                    if weights[s] < WEIGHT_MAX:
                        weights[s] += 1
        else:
            if total > -TRAINING_MARGIN:
                for s in slots:
                    if weights[s] > WEIGHT_MIN:
                        weights[s] -= 1

    # -- sampling ---------------------------------------------------------------

    def _sample(
        self, set_index: int, access: PolicyAccess, features: tuple[int, tuple[int, ...]]
    ) -> None:
        decided, previous, evicted = self._sampler.observe(
            set_index, access.block, access.pc, context=features
        )
        if decided and previous is not None and previous.context is not None:
            self._train(previous.context, previous.opt_hit)  # type: ignore[attr-defined]
        if evicted is not None and evicted.context is not None:
            self._train(evicted.context, opt_hit=False)

    # -- replacement hooks --------------------------------------------------------

    # hot
    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        rrpv = self._rrpv
        base = set_index * self.num_ways
        end = base + self.num_ways
        try:
            return rrpv.index(HAWKEYE_RRPV_MAX, base, end) - base
        except ValueError:
            pass
        victim = rrpv.index(max(rrpv[base:end]), base, end)
        if self._line_friendly[victim]:
            # Evicting a line we promised to keep: detrain its features.
            self._train(self._line_features[victim], opt_hit=False)
        return victim - base

    # hot
    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        line = set_index * self.num_ways + way
        if access.kind == _KIND_WRITEBACK:
            self._line_friendly[line] = False
            self._line_features[line] = (0, ())
            self._rrpv[line] = HAWKEYE_RRPV_MAX
            return
        pc = access.pc
        features = self._features(pc)
        # _sample may train the ISVM, so the prediction reads the
        # weights only after it.
        self._sample(set_index, access, features)
        total = self._sum(features)
        self._push_history(pc)
        self._line_features[line] = features
        if total < THRESHOLD_AVERSE:
            self._line_friendly[line] = False
            self._rrpv[line] = HAWKEYE_RRPV_MAX
            return
        self._line_friendly[line] = True
        # High-confidence friendly lines are pinned at 0; low-confidence
        # ones start slightly aged so they yield to confident lines.
        self._rrpv[line] = 0 if total >= THRESHOLD_CONFIDENT else 2

    # hot
    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        line = set_index * self.num_ways + way
        if access.kind == _KIND_WRITEBACK:
            self._line_friendly[line] = False
            self._line_features[line] = (0, ())
            self._rrpv[line] = HAWKEYE_RRPV_MAX
            return
        pc = access.pc
        features = self._features(pc)
        self._sample(set_index, access, features)
        total = self._sum(features)
        self._push_history(pc)
        self._line_features[line] = features
        rrpv = self._rrpv
        if total < THRESHOLD_AVERSE:
            self._line_friendly[line] = False
            rrpv[line] = HAWKEYE_RRPV_MAX
            self.stat_averse_fills += 1
            return
        self._line_friendly[line] = True
        self.stat_friendly_fills += 1
        base = set_index * self.num_ways
        for other in range(base, base + self.num_ways):
            if other != line and rrpv[other] < HAWKEYE_RRPV_MAX - 1:
                rrpv[other] += 1
        rrpv[line] = 0 if total >= THRESHOLD_CONFIDENT else 2

    # -- warm-state protocol ------------------------------------------------------

    def checkpoint_tables(self) -> dict[str, object]:
        return {
            "isvms": [list(weights) for weights in self._isvms],
            "pchr": list(self._pchr),
            "sampler": self._sampler.checkpoint(),
            "friendly_fills": self.stat_friendly_fills,
            "averse_fills": self.stat_averse_fills,
        }

    def restore_tables(self, tables: dict[str, object]) -> None:
        isvms = tables["isvms"]
        if len(isvms) != ISVM_TABLE_SIZE:  # type: ignore[arg-type]
            raise ValueError(
                f"ISVM checkpoint has {len(isvms)} tables, "  # type: ignore[arg-type]
                f"expected {ISVM_TABLE_SIZE}"
            )
        self._isvms[:] = map(list, isvms)  # type: ignore[arg-type]
        # Rebuild the PCHR and its incrementally-maintained slot caches
        # from scratch so they agree by construction.
        self._pchr = deque(tables["pchr"], maxlen=PCHR_LENGTH)  # type: ignore[arg-type]
        counts = [0] * ISVM_WEIGHTS
        for pc in self._pchr:
            counts[weight_index(pc)] += 1
        self._pchr_slot_counts = counts
        self._pchr_slots = tuple(s for s in range(ISVM_WEIGHTS) if counts[s])
        self._sampler.restore(tables["sampler"])  # type: ignore[arg-type]
        self.stat_friendly_fills = int(tables["friendly_fills"])  # type: ignore[arg-type]
        self.stat_averse_fills = int(tables["averse_fills"])  # type: ignore[arg-type]

    @property
    def optgen_hit_rate(self) -> float:
        """OPT hit rate reconstructed on the sampled sets."""
        return self._sampler.aggregate_opt_hit_rate()

    def snapshot_state(self) -> dict[str, object]:
        positive = negative = 0
        for weights in self._isvms:
            for weight in weights:
                if weight > 0:
                    positive += 1
                elif weight < 0:
                    negative += 1
        rrpv = self._rrpv
        rrpv_hist = [rrpv.count(value) for value in range(HAWKEYE_RRPV_MAX + 1)]
        return {
            "isvm_positive_weights": positive,
            "isvm_negative_weights": negative,
            "isvm_total_weights": ISVM_TABLE_SIZE * ISVM_WEIGHTS,
            "rrpv_histogram": rrpv_hist,
            "friendly_lines": sum(self._line_friendly),
            "pchr_depth": len(self._pchr),
            "pchr_distinct_slots": len(self._pchr_slots),
            "pchr_slot_counts": list(self._pchr_slot_counts),
            "friendly_fills": self.stat_friendly_fills,
            "averse_fills": self.stat_averse_fills,
            "optgen_hit_rate": self.optgen_hit_rate,
        }
