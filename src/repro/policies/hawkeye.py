"""Hawkeye replacement (Jain & Lin, ISCA 2016).

Hawkeye learns from what Belady's OPT *would have done*: an online OPTgen
reconstruction over 64 sampled sets produces hit/miss verdicts for past
usage intervals, and those verdicts train a PC-indexed table of 3-bit
saturating counters. Loads whose PC the predictor deems "cache-friendly"
insert at RRPV 0 and are kept; "cache-averse" loads insert at RRPV 7 and
are evicted first. When no averse line exists the oldest friendly line is
evicted and its PC is detrained, bounding mispredictions.

This is a port of the CRC2 reference implementation with the same
structure sizes: 3-bit RRPVs, 8K-entry predictor with 3-bit counters,
64 sampled sets, 128-quanta OPTgen vectors.
"""

from __future__ import annotations

from ..trace.record import AccessKind
from .base import PolicyAccess, ReplacementPolicy
from .optgen import SetSampler

_KIND_WRITEBACK = int(AccessKind.WRITEBACK)

#: Hawkeye uses 3-bit RRPVs (unlike the RRIP family's 2-bit).
HAWKEYE_RRPV_MAX = 7

PREDICTOR_BITS = 13
PREDICTOR_SIZE = 1 << PREDICTOR_BITS
COUNTER_MAX = 7  # 3-bit saturating counters
FRIENDLY_THRESHOLD = (COUNTER_MAX + 1) // 2  # counter >= 4 => friendly


def predictor_index(pc: int) -> int:
    """Hash a PC into the predictor table (fold-and-mask)."""
    return (pc ^ (pc >> PREDICTOR_BITS) ^ (pc >> (2 * PREDICTOR_BITS))) & (
        PREDICTOR_SIZE - 1
    )


class HawkeyePolicy(ReplacementPolicy):
    """OPTgen-trained PC-based reuse prediction at the LLC."""

    name = "hawkeye"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        # Per-line tables, indexed set_index * num_ways + way.
        lines = num_sets * num_ways
        self._rrpv = [HAWKEYE_RRPV_MAX] * lines
        self._line_friendly = [False] * lines
        self._line_pc = [0] * lines
        self._counters = [FRIENDLY_THRESHOLD] * PREDICTOR_SIZE  # weakly friendly
        self._sampler = SetSampler(num_sets, num_ways)
        self.stat_friendly_fills = 0
        self.stat_averse_fills = 0

    # -- predictor ------------------------------------------------------------

    def _predict_friendly(self, pc: int) -> bool:
        return self._counters[predictor_index(pc)] >= FRIENDLY_THRESHOLD

    def _train(self, pc: int, opt_hit: bool) -> None:
        idx = predictor_index(pc)
        if opt_hit:
            if self._counters[idx] < COUNTER_MAX:
                self._counters[idx] += 1
        elif self._counters[idx] > 0:
            self._counters[idx] -= 1

    def _detrain(self, pc: int) -> None:
        idx = predictor_index(pc)
        if self._counters[idx] > 0:
            self._counters[idx] -= 1

    # -- sampling -------------------------------------------------------------

    def _sample(self, set_index: int, access: PolicyAccess) -> None:
        if access.kind == _KIND_WRITEBACK:
            return  # writebacks are invisible to OPTgen, as in the reference
        decided, previous, evicted = self._sampler.observe(
            set_index, access.block, access.pc
        )
        if decided and previous is not None:
            self._train(previous.pc, previous.opt_hit)  # type: ignore[attr-defined]
        if evicted is not None:
            # The evicted sampler entry was never reused inside the window:
            # OPT would not have kept it, so detrain its PC.
            self._detrain(evicted.pc)

    # -- replacement hooks ------------------------------------------------------

    # hot
    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        rrpv = self._rrpv
        base = set_index * self.num_ways
        end = base + self.num_ways
        try:
            return rrpv.index(HAWKEYE_RRPV_MAX, base, end) - base
        except ValueError:
            pass
        # No cache-averse line: evict the oldest friendly line and detrain
        # its PC — the predictor said "keep", OPT-in-hindsight disagrees.
        victim = rrpv.index(max(rrpv[base:end]), base, end)
        if self._line_friendly[victim]:
            self._detrain(self._line_pc[victim])
        return victim - base

    # hot
    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._sample(set_index, access)
        if access.kind == _KIND_WRITEBACK:
            return
        line = set_index * self.num_ways + way
        pc = access.pc
        friendly = self._predict_friendly(pc)
        self._line_friendly[line] = friendly
        self._line_pc[line] = pc
        self._rrpv[line] = 0 if friendly else HAWKEYE_RRPV_MAX

    # hot
    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._sample(set_index, access)
        line = set_index * self.num_ways + way
        if access.kind == _KIND_WRITEBACK:
            # Writebacks carry no PC: insert averse so they leave quickly.
            self._line_friendly[line] = False
            self._line_pc[line] = 0
            self._rrpv[line] = HAWKEYE_RRPV_MAX
            return
        pc = access.pc
        friendly = self._predict_friendly(pc)
        self._line_friendly[line] = friendly
        self._line_pc[line] = pc
        rrpv = self._rrpv
        if friendly:
            self.stat_friendly_fills += 1
            # Age every other line so relative insertion order among
            # friendly lines is preserved (the reference's saturating age).
            base = set_index * self.num_ways
            for other in range(base, base + self.num_ways):
                if other != line and rrpv[other] < HAWKEYE_RRPV_MAX - 1:
                    rrpv[other] += 1
            rrpv[line] = 0
        else:
            self.stat_averse_fills += 1
            rrpv[line] = HAWKEYE_RRPV_MAX

    # -- warm-state protocol ------------------------------------------------------

    def checkpoint_tables(self) -> dict[str, object]:
        return {
            "counters": list(self._counters),
            "sampler": self._sampler.checkpoint(),
            "friendly_fills": self.stat_friendly_fills,
            "averse_fills": self.stat_averse_fills,
        }

    def restore_tables(self, tables: dict[str, object]) -> None:
        counters = tables["counters"]
        if len(counters) != PREDICTOR_SIZE:  # type: ignore[arg-type]
            raise ValueError(
                f"predictor checkpoint has {len(counters)} entries, "  # type: ignore[arg-type]
                f"expected {PREDICTOR_SIZE}"
            )
        self._counters[:] = counters  # type: ignore[assignment]
        self._sampler.restore(tables["sampler"])  # type: ignore[arg-type]
        self.stat_friendly_fills = int(tables["friendly_fills"])  # type: ignore[arg-type]
        self.stat_averse_fills = int(tables["averse_fills"])  # type: ignore[arg-type]

    # -- introspection -----------------------------------------------------------

    @property
    def optgen_hit_rate(self) -> float:
        """OPT hit rate reconstructed on the sampled sets."""
        return self._sampler.aggregate_opt_hit_rate()

    def snapshot_state(self) -> dict[str, object]:
        hist = [0] * (COUNTER_MAX + 1)
        for counter in self._counters:
            hist[counter] += 1
        rrpv = self._rrpv
        rrpv_hist = [rrpv.count(value) for value in range(HAWKEYE_RRPV_MAX + 1)]
        return {
            "predictor_histogram": hist,
            "predictor_friendly_fraction": (
                sum(hist[FRIENDLY_THRESHOLD:]) / PREDICTOR_SIZE
            ),
            "rrpv_histogram": rrpv_hist,
            "friendly_lines": sum(self._line_friendly),
            "friendly_fills": self.stat_friendly_fills,
            "averse_fills": self.stat_averse_fills,
            "optgen_hit_rate": self.optgen_hit_rate,
        }
