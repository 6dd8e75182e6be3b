"""SHiP: Signature-based Hit Predictor (Wu et al., MICRO 2011).

SHiP extends SRRIP with a Signature History Counter Table (SHCT) indexed
by a hashed PC signature. Each cache line remembers the signature that
filled it and an *outcome* bit recording whether it was ever re-referenced.
On eviction of a never-reused line the signature's counter is decremented;
on a hit it is incremented. Fills whose signature counter is zero insert
at distant RRPV (the line is predicted dead on arrival), everything else
inserts at long RRPV like SRRIP.

Constants follow the SHiP-mem configuration evaluated in the paper and
ChampSim's ``ship`` replacement: 14-bit signatures (16K-entry SHCT) and
2-bit saturating counters.
"""

from __future__ import annotations

from ..trace.record import AccessKind
from .base import PolicyAccess, ReplacementPolicy
from .rrip import RRPV_MAX

_KIND_WRITEBACK = int(AccessKind.WRITEBACK)

SIGNATURE_BITS = 14
SHCT_SIZE = 1 << SIGNATURE_BITS
SHCT_MAX = 3  # 2-bit saturating counters


def pc_signature(pc: int) -> int:
    """Hash a PC into a 14-bit SHCT signature (fold-and-mask)."""
    return (pc ^ (pc >> SIGNATURE_BITS) ^ (pc >> (2 * SIGNATURE_BITS))) & (
        SHCT_SIZE - 1
    )


class SHiPPolicy(ReplacementPolicy):
    """SRRIP base policy plus the SHCT-driven insertion predictor."""

    name = "ship"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        # Per-line tables, indexed set_index * num_ways + way.
        lines = num_sets * num_ways
        self._rrpv = [RRPV_MAX] * lines
        self._line_sig = [0] * lines
        self._line_reused = [False] * lines
        self._line_valid = [False] * lines
        self._shct = [SHCT_MAX // 2 + 1] * SHCT_SIZE  # weakly reusable start

    # hot
    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        # SRRIP's victim search: age the set until some line is distant.
        rrpv = self._rrpv
        base = set_index * self.num_ways
        end = base + self.num_ways
        try:
            return rrpv.index(RRPV_MAX, base, end) - base
        except ValueError:
            pass
        oldest = max(rrpv[base:end])
        while oldest < RRPV_MAX:
            for line in range(base, end):
                rrpv[line] += 1
            oldest += 1
        return rrpv.index(RRPV_MAX, base, end) - base

    # hot
    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        if access.kind == _KIND_WRITEBACK:
            # Writeback touches carry no PC and are invisible to the
            # predictor in the ChampSim reference: neither promote the
            # line nor train the SHCT on them.
            return
        line = set_index * self.num_ways + way
        self._rrpv[line] = 0
        if self._line_valid[line] and not self._line_reused[line]:
            self._line_reused[line] = True
            sig = self._line_sig[line]
            if self._shct[sig] < SHCT_MAX:
                self._shct[sig] += 1

    # hot
    def on_eviction(self, set_index: int, way: int, victim_block: int) -> None:
        line = set_index * self.num_ways + way
        if self._line_valid[line] and not self._line_reused[line]:
            sig = self._line_sig[line]
            if self._shct[sig] > 0:
                self._shct[sig] -= 1
        self._line_valid[line] = False

    # hot
    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        line = set_index * self.num_ways + way
        sig = pc_signature(access.pc)
        self._line_sig[line] = sig
        self._line_reused[line] = False
        if access.kind == _KIND_WRITEBACK:
            # Writebacks carry no PC; insert at distant RRPV, as in the
            # ChampSim reference, so they cannot pollute the SHCT.
            self._rrpv[line] = RRPV_MAX
            self._line_valid[line] = False
            return
        self._line_valid[line] = True
        if self._shct[sig] == 0:
            self._rrpv[line] = RRPV_MAX
        else:
            self._rrpv[line] = RRPV_MAX - 1

    def checkpoint_tables(self) -> dict[str, object]:
        return {"shct": list(self._shct)}

    def restore_tables(self, tables: dict[str, object]) -> None:
        shct = tables["shct"]
        if len(shct) != SHCT_SIZE:  # type: ignore[arg-type]
            raise ValueError(
                f"SHCT checkpoint has {len(shct)} entries, expected {SHCT_SIZE}"  # type: ignore[arg-type]
            )
        self._shct[:] = shct  # type: ignore[assignment]

    def snapshot_state(self) -> dict[str, object]:
        shct_hist = [0] * (SHCT_MAX + 1)
        for counter in self._shct:
            shct_hist[counter] += 1
        rrpv = self._rrpv
        rrpv_hist = [rrpv.count(value) for value in range(RRPV_MAX + 1)]
        tracked = sum(self._line_valid)
        reused = sum(
            1
            for valid, hit in zip(self._line_valid, self._line_reused)
            if valid and hit
        )
        return {
            "shct_histogram": shct_hist,
            # Signatures predicted dead-on-arrival (counter saturated at 0).
            "shct_dead_fraction": shct_hist[0] / SHCT_SIZE,
            "rrpv_histogram": rrpv_hist,
            "tracked_lines": tracked,
            "tracked_reused_lines": reused,
        }
