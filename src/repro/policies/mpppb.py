"""MPPPB: Multiperspective Placement, Promotion and Bypass
(Jiménez & Teran, MICRO 2017 — "Multiperspective Reuse Prediction").

MPPPB predicts, on every LLC touch, whether the block will be reused
before eviction, by summing small integer weights drawn from several
feature tables ("perspectives"): hashes of the triggering PC at several
shifts, a fold of recent PC history, the block's page number and its
offset within the page. A high sum means "dead": dead-on-arrival fills
are bypassed, dead-on-touch lines become preferred victims; otherwise the
underlying recency order (LRU stamps) decides.

Training is perceptron-style with a margin: sampled sets remember the
feature vector of each line's last touch; a hit trains toward "live", an
eviction without reuse trains toward "dead", and weights only move when
the prediction was wrong or under-confident.

This port keeps the paper's architecture (multiple orthogonal
perspectives, margin training, sampled training sets, bypass + placement)
with a reduced feature set of 7 perspectives sized to the LLC modelled
here; see DESIGN.md for the substitution note.
"""

from __future__ import annotations

from collections import deque

from ..trace.record import AccessKind
from .base import BYPASS, PolicyAccess, ReplacementPolicy

_KIND_WRITEBACK = int(AccessKind.WRITEBACK)

TABLE_BITS = 8
TABLE_SIZE = 1 << TABLE_BITS
WEIGHT_MIN, WEIGHT_MAX = -32, 31

#: Prediction sum at or above this bypasses the fill entirely.
THETA_BYPASS = 10
#: Prediction sum at or above this marks the line dead (preferred victim).
THETA_DEAD = 4
#: Margin for perceptron training.
THETA_TRAIN = 8

#: Every Nth set is a training set (the paper samples ~1/32 of sets).
SAMPLE_STRIDE = 8

NUM_FEATURES = 7
PC_HISTORY_LENGTH = 4


class MPPPBPolicy(ReplacementPolicy):
    """Multiperspective perceptron reuse predictor with bypass."""

    name = "mpppb"
    supports_bypass = True

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        # Per-line tables, indexed set_index * num_ways + way.
        lines = num_sets * num_ways
        self._stamp = [0] * lines
        self._clock = 0
        self._line_dead = [False] * lines
        self._line_features: list[tuple[int, ...] | None] = [None] * lines
        self._line_reused = [True] * lines
        self._weights = [[0] * TABLE_SIZE for _ in range(NUM_FEATURES)]
        self._pc_history: deque[int] = deque(maxlen=PC_HISTORY_LENGTH)
        self.stat_bypasses = 0
        self.stat_fills = 0

    # -- features ---------------------------------------------------------------

    def _features(self, access: PolicyAccess) -> tuple[int, ...]:
        """Compute the 7 perspective indices for this access."""
        mask = TABLE_SIZE - 1
        pc = access.pc
        block = access.block
        history_fold = 0
        for i, h in enumerate(self._pc_history):
            history_fold ^= h >> (i + 1)
        page = block >> 6  # 4 KiB page of a 64 B block
        return (
            pc & mask,
            (pc >> 4) & mask,
            (pc >> 8) & mask,
            (pc ^ (pc >> TABLE_BITS)) & mask,
            history_fold & mask,
            (page ^ (page >> TABLE_BITS)) & mask,
            block & mask,  # offset bits within the page + low page bits
        )

    def _sum(self, features: tuple[int, ...]) -> int:
        w = self._weights
        f0, f1, f2, f3, f4, f5, f6 = features
        return (
            w[0][f0] + w[1][f1] + w[2][f2] + w[3][f3]
            + w[4][f4] + w[5][f5] + w[6][f6]
        )

    def _train(self, features: tuple[int, ...], dead: bool) -> None:
        """Perceptron update toward ``dead`` (+1) or live (-1), with margin."""
        total = self._sum(features)
        if dead and total < THETA_TRAIN:
            for i, f in enumerate(features):
                if self._weights[i][f] < WEIGHT_MAX:
                    self._weights[i][f] += 1
        elif not dead and total > -THETA_TRAIN:
            for i, f in enumerate(features):
                if self._weights[i][f] > WEIGHT_MIN:
                    self._weights[i][f] -= 1

    # -- replacement hooks ----------------------------------------------------------
    #
    # Only every SAMPLE_STRIDE-th set trains: there, each line keeps the
    # features of its last touch, so a hit trains them live and an
    # eviction without reuse trains them dead.

    # hot
    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        # Bypass dead-on-arrival demand fills (never bypass writebacks: the
        # block must land somewhere to preserve its dirty data).
        if access.kind != _KIND_WRITEBACK:
            features = self._features(access)
            if self._sum(features) >= THETA_BYPASS:
                self.stat_bypasses += 1
                return BYPASS
        # Prefer the least recently touched predicted-dead line; fall back
        # to LRU.
        dead = self._line_dead
        stamps = self._stamp
        base = set_index * self.num_ways
        end = base + self.num_ways
        try:
            victim = dead.index(True, base, end)
        except ValueError:
            return stamps.index(min(stamps[base:end]), base, end) - base
        oldest = stamps[victim]
        for line in range(victim + 1, end):
            if dead[line] and stamps[line] < oldest:
                victim = line
                oldest = stamps[line]
        return victim - base

    # hot
    def _touch(self, set_index: int, line: int, access: PolicyAccess) -> None:
        self._clock += 1
        self._stamp[line] = self._clock
        if access.kind == _KIND_WRITEBACK:
            self._line_dead[line] = True
            self._line_features[line] = None
            self._line_reused[line] = True
            return
        features = self._features(access)
        self._line_dead[line] = self._sum(features) >= THETA_DEAD
        if not set_index % SAMPLE_STRIDE:
            self._line_features[line] = features
        self._pc_history.append(access.pc)

    # hot
    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        line = set_index * self.num_ways + way
        if not set_index % SAMPLE_STRIDE:
            prior = self._line_features[line]
            if prior is not None:
                self._train(prior, dead=False)  # the line was reused: live
        self._line_reused[line] = True
        self._touch(set_index, line, access)

    # hot
    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        line = set_index * self.num_ways + way
        self.stat_fills += 1
        self._line_reused[line] = False
        self._touch(set_index, line, access)

    # hot
    def on_eviction(self, set_index: int, way: int, victim_block: int) -> None:
        line = set_index * self.num_ways + way
        if not set_index % SAMPLE_STRIDE:
            prior = self._line_features[line]
            if prior is not None and not self._line_reused[line]:
                self._train(prior, dead=True)  # evicted untouched: dead
        self._line_features[line] = None

    # -- warm-state protocol ------------------------------------------------------

    def checkpoint_tables(self) -> dict[str, object]:
        return {
            "weights": [list(table) for table in self._weights],
            "pc_history": list(self._pc_history),
            "clock": self._clock,
            "bypasses": self.stat_bypasses,
            "fills": self.stat_fills,
        }

    def restore_tables(self, tables: dict[str, object]) -> None:
        weights = tables["weights"]
        if len(weights) != NUM_FEATURES:  # type: ignore[arg-type]
            raise ValueError(
                f"weight checkpoint has {len(weights)} tables, "  # type: ignore[arg-type]
                f"expected {NUM_FEATURES}"
            )
        for table, recorded in zip(self._weights, weights):  # type: ignore[arg-type]
            table[:] = recorded
        self._pc_history = deque(
            tables["pc_history"], maxlen=PC_HISTORY_LENGTH  # type: ignore[arg-type]
        )
        # Never rewind: stamps handed out earlier must stay in the past.
        self._clock = max(self._clock, int(tables["clock"]))  # type: ignore[arg-type]
        self.stat_bypasses = int(tables["bypasses"])  # type: ignore[arg-type]
        self.stat_fills = int(tables["fills"])  # type: ignore[arg-type]

    @property
    def bypass_rate(self) -> float:
        """Fraction of fill attempts that were bypassed."""
        total = self.stat_fills + self.stat_bypasses
        return self.stat_bypasses / total if total else 0.0

    def snapshot_state(self) -> dict[str, object]:
        positive = negative = 0
        for table in self._weights:
            for weight in table:
                if weight > 0:
                    positive += 1
                elif weight < 0:
                    negative += 1
        oldest = min(self._stamp)
        return {
            "weight_positive": positive,
            "weight_negative": negative,
            "weight_total": NUM_FEATURES * TABLE_SIZE,
            "clock": self._clock,
            "oldest_stamp_age": self._clock - oldest,
            "dead_lines": sum(self._line_dead),
            "reused_lines": sum(self._line_reused),
            "pc_history_depth": len(self._pc_history),
            "bypasses": self.stat_bypasses,
            "fills": self.stat_fills,
            "bypass_rate": self.bypass_rate,
        }
