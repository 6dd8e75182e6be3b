"""Replacement-policy interface.

The interface mirrors ChampSim's replacement-policy hooks so that each
policy in :mod:`repro.policies` is a direct port of its reference
implementation:

* ``initialize`` — called once when the policy is attached to a cache
  (ChampSim: ``initialize_replacement``).
* ``find_victim`` — choose a way to evict for an incoming fill, or return
  :data:`BYPASS` to not cache the block at all (ChampSim allows this for
  the LLC; Hawkeye and MPPPB use it).
* ``on_hit`` / ``on_fill`` — update recency/prediction state (ChampSim
  folds both into ``update_replacement_state`` with a ``hit`` flag).
* ``on_eviction`` — notification that a victim left the cache, used by
  policies that train on eviction outcomes (SHiP, MPPPB).

Policies see the *block address* (byte address without the offset bits),
the PC of the triggering instruction, and the access kind. Writebacks
arriving from an upper cache level carry no meaningful PC, matching real
hardware; PC-based policies must tolerate ``pc == 0``.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

from ..trace.record import AccessKind

#: Sentinel returned by ``find_victim`` to request bypassing the fill.
BYPASS = -1


class PolicyAccess(NamedTuple):
    """The slice of an access visible to a replacement policy."""

    block: int  # block address (byte address >> block_bits)
    pc: int  # program counter, 0 for writebacks
    kind: int  # AccessKind value

    @property
    def is_prefetch(self) -> bool:
        """Whether this access is a prefetch fill."""
        return self.kind == AccessKind.PREFETCH

    @property
    def is_writeback(self) -> bool:
        """Whether this access is a writeback from an upper level."""
        return self.kind == AccessKind.WRITEBACK


class ReplacementPolicy(abc.ABC):
    """Abstract base class for cache replacement policies.

    Subclasses must set :attr:`name` (the registry identifier) and
    implement :meth:`find_victim`, :meth:`on_hit` and :meth:`on_fill`.
    State must be allocated in :meth:`initialize`, which receives the
    cache geometry; a policy instance is attached to exactly one cache.
    """

    #: Registry name, e.g. ``"srrip"``. Overridden per subclass.
    name: str = "base"

    #: Whether the policy may return :data:`BYPASS` from ``find_victim``.
    supports_bypass: bool = False

    def __init__(self) -> None:
        self.num_sets = 0
        self.num_ways = 0

    def initialize(self, num_sets: int, num_ways: int) -> None:
        """Allocate per-set/per-way state for a cache of this geometry."""
        self.num_sets = num_sets
        self.num_ways = num_ways

    @abc.abstractmethod
    def find_victim(
        self, set_index: int, access: PolicyAccess, tags: list[int]
    ) -> int:
        """Pick the way to evict in ``set_index`` for the incoming block.

        ``tags`` holds the current block addresses per way (``-1`` marks an
        invalid way); the cache fills invalid ways itself, so this is only
        called when the set is full. It is a snapshot of the set, copied
        out of the cache's flat tag array: a policy reads it and never
        mutates it. Returns a way index, or :data:`BYPASS` if
        :attr:`supports_bypass`.
        """

    @abc.abstractmethod
    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        """Update state after a hit on ``way``."""

    @abc.abstractmethod
    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        """Update state after filling the incoming block into ``way``."""

    def on_eviction(
        self, set_index: int, way: int, victim_block: int
    ) -> None:
        """Notification that ``victim_block`` was evicted from ``way``.

        Default: no-op; override in policies that learn from evictions.
        """

    def snapshot_state(self) -> dict[str, object]:
        """A JSON-serializable summary of the policy's internal state.

        Called by the telemetry collector (:mod:`repro.telemetry`) at
        interval boundaries, so it must be cheap relative to the interval
        length and must not mutate any state. Override to expose
        aggregate predictor/recency statistics (RRPV histograms, SHCT
        confidence, predictor counters); the default exposes nothing.
        """
        return {}

    # -- warm-state protocol (representative-interval sampling) ---------------
    #
    # Sampled simulation (:mod:`repro.sampling`) skips most of the trace,
    # so a policy's *global* predictor tables (SHCT, OPTgen samplers,
    # perceptron weights, duel counters) would otherwise be missing the
    # training history of the skipped regions. Policies that carry such
    # tables implement this pair; per-line metadata needs no hook — the
    # executor rebuilds it through the normal fill path. Policies whose
    # only global state is a relabeling-invariant recency clock are
    # listed in :data:`repro.policies.registry.WARM_STATE_EXCLUDED`
    # instead (the ``warm-state-protocol`` lint rule enforces that every
    # registered policy does one or the other).

    def checkpoint_tables(self) -> dict[str, object] | None:
        """Deep snapshot of the policy's global predictor tables.

        Returns a dict fully owned by the caller (no live aliases into
        policy state), or ``None`` when the policy does not implement
        the warm-state protocol. An empty dict means "implements the
        protocol, no global tables" (e.g. SRRIP, whose only state is
        per-line RRPVs).
        """
        return None

    def restore_tables(self, tables: dict[str, object]) -> None:
        """Restore global tables from :meth:`checkpoint_tables` output.

        Restores by copying values in (never by aliasing the checkpoint
        dict), so a checkpoint can be restored repeatedly. Monotonic
        clocks are restored with ``max(current, checkpointed)`` so time
        never runs backwards for per-line stamps allocated earlier.
        """
        raise NotImplementedError(
            f"policy {self.name!r} does not implement the warm-state "
            "checkpoint protocol"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(sets={self.num_sets}, ways={self.num_ways})"
