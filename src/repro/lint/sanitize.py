"""Runtime invariant sanitizer for the cache hierarchy (``--sanitize``).

The static rules in :mod:`repro.lint.contract` catch contract drift that
is visible in source; this module catches the drift that only shows up
while simulating. When attached (opt-in — the checks cost a few percent
of throughput, so the default hot path carries exactly one ``is None``
test per operation), every cache verifies after each mutation:

* **victim legality** — ``find_victim`` returned a way inside
  ``[0, num_ways)`` pointing at a valid line, or ``BYPASS`` only if the
  policy declares ``supports_bypass``;
* **eviction pairing** — ``on_eviction`` fired exactly once per evicted
  victim, with the right ``(set, way, block)``, and never spuriously;
* **tag uniqueness / occupancy** — no duplicate tags within a set, no
  set wider than its geometry;
* **dirty-bit consistency** — a dirty way is always a valid way;
* **inclusion** (inclusive mode) — upper-level residents are periodically
  swept against LLC residency.

Violations raise :class:`SanitizerError` (a
:class:`~repro.errors.SimulationError`): they mean the simulator or a
policy broke its contract, so the run's numbers are not citable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..policies.base import BYPASS

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..mem.cache import Cache
    from ..mem.hierarchy import CacheHierarchy

#: Invalid-way marker in the cache tag arrays.
_INVALID = -1


class SanitizerError(SimulationError):
    """A runtime invariant of the cache model was violated."""


class InvariantSanitizer:
    """Per-cache invariant checks, driven by :class:`~repro.mem.cache.Cache`.

    Bound to exactly one cache via :meth:`bind` (normally through
    ``Cache.attach_sanitizer``), which also wraps the policy's
    ``on_eviction`` so notification pairing is observable.
    """

    def __init__(self) -> None:
        self.checks = 0
        self.evictions_verified = 0
        self._cache: "Cache | None" = None
        self._pending: tuple[int, int, int] | None = None

    def bind(self, cache: "Cache") -> None:
        """Attach to ``cache`` and instrument its policy's ``on_eviction``."""
        if self._cache is not None:
            raise SanitizerError(
                f"sanitizer already bound to {self._cache.name}; "
                "use one sanitizer per cache"
            )
        self._cache = cache
        original = cache.policy.on_eviction

        def notified(set_index: int, way: int, victim_block: int) -> None:
            self._eviction_notified(set_index, way, victim_block)
            original(set_index, way, victim_block)

        # Instance attribute shadows the bound method for this policy only.
        cache.policy.on_eviction = notified  # type: ignore[method-assign]

    @property
    def cache_name(self) -> str:
        return self._cache.name if self._cache is not None else "<unbound>"

    def _fail(self, message: str) -> None:
        raise SanitizerError(f"[sanitize:{self.cache_name}] {message}")

    # -- checks called from Cache ------------------------------------------------

    def check_victim(self, set_index: int, way: int, tags: list[int]) -> None:
        """A ``find_victim`` answer must be a valid way or a legal BYPASS."""
        self.checks += 1
        cache = self._cache
        assert cache is not None
        if way == BYPASS:
            if not cache.policy.supports_bypass:
                self._fail(
                    f"policy {cache.policy.name!r} returned BYPASS for set "
                    f"{set_index} but does not declare supports_bypass"
                )
            return
        if not isinstance(way, int) or not 0 <= way < cache.num_ways:
            self._fail(
                f"find_victim returned way {way!r} for set {set_index}; "
                f"expected 0 <= way < {cache.num_ways} or BYPASS"
            )
        if tags[way] == _INVALID:
            self._fail(
                f"find_victim chose invalid way {way} in a full set "
                f"{set_index} (stale policy state?)"
            )

    def expect_eviction(self, set_index: int, way: int, victim_block: int) -> None:
        """Arm the pairing check: the next ``on_eviction`` must match."""
        if self._pending is not None:
            self._fail(
                f"eviction of block {victim_block:#x} started while the "
                f"notification for {self._pending} is still outstanding"
            )
        self._pending = (set_index, way, victim_block)

    def _eviction_notified(self, set_index: int, way: int, victim_block: int) -> None:
        self.checks += 1
        event = (set_index, way, victim_block)
        if self._pending is None:
            self._fail(
                f"on_eviction fired for {event} with no eviction in progress "
                "(duplicate or spurious notification)"
            )
        if self._pending != event:
            self._fail(
                f"on_eviction fired for {event} but the cache evicted "
                f"{self._pending}"
            )
        self._pending = None
        self.evictions_verified += 1

    def assert_notified(self, set_index: int) -> None:
        """After an eviction, the notification must have been consumed."""
        self.checks += 1
        if self._pending is not None:
            self._fail(
                f"victim {self._pending} left set {set_index} but "
                "on_eviction never fired"
            )

    def check_set(self, set_index: int) -> None:
        """Check one set of the bound cache, read from its flat arrays."""
        cache = self._cache
        assert cache is not None
        base = set_index * cache.num_ways
        end = base + cache.num_ways
        self.check_row(set_index, cache._tags[base:end], cache._dirty[base:end])

    def check_row(
        self, set_index: int, tags: list[int], dirty: bytes | bytearray
    ) -> None:
        """Occupancy bound, tag uniqueness and dirty => valid for one set."""
        self.checks += 1
        cache = self._cache
        assert cache is not None
        if len(tags) != cache.num_ways:
            self._fail(
                f"set {set_index} has {len(tags)} ways; geometry says "
                f"{cache.num_ways}"
            )
        valid = [t for t in tags if t != _INVALID]
        if len(set(valid)) != len(valid):
            dupes = sorted({t for t in valid if valid.count(t) > 1})
            self._fail(
                f"duplicate tag(s) {[hex(d) for d in dupes]} in set {set_index}"
            )
        for way, is_dirty in enumerate(dirty):
            if is_dirty and tags[way] == _INVALID:
                self._fail(
                    f"way {way} of set {set_index} is dirty but invalid "
                    "(lost writeback data)"
                )


class HierarchySanitizer:
    """Cross-level checks, driven by :class:`~repro.mem.hierarchy.CacheHierarchy`.

    The inclusion sweep is O(cache size), so it runs every
    :data:`SWEEP_INTERVAL` demand accesses and only in inclusive mode —
    NINE hierarchies have no inclusion invariant to check.
    """

    SWEEP_INTERVAL = 1024

    def __init__(self) -> None:
        self.accesses = 0
        self.sweeps = 0

    def on_access(self, hierarchy: "CacheHierarchy") -> None:
        """Called once per demand access by the hierarchy."""
        self.accesses += 1
        if hierarchy.inclusive and self.accesses % self.SWEEP_INTERVAL == 0:
            self.check_inclusion(hierarchy)

    def check_inclusion(self, hierarchy: "CacheHierarchy") -> None:
        """Every upper-level resident block must be LLC-resident."""
        self.sweeps += 1
        llc_resident = set(hierarchy.llc.resident_blocks())
        for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
            for block in cache.resident_blocks():
                if block not in llc_resident:
                    raise SanitizerError(
                        f"[sanitize:hierarchy] inclusive mode: block "
                        f"{block:#x} resident in {cache.name} but not in "
                        f"{hierarchy.llc.name}"
                    )


class AttachedSanitizers:
    """Handle over every sanitizer attached to one hierarchy."""

    def __init__(
        self, caches: dict[str, InvariantSanitizer], hierarchy: HierarchySanitizer
    ) -> None:
        self.caches = caches
        self.hierarchy = hierarchy

    @property
    def total_checks(self) -> int:
        """Invariant checks executed across all levels."""
        return sum(s.checks for s in self.caches.values()) + self.hierarchy.accesses

    @property
    def evictions_verified(self) -> int:
        """Eviction notifications verified for pairing."""
        return sum(s.evictions_verified for s in self.caches.values())


def attach_sanitizers(hierarchy: "CacheHierarchy") -> AttachedSanitizers:
    """Arm invariant checking on every level of ``hierarchy``.

    Safe to call once per hierarchy, before simulation; all subsequent
    accesses are checked until the hierarchy is discarded.
    """
    caches: dict[str, InvariantSanitizer] = {}
    for name, cache in hierarchy.caches.items():
        sanitizer = InvariantSanitizer()
        cache.attach_sanitizer(sanitizer)
        caches[name] = sanitizer
    hsan = HierarchySanitizer()
    hierarchy.attach_sanitizer(hsan)
    return AttachedSanitizers(caches, hsan)
