"""Breadth-First Search — GAP's direction-optimizing BFS (Beamer et al.).

The kernel alternates between two step types:

* **Top-down**: walk the frontier's adjacency rows, probing ``parent``
  for each neighbour and claiming undiscovered ones. Cheap when the
  frontier is small.
* **Bottom-up**: scan *all* unvisited vertices, walking each one's row
  until a frontier member is found (early exit). Cheap when the frontier
  is a large fraction of the graph, which happens in the middle levels
  of low-diameter graphs.

The switch uses GAP's alpha/beta heuristic on frontier edge counts. The
traced accesses follow the real C++ kernel: OA and NA walks, ``parent``
probes/claims in the top-down phase, and word-granularity bitmap probes
of the frontier in the bottom-up phase.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..graphs.csr import CSRGraph
from ..trace.record import AccessKind
from .common import KERNEL_GAP, KernelRun, make_kernel_tools, pick_sources
from .memory import interleave_addr_streams


def bfs(
    graph: CSRGraph,
    source: int | None = None,
    alpha: int = 15,
    beta: int = 18,
    num_sources: int = 1,
    sources: list[int] | None = None,
    trace_name: str | None = None,
    max_accesses: int | None = None,
) -> KernelRun:
    """Direction-optimizing BFS; returns parents (of the last trial) + trace.

    GAP runs BFS as repeated trials from different sources:
    ``num_sources`` trials are concatenated into one trace, with sources
    taken from ``sources`` if given, else ``source`` (single trial), else
    picked deterministically among connected vertices. ``max_accesses``
    bounds the traced window; once it is full, the kernel stops at the
    next vertex, and when that cuts a trial short, its ``values`` are
    partial (``trace.info["truncated"]`` is set).
    """
    n = graph.num_vertices
    if num_sources < 1:
        raise WorkloadError(f"num_sources must be >= 1, got {num_sources}")
    if sources is None:
        if source is not None:
            sources = pick_sources(graph, num_sources, seed=source + 27)
            sources[0] = source
        else:
            sources = pick_sources(graph, num_sources)
    for s in sources:
        if not 0 <= s < n:
            raise WorkloadError(f"BFS source {s} out of range [0, {n})")
    name = trace_name or f"gap.bfs.n{n}"
    mem, pcs, builder = make_kernel_tools(
        graph, name, info={"kernel": "bfs", "sources": list(sources)},
        max_accesses=max_accesses,
    )
    pc_oa = pcs.pc("bfs.load_offsets")
    pc_na = pcs.pc("bfs.load_neighbor")
    pc_probe = pcs.pc("bfs.probe_parent")
    pc_claim = pcs.pc("bfs.claim_parent")
    pc_scan = pcs.pc("bfs.scan_unvisited")
    pc_bmp = pcs.pc("bfs.probe_bitmap")

    total_edges = graph.num_edges
    parents = np.full(n, -1, dtype=np.int64)
    for trial, trial_source in enumerate(sources):
        parents = np.full(n, -1, dtype=np.int64)
        parents[trial_source] = trial_source
        frontier = np.array([trial_source], dtype=np.int64)
        edges_done = 0
        while len(frontier):
            if builder.full:
                builder.info["truncated"] = True
                break
            frontier_edges = int(
                (graph.offsets[frontier + 1] - graph.offsets[frontier]).sum()
            )
            remaining = total_edges - edges_done
            bottom_up = (
                frontier_edges * alpha > remaining and len(frontier) > n // beta
            )
            if bottom_up:
                frontier = _bottom_up_step(
                    graph, mem, builder, parents, frontier,
                    pc_scan, pc_oa, pc_na, pc_bmp,
                )
            else:
                frontier = _top_down_step(
                    graph, mem, builder, parents, frontier,
                    pc_oa, pc_na, pc_probe, pc_claim,
                )
            edges_done += frontier_edges
        if builder.full and trial + 1 < num_sources:
            builder.info["truncated_after_trials"] = trial + 1
            break
    return KernelRun(name=name, values=parents, trace=builder.build(), pcs=pcs.sites)


def _top_down_step(
    graph, mem, builder, parents, frontier, pc_oa, pc_na, pc_probe, pc_claim
) -> np.ndarray:
    """Expand the frontier vertex by vertex, claiming new parents.

    Stops at the next vertex once the trace window is full.
    """
    next_frontier: list[int] = []
    for u in frontier.tolist():
        if builder.full:
            builder.info["truncated"] = True
            break
        lo = int(graph.offsets[u])
        hi = int(graph.offsets[u + 1])
        builder.extend(mem.oa(np.array([u])), pc_oa, AccessKind.LOAD, gaps=KERNEL_GAP)
        if hi == lo:
            continue
        row = graph.neighbors[lo:hi]
        edge_idx = np.arange(lo, hi, dtype=np.int64)
        pair_addrs, pair_pcs = interleave_addr_streams(
            [(mem.na(edge_idx), pc_na), (mem.prop("parent", row), pc_probe)]
        )
        builder.extend(pair_addrs, pair_pcs, AccessKind.LOAD, gaps=KERNEL_GAP)
        undiscovered = row[parents[row] == -1]
        if len(undiscovered):
            claimed = np.unique(undiscovered)
            parents[claimed] = u
            next_frontier.extend(claimed.tolist())
            builder.extend(
                mem.prop("parent", claimed), pc_claim, AccessKind.STORE, gaps=KERNEL_GAP
            )
    return np.array(next_frontier, dtype=np.int64)


def _bottom_up_step(
    graph, mem, builder, parents, frontier, pc_scan, pc_oa, pc_na, pc_bmp
) -> np.ndarray:
    """Every unvisited vertex searches its row for a frontier member.

    Stops at the next vertex once the trace window is full.
    """
    n = graph.num_vertices
    in_frontier = np.zeros(n, dtype=bool)
    in_frontier[frontier] = True
    # The sequential sweep over the parent array that finds unvisited
    # vertices (GAP reads the visited bitmap; we charge the array scan at
    # word granularity, one read per 8 vertices' worth of 64-bit words).
    words = np.arange(0, n, 8, dtype=np.int64)
    builder.extend(mem.prop("parent", words), pc_scan, AccessKind.LOAD, gaps=KERNEL_GAP)

    next_frontier: list[int] = []
    for u in np.nonzero(parents == -1)[0].tolist():
        if builder.full:
            builder.info["truncated"] = True
            break
        lo = int(graph.offsets[u])
        hi = int(graph.offsets[u + 1])
        builder.extend(mem.oa(np.array([u])), pc_oa, AccessKind.LOAD, gaps=KERNEL_GAP)
        if hi == lo:
            continue
        row = graph.neighbors[lo:hi]
        hits = in_frontier[row]
        first_hit = int(np.argmax(hits)) if hits.any() else len(row) - 1
        scanned = first_hit + 1
        edge_idx = np.arange(lo, lo + scanned, dtype=np.int64)
        # Bitmap probes read 64-bit words of the frontier bitmap.
        bitmap_words = row[:scanned] >> 6
        pair_addrs, pair_pcs = interleave_addr_streams(
            [(mem.na(edge_idx), pc_na), (mem.prop("front_bitmap", bitmap_words), pc_bmp)]
        )
        builder.extend(pair_addrs, pair_pcs, AccessKind.LOAD, gaps=KERNEL_GAP)
        if hits.any():
            parents[u] = int(row[first_hit])
            next_frontier.append(u)
            builder.extend(
                mem.prop("parent", np.array([u])), pc_scan, AccessKind.STORE,
                gaps=KERNEL_GAP,
            )
    return np.array(next_frontier, dtype=np.int64)
