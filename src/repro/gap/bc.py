"""Betweenness Centrality — Brandes' algorithm, as in GAP's BC kernel.

One (or a few) source vertices; per source:

1. **Forward phase** — a BFS that also counts shortest paths
   (``sigma``), recording vertices level by level. Traced like a
   top-down BFS with an extra ``sigma`` gather/update per edge.
2. **Backward phase** — walk the levels in reverse, accumulating the
   dependency ``delta[u] += sigma[u]/sigma[v] * (1 + delta[v])`` over
   edges into the next level; traced as a gather over ``sigma`` and
   ``delta`` plus the centrality write.

GAP runs a handful of sources on big graphs; ``num_sources`` controls
the same trade-off here.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..graphs.csr import CSRGraph
from ..trace.record import AccessKind
from .common import KERNEL_GAP, KernelRun, make_kernel_tools, pick_sources
from .memory import interleave_addr_streams


def betweenness_centrality(
    graph: CSRGraph,
    num_sources: int = 2,
    sources: list[int] | None = None,
    trace_name: str | None = None,
    max_accesses: int | None = None,
) -> KernelRun:
    """Brandes BC from ``num_sources`` sources; returns scores + trace.

    With ``max_accesses`` set, the kernel stops once the trace budget is
    reached (``trace.info["truncated"]`` is set), and the returned
    ``values`` cover only the completed part of the computation: the
    forward phase stops at the next neighbour, and its source adds
    nothing to the scores; the backward phase stops at the next vertex,
    keeping the scores of the vertices it finished. Correctness tests
    run without a budget.
    """
    n = graph.num_vertices
    if n == 0:
        raise WorkloadError("betweenness_centrality needs a non-empty graph")
    if sources is None:
        sources = pick_sources(graph, num_sources)
    for s in sources:
        if not 0 <= s < n:
            raise WorkloadError(f"BC source {s} out of range [0, {n})")
    name = trace_name or f"gap.bc.n{n}"
    mem, pcs, builder = make_kernel_tools(
        graph, name, info={"kernel": "bc", "sources": list(sources)},
        max_accesses=max_accesses,
    )
    pc_oa = pcs.pc("bc.load_offsets")
    pc_na = pcs.pc("bc.load_neighbor")
    pc_depth = pcs.pc("bc.probe_depth")
    pc_sigma = pcs.pc("bc.update_sigma")
    pc_delta = pcs.pc("bc.accumulate_delta")
    pc_score = pcs.pc("bc.write_score")

    scores = np.zeros(n)
    for source in sources:
        if builder.full:
            builder.info["truncated"] = True
            break
        depth = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        depth[source] = 0
        sigma[source] = 1.0
        levels: list[np.ndarray] = [np.array([source], dtype=np.int64)]

        # Forward phase: BFS levels with path counting. The budget is
        # checked per neighbour: nothing after the window fills is
        # recorded, and a source whose forward phase is cut adds nothing
        # to scores.
        while not builder.full:
            frontier = levels[-1]
            next_level: list[int] = []
            for u in frontier.tolist():
                if builder.full:
                    break
                lo = int(graph.offsets[u])
                hi = int(graph.offsets[u + 1])
                builder.extend(
                    mem.oa(np.array([u])), pc_oa, AccessKind.LOAD, gaps=KERNEL_GAP
                )
                if hi == lo:
                    continue
                row = graph.neighbors[lo:hi]
                edge_idx = np.arange(lo, hi, dtype=np.int64)
                pair_addrs, pair_pcs = interleave_addr_streams(
                    [(mem.na(edge_idx), pc_na), (mem.prop("depth", row), pc_depth)]
                )
                builder.extend(pair_addrs, pair_pcs, AccessKind.LOAD, gaps=KERNEL_GAP)
                for v in row.tolist():
                    if depth[v] == -1:
                        depth[v] = depth[u] + 1
                        next_level.append(v)
                    if depth[v] == depth[u] + 1:
                        sigma[v] += sigma[u]
                        builder.extend(
                            mem.prop("sigma", np.array([v])),
                            pc_sigma,
                            AccessKind.STORE,
                            gaps=KERNEL_GAP,
                        )
                        if builder.full:
                            break
            if not next_level:
                break
            levels.append(np.unique(np.array(next_level, dtype=np.int64)))

        if builder.full:
            builder.info["truncated"] = True
            break  # budget hit mid-forward: skip this source's backward phase

        # Backward phase: accumulate dependencies level by level.
        delta = np.zeros(n)
        for frontier in reversed(levels[:-1] if len(levels) > 1 else levels):
            for u in frontier.tolist():
                if builder.full:
                    builder.info["truncated"] = True
                    break
                lo = int(graph.offsets[u])
                hi = int(graph.offsets[u + 1])
                builder.extend(
                    mem.oa(np.array([u])), pc_oa, AccessKind.LOAD, gaps=KERNEL_GAP
                )
                if hi > lo:
                    row = graph.neighbors[lo:hi]
                    edge_idx = np.arange(lo, hi, dtype=np.int64)
                    triple_addrs, triple_pcs = interleave_addr_streams(
                        [
                            (mem.na(edge_idx), pc_na),
                            (mem.prop("sigma", row), pc_sigma),
                            (mem.prop("delta", row), pc_delta),
                        ]
                    )
                    builder.extend(
                        triple_addrs, triple_pcs, AccessKind.LOAD, gaps=KERNEL_GAP
                    )
                    downstream = row[depth[row] == depth[u] + 1]
                    if len(downstream) and sigma[u] > 0:
                        contribution = (
                            sigma[u] / sigma[downstream] * (1.0 + delta[downstream])
                        )
                        delta[u] += contribution.sum()
                if u != source:
                    scores[u] += delta[u]
                    builder.extend(
                        mem.prop("score", np.array([u])),
                        pc_score,
                        AccessKind.STORE,
                        gaps=KERNEL_GAP,
                    )
    return KernelRun(name=name, values=scores, trace=builder.build(), pcs=pcs.sites)
