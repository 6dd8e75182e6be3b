"""Triangle Counting — GAP's TC kernel.

Counts each triangle once by only intersecting adjacency lists along
edges ``(u, v)`` with ``u < v``, and only over the "forward" halves of
each list (neighbours with larger ids) — the standard ordered-merge
formulation. The traced accesses are pure Neighbours Array traffic: for
every processed edge, the kernel re-walks ``adj(v)``'s forward half while
holding ``adj(u)``'s, giving TC the highest NA reuse (and lowest PC
count) of the suite.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..graphs.csr import CSRGraph
from ..trace.record import AccessKind
from .common import KERNEL_GAP, KernelRun, make_kernel_tools


def triangle_count(
    graph: CSRGraph,
    trace_name: str | None = None,
    max_accesses: int | None = None,
) -> KernelRun:
    """Exact triangle count over an undirected graph; returns count + trace.

    With ``max_accesses`` set, counting stops at the next forward
    neighbour once the trace budget is reached, and the returned count
    covers only the processed edges (``trace.info["truncated"]`` is set).
    Correctness tests run without a budget.
    """
    n = graph.num_vertices
    if n == 0:
        raise WorkloadError("triangle_count needs a non-empty graph")
    name = trace_name or f"gap.tc.n{n}"
    mem, pcs, builder = make_kernel_tools(
        graph, name, info={"kernel": "tc"}, max_accesses=max_accesses
    )
    pc_oa = pcs.pc("tc.load_offsets")
    pc_na_u = pcs.pc("tc.scan_row_u")
    pc_na_v = pcs.pc("tc.scan_row_v")

    triangles = 0
    offsets = graph.offsets
    neighbors = graph.neighbors
    for u in range(n):
        if builder.full:
            builder.info["truncated"] = True
            break
        lo_u = int(offsets[u])
        hi_u = int(offsets[u + 1])
        builder.extend(mem.oa(np.array([u])), pc_oa, AccessKind.LOAD, gaps=KERNEL_GAP)
        if hi_u == lo_u:
            continue
        row_u = neighbors[lo_u:hi_u]
        fwd_u_mask = row_u > u
        fwd_u = row_u[fwd_u_mask]
        # The kernel scans u's row once to find forward neighbours.
        builder.extend(
            mem.na(np.arange(lo_u, hi_u, dtype=np.int64)),
            pc_na_u,
            AccessKind.LOAD,
            gaps=KERNEL_GAP,
        )
        for v in fwd_u.tolist():
            if builder.full:
                break
            lo_v = int(offsets[v])
            hi_v = int(offsets[v + 1])
            builder.extend(
                mem.oa(np.array([v])), pc_oa, AccessKind.LOAD, gaps=KERNEL_GAP
            )
            if hi_v == lo_v:
                continue
            row_v = neighbors[lo_v:hi_v]
            fwd_v = row_v[row_v > v]
            # Merge-intersect walks v's forward half.
            scan = np.arange(lo_v, hi_v, dtype=np.int64)[row_v > v]
            if len(scan):
                builder.extend(mem.na(scan), pc_na_v, AccessKind.LOAD, gaps=KERNEL_GAP)
            if len(fwd_v):
                triangles += int(np.intersect1d(fwd_u, fwd_v).size)
    return KernelRun(name=name, values=triangles, trace=builder.build(), pcs=pcs.sites)
