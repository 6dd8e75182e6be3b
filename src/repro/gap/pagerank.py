"""PageRank — GAP's pull-based PR with the standard damping iteration.

Each iteration computes, per vertex ``u``::

    rank'[u] = (1 - d) / n + d * sum(contrib[v] for v in in_neighbors(u))

with ``contrib[v] = rank[v] / degree[v]`` precomputed by a linear sweep.
On the symmetric graphs GAP evaluates, in-neighbours equal
out-neighbours, so the pull gather walks the forward CSR — exactly the
irregular `contrib[NA[j]]` indexed-gather the paper singles out as the
pattern that defeats PC-based correlation.

Traced accesses per iteration: a sequential contrib sweep (read rank,
read degree via OA, write contrib), then the gather pass (OA, NA,
contrib gather, rank write per vertex).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import WorkloadError
from ..graphs.csr import CSRGraph
from ..trace.record import AccessKind
from .common import (
    KERNEL_GAP,
    KernelRun,
    emit_stream,
    gather_pass_stream,
    make_kernel_tools,
    vertex_chunks,
)
from .memory import interleave_addr_streams


def pagerank(
    graph: CSRGraph,
    num_iterations: int = 10,
    damping: float = 0.85,
    trace_name: str | None = None,
    max_accesses: int | None = None,
) -> KernelRun:
    """Run ``num_iterations`` of pull PageRank; returns ranks + trace.

    ``max_accesses`` bounds the traced window (SimPoint-style). Once it
    is full, the kernel stops and the iterations left run on the first
    read of ``values``, so ``values`` stays exact even for truncated
    traces.
    """
    if num_iterations < 1:
        raise WorkloadError("pagerank needs at least one iteration")
    if not 0.0 < damping < 1.0:
        raise WorkloadError(f"damping must be in (0, 1), got {damping}")
    n = graph.num_vertices
    if n == 0:
        raise WorkloadError("pagerank needs a non-empty graph")
    name = trace_name or f"gap.pr.n{n}"
    mem, pcs, builder = make_kernel_tools(
        graph, name, info={"kernel": "pr", "iterations": num_iterations},
        max_accesses=max_accesses,
    )
    pc_rank_read = pcs.pc("pr.read_rank")
    pc_contrib_write = pcs.pc("pr.write_contrib")
    pc_oa = pcs.pc("pr.load_offsets")
    pc_na = pcs.pc("pr.load_neighbor")
    pc_gather = pcs.pc("pr.gather_contrib")
    pc_rank_write = pcs.pc("pr.write_rank")

    ranks = np.full(n, 1.0 / n)
    all_vertices = np.arange(n, dtype=np.int64)

    for iteration in range(num_iterations):
        # The first iteration's contrib sweep is left untraced: with a
        # bounded window, tracing it would fill the whole window with the
        # (tiny, sequential) init phase instead of the dominant gather
        # phase a SimPoint-style window would land in.
        if iteration > 0:
            # Contrib sweep: read rank[v], write contrib[v], sequentially.
            sweep_addrs, sweep_pcs = interleave_addr_streams(
                [
                    (mem.prop("rank", all_vertices), pc_rank_read),
                    (mem.prop("contrib", all_vertices), pc_contrib_write),
                ]
            )
            sweep_kinds = np.tile(
                np.array([AccessKind.LOAD, AccessKind.STORE], dtype=np.uint8), n
            )
            builder.extend(sweep_addrs, sweep_pcs, sweep_kinds, gaps=KERNEL_GAP)

        # The gather pass over every vertex's in-row, chunked so a trace
        # budget stops stream assembly promptly.
        for chunk in vertex_chunks(all_vertices):
            if builder.full:
                break
            addrs, stream_pcs, kinds = gather_pass_stream(
                graph,
                mem,
                chunk,
                gather_prop="contrib",
                write_prop="rank",
                pc_oa=pc_oa,
                pc_na=pc_na,
                pc_gather=pc_gather,
                pc_write=pc_rank_write,
            )
            emit_stream(builder, addrs, stream_pcs, kinds)
        if builder.full:
            finish = partial(_pull, graph, ranks, damping, num_iterations - iteration)
            return KernelRun(name, trace=builder.build(), pcs=pcs.sites, finish=finish)
        ranks = _pull(graph, ranks, damping, 1)
    return KernelRun(name, trace=builder.build(), pcs=pcs.sites, values=ranks)


def _pull(
    graph: CSRGraph, ranks: np.ndarray, damping: float, iterations: int
) -> np.ndarray:
    """The ranks after ``iterations`` pull iterations from ``ranks``."""
    n = graph.num_vertices
    degrees = graph.out_degrees()
    safe_deg = np.where(degrees > 0, degrees.astype(np.float64), 1.0)
    base = (1.0 - damping) / n
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    for _ in range(iterations):
        contrib = ranks / safe_deg
        # Pull sum: for u, sum contrib over its (symmetric) neighbours.
        sums = np.zeros(n)
        np.add.at(sums, src, contrib[graph.neighbors])
        ranks = base + damping * sums
    return ranks
