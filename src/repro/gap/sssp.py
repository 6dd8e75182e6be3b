"""Single-Source Shortest Paths — delta-stepping, as in GAP.

Edge weights are synthetic (uniform integers in [1, max_weight], seeded,
stored in an array parallel to NA, exactly GAP's generated-weight mode).
Vertices are processed in distance buckets of width ``delta``: the
current bucket's vertices relax all their edges (the traced gather walks
OA, NA, the weight array and the ``dist`` property), re-inserting any
improved vertex into its new bucket.

The traced stream per relaxation is the characteristic weighted-graph
triple: ``NA[e], W[e], dist[NA[e]]`` — one more irregular stream than
BFS, which is why SSSP shows the highest MPKI of the suite.
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
    pick_sources,
    vertex_chunks,
)
from .memory import row_edge_indices

#: Distance of a vertex no relaxation has reached yet.
_UNREACHED = np.iinfo(np.int64).max


def make_weights(graph: CSRGraph, max_weight: int = 64, seed: int = 7) -> np.ndarray:
    """Per-edge integer weights in [1, max_weight], as GAP generates."""
    if max_weight < 1:
        raise WorkloadError(f"max_weight must be >= 1, got {max_weight}")
    rng = np.random.default_rng(seed)
    return rng.integers(1, max_weight + 1, size=graph.num_edges, dtype=np.int64)


def sssp(
    graph: CSRGraph,
    source: int | None = None,
    delta: int = 32,
    weights: np.ndarray | None = None,
    max_weight: int = 64,
    seed: int = 7,
    trace_name: str | None = None,
    max_accesses: int | None = None,
) -> KernelRun:
    """Delta-stepping SSSP from ``source``; returns distances + trace.

    ``max_accesses`` bounds the traced window. Once it is full, the
    bucketed loop stops, and on the first read of ``values`` vectorized
    relaxation rounds finish the distances from every queued vertex, so
    ``values`` is exact regardless.
    """
    n = graph.num_vertices
    if source is None:
        source = pick_sources(graph, 1)[0]
    if not 0 <= source < n:
        raise WorkloadError(f"SSSP source {source} out of range [0, {n})")
    if delta < 1:
        raise WorkloadError(f"delta must be >= 1, got {delta}")
    if weights is None:
        weights = make_weights(graph, max_weight=max_weight, seed=seed)
    if len(weights) != graph.num_edges:
        raise WorkloadError(
            f"weights length {len(weights)} != num_edges {graph.num_edges}"
        )
    name = trace_name or f"gap.sssp.n{n}"
    mem, pcs, builder = make_kernel_tools(
        graph, name, info={"kernel": "sssp", "source": source, "delta": delta},
        max_accesses=max_accesses,
    )
    pc_oa = pcs.pc("sssp.load_offsets")
    pc_na = pcs.pc("sssp.load_neighbor")
    pc_w = pcs.pc("sssp.load_weight")
    pc_gather = pcs.pc("sssp.read_dist")
    pc_relax = pcs.pc("sssp.write_dist")

    dist = np.full(n, _UNREACHED, dtype=np.int64)
    dist[source] = 0
    buckets: dict[int, set[int]] = {0: {source}}
    current = 0

    while buckets and not builder.full:
        while current not in buckets:
            current = min(buckets)
        frontier = np.array(sorted(buckets.pop(current)), dtype=np.int64)
        # Stale bucket entries (vertex later improved into an earlier
        # bucket) are skipped, as in the reference algorithm.
        frontier = frontier[dist[frontier] // delta == current]
        if len(frontier) == 0:
            continue

        addrs, stream_pcs, kinds = gather_pass_stream(
            graph,
            mem,
            frontier,
            gather_prop="dist",
            write_prop=None,
            pc_oa=pc_oa,
            pc_na=pc_na,
            pc_gather=pc_gather,
            with_weights=True,
            pc_weight=pc_w,
            pc_write=0,
        )
        emit_stream(builder, addrs, stream_pcs, kinds)
        if builder.full:
            # The bucket's relaxations would record nothing: queue them.
            buckets[current] = set(frontier.tolist())
            break

        # Relax all edges of the bucket.
        improved: list[int] = []
        for u in frontier.tolist():
            lo = int(graph.offsets[u])
            hi = int(graph.offsets[u + 1])
            if hi == lo:
                continue
            row = graph.neighbors[lo:hi]
            cand = dist[u] + weights[lo:hi]
            better = cand < dist[row]
            if better.any():
                targets = row[better]
                values = cand[better]
                # Duplicates in a row resolved to the minimum, as the
                # sequential kernel would after all relaxations.
                order = np.argsort(values, kind="stable")
                for t, val in zip(targets[order].tolist(), values[order].tolist()):
                    if val < dist[t]:
                        dist[t] = val
                        improved.append(t)
        if improved:
            improved_arr = np.unique(np.array(improved, dtype=np.int64))
            builder.extend(
                mem.prop("dist", improved_arr), pc_relax, AccessKind.STORE,
                gaps=KERNEL_GAP,
            )
            for v in improved_arr.tolist():
                bucket = int(dist[v]) // delta
                buckets.setdefault(bucket, set()).add(v)
    # Vertices still queued when the window filled (none when the loop
    # ran to its end) have not relaxed their edges yet.
    queued = np.array(sorted(set().union(*buckets.values())), dtype=np.int64)
    finish = partial(_relax_to_fixpoint, graph, weights, dist, queued)
    return KernelRun(name, trace=builder.build(), pcs=pcs.sites, finish=finish)


def _relax_to_fixpoint(
    graph: CSRGraph, weights: np.ndarray, dist: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Finish ``dist`` in place with vectorized Bellman-Ford rounds.

    ``active`` must hold every vertex whose current distance has not had
    its edges relaxed yet (the bucketed loop's queued vertices). Each
    round relaxes the edges of the vertices whose distance improved in
    the previous one until nothing improves, which leaves the shortest
    distances: unique, so equal to what the bucketed loop would reach.
    Rounds walk the vertices in chunks, which bounds their memory.
    Returns ``dist`` with unreachable vertices at -1.
    """
    degrees = graph.out_degrees()
    while len(active):
        before = dist.copy()
        for chunk in vertex_chunks(active):
            edge_idx = row_edge_indices(graph, chunk)
            cand = np.repeat(dist[chunk], degrees[chunk]) + weights[edge_idx]
            np.minimum.at(dist, graph.neighbors[edge_idx], cand)
        active = np.nonzero(dist < before)[0]
    dist[dist == _UNREACHED] = -1
    return dist
