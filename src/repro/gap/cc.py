"""Connected Components via label propagation.

GAP ships Shiloach–Vishkin/Afforest; we implement the label-propagation
formulation, which has the same memory-access class (per sweep: walk
every row, gather the neighbour's component label, keep the minimum,
write back on change) and converges to identical components on
undirected graphs. The substitution is documented in DESIGN.md.

Only vertices whose label changed stay active in the next sweep, so the
access stream shrinks over iterations exactly like SV's hooking phase.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import WorkloadError
from ..graphs.csr import CSRGraph
from .common import (
    KernelRun,
    emit_stream,
    gather_pass_stream,
    make_kernel_tools,
    vertex_chunks,
)
from .memory import row_edge_indices


def connected_components(
    graph: CSRGraph,
    trace_name: str | None = None,
    max_accesses: int | None = None,
) -> KernelRun:
    """Label-propagation CC; returns per-vertex component ids + trace.

    ``max_accesses`` bounds the traced window. Once it is full, the
    kernel stops and label propagation runs on, until no label changes,
    on the first read of ``values``, so ``values`` is exact regardless.
    """
    n = graph.num_vertices
    if n == 0:
        raise WorkloadError("connected_components needs a non-empty graph")
    name = trace_name or f"gap.cc.n{n}"
    mem, pcs, builder = make_kernel_tools(
        graph, name, info={"kernel": "cc"}, max_accesses=max_accesses
    )
    pc_oa = pcs.pc("cc.load_offsets")
    pc_na = pcs.pc("cc.load_neighbor")
    pc_gather = pcs.pc("cc.gather_label")
    pc_write = pcs.pc("cc.write_label")

    labels = np.arange(n, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees())
    active = np.arange(n, dtype=np.int64)
    while len(active):
        for chunk in vertex_chunks(active):
            if builder.full:
                break
            addrs, stream_pcs, kinds = gather_pass_stream(
                graph,
                mem,
                chunk,
                gather_prop="label",
                write_prop="label",
                pc_oa=pc_oa,
                pc_na=pc_na,
                pc_gather=pc_gather,
                pc_write=pc_write,
            )
            emit_stream(builder, addrs, stream_pcs, kinds)
        if builder.full:
            finish = partial(_propagate, graph, labels, active)
            return KernelRun(name, trace=builder.build(), pcs=pcs.sites, finish=finish)
        labels, active = _sweep(graph, src, labels)
    return KernelRun(name, trace=builder.build(), pcs=pcs.sites, values=labels)


def _sweep(
    graph: CSRGraph, src: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One propagation sweep: the new labels and the next sweep's vertices.

    ``src`` is the source vertex of every edge, in NA order.
    """
    n = graph.num_vertices
    # Labels take the min over self + neighbours.
    new_labels = labels.copy()
    np.minimum.at(new_labels, src, labels[graph.neighbors])
    changed = np.nonzero(new_labels != labels)[0]
    # The next sweep processes changed vertices and their neighbourhoods.
    touched = np.zeros(n, dtype=bool)
    touched[changed] = True
    touched[graph.neighbors[row_edge_indices(graph, changed)]] = True
    return new_labels, np.nonzero(touched)[0]


def _propagate(graph: CSRGraph, labels: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Sweep from ``labels``, ``active`` first, until no label changes."""
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.out_degrees())
    while len(active):
        labels, active = _sweep(graph, src, labels)
    return labels
