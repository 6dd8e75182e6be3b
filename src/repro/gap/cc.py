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

    ``max_accesses`` bounds the traced window. Once it is full, sweeps
    stop assembling access streams, but label propagation runs on until
    no label changes, so ``values`` is exact regardless.
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

        # The actual propagation: labels take the min over self + neighbours.
        new_labels = labels.copy()
        np.minimum.at(new_labels, src, labels[graph.neighbors])
        changed = np.nonzero(new_labels != labels)[0]
        labels = new_labels
        # Next sweep processes changed vertices and their neighbourhoods.
        touched = np.zeros(n, dtype=bool)
        touched[changed] = True
        touched[graph.neighbors[row_edge_indices(graph, changed)]] = True
        active = np.nonzero(touched)[0]
    return KernelRun(name=name, values=labels, trace=builder.build(), pcs=pcs.sites)
