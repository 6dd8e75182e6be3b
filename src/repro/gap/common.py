"""Shared machinery for traced GAP kernels.

All six kernels follow the same discipline: run the *real* algorithm over
the CSR graph, and as each logical memory touch happens, emit the
corresponding synthetic address through a
:class:`~repro.trace.builder.TraceBuilder`. The helpers here assemble the
per-iteration access streams fully vectorized, because the dominant
phases ("for every vertex, walk its row, gather a property per
neighbour") have a closed-form layout:

``OA[u] | NA[e] P[NA[e]] NA[e+1] P[NA[e+1]] ... | write OUT[u]``

per vertex ``u``, concatenated in traversal order.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import WorkloadError
from ..graphs.csr import CSRGraph
from ..trace.builder import TraceBuilder
from ..trace.record import AccessKind
from ..trace.trace import Trace
from .memory import GraphMemory, PCTable

#: Instructions per memory access in kernel inner loops (the access plus
#: four non-memory instructions). Five reflects the index arithmetic,
#: branching and bookkeeping around each load in compiled GAP kernels and
#: calibrates absolute MPKI against the paper's Figure 2 scale.
KERNEL_GAP = 5

#: Vertices per emission chunk in whole-graph passes: small enough that a
#: trace budget overshoots by at most a chunk, large enough to amortize
#: the vectorized stream assembly.
CHUNK_VERTICES = 8192


class KernelRun:
    """What a traced kernel execution produced.

    ``values`` holds the algorithmic result (parents, ranks, distances,
    a triangle count, ...) so tests can check correctness; ``trace`` is
    what the simulator consumes; ``pcs`` exposes the kernel's code sites
    for the PC-characterization experiment.

    A kernel passes either ``values`` or ``finish``, a zero-argument
    callable that computes them. Kernels whose trace window fills before
    their computation ends hand the rest over as ``finish``, since no
    record depends on it: the first read of ``values`` runs it once and
    keeps its result, and dropping it releases the graph and kernel
    state it holds. Callers that read only ``trace`` never pay for it.
    """

    def __init__(
        self,
        name: str,
        *,
        trace: Trace,
        pcs: dict[str, int],
        values: Any = None,
        finish: Callable[[], Any] | None = None,
    ) -> None:
        self.name = name
        self.trace = trace
        self.pcs = pcs
        self._values = values
        self._finish = finish

    @property
    def values(self) -> Any:
        """The kernel's result, computed on first read if it was deferred."""
        if self._finish is not None:
            self._values = self._finish()
            self._finish = None
        return self._values


def gather_pass_stream(
    graph: CSRGraph,
    mem: GraphMemory,
    vertices: np.ndarray,
    gather_prop: str,
    write_prop: str | None,
    pc_oa: int,
    pc_na: int,
    pc_gather: int,
    pc_write: int,
    with_weights: bool = False,
    pc_weight: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The access stream of one gather pass over ``vertices``.

    For each vertex in order: one OA load, then per edge a (NA load,
    optional weight load, property gather) group, then one property
    write (omitted when ``write_prop`` is None). Returns (addresses,
    pcs, kinds) ready for ``TraceBuilder.extend``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    nv = len(vertices)
    if nv == 0:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty.copy(), np.empty(0, dtype=np.uint8)
    starts = graph.offsets[vertices]
    degs = (graph.offsets[vertices + 1] - starts).astype(np.int64)
    total_edges = int(degs.sum())
    group = 3 if with_weights else 2  # loads per edge
    tail = 1 if write_prop is not None else 0
    seg_lens = 1 + group * degs + tail
    out_starts = np.concatenate([[0], np.cumsum(seg_lens)[:-1]])
    total = int(seg_lens.sum())

    addrs = np.empty(total, dtype=np.uint64)
    pcs = np.empty(total, dtype=np.uint64)
    kinds = np.full(total, int(AccessKind.LOAD), dtype=np.uint8)

    # Per-vertex OA load at each segment start.
    addrs[out_starts] = mem.oa(vertices)
    pcs[out_starts] = pc_oa
    if write_prop is not None:
        write_pos = out_starts + seg_lens - 1
        addrs[write_pos] = mem.prop(write_prop, vertices)
        pcs[write_pos] = pc_write
        kinds[write_pos] = int(AccessKind.STORE)

    if total_edges:
        # Global edge index per edge slot, rows concatenated in order.
        row_out = np.repeat(out_starts, degs)  # output segment start per edge
        local_j = (
            np.arange(total_edges, dtype=np.int64)
            - np.repeat(np.concatenate([[0], np.cumsum(degs)[:-1]]), degs)
        )
        edge_idx = np.repeat(starts, degs) + local_j
        neighbors = graph.neighbors[edge_idx]

        na_pos = row_out + 1 + group * local_j
        addrs[na_pos] = mem.na(edge_idx)
        pcs[na_pos] = pc_na
        if with_weights:
            w_pos = na_pos + 1
            addrs[w_pos] = mem.weight(edge_idx)
            pcs[w_pos] = pc_weight
            g_pos = na_pos + 2
        else:
            g_pos = na_pos + 1
        addrs[g_pos] = mem.prop(gather_prop, neighbors)
        pcs[g_pos] = pc_gather
    return addrs, pcs, kinds


def emit_stream(
    builder: TraceBuilder,
    addrs: np.ndarray,
    pcs: np.ndarray,
    kinds: np.ndarray,
    gap: int = KERNEL_GAP,
) -> None:
    """Append an assembled stream to the builder with a uniform gap."""
    builder.extend(addrs, pcs, kinds, gaps=gap)


def make_kernel_tools(
    graph: CSRGraph,
    name: str,
    info: dict | None = None,
    max_accesses: int | None = None,
):
    """The (memory model, PC table, builder) triple every kernel starts with."""
    mem = GraphMemory(graph)
    pcs = PCTable()
    builder = TraceBuilder(name=name, info=info, limit=max_accesses)
    return mem, pcs, builder


def vertex_chunks(vertices: np.ndarray, chunk: int = CHUNK_VERTICES):
    """Yield ``vertices`` in fixed-size chunks (whole-pass emission unit)."""
    for start in range(0, len(vertices), chunk):
        yield vertices[start : start + chunk]


def pick_sources(graph: CSRGraph, count: int, seed: int = 27) -> list[int]:
    """Deterministic traversal sources with non-zero degree.

    Synthetic graphs (kron especially) leave many vertices isolated; GAP
    likewise samples its BFS/SSSP/BC sources from connected vertices.
    Raises if the graph has no edges at all.
    """
    candidates = np.nonzero(graph.out_degrees() > 0)[0]
    if len(candidates) == 0:
        raise WorkloadError("cannot pick traversal sources: graph has no edges")
    rng = np.random.default_rng(seed)
    picks = rng.choice(candidates, size=min(count, len(candidates)), replace=False)
    sources = [int(v) for v in picks]
    while len(sources) < count:  # tiny graphs: reuse sources round-robin
        sources.append(sources[len(sources) % len(set(sources))])
    return sources
