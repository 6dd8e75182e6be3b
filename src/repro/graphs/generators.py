"""Graph generators.

The GAP benchmark suite evaluates on two synthetic graph families, which
we reproduce at reduced scale (see DESIGN.md, substitution 3):

* ``uniform_random`` — GAP's *urand*: Erdős–Rényi-style random edges,
  uniform degree distribution, essentially no locality structure.
* ``kronecker`` — GAP's *kron*: an RMAT/Kronecker power-law graph with
  the Graph500 initiator (A, B, C = 0.57, 0.19, 0.19), producing the
  skewed degree distributions of social/web graphs.

Deterministic small generators (path, cycle, star, complete, grid) back
the unit tests with graphs whose algorithmic results are known in closed
form.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph


def uniform_random(
    num_vertices: int, avg_degree: int = 16, seed: int = 42, symmetrize: bool = True
) -> CSRGraph:
    """GAP's *urand*: ``num_vertices * avg_degree`` uniform random edges."""
    if num_vertices < 1 or avg_degree < 1:
        raise GraphError("uniform_random needs positive size and degree")
    rng = np.random.default_rng(seed)
    num_edges = num_vertices * avg_degree // (2 if symmetrize else 1)
    edges = rng.integers(0, num_vertices, size=(num_edges, 2), dtype=np.int64)
    return CSRGraph.from_edges(num_vertices, edges, symmetrize=symmetrize)


def kronecker(
    scale: int,
    edge_factor: int = 16,
    seed: int = 42,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    symmetrize: bool = True,
) -> CSRGraph:
    """GAP's *kron*: RMAT graph with 2**scale vertices (Graph500 initiator).

    Each of the ``scale`` address bits of both endpoints is drawn from
    the (A, B, C, D) quadrant distribution; endpoints are randomly
    permuted afterwards so degree correlates with nothing observable, as
    in the Graph500 specification.
    """
    if scale < 1 or scale > 30:
        raise GraphError(f"scale must be in [1, 30], got {scale}")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise GraphError("initiator probabilities must be non-negative and sum <= 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = n * edge_factor // (2 if symmetrize else 1)
    # Endpoint ids accumulate bit by bit in place: scale <= 30, so uint32
    # holds every id, and one set of buffers serves every bit.
    src = np.zeros(m, dtype=np.uint32)
    dst = np.zeros(m, dtype=np.uint32)
    r = np.empty(m)
    mask = np.empty(m, dtype=bool)
    dst_bit = np.empty(m, dtype=bool)
    shifted = np.empty(m, dtype=np.uint32)
    for bit in range(scale):
        rng.random(out=r)
        # Quadrant choice: A (src 0, dst 0), B (0, 1), C (1, 0), D (1, 1).
        # src is 1 in C and D; dst is 1 in B and D, which is
        # (r >= a) ^ (r >= a + b) ^ (r >= a + b + c).
        np.greater_equal(r, a + b, out=mask)
        np.left_shift(mask, bit, out=shifted, dtype=np.uint32)
        src |= shifted
        np.greater_equal(r, a, out=dst_bit)
        np.logical_xor(dst_bit, mask, out=dst_bit)
        np.greater_equal(r, a + b + c, out=mask)
        np.logical_xor(dst_bit, mask, out=dst_bit)
        np.left_shift(dst_bit, bit, out=shifted, dtype=np.uint32)
        dst |= shifted
    perm = rng.permutation(n)
    edges = np.column_stack([perm[src], perm[dst]])
    return CSRGraph.from_edges(n, edges, symmetrize=symmetrize)


def path_graph(num_vertices: int) -> CSRGraph:
    """0 - 1 - 2 - ... - (n-1), undirected."""
    if num_vertices < 1:
        raise GraphError("path needs at least one vertex")
    src = np.arange(num_vertices - 1, dtype=np.int64)
    edges = np.column_stack([src, src + 1])
    return CSRGraph.from_edges(num_vertices, edges, symmetrize=True)


def cycle_graph(num_vertices: int) -> CSRGraph:
    """A single undirected cycle."""
    if num_vertices < 3:
        raise GraphError("cycle needs at least three vertices")
    src = np.arange(num_vertices, dtype=np.int64)
    edges = np.column_stack([src, (src + 1) % num_vertices])
    return CSRGraph.from_edges(num_vertices, edges, symmetrize=True)


def star_graph(num_leaves: int) -> CSRGraph:
    """Vertex 0 connected to ``num_leaves`` leaves, undirected."""
    if num_leaves < 1:
        raise GraphError("star needs at least one leaf")
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    edges = np.column_stack([np.zeros(num_leaves, dtype=np.int64), leaves])
    return CSRGraph.from_edges(num_leaves + 1, edges, symmetrize=True)


def complete_graph(num_vertices: int) -> CSRGraph:
    """Every pair connected, undirected."""
    if num_vertices < 2:
        raise GraphError("complete graph needs at least two vertices")
    idx = np.arange(num_vertices, dtype=np.int64)
    src, dst = np.meshgrid(idx, idx)
    mask = src < dst
    edges = np.column_stack([src[mask], dst[mask]])
    return CSRGraph.from_edges(num_vertices, edges, symmetrize=True)


def grid_graph(rows: int, cols: int) -> CSRGraph:
    """A rows x cols 4-neighbour mesh, undirected."""
    if rows < 1 or cols < 1:
        raise GraphError("grid needs positive dimensions")
    vid = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horizontal = np.column_stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()])
    vertical = np.column_stack([vid[:-1, :].ravel(), vid[1:, :].ravel()])
    edges = np.concatenate([horizontal, vertical])
    return CSRGraph.from_edges(rows * cols, edges, symmetrize=True)
