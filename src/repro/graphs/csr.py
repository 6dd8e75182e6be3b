"""Compressed Sparse Row / Column graph representation.

The CSR format of the paper's Figure 1: the *Offset Array* (OA) holds,
per vertex, the start of its adjacency list inside the *Neighbours Array*
(NA); *Property Arrays* (PA) carry per-vertex values (ranks, distances,
components). The GAP kernels in :mod:`repro.gap` traverse this structure
for real, and the memory-model in :mod:`repro.gap.memory` maps each OA /
NA / PA touch to the synthetic address space seen by the simulator.

Arrays are numpy ``int64``/``float64``; construction validates
consistency and the class exposes both single-vertex and vectorized
adjacency access.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError


class CSRGraph:
    """A directed graph in CSR form (use :meth:`transpose` for CSC).

    Parameters
    ----------
    offsets:
        ``int64`` array of length ``num_vertices + 1``; monotonically
        non-decreasing, ``offsets[0] == 0``, ``offsets[-1] == num_edges``.
    neighbors:
        ``int64`` array of destination vertices, grouped by source.
    """

    def __init__(self, offsets: np.ndarray, neighbors: np.ndarray) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if offsets.ndim != 1 or neighbors.ndim != 1:
            raise GraphError("offsets and neighbors must be 1-D arrays")
        if len(offsets) < 1 or offsets[0] != 0:
            raise GraphError("offsets must start with 0")
        if len(offsets) >= 2 and np.any(np.diff(offsets) < 0):
            raise GraphError("offsets must be non-decreasing")
        if offsets[-1] != len(neighbors):
            raise GraphError(
                f"offsets[-1]={offsets[-1]} must equal len(neighbors)={len(neighbors)}"
            )
        n = len(offsets) - 1
        if len(neighbors) and (neighbors.min() < 0 or neighbors.max() >= n):
            raise GraphError("neighbor ids out of range")
        self.offsets = offsets
        self.neighbors = neighbors
        self.num_vertices = n
        self.num_edges = int(offsets[-1])

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: np.ndarray,
        symmetrize: bool = False,
        dedup: bool = True,
    ) -> "CSRGraph":
        """Build CSR from an ``(m, 2)`` edge array.

        ``symmetrize=True`` adds the reverse of every edge (undirected
        graphs); ``dedup`` removes self-loops and duplicate edges, as the
        GAP builder does.
        """
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges) and (edges.min() < 0 or edges.max() >= num_vertices):
            raise GraphError("edge endpoints out of range")
        src, dst = edges[:, 0], edges[:, 1]
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        # Sorting by (src, dst) groups rows and leaves each adjacency list
        # sorted — deterministic traversal order in one pass.
        if dedup:
            # One sort of the 1-D key src * n + dst, self-loops dropped,
            # also puts duplicates next to each other.
            keys = np.sort((src * np.int64(num_vertices) + dst)[src != dst])
            first = np.ones(len(keys), dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            src, neighbors = np.divmod(keys[first], np.int64(num_vertices))
        else:
            order = np.lexsort((dst, src))
            src, neighbors = src[order], dst[order]
        counts = np.bincount(src, minlength=num_vertices)
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(offsets, neighbors)

    # -- queries ----------------------------------------------------------------

    def out_degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        return int(self.offsets[v + 1] - self.offsets[v])

    def out_degrees(self) -> np.ndarray:
        """All out-degrees as an array."""
        return np.diff(self.offsets)

    def neighbors_of(self, v: int) -> np.ndarray:
        """Adjacency list of ``v`` (a view, do not mutate)."""
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def edges(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.out_degrees())
        return np.column_stack([src, self.neighbors])

    def transpose(self) -> "CSRGraph":
        """The reverse graph — CSR of the transpose, i.e. CSC of this one."""
        if self.num_edges == 0:
            return CSRGraph(np.zeros(self.num_vertices + 1, dtype=np.int64),
                            np.empty(0, dtype=np.int64))
        edges = self.edges()
        return CSRGraph.from_edges(
            self.num_vertices, edges[:, ::-1], symmetrize=False, dedup=False
        )

    def is_symmetric(self) -> bool:
        """Whether every edge has its reverse (undirected structure)."""
        if self.num_edges == 0:
            return True
        fwd = self.edges()
        keys_fwd = fwd[:, 0] * np.int64(self.num_vertices) + fwd[:, 1]
        keys_rev = fwd[:, 1] * np.int64(self.num_vertices) + fwd[:, 0]
        return bool(np.array_equal(np.sort(keys_fwd), np.sort(keys_rev)))

    @property
    def average_degree(self) -> float:
        """Mean out-degree."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def __repr__(self) -> str:
        return (
            f"CSRGraph(vertices={self.num_vertices:,}, edges={self.num_edges:,}, "
            f"avg_degree={self.average_degree:.1f})"
        )
