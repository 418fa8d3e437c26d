"""Dense adjacency for small orbit Cayley graphs and brute-force graph primitives.

Vertices are the 2^n integers; x ~ y iff the weight of x XOR y belongs to
the index set.  Everything here is deliberately direct (BFS, matrix
products) so it can serve as an oracle for the closed-form modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OrbitIndexSet
from .spectrum import _indicator

# the dense route holds the bool adjacency, its float32 copy and the float32
# product at once, about 9 * 4^n bytes: 151 MB at n = 12, 2.4 GB at n = 14
EXPLICIT_MAX_N = 12
FLOAT32_EXACT_MAX = 1 << 24  # float32 holds every integer up to 2^24 exactly
_GATHER_BLOCK_BYTES = 1 << 20  # bound on the index block of ExplicitGraph.build


def _row0(s: OrbitIndexSet) -> np.ndarray:
    """Adjacency row of vertex 0: row0[y] <=> weight(y) in I."""
    return _indicator(s).astype(bool)


@dataclass(frozen=True)
class ExplicitGraph:
    """The 2^n-vertex graph as a dense boolean adjacency matrix."""

    index_set: OrbitIndexSet
    adjacency: np.ndarray

    @classmethod
    def build(cls, s: OrbitIndexSet) -> ExplicitGraph:
        """Raises ValueError before any allocation when n exceeds EXPLICIT_MAX_N."""
        if s.n > EXPLICIT_MAX_N:
            raise ValueError(f"n={s.n} exceeds the dense-graph cap {EXPLICIT_MAX_N}")
        row0 = _row0(s)
        size = 1 << s.n
        xs = np.arange(size)
        # row x is row 0 translated by XOR, gathered a block of rows at a
        # time so the index intermediate stays within _GATHER_BLOCK_BYTES
        # (one block for n <= 8) rather than O(4^n) in the index dtype
        block = max(1, _GATHER_BLOCK_BYTES // (xs.itemsize * size))
        adjacency = np.empty((size, size), dtype=bool)
        for x0 in range(0, size, block):
            adjacency[x0 : x0 + block] = row0[xs[x0 : x0 + block, None] ^ xs]
        adjacency.setflags(write=False)
        return cls(s, adjacency)

    @property
    def size(self) -> int:
        return 1 << self.index_set.n

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


def connected_component(adjacency: np.ndarray, start: int = 0) -> np.ndarray:
    """Boolean mask of the component containing ``start`` (frontier BFS)."""
    size = adjacency.shape[0]
    visited = np.zeros(size, dtype=bool)
    visited[start] = True
    frontier = adjacency[start].copy()
    frontier[start] = False
    while frontier.any():
        visited |= frontier
        frontier = adjacency[frontier].any(axis=0) & ~visited
    return visited


def is_connected_adjacency(adjacency: np.ndarray) -> bool:
    return bool(connected_component(adjacency).all())


def complement_adjacency(adjacency: np.ndarray) -> np.ndarray:
    comp = ~adjacency
    np.fill_diagonal(comp, False)
    return comp


def common_neighbor_matrix(adjacency: np.ndarray) -> np.ndarray:
    """counts[x, y] = number of common neighbors of x and y, as float32.

    Computed as A @ A.T, the dot products of the neighbourhood rows, which
    numpy sends to BLAS syrk (half the flops of a general product); for the
    symmetric adjacency of a graph it equals A @ A.  Every partial sum is a
    count of at most N vertices, so float32 is exact while N < 2^24; a
    larger matrix raises ValueError before anything is allocated.
    """
    size = adjacency.shape[0]
    if size >= FLOAT32_EXACT_MAX:
        raise ValueError(f"{size} vertices exceed the float32-exact bound {FLOAT32_EXACT_MAX}")
    a = adjacency.astype(np.float32)
    return a @ a.T
