"""Dense adjacency for small orbit Cayley graphs and brute-force graph primitives.

Vertices are the 2^n integers; x ~ y iff the weight of x XOR y belongs to
the index set.  Everything here is deliberately direct (BFS, matrix
products) so it can serve as an oracle for the closed-form modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConsistencyError, OrbitIndexSet
from .spectrum import _indicator

# the dense route holds the bool adjacency and its float32 copy, about
# 5 * 4^n bytes, plus one band of the common-neighbour product and its reads
# (at most _BAND_BYTES and a fraction of it): 99 MB at n = 12, 1.36 GB at n = 14
EXPLICIT_MAX_N = 12
FLOAT32_EXACT_MAX = 1 << 24  # float32 holds every integer up to 2^24 exactly
_GATHER_BLOCK_BYTES = 1 << 20  # bound on the index block of ExplicitGraph.build
_BAND_BYTES = 1 << 23  # bound on one float32 band of the common-neighbour product


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


def common_neighbor_constants(adjacency: np.ndarray) -> tuple[int | None, int | None]:
    """(lambda, mu): the common-neighbour count of every adjacent pair and of every
    other pair of distinct vertices, each None unless those counts hold exactly one value.

    The counts are the dot products of the neighbourhood rows, taken in row
    bands r0:r1 of the upper triangle, band = a[r0:r1] @ a[r0:].T on one
    float32 copy a of A, so the 2^n x 2^n count matrix is never formed.  A
    band holds at most _BAND_BYTES (one band for n <= 8).  Every partial sum
    is a count of at most N vertices, so float32 is exact while N < 2^24; a
    larger matrix raises ValueError before anything is allocated.  A is
    first checked to be symmetric, so the columns y >= r0 of rows r0:r1
    cover every ordered pair; an asymmetric entry raises ConsistencyError
    naming the pair before any product is formed.
    """
    size = adjacency.shape[0]
    if size >= FLOAT32_EXACT_MAX:
        raise ValueError(f"{size} vertices exceed the float32-exact bound {FLOAT32_EXACT_MAX}")
    rows = max(1, _BAND_BYTES // (4 * size))
    _check_symmetric(adjacency, rows)
    a = adjacency.astype(np.float32)
    # running (min, max) of each class; min > max while no pair of it is read
    lam = mu = (np.inf, -np.inf)
    for r0 in range(0, size, rows):
        band = _band_product(a, r0, min(r0 + rows, size))
        upper = adjacency[r0 : r0 + rows, r0:]
        other = ~upper
        np.fill_diagonal(other, False)  # entry (i, i) of the band is the pair (r0 + i, r0 + i)
        lam = _widen(lam, band[upper])
        mu = _widen(mu, band[other])
        del band, other  # free this band before the next one is formed
    return tuple(int(lo) if lo == hi else None for lo, hi in (lam, mu))


def _check_symmetric(adjacency: np.ndarray, rows: int) -> None:
    """Raise ConsistencyError naming the first pair (x, y), x < y, found with A[x, y] != A[y, x].

    Compared over the upper triangle in square tiles of ``rows`` rows, so
    each transposed read stays within one tile: about 3x faster at n = 12
    than comparing a whole band with its transpose.
    """
    size = adjacency.shape[0]
    for r0 in range(0, size, rows):
        for c0 in range(r0, size, rows):
            tile = adjacency[r0 : r0 + rows, c0 : c0 + rows]
            mismatch = tile != adjacency[c0 : c0 + rows, r0 : r0 + rows].T
            if mismatch.any():
                i, j = np.argwhere(mismatch)[0]
                raise ConsistencyError(
                    f"adjacency is not symmetric: entry ({r0 + i}, {c0 + j}) "
                    "differs from its transpose"
                )


def _band_product(a: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Common-neighbour counts of rows r0:r1 against the columns y >= r0, as float32."""
    return a[r0:r1] @ a[r0:].T


def _widen(extremes: tuple[float, float], values: np.ndarray) -> tuple[float, float]:
    """The (min, max) pair widened to cover ``values``."""
    if not values.size:
        return extremes
    return min(extremes[0], values.min()), max(extremes[1], values.max())
