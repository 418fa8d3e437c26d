"""Dense adjacency for small orbit Cayley graphs and brute-force graph primitives.

Vertices are the 2^n integers; x ~ y iff the weight of x XOR y belongs to
the index set.  The graph is a Cayley graph of Z2^n, so every translation
z -> z XOR x is an automorphism.  ``common_neighbor_constants`` first
checks that premise on the explicit matrix, A[x, y] = A[0, x XOR y] for
every entry, and then reads lambda and mu from the common-neighbour counts
of vertex 0 alone, in O(4^n).  The all-pairs product it replaces is the
test oracle ``all_pairs_common_neighbor_constants`` in ``tests/oracles.py``.

The same structure builds the matrix.  In an aligned block of B = 2^k rows
starting at x0, the rows are the first block's rows with their B-wide
column chunks permuted by h -> h XOR (x0 / B) (``_translates``).  Row i
of the first block is row 0 with the entries of each B-wide chunk
permuted by l -> i XOR l, so the whole first block is one gather through
a B x B XOR index.  The build and the premise pass index single bytes for
the first block only, and copy contiguous B-byte chunks of it for every
later block.  At n = 12 (blocks of 32 rows) the build takes about
3 ms and the premise pass with its counts about 15 ms (best of 5, 2-vCPU
host, numpy 2.4.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import ConsistencyError, OrbitIndexSet
from .spectrum import _indicator

# the dense route holds the bool adjacency, 4^n bytes, plus one block step
# of at most 1 MB (see _GATHER_BLOCK_BYTES); the BFS frontier rows
# and, for an SRG, the complement copy raise it to about 2.5 * 4^n: 40 MB
# traced at n = 12, so about 670 MB at n = 14
EXPLICIT_MAX_N = 12
# bound on one block step of B rows: the first block, one translate block,
# the premise pass's two bool temporaries (4 * B * 2^n bytes) and the B x B
# int64 index of the first gather; one block for n <= 8, 32 rows at n = 12
_GATHER_BLOCK_BYTES = 1 << 20


def _row0(s: OrbitIndexSet) -> np.ndarray:
    """Adjacency row of vertex 0: row0[y] <=> weight(y) in I."""
    return _indicator(s).astype(bool)


def _block_rows(size: int) -> int:
    """The largest power of two B <= size whose block step fits in _GATHER_BLOCK_BYTES."""
    rows = size
    while rows > 1 and rows * (4 * size + np.intp(0).itemsize * rows) > _GATHER_BLOCK_BYTES:
        rows //= 2
    return rows


def _first_block(row0: np.ndarray, rows: int) -> np.ndarray:
    """F[i, y] = row0[i XOR y] for i < rows; rows is a power of two dividing N.

    For y = h * rows + l with l < rows, i XOR y = h * rows + (i XOR l), so
    one gather through the rows x rows index i XOR l fills every column
    chunk h, in [h, i, l] order; a transposing copy puts it in [i, h, l]
    order, and is a free reshape when rows = N.
    """
    ls = np.arange(rows)
    # indices are in range by construction; "clip" skips the buffered copy of "raise"
    by_chunk = np.take(row0.reshape(-1, rows), ls[:, None] ^ ls, axis=1, mode="clip")
    return np.ascontiguousarray(by_chunk.transpose(1, 0, 2)).reshape(rows, -1)


def _translates(
    row0: np.ndarray, out: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (x0, rows) with rows[i, y] = row0[(x0 + i) XOR y], covering x0 + i = 0..N-1.

    N = len(row0) must be a power of two, so that every x XOR y indexes
    row0.  Blocks are B = ``_block_rows(N)`` rows starting at multiples of
    B.  Write y = h * B + l with l < B; then (x0 + i) XOR y = (h XOR c) * B
    + (i XOR l) for block c = x0 / B, so block c is the first block F with
    its B-wide column chunks permuted by h -> h XOR c.  F takes one gather
    of single bytes (``_first_block``); every later block is a gather of
    contiguous B-byte chunks of F.  With ``out``, an N x N array, each block
    is written into its rows of ``out`` and the yielded rows are views of it.
    """
    size = row0.size
    rows = _block_rows(size)
    chunks = size // rows
    first = _first_block(row0, rows)
    if out is not None:
        out[:rows] = first
        first = out[:rows]
    yield 0, first
    by_chunk = first.reshape(rows, chunks, rows)
    hs = np.arange(chunks)
    for c in range(1, chunks):
        target = None if out is None else out[c * rows : (c + 1) * rows].reshape(by_chunk.shape)
        block = np.take(by_chunk, hs ^ c, axis=1, out=target, mode="clip")
        yield c * rows, block.reshape(rows, size)


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
        size = 1 << s.n
        row0 = _row0(s)  # before the matrix, like graph6.export_graph6
        adjacency = np.empty((size, size), dtype=bool)
        for _ in _translates(row0, out=adjacency):
            pass
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

    ``_vertex0_counts`` first checks the Cayley premise A[x, y] = A[0, x XOR y]
    on every entry.  Under it the common neighbours of (x, y) are those of
    (0, x XOR y), by the substitution u = x XOR z in sum_z A[x, z] A[y, z],
    and (x, y) is adjacent iff (0, x XOR y) is.  So lambda is read from
    vertex 0's counts over the y adjacent to 0, and mu over the other y != 0,
    and together they cover every ordered pair of distinct vertices.
    """
    counts = _vertex0_counts(adjacency)
    adjacent = adjacency[0]
    other = ~adjacent
    other[0] = False
    return _constant(counts[adjacent]), _constant(counts[other])


def _vertex0_counts(adjacency: np.ndarray) -> np.ndarray:
    """Common neighbours of vertex 0 and each y, after checking A[x, y] = A[0, x XOR y].

    N must be a power of two and A[0, 0] False, or ConsistencyError is
    raised before any block is read.  Then each block of rows is compared
    with row 0 translated by XOR (``_translates``, the chunk-permuted blocks
    that ``ExplicitGraph.build`` writes); the first mismatch raises ConsistencyError
    naming (x, y) and both values.  The premise implies that A is symmetric
    with a False diagonal.  Each count is an exact integer of at most N.
    """
    size = adjacency.shape[0]
    if size & (size - 1):
        raise ConsistencyError(f"{size} vertices are not a power of two, so not Z2^n")
    row0 = adjacency[0]
    if row0[0]:
        raise ConsistencyError("A[0, 0] = True: vertex 0 is adjacent to itself")
    counts = np.empty(size, dtype=np.intp)
    for x0, expected in _translates(row0):
        rows = adjacency[x0 : x0 + len(expected)]
        mismatch = rows != expected
        if mismatch.any():
            i, y = np.argwhere(mismatch)[0]
            x = x0 + i
            raise ConsistencyError(
                f"adjacency is not a Cayley graph of Z2^n: A[{x}, {y}] = {rows[i, y]} "
                f"but A[0, {x ^ y}] = {expected[i, y]}"
            )
        counts[x0 : x0 + len(rows)] = np.count_nonzero(rows & row0, axis=1)
    return counts


def _constant(values: np.ndarray) -> int | None:
    """The one value ``values`` holds, or None when it holds none or several."""
    if values.size and values.min() == values.max():
        return int(values[0])
    return None
