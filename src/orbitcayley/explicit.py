"""The dense route of Cayley graphs of Z2^n, read from the adjacency row of vertex 0.

Vertices are the 2^n integers; x ~ y iff the weight of x XOR y belongs to
the index set, that is, iff row0[x XOR y] for the 0/1 row of vertex 0.
Every translation z -> z XOR x is an automorphism, so the row of x is
row 0 translated by x, and the route never holds the 2^n x 2^n matrix:

- connectivity: the support of row 0 spans GF(2)^n (``spans``), and the
  same test on the complement's support tells trivial from nontrivial;
- degree: the number of ones in row 0;
- lambda and mu: the common-neighbour counts of vertex 0 with every y
  (``row0_constants``), each row ANDed with row 0 and summed.

The translated rows come in aligned blocks of B = 2^k rows.  The block
starting at x0 is the first block with its B-wide column chunks permuted
by h -> h XOR (x0 / B) (``_translates``), so every later block copies
contiguous B-byte chunks of the first.  The first block is built by
doubling (``_first_block``): rows h..2h-1 are rows 0..h-1 with the halves
of every 2h-wide chunk swapped.  ``graph6`` encodes from the same blocks.
The matrix build, breadth-first search and the check
A[x, y] = A[0, x XOR y] on every entry are the test oracles of this
route, in ``tests/oracles.py``.  One ``srg_check_explicit`` takes about
4 ms at n = 12 and 0.1 s at n = 14 (best of 7, 2-vCPU host, numpy 2.4.6);
the matrix route took 36-50 ms at n = 12.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .core import OrbitIndexSet
from .spectrum import _indicator

# the dense route holds row 0 and its uint16 counts, 3 * 2^n bytes, and one
# block step of at most 0.5 MB (see _GATHER_BLOCK_BYTES): 0.5 MB traced at
# n = 14; the uint16 counts would allow n = 15, at 4 times the work
EXPLICIT_MAX_N = 14
# bound on one block step of B rows: the first block, one translate block
# and its AND with row 0, 3 * B * 2^n bytes; one block for n <= 8, 32 rows
# at n = 12, 8 rows at n = 14
_GATHER_BLOCK_BYTES = 1 << 19


def _row0(s: OrbitIndexSet) -> np.ndarray:
    """Adjacency row of vertex 0: row0[y] <=> weight(y) in I."""
    return _indicator(s).astype(bool)


def _block_rows(size: int) -> int:
    """The largest power of two B <= size whose block step fits in _GATHER_BLOCK_BYTES."""
    rows = size
    while rows > 1 and 3 * rows * size > _GATHER_BLOCK_BYTES:
        rows //= 2
    return rows


def _first_block(row0: np.ndarray, rows: int) -> np.ndarray:
    """F[i, y] = row0[i XOR y] for i < rows; rows is a power of two dividing N.

    Built by doubling: for i < h, (i + h) XOR y = i XOR (y XOR h), and
    y -> y XOR h swaps the two halves of every 2h-wide column chunk, so
    rows h..2h-1 are rows 0..h-1 with those halves swapped.  No index
    array is formed.
    """
    first = np.empty((rows, row0.size), dtype=row0.dtype)
    first[0] = row0
    h = 1
    while h < rows:
        halves = first[:h].reshape(h, -1, 2, h)
        first[h : 2 * h].reshape(halves.shape)[...] = halves[:, :, ::-1]
        h *= 2
    return first


def _translates(row0: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (x0, rows) with rows[i, y] = row0[(x0 + i) XOR y], covering x0 + i = 0..N-1.

    N = len(row0) must be a power of two, so that every x XOR y indexes
    row0.  Blocks are B = ``_block_rows(N)`` rows starting at multiples of
    B.  Write y = h * B + l with l < B; then (x0 + i) XOR y = (h XOR c) * B
    + (i XOR l) for block c = x0 / B, so block c is the first block F with
    its B-wide column chunks permuted by h -> h XOR c.  F is built by
    doubling (``_first_block``); every later block is a gather of
    contiguous B-byte chunks of F.
    """
    size = row0.size
    rows = _block_rows(size)
    chunks = size // rows
    first = _first_block(row0, rows)
    yield 0, first
    by_chunk = first.reshape(rows, chunks, rows)
    hs = np.arange(chunks)
    for c in range(1, chunks):
        block = np.take(by_chunk, hs ^ c, axis=1, mode="clip")
        yield c * rows, block.reshape(rows, size)


def spans(row: np.ndarray) -> bool:
    """Whether the support of ``row``, a 0/1 row of length N = 2^n, spans GF(2)^n.

    Cay(Z2^n, S) is connected iff S generates Z2^n, that is, spans
    GF(2)^n.  Gaussian elimination over the n bits: at bit b (from 0 up)
    one remaining vector with bit b set is the pivot, and it is XORed into
    every vector with bit b set, the pivot included, which clears bit b
    from all of them.  If some bit finds no pivot, the pivots so far and
    the remaining vectors (all zero on bits 0..b) span at most n - 1
    dimensions; so S spans GF(2)^n iff every bit finds one.
    """
    vectors = np.flatnonzero(row)
    for b in range(row.size.bit_length() - 1):
        has_bit = (vectors & (1 << b)) != 0
        if not has_bit.any():
            return False
        np.bitwise_xor(vectors, vectors[np.argmax(has_bit)], out=vectors, where=has_bit)
    return True


def row0_constants(row0: np.ndarray) -> tuple[int | None, int | None]:
    """(lambda, mu) of Cay(Z2^n, S) for row0 = the 0/1 row of S: the common-neighbour
    count of every adjacent pair and of every other pair of distinct vertices, each
    None unless those counts hold exactly one value.

    Translation by x is an automorphism, so the common neighbours of (x, y)
    are those of (0, x XOR y), and (x, y) is adjacent iff (0, x XOR y) is.
    So lambda is read from vertex 0's counts over the y adjacent to 0, and
    mu over the other y != 0, and together they cover every ordered pair of
    distinct vertices.
    """
    counts = _row0_counts(row0)
    other = ~row0
    other[0] = False
    return _constant(counts[row0]), _constant(counts[other])


def _row0_counts(row0: np.ndarray) -> np.ndarray:
    """counts[y] = sum_z row0[z] row0[y XOR z], the common neighbours of 0 and y, as uint16.

    Row y of the graph is row0 translated by y, so each block of rows from
    ``_translates`` is ANDed with row0 and summed along its rows.  Each
    count and partial sum is at most N, so uint16 is exact while
    N <= 2^16 - 1; a longer row raises ValueError before any block is formed.
    """
    size = row0.size
    if size > np.iinfo(np.uint16).max:
        raise ValueError(f"{size} vertices exceed the uint16 count bound 2^16 - 1")
    counts = np.empty(size, dtype=np.uint16)
    for x0, rows in _translates(row0):
        np.add.reduce(rows & row0, axis=1, dtype=np.uint16, out=counts[x0 : x0 + len(rows)])
    return counts


def _constant(values: np.ndarray) -> int | None:
    """The one value ``values`` holds, or None when it holds none or several."""
    if values.size and values.min() == values.max():
        return int(values[0])
    return None
