"""The dense route of Cayley graphs of Z2^n, read from the adjacency row of vertex 0.

Vertices are the 2^n integers; x ~ y iff the weight of x XOR y belongs to
the index set, that is, iff row0[x XOR y] for the 0/1 row of vertex 0.
Every translation z -> z XOR x is an automorphism, so row 0 stands for
every row, and the route never holds the 2^n x 2^n matrix.  It reads the
graph from two Walsh-Hadamard passes over row 0, taken as a generic 0/1
vector of the connection set S (``walsh_counts``):

- F = H(row0), F[k] = sum_x row0[x] (-1)^(k.x).  F[k] = F[0] = |S| iff
  k.x = 0 for every x in S, so the graph is connected iff no k != 0 has
  F[k] = F[0] (S spans GF(2)^n iff no nonzero k is orthogonal to it);
  the complement's transform is -1 - F[k] at k != 0 and N - 1 - F[0] at
  0, so the complement is disconnected iff some k != 0 has
  F[k] = F[0] - N;
- the common-neighbour counts of vertex 0 with every y,
  sum_z row0[z] row0[z XOR y] = 2^-n H(F^2)[y], the autocorrelation of
  row 0 by the convolution theorem; counts[0] = |S| is the degree.

The route runs on a block of rows 0, one row per index set:
``_row0_block`` builds it from a membership table, ``walsh_counts``
transforms every row at once, and ``srg.dense_columns`` reads one verdict
row per set from it.  A single set is the one-row block (``_row0``).

The passes are the butterfly stages of the transform oracle
(``spectrum._butterflies``), so this route shares them with
``wht_spectrum``; it uses no closed form.  The matrix build, breadth-first
search and the check A[x, y] = A[0, x XOR y] on every entry are the test
oracles of this route, in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .core import OrbitIndexSet
from .spectrum import _butterflies, _weight_rows

# per row 0 the route holds the bool row and its int64 counts, 9 * 2^n
# bytes, and one bool buffer: lambda and mu compare the counts with their
# first value under a mask (the block, then the block inverted in place),
# which gathers nothing.  The dense check of one set (the one-row block
# ``certify`` passes to srg.dense_columns) at n = 20 takes 0.12-0.15 s (best
# of 5) and traces a peak of 10.0 * 2^n B (10 MiB), for a small S as for an
# SRG; the census's blocks of 2^14 entries check the 502 sets with n <= 8 in
# 10-11 ms (2-vCPU host, numpy 2.4.6).  The int64 passes are exact for n <= INT64_EXACT_MAX_N (see
# walsh_counts), which this cap stays within.
EXPLICIT_MAX_N = 20
INT64_EXACT_MAX_N = 31


def _row0_block(member: np.ndarray) -> np.ndarray:
    """Adjacency rows of vertex 0 of a table of index sets: block[r, y] <=> weight(y) in I_r.

    member[r, i - 1] = [i in I_r] for i = 1..n, in any integer or bool
    dtype.  Each row is gathered as bool from its indicator's distinct rows
    (``spectrum._weight_rows``) by ``np.take``, so the C-contiguous
    (sets, 2^n) bool block is the only allocation of its size.
    """
    sets, n = member.shape
    lut = np.zeros((sets, n + 1), dtype=bool)
    lut[:, 1:] = member
    table, high = _weight_rows(lut, n)
    return np.take(table, high, axis=1).reshape(sets, -1)


def _row0(s: OrbitIndexSet) -> np.ndarray:
    """Adjacency row of vertex 0, row0[y] <=> weight(y) in I: one row of ``_row0_block``."""
    return _row0_block(np.array([[i in s.indices for i in range(1, s.n + 1)]]))[0]


def walsh_counts(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(connected, complement connected, counts) of Cay(Z2^n, S) for each 0/1 row of S in block.

    block holds rows 0 of length N = 2^n along its last axis, one row or a
    C-contiguous (sets, N) block, and the results follow its leading axes.
    counts[..., y] = sum_z row0[z] row0[z XOR y] is the number of common
    neighbours of 0 and y, and counts[..., 0] = |S| the degree.  F = H(row0)
    is one in-place int64 pass over a copy of the block, and the counts are
    a second pass over F^2 in the same array, shifted right by n.  Bounds:
    |F| <= |S| < 2^n, and every partial sum of the second pass is at most
    sum_k F[k]^2 = 2^n |S| < 4^n (Parseval), so the in-place
    2 * hi < 2^(2n+1) fits int64 for n <= INT64_EXACT_MAX_N = 31.
    """
    size = block.shape[-1]
    fhat = block.astype(np.int64)
    _butterflies(fhat, 1, size)
    degree = fhat[..., :1]
    connected = ~(fhat[..., 1:] == degree).any(axis=-1)
    complement_connected = ~(fhat[..., 1:] == degree - size).any(axis=-1)
    np.multiply(fhat, fhat, out=fhat)
    _butterflies(fhat, 1, size)
    np.right_shift(fhat, size.bit_length() - 1, out=fhat)
    return connected, complement_connected, fhat


def _row_constants(values: np.ndarray, where: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the value an integer array holds where ``where`` is set, and whether it is unique.

    The value at each row's first set entry (``argmax`` along the last
    axis) is its constant iff no entry under the mask differs from it: one
    bool buffer, ANDed with the mask in place, and no masked reduction or
    gather.  A row with an empty mask, or with several values under it,
    reads False.
    """
    first = np.argmax(where, axis=-1)[..., None]
    value = np.take_along_axis(values, first, axis=-1)
    differs = values != value
    differs &= where
    found = np.take_along_axis(where, first, axis=-1)[..., 0] & ~differs.any(axis=-1)
    return value[..., 0], found
