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

The passes are the butterfly stages of the transform oracle
(``spectrum._butterflies``), so this route shares them with
``wht_spectrum``; it uses no closed form.  The matrix build, breadth-first
search and the check A[x, y] = A[0, x XOR y] on every entry are the test
oracles of this route, in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .core import OrbitIndexSet
from .spectrum import _butterflies, _indicator_rows

# the route holds row 0 and one int64 vector, 9 * 2^n bytes, and one bool
# vector: lambda and mu compare the counts with their first value under a
# mask (row 0, then row 0 inverted in place), which gathers nothing.  One
# srg_check_explicit at n = 20 takes 0.11-0.15 s (best of 5) and traces a
# peak of 10.0 * 2^n B (10 MiB), for a small S as for an SRG (2-vCPU host,
# numpy 2.4.6).  The int64 passes are exact for
# n <= INT64_EXACT_MAX_N (see walsh_counts), which this cap stays within.
EXPLICIT_MAX_N = 20
INT64_EXACT_MAX_N = 31


def _row0(s: OrbitIndexSet) -> np.ndarray:
    """Adjacency row of vertex 0: row0[y] <=> weight(y) in I.

    Gathered as bool from the indicator's distinct rows (``spectrum._weight_rows``),
    so the row's 2^n bytes are the only allocation of its size.
    """
    table, high = _indicator_rows(s, bool)
    return table[high].reshape(-1)


def walsh_counts(row0: np.ndarray) -> tuple[bool, bool, np.ndarray]:
    """(connected, complement connected, counts) of Cay(Z2^n, S) for row0 = the 0/1 row of S.

    counts[y] = sum_z row0[z] row0[z XOR y] is the number of common
    neighbours of 0 and y, and counts[0] = |S| the degree.  F = H(row0) is
    one in-place int64 pass over a copy of row 0, and the counts are a
    second pass over F^2 in the same vector, shifted right by n.  Bounds:
    |F| <= |S| < 2^n, and every partial sum of the second pass is at most
    sum_k F[k]^2 = 2^n |S| < 4^n (Parseval), so the in-place
    2 * hi < 2^(2n+1) fits int64 for n <= INT64_EXACT_MAX_N = 31.
    """
    size = row0.size
    fhat = row0.astype(np.int64)
    _butterflies(fhat, 1, size)
    degree = fhat[0]
    connected = not (fhat[1:] == degree).any()
    complement_connected = not (fhat[1:] == degree - size).any()
    np.multiply(fhat, fhat, out=fhat)
    _butterflies(fhat, 1, size)
    np.right_shift(fhat, size.bit_length() - 1, out=fhat)
    return connected, complement_connected, fhat


def _constant(values: np.ndarray, where: np.ndarray) -> int | None:
    """The one value an integer array holds where ``where`` is set, or None for none or several.

    The value at the first set entry (``argmax``) is the constant iff no
    entry under the mask differs from it: one bool vector, no masked
    reduction and no gather.
    """
    first = int(np.argmax(where))
    if not where[first]:
        return None
    value = values[first]
    differs = values != value
    differs &= where
    return None if differs.any() else int(value)
