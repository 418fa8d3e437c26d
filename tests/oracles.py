"""Reference oracles: slow, direct implementations that the tests compare the library against.

None of these is called by the CLI or the certification pipeline; each is
the independent check of one fast route.

- ``pair_count_oracle``: |C(v,S)| by enumerating S, the check of the
  closed form ``srg.pair_count`` and of the census table
  ``srg.pair_count_table``.
- ``wht_naive``: the Walsh-Hadamard transform by direct O(4^n) summation,
  the check of the butterfly ``spectrum._fwht`` behind ``wht_spectrum``.
- ``verify_equitable_partition``: lambda and mu read off the distance
  partition around one vertex, a fourth route to the verdicts of
  ``certify``'s three.
- ``connected_components``: every component by repeated BFS, which checks
  that the complement of the odd-weight graph splits into two cliques:
  the shape behind the trivial verdict, which ``srg`` reads from complement
  connectivity alone.

The tests directory has no ``__init__.py``, so pytest's default
``prepend`` import mode puts it on ``sys.path`` and ``from oracles import``
works from every test module.
"""

from __future__ import annotations

import numpy as np

from orbitcayley.core import Gf2Vector, OrbitIndexSet
from orbitcayley.explicit import ExplicitGraph, connected_component

PAIR_COUNT_ORACLE_MAX_N = 20
NAIVE_WHT_MAX_N = 8


def pair_count_oracle(s: OrbitIndexSet, v: Gf2Vector) -> int:
    """|C(v,S)| by direct enumeration of S."""
    if s.n > PAIR_COUNT_ORACLE_MAX_N:
        raise ValueError(f"n={s.n} exceeds the enumeration cap {PAIR_COUNT_ORACLE_MAX_N}")
    if v.n != s.n:
        raise ValueError(f"dimension mismatch: vector n={v.n}, set n={s.n}")
    return sum(1 for x in s.vectors() if s.contains(v ^ Gf2Vector(s.n, x)))


def wht_naive(f: np.ndarray, n: int) -> np.ndarray:
    """Walsh-Hadamard transform of f over 2^n points by direct O(4^n) summation."""
    if n > NAIVE_WHT_MAX_N:
        raise ValueError(f"n={n} exceeds the naive-summation cap {NAIVE_WHT_MAX_N}")
    out = np.zeros_like(f)
    for y in range(1 << n):
        acc = 0
        for x in range(1 << n):
            if f[x]:
                acc += -1 if (x & y).bit_count() & 1 else 1
        out[y] = acc
    return out


def verify_equitable_partition(graph: ExplicitGraph, v: int) -> list[list[int]] | None:
    """Quotient matrix of the partition {v} | N(v) | N2(v), or None if not equitable.

    Requires diameter exactly 2 around v (every non-neighbor of v adjacent to
    some neighbor, and at least one non-neighbor); raises otherwise.  When the
    matrix exists, entry [1][1] is lambda and entry [2][1] is mu.
    """
    adjacency = graph.adjacency
    size = graph.size
    if not 0 <= v < size:
        raise ValueError(f"vertex {v} out of range")
    n1 = adjacency[v].copy()
    n2 = ~n1
    n2[v] = False
    if not n2.any():
        raise ValueError("graph is complete: no vertex at distance 2")
    if not (adjacency[n2][:, n1].any(axis=1)).all():
        raise ValueError("eccentricity of v exceeds 2")
    cells = [np.flatnonzero(np.arange(size) == v), np.flatnonzero(n1), np.flatnonzero(n2)]
    matrix: list[list[int]] = []
    for cell in cells:
        row = []
        for other in cells:
            per_vertex = adjacency[np.ix_(cell, other)].sum(axis=1)
            if per_vertex.min() != per_vertex.max():
                return None
            row.append(int(per_vertex[0]))
        matrix.append(row)
    return matrix


def connected_components(adjacency: np.ndarray) -> list[np.ndarray]:
    """Vertex index arrays of all components, by smallest member."""
    size = adjacency.shape[0]
    seen = np.zeros(size, dtype=bool)
    out = []
    while not seen.all():
        start = int(np.flatnonzero(~seen)[0])
        mask = connected_component(adjacency, start)
        out.append(np.flatnonzero(mask))
        seen |= mask
    return out
