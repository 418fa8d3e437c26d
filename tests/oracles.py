"""Reference oracles: slow, direct implementations that the tests compare the library against.

None of these is called by the CLI or the certification pipeline; each is
the independent check of one fast route.

- ``pair_count_oracle``: |C(v,S)| by enumerating S, the check of the
  closed form ``srg.pair_counts`` and of the census table
  ``srg.pair_count_table``.
- ``einsum_sweep_tables``: the census tables of every nonempty set by
  one product over the whole membership table, spectra = member @ K and
  counts by an einsum of member against P on both sides, the check of
  ``census.sweep_tables``, which sums the rows of each mask's two halves.
- ``orbit_character_sum`` and ``eigenvalue``: the normative
  double-binomial sum of each eigenvalue (with ``binom``, the
  zero-outside-range binomial), the check of the recurrence rows of
  ``spectrum.character_sum_row`` behind ``full_spectrum``.
- ``is_connected``: the connectivity rule on the parities of one set's
  member weights, the per-set check of the gate columns of
  ``srg.verdict_columns`` and of the Walsh flags of
  ``explicit.walsh_counts``.
- ``identity_sides``: both sides of one identity instance, rejecting an
  inadmissible (k, m), the per-instance reading of the rows that
  ``identities.verify_all`` evaluates.
- ``double_sum_oracle``: one double sum grouped by j, each t-sum added
  term by term as one stride-4 slice of Pascal row b, the check of
  ``identities._double_sum``, which reads every t-sum from the running
  sums of row b.
- ``wht_naive``: the Walsh-Hadamard transform by direct O(4^n) summation,
  and ``butterfly_fwht``: the same transform by one numpy butterfly stage
  per bit over the whole indicator; both check the transform of
  ``wht_spectrum``, which runs the low-bit stages on the indicator's
  distinct rows and the high-bit stages on column slabs of the gathered
  rows.  ``assembled_wht`` lays those slabs side by side into the whole
  vector, which the library never holds.
- ``ExplicitGraph``: the 2^n x 2^n bool adjacency, built in row bands by
  a direct XOR index, row x = row0[x ^ arange(N)] (``_xor_band``), up to
  its own cap ``MATRIX_MAX_N``.
- ``matrix_srg_check``: the dense verdict from the built matrix, by BFS
  (``connected_component``), every vertex's degree, the premise pass
  ``common_neighbor_constants`` and BFS on the complement, the check of
  the dense route ``srg.dense_columns``, which reads everything from two
  Walsh-Hadamard passes over row 0.  ``common_neighbor_constants`` checks
  A[x, y] = A[0, x XOR y] on every entry, band by band against the same
  XOR index, and then counts vertex 0's common neighbours on the matrix
  literally, row by row; its ``_constant`` reads lambda and mu one mask
  at a time, sharing no code with the route's per-row read
  ``explicit._row_constants``.
- ``verify_equitable_partition``: lambda and mu read off the distance
  partition around one vertex, a fourth route to the verdicts of
  ``certify``'s three.
- ``connected_components``: every component by repeated BFS, which checks
  that the complement of the odd-weight graph splits into two cliques:
  the shape behind the trivial verdict, which ``srg`` reads from complement
  connectivity alone.
- ``all_pairs_common_neighbor_constants``: lambda and mu read from the
  common-neighbour count of every pair, by a float32 product in row bands
  of the upper triangle after checking that A is symmetric, the check of
  ``common_neighbor_constants`` and of the counts of
  ``explicit.walsh_counts``.
- ``route_verdict``: one route's untagged verdict of one set, read on its
  own and compared with no other route: the pair-count or spectral column
  of the set's one-row ``srg.verdict_columns`` table, or
  ``srg.dense_columns`` on the one-row block of its row 0.  It is no
  oracle, but the reader tests use to hold each route apart from the
  agreement check of ``srg.certified_rows``.
- ``forbid_everywhere``: no oracle either, but the guard of the tests
  that a failure or a rejection runs no closed form: it patches each
  given function on every ``orbitcayley`` module that binds it, so a name
  imported by name cannot escape the patch.
- ``census_records``: no oracle, but the tests' reader of the census:
  the JSONL records ``census.census_bytes`` writes for a dimension,
  parsed by ``json.loads``.
- ``find_srgs``: every strongly regular index set of a dimension, read
  off those records.
- ``census_oracle_bytes``: the census JSONL or CSV written set by set
  from ``certify``, the check of the verdict columns and of the text
  ``census.census_bytes`` writes from them.
- ``column_gather_graph6``: the graph6 string with each column of the
  upper triangle gathered bit by bit from vertex 0's row through an int64
  XOR index, packed 6 bits at a time with shifts and ORs, the check of
  ``graph6.export_graph6``, which shifts 64-bit words of the first 64 rows
  into place, a block of 64 rows at a time, and turns whole 3-word runs
  into characters by shift-and-mask steps.  ``graph6_bytes`` joins
  the chunks that ``export_graph6`` yields into the one string the tests
  compare.
- ``decode_graph6``: the adjacency matrix of a graph6 string, which
  rejects a malformed header, body or padding, so an export can be read
  back and compared with the built matrix.

The tests directory has no ``__init__.py``, so pytest's default
``prepend`` import mode puts it on ``sys.path`` and ``from oracles import``
works from every test module.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from orbitcayley.census import CENSUS_CSV_COLUMNS, CENSUS_DEFAULT_EXPLICIT_CAP, census_bytes
from orbitcayley.core import ConsistencyError, OrbitIndexSet, pascal_row
from orbitcayley.explicit import _row0
from orbitcayley.graph6 import _encode_size, export_graph6
from orbitcayley.identities import _sides, admissible_k
from orbitcayley.spectrum import (
    _COMPARE_CHUNK,
    WHT_MAX_N,
    _butterflies,
    _high_stages,
    _indicator_rows,
    character_table,
    distinct,
    full_spectrum,
)
from orbitcayley.srg import (
    SrgParams,
    SrgVerdict,
    VerdictStatus,
    _column_verdict,
    certify,
    dense_columns,
    match_families,
    pair_count_table,
    pair_counts,
    verdict_columns,
)

PAIR_COUNT_ORACLE_MAX_N = 20
# the bool matrix is 4^n bytes, 256 MB at n = 14; the dense route's own cap
# explicit.EXPLICIT_MAX_N = 20 would allow a 1 TB matrix
MATRIX_MAX_N = 14
NAIVE_WHT_MAX_N = 8
FLOAT32_EXACT_MAX = 1 << 24  # float32 holds every integer up to 2^24 exactly
_BAND_BYTES = 1 << 23  # bound on one float32 band of the common-neighbour product
_COLUMN_BLOCK_BITS = 1 << 20  # upper-triangle bits gathered before each pack
_XOR_BAND_BYTES = 1 << 22  # bound on the int64 XOR index of one row band


def pair_count_oracle(s: OrbitIndexSet, v: int) -> int:
    """|C(v,S)| by direct enumeration of S, for the vector v of GF(2)^n as an n-bit int."""
    if s.n > PAIR_COUNT_ORACLE_MAX_N:
        raise ValueError(f"n={s.n} exceeds the enumeration cap {PAIR_COUNT_ORACLE_MAX_N}")
    if not 0 <= v < 1 << s.n:
        raise ValueError(f"vector {v:#b} out of range for n={s.n}")
    count = 0
    for i in s.indices:
        for ones in combinations(range(s.n), i):
            x = sum(1 << p for p in ones)
            count += (x ^ v).bit_count() in s.indices
    return count


def einsum_sweep_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """member (int8), spectra and counts (int64) of every nonempty set, row r for bitmask r + 1.

    Every row from the whole 2^n - 1 row membership table at once, with no
    split of the masks: spectra = member @ K[1:] and counts[r, w - 1] =
    sum over i, j of member[r, i] P[w][i][j] member[r, j].
    """
    member = ((np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1).astype(np.int8)
    spectra = member @ character_table(n)[1:]
    counts = np.einsum("mi,wij,mj->mw", member, pair_count_table(n)[1:, 1:, 1:], member)
    return member, spectra, counts


def binom(s: int, t: int) -> int:
    """C(s, t) with the zero-outside-range convention: 0 whenever t < 0 or t > s."""
    if t < 0 or t > s:
        return 0
    return comb(s, t)


def orbit_character_sum(n: int, i: int, k: int) -> int:
    """Character sum over the weight-i orbit for any character index of weight k.

    Normative form: sum_j (-1)^j C(k, j) C(n-k, i-j).
    """
    if not 0 <= i <= n:
        raise ValueError(f"orbit weight {i} out of range 0..{n}")
    if not 0 <= k <= n:
        raise ValueError(f"character weight {k} out of range 0..{n}")
    return sum((-1) ** j * binom(k, j) * binom(n - k, i - j) for j in range(i + 1))


def eigenvalue(s: OrbitIndexSet, k: int) -> int:
    """The eigenvalue attached to weight-k character indices: the sum over member orbits."""
    if not 0 <= k <= s.n:
        raise ValueError(f"character weight {k} out of range 0..{s.n}")
    return sum(orbit_character_sum(s.n, i, k) for i in s.indices)


def is_connected(s: OrbitIndexSet) -> bool:
    """Whether the graph with connection set S is connected, i.e. S generates GF(2)^n.

    A weight class with odd i < n generates everything.  Even classes only
    reach the even-weight subgroup.  The top class {all-ones} generates a
    2-element subgroup on its own (a perfect matching, disconnected for
    n >= 2), but for odd n it lifts the even-weight subgroup to the whole
    group when paired with any other class.
    """
    if not s.indices:
        return False
    n = s.n
    if any(i % 2 == 1 and i < n for i in s.indices):
        return True
    if n in s.indices and n % 2 == 1:
        return n == 1 or len(s.indices) >= 2
    return False


def identity_sides(identity_id: str, k: int, m: int) -> tuple[int, int]:
    """(lhs, rhs) for one identity instance; raises ValueError if (k, m) is inadmissible."""
    if k not in admissible_k(identity_id, m):
        raise ValueError(f"k={k} inadmissible for {identity_id} at m={m}")
    return _sides(identity_id, k, m)


def double_sum_oracle(factor: int, a: int, p: int, b: int, q: int, jmax: int, m: int) -> int:
    """factor * sum over t <= m, j <= jmax of C(a, 2j + p) C(b, 4t - 2j + q), slice by slice.

    Grouped by j: the t-sum of C(b, 4t - 2j + q) is the stride-4 slice of
    row b from (q - 2j) mod 4 to top = 4m + q - 2j, added term by term
    (for q <= 3 no t < 0 enters); j stops where 2j + p passes a, a top
    below 0 keeps no term and a negative b none at all.
    """
    if b < 0:
        return 0
    row_a, row_b = pascal_row(a), pascal_row(b)
    total = 0
    for j in range(min(jmax, (a - p) // 2) + 1):
        top = 4 * m + q - 2 * j
        if top >= 0:
            total += row_a[2 * j + p] * sum(row_b[(q - 2 * j) % 4 : top + 1 : 4])
    return factor * total


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


def assembled_wht(s: OrbitIndexSet, width: int | None = None) -> np.ndarray:
    """The whole int32 transform of S from ``wht_spectrum``'s stages, slab by slab.

    The low-bit stages run on the indicator's distinct rows, and each slab
    of ``width`` columns (by default ``wht_spectrum``'s width) is gathered
    and run through the high-bit stages by ``spectrum._high_stages``; the
    slabs are then laid side by side as the (rows, cols) matrix of the
    vector.
    """
    table, row_map = _indicator_rows(s, np.int32)
    cols = table.shape[1]
    _butterflies(table, 1, cols)
    width = width or max(1, _COMPARE_CHUNK // row_map.size)
    slabs = [_high_stages(table, row_map, slice(c0, c0 + width)) for c0 in range(0, cols, width)]
    return np.concatenate(slabs, axis=1).reshape(-1)


def butterfly_fwht(a: np.ndarray) -> np.ndarray:
    """In-place butterfly transform of a 0/1 vector of length 2^n, one stage per bit.

    Stage h pairs runs of h entries, so the stages with small h run numpy
    loops of 1 to h elements.  Every partial sum is bounded by
    |f-hat| <= 2^n, so int32 is exact for n <= WHT_MAX_N; a longer vector
    raises ValueError before any work.  Each stage saves the low halves in
    one half-length scratch buffer, allocated once.
    """
    size = a.size
    if size > 1 << WHT_MAX_N:
        raise ValueError(f"transform length {size} exceeds the int32 bound 2^{WHT_MAX_N}")
    scratch = np.empty(size // 2, dtype=a.dtype)
    h = 1
    while h < size:
        a = a.reshape(-1, 2, h)
        lo, hi = a[:, 0, :], a[:, 1, :]
        x = scratch.reshape(lo.shape)
        np.copyto(x, lo)
        np.add(x, hi, out=lo)
        np.subtract(x, hi, out=hi)
        a = a.reshape(size)
        h *= 2
    return a


@dataclass(frozen=True)
class ExplicitGraph:
    """The 2^n-vertex graph as a dense boolean adjacency matrix."""

    index_set: OrbitIndexSet
    adjacency: np.ndarray

    @classmethod
    def build(cls, s: OrbitIndexSet) -> ExplicitGraph:
        """Row x is row 0 translated by x, row0[x ^ arange(N)], written band by band.

        Raises ValueError before any allocation when n exceeds MATRIX_MAX_N.
        """
        if s.n > MATRIX_MAX_N:
            raise ValueError(f"n={s.n} exceeds the matrix oracle cap {MATRIX_MAX_N}")
        size = 1 << s.n
        row0 = _row0(s)
        adjacency = np.empty((size, size), dtype=bool)
        for x0, x1 in _bands(size):
            adjacency[x0:x1] = _xor_band(row0, x0, x1)
        adjacency.setflags(write=False)
        return cls(s, adjacency)

    @property
    def size(self) -> int:
        return 1 << self.index_set.n

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


def _bands(size: int) -> list[tuple[int, int]]:
    """Row bands (x0, x1) covering 0..size-1 whose XOR index fits in _XOR_BAND_BYTES."""
    rows = max(1, _XOR_BAND_BYTES // (8 * size))
    return [(x0, min(x0 + rows, size)) for x0 in range(0, size, rows)]


def _xor_band(row0: np.ndarray, x0: int, x1: int) -> np.ndarray:
    """Rows x0..x1-1 of the graph x ~ y <=> row0[x ^ y]: row x is row0[x ^ arange(N)]."""
    return row0[np.arange(x0, x1)[:, None] ^ np.arange(row0.size)]


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


def matrix_srg_check(s: OrbitIndexSet) -> SrgVerdict:
    """The dense route's verdict, tagged, from the built matrix: BFS connectivity,
    the degree of every vertex, lambda and mu from ``common_neighbor_constants``
    (which checks the Cayley premise on every entry first), and BFS on the
    complement for trivial vs nontrivial.

    A failed premise raises ConsistencyError naming the set, the entry and
    both values.
    """
    graph = ExplicitGraph.build(s)
    adjacency = graph.adjacency
    size = graph.size
    if not is_connected_adjacency(adjacency):
        return SrgVerdict(VerdictStatus.DISCONNECTED)
    degrees = graph.degrees()
    if (degrees == size - 1).all():
        return SrgVerdict(VerdictStatus.COMPLETE)
    try:
        lam, mu = common_neighbor_constants(adjacency)
    except ConsistencyError as exc:
        raise ConsistencyError(f"dense route on {s.format()}: {exc}") from exc
    if degrees.min() != degrees.max() or lam is None or mu is None:
        return SrgVerdict(VerdictStatus.NOT_SRG)
    trivial = not is_connected_adjacency(complement_adjacency(adjacency))
    status = VerdictStatus.TRIVIAL_SRG if trivial else VerdictStatus.NONTRIVIAL_SRG
    params = SrgParams(size, int(degrees[0]), lam, mu)
    return SrgVerdict(status, params, match_families(s))


def common_neighbor_constants(adjacency: np.ndarray) -> tuple[int | None, int | None]:
    """(lambda, mu) as the dense route reads them, from the matrix.

    ``_vertex0_counts`` first checks the Cayley premise A[x, y] = A[0, x XOR y]
    on every entry.  Under it the common neighbours of (x, y) are those of
    (0, x XOR y), by the substitution u = x XOR z in sum_z A[x, z] A[y, z],
    and (x, y) is adjacent iff (0, x XOR y) is.  So lambda is read from
    vertex 0's counts over the y adjacent to 0, and mu over the other y != 0.
    """
    counts = _vertex0_counts(adjacency)
    adjacent = adjacency[0]
    other = ~adjacent
    other[0] = False
    return _constant(counts, adjacent), _constant(counts, other)


def _constant(values: np.ndarray, where: np.ndarray) -> int | None:
    """The one value an integer array holds where ``where`` is set, or None for none or several.

    The value at the first set entry (``argmax``) is the constant iff no
    entry under the mask differs from it.
    """
    first = int(np.argmax(where))
    if not where[first]:
        return None
    value = values[first]
    differs = values != value
    differs &= where
    return None if differs.any() else int(value)


def _vertex0_counts(adjacency: np.ndarray) -> np.ndarray:
    """Common neighbours of vertex 0 and each y, after checking A[x, y] = A[0, x XOR y].

    N must be a power of two and A[0, 0] False, or ConsistencyError is
    raised before any band is read.  Then each band of rows is compared
    with row 0 translated by XOR (``_xor_band``); the first mismatch
    raises ConsistencyError naming (x, y) and both values.  The
    premise implies that A is symmetric with a False diagonal.  Each count
    is an exact integer of at most N.
    """
    size = adjacency.shape[0]
    if size & (size - 1):
        raise ConsistencyError(f"{size} vertices are not a power of two, so not Z2^n")
    row0 = adjacency[0]
    if row0[0]:
        raise ConsistencyError("A[0, 0] = True: vertex 0 is adjacent to itself")
    counts = np.empty(size, dtype=np.intp)
    for x0, x1 in _bands(size):
        expected = _xor_band(row0, x0, x1)
        rows = adjacency[x0:x1]
        mismatch = rows != expected
        if mismatch.any():
            i, y = np.argwhere(mismatch)[0]
            x = x0 + i
            raise ConsistencyError(
                f"adjacency is not a Cayley graph of Z2^n: A[{x}, {y}] = {rows[i, y]} "
                f"but A[0, {x ^ y}] = {expected[i, y]}"
            )
        counts[x0:x1] = np.count_nonzero(rows & row0, axis=1)
    return counts


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


def all_pairs_common_neighbor_constants(adjacency: np.ndarray) -> tuple[int | None, int | None]:
    """(lambda, mu) as ``common_neighbor_constants`` returns them, from every pair.

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
    each transposed read stays within one tile.
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


def graph6_bytes(s: OrbitIndexSet) -> bytes:
    """The chunks of ``export_graph6(s)`` joined into one string.

    ``iter`` hides the chunks' ``len()``, the byte count, by which
    ``bytes.join`` would otherwise reserve one list slot per byte.
    """
    return b"".join(iter(export_graph6(s)))


def column_gather_graph6(s: OrbitIndexSet) -> bytes:
    """graph6 encoding as ``graph6.export_graph6`` returns it, gathered column by column."""
    size = 1 << s.n
    header = _encode_size(size)
    out = np.zeros((size * (size - 1) // 2 + 5) // 6, dtype=np.uint8)
    _pack_columns(_row0(s), out)
    return header + out.tobytes()


def _pack_columns(row0: np.ndarray, out: np.ndarray) -> None:
    """Write the graph6 body of the graph x ~ y <=> row0[x ^ y] into ``out``.

    Column j holds bits row0[i ^ j] for i < j.  Columns are gathered into a
    bit buffer until it holds ``_COLUMN_BLOCK_BITS`` bits; the buffer's
    whole 6-bit groups are then packed in place with shifts and ORs, and the
    0-5 bits left over are carried to the front of the buffer for the next
    block.
    """
    size = row0.size
    row0 = row0.view(np.uint8)
    # room for the carry (< 6 bits), a block, one more column and the padding (< 6 bits)
    bits = np.zeros(_COLUMN_BLOCK_BITS + size + 12, dtype=np.uint8)
    index = np.empty(size, dtype=np.intp)
    xs = np.arange(size)
    fill = written = 0
    for j in range(1, size):
        np.bitwise_xor(xs[:j], j, out=index[:j])
        # indices are in range by construction; "clip" skips the buffered copy of "raise"
        np.take(row0, index[:j], out=bits[fill : fill + j], mode="clip")
        fill += j
        last = j == size - 1
        if fill < _COLUMN_BLOCK_BITS and not last:
            continue
        if last:
            bits[fill : fill + 5] = 0
            fill += (-fill) % 6
        whole = fill - fill % 6
        groups = bits[:whole].reshape(-1, 6)
        chars = out[written : written + whole // 6]
        chars[:] = groups[:, 0]
        for b in range(1, 6):
            chars <<= 1
            chars |= groups[:, b]
        chars += 63
        written += whole // 6
        bits[: fill - whole] = bits[whole:fill]
        fill -= whole


def route_verdict(s: OrbitIndexSet, route: str) -> SrgVerdict:
    """The untagged verdict of s by one route: "pair_count", "spectral" or "explicit"."""
    if route == "explicit":
        row = dense_columns(_row0(s)[None])[0]
    else:
        member = np.array([[i in s.indices for i in range(1, s.n + 1)]], dtype=np.int8)
        spectra = np.array([sorted(full_spectrum(s).values)], dtype=object)
        counts = np.array([pair_counts(s)[1:]], dtype=object)
        columns = verdict_columns(member, spectra, counts)
        row = (columns.paircount if route == "pair_count" else columns.spectral)[0]
    return _column_verdict(s.n, row.tolist())


def forbid_everywhere(monkeypatch, functions, replacement) -> None:
    """Bind replacement in place of each function on every loaded ``orbitcayley`` module.

    A module that imported a function by name holds a binding of its own,
    which patching the defining module's attribute would miss; this
    patches every attribute that is the function, aliases included.
    """
    for name, module in list(sys.modules.items()):
        if name != "orbitcayley" and not name.startswith("orbitcayley."):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is f for f in functions):
                monkeypatch.setattr(module, attr, replacement)


def census_records(n: int, explicit_cap: int) -> list[dict]:
    """The census records of dimension n, one dict per JSONL line of ``census_bytes``."""
    return [json.loads(line) for line in census_bytes(n, "jsonl", explicit_cap).splitlines()]


def find_srgs(
    n: int, explicit_cap: int = CENSUS_DEFAULT_EXPLICIT_CAP
) -> list[tuple[OrbitIndexSet, SrgParams, bool]]:
    """All strongly regular index sets with parameters and a trivial flag, by degree."""
    hits = [
        (OrbitIndexSet.of(n, rec["I"]), SrgParams(*rec["params"].values()),
         rec["status"] == VerdictStatus.TRIVIAL_SRG.value)
        for rec in census_records(n, explicit_cap)
        if rec["params"] is not None
    ]
    return sorted(hits, key=lambda h: (h[1].degree, h[0].bitmask))


def census_oracle_bytes(
    dimensions: range, fmt: str, explicit_cap: int = CENSUS_DEFAULT_EXPLICIT_CAP
) -> bytes:
    """What ``census --n <dimensions> --format <fmt>`` writes, one ``certify`` call per set.

    Each record is built field by field from the set and its certified
    verdict and spectrum, and serialised by ``json.dumps`` or the csv
    module.
    """
    lines = []
    rows = [CENSUS_CSV_COLUMNS]
    for n in dimensions:
        for mask in range(1, 1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            verdict, spectrum = certify(s, explicit_cap)
            record = {
                "n": n,
                "I": list(s.sorted_indices),
                "connected": verdict.status is not VerdictStatus.DISCONNECTED,
                "distinct": len(distinct(spectrum)),
                "complement_I": list(s.complement().sorted_indices),
                "explicit_verified": n <= explicit_cap,
                **verdict.to_json_dict(),
            }
            lines.append(json.dumps(record) + "\n")
            params = verdict.params
            constants = (params.degree, params.lam, params.mu) if params else ("", "", "")
            rows.append(
                [str(n), ",".join(map(str, s.sorted_indices)), str(record["connected"]).lower(),
                 str(record["distinct"]), verdict.status.value, *map(str, constants)]
            )
    if fmt == "jsonl":
        return "".join(lines).encode()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def _decode_size(data: bytes) -> tuple[int, int]:
    """(vertex count, header length) of a graph6 string's size header."""
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] < 63:
        raise ValueError("corrupt graph6 size header")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) < 4 or data[1] == 126:
        raise ValueError("unsupported or truncated graph6 size header")
    groups = [b - 63 for b in data[1:4]]
    if any(not 0 <= g <= 63 for g in groups):
        raise ValueError("corrupt graph6 size header")
    return (groups[0] << 12) | (groups[1] << 6) | groups[2], 4


def decode_graph6(data: bytes) -> np.ndarray:
    """Adjacency matrix of a graph6 string (trailing newline tolerated)."""
    data = bytes(data).strip()
    size, offset = _decode_size(data)
    body = np.frombuffer(data[offset:], dtype=np.uint8).astype(np.int16) - 63
    if body.size and (body.min() < 0 or body.max() > 63):
        raise ValueError("graph6 body contains characters outside the printable range")
    need = size * (size - 1) // 2
    if body.size != (need + 5) // 6:
        raise ValueError(f"graph6 body length {body.size} does not match {size} vertices")
    bits = ((body[:, None] >> np.array([5, 4, 3, 2, 1, 0])) & 1).ravel()
    if bits[need:].any():
        raise ValueError("nonzero padding bits in graph6 body")
    adjacency = np.zeros((size, size), dtype=bool)
    pos = 0
    for j in range(1, size):
        column = bits[pos : pos + j].astype(bool)
        pos += j
        adjacency[:j, j] = column
        adjacency[j, :j] = column
    return adjacency
