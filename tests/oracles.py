"""Reference oracles: slow, direct implementations that the tests compare the library against.

None of these is called by the CLI or the certification pipeline; each is
the independent check of one fast route.

- ``pair_count_oracle``: |C(v,S)| by enumerating S, the check of the
  closed form ``srg.pair_count`` and of the census table
  ``srg.pair_count_table``.
- ``wht_naive``: the Walsh-Hadamard transform by direct O(4^n) summation,
  and ``butterfly_fwht``: the same transform by one numpy butterfly stage
  per bit over the whole indicator; both check ``spectrum._wht`` behind
  ``wht_spectrum``, which runs the low-bit stages on the indicator's
  distinct rows before gathering them.
- ``ExplicitGraph``: the 2^n x 2^n bool adjacency, built block by block
  from the translate blocks of ``explicit._translates``.
- ``matrix_srg_check``: the dense verdict from the built matrix, by BFS
  (``connected_component``), every vertex's degree, the premise pass
  ``common_neighbor_constants`` and BFS on the complement, the check of
  ``srg.srg_check_explicit``, which reads everything from row 0 alone.
  ``common_neighbor_constants`` checks A[x, y] = A[0, x XOR y] on every
  entry and then counts vertex 0's common neighbours on the matrix.
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
  ``common_neighbor_constants`` and of ``explicit.row0_constants``.
- ``find_srgs``: every strongly regular index set of a dimension, read
  off the census records.
- ``census_oracle_bytes``: the census JSONL or CSV written set by set
  from ``certify``, the check of the verdict columns and of the records
  ``census`` emits from them.
- ``column_gather_graph6``: the graph6 string with each column of the
  upper triangle gathered bit by bit from vertex 0's row through an int64
  XOR index, packed 6 bits at a time with shifts and ORs, the check of
  ``graph6.export_graph6``, which copies row prefixes from chunk-permuted
  translate blocks and packs whole 24-bit groups with ``np.packbits``.

The tests directory has no ``__init__.py``, so pytest's default
``prepend`` import mode puts it on ``sys.path`` and ``from oracles import``
works from every test module.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from orbitcayley import explicit
from orbitcayley.census import CENSUS_CSV_COLUMNS, CENSUS_DEFAULT_EXPLICIT_CAP, census
from orbitcayley.core import ConsistencyError, Gf2Vector, OrbitIndexSet
from orbitcayley.explicit import EXPLICIT_MAX_N, _row0
from orbitcayley.graph6 import _encode_size
from orbitcayley.spectrum import WHT_MAX_N, distinct
from orbitcayley.srg import SrgParams, SrgVerdict, VerdictStatus, certify, match_families

PAIR_COUNT_ORACLE_MAX_N = 20
NAIVE_WHT_MAX_N = 8
FLOAT32_EXACT_MAX = 1 << 24  # float32 holds every integer up to 2^24 exactly
_BAND_BYTES = 1 << 23  # bound on one float32 band of the common-neighbour product
_COLUMN_BLOCK_BITS = 1 << 20  # upper-triangle bits gathered before each pack


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
        """Row x is row 0 translated by x, written block by block from ``explicit._translates``.

        Raises ValueError before any allocation when n exceeds EXPLICIT_MAX_N.
        """
        if s.n > EXPLICIT_MAX_N:
            raise ValueError(f"n={s.n} exceeds the dense-graph cap {EXPLICIT_MAX_N}")
        size = 1 << s.n
        row0 = _row0(s)
        adjacency = np.empty((size, size), dtype=bool)
        for x0, rows in explicit._translates(row0):
            adjacency[x0 : x0 + len(rows)] = rows
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


def matrix_srg_check(s: OrbitIndexSet) -> SrgVerdict:
    """``srg.srg_check_explicit``'s verdict from the built matrix: BFS connectivity,
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
    """(lambda, mu) as ``explicit.row0_constants`` returns them, from the matrix.

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
    return explicit._constant(counts[adjacent]), explicit._constant(counts[other])


def _vertex0_counts(adjacency: np.ndarray) -> np.ndarray:
    """Common neighbours of vertex 0 and each y, after checking A[x, y] = A[0, x XOR y].

    N must be a power of two and A[0, 0] False, or ConsistencyError is
    raised before any block is read.  Then each block of rows is compared
    with row 0 translated by XOR (``explicit._translates``); the first
    mismatch raises ConsistencyError naming (x, y) and both values.  The
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
    for x0, expected in explicit._translates(row0):
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


def find_srgs(
    n: int, explicit_cap: int = CENSUS_DEFAULT_EXPLICIT_CAP
) -> list[tuple[OrbitIndexSet, SrgParams, bool]]:
    """All strongly regular index sets with parameters and a trivial flag, by degree."""
    hits = [
        (rec.index_set, rec.verdict.params, rec.verdict.status is VerdictStatus.TRIVIAL_SRG)
        for rec in census(n, explicit_cap=explicit_cap)
        if rec.verdict.status.is_srg()
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
