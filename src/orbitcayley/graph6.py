"""graph6 text encoding of the explicit graphs (header-free variant).

The format packs the column-major upper triangle of the adjacency matrix
into 6-bit printable characters offset by 63, preceded by the vertex
count.  Column j of the upper triangle is A[i, j] = A[j, i] for i < j, the
first j entries of row j, so the column-major upper triangle is the
row-major lower triangle.  The graph is a Cayley graph of Z2^n, so row x
is row 0 (``explicit._row0``) translated by x.  Encoding takes rows in
aligned blocks of 8, each the first block with its column chunks permuted,
and copies each row's prefix into a bit buffer, 48 rows at a time.  Row j
starts at bit j(j-1)/2, a multiple of 24 whenever 48 divides j, so each
group of 48 rows starts on a character boundary and is packed on its own
by ``np.packbits`` in whole 24-bit groups, 3 bytes splitting into 4
characters; only the last group is zero-padded.  ``export_graph6``
returns the header and then one chunk of characters per group, each
packed as it is taken, so a writer that writes each chunk as it comes
never holds the whole string.  Neither the matrix nor its N(N-1)/2-bit
upper triangle is ever built; the indices are the XOR index of the first
block, 8N entries, and the chunk order of one block, N/8 entries.  The
test oracle ``column_gather_graph6`` gathers each column bit by bit
through an int64 XOR index instead, and ``decode_graph6``, also in
``tests/oracles.py``, reads a string back into its adjacency matrix.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .core import OrbitIndexSet
from .explicit import _row0

# bounds time (about 0.1 s at n = 14) and the output, about 4^n / 12 bytes
# (1.4 MB at n = 12, 22 MB at n = 14); the encoder holds a bit buffer of
# 48 * 2^n + 24 bytes, the first block of 8 rows and one translate block
# (16 * 2^n bytes) and one group's characters, never the whole string
EXPORT_MAX_N = 14

_SIZE_SMALL_MAX = 62
_SIZE_MEDIUM_MAX = 258047
_PACK_ROWS = 8  # rows per translate block of the encoder
_GROUP_BITS = 24  # bits of 3 packed bytes, which split into 4 characters
# rows packed per call: row j starts at bit j(j-1)/2, and 48 is the smallest
# count whose every multiple j starts on a 24-bit boundary
_GROUP_ROWS = 48


def _encode_size(vertices: int) -> bytes:
    if vertices <= _SIZE_SMALL_MAX:
        return bytes([vertices + 63])
    if vertices <= _SIZE_MEDIUM_MAX:
        groups = [(vertices >> 12) & 63, (vertices >> 6) & 63, vertices & 63]
        return b"~" + bytes(g + 63 for g in groups)
    raise ValueError(f"{vertices} vertices exceeds the supported graph6 size")


def _pack_upper_triangle(row0: np.ndarray) -> Iterator[bytes]:
    """Yield the graph6 body of the graph x ~ y <=> row0[x ^ y], one group of rows at a time.

    The column-major upper triangle is the row-major lower triangle: column
    j holds A[i, j] = A[j, i] for i < j, the first j entries of row j.
    Rows come in aligned blocks of B = ``_PACK_ROWS``.  Write y = h * B + l
    with l < B; then (c * B + i) XOR y = (h XOR c) * B + (i XOR l), so block
    c is the first block with its B-wide column chunks permuted by
    h -> h XOR c, each cut to the column chunks its row prefixes reach.
    The prefixes are copied into a bit buffer one group of
    ``_GROUP_ROWS`` = 48 rows at a time.  Row j starts at bit j(j-1)/2,
    which is a multiple of 24 whenever 48 divides j, so the group from row
    j0 starts a 24-bit group, at character j0(j0-1)/12, and its characters
    are one ``_pack_groups`` call.  Every group but the last also ends on a
    24-bit boundary; the last is zero-padded to one, and its padding
    characters past the body are dropped.
    """
    size = row0.size
    rows = min(_PACK_ROWS, size)
    chunks = size // rows
    # the first block, F[i, y] = row0[i XOR y] for i < B
    first = row0.view(np.uint8)[np.bitwise_xor.outer(np.arange(rows), np.arange(size))]
    by_chunk = first.reshape(rows, chunks, rows)
    hs = np.arange(chunks)
    # one group of rows, each shorter than N, and the padding of the last
    bits = np.empty(_GROUP_ROWS * size + _GROUP_BITS, dtype=np.uint8)
    for j0 in range(0, size, _GROUP_ROWS):
        fill = 0
        for j in range(j0, min(j0 + _GROUP_ROWS, size)):
            c, i = divmod(j, rows)
            if i == 0:
                # rows c * B + i reach columns y < (c + 1) * B only, in chunks h <= c
                block = np.take(by_chunk, hs[: c + 1] ^ c, axis=1, mode="clip").reshape(rows, -1)
            bits[fill : fill + j] = block[i, :j]
            fill += j
        whole = fill + (-fill) % _GROUP_BITS
        bits[fill:whole] = 0
        yield _pack_groups(bits[:whole], (fill + 5) // 6)


def _pack_groups(bits: np.ndarray, count: int) -> bytes:
    """The first ``count`` graph6 characters of ``bits`` (0/1 bytes, whole 24-bit groups).

    Each group packs to 3 bytes, split into 4 six-bit characters offset by
    63; the characters past ``count`` are all padding.
    """
    packed = np.packbits(bits).reshape(-1, 3)
    first, second, third = packed[:, 0], packed[:, 1], packed[:, 2]
    quad = np.empty((packed.shape[0], 4), dtype=np.uint8)
    np.right_shift(first, 2, out=quad[:, 0])
    quad[:, 1] = (first & 3) << 4 | second >> 4
    quad[:, 2] = (second & 15) << 2 | third >> 6
    np.bitwise_and(third, 63, out=quad[:, 3])
    quad += 63
    return quad.reshape(-1)[:count].tobytes()


class Graph6Chunks:
    """The graph6 encoding of one set: its size header, then one chunk per group of rows.

    Each iteration packs the groups afresh, one at a time, as they are
    taken.  ``len()`` is the byte count of the whole encoding, known
    without packing; since ``list()`` and ``bytes.join`` size themselves
    by it, join ``iter(chunks)`` instead.
    """

    def __init__(self, s: OrbitIndexSet) -> None:
        self._s = s
        size = 1 << s.n
        self._header = _encode_size(size)
        self._length = len(self._header) + (size * (size - 1) // 2 + 5) // 6

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[bytes]:
        yield self._header
        yield from _pack_upper_triangle(_row0(self._s))


def export_graph6(s: OrbitIndexSet) -> Graph6Chunks:
    """graph6 encoding with vertices 0..2^n-1 ordered by integer value, as chunks of bytes.

    Raises ValueError at the call, before any packing, when n exceeds
    EXPORT_MAX_N.
    """
    if s.n > EXPORT_MAX_N:
        raise ValueError(f"n={s.n} exceeds the graph6 export cap {EXPORT_MAX_N}")
    return Graph6Chunks(s)
