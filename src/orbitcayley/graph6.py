"""graph6 text encoding of the explicit graphs (header-free variant).

The format packs the column-major upper triangle of the adjacency matrix
into 6-bit printable characters offset by 63, preceded by the vertex
count.  Column j of the upper triangle is A[i, j] = A[j, i] for i < j, the
first j entries of row j, so the column-major upper triangle is the
row-major lower triangle.  The graph is a Cayley graph of Z2^n, so row x
is row 0 (``explicit._row0``) translated by x.  Encoding takes rows in
aligned blocks of 8, each the first block (``_first_block``) with its
column chunks permuted, and copies each row's prefix into a bit buffer.
Each full buffer is packed into one preallocated output by
``np.packbits`` in whole 24-bit groups, 3 bytes splitting into 4
characters.  Neither the matrix nor its N(N-1)/2-bit upper triangle is
ever built, and the only index is the chunk order of one block, N/8
entries.  One export takes about 10 ms at n = 12 and 100-150 ms at
n = 14 (best of 3-5, 2-vCPU host, numpy 2.4.6).  The test oracle
``column_gather_graph6`` gathers each column bit by bit through an int64
XOR index instead.
"""

from __future__ import annotations

import numpy as np

from .core import OrbitIndexSet
from .explicit import _row0

# the encoder holds the output string, about 4^n / 12 bytes (1.4 MB at
# n = 12, 22 MB at n = 14), a bit buffer of about 2^20 + 2^n bytes and
# the first block of 8 rows and one translate block, 16 * 2^n bytes
EXPORT_MAX_N = 14

_SIZE_SMALL_MAX = 62
_SIZE_MEDIUM_MAX = 258047
_BLOCK_BITS = 1 << 20  # upper-triangle bits copied before each pack
_PACK_ROWS = 8  # rows per translate block of the encoder
_GROUP_BITS = 24  # bits of 3 packed bytes, which split into 4 characters
_PACK_BITS = (1 << 17) // _GROUP_BITS * _GROUP_BITS  # bits packed by one packbits call


def _encode_size(vertices: int) -> bytes:
    if vertices <= _SIZE_SMALL_MAX:
        return bytes([vertices + 63])
    if vertices <= _SIZE_MEDIUM_MAX:
        groups = [(vertices >> 12) & 63, (vertices >> 6) & 63, vertices & 63]
        return b"~" + bytes(g + 63 for g in groups)
    raise ValueError(f"{vertices} vertices exceeds the supported graph6 size")


def _decode_size(data: bytes) -> tuple[int, int]:
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


def _pack_upper_triangle(row0: np.ndarray, out: np.ndarray) -> None:
    """Write the graph6 body of the graph x ~ y <=> row0[x ^ y] into ``out``.

    The column-major upper triangle is the row-major lower triangle: column
    j holds A[i, j] = A[j, i] for i < j, the first j entries of row j.
    Rows come in aligned blocks of B = ``_PACK_ROWS``.  Write y = h * B + l
    with l < B; then (c * B + i) XOR y = (h XOR c) * B + (i XOR l), so block
    c is the first block with its B-wide column chunks permuted by
    h -> h XOR c, each cut to the column chunks its row prefixes reach.
    Each prefix is copied into a bit buffer until it holds ``_BLOCK_BITS``
    bits; the buffer's whole 24-bit groups are then packed by
    ``_pack_groups``, and the 0-23 bits left over are carried to the front
    of the buffer for the next block.
    """
    size = row0.size
    rows = min(_PACK_ROWS, size)
    chunks = size // rows
    by_chunk = _first_block(row0.view(np.uint8), rows).reshape(rows, chunks, rows)
    hs = np.arange(chunks)
    # before each row the buffer holds less than a block or a carried group;
    # the row adds fewer than N bits, and the last group is padded in place
    bits = np.empty(max(_BLOCK_BITS, _GROUP_BITS) + size, dtype=np.uint8)
    fill = written = 0
    for c in range(chunks):
        # rows c * B + i reach columns y < (c + 1) * B only, in chunks h <= c
        block = np.take(by_chunk, hs[: c + 1] ^ c, axis=1, mode="clip").reshape(rows, -1)
        for i in range(rows):
            j = c * rows + i
            bits[fill : fill + j] = block[i, :j]
            fill += j
            if fill >= _BLOCK_BITS:
                fill, written = _flush(bits, fill, out, written)
    fill, written = _flush(bits, fill, out, written)
    # the last 0-23 bits, zero-padded to one group, give the last 0-4 characters
    bits[fill:_GROUP_BITS] = 0
    last = np.empty(4, dtype=np.uint8)
    _pack_groups(bits[:_GROUP_BITS], last)
    out[written:] = last[: out.size - written]


def _flush(bits: np.ndarray, fill: int, out: np.ndarray, written: int) -> tuple[int, int]:
    """Pack the whole groups of bits[:fill] into out[written:]; carry the rest to the front.

    Returns the new (fill, written).
    """
    whole = fill - fill % _GROUP_BITS
    _pack_groups(bits[:whole], out[written : written + whole // 6])
    bits[: fill - whole] = bits[whole:fill]
    return fill - whole, written + whole // 6


def _pack_groups(bits: np.ndarray, chars: np.ndarray) -> None:
    """Write the graph6 characters of ``bits`` (0/1 bytes, whole 24-bit groups) into ``chars``.

    Each group packs to 3 bytes, split into 4 six-bit characters offset by
    63.  Packed in sub-chunks of _PACK_BITS bits, so the temporaries stay
    small however long ``bits`` is.
    """
    for b0 in range(0, bits.size, _PACK_BITS):
        packed = np.packbits(bits[b0 : b0 + _PACK_BITS]).reshape(-1, 3)
        first, second, third = packed[:, 0], packed[:, 1], packed[:, 2]
        quad = chars[b0 // 6 : (b0 + _PACK_BITS) // 6].reshape(-1, 4)
        np.right_shift(first, 2, out=quad[:, 0])
        quad[:, 1] = (first & 3) << 4 | second >> 4
        quad[:, 2] = (second & 15) << 2 | third >> 6
        np.bitwise_and(third, 63, out=quad[:, 3])
        quad += 63


def export_graph6(s: OrbitIndexSet) -> bytearray:
    """graph6 encoding with vertices 0..2^n-1 ordered by integer value.

    The encoding is packed straight into the returned bytearray, so the
    string is never copied.  Raises ValueError before any allocation when n
    exceeds EXPORT_MAX_N.
    """
    if s.n > EXPORT_MAX_N:
        raise ValueError(f"n={s.n} exceeds the graph6 export cap {EXPORT_MAX_N}")
    size = 1 << s.n
    header = _encode_size(size)
    body = (size * (size - 1) // 2 + 5) // 6
    out = bytearray(len(header) + body)
    out[: len(header)] = header
    _pack_upper_triangle(_row0(s), np.frombuffer(out, dtype=np.uint8)[len(header) :])
    return out


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
