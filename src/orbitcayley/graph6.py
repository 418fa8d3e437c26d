"""graph6 text encoding of the explicit graphs (header-free variant).

The format packs the column-major upper triangle of the adjacency matrix
into 6-bit printable characters offset by 63, preceded by the vertex
count.  Encoding gathers one column at a time from vertex 0's adjacency
row and packs the bits block by block into one preallocated buffer, so
neither the matrix nor its N(N-1)/2-bit upper triangle is ever built.
"""

from __future__ import annotations

import numpy as np

from .core import OrbitIndexSet
from .explicit import _row0

# the encoder holds the output string, about 4^n / 12 bytes (1.4 MB at
# n = 12, 22 MB at n = 14), and a bit buffer of about 2^20 + 2^n bytes
EXPORT_MAX_N = 14

_SIZE_SMALL_MAX = 62
_SIZE_MEDIUM_MAX = 258047
_BLOCK_BITS = 1 << 20  # upper-triangle bits gathered before each pack


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


def _pack_upper_triangle(row0: np.ndarray, out: np.ndarray) -> None:
    """Write the graph6 body of the graph x ~ y <=> row0[x ^ y] into ``out``.

    Column j holds bits row0[i ^ j] for i < j.  Columns are gathered into a
    bit buffer until it holds ``_BLOCK_BITS`` bits; the buffer's whole 6-bit
    groups are then packed in place with shifts and ORs, and the 0-5 bits
    left over are carried to the front of the buffer for the next block.
    """
    size = row0.size
    row0 = row0.view(np.uint8)
    # room for the carry (< 6 bits), a block, one more column and the padding (< 6 bits)
    bits = np.zeros(_BLOCK_BITS + size + 12, dtype=np.uint8)
    index = np.empty(size, dtype=np.intp)
    xs = np.arange(size)
    fill = written = 0
    for j in range(1, size):
        np.bitwise_xor(xs[:j], j, out=index[:j])
        # indices are in range by construction; "clip" skips the buffered copy of "raise"
        np.take(row0, index[:j], out=bits[fill : fill + j], mode="clip")
        fill += j
        last = j == size - 1
        if fill < _BLOCK_BITS and not last:
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
