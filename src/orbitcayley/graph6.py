"""graph6 text encoding of the explicit graphs (header-free variant).

The format packs the column-major upper triangle of the adjacency matrix
into 6-bit printable characters offset by 63, preceded by the vertex
count.  Encoding streams one column at a time from vertex 0's adjacency
row, so no full matrix is materialized.
"""

from __future__ import annotations

import numpy as np

from .core import OrbitIndexSet
from .explicit import EXPLICIT_HARD_MAX_N, _row0, check_explicit_cap

_SIZE_SMALL_MAX = 62
_SIZE_MEDIUM_MAX = 258047


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


def _pack_bits(bits: np.ndarray) -> bytes:
    pad = (-bits.size) % 6
    padded = np.concatenate([bits.astype(np.uint8), np.zeros(pad, dtype=np.uint8)])
    groups = padded.reshape(-1, 6)
    values = groups @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    return values.astype(np.uint8).tobytes()


def export_graph6(s: OrbitIndexSet, max_n: int = EXPLICIT_HARD_MAX_N) -> bytes:
    """graph6 encoding with vertices 0..2^n-1 ordered by integer value."""
    check_explicit_cap(max_n, s.n)
    row0 = _row0(s)
    size = 1 << s.n
    xs = np.arange(size)
    columns = [row0[xs[:j] ^ j] for j in range(1, size)]
    bits = np.concatenate(columns) if columns else np.zeros(0, dtype=bool)
    return _encode_size(size) + _pack_bits(bits)


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
