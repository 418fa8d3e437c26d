"""graph6 text encoding of the explicit graphs (header-free variant).

The format packs the column-major upper triangle of the adjacency matrix
into 6-bit printable characters offset by 63, preceded by the vertex
count.  Column j of the upper triangle is A[i, j] = A[j, i] for i < j, the
first j entries of row j, so the column-major upper triangle is the
row-major lower triangle.  The graph is a Cayley graph of Z2^n, so row x
is row 0 (``explicit._row0``) translated by x.  The encoder works on
64-bit words and never holds one byte per bit: it packs the first 64 rows
once, takes each block of 64 rows as words of those, shifts each row's
words to its start bit, and turns each whole run of 3 words into 32
characters.  ``export_graph6`` returns the header and then one chunk of
characters per block, each encoded as it is taken, so a writer that
writes each chunk as it comes never holds the whole string.  The test
oracle ``column_gather_graph6`` gathers each column bit by bit through an
int64 XOR index instead, and ``decode_graph6``, also in
``tests/oracles.py``, reads a string back into its adjacency matrix.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .core import OrbitIndexSet
from .explicit import _row0

# bounds time (about 50 ms at n = 14) and the output, about 4^n / 12 bytes
# (1.4 MB at n = 12, 22 MB at n = 14); the encoder holds the first 64 rows
# as words (8 * 2^n bytes) and one block's words and characters, never the
# whole string, a traced peak of about 77 * 2^n bytes
EXPORT_MAX_N = 14

_SIZE_SMALL_MAX = 62
_SIZE_MEDIUM_MAX = 258047
_BLOCK_ROWS = 64  # rows per block, at most 64; fewer give the same bytes in more chunks


def _encode_size(vertices: int) -> bytes:
    if vertices <= _SIZE_SMALL_MAX:
        return bytes([vertices + 63])
    if vertices <= _SIZE_MEDIUM_MAX:
        groups = [(vertices >> 12) & 63, (vertices >> 6) & 63, vertices & 63]
        return b"~" + bytes(g + 63 for g in groups)
    raise ValueError(f"{vertices} vertices exceeds the supported graph6 size")


def _first_rows(row0: np.ndarray) -> np.ndarray:
    """F[L, c] = row0[L ^ y] for y = 64c..64c+63 as one word, first bit highest, for L < min(N, 64).

    Row 0 is packed once, zero-padded to one word below N = 64.  Within a
    word, y -> y ^ 2^b swaps adjacent runs of 2^b bits, which makes rows
    2^b..2^(b+1)-1 from rows 0..2^b-1 and leaves the padding in place.
    """
    size = row0.size
    bits = np.zeros(max(size, 64), dtype=bool)
    bits[:size] = row0
    first = np.empty((min(size, 64), bits.size // 64), dtype=np.uint64)
    first[0] = np.packbits(bits).view(">u8")
    for b in range(first.shape[0].bit_length() - 1):
        run, mask = np.uint64(1 << b), np.uint64(sum(1 << p for p in range(64) if not p >> b & 1))
        low, high = first[: 1 << b], first[1 << b : 2 << b]
        np.bitwise_and(low >> run, mask, out=high)
        high |= (low & mask) << run
    return first


def _pack_upper_triangle(row0: np.ndarray) -> Iterator[bytes]:
    """Yield the graph6 body of the graph x ~ y <=> row0[x ^ y], one block of rows at a time.

    With y = 64K + l, l < 64, (64H + L) XOR y = 64(H XOR K) + (L XOR l), so
    row j = 64H + L is words H XOR K, K < H, of row L of ``_first_rows`` and
    the top L bits of its word 0.  A block is up to ``_BLOCK_ROWS`` rows of
    one H.  Row j starts at bit o = j(j-1)/2: its word K, shifted right by
    o mod 64, lands in word o // 64 + K, and the bits shifted out, left by
    64 - o mod 64, in the next.  From H = 1 on a row spans two words or
    more, so it shares only its first word with the row before, whose last
    word is merged into it; a block's last row carries its last word into
    the next block.  Rows of H = 0, shorter than a word, can share a word
    with several others; they are joined as one Python integer.  The words
    past the last whole 3-word run are carried too, and only the last block
    is zero-padded.  Each block works in views of buffers sized for the last
    one: blocks that allocated afresh, each larger than the one before, left
    freed holes that grew the heap.
    """
    size = row0.size
    first = _first_rows(row0)
    top = ~(~np.uint64(0) >> np.arange(64, dtype=np.uint64))  # the top L bits of a word
    # row j = 64H + L starts at bit j(j-1)/2, which is L(L-1)/2 + 32H mod 64
    shifts = [[(L * (L - 1) // 2 + h) % 64 for L in range(64)] for h in (0, 32)]
    shifts = np.array(shifts, dtype=np.uint64)
    # whether row j + 1 starts in word H + 1 of row j, not in its word H
    spills = shifts + np.arange(64, dtype=np.uint64) >= 64
    count, done = (size * (size - 1) // 2 + 5) // 6, 0
    carry = np.uint64(0)  # the bits before the next row in the word it starts in
    words_buf = np.empty(first.size, dtype=np.uint64)
    head_buf = np.empty(first.size, dtype=np.uint64)
    keep_buf = np.empty(first.size, dtype=bool)
    # the words past the last whole run, a block's words and the last block's padding
    stream = np.empty(first.size + 5, dtype=np.uint64)
    fill = 0
    j0 = 0
    while j0 < size:
        high, low = divmod(j0, 64)
        rows = min(_BLOCK_ROWS, 64 - low, size - j0)
        if high == 0:  # rows shorter than a word, several to a word: joined as one integer
            width = j0 * (j0 - 1) // 2 % 64
            value = int(carry) >> (64 - width)
            for j, word in enumerate(first[j0 : j0 + rows, 0].tolist(), j0):
                value = value << j | word >> (64 - j)
                width += j
            full = width // 64
            joined = (value << (64 * full + 64 - width)).to_bytes(8 * full + 8, "big")
            stream[fill : fill + full + 1] = np.frombuffer(joined, ">u8")
            fill += full
            carry = stream[fill]
        else:
            shift = shifts[high & 1, low : low + rows, None]
            spill = spills[high & 1, low : low + rows]
            shape = (rows, high + 1)
            words = words_buf[: rows * (high + 1)].reshape(shape)
            # the columns are in range; "clip" skips the buffered copy of "raise"
            columns = high ^ np.arange(high + 1)
            np.take(first[low : low + rows], columns, axis=1, out=words, mode="clip")
            words[:, high] &= top[low : low + rows]
            head = np.right_shift(words, shift, out=head_buf[: words.size].reshape(shape))
            words <<= np.uint64(64) - shift  # a shift by 64 leaves 0
            head[:, 1:] |= words[:, :-1]
            last = np.where(spill, words[:, high], head[:, high])
            head[1:, 0] |= last[:-1]
            head[0, 0] |= carry
            carry = last[-1]
            keep = keep_buf[: words.size].reshape(shape)
            keep[:] = True
            keep[:, high] = spill
            kept = rows * high + int(spill.sum())
            np.compress(keep.ravel(), head.ravel(), out=stream[fill : fill + kept])
            fill += kept
        j0 += rows
        if j0 == size:
            stream[fill : fill + 3] = carry, 0, 0  # the last word, then zeros to a whole run
            fill += 3
        whole = fill - fill % 3
        chunk = _characters(stream[:whole])[: count - done]
        stream[: fill - whole] = stream[whole:fill]
        fill -= whole
        done += len(chunk)
        yield chunk


def _characters(words: np.ndarray) -> bytes:
    """The graph6 characters of whole 3-word runs, 32 to a run.

    A run is four 48-bit pieces.  Each piece spreads into the eight bytes of
    a word, 6 bits to a byte and its first character in the top byte, then
    gets 63 added to every byte; a byte swap puts the top byte first.
    """
    runs = words.reshape(-1, 3)
    pieces = np.empty((runs.shape[0], 4), dtype=np.uint64)
    np.right_shift(runs[:, 0], np.uint64(16), out=pieces[:, 0])
    pieces[:, 1] = runs[:, 0] << np.uint64(32) | runs[:, 1] >> np.uint64(32)
    pieces[:, 2] = runs[:, 1] << np.uint64(16) | runs[:, 2] >> np.uint64(48)
    pieces[:, 3] = runs[:, 2]
    spread = pieces.reshape(-1)
    moved = np.empty_like(spread)
    # split each 48-, 24- and then 12-bit field in two: the low half stays at
    # the bottom of a lane of 2 * half bits and the high half moves to its middle
    for half, low in ((32, 0xFFFFFF), (16, 0xFFF00000FFF), (8, 0x3F003F003F003F)):
        np.left_shift(spread, np.uint64(half // 4), out=moved)
        moved &= np.uint64(low << half)
        spread &= np.uint64(low)
        spread |= moved
    spread += np.uint64(0x3F3F3F3F3F3F3F3F)
    return spread.byteswap(inplace=True).tobytes()


class Graph6Chunks:
    """The graph6 encoding of one set: its size header, then one chunk per block of rows.

    Each iteration encodes the blocks afresh, one at a time, as they are
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
