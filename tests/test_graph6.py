"""graph6 encoding: canonical strings, round trips, and a networkx cross-check."""

from __future__ import annotations

import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest

import orbitcayley.graph6 as graph6_module
from orbitcayley.core import OrbitIndexSet
from orbitcayley.graph6 import EXPORT_MAX_N, _encode_size, export_graph6
from oracles import ExplicitGraph, column_gather_graph6, decode_graph6, graph6_bytes


def _reference_graph6(s):
    """Column-concatenation encoder: the whole upper triangle as one bit string, then 6-bit groups."""
    adjacency = ExplicitGraph.build(s).adjacency
    size = adjacency.shape[0]
    columns = [adjacency[:j, j] for j in range(1, size)]
    bits = np.concatenate(columns).astype(np.int64) if columns else np.zeros(0, dtype=np.int64)
    bits = np.concatenate([bits, np.zeros((-bits.size) % 6, dtype=np.int64)])
    chars = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1]) + 63
    return _encode_size(size) + chars.astype(np.uint8).tobytes()


def test_canonical_small_encodings():
    assert graph6_bytes(OrbitIndexSet.of(2, {1, 2})) == b"C~"
    assert graph6_bytes(OrbitIndexSet.of(1, {1})) == b"A_"
    assert graph6_bytes(OrbitIndexSet.of(2, set())) == b"C?"


def test_medium_size_header():
    blob = graph6_bytes(OrbitIndexSet.of(6, {1}))
    assert blob.startswith(b"~?@?")  # 64 vertices in the 3-byte header form
    assert decode_graph6(blob).shape == (64, 64)


def test_round_trip_matches_explicit_adjacency():
    for n in range(1, 7):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            graph = ExplicitGraph.build(s)
            decoded = decode_graph6(graph6_bytes(s))
            assert np.array_equal(decoded, graph.adjacency), s.format()


def test_round_trip_samples_larger():
    rng = random.Random(11)
    for n in (8, 9, 10):
        for _ in range(6):
            s = OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n))
            graph = ExplicitGraph.build(s)
            assert np.array_equal(decode_graph6(graph6_bytes(s)), graph.adjacency)


def test_matches_networkx_encoder():
    for text in ("n=2;I=1,2", "n=3;I=1", "n=4;I=1,4", "n=5;I=2,5", "n=6;I=1,2,5,6"):
        s = OrbitIndexSet.parse(text)
        graph = ExplicitGraph.build(s)
        nx_graph = nx.from_numpy_array(graph.adjacency)
        expected = nx.to_graph6_bytes(nx_graph, header=False).strip()
        assert graph6_bytes(s) == expected


def test_decode_tolerates_trailing_newline():
    s = OrbitIndexSet.of(4, {1, 4})
    blob = graph6_bytes(s)
    assert np.array_equal(decode_graph6(blob + b"\n"), decode_graph6(blob))


def test_export_cap(monkeypatch):
    def no_packing(*args):
        pytest.fail("packing ran before the cap was checked")

    monkeypatch.setattr(graph6_module, "_pack_upper_triangle", no_packing)
    with pytest.raises(ValueError, match="export cap"):
        export_graph6(OrbitIndexSet.of(EXPORT_MAX_N + 1, {1}))


def test_length_is_the_byte_count_without_packing(monkeypatch):
    # header and body bytes; the chunks are the header and one per block of
    # 64 rows, a single block below N = 64
    sets = [OrbitIndexSet.of(1, {1}), OrbitIndexSet.of(6, {1}), OrbitIndexSet.of(7, {1, 4, 5})]
    sets += [OrbitIndexSet.of(n, {1, n}) for n in (9, 12)]
    for s in sets:
        chunks = list(iter(export_graph6(s)))
        assert len(chunks) == 1 + -(-(1 << s.n) // graph6_module._BLOCK_ROWS), s.format()
        assert len(export_graph6(s)) == len(b"".join(chunks)) == len(graph6_bytes(s)), s.format()
    monkeypatch.setattr(graph6_module, "_pack_upper_triangle", lambda row0: pytest.fail("packed"))
    # 4 header bytes and the body of N(N - 1)/2 bits at N = 2^14, 6 to a byte
    assert len(export_graph6(OrbitIndexSet.of(EXPORT_MAX_N, {1}))) == 22_368_260


def test_clebsch_export_decodes_to_srg():
    # the decoded graph must certify as (16, 5, 0, 2) from its raw adjacency
    adjacency = decode_graph6(graph6_bytes(OrbitIndexSet.of(4, {1, 4})))
    size = adjacency.shape[0]
    degrees = adjacency.sum(axis=1)
    assert size == 16 and degrees.min() == degrees.max() == 5
    counts = (adjacency.astype(int) @ adjacency.astype(int))
    lam = {int(counts[x, y]) for x in range(size) for y in range(x + 1, size) if adjacency[x, y]}
    mu = {int(counts[x, y]) for x in range(size) for y in range(x + 1, size) if not adjacency[x, y]}
    assert lam == {0} and mu == {2}


def test_decode_rejects_malformed_input():
    with pytest.raises(ValueError):
        decode_graph6(b"")
    with pytest.raises(ValueError):
        decode_graph6(b"C~~")  # body too long for 4 vertices
    with pytest.raises(ValueError):
        decode_graph6(b"C")  # body too short
    with pytest.raises(ValueError):
        decode_graph6(b"C" + bytes([20]))  # character below the printable offset
    with pytest.raises(ValueError):
        decode_graph6(b"B" + bytes([63 + 63]))  # nonzero padding bits for 3 vertices
    with pytest.raises(ValueError):
        decode_graph6(bytes([32, 70]))  # size byte below the printable offset


def test_streamed_packing_matches_reference_encoder():
    # n=11 and n=12 bodies hold 2,096,128 and 8,386,560 bits, packed in 32 and
    # 64 blocks of 64 rows; the last n=11 block ends 16 bits into a 24-bit
    # group and is zero-padded, the last n=12 block ends on a 24-bit boundary
    rng = random.Random(5)
    for n in (11, 12):
        for _ in range(2):
            s = OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n))
            assert graph6_bytes(s) == _reference_graph6(s), s.format()


def test_packing_matches_the_column_gather_oracle():
    # every set up to n = 7; n = 13 and 14 bodies span 128 and 256 blocks of
    # 64 rows, whose rows are up to 128 and 256 words long
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 8) for mask in range(1 << n)]
    rng = random.Random(17)
    for n, count in ((9, 3), (11, 3), (13, 3), (14, 1)):
        sets += [OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n)) for _ in range(count)]
    for s in sets:
        assert graph6_bytes(s) == column_gather_graph6(s), s.format()


def test_every_group_of_rows_starts_a_24_bit_group(monkeypatch):
    # each block's chunk is whole 3-word runs, 192 bits or 32 characters, so
    # every chunk starts on a whole character, a whole 64-bit word and a
    # whole 24-bit group, whatever the rows per block; a block stops at every
    # multiple of 64 rows, so blocks of 5 rows leave one of 4 before each
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 8) for mask in range(1 << n)]
    rng = random.Random(23)
    for n in (9, 11):
        sets += [OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n)) for _ in range(2)]
    expected = [graph6_bytes(s) for s in sets]
    for rows in (64, 16, 5):
        monkeypatch.setattr(graph6_module, "_BLOCK_ROWS", rows)
        for s, blob in zip(sets, expected):
            size = 1 << s.n
            header, *body = iter(export_graph6(s))
            assert len(body) == -(-size // 64) * -(-min(size, 64) // rows), (s.format(), rows)
            assert all(len(chunk) % 32 == 0 for chunk in body[:-1]), (s.format(), rows)
            assert header + b"".join(body) == blob, (s.format(), rows)


@pytest.mark.parametrize("block_rows", [1, 5, 7, 64, 1000])
def test_streamed_packing_with_small_blocks(monkeypatch, block_rows):
    # blocks of 1, 5, 7, 64 and 1000 rows against the reference encoder; a
    # block stops at every multiple of 64 rows, so 1000 rows act as 64, and
    # at n = 9 (512 rows) blocks end mid-word, mid-run and past the last row
    monkeypatch.setattr(graph6_module, "_BLOCK_ROWS", block_rows)
    for n in range(1, 7):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            assert graph6_bytes(s) == _reference_graph6(s), s.format()
    s = OrbitIndexSet.of(9, {1, 4, 7})
    assert graph6_bytes(s) == _reference_graph6(s)


@pytest.mark.parametrize("block_rows", [64, 3])
def test_word_seams_match_the_column_gather_oracle(monkeypatch, block_rows):
    # Up to n = 6 every row is shorter than a word and several rows share
    # one; at n = 7 row 64 starts the second block, the first whose rows span
    # two words or more; at n = 9, 11 and 13 blocks end mid-word and 3-word
    # runs end mid-row.  Blocks of 3 rows also end inside a block of 64.
    monkeypatch.setattr(graph6_module, "_BLOCK_ROWS", block_rows)
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 8) for mask in range(1 << n)]
    rng = random.Random(29)
    for n in (9, 11, 13):
        sets += [OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n)) for _ in range(2)]
    for s in sets:
        blob = graph6_bytes(s)
        assert blob == column_gather_graph6(s), s.format()
        # the last character's bits past the N(N-1)/2 of the body are zero
        size = 1 << s.n
        padding = -(size * (size - 1) // 2) % 6
        assert (blob[-1] - 63) & ((1 << padding) - 1) == 0, s.format()
    # complete graphs: every body bit is 1, so the body is all "~" but the
    # last character, whose 1, 4 or 6 body bits lead its zero padding
    for n in range(1, 12):
        size = 1 << n
        blob = graph6_bytes(OrbitIndexSet.of(n, set(range(1, n + 1))))
        body = blob[len(_encode_size(size)) :]
        padding = -(size * (size - 1) // 2) % 6
        assert body == b"~" * (len(body) - 1) + bytes([63 + (63 >> padding << padding)]), n


def test_export_peak_allocation_stays_within_budget():
    for s in (OrbitIndexSet.of(12, {1, 4, 5, 8, 9, 12}), OrbitIndexSet.of(14, {1, 4, 5, 8, 9, 12, 13})):
        size = 1 << s.n
        graph6_bytes(s)  # warm the weight-table cache outside the trace
        tracemalloc.start()
        try:
            # each chunk is dropped once counted, as a file writer drops it
            written = sum(len(chunk) for chunk in export_graph6(s))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # medium header + body: 1,397,764 B at n = 12, 22,368,260 B at n = 14
        assert written == 4 + (size * (size - 1) // 2 + 5) // 6
        # Live at once, at most, at the last block of 64 rows:
        #   the first 64 rows as words                                  8 * size
        #   the block buffers: words, shifted heads and the stream     24 * size
        #   the characters of a block: 48-bit pieces, their shifted
        #   copies and the bytes, 32 of each for 24 stream bytes       32 * size
        # The margin covers the bool row of vertex 0 and the keep mask
        # (2 * size), the chunk the consumer still holds while the next is
        # made (11 * size), the shift temporaries of the pieces (6 * size)
        # and interpreter bookkeeping.  About 77 * size was measured
        # (0.31 MiB at n = 12, 1.20 MiB at n = 14).  An encoder that holds
        # the whole string, 4^n / 12 bytes, or one byte per bit of a block,
        # 32 * 2^n bytes at the last, is far over this budget.
        buffers = 8 * size + 24 * size + 32 * size
        margin = 34 * size + 64 * 1024
        assert peak <= buffers + margin, (s.n, peak)
