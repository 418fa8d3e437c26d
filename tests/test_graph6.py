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
    # header and body bytes; the chunks are the header and one per 48-row group
    sets = [OrbitIndexSet.of(1, {1}), OrbitIndexSet.of(6, {1}), OrbitIndexSet.of(7, {1, 4, 5})]
    sets += [OrbitIndexSet.of(n, {1, n}) for n in (9, 12)]
    for s in sets:
        chunks = list(iter(export_graph6(s)))
        assert len(chunks) == 1 + -(-(1 << s.n) // graph6_module._GROUP_ROWS), s.format()
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
    # n=11 and n=12 bodies hold 2,096,128 and 8,386,560 bits, packed in 43 and
    # 86 groups of 48 rows; the last n=11 group ends 16 bits into a 24-bit
    # group and is zero-padded, the last n=12 group ends on a 24-bit boundary
    rng = random.Random(5)
    for n in (11, 12):
        for _ in range(2):
            s = OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n))
            assert graph6_bytes(s) == _reference_graph6(s), s.format()


def test_packing_matches_the_column_gather_oracle():
    # every set up to n = 7; at odd n, N is no square, so a block never has
    # as many column chunks as rows; n = 13 and 14 bodies span 171 and 342
    # groups of 48 rows
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 8) for mask in range(1 << n)]
    rng = random.Random(17)
    for n, count in ((9, 3), (11, 3), (13, 3), (14, 1)):
        sets += [OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n)) for _ in range(count)]
    for s in sets:
        assert graph6_bytes(s) == column_gather_graph6(s), s.format()


def test_every_group_of_rows_starts_a_24_bit_group(monkeypatch):
    # row j starts at bit j(j-1)/2, so a group boundary at every multiple of
    # _GROUP_ROWS starts a new 3-byte, 4-character group
    group_rows = graph6_module._GROUP_ROWS
    for j in range(group_rows, 1 << EXPORT_MAX_N, group_rows):
        assert j * (j - 1) // 2 % 24 == 0, j
    # any multiple of the group size packs the same bytes; up to n = 5 the
    # body is one partial group, at n = 6 (N = 64) one whole group and one
    # partial group at 48 rows, one partial group at 96 and 144 rows
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 8) for mask in range(1 << n)]
    rng = random.Random(23)
    for n in (9, 11):
        sets += [OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n)) for _ in range(2)]
    expected = [graph6_bytes(s) for s in sets]
    for multiple in (2, 3):
        monkeypatch.setattr(graph6_module, "_GROUP_ROWS", multiple * group_rows)
        for s, blob in zip(sets, expected):
            assert graph6_bytes(s) == blob, (s.format(), multiple)


@pytest.mark.parametrize("group_multiple", [1, 5, 7, 64, 1000])
def test_streamed_packing_with_small_blocks(monkeypatch, group_multiple):
    # groups of 48, 240, 336, 3072 and 48,000 rows against the reference
    # encoder: at n = 9 (512 rows) that is 11, 3, 2, 1 and 1 groups, so group
    # ends fall mid-block, mid-chunk and past the last row
    monkeypatch.setattr(graph6_module, "_GROUP_ROWS", group_multiple * graph6_module._GROUP_ROWS)
    for n in range(1, 7):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            assert graph6_bytes(s) == _reference_graph6(s), s.format()
    s = OrbitIndexSet.of(9, {1, 4, 7})
    assert graph6_bytes(s) == _reference_graph6(s)


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
        # Live at once, at most:
        #   the bit buffer: one group of rows and the last padding     _GROUP_ROWS * size + 24
        #   the int64 XOR index of the first block of 8 rows           64 * size
        #   the first block of 8 rows and one translate block          16 * size
        # The margin covers the int32 indicator and bool row of vertex 0 (5 * size),
        # the packed bytes, characters and shift temporaries of one group
        # (20 * size) and interpreter bookkeeping.  About 96 * size was
        # measured (0.39 MB at n = 12, 1.57 MB at n = 14).  An encoder that
        # holds the whole string, 4^n / 12 bytes, or builds the whole
        # triangle, N(N-1)/2 bits in several copies, is far over this budget.
        buffers = graph6_module._GROUP_ROWS * size + 24 + 64 * size + 16 * size
        margin = 25 * size + 64 * 1024
        assert peak <= buffers + margin, (s.n, peak)
