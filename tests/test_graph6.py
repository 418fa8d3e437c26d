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
from oracles import ExplicitGraph, column_gather_graph6, decode_graph6


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
    assert export_graph6(OrbitIndexSet.of(2, {1, 2})) == b"C~"
    assert export_graph6(OrbitIndexSet.of(1, {1})) == b"A_"
    assert export_graph6(OrbitIndexSet.of(2, set())) == b"C?"


def test_medium_size_header():
    blob = export_graph6(OrbitIndexSet.of(6, {1}))
    assert blob.startswith(b"~?@?")  # 64 vertices in the 3-byte header form
    assert decode_graph6(blob).shape == (64, 64)


def test_round_trip_matches_explicit_adjacency():
    for n in range(1, 7):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            graph = ExplicitGraph.build(s)
            decoded = decode_graph6(export_graph6(s))
            assert np.array_equal(decoded, graph.adjacency), s.format()


def test_round_trip_samples_larger():
    rng = random.Random(11)
    for n in (8, 9, 10):
        for _ in range(6):
            s = OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n))
            graph = ExplicitGraph.build(s)
            assert np.array_equal(decode_graph6(export_graph6(s)), graph.adjacency)


def test_matches_networkx_encoder():
    for text in ("n=2;I=1,2", "n=3;I=1", "n=4;I=1,4", "n=5;I=2,5", "n=6;I=1,2,5,6"):
        s = OrbitIndexSet.parse(text)
        graph = ExplicitGraph.build(s)
        nx_graph = nx.from_numpy_array(graph.adjacency)
        expected = nx.to_graph6_bytes(nx_graph, header=False).strip()
        assert export_graph6(s) == expected


def test_decode_tolerates_trailing_newline():
    s = OrbitIndexSet.of(4, {1, 4})
    blob = export_graph6(s)
    assert np.array_equal(decode_graph6(blob + b"\n"), decode_graph6(blob))


def test_export_cap():
    with pytest.raises(ValueError, match="export cap"):
        export_graph6(OrbitIndexSet.of(EXPORT_MAX_N + 1, {1}))


def test_clebsch_export_decodes_to_srg():
    # the decoded graph must certify as (16, 5, 0, 2) from its raw adjacency
    adjacency = decode_graph6(export_graph6(OrbitIndexSet.of(4, {1, 4})))
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
    # n=11 and n=12 bodies hold 2,096,128 and 8,386,560 bits, packed in 2 and 8
    # blocks of about 2^20 bits; two n=12 block ends fall off a multiple of 6
    # and carry 1 and 3 bits into the next block
    rng = random.Random(5)
    for n in (11, 12):
        for _ in range(2):
            s = OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n))
            assert export_graph6(s) == _reference_graph6(s), s.format()


def test_packing_matches_the_column_gather_oracle():
    # every set up to n = 7; at odd n, N is no square, so a block never has
    # as many column chunks as rows; n = 13 and 14 bodies span 32 and 128
    # bit-buffer blocks
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 8) for mask in range(1 << n)]
    rng = random.Random(17)
    for n, count in ((9, 3), (11, 3), (13, 3), (14, 1)):
        sets += [OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n)) for _ in range(count)]
    for s in sets:
        assert export_graph6(s) == column_gather_graph6(s), s.format()


@pytest.mark.parametrize("block_bits", [1, 5, 7, 64, 1000])
def test_streamed_packing_with_small_blocks(monkeypatch, block_bits):
    # blocks far smaller than a column, and boundaries off every multiple of 6
    monkeypatch.setattr(graph6_module, "_BLOCK_BITS", block_bits)
    for n in range(1, 7):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            assert export_graph6(s) == _reference_graph6(s), s.format()
    s = OrbitIndexSet.of(9, {1, 4, 7})
    assert export_graph6(s) == _reference_graph6(s)


def test_export_peak_allocation_stays_within_budget():
    s = OrbitIndexSet.of(12, {1, 4, 5, 8, 9, 12})
    size = 1 << s.n
    out_bytes = 4 + (size * (size - 1) // 2 + 5) // 6  # medium header + body: 1,397,764 B
    export_graph6(s)  # warm the weight-table cache outside the trace
    tracemalloc.start()
    try:
        blob = export_graph6(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(blob) == out_bytes
    # Live at once, at most:
    #   the packed output buffer, returned without a copy          out_bytes
    #   the bit buffer: one block and one row, within              _BLOCK_BITS + size + 12
    #   the first block of 8 rows and one translate block          16 * size
    # The margin covers the int32 indicator and bool row of vertex 0 (5 * size),
    # the packbits temporaries of one 2^17-bit sub-chunk (about 2^14 B each)
    # and interpreter bookkeeping.  An encoder that builds the whole triangle
    # holds N(N-1)/2 = 8.4 MB of bits in several copies, far over this budget.
    block = graph6_module._BLOCK_BITS + size + 12 + 16 * size
    margin = 5 * size + 64 * 1024
    assert peak <= out_bytes + block + margin, peak
