"""Pair counting, the three SRG routes, equitable partitions, and families."""

from __future__ import annotations

import json
import random
import re
import tracemalloc
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitcayley.graph6 as graph6_module
import orbitcayley.spectrum as spectrum_module
import orbitcayley.srg as srg_module
from orbitcayley.census import census_bytes
from orbitcayley.cli import EXIT_VERIFICATION_FAILED, main
from orbitcayley.core import CAPS, ConsistencyError, OrbitIndexSet
from orbitcayley.explicit import _row0, _row0_block, _row_constants, walsh_counts
from orbitcayley.spectrum import full_spectrum
from orbitcayley.srg import (
    FAMILIES,
    NONTRIVIAL_FAMILY_KEYS,
    SrgParams,
    VerdictStatus,
    SrgVerdict,
    _SRG_CODE,
    _column_verdict,
    _route_columns,
    _tagged,
    certify,
    dense_columns,
    emit_table1,
    match_families,
    pair_count_table,
    pair_counts,
    verdict_columns,
)

import oracles
from oracles import (
    INT64_WALSH_BOUND,
    ExplicitGraph,
    all_pairs_common_neighbor_constants,
    binom,
    common_neighbor_constants,
    complement_adjacency,
    connected_components,
    forbid_everywhere,
    graph6_bytes,
    is_connected,
    is_connected_adjacency,
    matrix_srg_check,
    pair_count_oracle,
    route_verdict,
    verify_equitable_partition,
)

CLOSED_FORM_CAP, DENSE_CAP = CAPS["closed-form"].limit, CAPS["dense"].limit
_SRG_STATUSES = (VerdictStatus.TRIVIAL_SRG, VerdictStatus.NONTRIVIAL_SRG)


def test_pair_count_examples():
    s = OrbitIndexSet.of(4, {1, 4})
    assert pair_counts(s) == (5, 0, 2, 2, 0)  # SRG(16, 5, 0, 2): lambda at w in I, mu off it
    for n in (3, 5, 8):
        for mask in (1, 3, (1 << n) - 1):
            t = OrbitIndexSet.from_bitmask(n, mask)
            assert pair_counts(t)[0] == t.size()


def test_pair_count_oracle_examples():
    assert pair_count_oracle(OrbitIndexSet.of(2, {1, 2}), 0b11) == 2
    assert pair_count_oracle(OrbitIndexSet.of(3, {1}), 0b110) == 2
    with pytest.raises(ValueError):
        pair_count_oracle(OrbitIndexSet.of(21, {1}), 0)
    with pytest.raises(ValueError):
        pair_count_oracle(OrbitIndexSet.of(3, {1}), 0b1000)


def test_pair_count_matches_oracle_exhaustively():
    # every set with n <= 8, the empty set included, at one vector per weight
    for n in range(1, 9):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            counts = pair_counts(s)
            assert len(counts) == n + 1
            for w, count in enumerate(counts):
                assert count == pair_count_oracle(s, (1 << w) - 1), (s.format(), w)


@settings(max_examples=60)
@given(st.integers(1, 10), st.data())
def test_pair_count_matches_oracle_for_arbitrary_vectors(n, data):
    mask = data.draw(st.integers(1, (1 << n) - 1))
    bits = data.draw(st.integers(0, (1 << n) - 1))
    s = OrbitIndexSet.from_bitmask(n, mask)
    assert pair_counts(s)[bits.bit_count()] == pair_count_oracle(s, bits)


def _pair_count_by_index_pairs(s, w):
    # the literal I x I sum: x in class i, x XOR v in class i2, overlap with supp v fixed
    total = 0
    for i in s.indices:
        for i2 in s.indices:
            if (w + i - i2) % 2 == 0:
                total += binom(w, (w + i - i2) // 2) * binom(s.n - w, (i + i2 - w) // 2)
    return total


@st.composite
def _index_sets(draw):
    n = draw(st.integers(1, 200))
    # at most 16 indices keeps the literal |I|^2 (n + 1) reference fast
    return OrbitIndexSet(n, draw(st.frozensets(st.integers(1, n), max_size=16)))


@settings(max_examples=40, deadline=None)
@given(_index_sets())
@example(OrbitIndexSet(200, frozenset(range(1, 201, 7))))
@example(OrbitIndexSet(2, frozenset({1, 2})))
def test_pair_count_matches_the_index_pair_sum(s):
    for w, count in enumerate(pair_counts(s)):
        assert count == _pair_count_by_index_pairs(s, w), (s.format(), w)


@pytest.mark.parametrize("n", [66, 96, 200])
def test_pair_counts_match_the_index_pair_sum_on_seeded_sets(n):
    # 12 drawn indices, and at n = 66 the family s0s1@4m+2 (33 indices)
    rng = random.Random(n)
    sets = [OrbitIndexSet(n, frozenset(rng.sample(range(1, n + 1), 12))) for _ in range(2)]
    if n == 66:
        sets.append(FAMILIES["s0s1@4m+2"].index_set(16))
    for s in sets:
        for w, count in enumerate(pair_counts(s)):
            assert count == _pair_count_by_index_pairs(s, w), (s.format(), w)


def test_pair_count_table_matches_literal_enumeration():
    for n in range(1, 7):
        table = pair_count_table(n)
        for w in range(n + 1):
            v = (1 << w) - 1
            literal = np.zeros((n + 1, n + 1), dtype=np.int64)
            for x in range(1 << n):
                literal[x.bit_count(), (x ^ v).bit_count()] += 1
            assert np.array_equal(table[w], literal), (n, w)
            for mask in range(1, 1 << n):
                s = OrbitIndexSet.from_bitmask(n, mask)
                member = np.array([int(i in s.indices) for i in range(n + 1)])
                assert member @ table[w] @ member == pair_count_oracle(s, v)


def test_pair_count_handshake():
    for n in range(1, 9):
        for mask in (1, 5 % (1 << n), (1 << n) - 1):
            s = OrbitIndexSet.from_bitmask(n, mask)
            total = sum(comb(n, w) * count for w, count in enumerate(pair_counts(s)))
            assert total == s.size() ** 2


def test_paircount_checker_examples():
    verdict = route_verdict(OrbitIndexSet.of(4, {1, 4}), "pair_count")
    assert verdict.status is VerdictStatus.NONTRIVIAL_SRG
    assert verdict.params == SrgParams(16, 5, 0, 2)

    verdict = route_verdict(OrbitIndexSet.of(6, {2, 3, 6}), "pair_count")
    assert verdict.status is VerdictStatus.NONTRIVIAL_SRG
    assert verdict.params == SrgParams(64, 36, 20, 20)

    for indices, status in (
        ({1}, VerdictStatus.NOT_SRG),
        ({2}, VerdictStatus.DISCONNECTED),
        (set(), VerdictStatus.DISCONNECTED),
    ):
        verdict = route_verdict(OrbitIndexSet.of(4, indices), "pair_count")
        assert verdict.status is status, indices


def test_spectral_checker_examples():
    verdict = route_verdict(OrbitIndexSet.of(4, {1, 4}), "spectral")
    assert verdict.params == SrgParams(16, 5, 0, 2)

    verdict = route_verdict(OrbitIndexSet.of(3, {1, 2}), "spectral")
    assert verdict.status is VerdictStatus.TRIVIAL_SRG
    assert verdict.params == SrgParams(8, 6, 4, 6)

    verdict = route_verdict(OrbitIndexSet.of(2, {1, 2}), "spectral")
    assert verdict.status is VerdictStatus.COMPLETE


def test_explicit_checker_examples():
    verdict = route_verdict(OrbitIndexSet.of(4, {1, 4}), "explicit")
    assert verdict.params == SrgParams(16, 5, 0, 2)

    verdict = route_verdict(OrbitIndexSet.of(4, {1, 3}), "explicit")
    assert verdict.status is VerdictStatus.TRIVIAL_SRG
    assert verdict.params == SrgParams(16, 8, 0, 8)

    s = OrbitIndexSet.of(DENSE_CAP + 1, {1})
    with pytest.raises(ValueError, match="^n=21 exceeds the dense cap 20$"):
        certify(s, s.n)


def _per_row_adjacency(s):
    # row x of the Cayley graph is row 0 translated by XOR, one row at a time
    size = 1 << s.n
    row0 = np.array([x.bit_count() in s.indices for x in range(size)])
    xs = np.arange(size)
    return np.array([row0[xs ^ x] for x in range(size)])


def test_dense_build_matches_the_per_row_reference():
    # n <= 8 fills in one XOR band; n = 12 takes 32 bands of 128 rows
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 7) for mask in range(1 << n)]
    sets += [OrbitIndexSet.of(8, {1, 2, 7, 8}), OrbitIndexSet.of(12, {1, 4, 5, 8, 9, 12})]
    assert len(oracles._bands(1 << 8)) == 1 and len(oracles._bands(1 << 12)) == 32
    for s in sets:
        adjacency = ExplicitGraph.build(s).adjacency
        assert adjacency.dtype == bool and not adjacency.flags.writeable
        assert np.array_equal(adjacency, _per_row_adjacency(s)), s.format()
    # the matrix oracle keeps its own cap, below the dense route's
    assert oracles.MATRIX_MAX_N == 14 < DENSE_CAP
    with pytest.raises(ValueError, match="matrix oracle cap 14"):
        ExplicitGraph.build(OrbitIndexSet.of(oracles.MATRIX_MAX_N + 1, {1}))


def _integer_common_neighbors(adjacency):
    a = adjacency.astype(np.int64)
    return a @ a


def _single_value(values):
    distinct = np.unique(values)
    return int(distinct[0]) if distinct.size == 1 else None


def _integer_constants(adjacency):
    # lambda over every adjacent entry, mu over every other off-diagonal entry
    counts = _integer_common_neighbors(adjacency)
    other = ~adjacency
    np.fill_diagonal(other, False)
    return _single_value(counts[adjacency]), _single_value(counts[other])


def _band_rows(monkeypatch, size, rows):
    # oracle bands of ``rows`` rows for a size-vertex matrix, through the byte bound
    monkeypatch.setattr(oracles, "_BAND_BYTES", 4 * size * rows)


def _xor_band_rows(monkeypatch, size, rows):
    # oracle XOR-index bands of ``rows`` rows for a size-vertex matrix, through
    # the byte bound on one band's int64 index
    monkeypatch.setattr(oracles, "_XOR_BAND_BYTES", 8 * size * rows)
    assert oracles._bands(size)[0] == (0, min(rows, size))


def _read_constant(values, where):
    # one row's value from explicit._row_constants, or None when it holds none
    value, found = _row_constants(values, where)
    return int(value) if found else None


def _walsh_constants(row0):
    # (lambda, mu) as srg.dense_columns reads them from the counts of walsh_counts
    counts = walsh_counts(row0)[2]
    other = ~row0
    other[0] = False
    return _read_constant(counts, row0), _read_constant(counts, other)


def test_masked_constant_reads_one_value_or_none():
    # the oracle's one-mask read and the route's per-row read, on each mask
    # alone and on all of them as the rows of one block
    values = np.array([7, 3, 3, -1], dtype=np.int64)
    cases = [
        ([False, True, True, False], 3),
        ([True, False, False, False], 7),
        ([False, True, True, True], None),
        ([False, False, False, False], None),
    ]
    for mask, expected in cases:
        assert oracles._constant(values, np.array(mask)) == expected, mask
        assert _read_constant(values, np.array(mask)) == expected, mask
    block = np.array([mask for mask, _ in cases])
    value, found = _row_constants(np.tile(values, (len(cases), 1)), block)
    assert [int(v) if f else None for v, f in zip(value, found)] == [e for _, e in cases]
    # the dtype's largest value is read like any other
    top = np.iinfo(np.int64).max
    assert oracles._constant(np.array([top, top]), np.array([True, True])) == top
    assert _read_constant(np.array([top, top]), np.array([True, True])) == top


def test_common_neighbor_constants_match_integer_product(monkeypatch):
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 7) for mask in range(1 << n)]
    rng = random.Random(3)
    sets += [OrbitIndexSet.from_bitmask(8, rng.randrange(1, 1 << 8)) for _ in range(6)]
    honest = oracles._band_product
    bands = []

    def recorded(a, r0, r1):
        bands.append((r0, r1))
        return honest(a, r0, r1)

    monkeypatch.setattr(oracles, "_band_product", recorded)
    band_default = oracles._BAND_BYTES
    xor_default = oracles._XOR_BAND_BYTES
    for s in sets:
        adjacency = ExplicitGraph.build(s).adjacency
        size = adjacency.shape[0]
        expected = _integer_constants(adjacency)
        # one product band and one XOR band by default for n <= 8; product
        # bands of 3, 5 and 7 rows divide no 2^n, so the last band is short
        # and the diagonal blocks have ragged edges; XOR bands of 1, 2 and 4
        # rows split every matrix with n >= 3 into several bands
        for rows, block in ((None, None), (3, 1), (5, 2), (7, 4)):
            bands.clear()
            if rows is None:
                monkeypatch.setattr(oracles, "_BAND_BYTES", band_default)
                monkeypatch.setattr(oracles, "_XOR_BAND_BYTES", xor_default)
            else:
                _band_rows(monkeypatch, size, rows)
                _xor_band_rows(monkeypatch, size, block)
            assert all_pairs_common_neighbor_constants(adjacency) == expected, (s.format(), rows)
            step = rows or size
            assert bands == [(r0, min(r0 + step, size)) for r0 in range(0, size, step)]
            assert common_neighbor_constants(adjacency) == expected, (s.format(), block)
            assert _walsh_constants(_row0(s)) == expected, (s.format(), block)


def test_every_translate_block_shape_gives_the_same_results(monkeypatch):
    # every power-of-two block of translated rows from 1 row to min(N, 64) in
    # the graph6 encoder, against its default blocks of 64 rows
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 7) for mask in range(1 << n)]
    sets.append(OrbitIndexSet.of(9, {1, 4, 6, 9}))
    for s in sets:
        blob = graph6_bytes(s)
        for k in range(min(s.n, 6) + 1):
            monkeypatch.setattr(graph6_module, "_BLOCK_ROWS", 1 << k)
            assert graph6_bytes(s) == blob, (s.format(), k)
        monkeypatch.undo()


# every set up to n = 8, and at n = 12 one SRG and one connected set that is not
_ORACLE_SETS = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 9) for mask in range(1 << n)]
_ORACLE_SETS += [FAMILIES["s0s1@4m"].index_set(3), OrbitIndexSet.of(12, {1, 2, 5})]


def test_common_neighbor_constants_match_the_all_pairs_oracle():
    # the premise pass on the matrix and the Walsh counts of row 0, against
    # every pair; the Walsh counts equal the literal counts entry by entry
    for s in _ORACLE_SETS:
        adjacency = ExplicitGraph.build(s).adjacency
        expected = all_pairs_common_neighbor_constants(adjacency)
        assert common_neighbor_constants(adjacency) == expected, s.format()
        assert _walsh_constants(_row0(s)) == expected, s.format()
        literal = oracles._vertex0_counts(adjacency)
        assert np.array_equal(walsh_counts(_row0(s))[2], literal), s.format()
    assert expected[1] is None  # n=12;I=1,2,5 is not strongly regular


def test_row0_route_matches_the_matrix_oracle():
    # connectivity, degree, lambda, mu and trivial vs nontrivial, from row 0
    # alone, against BFS, every degree, the premise pass and the complement's
    # components on the built matrix: set by set, and as the rows of one
    # dense_columns block per dimension
    statuses = set()
    by_n = {}
    for s in _ORACLE_SETS:
        verdict = matrix_srg_check(s)
        assert _tagged(s, route_verdict(s, "explicit")) == verdict, s.format()
        by_n.setdefault(s.n, []).append((s, verdict))
        statuses.add(verdict.status)
        if verdict.status is VerdictStatus.TRIVIAL_SRG:
            parts = connected_components(ExplicitGraph.build(s.complement()).adjacency)
            assert len(parts) > 1, s.format()
    assert statuses == set(VerdictStatus)
    for n, rows in by_n.items():
        member = np.array([[i in s.indices for i in range(1, n + 1)] for s, _ in rows])
        for (s, verdict), row in zip(rows, dense_columns(_row0_block(member)).tolist()):
            assert _tagged(s, _column_verdict(n, row)) == verdict, s.format()


def test_route_columns_code_is_the_first_gate_that_holds():
    # the statuses in gate order, then one row per combination of the four
    # gates: its code is the position of the first gate that holds, or
    # NONTRIVIAL_SRG when none does, and its parameters are 0 below _SRG_CODE
    assert list(VerdictStatus) == [
        VerdictStatus.DISCONNECTED,
        VerdictStatus.COMPLETE,
        VerdictStatus.NOT_SRG,
        VerdictStatus.TRIVIAL_SRG,
        VerdictStatus.NONTRIVIAL_SRG,
    ]
    assert _SRG_CODE == 3
    combinations = list(product([False, True], repeat=4))
    gates = [np.array(gate) for gate in zip(*combinations)]
    params = tuple(np.arange(16) + base for base in (100, 200, 300))
    rows = _route_columns(gates, params).tolist()
    assert len(rows) == 16
    for row, holds in enumerate(combinations):
        code = holds.index(True) if any(holds) else 4
        kept = [p[row] for p in params] if code >= _SRG_CODE else [0, 0, 0]
        assert rows[row] == [code, *kept], holds
    # an object table keeps Python ints, exact above 2^63
    big = tuple(np.array([(1 << 64) + k], dtype=object) for k in range(3))
    for code in range(5):
        gates = [np.array([c == code]) for c in range(4)]
        row = _route_columns(gates, big).tolist()[0]
        kept = [(1 << 64) + k for k in range(3)] if code >= _SRG_CODE else [0, 0, 0]
        assert row == [code, *kept]


def test_dense_columns_read_no_closed_form(monkeypatch):
    # the dense route shares only the encoding with the closed forms: with
    # every closed-form rule and kernel banned, each row of every set with
    # n <= 8 is unchanged
    members = [(np.arange(1 << n)[:, None] >> np.arange(n)) & 1 for n in range(1, 9)]
    expected = [dense_columns(_row0_block(member)) for member in members]

    def forbidden(*args, **kwargs):
        raise AssertionError("the dense route ran a closed-form rule")

    forbid_everywhere(
        monkeypatch,
        (
            srg_module._connected_column,
            verdict_columns,
            pair_counts,
            pair_count_table,
            spectrum_module.full_spectrum,
            spectrum_module.character_sum_row,
        ),
        forbidden,
    )
    for member, rows in zip(members, expected):
        assert np.array_equal(dense_columns(_row0_block(member)), rows)


def test_butterflies_reject_a_block_that_is_not_c_contiguous():
    # reshape would copy an F-ordered block and the in-place stages would
    # write to the copy; astype keeps the order, so walsh_counts meets it too
    member = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0]], dtype=np.int8)
    block = np.asfortranarray(_row0_block(member))
    assert not block.flags.c_contiguous
    with pytest.raises(ValueError, match="C-contiguous"):
        walsh_counts(block)
    fhat = block.astype(np.int64)
    with pytest.raises(ValueError, match="C-contiguous"):
        spectrum_module._butterflies(fhat, 1, fhat.shape[1])
    assert np.array_equal(fhat, block)


def _xor_adjacency(row0):
    # the Cayley graph of Z2^n with connection set {y : row0[y]}, for any 0/1 row
    xs = np.arange(row0.size)
    return row0[xs[:, None] ^ xs]


def test_row0_route_on_connection_sets_that_are_no_union_of_weight_classes():
    # arbitrary connection sets: the connectivity and trivial flags against
    # BFS on the graph and its complement, and the Walsh counts against the
    # literal counts and every pair, on the same XOR-translated matrix
    rng = np.random.default_rng(5)
    rows = [np.zeros(1 << n, dtype=bool) for n in range(1, 7)]
    for n in range(1, 8):
        for density in (0.05, 0.2, 0.5, 0.9):
            for _ in range(6):
                row0 = rng.random(1 << n) < density
                row0[0] = False
                rows.append(row0)
    rows += [np.eye(1, 1 << n, 1 << b, dtype=bool)[0] for n in (4, 6) for b in range(n)]
    seen = set()
    for row0 in rows:
        adjacency = _xor_adjacency(row0)
        connected, complement_connected, counts = walsh_counts(row0)
        assert connected == is_connected_adjacency(adjacency), row0.nonzero()
        complement = complement_adjacency(adjacency)
        assert complement_connected == is_connected_adjacency(complement), row0.nonzero()
        seen.add((connected, complement_connected))
        assert np.array_equal(counts, oracles._vertex0_counts(adjacency)), row0.nonzero()
        expected = all_pairs_common_neighbor_constants(adjacency)
        assert _walsh_constants(row0) == expected, row0.nonzero()
    assert seen == {(True, True), (True, False), (False, True)}


def test_walsh_flags_match_the_closed_connectivity_test_up_to_n12():
    # connected and complement connected from the transform of rows 0, one
    # block of at most 2^16 entries at a time, against the oracle
    # is_connected (its rule on the parities of the member weights) on every
    # set with n <= 12
    for n in range(1, 13):
        masks = np.arange(1, 1 << n)
        member = (masks[:, None] >> np.arange(n)) & 1
        rows = max(1, (1 << 16) >> n)
        for r0 in range(0, masks.size, rows):
            flags = walsh_counts(_row0_block(member[r0 : r0 + rows]))[:2]
            for mask, connected, complement_connected in zip(
                masks[r0 : r0 + rows].tolist(), *(f.tolist() for f in flags)
            ):
                s = OrbitIndexSet.from_bitmask(n, mask)
                assert connected == is_connected(s), s.format()
                assert complement_connected == is_connected(s.complement()), s.format()


def test_common_neighbor_float32_bound_is_checked_before_any_work():
    # a zero-stride view stands for the 2^24-vertex matrix; nothing large is allocated
    with pytest.raises(ValueError, match="float32-exact bound"):
        all_pairs_common_neighbor_constants(np.broadcast_to(False, (1 << 24, 1 << 24)))


def _six_cycle():
    cycle = np.roll(np.eye(6, dtype=bool), 1, axis=1)
    return cycle | cycle.T


@pytest.mark.parametrize("entry", [(3, 5), (5, 3)])
def test_asymmetric_adjacency_raises_before_any_product(monkeypatch, entry):
    # the 6-cycle plus the chord {3, 5} in one direction only, in bands of 2 rows,
    # so the bad entry sits in the second band and off its diagonal tile
    adjacency = _six_cycle()
    adjacency[entry] = True

    def no_product(a, r0, r1):
        pytest.fail(f"band {r0}:{r1} formed before the symmetry check failed")

    monkeypatch.setattr(oracles, "_band_product", no_product)
    _band_rows(monkeypatch, 6, 2)
    with pytest.raises(ConsistencyError, match=r"not symmetric: entry \(3, 5\)"):
        all_pairs_common_neighbor_constants(adjacency)


def test_cayley_premise_on_the_shape_raises_before_any_count(monkeypatch):
    looped = ExplicitGraph.build(OrbitIndexSet.of(4, {1, 4})).adjacency.copy()
    looped[0, 0] = True

    def no_band(row0, x0, x1):
        pytest.fail("a band was read before the premise on the shape failed")

    monkeypatch.setattr(oracles, "_xor_band", no_band)
    # 6 vertices are no Z2^n, though the 6-cycle is a symmetric, loopless Cayley graph of Z6
    with pytest.raises(ConsistencyError, match="6 vertices are not a power of two"):
        common_neighbor_constants(_six_cycle())
    with pytest.raises(ConsistencyError, match=r"A\[0, 0\] = True"):
        common_neighbor_constants(looped)


@pytest.mark.parametrize(
    "flip, named",
    [
        # off row 0: the flipped entry itself, in the second band of 4 rows
        ((7, 12), (7, 12)),
        # in row 0, which every other row is compared with: the first row
        # that disagrees is row 1, at its translate of column 6
        ((0, 6), (1, 7)),
    ],
)
def test_cayley_premise_names_the_first_disagreeing_entry(monkeypatch, flip, named):
    s = OrbitIndexSet.of(4, {1, 4})
    built = ExplicitGraph.build(s)
    adjacency = built.adjacency.copy()
    adjacency[flip] = ~adjacency[flip]
    x, y = named
    message = rf"A\[{x}, {y}\] = {adjacency[x, y]} but A\[0, {x ^ y}\] = {adjacency[0, x ^ y]}"
    assert adjacency[x, y] != adjacency[0, x ^ y]
    _xor_band_rows(monkeypatch, 16, 4)
    with pytest.raises(ConsistencyError, match=message):
        common_neighbor_constants(adjacency)
    # through the matrix route, the error also names the set
    monkeypatch.setattr(ExplicitGraph, "build", classmethod(lambda cls, t: cls(t, adjacency)))
    with pytest.raises(ConsistencyError, match=rf"n=4;I=1,4: .*{message}"):
        matrix_srg_check(s)


def test_cayley_premise_fails_in_a_permuted_chunk(monkeypatch):
    # in bands of 256 rows at n = 9, the flip sits in the second band, in
    # its second 256-column half, where row x reads row 0's first half
    s = OrbitIndexSet.of(9, {1, 4, 6, 9})
    adjacency = ExplicitGraph.build(s).adjacency.copy()
    rows = 256
    _xor_band_rows(monkeypatch, 2 * rows, rows)
    x, y = rows + 3, rows + 133
    adjacency[x, y] = ~adjacency[x, y]
    message = rf"A\[{x}, {y}\] = {adjacency[x, y]} but A\[0, {x ^ y}\] = {adjacency[0, x ^ y]}"
    with pytest.raises(ConsistencyError, match=message):
        common_neighbor_constants(adjacency)
    monkeypatch.setattr(ExplicitGraph, "build", classmethod(lambda cls, t: cls(t, adjacency)))
    with pytest.raises(ConsistencyError, match=rf"n=9;I=1,4,6,9: .*{message}"):
        matrix_srg_check(s)


@pytest.mark.parametrize("adjacent", [True, False])
def test_explicit_route_catches_one_perturbed_count(monkeypatch, adjacent):
    # one of vertex 0's counts, at a neighbour of 0 (lambda) or at a non-neighbour (mu)
    s = OrbitIndexSet.of(4, {1, 4})
    row0 = _row0(s)
    assert route_verdict(s, "explicit").status is VerdictStatus.NONTRIVIAL_SRG
    y = next(y for y in range(1, 16) if row0[y] == adjacent)
    honest = srg_module.walsh_counts

    def perturbed(block):
        connected, complement_connected, counts = honest(block)
        counts[..., y] += 1
        return connected, complement_connected, counts

    monkeypatch.setattr(srg_module, "walsh_counts", perturbed)
    assert route_verdict(s, "explicit").status is VerdictStatus.NOT_SRG, y
    with pytest.raises(ConsistencyError, match="n=4;I=1,4"):
        certify(s, DENSE_CAP)


def test_dense_check_peak_allocation_at_n12():
    s = OrbitIndexSet.of(12, {1, 4, 5, 8, 9, 12})
    route_verdict(OrbitIndexSet.of(4, {1, 4}), "explicit")  # warm caches outside the trace
    tracemalloc.start()
    try:
        verdict = route_verdict(s, "explicit")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status is VerdictStatus.NONTRIVIAL_SRG
    # the matrix route held the bool adjacency (4^n B) and the complement
    # copied for an SRG (4^n B); the row-0 route holds neither
    assert peak < 3 * 4**s.n, peak / 4**s.n


def _traced_explicit_check(s):
    # the dense verdict of s and the traced peak of that one call
    tracemalloc.start()
    try:
        verdict = route_verdict(s, "explicit")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return verdict, peak


def test_dense_check_peak_allocation_at_n14():
    # row 0 and the int64 Walsh vector hold 9 * 2^n B, about 0.35 MB
    # measured, under a bound of 0.5 MB + 12 * 2^n B; the bool adjacency
    # alone is 4^n B = 256 MB
    s = FAMILIES["s0s1@4m+2"].index_set(3)  # an SRG, so every step runs
    assert s.n == 14
    verdict, peak = _traced_explicit_check(s)
    assert verdict.status is VerdictStatus.NONTRIVIAL_SRG
    assert peak < 524_288 + 12 * 2**s.n, peak


def test_dense_check_peak_allocation_at_n20():
    # row 0 (2^n B), the int64 Walsh vector (8 * 2^n B) and one bool mask;
    # lambda and mu gather no counts, so a small S, whose mu would gather
    # almost every count, costs no more than an SRG: 10.0 * 2^n B measured
    # for both
    for s, status in (
        (FAMILIES["s0s1@4m"].index_set(5), VerdictStatus.NONTRIVIAL_SRG),
        (OrbitIndexSet.of(20, {1, 2}), VerdictStatus.NOT_SRG),
    ):
        assert s.n == DENSE_CAP == 20
        verdict, peak = _traced_explicit_check(s)
        assert verdict.status is status
        assert peak <= 11 * 2**s.n, (s.format(), peak / 2**s.n)


def test_row0_peak_allocation_at_n14():
    # the bool row (2^n B) and the small distinct-row table; gathering the
    # int32 indicator and casting it to bool held 5 * 2^n B
    s = FAMILIES["s0s1@4m+2"].index_set(3)
    assert s.n == 14
    _row0(s)  # warm caches outside the trace
    tracemalloc.start()
    try:
        row0 = _row0(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row0.dtype == bool and row0.size == 1 << s.n
    assert peak <= 2 * 2**s.n, peak / 2**s.n


def test_int64_bound_covers_the_dense_cap():
    # the second Walsh pass holds 2 * hi with |hi| <= 2^n |S| <= N (N - 1);
    # that fits int64 at n = INT64_WALSH_BOUND = 31 and not at n = 32
    # (test_caps_keep_their_orderings holds the dense cap within it)
    int64_max = int(np.iinfo(np.int64).max)
    for n, fits in ((INT64_WALSH_BOUND, True), (INT64_WALSH_BOUND + 1, False)):
        size = 1 << n
        assert (2 * size * (size - 1) <= int64_max) == fits, n


@pytest.mark.parametrize(
    "key, m", [("s0s1@4m", 4), ("s2s3@4m", 4), ("s0s1@4m", 5), ("s2s3@4m", 5), ("s0s1@4m+2", 4)]
)
def test_every_route_certifies_the_families_at_n16_to_n20(key, m):
    s, predicted = FAMILIES[key].index_set(m), FAMILIES[key].predicted(m)
    assert 16 <= s.n <= DENSE_CAP
    verdict, _ = certify(s, s.n)  # raises unless all three routes agree
    assert verdict.status is VerdictStatus.NONTRIVIAL_SRG
    assert verdict.params == predicted


@pytest.mark.parametrize(
    "indices, status", [({2, 4}, VerdictStatus.DISCONNECTED), ({1, 2}, VerdictStatus.NOT_SRG)]
)
def test_dense_route_reads_non_srg_verdicts_at_n20(indices, status):
    s = OrbitIndexSet.of(DENSE_CAP, indices)
    assert route_verdict(s, "explicit").status is status
    assert certify(s, s.n)[0].status is status


def test_four_m_plus_two_members_pass_all_three_routes_at_m3():
    for key in NONTRIVIAL_FAMILY_KEYS:
        spec = FAMILIES[key]
        if spec.offset != 2:
            continue
        s, predicted = spec.index_set(3), spec.predicted(3)
        assert s.n == 14 <= DENSE_CAP
        verdict, _ = certify(s, DENSE_CAP)  # raises unless all three routes agree
        assert verdict.status is VerdictStatus.NONTRIVIAL_SRG, key
        assert verdict.params == predicted, key
        assert _tagged(s, route_verdict(s, "explicit")) == verdict, key


def _claim_not_srg_in_column(monkeypatch, s, column):
    # the column of s claims not_srg; certify reads it from its one-row
    # table and the census from its sweep table
    real = srg_module.verdict_columns
    not_srg_code = list(VerdictStatus).index(VerdictStatus.NOT_SRG)
    row_of_s = [int(i in s.indices) for i in range(1, s.n + 1)]

    def claiming(member, spectra, counts):
        columns = real(member, spectra, counts)
        getattr(columns, column)[(member == row_of_s).all(axis=1)] = [not_srg_code, 0, 0, 0]
        return columns

    monkeypatch.setattr(srg_module, "verdict_columns", claiming)


def _perturb_vertex0_counts(monkeypatch, s):
    # one of vertex 0's common-neighbour counts of s, at a neighbour of 0,
    # so lambda is no longer constant and the dense route reads not_srg
    target = _row0(s)
    y = int(np.flatnonzero(target)[0])
    real = srg_module.walsh_counts

    def perturbed(block):
        connected, complement_connected, counts = real(block)
        counts[(block == target).all(axis=1), y] += 1
        return connected, complement_connected, counts

    monkeypatch.setattr(srg_module, "walsh_counts", perturbed)


@pytest.mark.parametrize("route", ["pair_count", "spectral", "explicit"])
def test_certify_disagreement_names_the_set_and_verdicts(monkeypatch, capsys, route):
    # one route of I={1,4} reads not_srg; certify, the census and srg-check
    # all reach the one agreement check and give the identical message
    s = OrbitIndexSet.of(4, {1, 4})
    explicit_cap = s.n if route == "explicit" else 0
    honest = certify(s, explicit_cap)[0]
    assert honest.status is VerdictStatus.NONTRIVIAL_SRG
    routes = ["pair_count", "spectral"] + (["explicit"] if explicit_cap else [])
    claimed = {r: SrgVerdict(VerdictStatus.NOT_SRG) if r == route else honest for r in routes}
    detail = "; ".join(f"{r}: {json.dumps(v.to_json_dict())}" for r, v in claimed.items())
    message = f"SRG routes disagree on n=4;I=1,4: {detail}"
    if route == "explicit":
        _perturb_vertex0_counts(monkeypatch, s)
    else:
        _claim_not_srg_in_column(monkeypatch, s, route.replace("_", ""))
    with pytest.raises(ConsistencyError) as exc:
        certify(s, explicit_cap)
    assert str(exc.value) == message
    with pytest.raises(ConsistencyError) as exc:
        census_bytes(4, "jsonl", explicit_cap)
    assert str(exc.value) == message
    argv = ["srg-check", "--set", "n=4;I=1,4"] + (["--explicit"] if explicit_cap else [])
    assert main(argv) == EXIT_VERIFICATION_FAILED
    assert capsys.readouterr().err == f"verification failure: {message}\n"


def test_feasibility_of_every_found_parameter_set(small_sweep):
    for s, verdict, _, _ in small_sweep.values():
        if verdict.params is not None:
            v, r, lam, mu = verdict.params.as_tuple()
            assert r * (r - lam - 1) == (v - r - 1) * mu, s.format()


def test_equitable_partition_examples():
    clebsch = ExplicitGraph.build(OrbitIndexSet.of(4, {1, 4}))
    assert verify_equitable_partition(clebsch, 0) == [[0, 5, 0], [1, 0, 4], [0, 2, 3]]

    cube = ExplicitGraph.build(OrbitIndexSet.of(4, {1}))
    with pytest.raises(ValueError):
        verify_equitable_partition(cube, 0)  # diameter 4

    halves = ExplicitGraph.build(OrbitIndexSet.of(3, {1, 3}))
    matrix = verify_equitable_partition(halves, 0)
    assert matrix is not None and matrix[1][1] == 0 and matrix[2][1] == 4

    complete = ExplicitGraph.build(OrbitIndexSet.of(2, {1, 2}))
    with pytest.raises(ValueError):
        verify_equitable_partition(complete, 0)


def test_equitable_partition_none_for_diameter_two_non_srg():
    # connected, diameter 2, but mu is not constant
    graph = ExplicitGraph.build(OrbitIndexSet.of(5, {1, 4}))
    assert route_verdict(OrbitIndexSet.of(5, {1, 4}), "explicit").status is VerdictStatus.NOT_SRG
    assert verify_equitable_partition(graph, 0) is None


def test_equitable_partition_agrees_with_verdicts(small_sweep):
    # vertex-transitive + diameter 2: equitable distance partition <=> SRG
    for s, verdict, _, _ in small_sweep.values():
        if verdict.status in (VerdictStatus.DISCONNECTED, VerdictStatus.COMPLETE):
            continue
        graph = ExplicitGraph.build(s)
        try:
            matrix = verify_equitable_partition(graph, 0)
        except ValueError:
            assert verdict.status not in _SRG_STATUSES, s.format()  # diameter > 2
            continue
        if verdict.status in _SRG_STATUSES:
            assert matrix is not None
            assert matrix[1][1] == verdict.params.lam
            assert matrix[2][1] == verdict.params.mu
        else:
            assert matrix is None


def test_family_construct_examples():
    for key, m, s, predicted in (
        ("s0s1@4m", 2, OrbitIndexSet.of(8, {1, 4, 5, 8}), SrgParams(256, 135, 70, 72)),
        ("s1s2@4m+2", 1, OrbitIndexSet.of(6, {1, 2, 5, 6}), SrgParams(64, 28, 12, 12)),
        ("s0s3@4m+2", 2, OrbitIndexSet.of(10, {3, 4, 7, 8}), SrgParams(1024, 495, 238, 240)),
        ("s_minus", 3, OrbitIndexSet.of(3, {1, 2}), SrgParams(8, 6, 4, 6)),
    ):
        assert FAMILIES[key].index_set(m) == s, key
        assert FAMILIES[key].predicted(m) == predicted, key


def test_family_parameters_verified_up_to_n14():
    for key in NONTRIVIAL_FAMILY_KEYS:
        spec = FAMILIES[key]
        m = 1
        while spec.dimension(m) <= 14:
            s, predicted = spec.index_set(m), spec.predicted(m)
            verdict, _ = certify(s, explicit_cap=0)
            assert verdict.status is VerdictStatus.NONTRIVIAL_SRG, (key, m)
            assert verdict.params == predicted, (key, m)
            v, r, lam, mu = predicted.as_tuple()
            assert r * (r - lam - 1) == (v - r - 1) * mu, (key, m)
            m += 1
    for n in range(2, 15):
        for key in ("s_minus", "s_odd"):
            s, predicted = FAMILIES[key].index_set(n), FAMILIES[key].predicted(n)
            verdict, _ = certify(s, explicit_cap=0)
            assert verdict.status is VerdictStatus.TRIVIAL_SRG, (key, n)
            assert verdict.params == predicted, (key, n)


def test_family_parameters_verified_at_larger_m():
    # pair counting is closed-form, so spot-verify well past the dense caps
    for key, m in (("s2s3@4m", 5), ("s0s1@4m", 4), ("s1s2@4m+2", 4), ("s0s3@4m+2", 4)):
        s, predicted = FAMILIES[key].index_set(m), FAMILIES[key].predicted(m)
        assert s.n in (16, 18, 20)
        verdict, _ = certify(s, explicit_cap=0)
        assert verdict.status is VerdictStatus.NONTRIVIAL_SRG
        assert verdict.params == predicted


def test_emit_table1_builds_index_sets_only_for_certified_rows(monkeypatch):
    # certify is stubbed, so its family matching builds no index set and
    # every counted call is one emit_table1 makes itself
    built = []
    real = srg_module.FamilySpec.index_set

    def counting(spec, m):
        built.append(spec.dimension(m))
        return real(spec, m)

    monkeypatch.setattr(srg_module.FamilySpec, "index_set", counting)
    monkeypatch.setattr(
        srg_module, "certify", lambda s, explicit_cap: (SrgVerdict(VerdictStatus.NOT_SRG), None)
    )
    rows = list(emit_table1(50, check_cap=20))
    certified = [row for row in rows if row["verified"] != "skipped"]
    assert len(rows) == 50 * 6
    assert len(built) == len(certified) == 2 * 5 + 4 * 4  # n = 4m <= 20 and n = 4m + 2 <= 20
    assert max(built) == 20


def test_emit_table1_certifies_each_row_when_it_is_taken(monkeypatch):
    certified = []
    real = srg_module.certify

    def counting(s, explicit_cap):
        certified.append(s.n)
        return real(s, explicit_cap)

    monkeypatch.setattr(srg_module, "certify", counting)
    rows = emit_table1(3)
    assert certified == []
    assert next(rows)["graph"] == "Cay(Z2^4,S0+S1)" and certified == [4]
    assert [row["verified"] for row in rows] == ["yes"] * (3 * 6 - 1)
    assert certified == [FAMILIES[key].dimension(m) for m in (1, 2, 3) for key in NONTRIVIAL_FAMILY_KEYS]


def test_closed_form_cap_is_checked_before_any_work(monkeypatch):
    s = OrbitIndexSet.of(CLOSED_FORM_CAP + 1, {1})

    def no_work(*args):
        pytest.fail("work began before the closed-form cap was checked")

    monkeypatch.setattr(srg_module, "pascal_row", no_work)
    monkeypatch.setattr(spectrum_module, "character_sum_row", no_work)
    with pytest.raises(ValueError, match="^n=1025 exceeds the closed-form cap 1024$"):
        full_spectrum(s)
    with pytest.raises(ValueError, match="^n=1025 exceeds the closed-form cap 1024$"):
        pair_counts(s)
    # families: check_cap and 4 m_max + 2 both above the cap, and no row is built
    monkeypatch.setattr(srg_module.FamilySpec, "predicted", no_work)
    certified = re.escape("min(check cap, 4 m_max + 2)")
    with pytest.raises(ValueError, match=f"^{certified}=1025 exceeds the closed-form cap 1024$"):
        emit_table1(300, check_cap=CLOSED_FORM_CAP + 1)
    with pytest.raises(ValueError, match=f"^{certified}=1026 exceeds the closed-form cap 1024$"):
        emit_table1((CLOSED_FORM_CAP - 2) // 4 + 1, check_cap=CLOSED_FORM_CAP + 10)


def test_match_families():
    assert match_families(OrbitIndexSet.of(4, {1, 4})) == ("s0s1@4m",)
    assert match_families(OrbitIndexSet.of(6, {1, 2, 5, 6})) == ("s1s2@4m+2",)
    assert match_families(OrbitIndexSet.of(5, {1, 3, 5})) == ("s_odd",)
    assert match_families(OrbitIndexSet.of(5, {1, 2, 3, 4})) == ("s_minus",)
    assert match_families(OrbitIndexSet.of(2, {1})) == ("s_minus", "s_odd")
    assert match_families(OrbitIndexSet.of(5, {1, 2})) == ()
    assert match_families(OrbitIndexSet.of(5, {1, 3})) == ()
    assert match_families(OrbitIndexSet.of(1, {1})) == ()
    assert match_families(OrbitIndexSet.of(3, {1, 2, 3})) == ()


def test_odd_weight_set_complement_splits_into_two_cliques():
    # the complement of the odd-weight graph: two complete halves
    for n in range(2, 9):
        s = OrbitIndexSet.of(n, set(range(1, n + 1, 2)))
        comp = ExplicitGraph.build(s.complement())
        parts = connected_components(comp.adjacency)
        assert len(parts) == 2
        for part in parts:
            assert len(part) == 1 << (n - 1)
            block = comp.adjacency[part][:, part]
            assert block.sum() == len(part) * (len(part) - 1)


def test_closed_form_checkers_scale_beyond_machine_integers():
    s, predicted = FAMILIES["s_minus"].index_set(128), FAMILIES["s_minus"].predicted(128)
    verdict, _ = certify(s, explicit_cap=0)
    assert verdict.status is VerdictStatus.TRIVIAL_SRG
    assert verdict.params == predicted
    assert predicted.degree == (1 << 128) - 2


def test_trivial_verdicts_match_shapes(small_sweep):
    # the verdict comes from complement connectivity, the tags from the shapes
    for s, verdict, _, _ in small_sweep.values():
        shape = {"s_minus", "s_odd"} & set(match_families(s))
        assert (verdict.status is VerdictStatus.TRIVIAL_SRG) == (
            bool(shape) and verdict.status in _SRG_STATUSES
        ), s.format()
