"""Pair counting, the three SRG checkers, equitable partitions, and families."""

from __future__ import annotations

import json
import random
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitcayley.explicit as explicit_module
import orbitcayley.graph6 as graph6_module
import orbitcayley.srg as srg_module
from orbitcayley.census import census
from orbitcayley.cli import EXIT_VERIFICATION_FAILED, main
from orbitcayley.core import ConsistencyError, Gf2Vector, OrbitIndexSet, binom
from orbitcayley.explicit import EXPLICIT_MAX_N, _row0, row0_constants, spans
from orbitcayley.graph6 import export_graph6
from orbitcayley.spectrum import distinct, full_spectrum
from orbitcayley.srg import (
    FAMILIES,
    NONTRIVIAL_FAMILY_KEYS,
    SrgParams,
    VerdictStatus,
    SrgVerdict,
    _distinct_values,
    certify,
    family_construct,
    match_families,
    pair_count,
    pair_count_table,
    srg_check_explicit,
    srg_check_paircount,
    srg_check_spectral,
)

import oracles
from oracles import (
    ExplicitGraph,
    all_pairs_common_neighbor_constants,
    common_neighbor_constants,
    connected_component,
    connected_components,
    matrix_srg_check,
    pair_count_oracle,
    verify_equitable_partition,
)


def test_pair_count_examples():
    s = OrbitIndexSet.of(4, {1, 4})
    assert pair_count(s, 1) == 0
    assert pair_count(s, 2) == 2
    for n in (3, 5, 8):
        for mask in (1, 3, (1 << n) - 1):
            t = OrbitIndexSet.from_bitmask(n, mask)
            assert pair_count(t, 0) == t.size()
    with pytest.raises(ValueError):
        pair_count(s, 5)


def test_pair_count_oracle_examples():
    assert pair_count_oracle(OrbitIndexSet.of(2, {1, 2}), Gf2Vector(2, 0b11)) == 2
    assert pair_count_oracle(OrbitIndexSet.of(3, {1}), Gf2Vector(3, 0b110)) == 2
    with pytest.raises(ValueError):
        pair_count_oracle(OrbitIndexSet.of(21, {1}), Gf2Vector(21, 0))
    with pytest.raises(ValueError):
        pair_count_oracle(OrbitIndexSet.of(3, {1}), Gf2Vector(4, 0))


def test_pair_count_matches_oracle_exhaustively():
    for n in range(1, 7):
        for mask in range(1, 1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            for w in range(n + 1):
                v = Gf2Vector(n, (1 << w) - 1)
                assert pair_count(s, w) == pair_count_oracle(s, v), (s.format(), w)


@settings(max_examples=60)
@given(st.integers(1, 10), st.data())
def test_pair_count_matches_oracle_for_arbitrary_vectors(n, data):
    mask = data.draw(st.integers(1, (1 << n) - 1))
    bits = data.draw(st.integers(0, (1 << n) - 1))
    s = OrbitIndexSet.from_bitmask(n, mask)
    v = Gf2Vector(n, bits)
    assert pair_count(s, v.weight) == pair_count_oracle(s, v)


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
    for w in range(s.n + 1):
        assert pair_count(s, w) == _pair_count_by_index_pairs(s, w), (s.format(), w)


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
                assert member @ table[w] @ member == pair_count_oracle(s, Gf2Vector(n, v))


def test_pair_count_handshake():
    for n in range(1, 9):
        for mask in (1, 5 % (1 << n), (1 << n) - 1):
            s = OrbitIndexSet.from_bitmask(n, mask)
            total = sum(comb(n, w) * pair_count(s, w) for w in range(n + 1))
            assert total == s.size() ** 2


def test_paircount_checker_examples():
    verdict = srg_check_paircount(OrbitIndexSet.of(4, {1, 4}))
    assert verdict.status is VerdictStatus.NONTRIVIAL_SRG
    assert verdict.params == SrgParams(16, 5, 0, 2)

    verdict = srg_check_paircount(OrbitIndexSet.of(6, {2, 3, 6}))
    assert verdict.status is VerdictStatus.NONTRIVIAL_SRG
    assert verdict.params == SrgParams(64, 36, 20, 20)

    assert srg_check_paircount(OrbitIndexSet.of(4, {1})).status is VerdictStatus.NOT_SRG
    assert srg_check_paircount(OrbitIndexSet.of(4, {2})).status is VerdictStatus.DISCONNECTED
    assert srg_check_paircount(OrbitIndexSet.of(4, set())).status is VerdictStatus.DISCONNECTED


def test_spectral_checker_examples():
    verdict = srg_check_spectral(OrbitIndexSet.of(4, {1, 4}))
    assert verdict.params == SrgParams(16, 5, 0, 2)

    verdict = srg_check_spectral(OrbitIndexSet.of(3, {1, 2}))
    assert verdict.status is VerdictStatus.TRIVIAL_SRG
    assert verdict.params == SrgParams(8, 6, 4, 6)

    assert srg_check_spectral(OrbitIndexSet.of(2, {1, 2})).status is VerdictStatus.COMPLETE


def test_explicit_checker_examples():
    verdict = srg_check_explicit(OrbitIndexSet.of(4, {1, 4}))
    assert verdict.params == SrgParams(16, 5, 0, 2)

    verdict = srg_check_explicit(OrbitIndexSet.of(4, {1, 3}))
    assert verdict.status is VerdictStatus.TRIVIAL_SRG
    assert verdict.params == SrgParams(16, 8, 0, 8)

    with pytest.raises(ValueError, match="dense-graph cap"):
        srg_check_explicit(OrbitIndexSet.of(EXPLICIT_MAX_N + 1, {1}))


def _per_row_adjacency(s):
    # row x of the Cayley graph is row 0 translated by XOR, one row at a time
    size = 1 << s.n
    row0 = np.array([x.bit_count() in s.indices for x in range(size)])
    xs = np.arange(size)
    return np.array([row0[xs ^ x] for x in range(size)])


def test_dense_build_matches_the_per_row_reference():
    # n <= 8 fills in one block; n = 12 takes 128 blocks of 32 rows
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 7) for mask in range(1 << n)]
    sets += [OrbitIndexSet.of(8, {1, 2, 7, 8}), OrbitIndexSet.of(12, {1, 4, 5, 8, 9, 12})]
    for s in sets:
        adjacency = ExplicitGraph.build(s).adjacency
        assert adjacency.dtype == bool and not adjacency.flags.writeable
        assert np.array_equal(adjacency, _per_row_adjacency(s)), s.format()


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


def _gather_rows(monkeypatch, size, rows):
    # translate blocks of ``rows`` rows (a power of two) for a size-vertex matrix,
    # through the byte bound on one block step: 3 bool blocks
    step = 3 * rows * size
    monkeypatch.setattr(explicit_module, "_GATHER_BLOCK_BYTES", step)
    assert explicit_module._block_rows(size) == min(rows, size)


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
    gather_default = explicit_module._GATHER_BLOCK_BYTES
    for s in sets:
        adjacency = ExplicitGraph.build(s).adjacency
        size = adjacency.shape[0]
        expected = _integer_constants(adjacency)
        # one band and one gather block by default for n <= 8; oracle bands of
        # 3, 5 and 7 rows divide no 2^n, so the last band is short and the
        # diagonal blocks have ragged edges; translate blocks of 1, 2 and 4
        # rows split every matrix with n >= 3 into several blocks, each a
        # chunk permutation of the first
        for rows, block in ((None, None), (3, 1), (5, 2), (7, 4)):
            bands.clear()
            if rows is None:
                monkeypatch.setattr(oracles, "_BAND_BYTES", band_default)
                monkeypatch.setattr(explicit_module, "_GATHER_BLOCK_BYTES", gather_default)
            else:
                _band_rows(monkeypatch, size, rows)
                _gather_rows(monkeypatch, size, block)
            assert all_pairs_common_neighbor_constants(adjacency) == expected, (s.format(), rows)
            step = rows or size
            assert bands == [(r0, min(r0 + step, size)) for r0 in range(0, size, step)]
            assert common_neighbor_constants(adjacency) == expected, (s.format(), block)
            assert row0_constants(_row0(s)) == expected, (s.format(), block)


def test_every_translate_block_shape_gives_the_same_results(monkeypatch):
    # every power-of-two block from 1 row to N, in the dense build, the
    # premise pass, the row-0 counts and the graph6 encoder, against their
    # default blocks
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 7) for mask in range(1 << n)]
    sets.append(OrbitIndexSet.of(9, {1, 4, 6, 9}))
    for s in sets:
        size = 1 << s.n
        adjacency = ExplicitGraph.build(s).adjacency
        constants = common_neighbor_constants(adjacency)
        assert row0_constants(_row0(s)) == constants, s.format()
        blob = export_graph6(s)
        for k in range(s.n + 1):
            _gather_rows(monkeypatch, size, 1 << k)
            monkeypatch.setattr(graph6_module, "_PACK_ROWS", 1 << k)
            assert np.array_equal(ExplicitGraph.build(s).adjacency, adjacency), (s.format(), k)
            assert common_neighbor_constants(adjacency) == constants, (s.format(), k)
            assert row0_constants(_row0(s)) == constants, (s.format(), k)
            assert export_graph6(s) == blob, (s.format(), k)
        monkeypatch.undo()


# every set up to n = 8, and at n = 12 one SRG and one connected set that is not
_ORACLE_SETS = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 9) for mask in range(1 << n)]
_ORACLE_SETS += [family_construct("s0s1@4m", 3)[0], OrbitIndexSet.of(12, {1, 2, 5})]


def test_common_neighbor_constants_match_the_all_pairs_oracle():
    # the premise pass on the matrix and the row-0 counts, against every pair
    for s in _ORACLE_SETS:
        adjacency = ExplicitGraph.build(s).adjacency
        expected = all_pairs_common_neighbor_constants(adjacency)
        assert common_neighbor_constants(adjacency) == expected, s.format()
        assert row0_constants(_row0(s)) == expected, s.format()
    assert expected[1] is None  # n=12;I=1,2,5 is not strongly regular


def test_row0_route_matches_the_matrix_oracle():
    # connectivity, degree, lambda, mu and trivial vs nontrivial, from row 0
    # alone, against BFS, every degree, the premise pass and the complement's
    # components on the built matrix
    statuses = set()
    for s in _ORACLE_SETS:
        verdict = srg_check_explicit(s)
        assert verdict == matrix_srg_check(s), s.format()
        statuses.add(verdict.status)
        if verdict.status is VerdictStatus.TRIVIAL_SRG:
            parts = connected_components(ExplicitGraph.build(s.complement()).adjacency)
            assert len(parts) > 1, s.format()
    assert statuses == set(VerdictStatus)


def _xor_adjacency(row0):
    # the Cayley graph of Z2^n with connection set {y : row0[y]}, for any 0/1 row
    xs = np.arange(row0.size)
    return row0[xs[:, None] ^ xs]


def test_row0_route_on_connection_sets_that_are_no_union_of_weight_classes():
    # arbitrary connection sets: the span test against BFS, and the row-0
    # counts against every pair, on the same XOR-translated matrix
    rng = np.random.default_rng(5)
    rows = [np.zeros(1 << n, dtype=bool) for n in range(1, 7)]
    for n in range(1, 8):
        for density in (0.05, 0.2, 0.5, 0.9):
            for _ in range(6):
                row0 = rng.random(1 << n) < density
                row0[0] = False
                rows.append(row0)
    rows += [np.eye(1, 1 << n, 1 << b, dtype=bool)[0] for n in (4, 6) for b in range(n)]
    connected = 0
    for row0 in rows:
        adjacency = _xor_adjacency(row0)
        assert spans(row0) == bool(connected_component(adjacency).all()), row0.nonzero()
        connected += spans(row0)
        expected = all_pairs_common_neighbor_constants(adjacency)
        assert row0_constants(row0) == expected, row0.nonzero()
    assert 0 < connected < len(rows)


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

    def no_block(row0):
        pytest.fail("a block was read before the premise on the shape failed")

    monkeypatch.setattr(explicit_module, "_translates", no_block)
    # 6 vertices are no Z2^n, though the 6-cycle is a symmetric, loopless Cayley graph of Z6
    with pytest.raises(ConsistencyError, match="6 vertices are not a power of two"):
        common_neighbor_constants(_six_cycle())
    with pytest.raises(ConsistencyError, match=r"A\[0, 0\] = True"):
        common_neighbor_constants(looped)


@pytest.mark.parametrize(
    "flip, named",
    [
        # off row 0: the flipped entry itself, in the second block of 4 rows
        # and its fourth column chunk, a copy of the first block's third
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
    _gather_rows(monkeypatch, 16, 4)
    with pytest.raises(ConsistencyError, match=message):
        common_neighbor_constants(adjacency)
    # through the matrix route, the error also names the set
    monkeypatch.setattr(ExplicitGraph, "build", classmethod(lambda cls, t: cls(t, adjacency)))
    with pytest.raises(ConsistencyError, match=rf"n=4;I=1,4: .*{message}"):
        matrix_srg_check(s)


def test_cayley_premise_fails_in_a_permuted_chunk(monkeypatch):
    # n = 9 takes 2 default blocks of 256 rows; the flip sits in the second
    # block, in its second column chunk, a copy of the first block's first
    s = OrbitIndexSet.of(9, {1, 4, 6, 9})
    adjacency = ExplicitGraph.build(s).adjacency.copy()
    rows = explicit_module._block_rows(adjacency.shape[0])
    assert rows == 256
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
    assert srg_check_explicit(s).status is VerdictStatus.NONTRIVIAL_SRG
    y = next(y for y in range(1, 16) if row0[y] == adjacent)
    honest = explicit_module._row0_counts

    def perturbed(row):
        counts = honest(row)
        counts[y] += 1
        return counts

    monkeypatch.setattr(explicit_module, "_row0_counts", perturbed)
    assert srg_check_explicit(s).status is VerdictStatus.NOT_SRG, y
    with pytest.raises(ConsistencyError, match="n=4;I=1,4"):
        certify(s, EXPLICIT_MAX_N)


def test_dense_check_peak_allocation_at_n12():
    s = OrbitIndexSet.of(12, {1, 4, 5, 8, 9, 12})
    srg_check_explicit(OrbitIndexSet.of(4, {1, 4}))  # warm caches outside the trace
    tracemalloc.start()
    try:
        verdict = srg_check_explicit(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status is VerdictStatus.NONTRIVIAL_SRG
    # the matrix route held the bool adjacency (4^n B) and the complement
    # copied for an SRG (4^n B); the row-0 route holds neither
    assert peak < 3 * 4**s.n, peak / 4**s.n


def test_dense_check_peak_allocation_at_n14():
    # one block step (at most _GATHER_BLOCK_BYTES) beside row 0, its uint16
    # counts and the complement mask (4 * 2^n B); the span test's int64
    # support and its temporaries (at most 17 * 2^n B) come before and after
    # it; about 0.48 MB measured, where the bool adjacency alone is 4^n B = 256 MB
    s = family_construct("s0s1@4m+2", 3)[0]  # an SRG, so every step runs
    assert s.n == EXPLICIT_MAX_N
    srg_check_explicit(s)  # warm the cached weight table outside the trace
    tracemalloc.start()
    try:
        verdict = srg_check_explicit(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status is VerdictStatus.NONTRIVIAL_SRG
    assert peak < explicit_module._GATHER_BLOCK_BYTES + 12 * 2**s.n, peak


def test_counts_bound_is_checked_before_any_work(monkeypatch):
    # a zero-stride view stands for the 2^16-vertex row; nothing large is allocated
    def no_block(row0):
        pytest.fail("a block was formed before the uint16 bound was checked")

    monkeypatch.setattr(explicit_module, "_translates", no_block)
    with pytest.raises(ValueError, match="uint16 count bound"):
        explicit_module._row0_counts(np.broadcast_to(False, (1 << 16,)))
    assert EXPLICIT_MAX_N < 16


def test_four_m_plus_two_members_pass_all_three_routes_at_m3():
    for key in NONTRIVIAL_FAMILY_KEYS:
        spec = FAMILIES[key]
        if spec.offset != 2:
            continue
        s, predicted = family_construct(key, 3)
        assert s.n == 14 <= EXPLICIT_MAX_N
        verdict, _ = certify(s, EXPLICIT_MAX_N)  # raises unless all three routes agree
        assert verdict.status is VerdictStatus.NONTRIVIAL_SRG, key
        assert verdict.params == predicted, key
        assert srg_check_explicit(s) == verdict, key


def test_certify_disagreement_names_the_set_and_verdicts(monkeypatch, capsys):
    s = OrbitIndexSet.of(4, {1, 4})
    honest = certify(s, 0)[0]
    # the verdict helper that certify and the census sweep share
    monkeypatch.setattr(srg_module, "_paircount_verdict",
                        lambda t, counts: SrgVerdict(VerdictStatus.NOT_SRG))
    with pytest.raises(ConsistencyError) as exc:
        certify(s, 0)
    message = str(exc.value)
    assert "n=4;I=1,4" in message
    assert json.dumps(SrgVerdict(VerdictStatus.NOT_SRG).to_json_dict()) in message
    assert json.dumps(honest.to_json_dict()) in message
    with pytest.raises(ConsistencyError) as exc:
        census(4)
    assert "SRG routes disagree on n=4;I=" in str(exc.value)
    assert main(["srg-check", "--set", "n=4;I=1,4"]) == EXIT_VERIFICATION_FAILED
    assert f"verification failure: {message}" in capsys.readouterr().err


def test_distinct_values_keep_the_order_of_a_descending_sequence():
    # the reduction certify and the census share: spectrum.distinct without multiplicities
    assert _distinct_values([5, 1, 1, 1, 1, -3]) == (5, 1, -3)
    for n in range(1, 7):
        for mask in range(1, 1 << n):
            spec = full_spectrum(OrbitIndexSet.from_bitmask(n, mask))
            expected = tuple(value for value, _ in distinct(spec).pairs)
            assert _distinct_values(sorted(spec.values, reverse=True)) == expected


def test_three_checkers_agree(small_sweep):
    for (n, mask), (s, by_pairs, by_spectrum, by_brute) in small_sweep.items():
        assert by_pairs == by_spectrum == by_brute, s.format()


def test_feasibility_of_every_found_parameter_set(small_sweep):
    for s, verdict, _, _ in small_sweep.values():
        if verdict.params is not None:
            assert verdict.params.is_feasible(), s.format()


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
    assert srg_check_explicit(OrbitIndexSet.of(5, {1, 4})).status is VerdictStatus.NOT_SRG
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
            assert not verdict.status.is_srg(), s.format()  # diameter > 2
            continue
        if verdict.status.is_srg():
            assert matrix is not None
            assert matrix[1][1] == verdict.params.lam
            assert matrix[2][1] == verdict.params.mu
        else:
            assert matrix is None


def test_family_construct_examples():
    s, predicted = family_construct("s0s1@4m", 2)
    assert s == OrbitIndexSet.of(8, {1, 4, 5, 8})
    assert predicted == SrgParams(256, 135, 70, 72)

    s, predicted = family_construct("s1s2@4m+2", 1)
    assert s == OrbitIndexSet.of(6, {1, 2, 5, 6})
    assert predicted == SrgParams(64, 28, 12, 12)

    s, predicted = family_construct("s0s3@4m+2", 2)
    assert s == OrbitIndexSet.of(10, {3, 4, 7, 8})
    assert predicted == SrgParams(1024, 495, 238, 240)

    s, predicted = family_construct("s_minus", 3)
    assert s.indices == {1, 2} and predicted == SrgParams(8, 6, 4, 6)

    with pytest.raises(ValueError):
        family_construct("s0s1@4m", 0)
    with pytest.raises(ValueError):
        family_construct("s_odd", 1)
    with pytest.raises(ValueError):
        family_construct("clique", 1)


def test_family_parameters_verified_up_to_n14():
    for key in NONTRIVIAL_FAMILY_KEYS:
        spec = FAMILIES[key]
        m = 1
        while spec.dimension(m) <= 14:
            s, predicted = family_construct(key, m)
            verdict = srg_check_paircount(s)
            assert verdict.status is VerdictStatus.NONTRIVIAL_SRG, (key, m)
            assert verdict.params == predicted, (key, m)
            assert predicted.is_feasible()
            m += 1
    for n in range(2, 15):
        for key in ("s_minus", "s_odd"):
            s, predicted = family_construct(key, n)
            verdict = srg_check_paircount(s)
            assert verdict.status is VerdictStatus.TRIVIAL_SRG, (key, n)
            assert verdict.params == predicted, (key, n)


def test_family_parameters_verified_at_larger_m():
    # pair counting is closed-form, so spot-verify well past the dense caps
    for key, m in (("s2s3@4m", 5), ("s0s1@4m", 4), ("s1s2@4m+2", 4), ("s0s3@4m+2", 4)):
        s, predicted = family_construct(key, m)
        assert s.n in (16, 18, 20)
        verdict = srg_check_paircount(s)
        assert verdict.status is VerdictStatus.NONTRIVIAL_SRG
        assert verdict.params == predicted


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


def test_complement_parameter_law(small_sweep):
    for s, verdict, _, _ in small_sweep.values():
        if verdict.status is not VerdictStatus.NONTRIVIAL_SRG:
            continue
        partner = srg_check_paircount(s.complement())
        assert partner.status is VerdictStatus.NONTRIVIAL_SRG
        assert partner.params == verdict.params.complement()


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
    s, predicted = family_construct("s_minus", 128)
    verdict = srg_check_paircount(s)
    assert verdict.status is VerdictStatus.TRIVIAL_SRG
    assert verdict.params == predicted
    assert predicted.degree == (1 << 128) - 2


def test_trivial_verdicts_match_shapes(small_sweep):
    # the verdict comes from complement connectivity, the tags from the shapes
    for s, verdict, _, _ in small_sweep.values():
        shape = {"s_minus", "s_odd"} & set(match_families(s))
        assert (verdict.status is VerdictStatus.TRIVIAL_SRG) == (
            bool(shape) and verdict.status.is_srg()
        ), s.format()
