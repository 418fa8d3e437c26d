"""Pair counting, the three SRG checkers, equitable partitions, and families."""

from __future__ import annotations

import json
import random
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitcayley.srg as srg_module
from orbitcayley.census import census
from orbitcayley.cli import EXIT_VERIFICATION_FAILED, main
from orbitcayley.core import ConsistencyError, Gf2Vector, OrbitIndexSet, binom
from orbitcayley.explicit import EXPLICIT_MAX_N, ExplicitGraph, common_neighbor_matrix
from orbitcayley.srg import (
    FAMILIES,
    NONTRIVIAL_FAMILY_KEYS,
    SrgParams,
    VerdictStatus,
    SrgVerdict,
    certify,
    family_construct,
    match_families,
    pair_count,
    pair_count_table,
    srg_check_explicit,
    srg_check_paircount,
    srg_check_spectral,
)

from oracles import connected_components, pair_count_oracle, verify_equitable_partition


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


def test_common_neighbor_matrix_matches_integer_product():
    sets = [OrbitIndexSet.from_bitmask(n, mask) for n in range(1, 7) for mask in range(1 << n)]
    rng = random.Random(3)
    sets += [OrbitIndexSet.from_bitmask(8, rng.randrange(1, 1 << 8)) for _ in range(6)]
    for s in sets:
        adjacency = ExplicitGraph.build(s).adjacency
        counts = common_neighbor_matrix(adjacency)
        assert counts.dtype == np.float32
        assert np.array_equal(counts, _integer_common_neighbors(adjacency)), s.format()


def test_common_neighbor_float32_bound_is_checked_before_any_work():
    # a zero-stride view stands for the 2^24-vertex matrix; nothing large is allocated
    with pytest.raises(ValueError, match="float32-exact bound"):
        common_neighbor_matrix(np.broadcast_to(False, (1 << 24, 1 << 24)))


@pytest.mark.parametrize("adjacent", [True, False])
def test_explicit_route_catches_one_perturbed_count(monkeypatch, adjacent):
    # one entry below the diagonal: every ordered pair must be read, not only x < y
    s = OrbitIndexSet.of(4, {1, 4})
    adjacency = ExplicitGraph.build(s).adjacency
    x, y = next((x, y) for x in range(16) for y in range(x) if adjacency[x, y] == adjacent)
    honest = common_neighbor_matrix

    def perturbed(a):
        counts = honest(a)
        counts[x, y] += 1
        return counts

    assert srg_check_explicit(s).status is VerdictStatus.NONTRIVIAL_SRG
    monkeypatch.setattr(srg_module, "common_neighbor_matrix", perturbed)
    assert srg_check_explicit(s).status is VerdictStatus.NOT_SRG
    with pytest.raises(ConsistencyError, match="n=4;I=1,4"):
        certify(s, EXPLICIT_MAX_N)


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
