"""Exhaustive subset sweeps: records, histograms, and the SRG inventory."""

from __future__ import annotations

import pytest

from orbitcayley.census import (
    CENSUS_CSV_COLUMNS,
    CENSUS_MAX_N,
    CensusRecord,
    census,
    distinct_count_histogram,
    find_srgs,
)
from orbitcayley.core import OrbitIndexSet, is_connected
from orbitcayley.explicit import EXPLICIT_MAX_N
from orbitcayley.srg import SrgParams, VerdictStatus


def _by_indices(records):
    return {rec.index_set.sorted_indices: rec for rec in records}


def test_census_n4_known_rows():
    records = census(4)
    assert len(records) == 15
    rows = _by_indices(records)
    assert rows[(1, 4)].verdict.params == SrgParams(16, 5, 0, 2)
    assert rows[(1, 4)].verdict.status is VerdictStatus.NONTRIVIAL_SRG
    assert rows[(2, 3)].verdict.params == SrgParams(16, 10, 6, 6)
    assert rows[(2, 3)].verdict.status is VerdictStatus.NONTRIVIAL_SRG
    assert sum(1 for rec in records if rec.connected) == 12
    assert all(rec.explicit_verified for rec in records)


def test_census_n3_trivial_row():
    rows = _by_indices(census(3))
    rec = rows[(1, 3)]
    assert rec.verdict.status is VerdictStatus.TRIVIAL_SRG
    assert rec.verdict.params == SrgParams(8, 4, 0, 4)


def test_census_record_invariants():
    # nontrivial <=> connected, three distinct eigenvalues, connected
    # complement, and not complete
    for n in range(1, 7):
        for rec in census(n):
            assert rec.distinct_eigenvalues <= n + 1
            complement = OrbitIndexSet.of(n, rec.complement_indices)
            assert complement.complement() == rec.index_set
            expected_nontrivial = (
                rec.connected
                and rec.distinct_eigenvalues == 3
                and is_connected(complement)
                and not rec.index_set.is_full()
            )
            assert (rec.verdict.status is VerdictStatus.NONTRIVIAL_SRG) == expected_nontrivial


def test_census_is_deterministic_and_bitmask_ordered():
    first = census(5)
    second = census(5)
    assert first == second
    masks = [rec.index_set.bitmask for rec in first]
    assert masks == sorted(masks) == list(range(1, 32))


def test_census_range_validation():
    with pytest.raises(ValueError):
        census(0)
    with pytest.raises(ValueError):
        census(CENSUS_MAX_N + 1)
    assert len(census(2, explicit_cap=0)) == 3  # closed-form only
    assert len(census(4, explicit_cap=EXPLICIT_MAX_N)) == 15
    with pytest.raises(ValueError):
        census(4, explicit_cap=EXPLICIT_MAX_N + 1)


def test_distinct_count_histogram_examples():
    assert distinct_count_histogram(4)[2] >= 1
    assert distinct_count_histogram(5)[6] >= 2
    assert distinct_count_histogram(6)[5] >= 1
    for n in range(1, 8):
        hist = distinct_count_histogram(n)
        assert sum(hist.values()) == (1 << n) - 1
        assert max(hist) <= n + 1


def test_find_srgs_n4_exact_inventory():
    # frozen from an independent brute-force sweep: six strongly regular
    # sets, not just the four family members
    found = {(s.sorted_indices, params.as_tuple(), trivial) for s, params, trivial in find_srgs(4)}
    assert found == {
        ((1, 4), (16, 5, 0, 2), False),
        ((3, 4), (16, 5, 0, 2), False),
        ((1, 3), (16, 8, 0, 8), True),
        ((1, 2), (16, 10, 6, 6), False),
        ((2, 3), (16, 10, 6, 6), False),
        ((1, 2, 3), (16, 14, 12, 14), True),
    }
    degrees = [params.degree for _, params, _ in find_srgs(4)]
    assert degrees == sorted(degrees)


def test_find_srgs_n5_trivial_only():
    found = {(s.sorted_indices, params.as_tuple(), trivial) for s, params, trivial in find_srgs(5)}
    assert found == {
        ((1, 3, 5), (32, 16, 0, 16), True),
        ((1, 2, 3, 4), (32, 30, 28, 30), True),
    }


def test_find_srgs_n6_contains_families():
    found = {s.sorted_indices: params.as_tuple() for s, params, _ in find_srgs(6)}
    assert found[(1, 4, 5)] == (64, 27, 10, 12)
    assert found[(2, 3, 6)] == (64, 36, 20, 20)
    assert found[(1, 2, 5, 6)] == (64, 28, 12, 12)
    assert found[(3, 4)] == (64, 35, 18, 20)
    assert found[(1, 2, 3, 4, 5)] == (64, 62, 60, 62)
    assert found[(1, 3, 5)] == (64, 32, 0, 32)


def test_every_found_srg_survives_the_dense_checker_up_to_n12():
    from orbitcayley.srg import srg_check_explicit

    for n in (9, 10, 11, 12):
        for s, params, trivial in find_srgs(n):
            verdict = srg_check_explicit(s)
            assert verdict.params == params, s.format()
            assert (verdict.status is VerdictStatus.TRIVIAL_SRG) == trivial


def test_complement_closure_of_nontrivial_srgs():
    for n in range(2, 8):
        nontrivial = {
            s.sorted_indices: params for s, params, trivial in find_srgs(n) if not trivial
        }
        for indices, params in nontrivial.items():
            partner = OrbitIndexSet.of(n, indices).complement().sorted_indices
            assert partner in nontrivial
            assert nontrivial[partner] == params.complement()


def test_census_serialization_shapes():
    rec = _by_indices(census(4))[(1, 4)]
    assert isinstance(rec, CensusRecord)
    blob = rec.to_json_dict()
    assert blob["n"] == 4 and blob["I"] == [1, 4]
    assert blob["status"] == "nontrivial_srg"
    assert blob["params"] == {"vertices": 16, "degree": 5, "lambda": 0, "mu": 2}
    assert blob["complement_I"] == [2, 3]
    assert blob["families"] == ["s0s1@4m"]
    assert rec.to_csv_row() == ["4", "1,4", "true", "3", "nontrivial_srg", "5", "0", "2"]
    assert len(CENSUS_CSV_COLUMNS) == len(rec.to_csv_row())

    empty_params = _by_indices(census(4))[(2,)]
    assert empty_params.to_csv_row()[5:] == ["", "", ""]
