"""Exhaustive subset sweeps: records, histograms, and the SRG inventory."""

from __future__ import annotations

import importlib
import json
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitcayley.spectrum as spectrum_module
import orbitcayley.srg as srg_module
from orbitcayley.census import (
    CENSUS_CSV_COLUMNS,
    CENSUS_DEFAULT_EXPLICIT_CAP,
    CENSUS_MAX_N,
    TABLE_INT64_MAX_N,
    CensusRecord,
    census,
    sweep_tables,
)
from orbitcayley.cli import main
from orbitcayley.core import ConsistencyError, OrbitIndexSet
from orbitcayley.explicit import EXPLICIT_MAX_N, _row0
from orbitcayley.spectrum import _first_invariant_failure, character_table, distinct, full_spectrum
from orbitcayley.srg import (
    SrgParams,
    SrgVerdict,
    VerdictStatus,
    _explicit_verdict,
    certify,
    pair_count,
    pair_count_table,
    verdict_columns,
)

from oracles import census_oracle_bytes, find_srgs, is_connected

# the package re-exports the function census, which shadows the module of that name
census_module = importlib.import_module("orbitcayley.census")


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
    hists = {
        n: Counter(r.distinct_eigenvalues for r in census(n, explicit_cap=0)) for n in range(1, 8)
    }
    assert hists[4][2] >= 1
    assert hists[5][6] >= 2
    assert hists[6][5] >= 1
    for n, hist in hists.items():
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
    for n in (9, 10, 11, 12):
        for s, params, trivial in find_srgs(n):
            verdict = _explicit_verdict(s)
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


# -- the table sweep against its per-set oracles -------------------------------

_sweep = cache(sweep_tables)


def _assert_rows_match_the_oracles(n, mask):
    s = OrbitIndexSet.from_bitmask(n, mask)
    member, spectra, counts = _sweep(n)
    assert member[mask - 1].tolist() == [int(i in s.indices) for i in range(1, n + 1)]
    assert tuple(spectra[mask - 1].tolist()) == full_spectrum(s).values, s.format()
    assert counts[mask - 1].tolist() == [pair_count(s, w) for w in range(1, n + 1)], s.format()


def test_sweep_tables_match_the_per_set_oracles_exhaustively():
    for n in range(1, 11):
        for mask in range(1, 1 << n):
            _assert_rows_match_the_oracles(n, mask)
        for rec in census(n, explicit_cap=0):
            assert rec.distinct_eigenvalues == len(distinct(full_spectrum(rec.index_set)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([11, 12]), st.data())
def test_sweep_tables_match_the_per_set_oracles_at_n11_and_n12(n, data):
    _assert_rows_match_the_oracles(n, data.draw(st.integers(1, (1 << n) - 1)))


def test_table_route_is_exact_at_the_int64_bound():
    # the same products as sweep_tables on a few rows at n = TABLE_INT64_MAX_N
    n = TABLE_INT64_MAX_N
    sets = [OrbitIndexSet.of(n, range(1, n + 1)), OrbitIndexSet.of(n, range(1, n, 2)),
            OrbitIndexSet.of(n, {1, 2, 7, 8, 13, 19, 20})]
    member = np.array([[int(i in s.indices) for i in range(1, n + 1)] for s in sets])
    spectra = member @ character_table(n)[1:]
    counts = np.einsum("mi,wij,mj->mw", member, pair_count_table(n)[1:, 1:, 1:], member)
    sizes = np.array([s.size() for s in sets])
    assert _first_invariant_failure(spectra, sizes) is None
    for s, row, count_row in zip(sets, spectra.tolist(), counts.tolist()):
        assert tuple(row) == full_spectrum(s).values
        assert count_row == [pair_count(s, w) for w in range(1, n + 1)]


def test_int64_bound_is_checked_before_any_work(monkeypatch):
    assert CENSUS_MAX_N <= TABLE_INT64_MAX_N

    def no_work(n):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(census_module, "CENSUS_MAX_N", TABLE_INT64_MAX_N + 4)
    monkeypatch.setattr(census_module, "sweep_tables", no_work)
    with pytest.raises(ValueError, match="int64-exact table bound 20"):
        census(TABLE_INT64_MAX_N + 1, explicit_cap=0)


def _perturbed(table_builder, index):
    def build(n):
        table = table_builder(n)
        table[index] += 1
        return table

    return build


def test_perturbed_pair_count_table_names_the_set(monkeypatch):
    # P[2][1][4] enters only the sets holding both 1 and 4; the first is the
    # Clebsch graph, whose pair count at weight 2 becomes 3 instead of mu = 2
    monkeypatch.setattr(census_module, "pair_count_table", _perturbed(pair_count_table, (2, 1, 4)))
    with pytest.raises(ConsistencyError, match=r"^SRG routes disagree on n=4;I=1,4: pair_count"):
        census(4, explicit_cap=0)


def test_perturbed_character_table_names_the_set(monkeypatch):
    # K[1][2] enters every set holding 1; the first is I={1}, whose trace
    # moves by C(4, 2)
    monkeypatch.setattr(census_module, "character_table", _perturbed(character_table, (1, 2)))
    with pytest.raises(ConsistencyError, match=r"^spectrum trace is nonzero on n=4;I=1$"):
        census(4, explicit_cap=0)


# -- the verdict columns against the dense route and certify ---------------------

@cache
def _columns(n):
    member, spectra, counts = _sweep(n)
    return verdict_columns(member, np.sort(spectra, axis=1), counts)


_SRG_CODES = [code for code, status in enumerate(VerdictStatus) if status.is_srg()]


def _route_verdict(n, row):
    code, degree, lam, mu = row
    status = list(VerdictStatus)[code]
    return status, SrgParams(1 << n, degree, lam, mu) if status.is_srg() else None


def _assert_columns_match_certify(n, mask):
    # the references share no code with the columns: the untagged dense
    # route, the oracle is_connected and spectrum.distinct.  certify runs
    # the same rules on a one-row table of Python ints, so it also checks
    # that the rules read the same verdict from either dtype.
    s = OrbitIndexSet.from_bitmask(n, mask)
    columns, row = _columns(n), mask - 1
    dense = _explicit_verdict(s)
    expected = (dense.status, dense.params)
    assert _route_verdict(n, columns.paircount[row].tolist()) == expected, s.format()
    assert _route_verdict(n, columns.spectral[row].tolist()) == expected, s.format()
    verdict, spectrum = certify(s, 0)
    assert (verdict.status, verdict.params) == expected, s.format()
    assert columns.distinct[row] == len(distinct(spectrum)), s.format()
    assert columns.complete[row] == s.is_full(), s.format()
    assert columns.connected[row] == is_connected(s), s.format()
    assert columns.trivial[row] == (not is_connected(s.complement())), s.format()


def test_verdict_columns_match_certify_exhaustively():
    for n in range(1, 11):
        for mask in range(1, 1 << n):
            _assert_columns_match_certify(n, mask)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([11, 12]), st.data())
def test_verdict_columns_match_certify_at_n11_and_n12(n, data):
    _assert_columns_match_certify(n, data.draw(st.integers(1, (1 << n) - 1)))


@pytest.mark.parametrize("n", [11, 12])
def test_srg_columns_match_certify_at_n11_and_n12(n):
    # uniform draws rarely reach the few SRG rows, the only rows with parameters
    srg_rows = {
        row
        for route in (_columns(n).paircount, _columns(n).spectral)
        for row in np.flatnonzero(np.isin(route[:, 0], _SRG_CODES)).tolist()
    }
    assert len(srg_rows) == (2 if n % 2 else 6)
    for row in srg_rows:
        _assert_columns_match_certify(n, row + 1)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_census_bytes_match_the_per_set_writer(fmt, capsysbinary):
    assert main(["census", "--n", "1..10", "--format", fmt]) == 0
    assert capsysbinary.readouterr().out == census_oracle_bytes(range(1, 11), fmt)


# -- failure paths of the column route ------------------------------------------

def _not_srg(n, indices):
    s = OrbitIndexSet.of(n, indices)
    assert certify(s, 0)[0].status is VerdictStatus.NOT_SRG
    return s


def _routes_disagree(s, *verdicts):
    detail = "; ".join(f"{route}: {json.dumps(v.to_json_dict())}" for route, v in verdicts)
    return f"SRG routes disagree on {s.format()}: {detail}"


def test_perturbed_count_entry_names_the_set(monkeypatch):
    # counts (10, 18, 10, 16, 10) on I={1,3,4,5}: the weight-4 entry set to 10
    # makes lambda and mu constant, so the pair counts read an SRG there
    s = _not_srg(5, {1, 3, 4, 5})

    def perturbed(n):
        member, spectra, counts = sweep_tables(n)
        counts[s.bitmask - 1, 3] -= 6
        return member, spectra, counts

    monkeypatch.setattr(census_module, "sweep_tables", perturbed)
    claimed = SrgVerdict(VerdictStatus.TRIVIAL_SRG, SrgParams(32, 21, 10, 18))
    expected = _routes_disagree(
        s, ("pair_count", claimed), ("spectral", SrgVerdict(VerdictStatus.NOT_SRG))
    )
    with pytest.raises(ConsistencyError) as exc:
        census(5, explicit_cap=0)
    assert str(exc.value) == expected


def test_perturbed_spectrum_entry_names_the_set(monkeypatch):
    # the sorted spectrum (-5, -1, -1, -1, 3, 11) of I={1,4,5} with its 3
    # lowered to -1 keeps three distinct values, read past the invariant checks
    s = _not_srg(5, {1, 4, 5})
    real = srg_module.verdict_columns

    def perturbed(member, spectra, counts):
        assert spectra[s.bitmask - 1].tolist() == [-5, -1, -1, -1, 3, 11]
        spectra[s.bitmask - 1, 4] = -1
        return real(member, spectra, counts)

    monkeypatch.setattr(srg_module, "verdict_columns", perturbed)
    claimed = SrgVerdict(VerdictStatus.NONTRIVIAL_SRG, SrgParams(32, 11, 10, 16))
    expected = _routes_disagree(
        s, ("pair_count", SrgVerdict(VerdictStatus.NOT_SRG)), ("spectral", claimed)
    )
    with pytest.raises(ConsistencyError) as exc:
        census(5, explicit_cap=0)
    assert str(exc.value) == expected


def test_perturbed_dense_constants_name_the_set(monkeypatch):
    # only the dense route reads vertex 0's common-neighbour counts; counts
    # that claim constants for the non-SRG I={1,4,5} must stop the census
    s = _not_srg(5, {1, 4, 5})
    target = _row0(s)
    real = srg_module.walsh_counts

    def perturbed(block):
        connected, complement_connected, counts = real(block)
        for r in np.flatnonzero((block == target).all(axis=1)):
            counts[r] = np.where(block[r], 2, 6)
            counts[r, 0] = 11  # the degree
        return connected, complement_connected, counts

    monkeypatch.setattr(srg_module, "walsh_counts", perturbed)
    not_srg = SrgVerdict(VerdictStatus.NOT_SRG)
    claimed = SrgVerdict(VerdictStatus.NONTRIVIAL_SRG, SrgParams(32, 11, 2, 6))
    expected = _routes_disagree(
        s, ("pair_count", not_srg), ("spectral", not_srg), ("explicit", claimed)
    )
    with pytest.raises(ConsistencyError) as exc:
        census(5)
    assert str(exc.value) == expected


@pytest.mark.parametrize(
    "routes, explicit_cap",
    [
        # the routes' columns disagree, so the row goes to srg._certified
        (("paircount",), 0),
        # both columns claim the same verdict; the dense route joins within its cap
        (("paircount", "spectral"), 8),
    ],
    ids=["one-column", "both-columns"],
)
def test_columns_that_differ_from_agreeing_routes_name_the_set(monkeypatch, routes, explicit_cap):
    # the column of each listed route claims an SRG on the non-SRG I={1,4,5};
    # the routes that read no perturbed column hold not_srg
    s = _not_srg(5, {1, 4, 5})
    real = srg_module.verdict_columns

    def claiming(member, spectra, counts):
        columns = real(member, spectra, counts)
        for route in routes:
            getattr(columns, route)[s.bitmask - 1] = [
                list(VerdictStatus).index(VerdictStatus.NONTRIVIAL_SRG), 11, 10, 16
            ]
        return columns

    monkeypatch.setattr(srg_module, "verdict_columns", claiming)
    claimed = SrgVerdict(VerdictStatus.NONTRIVIAL_SRG, SrgParams(32, 11, 10, 16))
    not_srg = SrgVerdict(VerdictStatus.NOT_SRG)
    verdicts = [("pair_count", claimed), ("spectral", claimed if len(routes) == 2 else not_srg)]
    if explicit_cap >= s.n:
        verdicts.append(("explicit", not_srg))
    with pytest.raises(ConsistencyError) as exc:
        census(5, explicit_cap=explicit_cap)
    assert str(exc.value) == _routes_disagree(s, *verdicts)


def test_census_derives_no_per_set_closed_form_verdict(monkeypatch):
    # every record comes from the verdict columns and, within the dense cap,
    # the dense columns; while they agree no per-set route runs, the dense
    # route's one-row case included
    expected = {(n, CENSUS_DEFAULT_EXPLICIT_CAP): census(n) for n in range(1, CENSUS_MAX_N + 1)}
    expected[10, 10] = census(10, explicit_cap=10)

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-set route ran in the census")

    for name in ("pair_count", "full_spectrum", "_explicit_verdict"):
        monkeypatch.setattr(srg_module, name, forbidden)
    monkeypatch.setattr(spectrum_module, "full_spectrum", forbidden)
    for (n, cap), records in expected.items():
        assert census(n, explicit_cap=cap) == records, (n, cap)


@pytest.mark.parametrize("n, explicit_cap", [(8, 8), (10, 10)])
def test_dense_chunks_of_any_row_count_give_the_same_records(monkeypatch, n, explicit_cap):
    # chunks of one, two and three rows against the default; 2^n - 1 is odd,
    # so two-row chunks end in a short one
    expected = census(n, explicit_cap=explicit_cap)
    for rows in (1, 2, 3):
        monkeypatch.setattr(census_module, "_DENSE_CHUNK", rows << n)
        assert census(n, explicit_cap=explicit_cap) == expected, rows
