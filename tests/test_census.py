"""Exhaustive subset sweeps: records, histograms, and the SRG inventory."""

from __future__ import annotations

import csv
import hashlib
import json
import tracemalloc
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitcayley.census as census_module
import orbitcayley.explicit as explicit_module
import orbitcayley.spectrum as spectrum_module
import orbitcayley.srg as srg_module
from orbitcayley.census import (
    CENSUS_CSV_COLUMNS,
    CENSUS_DEFAULT_EXPLICIT_CAP,
    census_bytes,
    check_census_request,
    sweep_tables,
)
from orbitcayley.cli import EXIT_USAGE, EXIT_VERIFICATION_FAILED, main
from orbitcayley.core import CAPS, ConsistencyError, OrbitIndexSet, pascal_row
from orbitcayley.explicit import _row0
from orbitcayley.spectrum import _first_invariant_failure, character_table, distinct, full_spectrum
from orbitcayley.srg import (
    SrgParams,
    SrgVerdict,
    VerdictStatus,
    certify,
    pair_count_table,
    pair_counts,
    verdict_columns,
)

import oracles
from oracles import (
    INT64_TABLE_BOUND,
    census_oracle_bytes,
    census_records,
    einsum_sweep_tables,
    find_srgs,
    forbid_everywhere,
    is_connected,
    route_verdict,
)

BENCHMARK_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def _by_indices(records):
    return {tuple(rec["I"]): rec for rec in records}


def _params(*values):
    return dict(zip(("vertices", "degree", "lambda", "mu"), values))


def test_census_n4_known_rows():
    records = census_records(4, CENSUS_DEFAULT_EXPLICIT_CAP)
    assert len(records) == 15
    rows = _by_indices(records)
    assert rows[(1, 4)]["params"] == _params(16, 5, 0, 2)
    assert rows[(1, 4)]["status"] == VerdictStatus.NONTRIVIAL_SRG.value
    assert rows[(2, 3)]["params"] == _params(16, 10, 6, 6)
    assert rows[(2, 3)]["status"] == VerdictStatus.NONTRIVIAL_SRG.value
    assert sum(1 for rec in records if rec["connected"]) == 12
    assert all(rec["explicit_verified"] for rec in records)


def test_census_n3_trivial_row():
    rec = _by_indices(census_records(3, CENSUS_DEFAULT_EXPLICIT_CAP))[(1, 3)]
    assert rec["status"] == VerdictStatus.TRIVIAL_SRG.value
    assert rec["params"] == _params(8, 4, 0, 4)


def test_census_record_invariants():
    # nontrivial <=> connected, three distinct eigenvalues, connected
    # complement, and not complete
    for n in range(1, 7):
        for rec in census_records(n, CENSUS_DEFAULT_EXPLICIT_CAP):
            s = OrbitIndexSet.of(n, rec["I"])
            assert rec["distinct"] <= n + 1
            expected_nontrivial = (
                rec["connected"]
                and rec["distinct"] == 3
                and is_connected(s.complement())
                and len(s.indices) != n
            )
            assert (rec["status"] == VerdictStatus.NONTRIVIAL_SRG.value) == expected_nontrivial


def test_census_is_deterministic_and_bitmask_ordered():
    first = census_bytes(5, "jsonl", CENSUS_DEFAULT_EXPLICIT_CAP)
    assert census_bytes(5, "jsonl", CENSUS_DEFAULT_EXPLICIT_CAP) == first
    masks = [OrbitIndexSet.of(5, rec["I"]).bitmask for rec in census_records(5, CENSUS_DEFAULT_EXPLICIT_CAP)]
    assert masks == sorted(masks) == list(range(1, 32))


def test_census_range_validation():
    with pytest.raises(ValueError):
        census_bytes(0, "jsonl", CENSUS_DEFAULT_EXPLICIT_CAP)
    with pytest.raises(ValueError):
        census_bytes(CAPS["census"].limit + 1, "jsonl", CENSUS_DEFAULT_EXPLICIT_CAP)
    assert len(census_records(2, 0)) == 3  # closed-form only
    assert len(census_records(4, CAPS["dense"].limit)) == 15
    with pytest.raises(ValueError):
        census_bytes(4, "jsonl", CAPS["dense"].limit + 1)


def test_unknown_format_is_rejected_before_any_work(monkeypatch):
    def no_work(n, explicit_cap):
        raise AssertionError("the census started")

    monkeypatch.setattr(census_module, "_dimension", no_work)
    for fmt in ("xml", "JSONL"):
        with pytest.raises(ValueError, match=repr(fmt)):
            census_bytes(2, fmt, 0)


def test_census_jsonl_peak_allocation_stays_within_budget():
    census_bytes(14, "jsonl", CENSUS_DEFAULT_EXPLICIT_CAP)  # warm the table caches outside the trace
    tracemalloc.start()
    try:
        size = len(census_bytes(14, "jsonl", CENSUS_DEFAULT_EXPLICIT_CAP))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 3,243,942 B of JSONL.  The line strings and their joined text are
    # live together, then the text and its bytes; the line list of
    # ``str.join`` is freed before ``.encode()``.  10.2 MB was measured,
    # and a third copy of the text (a list comprehension of the lines
    # held through the encode) took 13.5 MB.
    assert size == 3_243_942
    assert peak < 12_000_000, peak


def test_distinct_count_histogram_examples():
    hists = {n: Counter(rec["distinct"] for rec in census_records(n, 0)) for n in range(1, 8)}
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
            verdict = route_verdict(s, "explicit")
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
    lines = census_bytes(4, "jsonl", CENSUS_DEFAULT_EXPLICIT_CAP).decode().splitlines()
    assert len(lines) == 15
    blob = json.loads(lines[0b1001 - 1])
    assert blob["n"] == 4 and blob["I"] == [1, 4]
    assert blob["status"] == "nontrivial_srg"
    assert blob["params"] == {"vertices": 16, "degree": 5, "lambda": 0, "mu": 2}
    assert blob["complement_I"] == [2, 3]
    assert blob["families"] == ["s0s1@4m"]

    rows = census_bytes(4, "csv", CENSUS_DEFAULT_EXPLICIT_CAP).decode().splitlines()
    assert rows[0b1001 - 1] == '4,"1,4",true,3,nontrivial_srg,5,0,2'
    assert all(len(row) == len(CENSUS_CSV_COLUMNS) for row in csv.reader(rows))
    assert rows[0b10 - 1].startswith("4,2,")
    assert next(csv.reader([rows[0b10 - 1]]))[5:] == ["", "", ""]


# -- the table sweep against its per-set oracles -------------------------------

_sweep = cache(sweep_tables)


def _assert_rows_match_the_oracles(n, mask):
    s = OrbitIndexSet.from_bitmask(n, mask)
    member, spectra, counts = _sweep(n)
    assert member[mask - 1].tolist() == [int(i in s.indices) for i in range(1, n + 1)]
    assert tuple(spectra[mask - 1].tolist()) == full_spectrum(s).values, s.format()
    assert tuple(counts[mask - 1].tolist()) == pair_counts(s)[1:], s.format()


def test_sweep_tables_match_the_per_set_oracles_exhaustively():
    for n in range(1, 11):
        for mask in range(1, 1 << n):
            _assert_rows_match_the_oracles(n, mask)
        for rec in census_records(n, 0):
            assert rec["distinct"] == len(distinct(full_spectrum(OrbitIndexSet.of(n, rec["I"]))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([11, 12]), st.data())
def test_sweep_tables_match_the_per_set_oracles_at_n11_and_n12(n, data):
    _assert_rows_match_the_oracles(n, data.draw(st.integers(1, (1 << n) - 1)))


def test_sweep_tables_equal_the_einsum_oracle_up_to_n14():
    for n in range(1, 15):
        for table, expected in zip(sweep_tables(n), einsum_sweep_tables(n)):
            assert table.dtype == expected.dtype, n
            assert np.array_equal(table, expected), n


@pytest.mark.parametrize("n", [5, 6])
def test_sweep_tables_equal_the_einsum_oracle_on_any_pair_table(monkeypatch, n):
    # a table with p_ij^w != p_ji^w: the halves add each pair between them
    # both ways round, as the einsum does, rather than doubling one way
    noise = np.random.default_rng(n).integers(-3, 4, (n + 1,) * 3)

    def skewed(n):
        return pair_count_table(n) + noise

    monkeypatch.setattr(census_module, "pair_count_table", skewed)
    monkeypatch.setattr(oracles, "pair_count_table", skewed)
    assert not np.array_equal(skewed(n), skewed(n).transpose(0, 2, 1))
    assert np.array_equal(sweep_tables(n)[2], einsum_sweep_tables(n)[2])


@pytest.mark.parametrize("n", [15, 16])
def test_sweep_tables_match_the_per_set_oracles_at_n15_and_n16(n):
    # the set {1}, the whole low half, the first orbit of the high half
    # alone, every orbit, every other orbit, and 20 drawn sets
    k = n // 2
    edges = [1, (1 << k) - 1, 1 << k, (1 << n) - 1, sum(1 << i for i in range(0, n, 2))]
    for mask in edges + np.random.default_rng(n).integers(1, 1 << n, 20).tolist():
        _assert_rows_match_the_oracles(n, mask)


def test_table_route_is_exact_at_the_int64_bound():
    # the rows sweep_tables would sum at n = INT64_TABLE_BOUND = 20, made by
    # the same half tables and the same _half_rows for a few values of hi
    # (2^10 rows each) rather than the whole 330 MB table
    n = INT64_TABLE_BOUND
    k = n // 2
    his = np.array([1, 0b1010101010, (1 << (n - k)) - 1])
    spectra, counts = census_module._half_rows(census_module._half_tables(n), his)
    masks = (his[:, None] << k | np.arange(1 << k)).ravel()
    member = (masks[:, None] >> np.arange(n)) & 1
    assert _first_invariant_failure(spectra, member @ np.array(pascal_row(n)[1:])) is None
    for row in [0, 1, (1 << k) - 1, *range(1 << k, len(masks), 337), len(masks) - 1]:
        s = OrbitIndexSet.from_bitmask(n, int(masks[row]))
        assert tuple(spectra[row].tolist()) == full_spectrum(s).values, s.format()
        assert tuple(counts[row].tolist()) == pair_counts(s)[1:], s.format()


def test_dense_cap_is_checked_before_any_work(monkeypatch, capsys):
    # min(n, explicit_cap) over the cap is refused, whichever of the two is
    # larger; every request whose dense route stays within it is accepted
    top, dense, cap = (CAPS[name].limit for name in ("census", "dense", "census dense"))

    def no_work(n):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(census_module, "sweep_tables", no_work)
    monkeypatch.setattr(census_module, "_half_tables", no_work)
    for argv in (
        ["census", "--n", str(top), "--explicit-cap", str(top)],
        ["census", "--n", str(cap + 1), "--explicit-cap", str(dense)],
        ["census", "--n", str(top), "--explicit-cap", str(cap + 1)],
        ["census", "--n", f"1..{top}", "--explicit-cap", str(cap + 1)],
    ):
        assert main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: min(n, explicit cap)="), argv
        assert err.endswith(f" exceeds the census dense cap {cap}\n"), argv
    for n, explicit_cap in ((top, cap), (cap, dense)):
        check_census_request(n, explicit_cap)


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
        census_bytes(4, "jsonl", 0)


def test_perturbed_character_table_names_the_set(monkeypatch):
    # K[1][2] enters every set holding 1; the first is I={1}, whose trace
    # moves by C(4, 2)
    monkeypatch.setattr(census_module, "character_table", _perturbed(character_table, (1, 2)))
    with pytest.raises(ConsistencyError, match=r"^spectrum trace is nonzero on n=4;I=1$"):
        census_bytes(4, "jsonl", 0)


# -- the verdict columns against the dense route and certify ---------------------

@cache
def _columns(n):
    member, spectra, counts = _sweep(n)
    return verdict_columns(member, np.sort(spectra, axis=1), counts)


_SRG_STATUSES = (VerdictStatus.TRIVIAL_SRG, VerdictStatus.NONTRIVIAL_SRG)
_SRG_CODES = [code for code, status in enumerate(VerdictStatus) if status in _SRG_STATUSES]


def _route_verdict(n, row):
    code, degree, lam, mu = row
    status = list(VerdictStatus)[code]
    return status, SrgParams(1 << n, degree, lam, mu) if status in _SRG_STATUSES else None


def _assert_columns_match_certify(n, mask):
    # the references share no code with the columns: the untagged dense
    # route, the oracle is_connected and spectrum.distinct.  certify runs
    # the same rules on a one-row table of Python ints, so it also checks
    # that the rules read the same verdict from either dtype.
    s = OrbitIndexSet.from_bitmask(n, mask)
    columns, row = _columns(n), mask - 1
    dense = route_verdict(s, "explicit")
    expected = (dense.status, dense.params)
    assert _route_verdict(n, columns.paircount[row].tolist()) == expected, s.format()
    assert _route_verdict(n, columns.spectral[row].tolist()) == expected, s.format()
    verdict, spectrum = certify(s, 0)
    assert (verdict.status, verdict.params) == expected, s.format()
    assert columns.distinct[row] == len(distinct(spectrum)), s.format()
    status = list(VerdictStatus)[columns.paircount[row, 0]]
    assert (status is VerdictStatus.COMPLETE) == (len(s.indices) == n), s.format()
    assert (status is not VerdictStatus.DISCONNECTED) == is_connected(s), s.format()


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


def _forbid_per_set_routes(monkeypatch):
    # the closed forms of one set and the dense row 0 of one set, wherever bound
    def forbidden(*args, **kwargs):
        raise AssertionError("a per-set route ran in the census")

    forbid_everywhere(
        monkeypatch,
        (srg_module.pair_counts, spectrum_module.full_spectrum, explicit_module._row0),
        forbidden,
    )


def _census_failure(n, explicit_cap, tmp_path, capsys):
    """The ConsistencyError text of the census of dimension n, from the library and the CLI.

    No per-set route may run, so the text comes from the rows the census
    already holds.  The CLI must exit 1 with the same text on stderr and
    leave tmp_path empty: no --out file and no temporary file beside it.
    """
    out = tmp_path / "census.jsonl"
    argv = ["census", "--n", str(n), "--explicit-cap", str(explicit_cap), "--out", str(out)]
    with pytest.MonkeyPatch.context() as mp:
        _forbid_per_set_routes(mp)
        with pytest.raises(ConsistencyError) as exc:
            census_bytes(n, "jsonl", explicit_cap)
        assert main(argv) == EXIT_VERIFICATION_FAILED
    assert capsys.readouterr().err == f"verification failure: {exc.value}\n"
    assert list(tmp_path.iterdir()) == []
    return str(exc.value)


def _routes_disagree(s, *verdicts):
    detail = "; ".join(f"{route}: {json.dumps(v.to_json_dict())}" for route, v in verdicts)
    return f"SRG routes disagree on {s.format()}: {detail}"


def test_perturbed_count_entry_names_the_set(monkeypatch, tmp_path, capsys):
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
    assert _census_failure(5, 0, tmp_path, capsys) == expected


def test_perturbed_spectrum_entry_names_the_set(monkeypatch, tmp_path, capsys):
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
    assert _census_failure(5, 0, tmp_path, capsys) == expected


def test_perturbed_dense_constants_name_the_set(monkeypatch, tmp_path, capsys):
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
    assert _census_failure(5, CENSUS_DEFAULT_EXPLICIT_CAP, tmp_path, capsys) == expected


@pytest.mark.parametrize(
    "routes, explicit_cap",
    [
        # the routes' columns disagree
        (("paircount",), 0),
        # both columns claim the same verdict; the dense route joins within its cap
        (("paircount", "spectral"), 8),
    ],
    ids=["one-column", "both-columns"],
)
def test_columns_that_differ_from_agreeing_routes_name_the_set(
    monkeypatch, tmp_path, capsys, routes, explicit_cap
):
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
    assert _census_failure(5, explicit_cap, tmp_path, capsys) == _routes_disagree(s, *verdicts)


def test_census_derives_no_per_set_closed_form_verdict(monkeypatch, capsysbinary):
    # every record comes from the verdict columns and, within the dense cap,
    # the dense columns; no per-set route runs, neither a closed form of one
    # set nor the dense row 0 of one set.  The dense route covers n = 10 with
    # the bytes unchanged, and the CLI writes the benchmark's range, whose
    # hash the benchmark records.
    benchmark = json.loads(BENCHMARK_EXPECTED.read_text())
    assert benchmark["census_command"].startswith("orbitcayley census --n 1..12 ")
    expected = census_bytes(10, "jsonl", 10)
    _forbid_per_set_routes(monkeypatch)
    assert census_bytes(10, "jsonl", 10) == expected
    assert main(["census", "--n", "1..12"]) == 0
    digest = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert digest == benchmark["census_sha256"]


@pytest.mark.parametrize("n, explicit_cap", [(8, 8), (10, 10)])
def test_dense_chunks_of_any_row_count_give_the_same_records(monkeypatch, n, explicit_cap):
    # chunks of one, two and three rows against the default, in both formats;
    # 2^n - 1 is odd, so two-row chunks end in a short one
    expected = {fmt: census_bytes(n, fmt, explicit_cap) for fmt in ("jsonl", "csv")}
    for rows in (1, 2, 3):
        monkeypatch.setattr(srg_module, "_DENSE_CHUNK", rows << n)
        for fmt, blob in expected.items():
            assert census_bytes(n, fmt, explicit_cap) == blob, (rows, fmt)
