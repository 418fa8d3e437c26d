"""CLI subcommands: outputs, file handling, and the exit-code contract."""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import importlib
import io
import json
import os
import re
import sys
import time
import tracemalloc
from itertools import groupby
from pathlib import Path

import pytest

import orbitcayley.cli as cli_module
import orbitcayley.graph6 as graph6_module
import orbitcayley.identities as identities_module
import orbitcayley.srg as srg_module
from orbitcayley.census import CENSUS_DEFAULT_EXPLICIT_CAP, census_bytes
from orbitcayley.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION_FAILED, build_parser, main
from orbitcayley.core import CAPS, ConsistencyError, pascal_row
from orbitcayley.spectrum import Spectrum, _residue_spectrum, character_sum_row
from orbitcayley.srg import FAMILIES, NONTRIVIAL_FAMILY_KEYS, _residue_pair_counts, emit_table1

from oracles import forbid_everywhere

README = Path(__file__).resolve().parents[1] / "README.md"
BENCHMARK_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
BENCHMARK_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LIMIT = {name: cap.limit for name, cap in CAPS.items()}


def _exit_code(argv):
    """The exit code of main, including argparse's SystemExit for a rejected flag or value."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_spectrum_json(capsys):
    assert main(["spectrum", "--set", "n=4;I=1,4"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4
    assert payload["entries"][0] == {"k": 0, "value": 5, "multiplicity": 1}


def test_spectrum_distinct_csv_with_oracle(capsys):
    assert main(["spectrum", "--set", "n=4;I=1,4", "--distinct", "--check-oracle"]) == EXIT_OK
    assert capsys.readouterr().out == "value,multiplicity\n5,1\n1,10\n-3,5\n"


def test_spectrum_oracle_cap_is_usage_error(capsys):
    code = main(["spectrum", "--set", f"n={LIMIT['transform'] + 1};I=1", "--check-oracle"])
    assert code == EXIT_USAGE
    assert "exceeds the transform cap" in capsys.readouterr().err


def test_oracle_disagreement_names_the_set_and_both_spectra(monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "wht_spectrum", lambda s: Spectrum(4, (5, 1, 1, -3, -2)))
    code = main(["spectrum", "--set", "n=4;I=1,4", "--check-oracle"])
    assert code == EXIT_VERIFICATION_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n=4;I=1,4" in captured.err
    assert "closed form (5, 1, 1, -3, -3), transform (5, 1, 1, -3, -2)" in captured.err


def test_srg_check_json(capsys):
    assert main(["srg-check", "--set", "n=4;I=1,4", "--explicit"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["set"] == "n=4;I=1,4"
    assert payload["status"] == "nontrivial_srg"
    assert payload["params"] == {"vertices": 16, "degree": 5, "lambda": 0, "mu": 2}
    assert payload["families"] == ["s0s1@4m"]


def test_srg_check_explicit_runs_at_the_dense_cap(capsys):
    s = FAMILIES["s0s1@4m"].index_set(5)
    assert s.n == LIMIT["dense"]
    assert main(["srg-check", "--set", s.format(), "--explicit"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "nontrivial_srg"
    params = {"vertices": 1 << 20, "degree": 523775, "lambda": 261630, "mu": 261632}
    assert payload["params"] == params


def test_srg_check_disconnected_still_exits_zero(capsys):
    assert main(["srg-check", "--set", "n=4;I=2"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "disconnected"
    assert payload["params"] is None


def test_malformed_set_is_usage_error(capsys):
    for bad in ("garbage", "n=4;I=4,1", "n=4;I=1,1", "n=4;I= 1, 4 "):
        assert main(["srg-check", "--set", bad]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--bogus"])
    assert exc.value.code == EXIT_USAGE


def test_census_jsonl_and_csv(tmp_path):
    jsonl = tmp_path / "census.jsonl"
    assert main(["census", "--n", "3..4", "--out", str(jsonl)]) == EXIT_OK
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 7 + 15
    first = json.loads(lines[0])
    assert first["n"] == 3 and first["I"] == [1]

    out = tmp_path / "census.csv"
    assert main(["census", "--n", "4", "--format", "csv", "--out", str(out)]) == EXIT_OK
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["n", "I", "connected", "distinct", "verdict", "r", "lambda", "mu"]
    assert rows[1] == ["4", "1", "true", "5", "not_srg", "", "", ""]
    by_set = {row[1]: row for row in rows[1:]}
    assert by_set["1,4"] == ["4", "1,4", "true", "3", "nontrivial_srg", "5", "0", "2"]


def test_census_determinism(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["census", "--n", "5", "--out", str(a)]) == EXIT_OK
    assert main(["census", "--n", "5", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_census_bad_range_is_usage_error(capsys):
    assert main(["census", "--n", "0"]) == EXIT_USAGE
    assert main(["census", "--n", str(LIMIT["census"] + 1)]) == EXIT_USAGE
    assert main(["census", "--n", "5..4"]) == EXIT_USAGE


# the first size above each cap, by cap name
BEYOND_A_LIMIT = {
    "closed-form": [
        ["srg-check", "--set", f"n={LIMIT['closed-form'] + 1};I=1"],
        ["spectrum", "--set", f"n={LIMIT['closed-form'] + 1};I=1"],
    ],
    "census": [
        ["census", "--n", str(LIMIT["census"] + 1)],
        ["census", "--n", f"1..{LIMIT['census'] + 1}"],  # rejected before n = 1..16 is swept
    ],
    "census dense": [
        ["census", "--n", str(LIMIT["census dense"] + 1),
         "--explicit-cap", str(LIMIT["census dense"] + 1)],
    ],
    "dense": [
        ["census", "--n", "4", "--explicit-cap", str(LIMIT["dense"] + 1)],
        ["srg-check", "--set", f"n={LIMIT['dense'] + 1};I=1", "--explicit"],
    ],
    "export": [["export", "--set", f"n={LIMIT['export'] + 1};I=1"]],
    "transform": [["spectrum", "--set", f"n={LIMIT['transform'] + 1};I=1", "--check-oracle"]],
    "identities": [["identities", "--max-m", str(LIMIT["identities"] + 1)]],
    "families": [["families", "--m-max", str(LIMIT["families"] + 1)]],
    "families check": [["families", "--m-max", "300", "--check-cap", str(LIMIT["families check"] + 1)]],
}
# refused with no cap: each flag that used to move a limit
REFUSED_WITHOUT_A_CAP = [
    ["spectrum", "--set", "n=4;I=1", "--wht-cap", "30"],
    ["srg-check", "--set", "n=4;I=1", "--explicit", "--explicit-cap", "15"],
    ["census", "--n", "4", "--max-n", "30"],
    ["export", "--set", "n=4;I=1", "--max-n", "20"],
]


def _names_its_cap(err, name):
    """Whether stderr is the one refusal of cap ``name``: '<quantity>=<value> exceeds the ...'."""
    pattern = rf"error: \S.*=\d+ exceeds the {re.escape(name)} cap {LIMIT[name]}\n"
    return re.fullmatch(pattern, err) is not None


def test_cap_invariants_are_usage_errors(tmp_path, capsys):
    assert set(BEYOND_A_LIMIT) == set(CAPS)
    out = tmp_path / "out"
    cases = [(name, argv) for name, argvs in BEYOND_A_LIMIT.items() for argv in argvs]
    for name, argv in cases + [(None, argv) for argv in REFUSED_WITHOUT_A_CAP]:
        start = time.perf_counter()
        assert _exit_code(argv + ["--out", str(out)]) == EXIT_USAGE, argv
        assert time.perf_counter() - start < 1.0, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists(), argv
        assert name is None or _names_its_cap(captured.err, name), (argv, captured.err)


def test_over_cap_requests_fail_before_any_closed_form(monkeypatch, capsys):
    # every over-cap request is rejected before a character sum, a residue
    # form or a Pascal row is made; srg-check --explicit over the dense cap
    # and spectrum --check-oracle over the transform cap also at the largest
    # n the closed forms take
    def no_work(*args):
        pytest.fail("a closed form ran before the request was rejected")

    forbidden = (character_sum_row, _residue_spectrum, _residue_pair_counts, pascal_row)
    forbid_everywhere(monkeypatch, forbidden, no_work)
    top = LIMIT["closed-form"]
    odd = f"n={top};I=" + ",".join(map(str, range(1, top, 2)))
    cases = {name: list(argvs) for name, argvs in BEYOND_A_LIMIT.items()}
    cases["dense"].append(["srg-check", "--set", odd, "--explicit"])
    cases["transform"].append(["spectrum", "--set", odd, "--check-oracle"])
    for name, argvs in cases.items():
        for argv in argvs:
            assert main(argv) == EXIT_USAGE, argv
            assert _names_its_cap(capsys.readouterr().err, name), argv


def test_integer_flags_take_ascii_digits_only(capsys):
    prefixes = [
        ["census", "--n"],
        ["census", "--n", "4", "--explicit-cap"],
        ["families", "--m-max"],
        ["families", "--m-max", "1", "--check-cap"],
        ["identities", "--max-m"],
    ]
    # int() accepts all of these but the last two
    for bad in ("1_0", "+4", " 4", "4 ", "\uff14", "-1", "4.0", ""):
        for prefix in prefixes:
            assert _exit_code(prefix + [bad]) == EXIT_USAGE, (prefix, bad)
            assert capsys.readouterr().out == ""
        assert main(["census", "--n", f"1..{bad}"]) == EXIT_USAGE
    # leading zeros are accepted
    assert main(["census", "--n", "03"]) == EXIT_OK
    padded = capsys.readouterr().out
    assert main(["census", "--n", "3"]) == EXIT_OK
    assert capsys.readouterr().out == padded


def test_families_table(capsys):
    assert main(["families", "--m-max", "2"]) == EXIT_OK
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["graph", "n_vertices", "r", "lambda", "mu", "verified"]
    assert len(rows) == 1 + 12
    assert all(row[5] == "yes" for row in rows[1:])
    table = {(row[0]): tuple(int(x) for x in row[1:5]) for row in rows[1:]}
    assert table["Cay(Z2^4,S0+S1)"] == (16, 5, 0, 2)
    assert table["Cay(Z2^6,S0+S3)"] == (64, 35, 18, 20)
    assert table["Cay(Z2^10,S2+S3)"] == (1024, 496, 240, 240)


def test_families_skip_beyond_cap(capsys):
    assert main(["families", "--m-max", "6", "--check-cap", "10"]) == EXIT_OK
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    skipped = [row for row in rows[1:] if row[5] == "skipped"]
    assert skipped and all(int(row[1]) > 1 << 10 for row in skipped)


def test_identities_report(capsys):
    assert main(["identities", "--max-m", "3"]) == EXIT_OK
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["id", "k", "m", "lhs", "rhs", "pass"]
    assert all(row[5] == "true" for row in rows[1:])
    assert ["T34", "1", "1", "2", "2", "true"] in rows


def test_export_writes_graph6(tmp_path, capsys):
    out = tmp_path / "k4.g6"
    assert main(["export", "--set", "n=2;I=1,2", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == b"C~\n"
    assert main(["export", "--set", "n=1;I=1"]) == EXIT_OK


def test_export_holds_one_copy_of_the_graph6_string(tmp_path):
    out = tmp_path / "family.g6"
    argv = ["export", "--set", "n=12;I=1,4,5,8,9,12", "--out", str(out)]
    assert main(argv) == EXIT_OK  # warm lazy imports and caches outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 1,397,765 B with the newline; each 64-row block is written as it is
    # encoded, so the encoder's buffers (about 0.3 MB) fit, one copy of the
    # string does not
    assert peak < out.stat().st_size // 2, peak


def _traced_peak(argv):
    """The traced peak of main(argv) after two untraced warm-up runs.

    The warm-ups fill the Pascal-row and running-sum caches and the lazy
    imports, so the peak is what the writer holds.  One warm-up is not
    enough: the next traced peak of identities --max-m 60 read 352 KB,
    and every later one 165 KB.
    """
    for _ in range(2):
        assert main(argv) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_identities_peak_allocation_is_under_a_quarter_of_one_id(tmp_path):
    out = tmp_path / "identities.csv"
    baseline = _traced_peak(["identities", "--max-m", "1", "--out", str(out)])
    peak = _traced_peak(["identities", "--max-m", "60", "--out", str(out)])
    rows = out.read_bytes().splitlines(keepends=True)[1:]
    runs = groupby(rows, key=lambda row: row.split(b",", 1)[0])
    chunk = max(sum(map(len, run)) for _, run in runs)  # 221 KB of 2.66 MB
    # each row is written as it is made, so with warm caches the peak holds
    # a few rows and the writer's buffers, not the rows of one identity.
    # Measured: 24 KB over the baseline, 1.06 MB when the writer held the
    # rows of each identity until the next began
    assert peak - baseline < chunk // 4, (peak, baseline, chunk)


def test_families_peak_allocation_holds_at_most_a_few_m(tmp_path):
    out = tmp_path / "families.csv"
    baseline = _traced_peak(["families", "--m-max", "1", "--check-cap", "0", "--out", str(out)])
    peak = _traced_peak(["families", "--m-max", "400", "--check-cap", "0", "--out", str(out)])
    rows = out.read_bytes().splitlines(keepends=True)[1:]
    per_m = len(NONTRIVIAL_FAMILY_KEYS)
    chunk = max(sum(map(len, rows[i : i + per_m])) for i in range(0, len(rows), per_m))
    # the rows of one m are about 12 KB, and the peak is 25 KB over the
    # baseline, so this bound cannot tell the rows of one m from one row;
    # it guards against holding many m.  Measured: 10 MB when the whole
    # table was held
    assert peak - baseline < 4 * chunk, (peak, baseline, chunk)


def test_census_drops_each_dimension_before_making_the_next(tmp_path):
    out = tmp_path / "census.jsonl"
    peaks = {}
    for n in ("11..12", "12"):
        argv = ["census", "--n", n, "--out", str(out)]
        assert main(argv) == EXIT_OK  # warm lazy imports and caches outside the trace
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the n = 11 output is 380,447 B; held while n = 12 is made, it adds all
    # of itself to the peak.  Measured: +1.6 KB when it is dropped first
    held = len(census_bytes(11, "jsonl", CENSUS_DEFAULT_EXPLICIT_CAP))
    assert peaks["11..12"] - peaks["12"] < held // 4, (peaks, held)


def _with_failing_row(good, prefix, passed, failed):
    """The good output with the one line that starts with prefix ending in failed, not passed."""
    lines = good.splitlines(keepends=True)
    (at,) = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    assert lines[at].endswith(passed)
    lines[at] = lines[at][: -len(passed)] + failed
    return b"".join(lines)


def _assert_written_with_exit_one(tmp_path, capsysbinary, argv, expected):
    out = tmp_path / "out"
    out.write_bytes(b"previous contents\n")
    assert main(argv) == EXIT_VERIFICATION_FAILED
    assert capsysbinary.readouterr().out == expected
    assert main(argv + ["--out", str(out)]) == EXIT_VERIFICATION_FAILED
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_a_failing_identity_row_is_written_and_exits_one(tmp_path, monkeypatch, capsysbinary):
    argv = ["identities", "--max-m", "3"]
    assert main(argv) == EXIT_OK
    good = capsysbinary.readouterr().out
    real = identities_module._sides

    def off_by_one(identity_id, k, m):
        lhs, rhs = real(identity_id, k, m)
        return (lhs + 1 if (identity_id, k, m) == ("T35-v", 1, 2) else lhs), rhs

    monkeypatch.setattr(identities_module, "_sides", off_by_one)
    expected = _with_failing_row(good, b"T35-v,1,2,", b",272,272,true\n", b",273,272,false\n")
    _assert_written_with_exit_one(tmp_path, capsysbinary, argv, expected)


def test_a_failing_family_row_is_written_and_exits_one(tmp_path, monkeypatch, capsysbinary):
    argv = ["families", "--m-max", "2"]
    assert main(argv) == EXIT_OK
    good = capsysbinary.readouterr().out
    failing = FAMILIES["s1s2@4m+2"].index_set(1)
    failing_row = [i in failing.indices for i in range(1, failing.n + 1)]
    real = srg_module.certified_rows

    def not_an_srg_at_one_set(n, member, spectra, counts, explicit_cap):
        # the pipeline reads no SRG verdict for the failing row of its table
        columns, verdicts = real(n, member, spectra, counts, explicit_cap)
        return columns, {r: v for r, v in verdicts.items() if member[r].tolist() != failing_row}

    monkeypatch.setattr(srg_module, "certified_rows", not_an_srg_at_one_set)
    expected = _with_failing_row(good, b'"Cay(Z2^6,S1+S2)",', b",yes\n", b",no\n")
    _assert_written_with_exit_one(tmp_path, capsysbinary, argv, expected)


class _FailingWriter(io.RawIOBase):
    """Stands in for the file object: writes half of what it is given, then fails.

    A file object in full (``writelines``, ``flush``, ``closed``, ...), as
    the CSV reports wrap it in a ``TextIOWrapper``.
    """

    calls = 0

    def __init__(self, fh):
        self.fh = fh

    def writable(self):
        return True

    def write(self, data):
        _FailingWriter.calls += 1
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("device full")

    def close(self):
        self.fh.close()
        super().close()


@pytest.mark.parametrize("argv", [
    ["export", "--set", "n=4;I=1,4"],
    ["srg-check", "--set", "n=4;I=1,4"],
    ["census", "--n", "1..4"],
    ["identities", "--max-m", "1"],
    ["families", "--m-max", "1"],
])
@pytest.mark.parametrize("existing", [None, b"previous contents\n"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys, argv, existing):
    out = tmp_path / "result"
    if existing is not None:
        out.write_bytes(existing)
    real_fdopen = os.fdopen
    monkeypatch.setattr(_FailingWriter, "calls", 0)
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _FailingWriter(real_fdopen(fd, mode)))
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert _FailingWriter.calls == 1
    assert "device full" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["result"])
    if existing is not None:
        assert out.read_bytes() == existing


def test_failure_in_a_later_census_dimension_writes_nothing(tmp_path, monkeypatch, capsysbinary):
    out = tmp_path / "result"
    out.write_bytes(b"previous contents\n")
    real_census_bytes = cli_module.census_bytes
    seen_at_failure = []

    def census_bytes_failing_at_4(n, *args):
        if n == 4:
            seen_at_failure.append(sorted(p.name for p in tmp_path.iterdir()))
            raise ConsistencyError("injected at n=4")
        return real_census_bytes(n, *args)

    monkeypatch.setattr(cli_module, "census_bytes", census_bytes_failing_at_4)
    assert main(["census", "--n", "3..4"]) == EXIT_VERIFICATION_FAILED
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert b"injected at n=4" in captured.err

    assert main(["census", "--n", "3..4", "--out", str(out)]) == EXIT_VERIFICATION_FAILED
    assert capsysbinary.readouterr().out == b""
    # n = 3 went into the temporary file before n = 4 was made
    tmp_name, target = seen_at_failure[1]
    assert re.fullmatch(r"\.result\.[0-9a-f]{8}\.tmp", tmp_name) and target == "result"
    assert out.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["result"]


def test_failure_in_a_later_graph6_group_writes_nothing(tmp_path, monkeypatch, capsysbinary):
    # n = 7: 128 rows, encoded in 2 blocks of 64 rows; each export fails in its second block
    out = tmp_path / "result"
    out.write_bytes(b"previous contents\n")
    real_characters = graph6_module._characters
    calls = []

    def characters_failing_second(*args):
        calls.append(sorted(p.name for p in tmp_path.iterdir()))
        if len(calls) % 2 == 0:
            raise ConsistencyError("injected in block 2")
        return real_characters(*args)

    monkeypatch.setattr(graph6_module, "_characters", characters_failing_second)
    argv = ["export", "--set", "n=7;I=1,4,5"]
    assert main(argv) == EXIT_VERIFICATION_FAILED
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert b"injected in block 2" in captured.err

    assert main(argv + ["--out", str(out)]) == EXIT_VERIFICATION_FAILED
    assert capsysbinary.readouterr().out == b""
    # the header and block 1 went to the temporary file before block 2 was encoded
    tmp_name, target = calls[3]
    assert re.fullmatch(r"\.result\.[0-9a-f]{8}\.tmp", tmp_name) and target == "result"
    assert out.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["result"]


def test_export_over_the_cap_writes_nothing(tmp_path, capsys):
    out = tmp_path / "over.g6"
    argv = ["export", "--set", f"n={LIMIT['export'] + 1};I=1", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert _names_its_cap(capsys.readouterr().err, "export")
    assert list(tmp_path.iterdir()) == []


# one argv per subcommand and output format
EVERY_OUTPUT = [
    ["spectrum", "--set", "n=4;I=1,4"],
    ["spectrum", "--set", "n=4;I=1,4", "--distinct"],
    ["srg-check", "--set", "n=4;I=1,4"],
    ["census", "--n", "1..4"],
    ["census", "--n", "1..4", "--format", "csv"],
    ["families", "--m-max", "2"],
    ["identities", "--max-m", "3"],
    ["export", "--set", "n=6;I=1,4,5"],
]


@pytest.mark.parametrize("argv", EVERY_OUTPUT)
def test_stdout_bytes_equal_out_bytes(tmp_path, capsysbinary, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsysbinary.readouterr().out == b""
    assert main(argv) == EXIT_OK
    assert capsysbinary.readouterr().out == out.read_bytes() != b""


def test_census_to_12_matches_the_benchmark_hash(capsysbinary):
    expected = json.loads(BENCHMARK_EXPECTED.read_text())
    assert expected["census_command"] == "orbitcayley census --n 1..12 --out census.jsonl"
    assert main(["census", "--n", "1..12"]) == EXIT_OK
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == expected["census_sha256"]


def test_out_replaces_an_existing_file(tmp_path):
    out = tmp_path / "k4.g6"
    out.write_bytes(b"a much longer previous file than the new contents\n")
    assert main(["export", "--set", "n=2;I=1,2", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == b"C~\n"
    assert [p.name for p in tmp_path.iterdir()] == ["k4.g6"]


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ORBITCAYLEY_OUT_DIR", str(tmp_path))
    assert main(["export", "--set", "n=2;I=1,2", "--out", "k4.g6"]) == EXIT_OK
    assert (tmp_path / "k4.g6").read_bytes() == b"C~\n"


def test_emit_table1_shape():
    rows = list(emit_table1(1))
    assert [row["graph"] for row in rows] == [
        "Cay(Z2^4,S0+S1)",
        "Cay(Z2^4,S2+S3)",
        "Cay(Z2^6,S0+S1)",
        "Cay(Z2^6,S2+S3)",
        "Cay(Z2^6,S1+S2)",
        "Cay(Z2^6,S0+S3)",
    ]
    with pytest.raises(ValueError):
        emit_table1(0)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="Python < 3.10.7")
def test_families_stop_at_the_int_to_str_digit_limit(capsys):
    # at Python's smallest limit, 640 digits, the last row of the cap's
    # m_max = 531 has 2^2126 vertices, exactly 640 digits; m_max = 532 is
    # refused by the cap before any row
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["families", "--m-max", str(LIMIT["families"]), "--check-cap", "0"]) == EXIT_OK
        last = list(csv.reader(capsys.readouterr().out.splitlines()))[-1]
        assert last[0] == "Cay(Z2^2126,S0+S3)" and len(last[1]) == 640
        with pytest.raises(ValueError, match=r"^m_max=532 exceeds the families cap 531$"):
            emit_table1(532, check_cap=0)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="Python < 3.10.7")
def test_families_cap_holds_without_a_digit_limit(capsys):
    # with no int-to-str limit the cap alone refuses m_max = 532, before any row
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        start = time.perf_counter()
        assert main(["families", "--m-max", "532", "--check-cap", "0"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: m_max=532 exceeds the families cap 531\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_families_certifies_every_row_to_m64(capsys):
    # every row up to n = 258 is certified by the residue forms
    assert main(["families", "--m-max", "64", "--check-cap", "258"]) == EXIT_OK
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert len(rows) == 64 * 6 and {row[-1] for row in rows} == {"yes"}


# sha256 of each output, recorded before the certification routes were merged
RECORDED_OUTPUT_SHA256 = {
    ("census", "--n", "1..8"):
        "4136242ecb9a8205da552c876ca3f702161e947e0d9a83367670d7e029d939d6",
    ("census", "--n", "1..8", "--format", "csv"):
        "2c0cc480a987f94d167f3c33f8a8d29e0e7d67ff00b7b525356892cebc7e200f",
    # the I fields with the most commas, at n = 11 and 12
    ("census", "--n", "1..12", "--format", "csv"):
        "3078fdabf8bb9854fe255d8cb20f9c5e01c81ec23d7b586f77a6573d2b52590e",
    # the dense route on every set up to n = 10
    ("census", "--n", "1..10", "--explicit-cap", "10"):
        "2b50c86570123122de95335cbe6b2b7c1366334e092cb505ec07b281c5995b7e",
    # the dense route in chunks of several rows 0 above n = 10
    ("census", "--n", "11", "--explicit-cap", "11"):
        "c9275ade09907b83aedf75a5cbb0e8cc72264cbd3d171e06d885130b9a83323f",
    # past the old cap of 12, recorded with the census tables made by the
    # whole-table einsum (tests/oracles.py), not by the mask halves
    ("census", "--n", "13..14"):
        "6313e753ddf141ee6ac871735b63f5c52ffca4479626e8b26f9050f30ffcda62",
    ("census", "--n", "13", "--format", "csv"):
        "b1a8f3dea793cb2d0bfe17cc865c44263a46a49c33b99bfd888774696476f904",
    ("families", "--m-max", "6"):
        "054f43ff6a141e570c28f60426bc8fa5a19977f30fbad203a744e923f65553bd",
    # recorded before pair counts and double sums moved to cached Pascal rows
    ("identities", "--max-m", "25"):
        "0b63d893091c311c06a9d198cf23f64d33c4b1eff1154fef2b01fd66e491fb78",
    ("families", "--m-max", "16", "--check-cap", "66"):
        "4ae294ede4ae3dc23315fb60d03d67bea3f62710ab870b0dc4df651ff7a80c5f",
    # one verdict of each kind with parameters or counts beyond int64:
    # s2s3@4m at m = 17 (n = 68), s_odd at n = 200, and a non-SRG at n = 128
    ("srg-check", "--set", "n=68;I=" + ",".join(str(i) for i in range(2, 68) if i % 4 in (2, 3))):
        "50d85be09246460254caae6e10c565560be25cd0bf857fd097d6a53e2b23cca6",
    ("srg-check", "--set", "n=200;I=" + ",".join(str(i) for i in range(1, 200, 2))):
        "86e909fd6c58a8dfc9deaefe6073a6a570c0e1b00df234a8a13180bcba408557",
    ("srg-check", "--set", "n=128;I=1,2"):
        "601c836ff473ae655a1ddedd9dc932d5d8dac99954e3f4a0131ccabcf3682f24",
    # graph6 bodies of 8.4, 33.6 and 134 Mbit, recorded before the export
    # packed 48-row groups
    ("export", "--set", "n=12;I=1,4,5,8,9,12"):
        "7cb498512621b4747ec8a365eb0d57d2e74be1658e06d27efc6be60b7ff69b0b",
    ("export", "--set", "n=13;I=1,3,5,7,9,11,13"):
        "b65e4cf339399894c32e628b6d36378ff656f9c780faef3807c135b447d4ebfe",
    ("export", "--set", "n=14;I=1,4,5,8,9,12,13"):
        "1d1a6811391ac9acd2e1e5d32a30789d458e6e47191973f839f964751a0eb4c1",
}


def test_outputs_are_byte_identical_to_recorded_hashes(tmp_path):
    for argv, expected in RECORDED_OUTPUT_SHA256.items():
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected, argv


def _readme_synopsis():
    """Subcommand -> set of --flags, from the sh block of the README's CLI section."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line)) for line in block.splitlines()}


def test_readme_cli_synopsis_matches_the_parser():
    actions = build_parser()._actions
    subcommands = next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices
    synopsis = _readme_synopsis()
    assert set(synopsis) == set(subcommands)
    for name, sub in subcommands.items():
        flags = {opt for action in sub._actions for opt in action.option_strings}
        assert synopsis[name] == flags - {"-h", "--help"}, name


def test_readme_caps_table_matches_the_constants():
    header = "| cap | limit | quantity | bounds | checked in |\n|---|---|---|---|---|\n"
    table = README.read_text().split(header)[1].split("\n\n", 1)[0]
    rows = {}
    for row in table.splitlines():
        name, limit, quantity = re.match(r"\| `([^`]+)` \| (\d+) \| `([^`]+)` \|", row).groups()
        rows[name] = (int(limit), quantity)
    assert len(rows) == len(table.splitlines())
    assert rows == {name: tuple(cap) for name, cap in CAPS.items()}


# traced names whose functions have left the package; the benchmark reports
# them as absent spans until its traced list is corrected
KNOWN_ABSENT_TRACED = {
    "census.census",
    "srg.pair_count",
    "srg.srg_check_paircount",
    "srg.srg_check_spectral",
    "srg.srg_check_explicit",
    "explicit.ExplicitGraph.build",
    "explicit.common_neighbor_matrix",
    "explicit.is_connected_adjacency",
}


def test_benchmark_traced_names_resolve_in_the_package():
    # a change that deletes or renames a traced function also corrects the
    # benchmark's TRACED list, read here from the source without importing it
    tree = ast.parse(BENCHMARK_TRACER.read_text())
    traced = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]
    )
    absent = set()
    for module_name, attr in ast.literal_eval(traced):
        module = importlib.import_module(f"orbitcayley.{module_name}")
        # the tracer's lookup: the owner's own attributes, a class for a method
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or fn_name not in vars(owner):
            absent.add(f"{module_name}.{attr}")
    assert absent == KNOWN_ABSENT_TRACED
