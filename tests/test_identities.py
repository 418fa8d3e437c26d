"""Binomial-sum identities: direct summation against closed forms."""

from __future__ import annotations

import pytest

import orbitcayley.identities as identities_module
from orbitcayley.cli import EXIT_VERIFICATION_FAILED, main
from orbitcayley.core import CAPS, ConsistencyError
from orbitcayley.identities import (
    _DOUBLE_SUMS,
    _RESIDUE_SUMS,
    IDENTITY_IDS,
    _double_sum,
    admissible_k,
    mod4_binomial_sum,
    verify_all,
)

from oracles import binom, double_sum_oracle, identity_sides


def test_mod4_binomial_sum_examples():
    assert mod4_binomial_sum(4, 0) == 2
    assert mod4_binomial_sum(6, 1) == 12
    assert mod4_binomial_sum(3, 0) == 1
    with pytest.raises(ValueError):
        mod4_binomial_sum(4, 4)
    with pytest.raises(ValueError):
        mod4_binomial_sum(0, 0)


def test_mod4_residues_partition_the_row():
    for n in range(1, 41):
        assert sum(mod4_binomial_sum(n, r) for r in range(4)) == 1 << n
        assert mod4_binomial_sum(n, 0) + mod4_binomial_sum(n, 2) == 1 << (n - 1)
        assert mod4_binomial_sum(n, 1) + mod4_binomial_sum(n, 3) == 1 << (n - 1)


def test_identity_sides_examples():
    assert identity_sides("T34", 1, 1) == (2, 2)
    assert identity_sides("T35-iv", 1, 1) == (12, 12)
    assert identity_sides("T35-viii", 1, 1) == (20, 20)


def test_identity_sides_rejects_inadmissible_arguments():
    with pytest.raises(ValueError):
        identity_sides("T34", 0, 1)  # the S0 weight classes start at 4k with k >= 1
    with pytest.raises(ValueError):
        identity_sides("T35-i", 1, 1)  # k = m empties the second binomial
    with pytest.raises(ValueError):
        identity_sides("T34", 2, 1)
    with pytest.raises(ValueError):
        identity_sides("T34", 1, 0)
    with pytest.raises(ValueError):
        identity_sides("nope", 1, 1)


def _literal_double_sum(factor, a, p, b, q, jmax, m):
    # the triple loop term by term, zero outside range
    return factor * sum(
        binom(a, 2 * j + p) * binom(b, 4 * t - 2 * j + q)
        for t in range(m + 1)
        for j in range(jmax + 1)
    )


def test_k_equal_m_really_fails_for_the_reduced_range_items():
    # independent recomputation documenting why those ranges exclude k = m
    m = 2
    shapes = {
        "T35-i": (2, 4 * m + 1, 0, -1, 0, 2 * m),
        "T35-ii": (1, 4 * m + 2, 1, -1, 0, 2 * m),
        "T35-iii": (2, 4 * m + 3, 1, -3, -1, 2 * m + 1),
        "T35-vii": (2, 4 * m + 3, 1, -1, -1, 2 * m + 1),
        "T35-ix": (2, 4 * m + 3, 0, -1, 0, 2 * m + 1),
    }
    for identity_id, (f, a, p, b, q, jmax) in shapes.items():
        assert m not in admissible_k(identity_id, m)
        _, rhs = identity_sides(identity_id, 0, m)
        assert _literal_double_sum(f, a, p, b, q, jmax, m) != rhs


def test_double_sum_rows_match_the_triple_loop():
    # every shape at every k in 0..m, inadmissible k included: at k = m a
    # negative top (4m - 4k - 1 or - 3) leaves no term and both sides are 0
    for row in _DOUBLE_SUMS.values():
        for m in range(1, 13):
            for k in range(m + 1):
                a, b = 4 * k + row.a_offset, 4 * m - 4 * k + row.b_offset
                args = (row.factor, a, row.p, b, row.q, 2 * k + row.j_offset, m)
                assert _double_sum(*args) == _literal_double_sum(*args), args
    assert _double_sum(2, 4, 1, -1, 0, 3, 1) == 0


def test_double_sum_matches_the_slice_oracle_on_every_admissible_instance():
    for row_id, row in _DOUBLE_SUMS.items():
        for m in range(1, 31):
            for k in admissible_k(row_id, m):
                a, b = 4 * k + row.a_offset, 4 * m - 4 * k + row.b_offset
                args = (row.factor, a, row.p, b, row.q, 2 * k + row.j_offset, m)
                assert _double_sum(*args) == double_sum_oracle(*args), (row_id, k, m)


def test_double_sum_matches_the_slice_oracle_on_edge_rows():
    # a sweep of small shapes: b < 0, slices whose end (min(top, b)) is below
    # their residue r, a top below 0, and j running past a
    seen = set()
    for a in range(8):
        for p in (0, 1):
            for b in range(-3, 8):
                for q in range(-3, 4):
                    for jmax in range(7):
                        for m in range(3):
                            args = (1, a, p, b, q, jmax, m)
                            assert _double_sum(*args) == double_sum_oracle(*args), args
                            if b < 0:
                                seen.add("b < 0")
                            if 2 * jmax + p > a:
                                seen.add("j past a")
                            for j in range(min(jmax, (a - p) // 2) + 1):
                                top = 4 * m + q - 2 * j
                                if top < 0:
                                    seen.add("top < 0")
                                elif b >= 0 and min(top, b) < (q - 2 * j) % 4:
                                    seen.add("end < r")
    assert seen == {"b < 0", "j past a", "top < 0", "end < r"}


def test_every_identity_is_a_row_of_integers():
    rows = {**_RESIDUE_SUMS, **_DOUBLE_SUMS}
    assert tuple(rows) == IDENTITY_IDS
    for identity_id, row in rows.items():
        flat = [x for field in row for x in (field if isinstance(field, tuple) else (field,))]
        assert all(type(x) is int for x in flat), identity_id
        assert len(row.rhs) == 4, identity_id
    # _double_sum's j starts at 0 and its row-b slice at the first bottom >= 0,
    # and its row-a slices end at a bottom of at least -1 (jmax >= 0)
    for identity_id, row in _DOUBLE_SUMS.items():
        assert row.p in (0, 1) and row.q <= 3 and row.j_offset >= 0, identity_id
    # worked rows: L33-d is C(6,1) + C(6,5) = 2^4 - 2^2 at m = 1, and
    # T35-v at (k, m) = (1, 2) is 2 * sum C(5, 2j) C(5, 4t - 2j) = 2^8 + 2^4
    assert _RESIDUE_SUMS["L33-d"] == (4, 4, 2, (1,), (4, 0, 1, 0))
    assert identity_sides("L33-d", 0, 1) == (12, 12)
    assert _DOUBLE_SUMS["T35-v"] == (2, 1, 0, 1, 0, 0, (4, 0, 1, 0), 0, 0)
    assert identity_sides("T35-v", 1, 2) == (272, 272)


def test_admissible_ranges():
    assert list(admissible_k("T34", 3)) == [1, 2, 3]
    assert list(admissible_k("T35-i", 3)) == [0, 1, 2]
    assert list(admissible_k("T35-v", 3)) == [0, 1, 2, 3]
    assert list(admissible_k("L32-a", 3)) == [0]


def test_verify_all_small_sweep():
    report = list(verify_all(6))
    assert all(check.passed for check in report)
    singles = 12 * 6
    positive = 3 * sum(range(1, 7))
    below = 5 * sum(range(1, 7))
    full = 4 * sum(m + 1 for m in range(1, 7))
    assert len(report) == singles + positive + below + full
    with pytest.raises(ValueError):
        verify_all(0)


def test_verify_all_evaluates_each_row_when_it_is_taken(monkeypatch):
    taken = []
    real = identities_module._sides

    def counting(identity_id, k, m):
        taken.append((identity_id, m, k))
        return real(identity_id, k, m)

    monkeypatch.setattr(identities_module, "_sides", counting)
    report = verify_all(4)
    assert taken == []
    first = next(report)
    assert taken == [(IDENTITY_IDS[0], 1, 0)] == [(first.identity_id, first.m, first.k)]
    rest = list(report)
    assert taken == [(c.identity_id, c.m, c.k) for c in [first, *rest]]
    assert len(taken) == len(set(taken))


def test_identities_cap_is_checked_before_any_sum(monkeypatch):
    def no_sum(*args):
        pytest.fail("a sum began before the identities cap was checked")

    monkeypatch.setattr(identities_module, "pascal_row", no_sum)
    monkeypatch.setattr(identities_module, "mod4_binomial_sum", no_sum)
    top = CAPS["identities"].limit
    for call in (
        lambda: verify_all(top + 1),
        lambda: admissible_k("T34", top + 1),
        lambda: identity_sides("L32-a", 0, top + 1),
    ):
        with pytest.raises(ValueError, match="^m=101 exceeds the identities cap 100$"):
            call()
    assert list(admissible_k("T35-v", top)) == list(range(top + 1))


def test_report_ordering():
    report = verify_all(3)
    keys = [(check.identity_id, check.m, check.k) for check in report]
    by_id: dict[str, list[tuple[int, int]]] = {}
    for identity_id, m, k in keys:
        by_id.setdefault(identity_id, []).append((m, k))
    assert list(by_id) == list(IDENTITY_IDS)
    for pairs in by_id.values():
        assert pairs == sorted(pairs)


def test_rhs_groups_share_one_value():
    # the double sums grouped by their right-side row: three groups of four
    groups: dict[tuple[int, int, int, int], list[str]] = {}
    for identity_id, row in _DOUBLE_SUMS.items():
        groups.setdefault(row.rhs, []).append(identity_id)
    assert [len(members) for members in groups.values()] == [4, 4, 4]
    assert sorted(groups[_DOUBLE_SUMS["T34"].rhs]) == ["T34", "T35-i", "T35-ii", "T35-iii"]
    for members in groups.values():
        for m in range(1, 26):
            values = set()
            for identity_id in members:
                k = admissible_k(identity_id, m)[0]
                values.add(identity_sides(identity_id, k, m)[1])
            assert len(values) == 1, (members, m)


def test_paired_residue_sums_are_cross_checked(monkeypatch, capsys):
    # L32-c asserts the r=1 and r=3 sums of row 4m coincide; push r=3 off by one
    real = identities_module.mod4_binomial_sum
    monkeypatch.setattr(
        identities_module, "mod4_binomial_sum", lambda n, r: real(n, r) + (r == 3)
    )
    message = r"^residue sums r=1 and r=3 differ at n=4: 4 != 5$"
    with pytest.raises(ConsistencyError, match=message):
        identity_sides("L32-c", 0, 1)
    assert main(["identities", "--max-m", "1"]) == EXIT_VERIFICATION_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "residue sums r=1 and r=3 differ at n=4" in captured.err


def test_closed_forms_against_direct_sums_at_scale():
    # m = 25 exceeds 64-bit binomials; exactness must survive
    assert mod4_binomial_sum(100, 0) == (1 << 98) + ((-1) ** 25) * (1 << 49)
    lhs, rhs = identity_sides("T34", 25, 25)
    assert lhs == rhs == (1 << 98) - (1 << 49)
    assert rhs.bit_length() > 64
