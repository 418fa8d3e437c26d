"""Acceptance criteria: one test per criterion, each printing a PASS line.

Everything here is exact integer equality; the only tolerances are the
runtime budgets stated alongside the heavier sweeps.
"""

from __future__ import annotations

import random
import time

import numpy as np

from orbitcayley.core import OrbitIndexSet
from orbitcayley.identities import verify_all
from orbitcayley.spectrum import distinct, full_spectrum, wht_spectrum
from orbitcayley.srg import FAMILIES, NONTRIVIAL_FAMILY_KEYS, VerdictStatus, certify, pair_counts

from oracles import ExplicitGraph, decode_graph6, graph6_bytes, pair_count_oracle

TABLE2 = {
    ("s0s1@4m", 1): (16, 5, 0, 2),
    ("s2s3@4m", 1): (16, 10, 6, 6),
    ("s0s1@4m+2", 1): (64, 27, 10, 12),
    ("s2s3@4m+2", 1): (64, 36, 20, 20),
    ("s1s2@4m+2", 1): (64, 28, 12, 12),
    ("s0s3@4m+2", 1): (64, 35, 18, 20),
    ("s0s1@4m", 2): (256, 135, 70, 72),
    ("s2s3@4m", 2): (256, 120, 56, 56),
    ("s0s1@4m+2", 2): (1024, 527, 270, 272),
    ("s2s3@4m+2", 2): (1024, 496, 240, 240),
    ("s1s2@4m+2", 2): (1024, 528, 272, 272),
    ("s0s3@4m+2", 2): (1024, 495, 238, 240),
}


def test_criterion_01_table2_reproduction():
    start = time.monotonic()
    assert set(TABLE2) == {(key, m) for key in NONTRIVIAL_FAMILY_KEYS for m in (1, 2)}
    for (key, m), printed in TABLE2.items():
        index_set, predicted = FAMILIES[key].index_set(m), FAMILIES[key].predicted(m)
        assert predicted.as_tuple() == printed, (key, m)
        verdict, _ = certify(index_set, explicit_cap=0)
        assert verdict.status is VerdictStatus.NONTRIVIAL_SRG, (key, m)
        assert verdict.params.as_tuple() == printed, (key, m)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1: PASS (12 rows reproduced exactly, {elapsed:.2f}s)")


def test_criterion_02_trivial_families():
    for n in range(3, 11):
        for key, expected in (
            ("s_minus", (1 << n, (1 << n) - 2, (1 << n) - 4, (1 << n) - 2)),
            ("s_odd", (1 << n, 1 << (n - 1), 0, 1 << (n - 1))),
        ):
            index_set, predicted = FAMILIES[key].index_set(n), FAMILIES[key].predicted(n)
            assert predicted.as_tuple() == expected
            verdict, _ = certify(index_set, explicit_cap=0)
            assert verdict.status is VerdictStatus.TRIVIAL_SRG, (key, n)
            assert verdict.params.as_tuple() == expected, (key, n)
    print("criterion 2: PASS (both trivial families exact for 3 <= n <= 10)")


def test_criterion_03_spectrum_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for n in range(1, 11):
        for mask in range(1, 1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            assert full_spectrum(s) == wht_spectrum(s), s.format()
            checked += 1
    rng = random.Random(2024)
    for n in (11, 12):
        for mask in rng.sample(range(1, 1 << n), 200):
            s = OrbitIndexSet.from_bitmask(n, mask)
            assert full_spectrum(s) == wht_spectrum(s), s.format()
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 3: PASS ({checked} spectra matched the transform oracle, {elapsed:.2f}s)")


def test_criterion_04_pair_count_oracle_equivalence():
    checked = 0
    for n in range(1, 9):
        for mask in range(1, 1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            for w, count in enumerate(pair_counts(s)):
                assert count == pair_count_oracle(s, (1 << w) - 1), (s.format(), w)
                checked += 1
    print(f"criterion 4: PASS ({checked} pair counts matched enumeration)")


def test_criterion_05_identity_sweep():
    start = time.monotonic()
    report = verify_all(25)
    failures = [check for check in report if not check.passed]
    assert failures == []
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 5: PASS ({len(report)} identity instances exact, {elapsed:.2f}s)")


def test_criterion_06_example_fixtures():
    for n in range(3, 13):
        single = OrbitIndexSet.of(n, {1})
        assert len(distinct(full_spectrum(single))) == n + 1
        assert len(distinct(full_spectrum(single.complement()))) == n + 1
    for n in range(4, 13):
        two_swap_complement = OrbitIndexSet.of(n, {2}).complement()
        assert len(distinct(full_spectrum(two_swap_complement))) == n // 2 + 2
    for n in range(3, 13):
        all_but_top = OrbitIndexSet.of(n, set(range(1, n)))
        assert len(distinct(full_spectrum(all_but_top))) == 3
    print("criterion 6: PASS (distinct-eigenvalue counts match all example families)")


def test_criterion_07_triple_agreement(small_sweep):
    for (n, mask), (s, by_pairs, by_spectrum, by_brute) in small_sweep.items():
        assert by_pairs == by_spectrum == by_brute, s.format()
    print(f"criterion 7: PASS (three routes identical on {len(small_sweep)} sets)")


def test_criterion_08_complement_parameter_law():
    checked = 0
    for n in range(1, 11):
        for mask in range(1, 1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            verdict, _ = certify(s, explicit_cap=0)
            if verdict.status is not VerdictStatus.NONTRIVIAL_SRG:
                continue
            v, r, lam, mu = verdict.params.as_tuple()
            partner, _ = certify(s.complement(), explicit_cap=0)
            assert partner.status is VerdictStatus.NONTRIVIAL_SRG, s.format()
            assert partner.params.as_tuple() == (v, v - 1 - r, v - 2 - 2 * r + mu, v - 2 * r + lam)
            assert partner.params == verdict.params.complement(), s.format()
            checked += 1
    assert checked >= 12
    print(f"criterion 8: PASS (complement law exact for {checked} nontrivial SRGs)")


def test_criterion_09_trivial_classification_completeness(small_sweep):
    found: dict[int, set[tuple[int, ...]]] = {n: set() for n in range(1, 9)}
    for (n, mask), (s, _, _, by_brute) in small_sweep.items():
        if by_brute.status is VerdictStatus.TRIVIAL_SRG:
            found[n].add(s.sorted_indices)
    assert found[1] == set()
    assert found[2] == {(1,)}
    for n in range(3, 9):
        expected = {tuple(range(1, n)), tuple(range(1, n + 1, 2))}
        assert found[n] == expected, n
    print("criterion 9: PASS (trivial verdicts occur exactly at the two named shapes)")


def test_criterion_10_graph6_round_trip():
    assert graph6_bytes(OrbitIndexSet.of(2, {1, 2})) == b"C~"
    checked = 0
    for n in range(1, 8):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            expected = ExplicitGraph.build(s).adjacency
            assert np.array_equal(decode_graph6(graph6_bytes(s)), expected), s.format()
            checked += 1
    rng = random.Random(5)
    for n in (8, 9, 10):
        for mask in rng.sample(range(1, 1 << n), 40):
            s = OrbitIndexSet.from_bitmask(n, mask)
            expected = ExplicitGraph.build(s).adjacency
            assert np.array_equal(decode_graph6(graph6_bytes(s)), expected), s.format()
            checked += 1
    print(f"criterion 10: PASS ({checked} round trips preserved edge sets)")
