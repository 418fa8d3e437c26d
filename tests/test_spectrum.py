"""Character sums, closed-form spectra, and the transform oracle."""

from __future__ import annotations

import random
import sys
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitcayley.spectrum as spectrum_module
from orbitcayley.cli import EXIT_VERIFICATION_FAILED, main
from orbitcayley.core import ConsistencyError, OrbitIndexSet
from orbitcayley.explicit import _row0
from orbitcayley.spectrum import (
    DistinctSpectrum,
    Spectrum,
    _HALF_WEIGHTS,
    _check_invariants,
    _first_invariant_failure,
    _weight_rows,
    character_sum_row,
    character_table,
    distinct,
    full_spectrum,
    wht_spectrum,
)

from oracles import assembled_wht, butterfly_fwht, eigenvalue, orbit_character_sum, wht_naive


def test_orbit_character_sum_examples():
    assert orbit_character_sum(4, 1, 1) == 2
    assert orbit_character_sum(4, 2, 2) == -2
    for n in range(1, 11):
        for i in range(n + 1):
            assert orbit_character_sum(n, i, 0) == comb(n, i)


def test_orbit_character_sum_closed_forms():
    # single-swap orbit: n - 2k; two-swap orbit: (n(n-1) - 4k(n-k)) / 2
    for n in range(1, 13):
        for k in range(n + 1):
            assert orbit_character_sum(n, 1, k) == n - 2 * k
            if n >= 2:
                assert orbit_character_sum(n, 2, k) == (n * (n - 1) - 4 * k * (n - k)) // 2


def test_orbit_character_sum_reflection():
    for n in range(1, 11):
        for i in range(n + 1):
            for k in range(n + 1):
                assert orbit_character_sum(n, i, n - k) == (-1) ** i * orbit_character_sum(n, i, k)


def test_orbit_character_sum_range_checks():
    with pytest.raises(ValueError):
        orbit_character_sum(4, 5, 0)
    with pytest.raises(ValueError):
        orbit_character_sum(4, 0, -1)


def test_inexact_recurrence_raises_and_is_not_cached(monkeypatch):
    # a wrong start value C(5, 2) + 1 = 11 makes the first division 11 / 5 inexact
    monkeypatch.setattr(spectrum_module, "comb", lambda n, i: comb(n, i) + 1)
    with pytest.raises(ConsistencyError, match="n=5, i=2, k=0"):
        character_sum_row(5, 2)
    monkeypatch.undo()
    assert character_sum_row(5, 2) == tuple(orbit_character_sum(5, 2, k) for k in range(6))


def test_recurrence_row_matches_binomial_sums():
    for n in range(1, 13):
        for i in range(n + 1):
            row = character_sum_row(n, i)
            assert row == tuple(orbit_character_sum(n, i, k) for k in range(n + 1))
    # spot-check far beyond the exhaustive range
    row = character_sum_row(40, 17)
    for k in (0, 1, 19, 40):
        assert row[k] == orbit_character_sum(40, 17, k)


def test_eigenvalue_examples():
    s = OrbitIndexSet.of(3, {1, 2})
    assert eigenvalue(s, 1) == 0
    assert eigenvalue(s, 2) == -2
    for n in (2, 5, 9):
        for mask in (1, (1 << n) - 1, 5 % (1 << n)):
            t = OrbitIndexSet.from_bitmask(n, mask)
            assert eigenvalue(t, 0) == t.size()
    with pytest.raises(ValueError):
        eigenvalue(s, 4)


def test_full_spectrum_examples():
    assert full_spectrum(OrbitIndexSet.of(3, {1, 2})).values == (6, 0, -2, 0)
    assert full_spectrum(OrbitIndexSet.of(2, {1, 2})).values == (3, -1, -1)
    assert full_spectrum(OrbitIndexSet.of(4, {1, 4})).values == (5, 1, 1, -3, -3)
    assert distinct(full_spectrum(OrbitIndexSet.of(4, {1, 4}))).pairs == (
        (5, 1),
        (1, 10),
        (-3, 5),
    )


def test_full_spectrum_methods_agree():
    # the recurrence route against the normative binomial sums, exhaustively
    for n in range(1, 9):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            assert full_spectrum(s).values == tuple(eigenvalue(s, k) for k in range(n + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 48), st.data())
def test_full_spectrum_matches_binomial_oracle_at_larger_n(n, data):
    s = OrbitIndexSet.of(n, data.draw(st.sets(st.integers(1, n))))
    assert full_spectrum(s).values == tuple(eigenvalue(s, k) for k in range(n + 1))


def test_wht_matches_closed_form_small():
    for n in range(1, 7):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            assert wht_spectrum(s) == full_spectrum(s), s.format()


def test_wht_examples():
    assert wht_spectrum(OrbitIndexSet.of(1, {1})).values == (1, -1)
    assert wht_spectrum(OrbitIndexSet.of(4, set())).values == (0, 0, 0, 0, 0)


def _naive_matches_butterfly(s):
    # the direct O(4^n) sum of the indicator, against the butterfly oracle
    # and the transform itself, its slabs assembled
    f = _row0(s).astype(np.int32)
    naive = wht_naive(f, s.n)
    fhat = assembled_wht(s)
    return np.array_equal(naive, butterfly_fwht(f.copy())) and np.array_equal(naive, fhat)


def test_naive_wht_matches_butterfly():
    for n in range(1, 6):
        for mask in range(1 << n):
            assert _naive_matches_butterfly(OrbitIndexSet.from_bitmask(n, mask))
    rng = random.Random(7)
    for _ in range(5):
        assert _naive_matches_butterfly(OrbitIndexSet.from_bitmask(8, rng.randrange(1, 1 << 8)))


def test_transform_matches_the_butterfly_and_naive_oracles():
    # every index set up to n = 8, against the one-stage-per-bit butterfly
    # and the naive sum (a sum of the single-orbit naive transforms, by
    # linearity), the slabs 1, 3 and all columns wide; drawn sets at
    # n = 9..16, and one set each at n = 20 and at n = 21, whose rows
    # outnumber its columns, in 4 and 8 slabs of the default width
    for n in range(1, 9):
        weights = np.array([x.bit_count() for x in range(1 << n)])
        naive = [wht_naive((weights == i).astype(np.int32), n) for i in range(n + 1)]
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            f = _row0(s).astype(np.int32)
            assert np.array_equal(f, np.isin(weights, list(s.indices))), s.format()
            fhat = assembled_wht(s)
            assert fhat.dtype == np.int32
            assert np.array_equal(fhat, butterfly_fwht(f)), s.format()
            naive_sum = sum((naive[i] for i in s.indices), np.zeros_like(fhat))
            assert np.array_equal(fhat, naive_sum), s.format()
            for width in (1, 3):
                assert np.array_equal(assembled_wht(s, width), fhat), (s.format(), width)
    rng = random.Random(11)
    drawn = [OrbitIndexSet.from_bitmask(n, rng.randrange(1, 1 << n)) for n in range(9, 17)]
    drawn += [OrbitIndexSet.of(20, {1, 2, 7, 13, 20}), OrbitIndexSet.of(21, {3, 10, 11, 21})]
    for s in drawn:
        f = _row0(s).astype(np.int32)
        assert np.array_equal(assembled_wht(s), butterfly_fwht(f)), s.format()


def test_wht_peak_allocation_at_n22():
    # one column slab of 2^18 int32 entries (2^20 B), its expected rows and
    # mismatch mask and the distinct-row tables, 0.7 * 2^n B measured; the
    # whole int32 transform and one comparison chunk took 4.4 * 2^n B
    s = OrbitIndexSet.of(22, set(range(1, 23, 2)) | {4, 8})
    tracemalloc.start()
    try:
        spec = wht_spectrum(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec == full_spectrum(s)
    assert peak <= 1 * 2**s.n, peak / 2**s.n


def test_wht_caps_and_methods():
    with pytest.raises(ValueError):
        wht_spectrum(OrbitIndexSet.of(25, {1}))
    with pytest.raises(ValueError):
        wht_naive(np.zeros(1 << 9, dtype=np.int64), 9)


def _transform_any_vector(monkeypatch, f):
    """Make wht_spectrum transform f itself: each row of its (rows, cols) view is a table row."""
    cols = 1 << (f.size.bit_length() - 1) // 2
    rows = np.arange(f.size // cols)
    table = f.astype(np.int32).reshape(-1, cols)
    monkeypatch.setattr(spectrum_module, "_indicator_rows", lambda s, dtype: (table.copy(), rows))


def test_wht_rejects_weight_inhomogeneous_indicator(monkeypatch):
    # a transform of anything that is not weight-class invariant must be caught
    f = np.zeros(16, dtype=np.int32)
    f[1] = 1  # one single weight-1 vector, not the whole class
    _transform_any_vector(monkeypatch, f)
    with pytest.raises(ConsistencyError) as exc:
        wht_spectrum(OrbitIndexSet.of(4, {1}))
    # fhat[y] = 1 - 2*y_0: the weight-1 class holds -1 at y=1 and 1 at y=2
    message = str(exc.value)
    assert "n=4;I=1" in message
    assert "weight class k=1" in message
    assert "fhat[1]=-1 but fhat[2]=1" in message


def _first_class_failure(fhat, w):
    # (k, x): the lowest weight whose class is not constant, and its first index
    # that differs from the class head 2^k - 1, from the whole vector at once
    mismatch = fhat != fhat[(1 << w) - 1]
    if not mismatch.any():
        return None
    k = int(w[mismatch].min())
    return k, int(np.flatnonzero(mismatch & (w == k))[0])


@pytest.mark.parametrize("chunk", [1, 3, 8, 1 << 18])
def test_weight_class_failure_is_the_same_in_every_chunking(monkeypatch, chunk):
    # random 0/1 vectors that are no union of weight classes, in slabs of
    # 1, 1, 1-2 and all columns; in some, a higher class fails at a lower
    # index than the lowest failing class
    monkeypatch.setattr(spectrum_module, "_COMPARE_CHUNK", chunk)
    rng = np.random.default_rng(13)
    later = 0
    for n in (4, 5, 6):
        for _ in range(20):
            f = (rng.random(1 << n) < 0.3).astype(np.int32)
            fhat = butterfly_fwht(f.copy())
            w = np.array([y.bit_count() for y in range(1 << n)])
            failure = _first_class_failure(fhat, w)
            if failure is None:
                continue
            k, x = failure
            later += bool((fhat[:x] != fhat[(1 << w[:x]) - 1]).any())
            _transform_any_vector(monkeypatch, f)
            with pytest.raises(ConsistencyError) as exc:
                wht_spectrum(OrbitIndexSet.of(n, {1}))
            assert str(exc.value) == (
                f"transform not constant on weight class k={k} of n={n};I=1: "
                f"fhat[{(1 << k) - 1}]={fhat[(1 << k) - 1]} but fhat[{x}]={fhat[x]}"
            )
    assert later


@pytest.mark.parametrize("perturbed", [[5, 2], [8, 5, 2]])
def test_lowest_weight_failure_wins_over_an_earlier_slab(monkeypatch, perturbed):
    # n = 4 in slabs of one column c, x = 4r + c.  x = 5 (weight 2) fails in
    # slab 1, before the weight-1 failure at x = 2 in slab 2: the lowest
    # weight wins over the earlier slab.  With x = 8 (weight 1) also failing
    # in slab 0, the smallest index of weight 1, x = 2, wins over the
    # earlier slab too.
    monkeypatch.setattr(spectrum_module, "_COMPARE_CHUNK", 4)
    w = np.array([y.bit_count() for y in range(16)])
    target = (10 * w).astype(np.int32)
    target[perturbed] += 1
    # the transform of butterfly_fwht(target) is 16 * target, failing where target does
    _transform_any_vector(monkeypatch, butterfly_fwht(target.copy()))
    with pytest.raises(ConsistencyError) as exc:
        wht_spectrum(OrbitIndexSet.of(4, {1}))
    assert str(exc.value) == (
        "transform not constant on weight class k=1 of n=4;I=1: fhat[1]=160 but fhat[2]=176"
    )


def test_fixed_width_bounds_are_checked_before_any_work(monkeypatch):
    assert _HALF_WEIGHTS.tolist() == [x.bit_count() for x in range(1 << 12)]
    # n = 25, over the transform cap, has a 13-bit half, past the popcount
    # constant: rejected before the index table of 14 * 2^12 entries is
    # formed.  Only the rejected call is traced, so the peak does not depend
    # on what pytest.raises allocates.
    values = np.zeros(26, dtype=np.int32)
    error = None
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        try:
            _weight_rows(values, 25)
        except ValueError as exc:
            error = exc
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(error) == "n=25 exceeds the transform cap 24", error
    assert peak < 1 << 12, peak
    table, high = _weight_rows(np.arange(4), 3)
    assert table.tolist() == [[0, 1], [1, 2], [2, 3]] and high.tolist() == [0, 1, 1, 2]

    def no_transform(*args):
        pytest.fail("the transform ran before the cap was checked")

    # wht_spectrum reaches the check through _indicator_rows and _weight_rows
    monkeypatch.setattr(spectrum_module, "_butterflies", no_transform)
    with pytest.raises(ValueError, match="^n=25 exceeds the transform cap 24$"):
        wht_spectrum(OrbitIndexSet.of(25, {1}))


def test_transform_is_exact_at_the_int32_scale():
    # |fhat(0)| = |S| reaches 2^n - 1 for the full set; int32 holds it exactly
    fhat = assembled_wht(OrbitIndexSet.of(20, set(range(1, 21))))
    assert fhat.dtype == np.int32
    assert fhat[0] == (1 << 20) - 1 and fhat[1] == -1


def test_distinct_examples():
    # complement of the two-swap orbit: floor(n/2) + 2 distinct values
    s = OrbitIndexSet.of(6, {1, 3, 4, 5, 6})
    assert len(distinct(full_spectrum(s))) == 5
    assert len(distinct(full_spectrum(OrbitIndexSet.of(4, {1, 2, 3, 4})))) == 2
    d = distinct(full_spectrum(OrbitIndexSet.of(5, {1})))
    assert d.pairs == ((5, 1), (3, 5), (1, 10), (-1, 10), (-3, 5), (-5, 1))


def test_distinct_multiplicities_total():
    for n in range(1, 8):
        for mask in range(1 << n):
            d = distinct(full_spectrum(OrbitIndexSet.from_bitmask(n, mask)))
            assert sum(m for _, m in d.pairs) == 1 << n
            assert len(d) <= n + 1
            values = [v for v, _ in d.pairs]
            assert values == sorted(values, reverse=True)


def test_spectrum_moments():
    for n in range(1, 8):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            spec = full_spectrum(s)
            mults = [spec.multiplicity(k) for k in range(n + 1)]
            assert sum(mults) == 1 << n
            assert sum(v * m for v, m in zip(spec.values, mults)) == 0
            assert sum(v * v * m for v, m in zip(spec.values, mults)) == (1 << n) * s.size()
            assert spec.values[0] == s.size() == max(spec.values)


def test_complement_relation():
    # complement spectrum: 2^n - 1 - lambda_0 at k=0, -1 - lambda_k elsewhere
    for n in range(1, 8):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            spec = full_spectrum(s).values
            comp = full_spectrum(s.complement()).values
            assert comp[0] == (1 << n) - 1 - spec[0]
            assert all(comp[k] == -1 - spec[k] for k in range(1, n + 1))


def test_even_orbit_reflection_symmetry():
    # every set of even indices only: lambda_k = lambda_{n-k}
    for n in range(2, 9):
        evens = list(range(2, n + 1, 2))
        for mask in range(1, 1 << len(evens)):
            s = OrbitIndexSet.of(n, {evens[b] for b in range(len(evens)) if mask >> b & 1})
            spec = full_spectrum(s).values
            assert all(spec[k] == spec[n - k] for k in range(n + 1)), s.format()
    for n in (10, 12):
        spec = full_spectrum(OrbitIndexSet.of(n, set(range(2, n + 1, 2)))).values
        assert all(spec[k] == spec[n - k] for k in range(n + 1))


def test_spectrum_matches_numerical_eigendecomposition():
    # third route: LAPACK eigenvalues of the dense adjacency; the integer
    # spectra are well separated so rounding is safe at these sizes
    from oracles import ExplicitGraph

    for n in range(1, 7):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            spec = full_spectrum(s)
            expected = sorted(
                v for k, v in enumerate(spec.values) for _ in range(spec.multiplicity(k))
            )
            numeric = np.linalg.eigvalsh(ExplicitGraph.build(s).adjacency.astype(np.float64))
            assert [round(x) for x in numeric] == expected, s.format()
            assert np.abs(numeric - np.array(expected, dtype=np.float64)).max() < 1e-6


def test_closed_forms_scale_beyond_machine_integers():
    s = OrbitIndexSet.of(128, {1, 64, 127})
    assert s.size() > 1 << 63
    spec = full_spectrum(s)  # the internal moment checks exercise exact arithmetic
    assert spec.values[0] == s.size()
    assert spec.values == tuple(eigenvalue(s, k) for k in range(129))


def test_spectrum_serialization():
    spec = full_spectrum(OrbitIndexSet.of(2, {1}))
    assert spec.to_json_dict() == {
        "n": 2,
        "entries": [
            {"k": 0, "value": 2, "multiplicity": 1},
            {"k": 1, "value": 0, "multiplicity": 2},
            {"k": 2, "value": -2, "multiplicity": 1},
        ],
    }
    assert distinct(spec).to_csv() == "value,multiplicity\n2,1\n0,2\n-2,1\n"


def test_spectrum_shape_validation():
    with pytest.raises(ValueError):
        Spectrum(3, (1, 2))
    d = DistinctSpectrum(2, ((3, 1), (-1, 3)))
    assert len(d) == 2


def _broken_rows(row):
    # each breaks one more invariant: the trace; the second moment alone
    # (lambda_0 and lambda_n share multiplicity 1); the degree alone
    n = len(row) - 1
    yield [row[0] + 1] + row[1:]
    yield [row[0] + 1] + row[1:n] + [row[n] - 1]
    if row[0] != row[n]:
        yield [row[n]] + row[1:n] + [row[0]]


def test_row_wise_invariants_match_the_single_spectrum_check():
    n = 4
    member = (np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1
    spectra = member @ character_table(n)[1:]
    sizes = member @ np.array([comb(n, i) for i in range(1, n + 1)])
    assert _first_invariant_failure(spectra, sizes) is None
    for r, row in enumerate(spectra.tolist()):
        for broken in _broken_rows(row):
            table = spectra.copy()
            table[r] = broken
            table[r + 1 :] = broken  # later rows never hide the first one
            s = OrbitIndexSet.from_bitmask(n, r + 1)
            with pytest.raises(ConsistencyError) as exc:
                _check_invariants(Spectrum(n, tuple(broken)), s)
            row, what = _first_invariant_failure(table, sizes)
            assert (row, f"{what} on {s.format()}") == (r, str(exc.value))
    # degree first, both moments right, yet another eigenvalue above it
    above = [1, -1, 0, 2]
    message = "^degree eigenvalue is not the maximum on n=3;I=3$"
    with pytest.raises(ConsistencyError, match=message):
        _check_invariants(Spectrum(3, tuple(above)), OrbitIndexSet.of(3, [3]))  # |S| = 1
    assert _first_invariant_failure(np.array([above]), np.array([1])) == (
        0, "degree eigenvalue is not the maximum")


def test_full_spectrum_holds_one_row_at_a_time():
    # 200 rows of 401 ints of up to 400 bits: each row is added into the
    # running total as it is made, so the rows are never held together
    s = OrbitIndexSet.of(400, range(1, 400, 2))
    full_spectrum(s)  # warm lazy imports outside the trace
    row = character_sum_row(400, 200)
    row_bytes = sys.getsizeof(row) + sum(map(sys.getsizeof, row))
    tracemalloc.start()
    try:
        spec = full_spectrum(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.values == tuple(map(sum, zip(*(character_sum_row(400, i) for i in range(1, 400, 2)))))
    # the total, the row being made and the total being formed, plus the
    # invariant checks' one-row tables: 4.1 rows measured, 232 when the
    # rows were kept until the sum
    assert peak < 8 * row_bytes, (peak, row_bytes)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["srg-check", "--set", "n=4;I=1"], "n=4;I=1"),
        (["spectrum", "--set", "n=4;I=1"], "n=4;I=1"),
        (["families", "--m-max", "1"], "n=4;I=1,4"),  # its first row is Cay(Z2^4,S0+S1)
    ],
    ids=["srg-check", "spectrum", "families"],
)
def test_invariant_failure_names_the_set(monkeypatch, capsys, argv, named):
    # row (4, 1) enters every set holding 1 at n = 4; its entry k = 1 has
    # multiplicity C(4, 1), so the trace moves by 4
    def perturbed(n, i):
        row = character_sum_row(n, i)
        return row[:1] + (row[1] + 1,) + row[2:] if (n, i) == (4, 1) else row

    monkeypatch.setattr(spectrum_module, "character_sum_row", perturbed)
    assert main(argv) == EXIT_VERIFICATION_FAILED
    assert capsys.readouterr().err == (
        f"verification failure: spectrum trace is nonzero on {named}\n"
    )
