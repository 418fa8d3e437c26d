"""Character sums, closed-form spectra, and the transform oracle."""

from __future__ import annotations

import random
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitcayley.spectrum as spectrum_module
from orbitcayley.core import ConsistencyError, OrbitIndexSet
from orbitcayley.spectrum import (
    DistinctSpectrum,
    Spectrum,
    _check_invariants,
    _first_invariant_failure,
    _fwht,
    _indicator,
    _weight_table,
    character_sum_row,
    character_table,
    distinct,
    eigenvalue,
    full_spectrum,
    orbit_character_sum,
    wht_spectrum,
)

from oracles import butterfly_fwht, wht_naive


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


def test_recurrence_rows_are_cached_in_a_bounded_cache():
    assert character_sum_row.cache_info().maxsize is not None
    assert character_sum_row(9, 4) is character_sum_row(9, 4)


def test_inexact_recurrence_raises_and_is_not_cached(monkeypatch):
    character_sum_row.cache_clear()
    # a wrong start value C(5, 2) + 1 = 11 makes the first division 11 / 5 inexact
    monkeypatch.setattr(spectrum_module, "comb", lambda n, i: comb(n, i) + 1)
    with pytest.raises(ConsistencyError, match="n=5, i=2, k=0"):
        character_sum_row(5, 2)
    assert character_sum_row.cache_info().currsize == 0
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
    f = _indicator(s)
    return np.array_equal(wht_naive(f, s.n), _fwht(f.copy()))


def test_naive_wht_matches_butterfly():
    for n in range(1, 6):
        for mask in range(1 << n):
            assert _naive_matches_butterfly(OrbitIndexSet.from_bitmask(n, mask))
    rng = random.Random(7)
    for _ in range(5):
        assert _naive_matches_butterfly(OrbitIndexSet.from_bitmask(8, rng.randrange(1, 1 << 8)))


def _transforms_agree(f, n):
    # the tiled transform against the one-stage-per-bit butterfly, and the
    # naive sum where it is cheap; each transform gets its own copy
    fhat = _fwht(f.copy())
    assert np.array_equal(fhat, butterfly_fwht(f.copy())), n
    if n <= 8:
        assert np.array_equal(fhat, wht_naive(f, n)), n


def test_transform_matches_the_butterfly_and_naive_oracles():
    # every index set up to n = 5, every 0/1 vector up to n = 3, random 0/1
    # vectors of every length up to 2^14 (odd n has more rows than columns),
    # and one at n = 20, whose low stages run on runs of 1,024 entries
    for n in range(1, 6):
        for mask in range(1 << n):
            _transforms_agree(_indicator(OrbitIndexSet.from_bitmask(n, mask)), n)
    for n in range(0, 4):
        for bits in range(1 << (1 << n)):
            f = np.array([bits >> x & 1 for x in range(1 << n)], dtype=np.int32)
            _transforms_agree(f, n)
    rng = np.random.default_rng(11)
    for n in range(1, 15):
        for density in (0.1, 0.5, 0.9):
            _transforms_agree((rng.random(1 << n) < density).astype(np.int32), n)
    _transforms_agree((rng.random(1 << 20) < 0.5).astype(np.int32), 20)


def test_wht_peak_allocation_at_n22():
    # the int32 indicator (4 * 2^n B), the transform's int16 transpose
    # (2 * 2^n B) and the uint8 weight table (2^n B), counted cold; the
    # one-stage-per-bit butterfly's scratch and a whole-vector gather of the
    # weight-class values took it to 10 * 2^n B
    s = OrbitIndexSet.of(22, set(range(1, 23, 2)) | {4, 8})
    _weight_table.cache_clear()
    tracemalloc.start()
    try:
        spec = wht_spectrum(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec == full_spectrum(s)
    assert peak <= 8 * 2**s.n, peak / 2**s.n


def test_wht_caps_and_methods():
    with pytest.raises(ValueError):
        wht_spectrum(OrbitIndexSet.of(25, {1}))
    with pytest.raises(ValueError):
        wht_naive(np.zeros(1 << 9, dtype=np.int64), 9)


def test_wht_rejects_weight_inhomogeneous_indicator(monkeypatch):
    # a transform of anything that is not weight-class invariant must be caught
    def doctored(s):
        f = np.zeros(1 << s.n, dtype=np.int64)
        f[1] = 1  # one single weight-1 vector, not the whole class
        return f

    monkeypatch.setattr(spectrum_module, "_indicator", doctored)
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


@pytest.mark.parametrize("chunk", [1, 3, 1 << 18])
def test_weight_class_failure_is_the_same_in_every_chunking(monkeypatch, chunk):
    # random 0/1 vectors that are no union of weight classes; in some, a
    # higher class fails at a lower index than the lowest failing class
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
            monkeypatch.setattr(spectrum_module, "_indicator", lambda s, f=f: f.copy())
            with pytest.raises(ConsistencyError) as exc:
                wht_spectrum(OrbitIndexSet.of(n, {1}))
            assert str(exc.value) == (
                f"transform not constant on weight class k={k} of n={n};I=1: "
                f"fhat[{(1 << k) - 1}]={fhat[(1 << k) - 1]} but fhat[{x}]={fhat[x]}"
            )
    assert later


def test_fixed_width_bounds_are_checked_before_any_work(monkeypatch):
    # zero-stride views stand for the oversized inputs; nothing large is allocated
    with pytest.raises(ValueError, match="int32 bound"):
        _fwht(np.broadcast_to(np.int32(0), ((1 << 24) + 1,)))
    assert _fwht(np.zeros(2, dtype=np.int32)).tolist() == [0, 0]
    # with the int32 cap lifted, 2^30 entries give 2^15 columns, past int16
    monkeypatch.setattr(spectrum_module, "WHT_MAX_N", 30)

    def no_transpose(src, dst):
        pytest.fail("a tile was copied before the int16 bound was checked")

    monkeypatch.setattr(spectrum_module, "_transpose_into", no_transpose)
    with pytest.raises(ValueError, match="int16 bound"):
        _fwht(np.broadcast_to(np.int32(0), (1 << 30,)))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="uint8 weight-table bound"):
        _weight_table(256)
    assert _weight_table(3).tolist() == [0, 1, 1, 2, 1, 2, 2, 3]


def test_transform_is_exact_at_the_int32_scale():
    # |fhat(0)| = |S| reaches 2^n - 1 for the full set; int32 holds it exactly
    f = _indicator(OrbitIndexSet.of(20, set(range(1, 21))))
    assert f.dtype == np.int32
    fhat = _fwht(f)
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
            with pytest.raises(ConsistencyError) as exc:
                _check_invariants(Spectrum(n, tuple(broken)), int(sizes[r]))
            assert _first_invariant_failure(table, sizes) == (r, str(exc.value))
    # degree first, both moments right, yet another eigenvalue above it
    above = [1, -1, 0, 2]
    with pytest.raises(ConsistencyError, match="degree eigenvalue is not the maximum"):
        _check_invariants(Spectrum(3, tuple(above)), 1)
    assert _first_invariant_failure(np.array([above]), np.array([1])) == (
        0, "degree eigenvalue is not the maximum")
