"""Vectors, orbits, index sets, and the connectivity rule."""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitcayley.core import (
    Gf2Vector,
    OrbitIndexSet,
    ResidueFamily,
    binom,
    expand_family,
    is_connected,
    orbit_size,
    pascal_row,
)
from orbitcayley.explicit import ExplicitGraph, is_connected_adjacency


def test_weight_examples():
    assert Gf2Vector(4, 0b0000).weight == 0
    assert Gf2Vector(4, 0b1011).weight == 3
    assert Gf2Vector(8, 0b11111111).weight == 8


def test_gf2vector_validation():
    with pytest.raises(ValueError):
        Gf2Vector(4, 0b10000)
    with pytest.raises(ValueError):
        Gf2Vector(0, 0)
    with pytest.raises(ValueError):
        Gf2Vector(3, 1) ^ Gf2Vector(4, 1)


def test_pascal_row_is_the_binomial_row():
    for n in range(61):
        assert pascal_row(n) == tuple(comb(n, t) for t in range(n + 1))
    row = pascal_row(200)
    assert len(row) == 201
    assert all(row[t] == comb(200, t) for t in range(201))
    with pytest.raises(ValueError):
        pascal_row(-1)


def test_pascal_row_cache_is_bounded():
    assert pascal_row.cache_info().maxsize is not None


def test_orbit_size_against_pascal_triangle():
    rows = [[1]]
    for _ in range(12):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    for n in range(13):
        for i in range(n + 1):
            assert orbit_size(n, i) == rows[n][i]
    assert orbit_size(4, 1) == 4
    assert orbit_size(6, 3) == 20
    assert orbit_size(10, 5) == 252
    with pytest.raises(ValueError):
        orbit_size(5, 6)
    with pytest.raises(ValueError):
        orbit_size(5, -1)


def test_binom_zero_convention():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(5, 7) == 0
    assert binom(-3, 0) == 0
    assert binom(0, 0) == 1


def test_contains_examples():
    s = OrbitIndexSet.of(4, {1, 4})
    assert s.contains(Gf2Vector(4, 0b1111))
    assert not s.contains(Gf2Vector(4, 0b0110))
    assert not s.contains(Gf2Vector(4, 0b0000))
    with pytest.raises(ValueError):
        s.contains(Gf2Vector(5, 0b1))


def test_index_set_validation():
    with pytest.raises(ValueError):
        OrbitIndexSet.of(4, {0, 1})
    with pytest.raises(ValueError):
        OrbitIndexSet.of(4, {5})
    with pytest.raises(ValueError):
        OrbitIndexSet.of(0, set())


def test_expand_family_examples():
    s01 = expand_family(ResidueFamily.S0, 4).indices | expand_family(ResidueFamily.S1, 4).indices
    assert s01 == {1, 4}
    assert expand_family(ResidueFamily.S_ODD, 5).indices == {1, 3, 5}
    assert expand_family(ResidueFamily.S_MINUS, 3).indices == {1, 2}
    assert expand_family(ResidueFamily.S0, 10).indices == {4, 8}
    assert expand_family(ResidueFamily.S2, 6).indices == {2, 6}
    assert expand_family(ResidueFamily.S3, 6).indices == {3}
    assert expand_family(ResidueFamily.S_MINUS, 1).indices == set()


def test_complement_examples():
    assert OrbitIndexSet.of(4, {1, 4}).complement().indices == {2, 3}
    assert OrbitIndexSet.of(5, set()).complement().indices == {1, 2, 3, 4, 5}
    assert OrbitIndexSet.of(6, set(range(1, 7))).complement().indices == set()


def test_text_form_round_trip():
    s = OrbitIndexSet.parse("n=4;I=1,4")
    assert s.n == 4 and s.indices == {1, 4}
    assert s.format() == "n=4;I=1,4"
    empty = OrbitIndexSet.parse("n=5;I=")
    assert empty.indices == set()
    assert OrbitIndexSet.parse(empty.format()) == empty
    for bad in ("n=4", "I=1,2", "n=x;I=1", "n=4;I=1;2", "4;1,2"):
        with pytest.raises(ValueError):
            OrbitIndexSet.parse(bad)
    # the list must be ascending, duplicate-free and unpadded
    for bad in ("n=4;I=4,1", "n=4;I=1,1", "n=4;I= 1, 4 "):
        with pytest.raises(ValueError, match="not canonical"):
            OrbitIndexSet.parse(bad)


def test_bitmask_round_trip():
    for n in (1, 3, 6):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            assert s.bitmask == mask


def test_vectors_enumeration():
    s = OrbitIndexSet.of(5, {2, 5})
    members = list(s.vectors())
    assert len(members) == s.size() == comb(5, 2) + 1
    assert all(s.contains(Gf2Vector(5, x)) for x in members)
    assert len(set(members)) == len(members)


def test_is_connected_examples():
    assert not is_connected(OrbitIndexSet.of(4, {2}))
    assert is_connected(OrbitIndexSet.of(5, {3}))
    assert not is_connected(OrbitIndexSet.of(6, {2, 4}))
    # top orbit alone is a perfect matching: connected only in dimension 1
    assert is_connected(OrbitIndexSet.of(1, {1}))
    assert not is_connected(OrbitIndexSet.of(3, {3}))
    assert not is_connected(OrbitIndexSet.of(5, {5}))
    # all-ones plus an even orbit reaches everything when n is odd
    assert is_connected(OrbitIndexSet.of(5, {2, 5}))
    assert is_connected(OrbitIndexSet.of(3, {2, 3}))
    assert not is_connected(OrbitIndexSet.of(4, set()))


def test_is_connected_matches_breadth_first_search():
    for n in range(1, 9):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            graph = ExplicitGraph.build(s)
            assert is_connected(s) == is_connected_adjacency(graph.adjacency), s.format()


@given(st.integers(1, 32), st.data())
def test_weight_xor_parity(n, data):
    u = data.draw(st.integers(0, (1 << n) - 1))
    v = data.draw(st.integers(0, (1 << n) - 1))
    a, b = Gf2Vector(n, u), Gf2Vector(n, v)
    assert (a ^ b).weight % 2 == (a.weight + b.weight) % 2


@given(st.integers(1, 10), st.data())
def test_contains_is_permutation_invariant(n, data):
    indices = data.draw(st.sets(st.integers(1, n)))
    bits = data.draw(st.integers(0, (1 << n) - 1))
    perm = data.draw(st.permutations(range(n)))
    s = OrbitIndexSet.of(n, indices)
    permuted = 0
    for p in range(n):
        if bits >> p & 1:
            permuted |= 1 << perm[p]
    assert s.contains(Gf2Vector(n, bits)) == s.contains(Gf2Vector(n, permuted))


@given(st.integers(1, 16), st.data())
def test_complement_partitions_nonzero_vectors(n, data):
    indices = data.draw(st.sets(st.integers(1, n)))
    s = OrbitIndexSet.of(n, indices)
    assert s.complement().size() + s.size() + 1 == 1 << n
    assert s.complement().complement() == s
