"""Exact eigenvalues of orbit Cayley graphs: binomial character sums and a Walsh-Hadamard oracle.

Eigenvalues are exact integers throughout; no floating point enters this
module.  ``full_spectrum`` evaluates the three-term recurrence.  Two oracles
check it: the normative double-binomial sum (``orbit_character_sum``,
``eigenvalue``) and the Walsh-Hadamard transform of the connection-set
indicator (``wht_spectrum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .core import ConsistencyError, OrbitIndexSet, binom, pascal_row

WHT_MAX_N = 24  # transform is O(n * 2^n) time and O(2^n) memory


def orbit_character_sum(n: int, i: int, k: int) -> int:
    """Character sum over the weight-i orbit for any character index of weight k.

    Normative form: sum_j (-1)^j C(k, j) C(n-k, i-j).
    """
    if not 0 <= i <= n:
        raise ValueError(f"orbit weight {i} out of range 0..{n}")
    if not 0 <= k <= n:
        raise ValueError(f"character weight {k} out of range 0..{n}")
    return sum((-1) ** j * binom(k, j) * binom(n - k, i - j) for j in range(i + 1))


# A census sweep reuses the n + 1 rows of one n for all 2^n - 1 sets (90
# distinct rows for n <= 12, at most 13 in use at a time).  A row holds
# n + 1 ints of at most n bits, at most 10.2 KB at n = 200, so a full
# cache holds under 0.7 MB there.
CHARACTER_ROWS_CACHED = 64


@lru_cache(maxsize=CHARACTER_ROWS_CACHED)
def character_sum_row(n: int, i: int) -> tuple[int, ...]:
    """All orbit character sums for k = 0..n via the three-term recurrence in k.

    (n - k) * row[k+1] = (n - 2i) * row[k] - k * row[k-1], started from
    row[0] = C(n, i); every division is exact.  A row whose division fails
    raises ConsistencyError and is not cached.
    """
    if not 0 <= i <= n:
        raise ValueError(f"orbit weight {i} out of range 0..{n}")
    row = [comb(n, i)]
    prev = 0
    for k in range(n):
        num = (n - 2 * i) * row[k] - k * prev
        q, r = divmod(num, n - k)
        if r:
            raise ConsistencyError(f"recurrence division not exact at n={n}, i={i}, k={k}")
        prev = row[k]
        row.append(q)
    return tuple(row)


def character_table(n: int) -> np.ndarray:
    """K[i][k] = character_sum_row(n, i)[k] for i, k in 0..n, as int64.

    Row i sums the characters over the weight-i orbit, so |K[i][k]| <= C(n, i)
    and the spectrum of an index set I is the sum of its rows i in I.
    """
    return np.array([character_sum_row(n, i) for i in range(n + 1)], dtype=np.int64)


def eigenvalue(s: OrbitIndexSet, k: int) -> int:
    """The eigenvalue attached to weight-k character indices: the sum over member orbits."""
    if not 0 <= k <= s.n:
        raise ValueError(f"character weight {k} out of range 0..{s.n}")
    return sum(orbit_character_sum(s.n, i, k) for i in s.indices)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues lambda_0..lambda_n; lambda_k has multiplicity C(n, k)."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} values, got {len(self.values)}")

    def multiplicity(self, k: int) -> int:
        return comb(self.n, k)

    def entries(self) -> list[tuple[int, int, int]]:
        """(k, value, multiplicity) triples."""
        return [(k, v, comb(self.n, k)) for k, v in enumerate(self.values)]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {"k": k, "value": v, "multiplicity": m} for k, v, m in self.entries()
            ],
        }


@dataclass(frozen=True)
class DistinctSpectrum:
    """(value, total multiplicity) pairs, values strictly descending."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def to_csv(self) -> str:
        lines = ["value,multiplicity"]
        lines += [f"{v},{m}" for v, m in self.pairs]
        return "\n".join(lines) + "\n"


def distinct(spec: Spectrum) -> DistinctSpectrum:
    """Collapse equal eigenvalues, summing multiplicities."""
    acc: dict[int, int] = {}
    for k, v in enumerate(spec.values):
        acc[v] = acc.get(v, 0) + comb(spec.n, k)
    pairs = tuple(sorted(acc.items(), key=lambda p: -p[0]))
    return DistinctSpectrum(spec.n, pairs)


_TRACE, _SECOND_MOMENT, _DEGREE = (
    "spectrum trace is nonzero",
    "spectrum second moment does not match edge count",
    "degree eigenvalue is not the maximum",
)


def _check_invariants(spec: Spectrum, set_size: int) -> None:
    # zeroth moment sum(C(n,k)) = 2^n holds by construction of entries
    n = spec.n
    mults = [comb(n, k) for k in range(n + 1)]
    if sum(v * m for v, m in zip(spec.values, mults)) != 0:
        raise ConsistencyError(_TRACE)
    if sum(v * v * m for v, m in zip(spec.values, mults)) != (1 << n) * set_size:
        raise ConsistencyError(_SECOND_MOMENT)
    if spec.values[0] != set_size or any(v > set_size for v in spec.values):
        raise ConsistencyError(_DEGREE)


def _first_invariant_failure(spectra: np.ndarray, sizes: np.ndarray) -> tuple[int, str] | None:
    """The checks of ``_check_invariants`` on every row of an int64 spectrum table at once.

    Row r holds lambda_0..lambda_n of a set of size sizes[r].  Returns the
    first failing row with the first check it fails, or None.  The caller
    keeps the sums within int64: with |lambda_k| <= 2^n the second-moment
    partial sums are at most 4^n * sum_k C(n, k) = 8^n.
    """
    n = spectra.shape[1] - 1
    mults = np.array(pascal_row(n), dtype=np.int64)
    failed = np.stack(
        [
            spectra @ mults != 0,
            (spectra * spectra) @ mults != sizes << n,
            (spectra[:, 0] != sizes) | (spectra.max(axis=1) > sizes),
        ]
    )
    rows = np.flatnonzero(failed.any(axis=0))
    if not rows.size:
        return None
    row = int(rows[0])
    return row, (_TRACE, _SECOND_MOMENT, _DEGREE)[int(np.argmax(failed[:, row]))]


def full_spectrum(s: OrbitIndexSet) -> Spectrum:
    """Closed-form spectrum of the orbit Cayley graph on 2^n vertices.

    Sums the recurrence rows of the member orbits; ``eigenvalue`` is the
    binomial-sum oracle for the same values.
    """
    rows = [character_sum_row(s.n, i) for i in s.sorted_indices]
    values = tuple(sum(row[k] for row in rows) for k in range(s.n + 1))
    spec = Spectrum(s.n, values)
    _check_invariants(spec, s.size())
    return spec


WEIGHT_TABLE_MAX_N = 255  # popcounts are stored as uint8


@lru_cache(maxsize=32)
def _weight_table(n: int) -> np.ndarray:
    """weights[x] = popcount(x) for all x < 2^n, built by doubling.

    The table is uint8, which holds every popcount only for n <= 255;
    larger n raises ValueError before anything is allocated.
    """
    if n > WEIGHT_TABLE_MAX_N:
        raise ValueError(f"n={n} exceeds the uint8 weight-table bound {WEIGHT_TABLE_MAX_N}")
    w = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        w[1 << b : 1 << (b + 1)] = w[: 1 << b] + 1
    w.setflags(write=False)
    return w


def _indicator(s: OrbitIndexSet) -> np.ndarray:
    """0/1 int32 indicator of the connection set: one gather through a per-weight table."""
    lut = np.zeros(s.n + 1, dtype=np.int32)
    lut[list(s.indices)] = 1
    return lut[_weight_table(s.n)]


# the transform views its vector as a (rows, cols) matrix and reorders it
# through square tiles of this many entries a side (128 KB of int16)
_TRANSPOSE_TILE = 256
# entries of the transform compared at once with their weight class's value
_COMPARE_CHUNK = 1 << 18


def _transpose_into(src: np.ndarray, dst: np.ndarray) -> None:
    """dst = src.T, copied (and cast) one square tile at a time, so each tile stays in cache."""
    rows, cols = src.shape
    for r0 in range(0, rows, _TRANSPOSE_TILE):
        for c0 in range(0, cols, _TRANSPOSE_TILE):
            tile = src[r0 : r0 + _TRANSPOSE_TILE, c0 : c0 + _TRANSPOSE_TILE]
            dst[c0 : c0 + _TRANSPOSE_TILE, r0 : r0 + _TRANSPOSE_TILE] = tile.T


def _butterflies(v: np.ndarray, h: int) -> None:
    """The butterfly stages of half-width h, 2h, ... < v.size, in place.

    Each stage maps a pair (lo, hi) of h-long runs to (lo + hi, lo - hi)
    without scratch: lo += hi, then hi = lo - 2 hi.
    """
    size = v.size
    while h < size:
        pairs = v.reshape(-1, 2, h)
        lo, hi = pairs[:, 0, :], pairs[:, 1, :]
        np.add(lo, hi, out=lo)
        np.add(hi, hi, out=hi)
        np.subtract(lo, hi, out=hi)
        h *= 2


def _fwht(a: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard transform of a contiguous 0/1 integer vector of length 2^n.

    The vector is the (rows, cols) matrix x = r * cols + c with
    cols = 2^floor(n/2).  The stages on the low bits c run on its int16
    transpose, where they pair runs of at least ``rows`` entries; every
    value they form, 2 hi included, is a signed sum of at most cols values
    0/1, so |v| <= cols, and int16 is exact while cols <= 2^15 - 1.  The result is
    transposed back into ``a`` and the stages on the high bits r pair runs
    of at least cols entries.  Every partial sum then has |f-hat| <= 2^n,
    so a's int32 is exact for n <= WHT_MAX_N = 24.  Both bounds are checked
    before any work, with ValueError.  Beside ``a`` the transform holds the
    int16 transpose, 2 * 2^n bytes, and no scratch.
    """
    size = a.size
    if size > 1 << WHT_MAX_N:
        raise ValueError(f"transform length {size} exceeds the int32 bound 2^{WHT_MAX_N}")
    cols = 1 << (size.bit_length() - 1) // 2
    rows = size // cols
    if cols > np.iinfo(np.int16).max:
        raise ValueError(f"low-bit transform length {cols} exceeds the int16 bound 2^15 - 1")
    low = np.empty((cols, rows), dtype=np.int16)
    _transpose_into(a.reshape(rows, cols), low)
    _butterflies(low, rows)
    _transpose_into(low, a.reshape(rows, cols))
    del low
    _butterflies(a, cols)
    return a


def wht_spectrum(s: OrbitIndexSet) -> Spectrum:
    """Oracle spectrum: transform the 0/1 indicator of S over all 2^n points.

    Insists that the transform is constant on each weight class before
    returning: every entry is compared with the entry at 2^k - 1 (the
    lowest index of weight k) for its own weight k, in chunks of
    ``_COMPARE_CHUNK`` entries.  A failure names the lowest weight k that
    fails and the first index x of that weight where it does.  The peak
    beyond the cached uint8 weight table is the int32 vector and the
    transform's int16 transpose, 6 * 2^n bytes, plus one chunk.
    """
    if s.n > WHT_MAX_N:
        raise ValueError(f"n={s.n} exceeds the transform cap {WHT_MAX_N}")
    fhat = _fwht(_indicator(s))
    w = _weight_table(s.n)
    heads = (1 << np.arange(s.n + 1, dtype=np.int64)) - 1
    values = fhat[heads]
    failure = None  # (k, x) of the lowest failing weight and its first index
    for start in range(0, fhat.size, _COMPARE_CHUNK):
        weights = w[start : start + _COMPARE_CHUNK]
        mismatch = fhat[start : start + _COMPARE_CHUNK] != values[weights]
        if mismatch.any():
            k = int(weights[mismatch].min())
            if failure is None or k < failure[0]:
                failure = k, start + int(np.flatnonzero(mismatch & (weights == k))[0])
    if failure is not None:
        k, x = failure
        raise ConsistencyError(
            f"transform not constant on weight class k={k} of {s.format()}: "
            f"fhat[{heads[k]}]={values[k]} but fhat[{x}]={fhat[x]}"
        )
    spec = Spectrum(s.n, tuple(int(v) for v in values))
    _check_invariants(spec, s.size())
    return spec
