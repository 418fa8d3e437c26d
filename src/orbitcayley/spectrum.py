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


def _fwht(a: np.ndarray) -> np.ndarray:
    """In-place butterfly transform of a 0/1 vector of length 2^n.

    Every partial sum is bounded by |f-hat| <= 2^n, so int32 is exact for
    n <= WHT_MAX_N = 24; a longer vector raises ValueError before any work.
    Each stage saves the low halves in one half-length scratch buffer,
    allocated once.
    """
    size = a.size
    if size > 1 << WHT_MAX_N:
        raise ValueError(f"transform length {size} exceeds the int32 bound 2^{WHT_MAX_N}")
    scratch = np.empty(size // 2, dtype=a.dtype)
    h = 1
    while h < size:
        a = a.reshape(-1, 2, h)
        lo, hi = a[:, 0, :], a[:, 1, :]
        x = scratch.reshape(lo.shape)
        np.copyto(x, lo)
        np.add(x, hi, out=lo)
        np.subtract(x, hi, out=hi)
        a = a.reshape(size)
        h *= 2
    return a


def wht_spectrum(s: OrbitIndexSet) -> Spectrum:
    """Oracle spectrum: transform the 0/1 indicator of S over all 2^n points.

    Insists that the transform is constant on each weight class before
    returning: every entry is compared, in one gather, with the entry at
    2^k - 1 (the lowest index of weight k) for its own weight k.
    """
    if s.n > WHT_MAX_N:
        raise ValueError(f"n={s.n} exceeds the transform cap {WHT_MAX_N}")
    fhat = _fwht(_indicator(s))
    w = _weight_table(s.n)
    heads = (1 << np.arange(s.n + 1, dtype=np.int64)) - 1
    values = fhat[heads]
    mismatch = fhat != values[w]
    if mismatch.any():
        k = int(w[mismatch].min())
        x = int(np.flatnonzero(mismatch & (w == k))[0])
        raise ConsistencyError(
            f"transform not constant on weight class k={k} of {s.format()}: "
            f"fhat[{heads[k]}]={values[k]} but fhat[{x}]={fhat[x]}"
        )
    spec = Spectrum(s.n, tuple(int(v) for v in values))
    _check_invariants(spec, s.size())
    return spec
