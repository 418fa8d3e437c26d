"""Exact eigenvalues of orbit Cayley graphs: binomial character sums and a Walsh-Hadamard oracle.

Eigenvalues are exact integers throughout; no floating point enters this
module.  ``full_spectrum`` evaluates the three-term recurrence;
``wht_spectrum``, the Walsh-Hadamard transform of the connection-set
indicator, is its oracle (``spectrum --check-oracle``), and the tests add
the normative double-binomial sum (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add

import numpy as np

from .core import CAPS, ConsistencyError, OrbitIndexSet, enforce_cap, pascal_row


def character_sum_row(n: int, i: int) -> tuple[int, ...]:
    """All orbit character sums for k = 0..n via the three-term recurrence in k.

    (n - k) * row[k+1] = (n - 2i) * row[k] - k * row[k-1], started from
    row[0] = C(n, i); every division is exact.  A row whose division fails
    raises ConsistencyError.
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


def _first_invariant_failure(spectra: np.ndarray, sizes: np.ndarray) -> tuple[int, str] | None:
    """The spectrum invariants on every row of a spectrum table at once.

    Row r holds lambda_0..lambda_n of a set of size sizes[r]: the trace is
    0, the second moment 2^n * sizes[r], and lambda_0 = sizes[r] is the
    largest (the zeroth moment sum_k C(n, k) = 2^n holds by construction).
    Returns the first failing row with the first check it fails, or None.
    The multiplicities take the table's dtype, so an object table of Python
    ints is exact at any n; an int64 caller keeps the sums within int64:
    with |lambda_k| <= 2^n the second-moment partial sums are at most
    4^n * sum_k C(n, k) = 8^n.
    """
    n = spectra.shape[1] - 1
    mults = np.array(pascal_row(n), dtype=spectra.dtype)
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


def _check_invariants(spec: Spectrum, s: OrbitIndexSet) -> None:
    """Raise ConsistencyError naming s and the first of the three checks that ``spec`` fails."""
    sizes = np.array([s.size()], dtype=object)
    failure = _first_invariant_failure(np.array([spec.values], dtype=object), sizes)
    if failure is not None:
        raise ConsistencyError(f"{failure[1]} on {s.format()}")


def full_spectrum(s: OrbitIndexSet) -> Spectrum:
    """Closed-form spectrum of the orbit Cayley graph on 2^n vertices.

    Sums the recurrence rows of the member orbits, each added into a
    running total as it is made, so one row is held at a time, not |I|.
    Raises ValueError when n exceeds the closed-form cap.
    """
    enforce_cap("closed-form", s.n)
    values = (0,) * (s.n + 1)
    for i in s.sorted_indices:
        values = tuple(map(add, values, character_sum_row(s.n, i)))
    spec = Spectrum(s.n, values)
    _check_invariants(spec, s)
    return spec


# i^0..i^3 as Gaussian ints (re, im)
_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _gmul(*factors: tuple[int, int]) -> tuple[int, int]:
    re, im = 1, 0
    for a, b in factors:
        re, im = re * a - im * b, re * b + im * a
    return re, im


def _binomial_power(t: int, p: int) -> tuple[int, int]:
    """(1 + i^t)^p; for odd t, (1 + i^t)^2 = 2 i^t, so it is a shift and a turn."""
    re, im = _UNITS[t % 4]
    if t % 2 == 0:
        return (1 + re) ** p, 0
    return _gmul(_UNITS[t * (p // 2) % 4], (1 << p // 2, 0), (1 + re, im) if p % 2 else (1, 0))


def _residue_set(n: int, residues) -> OrbitIndexSet:
    return OrbitIndexSet.of(n, (i for i in range(1, n + 1) if i % 4 in residues))


def _residue_filter(n: int, residues, d: int, terms, start: int = 0) -> list[int]:
    """sum(terms(g, t)) / d for t = start..n, where g_j = sum_(r in R) i^(-jr).

    Only t = start, n and 1..4 are summed: between the ends the sums have
    period 4.  A sum that is not a real multiple of d raises
    ConsistencyError naming the set.
    """
    g = [tuple(map(sum, zip((0, 0), *(_UNITS[-j * r % 4] for r in residues)))) for j in range(4)]

    def value(t: int) -> int:
        re, im = map(sum, zip((0, 0), *terms(g, t)))
        if im or re % d:
            raise ConsistencyError(
                f"root-of-unity sum at {t} is not a real multiple of {d} on {_residue_set(n, residues).format()}"
            )
        return re // d

    inner = [value(t) for t in range(1, min(n, 5))]
    return ([value(0)] if start == 0 else []) + (inner * (n // 4 + 1))[: n - 1] + [value(n)]


def _residue_spectrum(n: int, residues) -> list[int]:
    """lambda_0..lambda_n of the weights 1..n in ``residues`` mod 4, by the root-of-unity filter.

    sum_i K_i(k) z^i = (1 - z)^k (1 + z)^(n-k) at z = i^j gives
    lambda_k = 1/4 sum_j g_j (1 - i^j)^k (1 + i^j)^(n-k) - [0 in R].
    """
    def terms(g, k):
        return (_gmul(g[j], _binomial_power(j + 2, k), _binomial_power(j, n - k)) for j in range(4))

    return [v - (0 in residues) for v in _residue_filter(n, residues, 4, terms)]


# popcount of every x < 2^12: either half of an index x < 2^n within the transform cap
_HALF_WEIGHTS = np.array(
    [x.bit_count() for x in range(1 << CAPS["transform"].limit // 2)], dtype=np.intp
)


def _weight_rows(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the vector v[x] = values[weight(x)] over x < 2^n, and its row map.

    Viewed as the (rows, cols) matrix x = r * cols + c with
    cols = 2^floor(n/2), row r of v is row weight(r) of
    table[j, c] = values[j + weight(c)], so v is table[high] with
    high[r] = weight(r).  Leading axes of ``values`` carry over to the
    table: values[..., w] gives table[..., j, c].  Both halves index
    ``_HALF_WEIGHTS``, so n <= 24, the transform cap; a larger n raises
    ValueError before anything is allocated.
    """
    enforce_cap("transform", n)
    low = n // 2
    table = np.take(values, np.arange(n - low + 1)[:, None] + _HALF_WEIGHTS[: 1 << low], axis=-1)
    return table, _HALF_WEIGHTS[: 1 << (n - low)]


def _indicator_rows(s: OrbitIndexSet, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """``_weight_rows`` of the 0/1 indicator of the connection set, in ``dtype``."""
    lut = np.zeros(s.n + 1, dtype=dtype)
    lut[list(s.indices)] = 1
    return _weight_rows(lut, s.n)


# entries of one column slab of the transform: _COMPARE_CHUNK // rows
# columns of every row, and at least one
_COMPARE_CHUNK = 1 << 18


def _butterflies(v: np.ndarray, h: int, stop: int) -> None:
    """The butterfly stages of half-width h, 2h, ... < stop on C-contiguous v read flat, in place.

    Each stage maps a pair (lo, hi) of h-long runs to (lo + hi, lo - hi)
    without scratch: lo += hi, then hi = lo - 2 hi.  A (sets, 2^n) block
    runs every row at once, since 2h divides 2^n and no pair crosses a
    row.  Any other layout raises ValueError: ``reshape`` would copy it,
    and the stages would then write to the copy.
    """
    if not v.flags.c_contiguous:
        raise ValueError(f"butterflies need a C-contiguous array, got strides {v.strides}")
    while h < stop:
        pairs = v.reshape(-1, 2, h)
        lo, hi = pairs[:, 0, :], pairs[:, 1, :]
        np.add(lo, hi, out=lo)
        np.add(hi, hi, out=hi)
        np.subtract(lo, hi, out=hi)
        h *= 2


def _high_stages(table: np.ndarray, row_map: np.ndarray, columns) -> np.ndarray:
    """Gather ``columns`` of the rows ``table[row_map]`` and run the high-bit stages on them.

    With x = r * cols + c, the stages on the high bits r act on each
    column c alone: on the C-contiguous (rows, width) gather they are the
    half-widths width, 2 width, ... below its size.  ``columns`` is a
    slice or an index array of columns.
    """
    block = np.take(table[:, columns], row_map, axis=0)
    _butterflies(block, block.shape[1], block.size)
    return block


def wht_spectrum(s: OrbitIndexSet) -> Spectrum:
    """Oracle spectrum: transform the 0/1 indicator of S over all 2^n points.

    The transform fhat is read as the (rows, cols) matrix x = r * cols + c
    with cols = 2^floor(n/2).  The stages on the low bits c act on each row
    alone, so they run on the distinct rows of ``_indicator_rows``; the
    stages on the high bits r then run on column slabs of the gathered
    rows (``_high_stages``).  First the head columns 2^k - 1, k <= n/2,
    give the n + 1 head values lambda_k = fhat[2^k - 1] (the lowest index
    of weight k).  Then every slab of about ``_COMPARE_CHUNK`` entries is
    compared with the same slab of the ``_weight_rows`` table of the head
    values and dropped, so every entry is checked against its weight
    class.  A failure names the lowest weight k that fails and the
    smallest index x of that weight where it does.  Every partial sum, 2 hi
    included, has |v| <= 2^n, so int32 is exact while 2^n < 2^31; n is
    checked against the transform cap by ``_weight_rows``, before any work.
    The peak is the distinct-row tables plus one slab and its comparison.
    """
    table, row_map = _indicator_rows(s, np.int32)
    cols = table.shape[1]
    low = cols.bit_length() - 1
    _butterflies(table, 1, cols)
    heads = (1 << np.arange(s.n + 1, dtype=np.int64)) - 1
    # fhat[2^k - 1] sits in row 2^(k - low) - 1 of head column min(k, low)
    head_block = _high_stages(table, row_map, heads[: low + 1])
    values = head_block[heads >> low, np.minimum(np.arange(s.n + 1), low)]
    expected, high = _weight_rows(values, s.n)
    width = max(1, _COMPARE_CHUNK // high.size)
    failure = None  # (k, x, fhat[x]) of the lowest failing weight and its smallest index
    for c0 in range(0, cols, width):
        slab_cols = slice(c0, min(c0 + width, cols))
        slab = _high_stages(table, row_map, slab_cols)
        mismatch = slab != np.take(expected[:, slab_cols], high, axis=0)
        if mismatch.any():
            weights = high[:, None] + _HALF_WEIGHTS[slab_cols]
            k = int(weights[mismatch].min())
            r, c = divmod(int(np.flatnonzero(mismatch & (weights == k))[0]), slab.shape[1])
            found = k, r * cols + c0 + c, slab[r, c]
            if failure is None or found[:2] < failure[:2]:
                failure = found
    if failure is not None:
        k, x, value = failure
        raise ConsistencyError(
            f"transform not constant on weight class k={k} of {s.format()}: "
            f"fhat[{heads[k]}]={values[k]} but fhat[{x}]={value}"
        )
    spec = Spectrum(s.n, tuple(int(v) for v in values))
    _check_invariants(spec, s)
    return spec
