"""Exact eigenvalues of orbit Cayley graphs: binomial character sums and a Walsh-Hadamard oracle.

Eigenvalues are exact integers throughout; no floating point enters this
module.  ``full_spectrum`` evaluates the three-term recurrence.  Two oracles
check it: the normative double-binomial sum (``orbit_character_sum``,
``eigenvalue``) and the Walsh-Hadamard transform of the connection-set
indicator (``wht_spectrum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import CLOSED_FORM_MAX_N, ConsistencyError, OrbitIndexSet, binom, pascal_row

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


def _check_invariants(spec: Spectrum, set_size: int) -> None:
    """Raise ConsistencyError with the first of the three checks that ``spec`` fails, exactly."""
    failure = _first_invariant_failure(
        np.array([spec.values], dtype=object), np.array([set_size], dtype=object)
    )
    if failure is not None:
        raise ConsistencyError(failure[1])


def full_spectrum(s: OrbitIndexSet) -> Spectrum:
    """Closed-form spectrum of the orbit Cayley graph on 2^n vertices.

    Sums the recurrence rows of the member orbits; ``eigenvalue`` is the
    binomial-sum oracle for the same values.  Raises ValueError when n
    exceeds CLOSED_FORM_MAX_N.
    """
    if s.n > CLOSED_FORM_MAX_N:
        raise ValueError(f"n={s.n} exceeds the closed-form cap {CLOSED_FORM_MAX_N}")
    rows = [character_sum_row(s.n, i) for i in s.sorted_indices]
    values = tuple(sum(row[k] for row in rows) for k in range(s.n + 1))
    spec = Spectrum(s.n, values)
    _check_invariants(spec, s.size())
    return spec


# popcount of every x < 2^12: either half of an index x < 2^WHT_MAX_N
_HALF_WEIGHTS = np.array([x.bit_count() for x in range(1 << WHT_MAX_N // 2)], dtype=np.intp)


def _weight_rows(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the vector v[x] = values[weight(x)] over x < 2^n, and its row map.

    Viewed as the (rows, cols) matrix x = r * cols + c with
    cols = 2^floor(n/2), row r of v is row weight(r) of
    table[j, c] = values[j + weight(c)], so v is table[high] with
    high[r] = weight(r).  Leading axes of ``values`` carry over to the
    table: values[..., w] gives table[..., j, c].  Both halves index
    ``_HALF_WEIGHTS``, so n <= 24; a larger n raises ValueError before
    anything is allocated.
    """
    if n > WHT_MAX_N:
        raise ValueError(f"n={n} exceeds the half-popcount bound {WHT_MAX_N}")
    low = n // 2
    table = np.take(values, np.arange(n - low + 1)[:, None] + _HALF_WEIGHTS[: 1 << low], axis=-1)
    return table, _HALF_WEIGHTS[: 1 << (n - low)]


def _indicator_rows(s: OrbitIndexSet, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """``_weight_rows`` of the 0/1 indicator of the connection set, in ``dtype``."""
    lut = np.zeros(s.n + 1, dtype=dtype)
    lut[list(s.indices)] = 1
    return _weight_rows(lut, s.n)


# entries of the transform compared at once with their weight class's value,
# rounded down to whole rows and to at least one
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


def _wht(s: OrbitIndexSet) -> np.ndarray:
    """Walsh-Hadamard transform of the indicator of S, as int32 over all 2^n points.

    The stages on the low bits c act on each row of the (rows, cols) view
    alone, so they run on the distinct rows of ``_weight_rows``, which are
    then gathered into the vector; the stages on the high bits r pair runs
    of at least cols entries.  Every partial sum, 2 hi included, has
    |v| <= 2^n, so int32 is exact for n <= WHT_MAX_N = 24.  Beside the
    int32 vector the transform holds only the n/2 + 1 distinct rows.
    """
    table, high = _indicator_rows(s, np.int32)
    cols = table.shape[1]
    _butterflies(table, 1, cols)
    fhat = table[high].reshape(-1)
    _butterflies(fhat, cols, fhat.size)
    return fhat


def wht_spectrum(s: OrbitIndexSet) -> Spectrum:
    """Oracle spectrum: transform the 0/1 indicator of S over all 2^n points.

    Insists that the transform is constant on each weight class before
    returning: each row of its (rows, cols) view is compared with the row
    of ``_weight_rows`` built from the entries at 2^k - 1 (the lowest index
    of weight k), in chunks of whole rows holding about ``_COMPARE_CHUNK``
    entries.  A failure names the lowest weight k that fails and the first
    index x of that weight where it does.  The peak is the int32 vector,
    4 * 2^n bytes, plus one chunk.
    """
    if s.n > WHT_MAX_N:
        raise ValueError(f"n={s.n} exceeds the transform cap {WHT_MAX_N}")
    fhat = _wht(s)
    heads = (1 << np.arange(s.n + 1, dtype=np.int64)) - 1
    values = fhat[heads]
    expected, high = _weight_rows(values, s.n)
    cols = expected.shape[1]
    by_row = fhat.reshape(-1, cols)
    step = max(1, _COMPARE_CHUNK // cols)
    failure = None  # (k, x) of the lowest failing weight and its first index
    for r0 in range(0, by_row.shape[0], step):
        rows = high[r0 : r0 + step]
        mismatch = by_row[r0 : r0 + step] != expected[rows]
        if mismatch.any():
            weights = rows[:, None] + _HALF_WEIGHTS[:cols]
            k = int(weights[mismatch].min())
            if failure is None or k < failure[0]:
                failure = k, r0 * cols + int(np.flatnonzero(mismatch & (weights == k))[0])
    if failure is not None:
        k, x = failure
        raise ConsistencyError(
            f"transform not constant on weight class k={k} of {s.format()}: "
            f"fhat[{heads[k]}]={values[k]} but fhat[{x}]={fhat[x]}"
        )
    spec = Spectrum(s.n, tuple(int(v) for v in values))
    _check_invariants(spec, s.size())
    return spec
