"""Exact verification of the binomial-sum identities behind the family parameters.

Every identity is a row of integers: ``_RESIDUE_SUMS`` holds Lemmas 3.1-3.3
and ``_DOUBLE_SUMS`` Theorems 3.4-3.5, and ``_sides`` evaluates both.  The left
side is a sum of exactly the binomial terms the zero-outside-range convention
keeps, in arbitrary-precision integers, read from cached Pascal rows
(``core.pascal_row``) and, for the double sums, their cached running sums;
the right side is 2^(a*m + b) + sigma * (-1)^m * 2^(2m + c), stored as (a, b, sigma, c).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import mul
from typing import Iterator, NamedTuple

from .core import PASCAL_ROWS_CACHED, ConsistencyError, enforce_cap, pascal_row


def mod4_binomial_sum(n: int, r: int) -> int:
    """Sum of C(n, 4j + r) over all j >= 0, exact."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if r not in (0, 1, 2, 3):
        raise ValueError(f"residue must be in 0..3, got {r}")
    return sum(pascal_row(n)[r::4])


@lru_cache(maxsize=PASCAL_ROWS_CACHED)
def _residue_prefix_sums(b: int) -> tuple[tuple[int, ...], ...]:
    """pre[r][i] = C(b, r) + C(b, r + 4) + ... (i terms) for r in 0..3: running sums of row b.

    Row b's four stride-4 slices summed from the left, so any slice that
    starts at its residue is one lookup.  A table holds b + 5 ints of at
    most 2^b: 33 KB at b = 403, the largest row the identities cap reaches.
    The cache keeps at most PASCAL_ROWS_CACHED tables, 4.9 MB for rows
    148..403; every b of the double sums is odd, so verify_all(30) fills
    62 (0.19 MB), verify_all(60) 121 (0.83 MB) and verify_all(100) 201
    (2.7 MB).
    """
    row = pascal_row(b)
    return tuple(tuple(accumulate(row[r::4], initial=0)) for r in range(4))


def _double_sum(factor: int, a: int, p: int, b: int, q: int, jmax: int, m: int) -> int:
    """factor * sum over t <= m, j <= jmax of C(a, 2j + p) C(b, 4t - 2j + q).

    Grouped by j: C(a, 2j + p) is constant over the t-sum, whose bottoms
    4t - 2j + q step by 4 up to top = 4m + q - 2j: one stride-4 slice of
    row b, from its residue r = (q - 2j) mod 4, the first bottom >= 0
    (q <= 3, so no t < 0 enters), to top or b.  That slice is one entry
    of row b's running sums (``_residue_prefix_sums``): pre[r][c - u] for
    j = 2u + e, with r and c fixed by the parity e, clamped to the whole
    slice while top > b and 0 (the empty slice) once top < 0.  So the
    entries of the j of one parity are a run of pre[r] read backwards,
    and the j-sum is two dot products with the stride-4 slices of row a.
    The sum keeps exactly the terms of the zero-outside-range convention,
    only grouped differently; j stops where 2j + p passes a, and a
    negative b keeps none.
    """
    if b < 0:
        return 0
    row_a, pre = pascal_row(a), _residue_prefix_sums(b)
    last = 2 * min(jmax, (a - p) // 2) + p  # the largest bottom of C(a, 2j + p) summed
    total = 0
    for e in (0, 1):
        r = (q - 2 * e) % 4
        sums = pre[r]
        whole = len(sums) - 1
        c = m + (q - 2 * e - r) // 4 + 1
        if c > 0:
            slices = chain(repeat(sums[whole], c - whole), reversed(sums[: min(c, whole) + 1]))
            total += sum(map(mul, row_a[2 * e + p : last + 1 : 4], slices))
    return factor * total


# The three closed forms that several double sums share.
_R1, _R2, _R3 = (4, -2, 1, -1), (4, 0, 1, 0), (4, 0, -1, 0)


class _ResidueSum(NamedTuple):
    """sum_j C(scale*m + offset, modulus*j + r) for each r in residues; two must agree."""

    modulus: int
    scale: int
    offset: int
    residues: tuple[int, ...]
    rhs: tuple[int, int, int, int]


_RESIDUE_SUMS: dict[str, _ResidueSum] = {
    "L31-even": _ResidueSum(2, 1, 0, (0,), (1, -1, 0, 0)),
    "L31-odd": _ResidueSum(2, 1, 0, (1,), (1, -1, 0, 0)),
    "L32-a": _ResidueSum(4, 4, 0, (0,), _R1),
    "L32-b": _ResidueSum(4, 4, 0, (2,), (4, -2, -1, -1)),
    "L32-c": _ResidueSum(4, 4, 0, (1, 3), (4, -2, 0, 0)),
    "L33-a": _ResidueSum(4, 4, 1, (0, 1), (4, -1, 1, -1)),
    "L33-b": _ResidueSum(4, 4, 1, (2, 3), (4, -1, -1, -1)),
    "L33-c": _ResidueSum(4, 4, 2, (0, 2), (4, 0, 0, 0)),
    "L33-d": _ResidueSum(4, 4, 2, (1,), _R2),
    "L33-e": _ResidueSum(4, 4, 2, (3,), _R3),
    "L33-f": _ResidueSum(4, 4, 3, (0, 3), (4, 1, -1, 0)),
    "L33-g": _ResidueSum(4, 4, 3, (1, 2), (4, 1, 1, 0)),
}


class _DoubleSum(NamedTuple):
    """Row of ``_DOUBLE_SUMS``; k runs from k_lo to m + k_hi_minus_m."""

    factor: int
    a_offset: int
    p: int
    b_offset: int
    q: int
    j_offset: int
    rhs: tuple[int, int, int, int]
    k_lo: int
    k_hi_minus_m: int


# Double-sum identities: factor * sum_t sum_j C(4k+ao, 2j+p) C(4m-4k+bo, 4t-2j+q)
# with j running to 2k+jo.  The admissible k ranges were pinned by brute-force
# sweeps: whenever the second binomial's top index is 4m-4k-1 or 4m-4k-3 the
# zero convention annihilates the whole sum at k = m, so those ranges stop at
# m-1, while k = 0 is both valid and the case the pair-counting arguments
# rely on for weight classes other than S0.
_DOUBLE_SUMS: dict[str, _DoubleSum] = {
    "T34": _DoubleSum(1, 0, 0, 1, 1, 0, _R1, 1, 0),
    "T35-i": _DoubleSum(2, 1, 0, -1, 0, 0, _R1, 0, -1),
    "T35-ii": _DoubleSum(1, 2, 1, -1, 0, 0, _R1, 0, -1),
    "T35-iii": _DoubleSum(2, 3, 1, -3, -1, 1, _R1, 0, -1),
    "T35-iv": _DoubleSum(1, 0, 0, 3, 1, 0, _R2, 1, 0),
    "T35-v": _DoubleSum(2, 1, 0, 1, 0, 0, _R2, 0, 0),
    "T35-vi": _DoubleSum(1, 2, 1, 1, 0, 0, _R2, 0, 0),
    "T35-vii": _DoubleSum(2, 3, 1, -1, -1, 1, _R2, 0, -1),
    "T35-viii": _DoubleSum(1, 0, 0, 3, 0, 0, _R3, 1, 0),
    "T35-ix": _DoubleSum(2, 3, 0, -1, 0, 1, _R3, 0, -1),
    "T35-x": _DoubleSum(2, 1, 1, 1, -1, 0, _R3, 0, 0),
    "T35-xi": _DoubleSum(1, 2, 1, 1, 3, 0, _R3, 0, 0),
}

IDENTITY_IDS: tuple[str, ...] = (*_RESIDUE_SUMS, *_DOUBLE_SUMS)


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    enforce_cap("identities", m)


def _sides(identity_id: str, k: int, m: int) -> tuple[int, int]:
    """(lhs, rhs) of one row at (k, m), which the caller has checked admissible."""
    if identity_id in _DOUBLE_SUMS:
        f, ao, p, bo, q, jo, rhs, _, _ = _DOUBLE_SUMS[identity_id]
        lhs = _double_sum(f, 4 * k + ao, p, 4 * m - 4 * k + bo, q, 2 * k + jo, m)
    else:
        modulus, scale, offset, residues, rhs = _RESIDUE_SUMS[identity_id]
        n = scale * m + offset
        # mod-4 rows go through the public (and traced) mod4_binomial_sum
        lhs, *pair = [mod4_binomial_sum(n, r) if modulus == 4 else sum(pascal_row(n)[r::modulus])
                      for r in residues]
        if pair and pair[0] != lhs:
            raise ConsistencyError(f"residue sums r={residues[0]} and r={residues[1]} "
                                   f"differ at n={n}: {lhs} != {pair[0]}")
    a, b, sigma, c = rhs
    return lhs, (1 << (a * m + b)) + sigma * (-1) ** m * (1 << (2 * m + c))


def admissible_k(identity_id: str, m: int) -> range:
    """The k values for which the identity is asserted at a given m."""
    _check_m(m)
    if identity_id in _DOUBLE_SUMS:
        row = _DOUBLE_SUMS[identity_id]
        return range(row.k_lo, m + row.k_hi_minus_m + 1)
    if identity_id in _RESIDUE_SUMS:
        return range(0, 1)  # k is a placeholder column, reported as 0
    raise ValueError(f"unknown identity id {identity_id!r}")


@dataclass(frozen=True)
class IdentityCheck:
    identity_id: str
    k: int
    m: int
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def verify_all(max_m: int) -> Iterator[IdentityCheck]:
    """Every identity over all admissible (k, m) with m <= max_m, one row at a time.

    max_m is checked against the identities cap at the call; each row is
    then evaluated only when it is taken, so a caller that writes the rows
    as they come holds one at a time (``list(verify_all(m))`` for all of
    them).  The report is ordered by (id, m, k); failures would surface as
    rows with ``passed`` False (none are expected).
    """
    _check_m(max_m)
    return (
        IdentityCheck(identity_id, k, m, *_sides(identity_id, k, m))
        for identity_id in IDENTITY_IDS
        for m in range(1, max_m + 1)
        for k in admissible_k(identity_id, m)
    )
