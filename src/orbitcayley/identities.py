"""Exact verification of the binomial-sum identities behind the family parameters.

Every identity is evaluated in arbitrary-precision integer arithmetic: the
left side by literal summation under the zero-outside-range binomial
convention, the right side from its closed form.  Summation limits always
extend until the zero convention truncates them naturally.  The terms are
read from cached Pascal rows (``core.pascal_row``) and summed one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable

from .core import ConsistencyError, pascal_row


def mod4_binomial_sum(n: int, r: int) -> int:
    """Sum of C(n, 4j + r) over all j >= 0, exact."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if r not in (0, 1, 2, 3):
        raise ValueError(f"residue must be in 0..3, got {r}")
    return sum(pascal_row(n)[r::4])


def _rhs_r1(m: int) -> int:
    return (1 << (4 * m - 2)) + (-1) ** m * (1 << (2 * m - 1))


def _rhs_r2(m: int) -> int:
    return (1 << (4 * m)) + (-1) ** m * (1 << (2 * m))


def _rhs_r3(m: int) -> int:
    return (1 << (4 * m)) - (-1) ** m * (1 << (2 * m))


def _double_sum(factor: int, a: int, p: int, b: int, q: int, jmax: int, m: int) -> int:
    """factor * sum over t <= m, j <= jmax of C(a, 2j + p) C(b, 4t - 2j + q).

    For each t the j-sum is one dot product of a stride-2 slice of row a
    with a stride-2 slice of row b read backwards.  j is clipped to where
    both bottoms lie in 0..top, which are exactly the terms the
    zero-outside-range convention keeps; a negative b keeps none.
    """
    if b < 0:
        return 0
    row_a = pascal_row(a)
    row_b_reversed = pascal_row(b)[::-1]  # C(b, u) sits at index b - u
    total = 0
    for t in range(m + 1):
        top = 4 * t + q
        j_lo = max(0, -(p // 2), -((b - top) // 2))
        j_hi = min(jmax, (a - p) // 2, top // 2)
        if j_lo > j_hi:
            continue
        firsts = row_a[2 * j_lo + p : 2 * j_hi + p + 1 : 2]
        seconds = row_b_reversed[b - top + 2 * j_lo : b - top + 2 * j_hi + 1 : 2]
        total += sum(map(mul, firsts, seconds))
    return factor * total


def _paired_mod4(n: int, r_first: int, r_second: int) -> int:
    """Both residue sums where the statement asserts they coincide; cross-checked."""
    first = mod4_binomial_sum(n, r_first)
    second = mod4_binomial_sum(n, r_second)
    if first != second:
        raise ConsistencyError(
            f"residue sums r={r_first} and r={r_second} differ at n={n}: {first} != {second}"
        )
    return first


@dataclass(frozen=True)
class _Identity:
    lhs: Callable[[int, int], int]
    rhs: Callable[[int, int], int]
    k_range: Callable[[int], range]
    rhs_group: str | None = None


def _single(m: int) -> range:
    # one-parameter identities: k is a placeholder column, reported as 0
    return range(0, 1)


def _k_full(m: int) -> range:
    return range(0, m + 1)


def _k_below(m: int) -> range:
    return range(0, m)


def _k_positive(m: int) -> range:
    return range(1, m + 1)


def _residue_identity(n_of_m: Callable[[int], int], residues: tuple[int, ...],
                      rhs: Callable[[int], int]) -> _Identity:
    if len(residues) == 1:
        r = residues[0]
        lhs = lambda k, m: mod4_binomial_sum(n_of_m(m), r)  # noqa: E731
    else:
        r1, r2 = residues
        lhs = lambda k, m: _paired_mod4(n_of_m(m), r1, r2)  # noqa: E731
    return _Identity(lhs, lambda k, m: rhs(m), _single)


_REGISTRY: dict[str, _Identity] = {
    "L31-even": _Identity(
        lambda k, m: sum(pascal_row(m)[0::2]),
        lambda k, m: 1 << (m - 1),
        _single,
    ),
    "L31-odd": _Identity(
        lambda k, m: sum(pascal_row(m)[1::2]),
        lambda k, m: 1 << (m - 1),
        _single,
    ),
    "L32-a": _residue_identity(lambda m: 4 * m, (0,), _rhs_r1),
    "L32-b": _residue_identity(
        lambda m: 4 * m, (2,), lambda m: (1 << (4 * m - 2)) - (-1) ** m * (1 << (2 * m - 1))
    ),
    "L32-c": _residue_identity(lambda m: 4 * m, (1, 3), lambda m: 1 << (4 * m - 2)),
    "L33-a": _residue_identity(
        lambda m: 4 * m + 1, (0, 1),
        lambda m: (1 << (4 * m - 1)) + (-1) ** m * (1 << (2 * m - 1)),
    ),
    "L33-b": _residue_identity(
        lambda m: 4 * m + 1, (2, 3),
        lambda m: (1 << (4 * m - 1)) - (-1) ** m * (1 << (2 * m - 1)),
    ),
    "L33-c": _residue_identity(lambda m: 4 * m + 2, (0, 2), lambda m: 1 << (4 * m)),
    "L33-d": _residue_identity(lambda m: 4 * m + 2, (1,), _rhs_r2),
    "L33-e": _residue_identity(lambda m: 4 * m + 2, (3,), _rhs_r3),
    "L33-f": _residue_identity(
        lambda m: 4 * m + 3, (0, 3),
        lambda m: (1 << (4 * m + 1)) - (-1) ** m * (1 << (2 * m)),
    ),
    "L33-g": _residue_identity(
        lambda m: 4 * m + 3, (1, 2),
        lambda m: (1 << (4 * m + 1)) + (-1) ** m * (1 << (2 * m)),
    ),
}

# Double-sum identities: factor * sum_t sum_j C(4k+ao, 2j+p) C(4m-4k+bo, 4t-2j+q)
# with j running to 2k+jo.  The admissible k ranges were pinned by brute-force
# sweeps: whenever the second binomial's top index is 4m-4k-1 or 4m-4k-3 the
# zero convention annihilates the whole sum at k = m, so those ranges stop at
# m-1, while k = 0 is both valid and the case the pair-counting arguments
# rely on for weight classes other than S0.
_DOUBLE_SUMS: dict[str, tuple[int, int, int, int, int, int, Callable, Callable]] = {
    "T34": (1, 0, 0, 1, 1, 0, _rhs_r1, _k_positive),
    "T35-i": (2, 1, 0, -1, 0, 0, _rhs_r1, _k_below),
    "T35-ii": (1, 2, 1, -1, 0, 0, _rhs_r1, _k_below),
    "T35-iii": (2, 3, 1, -3, -1, 1, _rhs_r1, _k_below),
    "T35-iv": (1, 0, 0, 3, 1, 0, _rhs_r2, _k_positive),
    "T35-v": (2, 1, 0, 1, 0, 0, _rhs_r2, _k_full),
    "T35-vi": (1, 2, 1, 1, 0, 0, _rhs_r2, _k_full),
    "T35-vii": (2, 3, 1, -1, -1, 1, _rhs_r2, _k_below),
    "T35-viii": (1, 0, 0, 3, 0, 0, _rhs_r3, _k_positive),
    "T35-ix": (2, 3, 0, -1, 0, 1, _rhs_r3, _k_below),
    "T35-x": (2, 1, 1, 1, -1, 0, _rhs_r3, _k_full),
    "T35-xi": (1, 2, 1, 1, 3, 0, _rhs_r3, _k_full),
}

_RHS_GROUP_NAMES = {_rhs_r1: "r1", _rhs_r2: "r2", _rhs_r3: "r3"}

for _id, (_f, _ao, _p, _bo, _q, _jo, _rhs, _krange) in _DOUBLE_SUMS.items():
    _REGISTRY[_id] = _Identity(
        lhs=(
            lambda k, m, f=_f, ao=_ao, p=_p, bo=_bo, q=_q, jo=_jo: _double_sum(
                f, 4 * k + ao, p, 4 * m - 4 * k + bo, q, 2 * k + jo, m
            )
        ),
        rhs=lambda k, m, rhs=_rhs: rhs(m),
        k_range=_krange,
        rhs_group=_RHS_GROUP_NAMES[_rhs],
    )

IDENTITY_IDS: tuple[str, ...] = tuple(_REGISTRY)


def rhs_group(identity_id: str) -> str | None:
    """Which shared closed form the identity evaluates to, if it has partners."""
    return _REGISTRY[identity_id].rhs_group


def admissible_k(identity_id: str, m: int) -> range:
    """The k values for which the identity is asserted at a given m."""
    if identity_id not in _REGISTRY:
        raise ValueError(f"unknown identity id {identity_id!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return _REGISTRY[identity_id].k_range(m)


def identity_sides(identity_id: str, k: int, m: int) -> tuple[int, int]:
    """(lhs, rhs) for one identity instance; raises if (k, m) is inadmissible."""
    ident = _REGISTRY.get(identity_id)
    if ident is None:
        raise ValueError(f"unknown identity id {identity_id!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k not in ident.k_range(m):
        raise ValueError(f"k={k} inadmissible for {identity_id} at m={m}")
    return ident.lhs(k, m), ident.rhs(k, m)


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


def verify_all(max_m: int) -> list[IdentityCheck]:
    """Evaluate every identity over all admissible (k, m) with m <= max_m.

    The report is ordered by (id, m, k); failures would surface as rows with
    ``passed`` False (none are expected).
    """
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    report = []
    for identity_id, ident in _REGISTRY.items():
        for m in range(1, max_m + 1):
            for k in ident.k_range(m):
                report.append(IdentityCheck(identity_id, k, m, ident.lhs(k, m), ident.rhs(k, m)))
    return report
