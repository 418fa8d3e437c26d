"""Orbit-indexed connection sets in GF(2)^n (int bitsets) and Pascal rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, NamedTuple


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (two routes to the same value disagreed)."""


class Cap(NamedTuple):
    limit: int
    quantity: str


# Every request limit, by name: the largest value of the quantity it bounds.
# The families are infinite, so each cap is policy, checked before any work
# by ``enforce_cap``.  Times are on a 2-vCPU host, Python 3.11.7, numpy 2.4.6.
CAPS: dict[str, Cap] = {
    # the pair counts take time cubic in n: srg-check at n = 1024 takes 1.1 s
    # with 2 indices and 2.5 s with 512
    "closed-form": Cap(1024, "n"),
    # 65,535 sets at n = 16: 0.2-0.3 s, 82 MB peak, 13.5 MB of JSONL
    "census": Cap(16, "n"),
    # the census's dense route costs about n * 4^n: census --n 12
    # --explicit-cap 12 takes 2.0-2.8 s, so n = 16 would take over 10 minutes
    "census dense": Cap(12, "min(n, explicit cap)"),
    # row 0, its int64 counts and one bool buffer: one set at n = 20 takes
    # 0.12-0.15 s and traces 10.0 * 2^n B (10 MiB)
    "dense": Cap(20, "n"),
    # about 50 ms and 4^n / 12 bytes of output (22 MB) at n = 14, holding
    # about 77 * 2^n bytes, never the whole string
    "export": Cap(14, "n"),
    # the transform oracle: O(n * 2^n) time and O(2^n) memory
    "transform": Cap(24, "n"),
    # verify_all(60) takes 0.3-0.4 s and verify_all(100) 1.3-1.7 s, about
    # m^2.5; identities --max-m 100 writes 11.2 MB one identity id at a
    # time and peaks at 37 MB (VmHWM), 8 MB over the import
    "identities": Cap(100, "m"),
    # the last row, 2^(4 m_max + 2) vertices, prints within 640 digits, the
    # smallest int-to-str limit Python allows: families --m-max 531 takes
    # 0.16-0.2 s and writes 4.2 MB one m at a time, peaking at 30 MB
    # (VmHWM), under 1 MB over the import
    "families": Cap(531, "m_max"),
    # families --check-cap: families --m-max 531 --check-cap 2126 certifies
    # all 3,186 rows in 19-26 s, most of it the spectrum invariants, and
    # peaks at 145-147 MB (VmHWM), 98 MB of it the Pascal-row cache
    "families check": Cap(2126, "check cap"),
}


def enforce_cap(name: str, value: int, quantity: str | None = None) -> None:
    """Raise ValueError when value exceeds the cap ``name``, naming it by quantity if given."""
    limit, own = CAPS[name]
    if value > limit:
        raise ValueError(f"{quantity or own}={value} exceeds the {name} cap {limit}")


# Row n holds n + 1 ints of at most n bits: 10.6 KB at n = 200 and 135 KB at
# n = 1024.  Requests up to n = 200 touch rows 0..200 only, 0.95 MB in all; a
# full cache of rows 0..255 holds 1.65 MB, and at the closed-form cap the
# cache holds at most the rows 769..1024, 27.6 MB
PASCAL_ROWS_CACHED = 256


@lru_cache(maxsize=PASCAL_ROWS_CACHED)
def pascal_row(n: int) -> tuple[int, ...]:
    """(C(n, 0), ..., C(n, n)), exact: each entry is the last times (n - t) / (t + 1)."""
    if n < 0:
        raise ValueError(f"row index must be >= 0, got {n}")
    row = [1]
    for t in range(n):
        row.append(row[t] * (n - t) // (t + 1))
    return tuple(row)


@dataclass(frozen=True)
class OrbitIndexSet:
    """A union of weight classes: indices I encode S = {v != 0 : |v| in I} in GF(2)^n.

    Membership in S depends on |v| only, so S is invariant under every
    coordinate permutation.  The empty index set is legal and encodes the
    edgeless graph.
    """

    n: int
    indices: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        object.__setattr__(self, "indices", frozenset(self.indices))
        bad = [i for i in self.indices if not 1 <= i <= self.n]
        if bad:
            raise ValueError(f"orbit indices {sorted(bad)} out of range 1..{self.n}")

    @classmethod
    def of(cls, n: int, indices: Iterable[int]) -> OrbitIndexSet:
        return cls(n, frozenset(indices))

    @classmethod
    def from_bitmask(cls, n: int, mask: int) -> OrbitIndexSet:
        """Bit i-1 of mask set <=> orbit index i belongs to the set."""
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask} out of range for n={n}")
        return cls(n, frozenset(i for i in range(1, n + 1) if mask >> (i - 1) & 1))

    @property
    def bitmask(self) -> int:
        return sum(1 << (i - 1) for i in self.indices)

    @property
    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    @classmethod
    def parse(cls, text: str) -> OrbitIndexSet:
        """Parse the text form ``n=<int>;I=<comma-separated ascending ints>``.

        Only the canonical spelling that ``format`` produces is accepted:
        indices strictly ascending, no whitespace inside or around the text.
        """
        try:
            n_part, i_part = text.split(";")
            if not n_part.startswith("n=") or not i_part.startswith("I="):
                raise ValueError
            n = int(n_part[2:])
            body = i_part[2:]
            indices = [int(tok) for tok in body.split(",")] if body else []
        except ValueError:
            raise ValueError(f"malformed index-set text {text!r}; expected 'n=4;I=1,4'") from None
        s = cls(n, frozenset(indices))
        if s.format() != text:
            raise ValueError(f"index-set text {text!r} is not canonical; expected {s.format()!r}")
        return s

    def format(self) -> str:
        return f"n={self.n};I={','.join(str(i) for i in self.sorted_indices)}"

    def size(self) -> int:
        """|S| = sum of C(n, i) over the member indices."""
        return sum(comb(self.n, i) for i in self.indices)

    def complement(self) -> OrbitIndexSet:
        """The index set of the complement graph's connection set: {1..n} minus indices."""
        return OrbitIndexSet(self.n, frozenset(range(1, self.n + 1)) - self.indices)
