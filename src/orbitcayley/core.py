"""Orbit-indexed connection sets in GF(2)^n (int bitsets), named shapes, and Pascal rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import comb
from typing import Iterable


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (two routes to the same value disagreed)."""


# the largest n of the closed forms, checked first in spectrum.full_spectrum
# and srg.pair_counts.  The pair counts of all n weights take time cubic in n:
# srg-check at n = 1024 takes 1.1 s with 2 indices and 2.5 s with 512
# (2-vCPU host, Python 3.11.7)
CLOSED_FORM_MAX_N = 1024

# Row n holds n + 1 ints of at most n bits: 10.6 KB at n = 200 and 135 KB at
# n = 1024.  Requests up to n = 200 touch rows 0..200 only, 0.95 MB in all; a
# full cache of rows 0..255 holds 1.65 MB, and at CLOSED_FORM_MAX_N the cache
# holds at most the rows 769..1024, 27.6 MB
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

    def is_full(self) -> bool:
        return len(self.indices) == self.n


class ResidueFamily(str, Enum):
    """Named index-set shapes: weight residues mod 4, all-but-top, and odd weights."""

    S0 = "s0"
    S1 = "s1"
    S2 = "s2"
    S3 = "s3"
    S_MINUS = "s_minus"
    S_ODD = "s_odd"


def expand_family(tag: ResidueFamily | str, n: int) -> OrbitIndexSet:
    """The exact index set a named shape denotes at dimension n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    tag = ResidueFamily(tag)
    if tag in (ResidueFamily.S0, ResidueFamily.S1, ResidueFamily.S2, ResidueFamily.S3):
        r = int(tag.value[1])
        indices = frozenset(i for i in range(1, n + 1) if i % 4 == r)
    elif tag is ResidueFamily.S_MINUS:
        indices = frozenset(range(1, n))
    else:
        indices = frozenset(range(1, n + 1, 2))
    return OrbitIndexSet(n, indices)
