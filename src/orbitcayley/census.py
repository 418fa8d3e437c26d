"""Exhaustive sweep over all orbit-index subsets of a dimension.

Records connectivity, distinct-eigenvalue counts, and SRG verdicts for
every nonempty index set, in ascending bitmask order (bit i-1 set iff
orbit index i is a member), so output is byte-identical across runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import OrbitIndexSet, is_connected
from .explicit import EXPLICIT_MAX_N
from .spectrum import distinct
from .srg import SrgParams, SrgVerdict, certify

CENSUS_MAX_N = 12  # 2^n - 1 index sets per dimension: 4,095 at n = 12
CENSUS_DEFAULT_EXPLICIT_CAP = 8


@dataclass(frozen=True)
class CensusRecord:
    index_set: OrbitIndexSet
    connected: bool
    distinct_eigenvalues: int
    verdict: SrgVerdict
    complement_indices: tuple[int, ...]
    explicit_verified: bool

    def to_json_dict(self) -> dict:
        out = {
            "n": self.index_set.n,
            "I": list(self.index_set.sorted_indices),
            "connected": self.connected,
            "distinct": self.distinct_eigenvalues,
            "complement_I": list(self.complement_indices),
            "explicit_verified": self.explicit_verified,
        }
        out.update(self.verdict.to_json_dict())
        return out

    def to_csv_row(self) -> list[str]:
        """Fixed column order n,I,connected,distinct,verdict,r,lambda,mu."""
        params = self.verdict.params
        return [
            str(self.index_set.n),
            ",".join(str(i) for i in self.index_set.sorted_indices),
            str(self.connected).lower(),
            str(self.distinct_eigenvalues),
            self.verdict.status.value,
            str(params.degree) if params else "",
            str(params.lam) if params else "",
            str(params.mu) if params else "",
        ]


CENSUS_CSV_COLUMNS = ["n", "I", "connected", "distinct", "verdict", "r", "lambda", "mu"]


def check_census_request(n: int, explicit_cap: int) -> None:
    """Raise ValueError when n is outside 1..CENSUS_MAX_N or explicit_cap exceeds EXPLICIT_MAX_N."""
    if not 1 <= n <= CENSUS_MAX_N:
        raise ValueError(f"n={n} outside the census range 1..{CENSUS_MAX_N}")
    if explicit_cap > EXPLICIT_MAX_N:
        raise ValueError(f"explicit cap {explicit_cap} exceeds the dense cap {EXPLICIT_MAX_N}")


def census(n: int, explicit_cap: int = CENSUS_DEFAULT_EXPLICIT_CAP) -> list[CensusRecord]:
    """One record per nonempty index set, ascending by bitmask.

    Each set goes through ``certify``: the two closed-form checkers always run
    and must agree; the dense brute-force checker additionally runs (and must
    agree) when n is within ``explicit_cap``.  Raises ValueError before any
    work when ``check_census_request`` rejects the request.
    """
    check_census_request(n, explicit_cap)
    records = []
    for mask in range(1, 1 << n):
        s = OrbitIndexSet.from_bitmask(n, mask)
        verdict, spectrum = certify(s, explicit_cap)
        records.append(
            CensusRecord(
                index_set=s,
                connected=is_connected(s),
                distinct_eigenvalues=len(distinct(spectrum)),
                verdict=verdict,
                complement_indices=s.complement().sorted_indices,
                explicit_verified=n <= explicit_cap,
            )
        )
    return records


def distinct_count_histogram(n: int) -> dict[int, int]:
    """How many nonempty index sets achieve each distinct-eigenvalue count."""
    hist = Counter(rec.distinct_eigenvalues for rec in census(n, explicit_cap=0))
    return dict(sorted(hist.items()))


def find_srgs(
    n: int, explicit_cap: int = CENSUS_DEFAULT_EXPLICIT_CAP
) -> list[tuple[OrbitIndexSet, SrgParams, bool]]:
    """All strongly regular index sets with parameters and a trivial flag, by degree."""
    hits = [
        (rec.index_set, rec.verdict.params, rec.verdict.status.value == "trivial_srg")
        for rec in census(n, explicit_cap=explicit_cap)
        if rec.verdict.status.is_srg()
    ]
    return sorted(hits, key=lambda h: (h[1].degree, h[0].bitmask))
