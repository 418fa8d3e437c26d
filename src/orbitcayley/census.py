"""Exhaustive sweep over all orbit-index subsets of a dimension.

Records connectivity, distinct-eigenvalue counts, and SRG verdicts for
every nonempty index set, in ascending bitmask order (bit i-1 set iff
orbit index i is a member), so output is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConsistencyError, OrbitIndexSet, pascal_row
from .explicit import EXPLICIT_MAX_N
from .spectrum import _first_invariant_failure, character_table
from .srg import (
    SrgParams,
    SrgVerdict,
    VerdictStatus,
    _certified,
    _distinct_values,
    pair_count_table,
)

CENSUS_MAX_N = 12  # 2^n - 1 index sets per dimension: 4,095 at n = 12
# The sweep runs in int64.  Table entries, eigenvalues and pair counts are at
# most 2^n in absolute value, and the second-moment partial sums at most
# 4^n * sum_k C(n, k) = 8^n, so int64 is exact for n <= 20.
TABLE_INT64_MAX_N = 20
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
    """Raise ValueError when n is outside 1..CENSUS_MAX_N or explicit_cap exceeds EXPLICIT_MAX_N.

    Also raises when n exceeds TABLE_INT64_MAX_N, the bound of the int64 sweep.
    """
    if not 1 <= n <= CENSUS_MAX_N:
        raise ValueError(f"n={n} outside the census range 1..{CENSUS_MAX_N}")
    if n > TABLE_INT64_MAX_N:
        raise ValueError(f"n={n} exceeds the int64-exact table bound {TABLE_INT64_MAX_N}")
    if explicit_cap > EXPLICIT_MAX_N:
        raise ValueError(f"explicit cap {explicit_cap} exceeds the dense cap {EXPLICIT_MAX_N}")


def sweep_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Membership, spectra and pair counts of every nonempty index set of dimension n.

    Row r is the set with bitmask r + 1: member[r, i - 1] = [i in I],
    spectra[r, k] = sum over i in I of K[i][k] (``character_table``) and
    counts[r, w - 1] = sum over i, j in I of P[w][i][j] for w = 1..n
    (``pair_count_table``); member is int8, spectra and counts int64.
    ``full_spectrum`` and ``pair_count`` are the per-set oracles of these
    rows.
    """
    member = ((np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1).astype(np.int8)
    spectra = member @ character_table(n)[1:]
    counts = np.einsum("mi,wij,mj->mw", member, pair_count_table(n)[1:, 1:, 1:], member)
    return member, spectra, counts


def census(n: int, explicit_cap: int = CENSUS_DEFAULT_EXPLICIT_CAP) -> list[CensusRecord]:
    """One record per nonempty index set, ascending by bitmask.

    All 2^n - 1 spectra and pair counts come from one ``sweep_tables``
    call, and the spectrum invariants are checked on every row at once.
    Each set then gets the two closed-form verdicts, which must agree, as
    in ``certify``; the dense brute-force checker additionally runs (and
    must agree) when n is within ``explicit_cap``.  Raises ValueError
    before any work when ``check_census_request`` rejects the request.
    """
    check_census_request(n, explicit_cap)
    member, spectra, counts = sweep_tables(n)
    failure = _first_invariant_failure(spectra, member @ np.array(pascal_row(n)[1:]))
    if failure is not None:
        row, what = failure
        raise ConsistencyError(f"{what} on {OrbitIndexSet.from_bitmask(n, row + 1).format()}")
    spectra.sort(axis=1)
    records = []
    # rows become Python ints one at a time: whole-table lists would hold
    # about 4 MB more at n = 12
    for mask, sorted_row, count_row in zip(range(1, 1 << n), spectra[:, ::-1], counts):
        s = OrbitIndexSet.from_bitmask(n, mask)
        values = _distinct_values(sorted_row.tolist())
        verdict = _certified(s, count_row.tolist(), values, explicit_cap)
        records.append(
            CensusRecord(
                index_set=s,
                connected=verdict.status is not VerdictStatus.DISCONNECTED,
                distinct_eigenvalues=len(values),
                verdict=verdict,
                complement_indices=s.complement().sorted_indices,
                explicit_verified=n <= explicit_cap,
            )
        )
    return records


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
