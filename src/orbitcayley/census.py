"""Exhaustive sweep over all orbit-index subsets of a dimension.

Records connectivity, distinct-eigenvalue counts, and SRG verdicts for
every nonempty index set, in ascending bitmask order (bit i-1 set iff
orbit index i is a member), so output is byte-identical across runs.
The sweep builds every set's spectrum and pair counts as int64 tables,
and ``srg.verdict_columns``, the one rule set ``certify`` also runs,
reads both closed-form verdicts of every row from them.  Within the
dense cap, ``srg.dense_columns`` reads the dense verdict of every row
from blocks of rows 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import srg
from .core import ConsistencyError, OrbitIndexSet, pascal_row
from .explicit import EXPLICIT_MAX_N, _row0_block
from .spectrum import _first_invariant_failure, character_table
from .srg import SrgVerdict, VerdictStatus, _certified, _column_verdict, _tagged, pair_count_table

CENSUS_MAX_N = 12  # 2^n - 1 index sets per dimension: 4,095 at n = 12
# The sweep runs in int64.  Table entries, eigenvalues and pair counts are at
# most 2^n in absolute value, and the second-moment partial sums at most
# 4^n * sum_k C(n, k) = 8^n, so int64 is exact for n <= 20.
TABLE_INT64_MAX_N = 20
CENSUS_DEFAULT_EXPLICIT_CAP = 8
# entries of rows 0 that one srg.dense_columns call holds, rounded down to
# whole rows and to at least one: 9 bytes each for the block and its int64
# counts, 144 KiB per chunk
_DENSE_CHUNK = 1 << 14


def _indices(mask: int) -> list[int]:
    """The orbit indices of a bitmask, ascending: i for every set bit i - 1."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


@dataclass(frozen=True)
class CensusRecord:
    n: int
    mask: int  # bit i-1 set iff orbit index i is a member
    distinct_eigenvalues: int
    verdict: SrgVerdict
    explicit_verified: bool

    @property
    def index_set(self) -> OrbitIndexSet:
        return OrbitIndexSet.from_bitmask(self.n, self.mask)

    @property
    def connected(self) -> bool:
        return self.verdict.status is not VerdictStatus.DISCONNECTED

    @property
    def complement_indices(self) -> tuple[int, ...]:
        return tuple(_indices(self.mask ^ ((1 << self.n) - 1)))

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "I": _indices(self.mask),
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
            str(self.n),
            ",".join(str(i) for i in _indices(self.mask)),
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
    call, the spectrum invariants are checked on every row at once, and
    both closed-form verdicts of every set come from
    ``srg.verdict_columns``, the rules ``certify`` applies to one row.
    When n is within ``explicit_cap``, the dense verdicts of every set come
    from ``srg.dense_columns`` on blocks of rows 0 holding at most
    ``_DENSE_CHUNK`` entries.  Each record's verdict is read from its
    pair-count column row.  Only rows whose columns disagree go to
    ``srg._certified``, which runs every route on the set again and raises
    the routes' ConsistencyError; other SRG rows get their family tags
    from ``_tagged``.  Raises ValueError before any work when
    ``check_census_request`` rejects the request.
    """
    check_census_request(n, explicit_cap)
    member, spectra, counts = sweep_tables(n)
    failure = _first_invariant_failure(spectra, member @ np.array(pascal_row(n)[1:]))
    if failure is not None:
        row, what = failure
        raise ConsistencyError(f"{what} on {OrbitIndexSet.from_bitmask(n, row + 1).format()}")
    spectra.sort(axis=1)
    columns = srg.verdict_columns(member, spectra, counts)
    per_set = (columns.paircount != columns.spectral).any(axis=1)
    if n <= explicit_cap:
        step = max(1, _DENSE_CHUNK >> n)
        dense = np.concatenate([
            srg.dense_columns(_row0_block(member[r0 : r0 + step]))
            for r0 in range(0, len(member), step)
        ])
        per_set |= (dense != columns.paircount).any(axis=1)
    records = []
    for mask, row, distinct, checked in zip(
        range(1, 1 << n), columns.paircount.tolist(), columns.distinct.tolist(), per_set.tolist()
    ):
        verdict = _column_verdict(n, row)
        if checked:
            spectral = _column_verdict(n, columns.spectral[mask - 1].tolist())
            verdicts = {"pair_count": verdict, "spectral": spectral}
            verdict = _certified(OrbitIndexSet.from_bitmask(n, mask), verdicts, explicit_cap)
        elif verdict.params is not None:
            verdict = _tagged(OrbitIndexSet.from_bitmask(n, mask), verdict)
        records.append(CensusRecord(n, mask, distinct, verdict, n <= explicit_cap))
    return records
