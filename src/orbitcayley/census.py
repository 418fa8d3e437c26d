"""Exhaustive sweep over all orbit-index subsets of a dimension.

Records connectivity, distinct-eigenvalue counts, and SRG verdicts for
every nonempty index set, in ascending bitmask order (bit i-1 set iff
orbit index i is a member), so output is byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ConsistencyError, OrbitIndexSet, pascal_row
from .explicit import EXPLICIT_MAX_N
from .spectrum import _first_invariant_failure, character_table
from .srg import (
    COMPLETE,
    DISCONNECTED,
    NOT_SRG,
    SrgParams,
    SrgVerdict,
    VerdictStatus,
    _certified,
    _distinct_values,
    match_families,
    pair_count_table,
)

CENSUS_MAX_N = 12  # 2^n - 1 index sets per dimension: 4,095 at n = 12
# The sweep runs in int64.  Table entries, eigenvalues and pair counts are at
# most 2^n in absolute value, and the second-moment partial sums at most
# 4^n * sum_k C(n, k) = 8^n, so int64 is exact for n <= 20.
TABLE_INT64_MAX_N = 20
CENSUS_DEFAULT_EXPLICIT_CAP = 8


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


# a route's column code of a verdict status is its position here
_STATUSES = tuple(VerdictStatus)
_CODE = {status: code for code, status in enumerate(_STATUSES)}
_PARAMLESS = {
    _CODE[VerdictStatus.DISCONNECTED]: DISCONNECTED,
    _CODE[VerdictStatus.COMPLETE]: COMPLETE,
    _CODE[VerdictStatus.NOT_SRG]: NOT_SRG,
}


class VerdictColumns(NamedTuple):
    """Both closed-form verdicts of every ``sweep_tables`` row, one column entry per row.

    ``paircount`` and ``spectral`` hold one row (status code, degree,
    lambda, mu) per set, the code being the status's position in
    ``VerdictStatus`` and the parameters 0 unless the status is an SRG.
    """

    connected: np.ndarray  # bool: core.is_connected on I
    trivial: np.ndarray  # bool: the same rule fails on the complement of I
    complete: np.ndarray  # bool: |I| = n
    distinct: np.ndarray  # int64: number of distinct eigenvalues
    paircount: np.ndarray  # int64 (rows, 4)
    spectral: np.ndarray  # int64 (rows, 4)


def _connected_column(member: np.ndarray) -> np.ndarray:
    """``core.is_connected`` on every row of a bool membership matrix.

    An odd index below n connects; for odd n the top index connects when n
    is 1 or another index is present.
    """
    n = member.shape[1]
    connected = member[:, : n - 1 : 2].any(axis=1)
    if n % 2:
        connected |= member[:, n - 1] & ((n == 1) | (member.sum(axis=1) >= 2))
    return connected


def _route_columns(
    gates: tuple[np.ndarray, np.ndarray, np.ndarray],
    regular: np.ndarray,
    params: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """One route's (status code, degree, lambda, mu) rows: the gates, then its SRG criterion."""
    connected, complete, trivial = gates
    status = np.select(
        [~connected, complete, ~regular, trivial],
        [_CODE[VerdictStatus.DISCONNECTED], _CODE[VerdictStatus.COMPLETE],
         _CODE[VerdictStatus.NOT_SRG], _CODE[VerdictStatus.TRIVIAL_SRG]],
        _CODE[VerdictStatus.NONTRIVIAL_SRG],
    )
    srg = (status == _CODE[VerdictStatus.TRIVIAL_SRG]) | (
        status == _CODE[VerdictStatus.NONTRIVIAL_SRG]
    )
    return np.column_stack([status, *(np.where(srg, p, 0) for p in params)])


def verdict_columns(member: np.ndarray, spectra: np.ndarray, counts: np.ndarray) -> VerdictColumns:
    """The verdict columns of ``sweep_tables`` rows whose spectra are sorted ascending per row.

    The pair-count route reads the degree as member @ C(n, i) and calls a
    set regular when min == max of its counts over the member weights
    (lambda) and over the others (mu).  The spectral route counts the
    distinct values of each sorted row; with three, r > theta > tau are its
    last entry, the entry after the run of tau, and its first entry, and
    mu = r + theta tau, lambda = mu + theta + tau.  ``certify`` is the
    per-set oracle of every column.
    """
    n = member.shape[1]
    inside = member.astype(bool)
    gates = (_connected_column(inside), inside.all(axis=1), ~_connected_column(~inside))
    connected, complete, trivial = gates
    distinct = 1 + np.count_nonzero(np.diff(spectra, axis=1), axis=1)

    top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    lam = np.where(inside, counts, top).min(axis=1)
    mu = np.where(inside, top, counts).min(axis=1)
    regular = (lam == np.where(inside, counts, bottom).max(axis=1)) & (
        mu == np.where(inside, bottom, counts).max(axis=1)
    )
    degree = member @ np.array(pascal_row(n)[1:])
    paircount = _route_columns(gates, regular, (degree, lam, mu))

    tau, r = spectra[:, 0], spectra[:, -1]
    after_tau = np.minimum(np.count_nonzero(spectra == tau[:, None], axis=1), n)
    theta = spectra[np.arange(len(spectra)), after_tau]
    mu = r + theta * tau
    spectral = _route_columns(gates, distinct == 3, (r, mu + theta + tau, mu))
    return VerdictColumns(connected, trivial, complete, distinct, paircount, spectral)


def _column_text(route: str, row: list[int]) -> str:
    code, degree, lam, mu = row
    return f"{route}: {_STATUSES[code].value} (r={degree}, lambda={lam}, mu={mu})"


def _certified_row(
    n: int, mask: int, columns: VerdictColumns, spectra: np.ndarray, counts: np.ndarray,
    explicit_cap: int,
) -> SrgVerdict:
    """``_certified`` on the table row of one set, whose verdict both route columns must hold."""
    s = OrbitIndexSet.from_bitmask(n, mask)
    row = mask - 1
    values = _distinct_values(spectra[row, ::-1].tolist())
    verdict = _certified(s, counts[row].tolist(), values, explicit_cap)
    params = verdict.params.as_tuple()[1:] if verdict.params else (0, 0, 0)
    per_set = [_CODE[verdict.status], *params]
    paircount, spectral = columns.paircount[row].tolist(), columns.spectral[row].tolist()
    if paircount != per_set or spectral != per_set:
        raise ConsistencyError(
            f"verdict columns disagree with the per-set routes on {s.format()}: "
            f"{_column_text('pair_count', paircount)}; {_column_text('spectral', spectral)}; "
            f"per set: {json.dumps(verdict.to_json_dict())}"
        )
    return verdict


def census(n: int, explicit_cap: int = CENSUS_DEFAULT_EXPLICIT_CAP) -> list[CensusRecord]:
    """One record per nonempty index set, ascending by bitmask.

    All 2^n - 1 spectra and pair counts come from one ``sweep_tables``
    call, the spectrum invariants are checked on every row at once, and
    both closed-form verdicts of every set come from ``verdict_columns``.
    SRG rows get their family tags from ``match_families``.  A row goes
    through the per-set ``_certified`` (on its own table row) when n is
    within ``explicit_cap``, so the dense route joins, or when its two
    route columns disagree.  That raises the routes' ConsistencyError when
    they disagree, and one naming the set and its column values when the
    agreed verdict differs from a column.  Raises ValueError before any
    work when ``check_census_request`` rejects the request.
    """
    check_census_request(n, explicit_cap)
    member, spectra, counts = sweep_tables(n)
    failure = _first_invariant_failure(spectra, member @ np.array(pascal_row(n)[1:]))
    if failure is not None:
        row, what = failure
        raise ConsistencyError(f"{what} on {OrbitIndexSet.from_bitmask(n, row + 1).format()}")
    spectra.sort(axis=1)
    columns = verdict_columns(member, spectra, counts)
    per_set = (columns.paircount != columns.spectral).any(axis=1)
    if n <= explicit_cap:
        per_set[:] = True
    records = []
    for mask, (code, *params), distinct, checked in zip(
        range(1, 1 << n), columns.paircount.tolist(), columns.distinct.tolist(), per_set.tolist()
    ):
        if checked:
            verdict = _certified_row(n, mask, columns, spectra, counts, explicit_cap)
        elif code in _PARAMLESS:
            verdict = _PARAMLESS[code]
        else:
            s = OrbitIndexSet.from_bitmask(n, mask)
            verdict = SrgVerdict(_STATUSES[code], SrgParams(1 << n, *params), match_families(s))
        records.append(CensusRecord(n, mask, distinct, verdict, n <= explicit_cap))
    return records
