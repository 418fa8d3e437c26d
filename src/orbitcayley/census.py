"""Exhaustive sweep over all orbit-index subsets of a dimension.

Records connectivity, distinct-eigenvalue counts, and SRG verdicts for
every nonempty index set, in ascending bitmask order (bit i-1 set iff
orbit index i is a member), so output is byte-identical across runs.
The sweep builds every set's spectrum and pair counts as int64 tables,
and ``srg.certified_rows``, the one certification pipeline ``certify``
also runs, reads and compares every route's verdict of every row from
them: both closed-form verdicts, and within the dense cap the dense
verdict from blocks of rows 0.

``_dimension`` is the one core of a dimension: the verdict columns and
the tagged verdicts of the few SRG rows.  Two readers share it:
``census`` builds one ``CensusRecord`` per set for library users, and
``census_bytes``, the writer behind ``orbitcayley census``, formats the
JSONL or CSV text of every set straight from the columns, with no object
per set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import srg
from .core import ConsistencyError, OrbitIndexSet, pascal_row
from .explicit import EXPLICIT_MAX_N
from .spectrum import _first_invariant_failure, character_table
from .srg import _PARAMLESS, SrgVerdict, VerdictStatus, pair_count_table

CENSUS_MAX_N = 12  # 2^n - 1 index sets per dimension: 4,095 at n = 12
# The sweep runs in int64.  Table entries, eigenvalues and pair counts are at
# most 2^n in absolute value, and the second-moment partial sums at most
# 4^n * sum_k C(n, k) = 8^n, so int64 is exact for n <= 20.
TABLE_INT64_MAX_N = 20
CENSUS_DEFAULT_EXPLICIT_CAP = 8


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
    ``full_spectrum`` and ``pair_counts`` are the per-set oracles of these
    rows.
    """
    member = ((np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1).astype(np.int8)
    spectra = member @ character_table(n)[1:]
    counts = np.einsum("mi,wij,mj->mw", member, pair_count_table(n)[1:, 1:, 1:], member)
    return member, spectra, counts




def _dimension(n: int, explicit_cap: int) -> tuple[srg.VerdictColumns, dict[int, SrgVerdict]]:
    """The verdict columns of dimension n, and the tagged verdicts of its SRG rows by row.

    Row r is the set with bitmask r + 1.  All 2^n - 1 spectra and pair
    counts come from one ``sweep_tables`` call, the spectrum invariants
    are checked on every row at once, and ``srg.certified_rows``, the
    check ``certify`` runs on one row, reads and compares every route's
    verdict of every set, the dense route's when n is within
    ``explicit_cap``.  Raises ValueError before any work when
    ``check_census_request`` rejects the request.
    """
    check_census_request(n, explicit_cap)
    member, spectra, counts = sweep_tables(n)
    failure = _first_invariant_failure(spectra, member @ np.array(pascal_row(n)[1:]))
    if failure is not None:
        row, what = failure
        raise ConsistencyError(f"{what} on {OrbitIndexSet.from_bitmask(n, row + 1).format()}")
    spectra.sort(axis=1)
    return srg.certified_rows(n, member, spectra, counts, explicit_cap)


def census(n: int, explicit_cap: int = CENSUS_DEFAULT_EXPLICIT_CAP) -> list[CensusRecord]:
    """One record per nonempty index set, ascending by bitmask.

    The records are read from the verdict columns and verdicts of
    ``_dimension``, the core ``census_bytes`` also reads, so both pass the
    same checks and raise the same errors.
    """
    columns, verdicts = _dimension(n, explicit_cap)
    explicit = n <= explicit_cap
    return [
        CensusRecord(n, row + 1, distinct, verdicts.get(row) or _PARAMLESS[code], explicit)
        for row, (code, distinct) in enumerate(
            zip(columns.paircount[:, 0].tolist(), columns.distinct.tolist())
        )
    ]


def _index_texts(n: int, sep: str) -> list[str]:
    """texts[mask] = the orbit indices of mask, ascending, joined by sep, for every mask < 2^n.

    Built by doubling on the top bit: the masks with bit i - 1 set are
    those below it with sep and i appended, or i alone.
    """
    texts = [""]
    for i in range(1, n + 1):
        texts += [str(i)] + [f"{t}{sep}{i}" for t in texts[1:]]
    return texts


def _verdict_fields(verdict: SrgVerdict, fmt: str) -> tuple[str, str]:
    """A record's connected field and its closing fields, from the status on, in fmt."""
    connected = verdict.status is not VerdictStatus.DISCONNECTED
    if fmt == "jsonl":
        # the verdict's keys close the record: its JSON object without the opening brace
        return json.dumps(connected), json.dumps(verdict.to_json_dict())[1:] + "\n"
    params = verdict.params
    constants = (params.degree, params.lam, params.mu) if params else ("", "", "")
    return str(connected).lower(), ",".join([verdict.status.value, *map(str, constants)]) + "\n"


def census_bytes(n: int, fmt: str, explicit_cap: int = CENSUS_DEFAULT_EXPLICIT_CAP) -> bytes:
    """The census output of dimension n: one JSONL line or CSV row per set, ascending by bitmask.

    Read from the same ``_dimension`` core as ``census``, with no record
    object per set.  JSONL lines hold the keys n, I, connected, distinct,
    complement_I, explicit_verified, status, params and families; CSV rows
    the ``CENSUS_CSV_COLUMNS`` without the header, with I quoted when it
    holds a comma.  Every row whose verdict has no parameters shares the
    closing fields of its status; only the SRG rows are serialised one
    by one.
    """
    columns, verdicts = _dimension(n, explicit_cap)
    shared = {code: _verdict_fields(verdict, fmt) for code, verdict in _PARAMLESS.items()}
    fields = [shared.get(code) for code in columns.paircount[:, 0].tolist()]
    for row, verdict in verdicts.items():
        fields[row] = _verdict_fields(verdict, fmt)
    full = (1 << n) - 1
    rows = zip(range(1, full + 1), columns.distinct.tolist(), fields)
    if fmt == "jsonl":
        texts = _index_texts(n, ", ")
        verified = json.dumps(n <= explicit_cap)
        lines = [
            f'{{"n": {n}, "I": [{texts[mask]}], "connected": {connected}, "distinct": {distinct}, '
            f'"complement_I": [{texts[full ^ mask]}], "explicit_verified": {verified}, {tail}'
            for mask, distinct, (connected, tail) in rows
        ]
    else:
        texts = [f'"{t}"' if "," in t else t for t in _index_texts(n, ",")]
        lines = [
            f"{n},{texts[mask]},{connected},{distinct},{tail}"
            for mask, distinct, (connected, tail) in rows
        ]
    return "".join(lines).encode()
