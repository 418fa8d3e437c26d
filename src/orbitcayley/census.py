"""Exhaustive sweep over all orbit-index subsets of a dimension.

Records connectivity, distinct-eigenvalue counts, and SRG verdicts for
every nonempty index set, in ascending bitmask order (bit i-1 set iff
orbit index i is a member), so output is byte-identical across runs.
The sweep builds every set's spectrum and pair counts as int64 tables,
each row summed from the tables of its mask's two halves, and
``srg.certified_rows``, the one certification pipeline ``certify``
also runs, checks and sorts the spectra, then reads and compares every
route's verdict of every row from them: both closed-form verdicts, and
within the dense cap the dense verdict from blocks of rows 0.

``_dimension`` is the one core of a dimension: the verdict columns and
the tagged verdicts of the few SRG rows.  Its one reader is
``census_bytes``, the writer behind ``orbitcayley census``, which formats
the JSONL or CSV text of every set straight from the columns, with no
object per set.
"""

from __future__ import annotations

import json

import numpy as np

from . import srg
from .core import enforce_cap
from .spectrum import character_table
from .srg import _PARAMLESS, SrgVerdict, VerdictStatus, pair_count_table

CENSUS_DEFAULT_EXPLICIT_CAP = 8  # the census command's --explicit-cap default

CENSUS_FORMATS = ("jsonl", "csv")
CENSUS_CSV_COLUMNS = ["n", "I", "connected", "distinct", "verdict", "r", "lambda", "mu"]


def check_census_request(n: int, explicit_cap: int) -> None:
    """Raise ValueError when n < 1, n exceeds the census cap or explicit_cap the dense cap.

    Also raises when min(n, explicit_cap), the largest dimension the census
    runs the dense route on, exceeds the census dense cap.  That bound rises
    with n, so checking both ends of a range checks every n in it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    enforce_cap("census", n)
    enforce_cap("dense", explicit_cap, "explicit cap")
    enforce_cap("census dense", min(n, explicit_cap))


def _bits(m: int) -> np.ndarray:
    """bits[x, i] = bit i of x for every x < 2^m, as int8."""
    return ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.int8)


def _half_tables(n: int) -> tuple[np.ndarray, ...]:
    """The tables of the two halves of each mask hi * 2^k + lo, with k = n // 2.

    lo holds orbit indices 1..k and hi indices k + 1..n.  Returns member_lo
    (int8, 2^k x k) and, in int64, each half's spectra and pair counts
    (spectra_lo, spectra_hi, counts_lo, counts_hi: K of ``character_table``
    and P of ``pair_count_table`` summed over that half's indices) and
    cross (2^(n - k) x k x n): cross[hi][i - 1] sums P[w][i][j] + P[w][j][i]
    over the j in hi, the pairs between the halves both ways round, so the
    rows stay exact for any table P.
    """
    k = n // 2
    chars = character_table(n)[1:]
    pairs = pair_count_table(n)[1:, 1:, 1:]
    lo, hi = _bits(k), _bits(n - k)
    between = pairs[:, :k, k:] + pairs[:, k:, :k].transpose(0, 2, 1)
    return (
        lo,
        lo @ chars[:k],
        hi @ chars[k:],
        np.einsum("mi,wij,mj->mw", lo, pairs[:, :k, :k], lo),
        np.einsum("mi,wij,mj->mw", hi, pairs[:, k:, k:], hi),
        np.einsum("wij,hj->hiw", between, hi),
    )


def _half_rows(halves: tuple[np.ndarray, ...], his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra and pair counts of the masks hi * 2^k + lo, for each hi in his and each lo, in order.

    spectra = spectra_lo[lo] + spectra_hi[hi] and counts = counts_lo[lo] +
    counts_hi[hi] + member_lo[lo] @ cross[hi], the cross terms of all his
    in one batched product; both int64, with len(his) * 2^k rows.
    """
    member_lo, spectra_lo, spectra_hi, counts_lo, counts_hi, cross = halves
    spectra = spectra_hi[his, None] + spectra_lo
    counts = counts_hi[his, None] + counts_lo + member_lo @ cross[his]
    return spectra.reshape(-1, spectra.shape[-1]), counts.reshape(-1, counts.shape[-1])


def sweep_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Membership, spectra and pair counts of every nonempty index set of dimension n.

    Row r is the set with bitmask r + 1: member[r, i - 1] = [i in I],
    spectra[r, k] = sum over i in I of K[i][k] (``character_table``) and
    counts[r, w - 1] = sum over i, j in I of P[w][i][j] for w = 1..n
    (``pair_count_table``); member is int8, spectra and counts int64, exact
    while the second moment's 8^n < 2^63, so for n <= 20, past the census cap.
    The rows are sums of the ``_half_tables`` rows of the mask's two halves,
    all made by one ``_half_rows`` call, so no product runs over the whole
    table.  ``full_spectrum`` and ``pair_counts`` are the per-set oracles
    of these rows.
    """
    spectra, counts = _half_rows(_half_tables(n), np.arange(1 << (n - n // 2)))
    return _bits(n)[1:], spectra[1:], counts[1:]


def _dimension(n: int, explicit_cap: int) -> tuple[srg.VerdictColumns, dict[int, SrgVerdict]]:
    """The verdict columns of dimension n, and the tagged verdicts of its SRG rows by row.

    Row r is the set with bitmask r + 1.  All 2^n - 1 spectra and pair
    counts come from one ``sweep_tables`` call, and ``srg.certified_rows``,
    the check ``certify`` runs on one row, certifies every set, the dense
    route joining when n is within ``explicit_cap``.  Its one reader is
    the writer ``census_bytes``; every error is raised here, before any
    text is formatted.  Raises ValueError before any work when
    ``check_census_request`` rejects the request.
    """
    check_census_request(n, explicit_cap)
    return srg.certified_rows(n, *sweep_tables(n), explicit_cap)


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


def census_bytes(n: int, fmt: str, explicit_cap: int) -> bytes:
    """The census output of dimension n: one JSONL line or CSV row per set, ascending by bitmask.

    Formatted from the verdict columns of ``_dimension``, with no object
    per set.  JSONL lines hold the keys n, I, connected, distinct,
    complement_I, explicit_verified, status, params and families; CSV rows
    the ``CENSUS_CSV_COLUMNS`` without the header, with I quoted when it
    holds a comma.  Every row whose verdict has no parameters shares the
    closing fields of its status; only the SRG rows are serialised one
    by one.  Raises ValueError before any work when fmt is neither
    "jsonl" nor "csv".
    """
    if fmt not in CENSUS_FORMATS:
        raise ValueError(f"unknown census format {fmt!r}; expected one of {CENSUS_FORMATS}")
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
        lines = (
            f'{{"n": {n}, "I": [{texts[mask]}], "connected": {connected}, "distinct": {distinct}, '
            f'"complement_I": [{texts[full ^ mask]}], "explicit_verified": {verified}, {tail}'
            for mask, distinct, (connected, tail) in rows
        )
    else:
        texts = [f'"{t}"' if "," in t else t for t in _index_texts(n, ",")]
        lines = (
            f"{n},{texts[mask]},{connected},{distinct},{tail}"
            for mask, distinct, (connected, tail) in rows
        )
    return "".join(lines).encode()
