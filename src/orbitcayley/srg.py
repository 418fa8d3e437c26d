"""Strong-regularity certification for orbit Cayley graphs.

Three independent routes to the same verdict: closed-form pair counting,
the spectral three-eigenvalue criterion, and dense brute force.
``certify`` is the one way to check a set: it runs every route that
applies and insists they agree.  The pair count
|C(v,S)| = #{(x,y) in S x S : x XOR y = v} depends only on the weight of v
because S is a union of weight classes.

The two closed-form routes share one rule set, ``verdict_columns``, which
turns a table of index sets (membership, sorted spectra, pair counts; one
row per set) into both routes' verdicts.  The dense route keeps its own
rules, ``dense_columns`` on blocks of rows 0, and is their oracle.  Every
route computes its own gates; what all three share is only their
encoding, ``_route_columns``: a status code is the position of the first
gate that holds, in the order of ``VerdictStatus``.
``certified_rows`` is the one certification pipeline: it checks the
spectrum invariants of every row, sorts the spectra, then reads every
route's verdict of every row and compares them.  The census passes it
its int64 sweep tables, ``families`` and ``certify`` tables of Python
ints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import compress, groupby
from operator import and_
from typing import Iterator, NamedTuple

import numpy as np

from .core import ConsistencyError, OrbitIndexSet, enforce_cap, pascal_row
from .explicit import _row0_block, _row_constants, walsh_counts
from .spectrum import (
    _UNITS, Spectrum, _binomial_power, _first_invariant_failure, _gmul, _residue_filter,
    _residue_spectrum, full_spectrum,
)

FAMILIES_CHECK_CAP = 20  # default dimension up to which family rows are certified


def pair_counts(s: OrbitIndexSet) -> tuple[int, ...]:
    """|C(v,S)| for |v| = 0..n in one pass, in closed form.

    Each x in S with x XOR v in S is counted by its a ones inside the
    support of v and its b ones outside it: |x| = a + b and
    |x XOR v| = w - a + b, and C(w, a) C(n - w, b) vectors share (a, b).  So
    |C(v,S)| = sum_a C(w, a) sum_b C(n - w, b) [a + b in I] [w - a + b in I],
    the Hamming-scheme numbers p_ij^w summed over I x I without building
    them.  Swapping a and w - a swaps the two conditions, so only a <= w/2
    is summed, and every a < w/2 twice.  The two conditions are one byte
    of a lag mask, [k in I][k + d in I] at k = a + b and d = w - 2a; the
    n + 1 masks ((n + 1)(n + 2)/2 bytes, 0.5 MB at n = 1024) are built
    once per set, and each b-sum adds the entries of a cached Pascal row
    that its mask keeps.  Raises ValueError when n exceeds the closed-form
    cap.
    """
    n = s.n
    enforce_cap("closed-form", n)
    member = bytes(i in s.indices for i in range(n + 1))
    lags = [bytes(map(and_, member, member[d:])) for d in range(n + 1)]
    counts = []
    for w in range(n + 1):
        outside = pascal_row(n - w)
        inside = pascal_row(w)
        total = 0
        for a in range(w // 2 + 1):
            both = sum(compress(outside, lags[w - 2 * a][a:]))
            total += inside[a] * both if 2 * a == w else 2 * inside[a] * both
        counts.append(total)
    return tuple(counts)


def _residue_pair_counts(n: int, residues) -> list[int]:
    """pair_counts(s)[1:] of the weights 1..n in ``residues`` mod 4, by the root-of-unity filter.

    Filtering both conditions of the (a, b) sum at once gives, for w >= 1,
    16 |C(v,S)| = sum_(j,l) g_j g_l i^(lw) (1 + i^(j-l))^w (1 + i^(j+l))^(n-w)
    less 32 [0 in R] [w mod 4 in R] for x = 0 and x = v.  No eigenvalue is used.
    """
    def terms(g, w):
        return (_gmul(g[j], g[l], _UNITS[l * w % 4], _binomial_power(j - l, w),
                      _binomial_power(j + l, n - w))
                for j in range(4) for l in range(4) if g[j] != (0, 0) != g[l])

    counts = _residue_filter(n, residues, 16, terms, 1)
    return [c - 2 * (0 in residues and w % 4 in residues) for w, c in enumerate(counts, 1)]


def pair_count_table(n: int) -> np.ndarray:
    """P[w][i][j] = p_ij^w for w, i, j in 0..n, as int64: the Hamming-scheme intersection numbers.

    For any v of weight w, P[w][i][j] counts the x of weight i with x XOR v
    of weight j.  The same split as ``pair_counts``: x with a ones inside
    supp v and b outside has weights i = a + b and j = w - a + b, and
    C(w, a) C(n - w, b) vectors share (a, b), which (i, j) determines.  So
    pair_counts(s)[w] is the sum of P[w] over I x I.
    """
    table = np.zeros((n + 1, n + 1, n + 1), dtype=np.int64)
    for w in range(n + 1):
        a = np.arange(w + 1)[:, None]
        b = np.arange(n - w + 1)
        table[w, a + b, w - a + b] = np.outer(pascal_row(w), pascal_row(n - w))
    return table


class VerdictStatus(str, Enum):
    # in gate order: a graph's status is the first of these whose gate holds,
    # and NONTRIVIAL_SRG when none of the others does (``_route_columns``)
    DISCONNECTED = "disconnected"
    COMPLETE = "complete"
    NOT_SRG = "not_srg"
    TRIVIAL_SRG = "trivial_srg"
    NONTRIVIAL_SRG = "nontrivial_srg"


@dataclass(frozen=True)
class SrgParams:
    vertices: int
    degree: int
    lam: int
    mu: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.vertices, self.degree, self.lam, self.mu)

    def complement(self) -> SrgParams:
        v, r, lam, mu = self.as_tuple()
        return SrgParams(v, v - 1 - r, v - 2 - 2 * r + mu, v - 2 * r + lam)


@dataclass(frozen=True)
class SrgVerdict:
    status: VerdictStatus
    params: SrgParams | None = None
    family_tags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status.value}
        if self.params is not None:
            v, r, lam, mu = self.params.as_tuple()
            out["params"] = {"vertices": v, "degree": r, "lambda": lam, "mu": mu}
        else:
            out["params"] = None
        out["families"] = list(self.family_tags)
        return out


# -- named families ----------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """One named family: the union of the weight classes S_r at each dimension it lives in.

    S_r holds the weights i in 1..n with i = r mod 4, for each residue r
    in ``residues``; residues None is S-, the weights 1..n-1.  A nontrivial
    row lives at n = 4m + ``offset`` and its parameters follow one formula
    with ``sign`` = +1 or -1.  A trivial row (offset None) is parameterized
    by n itself.
    """

    key: str
    residues: tuple[int, ...] | None
    offset: int | None = None
    sign: int = 0

    @property
    def trivial(self) -> bool:
        return self.offset is None

    def dimension(self, m: int) -> int:
        return m if self.trivial else 4 * m + self.offset

    def parameter(self, n: int) -> int | None:
        """The m whose member has dimension n, or None when no member does."""
        if self.trivial:
            return n if n >= 2 else None
        m, rest = divmod(n - self.offset, 4)
        return m if m >= 1 and not rest else None

    def index_set(self, m: int) -> OrbitIndexSet:
        n = self.dimension(m)
        if self.residues is None:
            return OrbitIndexSet.of(n, range(1, n))
        return OrbitIndexSet.of(n, (i for i in range(1, n + 1) if i % 4 in self.residues))

    def predicted(self, m: int) -> SrgParams:
        """Closed-form (v, r, lambda, mu) of the member with parameter m.

        Nontrivial rows: with g = sign (-1)^m 2^(n/2 - 1) and e = 1 iff S0
        is a residue, r = 2^(n-1) + g - e, lambda = 2^(n-2) + g - 2e and
        mu = 2^(n-2) + g.
        """
        n = self.dimension(m)
        v = 1 << n
        if self.trivial:
            # complete multipartite: s_minus pairs each vector with its
            # antipode, s_odd splits the vectors by parity
            part = 2 if self.residues is None else v // 2
            return SrgParams(v, v - part, v - 2 * part, v - part)
        g = self.sign * (-1) ** m * (1 << (n // 2 - 1))
        e = int(0 in self.residues)
        return SrgParams(v, v // 2 + g - e, v // 4 + g - 2 * e, v // 4 + g)

    def label(self, m: int) -> str:
        parts = "S-" if self.residues is None else "+".join(f"S{r}" for r in self.residues)
        return f"Cay(Z2^{self.dimension(m)},{parts})"


FAMILIES: dict[str, FamilySpec] = {
    spec.key: spec
    for spec in (
        FamilySpec("s0s1@4m", (0, 1), offset=0, sign=1),
        FamilySpec("s2s3@4m", (2, 3), offset=0, sign=-1),
        FamilySpec("s0s1@4m+2", (0, 1), offset=2, sign=1),
        FamilySpec("s2s3@4m+2", (2, 3), offset=2, sign=-1),
        FamilySpec("s1s2@4m+2", (1, 2), offset=2, sign=1),
        FamilySpec("s0s3@4m+2", (0, 3), offset=2, sign=-1),
        FamilySpec("s_minus", None),
        FamilySpec("s_odd", (1, 3)),
    )
}

NONTRIVIAL_FAMILY_KEYS: tuple[str, ...] = tuple(k for k, f in FAMILIES.items() if not f.trivial)


def match_families(s: OrbitIndexSet) -> tuple[str, ...]:
    """Keys of every named family whose member at the right size equals the set."""
    tags = []
    for key, spec in FAMILIES.items():
        m = spec.parameter(s.n)
        if m is not None and spec.index_set(m).indices == s.indices:
            tags.append(key)
    return tuple(tags)


def _table1_rows(m: int, check_cap: int) -> list[dict]:
    """The ``emit_table1`` rows of m; each dimension within check_cap is certified as one table.

    The 2 or 4 rows of a dimension get the residue forms, certified by
    ``certified_rows``; a row reads "yes" only for a nontrivial SRG verdict
    with the predicted parameters.
    """
    rows = []
    for n, group in groupby(map(FAMILIES.get, NONTRIVIAL_FAMILY_KEYS), lambda f: f.dimension(m)):
        specs = list(group)
        verdicts = None
        if n <= check_cap:
            residue_sets = [f.residues for f in specs]
            member = np.array([[i % 4 in r for i in range(1, n + 1)] for r in residue_sets], np.int8)
            spectra = np.array([_residue_spectrum(n, r) for r in residue_sets], dtype=object)
            counts = np.array([_residue_pair_counts(n, r) for r in residue_sets], dtype=object)
            verdicts = certified_rows(n, member, spectra, counts, 0)[1]
        for r, f in enumerate(specs):
            p, v = f.predicted(m), (verdicts or {}).get(r)
            verified = "skipped" if verdicts is None else "no"
            if v and (v.status, v.params) == (VerdictStatus.NONTRIVIAL_SRG, p):
                verified = "yes"
            rows.append({"graph": f.label(m), "n_vertices": p.vertices, "r": p.degree, "lambda": p.lam,
                         "mu": p.mu, "verified": verified})
    return rows


def emit_table1(m_max: int, check_cap: int = FAMILIES_CHECK_CAP) -> Iterator[dict]:
    """One row per (m, nontrivial family): closed-form parameters plus verification.

    ``verified`` is "yes"/"no" from ``_table1_rows`` when the dimension is
    within ``check_cap``, else "skipped".  Raises ValueError at the call,
    before any row, when m_max exceeds the families cap or check_cap the
    families check cap.  The rows come in order of m, then of
    ``NONTRIVIAL_FAMILY_KEYS``; the rows of one m are made and certified
    when its first row is taken (``list(emit_table1(...))`` for all).
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    enforce_cap("families", m_max)
    enforce_cap("families check", check_cap)
    return (row for m in range(1, m_max + 1) for row in _table1_rows(m, check_cap))


# -- the verdict rules -------------------------------------------------------

# a route's column code of a verdict status is its position here; the codes
# from _SRG_CODE on carry parameters, and the verdicts below it are shared
_STATUSES = tuple(VerdictStatus)
_SRG_CODE = _STATUSES.index(VerdictStatus.TRIVIAL_SRG)
_PARAMLESS = {code: SrgVerdict(s) for code, s in enumerate(_STATUSES[:_SRG_CODE])}


class VerdictColumns(NamedTuple):
    """Both closed-form verdicts of every table row, one column entry per row.

    ``paircount`` and ``spectral`` hold one row (status code, degree,
    lambda, mu) per set, as ``_route_columns`` encodes them.
    """

    distinct: np.ndarray  # int64: number of distinct eigenvalues
    paircount: np.ndarray  # (rows, 4), int64 or object like the counts
    spectral: np.ndarray  # (rows, 4), int64 or object like the spectra


def _connected_column(member: np.ndarray) -> np.ndarray:
    """Whether S generates GF(2)^n, for every row of a bool membership matrix.

    An odd weight i < n generates everything, even weights only the
    even-weight subgroup, and the top weight alone a perfect matching
    (disconnected for n >= 2).  For odd n the top weight lifts the
    even-weight subgroup to the whole group when another index is present.
    """
    n = member.shape[1]
    connected = member[:, : n - 1 : 2].any(axis=1)
    if n % 2:
        connected |= member[:, n - 1] & ((n == 1) | (member.sum(axis=1) >= 2))
    return connected


def _route_columns(gates: list[np.ndarray], params: tuple[np.ndarray, ...]) -> np.ndarray:
    """One route's (status code, degree, lambda, mu) rows, from its gates and parameters.

    gates[c] is the bool column of status code c: disconnected, complete,
    not an SRG, trivial.  A row's code is that of the first gate that
    holds, or NONTRIVIAL_SRG when none does; its parameters are kept from
    ``params`` when the code is an SRG's and are 0 otherwise.  This holds
    the encoding only: every route computes its own gates.
    """
    status = np.full(len(gates[0]), len(gates))
    for code in reversed(range(len(gates))):
        status[gates[code]] = code
    srg = status >= _SRG_CODE
    return np.column_stack([status, *(np.where(srg, p, 0) for p in params)])


def verdict_columns(member: np.ndarray, spectra: np.ndarray, counts: np.ndarray) -> VerdictColumns:
    """The verdict columns of table rows: membership, spectra sorted ascending, pair counts.

    Row r holds one set: member[r, i - 1] = [i in I] (int8), its
    eigenvalues lambda_0..lambda_n and counts[r, w - 1] = |C(v,S)| for
    |v| = w.  The gates are ``_connected_column``'s rule on I (connected)
    and on its complement (trivial), and |I| = n (complete).  The
    pair-count route reads the degree as member @ C(n, i) and calls a set
    regular when min == max of its counts over the member weights (lambda)
    and over the others (mu).  The spectral route counts the distinct
    values of each sorted row; with three, r > theta > tau are its last
    entry, the entry after the run of tau, and its first entry, and
    mu = r + theta tau, lambda = mu + theta + tau.

    The min/max sentinels are each row's own max and min and the binomials
    take the counts' dtype, so the same rules run on the census's int64
    tables and on ``certify``'s one-row object tables of Python ints.
    """
    n = member.shape[1]
    inside = member.astype(bool)
    disconnected, complete = ~_connected_column(inside), inside.all(axis=1)
    trivial = ~_connected_column(~inside)
    distinct = 1 + np.count_nonzero(np.diff(spectra, axis=1), axis=1)

    top, bottom = counts.max(axis=1, keepdims=True), counts.min(axis=1, keepdims=True)
    lam = np.where(inside, counts, top).min(axis=1)
    mu = np.where(inside, top, counts).min(axis=1)
    regular = (lam == np.where(inside, counts, bottom).max(axis=1)) & (
        mu == np.where(inside, bottom, counts).max(axis=1)
    )
    degree = member @ np.array(pascal_row(n)[1:], dtype=counts.dtype)
    paircount = _route_columns([disconnected, complete, ~regular, trivial], (degree, lam, mu))

    tau, r = spectra[:, 0], spectra[:, -1]
    after_tau = np.minimum(np.count_nonzero(spectra == tau[:, None], axis=1), n)
    theta = spectra[np.arange(len(spectra)), after_tau]
    mu = r + theta * tau
    spectral = _route_columns(
        [disconnected, complete, distinct != 3, trivial], (r, mu + theta + tau, mu)
    )
    return VerdictColumns(distinct, paircount, spectral)


def _column_verdict(n: int, row: list[int]) -> SrgVerdict:
    """The untagged verdict of one route's column row (status code, degree, lambda, mu)."""
    code, *params = row
    if code in _PARAMLESS:
        return _PARAMLESS[code]
    return SrgVerdict(_STATUSES[code], SrgParams(1 << n, *params))


# -- the certification pipeline ---------------------------------------------

# entries of rows 0 that one dense_columns call holds, rounded down to whole
# rows and to at least one: 9 bytes each for the block and its int64 counts,
# 144 KiB per chunk
_DENSE_CHUNK = 1 << 14


def _tagged(s: OrbitIndexSet, verdict: SrgVerdict) -> SrgVerdict:
    """The verdict with the family tags of s when it is an SRG verdict."""
    if verdict.params is None:
        return verdict
    return SrgVerdict(verdict.status, verdict.params, match_families(s))


def dense_columns(block: np.ndarray) -> np.ndarray:
    """The dense route's (status code, degree, lambda, mu) rows, one per row 0 of a block.

    block is a C-contiguous (sets, 2^n) bool block of adjacency rows of
    vertex 0 (``explicit._row0_block``); it is read, then inverted in place
    to mask the mu pairs.  Translation by x is an automorphism, so the
    common neighbours of (x, y) are those of (0, x XOR y), and (x, y) is
    adjacent iff (0, x XOR y) is: lambda is read from vertex 0's counts
    over the y adjacent to 0, and mu over the other y != 0, which together
    cover every pair of distinct vertices.  The gates are the route's
    own, from the transform of the block alone: disconnected, complete
    (degree 2^n - 1), not an SRG (lambda or mu not constant) and trivial
    (the complement is disconnected).  Only their encoding as codes,
    ``_route_columns``, is shared with ``verdict_columns``.
    """
    connected, complement_connected, counts = walsh_counts(block)
    degree = counts[:, 0]
    lam, lam_found = _row_constants(counts, block)
    other = np.logical_not(block, out=block)
    other[:, 0] = False
    mu, mu_found = _row_constants(counts, other)
    gates = [
        ~connected, degree == block.shape[1] - 1, ~(lam_found & mu_found), ~complement_connected
    ]
    return _route_columns(gates, (degree, lam, mu))


def certified_rows(
    n: int, member: np.ndarray, spectra: np.ndarray, counts: np.ndarray, explicit_cap: int
) -> tuple[VerdictColumns, dict[int, SrgVerdict]]:
    """The verdict columns of table rows, checked by every route, and the tagged SRG verdicts.

    The table is that of ``verdict_columns`` with the spectra in k order,
    lambda_0..lambda_n: the census's int64 sweep tables of dimension n, or
    object tables of Python ints.  Every row must pass the spectrum
    invariants of ``_first_invariant_failure``; the spectra are then
    sorted in place.  When n is within ``explicit_cap`` the dense route
    joins, read by ``dense_columns`` from blocks of rows 0 of at most
    ``_DENSE_CHUNK`` entries.  Every route's (status code, degree, lambda,
    mu) row must equal the pair-count row.  At the first row that fails
    either check, raises ConsistencyError naming the set, read from
    member[row], and the failed invariant or every route's verdict, so
    the failure can be replayed with ``srg-check --set``.  The map holds,
    by row, the pair-count verdict of every SRG row with its family tags;
    every other row's verdict is the parameter-less one of its status code.
    """

    def index_set(row: int) -> OrbitIndexSet:
        return OrbitIndexSet(n, (np.flatnonzero(member[row]) + 1).tolist())

    sizes = member @ np.array(pascal_row(n)[1:], dtype=counts.dtype)
    failure = _first_invariant_failure(spectra, sizes)
    if failure is not None:
        row, what = failure
        raise ConsistencyError(f"{what} on {index_set(row).format()}")
    spectra.sort(axis=1)
    columns = verdict_columns(member, spectra, counts)
    routes = {"pair_count": columns.paircount, "spectral": columns.spectral}
    differs = (columns.spectral != columns.paircount).any(axis=1)
    if n <= explicit_cap:
        step = max(1, _DENSE_CHUNK >> n)
        routes["explicit"] = np.concatenate([
            dense_columns(_row0_block(member[r0 : r0 + step]))
            for r0 in range(0, len(member), step)
        ])
        differs |= (routes["explicit"] != columns.paircount).any(axis=1)
    if differs.any():
        row = int(differs.argmax())
        s = index_set(row)
        detail = "; ".join(
            f"{route}: "
            + json.dumps(_tagged(s, _column_verdict(n, rows[row].tolist())).to_json_dict())
            for route, rows in routes.items()
        )
        raise ConsistencyError(f"SRG routes disagree on {s.format()}: {detail}")
    return columns, {
        row: _tagged(index_set(row), _column_verdict(n, columns.paircount[row].tolist()))
        for row in np.flatnonzero(columns.paircount[:, 0] >= _SRG_CODE).tolist()
    }


def certify(s: OrbitIndexSet, explicit_cap: int) -> tuple[SrgVerdict, Spectrum]:
    """The SRG verdict of s, certified by every route that applies, and its spectrum.

    ``certified_rows`` checks the one-row table of s in Python ints, so
    the closed forms are exact at every n up to the closed-form cap; the
    dense route joins when s.n is within ``explicit_cap``, and raises
    ValueError above the dense cap before any route runs.  When an
    invariant fails or any verdict differs, raises the ConsistencyError
    of ``certified_rows``.
    """
    if s.n <= explicit_cap:
        enforce_cap("dense", s.n)
    spectrum = full_spectrum(s)
    member = np.array([[i in s.indices for i in range(1, s.n + 1)]], dtype=np.int8)
    spectra = np.array([spectrum.values], dtype=object)
    counts = np.array([pair_counts(s)[1:]], dtype=object)
    columns, verdicts = certified_rows(s.n, member, spectra, counts, explicit_cap)
    return verdicts.get(0) or _PARAMLESS[columns.paircount[0, 0]], spectrum
