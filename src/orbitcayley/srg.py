"""Strong-regularity certification for orbit Cayley graphs.

Three independent routes to the same verdict: closed-form pair counting,
the spectral three-eigenvalue criterion, and dense brute force.
``certify`` is the one way to check a set: it runs every route that
applies and insists they agree.  The pair count
|C(v,S)| = #{(x,y) in S x S : x XOR y = v} depends only on the weight of v
because S is a union of weight classes.

The two closed-form routes share one rule set, ``verdict_columns``, which
turns a table of index sets (membership, sorted spectra, pair counts; one
row per set) into both routes' verdicts: the census passes its int64
sweep tables, ``certify`` a one-row table of Python ints
(``_closed_form_verdicts``).  The dense route keeps its own rules,
``dense_columns``, and is their oracle: the census passes it blocks of
rows 0, ``certify`` a one-row block (``_explicit_verdict``).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from operator import and_
from typing import NamedTuple

import numpy as np

from .core import (
    CLOSED_FORM_MAX_N,
    ConsistencyError,
    OrbitIndexSet,
    ResidueFamily,
    expand_family,
    pascal_row,
)
from .explicit import EXPLICIT_MAX_N, _row0, _row_constants, walsh_counts
from .spectrum import Spectrum, full_spectrum

FAMILIES_CHECK_CAP = 20  # default dimension up to which family rows are certified


def pair_count(s: OrbitIndexSet, w: int) -> int:
    """|C(v,S)| for any v of weight w, in closed form.

    Each x in S with x XOR v in S is counted by its a ones inside the
    support of v and its b ones outside it: |x| = a + b and
    |x XOR v| = w - a + b, and C(w, a) C(n - w, b) vectors share (a, b).  So
    |C(v,S)| = sum_a C(w, a) sum_b C(n - w, b) [a + b in I] [w - a + b in I],
    the Hamming-scheme numbers p_ij^w summed over I x I without building
    them.  Swapping a and w - a swaps the two conditions, so only a <= w/2
    is summed, and every a < w/2 twice; the b-sum runs over the 0/1 bytes
    of I and a cached Pascal row.  Raises ValueError when n exceeds
    CLOSED_FORM_MAX_N.
    """
    n = s.n
    if n > CLOSED_FORM_MAX_N:
        raise ValueError(f"n={n} exceeds the closed-form cap {CLOSED_FORM_MAX_N}")
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} out of range 0..{n}")
    member = bytes(i in s.indices for i in range(n + 1))
    outside = pascal_row(n - w)
    inside = pascal_row(w)
    total = 0
    for a in range(w // 2 + 1):
        both = sum(compress(outside, map(and_, member[a:], member[w - a :])))
        total += inside[a] * both if 2 * a == w else 2 * inside[a] * both
    return total


def pair_count_table(n: int) -> np.ndarray:
    """P[w][i][j] = p_ij^w for w, i, j in 0..n, as int64: the Hamming-scheme intersection numbers.

    For any v of weight w, P[w][i][j] counts the x of weight i with x XOR v
    of weight j.  The same split as ``pair_count``: x with a ones inside
    supp v and b outside has weights i = a + b and j = w - a + b, and
    C(w, a) C(n - w, b) vectors share (a, b), which (i, j) determines.  So
    pair_count(s, w) is the sum of P[w] over I x I.
    """
    table = np.zeros((n + 1, n + 1, n + 1), dtype=np.int64)
    for w in range(n + 1):
        a = np.arange(w + 1)[:, None]
        b = np.arange(n - w + 1)
        table[w, a + b, w - a + b] = np.outer(pascal_row(w), pascal_row(n - w))
    return table


class VerdictStatus(str, Enum):
    DISCONNECTED = "disconnected"
    COMPLETE = "complete"
    TRIVIAL_SRG = "trivial_srg"
    NONTRIVIAL_SRG = "nontrivial_srg"
    NOT_SRG = "not_srg"

    def is_srg(self) -> bool:
        return self in (VerdictStatus.TRIVIAL_SRG, VerdictStatus.NONTRIVIAL_SRG)


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


# the verdicts that carry no parameters, shared by every route and the census
DISCONNECTED = SrgVerdict(VerdictStatus.DISCONNECTED)
COMPLETE = SrgVerdict(VerdictStatus.COMPLETE)
NOT_SRG = SrgVerdict(VerdictStatus.NOT_SRG)


# -- named families ----------------------------------------------------------

_PRETTY = {
    ResidueFamily.S0: "S0",
    ResidueFamily.S1: "S1",
    ResidueFamily.S2: "S2",
    ResidueFamily.S3: "S3",
    ResidueFamily.S_MINUS: "S-",
    ResidueFamily.S_ODD: "So",
}


@dataclass(frozen=True)
class FamilySpec:
    """One named family: the union of ``residues`` at each dimension it lives in.

    A nontrivial row lives at n = 4m + ``offset`` and its parameters follow
    one formula with ``sign`` = +1 or -1.  A trivial row (offset None) is
    parameterized by n itself.
    """

    key: str
    residues: tuple[ResidueFamily, ...]
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
        indices = frozenset().union(*(expand_family(t, n).indices for t in self.residues))
        return OrbitIndexSet(n, indices)

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
            part = 2 if self.residues == (ResidueFamily.S_MINUS,) else v // 2
            return SrgParams(v, v - part, v - 2 * part, v - part)
        g = self.sign * (-1) ** m * (1 << (n // 2 - 1))
        e = int(ResidueFamily.S0 in self.residues)
        return SrgParams(v, v // 2 + g - e, v // 4 + g - 2 * e, v // 4 + g)

    def label(self, m: int) -> str:
        parts = "+".join(_PRETTY[t] for t in self.residues)
        return f"Cay(Z2^{self.dimension(m)},{parts})"


FAMILIES: dict[str, FamilySpec] = {
    spec.key: spec
    for spec in (
        FamilySpec("s0s1@4m", (ResidueFamily.S0, ResidueFamily.S1), offset=0, sign=1),
        FamilySpec("s2s3@4m", (ResidueFamily.S2, ResidueFamily.S3), offset=0, sign=-1),
        FamilySpec("s0s1@4m+2", (ResidueFamily.S0, ResidueFamily.S1), offset=2, sign=1),
        FamilySpec("s2s3@4m+2", (ResidueFamily.S2, ResidueFamily.S3), offset=2, sign=-1),
        FamilySpec("s1s2@4m+2", (ResidueFamily.S1, ResidueFamily.S2), offset=2, sign=1),
        FamilySpec("s0s3@4m+2", (ResidueFamily.S0, ResidueFamily.S3), offset=2, sign=-1),
        FamilySpec("s_minus", (ResidueFamily.S_MINUS,)),
        FamilySpec("s_odd", (ResidueFamily.S_ODD,)),
    )
}

NONTRIVIAL_FAMILY_KEYS: tuple[str, ...] = tuple(k for k, f in FAMILIES.items() if not f.trivial)


def family_construct(family: str, m: int) -> tuple[OrbitIndexSet, SrgParams]:
    """The index set of one named family member and its predicted parameters.

    For the two trivial families the parameter is the dimension n itself
    (n >= 2); for the others it is the family index m >= 1.
    """
    spec = FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if spec.trivial:
        if m < 2:
            raise ValueError(f"family {family} needs dimension >= 2, got {m}")
    elif m < 1:
        raise ValueError(f"family {family} needs m >= 1, got {m}")
    return spec.index_set(m), spec.predicted(m)


def match_families(s: OrbitIndexSet) -> tuple[str, ...]:
    """Keys of every named family whose member at the right size equals the set."""
    tags = []
    for key, spec in FAMILIES.items():
        m = spec.parameter(s.n)
        if m is not None and spec.index_set(m).indices == s.indices:
            tags.append(key)
    return tuple(tags)


def emit_table1(m_max: int, check_cap: int = FAMILIES_CHECK_CAP) -> list[dict]:
    """One row per (m, nontrivial family): closed-form parameters plus verification.

    ``verified`` is "yes"/"no" from ``certify`` (both closed-form routes) when
    the dimension is within ``check_cap``, else "skipped"; only certified rows
    build their index set.  Raises ValueError before any row when a certified
    dimension would exceed CLOSED_FORM_MAX_N.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    # the largest value, 2^(4 m_max + 2) vertices, must print within Python's
    # int-to-str digit limit L (0 means none): it has at most L digits iff it
    # is below 10^L, that is iff 4 m_max + 2 < (10^L).bit_length().  Pythons
    # before 3.10.7 have no limit and no getter.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        largest = ((10**limit).bit_length() - 3) // 4
        if m_max > largest:
            raise ValueError(
                f"m_max={m_max} exceeds {largest}: 2^(4*m_max+2) would have more than "
                f"{limit} digits (sys.get_int_max_str_digits())"
            )
    # rows of dimension up to check_cap are certified, and the largest row has 4 m_max + 2
    checked = min(check_cap, 4 * m_max + 2)
    if checked > CLOSED_FORM_MAX_N:
        raise ValueError(
            f"rows up to n={checked} would be certified, over the closed-form cap "
            f"{CLOSED_FORM_MAX_N}"
        )
    rows = []
    for m in range(1, m_max + 1):
        for key in NONTRIVIAL_FAMILY_KEYS:
            spec = FAMILIES[key]
            predicted = spec.predicted(m)
            verified = "skipped"
            if spec.dimension(m) <= check_cap:
                verdict, _ = certify(spec.index_set(m), explicit_cap=0)
                ok = (
                    verdict.status is VerdictStatus.NONTRIVIAL_SRG
                    and verdict.params == predicted
                )
                verified = "yes" if ok else "no"
            rows.append(
                {
                    "graph": spec.label(m),
                    "n_vertices": predicted.vertices,
                    "r": predicted.degree,
                    "lambda": predicted.lam,
                    "mu": predicted.mu,
                    "verified": verified,
                }
            )
    return rows


# -- the verdict rules -------------------------------------------------------

# a route's column code of a verdict status is its position here
_STATUSES = tuple(VerdictStatus)
_CODE = {status: code for code, status in enumerate(_STATUSES)}
_PARAMLESS = {
    _CODE[VerdictStatus.DISCONNECTED]: DISCONNECTED,
    _CODE[VerdictStatus.COMPLETE]: COMPLETE,
    _CODE[VerdictStatus.NOT_SRG]: NOT_SRG,
}


class VerdictColumns(NamedTuple):
    """Both closed-form verdicts of every table row, one column entry per row.

    ``paircount`` and ``spectral`` hold one row (status code, degree,
    lambda, mu) per set, the code being the status's position in
    ``VerdictStatus`` and the parameters 0 unless the status is an SRG.
    """

    connected: np.ndarray  # bool: the connectivity rule on I
    trivial: np.ndarray  # bool: the same rule fails on the complement of I
    complete: np.ndarray  # bool: |I| = n
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
    gates = (_connected_column(inside), inside.all(axis=1), ~_connected_column(~inside))
    connected, complete, trivial = gates
    distinct = 1 + np.count_nonzero(np.diff(spectra, axis=1), axis=1)

    top, bottom = counts.max(axis=1, keepdims=True), counts.min(axis=1, keepdims=True)
    lam = np.where(inside, counts, top).min(axis=1)
    mu = np.where(inside, top, counts).min(axis=1)
    regular = (lam == np.where(inside, counts, bottom).max(axis=1)) & (
        mu == np.where(inside, bottom, counts).max(axis=1)
    )
    degree = member @ np.array(pascal_row(n)[1:], dtype=counts.dtype)
    paircount = _route_columns(gates, regular, (degree, lam, mu))

    tau, r = spectra[:, 0], spectra[:, -1]
    after_tau = np.minimum(np.count_nonzero(spectra == tau[:, None], axis=1), n)
    theta = spectra[np.arange(len(spectra)), after_tau]
    mu = r + theta * tau
    spectral = _route_columns(gates, distinct == 3, (r, mu + theta + tau, mu))
    return VerdictColumns(connected, trivial, complete, distinct, paircount, spectral)


def _column_verdict(n: int, row: list[int]) -> SrgVerdict:
    """The untagged verdict of one route's column row (status code, degree, lambda, mu)."""
    code, *params = row
    if code in _PARAMLESS:
        return _PARAMLESS[code]
    return SrgVerdict(_STATUSES[code], SrgParams(1 << n, *params))


# -- the routes of one set ---------------------------------------------------

def _tagged(s: OrbitIndexSet, verdict: SrgVerdict) -> SrgVerdict:
    """The verdict with the family tags of s when it is an SRG verdict."""
    if verdict.params is None:
        return verdict
    return SrgVerdict(verdict.status, verdict.params, match_families(s))


def _closed_form_verdicts(s: OrbitIndexSet, spectrum: Spectrum) -> dict[str, SrgVerdict]:
    """The untagged pair-count and spectral verdicts of s, from its one-row verdict columns.

    The row holds Python ints, so ``verdict_columns`` is exact at every n
    up to CLOSED_FORM_MAX_N.
    """
    member = np.array([[i in s.indices for i in range(1, s.n + 1)]], dtype=np.int8)
    spectra = np.array([sorted(spectrum.values)], dtype=object)
    counts = np.array([[pair_count(s, w) for w in range(1, s.n + 1)]], dtype=object)
    columns = verdict_columns(member, spectra, counts)
    return {
        "pair_count": _column_verdict(s.n, columns.paircount[0].tolist()),
        "spectral": _column_verdict(s.n, columns.spectral[0].tolist()),
    }


def _check_dense_cap(n: int) -> None:
    """Raise ValueError when the dense route cannot run at dimension n."""
    if n > EXPLICIT_MAX_N:
        raise ValueError(f"n={n} exceeds the dense-graph cap {EXPLICIT_MAX_N}")


def _explicit_verdict(s: OrbitIndexSet) -> SrgVerdict:
    """The untagged dense verdict of s: ``dense_columns`` on the one-row block of its row 0.

    Two Walsh-Hadamard passes over row 0 (``explicit.walsh_counts``) give
    the connectivity of the graph and of its complement (trivial vs
    nontrivial), the degree, and the common-neighbour counts of vertex 0,
    from which lambda and mu are read.  None of these uses the closed
    forms.  Raises ValueError before any allocation when n exceeds
    EXPLICIT_MAX_N.
    """
    _check_dense_cap(s.n)
    return _column_verdict(s.n, dense_columns(_row0(s)[None])[0].tolist())


def dense_columns(block: np.ndarray) -> np.ndarray:
    """The dense route's (status code, degree, lambda, mu) rows, one per row 0 of a block.

    block is a C-contiguous (sets, 2^n) bool block of adjacency rows of
    vertex 0 (``explicit._row0_block``); it is read, then inverted in place
    to mask the mu pairs.  Translation by x is an automorphism, so the
    common neighbours of (x, y) are those of (0, x XOR y), and (x, y) is
    adjacent iff (0, x XOR y) is: lambda is read from vertex 0's counts
    over the y adjacent to 0, and mu over the other y != 0, which together
    cover every pair of distinct vertices.  The codes and the zero
    parameters of non-SRG rows are those of ``verdict_columns``, but the
    gates are the route's own, in its own order: disconnected, complete,
    not an SRG, trivial (the complement is disconnected), nontrivial.
    """
    connected, complement_connected, counts = walsh_counts(block)
    degree = counts[:, 0]
    lam, lam_found = _row_constants(counts, block)
    other = np.logical_not(block, out=block)
    other[:, 0] = False
    mu, mu_found = _row_constants(counts, other)
    status = np.select(
        [~connected, degree == block.shape[1] - 1, ~(lam_found & mu_found), ~complement_connected],
        [_CODE[VerdictStatus.DISCONNECTED], _CODE[VerdictStatus.COMPLETE],
         _CODE[VerdictStatus.NOT_SRG], _CODE[VerdictStatus.TRIVIAL_SRG]],
        _CODE[VerdictStatus.NONTRIVIAL_SRG],
    )
    srg = (status == _CODE[VerdictStatus.TRIVIAL_SRG]) | (
        status == _CODE[VerdictStatus.NONTRIVIAL_SRG]
    )
    return np.column_stack([status, *(np.where(srg, p, 0) for p in (degree, lam, mu))])


def certify(s: OrbitIndexSet, explicit_cap: int) -> tuple[SrgVerdict, Spectrum]:
    """The SRG verdict of s, certified by every route that applies, and its spectrum.

    The pair-count and spectral routes always run, read from the one-row
    verdict columns of s; the dense route also runs when s.n is within
    ``explicit_cap``, and raises ValueError above EXPLICIT_MAX_N before any
    route runs.  When any verdict differs, raises ConsistencyError naming
    the set and every route's verdict, so the failure can be replayed with
    ``srg-check --set``.
    """
    if s.n <= explicit_cap:
        _check_dense_cap(s.n)
    spectrum = full_spectrum(s)
    return _certified(s, _closed_form_verdicts(s, spectrum), explicit_cap), spectrum


def _certified(s: OrbitIndexSet, verdicts: dict[str, SrgVerdict], explicit_cap: int) -> SrgVerdict:
    """The verdict every route agrees on, from the closed-form routes' untagged verdicts of s.

    ``verdicts`` maps "pair_count" and "spectral" to their verdicts, read
    from the verdict columns of a one-row table by ``certify`` and of the
    sweep tables by the census;
    the dense route joins when s.n <= explicit_cap.  Raises
    ConsistencyError naming the set and every route's verdict when any two
    differ.  The family tags are matched once, after the routes agree.
    """
    if s.n <= explicit_cap:
        verdicts = {**verdicts, "explicit": _explicit_verdict(s)}
    verdict = verdicts["pair_count"]
    if any(other != verdict for other in verdicts.values()):
        detail = "; ".join(
            f"{route}: {json.dumps(_tagged(s, v).to_json_dict())}" for route, v in verdicts.items()
        )
        raise ConsistencyError(f"SRG routes disagree on {s.format()}: {detail}")
    return _tagged(s, verdict)
