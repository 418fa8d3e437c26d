"""Strong-regularity certification for orbit Cayley graphs.

Three independent routes to the same verdict: closed-form pair counting,
the spectral three-eigenvalue criterion, and dense brute force; ``certify``
runs them and insists they agree.  The pair count
|C(v,S)| = #{(x,y) in S x S : x XOR y = v} depends only on the weight of v
because S is a union of weight classes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from operator import and_
from typing import Sequence

import numpy as np

from .core import (
    CLOSED_FORM_MAX_N,
    ConsistencyError,
    OrbitIndexSet,
    ResidueFamily,
    expand_family,
    is_connected,
    pascal_row,
)
from .explicit import EXPLICIT_MAX_N, _row0, row0_constants, spans
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

    def is_feasible(self) -> bool:
        """r(r - lam - 1) = (v - r - 1) mu, the standard counting identity."""
        v, r, lam, mu = self.as_tuple()
        return r * (r - lam - 1) == (v - r - 1) * mu

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


# -- the three checkers ------------------------------------------------------

def _gate(s: OrbitIndexSet) -> SrgVerdict | None:
    if not is_connected(s):
        return DISCONNECTED
    if s.is_full():
        return COMPLETE
    return None


def _srg_verdict(s: OrbitIndexSet, lam: int, mu: int, degree: int) -> SrgVerdict:
    """An SRG verdict without family tags; ``_tagged`` adds them once the routes agree."""
    # trivial means the complement graph is disconnected (the definition,
    # not a shape heuristic; match_families tags the s_minus and s_odd shapes)
    trivial = not is_connected(s.complement())
    status = VerdictStatus.TRIVIAL_SRG if trivial else VerdictStatus.NONTRIVIAL_SRG
    return SrgVerdict(status, SrgParams(1 << s.n, degree, lam, mu))


def _tagged(s: OrbitIndexSet, verdict: SrgVerdict) -> SrgVerdict:
    """The verdict with the family tags of s when it is an SRG verdict."""
    if verdict.params is None:
        return verdict
    return SrgVerdict(verdict.status, verdict.params, match_families(s))


def srg_check_paircount(s: OrbitIndexSet) -> SrgVerdict:
    """Strong regularity iff |C(v,S)| is one constant on S and another off S."""
    return _tagged(s, _paircount_verdict(s, _pair_counts(s)))


def _pair_counts(s: OrbitIndexSet) -> list[int]:
    """pair_count(s, w) for w = 1..n."""
    return [pair_count(s, w) for w in range(1, s.n + 1)]


def _paircount_verdict(s: OrbitIndexSet, counts: Sequence[int]) -> SrgVerdict:
    """The pair-count verdict from counts[w - 1] = |C(v,S)| for |v| = w, w = 1..n."""
    gate = _gate(s)
    if gate is not None:
        return gate
    lam_values = {counts[w - 1] for w in s.indices}
    mu_values = {counts[w - 1] for w in range(1, s.n + 1) if w not in s.indices}
    if len(lam_values) == 1 and len(mu_values) == 1:
        return _srg_verdict(s, lam_values.pop(), mu_values.pop(), s.size())
    return NOT_SRG


def srg_check_spectral(s: OrbitIndexSet) -> SrgVerdict:
    """Connected + exactly three distinct eigenvalues r > theta > tau => SRG.

    Parameters recovered by the standard identities
    mu = r + theta*tau and lambda = mu + theta + tau.
    """
    values = _distinct_values(sorted(full_spectrum(s).values, reverse=True))
    return _tagged(s, _spectral_verdict(s, values))


def _distinct_values(descending: Sequence[int]) -> tuple[int, ...]:
    """The distinct values of a descending sequence, strictly descending.

    ``certify`` and the census sweep both reduce through this; neither
    needs the multiplicities that ``spectrum.distinct`` sums.
    """
    return tuple(dict.fromkeys(descending))


def _spectral_verdict(s: OrbitIndexSet, values: Sequence[int]) -> SrgVerdict:
    """The spectral verdict from the distinct eigenvalues of s, strictly descending."""
    gate = _gate(s)
    if gate is not None:
        return gate
    if len(values) != 3:
        return NOT_SRG
    r, theta, tau = values
    mu = r + theta * tau
    lam = mu + theta + tau
    return _srg_verdict(s, lam, mu, r)


def srg_check_explicit(s: OrbitIndexSet) -> SrgVerdict:
    """Brute force on the explicit graph, read from the adjacency row of vertex 0.

    Connectivity is a GF(2) span of row 0's support, the degree its number
    of ones, and lambda and mu the literal common-neighbour counts of
    vertex 0, Sigma_z S(z) S(z XOR y) (``explicit.row0_constants``); every
    translation is an automorphism, so vertex 0 stands for every vertex.
    Trivial vs nontrivial is the same span test on the complement's
    support.  None of these uses the closed forms.  Raises ValueError
    before any allocation when n exceeds EXPLICIT_MAX_N.
    """
    return _tagged(s, _explicit_verdict(s))


def _explicit_verdict(s: OrbitIndexSet) -> SrgVerdict:
    """``srg_check_explicit`` without the family tags."""
    if s.n > EXPLICIT_MAX_N:
        raise ValueError(f"n={s.n} exceeds the dense-graph cap {EXPLICIT_MAX_N}")
    row0 = _row0(s)
    if not spans(row0):
        return DISCONNECTED
    size = row0.size
    degree = int(np.count_nonzero(row0))
    if degree == size - 1:
        return COMPLETE
    lam, mu = row0_constants(row0)
    if lam is None or mu is None:
        return NOT_SRG
    # the complement graph is disconnected exactly for a trivial SRG
    other = ~row0
    other[0] = False
    status = VerdictStatus.NONTRIVIAL_SRG if spans(other) else VerdictStatus.TRIVIAL_SRG
    return SrgVerdict(status, SrgParams(size, degree, lam, mu))


def certify(s: OrbitIndexSet, explicit_cap: int) -> tuple[SrgVerdict, Spectrum]:
    """The SRG verdict of s, certified by every route that applies, and its spectrum.

    The pair-count and spectral routes always run; the dense route also runs
    when s.n is within ``explicit_cap`` (and raises ValueError above
    EXPLICIT_MAX_N).  When any verdict differs, raises ConsistencyError
    naming the set and every route's verdict, so the failure can be replayed
    with ``srg-check --set``.
    """
    spectrum = full_spectrum(s)
    values = _distinct_values(sorted(spectrum.values, reverse=True))
    return _certified(s, _pair_counts(s), values, explicit_cap), spectrum


def _certified(
    s: OrbitIndexSet, counts: Sequence[int], values: Sequence[int], explicit_cap: int
) -> SrgVerdict:
    """The verdict every route agrees on, from the pair counts and distinct eigenvalues of s.

    The pair-count and spectral verdicts are read from ``counts`` and
    ``values`` (as ``_paircount_verdict`` and ``_spectral_verdict`` take
    them); the dense route joins when s.n <= explicit_cap.  Shared by
    ``certify`` and the census sweep; raises ConsistencyError naming the
    set and every route's verdict when any two differ.  The family tags
    are matched once, after the routes agree.
    """
    verdicts = {
        "pair_count": _paircount_verdict(s, counts),
        "spectral": _spectral_verdict(s, values),
    }
    if s.n <= explicit_cap:
        verdicts["explicit"] = _explicit_verdict(s)
    verdict = verdicts["pair_count"]
    if any(other != verdict for other in verdicts.values()):
        detail = "; ".join(
            f"{route}: {json.dumps(_tagged(s, v).to_json_dict())}" for route, v in verdicts.items()
        )
        raise ConsistencyError(f"SRG routes disagree on {s.format()}: {detail}")
    return _tagged(s, verdict)
