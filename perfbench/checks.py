"""Output checks, run after each pass and outside its timed phase.

Every check is independent of the package's own code paths: spectra and
verdicts are recomputed here with the Krawtchouk recurrence in Python
integers, and graph6 bytes are decoded here.  A check returns None when the
output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import json
from math import comb
from pathlib import Path

import numpy as np
from networkx.readwrite.graph6 import data_to_n

# Taken on the seed code; see expected.json for the commit.
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# column blocks of the graph6 upper triangle are decoded this many bits at a time
_GRAPH6_BLOCK_BITS = 1 << 20


def parse_set(text: str) -> tuple[int, tuple[int, ...]]:
    n_part, i_part = text.split(";")
    return int(n_part.removeprefix("n=")), tuple(int(i) for i in i_part.removeprefix("I=").split(","))


def krawtchouk_spectrum(n: int, indices: tuple[int, ...]) -> list[int]:
    """lambda_k = sum over i in I of K_i(k), by (i+1) K_{i+1} = (n-2k) K_i - (n-i+1) K_{i-1}."""
    members = set(indices)
    top = max(indices)
    values = []
    for k in range(n + 1):
        prev, cur = 1, n - 2 * k
        total = cur if 1 in members else 0
        for i in range(1, top):
            prev, cur = cur, ((n - 2 * k) * cur - (n - i + 1) * prev) // (i + 1)
            if i + 1 in members:
                total += cur
        values.append(total)
    return values


def spectral_verdict(n: int, indices: tuple[int, ...]) -> dict:
    """Status and parameters from the spectrum alone.

    Connected iff the degree eigenvalue is simple; the complement (eigenvalues
    -1 - lambda_k for k >= 1) is disconnected iff some lambda_k = degree - 2^n.
    """
    values = krawtchouk_spectrum(n, indices)
    degree, vertices = values[0], 1 << n
    if values[1:].count(degree):
        return {"status": "disconnected", "params": None}
    if set(indices) == set(range(1, n + 1)):
        return {"status": "complete", "params": None}
    distinct = sorted(set(values), reverse=True)
    if len(distinct) != 3:
        return {"status": "not_srg", "params": None}
    r, theta, tau = distinct
    mu = r + theta * tau
    lam = mu + theta + tau
    trivial = (degree - vertices) in values[1:]
    return {
        "status": "trivial_srg" if trivial else "nontrivial_srg",
        "params": {"vertices": vertices, "degree": r, "lambda": lam, "mu": mu},
    }


def _census_sha256(job: dict, path: Path) -> str | None:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != EXPECTED["census_sha256"]:
        return f"census JSONL sha256 {digest} differs from the seed's"
    return None


def _csv_rows(path: Path, header: list[str]) -> list[dict] | str:
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != header:
            return "unexpected CSV header"
        return [dict(zip(header, row)) for row in reader]


def _identities_csv(job: dict, path: Path) -> str | None:
    rows = _csv_rows(path, ["id", "k", "m", "lhs", "rhs", "pass"])
    if isinstance(rows, str):
        return rows
    if len(rows) != EXPECTED["identities_rows"]:
        return f"{len(rows)} identity rows, expected {EXPECTED['identities_rows']}"
    bad = [r["id"] for r in rows if r["pass"] != "true" or r["lhs"] != r["rhs"]]
    return f"identity rows not passing: {bad[:3]}" if bad else None


def _families_csv(job: dict, path: Path) -> str | None:
    rows = _csv_rows(path, ["graph", "n_vertices", "r", "lambda", "mu", "verified"])
    if isinstance(rows, str):
        return rows
    if len(rows) != job["rows"]:
        return f"{len(rows)} family rows, expected {job['rows']}"
    bad = [r["graph"] for r in rows if r["verified"] != "yes"]
    return f"family rows not verified: {bad[:3]}" if bad else None


def _srg_verdict(job: dict, path: Path) -> str | None:
    payload = json.loads(path.read_text())
    if payload.get("set") != job["set"]:
        return f"verdict is for {payload.get('set')!r}"
    want = spectral_verdict(*parse_set(job["set"]))
    got = {"status": payload.get("status"), "params": payload.get("params")}
    return None if got == want else f"verdict {got} differs from the recurrence's {want}"


def _spectrum(job: dict, path: Path) -> str | None:
    payload = json.loads(path.read_text())
    n, indices = parse_set(job["set"])
    want = [
        {"k": k, "value": v, "multiplicity": comb(n, k)}
        for k, v in enumerate(krawtchouk_spectrum(n, indices))
    ]
    if payload != {"n": n, "entries": want}:
        return "spectrum differs from the recurrence's"
    return None


def _popcounts(n: int) -> np.ndarray:
    xs = np.arange(1 << n, dtype=np.int32)
    counts = np.zeros(1 << n, dtype=np.int32)
    for b in range(n):
        counts += (xs >> b) & 1
    return counts


def _graph6(job: dict, path: Path) -> str | None:
    """The graph must be |S|-regular with 2^n |S| / 2 edges and x ~ y iff weight(x^y) in I."""
    data = path.read_bytes()
    if not data.endswith(b"\n"):
        return "graph6 output lacks its newline"
    raw = np.frombuffer(data, dtype=np.uint8)[:-1]
    if raw.size == 0 or raw.min() < 63 or raw.max() > 126:
        return "graph6 bytes outside the printable range"
    body = raw - np.uint8(63)
    n, indices = parse_set(job["set"])
    size = 1 << n
    head = body[:8].tolist()
    vertices, rest = data_to_n(head)
    header = len(head) - len(rest)
    if vertices != size:
        return f"graph6 header says {vertices} vertices, expected {size}"
    body = body[header:]
    need = size * (size - 1) // 2
    if body.size != (need + 5) // 6:
        return f"graph6 body holds {body.size} bytes, expected {(need + 5) // 6}"

    member = np.zeros(n + 1, dtype=bool)
    member[list(indices)] = True
    neighbour_of_0 = member[_popcounts(n)]
    set_size = sum(comb(n, i) for i in indices)
    degree = np.zeros(size, dtype=np.int64)
    # column j holds rows 0..j-1 and starts at bit j(j-1)/2
    j = 1
    while j < size:
        j_end = j + 1
        while j_end < size and (j_end * (j_end - 1) - j * (j - 1)) // 2 < _GRAPH6_BLOCK_BITS:
            j_end += 1
        first, last = j * (j - 1) // 2, j_end * (j_end - 1) // 2
        chunk = body[first // 6 : (last + 5) // 6] << 2
        bits = np.unpackbits(chunk[:, None], axis=1)[:, :6].ravel()
        bits = bits[first % 6 : first % 6 + last - first].view(bool)
        lengths = np.arange(j, j_end, dtype=np.int32)
        cols = np.repeat(lengths, lengths)
        rows = np.arange(last - first, dtype=np.int32)
        rows -= np.repeat(lengths * (lengths - 1) // 2 - first, lengths)
        if not np.array_equal(bits, neighbour_of_0[rows ^ cols]):
            return f"graph6 adjacency differs from the Cayley graph in columns {j}..{j_end - 1}"
        degree += np.bincount(rows[bits], minlength=size)
        degree += np.bincount(cols[bits], minlength=size)
        j = j_end
    if int(body[-1]) & ((1 << (body.size * 6 - need)) - 1):
        return "nonzero graph6 padding bits"
    if not (degree == set_size).all():
        return f"graph6 graph is not {set_size}-regular"
    if int(degree.sum()) // 2 != size * set_size // 2:
        return "graph6 edge count is not 2^n |S| / 2"
    return None


_CHECKS = {
    "census_sha256": _census_sha256,
    "identities_csv": _identities_csv,
    "families_csv": _families_csv,
    "srg_verdict": _srg_verdict,
    "spectrum": _spectrum,
    "graph6": _graph6,
}


def check_output(job: dict, path: Path) -> str | None:
    """None if the job's output file is right, else why not."""
    if not path.is_file():
        return f"{path.name} was not written"
    try:
        return _CHECKS[job["check"]](job, path)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return f"{path.name} could not be read: {exc!r}"
