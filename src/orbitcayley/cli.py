"""Command-line front end: spectra, SRG checks, census sweeps, identity reports, graph6 export.

Exit codes: 0 all requested verifications passed, 1 a mathematical
verification failed, 2 usage or configuration error.

Each command returns its exit code and its output as chunks of bytes,
which ``main`` writes.  stdout is all-or-nothing: nothing is written
until every chunk is made.  --out (relative to ORBITCAYLEY_OUT_DIR when
that is set) is written to a temporary file beside the target and
renamed over it at the end.  census writes into that file one dimension
at a time, each dimension's bytes made by ``census.census_bytes`` from
the verdict columns, and export one group of graph6 rows at a time, so a
killed process may leave a .NAME.<hex>.tmp file but never a partial NAME.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache
from itertools import chain
from pathlib import Path
from typing import Iterable

from .census import (
    CENSUS_CSV_COLUMNS,
    CENSUS_DEFAULT_EXPLICIT_CAP,
    CENSUS_FORMATS,
    census_bytes,
    check_census_request,
)
from .core import ConsistencyError, OrbitIndexSet
from .graph6 import export_graph6
from .identities import verify_all
from .spectrum import distinct, full_spectrum, wht_spectrum
from .srg import FAMILIES_CHECK_CAP, certify, emit_table1

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

OUT_DIR_ENV = "ORBITCAYLEY_OUT_DIR"

FAMILY_CSV_COLUMNS = ["graph", "n_vertices", "r", "lambda", "mu", "verified"]
IDENTITY_CSV_COLUMNS = ["id", "k", "m", "lhs", "rhs", "pass"]


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _write_atomic(out: Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to a temporary file beside out, then rename it over out.

    The chunks are made as they are taken.  A failure in making or in
    writing one removes the temporary file, so out is either left as it
    was or holds all of the chunks, never a prefix.
    """
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write(out: Path | None, chunks: Iterable[bytes]) -> None:
    """Write the chunks to out, or to stdout when out is None.

    stdout gets nothing unless every chunk was made, and then the chunks
    one by one, never joined into a second copy.
    """
    if out is not None:
        _write_atomic(out, chunks)
        return
    made = list(chunks)
    for chunk in made:
        sys.stdout.buffer.write(chunk)
    sys.stdout.buffer.flush()


def _decimal(text: str) -> int:
    """A non-negative integer written in ASCII digits only.

    int() alone would also take '+4', ' 4', '1_0' and non-ASCII digits.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII decimal digits, got {text!r}")
    return int(text)


def _parse_n_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = (_decimal(part) for part in text.split("..", 1))
        if lo > hi:
            raise ValueError(f"bad n range {lo}..{hi}")
        return lo, hi
    value = _decimal(text)
    return value, value


def _csv(rows: Iterable[list[str]]) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def _cmd_spectrum(args: argparse.Namespace) -> tuple[int, list[bytes]]:
    s = OrbitIndexSet.parse(args.set)
    # the oracle first: its cap is the lower one, so a request over it does no other work
    oracle = wht_spectrum(s) if args.check_oracle else None
    spec = full_spectrum(s)
    if oracle is not None and oracle != spec:
        raise ConsistencyError(
            f"transform oracle disagrees on {s.format()}: "
            f"closed form {spec.values}, transform {oracle.values}"
        )
    text = distinct(spec).to_csv() if args.distinct else json.dumps(spec.to_json_dict()) + "\n"
    return EXIT_OK, [text.encode()]


def _cmd_srg_check(args: argparse.Namespace) -> tuple[int, list[bytes]]:
    s = OrbitIndexSet.parse(args.set)
    verdict, _ = certify(s, s.n if args.explicit else 0)
    payload = {"set": s.format()}
    payload.update(verdict.to_json_dict())
    return EXIT_OK, [(json.dumps(payload) + "\n").encode()]


def _cmd_census(args: argparse.Namespace) -> tuple[int, Iterable[bytes]]:
    n_start, n_end = _parse_n_range(args.n)
    # both ends, so a range running past the cap fails before the sweep starts
    check_census_request(n_start, args.explicit_cap)
    check_census_request(n_end, args.explicit_cap)

    def chunks() -> Iterable[bytes]:
        if args.format == "csv":
            yield _csv([CENSUS_CSV_COLUMNS])
        for n in range(n_start, n_end + 1):
            yield census_bytes(n, args.format, args.explicit_cap)

    return EXIT_OK, chunks()


def _cmd_families(args: argparse.Namespace) -> tuple[int, list[bytes]]:
    rows = emit_table1(args.m_max, check_cap=args.check_cap)
    table = [[str(row[col]) for col in FAMILY_CSV_COLUMNS] for row in rows]
    code = EXIT_VERIFICATION_FAILED if any(row["verified"] == "no" for row in rows) else EXIT_OK
    return code, [_csv([FAMILY_CSV_COLUMNS, *table])]


def _cmd_identities(args: argparse.Namespace) -> tuple[int, list[bytes]]:
    report = verify_all(args.max_m)
    rows = [
        [check.identity_id, str(check.k), str(check.m), str(check.lhs), str(check.rhs),
         str(check.passed).lower()]
        for check in report
    ]
    code = EXIT_OK if all(check.passed for check in report) else EXIT_VERIFICATION_FAILED
    return code, [_csv([IDENTITY_CSV_COLUMNS, *rows])]


def _cmd_export(args: argparse.Namespace) -> tuple[int, Iterable[bytes]]:
    s = OrbitIndexSet.parse(args.set)
    return EXIT_OK, chain(export_graph6(s), [b"\n"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcayley",
        description="Exact spectra and strong-regularity checks for orbit Cayley graphs over Z2^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form spectrum of one index set")
    p.add_argument("--set", required=True, help="index set, e.g. 'n=4;I=1,4'")
    p.add_argument("--distinct", action="store_true", help="emit distinct values as CSV")
    p.add_argument("--check-oracle", action="store_true",
                   help="cross-check against the transform oracle")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("srg-check", help="strong-regularity verdict for one index set")
    p.add_argument("--set", required=True)
    p.add_argument("--explicit", action="store_true", help="also run the dense brute force")
    p.set_defaults(func=_cmd_srg_check)

    p = sub.add_parser("census", help="sweep all index sets for a range of dimensions")
    p.add_argument("--n", required=True, help="dimension or range, e.g. 6 or 4..10")
    p.add_argument("--explicit-cap", type=_decimal, default=CENSUS_DEFAULT_EXPLICIT_CAP)
    p.add_argument("--format", choices=CENSUS_FORMATS, default="jsonl")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("families", help="predicted family parameters with verification")
    p.add_argument("--m-max", type=_decimal, required=True)
    p.add_argument("--check-cap", type=_decimal, default=FAMILIES_CHECK_CAP,
                   help="verify rows whose dimension is at most this")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("identities", help="verify every binomial identity up to a bound")
    p.add_argument("--max-m", type=_decimal, required=True)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("export", help="graph6 encoding of one index set")
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_export)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, chunks = args.func(args)
        _write(_resolve_out(args.out), chunks)
        return code
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
