"""Command-line front end: spectra, SRG checks, census sweeps, identity reports, graph6 export.

Exit codes: 0 all requested verifications passed, 1 a mathematical
verification failed, 2 usage or configuration error.

Each command checks its arguments and its caps first, then returns a
function that writes its output to one binary file object and returns the
exit code.  So a request over a cap exits 2 before any output is made or
the output file is opened, and a failing row is still written, with exit
code 1.

stdout is all-or-nothing: the output is written into one buffer, copied
to stdout once the whole of it is made.  --out (relative to
ORBITCAYLEY_OUT_DIR when that is set) is written to a temporary file
beside the target and renamed over it at the end, so a killed process may
leave a .NAME.<hex>.tmp file but never a partial NAME.  Each piece is
written as it is made and dropped before the next one is made:

- census: one dimension, made by ``census.census_bytes`` from the verdict
  columns;
- families and identities: one CSV row, evaluated (and for families
  certified) as it is taken, through the file's buffer;
- export: the size header, then one block of 64 graph6 rows.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

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

# what a command returns: writes its output to the file and returns the exit code
Writer = Callable[[BinaryIO], int]


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _write_atomic(out: Path, write: Writer) -> int:
    """Write to a temporary file beside out, then rename it over out; return the exit code.

    A failure in making or in writing the output removes the temporary
    file, so out is either left as it was or holds the whole output, never
    a prefix.
    """
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            code = write(fh)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return code


def _write(out: Path | None, write: Writer) -> int:
    """Write the output to out, or to stdout when out is None; return the exit code.

    stdout gets nothing unless the whole output was made, and then the one
    buffer it was written into.
    """
    if out is not None:
        return _write_atomic(out, write)
    buf = io.BytesIO()
    code = write(buf)
    sys.stdout.buffer.write(buf.getbuffer())
    sys.stdout.buffer.flush()
    return code


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


def _csv_report(columns: list[str], rows: Iterable[tuple[list[str], bool]]) -> Writer:
    """The CSV header, then each (fields, passed) row, written as it is taken.

    Exits 1 when any row did not pass; such a row is still written.
    """

    def write(fh: BinaryIO) -> int:
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        try:
            writer = csv.writer(text, lineterminator="\n")
            writer.writerow(columns)
            failed = False
            for fields, passed in rows:
                writer.writerow(fields)
                failed = failed or not passed
        finally:
            # flushes, and leaves fh open for the caller
            text.detach()
        return EXIT_VERIFICATION_FAILED if failed else EXIT_OK

    return write


def _cmd_spectrum(args: argparse.Namespace) -> Writer:
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

    def write(fh: BinaryIO) -> int:
        fh.write(text.encode())
        return EXIT_OK

    return write


def _cmd_srg_check(args: argparse.Namespace) -> Writer:
    s = OrbitIndexSet.parse(args.set)
    verdict, _ = certify(s, s.n if args.explicit else 0)
    payload = {"set": s.format()}
    payload.update(verdict.to_json_dict())

    def write(fh: BinaryIO) -> int:
        fh.write((json.dumps(payload) + "\n").encode())
        return EXIT_OK

    return write


def _cmd_census(args: argparse.Namespace) -> Writer:
    n_start, n_end = _parse_n_range(args.n)
    # both ends, so a range running past the cap fails before the sweep starts
    check_census_request(n_start, args.explicit_cap)
    check_census_request(n_end, args.explicit_cap)

    def write(fh: BinaryIO) -> int:
        if args.format == "csv":
            fh.write((",".join(CENSUS_CSV_COLUMNS) + "\n").encode())
        for n in range(n_start, n_end + 1):
            # written as made, never bound to a name, so one dimension is held at a time
            fh.write(census_bytes(n, args.format, args.explicit_cap))
        return EXIT_OK

    return write


def _cmd_families(args: argparse.Namespace) -> Writer:
    rows = emit_table1(args.m_max, check_cap=args.check_cap)
    return _csv_report(FAMILY_CSV_COLUMNS, (
        ([str(row[col]) for col in FAMILY_CSV_COLUMNS], row["verified"] != "no") for row in rows
    ))


def _cmd_identities(args: argparse.Namespace) -> Writer:
    checks = verify_all(args.max_m)
    return _csv_report(IDENTITY_CSV_COLUMNS, (
        ([check.identity_id, str(check.k), str(check.m), str(check.lhs), str(check.rhs),
          str(check.passed).lower()], check.passed)
        for check in checks
    ))


def _cmd_export(args: argparse.Namespace) -> Writer:
    chunks = export_graph6(OrbitIndexSet.parse(args.set))

    def write(fh: BinaryIO) -> int:
        # writelines drops each chunk before it takes the next
        fh.writelines(chunks)
        fh.write(b"\n")
        return EXIT_OK

    return write


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built once; ``parse_args`` leaves it unchanged."""
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _write(_resolve_out(args.out), args.func(args))
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
