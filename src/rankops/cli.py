"""Command-line interface: rank scored or tiered data, verify, enumerate.

Three subcommands:

* ``rank``       read id/score CSV or tiered JSON, emit exact positions
* ``verify``     run the full operator/property verification, JSON report
* ``enumerate``  stream all weak orders on n alternatives, or just count

Exit codes: 0 success (verify: everything as expected), 1 verification
mismatch, 2 malformed input or out-of-range arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Sequence, TextIO

from .axioms import build_verification_document
from .operators import NegativeCoefficient, NotLinear, UnknownOperator, get_operator
from .orders import (
    AltId,
    OrderError,
    WeakOrder,
    enumerate_weak_orders,
    from_tiers,
    label_key,
    ordered_bell,
    weak_order_from_json,
    weak_order_to_json,
)

__all__ = ["main", "rank_payload", "InputError", "ParseError", "DuplicateId", "UnknownMethod", "EmptyInput"]


class InputError(Exception):
    """Any malformed-input condition; mapped to exit code 2."""


class ParseError(InputError):
    pass


class DuplicateId(InputError):
    pass


class UnknownMethod(InputError):
    pass


class EmptyInput(InputError):
    pass


def _parse_scores(text: str, has_header: bool) -> list[tuple[str, Fraction]]:
    """Parse ``id,score`` CSV rows into exact scores."""
    rows: list[tuple[str, Fraction]] = []
    seen: set[str] = set()
    reader = csv.reader(io.StringIO(text))
    for line_no, row in enumerate(reader, start=1):
        if has_header and line_no == 1:
            continue
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ParseError(f"line {line_no}: expected id,score but got {len(row)} fields")
        ident, raw_score = row[0], row[1].strip()
        if not ident:
            raise ParseError(f"line {line_no}, column 1: empty id")
        if ident in seen:
            raise DuplicateId(f"line {line_no}: duplicate id {ident!r}")
        seen.add(ident)
        try:
            score = Fraction(raw_score)
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                f"line {line_no}, column 2: not an exact decimal: {raw_score!r}"
            ) from None
        rows.append((ident, score))
    if not rows:
        raise EmptyInput("no data rows in input")
    return rows


def _order_from_scores(rows: list[tuple[str, Fraction]], epsilon: Fraction) -> WeakOrder:
    """Group scores into tiers, higher score = better tier.

    With epsilon zero, only exactly equal scores share a tier.  A positive
    epsilon chains transitively: each score joins the tier above it when
    the gap is at most epsilon, which can merge scores farther apart than
    epsilon itself.
    """
    # Tiers are sets and equal scores always share one, so ties need no key.
    ordered = sorted(rows, key=lambda kv: kv[1], reverse=True)
    tiers: list[set[str]] = []
    previous_score: Fraction | None = None
    for ident, score in ordered:
        if previous_score is not None and previous_score - score <= epsilon:
            tiers[-1].add(ident)
        else:
            tiers.append({ident})
        previous_score = score
    return from_tiers(tiers)


def _parse_tiers_json(text: str) -> WeakOrder:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    try:
        order = weak_order_from_json(payload)
    except OrderError as exc:
        raise ParseError(str(exc)) from None
    # Output prints every label as text, so 1 and "1" would be one id twice.
    ids: dict[str, AltId] = {}
    for alt in order.sorted_alternatives():
        first = ids.setdefault(str(alt), alt)
        if first != alt:
            raise ParseError(f"labels {first!r} and {alt!r} both print as id {str(alt)!r}")
    return order


def _format_rows(order: WeakOrder, method: str, output_format: str) -> str:
    try:
        operator = get_operator(method)
    except (UnknownOperator, NegativeCoefficient) as exc:
        raise UnknownMethod(str(exc)) from None
    try:
        positions = operator(order)
    except NotLinear:
        raise InputError(
            f"method {operator.name!r} needs a linear order, but the input contains ties"
        ) from None
    rows = sorted(order.ground, key=lambda alt: (positions[alt], label_key(alt)))

    if output_format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "position"])
        for alt in rows:
            writer.writerow([alt, str(positions[alt])])
        return out.getvalue()

    payload = {
        "method": operator.name,
        "positions": [
            {
                "id": alt,
                "position": {
                    "numerator": positions[alt].numerator,
                    "denominator": positions[alt].denominator,
                },
            }
            for alt in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def rank_payload(
    text: str,
    *,
    method: str,
    input_format: str = "csv-scores",
    output_format: str = "csv",
    tie_epsilon: str | Fraction = 0,
    has_header: bool = False,
) -> str:
    """Pure core of the ``rank`` subcommand: text in, formatted text out."""
    try:
        epsilon = Fraction(tie_epsilon)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"tie epsilon is not an exact decimal: {tie_epsilon!r}") from None
    if epsilon < 0:
        raise InputError(f"tie epsilon must be non-negative, got {epsilon}")
    if input_format == "csv-scores":
        order = _order_from_scores(_parse_scores(text, has_header), epsilon)
    elif input_format == "json-tiers":
        order = _parse_tiers_json(text)
    else:
        raise InputError(f"unknown input format {input_format!r}")
    return _format_rows(order, method, output_format)


def _cmd_rank(args: argparse.Namespace, stdout: TextIO) -> int:
    try:
        if args.file in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8", errors="surrogateescape") as handle:
                text = handle.read()
        # Bytes that are not UTF-8 reach here as lone surrogates, which do not
        # encode, unless stdin's strict decoding already refused them.
        text.encode("utf-8")
    except OSError as exc:
        raise InputError(str(exc)) from None
    except (UnicodeDecodeError, UnicodeEncodeError) as exc:
        newline = "\n" if isinstance(exc.object, str) else b"\n"
        line = exc.object.count(newline, 0, exc.start) + 1
        raise InputError(f"line {line}: input is not valid UTF-8") from None
    stdout.write(
        rank_payload(
            text,
            method=args.method,
            input_format=args.input_format,
            output_format=args.output_format,
            tie_epsilon=args.tie_epsilon,
            has_header=args.has_header,
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace, stdout: TextIO) -> int:
    # Below three alternatives some expected failures have no counterexample yet.
    if not 3 <= args.max_n <= 6:
        raise InputError(f"--max-n must be between 3 and 6, got {args.max_n}")
    # Open the report first, so a bad path fails before the engine runs.
    try:
        report = (
            open(args.report, "w", encoding="utf-8", newline="\n")
            if args.report
            else contextlib.nullcontext(stdout)
        )
    except OSError as exc:
        raise InputError(str(exc)) from None
    with report as handle:
        document, ok = build_verification_document(args.max_n)
        handle.write(json.dumps(document, indent=2) + "\n")
    print(
        f"verification at max n = {args.max_n}: {'all as expected' if ok else 'MISMATCH'}",
        file=sys.stderr,
    )
    return 0 if ok else 1


def _cmd_enumerate(args: argparse.Namespace, stdout: TextIO) -> int:
    limit = 8 if args.count_only else 5
    if not 1 <= args.n <= limit:
        kind = "counting" if args.count_only else "listing"
        raise InputError(f"n must be between 1 and {limit} for {kind}, got {args.n}")
    if args.count_only:
        stdout.write(f"{ordered_bell(args.n)}\n")
        return 0
    ground = tuple(f"x{i}" for i in range(1, args.n + 1))
    for order in enumerate_weak_orders(ground):
        stdout.write(json.dumps(weak_order_to_json(order), separators=(",", ":")) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankops",
        description="Rank data with tie-aware position operators and verify their properties.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    rank = commands.add_parser("rank", help="assign positions to scored or tiered data")
    rank.add_argument("file", nargs="?", default=None, help="input path (default: stdin)")
    rank.add_argument("--method", required=True, help="operator name, e.g. dense or fractional")
    rank.add_argument(
        "--input-format",
        choices=["csv-scores", "json-tiers"],
        default="csv-scores",
    )
    rank.add_argument("--output-format", choices=["csv", "json"], default="csv")
    rank.add_argument(
        "--tie-epsilon",
        default="0",
        help="group scores within this exact decimal gap (chained; default 0 = exact ties)",
    )
    rank.add_argument(
        "--has-header", action="store_true", help="skip the first CSV row"
    )
    rank.set_defaults(handler=_cmd_rank)

    verify = commands.add_parser(
        "verify", help="check all operators against the expected property matrix"
    )
    verify.add_argument("--max-n", type=int, default=4, help="universe bound (3..6)")
    verify.add_argument("--report", default=None, help="write the JSON report here")
    verify.set_defaults(handler=_cmd_verify)

    enumerate_cmd = commands.add_parser(
        "enumerate", help="stream all weak orders on n alternatives"
    )
    enumerate_cmd.add_argument("n", type=int)
    enumerate_cmd.add_argument(
        "--count-only", action="store_true", help="print only how many orders exist"
    )
    enumerate_cmd.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, sys.stdout)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
