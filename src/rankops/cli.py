"""Command-line interface: rank scored or tiered data, verify, enumerate.

Three subcommands:

* ``rank``       read id/score CSV or tiered JSON, emit exact positions
* ``verify``     run the full operator/property verification, JSON report
* ``enumerate``  stream all weak orders on n alternatives, or just count

Exit codes: 0 success (verify: everything as expected), 1 verification
mismatch, 2 malformed input, out-of-range arguments, or input or output
that cannot be read or written (a closed stdin or stdout included), 141
stdout closed by its reader before the output was written.  A closed or
failed stderr changes no exit code.  ``rank`` reads and writes UTF-8
whatever the locale, and drops a leading byte-order mark from its input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING, Context, Decimal
from fractions import Fraction
from typing import Iterator, NoReturn, Sequence, TextIO, Union

from .axioms import build_verification_document, engine_ground
from .operators import (
    NegativeCoefficient,
    NotLinear,
    UnknownOperator,
    _digit_limit,
    get_operator,
    parse_exact,
    to_fraction,
)
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


# A score: a Decimal, or a Fraction for the p/q form.  The two compare and
# hash exactly with each other, so equal scores are one key either way.
Score = Union[Decimal, Fraction]

# The line breaks the csv module reads: \r\n, \n or a lone \r.
_LINE_BREAK = re.compile(rb"\r\n?|\n")

# An error line quotes at most this many characters of its message.
_ERROR_CHARS = 200

# A run of digits, as int() counts them: the underscores between them do not.
_DIGIT_RUN = re.compile(r"[0-9_]+")

# Exit code when the reader of stdout leaves early, as ``| head`` does: the
# status a process killed by SIGPIPE reports, 128 + 13.
EXIT_PIPE_CLOSED = 141


def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    r"""The rows of CSV text, each with the line it starts on.

    Lines end at ``\n``, ``\r\n`` or ``\r``, and a quoted field keeps its
    line breaks as written.  A row the csv module refuses is a ParseError.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        start = 1
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _refusal(text: str, name: str, otherwise: str) -> str:
    """Why :func:`parse_exact` refused ``text``, which the message calls ``name``.

    A run of more digits than Python reads into an integer is named as the
    reason; any other refusal is the message ``otherwise``.
    """
    limit = _digit_limit()
    if any(len(run.replace("_", "")) > limit for run in _DIGIT_RUN.findall(text)):
        return f"{name} has more digits than Python prints ({limit}): {text!r}"
    return otherwise


def _parse_scores(text: str, has_header: bool) -> dict[Score, list[str]]:
    """Parse ``id,score`` CSV rows, grouping the ids by exact score."""
    groups: dict[Score, list[str]] = {}
    seen: set[str] = set()
    rows = _csv_rows(text)
    if has_header:
        next(rows, None)
    for line_no, row in rows:
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
            score = parse_exact(raw_score)
        except (ValueError, ZeroDivisionError):
            where = f"line {line_no}, column 2"
            raise ParseError(
                _refusal(raw_score, f"{where}: score", f"{where}: not an exact decimal: {raw_score!r}")
            ) from None
        groups.setdefault(score, []).append(ident)
    if not groups:
        raise EmptyInput("no data rows in input")
    return groups


# Decimal arithmetic without rounding, over the exponents parse_exact allows.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _within(high: Score, low: Score, epsilon: Score) -> bool:
    """Whether ``high - low <= epsilon``, exactly, for ``high > low``.

    Scaled by the common denominator of the fractions among them, all three
    are exact decimals.  The gap rounded up to as many digits as epsilon
    has is the least number of that many digits not below the gap, so it
    is at most epsilon exactly when the gap is.  No step builds
    10**exponent, so the time is bounded by the digits written.
    """
    values = (high, low, epsilon)
    scale = math.lcm(*(v.denominator for v in values if isinstance(v, Fraction)))
    high, low, epsilon = (
        Decimal(v.numerator * (scale // v.denominator))
        if isinstance(v, Fraction)
        else _EXACT.multiply(v, scale)
        for v in values
    )
    up = Context(
        prec=len(epsilon.as_tuple().digits), rounding=ROUND_CEILING, Emax=MAX_EMAX, Emin=MIN_EMIN
    )
    return up.subtract(high, low) <= epsilon


def _order_from_scores(groups: dict[Score, list[str]], epsilon: Score) -> WeakOrder:
    """Group scores into tiers, higher score = better tier.

    With epsilon zero, only exactly equal scores share a tier.  A positive
    epsilon chains transitively: each score joins the tier above it when
    the gap is at most epsilon, which can merge scores farther apart than
    epsilon itself.
    """
    tiers: list[list[str]] = []
    previous: Score | None = None
    # Only the distinct scores are sorted, and only adjacent ones compared.
    for score in sorted(groups, reverse=True):
        if previous is not None and epsilon and _within(previous, score, epsilon):
            tiers[-1].extend(groups[score])
        else:
            tiers.append(groups[score])
        previous = score
    return from_tiers(tiers)


def _json_int(digits: str) -> int:
    """A JSON integer, refused before ``int`` when Python could not print it."""
    limit = _digit_limit()
    if len(digits.lstrip("-")) > limit:
        raise ParseError(f"an integer has more digits than Python prints ({limit})")
    return int(digits)


def _parse_tiers_json(text: str) -> WeakOrder:
    try:
        payload = json.loads(text, parse_int=_json_int)
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, or nesting deeper than the recursion limit.
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
    except ValueError as exc:  # list-index reads an integer off each id
        raise InputError(f"method {method!r}: {exc}") from None
    # Rows go by position, then id.  Alternatives are bucketed by position,
    # so only the distinct positions are sorted as fractions.
    buckets: dict[Fraction, list[AltId]] = {}
    for tier in order.tiers:
        for alt in tier:
            buckets.setdefault(positions[alt], []).append(alt)
    ranked = [(position, sorted(buckets[position], key=label_key)) for position in sorted(buckets)]
    try:
        return _render(operator.name, ranked, output_format)
    except ValueError:  # Python prints no integer longer than its limit
        raise InputError(
            f"method {method!r} gives a position with more digits than Python prints"
        ) from None


def _render(name: str, ranked: list[tuple[Fraction, list[AltId]]], output_format: str) -> str:
    """The rows of each position, best first, as CSV or as JSON text."""
    if output_format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "position"])
        for position, alts in ranked:
            text = str(position)
            writer.writerows([alt, text] for alt in alts)
        return out.getvalue()

    # The bytes of json.dumps(payload, indent=2), one fragment per position;
    # json.dumps writes each id, so its escaping is the same.
    rows = []
    for position, alts in ranked:
        tail = (
            f',\n      "position": {{\n        "numerator": {position.numerator},'
            f'\n        "denominator": {position.denominator}\n      }}\n    }}'
        )
        rows.extend(f'    {{\n      "id": {json.dumps(alt)}{tail}' for alt in alts)
    return (
        f'{{\n  "method": {json.dumps(name)},\n  "positions": [\n'
        + ",\n".join(rows)
        + "\n  ]\n}\n"
    )


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
    if output_format not in ("csv", "json"):
        raise InputError(f"unknown output format {output_format!r}")
    try:
        epsilon = parse_exact(str(tie_epsilon))
    except (ValueError, ZeroDivisionError):
        raise InputError(
            _refusal(str(tie_epsilon), "tie epsilon", f"tie epsilon is not an exact decimal: {tie_epsilon!r}")
        ) from None
    if epsilon < 0:
        try:
            shown = str(to_fraction(epsilon))
        except ValueError:  # a fraction longer than Python prints
            shown = repr(tie_epsilon)
        raise InputError(f"tie epsilon must be non-negative, got {shown}")
    if input_format == "csv-scores":
        order = _order_from_scores(_parse_scores(text, has_header), epsilon)
    elif input_format == "json-tiers":
        order = _parse_tiers_json(text)
    else:
        raise InputError(f"unknown input format {input_format!r}")
    return _format_rows(order, method, output_format)


def _stream(stream: TextIO | None, name: str) -> TextIO:
    """A standard stream the command needs; Python sets it to None when closed."""
    if stream is None:
        raise InputError(f"standard {name} is closed")
    return stream


def _cmd_rank(args: argparse.Namespace, stdout: TextIO | None) -> int:
    stdout = _stream(stdout, "output")
    # Bytes from either source, untranslated (the csv module reads the line
    # breaks), decoded once whatever the locale.
    if args.file in (None, "-"):
        data = _stream(sys.stdin, "input").buffer.read()
    else:
        with open(args.file, "rb") as handle:
            data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_LINE_BREAK.findall(data[: exc.start])) + 1
        raise InputError(f"line {line}: input is not valid UTF-8") from None
    stdout.write(
        rank_payload(
            # A byte-order mark tells the encoding; it is not part of the first id.
            text.removeprefix("\ufeff"),
            method=args.method,
            input_format=args.input_format,
            output_format=args.output_format,
            tie_epsilon=args.tie_epsilon,
            has_header=args.has_header,
        )
    )
    return 0


def _say(line: str) -> None:
    """Write one line to stderr.  A closed or failed stderr loses the line,
    never the exit code, which tells the outcome on its own."""
    if sys.stderr is None:  # print would write to stdout instead
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _cmd_verify(args: argparse.Namespace, stdout: TextIO | None) -> int:
    # Below three alternatives some expected failures have no counterexample yet.
    if not 3 <= args.max_n <= 6:
        raise InputError(f"--max-n must be between 3 and 6, got {args.max_n}")
    # Open the report first, so a bad path fails before the engine runs.
    report = (
        open(args.report, "w", encoding="utf-8", newline="\n")
        if args.report
        else contextlib.nullcontext(_stream(stdout, "output"))
    )
    with report as handle:
        document, ok = build_verification_document(args.max_n)
        handle.write(json.dumps(document, indent=2) + "\n")
    _say(f"verification at max n = {args.max_n}: {'all as expected' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_enumerate(args: argparse.Namespace, stdout: TextIO | None) -> int:
    limit = 8 if args.count_only else 5
    if not 1 <= args.n <= limit:
        kind = "counting" if args.count_only else "listing"
        raise InputError(f"n must be between 1 and {limit} for {kind}, got {args.n}")
    stdout = _stream(stdout, "output")
    if args.count_only:
        stdout.write(f"{ordered_bell(args.n)}\n")
        return 0
    for order in enumerate_weak_orders(engine_ground(args.n)):
        stdout.write(json.dumps(weak_order_to_json(order), separators=(",", ":")) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors reach main as one line."""

    def error(self, message: str) -> NoReturn:
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _drop_stdout() -> None:
    """Point stdout at the null device, so that the interpreter's own flush
    at exit cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1/3 for an option; joined to its flag
    # it reads as --tie-epsilon=-1/3 does.
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--tie-epsilon" and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"--tie-epsilon={argv[i]}"]
    try:
        args = parser.parse_args(argv)
        if isinstance(sys.stdout, io.TextIOWrapper):
            # A process stdout: its bytes do not depend on the locale.
            sys.stdout.reconfigure(encoding="utf-8")
        code = args.handler(args, sys.stdout)
        # Flushed here, so that a failed stdout or a reader gone early is met
        # inside this try.
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads the rest.
        _drop_stdout()
        return EXIT_PIPE_CLOSED
    except (InputError, OSError) as exc:
        if isinstance(exc, OSError) and sys.stdout is not None:
            # A file or a stream that cannot be read or written.  If it is
            # stdout, what it still holds can never be written.
            try:
                sys.stdout.flush()
            except OSError:
                _drop_stdout()
        # One short line, even where the message quotes an argument or an
        # input as it was given.
        message = " ".join(str(exc).splitlines())
        if len(message) > _ERROR_CHARS:
            message = message[:_ERROR_CHARS] + "..."
        _say(f"error: {message}")
        return 2
