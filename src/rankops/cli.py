"""Command-line interface: rank scored or tiered data, verify, enumerate.

Three subcommands:

* ``rank``       read id/score CSV or tiered JSON, emit exact positions
* ``verify``     run the full operator/property verification, JSON report
* ``enumerate``  stream all weak orders on n alternatives, or just count

Exit codes: 0 success (verify: everything as expected), 1 verification
mismatch, 2 malformed input, out-of-range arguments, or input or output
that cannot be read or written (a closed stdin or stdout included), 130
interrupted (Ctrl-C), 141 stdout closed by its reader before the output
was written.  A closed or failed stderr changes no exit code.  ``rank``
reads and writes UTF-8 whatever the locale, and drops a leading
byte-order mark from its input; error lines are UTF-8 too.
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
from itertools import chain, repeat
from operator import itemgetter
from typing import NoReturn, Sequence, TextIO, Union

from .operators import (
    Domain,
    NegativeCoefficient,
    Rational,
    UnknownOperator,
    get_operator,
    parse_exact,
    to_fraction,
)
from .orders import (
    AltId,
    OrderError,
    engine_ground,
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

# A code point that UTF-8 cannot encode: JSON text can escape one alone.
_SURROGATE = re.compile("[\ud800-\udfff]")

# An error line quotes at most this many characters of its message.
_ERROR_CHARS = 200

# Exit code when the reader of stdout leaves early, as ``| head`` does: the
# status a process killed by SIGPIPE reports, 128 + 13.
EXIT_PIPE_CLOSED = 141
# Exit code when the run is interrupted, as by Ctrl-C: the status a process
# killed by SIGINT reports, 128 + 2.
_EXIT_INTERRUPTED = 130


def _parse_scores(text: str, has_header: bool) -> dict[Score, list[str]]:
    r"""Parse ``id,score`` CSV rows, grouping the ids by exact score.

    Lines end at ``\n``, ``\r\n`` or ``\r``, and a quoted field keeps its
    line breaks as written; an error names the line its row starts on.
    Each distinct score text, stripped, is parsed once, on its first row;
    a later row with the same text joins that row's group.  Every row's id
    is checked before its score, and a refused score is reported at the
    first row that has it.
    """
    groups: dict[Score, list[str]] = {}
    by_text: dict[str, list[str]] = {}
    seen: set[str] = set()
    reader = csv.reader(io.StringIO(text, newline=""))
    end = 0  # the line the row before ends on
    try:
        if has_header:
            next(reader, None)
            end = reader.line_num
        for row in reader:
            try:
                ident, raw_score = row
            except ValueError:
                # A blank line is no row; any other number of fields is refused.
                if row and (len(row) > 1 or row[0].strip()):
                    raise ParseError(
                        f"line {end + 1}: expected id,score but got {len(row)} fields"
                    ) from None
                end = reader.line_num
                continue
            if not ident:
                raise ParseError(f"line {end + 1}, column 1: empty id")
            if ident in seen:
                raise DuplicateId(f"line {end + 1}: duplicate id {ident!r}")
            seen.add(ident)
            raw_score = raw_score.strip()
            group = by_text.get(raw_score)
            if group is None:
                try:
                    score = parse_exact(raw_score, "score")
                except ValueError as exc:
                    raise ParseError(f"line {end + 1}, column 2: {exc}") from None
                # Texts such as 0.5 and 1/2 are one score, so they share a group.
                group = by_text[raw_score] = groups.setdefault(score, [])
            group.append(ident)
            end = reader.line_num
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if not groups:
        raise EmptyInput("no data rows in input")
    return groups


# Decimal arithmetic without rounding, over every exponent a score or an epsilon has.
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


def _tiers_from_scores(groups: dict[Score, list[str]], epsilon: Score) -> list[list[str]]:
    """The ids of each score group, in tiers: a higher score is a better
    tier, and the best tier comes first.

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
    return tiers


def _json_int(digits: str) -> int:
    """A JSON integer, read as every number from outside is."""
    try:
        return int(parse_exact(digits, "JSON integer"))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _json_object(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object that names no key twice: with two ``"tiers"``, which
    order is meant would be a guess."""
    payload: dict[str, object] = {}
    for key, value in pairs:
        if key in payload:
            raise ParseError(f"JSON object has the key {key!r} twice")
        payload[key] = value
    return payload


def _parse_tiers_json(text: str) -> list[list[AltId]]:
    """The tiers of a JSON order, best first, once they are known to be one."""
    try:
        payload = json.loads(text, parse_int=_json_int, object_pairs_hook=_json_object)
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, or nesting deeper than the recursion limit.
        raise ParseError(f"invalid JSON: {exc}") from None
    try:
        order = weak_order_from_json(payload)
    except OrderError as exc:
        raise ParseError(str(exc)) from None
    # Output prints every label as text, so 1 and "1" would be one id twice,
    # and as UTF-8, which holds no surrogate code point (a lone \ud800 escape).
    ids: dict[str, AltId] = {}
    for alt in order.sorted_alternatives():
        if isinstance(alt, str) and _SURROGATE.search(alt):
            raise ParseError(f"label {alt!r} is not valid Unicode text")
        first = ids.setdefault(str(alt), alt)
        if first != alt:
            raise ParseError(f"labels {first!r} and {alt!r} both print as id {str(alt)!r}")
    return list(map(list, order.tiers))


def _format_rows(tiers: Sequence[list[AltId]], method: str, output_format: str) -> str:
    """The ids of ``tiers``, best tier first, with their positions under
    ``method``, as CSV or JSON text.  The tier lists become the rows' own
    lists, so they are extended and sorted in place."""
    try:
        operator = get_operator(method)
    except (UnknownOperator, NegativeCoefficient) as exc:
        raise UnknownMethod(str(exc)) from None
    sizes = list(map(len, tiers))
    if operator.domain is Domain.LINEAR_ONLY and len(sizes) < sum(sizes):
        raise InputError(f"method {operator.name!r} needs a linear order, but the input contains ties")
    # Rows go by position, then id.
    buckets: dict[int | Fraction, list[AltId]] = {}
    rule = operator._tier_rule
    if rule is None:
        order = from_tiers(tiers)
        try:
            positions = operator(order)
        except ValueError as exc:  # list-index reads an integer off each id
            raise InputError(f"method {method!r}: {exc}") from None
        for alt, position in positions.items():
            buckets.setdefault(position, []).append(alt)
    else:
        # One value per tier, read off the sizes alone.  An int value hashes,
        # compares and prints as the equal Fraction does.  A tier is its
        # position's bucket, unless a tier before it holds that position.
        for position, tier in zip(rule(sizes), tiers):
            bucket = buckets.setdefault(position, tier)
            if bucket is not tier:
                bucket.extend(tier)
    # Only the distinct positions are sorted.  A bucket of ids sorts as its
    # labels do, by label_key only where Python cannot compare them: a
    # json-tiers bucket that mixes int and str ids.
    ranked = sorted(buckets.items(), key=itemgetter(0))
    for _, alts in ranked:
        try:
            alts.sort()
        except TypeError:
            alts.sort(key=label_key)
    try:
        return _render(operator.name, ranked, output_format)
    except ValueError:  # Python prints no integer longer than its limit
        raise InputError(
            f"method {method!r} gives a position with more digits than Python prints"
        ) from None


def _render(name: str, ranked: list[tuple[int | Fraction, list[AltId]]], output_format: str) -> str:
    """The rows of each position, best first, as CSV or as JSON text."""
    if output_format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "position"])
        writer.writerows(
            chain.from_iterable(zip(alts, repeat(str(position))) for position, alts in ranked)
        )
        return out.getvalue()

    # The bytes of json.dumps(payload, indent=2), one fragment per position:
    # its ids joined by the text between two ids.  A str id is quoted by the
    # function json.dumps quotes it with, an int id printed as a number.
    quote = json.encoder.encode_basestring_ascii
    head = '    {\n      "id": '
    rows = []
    for position, alts in ranked:
        tail = (
            f',\n      "position": {{\n        "numerator": {position.numerator},'
            f'\n        "denominator": {position.denominator}\n      }}\n    }}'
        )
        try:
            ids = list(map(quote, alts))
        except TypeError:  # a json-tiers bucket that holds int ids
            ids = [quote(alt) if isinstance(alt, str) else str(alt) for alt in alts]
        rows.append(head + f"{tail},\n{head}".join(ids) + tail)
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
    tie_epsilon: Rational = 0,
    has_header: bool = False,
) -> str:
    """Pure core of the ``rank`` subcommand: text in, formatted text out.

    ``tie_epsilon`` is read by :func:`parse_exact`: a ``float`` or a
    ``bool`` raises ``TypeError``, and a refused value ``InputError``.
    """
    try:
        epsilon = parse_exact(tie_epsilon, "tie epsilon")
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if output_format not in ("csv", "json"):
        raise InputError(f"unknown output format {output_format!r}")
    if epsilon < 0:
        try:
            shown = to_fraction(epsilon)
        except ValueError:  # a decimal whose fraction is longer than Python prints
            shown = epsilon
        raise InputError(f"tie epsilon must be non-negative, got {shown}")
    if input_format == "csv-scores":
        tiers = _tiers_from_scores(_parse_scores(text, has_header), epsilon)
    elif input_format == "json-tiers":
        tiers = _parse_tiers_json(text)
    else:
        raise InputError(f"unknown input format {input_format!r}")
    return _format_rows(tiers, method, output_format)


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
        # What a buffered stderr still holds can never be written.
        with contextlib.suppress(OSError):  # a stream with no file
            _drop(sys.stderr)


def build_verification_document(max_n: int) -> tuple[dict, bool]:
    """The engine's report and verdict at ``max_n``; the engine loads here,
    on first use, so that ``rank`` never imports it."""
    from .axioms import build_verification_document

    return build_verification_document(max_n)


def _cmd_verify(args: argparse.Namespace, stdout: TextIO | None) -> int:
    # Below three alternatives some expected failures have no counterexample yet.
    if not 3 <= args.max_n <= 7:
        raise InputError(f"--max-n must be between 3 and 7, got {args.max_n}")
    # The output is checked first, so a bad path fails before the engine
    # runs; the report is opened without truncating for that, and emptied
    # only once the document is built, so an interrupted or failed run
    # leaves an earlier report as it was.
    if args.report:
        open(args.report, "a", encoding="utf-8").close()
    else:
        stdout = _stream(stdout, "output")
    document, ok = build_verification_document(args.max_n)
    report = (
        open(args.report, "w", encoding="utf-8", newline="\n")
        if args.report
        else contextlib.nullcontext(stdout)
    )
    with report as handle:
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
        help="group scores within this exact gap, a decimal or p/q (chained; default 0 = exact ties)",
    )
    rank.add_argument(
        "--has-header", action="store_true", help="skip the first CSV row"
    )
    rank.set_defaults(handler=_cmd_rank)

    verify = commands.add_parser(
        "verify", help="check all operators against the expected property matrix"
    )
    verify.add_argument("--max-n", type=int, default=4, help="universe bound (3..7)")
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


def _drop(stream: TextIO) -> None:
    """Point ``stream``'s file at the null device, so that the interpreter's
    own flush at exit cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1/3 for an option; joined to its flag
    # it reads as --tie-epsilon=-1/3 does.
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--tie-epsilon" and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"--tie-epsilon={argv[i]}"]
    if isinstance(sys.stderr, io.TextIOWrapper):
        # A process stderr: its bytes do not depend on the locale either, and
        # text that UTF-8 cannot hold is escaped, as stderr always escapes it.
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
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
        _drop(sys.stdout)
        return EXIT_PIPE_CLOSED
    except KeyboardInterrupt:
        # What stdout still holds is dropped, as after a failed write.
        if sys.stdout is not None:
            with contextlib.suppress(OSError):  # a stream with no file
                _drop(sys.stdout)
        _say("error: interrupted")
        return _EXIT_INTERRUPTED
    except (InputError, OSError) as exc:
        if isinstance(exc, OSError) and sys.stdout is not None:
            # A file or a stream that cannot be read or written.  If it is
            # stdout, what it still holds can never be written.
            try:
                sys.stdout.flush()
            except OSError:
                _drop(sys.stdout)
        # One short line, even where the message quotes an argument or an
        # input as it was given.
        message = " ".join(str(exc).splitlines())
        if len(message) > _ERROR_CHARS:
            message = message[:_ERROR_CHARS] + "..."
        _say(f"error: {message}")
        return 2
