"""The ``rank`` data path: exact decimal scores, bounded parsing, and a
differential test against the earlier all-``Fraction`` implementation."""

from __future__ import annotations

import csv
import dataclasses
import importlib.util
import io
import itertools
import json
import re
import subprocess
import sys
import time
import unicodedata
from collections import Counter
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
import support
from hypothesis import given, settings, strategies as st

from rankops import OPERATOR_NAMES, REGISTRY, WeakOrder, cli, dense, from_tiers, label_key, weak_order_to_json
from rankops.cli import (
    EXIT_PIPE_CLOSED,
    DuplicateId,
    EmptyInput,
    InputError,
    ParseError,
    UnknownMethod,
    main,
    rank_payload,
)
from rankops.operators import (
    NegativeCoefficient,
    NotLinear,
    PositionAssignment,
    UnknownOperator,
    get_operator,
    parse_exact,
)

_spec = importlib.util.spec_from_file_location("bench_inputs", support.REPO / "bench" / "inputs.py")
bench_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_inputs)


# ----- the reference: rank's parse, tier and format steps on Fractions -------


def _reference_parse_scores(text: str, has_header: bool) -> list[tuple[str, Fraction]]:
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
                f"line {line_no}, column 2: score is not an exact number: {raw_score!r}"
            ) from None
        rows.append((ident, score))
    if not rows:
        raise EmptyInput("no data rows in input")
    return rows


def _reference_order_from_scores(rows: list[tuple[str, Fraction]], epsilon: Fraction) -> WeakOrder:
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


def _reference_format_rows(order: WeakOrder, method: str, output_format: str) -> str:
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


def _reference(text: str, method: str, output_format: str, epsilon: str, has_header: bool) -> str:
    rows = _reference_parse_scores(text, has_header)
    order = _reference_order_from_scores(rows, Fraction(epsilon))
    return _reference_format_rows(order, method, output_format)


def _outcome(run) -> tuple[str, object]:
    try:
        return "ok", run()
    except InputError as exc:
        return "error", type(exc)


# ----- the differential test -------------------------------------------------

METHODS = (*OPERATOR_NAMES, "affine:a=0/1,b=3/2", "affine:a=1/3,b=2")
# Gaps of one to five units of 10**-SCALE chain, and some epsilons are p/q.
EPSILONS = ("0", "0.001", "0.002", "0.0025", "5e-3", "1/300", "0")
BAD_SCORES = ("nan", "inf", "Infinity", "sNaN", "0x10", "", "1__0", "_1", "1.d", "1/0", "x")

# Besides the csv module's own specials, characters that JSON escapes (a
# backslash, a tab, U+2028) or writes as a surrogate pair (U+1F600).
ids = st.text(alphabet="ab,\"é 1\\\t\u2028\U0001f600", min_size=1, max_size=3)


@st.composite
def score_texts(draw) -> str:
    # Hypothesis favours the ends of a range, so the rare kinds sit inside it.
    kind = draw(st.integers(0, 39))
    if kind == 17:
        return draw(st.sampled_from(BAD_SCORES))
    if kind in (3, 11, 23, 31):
        return f"{draw(st.integers(-40, 40))}/{draw(st.integers(1, 12))}"
    # Small integers make exact ties and chained gaps frequent.
    return bench_inputs.render_score(draw(st.integers(-12, 12)), draw(st.integers(0, 2)))


@st.composite
def csv_texts(draw) -> tuple[str, bool]:
    idents = draw(st.lists(ids, unique=True, max_size=14))
    if idents and draw(st.integers(0, 30)) == 13:
        idents.append(idents[0])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    for ident in idents:
        extra = ["9"] if draw(st.integers(0, 60)) == 29 else []
        writer.writerow([ident, draw(score_texts()), *extra])
    has_header = draw(st.booleans())
    return ("id,score\n" if has_header else "") + out.getvalue(), has_header


@settings(max_examples=400, deadline=None)
@given(
    csv_texts(),
    st.sampled_from(METHODS),
    st.sampled_from(["csv", "json"]),
    st.sampled_from(EPSILONS),
)
def test_rank_matches_the_fraction_reference(data, method, output_format, epsilon):
    text, has_header = data
    expected = _outcome(lambda: _reference(text, method, output_format, epsilon, has_header))
    actual = _outcome(
        lambda: rank_payload(
            text,
            method=method,
            output_format=output_format,
            tie_epsilon=epsilon,
            has_header=has_header,
        )
    )
    assert actual == expected


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_rank_matches_the_reference_on_bench_inputs(method, output_format):
    for text, epsilon in (
        (bench_inputs.ties_csv(1, rows=600, count=60), bench_inputs.TIES_EPSILON),
        (bench_inputs.ties_csv(2, rows=300, count=30), "0"),
        (bench_inputs.distinct_csv(1, rows=300), "0"),
    ):
        expected = _outcome(lambda: _reference(text, method, output_format, epsilon, False))
        actual = _outcome(
            lambda: rank_payload(
                text, method=method, output_format=output_format, tie_epsilon=epsilon
            )
        )
        assert actual == expected


# Labels of a json-tiers order: all ints, all strs over the ids' alphabet, or
# both mixed; no two print alike (1 and "1" are refused as one id twice).
LABELS = (st.integers(-3, 12), ids, st.one_of(st.integers(-3, 12), ids))


@st.composite
def json_tier_orders(draw) -> WeakOrder:
    label = draw(st.sampled_from(LABELS))
    ground = draw(st.lists(label, min_size=1, max_size=12, unique_by=str))
    tier_of = draw(st.lists(st.integers(0, 4), min_size=len(ground), max_size=len(ground)))
    tiers = [[alt for alt, t in zip(ground, tier_of) if t == k] for k in range(5)]
    return from_tiers([tier for tier in tiers if tier])


@settings(max_examples=300, deadline=None)
@given(json_tier_orders(), st.sampled_from(METHODS), st.sampled_from(["csv", "json"]))
def test_json_tiers_match_the_label_key_reference(order, method, output_format):
    text = json.dumps(weak_order_to_json(order))
    expected = _outcome(lambda: _reference_format_rows(order, method, output_format))
    actual = _outcome(
        lambda: rank_payload(
            text, method=method, input_format="json-tiers", output_format=output_format
        )
    )
    assert actual == expected


# ----- the per-tier path against the per-alternative path ---------------------

# Every method that rank evaluates by its tier rule.
MARKED_METHODS = (
    *(name for name, op in REGISTRY.items() if op._tier_rule is not None),
    "affine:a=0/1,b=3/2",
    "affine:a=1/3,b=2",
)


def _both_paths(run) -> tuple[tuple[object, str], tuple[object, str]]:
    """What ``run`` returns or the error it raises, with the method's tier
    rule and again with the method unmarked, so that every position comes
    from ``op(from_tiers(...))``."""

    def outcome() -> tuple[object, str]:
        try:
            return "ok", run()
        except InputError as exc:
            return type(exc), str(exc)

    per_tier = outcome()
    with mock.patch.object(cli, "get_operator", lambda name: dataclasses.replace(get_operator(name))):
        return per_tier, outcome()


@settings(max_examples=300, deadline=None)
@given(
    csv_texts(),
    st.sampled_from(MARKED_METHODS),
    st.sampled_from(["csv", "json"]),
    st.sampled_from(EPSILONS),
)
def test_tier_rules_rank_as_the_per_alternative_path(data, method, output_format, epsilon):
    text, has_header = data
    per_tier, per_alternative = _both_paths(
        lambda: rank_payload(
            text, method=method, output_format=output_format, tie_epsilon=epsilon, has_header=has_header
        )
    )
    assert per_tier == per_alternative


@settings(max_examples=200, deadline=None)
@given(json_tier_orders(), st.sampled_from(MARKED_METHODS), st.sampled_from(["csv", "json"]))
def test_tier_rules_rank_json_tiers_as_the_per_alternative_path(order, method, output_format):
    text = json.dumps(weak_order_to_json(order))
    per_tier, per_alternative = _both_paths(
        lambda: rank_payload(text, method=method, input_format="json-tiers", output_format=output_format)
    )
    assert per_tier == per_alternative


# ----- score syntax ----------------------------------------------------------


@pytest.mark.parametrize("text", ["1_000", "+.5", "5.", "-0", "1E-3", "15e-1", "1/3", " 7 ", "-2/6"])
def test_scores_keep_their_fraction_values(text):
    assert parse_exact(text) == Fraction(text)


@pytest.mark.parametrize(
    "text",
    ["1" * 4300, "1" * 4301, "-0." + "1_2" * 2150, "5e-" + "0" * 4301, "١" * 4301],
    ids=["4300-digits", "4301-digits", "long-fraction-part", "long-exponent", "arabic-indic"],
)
def test_long_digit_runs_are_refused_as_fraction_refuses_them(text):
    try:
        expected = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError) as refused:
            parse_exact(text)
        # The refusal names the limit, not the interpreter's own advice.
        assert str(refused.value).startswith(f"value has more digits than Python prints ({sys.get_int_max_str_digits()}): ")
    else:
        assert parse_exact(text) == expected


@pytest.mark.parametrize("text", ["nan", "inf", "Infinity", "-Infinity", "sNaN", "0x10", ""])
def test_non_finite_and_foreign_scores_exit_2(text, tmp_path, capsys):
    path = tmp_path / "scores.csv"
    path.write_text(f"a,1\nb,{text}\n", encoding="utf-8")
    assert main(["rank", "--method", "dense", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line 2, column 2: score is not an exact number: {text!r}\n"


@given(
    # Exponents of at most three digits keep Fraction itself fast.
    st.text(alphabet="0123456789_.eE+-/ ", max_size=12).filter(
        lambda t: not re.search(r"[eE][-+]?[\d_]{4}", t)
    )
)
def test_parse_exact_accepts_what_fraction_accepts(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_exact(text)
    else:
        assert parse_exact(text) == expected


def _oracle_texts() -> Iterator[str]:
    """Every ASCII text of at most four characters over the characters of a
    number, nan and inf, and each Unicode digit and space alone, after 1,
    after 1. and after 1e."""
    alphabet = "0123456789.eE+-_/naif "
    for length in range(5):
        for chars in itertools.product(alphabet, repeat=length):
            yield "".join(chars)
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        if unicodedata.category(char) == "Nd" or char.isspace():
            yield from (char, "1" + char, "1." + char, "1e" + char)


def test_parse_exact_reads_text_as_fraction_does():
    """The oracle is ``Fraction(text)`` itself.  Where it accepts, the value
    is equal, kept as a Decimal unless written p/q; where it refuses, the
    refusal is the one that matches its reason."""
    checked = 0
    for text in _oracle_texts():
        checked += 1
        try:
            expected = Fraction(text)
        except ZeroDivisionError:
            reason = "has a zero denominator"
        except ValueError:
            reason = "is not an exact number"
        else:
            value = parse_exact(text)
            assert value == expected, text
            assert type(value) is (Fraction if "/" in text else Decimal), text
            continue
        with pytest.raises(ValueError) as refused:
            parse_exact(text)
        assert str(refused.value) == f"value {reason}: {text!r}"
    assert checked > 22**4


@pytest.mark.parametrize(
    "text, message",
    [
        ("1e", "score is not an exact number: '1e'"),
        (" +.e1", "score is not an exact number: ' +.e1'"),
        ("nan", "score is not an exact number: 'nan'"),
        ("-Infinity", "score is not an exact number: '-Infinity'"),
        ("1 2", "score is not an exact number: '1 2'"),
        ("\u0665e", "score is not an exact number: '\u0665e'"),
        ("1/0", "score has a zero denominator: '1/0'"),
        (" -3/0_0 ", "score has a zero denominator: ' -3/0_0 '"),
        ("1e1000000000000001", "score has an exponent out of range: '1e1000000000000001'"),
        ("-.5E-1_000_000_000_000_000", "score has an exponent out of range: '-.5E-1_000_000_000_000_000'"),
        ("1e" + "9" * 30, "score has an exponent out of range: '1e" + "9" * 30 + "'"),
        ("\u0665e" + "9" * 30, "score has an exponent out of range: '\u0665e" + "9" * 30 + "'"),
        ("1" * 4301, "score has more digits than Python prints (4300): '" + "1" * 4301 + "'"),
        ("2/" + "3" * 4301, "score has more digits than Python prints (4300): '2/" + "3" * 4301 + "'"),
        ("1_" * 4300 + "1", "score has more digits than Python prints (4300): '" + "1_" * 4300 + "1'"),
    ],
    ids=[
        "bare-exponent", "point-without-digits", "nan", "infinity", "inner-space", "arabic-indic-bare-exponent",
        "zero-denominator", "zero-denominator-underscore", "exponent-past-bound", "negative-exponent-past-bound",
        "exponent-past-decimal", "arabic-indic-exponent-past-decimal", "4301-digits", "4301-digit-denominator",
        "4301-digits-underscored",
    ],
)
def test_parse_exact_refusals_are_pinned(text, message):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as refused:
            parse_exact(text, "score")
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(refused.value) == message


def test_decimal_and_fraction_scores_share_a_tier():
    out = rank_payload("a,0.5\nb,1/2\nc,2/4\nd,1/3\n", method="dense")
    assert out == "id,position\na,1\nb,1\nc,1\nd,2\n"
    assert {type(parse_exact(t)) for t in ("0.5", "1/2")} == {Decimal, Fraction}


def test_a_line_of_spaces_is_no_row():
    for method in ("dense", "dense-chain"):
        assert rank_payload("a,1\n   \nb,2\n", method=method) == rank_payload("a,1\nb,2\n", method=method)


# ----- no short input runs unbounded -----------------------------------------

HUGE_LIMIT_S = 20.0


@pytest.mark.parametrize(
    "args, stdin, stdout",
    [
        (["--tie-epsilon", "1e20000000"], "a,1\nb,2\n", "id,position\na,1\nb,1\n"),
        (["--tie-epsilon", "0.005"], "a,1e20000000\nb,1\n", "id,position\na,1\nb,2\n"),
        ([], bench_inputs.HUGE_EXPONENT_CSV, "id,position\na,1\nc,2\nb,3\n"),
        (["--tie-epsilon", "1/3"], bench_inputs.HUGE_EXPONENT_CSV, "id,position\na,1\nc,2\nb,3\n"),
        (["--tie-epsilon", "1e-20000000"], "a,1e-20000000\nb,0\nc,-1e-20000000\n", "id,position\na,1\nb,1\nc,1\n"),
    ],
)
def test_huge_exponents_finish_quickly(args, stdin, stdout):
    start = time.perf_counter()
    result = support.run([*support.CLI, "rank", "--method", "dense", *args], input=stdin, timeout=HUGE_LIMIT_S)
    wall = time.perf_counter() - start
    assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")
    assert wall < HUGE_LIMIT_S


@pytest.mark.parametrize(
    "args",
    [
        ["--method", "affine:a=1e20000000,b=0"],
        ["--method", "dense", "--tie-epsilon=-1e20000000"],
        ["--method", "dense", "--tie-epsilon", "1e99999999999999999999"],
        ["--method", "dense", "--tie-epsilon", "1e2000000000000000"],
    ],
)
def test_out_of_range_exponents_exit_2_with_one_line(args):
    start = time.perf_counter()
    result = support.run([*support.CLI, "rank", *args], input="a,1\nb,2\n", timeout=HUGE_LIMIT_S)
    wall = time.perf_counter() - start
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert wall < HUGE_LIMIT_S


def test_epsilon_gaps_are_exact_at_any_scale():
    def tiers(text: str, epsilon: str | int | Fraction | Decimal) -> str:
        return rank_payload(text, method="dense", tie_epsilon=epsilon).replace("\n", " ")

    # A gap of 1e-30 is within 1e-30; a gap one digit longer is not.
    assert tiers("a,1e-30\nb,0\n", "1e-30") == "id,position a,1 b,1 "
    assert tiers("a,11e-31\nb,0\n", "1e-30") == "id,position a,1 b,2 "
    assert tiers("a,1/3\nb,0\n", "1/3") == "id,position a,1 b,1 "
    # Rounded up to one digit, the gap 0.0021 would pass 0.0025.
    assert tiers("a,0.0021\nb,0\n", "0.0025") == "id,position a,1 b,1 "
    assert tiers("a,0.0026\nb,0\n", "0.0025") == "id,position a,1 b,2 "
    # Gaps of 1/3 - 1e-28 and 1/3 + 1e-28 beside 1e9, against epsilon 1/3.
    digits = "6" * 27
    assert tiers(f"a,1000000000\nb,999999999.{digits}7\n", "1/3") == "id,position a,1 b,1 "
    assert tiers(f"a,1000000000\nb,999999999.{digits}6\n", "1/3") == "id,position a,1 b,2 "
    # An epsilon given as a number reads as its text does.
    assert tiers("a,1e-30\nb,0\n", Decimal("1e-30")) == "id,position a,1 b,1 "
    assert tiers("a,11e-31\nb,0\n", Decimal("1e-30")) == "id,position a,1 b,2 "
    assert tiers("a,1/3\nb,0\n", Fraction(1, 3)) == "id,position a,1 b,1 "
    assert tiers("a,2\nb,1\nc,0\n", 1) == "id,position a,1 b,1 c,1 "


# ----- a reader that leaves early ---------------------------------------------


@pytest.mark.parametrize(
    "args",
    [["enumerate", "5"], ["enumerate", "3", "--count-only"], ["verify", "--max-n", "3"], ["rank", "--method", "dense"]],
)
def test_closed_stdout_exits_quietly(args):
    proc = subprocess.Popen(
        [*support.CLI, *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=support.env(),
        cwd=support.REPO,
    )
    # Closing the read end first makes every write of the child fail.
    proc.stdout.close()
    _, stderr = proc.communicate(b"a,1\nb,2\n", timeout=60)
    assert (proc.returncode, stderr) == (EXIT_PIPE_CLOSED, b"")
    assert EXIT_PIPE_CLOSED not in (0, 1, 2)


# ----- positions are made once per tier ----------------------------------------


def test_one_fraction_per_tier():
    order = from_tiers([{"a", "b", "c"}, {"d"}])
    positions = dense(order)
    assert positions["a"] is positions["b"] is positions["c"]
    assert type(positions["d"]) is Fraction
    # Fractions are kept as they are; other values are still coerced.
    half = Fraction(1, 2)
    coerced = PositionAssignment({"x": half, "y": 2, "z": "3/4"})
    assert coerced["x"] is half
    assert (coerced["y"], coerced["z"]) == (Fraction(2), Fraction(3, 4))
    assert type(coerced["y"]) is Fraction


# ----- each score text parsed once, each tier bucketed once -------------------


def test_each_score_text_is_parsed_once(monkeypatch):
    text = bench_inputs.ties_csv(1)
    spellings = {line.split(",")[1].strip() for line in text.splitlines()}
    parsed: list[str] = []
    monkeypatch.setattr(cli, "parse_exact", lambda raw, name: parsed.append(raw) or parse_exact(raw, name))
    cli._parse_scores(text, has_header=False)
    assert sorted(parsed) == sorted(spellings)
    assert len(parsed) <= 3 * bench_inputs.TIES_VALUES


def test_ids_are_sorted_and_quoted_without_a_call_per_id(monkeypatch):
    text = bench_inputs.ties_csv(1, rows=600, count=60)
    calls = {"label_key": 0, "dumps": 0}

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(cli, "label_key", counted("label_key", label_key))
    monkeypatch.setattr(json, "dumps", counted("dumps", json.dumps))
    out = rank_payload(text, method="fractional", output_format="json", tie_epsilon="0.005")
    # One json.dumps call, for the method name; str ids sort as text.
    assert calls == {"label_key": 0, "dumps": 1}
    assert len(json.loads(out)["positions"]) == 600
    # A bucket that mixes int and str ids still sorts by label_key.
    mixed = rank_payload('{"tiers": [["b", 2, "a", 1]]}', method="dense", input_format="json-tiers")
    assert mixed == "id,position\n1,1\n2,1\na,1\nb,1\n"
    assert calls["label_key"] == 4


@pytest.mark.parametrize("method", ["dense", "fractional"])
def test_positions_are_bucketed_once_per_tier(method, monkeypatch):
    """A tier rule runs on the tier sizes: rank builds no WeakOrder, dense
    no Fraction, and fractional hashes at most one Fraction per tier."""
    text, epsilon = bench_inputs.ties_csv(1), bench_inputs.TIES_EPSILON
    expected = rank_payload(text, method=method, tie_epsilon=epsilon)
    tiers = len(cli._tiers_from_scores(cli._parse_scores(text, has_header=False), parse_exact(epsilon)))
    calls: Counter[str] = Counter()

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return call

    with monkeypatch.context() as patch:
        patch.setattr(WeakOrder, "__init__", counted("orders", WeakOrder.__init__))
        patch.setattr(Fraction, "__new__", staticmethod(counted("fractions", Fraction.__new__)))
        patch.setattr(Fraction, "__hash__", counted("hashes", Fraction.__hash__))
        out = rank_payload(text, method=method, tie_epsilon=epsilon)
    assert out == expected
    assert calls["orders"] == 0
    if method == "dense":
        assert calls["fractions"] == calls["hashes"] == 0
    else:
        assert 0 < calls["hashes"] <= tiers


@pytest.mark.parametrize(
    "score, message",
    [
        ("x", "line 2, column 2: score is not an exact number: 'x'"),
        ("1" * 4301, "line 2, column 2: score has more digits than Python prints (4300): '" + "1" * 4301 + "'"),
    ],
    ids=["not-a-number", "too-many-digits"],
)
def test_a_refused_score_text_is_reported_at_its_first_row(score, message):
    with pytest.raises(ParseError) as refused:
        rank_payload(f"a,1\nb,{score}\nc,1\nd,{score}\n", method="dense")
    assert str(refused.value) == message


def test_a_duplicate_id_is_caught_on_a_row_whose_score_text_was_parsed():
    with pytest.raises(DuplicateId) as duplicate:
        rank_payload("a,1\nb,1\nc,2\nb,1\n", method="dense")
    assert str(duplicate.value) == "line 4: duplicate id 'b'"


def test_interleaved_spellings_of_one_score_form_one_tier():
    text = "e,0.5\nb, 0.5 \nd,1/2\nz,2\na,5e-1\nc,0.50\ng,1/2\nf,0.5\n"
    assert rank_payload(text, method="dense") == (
        "id,position\nz,1\na,2\nb,2\nc,2\nd,2\ne,2\nf,2\ng,2\n"
    )
    assert list(cli._parse_scores(text, has_header=False).values()) == [
        ["e", "b", "d", "a", "c", "g", "f"],
        ["z"],
    ]


@pytest.mark.parametrize(
    "text, method, expected",
    [
        # Tier {a} sits at 1/1 and tier {b, c} at 2/2: one bucket.
        ("a,2\nb,1\nc,1\n", "quotient", "id,position\na,1\nb,1\nc,1\n"),
        # Every tier lands at 0 * depth + 1.
        ("a,3\nb,2\nc,2\nd,1\n", "affine:a=0/1,b=1/1", "id,position\na,1\nb,1\nc,1\nd,1\n"),
        # Tier mates x1 and x2 read distinct positions off their labels.
        ("x3,2\nx1,1\nx2,1\n", "list-index", "id,position\nx1,1\nx2,2\nx3,3\n"),
    ],
    ids=["quotient-merges-tiers", "affine-one-bucket", "list-index-splits-a-tier"],
)
def test_buckets_follow_position_values_not_tiers(text, method, expected):
    assert rank_payload(text, method=method) == expected
