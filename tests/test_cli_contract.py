"""The CLI contract: exit 0 or 2 (1 only for a verify mismatch), at most one
line on stderr and never a traceback, in bounded time, whatever the
arguments and input bytes.  Also the library's bound on numbers from text."""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
import support
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rankops import from_tiers
from rankops.cli import InputError, main, rank_payload
from rankops.operators import PositionAssignment, affine, list_index, make_affine_operator, to_fraction

WALL_LIMIT_S = 10.0


def _one_error_line(stderr: str) -> bool:
    return stderr.startswith("error: ") and stderr.count("\n") == 1 and "Traceback" not in stderr


# ----- numbers from text are bounded in the library too ----------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_affine_operator("1e20000000", 0),
        lambda: PositionAssignment({"a": "1e20000000"}),
        lambda: affine(from_tiers([["a"], ["b"]]), "1e20000000", 0),
        # The first label length whose position has more digits than Python prints.
        lambda: list_index(from_tiers([["z" * 1785]])),
        lambda: list_index(from_tiers([["z" * 100_000]])),
        lambda: to_fraction("1" * 5000),
        lambda: PositionAssignment({"a": "1" * 5000}),
        lambda: make_affine_operator("1/" + "1" * 5000, 0),
    ],
    ids=[
        "make_affine_operator", "PositionAssignment", "affine", "list_index-1785", "list_index-100000",
        "to_fraction-5000-digits", "PositionAssignment-5000-digits", "make_affine_operator-5000-digit-denominator",
    ],
)
def test_huge_text_numbers_are_refused_quickly(build):
    start = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        build()
    assert time.perf_counter() - start < 5.0
    # The message names the limit, never the interpreter's own advice.
    assert f"({sys.get_int_max_str_digits()}" in str(refused.value)
    assert "set_int_max_str_digits" not in str(refused.value)


def test_to_fraction_bounds_digits_by_the_interpreters_limit():
    limit = sys.get_int_max_str_digits()
    assert to_fraction(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert to_fraction(f"5e-{limit - 1}") == to_fraction(f"1/{2 * 10 ** (limit - 2)}")
    for text in (f"1e{limit}", f"1e-{limit}", f"1e{10 * limit}", f"-1e-{10 * limit}"):
        with pytest.raises(ValueError):
            to_fraction(text)
    with pytest.raises(ValueError):
        to_fraction(10**limit)
    assert to_fraction(f"0e{10 * limit}") == 0
    sys.set_int_max_str_digits(limit + 100)
    try:
        assert to_fraction(f"1e{limit}") == 10**limit
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value", [0.1, True, None, b"1", bytearray(b"1")], ids=repr)
def test_to_fraction_refuses_inexact_types(value):
    with pytest.raises(TypeError, match="^" + re.escape(f"value is not an exact number: {value!r}") + "$"):
        to_fraction(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_affine_operator(0.1, 0),
        lambda: PositionAssignment({"a": True}),
        lambda: rank_payload("a,1\nb,1.1\n", method="dense", tie_epsilon=0.1),
    ],
    ids=["make_affine_operator-float", "PositionAssignment-bool", "rank_payload-float"],
)
def test_inexact_numbers_are_refused_where_they_enter(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "sNaN"])
def test_to_fraction_refuses_non_finite_decimals(text):
    with pytest.raises(ValueError):
        to_fraction(Decimal(text))


# ----- affine numbers that Python cannot print --------------------------------

TWELVE_ROWS = "".join(f"r{i},{i}\n" for i in range(12))


@pytest.mark.parametrize(
    "method, stdin",
    [
        ("affine:a=1e4300,b=0", "a,1\nb,2\n"),
        ("affine:a=1e-4300,b=0", "a,1\nb,2\n"),
        ("affine:a=0,b=1e4300", "a,1\n"),
        ("affine:a=1e4299,b=0", TWELVE_ROWS),
    ],
)
def test_unprintable_affine_numbers_exit_2_with_one_line(method, stdin):
    result = support.run([*support.CLI, "rank", "--method", method], input=stdin)
    assert (result.returncode, result.stdout) == (2, "")
    assert _one_error_line(result.stderr)


def test_printable_affine_numbers_still_rank():
    result = support.run([*support.CLI, "rank", "--method", "affine:a=1e4299,b=0"], input="a,1\n")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"id,position\na,1{'0' * 4299}\n"


def test_affine_zero_denominator_is_named():
    result = support.run([*support.CLI, "rank", "--method", "affine:a=1/0,b=0"], input="a,1\nb,2\n")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: affine coefficient a has a zero denominator: '1/0'\n"


# ----- argparse errors are one line ------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["bogus"],
        ["rank"],
        ["rank", "--method"],
        ["rank", "--method", "dense", "--output-format", "xml"],
        ["verify", "--max-n", "x"],
        ["enumerate"],
        ["enumerate", "3", "extra"],
    ],
)
def test_usage_errors_are_one_line(args):
    result = support.run([*support.CLI, *args], input="a,1\n")
    assert (result.returncode, result.stdout) == (2, "")
    assert _one_error_line(result.stderr)


def test_negative_epsilon_reads_the_same_with_or_without_equals():
    joined = support.run([*support.CLI, "rank", "--method", "dense", "--tie-epsilon=-1/3"], input="a,1\n")
    apart = support.run([*support.CLI, "rank", "--method", "dense", "--tie-epsilon", "-1/3"], input="a,1\n")
    assert (apart.returncode, apart.stdout, apart.stderr) == (
        joined.returncode,
        joined.stdout,
        joined.stderr,
    )
    assert joined.stderr == "error: tie epsilon must be non-negative, got -1/3\n"
    small = support.run([*support.CLI, "rank", "--method", "dense", "--tie-epsilon", "-1e-3"], input="a,1\n")
    assert small.stderr == "error: tie epsilon must be non-negative, got -1/1000\n"


def test_negative_epsilon_too_long_to_print_is_called_negative():
    result = support.run([*support.CLI, "rank", "--method", "dense", "--tie-epsilon=-1e-5000"], input="a,1\n")
    assert (result.returncode, result.stdout) == (2, "")
    assert _one_error_line(result.stderr)
    assert "must be non-negative" in result.stderr
    assert "not an exact number" not in result.stderr


def test_help_is_unchanged():
    result = support.run([*support.CLI, "rank", "--help"])
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("usage: rankops rank [-h] --method METHOD")
    assert "--tie-epsilon TIE_EPSILON" in result.stdout


# ----- malformed rank input ---------------------------------------------------

LONG_LABEL_JSON = '{"tiers": [[' + "1" * 5000 + "]]}"
DEEP_JSON = "[" * 200_000 + "]" * 200_000
LONG_FIELD_CSV = "a," + "1" * 131_073 + "\n"
LONG_ID_CSV = "a" + "7" * 5000 + ",1\nb,2\n"
# A lone surrogate escape: text UTF-8 cannot encode.
SURROGATE_JSON = '{"tiers": [["\\ud800"], ["b"]]}'


@pytest.mark.parametrize(
    "args, text",
    [
        (["--input-format", "json-tiers"], LONG_LABEL_JSON),
        (["--input-format", "json-tiers"], DEEP_JSON),
        ([], LONG_FIELD_CSV),
        (["--method", "list-index"], LONG_ID_CSV),
        (["--input-format", "json-tiers"], SURROGATE_JSON),
        (["--input-format", "json-tiers", "--output-format", "json"], SURROGATE_JSON),
    ],
    ids=[
        "5000-digit-label", "nested-200000-deep", "csv-field-over-limit", "list-index-5000-digit-id",
        "surrogate-label-csv", "surrogate-label-json",
    ],
)
def test_malformed_rank_input_exits_2_with_one_line(args, text, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    assert main(["rank", "--method", "dense", *args, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err)


def test_unknown_output_format_is_an_input_error():
    with pytest.raises(InputError, match="unknown output format 'xml'"):
        rank_payload("a,1\n", method="dense", output_format="xml")


# ----- the contract, fuzzed ------------------------------------------------------

HUGE_EXPONENT_CSV = "a,1e20000000\nb,1e-20000000\nc,1"
BAD_SCORES = ("nan", "inf", "Infinity", "-Infinity", "sNaN", "0x10", "", "1__0", "_1", "1.d", "1/0", "x")

# Inputs of the rank-path tests and of the defects this contract was written
# against, each run from stdin and from a file.
SEEDS: list[tuple[list[str], bytes]] = [
    (["rank", "--method", "dense", "--tie-epsilon", "1e20000000"], b"a,1\nb,2\n"),
    (["rank", "--method", "dense", "--tie-epsilon", "0.005"], b"a,1e20000000\nb,1\n"),
    (["rank", "--method", "dense"], HUGE_EXPONENT_CSV.encode()),
    (["rank", "--method", "dense", "--tie-epsilon", "1/3"], HUGE_EXPONENT_CSV.encode()),
    (["rank", "--method", "dense", "--tie-epsilon", "1e-20000000"], b"a,1e-20000000\nb,0\nc,-1e-20000000\n"),
    (["rank", "--method", "affine:a=1e20000000,b=0"], b"a,1\nb,2\n"),
    (["rank", "--method", "dense", "--tie-epsilon=-1e20000000"], b"a,1\nb,2\n"),
    (["rank", "--method", "dense", "--tie-epsilon", "1e99999999999999999999"], b"a,1\nb,2\n"),
    (["rank", "--method", "dense", "--tie-epsilon", "1e2000000000000000"], b"a,1\nb,2\n"),
    *((["rank", "--method", "dense"], f"a,1\nb,{score}\n".encode()) for score in BAD_SCORES),
    (["rank", "--method", "dense"], b"a," + b"1" * 4301 + b"\n"),
    (["rank", "--method", "dense"], b"a,0.5\nb,1/2\nc,2/4\nd,1/3\n"),
    (["rank", "--method", "dense", "--tie-epsilon", "0.0025"], b"a,0.0021\nb,0\n"),
    (["rank", "--method", "dense", "--tie-epsilon", "1/3"], b"a,1000000000\nb,999999999." + b"6" * 28 + b"\n"),
    (["rank", "--method", "dense"], b"a,1\n\xff,2\n"),
    (["rank", "--method", "fractional", "--output-format", "json", "--has-header"], b"id,score\r\nx,10\r\ny,10\r\n"),
    (["rank", "--method", "sequential"], b"a,1\nb,1\n"),
    (["enumerate", "5"], b""),
    (["enumerate", "3", "--count-only"], b""),
    (["verify", "--max-n", "3"], b""),
    (["rank", "--method", "affine:a=1e4300,b=0"], b"a,1\n"),
    (["rank", "--method", "affine:a=1e-4300,b=0"], b"a,1\n"),
    (["rank", "--method", "affine:a=1e4299,b=0"], TWELVE_ROWS.encode()),
    (["rank", "--method", "dense", "--tie-epsilon", "-1/3"], b"a,1\n"),
    (["rank", "--method", "dense", "--tie-epsilon=-1e-5000"], b"a,1\n"),
    (["rank", "--method", "list-index"], b"a" * 100_000 + b",1\n"),
    (["rank"], b"a,1\n"),
    (["rank", "--method", "dense", "--input-format", "json-tiers"], LONG_LABEL_JSON.encode()),
    (["rank", "--method", "dense", "--input-format", "json-tiers"], DEEP_JSON.encode()),
    (["rank", "--method", "dense"], LONG_FIELD_CSV.encode()),
    (["rank", "--method", "list-index"], LONG_ID_CSV.encode()),
    (["rank", "--method", "dense"], b"a,1\rb,2\n"),
    (["rank", "--method", "dense", "--input-format", "json-tiers"], SURROGATE_JSON.encode()),
    (["rank", "--method", "dense", "--input-format", "json-tiers", "--output-format", "json"], SURROGATE_JSON.encode()),
]

TOKENS = (
    "--method", "dense", "sequential", "list-index", "fractional", "affine:a=1/3,b=2",
    "affine:a=1e4299,b=0", "--input-format", "json-tiers", "csv-scores", "--output-format",
    "json", "csv", "--tie-epsilon", "-1/3", "0.005", "1e20000000", "--has-header", "--max-n",
    "--report", "--count-only", "-", "--", "-h", "0", "1", "3", "5", "9", "-1", "x1",
)
token = st.one_of(
    st.sampled_from(TOKENS),
    # What a shell can pass: no NUL; '/' is left out so that a report lands
    # in the example's own directory.
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00/"), max_size=8),
)
arguments = st.builds(
    lambda command, rest: [command, *rest] if command else rest,
    st.sampled_from(["rank", "rank", "rank", "enumerate", "verify", "bogus", ""]),
    st.lists(token, max_size=7),
)
csv_bytes = st.lists(
    st.tuples(
        st.text("ab1,\"é\r\n", max_size=3),
        st.one_of(st.sampled_from(BAD_SCORES), st.text("0123456789.eE-+/_", max_size=6)),
    ),
    max_size=6,
).map(lambda rows: "".join(f"{i},{s}\n" for i, s in rows).encode("utf-8"))
json_bytes = st.recursive(
    st.one_of(st.integers(), st.text(max_size=3), st.booleans(), st.none()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["tiers", "x"]), inner, max_size=2),
    max_leaves=8,
).map(lambda value: json.dumps(value).encode("utf-8"))
input_bytes = st.one_of(st.binary(max_size=48), csv_bytes, json_bytes)


def _seeded(test):
    for argv, data in SEEDS:
        for via_file in (False, True):
            test = example(argv, data, via_file)(test)
    return test


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(arguments, input_bytes, st.booleans())
@_seeded
def test_cli_contract(argv, data, via_file):
    if argv[:1] == ["verify"]:
        # The last --max-n wins, so the engine never runs beyond n = 3.
        argv = [*argv, "--max-n", "3"]
    # A stdout that, like a process's, refuses text UTF-8 cannot encode.
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        if via_file:
            Path("input").write_bytes(data)
            argv = [*argv, "input"]
        stdin = io.TextIOWrapper(io.BytesIO(b"" if via_file else data), encoding="utf-8")
        start = time.perf_counter()
        with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(
            out
        ), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
        wall = time.perf_counter() - start
    stderr = err.getvalue()
    assert code in (0, 2) or (code == 1 and argv[:1] == ["verify"]), (code, stderr)
    assert stderr.count("\n") <= 1 and stderr.endswith("\n") == bool(stderr), stderr
    assert "Traceback" not in stderr
    if code == 2:
        assert stderr.startswith("error: ")
    assert wall < WALL_LIMIT_S


# ----- error lines stay short and give no advice the user cannot take ------------


@pytest.mark.parametrize(
    "args, text",
    [
        (["--input-format", "json-tiers"], LONG_LABEL_JSON),
        (["--input-format", "json-tiers"], '{"tiers": [[-' + "1" * 5000 + "]]}"),
        (["--method", "list-index"], LONG_ID_CSV),
        (["--method", "affine:a=" + "1" * 5000 + ",b=0"], "a,1\n"),
        (["--method", "affine:a=1/" + "1" * 5000 + ",b=0"], "a,1\n"),
        (["--method", "affine:a=0." + "1" * 5000 + ",b=0"], "a,1\n"),
    ],
    ids=[
        "5000-digit-label",
        "negative-5000-digit-label",
        "list-index-5000-digit-id",
        "5000-digit-affine-coefficient",
        "5000-digit-affine-denominator",
        "5000-digit-affine-decimal",
    ],
)
def test_digit_limit_errors_name_the_limit(args, text, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    assert main(["rank", "--method", "dense", *args, str(path)]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured.err)
    assert "set_int_max_str_digits" not in captured.err
    assert f"({sys.get_int_max_str_digits()})" in captured.err


@pytest.mark.parametrize(
    "args, text",
    [([], "a," + "1" * 5000 + "\n"), (["--tie-epsilon", "1" * 5000], "a,1\n")],
    ids=["5000-digit-score", "5000-digit-epsilon"],
)
def test_long_digit_runs_are_named_as_such(args, text, tmp_path, capsys):
    # An exact decimal, refused only for Python's limit on integer strings.
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    assert main(["rank", "--method", "dense", *args, str(path)]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured.err)
    assert f"({sys.get_int_max_str_digits()})" in captured.err
    assert "not an exact number" not in captured.err
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize(
    "tie_epsilon",
    [10**5000, -(10**5000), Fraction(1, 10**5000), Fraction(-1, 10**5000)],
    ids=["int", "negative-int", "fraction", "negative-fraction"],
)
def test_epsilons_too_long_to_print_are_named_as_such(tie_epsilon):
    # An int or Fraction is refused exactly when its written form would be.
    with pytest.raises(InputError) as refused:
        rank_payload("a,1\n", method="dense", tie_epsilon=tie_epsilon)
    assert str(refused.value) == f"tie epsilon has more digits than Python prints ({sys.get_int_max_str_digits()})"


@pytest.mark.parametrize(
    "args, text",
    [
        ([], "a,1e999999999999999999\n"),
        ([], "a,1e-999999999999999999\n"),
        (["--tie-epsilon", "1e999999999999999999"], "a,1\n"),
        (["--tie-epsilon", "1e-999999999999999999"], "a,1\n"),
    ],
    ids=["score-e+", "score-e-", "epsilon-e+", "epsilon-e-"],
)
def test_exponents_out_of_range_are_named_as_such(args, text, tmp_path, capsys):
    # An exact decimal, refused only because its leading digit lies too far
    # from the point.
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    assert main(["rank", "--method", "dense", *args, str(path)]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured.err)
    assert "has an exponent out of range" in captured.err
    assert "not an exact number" not in captured.err


# One wording per reason, wherever a number enters.
REFUSED_NUMBERS = {
    "not-a-number": ("x", "is not an exact number"),
    "zero-denominator": ("1/0", "has a zero denominator"),
    "5000-digits": ("1" * 5000, f"has more digits than Python prints ({sys.get_int_max_str_digits()})"),
    "huge-exponent": ("1e99999999999999999", "has an exponent out of range"),
}
ENTRY_POINTS = {
    "score": (lambda value: ([], f"a,{value}\n"), "line 1, column 2: score"),
    "tie-epsilon": (lambda value: (["--tie-epsilon", value], "a,1\n"), "tie epsilon"),
    "affine": (lambda value: (["--method", f"affine:a={value},b=0"], "a,1\n"), "affine coefficient a"),
}


@pytest.mark.parametrize("refused", REFUSED_NUMBERS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_each_refusal_has_one_wording_at_every_entry_point(entry, refused, tmp_path, capsys):
    value, reason = REFUSED_NUMBERS[refused]
    place, name = ENTRY_POINTS[entry]
    args, text = place(value)
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    assert main(["rank", "--method", "dense", *args, str(path)]) == 2
    captured = capsys.readouterr()
    message = f"{name} {reason}: {value!r}"
    # An error line quotes at most 200 characters of its message.
    shown = message if len(message) <= 200 else message[:200] + "..."
    assert (captured.out, captured.err) == ("", f"error: {shown}\n")


NESTED_900_JSON = '{"tiers":[[' + "[" * 900 + "]" * 900 + "]]}"


@pytest.mark.parametrize(
    "args, text",
    [
        ([], "a," + "1" * 100_000 + "\n"),
        (["--method", "x" * 100_000], "a,1\n"),
        (["--tie-epsilon", "1" * 99_999 + "x"], "a,1\n"),
        (["--input-format", "json-tiers"], NESTED_900_JSON),
    ],
    ids=["long-score", "long-method", "long-epsilon", "json-nested-900"],
)
def test_error_line_is_bounded(args, text, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    argv = ["rank", "--method", "dense", *args, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured.err)
    assert len(captured.err) <= 211
    assert captured.err.endswith("...\n")
