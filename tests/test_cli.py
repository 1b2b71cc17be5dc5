from __future__ import annotations

import io
import json
import os
import re
import select
import signal
import subprocess
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
import support

from rankops import dense, enumerate_weak_orders, weak_order_from_json, weak_order_to_json
from rankops.cli import (
    DuplicateId,
    EmptyInput,
    InputError,
    ParseError,
    UnknownMethod,
    main,
    rank_payload,
)

SCORES = "x,10\ny,10\nz,7\n"


# ----- rank -----------------------------------------------------------------


def test_rank_dense_csv_bytes():
    out = rank_payload(SCORES, method="dense")
    assert out == "id,position\nx,1\ny,1\nz,2\n"


def test_rank_fractional_csv_bytes():
    out = rank_payload(SCORES, method="fractional")
    assert out == "id,position\nx,3/2\ny,3/2\nz,3\n"


def test_rank_single_row():
    assert rank_payload("a,5\n", method="standard") == "id,position\na,1\n"


def test_rank_json_output_uses_exact_fractions():
    payload = json.loads(rank_payload(SCORES, method="fractional", output_format="json"))
    assert payload["method"] == "fractional"
    assert payload["positions"][0] == {
        "id": "x",
        "position": {"numerator": 3, "denominator": 2},
    }
    assert payload["positions"][2]["position"] == {"numerator": 3, "denominator": 1}


def test_rank_rows_sorted_by_position_then_id():
    out = rank_payload("b,1\nc,9\na,1\n", method="dense")
    assert out == "id,position\nc,1\na,2\nb,2\n"


def test_rank_accepts_header_and_crlf():
    text = "id,score\r\nx,10\r\ny,10\r\nz,7\r\n"
    out = rank_payload(text, method="dense", has_header=True)
    assert out == "id,position\nx,1\ny,1\nz,2\n"


def test_rank_json_tiers_input():
    text = json.dumps({"tiers": [["x", "y"], ["z"]]})
    out = rank_payload(text, method="modified", input_format="json-tiers")
    assert out == "id,position\nx,2\ny,2\nz,3\n"


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_rank_json_tiers_mixed_int_and_str_ids_in_one_tier(output_format, tmp_path, capsys):
    # One bucket holding int and str ids: a plain sort, or a quoting that
    # takes only str, would raise TypeError on it.
    path = tmp_path / "tiers.json"
    path.write_text('{"tiers": [["b", 2, "a", 1]]}', encoding="utf-8")
    args = ["--input-format", "json-tiers", "--output-format", output_format]
    assert main(["rank", "--method", "dense", *args, str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if output_format == "csv":
        assert captured.out == "id,position\n1,1\n2,1\na,1\nb,1\n"
    else:
        ids = [row["id"] for row in json.loads(captured.out)["positions"]]
        assert ids == [1, 2, "a", "b"]


def test_rank_row_permutation_invariance():
    import itertools

    rows = ["x,10", "y,10", "z,7"]
    outputs = {
        rank_payload("\n".join(perm) + "\n", method="dense")
        for perm in itertools.permutations(rows)
    }
    assert len(outputs) == 1


def test_rank_epsilon_chains_transitively():
    text = "a,10\nb,9.5\nc,9\n"
    # each adjacent gap is 0.5, so everyone chains into one tier
    out = rank_payload(text, method="dense", tie_epsilon="0.5")
    assert out == "id,position\na,1\nb,1\nc,1\n"
    # a smaller epsilon keeps everything separate
    strict = rank_payload(text, method="dense", tie_epsilon="0.25")
    assert strict == "id,position\na,1\nb,2\nc,3\n"


def test_rank_zero_epsilon_identical_to_default():
    for method in ("dense", "standard", "fractional"):
        assert rank_payload(SCORES, method=method) == rank_payload(
            SCORES, method=method, tie_epsilon="0"
        )


def test_rank_exact_decimal_tie_detection():
    # 0.1 + 0.2 style pitfalls must not split or merge tiers
    text = "a,0.3\nb,0.30\nc,0.1\n"
    out = rank_payload(text, method="dense")
    assert out == "id,position\na,1\nb,1\nc,2\n"


def test_rank_sequential_requires_linear_input():
    with pytest.raises(InputError):
        rank_payload(SCORES, method="sequential")
    out = rank_payload("a,3\nb,2\nc,1\n", method="sequential")
    assert out == "id,position\na,1\nb,2\nc,3\n"


def test_rank_parse_errors():
    with pytest.raises(ParseError) as excinfo:
        rank_payload("x,10\ny\n", method="dense")
    assert "line 2" in str(excinfo.value)
    with pytest.raises(ParseError) as excinfo:
        rank_payload("x,ten\n", method="dense")
    assert "column 2" in str(excinfo.value)
    with pytest.raises(DuplicateId):
        rank_payload("x,1\nx,2\n", method="dense")
    with pytest.raises(EmptyInput):
        rank_payload("\n", method="dense")
    with pytest.raises(UnknownMethod):
        rank_payload(SCORES, method="percentile")
    with pytest.raises(ParseError):
        rank_payload("{broken", method="dense", input_format="json-tiers")
    # the integer label 1 and the string "1" would print as the same id
    with pytest.raises(ParseError) as excinfo:
        rank_payload('{"tiers":[["x",1],["1"]]}', method="dense", input_format="json-tiers")
    assert "'1'" in str(excinfo.value)


def test_rank_json_tiers_refuses_a_label_repeated_within_a_tier(tmp_path, capsys):
    text = '{"tiers":[["a","a"],["b"]]}'
    with pytest.raises(ParseError) as excinfo:
        rank_payload(text, method="dense", input_format="json-tiers")
    assert str(excinfo.value) == "alternative 'a' appears twice in tier 0"
    path = tmp_path / "tiers.json"
    path.write_text(text, encoding="utf-8")
    assert main(["rank", "--method", "dense", "--input-format", "json-tiers", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: alternative 'a' appears twice in tier 0\n")


def test_rank_json_tiers_refuses_a_repeated_key(tmp_path, capsys):
    """Two "tiers" keys would leave the order to a guess; an unknown key
    beside "tiers" is still ignored."""
    text = '{"tiers":[["a"],["b"]],"tiers":[["b"],["a"]]}'
    with pytest.raises(ParseError) as excinfo:
        rank_payload(text, method="dense", input_format="json-tiers")
    assert str(excinfo.value) == "JSON object has the key 'tiers' twice"
    path = tmp_path / "tiers.json"
    path.write_text(text, encoding="utf-8")
    assert main(["rank", "--method", "dense", "--input-format", "json-tiers", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: JSON object has the key 'tiers' twice\n")
    out = rank_payload('{"tiers":[["a"],["b"]],"note":1}', method="dense", input_format="json-tiers")
    assert out == "id,position\na,1\nb,2\n"


@pytest.mark.parametrize(
    "text, input_format, error",
    [
        (",1\n", "csv-scores", "line 1, column 1: empty id"),
        ("a,1\n", "xml", "unknown input format 'xml'"),
    ],
    ids=["empty-id", "unknown-input-format"],
)
def test_rank_payload_refuses(text, input_format, error):
    with pytest.raises(InputError) as excinfo:
        rank_payload(text, method="dense", input_format=input_format)
    assert str(excinfo.value) == error


def test_rank_affine_form_via_method_name():
    out = rank_payload(SCORES, method="affine:a=1/1,b=0/1")
    assert out == "id,position\nx,1\ny,1\nz,2\n"


# ----- round trip against the library ----------------------------------------


def test_rank_round_trips_every_small_order():
    for n in range(1, 5):
        ground = tuple(f"x{i}" for i in range(1, n + 1))
        for order in enumerate_weak_orders(ground):
            text = json.dumps(weak_order_to_json(order))
            payload = json.loads(
                rank_payload(text, method="dense", input_format="json-tiers", output_format="json")
            )
            via_cli = {
                row["id"]: F(row["position"]["numerator"], row["position"]["denominator"])
                for row in payload["positions"]
            }
            assert via_cli == dict(dense(order))


# ----- main() dispatch ---------------------------------------------------------


def test_main_rank_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(SCORES.encode()), encoding="utf-8"))
    assert main(["rank", "--method", "dense"]) == 0
    assert capsys.readouterr().out == "id,position\nx,1\ny,1\nz,2\n"


def test_main_rank_reads_file(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    path.write_text(SCORES, encoding="utf-8")
    assert main(["rank", "--method", "modified", str(path)]) == 0
    assert capsys.readouterr().out == "id,position\nx,2\ny,2\nz,3\n"


def test_main_rank_error_paths(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"x,ten\n"), encoding="utf-8"))
    assert main(["rank", "--method", "dense"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["rank", "--method", "dense", "/no/such/file.csv"]) == 2


def test_main_enumerate_listing_and_count(capsys):
    assert main(["enumerate", "3", "--count-only"]) == 0
    assert capsys.readouterr().out == "13\n"

    assert main(["enumerate", "1"]) == 0
    assert capsys.readouterr().out == '{"tiers":[["x1"]]}\n'

    assert main(["enumerate", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    orders = [weak_order_from_json(json.loads(line)) for line in lines]
    assert len({order.tiers for order in orders}) == 13


def test_main_enumerate_bounds(capsys):
    assert main(["enumerate", "9", "--count-only"]) == 2
    capsys.readouterr()
    assert main(["enumerate", "6"]) == 2
    assert main(["enumerate", "0"]) == 2
    capsys.readouterr()
    assert main(["enumerate", "8", "--count-only"]) == 0
    assert capsys.readouterr().out == "545835\n"


def test_main_verify_writes_report_and_succeeds(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--max-n", "3", "--report", str(report)]) == 0
    document = json.loads(report.read_text(encoding="utf-8"))
    assert document["allExpected"] is True
    assert document["maxN"] == 3


def test_main_verify_exits_1_on_a_mismatch(tmp_path, monkeypatch, capsys):
    import dataclasses

    from rankops import axioms

    key = ("dense", axioms.Axiom.EQUALITY)
    doctored = dataclasses.replace(axioms.EXPECTED_MATRIX[key], verdict=axioms.Verdict.FAIL)
    monkeypatch.setitem(axioms.EXPECTED_MATRIX, key, doctored)
    report = tmp_path / "report.json"
    assert main(["verify", "--max-n", "3", "--report", str(report)]) == 1
    document = json.loads(report.read_text(encoding="utf-8"))
    assert document["allExpected"] is False
    assert document["matrixMatchesExpected"] is False
    deviating = [row for row in document["matrix"] if row["expected"] != row["observed"]]
    assert [(row["operator"], row["axiom"]) for row in deviating] == [("dense", "equality")]
    assert capsys.readouterr().err == "verification at max n = 3: MISMATCH\n"


def test_main_verify_bounds(capsys):
    assert main(["verify", "--max-n", "1"]) == 2
    capsys.readouterr()
    # at two alternatives some expected failures cannot show yet
    assert main(["verify", "--max-n", "2"]) == 2
    capsys.readouterr()
    assert main(["verify", "--max-n", "8"]) == 2
    assert capsys.readouterr().err == "error: --max-n must be between 3 and 7, got 8\n"


def test_main_verify_unwritable_report_is_input_error(tmp_path, monkeypatch, capsys):
    def engine(max_n):
        raise AssertionError("the engine ran before the report path was checked")

    monkeypatch.setattr("rankops.cli.build_verification_document", engine)
    report = tmp_path / "no" / "such" / "dir" / "r.json"
    assert main(["verify", "--max-n", "3", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class _InterruptedRead(io.BytesIO):
    def read(self, *args):
        raise KeyboardInterrupt


def test_main_interrupted_is_one_line_and_exit_130(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(_InterruptedRead(), encoding="utf-8"))
    assert main(["rank", "--method", "dense"]) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


def test_main_interrupted_drops_what_stdout_still_holds(tmp_path, monkeypatch, capsys):
    def interrupted(ground):
        yield from enumerate_weak_orders(ground)
        raise KeyboardInterrupt

    monkeypatch.setattr("rankops.cli.enumerate_weak_orders", interrupted)
    path = tmp_path / "out"
    with open(path, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr("sys.stdout", stdout)
        assert main(["enumerate", "3"]) == 130
    assert path.read_bytes() == b""
    assert capsys.readouterr().err == "error: interrupted\n"


@pytest.mark.parametrize("error, code", [(KeyboardInterrupt, 130), (OSError, 2)])
def test_main_verify_keeps_an_earlier_report_when_the_engine_stops(tmp_path, monkeypatch, capsys, error, code):
    def engine(max_n):
        raise error("stopped")

    report = tmp_path / "r.json"
    report.write_bytes(b'{"earlier": true}\n')
    monkeypatch.setattr("rankops.cli.build_verification_document", engine)
    assert main(["verify", "--max-n", "3", "--report", str(report)]) == code
    assert report.read_bytes() == b'{"earlier": true}\n'
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "before, after",
    [
        (["rank"], ["--method", "dense", "FILE"]),
        (["rank", "--has-header"], ["--method", "dense", "FILE"]),
        (["rank", "--method", "dense", "FILE"], []),
        (["rank", "--method", "dense", "--has-header", "FILE"], []),
    ],
    ids=["first-odd", "first-even", "last-even", "last-odd"],
)
def test_main_joins_a_negative_tie_epsilon_given_apart(tmp_path, capsys, before, after):
    """``--tie-epsilon -1/3`` as two arguments, before another option or
    after the file, after an odd or an even number of arguments."""
    path = tmp_path / "scores.csv"
    path.write_text("a,1\n", encoding="utf-8")
    argv = [str(path) if arg == "FILE" else arg for arg in (*before, "--tie-epsilon", "-1/3", *after)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: tie epsilon must be non-negative, got -1/3\n")


@pytest.mark.parametrize("length", [200, 201])
def test_main_cuts_an_error_line_after_200_characters(tmp_path, capsys, length):
    path = tmp_path / "scores.csv"
    path.write_text("a,1\n", encoding="utf-8")
    name = "m" * (length - len("no operator named ''"))
    message = f"no operator named {name!r}"
    assert len(message) == length
    assert main(["rank", "--method", name, str(path)]) == 2
    shown = message if length <= 200 else message[:200] + "..."
    assert capsys.readouterr() == ("", f"error: {shown}\n")


def test_main_verify_accepts_max_n_7_without_running_it(monkeypatch, capsys):
    calls = []

    def engine(max_n):
        calls.append(max_n)
        return {"maxN": max_n}, True

    monkeypatch.setattr("rankops.cli.build_verification_document", engine)
    assert main(["verify", "--max-n", "7"]) == 0
    assert calls == [7]
    assert capsys.readouterr() == ('{\n  "maxN": 7\n}\n', "verification at max n = 7: all as expected\n")
    assert main(["verify", "--max-n", "8"]) == 2
    assert calls == [7]
    assert capsys.readouterr() == ("", "error: --max-n must be between 3 and 7, got 8\n")


# ----- true end-to-end through the interpreter -----------------------------------


def test_subprocess_rank_matches_direct_call():
    result = support.run([*support.CLI, "rank", "--method", "dense"], input=SCORES)
    assert result.returncode == 0
    assert result.stdout == "id,position\nx,1\ny,1\nz,2\n"


def test_subprocess_enumerate_count():
    result = support.run([*support.CLI, "enumerate", "5", "--count-only"])
    assert result.returncode == 0
    assert result.stdout == "541\n"


def test_subprocess_unknown_method_exit_code():
    result = support.run([*support.CLI, "rank", "--method", "nope"], input=SCORES)
    assert result.returncode == 2
    assert "no operator named" in result.stderr


NOT_UTF8 = b"a,1\n\xff,2\n"


def test_main_rank_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    path.write_bytes(NOT_UTF8)
    assert main(["rank", "--method", "dense", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2: input is not valid UTF-8\n"


@pytest.mark.parametrize("stdin_encoding", ["utf-8:surrogateescape", "utf-8:strict"])
def test_subprocess_rank_rejects_non_utf8_from_file_and_stdin(tmp_path, stdin_encoding):
    """Both read paths give exit 2 and one error line, whichever way the
    interpreter decodes stdin."""
    path = tmp_path / "scores.csv"
    path.write_bytes(NOT_UTF8)
    env = support.env(PYTHONIOENCODING=stdin_encoding)
    for extra, stdin in (([str(path)], b""), ([], NOT_UTF8)):
        result = support.run(
            [*support.CLI, "rank", "--method", "dense", *extra], input=stdin, text=False, env=env
        )
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr == b"error: line 2: input is not valid UTF-8\n"


@pytest.mark.parametrize("encoding", [None, "ascii", "latin-1"])
def test_subprocess_rank_bytes_do_not_depend_on_the_locale(tmp_path, encoding):
    """Input is read as UTF-8 and output and error lines written as UTF-8,
    from a file and from stdin, whatever encoding the interpreter's streams
    were given."""
    env = support.env(PYTHONIOENCODING=encoding)
    path = tmp_path / "scores.csv"
    for data, expected in (
        ("a,1\né,2\n".encode("utf-8"), (0, "id,position\né,1\na,2\n".encode("utf-8"), b"")),
        (b"a,1\n\xe9,2\n", (2, b"", b"error: line 2: input is not valid UTF-8\n")),
        (
            "é,1\né,2\n".encode("utf-8"),
            (2, b"", "error: line 2: duplicate id 'é'\n".encode("utf-8")),
        ),
    ):
        path.write_bytes(data)
        for extra, stdin in (([str(path)], b""), ([], data)):
            result = support.run(
                [*support.CLI, "rank", "--method", "dense", *extra], input=stdin, text=False, env=env
            )
            assert (result.returncode, result.stdout, result.stderr) == expected


# ----- line breaks, line numbers --------------------------------------------


def rank_dense_from_file_and_stdin(tmp_path: Path, data: bytes) -> list[subprocess.CompletedProcess]:
    """``rank --method dense`` on ``data`` as a file, then on stdin, in bytes."""
    path = tmp_path / "scores.csv"
    path.write_bytes(data)
    return [
        support.run([*support.CLI, "rank", "--method", "dense", *extra], input=stdin, text=False)
        for extra, stdin in (([str(path)], b""), ([], data))
    ]


@pytest.mark.parametrize(
    "data",
    [b"a,1\rb,2\n", b"a,1\r\nb,2\r\n", b'"x\r\ny",1\nz,2\n'],
    ids=["bare-cr", "crlf", "quoted-crlf"],
)
def test_subprocess_rank_reads_line_breaks_alike_from_file_and_stdin(tmp_path, data):
    from_file, from_stdin = (
        (r.returncode, r.stdout) for r in rank_dense_from_file_and_stdin(tmp_path, data)
    )
    assert from_file == from_stdin
    assert from_file[0] == 0


def test_rank_error_names_the_line_a_row_starts_on():
    with pytest.raises(ParseError, match="^line 3, column 2: "):
        rank_payload('a,"1\n"\nb,zz\n', method="dense")
    with pytest.raises(ParseError, match="^line 4, column 2: "):
        rank_payload('h,s\ra,"1\n"\r\nb,zz\n', method="dense", has_header=True)


def test_subprocess_non_utf8_line_counts_every_line_break(tmp_path):
    for result in rank_dense_from_file_and_stdin(tmp_path, b"a,1\rb,2\r\n\xff,3\n"):
        assert (result.returncode, result.stderr) == (2, b"error: line 3: input is not valid UTF-8\n")


# ----- standard streams that fail or are missing -------------------------------

NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.mark.parametrize(
    "args, redirect, code",
    [
        pytest.param(["rank", "--method", "dense", "scores.csv"], ">/dev/full", 2, marks=NO_DEV_FULL),
        pytest.param(["enumerate", "3"], ">/dev/full", 2, marks=NO_DEV_FULL),
        pytest.param(["verify", "--max-n", "3"], ">/dev/full", 2, marks=NO_DEV_FULL),
        pytest.param(["verify", "--max-n", "3", "--report", "/dev/full"], "", 2, marks=NO_DEV_FULL),
        (["verify", "--max-n", "3", "--report", "r.json"], ">&-", 0),
        (["rank", "--method", "dense"], "<&-", 2),
        (["rank", "--method", "dense", "scores.csv"], ">&-", 2),
        (["enumerate", "3"], ">&-", 2),
    ],
    ids=[
        "rank-full-stdout", "enumerate-full-stdout", "verify-full-stdout", "verify-full-report",
        "verify-report-no-stdout", "rank-no-stdin", "rank-no-stdout", "enumerate-no-stdout",
    ],
)
def test_subprocess_failed_or_missing_stream_is_one_line(tmp_path, args, redirect, code):
    (tmp_path / "scores.csv").write_text(SCORES, encoding="utf-8")
    # The shell applies the redirection, then runs the CLI in its place.  A
    # buffered stdout still holds the output after a failed write; unless
    # main drops it, the interpreter's own flush at exit fails again, with a
    # second message and exit 120.  support.env leaves every child's stdout
    # buffered.
    result = support.run(["sh", "-c", f'exec "$@" {redirect}', "sh", *support.CLI, *args], cwd=tmp_path)
    assert result.returncode == code, result.stderr
    assert result.stderr.count("\n") <= 1 and "Traceback" not in result.stderr
    if code == 2:
        assert result.stderr.startswith("error: ")
    else:
        assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "args, redirect, code",
    [
        (["rank", "--method", "nope", "scores.csv"], "2>&-", 2),
        pytest.param(["rank", "--method", "nope", "scores.csv"], "2>/dev/full", 2, marks=NO_DEV_FULL),
        (["verify", "--max-n", "3", "--report", "r.json"], "2>&-", 0),
        pytest.param(["verify", "--max-n", "3", "--report", "r.json"], "2>/dev/full", 0, marks=NO_DEV_FULL),
    ],
    ids=["rank-error-no-stderr", "rank-error-full-stderr", "verify-no-stderr", "verify-full-stderr"],
)
def test_subprocess_failed_or_missing_stderr_keeps_the_exit_code(tmp_path, args, redirect, code):
    (tmp_path / "scores.csv").write_text(SCORES, encoding="utf-8")
    result = support.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", *support.CLI, *args], text=False, cwd=tmp_path
    )
    # Nothing reaches stdout in stderr's place.
    assert (result.returncode, result.stdout, result.stderr) == (code, b"", b"")
    if code == 0:
        assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["allExpected"] is True


@pytest.mark.skipif(os.name != "posix", reason="needs SIGINT and select on a pipe")
def test_subprocess_interrupted_rank_is_one_line_and_exit_130():
    """``rank`` waiting on an open stdin, sent SIGINT as Ctrl-C sends it."""
    argv = [*support.PYTHON, "-X", "importtime", "-m", "rankops", "rank", "--method", "dense"]
    with support.start(argv) as child:
        # -X importtime names each module on stderr once it is loaded; once
        # the CLI is, rank soon waits for its input.
        seen = b""
        while not re.search(rb" rankops\.cli\r?\n", seen):
            assert select.select([child.stderr], [], [], 60)[0], seen
            chunk = os.read(child.stderr.fileno(), 4096)
            assert chunk, seen
            seen += chunk
        time.sleep(0.5)
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=60)
    lines = [line for line in (seen + err).decode().splitlines() if not line.startswith("import time:")]
    assert (child.returncode, out, lines) == (130, b"", ["error: interrupted"])


# ----- a byte-order mark before the input ----------------------------------------


@pytest.mark.parametrize(
    "args, data",
    [
        (["--method", "dense"], b"a,1\nb,2\n"),
        (["--method", "dense", "--output-format", "json"], b"a,1\nb,2\n"),
        (["--method", "dense", "--input-format", "json-tiers"], b'{"tiers": [["a"], ["b"]]}'),
    ],
    ids=["csv", "csv-to-json", "json-tiers"],
)
def test_subprocess_rank_drops_a_leading_byte_order_mark(tmp_path, args, data):
    outputs = []
    for text in (data, b"\xef\xbb\xbf" + data):
        path = tmp_path / "input"
        path.write_bytes(text)
        for extra, stdin in (([str(path)], b""), ([], text)):
            result = support.run([*support.CLI, "rank", *args, *extra], input=stdin, text=False)
            outputs.append((result.returncode, result.stdout, result.stderr))
    assert outputs[0][0] == 0
    assert outputs == [outputs[0]] * 4
