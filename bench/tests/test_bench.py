"""Tests of the benchmark itself: inputs, output checks and tracing.

Run from the root of the checkout with ``python -m pytest bench/tests``.
Each output check is shown to accept the program's real output and to
reject a corrupted copy of it.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import inputs
import run
import tracing
from rankops import cli
from rankops.axioms import build_verification_document
from rankops.cli import rank_payload

ROOT = Path(__file__).resolve().parents[2]


# ----- inputs ---------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    assert inputs.distinct_csv(7, rows=50) == inputs.distinct_csv(7, rows=50)
    assert inputs.distinct_csv(7, rows=50) != inputs.distinct_csv(8, rows=50)
    assert inputs.ties_csv(7, rows=500) == inputs.ties_csv(7, rows=500)
    assert inputs.ties_csv(7, rows=500) != inputs.ties_csv(8, rows=500)


def test_score_styles_write_the_same_value():
    for m in (0, 5, -5, 1000, -123456, 7_000_010):
        values = {Decimal(inputs.render_score(m, style)) for style in range(3)}
        assert values == {Decimal(m).scaleb(-inputs.SCALE)}


def test_distinct_input_has_one_tier_per_row():
    rows = checks.parse_scores(inputs.distinct_csv(3, rows=2000))
    assert len({score for _, score in rows}) == len({ident for ident, _ in rows}) == 2000


def test_ties_input_merges_some_gaps_but_not_all():
    scores = [score for _, score in checks.parse_scores(inputs.ties_csv(3))]
    distinct = sorted(set(scores))
    assert len(distinct) == inputs.TIES_VALUES
    gaps = [b - a for a, b in zip(distinct, distinct[1:])]
    epsilon = Decimal(inputs.TIES_EPSILON)
    assert any(gap <= epsilon for gap in gaps) and any(gap > epsilon for gap in gaps)
    tiers = checks.tier_sizes(scores, epsilon)
    assert 1 < len(tiers) < inputs.TIES_VALUES
    assert sum(tiers) == inputs.TIES_ROWS


# ----- rank checks ----------------------------------------------------------

SMALL_TIES = inputs.ties_csv(5, rows=400, count=40)


@pytest.mark.parametrize("method", ["dense", "standard", "modified", "fractional"])
@pytest.mark.parametrize("epsilon", ["0", inputs.TIES_EPSILON])
def test_expected_ranking_agrees_with_the_program(method, epsilon):
    expected = checks.expected_ranking(SMALL_TIES, method, epsilon)
    checks.check_rank_csv(rank_payload(SMALL_TIES, method=method, tie_epsilon=epsilon), expected)
    output = rank_payload(SMALL_TIES, method=method, tie_epsilon=epsilon, output_format="json")
    checks.check_rank_json(output, expected, method)


def _csv_output() -> tuple[list[str], list]:
    expected = checks.expected_ranking(SMALL_TIES, "fractional")
    lines = rank_payload(SMALL_TIES, method="fractional").split("\n")
    return lines, expected


def test_csv_check_rejects_a_position_off_by_one():
    lines, expected = _csv_output()
    ident, _, position = lines[5].rpartition(",")
    lines[5] = f"{ident},{Fraction(position) + 1}"
    with pytest.raises(checks.CheckFailed, match="has position"):
        checks.check_rank_csv("\n".join(lines), expected)


def test_csv_check_rejects_a_missing_id():
    lines, expected = _csv_output()
    del lines[7]
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.check_rank_csv("\n".join(lines), expected)


def test_csv_check_rejects_a_repeated_id():
    lines, expected = _csv_output()
    lines[7] = lines[8]
    with pytest.raises(checks.CheckFailed, match="more than once"):
        checks.check_rank_csv("\n".join(lines), expected)


def test_csv_check_rejects_rows_out_of_order():
    lines, expected = _csv_output()
    lines[1], lines[-2] = lines[-2], lines[1]
    with pytest.raises(checks.CheckFailed, match="sorted"):
        checks.check_rank_csv("\n".join(lines), expected)


def test_csv_check_rejects_an_unreduced_position():
    lines, expected = _csv_output()
    ident, _, position = lines[1].rpartition(",")
    value = Fraction(position)
    lines[1] = f"{ident},{value.numerator * 2}/{value.denominator * 2}"
    with pytest.raises(checks.CheckFailed, match="reduced"):
        checks.check_rank_csv("\n".join(lines), expected)


def test_json_check_rejects_corruptions():
    expected = checks.expected_ranking(SMALL_TIES, "fractional", inputs.TIES_EPSILON)
    output = rank_payload(SMALL_TIES, method="fractional", tie_epsilon=inputs.TIES_EPSILON, output_format="json")
    payload = json.loads(output)
    checks.check_rank_json(output, expected, "fractional")

    off = copy.deepcopy(payload)
    off["positions"][3]["position"]["numerator"] += off["positions"][3]["position"]["denominator"]
    with pytest.raises(checks.CheckFailed, match="has position"):
        checks.check_rank_json(json.dumps(off), expected, "fractional")

    missing = copy.deepcopy(payload)
    del missing["positions"][0]
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.check_rank_json(json.dumps(missing), expected, "fractional")

    with pytest.raises(checks.CheckFailed, match="method"):
        checks.check_rank_json(output, expected, "dense")


def test_linear_check_requires_one_to_n():
    text = inputs.distinct_csv(4, rows=300)
    output = rank_payload(text, method="dense")
    checks.check_linear_positions(output)
    lines = output.split("\n")
    lines[2] = lines[2].rpartition(",")[0] + ",1"
    with pytest.raises(checks.CheckFailed):
        checks.check_linear_positions("\n".join(lines))


def test_huge_exponent_check():
    order = inputs.HUGE_EXPONENT_ORDER
    checks.check_huge(0, "id,position\na,1\nc,2\nb,3\n", "", order)
    checks.check_huge(2, "", "error: score out of range\n", order)
    with pytest.raises(checks.CheckFailed):
        checks.check_huge(0, "id,position\na,1\nb,2\nc,3\n", "", order)
    with pytest.raises(checks.CheckFailed):
        checks.check_huge(2, "", "Traceback (most recent call last):\nValueError\n", order)
    with pytest.raises(checks.CheckFailed):
        checks.check_huge(1, "", "error\n", order)


# ----- verify checks --------------------------------------------------------


def test_case_counts_match_the_closed_forms():
    counts = checks.expected_case_counts(5)
    assert counts["sequentiality"] == 153
    assert counts["truncation"] == 628
    assert counts["duplication"] == 3051
    assert counts["monotonicity"] == 11804
    assert "neutrality" not in counts


@pytest.fixture(scope="module")
def report_at_four():
    document, ok = build_verification_document(4)
    assert ok
    return document


def _cell(document: dict, operator: str, axiom: str) -> dict:
    return next(c for c in document["matrix"] if c["operator"] == operator and c["axiom"] == axiom)


def test_verify_check_accepts_the_real_report(report_at_four):
    checks.check_verify(0, json.dumps(report_at_four), 4)


def _rejects(document: dict, match: str, returncode: int = 0) -> None:
    with pytest.raises(checks.CheckFailed, match=match):
        checks.check_verify(returncode, json.dumps(document), 4)


def test_verify_check_rejects_a_flipped_verdict(report_at_four):
    flipped = copy.deepcopy(report_at_four)
    _cell(flipped, "dense", "truncation")["observed"] = "fail"
    _rejects(flipped, "dense does not pass")
    flipped = copy.deepcopy(report_at_four)
    _cell(flipped, "standard", "duplication")["observed"] = "pass"
    _rejects(flipped, "bundle")


def test_verify_check_rejects_a_wrong_case_count(report_at_four):
    wrong = copy.deepcopy(report_at_four)
    _cell(wrong, "modified", "monotonicity")["casesChecked"] += 1
    _rejects(wrong, "cases")


def test_verify_check_rejects_a_bad_witness(report_at_four):
    wrong = copy.deepcopy(report_at_four)
    witness = _cell(wrong, "standard", "duplication")["witness"]
    witness["after"] = witness["before"]
    _rejects(wrong, "witness")


def test_verify_check_rejects_a_missing_cell_and_a_mismatch(report_at_four):
    wrong = copy.deepcopy(report_at_four)
    del wrong["matrix"][10]
    _rejects(wrong, "one cell")
    wrong = copy.deepcopy(report_at_four)
    wrong["allExpected"] = False
    _rejects(wrong, "allExpected")
    _rejects(report_at_four, "exited", returncode=1)


def test_every_fail_witness_is_recomputed(report_at_four):
    failing = [c for c in report_at_four["matrix"] if c["observed"] == "fail"]
    assert {c["axiom"] for c in failing} == set(checks.AXIOMS)
    for cell in failing:
        checks.check_witness(cell["operator"], cell["axiom"], cell["witness"])


# ----- tracing and run.py ----------------------------------------------------


def test_traced_verify_counts_cases_as_the_report_does(tmp_path):
    report = tmp_path / "report.json"
    tracer = tracing.Tracer()
    original = cli.main
    with tracing.traced(tracer), redirect_stderr(io.StringIO()):
        assert cli.main(["verify", "--max-n", "3", "--report", str(report)]) == 0
    assert cli.main is original
    metrics = tracer.metrics(checks.AXIOMS)
    checks.check_traced_cases(report.read_text(), metrics)
    metrics["axioms.cases.neutrality"] += 1
    with pytest.raises(checks.CheckFailed, match="neutrality"):
        checks.check_traced_cases(report.read_text(), metrics)
    metrics["axioms.cases.neutrality"] -= 1
    assert metrics["operators.evaluations"] > metrics["orders.enumerated"] > 0
    assert 0 < metrics["operators.distinct_ratio"] < 1
    assert metrics["axioms.document_s"] <= metrics["cli.main_s"]
    assert 0 <= metrics["axioms.self_s"] <= sum(metrics[f"axioms.check_s.{a}"] for a in checks.AXIOMS)


def test_benchmark_json_names_every_metric_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank-ties", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
