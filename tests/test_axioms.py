from __future__ import annotations

import dataclasses
import math
from fractions import Fraction as F

import pytest

from rankops import (
    EXPECTED_MATRIX,
    IMPLICATIONS,
    REGISTRY,
    Axiom,
    Verdict,
    Witness,
    build_verification_document,
    check_duplication,
    check_equality,
    check_monotonicity,
    check_neutrality,
    check_sequentiality,
    check_truncation,
    check_ud_independency,
    engine_ground,
    enumerate_weak_orders,
    from_tiers,
    ordered_bell,
    replay_witness,
    run_axiom_reports,
)

AXIOMS = tuple(Axiom)
LETTER = {"P": Verdict.PASS, "F": Verdict.FAIL, "N": Verdict.NOT_APPLICABLE}

# Frozen verdict table, one row per operator, columns in Axiom declaration
# order: equality, neutrality, sequentiality, truncation, duplication,
# ud-independency, monotonicity.
VERDICT_TABLE = {
    "dense": "PPPPPPP",
    "dense-chain": "PPPPPPP",
    "standard": "PPPPFFP",
    "modified": "PPPPFFP",
    "fractional": "PPPPFFP",
    "sequential": "PPPPNNP",
    "quotient": "PPPPFFF",
    "affine": "PPFPPPP",
    "plus-n": "PPPFFPP",
    "list-index": "FFFPFPF",
    "dense-over-tiercount": "PPFFPPP",
}


def _expected(name: str, axiom: Axiom) -> Verdict:
    return LETTER[VERDICT_TABLE[name][AXIOMS.index(axiom)]]


@pytest.fixture(scope="module")
def reports3():
    return run_axiom_reports(3)


@pytest.fixture(scope="module")
def reports4():
    return run_axiom_reports(4)


@pytest.fixture(scope="module")
def document4():
    return build_verification_document(4)


# ----- individual checkers ----------------------------------------------------


def test_equality_verdicts():
    assert check_equality(REGISTRY["dense"], 4).verdict is Verdict.PASS
    assert check_equality(REGISTRY["fractional"], 4).verdict is Verdict.PASS
    report = check_equality(REGISTRY["list-index"], 3)
    assert report.verdict is Verdict.FAIL
    witness = report.witness
    assert witness.base == from_tiers([{"x1", "x2"}])
    assert {witness.before, witness.after} == {F(1), F(2)}


def test_neutrality_verdicts():
    assert check_neutrality(REGISTRY["dense"], 4).verdict is Verdict.PASS
    assert check_neutrality(REGISTRY["standard"], 4).verdict is Verdict.PASS
    assert check_neutrality(REGISTRY["list-index"], 3).verdict is Verdict.FAIL


def test_sequentiality_verdicts():
    assert check_sequentiality(REGISTRY["quotient"], 4).verdict is Verdict.PASS
    affine_report = check_sequentiality(REGISTRY["affine"], 3)
    assert affine_report.verdict is Verdict.FAIL
    assert affine_report.witness.base.is_linear
    assert check_sequentiality(REGISTRY["list-index"], 3).verdict is Verdict.FAIL


def test_truncation_verdicts():
    assert check_truncation(REGISTRY["dense"], 5).verdict is Verdict.PASS
    report = check_truncation(REGISTRY["plus-n"], 3)
    assert report.verdict is Verdict.FAIL
    # first counterexample: one alternative over a tied pair; dropping the
    # tied pair makes the order linear and removes the shift
    assert report.witness.base == from_tiers([{"x1"}, {"x2", "x3"}])
    assert report.witness.before == 4
    assert report.witness.after == 1
    assert check_truncation(REGISTRY["dense-over-tiercount"], 3).verdict is Verdict.FAIL


def test_duplication_verdicts():
    assert check_duplication(REGISTRY["dense"], 5).verdict is Verdict.PASS
    assert check_duplication(REGISTRY["quotient"], 3).verdict is Verdict.FAIL
    report = check_duplication(REGISTRY["standard"], 3)
    assert report.verdict is Verdict.FAIL
    # cloning into the top tier of a two-element linear order already fails
    assert report.witness.base == from_tiers([{"x1"}, {"x2"}])
    assert report.witness.subject == "x2"
    assert (report.witness.before, report.witness.after) == (F(2), F(3))


def test_ud_independency_verdicts():
    assert check_ud_independency(REGISTRY["dense"], 5).verdict is Verdict.PASS
    assert check_ud_independency(REGISTRY["quotient"], 3).verdict is Verdict.FAIL
    report = check_ud_independency(REGISTRY["standard"], 4)
    assert report.verdict is Verdict.FAIL
    assert report.witness.base == from_tiers([{"x1"}, {"x2", "x3"}])
    assert (report.witness.before, report.witness.after) == (F(2), F(3))


def test_monotonicity_verdicts():
    assert check_monotonicity(REGISTRY["dense"], 4).verdict is Verdict.PASS
    assert check_monotonicity(REGISTRY["fractional"], 4).verdict is Verdict.PASS
    assert check_monotonicity(REGISTRY["list-index"], 3).verdict is Verdict.FAIL


def test_linear_only_operator_axioms():
    """Cloning and vertical moves both force ties, so they never apply to
    the linear-only operator; everything else holds on its own domain."""
    sequential_op = REGISTRY["sequential"]
    for checker, axiom in (
        (check_duplication, Axiom.DUPLICATION),
        (check_ud_independency, Axiom.UD_INDEPENDENCY),
    ):
        report = checker(sequential_op, 4)
        assert report.verdict is Verdict.NOT_APPLICABLE
        assert report.cases_checked == 0
        assert report.witness is None
    for checker in (check_equality, check_neutrality, check_truncation, check_monotonicity):
        assert checker(sequential_op, 4).verdict is Verdict.PASS


def test_checkers_reject_tiny_bounds():
    with pytest.raises(ValueError):
        check_equality(REGISTRY["dense"], 1)
    # no legal vertical move exists below three alternatives
    report = check_ud_independency(REGISTRY["standard"], 2)
    assert report.verdict is Verdict.PASS
    assert report.cases_checked == 0


# ----- quantifier bookkeeping ---------------------------------------------------


def _orders_up_to(max_n: int):
    for n in range(1, max_n + 1):
        yield from enumerate_weak_orders(engine_ground(n))


def test_case_counts_match_analytic_values():
    counts = {n: sum(1 for _ in enumerate_weak_orders(engine_ground(n))) for n in range(1, 6)}

    seq = check_sequentiality(REGISTRY["dense"], 5)
    assert seq.cases_checked == sum(math.factorial(n) for n in range(1, 6)) == 153

    dup = check_duplication(REGISTRY["dense"], 5)
    assert dup.cases_checked == sum(n * counts[n] for n in range(1, 6)) == 3051

    trunc = check_truncation(REGISTRY["dense"], 5)
    # exactly one single-tier order exists per ground size
    assert trunc.cases_checked == sum(counts[n] - 1 for n in range(1, 6)) == 628

    # one case per adjacent transposition of x1..xn
    neutral = check_neutrality(REGISTRY["dense"], 4)
    assert neutral.cases_checked == sum(counts[n] * (n - 1) for n in range(1, 5)) == 254

    mono = check_monotonicity(REGISTRY["dense"], 4)
    assert mono.cases_checked == sum(counts[n] * n * (n - 1) for n in range(1, 5)) == 984

    equality = check_equality(REGISTRY["dense"], 4)
    expected_pairs = sum(
        math.comb(len(tier), 2) for order in _orders_up_to(4) for tier in order.tiers
    )
    assert equality.cases_checked == expected_pairs

    ud = check_ud_independency(REGISTRY["dense"], 5)
    expected_moves = sum(
        len(tier) * (order.num_tiers - 1)
        for order in _orders_up_to(5)
        for tier in order.tiers
        if len(tier) >= 2
    )
    assert ud.cases_checked == expected_moves


def test_neutrality_adjacent_transpositions_at_five():
    """The n - 1 adjacent transpositions generate every relabelling, so
    checking them on every order proves neutrality at each size."""
    report = check_neutrality(REGISTRY["dense"], 5)
    assert report.verdict is Verdict.PASS
    assert report.cases_checked == sum(ordered_bell(n) * (n - 1) for n in range(1, 6)) == 2418
    linear = check_neutrality(REGISTRY["sequential"], 5)
    assert linear.cases_checked == sum(math.factorial(n) * (n - 1) for n in range(1, 6)) == 566


# ----- witness soundness and determinism ------------------------------------------


def test_fail_witnesses_replay_through_public_interface(reports3):
    fails = 0
    for (name, axiom), report in reports3.items():
        if report.verdict is Verdict.FAIL:
            fails += 1
            assert report.witness is not None
            assert replay_witness(REGISTRY[name], axiom, report.witness)
        else:
            assert report.witness is None
    assert fails > 0


def test_replay_rejects_doctored_witnesses(reports3):
    for (name, axiom), report in reports3.items():
        if report.verdict is not Verdict.FAIL:
            continue
        witness = report.witness
        altered = dataclasses.replace(witness, after=witness.after + 1)
        assert not replay_witness(REGISTRY[name], axiom, altered), (name, axiom)
        # an order that no case of the base order compares against
        foreign = from_tiers([{"y1"}, {"y2"}])
        stray = dataclasses.replace(witness, transformed=foreign)
        assert not replay_witness(REGISTRY[name], axiom, stray), (name, axiom)


def test_clone_label_skips_a_taken_reserved_label():
    # The base already holds +c0, so duplication clones as +c1; standard
    # then pushes x from 2 to 3.
    base = from_tiers([{"+c0"}, {"x"}])
    witness = Witness(base, base.duplicate("+c0", "+c1"), "x", None, F(2), F(3), "")
    assert replay_witness(REGISTRY["standard"], Axiom.DUPLICATION, witness)


def test_reports_are_deterministic(reports3):
    again = run_axiom_reports(3)
    assert again == reports3


def test_verdicts_stable_between_bounds(reports3, reports4):
    for key, report in reports3.items():
        assert report.verdict is reports4[key].verdict


# ----- matrix and implications ------------------------------------------------------


def test_expected_matrix_matches_frozen_table():
    assert set(VERDICT_TABLE) == set(REGISTRY)
    for name, row in VERDICT_TABLE.items():
        for axiom, letter in zip(AXIOMS, row):
            assert EXPECTED_MATRIX[(name, axiom)].verdict is LETTER[letter], (name, axiom)


def test_observed_verdicts_match_frozen_table(reports4):
    for (name, axiom), report in reports4.items():
        assert report.verdict is _expected(name, axiom), (name, axiom)


def test_verify_matrix_passes_at_four(document4):
    document, ok = document4
    assert ok
    assert len(document["matrix"]) == len(REGISTRY) * len(AXIOMS)
    assert all(row["expected"] == row["observed"] for row in document["matrix"])
    assert document["matrixMatchesExpected"] is True


def test_verify_matrix_reports_mismatches(monkeypatch):
    from rankops import axioms as axioms_module

    key = ("dense", Axiom.EQUALITY)
    doctored = dataclasses.replace(EXPECTED_MATRIX[key], verdict=Verdict.FAIL)
    monkeypatch.setitem(axioms_module.EXPECTED_MATRIX, key, doctored)
    document, ok = build_verification_document(3)
    assert not ok
    assert document["matrixMatchesExpected"] is False
    assert document["allExpected"] is False
    deviating = [row for row in document["matrix"] if row["expected"] != row["observed"]]
    assert [(row["operator"], row["axiom"]) for row in deviating] == [("dense", "equality")]
    assert len(document["matrix"]) == len(REGISTRY) * len(AXIOMS)


def test_implication_instances_hold(document4):
    document, _ = document4
    rows = document["implications"]
    assert len(rows) == len(IMPLICATIONS) * len(REGISTRY)
    assert {r["status"] for r in rows} <= {"consistent", "vacuous"}
    assert document["implicationsConsistent"] is True
    dense_rows = [r for r in rows if r["operator"] == "dense"]
    assert all(r["status"] == "consistent" for r in dense_rows)
    # an operator failing an antecedent is exempt, not violating
    list_index_rows = {r["implication"]: r["status"] for r in rows if r["operator"] == "list-index"}
    assert list_index_rows["sequentiality-truncation-ud-imply-equality"] == "vacuous"
    # duplication-stable operators must come out move-stable as well
    contraction_rows = {
        r["implication"]: r["status"] for r in rows if r["operator"] == "dense-over-tiercount"
    }
    assert contraction_rows["duplication-implies-ud-independency"] == "consistent"


def test_implication_violation_is_detected(monkeypatch):
    from rankops import axioms as axioms_module

    check = axioms_module.CHECKERS[Axiom.EQUALITY]

    def doctored(op, max_n):
        report = check(op, max_n)
        if op.name == "dense":
            report = dataclasses.replace(report, verdict=Verdict.FAIL)
        return report

    monkeypatch.setitem(axioms_module.CHECKERS, Axiom.EQUALITY, doctored)
    document, ok = build_verification_document(3)
    assert not ok
    assert document["implicationsConsistent"] is False
    assert {
        "implication": "neutrality-implies-equality",
        "operator": "dense",
        "status": "violated",
    } in document["implications"]


def test_verification_document_structure_and_determinism():
    import json

    first, ok_first = build_verification_document(3)
    second, ok_second = build_verification_document(3)
    assert ok_first and ok_second
    assert json.dumps(first) == json.dumps(second)
    assert first["allExpected"] is True
    assert len(first["matrix"]) == len(REGISTRY) * len(AXIOMS)
    by_cell = {(c["operator"], c["axiom"]): c for c in first["matrix"]}
    dup_cell = by_cell[("standard", "duplication")]
    assert dup_cell["observed"] == "fail"
    assert dup_cell["witness"] is not None
    assert dup_cell["witness"]["base"]["tiers"] == [["x1"], ["x2"]]
    # a JSON round trip of the full document must be loss-free
    assert json.loads(json.dumps(first)) == first


def test_engine_ground_labels():
    assert engine_ground(3) == ("x1", "x2", "x3")
