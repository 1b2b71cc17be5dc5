"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible under ``pytest -s``) and
enforces the criterion's tolerances exactly; positions are exact
rationals, so every comparison here is equality, not approximation.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction as F

import pytest
import support

from rankops import (
    REGISTRY,
    Verdict,
    build_verification_document,
    check,
    dense,
    dense_via_chain,
    enumerate_weak_orders,
    fractional,
    from_tiers,
    modified,
    replay_witness,
    standard,
)
from rankops.axioms import Axiom, engine_ground

def _report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}")


@pytest.fixture(scope="module")
def dense_at_five():
    """The four heavyweight exhaustive checks on the dense rank, run once."""
    op = REGISTRY["dense"]
    return {
        Axiom.SEQUENTIALITY: check(op, Axiom.SEQUENTIALITY, 5),
        Axiom.TRUNCATION: check(op, Axiom.TRUNCATION, 5),
        Axiom.DUPLICATION: check(op, Axiom.DUPLICATION, 5),
        Axiom.UD_INDEPENDENCY: check(op, Axiom.UD_INDEPENDENCY, 5),
    }


def test_criterion_01_rank_table_on_shared_top_pair():
    start = time.perf_counter()
    order = from_tiers([{"x", "y"}, {"z"}])
    observed = {
        "standard": dict(standard(order)),
        "modified": dict(modified(order)),
        "fractional": dict(fractional(order)),
        "dense": dict(dense(order)),
    }
    expected = {
        "standard": {"x": F(1), "y": F(1), "z": F(3)},
        "modified": {"x": F(2), "y": F(2), "z": F(3)},
        "fractional": {"x": F(3, 2), "y": F(3, 2), "z": F(3)},
        "dense": {"x": F(1), "y": F(1), "z": F(2)},
    }
    elapsed = time.perf_counter() - start
    ok = observed == expected and elapsed < 1.0
    _report("criterion 1: four rank columns on the shared-top-pair example", ok)
    assert observed == expected
    assert elapsed < 1.0


def test_criterion_02_dense_on_ten_alternative_example():
    start = time.perf_counter()
    order = from_tiers(
        [{"x3"}, {"x6", "x8"}, {"x1", "x4", "x7", "x10"}, {"x2", "x5", "x9"}]
    )
    positions = dense(order)
    ok = True
    for depth, tier in enumerate(order.tiers, start=1):
        for alt in tier:
            ok = ok and positions[alt] == F(depth)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report("criterion 2: dense positions 1..4 on the ten-alternative example", ok)
    assert ok


def test_criterion_03_sequentiality_plus_duplication_single_out_dense(dense_at_five):
    seq = dense_at_five[Axiom.SEQUENTIALITY]
    dup = dense_at_five[Axiom.DUPLICATION]
    quotient_dup = check(REGISTRY["quotient"], Axiom.DUPLICATION, 3)
    affine_seq = check(REGISTRY["affine"], Axiom.SEQUENTIALITY, 3)
    ok = (
        seq.verdict is Verdict.PASS
        and dup.verdict is Verdict.PASS
        and quotient_dup.verdict is Verdict.FAIL
        and replay_witness(REGISTRY["quotient"], Axiom.DUPLICATION, quotient_dup.witness)
        and affine_seq.verdict is Verdict.FAIL
        and replay_witness(REGISTRY["affine"], Axiom.SEQUENTIALITY, affine_seq.witness)
    )
    _report(
        "criterion 3: dense passes sequentiality+duplication at n<=5;"
        " quotient and affine(2,1) fail with replayable witnesses",
        ok,
    )
    assert seq.verdict is Verdict.PASS and dup.verdict is Verdict.PASS
    assert quotient_dup.verdict is Verdict.FAIL
    assert replay_witness(REGISTRY["quotient"], Axiom.DUPLICATION, quotient_dup.witness)
    assert affine_seq.verdict is Verdict.FAIL
    assert replay_witness(REGISTRY["affine"], Axiom.SEQUENTIALITY, affine_seq.witness)


def test_criterion_04_sequentiality_truncation_ud_single_out_dense(dense_at_five):
    seq = dense_at_five[Axiom.SEQUENTIALITY]
    trunc = dense_at_five[Axiom.TRUNCATION]
    ud = dense_at_five[Axiom.UD_INDEPENDENCY]
    quotient_ud = check(REGISTRY["quotient"], Axiom.UD_INDEPENDENCY, 3)
    plus_n_trunc = check(REGISTRY["plus-n"], Axiom.TRUNCATION, 3)
    list_index_seq = check(REGISTRY["list-index"], Axiom.SEQUENTIALITY, 3)
    contraction_dup = check(REGISTRY["dense-over-tiercount"], Axiom.DUPLICATION, 4)
    contraction_trunc = check(REGISTRY["dense-over-tiercount"], Axiom.TRUNCATION, 3)
    checks = [
        seq.verdict is Verdict.PASS,
        trunc.verdict is Verdict.PASS,
        ud.verdict is Verdict.PASS,
        quotient_ud.verdict is Verdict.FAIL
        and replay_witness(REGISTRY["quotient"], Axiom.UD_INDEPENDENCY, quotient_ud.witness),
        plus_n_trunc.verdict is Verdict.FAIL
        and replay_witness(REGISTRY["plus-n"], Axiom.TRUNCATION, plus_n_trunc.witness),
        list_index_seq.verdict is Verdict.FAIL
        and replay_witness(REGISTRY["list-index"], Axiom.SEQUENTIALITY, list_index_seq.witness),
        contraction_dup.verdict is Verdict.PASS,
        contraction_trunc.verdict is Verdict.FAIL,
    ]
    _report(
        "criterion 4: dense passes sequentiality+truncation+ud-independency at n<=5;"
        " each dropped property re-admits a foil",
        all(checks),
    )
    assert all(checks)


def test_criterion_05_implication_instances_hold():
    document, _ = build_verification_document(4)
    results = document["implications"]
    violations = [r for r in results if r["status"] == "violated"]
    operators = {r["operator"] for r in results}
    ok = not violations and len(operators) == 11
    _report("criterion 5: zero implication violations across all 11 operators at n<=4", ok)
    assert not violations
    assert len(operators) == 11


def test_criterion_06_dense_equals_chain_oracle():
    start = time.perf_counter()
    total = 0
    ok = True
    for order in support.orders_up_to(5):
        total += 1
        ok = ok and dense(order) == dense_via_chain(order)
    elapsed = time.perf_counter() - start
    ok = ok and total == 633 and elapsed < 10.0
    _report("criterion 6: dense equals the chain computation on all 633 orders (n<=5)", ok)
    assert ok


def test_criterion_07_enumeration_counts_match_recurrence():
    start = time.perf_counter()

    def recurrence(n: int) -> int:
        counts = [1]
        for m in range(1, n + 1):
            counts.append(
                sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1))
            )
        return counts[n]

    expected = [1, 3, 13, 75, 541]
    observed = [
        sum(1 for _ in enumerate_weak_orders(engine_ground(n))) for n in range(1, 6)
    ]
    oracle = [recurrence(n) for n in range(1, 6)]
    elapsed = time.perf_counter() - start
    ok = observed == oracle == expected and elapsed < 5.0
    _report("criterion 7: enumeration counts 1,3,13,75,541 match the recurrence", ok)
    assert observed == oracle == expected
    assert elapsed < 5.0


def test_criterion_08_midpoint_identity_and_pointwise_chain():
    ok = True
    for order in support.orders_up_to(5):
        d, s, m, f = dense(order), standard(order), modified(order), fractional(order)
        for alt in order.ground:
            ok = ok and f[alt] == F(s[alt] + m[alt], 2)
            ok = ok and d[alt] <= s[alt] <= f[alt] <= m[alt]
    _report(
        "criterion 8: fractional is the exact midpoint and"
        " dense<=standard<=fractional<=modified pointwise (n<=5)",
        ok,
    )
    assert ok


def test_criterion_09_duplication_shift_patterns():
    ok = True
    for order in support.orders_up_to(4):
        for pattern in order.sorted_alternatives():
            extended = order.duplicate(pattern, "+clone")
            tier = order.tier_index_of(pattern)
            strictly_below = {
                alt for alt in order.ground if order.tier_index_of(alt) > tier
            }
            at_or_below = {
                alt for alt in order.ground if order.tier_index_of(alt) >= tier
            }
            for operator, expected_changed in (
                (standard, strictly_below),
                (modified, at_or_below),
                (fractional, at_or_below),
                (dense, set()),
            ):
                before = operator(order)
                after = operator(extended)
                changed = {alt for alt in order.ground if after[alt] != before[alt]}
                ok = ok and changed == expected_changed
    _report(
        "criterion 9: cloning shifts exactly below (standard), at-or-below"
        " (modified/fractional), nothing (dense), n<=4",
        ok,
    )
    assert ok


def test_criterion_10_cli_end_to_end(tmp_path):
    ranked = support.run([*support.CLI, "rank", "--method", "dense"], input="x,10\ny,10\nz,7\n")
    bytes_ok = ranked.returncode == 0 and ranked.stdout == "id,position\nx,1\ny,1\nz,2\n"

    first_path = tmp_path / "first.json"
    second_path = tmp_path / "second.json"
    first = support.run([*support.CLI, "verify", "--max-n", "4", "--report", str(first_path)])
    second = support.run([*support.CLI, "verify", "--max-n", "4", "--report", str(second_path)])
    verify_ok = first.returncode == 0 and second.returncode == 0
    deterministic = first_path.read_bytes() == second_path.read_bytes()

    ok = bytes_ok and verify_ok and deterministic
    _report(
        "criterion 10: CLI dense ranking is byte-exact, verify exits 0 at"
        " n<=4, and repeated reports are identical",
        ok,
    )
    assert bytes_ok
    assert verify_ok
    assert deterministic
