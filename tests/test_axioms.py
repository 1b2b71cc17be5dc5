from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction as F

import pytest
import support

from rankops import (
    EXPECTED_MATRIX,
    IMPLICATIONS,
    REGISTRY,
    Axiom,
    Domain,
    PositionAssignment,
    PositionOperator,
    Verdict,
    WeakOrder,
    Witness,
    build_verification_document,
    check,
    dense,
    engine_ground,
    enumerate_weak_orders,
    from_tiers,
    get_operator,
    label_key,
    make_affine_operator,
    ordered_bell,
    replay_witness,
    run_axiom_reports,
    standard,
)
from rankops.axioms import _DEFINITIONS, _Universe
from rankops.cli import main
from rankops.operators import _by_tier, _dense_rule, _tier_rule_operator

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
    assert check(REGISTRY["dense"], Axiom.EQUALITY, 4).verdict is Verdict.PASS
    assert check(REGISTRY["fractional"], Axiom.EQUALITY, 4).verdict is Verdict.PASS
    report = check(REGISTRY["list-index"], Axiom.EQUALITY, 3)
    assert report.verdict is Verdict.FAIL
    witness = report.witness
    assert witness.base == from_tiers([{"x1", "x2"}])
    assert {witness.before, witness.after} == {F(1), F(2)}


def test_sequentiality_verdicts():
    assert check(REGISTRY["quotient"], Axiom.SEQUENTIALITY, 4).verdict is Verdict.PASS
    affine_report = check(REGISTRY["affine"], Axiom.SEQUENTIALITY, 3)
    assert affine_report.verdict is Verdict.FAIL
    assert affine_report.witness.base.is_linear
    assert check(REGISTRY["list-index"], Axiom.SEQUENTIALITY, 3).verdict is Verdict.FAIL


def test_sequentiality_blames_the_operator_at_fault(monkeypatch):
    """Sequentiality compares with the order's own 1..n, not with an
    operator: when the shared tier loop counts from 0, the operators built
    on it fail and the independent ``dense-chain`` still passes."""
    from rankops import operators as operators_module

    def from_zero(order, rule):
        return _by_tier(order, lambda sizes: [value - 1 for value in rule(sizes)])

    monkeypatch.setattr(operators_module, "_by_tier", from_zero)
    for name in ("dense", "standard"):
        report = check(REGISTRY[name], Axiom.SEQUENTIALITY, 3)
        assert report.verdict is Verdict.FAIL, name
        assert report.witness.base == from_tiers([{"x1"}])
        assert (report.witness.before, report.witness.after) == (F(1), F(0))
    assert check(REGISTRY["dense-chain"], Axiom.SEQUENTIALITY, 3).verdict is Verdict.PASS


class _FiveMembers:
    """All that a definition may read of its positions: ``__slots__``
    admits no other member, and each one is the real table's."""

    __slots__ = ("slot", "clone", "alternatives", "at", "evaluate")

    def __init__(self, positions):
        for name in self.__slots__:
            setattr(self, name, getattr(positions, name))


def _scan(cases_of, positions, orders):
    """The cases up to the first violation, and its witness, in a full scan
    of ``orders``."""
    cases = 0
    for order, code, _ in orders:
        for witness in cases_of(positions, order, code):
            cases += 1
            if witness is not None:
                return cases, witness
    return cases, None


def test_definitions_run_without_the_driver():
    """Each definition takes an order and its code, states which orders it
    speaks of, and reads only five members of its positions; so run on every
    order of the universe through those five alone, it yields the cases and
    the first violation that ``check`` reports."""
    dense_op = REGISTRY["dense"]
    unmarked = PositionOperator(dense_op.name, dense_op.domain, dense_op.fn)
    universe = _Universe(4)
    for op in (dense_op, REGISTRY["list-index"], unmarked):
        positions = _FiveMembers(universe.positions(op))
        for axiom, cases_of in _DEFINITIONS.items():
            report = check(op, axiom, 4)
            scanned = _scan(cases_of, positions, universe.orders)
            assert scanned == (report.cases_checked, report.witness), (op.name, axiom)


def test_truncation_verdicts():
    assert check(REGISTRY["dense"], Axiom.TRUNCATION, 5).verdict is Verdict.PASS
    report = check(REGISTRY["plus-n"], Axiom.TRUNCATION, 3)
    assert report.verdict is Verdict.FAIL
    # first counterexample: one alternative over a tied pair; dropping the
    # tied pair makes the order linear and removes the shift
    assert report.witness.base == from_tiers([{"x1"}, {"x2", "x3"}])
    assert report.witness.before == 4
    assert report.witness.after == 1
    assert check(REGISTRY["dense-over-tiercount"], Axiom.TRUNCATION, 3).verdict is Verdict.FAIL


def test_duplication_verdicts():
    assert check(REGISTRY["dense"], Axiom.DUPLICATION, 5).verdict is Verdict.PASS
    assert check(REGISTRY["quotient"], Axiom.DUPLICATION, 3).verdict is Verdict.FAIL
    report = check(REGISTRY["standard"], Axiom.DUPLICATION, 3)
    assert report.verdict is Verdict.FAIL
    # cloning into the top tier of a two-element linear order already fails
    assert report.witness.base == from_tiers([{"x1"}, {"x2"}])
    assert report.witness.subject == "x2"
    assert (report.witness.before, report.witness.after) == (F(2), F(3))


def test_ud_independency_verdicts():
    assert check(REGISTRY["dense"], Axiom.UD_INDEPENDENCY, 5).verdict is Verdict.PASS
    assert check(REGISTRY["quotient"], Axiom.UD_INDEPENDENCY, 3).verdict is Verdict.FAIL
    report = check(REGISTRY["standard"], Axiom.UD_INDEPENDENCY, 4)
    assert report.verdict is Verdict.FAIL
    assert report.witness.base == from_tiers([{"x1"}, {"x2", "x3"}])
    assert (report.witness.before, report.witness.after) == (F(2), F(3))


def test_linear_only_operator_axioms():
    """Cloning and vertical moves both force ties, so they never apply to
    the linear-only operator; everything else holds on its own domain."""
    sequential_op = REGISTRY["sequential"]
    for axiom in (Axiom.DUPLICATION, Axiom.UD_INDEPENDENCY):
        report = check(sequential_op, axiom, 4)
        assert report.verdict is Verdict.NOT_APPLICABLE
        assert report.cases_checked == 0
        assert report.witness is None
    for axiom in (Axiom.EQUALITY, Axiom.NEUTRALITY, Axiom.TRUNCATION, Axiom.MONOTONICITY):
        assert check(sequential_op, axiom, 4).verdict is Verdict.PASS


def test_checkers_reject_tiny_bounds():
    with pytest.raises(ValueError):
        check(REGISTRY["dense"], Axiom.EQUALITY, 1)
    # no legal vertical move exists below three alternatives
    report = check(REGISTRY["standard"], Axiom.UD_INDEPENDENCY, 2)
    assert report.verdict is Verdict.PASS
    assert report.cases_checked == 0


@pytest.mark.parametrize("run", [run_axiom_reports, build_verification_document])
def test_whole_runs_reject_tiny_bounds(run):
    with pytest.raises(ValueError, match=r"^max_n must be at least 2, got 1$"):
        run(1)


# ----- quantifier bookkeeping ---------------------------------------------------


def test_case_counts_match_analytic_values():
    counts = {n: sum(1 for _ in enumerate_weak_orders(engine_ground(n))) for n in range(1, 6)}

    seq = check(REGISTRY["dense"], Axiom.SEQUENTIALITY, 5)
    assert seq.cases_checked == sum(math.factorial(n) for n in range(1, 6)) == 153

    dup = check(REGISTRY["dense"], Axiom.DUPLICATION, 5)
    assert dup.cases_checked == sum(n * counts[n] for n in range(1, 6)) == 3051

    trunc = check(REGISTRY["dense"], Axiom.TRUNCATION, 5)
    # exactly one single-tier order exists per ground size
    assert trunc.cases_checked == sum(counts[n] - 1 for n in range(1, 6)) == 628

    # one case per order
    neutral = check(REGISTRY["dense"], Axiom.NEUTRALITY, 4)
    assert neutral.cases_checked == sum(counts[n] for n in range(1, 5)) == 92

    mono = check(REGISTRY["dense"], Axiom.MONOTONICITY, 4)
    assert mono.cases_checked == sum(counts[n] * n * (n - 1) for n in range(1, 5)) == 984

    equality = check(REGISTRY["dense"], Axiom.EQUALITY, 4)
    expected_pairs = sum(
        math.comb(len(tier), 2) for order in support.orders_up_to(4) for tier in order.tiers
    )
    assert equality.cases_checked == expected_pairs

    ud = check(REGISTRY["dense"], Axiom.UD_INDEPENDENCY, 5)
    expected_moves = sum(
        len(tier) * (order.num_tiers - 1)
        for order in support.orders_up_to(5)
        for tier in order.tiers
        if len(tier) >= 2
    )
    assert ud.cases_checked == expected_moves


def test_neutrality_one_case_per_order_at_five():
    """Comparing each order with its shape's canonical order proves
    neutrality at each size, one case per order in the domain."""
    report = check(REGISTRY["dense"], Axiom.NEUTRALITY, 5)
    assert report.verdict is Verdict.PASS
    assert report.cases_checked == sum(ordered_bell(n) for n in range(1, 6)) == 633
    linear = check(REGISTRY["sequential"], Axiom.NEUTRALITY, 5)
    assert linear.cases_checked == sum(math.factorial(n) for n in range(1, 6)) == 153


def _x3_on_top(order):
    shift = 1 if "x3" in order.tiers[0] else 0
    return _by_tier(order, lambda sizes: range(1 + shift, len(sizes) + 1 + shift))


def _tier_members_by_label(order):
    """Dense rank plus a tie-break by label inside each tier."""
    return PositionAssignment(
        {
            alt: F(depth) + F(index, len(tier) + 1)
            for depth, tier in enumerate(order.tiers, start=1)
            for index, alt in enumerate(sorted(tier, key=label_key))
        }
    )


def _x2_over_x1_shifted(order):
    """Dense rank, shifted by one on the linear orders that put x2 above x1
    and on no other, so it agrees with dense on every canonical order."""
    shift = 0
    if order.is_linear and {"x1", "x2"} <= order.ground:
        shift = int(order.tier_index_of("x2") < order.tier_index_of("x1"))
    return _by_tier(order, lambda sizes: range(1 + shift, len(sizes) + 1 + shift))


def _marked(name, fn):
    """``fn`` under a tier rule's mark, though it reads labels: the mark's
    promise broken on purpose.  The mark vouches for no function, so the
    engine scans such an operator order by order."""
    op = PositionOperator(name, Domain.ALL_WEAK_ORDERS, fn)
    object.__setattr__(op, "_tier_rule", _dense_rule)
    return op


LABEL_RULES = {
    "x3-on-top": _x3_on_top,
    "tier-members-by-label": _tier_members_by_label,
    "x2-over-x1-shifted": _x2_over_x1_shifted,
}
NEUTRALITY_SUBJECTS = {
    **REGISTRY,
    **{
        f"{name}-{kind}": make(name, fn)
        for name, fn in LABEL_RULES.items()
        for kind, make in (
            ("marked", _marked),
            ("unmarked", lambda name, fn: PositionOperator(name, Domain.ALL_WEAK_ORDERS, fn)),
        )
    },
}


def _neutral_at(op, n) -> bool:
    """Neutrality on the orders on x1..xn by its definition: every
    permutation sigma of x1..xn gives op(sigma R)(sigma x) = op(R)(x)."""
    ground = engine_ground(n)
    for order in enumerate_weak_orders(ground):
        if not op.in_domain(order):
            continue
        positions = op(order)
        for image in itertools.permutations(ground):
            sigma = dict(zip(ground, image))
            moved = op(order.relabel(sigma))
            if any(moved[sigma[alt]] != positions[alt] for alt in ground):
                return False
    return True


@pytest.mark.parametrize("name", sorted(NEUTRALITY_SUBJECTS))
def test_neutrality_agrees_with_every_permutation(name):
    op = NEUTRALITY_SUBJECTS[name]
    neutral = True
    for n in range(1, 5):
        neutral = neutral and _neutral_at(op, n)
        if n < 2:
            continue
        report = check(op, Axiom.NEUTRALITY, n)
        assert report.verdict is (Verdict.PASS if neutral else Verdict.FAIL), n
        if not neutral:
            assert replay_witness(op, Axiom.NEUTRALITY, report.witness), n
    if name.endswith("-marked"):
        # a marked rule that reads a label is still caught
        assert not neutral


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


def test_witnesses_carry_the_operators_fractions(reports4):
    """An id leaked into a witness would still replay, since the replay goes
    through the same tables, and a small id can print like a position."""
    fails = [(key, r.witness) for key, r in reports4.items() if r.verdict is Verdict.FAIL]
    assert fails
    for key, witness in fails:
        assert type(witness.before) is F and type(witness.after) is F, key
    witness = reports4[("standard", Axiom.DUPLICATION)].witness
    assert witness.before == standard(witness.base)[witness.subject]
    assert witness.after == standard(witness.transformed)[witness.subject]


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


# SHA-256 of the report ``verify --max-n N`` writes.  Any change to a
# verdict, a case count, a witness or the serialisation shows here.
REPORT_SHA256 = {
    3: "d7a807add60745713090bc03c4206af3560ef16be387ea89c922ce511f3aa8af",
    4: "6c630c1635db6766964d515357adbd9361c4f64054f2b1f1b72e28433c37276e",
    5: "62fcc2c292b1799f44c0917b76ed3cd6971a7f70237e3adfe8cdd2012ffb3310",
}


@pytest.mark.parametrize("max_n", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(max_n):
    document, ok = build_verification_document(max_n)
    assert ok
    data = (json.dumps(document, indent=2) + "\n").encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == REPORT_SHA256[max_n]


def test_verify_command_writes_the_pinned_bytes(tmp_path, capsysbinary):
    """The command's own serialisation, to stdout and to ``--report``, gives
    the pinned bytes; the test above serialises the document itself."""
    assert main(["verify", "--max-n", "3"]) == 0
    stdout = capsysbinary.readouterr().out
    report = tmp_path / "report.json"
    assert main(["verify", "--max-n", "3", "--report", str(report)]) == 0
    assert capsysbinary.readouterr().out == b""
    for data in (stdout, report.read_bytes()):
        assert hashlib.sha256(data).hexdigest() == REPORT_SHA256[3]


# ----- the shared universe and position tables -------------------------------


def _has_clone(order) -> bool:
    return any(str(alt).startswith("+c") for alt in order.ground)


def test_cells_checked_alone_match_the_shared_run(reports3, reports4):
    for max_n, reports in ((3, reports3), (4, reports4)):
        for (name, axiom), report in reports.items():
            assert check(REGISTRY[name], axiom, max_n) == report, (name, axiom, max_n)


def test_clone_orders_are_always_evaluated():
    """An operator that values a clone label one higher than dense fails
    duplication on the clone itself, which a table lookup could not see."""

    def clone_shifted(order):
        positions = dense(order)
        return PositionAssignment(
            {alt: positions[alt] + (1 if str(alt).startswith("+") else 0) for alt in positions}
        )

    op = PositionOperator("clone-shifted", Domain.ALL_WEAK_ORDERS, clone_shifted)
    report = check(op, Axiom.DUPLICATION, 4)
    assert report.verdict is Verdict.FAIL
    assert report.witness.subject == "+c0"
    assert (report.witness.before, report.witness.after) == (F(1), F(2))
    assert replay_witness(op, Axiom.DUPLICATION, report.witness)


@pytest.mark.parametrize("axiom", AXIOMS)
def test_equality_type_cells_compare_no_fractions(monkeypatch, axiom):
    """Every cell compares exact (numerator, denominator) pairs, monotonicity
    by cross-multiplying; only a witness builds a ``Fraction``."""
    calls = Counter()
    for name in ("__eq__", "__lt__", "__le__"):
        original = getattr(F, name)

        def counted(self, other, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, other)

        monkeypatch.setattr(F, name, counted)
    report = check(REGISTRY["dense"], axiom, 4)
    assert report.verdict is Verdict.PASS
    assert calls == Counter()


def test_large_numerators_and_denominators_compare_exactly():
    """Positions far beyond the registry's: 10**40 + 1/10**40 is not 1, and
    a constant 5 is not monotone, in the marked and the unmarked scan."""
    tiny_slope = make_affine_operator(F(1, 10**40), 10**40)
    constant = make_affine_operator(0, 5)
    for op, verdicts in ((tiny_slope, "PPFPPPP"), (constant, "PPFPPPF")):
        copy = PositionOperator(op.name, op.domain, op.fn)
        reports = {axiom: check(op, axiom, 4) for axiom in Axiom}
        assert [reports[axiom].verdict for axiom in Axiom] == [LETTER[v] for v in verdicts]
        assert reports == {axiom: check(copy, axiom, 4) for axiom in Axiom}
    witness = check(tiny_slope, Axiom.SEQUENTIALITY, 4).witness
    assert witness.base == from_tiers([["x1"]])
    assert (witness.before, witness.after) == (1, 10**40 + F(1, 10**40))
    report = check(constant, Axiom.MONOTONICITY, 4)
    assert report.cases_checked == 2
    assert report.witness.base == from_tiers([["x1"], ["x2"]])
    assert (report.witness.before, report.witness.after) == (5, 5)


def _counted_calls(monkeypatch) -> Counter:
    """The operator calls from here on, counted by (operator name, order)."""
    evaluated = Counter()
    call = PositionOperator.__call__

    def counted(op, order):
        evaluated[(op.name, order)] += 1
        return call(op, order)

    monkeypatch.setattr(PositionOperator, "__call__", counted)
    return evaluated


def test_a_run_evaluates_each_order_once_per_operator(monkeypatch):
    evaluated = _counted_calls(monkeypatch)
    run_axiom_reports(4)
    assert {name for name, _ in evaluated} == set(REGISTRY)
    assert any(_has_clone(order) for _, order in evaluated)
    repeated = [key for key, count in evaluated.items() if count > 1 and not _has_clone(key[1])]
    assert repeated == []


def test_a_cell_checked_alone_evaluates_only_the_orders_it_speaks_of(monkeypatch):
    """Sequentiality speaks of linear orders only: 153 of the 633 orders on
    up to five alternatives.  A public copy of dense-chain is scanned order
    by order."""
    evaluated = _counted_calls(monkeypatch)
    chain = REGISTRY["dense-chain"]
    report = check(PositionOperator(chain.name, chain.domain, chain.fn), Axiom.SEQUENTIALITY, 5)
    assert report.verdict is Verdict.PASS
    assert report.cases_checked == sum(evaluated.values()) == 153


def test_evaluate_hands_out_each_position_as_its_pair():
    universe = _Universe(4)
    fractional = set()
    for op in REGISTRY.values():
        positions = universe.positions(op)
        for order in support.orders_up_to(4):
            if op.in_domain(order):
                expected = {alt: (value.numerator, value.denominator) for alt, value in op(order).items()}
                assert positions.evaluate(order) == expected, (op.name, order)
                if any(denominator != 1 for _, denominator in expected.values()):
                    fractional.add(op.name)
    assert fractional == {"fractional", "quotient", "dense-over-tiercount"}


# ----- one order per tier-size shape ------------------------------------------------

TIER_RULES = {
    "dense",
    "standard",
    "modified",
    "fractional",
    "sequential",
    "quotient",
    "affine",
    "plus-n",
    "dense-over-tiercount",
}


def test_only_tier_rule_operators_are_marked():
    assert {name for name, op in REGISTRY.items() if op._tier_rule is not None} == TIER_RULES
    assert get_operator("affine:a=3,b=0")._tier_rule is not None
    dense_op = REGISTRY["dense"]
    unmarked = [
        REGISTRY["list-index"],
        REGISTRY["dense-chain"],
        PositionOperator(dense_op.name, dense_op.domain, dense_op.fn),
        dataclasses.replace(dense_op),
    ]
    assert all(op._tier_rule is None for op in unmarked)
    # The operators whose cells visit one order per shape carry their own fn
    # as vouched label-free: the tier rules and dense-chain, no public copy.
    vouched = {name for name, op in REGISTRY.items() if op._label_free_fn is not None}
    assert vouched == TIER_RULES | {"dense-chain"}
    assert all(REGISTRY[name].fn is REGISTRY[name]._label_free_fn for name in vouched)
    affine = get_operator("affine:a=3,b=0")
    assert affine.fn is affine._label_free_fn
    for op in (dense_op, REGISTRY["dense-chain"]):
        for copy in (PositionOperator(op.name, op.domain, op.fn), dataclasses.replace(op)):
            assert copy._label_free_fn is None, op.name


def test_shape_reduced_cells_match_full_scans():
    """A public construction carries no vouched function, so its copy is
    scanned in full: every cell must report the same verdict, count and
    witness, dense-chain's too."""
    for name, op in REGISTRY.items():
        copy = PositionOperator(op.name, op.domain, op.fn)
        for axiom in Axiom:
            assert check(op, axiom, 5) == check(copy, axiom, 5), (name, axiom)


def test_a_constructor_built_rule_runs_one_order_per_shape_and_any_other_fn_every_order(monkeypatch):
    def relabel(order, mapping):
        raise AssertionError(f"a passing neutrality cell built a relabelled [{order}]")

    calls = _counted_calls(monkeypatch)
    monkeypatch.setattr(WeakOrder, "relabel", relabel)
    universe = set(support.orders_up_to(4))
    dense_op = REGISTRY["dense"]
    for axiom in (Axiom.NEUTRALITY, Axiom.MONOTONICITY):
        calls.clear()
        report = check(dense_op, axiom, 4)
        # one order per composition of n = 1..4 into tier sizes
        assert len(calls) == 1 + 2 + 4 + 8, axiom
        assert report.verdict is Verdict.PASS, axiom
    assert check(dense_op, Axiom.NEUTRALITY, 4).cases_checked == 92
    # Any other fn has its neutrality scanned order by order: a public copy
    # of dense through the whole universe, and a marked rule that reads x3
    # up to its witness on three alternatives.
    calls.clear()
    check(PositionOperator(dense_op.name, dense_op.domain, dense_op.fn), Axiom.NEUTRALITY, 4)
    assert universe <= {order for _, order in calls}
    calls.clear()
    witness = check(_marked("x3-on-top", _x3_on_top), Axiom.NEUTRALITY, 4).witness
    assert witness.base.n == 3
    scan = [order for order, _, _ in _Universe(4).orders]
    assert set(scan[: scan.index(witness.base) + 1]) <= {order for _, order in calls}
    # dense-chain is vouched too, so its cells visit shapes; its public copy
    # is scanned order by order.
    chain = REGISTRY["dense-chain"]
    calls.clear()
    check(chain, Axiom.MONOTONICITY, 4)
    assert len(calls) == 1 + 2 + 4 + 8
    calls.clear()
    check(PositionOperator(chain.name, chain.domain, chain.fn), Axiom.MONOTONICITY, 4)
    assert {order for _, order in calls} == universe


def _wrong_on_four(sizes):
    """The dense rule, one too high on four alternatives."""
    shift = int(sum(sizes) == 4)
    return range(1 + shift, len(sizes) + 1 + shift)


def _wrong_on_one_over_two(sizes):
    """The dense rule, but 1 and 3 for one alternative over a tied pair."""
    return [1, 3] if list(sizes) == [1, 2] else _dense_rule(sizes)


# Tier rules that fail on one shape's first order, each with the cells it fails.
SHAPE_FOILS = {
    "wrong-on-four": (
        _tier_rule_operator("wrong-on-four", _wrong_on_four, Domain.LINEAR_ONLY),
        {Axiom.SEQUENTIALITY, Axiom.TRUNCATION},
    ),
    "wrong-on-one-over-two": (
        _tier_rule_operator("wrong-on-one-over-two", _wrong_on_one_over_two),
        {Axiom.TRUNCATION, Axiom.DUPLICATION, Axiom.UD_INDEPENDENCY},
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPE_FOILS))
def test_a_failing_tier_rule_reports_what_a_full_scan_does(name):
    """A tier rule's cell visits one order per shape, so on a failure it
    counts the cases of every order the scan meets first: later orders of
    earlier shapes too (truncation fails on {x1} > {x2, x3} > {x4}, after
    x2 > x1), and none of the shapes with a tie that a linear-only operator
    skips.  The public copy of the rule is scanned order by order."""
    op, failing = SHAPE_FOILS[name]
    scanned = PositionOperator(op.name, op.domain, op.fn)
    failed = set()
    for axiom in Axiom:
        report = check(op, axiom, 5)
        assert report == check(scanned, axiom, 5), axiom
        if report.verdict is Verdict.FAIL:
            failed.add(axiom)
    assert failed == failing


def test_a_label_dependent_rule_is_scanned_in_full():
    """A rule that looks at a label passes sequentiality when checked on
    x1 > x2 > x3 alone, so only a full scan finds the linear order with x3
    on top.  A forged tier-rule mark vouches for no function, so the
    marked rule is scanned in full too, and fails alike."""
    unmarked = PositionOperator("x3-on-top", Domain.ALL_WEAK_ORDERS, _x3_on_top)
    report = check(unmarked, Axiom.SEQUENTIALITY, 3)
    assert report.verdict is Verdict.FAIL
    assert report.witness.base.tiers[0] == frozenset({"x3"})
    marked = _marked("x3-on-top", _x3_on_top)
    assert check(marked, Axiom.SEQUENTIALITY, 3) == report


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

    cell = axioms_module.CHECKERS[Axiom.EQUALITY]

    def doctored(op, universe):
        report = cell(op, universe)
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
