"""Exhaustive small-universe verification of position-operator properties.

Seven properties are checked for every registered operator by brute force
over all weak orders on ground sets x1..xn up to a configurable size:

* equality          - tied alternatives receive equal positions
* neutrality        - positions transport along any relabelling
* sequentiality     - linear orders get exactly 1..n
* truncation        - deleting the bottom tier moves no survivor
* duplication       - cloning an alternative into its tier moves nobody,
                      and the clone lands on its pattern's position
* ud-independency   - moving one alternative between existing tiers
                      (both tiers surviving) moves nobody else
* monotonicity      - a is weakly preferred to b iff a's position <= b's

Each check returns a report carrying a pass/fail verdict, the number of
quantifier instances examined, and, on failure, a minimal witness that can
be replayed through the public operator interface.  Checkers scan the
universe in one fixed, documented enumeration order, so two runs always
produce identical reports and the witness is always the first violation
encountered.

The dense rank passes all seven checks.  It is the only registered
operator that combines sequentiality with duplication, and the only one
combining sequentiality, truncation and ud-independency; the foil
operators exist to show that dropping any one property in those bundles
re-admits other operators.  Only the registry is checked: the paper's
two characterizations cover every position operator, which no check
here does.  ``EXPECTED_MATRIX`` records the anticipated verdict for every
operator/property cell.  ``build_verification_document`` runs every cell
once and returns one JSON-ready document: each cell's expected and
observed verdict, and, per operator, the status of each known entailment
between the properties (for example, an operator stable under
duplication is automatically neutral).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .orders import (
    AltId,
    WeakOrder,
    enumerate_linear_orders,
    enumerate_weak_orders,
    label_key,
    weak_order_to_json,
)
from .operators import (
    REGISTRY,
    Domain,
    PositionAssignment,
    PositionOperator,
    sequential,
)

__all__ = [
    "Axiom",
    "Verdict",
    "Witness",
    "AxiomReport",
    "ExpectedCell",
    "EXPECTED_MATRIX",
    "Implication",
    "IMPLICATIONS",
    "engine_ground",
    "check_equality",
    "check_neutrality",
    "check_sequentiality",
    "check_truncation",
    "check_duplication",
    "check_ud_independency",
    "check_monotonicity",
    "run_axiom_reports",
    "replay_witness",
    "build_verification_document",
]


class Axiom(Enum):
    EQUALITY = "equality"
    NEUTRALITY = "neutrality"
    SEQUENTIALITY = "sequentiality"
    TRUNCATION = "truncation"
    DUPLICATION = "duplication"
    UD_INDEPENDENCY = "ud-independency"
    MONOTONICITY = "monotonicity"


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    # An axiom whose hypothesis cannot be met inside the operator's domain
    # (cloning or vertical moves always create ties, so they never apply to
    # a linear-only operator).
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample: the order(s) and positions involved."""

    base: WeakOrder
    transformed: WeakOrder | None
    subject: AltId
    other: AltId | None
    before: Fraction
    after: Fraction
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "base": weak_order_to_json(self.base),
            "transformed": None
            if self.transformed is None
            else weak_order_to_json(self.transformed),
            "subject": self.subject,
            "other": self.other,
            "before": str(self.before),
            "after": str(self.after),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one checker run for one operator."""

    operator: str
    axiom: Axiom
    max_n: int
    verdict: Verdict
    cases_checked: int
    witness: Witness | None


def engine_ground(n: int) -> tuple[str, ...]:
    """The canonical ground set the engine quantifies over: x1..xn."""
    return tuple(f"x{i}" for i in range(1, n + 1))


def _fresh_clone(ground: frozenset[AltId]) -> str:
    # Reserved namespace, mechanically disjoint from whatever is in use.
    k = 0
    while f"+c{k}" in ground:
        k += 1
    return f"+c{k}"


# ----- axiom definitions ----------------------------------------------------
#
# Each axiom is defined once, as a generator over the cases of one order.
# The driver (``_check``, or ``replay_witness``) evaluates the base order
# and passes its positions in as ``base``; a definition calls ``at`` only
# for the orders it derives from the base.  A case yields the order it
# compares against (None when it needs only the base order) and its first
# violating comparison as (subject, other, before, after, detail), or None
# when the case holds.  The checkers, their case counts and
# ``replay_witness`` are all views of these generators.

Case = tuple["WeakOrder | None", "tuple[AltId, AltId | None, Fraction, Fraction, str] | None"]
At = Callable[[WeakOrder], PositionAssignment]


def _equality_cases(at: At, order: WeakOrder, base: PositionAssignment) -> Iterator[Case]:
    for tier in order.tiers:
        for a, b in itertools.combinations(sorted(tier, key=label_key), 2):
            if base[a] != base[b]:
                detail = f"tied alternatives {a} and {b} in [{order}] got distinct positions"
                yield None, (a, b, base[a], base[b], detail)
            else:
                yield None, None


def _permutations_for(ground: tuple[AltId, ...]) -> list[dict[AltId, AltId]]:
    """The n - 1 adjacent transpositions of ``ground``.

    Passing them is a proof of neutrality over all of S_n, not a sample.
    The checker quantifies over every order on the ground set, so the
    relabellings an operator respects are closed under composition: if op
    respects sigma and tau on every order R and alternative x, then
    op(sigma tau R)(sigma tau x) = op(tau R)(tau x) = op(R)(x).  Adjacent
    transpositions generate S_n.
    """
    sigmas = []
    for left, right in zip(ground, ground[1:]):
        swap = dict(zip(ground, ground))
        swap[left], swap[right] = right, left
        sigmas.append(swap)
    return sigmas


def _neutrality_cases(at: At, order: WeakOrder, base: PositionAssignment) -> Iterator[Case]:
    alternatives = order.sorted_alternatives()
    for sigma in _permutations_for(tuple(alternatives)):
        relabeled = order.relabel(sigma)
        moved = at(relabeled)
        for alt in alternatives:
            if moved[sigma[alt]] != base[alt]:
                detail = f"relabelling {alt}->{sigma[alt]} changed the transported position"
                yield relabeled, (alt, sigma[alt], base[alt], moved[sigma[alt]], detail)
                break
        else:
            yield relabeled, None


def _sequentiality_cases(at: At, order: WeakOrder, base: PositionAssignment) -> Iterator[Case]:
    expected = sequential(order)
    for alt in order.sorted_alternatives():
        if base[alt] != expected[alt]:
            detail = f"linear order [{order}] should place {alt} at {expected[alt]}"
            yield None, (alt, None, expected[alt], base[alt], detail)
            return
    yield None, None


def _truncation_cases(at: At, order: WeakOrder, base: PositionAssignment) -> Iterator[Case]:
    if order.num_tiers < 2:
        return
    truncated = order.truncate_bottom()
    after = at(truncated)
    for alt in truncated.sorted_alternatives():
        if after[alt] != base[alt]:
            detail = f"dropping the bottom tier of [{order}] moved {alt}"
            yield truncated, (alt, None, base[alt], after[alt], detail)
            return
    yield truncated, None


def _duplication_cases(at: At, order: WeakOrder, base: PositionAssignment) -> Iterator[Case]:
    clone = _fresh_clone(order.ground)
    alternatives = order.sorted_alternatives()
    for pattern in alternatives:
        extended = order.duplicate(pattern, clone)
        moved = at(extended)
        for alt in alternatives:
            if moved[alt] != base[alt]:
                detail = f"cloning {pattern} in [{order}] moved {alt}"
                yield extended, (alt, None, base[alt], moved[alt], detail)
                break
        else:
            if moved[clone] != moved[pattern]:
                detail = f"clone of {pattern} in [{order}] missed its pattern's position"
                yield extended, (clone, pattern, moved[pattern], moved[clone], detail)
            else:
                yield extended, None


def _ud_independency_cases(at: At, order: WeakOrder, base: PositionAssignment) -> Iterator[Case]:
    alternatives = order.sorted_alternatives()
    for mover in alternatives:
        source = order.tier_index_of(mover)
        if len(order.tiers[source]) < 2:
            continue
        for target in range(order.num_tiers):
            if target == source:
                continue
            moved_order = order.ud_move(mover, target)
            moved = at(moved_order)
            for alt in alternatives:
                if alt != mover and moved[alt] != base[alt]:
                    detail = (
                        f"moving {mover} from tier {source} to tier {target}"
                        f" in [{order}] changed {alt}"
                    )
                    yield moved_order, (alt, mover, base[alt], moved[alt], detail)
                    break
            else:
                yield moved_order, None


def _monotonicity_cases(at: At, order: WeakOrder, base: PositionAssignment) -> Iterator[Case]:
    alternatives = order.sorted_alternatives()
    for a in alternatives:
        for b in alternatives:
            if a == b:
                continue
            weakly = order.weakly_prefers(a, b)
            le = base[a] <= base[b]
            if weakly != le:
                detail = (
                    f"in [{order}]: {a} R {b} is {weakly} but "
                    f"position({a}) <= position({b}) is {le}"
                )
                yield None, (a, b, base[a], base[b], detail)
            else:
                yield None, None


_DEFINITIONS: dict[Axiom, Callable[[At, WeakOrder, PositionAssignment], Iterator[Case]]] = {
    Axiom.EQUALITY: _equality_cases,
    Axiom.NEUTRALITY: _neutrality_cases,
    Axiom.SEQUENTIALITY: _sequentiality_cases,
    Axiom.TRUNCATION: _truncation_cases,
    Axiom.DUPLICATION: _duplication_cases,
    Axiom.UD_INDEPENDENCY: _ud_independency_cases,
    Axiom.MONOTONICITY: _monotonicity_cases,
}

# Cloning and vertical moves always create ties, so these axioms never
# apply to a linear-only operator.
_NEEDS_TIES = frozenset({Axiom.DUPLICATION, Axiom.UD_INDEPENDENCY})


# ----- checkers -------------------------------------------------------------


def _check(op: PositionOperator, axiom: Axiom, max_n: int) -> AxiomReport:
    """Run one axiom's definition over every order on x1..xn, n = 1..max_n,
    and stop at the first violating case."""
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    if axiom in _NEEDS_TIES and op.domain is Domain.LINEAR_ONLY:
        return AxiomReport(op.name, axiom, max_n, Verdict.NOT_APPLICABLE, 0, None)
    # Sequentiality speaks of linear orders only; every other axiom ranges
    # over the operator's whole domain.
    linear = axiom is Axiom.SEQUENTIALITY or op.domain is Domain.LINEAR_ONLY
    universe = enumerate_linear_orders if linear else enumerate_weak_orders
    cases_of = _DEFINITIONS[axiom]
    cases = 0
    for n in range(1, max_n + 1):
        for order in universe(engine_ground(n)):
            for transformed, violation in cases_of(op, order, op(order)):
                cases += 1
                if violation is not None:
                    witness = Witness(order, transformed, *violation)
                    return AxiomReport(op.name, axiom, max_n, Verdict.FAIL, cases, witness)
    return AxiomReport(op.name, axiom, max_n, Verdict.PASS, cases, None)


def check_equality(op: PositionOperator, max_n: int) -> AxiomReport:
    """Tied alternatives must share a position.

    One case per (order, unordered indifferent pair).  Linear-only
    operators are checked over linear orders, where the condition is
    vacuous.
    """
    return _check(op, Axiom.EQUALITY, max_n)


def check_neutrality(op: PositionOperator, max_n: int) -> AxiomReport:
    """Positions must follow the alternatives through any relabelling.

    One case per (order, relabelling) pair.
    """
    return _check(op, Axiom.NEUTRALITY, max_n)


def check_sequentiality(op: PositionOperator, max_n: int) -> AxiomReport:
    """On every linear order the operator must produce exactly 1..n.

    One case per linear order; linear orders sit inside every operator's
    domain.
    """
    return _check(op, Axiom.SEQUENTIALITY, max_n)


def check_truncation(op: PositionOperator, max_n: int) -> AxiomReport:
    """Deleting the bottom tier must leave surviving positions alone.

    One case per order with at least two tiers; one-tier orders have
    nothing below to delete and are skipped.
    """
    return _check(op, Axiom.TRUNCATION, max_n)


def check_duplication(op: PositionOperator, max_n: int) -> AxiomReport:
    """Cloning an alternative into its own tier must move nobody.

    One case per (order, pattern alternative).  The clone must also land
    exactly on its pattern's position.  A clone always ties with its
    pattern, so the check does not apply to linear-only operators.
    """
    return _check(op, Axiom.DUPLICATION, max_n)


def check_ud_independency(op: PositionOperator, max_n: int) -> AxiomReport:
    """Moving one alternative between existing tiers must move nobody else.

    One case per (order, mover, target tier), where the mover leaves a
    non-empty tier behind and the target is a different pre-existing tier;
    upward and downward moves both count.  Legal moves need a tie in the
    source tier, so they first appear at three alternatives and never
    apply to linear-only operators.
    """
    return _check(op, Axiom.UD_INDEPENDENCY, max_n)


def check_monotonicity(op: PositionOperator, max_n: int) -> AxiomReport:
    """Weak preference must coincide exactly with position order.

    One case per (order, ordered pair of distinct alternatives); both
    directions of the equivalence are enforced.
    """
    return _check(op, Axiom.MONOTONICITY, max_n)


CHECKERS: dict[Axiom, Callable[[PositionOperator, int], AxiomReport]] = {
    Axiom.EQUALITY: check_equality,
    Axiom.NEUTRALITY: check_neutrality,
    Axiom.SEQUENTIALITY: check_sequentiality,
    Axiom.TRUNCATION: check_truncation,
    Axiom.DUPLICATION: check_duplication,
    Axiom.UD_INDEPENDENCY: check_ud_independency,
    Axiom.MONOTONICITY: check_monotonicity,
}


def replay_witness(op: PositionOperator, axiom: Axiom, witness: Witness) -> bool:
    """Re-derive a reported violation through the public operator interface.

    Re-runs the axiom's definition on the witness's base order.  Returns
    True when some case against the witness's transformed order yields
    exactly its subject, other, before and after, i.e. the report was
    sound.
    """
    claim = (witness.subject, witness.other, witness.before, witness.after)
    return any(
        transformed == witness.transformed and violation is not None and violation[:4] == claim
        for transformed, violation in _DEFINITIONS[axiom](op, witness.base, op(witness.base))
    )


# ----- expected verdicts ----------------------------------------------------


@dataclass(frozen=True)
class ExpectedCell:
    """Anticipated verdict for one operator/axiom cell.

    ``source`` records whether the expectation follows from the operator's
    analysis ("theory") or was frozen from a prior exhaustive run
    ("exhaustive-run").
    """

    verdict: Verdict
    source: str
    note: str


def _expected_matrix() -> dict[tuple[str, Axiom], ExpectedCell]:
    P, F, NA = Verdict.PASS, Verdict.FAIL, Verdict.NOT_APPLICABLE

    def row(name: str, *cells: tuple[Verdict, str, str]) -> dict[tuple[str, Axiom], ExpectedCell]:
        """One operator's cells, given in ``Axiom`` declaration order."""
        return {
            (name, axiom): ExpectedCell(verdict, source, note)
            for axiom, (verdict, source, note) in zip(Axiom, cells, strict=True)
        }

    theory = "theory"
    run = "exhaustive-run"
    matrix: dict[tuple[str, Axiom], ExpectedCell] = {}

    for name in ("dense", "dense-chain"):
        how = "tier numbering" if name == "dense" else "chain propagation, same assignment as dense"
        matrix.update(
            row(
                name,
                (P, theory, f"whole tiers share a number ({how})"),
                (P, theory, "depends only on tier structure, not on labels"),
                (P, theory, "singleton tiers are numbered 1..n"),
                (P, theory, "counts tiers above, which truncation below cannot touch"),
                (P, theory, "cloning changes no tier boundaries"),
                (P, theory, "a move between existing tiers keeps the tier list"),
                (P, run, "tier number strictly increases down the order"),
            )
        )

    shared = {
        "standard": (
            "counts strictly better alternatives",
            "a clone pushes every strictly lower alternative down one rank",
            "moving one alternative renumbers those between the two tiers",
        ),
        "modified": (
            "counts weakly better alternatives",
            "a clone enlarges the weakly-better count at and below its tier",
            "moving one alternative renumbers those between the two tiers",
        ),
        "fractional": (
            "averages the covered competition ranks",
            "a clone stretches the covered rank range at and below its tier",
            "moving one alternative shifts the covered ranges around it",
        ),
    }
    for name, (equal_note, dup_note, ud_note) in shared.items():
        matrix.update(
            row(
                name,
                (P, theory, f"tie-breaking assigns one shared value ({equal_note})"),
                (P, theory, "depends only on tier structure, not on labels"),
                (P, theory, "coincides with 1..n when every tier is a singleton"),
                (P, theory, "positions never look below the own tier"),
                (F, theory, dup_note),
                (F, theory, ud_note),
                (P, run, "values strictly increase from tier to tier"),
            )
        )

    matrix.update(
        row(
            "sequential",
            (P, run, "no ties exist on the linear domain"),
            (P, run, "the 1..n sequence follows the alternatives"),
            (P, theory, "definitional on its whole domain"),
            (P, run, "dropping the last element keeps earlier positions"),
            (NA, theory, "a clone always ties with its pattern, leaving the linear domain"),
            (NA, theory, "vertical moves need a tie in the source tier"),
            (P, run, "1..n increases strictly down the order"),
        )
    )

    matrix.update(
        row(
            "quotient",
            (P, run, "tier mates share dense rank and tier size"),
            (P, run, "depends only on tier structure, not on labels"),
            (P, theory, "singleton tiers make the divisor 1"),
            (P, theory, "numerator and divisor both ignore tiers below"),
            (F, theory, "cloning grows the divisor of the pattern's tier"),
            (F, theory, "departure and arrival tier sizes both change"),
            (F, run, "a large lower tier can dilute its value below an upper one"),
        )
    )

    matrix.update(
        row(
            "affine",
            (P, theory, "rescaling preserves equal values (stable under cloning)"),
            (P, theory, "rescaling preserves label-independence"),
            (F, theory, "any map other than the identity bends the 1..n sequence"),
            (P, run, "rescaling a truncation-stable value stays stable"),
            (P, theory, "rescales a cloning-stable value pointwise"),
            (P, theory, "rescales a move-stable value pointwise"),
            (P, run, "a positive slope preserves the position order"),
        )
    )

    matrix.update(
        row(
            "plus-n",
            (P, run, "a constant shift keeps tier mates equal"),
            (P, run, "shift depends on size and linearity, not labels"),
            (P, theory, "the shift switches off exactly on linear orders"),
            (F, theory, "truncation can turn a tied order linear and drop the shift"),
            (F, run, "cloning changes the shift (n grows, ties appear)"),
            (P, theory, "vertical moves keep n and keep the order non-linear"),
            (P, run, "a constant shift preserves the position order"),
        )
    )

    matrix.update(
        row(
            "list-index",
            (F, theory, "tied alternatives keep their distinct label values"),
            (F, theory, "positions follow labels, so relabelling breaks transport"),
            (F, theory, "the label order need not match the ranking"),
            (P, theory, "label values ignore which alternatives remain"),
            (F, run, "the clone's own label value differs from its pattern's"),
            (P, theory, "label values ignore tier membership entirely"),
            (F, run, "label order can oppose the preference order"),
        )
    )

    matrix.update(
        row(
            "dense-over-tiercount",
            (P, run, "tier mates share dense rank and the global divisor"),
            (P, run, "depends only on tier structure, not on labels"),
            (F, theory, "dividing by the tier count bends the 1..n sequence"),
            (F, theory, "deleting the bottom tier shrinks the divisor"),
            (P, theory, "cloning changes neither dense ranks nor the tier count"),
            (P, theory, "moves between existing tiers keep the tier count"),
            (P, run, "one shared divisor preserves the position order"),
        )
    )

    return matrix


EXPECTED_MATRIX: dict[tuple[str, Axiom], ExpectedCell] = _expected_matrix()


# ----- the verification document -------------------------------------------


def run_axiom_reports(max_n: int) -> dict[tuple[str, Axiom], AxiomReport]:
    """Run all seven checkers for every registered operator."""
    return {
        (name, axiom): CHECKERS[axiom](operator, max_n)
        for name, operator in REGISTRY.items()
        for axiom in Axiom
    }


@dataclass(frozen=True)
class Implication:
    """antecedents all pass  =>  consequent passes, for every operator."""

    name: str
    antecedents: tuple[Axiom, ...]
    consequent: Axiom


IMPLICATIONS: tuple[Implication, ...] = (
    Implication("neutrality-implies-equality", (Axiom.NEUTRALITY,), Axiom.EQUALITY),
    Implication("duplication-implies-neutrality", (Axiom.DUPLICATION,), Axiom.NEUTRALITY),
    Implication(
        "duplication-implies-ud-independency", (Axiom.DUPLICATION,), Axiom.UD_INDEPENDENCY
    ),
    Implication(
        "sequentiality-truncation-ud-imply-equality",
        (Axiom.SEQUENTIALITY, Axiom.TRUNCATION, Axiom.UD_INDEPENDENCY),
        Axiom.EQUALITY,
    ),
)


def _implication_status(implication: Implication, verdicts: Mapping[Axiom, Verdict]) -> str:
    """``vacuous`` when some antecedent does not pass; otherwise
    ``consistent`` or ``violated`` as the consequent passes or not.

    These implications hold for every position operator, so ``violated``
    always indicates a bug in a checker or an operator, never a property of
    the mathematics.
    """
    if any(verdicts[axiom] is not Verdict.PASS for axiom in implication.antecedents):
        return "vacuous"
    return "consistent" if verdicts[implication.consequent] is Verdict.PASS else "violated"


def build_verification_document(max_n: int) -> tuple[dict, bool]:
    """One-shot verification: matrix plus implications, JSON-ready.

    Returns the report document and an overall flag that is True iff
    every cell matched its expectation and no implication was violated.
    The document is built in a fixed order with no volatile fields, so
    repeated runs serialise byte-identically.
    """
    reports = run_axiom_reports(max_n)
    matrix = []
    for (name, axiom), report in reports.items():
        expected = EXPECTED_MATRIX[(name, axiom)]
        matrix.append(
            {
                "operator": name,
                "axiom": axiom.value,
                "expected": expected.verdict.value,
                "observed": report.verdict.value,
                "source": expected.source,
                "note": expected.note,
                "casesChecked": report.cases_checked,
                "witness": None if report.witness is None else report.witness.to_json_dict(),
            }
        )
    verdicts = {
        name: {axiom: reports[(name, axiom)].verdict for axiom in Axiom} for name in REGISTRY
    }
    implications = [
        {
            "implication": implication.name,
            "operator": name,
            "status": _implication_status(implication, verdicts[name]),
        }
        for implication in IMPLICATIONS
        for name in REGISTRY
    ]
    matrix_ok = all(row["expected"] == row["observed"] for row in matrix)
    implications_ok = all(row["status"] != "violated" for row in implications)
    document = {
        "maxN": max_n,
        "operators": list(REGISTRY),
        "axioms": [axiom.value for axiom in Axiom],
        "matrix": matrix,
        "implications": implications,
        "matrixMatchesExpected": matrix_ok,
        "implicationsConsistent": implications_ok,
        "allExpected": matrix_ok and implications_ok,
    }
    return document, matrix_ok and implications_ok
