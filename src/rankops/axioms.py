"""Exhaustive small-universe verification of position-operator properties.

Seven properties are checked for every registered operator by brute force
over all weak orders on ground sets x1..xn up to a configurable size:

* equality          - tied alternatives receive equal positions
* neutrality        - positions are a function of the order's tier-size
                      shape and the tier: each alternative matches the
                      first member of its tier in its shape's canonical
                      order, which proves them invariant under every
                      permutation of x1..xn (maps onto other label sets,
                      such as {x1, x2} -> {x1, x3}, lie outside the
                      universe)
* sequentiality     - linear orders get exactly 1..n
* truncation        - deleting the bottom tier moves no survivor
* duplication       - cloning an alternative into its tier moves nobody,
                      and the clone lands on its pattern's position
* ud-independency   - moving one alternative between existing tiers
                      (both tiers surviving) moves nobody else
* monotonicity      - a is weakly preferred to b iff a's position <= b's

``check(op, Axiom.DUPLICATION, n)`` checks one property for one operator
and returns a report carrying a pass/fail verdict, the number of
quantifier instances examined, and, on failure, a minimal witness that can
be replayed through the public operator interface.  A check scans the
universe in one fixed, documented enumeration order, so two runs always
produce identical reports and the witness is always the first violation
encountered.

``run_axiom_reports`` enumerates the weak orders of that universe once
for all its cells, and the linear cells read its linear members.  It fixes
the clone label once, in the positions context, and gives each operator
one position table, shared by its seven cells and dropped when the next
operator starts.  Operators are pure maps, so a position evaluated once
is reused for every case that derives the same order; a derived order is
built only when the table lacks it, or for a witness.  Orders holding a
clone are always evaluated, never tabled.  ``replay_witness`` evaluates
through a table of its own, never the run's.

Nine registered operators (``dense``, ``standard``, ``modified``,
``fractional``, ``sequential``, ``quotient``, ``plus-n``,
``dense-over-tiercount`` and every affine operator) are marked as tier
rules: each gives a tier's members one value read from the order's tier
sizes alone.  For these, every cell runs its definition on the first
order of each tier-size shape only, and counts that order's cases once
more for each later order of the shape.  This is sound because a
permutation of x1..xn that fixes the clone label carries every case of an
order, with its derived orders, onto a case of the permuted order with the
same outcome, so same-shape orders hold or fail alike and have equally
many cases; and the scan meets each shape's first order first, so it
reports the first violation a full scan would.  Every unmarked operator
(``list-index``, ``dense-chain`` and any operator built with the public
constructor) is scanned order by order.

Neutrality is the claim that labels do not matter, so for it the mark
alone is not enough.  It is a theorem for an operator whose ``fn`` is the
function the tier-rule constructor built from its rule: that function
gives every member of a tier the value the rule reads off the tier sizes,
so an alternative's position depends on its order's shape and its tier
alone, which is what the neutrality case compares.  The first order of
each shape is the shape's canonical order, compared with itself, and
holds with one case; every later order adds one.  A marked operator with
any other ``fn``, such as a rule that reads labels under a forged mark, is
scanned order by order in neutrality, and so caught.

Positions are compared as exact pairs: a ``Fraction`` is kept in lowest
terms with a positive denominator, so its (numerator, denominator) pair
is equal to another exactly when the two rationals are.  A witness
rebuilds the ``Fraction`` from its pair, and monotonicity compares two
pairs by cross-multiplying.

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
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .orders import (
    AltId,
    WeakOrder,
    engine_ground,
    enumerate_weak_orders,
    label_key,
    weak_order_to_json,
)
from .operators import REGISTRY, Domain, PositionOperator

__all__ = [
    "Axiom",
    "Verdict",
    "Witness",
    "AxiomReport",
    "ExpectedCell",
    "EXPECTED_MATRIX",
    "Implication",
    "IMPLICATIONS",
    "check",
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
    """A replayable counterexample: the order(s) and positions involved.

    An axiom's definition yields one for a case that fails.  ``transformed``
    is the order compared against, or None when the case needs only ``base``.
    ``detail`` is prose read off the other fields, so equality ignores it.
    """

    base: WeakOrder
    transformed: WeakOrder | None
    subject: AltId
    other: AltId | None
    before: Fraction
    after: Fraction
    detail: str = field(compare=False)

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


# ----- the universe and the position tables ---------------------------------
#
# An order on labels the engine numbers (x1..xN in a run) is named by its
# code: the tier index of each label, or -1 where the label is absent.  A
# code names one order, so a table keyed by codes finds an order derived in
# one case when another case derives it again.

Code = tuple[int, ...]
# A position as its exact (numerator, denominator) pair, in lowest terms.
Pair = tuple[int, int]
Pairs = dict[AltId, Pair]


def _code(tiers: Iterable[Iterable[AltId]], slot: Mapping[AltId, int]) -> Code:
    """The tier index of each label ``slot`` numbers in the order with these
    ``tiers``, -1 where it is absent."""
    code = [-1] * len(slot)
    for index, tier in enumerate(tiers):
        for alt in tier:
            code[slot[alt]] = index
    return tuple(code)


@dataclass(frozen=True)
class _Positions:
    """One operator's positions on the orders a definition asks for.

    ``slot`` numbers the labels the codes speak of, and ``clone`` is the
    label duplication gives a clone, one that no coded order uses.
    ``alternatives[n]`` lists the labels of every base order on n
    alternatives in label order, so no definition sorts a base order.  Each
    order is evaluated once and found again by its code in ``table``.

    A position is handed out as its (numerator, denominator) pair, and
    ``pairs`` keeps one copy of each distinct pair for the operator, so
    equal positions share one tuple in the table.  A definition reads only
    ``slot``, ``clone``, ``alternatives``, ``at`` and ``evaluate``.
    """

    op: PositionOperator
    slot: Mapping[AltId, int]
    clone: AltId
    alternatives: Mapping[int, tuple[AltId, ...]]
    table: dict[Code, Pairs] = field(default_factory=dict)
    pairs: dict[Pair, Pair] = field(default_factory=dict)

    def evaluate(self, order: WeakOrder) -> Pairs:
        """Each alternative's position in ``order`` as its pair, untabled."""
        intern = self.pairs.setdefault
        result = {}
        # as_integer_ratio builds the pair in one call, where .numerator and
        # .denominator are two property calls.  The operator itself is
        # called, not its fn: its __call__ is where a linear-only operator
        # refuses a tie, and where bench/tracing.py counts evaluations.
        for alt, value in self.op(order).items():
            pair = value.as_integer_ratio()
            result[alt] = intern(pair, pair)
        return result

    def at(self, key: Code, build: Callable[[], WeakOrder]) -> Pairs:
        """The position pairs of the order coded ``key``; ``build`` makes
        that order when it has to be evaluated."""
        positions = self.table.get(key)
        if positions is None:
            positions = self.table[key] = self.evaluate(build())
        return positions


class _Universe:
    """Every weak order on x1..xn, n = 1..max_n, with its code and its shape,
    the run's clone label, and the position table of the operator checked last."""

    def __init__(self, max_n: int) -> None:
        if max_n < 2:
            raise ValueError(f"max_n must be at least 2, got {max_n}")
        self.max_n = max_n
        ground = engine_ground(max_n)
        self.slot = {label: index for index, label in enumerate(ground)}
        self.clone = _fresh_clone(frozenset(ground))
        self.alternatives = {
            n: tuple(sorted(engine_ground(n), key=label_key)) for n in range(1, max_n + 1)
        }
        # A shape is its tier sizes, one tuple per shape: 127 for 52,609 orders at n = 7.
        shapes: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.orders = [
            (order, _code(order.tiers, self.slot), shapes.setdefault(shape, shape))
            for n in range(1, max_n + 1)
            for order in enumerate_weak_orders(engine_ground(n))
            for shape in (tuple(map(len, order.tiers)),)
        ]
        self._positions: _Positions | None = None

    def positions(self, op: PositionOperator) -> _Positions:
        """``op``'s table; starting one drops the previous operator's."""
        if self._positions is None or self._positions.op is not op:
            self._positions = _Positions(op, self.slot, self.clone, self.alternatives)
        return self._positions


def _fresh_clone(ground: frozenset[AltId]) -> str:
    # Reserved namespace, mechanically disjoint from whatever is in use.
    k = 0
    while f"+c{k}" in ground:
        k += 1
    return f"+c{k}"


# ----- axiom definitions ----------------------------------------------------
#
# Each axiom is defined once, as a generator over the cases of one order,
# and states which orders it speaks of: it yields nothing for any other.
# The caller (``_check``, or ``replay_witness``) passes in only the order
# and its code.  For an order it speaks of, a definition asks ``positions``
# for the order's pairs ``base``, and for those of each order it derives
# from it, each by its code; it builds a derived order itself only for
# ``positions`` to evaluate or for a witness.  Orders with a clone have no
# code: they are built and evaluated every time.  The base order's labels,
# in label order, are ``positions.alternatives[order.n]``.  Definitions
# compare pairs with ``!=``, and build a ``Fraction`` from a pair only for a
# witness; sequentiality compares pairs with the order's own tier numbers
# 1..n, never with another operator, and monotonicity cross-multiplies,
# which is exact because denominators are positive.  A case yields None when
# it holds, otherwise the ``Witness`` of its first violating comparison.  The
# checks, their case counts and ``replay_witness`` are all views of these
# generators.

Definition = Callable[[_Positions, WeakOrder, Code], Iterator[Witness | None]]


def _equality_cases(
    positions: _Positions, order: WeakOrder, code: Code
) -> Iterator[Witness | None]:
    base = positions.at(code, lambda: order)
    alternatives = positions.alternatives[order.n]
    for tier in order.tiers:
        for a, b in itertools.combinations([alt for alt in alternatives if alt in tier], 2):
            if base[a] != base[b]:
                detail = f"tied alternatives {a} and {b} in [{order}] got distinct positions"
                yield Witness(order, None, a, b, Fraction(*base[a]), Fraction(*base[b]), detail)
            else:
                yield None


def _neutrality_cases(
    positions: _Positions, order: WeakOrder, code: Code
) -> Iterator[Witness | None]:
    """One case per order: each alternative's position equals that of the
    first member of its tier in the canonical order of the order's shape.

    The canonical order C of a tier-size shape gives its tiers the
    alternatives in label order, top tier first.  Passing this case on every
    order is a proof of neutrality over all of S_n, not a sample:

    * neutral => the case holds: a bijection of the labels that maps each
      tier of R onto the tier of C with the same index is a permutation
      sigma with sigma R = C.  Choose one with sigma x = the first member
      of x's tier in C; then op(R)(x) = op(C)(sigma x).
    * the case holds on every order => neutral: for a permutation sigma,
      sigma R has R's shape and sigma x sits in the tier of sigma R with
      x's index, so op(R)(x) and op(sigma R)(sigma x) both equal op(C) at
      the first member of that tier of C.

    On R = C itself the same comparison checks that tied alternatives get
    equal positions, so no separate tie check is needed.  C is a base order
    and the first of its shape in the scan, so the run's table already
    holds its positions; C is built only for a witness, or when a table
    lacks it, as ``replay_witness``'s own table does.
    """
    base = positions.at(code, lambda: order)
    alternatives = positions.alternatives[order.n]
    slot = positions.slot
    tiers, end = [], 0
    for tier in order.tiers:
        tiers.append(alternatives[end : end + len(tier)])
        end += len(tier)
    target = positions.at(_code(tiers, slot), lambda: WeakOrder(tiers))
    for alt in alternatives:
        first = tiers[code[slot[alt]]][0]
        if target[first] != base[alt]:
            canonical_order = WeakOrder(tiers)
            detail = (
                f"{alt} in [{order}] and {first}, first of the same tier in"
                f" [{canonical_order}], got distinct positions"
            )
            before, after = Fraction(*base[alt]), Fraction(*target[first])
            yield Witness(order, canonical_order, alt, first, before, after, detail)
            return
    yield None


def _sequentiality_cases(
    positions: _Positions, order: WeakOrder, code: Code
) -> Iterator[Witness | None]:
    if not order.is_linear:
        return
    base = positions.at(code, lambda: order)
    slot = positions.slot
    for alt in positions.alternatives[order.n]:
        # On a linear order the tier index is the place, counted from 0.
        expected = code[slot[alt]] + 1
        if base[alt] != (expected, 1):
            detail = f"linear order [{order}] should place {alt} at {expected}"
            yield Witness(order, None, alt, None, Fraction(expected), Fraction(*base[alt]), detail)
            return
    yield None


def _truncation_cases(
    positions: _Positions, order: WeakOrder, code: Code
) -> Iterator[Witness | None]:
    if order.num_tiers < 2:
        return
    base = positions.at(code, lambda: order)
    bottom = order.num_tiers - 1
    kept = positions.at(tuple(-1 if t == bottom else t for t in code), order.truncate_bottom)
    dropped = order.tiers[bottom]
    for alt in (alt for alt in positions.alternatives[order.n] if alt not in dropped):
        if kept[alt] != base[alt]:
            detail = f"dropping the bottom tier of [{order}] moved {alt}"
            before, after = Fraction(*base[alt]), Fraction(*kept[alt])
            yield Witness(order, order.truncate_bottom(), alt, None, before, after, detail)
            return
    yield None


def _duplication_cases(
    positions: _Positions, order: WeakOrder, code: Code
) -> Iterator[Witness | None]:
    base = positions.at(code, lambda: order)
    clone = positions.clone
    alternatives = positions.alternatives[order.n]
    for pattern in alternatives:
        extended = order.duplicate(pattern, clone)
        moved = positions.evaluate(extended)
        for alt in alternatives:
            if moved[alt] != base[alt]:
                detail = f"cloning {pattern} in [{order}] moved {alt}"
                before, after = Fraction(*base[alt]), Fraction(*moved[alt])
                yield Witness(order, extended, alt, None, before, after, detail)
                break
        else:
            if moved[clone] != moved[pattern]:
                detail = f"clone of {pattern} in [{order}] missed its pattern's position"
                before, after = Fraction(*moved[pattern]), Fraction(*moved[clone])
                yield Witness(order, extended, clone, pattern, before, after, detail)
            else:
                yield None


def _ud_independency_cases(
    positions: _Positions, order: WeakOrder, code: Code
) -> Iterator[Witness | None]:
    base = positions.at(code, lambda: order)
    alternatives = positions.alternatives[order.n]
    for mover in alternatives:
        source = order.tier_index_of(mover)
        if len(order.tiers[source]) < 2:
            continue
        slot = positions.slot[mover]
        for target in range(order.num_tiers):
            if target == source:
                continue
            key = code[:slot] + (target,) + code[slot + 1 :]
            moved = positions.at(key, lambda: order.ud_move(mover, target))
            for alt in alternatives:
                if alt != mover and moved[alt] != base[alt]:
                    detail = (
                        f"moving {mover} from tier {source} to tier {target}"
                        f" in [{order}] changed {alt}"
                    )
                    before, after = Fraction(*base[alt]), Fraction(*moved[alt])
                    moved_order = order.ud_move(mover, target)
                    yield Witness(order, moved_order, alt, mover, before, after, detail)
                    break
            else:
                yield None


def _monotonicity_cases(
    positions: _Positions, order: WeakOrder, code: Code
) -> Iterator[Witness | None]:
    base = positions.at(code, lambda: order)
    slot = positions.slot
    alternatives = positions.alternatives[order.n]
    for a in alternatives:
        a_num, a_den = base[a]
        for b in alternatives:
            if a == b:
                continue
            b_num, b_den = base[b]
            weakly = code[slot[a]] <= code[slot[b]]
            # Denominators are positive, so cross-multiplying keeps the order.
            le = a_num * b_den <= b_num * a_den
            if weakly != le:
                detail = (
                    f"in [{order}]: {a} R {b} is {weakly} but "
                    f"position({a}) <= position({b}) is {le}"
                )
                yield Witness(order, None, a, b, Fraction(*base[a]), Fraction(*base[b]), detail)
            else:
                yield None


_DEFINITIONS: dict[Axiom, Definition] = {
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


def _check(op: PositionOperator, axiom: Axiom, universe: _Universe) -> AxiomReport:
    """Run one axiom's definition over every order of ``universe`` and stop
    at the first violating case.  Handed only an order and its code, the
    definition evaluates no order it does not speak of.

    For an operator marked as a tier rule, the definition runs on the first
    order of each tier-size shape alone; every later order of that shape
    adds the first one's case count.  Such an operator gives a permuted
    order the permuted positions, and every derived order, the clone's
    included, is permuted along with its base, so an order's cases hold or
    fail exactly as its shape's first order's do, and are as many.  That
    first order comes first in the scan, so the first violation, its count
    and its witness are the ones a full scan finds.  Every unmarked
    operator is scanned order by order.

    Neutrality is that label-independence itself, so there the mark is not
    trusted: one order per shape is run only when ``op.fn`` is the function
    ``_tier_rule_operator`` built from the rule, which reads tier sizes
    alone.  Then the first order of a shape is its canonical order, which
    holds its one case against itself, and so does every later order.  A
    marked operator with any other ``fn`` has every order scanned.
    """
    max_n = universe.max_n
    if axiom in _NEEDS_TIES and op.domain is Domain.LINEAR_ONLY:
        return AxiomReport(op.name, axiom, max_n, Verdict.NOT_APPLICABLE, 0, None)
    positions = universe.positions(op)
    linear = op.domain is Domain.LINEAR_ONLY
    cases_of = _DEFINITIONS[axiom]
    # The case count of each tier-size shape seen, when one order per
    # shape suffices.
    by_shape: dict[tuple[int, ...], int] | None = (
        {} if op._tier_rule and (axiom is not Axiom.NEUTRALITY or op.fn is op._tier_fn) else None
    )
    cases = 0
    for order, code, shape in universe.orders:
        if linear and not order.is_linear:
            continue
        if by_shape is not None and shape in by_shape:
            cases += by_shape[shape]
            continue
        first = cases
        for witness in cases_of(positions, order, code):
            cases += 1
            if witness is not None:
                return AxiomReport(op.name, axiom, max_n, Verdict.FAIL, cases, witness)
        if by_shape is not None:
            by_shape[shape] = cases - first
    return AxiomReport(op.name, axiom, max_n, Verdict.PASS, cases, None)


def check(op: PositionOperator, axiom: Axiom, max_n: int) -> AxiomReport:
    """Check one axiom for ``op`` over every weak order on x1..xn,
    n = 1..max_n, in a universe of its own.

    What one counted case is, per axiom:

    * equality: an (order, unordered tied pair).  Linear-only operators
      are checked over linear orders, where the condition is vacuous.
    * neutrality: an order.  Its alternatives are compared with the first
      member of their tier in the canonical order of its tier-size shape,
      whose tiers take x1..xn in label order, top tier first.
    * sequentiality: a linear order; linear orders sit inside every
      operator's domain.
    * truncation: an order with at least two tiers; one-tier orders have
      nothing below to delete.
    * duplication: an (order, pattern alternative) pair; the clone must
      also land exactly on its pattern's position.
    * ud-independency: an (order, mover, target tier) triple, where the
      mover leaves a non-empty tier behind and the target is a different
      existing tier; upward and downward moves both count.  Legal moves
      need a tie, so they first appear at three alternatives.
    * monotonicity: an (order, ordered pair of distinct alternatives);
      both directions of the equivalence are enforced.

    Cloning and vertical moves always create ties, so duplication and
    ud-independency are not applicable to a linear-only operator.
    """
    return _check(op, axiom, _Universe(max_n))


# One cell as ``run_axiom_reports`` runs it, ``(op, universe) -> report``:
# the seam through which a cell can be wrapped, to time it or to doctor it.
CHECKERS: dict[Axiom, Callable[[PositionOperator, _Universe], AxiomReport]] = {
    axiom: lambda op, universe, axiom=axiom: _check(op, axiom, universe) for axiom in Axiom
}


def replay_witness(op: PositionOperator, axiom: Axiom, witness: Witness) -> bool:
    """Re-derive a reported violation through the public operator interface.

    Re-runs the axiom's definition on the witness's base order through a
    position table of its own, building each derived order through the
    public transforms and evaluating it with ``op``.  Returns True when
    some case yields a witness equal to this one, i.e. the report was sound.
    Witnesses compare without their ``detail``, so only the transformed
    order, subject, other, before and after have to match.
    """
    base = witness.base
    alternatives = tuple(base.sorted_alternatives())
    slot = {alt: index for index, alt in enumerate(alternatives)}
    positions = _Positions(op, slot, _fresh_clone(base.ground), {base.n: alternatives})
    return witness in _DEFINITIONS[axiom](positions, base, _code(base.tiers, slot))


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
            (F, theory, "positions follow labels, so a permutation breaks transport"),
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
    """Check all seven axioms for every registered operator.

    The universe is enumerated once for all the cells, and each operator's
    position table serves its seven cells; neither outlives the call.
    """
    universe = _Universe(max_n)
    return {
        (name, axiom): CHECKERS[axiom](operator, universe)
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
