"""Output checks, computed apart from the program under test.

Nothing here imports ``rankops``.  Scores are parsed with
``decimal.Decimal``, tiers and positions are derived from first
principles, and the verification report is checked against case counts
derived from an enumeration of tier-size compositions.  Every check
raises :class:`CheckFailed` with the first problem it finds.
"""

from __future__ import annotations

import csv
import decimal
import io
import itertools
import json
import math
import re
from decimal import Decimal
from fractions import Fraction

AXIOMS = (
    "equality",
    "neutrality",
    "sequentiality",
    "truncation",
    "duplication",
    "ud-independency",
    "monotonicity",
)
OPERATORS = (
    "dense",
    "dense-chain",
    "standard",
    "modified",
    "fractional",
    "sequential",
    "quotient",
    "affine",
    "plus-n",
    "list-index",
    "dense-over-tiercount",
)
LINEAR_ONLY = frozenset({"sequential"})
# The paper's two characterizations: each bundle singles out the dense rank.
BUNDLES = (
    ("sequentiality", "duplication"),
    ("sequentiality", "truncation", "ud-independency"),
)
DENSE_RANKS = frozenset({"dense", "dense-chain"})

# Generated scores have at most a dozen significant digits; a wide context
# that traps Inexact makes every gap subtraction exact or loud.
_EXACT = decimal.Context(prec=200, traps=[decimal.Inexact, decimal.InvalidOperation])


class CheckFailed(Exception):
    """The program's output disagrees with the independent computation."""


# ----- rank -----------------------------------------------------------------


def parse_scores(text: str) -> list[tuple[str, Decimal]]:
    rows = []
    for row in csv.reader(io.StringIO(text)):
        if row:
            ident, raw = row
            rows.append((ident, Decimal(raw.strip())))
    return rows


def tier_sizes(scores: list[Decimal], epsilon: Decimal) -> list[int]:
    """Sizes of the tiers, best first: equal scores share a tier, and a
    score joins the tier above when its gap to the previous score is at
    most ``epsilon`` (chained)."""
    sizes: list[int] = []
    previous = None
    for score in sorted(scores, reverse=True):
        if previous is not None and _EXACT.subtract(previous, score) <= epsilon:
            sizes[-1] += 1
        else:
            sizes.append(1)
        previous = score
    return sizes


def tier_positions(method: str, sizes: list[int]) -> list[Fraction]:
    """One position per tier, from the tier sizes alone."""
    positions = []
    above = 0
    for index, size in enumerate(sizes):
        positions.append(
            {
                "dense": Fraction(index + 1),
                "standard": Fraction(above + 1),
                "modified": Fraction(above + size),
                "fractional": Fraction(2 * above + size + 1, 2),
            }[method]
        )
        above += size
    return positions


def expected_ranking(text: str, method: str, epsilon: str = "0") -> list[tuple[str, Fraction]]:
    """(id, position) for every input row, sorted by position then id."""
    rows = parse_scores(text)
    by_score = sorted(rows, key=lambda row: row[1], reverse=True)
    sizes = tier_sizes([score for _, score in rows], Decimal(epsilon))
    positions = tier_positions(method, sizes)
    ranked = []
    rows_iter = iter(by_score)
    for size, position in zip(sizes, positions):
        ranked.extend((ident, position) for ident, _ in itertools.islice(rows_iter, size))
    return sorted(ranked, key=lambda row: (row[1], row[0]))


def _canonical_position(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CheckFailed(f"position {text!r} is not a number") from None
    if str(value) != text:
        raise CheckFailed(f"position {text!r} is not written as a reduced fraction")
    return value


def _compare_ranking(got: list[tuple[str, Fraction]], expected: list[tuple[str, Fraction]]) -> None:
    seen: set[str] = set()
    for ident, _ in got:
        if ident in seen:
            raise CheckFailed(f"id {ident!r} is listed more than once")
        seen.add(ident)
    wanted = dict(expected)
    missing = sorted(set(wanted) - seen)
    if missing:
        raise CheckFailed(f"{len(missing)} input id(s) missing, first {missing[0]!r}")
    extra = sorted(seen - set(wanted))
    if extra:
        raise CheckFailed(f"id {extra[0]!r} is not in the input")
    for ident, position in got:
        if position != wanted[ident]:
            raise CheckFailed(f"id {ident!r} has position {position}, expected {wanted[ident]}")
    if got != expected:
        raise CheckFailed("rows are not sorted by position, then id")


def check_rank_csv(output: str, expected: list[tuple[str, Fraction]]) -> None:
    lines = output.split("\n")
    if lines[0] != "id,position" or lines[-1] != "":
        raise CheckFailed("CSV output needs an id,position header and a final newline")
    got = []
    for line in lines[1:-1]:
        ident, sep, position = line.rpartition(",")
        if not sep:
            raise CheckFailed(f"malformed CSV row {line!r}")
        got.append((ident, _canonical_position(position)))
    _compare_ranking(got, expected)


def check_rank_json(output: str, expected: list[tuple[str, Fraction]], method: str) -> None:
    try:
        payload = json.loads(output)
        if payload["method"] != method:
            raise CheckFailed(f"method is {payload['method']!r}, expected {method!r}")
        got = []
        for entry in payload["positions"]:
            num, den = entry["position"]["numerator"], entry["position"]["denominator"]
            if type(num) is not int or type(den) is not int or den < 1 or math.gcd(num, den) != 1:
                raise CheckFailed(f"position {num}/{den} of {entry['id']!r} is not reduced")
            got.append((entry["id"], Fraction(num, den)))
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"malformed JSON output: {exc!r}") from None
    _compare_ranking(got, expected)


def check_linear_positions(output: str) -> None:
    """All scores distinct: the dense positions must be exactly 1..N."""
    body = output.split("\n")[1:-1]
    got = [line.rpartition(",")[2] for line in body]
    if got != [str(k) for k in range(1, len(body) + 1)]:
        raise CheckFailed("positions on an all-distinct input are not exactly 1..N")


def check_huge(returncode: int | None, stdout: str, stderr: str, order: tuple[str, ...]) -> None:
    """The huge-exponent input: the right order, or a clean exit 2."""
    if returncode == 0:
        expected = [(ident, Fraction(k)) for k, ident in enumerate(order, start=1)]
        check_rank_csv(stdout, expected)
    elif returncode == 2:
        if stderr.count("\n") != 1 or not stderr.endswith("\n") or "Traceback" in stderr:
            raise CheckFailed(f"exit 2 without a one-line error: {stderr[:200]!r}")
    else:
        raise CheckFailed(f"exit code {returncode} with stderr {stderr[-200:]!r}")


# ----- verify ---------------------------------------------------------------


def compositions(n: int):
    """Every sequence of positive tier sizes summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def expected_case_counts(max_n: int) -> dict[str, int]:
    """casesChecked of a passing, all-weak-orders cell, for each axiom but
    neutrality, from the number of weak orders with each tier-size
    sequence (a multinomial coefficient)."""
    counts = dict.fromkeys(AXIOMS, 0)
    del counts["neutrality"]
    for n in range(1, max_n + 1):
        counts["sequentiality"] += math.factorial(n)
        for sizes in compositions(n):
            orders = math.factorial(n)
            for size in sizes:
                orders //= math.factorial(size)
            k = len(sizes)
            counts["truncation"] += orders if k >= 2 else 0
            counts["duplication"] += orders * n
            counts["monotonicity"] += orders * n * (n - 1)
            counts["equality"] += orders * sum(math.comb(s, 2) for s in sizes)
            counts["ud-independency"] += orders * sum(s * (k - 1) for s in sizes if s >= 2)
    return counts


def _tier_index(tiers: list[list[str]], label: str) -> int:
    index = next((i for i, tier in enumerate(tiers) if label in tier), None)
    if index is None:
        raise CheckFailed(f"label {label!r} is not in the witness order {tiers}")
    return index


def position(operator: str, tiers: list[list[str]], label: str) -> Fraction:
    """Each registered operator, defined by one line on tier structure."""
    index = _tier_index(tiers, label)
    size, above = len(tiers[index]), sum(len(tier) for tier in tiers[:index])
    n, k = sum(len(tier) for tier in tiers), len(tiers)
    if operator in ("dense", "dense-chain", "sequential"):
        return Fraction(index + 1)
    if operator == "standard":
        return Fraction(above + 1)
    if operator == "modified":
        return Fraction(above + size)
    if operator == "fractional":
        return Fraction(2 * above + size + 1, 2)
    if operator == "quotient":
        return Fraction(index + 1, size)
    if operator == "affine":
        return Fraction(2 * (index + 1) + 1)
    if operator == "plus-n":
        return Fraction(index + 1 + (0 if n == k else n))
    if operator == "list-index":
        digits = re.search(r"[0-9]+$", label)
        if digits is None:
            raise CheckFailed(f"no list-index rule for label {label!r}")
        return Fraction(int(digits.group()))
    if operator == "dense-over-tiercount":
        return Fraction(index + 1, k)
    raise CheckFailed(f"unknown operator {operator!r}")


def check_witness(operator: str, axiom: str, witness: dict) -> None:
    """Recompute a FAIL witness's positions; they must show the violation."""
    base = witness["base"]["tiers"]
    moved = (witness["transformed"] or {}).get("tiers")
    subject, other = witness["subject"], witness["other"]
    if axiom == "equality":
        before, after = position(operator, base, subject), position(operator, base, other)
    elif axiom == "neutrality":
        before, after = position(operator, base, subject), position(operator, moved, other)
    elif axiom == "sequentiality":
        before, after = Fraction(_tier_index(base, subject) + 1), position(operator, base, subject)
    elif axiom == "duplication" and not any(subject in tier for tier in base):
        before, after = position(operator, moved, other), position(operator, moved, subject)
    elif axiom in ("truncation", "duplication", "ud-independency"):
        before, after = position(operator, base, subject), position(operator, moved, subject)
    elif axiom == "monotonicity":
        before, after = position(operator, base, subject), position(operator, base, other)
    else:
        raise CheckFailed(f"unknown axiom {axiom!r}")
    if (Fraction(witness["before"]), Fraction(witness["after"])) != (before, after):
        raise CheckFailed(
            f"{operator}/{axiom}: witness says {witness['before']} -> {witness['after']},"
            f" recomputed {before} -> {after}"
        )
    if axiom == "monotonicity":
        weakly = _tier_index(base, subject) <= _tier_index(base, other)
        violated = weakly != (before <= after)
    else:
        violated = before != after
    if not violated:
        raise CheckFailed(f"{operator}/{axiom}: witness shows no violation")


def check_verify(returncode: int | None, report: str, max_n: int) -> None:
    if returncode != 0:
        raise CheckFailed(f"verify exited with {returncode}")
    try:
        document = json.loads(report)
    except ValueError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    if document.get("allExpected") is not True or document.get("maxN") != max_n:
        raise CheckFailed("report lacks allExpected: true at the requested maxN")
    cells = {(cell["operator"], cell["axiom"]): cell for cell in document["matrix"]}
    wanted = set(itertools.product(OPERATORS, AXIOMS))
    if set(cells) != wanted or len(document["matrix"]) != len(wanted):
        raise CheckFailed("matrix does not hold exactly one cell per operator and axiom")

    def passes(operator: str, axiom: str) -> bool:
        return cells[(operator, axiom)]["observed"] == "pass"

    failing = [axiom for axiom in AXIOMS if not passes("dense", axiom)]
    if failing:
        raise CheckFailed(f"dense does not pass {failing}")
    for bundle in BUNDLES:
        passing = {op for op in OPERATORS if all(passes(op, axiom) for axiom in bundle)}
        if passing != DENSE_RANKS:
            raise CheckFailed(f"bundle {'+'.join(bundle)} is passed by {sorted(passing)}")
    counts = expected_case_counts(max_n)
    for (operator, axiom), cell in cells.items():
        if cell["observed"] == "fail":
            if cell["witness"] is None:
                raise CheckFailed(f"{operator}/{axiom} fails without a witness")
            check_witness(operator, axiom, cell["witness"])
        elif (
            cell["observed"] == "pass"
            and operator not in LINEAR_ONLY
            and axiom in counts
            and cell["casesChecked"] != counts[axiom]
        ):
            raise CheckFailed(
                f"{operator}/{axiom} checked {cell['casesChecked']} cases, expected {counts[axiom]}"
            )


def check_traced_cases(report: str, metrics: dict[str, float]) -> None:
    """A traced verify call's per-axiom case counts must equal the report's."""
    matrix = json.loads(report)["matrix"]
    for axiom in AXIOMS:
        cases = sum(cell["casesChecked"] for cell in matrix if cell["axiom"] == axiom)
        if metrics[f"axioms.cases.{axiom}"] != cases:
            raise CheckFailed(
                f"traced {axiom} cases {metrics[f'axioms.cases.{axiom}']}, report says {cases}"
            )
