"""Position operators: how ranked-with-ties data turns into numbers.

A position operator assigns every alternative of a weak order a numeric
position, starting at 1 for the best.  On linear orders there is only one
sensible assignment (1, 2, 3, ...); the operators differ in how they treat
ties:

* ``standard`` gives a tie the highest covered rank (the 1-1-3 pattern),
* ``modified`` gives it the lowest covered rank (2-2-3),
* ``fractional`` averages the covered ranks (1.5-1.5-3),
* ``dense`` numbers the tiers themselves (1-1-2), leaving no gaps.

All positions are exact :class:`fractions.Fraction` values so that
equalities and orderings between positions are decidable, never an
artifact of floating-point rounding.

The module also ships a family of deliberately flawed operators
(``quotient``, ``affine``, ``plus-n``, ``list-index``,
``dense-over-tiercount``).  Each one narrowly misses a specific
invariance property while keeping the others, which makes them the
standard foils for the axiom checks in :mod:`rankops.axioms`.  Every
operator, good or flawed, is registered by name so the checking engine
can iterate over the full set uniformly.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Union

from .orders import AltId, WeakOrder, label_key

Position = Fraction
Rational = Union[int, Fraction, str]

__all__ = [
    "Position",
    "PositionAssignment",
    "PositionOperator",
    "Domain",
    "NotLinear",
    "NegativeCoefficient",
    "UnknownOperator",
    "sequential",
    "dense",
    "dense_via_chain",
    "standard",
    "modified",
    "fractional",
    "quotient",
    "affine",
    "plus_n",
    "list_index",
    "dense_over_tier_count",
    "make_affine_operator",
    "get_operator",
    "REGISTRY",
    "OPERATOR_NAMES",
]


class NotLinear(ValueError):
    """Raised when an operator restricted to linear orders sees a tie."""


class NegativeCoefficient(ValueError):
    """Raised for affine coefficients below zero."""


class UnknownOperator(ValueError):
    """Raised by :func:`get_operator` for names outside the registry."""


class PositionAssignment(Mapping):
    """Immutable map from every alternative of an order to its position."""

    __slots__ = ("_positions",)

    def __init__(self, positions: Mapping[AltId, Rational]):
        self._positions = {
            alt: value if type(value) is Fraction else to_fraction(value)
            for alt, value in positions.items()
        }

    def __getitem__(self, alt: AltId) -> Fraction:
        return self._positions[alt]

    def __iter__(self) -> Iterator[AltId]:
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{alt!r}: {value}" for alt, value in sorted(self._positions.items(), key=lambda kv: label_key(kv[0]))
        )
        return f"PositionAssignment({{{parts}}})"


class Domain(Enum):
    """Which orders an operator accepts."""

    ALL_WEAK_ORDERS = "all-weak-orders"
    LINEAR_ONLY = "linear-only"


@dataclass(frozen=True)
class PositionOperator:
    """A named, pure map from weak orders to position assignments."""

    name: str
    domain: Domain
    fn: Callable[[WeakOrder], PositionAssignment] = field(compare=False)

    def in_domain(self, order: WeakOrder) -> bool:
        return self.domain is Domain.ALL_WEAK_ORDERS or order.is_linear

    def __call__(self, order: WeakOrder) -> PositionAssignment:
        if not self.in_domain(order):
            raise NotLinear(f"operator {self.name!r} is defined on linear orders only")
        return self.fn(order)


# ----- the principal operators --------------------------------------------


def _by_tier(order: WeakOrder, value: Callable[[int, int, int], Rational]) -> PositionAssignment:
    """Give every member of a tier the position ``value(depth, above, size)``.

    ``depth`` is the tier's number counted from 1 at the top, ``above`` the
    number of alternatives in the tiers before it and ``size`` its own
    cardinality: the three quantities the tie-aware ranks are defined by.
    """
    positions: dict[AltId, Fraction] = {}
    above = 0
    for depth, tier in enumerate(order.tiers, start=1):
        position = Fraction(value(depth, above, len(tier)))
        for alt in tier:
            positions[alt] = position
        above += len(tier)
    return PositionAssignment(positions)


def sequential(order: WeakOrder) -> PositionAssignment:
    """The unique 1..n assignment on a linear order, best first."""
    if not order.is_linear:
        raise NotLinear("sequential positions require a linear order")
    return _by_tier(order, lambda depth, above, size: depth)


def dense(order: WeakOrder) -> PositionAssignment:
    """Dense rank: one more than the number of tiers strictly above.

    Whole tiers are numbered 1, 2, 3, ... so the assigned values are
    exactly 1 through the tier count, with no gaps.
    """
    return _by_tier(order, lambda depth, above, size: depth)


def dense_via_chain(order: WeakOrder) -> PositionAssignment:
    """Dense rank computed along a maximal strict chain.

    The chain's elements receive 1, 2, ... down the chain, and each value
    is propagated to all alternatives with the same dominated count.  This
    is an independent route to the same assignment as :func:`dense` and is
    kept as a cross-check.
    """
    by_count = {
        order.dominated_count(rep): Fraction(depth)
        for depth, rep in enumerate(order.maximal_chain(), start=1)
    }
    return PositionAssignment(
        {alt: by_count[order.dominated_count(alt)] for alt in order.ground}
    )


def standard(order: WeakOrder) -> PositionAssignment:
    """Competition rank: ties get the highest rank they cover."""
    return _by_tier(order, lambda depth, above, size: above + 1)


def modified(order: WeakOrder) -> PositionAssignment:
    """Ties get the lowest rank they cover (count of weakly-better ones)."""
    return _by_tier(order, lambda depth, above, size: above + size)


def fractional(order: WeakOrder) -> PositionAssignment:
    """Mid-rank: ties receive the mean of the integer ranks they cover."""
    # The covered ranks above+1 .. above+size average to their midpoint.
    return _by_tier(order, lambda depth, above, size: Fraction(2 * above + size + 1, 2))


# ----- foil operators -------------------------------------------------------
#
# Each of these is useful only because of the precise property it breaks;
# see the expected verdict matrix in rankops.axioms.


def quotient(order: WeakOrder) -> PositionAssignment:
    """Dense rank divided by the size of the alternative's own tier.

    Coincides with the dense rank on linear orders, but cloning into a
    tier grows the denominator, so positions are not stable under
    duplication.
    """
    return _by_tier(order, lambda depth, above, size: Fraction(depth, size))


def affine(order: WeakOrder, a: Rational, b: Rational) -> PositionAssignment:
    """An affine rescaling a*dense + b with non-negative coefficients.

    Stable under cloning for any coefficients, but agrees with the 1..n
    sequence on linear orders only when a = 1 and b = 0.
    """
    return make_affine_operator(a, b)(order)


def plus_n(order: WeakOrder) -> PositionAssignment:
    """Dense rank shifted by the number of alternatives off linear orders.

    The shift switches off exactly on linear orders, so deleting a bottom
    tier can flip an order into the unshifted regime and change every
    surviving position.
    """
    shift = 0 if order.is_linear else order.n
    return _by_tier(order, lambda depth, above, size: depth + shift)


_TRAILING_DIGITS = re.compile(r"([0-9]+)$")


def _intrinsic_label_value(label: AltId) -> Fraction:
    """A position read off the label itself, ignoring the order.

    Integer labels map to themselves and labels with a digit suffix map to
    that number, so a ground set x1, x2, x3 yields 1, 2, 3.  Any other
    string maps to a deterministic fraction in (0, 1) that preserves the
    lexicographic order of the labels: the sum of (byte + 1) / 257**k over
    its UTF-8 bytes.  A label whose denominator 257**k would have more
    digits than Python prints raises ``ValueError``.
    """
    if isinstance(label, int):
        return Fraction(label)
    limit = _digit_limit()
    match = _TRAILING_DIGITS.search(label)
    if match:
        if len(match.group(1)) > limit:
            raise ValueError(f"label ends in more digits than Python prints ({limit})")
        return Fraction(int(match.group(1)))
    data = label.encode("utf-8")
    # 10**(2k) < 257**k < 10**(3k), so only a length between the two bounds
    # needs the exact comparison.
    k = len(data)
    if 2 * k >= limit or (3 * k > limit and 257**k >= 10**limit):
        raise ValueError(f"label is too long for a position Python prints ({limit} digits)")
    numerator = 0
    for byte in data:
        numerator = numerator * 257 + byte + 1
    return Fraction(numerator, 257**k)


def list_index(order: WeakOrder) -> PositionAssignment:
    """Positions taken from the labels alone, e.g. x3 is always third.

    Because the value is intrinsic to the label, restricting or reshaping
    the order never moves anybody, but the assignment is blind to the
    preference structure (tied alternatives get distinct positions, and a
    label numbered against the ranking breaks the 1..n sequence).
    """
    return PositionAssignment(
        {alt: _intrinsic_label_value(alt) for alt in order.ground}
    )


def dense_over_tier_count(order: WeakOrder) -> PositionAssignment:
    """Dense rank divided by the total number of tiers.

    A contraction of the dense rank: cloning keeps it unchanged, but
    removing the bottom tier shrinks the denominator and rescales every
    surviving position.
    """
    tiers = order.num_tiers
    return _by_tier(order, lambda depth, above, size: Fraction(depth, tiers))


# ----- exact numbers from text ----------------------------------------------

# The decimal spellings that Fraction(text) accepts: a sign, digits with single
# underscores between them, an optional fraction part and an optional exponent.
_DECIMAL = re.compile(r"[-+]?(?=\.?\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?(?:[eE][-+]?\d+(?:_\d+)*)?")
# Decimal arithmetic stays far inside its exponent range below this bound.
_EXPONENT_LIMIT = 10**15


def parse_exact(text: str) -> Decimal | Fraction:
    """Read an exact number written as a decimal or as ``p/q``.

    Accepts the spellings ``Fraction(text)`` accepts, with the same values
    and the same errors, but keeps a decimal as a :class:`Decimal`: its
    comparisons and hashes are exact and never build 10**exponent, which
    ``Fraction`` does.  The ``p/q`` form has no exponent, so it is read as a
    ``Fraction``.  Either way the time taken is bounded by the text's length.
    A decimal whose leading digit lies beyond 10**15 places from the point
    raises ``ValueError``.
    """
    body = text.strip()
    if "/" in body or not _DECIMAL.fullmatch(body):
        # p/q, or a spelling that Fraction refuses too, with its own message.
        return Fraction(text)
    if len(body) > 640:
        # Fraction reads each run of digits with int(), which refuses a run
        # longer than Python's limit on integer strings (never below 640).
        for run in re.split("[.eE]", body):
            if run:
                int(run)
    try:
        value = Decimal(body)
        in_range = abs(value.adjusted()) <= _EXPONENT_LIMIT
    except InvalidOperation:  # an exponent beyond even Decimal's range
        in_range = False
    if not in_range:
        raise ValueError(f"exponent out of range: {text!r}")
    return value


def to_fraction(value: Rational | Decimal) -> Fraction:
    """``value`` as a Fraction: the one way a number from outside becomes one.

    Text is read by :func:`parse_exact`, so its time is bounded by its
    length.  A numerator or denominator with more digits than Python prints
    (``sys.get_int_max_str_digits()``, or its default when that limit is
    off) raises ``ValueError``; a decimal that large is refused before its
    power of ten is built.
    """
    if isinstance(value, str):
        value = parse_exact(value)
    limit = _digit_limit()
    # A non-zero decimal's leading digit lies |adjusted| places from the
    # point, so beyond the limit its numerator or denominator is too long.
    if isinstance(value, Decimal) and value and abs(value.adjusted()) > limit:
        raise ValueError(f"more digits than Python prints ({limit})")
    fraction = Fraction(value)
    bound = 10**limit
    if abs(fraction.numerator) >= bound or fraction.denominator >= bound:
        raise ValueError(f"more digits than Python prints ({limit})")
    return fraction


def _digit_limit() -> int:
    """Python's limit on the digits of an integer string, or its default when
    that limit is off: the longest numerator or denominator accepted."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


# ----- registry -------------------------------------------------------------


def make_affine_operator(
    a: Rational, b: Rational, name: str | None = None
) -> PositionOperator:
    """Build the affine operator for given coefficients.

    The default name serialises the coefficients as exact fractions, e.g.
    ``affine:a=2/1,b=1/1``.  The coefficients are checked here, once.
    """
    a, b = to_fraction(a), to_fraction(b)
    if a < 0 or b < 0:
        raise NegativeCoefficient(f"coefficients must be non-negative, got a={a}, b={b}")
    if name is None:
        name = f"affine:a={a.numerator}/{a.denominator},b={b.numerator}/{b.denominator}"
    return PositionOperator(
        name=name,
        domain=Domain.ALL_WEAK_ORDERS,
        fn=lambda order: _by_tier(order, lambda depth, above, size: a * depth + b),
    )


def _register() -> dict[str, PositionOperator]:
    def op(name: str, fn: Callable[[WeakOrder], PositionAssignment], domain: Domain = Domain.ALL_WEAK_ORDERS) -> PositionOperator:
        return PositionOperator(name=name, domain=domain, fn=fn)

    entries = [
        op("dense", dense),
        op("dense-chain", dense_via_chain),
        op("standard", standard),
        op("modified", modified),
        op("fractional", fractional),
        op("sequential", sequential, Domain.LINEAR_ONLY),
        op("quotient", quotient),
        # Canonical non-identity instance; other coefficients via get_operator.
        make_affine_operator(2, 1, name="affine"),
        op("plus-n", plus_n),
        op("list-index", list_index),
        op("dense-over-tiercount", dense_over_tier_count),
    ]
    return {entry.name: entry for entry in entries}


REGISTRY: dict[str, PositionOperator] = _register()
OPERATOR_NAMES: tuple[str, ...] = tuple(REGISTRY)


def get_operator(name: str) -> PositionOperator:
    """Look up a registered operator, or build a parameterised affine one.

    Accepts the stable registry names plus the serialised affine form
    ``affine:a=<p>/<q>,b=<p>/<q>`` (plain integers are accepted too).
    """
    if name in REGISTRY:
        return REGISTRY[name]
    if name.startswith("affine:"):
        params: dict[str, Fraction] = {}
        for part in name[len("affine:") :].split(","):
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in ("a", "b") or key in params:
                raise UnknownOperator(f"bad affine parameter list in {name!r}")
            try:
                params[key] = to_fraction(raw.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise UnknownOperator(f"bad affine coefficient in {name!r}: {exc}") from None
        if set(params) != {"a", "b"}:
            raise UnknownOperator(f"affine form needs both a= and b=: {name!r}")
        return make_affine_operator(params["a"], params["b"])
    raise UnknownOperator(f"no operator named {name!r}")
