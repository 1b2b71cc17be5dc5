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
can iterate over the full set uniformly.  A public operator name such as
``dense`` or ``list_index`` is its registry entry, the one
:class:`PositionOperator` that the engine and ``rank`` use too; only
``affine``, which takes its coefficients, is a function.
"""

from __future__ import annotations

import re
import sys
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence, Union

from .orders import AltId, WeakOrder, label_key

Position = Fraction
Rational = Union[int, Fraction, Decimal, str]
# The values of an order's tiers, top tier first, read off its tier sizes.
TierRule = Callable[[Sequence[int]], Iterable[Union[int, Fraction]]]

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
            alt: value if type(value) is Fraction else to_fraction(value, "position")
            for alt, value in positions.items()
        }

    def __getitem__(self, alt: AltId) -> Fraction:
        return self._positions[alt]

    def __iter__(self) -> Iterator[AltId]:
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def items(self) -> ItemsView[AltId, Fraction]:
        # The dict's own view, not Mapping's generator over __getitem__; its
        # ``mapping`` is a read-only proxy.
        return self._positions.items()

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
    # Set by _tier_rule_operator alone: the rule ``fn`` applies, which reads
    # the values of an order's tiers off its tier sizes, never its labels,
    # and the ``fn`` it built from that rule; None for any other operator.
    # Not __init__ parameters, so a public construction or a
    # dataclasses.replace copy is unmarked.
    _tier_rule: TierRule | None = field(default=None, init=False, repr=False, compare=False)
    _tier_fn: Callable[[WeakOrder], PositionAssignment] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def in_domain(self, order: WeakOrder) -> bool:
        return self.domain is Domain.ALL_WEAK_ORDERS or order.is_linear

    def __call__(self, order: WeakOrder) -> PositionAssignment:
        if not self.in_domain(order):
            raise NotLinear(f"operator {self.name!r} is defined on linear orders only")
        return self.fn(order)


# ----- the principal operators --------------------------------------------

# The whole-number position k as a Fraction, built once for each k while it is
# held: the engine evaluates orders whose positions are a few small whole
# numbers tens of thousands of times.  Bounded, so that orders with many
# distinct whole-number positions cannot grow it without limit; a value it has
# dropped is built again, just as exact.
_whole = lru_cache(maxsize=256)(Fraction)


def _by_tier(order: WeakOrder, rule: TierRule) -> PositionAssignment:
    """Give every member of each tier the value ``rule`` gives that tier.

    The rule reads the order's tier sizes, top tier first, and returns one
    ``int`` or ``Fraction`` per tier.  A ``Fraction`` is handed out as it
    is, and an ``int`` as its shared :data:`_whole` constant rather than a
    new ``Fraction`` per evaluation, so the members of a tier share one
    ``Fraction`` either way.
    """
    positions: dict[AltId, Fraction] = {}
    for tier, value in zip(order.tiers, rule(list(map(len, order.tiers)))):
        position = value if type(value) is Fraction else _whole(value)
        for alt in tier:
            positions[alt] = position
    return PositionAssignment(positions)


def _tier_rule_operator(name: str, rule: TierRule, domain: Domain = Domain.ALL_WEAK_ORDERS) -> PositionOperator:
    """The operator that gives each tier of an order the value ``rule``
    reads off the order's tier sizes, marked with that rule.

    A relabelling of the order then relabels its positions and changes no
    value, so :mod:`rankops.axioms` may check one order per tier-size
    shape, and ``rank`` calls the rule on the tier sizes without building
    the order.  The operator also records the ``fn`` built here: only while
    ``fn`` is that function does the engine take neutrality as proved.
    """

    def fn(order: WeakOrder) -> PositionAssignment:
        return _by_tier(order, rule)

    op = PositionOperator(name=name, domain=domain, fn=fn)
    object.__setattr__(op, "_tier_rule", rule)
    object.__setattr__(op, "_tier_fn", fn)
    return op


# The rules of the tie-aware ranks.  A tier's dense rank is its number from 1
# at the top; it covers the integer ranks one more than the count of
# alternatives above it up to that count plus its own size.


def _dense_rule(sizes: Sequence[int]) -> Iterable[int]:
    return range(1, len(sizes) + 1)


def _standard_rule(sizes: Sequence[int]) -> Iterable[int]:
    # The first covered rank: one more than the sizes of the tiers above.
    return accumulate(sizes[:-1], initial=1)


def _modified_rule(sizes: Sequence[int]) -> Iterable[int]:
    # The last covered rank: the sizes of the tiers above and its own.
    return accumulate(sizes)


def _fractional_rule(sizes: Sequence[int]) -> Iterable[Fraction]:
    # The covered ranks average to the midpoint of the first and the last.
    return [Fraction(first + last, 2) for first, last in zip(_standard_rule(sizes), _modified_rule(sizes))]


# The unique 1..n assignment on a linear order, best first.  On a linear
# order each tier is one alternative, so the dense rule counts 1..n.
sequential = _tier_rule_operator("sequential", _dense_rule, Domain.LINEAR_ONLY)

# Dense rank: one more than the number of tiers strictly above.  Whole tiers
# are numbered 1, 2, 3, ... so the assigned values are exactly 1 through the
# tier count, with no gaps.
dense = _tier_rule_operator("dense", _dense_rule)


def _chain_positions(order: WeakOrder) -> PositionAssignment:
    by_count = {
        order.dominated_count(rep): _whole(depth)
        for depth, rep in enumerate(order.maximal_chain(), start=1)
    }
    return PositionAssignment(
        {alt: by_count[order.dominated_count(alt)] for alt in order.ground}
    )


# Dense rank computed along a maximal strict chain.  The chain's elements
# receive 1, 2, ... down the chain, and each value is propagated to all
# alternatives with the same dominated count.  This is an independent route
# to the same assignment as ``dense`` and is kept as a cross-check.
dense_via_chain = PositionOperator("dense-chain", Domain.ALL_WEAK_ORDERS, _chain_positions)

# Competition rank: ties get the highest rank they cover.
standard = _tier_rule_operator("standard", _standard_rule)

# Ties get the lowest rank they cover (count of weakly-better ones).
modified = _tier_rule_operator("modified", _modified_rule)

# Mid-rank: ties receive the mean of the integer ranks they cover.
fractional = _tier_rule_operator("fractional", _fractional_rule)


# ----- foil operators -------------------------------------------------------
#
# Each of these is useful only because of the precise property it breaks;
# see the expected verdict matrix in rankops.axioms.


def _quotient_rule(sizes: Sequence[int]) -> Iterable[Fraction]:
    return [Fraction(depth, size) for depth, size in enumerate(sizes, start=1)]


# Dense rank divided by the size of the alternative's own tier.  Coincides
# with the dense rank on linear orders, but cloning into a tier grows the
# denominator, so positions are not stable under duplication.
quotient = _tier_rule_operator("quotient", _quotient_rule)


def affine(order: WeakOrder, a: Rational, b: Rational) -> PositionAssignment:
    """An affine rescaling a*dense + b with non-negative coefficients.

    Stable under cloning for any coefficients, but agrees with the 1..n
    sequence on linear orders only when a = 1 and b = 0.
    """
    return make_affine_operator(a, b)(order)


def _plus_n_rule(sizes: Sequence[int]) -> Iterable[int]:
    n = sum(sizes)
    shift = 0 if len(sizes) == n else n
    return [depth + shift for depth in _dense_rule(sizes)]


# Dense rank shifted by the number of alternatives off linear orders.  The
# shift switches off exactly on linear orders, so deleting a bottom tier can
# flip an order into the unshifted regime and change every surviving position.
plus_n = _tier_rule_operator("plus-n", _plus_n_rule)


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
        return _whole(label)
    limit = _digit_limit()
    match = _TRAILING_DIGITS.search(label)
    if match:
        if len(match.group(1)) > limit:
            raise ValueError(f"label ends in more digits than Python prints ({limit})")
        return _whole(int(match.group(1)))
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


def _label_positions(order: WeakOrder) -> PositionAssignment:
    return PositionAssignment(
        {alt: _intrinsic_label_value(alt) for alt in order.ground}
    )


# Positions taken from the labels alone, e.g. x3 is always third.  Because the
# value is intrinsic to the label, restricting or reshaping the order never
# moves anybody, but the assignment is blind to the preference structure
# (tied alternatives get distinct positions, and a label numbered against the
# ranking breaks the 1..n sequence).
list_index = PositionOperator("list-index", Domain.ALL_WEAK_ORDERS, _label_positions)


def _dense_over_tier_count_rule(sizes: Sequence[int]) -> Iterable[Fraction]:
    return [Fraction(depth, len(sizes)) for depth in _dense_rule(sizes)]


# Dense rank divided by the total number of tiers.  A contraction of the dense
# rank: cloning keeps it unchanged, but removing the bottom tier shrinks the
# denominator and rescales every surviving position.
dense_over_tier_count = _tier_rule_operator("dense-over-tiercount", _dense_over_tier_count_rule)


# ----- exact numbers from outside --------------------------------------------

# The decimal spellings that Fraction(text) accepts: a sign, digits with single
# underscores between them, an optional fraction part and an optional exponent.
_DECIMAL = re.compile(r"[-+]?(?=\.?\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?(?:[eE][-+]?\d+(?:_\d+)*)?")
# Decimal arithmetic stays far inside its exponent range below this bound.
_EXPONENT_LIMIT = 10**15
# A run of digits, as int() counts them: the underscores between them do not.
_DIGIT_RUN = re.compile(r"[\d_]+")


def parse_exact(value: Rational, name: str = "value") -> int | Fraction | Decimal:
    """Read a number from outside exactly, or say which of four reasons refuses it.

    Text is read as ``Fraction(text)`` reads it, but a decimal is kept as a
    :class:`Decimal`, whose comparisons and hashes never build 10**exponent;
    ``p/q`` is read as a ``Fraction``.  The time is bounded by the text's
    length.  An ``int``, ``Fraction`` or ``Decimal`` is returned as it is;
    any other type, a ``float`` or a ``bool`` too, raises ``TypeError``.

    A refused value raises ``ValueError``: ``<name> is not an exact number``,
    ``has a zero denominator``, ``has more digits than Python prints (N)``
    (a run of digits that ``int`` refuses, or an ``int`` or ``Fraction``
    whose written form has one) or ``has an exponent out of range`` (a
    decimal whose leading digit lies beyond 10**15 places from the point),
    followed by the value when Python can print it.
    """
    if not isinstance(value, str):
        return _exact_value(value, name)
    body = value.strip()
    if len(body) > 640:
        # int() refuses a run longer than Python's limit on integer strings,
        # which is never below 640; 0 means no limit.
        limit = sys.get_int_max_str_digits()
        if limit and any(len(run) - run.count("_") > limit for run in _DIGIT_RUN.findall(body)):
            raise ValueError(f"{name} has more digits than Python prints ({limit}): {value!r}")
    if "/" in body:
        try:
            return Fraction(body)
        except ZeroDivisionError:
            raise ValueError(f"{name} has a zero denominator: {value!r}") from None
        except ValueError:  # not p/q in any spelling that Fraction reads
            raise ValueError(f"{name} is not an exact number: {value!r}") from None
    # On text without underscores, Decimal reads just the spellings that
    # _DECIMAL matches, and nan and inf besides: it reads every Unicode decimal
    # digit and space as \d and \s do.  The regex decides the rest.
    plain = "_" not in body
    try:
        number = Decimal(body) if plain or _DECIMAL.fullmatch(body) else None
    except InvalidOperation:
        # A spelling that Decimal refuses, or one whose exponent lies beyond
        # even Decimal's range: only the second is a spelling of _DECIMAL.
        if plain and not _DECIMAL.fullmatch(body):
            number = None
        else:
            raise ValueError(f"{name} has an exponent out of range: {value!r}") from None
    if number is None or not number.is_finite():
        raise ValueError(f"{name} is not an exact number: {value!r}")
    if abs(number.adjusted()) > _EXPONENT_LIMIT:
        raise ValueError(f"{name} has an exponent out of range: {value!r}")
    return number


def _exact_value(value: object, name: str) -> int | Fraction | Decimal:
    """:func:`parse_exact` for a value that is not text."""
    if isinstance(value, Decimal):
        if not value.is_finite():
            raise ValueError(f"{name} is not an exact number: {value!r}")
        if abs(value.adjusted()) > _EXPONENT_LIMIT:
            raise ValueError(f"{name} has an exponent out of range: {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{name} is not an exact number: {value!r}")
    limit = sys.get_int_max_str_digits()
    if limit and not _printable(value, limit):
        raise ValueError(f"{name} has more digits than Python prints ({limit})")
    return value


def _printable(value: int | Fraction, limit: int) -> bool:
    """Whether ``value``'s numerator and denominator have ``limit`` digits or fewer."""
    largest = max(abs(value.numerator), value.denominator)
    # 8**limit < 10**limit, so 3 * limit bits or fewer need no power of ten.
    return largest.bit_length() <= 3 * limit or largest < 10**limit


def to_fraction(value: Rational, name: str = "value") -> Fraction:
    """``value`` as a Fraction: the one way a number from outside becomes one.

    The value is read by :func:`parse_exact`, whose errors and message
    ``name`` it shares.  A numerator or denominator with more digits than
    Python prints (``sys.get_int_max_str_digits()``, or its default when
    that limit is off) raises ``ValueError`` too; a decimal that large is
    refused before its power of ten is built.
    """
    number = parse_exact(value, name)
    limit = _digit_limit()
    # A non-zero decimal's leading digit lies |adjusted| places from the
    # point, so beyond the limit its numerator or denominator is too long.
    if isinstance(number, Decimal) and number and abs(number.adjusted()) > limit:
        raise ValueError(f"{name} has more digits than Python prints ({limit})")
    fraction = Fraction(number)
    if not _printable(fraction, limit):
        raise ValueError(f"{name} has more digits than Python prints ({limit})")
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
    a, b = to_fraction(a, "affine coefficient a"), to_fraction(b, "affine coefficient b")
    if a < 0 or b < 0:
        raise NegativeCoefficient(f"coefficients must be non-negative, got a={a}, b={b}")
    if name is None:
        name = f"affine:a={a.numerator}/{a.denominator},b={b.numerator}/{b.denominator}"
    # a * depth + b over the common denominator, built as one Fraction.
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator

    def rule(sizes: Sequence[int]) -> Iterable[Fraction]:
        return [Fraction(an * bd * depth + bn * ad, ad * bd) for depth in _dense_rule(sizes)]

    return _tier_rule_operator(name, rule)


# In this order the report lists the operators.
REGISTRY: dict[str, PositionOperator] = {
    op.name: op
    for op in (
        dense,
        dense_via_chain,
        standard,
        modified,
        fractional,
        sequential,
        quotient,
        # Canonical non-identity instance; other coefficients via get_operator.
        make_affine_operator(2, 1, name="affine"),
        plus_n,
        list_index,
        dense_over_tier_count,
    )
}
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
            key, raw = key.strip(), raw.strip()
            if key not in ("a", "b") or key in params:
                raise UnknownOperator(f"bad affine parameter list in {name!r}")
            try:
                params[key] = to_fraction(raw, f"affine coefficient {key}")
            except ValueError as exc:
                raise UnknownOperator(str(exc)) from None
        if set(params) != {"a", "b"}:
            raise UnknownOperator(f"affine form needs both a= and b=: {name!r}")
        return make_affine_operator(params["a"], params["b"])
    raise UnknownOperator(f"no operator named {name!r}")
