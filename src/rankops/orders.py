"""Weak orders over finite sets of alternatives.

A weak order (also called a complete preorder) ranks a finite set of
alternatives while allowing ties.  Internally it is stored as its tier
decomposition: an ordered sequence of non-empty, pairwise disjoint sets of
alternatives, best tier first.  Alternatives in the same tier are mutually
indifferent; an alternative strictly precedes everything in later tiers.
Storing tiers directly makes completeness and transitivity structural
properties instead of conditions that have to be re-checked.

The module also provides the structural transforms the rest of the library
quantifies over (restriction, relabelling, bottom-tier truncation, cloning,
vertical moves between existing tiers), exhaustive enumerators for all
weak or linear orders on a ground set, and ``engine_ground``, the labels
x1..xn that the verification engine and ``enumerate`` quantify over.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence, Union

AltId = Union[int, str]

__all__ = [
    "AltId",
    "WeakOrder",
    "TierSignature",
    "OrderError",
    "EmptyOrder",
    "EmptyTier",
    "DuplicateAlternative",
    "NotComplete",
    "NotTransitive",
    "UnknownAlternative",
    "NotASubset",
    "NotABijection",
    "SingleTier",
    "CloneAlreadyPresent",
    "SourceTierWouldVanish",
    "TargetTierAbsent",
    "EmptyGround",
    "label_key",
    "from_tiers",
    "from_pairs",
    "enumerate_weak_orders",
    "enumerate_linear_orders",
    "engine_ground",
    "ordered_bell",
    "weak_order_to_json",
    "weak_order_from_json",
]


class OrderError(ValueError):
    """Base class for structural errors on weak orders."""


class EmptyOrder(OrderError):
    """Raised when an order would have no tiers at all."""


class EmptyTier(OrderError):
    """Raised when a tier contains no alternatives."""


class DuplicateAlternative(OrderError):
    """Raised when an alternative appears in more than one tier, or twice in
    one tier of the interchange form."""


class NotComplete(OrderError):
    """Raised by ``from_pairs`` when some pair is incomparable both ways."""


class NotTransitive(OrderError):
    """Raised by ``from_pairs`` with a witness triple breaking transitivity."""


class UnknownAlternative(OrderError):
    """Raised when an alternative is not part of the order's ground set."""


class NotASubset(OrderError):
    """Raised by ``restrict`` when the target set leaves the ground set."""


class NotABijection(OrderError):
    """Raised by ``relabel`` when the mapping is not injective over ground."""


class SingleTier(OrderError):
    """Raised by ``truncate_bottom`` on a one-tier order."""


class CloneAlreadyPresent(OrderError):
    """Raised by ``duplicate`` when the clone id already exists."""


class SourceTierWouldVanish(OrderError):
    """Raised by ``ud_move`` when the mover is alone in its tier."""


class TargetTierAbsent(OrderError):
    """Raised by ``ud_move`` for a target index that is no usable tier."""


class EmptyGround(OrderError):
    """Raised by the enumerators for an empty ground set."""


def label_key(label: AltId) -> tuple[int, object]:
    """Deterministic sort key over labels: integers first, then strings."""
    return (0, label) if isinstance(label, int) else (1, str(label))


@dataclass(frozen=True)
class TierSignature:
    """The dominated-counts realised by an order's tiers.

    ``realized`` is the set of integers p such that some alternative
    dominates exactly p others; ``sizes`` pairs each realised count with the
    cardinality of its tier, top tier first.  The bottom tier always
    contributes p = 0, and the number of realised counts equals the number
    of tiers.
    """

    realized: frozenset[int]
    sizes: tuple[tuple[int, int], ...]

    @property
    def num_tiers(self) -> int:
        return len(self.sizes)

    def size_of(self, p: int) -> int:
        for count, size in self.sizes:
            if count == p:
                return size
        raise KeyError(p)


@dataclass(frozen=True)
class WeakOrder:
    """An immutable weak order stored as its tier decomposition.

    ``tiers`` lists the indifference classes from best to worst.  All
    other views of the relation (strict preference, indifference, dominated
    counts) are derived from tier membership.  A label is a ``str`` or an
    ``int`` (not a ``bool``); any other raises ``OrderError``.
    """

    tiers: tuple[frozenset[AltId], ...]
    ground: frozenset[AltId] = field(init=False, compare=False, repr=False)
    _index: dict[AltId, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        tiers = tuple(map(frozenset, self.tiers))
        object.__setattr__(self, "tiers", tiers)
        if not tiers:
            raise EmptyOrder("a weak order needs at least one tier")
        index: dict[AltId, int] = {}
        for position, tier in enumerate(tiers):
            if not tier:
                raise EmptyTier(f"tier {position} is empty")
            for alt in tier:
                # Most labels are str: one type test passes them.
                if type(alt) is not str and (not isinstance(alt, (str, int)) or isinstance(alt, bool)):
                    raise OrderError(f"labels must be strings or integers, got {alt!r}")
                if alt in index:
                    raise DuplicateAlternative(
                        f"alternative {alt!r} appears in tiers {index[alt]} and {position}"
                    )
                index[alt] = position
        object.__setattr__(self, "ground", frozenset(index))
        object.__setattr__(self, "_index", index)

    # ----- basic views -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of alternatives."""
        return len(self.ground)

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    @property
    def is_linear(self) -> bool:
        """True when every tier is a singleton (no ties anywhere)."""
        return len(self.tiers) == len(self._index)

    def tier_index_of(self, alt: AltId) -> int:
        """0-based tier position of ``alt``, counted from the top."""
        try:
            return self._index[alt]
        except KeyError:
            raise UnknownAlternative(f"unknown alternative {alt!r}") from None

    def tier_of(self, alt: AltId) -> frozenset[AltId]:
        return self.tiers[self.tier_index_of(alt)]

    def weakly_prefers(self, a: AltId, b: AltId) -> bool:
        """a R b: a sits in the same tier as b or in an earlier one."""
        return self.tier_index_of(a) <= self.tier_index_of(b)

    def prefers(self, a: AltId, b: AltId) -> bool:
        """a P b: a sits in a strictly earlier tier than b."""
        return self.tier_index_of(a) < self.tier_index_of(b)

    def indifferent(self, a: AltId, b: AltId) -> bool:
        """a I b: a and b share a tier."""
        return self.tier_index_of(a) == self.tier_index_of(b)

    # Lazy: most orders the enumerators and transforms build never need it.
    @cached_property
    def _below(self) -> tuple[int, ...]:
        """Per tier, top first: how many alternatives lie in later tiers."""
        return tuple(self.n - covered for covered in itertools.accumulate(map(len, self.tiers)))

    def dominated_count(self, alt: AltId) -> int:
        """Number of alternatives strictly below ``alt``."""
        return self._below[self.tier_index_of(alt)]

    def sorted_alternatives(self) -> list[AltId]:
        """All alternatives in the canonical label order."""
        return sorted(self.ground, key=label_key)

    def tier_signature(self) -> TierSignature:
        sizes = tuple(zip(self._below, map(len, self.tiers)))
        return TierSignature(frozenset(self._below), sizes)

    def maximal_chain(self) -> tuple[AltId, ...]:
        """One representative per tier, top to bottom.

        Consecutive elements are strictly ordered, and no strict chain in
        the order can be longer.  The representative is always the
        smallest label in its tier, in :func:`label_key` order, so that the
        result is reproducible.
        """
        # On a tier of int labels only, or of str labels only, label_key
        # orders the labels as < does, so a plain min picks the same label
        # without a key call per label.  Only a tier that mixes the two makes
        # < raise, and then label_key's order (ints first) is taken.
        try:
            return tuple(map(min, self.tiers))
        except TypeError:
            return tuple(min(tier, key=label_key) for tier in self.tiers)

    # ----- transforms ----------------------------------------------------

    def restrict(self, subset: Iterable[AltId]) -> "WeakOrder":
        """The induced order on ``subset``, which must be a non-empty part
        of the ground set."""
        wanted = frozenset(subset)
        if not wanted:
            raise EmptyOrder("cannot restrict to an empty set")
        if not wanted <= self.ground:
            extra = sorted(wanted - self.ground, key=label_key)
            raise NotASubset(f"not part of the ground set: {extra}")
        kept = tuple(tier & wanted for tier in self.tiers if tier & wanted)
        return WeakOrder(kept)

    def relabel(self, mapping: Mapping[AltId, AltId]) -> "WeakOrder":
        """Transport the order along a relabelling of its alternatives.

        ``mapping`` must assign a distinct new label to every alternative;
        the tier structure is preserved under the renaming.
        """
        missing = [a for a in self.ground if a not in mapping]
        if missing:
            raise NotABijection(
                f"mapping undefined for {sorted(missing, key=label_key)}"
            )
        images = [mapping[a] for a in self.ground]
        if len(set(images)) != len(images):
            raise NotABijection("mapping is not injective on the ground set")
        return WeakOrder(tuple(frozenset(mapping[a] for a in tier) for tier in self.tiers))

    def truncate_bottom(self) -> "WeakOrder":
        """Drop the bottom tier, keeping the rest of the order untouched."""
        if self.num_tiers < 2:
            raise SingleTier("truncating a one-tier order would leave nothing")
        return WeakOrder(self.tiers[:-1])

    def duplicate(self, pattern: AltId, clone: AltId) -> "WeakOrder":
        """Add ``clone`` as a new alternative tied with ``pattern``.

        The result restricted back to the original ground set is this
        order; the number of tiers never changes.
        """
        position = self.tier_index_of(pattern)
        if clone in self.ground:
            raise CloneAlreadyPresent(f"{clone!r} is already an alternative")
        tiers = list(self.tiers)
        tiers[position] = tiers[position] | {clone}
        return WeakOrder(tuple(tiers))

    def ud_move(self, mover: AltId, target_tier: int) -> "WeakOrder":
        """Move one alternative into another already existing tier.

        The mover must leave behind a non-empty tier (so the move destroys
        no tier) and the target must be a different, pre-existing tier
        (so the move creates none).  Upward and downward moves are both
        allowed.
        """
        source = self.tier_index_of(mover)
        if len(self.tiers[source]) < 2:
            raise SourceTierWouldVanish(
                f"{mover!r} is alone in tier {source}; moving it would delete the tier"
            )
        if not isinstance(target_tier, int) or isinstance(target_tier, bool):
            raise TargetTierAbsent(f"tier {target_tier!r} is not a tier index")
        if not 0 <= target_tier < self.num_tiers:
            raise TargetTierAbsent(
                f"tier {target_tier} does not exist (order has {self.num_tiers} tiers)"
            )
        if target_tier == source:
            raise TargetTierAbsent(f"tier {target_tier} is the mover's own tier")
        tiers = list(self.tiers)
        tiers[source] = tiers[source] - {mover}
        tiers[target_tier] = tiers[target_tier] | {mover}
        return WeakOrder(tuple(tiers))

    # ----- misc -----------------------------------------------------------

    def __str__(self) -> str:
        blocks = (
            "{" + ", ".join(str(a) for a in sorted(tier, key=label_key)) + "}"
            for tier in self.tiers
        )
        return " > ".join(blocks)


def from_tiers(tier_list: Sequence[Iterable[AltId]]) -> WeakOrder:
    """Build a weak order from its tiers, given best tier first."""
    return WeakOrder(tuple(tier_list))


def from_pairs(
    ground: Iterable[AltId], weak_prefs: Iterable[tuple[AltId, AltId]]
) -> WeakOrder:
    """Recover the tier decomposition from an explicit relation.

    ``weak_prefs`` holds the pairs (a, b) with "a at least as good as b";
    reflexive pairs may be omitted.  The relation must be complete and
    transitive, otherwise ``NotComplete`` or ``NotTransitive`` reports a
    witness.  Tiers are rebuilt by grouping alternatives on the number of
    alternatives they strictly dominate.
    """
    members = frozenset(ground)
    if not members:
        raise EmptyGround("ground set is empty")
    related: set[tuple[AltId, AltId]] = set()
    for a, b in weak_prefs:
        for alt in (a, b):
            if alt not in members:
                raise UnknownAlternative(f"pair mentions unknown alternative {alt!r}")
        related.add((a, b))
    related.update((a, a) for a in members)

    ordered = sorted(members, key=label_key)
    for a, b in itertools.combinations(ordered, 2):
        if (a, b) not in related and (b, a) not in related:
            raise NotComplete(f"neither {a!r} R {b!r} nor {b!r} R {a!r}")
    for a in ordered:
        for b in ordered:
            for c in ordered:
                if (a, b) in related and (b, c) in related and (a, c) not in related:
                    raise NotTransitive(
                        f"{a!r} R {b!r} and {b!r} R {c!r} but not {a!r} R {c!r}"
                    )

    def dominated(a: AltId) -> int:
        return sum(1 for b in members if b != a and (b, a) not in related)

    groups: dict[int, set[AltId]] = {}
    for a in members:
        groups.setdefault(dominated(a), set()).add(a)
    tiers = tuple(frozenset(groups[p]) for p in sorted(groups, reverse=True))
    return WeakOrder(tiers)


def enumerate_weak_orders(ground: Iterable[AltId]) -> Iterator[WeakOrder]:
    """Yield every weak order on ``ground`` exactly once.

    Orders are produced by choosing the top tier among the non-empty
    subsets of the remaining alternatives (subsets listed by size, then
    lexicographically by label) and recursing below it.  The enumeration
    order is therefore deterministic across runs; the total count is the
    ordered Bell number of the ground size.
    """
    items = tuple(sorted(frozenset(ground), key=label_key))
    if not items:
        raise EmptyGround("ground set is empty")

    def partitions(rest: tuple[AltId, ...]) -> Iterator[tuple[frozenset[AltId], ...]]:
        if not rest:
            yield ()
            return
        for size in range(1, len(rest) + 1):
            for top in itertools.combinations(rest, size):
                chosen = frozenset(top)
                remaining = tuple(x for x in rest if x not in chosen)
                for tail in partitions(remaining):
                    yield (chosen,) + tail

    for tiers in partitions(items):
        yield WeakOrder(tiers)


def enumerate_linear_orders(ground: Iterable[AltId]) -> Iterator[WeakOrder]:
    """Yield every linear order on ``ground`` as singleton-tier orders."""
    items = tuple(sorted(frozenset(ground), key=label_key))
    if not items:
        raise EmptyGround("ground set is empty")
    for perm in itertools.permutations(items):
        yield WeakOrder(tuple(frozenset((alt,)) for alt in perm))


def engine_ground(n: int) -> tuple[str, ...]:
    """The canonical ground set the engine quantifies over: x1..xn."""
    return tuple(f"x{i}" for i in range(1, n + 1))


def ordered_bell(n: int) -> int:
    """Number of weak orders on n labelled alternatives."""
    if n < 0:
        raise ValueError("n must be non-negative")
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    return counts[n]


def weak_order_to_json(order: WeakOrder) -> dict:
    """Interchange form: ``{"tiers": [[...], ...]}``, top tier first."""
    return {"tiers": [sorted(tier, key=label_key) for tier in order.tiers]}


def weak_order_from_json(payload: object) -> WeakOrder:
    """Build an order from the decoded interchange form produced by
    :func:`weak_order_to_json`."""
    if not isinstance(payload, dict) or "tiers" not in payload:
        raise OrderError('expected an object with a "tiers" key')
    tiers = payload["tiers"]
    if not isinstance(tiers, list) or not all(isinstance(t, list) for t in tiers):
        raise OrderError('"tiers" must be a list of lists of labels')
    for position, tier in enumerate(tiers):
        seen: set[AltId] = set()
        for label in tier:
            if not isinstance(label, (str, int)) or isinstance(label, bool):
                raise OrderError(f"labels must be strings or integers, got {label!r}")
            # from_tiers makes each tier a set, which would merge a repeat silently.
            if label in seen:
                raise DuplicateAlternative(f"alternative {label!r} appears twice in tier {position}")
            seen.add(label)
    return from_tiers(tiers)
