from __future__ import annotations

import math
import re

import pytest
import support
from hypothesis import given, strategies as st

from rankops import (
    CloneAlreadyPresent,
    DuplicateAlternative,
    EmptyGround,
    EmptyOrder,
    EmptyTier,
    NotABijection,
    NotASubset,
    NotComplete,
    NotTransitive,
    OrderError,
    SingleTier,
    SourceTierWouldVanish,
    TargetTierAbsent,
    UnknownAlternative,
    WeakOrder,
    engine_ground,
    enumerate_linear_orders,
    enumerate_weak_orders,
    from_pairs,
    from_tiers,
    label_key,
    ordered_bell,
    weak_order_from_json,
    weak_order_to_json,
)

# Independent count oracle: the number of ordered set partitions of n items
# satisfies a(0) = 1, a(n) = sum over top-block sizes k of C(n, k) * a(n - k).
def _partition_count(n: int) -> int:
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    return counts[n]


EXPECTED_COUNTS = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541}


# ----- construction ---------------------------------------------------------


def test_from_tiers_basic(two_tied_top):
    assert two_tied_top.indifferent("x", "y")
    assert two_tied_top.prefers("x", "z")
    assert two_tied_top.n == 3
    assert not two_tied_top.is_linear


def test_single_alternative_is_linear():
    order = from_tiers([{"a"}])
    assert order.n == 1
    assert order.is_linear
    assert order.num_tiers == 1


def test_from_tiers_rejects_duplicates():
    with pytest.raises(DuplicateAlternative):
        from_tiers([{"a"}, {"a"}])


def test_from_tiers_rejects_empty_tier():
    with pytest.raises(EmptyTier):
        from_tiers([{"a"}, set()])


def test_from_tiers_rejects_no_tiers():
    with pytest.raises(EmptyOrder):
        from_tiers([])


@pytest.mark.parametrize("label", [2.5, (1, 2), None, True], ids=repr)
def test_labels_other_than_strings_and_integers_are_refused(label):
    message = "^" + re.escape(f"labels must be strings or integers, got {label!r}") + "$"
    with pytest.raises(OrderError, match=message):
        from_tiers([{"a"}, {label}])
    with pytest.raises(OrderError, match=message):
        WeakOrder((frozenset({label}),))
    with pytest.raises(OrderError, match=message):
        from_tiers([{"a"}, {"b"}]).relabel({"a": label, "b": "c"})


def test_from_pairs_recovers_tiers():
    ground = {"x", "y", "z"}
    pairs = {("x", "y"), ("y", "x"), ("x", "z"), ("y", "z")}
    pairs |= {(a, a) for a in ground}
    order = from_pairs(ground, pairs)
    assert order == from_tiers([{"x", "y"}, {"z"}])


def test_from_pairs_singleton():
    assert from_pairs({"a"}, {("a", "a")}) == from_tiers([{"a"}])


def test_from_pairs_detects_incompleteness():
    with pytest.raises(NotComplete):
        from_pairs({"a", "b", "c"}, {("a", "b"), ("b", "c")})


def test_from_pairs_detects_intransitivity():
    # a cycle is complete but not transitive
    with pytest.raises(NotTransitive) as excinfo:
        from_pairs({"a", "b", "c"}, {("a", "b"), ("b", "c"), ("c", "a")})
    assert "R" in str(excinfo.value)


def test_from_pairs_rejects_unknown_members():
    with pytest.raises(UnknownAlternative):
        from_pairs({"a"}, {("a", "b")})


def test_from_pairs_matches_induced_relation_exhaustively():
    for order in support.orders_up_to(4):
        pairs = {
            (a, b)
            for a in order.ground
            for b in order.ground
            if order.weakly_prefers(a, b)
        }
        assert from_pairs(order.ground, pairs) == order


# ----- structural queries ----------------------------------------------------


def test_dominated_counts_on_four_tier_example(four_tier_ten):
    assert four_tier_ten.dominated_count("x3") == 9
    assert four_tier_ten.dominated_count("x6") == 7
    assert four_tier_ten.dominated_count("x2") == 0


def test_dominated_count_unknown_alternative(two_tied_top):
    with pytest.raises(UnknownAlternative):
        two_tied_top.dominated_count("nope")


def test_tier_signature_four_tier_example(four_tier_ten):
    sig = four_tier_ten.tier_signature()
    assert sig.realized == frozenset({0, 3, 7, 9})
    assert sig.num_tiers == 4
    assert sig.size_of(7) == 2


def test_tier_signature_linear_and_flat():
    linear = from_tiers([{"a"}, {"b"}, {"c"}])
    assert linear.tier_signature().realized == frozenset({0, 1, 2})
    flat = from_tiers([{"a", "b", "c"}])
    assert flat.tier_signature().realized == frozenset({0})


def test_tier_signature_invariants_exhaustive():
    for order in support.orders_up_to(5):
        sig = order.tier_signature()
        assert 0 in sig.realized
        assert sum(size for _, size in sig.sizes) == order.n
        assert sig.num_tiers == order.num_tiers


def test_indifference_iff_equal_dominated_count():
    """Two alternatives share a tier exactly when they dominate equally many."""
    for order in support.orders_up_to(5):
        alternatives = order.sorted_alternatives()
        for a in alternatives:
            for b in alternatives:
                same_count = order.dominated_count(a) == order.dominated_count(b)
                assert order.indifferent(a, b) == same_count


# ----- restrict / relabel / truncate -----------------------------------------


def test_restrict_drops_alternatives(two_tied_top):
    assert two_tied_top.restrict({"x", "z"}) == from_tiers([{"x"}, {"z"}])


def test_restrict_to_ground_is_identity(two_tied_top, four_tier_ten):
    for order in (two_tied_top, four_tier_ten):
        assert order.restrict(order.ground) == order


def test_restrict_four_tier_example_to_chain(four_tier_ten):
    restricted = four_tier_ten.restrict({"x3", "x6", "x1", "x2"})
    assert restricted == from_tiers([{"x3"}, {"x6"}, {"x1"}, {"x2"}])
    assert restricted.is_linear


def test_restrict_rejects_non_subset(two_tied_top):
    with pytest.raises(NotASubset):
        two_tied_top.restrict({"x", "w"})
    with pytest.raises(EmptyOrder):
        two_tied_top.restrict(set())


def test_relabel_identity_and_swap(two_tied_top):
    identity = {a: a for a in two_tied_top.ground}
    assert two_tied_top.relabel(identity) == two_tied_top
    swap = {"x": "z", "z": "x", "y": "y"}
    assert two_tied_top.relabel(swap) == from_tiers([{"z", "y"}, {"x"}])
    # Labels may mix int and str.
    assert two_tied_top.relabel({"x": 1, "y": "y", "z": 2}) == from_tiers([{1, "y"}, {2}])


def test_relabel_preserves_tier_sizes():
    order = from_tiers([{"a", "b"}, {"c"}, {"d", "e", "f"}])
    sigma = {"a": "p", "b": "q", "c": "r", "d": "s", "e": "t", "f": "u"}
    relabeled = order.relabel(sigma)
    assert [len(t) for t in relabeled.tiers] == [len(t) for t in order.tiers]


def test_relabel_rejects_non_bijections(two_tied_top):
    with pytest.raises(NotABijection):
        two_tied_top.relabel({"x": "a", "y": "a", "z": "b"})
    with pytest.raises(NotABijection):
        two_tied_top.relabel({"x": "a"})


def test_truncate_bottom(four_tier_ten, two_tied_top):
    trimmed = four_tier_ten.truncate_bottom()
    assert trimmed == from_tiers([{"x3"}, {"x6", "x8"}, {"x1", "x4", "x7", "x10"}])
    assert two_tied_top.truncate_bottom() == from_tiers([{"x", "y"}])
    with pytest.raises(SingleTier):
        from_tiers([{"a", "b"}]).truncate_bottom()


# ----- duplicate / ud_move ----------------------------------------------------


def test_duplicate_examples(two_tied_top):
    extended = two_tied_top.duplicate("z", "w")
    assert extended == from_tiers([{"x", "y"}, {"z", "w"}])
    assert from_tiers([{"a"}]).duplicate("a", "b") == from_tiers([{"a", "b"}])


def test_duplicate_errors(two_tied_top):
    with pytest.raises(UnknownAlternative):
        two_tied_top.duplicate("nope", "w")
    with pytest.raises(CloneAlreadyPresent):
        two_tied_top.duplicate("x", "y")


def test_duplicate_then_restrict_is_identity_exhaustive():
    for order in support.orders_up_to(5):
        for pattern in order.sorted_alternatives():
            extended = order.duplicate(pattern, "+clone")
            assert extended.num_tiers == order.num_tiers
            assert extended.n == order.n + 1
            assert extended.restrict(order.ground) == order
            assert extended.indifferent(pattern, "+clone")


def test_ud_move_up_and_down():
    order = from_tiers([{"a"}, {"b", "c"}, {"d"}])
    assert order.ud_move("c", 0) == from_tiers([{"a", "c"}, {"b"}, {"d"}])
    assert order.ud_move("c", 2) == from_tiers([{"a"}, {"b"}, {"d", "c"}])


def test_ud_move_errors():
    linear = from_tiers([{"a"}, {"b"}, {"c"}])
    with pytest.raises(SourceTierWouldVanish):
        linear.ud_move("b", 0)
    order = from_tiers([{"a"}, {"b", "c"}])
    with pytest.raises(TargetTierAbsent):
        order.ud_move("b", 5)
    with pytest.raises(TargetTierAbsent):
        order.ud_move("b", 1)  # moving within the own tier is no move
    with pytest.raises(UnknownAlternative):
        order.ud_move("nope", 0)


def test_ud_move_refuses_a_bool_target():
    """True is an int to Python, and indexed tier 1 before it was refused."""
    order = from_tiers([{"a", "b"}, {"c"}])
    with pytest.raises(TargetTierAbsent, match="True is not a tier index"):
        order.ud_move("a", True)


def test_ud_move_refuses_a_target_that_is_not_an_int():
    """A float target raised a bare TypeError from indexing the tiers."""
    order = from_tiers([{"a", "b"}, {"c"}])
    with pytest.raises(TargetTierAbsent, match="1.0 is not a tier index"):
        order.ud_move("a", 1.0)


def test_ud_move_preserves_structure_exhaustive():
    for order in support.orders_up_to(5):
        for mover in order.sorted_alternatives():
            if len(order.tier_of(mover)) < 2:
                continue
            source = order.tier_index_of(mover)
            rest = order.ground - {mover}
            for target in range(order.num_tiers):
                if target == source:
                    continue
                moved = order.ud_move(mover, target)
                assert moved.num_tiers == order.num_tiers
                assert moved.restrict(rest) == order.restrict(rest)
                assert moved.tier_index_of(mover) == target


# ----- maximal chains ----------------------------------------------------------


def test_maximal_chain_four_tier_example(four_tier_ten):
    assert four_tier_ten.maximal_chain() == ("x3", "x6", "x1", "x2")


def test_maximal_chain_linear_and_flat():
    linear = from_tiers([{"b"}, {"a"}, {"c"}])
    assert linear.maximal_chain() == ("b", "a", "c")
    assert from_tiers([{"a", "b"}]).maximal_chain() == ("a",)


def test_maximal_chain_properties_exhaustive():
    for order in support.orders_up_to(5):
        chain = order.maximal_chain()
        assert len(chain) == order.num_tiers
        for first, second in zip(chain, chain[1:]):
            assert order.prefers(first, second)


def test_maximal_chain_takes_each_tiers_least_label_in_label_key_order():
    for order in support.orders_up_to(5):
        assert order.maximal_chain() == tuple(min(tier, key=label_key) for tier in order.tiers)
    # A tier of one label type is ordered as < orders it; a tier that mixes
    # int and str labels puts the ints first, as label_key does.
    assert from_tiers([{10, 2}, {"b", "a"}]).maximal_chain() == (2, "a")
    assert from_tiers([{10, "a", 2}, {"b", 1}]).maximal_chain() == (2, 1)


# ----- enumeration --------------------------------------------------------------


def test_enumeration_counts_match_recurrence():
    for n in range(1, 6):
        count = sum(1 for _ in enumerate_weak_orders(engine_ground(n)))
        assert count == _partition_count(n) == EXPECTED_COUNTS[n]
        assert ordered_bell(n) == count


def test_enumeration_is_duplicate_free_and_exhaustively_valid():
    for n in range(1, 5):
        seen = set()
        for order in enumerate_weak_orders(engine_ground(n)):
            assert order.ground == frozenset(engine_ground(n))
            seen.add(order.tiers)
        assert len(seen) == EXPECTED_COUNTS[n]


def test_enumeration_is_deterministic():
    first = [order.tiers for order in enumerate_weak_orders(engine_ground(4))]
    second = [order.tiers for order in enumerate_weak_orders(engine_ground(4))]
    assert first == second


def test_linear_enumeration():
    orders = list(enumerate_linear_orders(engine_ground(3)))
    assert len(orders) == 6
    assert all(order.is_linear and order.num_tiers == 3 for order in orders)
    assert len({order.tiers for order in orders}) == 6
    assert len(list(enumerate_linear_orders(engine_ground(1)))) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_linear_members_of_the_weak_enumeration_keep_the_linear_order(n):
    # The engine scans the linear members of the weak enumeration for its
    # linear cells; its witnesses stay the same only while this holds.
    ground = engine_ground(n)
    linear = [order for order in enumerate_weak_orders(ground) if order.is_linear]
    assert linear == list(enumerate_linear_orders(ground))


def test_enumeration_rejects_empty_ground():
    with pytest.raises(EmptyGround):
        next(enumerate_weak_orders(set()))
    with pytest.raises(EmptyGround):
        next(enumerate_linear_orders(set()))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: from_pairs(set(), set()), EmptyGround),
        (lambda: ordered_bell(-1), ValueError),
        (lambda: from_tiers([{"a"}, {"b"}]).tier_signature().size_of(5), KeyError),
    ],
    ids=["from_pairs-empty-ground", "ordered_bell-negative", "size_of-unrealised-count"],
)
def test_arguments_outside_the_domain_are_refused(call, error):
    with pytest.raises(error):
        call()


# ----- JSON interchange -----------------------------------------------------------


def test_json_round_trip(four_tier_ten):
    payload = weak_order_to_json(four_tier_ten)
    assert payload["tiers"][0] == ["x3"]
    assert weak_order_from_json(payload) == four_tier_ten


def test_json_rejects_malformed():
    from rankops import OrderError

    with pytest.raises(OrderError):
        weak_order_from_json({"nope": []})
    with pytest.raises(OrderError):
        weak_order_from_json({"tiers": "x"})
    with pytest.raises(OrderError):
        weak_order_from_json({"tiers": [["a"], [None]]})


def test_json_rejects_a_label_repeated_within_a_tier():
    with pytest.raises(DuplicateAlternative, match=r"^alternative 'a' appears twice in tier 0$"):
        weak_order_from_json({"tiers": [["a", "a"], ["b"]]})
    with pytest.raises(DuplicateAlternative, match=r"^alternative 7 appears twice in tier 1$"):
        weak_order_from_json({"tiers": [["a"], [7, "b", 7]]})


# ----- randomized structure checks --------------------------------------------------


@given(support.weak_orders())
def test_random_orders_are_well_formed(order):
    assert frozenset().union(*order.tiers) == order.ground
    assert sum(len(t) for t in order.tiers) == order.n
    assert order.restrict(order.ground) == order


@given(support.weak_orders(min_n=2), st.data())
def test_random_duplicate_round_trip(order, data):
    pattern = data.draw(st.sampled_from(order.sorted_alternatives()))
    extended = order.duplicate(pattern, "+clone")
    assert extended.restrict(order.ground) == order
    assert extended.num_tiers == order.num_tiers


def test_is_linear_iff_every_tier_is_a_singleton_exhaustive():
    for order in support.orders_up_to(5):
        assert order.is_linear == all(len(tier) == 1 for tier in order.tiers)


def test_sorted_alternatives_returns_a_fresh_list(four_tier_ten):
    first = four_tier_ten.sorted_alternatives()
    expected = sorted(four_tier_ten.ground, key=label_key)
    assert first == expected
    first.clear()
    assert four_tier_ten.sorted_alternatives() == expected


def test_dominated_count_and_tier_signature_agree_exhaustive():
    """Below-counts match strict preference, and the signature lists them
    tier by tier with the tier sizes."""
    for order in support.orders_up_to(5):
        for alt in order.ground:
            assert order.dominated_count(alt) == sum(order.prefers(alt, b) for b in order.ground)
        expected = tuple((order.dominated_count(next(iter(tier))), len(tier)) for tier in order.tiers)
        assert order.tier_signature().sizes == expected
        assert order.tier_signature().realized == frozenset(p for p, _ in expected)
