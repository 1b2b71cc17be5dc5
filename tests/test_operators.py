from __future__ import annotations

import itertools
import time
from collections.abc import ItemsView
from fractions import Fraction as F

import pytest
import support
from hypothesis import given

from rankops import (
    NegativeCoefficient,
    NotLinear,
    OPERATOR_NAMES,
    REGISTRY,
    UnknownOperator,
    affine,
    dense,
    dense_over_tier_count,
    dense_via_chain,
    engine_ground,
    enumerate_linear_orders,
    enumerate_weak_orders,
    fractional,
    from_tiers,
    get_operator,
    list_index,
    make_affine_operator,
    modified,
    plus_n,
    quotient,
    sequential,
    standard,
)
from rankops.operators import _by_tier, _whole


# ----- the four principal operators ------------------------------------------


def test_rank_values_with_shared_top(two_tied_top):
    assert dict(standard(two_tied_top)) == {"x": 1, "y": 1, "z": 3}
    assert dict(modified(two_tied_top)) == {"x": 2, "y": 2, "z": 3}
    assert dict(fractional(two_tied_top)) == {"x": F(3, 2), "y": F(3, 2), "z": 3}
    assert dict(dense(two_tied_top)) == {"x": 1, "y": 1, "z": 2}


@pytest.mark.parametrize(
    "operator, per_tier",
    [
        (dense, [1, 2, 3, 4]),
        (standard, [1, 2, 4, 8]),
        (modified, [1, 3, 7, 10]),
        (fractional, [1, F(5, 2), F(11, 2), 9]),
    ],
    ids=lambda value: value.name if hasattr(value, "name") else None,
)
def test_rank_values_on_four_tier_example(four_tier_ten, operator, per_tier):
    positions = operator(four_tier_ten)
    for tier, expected in zip(four_tier_ten.tiers, per_tier):
        for alt in tier:
            assert positions[alt] == expected


def test_flat_order_everything_is_first():
    flat = from_tiers([{"a", "b", "c"}])
    assert set(dense(flat).values()) == {1}
    assert set(standard(flat).values()) == {1}
    assert set(modified(flat).values()) == {3}
    assert set(fractional(flat).values()) == {2}


def test_sequential_on_linear_orders():
    order = from_tiers([{"a"}, {"b"}, {"c"}])
    assert dict(sequential(order)) == {"a": 1, "b": 2, "c": 3}
    assert dict(sequential(from_tiers([{"only"}]))) == {"only": 1}


def test_sequential_rejects_ties(two_tied_top):
    with pytest.raises(NotLinear):
        sequential(two_tied_top)


def test_all_operators_coincide_on_linear_orders():
    for n in range(1, 6):
        for order in enumerate_linear_orders(engine_ground(n)):
            reference = sequential(order)
            assert sorted(reference.values()) == [F(k) for k in range(1, n + 1)]
            for operator in (dense, standard, modified, fractional):
                assert operator(order) == reference


def test_tier_mates_share_positions_exhaustive():
    for order in support.orders_up_to(5):
        for operator in (dense, standard, modified, fractional):
            positions = operator(order)
            for tier in order.tiers:
                assert len({positions[alt] for alt in tier}) == 1


def test_pointwise_order_and_midpoint_identity_exhaustive():
    """dense <= standard <= fractional <= modified, with fractional the
    exact midpoint of the outer competition ranks."""
    for order in support.orders_up_to(5):
        d, s, m, f = dense(order), standard(order), modified(order), fractional(order)
        for alt in order.ground:
            assert d[alt] <= s[alt] <= f[alt] <= m[alt]
            assert f[alt] == F(s[alt] + m[alt], 2)


def test_monotonicity_of_principal_operators_exhaustive():
    for order in support.orders_up_to(5):
        for operator in (dense, standard, modified, fractional):
            positions = operator(order)
            for a in order.ground:
                for b in order.ground:
                    assert order.weakly_prefers(a, b) == (positions[a] <= positions[b])


def test_dense_equals_chain_computation_exhaustive():
    total = 0
    for order in support.orders_up_to(5):
        total += 1
        assert dense(order) == dense_via_chain(order)
    assert total == 1 + 3 + 13 + 75 + 541


def test_dense_range_is_initial_segment():
    for order in support.orders_up_to(5):
        values = set(dense(order).values())
        assert values == {F(k) for k in range(1, order.num_tiers + 1)}


# ----- what the position values reveal about the order -------------------------


def test_value_multisets_determine_tier_sizes_except_for_dense():
    """The multiset of competition/low/mid rank values pins down the tier
    size sequence; the dense rank's value set reveals only how many tiers
    there are."""
    for n in range(1, 6):
        for operator in (standard, modified, fractional):
            by_multiset: dict[tuple, tuple[int, ...]] = {}
            for order in enumerate_weak_orders(engine_ground(n)):
                key = tuple(sorted(operator(order).values()))
                sizes = tuple(len(t) for t in order.tiers)
                assert by_multiset.setdefault(key, sizes) == sizes

    wide_top = from_tiers([{"a", "b"}, {"c"}])
    narrow_top = from_tiers([{"a"}, {"b", "c"}])
    assert set(dense(wide_top).values()) == set(dense(narrow_top).values()) == {1, 2}
    assert tuple(len(t) for t in wide_top.tiers) != tuple(len(t) for t in narrow_top.tiers)


# ----- foil operators ---------------------------------------------------------


def test_quotient_divides_by_tier_size(two_tied_top):
    assert dict(quotient(two_tied_top)) == {"x": F(1, 2), "y": F(1, 2), "z": 2}


def test_affine_examples():
    linear = from_tiers([{"a"}, {"b"}])
    assert dict(affine(linear, 2, 1)) == {"a": 3, "b": 5}
    for order in support.orders_up_to(3):
        assert affine(order, 1, 0) == dense(order)
        assert set(affine(order, 0, 5).values()) == {5}


def test_affine_rejects_negative_coefficients(two_tied_top):
    with pytest.raises(NegativeCoefficient):
        affine(two_tied_top, -1, 0)
    with pytest.raises(NegativeCoefficient):
        make_affine_operator(1, F(-1, 2))


def test_plus_n_shifts_only_tied_orders(two_tied_top):
    assert dict(plus_n(two_tied_top)) == {"x": 4, "y": 4, "z": 5}
    linear = from_tiers([{"a"}, {"b"}])
    assert dict(plus_n(linear)) == {"a": 1, "b": 2}


def test_list_index_reads_positions_off_labels():
    for order in enumerate_weak_orders(("x1", "x2", "x3")):
        assert dict(list_index(order)) == {"x1": 1, "x2": 2, "x3": 3}


def test_list_index_is_intrinsic_to_labels():
    # integer labels, digit suffixes, and digit-free labels all get a fixed
    # value, so restriction never moves anybody
    order = from_tiers([{7}, {"item12"}, {"apple", "banana"}])
    positions = list_index(order)
    assert positions[7] == 7
    assert positions["item12"] == 12
    assert 0 < positions["apple"] < positions["banana"] < 1
    restricted = order.restrict({"apple", 7})
    trimmed = list_index(restricted)
    assert trimmed[7] == positions[7]
    assert trimmed["apple"] == positions["apple"]


@pytest.mark.parametrize("label", ["", "a", "apple", "é-€", "z" * 1784])
def test_list_index_of_a_digit_free_label_sums_its_bytes(label):
    expected = sum(
        (F(byte + 1, 257**k) for k, byte in enumerate(label.encode("utf-8"), start=1)), F(0)
    )
    assert list_index(from_tiers([[label]]))[label] == expected


def test_dense_over_tier_count_rescales(two_tied_top):
    positions = dense_over_tier_count(two_tied_top)
    assert positions["x"] == positions["y"] == F(1, 2)
    assert positions["z"] == 1
    truncated = two_tied_top.truncate_bottom()
    assert dense_over_tier_count(truncated)["x"] == 1


# ----- shift patterns under cloning and vertical moves -------------------------


def test_duplication_shift_patterns_exhaustive():
    """Cloning moves exactly the strictly-lower alternatives under the
    competition rank, the clone's tier and below under the low/mid ranks,
    and nobody under the dense rank."""
    for order in support.orders_up_to(4):
        for pattern in order.sorted_alternatives():
            extended = order.duplicate(pattern, "+clone")
            tier = order.tier_index_of(pattern)
            strictly_below = {a for a in order.ground if order.tier_index_of(a) > tier}
            at_or_below = {a for a in order.ground if order.tier_index_of(a) >= tier}
            for operator, expected_changed in (
                (standard, strictly_below),
                (modified, at_or_below),
                (fractional, at_or_below),
                (dense, set()),
            ):
                before = operator(order)
                after = operator(extended)
                changed = {a for a in order.ground if after[a] != before[a]}
                assert changed == expected_changed


def test_vertical_move_shift_windows_exhaustive():
    """Moving one alternative between tiers k < l disturbs exactly the
    stayers in tiers k+1..l (competition rank), k..l-1 (low rank), k..l
    (mid rank), and nobody (dense rank)."""
    for order in support.orders_up_to(4):
        for mover in order.sorted_alternatives():
            source = order.tier_index_of(mover)
            if len(order.tiers[source]) < 2:
                continue
            for target in range(order.num_tiers):
                if target == source:
                    continue
                upper, lower = min(source, target), max(source, target)
                moved = order.ud_move(mover, target)
                stayers = order.ground - {mover}
                windows = {
                    standard: range(upper + 1, lower + 1),
                    modified: range(upper, lower),
                    fractional: range(upper, lower + 1),
                    dense: range(0),
                }
                for operator, window in windows.items():
                    before = operator(order)
                    after = operator(moved)
                    changed = {a for a in stayers if after[a] != before[a]}
                    expected = {a for a in stayers if order.tier_index_of(a) in window}
                    assert changed == expected


# ----- registry -----------------------------------------------------------------


def test_registry_names_are_stable():
    assert OPERATOR_NAMES == (
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


def test_registry_dispatch_matches_functions(two_tied_top):
    assert REGISTRY["dense"](two_tied_top) == dense(two_tied_top)
    assert REGISTRY["quotient"](two_tied_top) == quotient(two_tied_top)
    assert REGISTRY["affine"](two_tied_top) == affine(two_tied_top, 2, 1)


PUBLIC_OPERATORS = (
    dense,
    dense_via_chain,
    standard,
    modified,
    fractional,
    sequential,
    quotient,
    plus_n,
    list_index,
    dense_over_tier_count,
)


def test_each_public_operator_name_is_its_registry_entry(two_tied_top):
    """One object per operator: calling a public name is calling the
    registered operator, so a linear-only one refuses a tie in one place."""
    assert len({op.name for op in PUBLIC_OPERATORS}) == 10
    for op in PUBLIC_OPERATORS:
        assert REGISTRY[op.name] is op
        assert get_operator(op.name) is op
    with pytest.raises(NotLinear, match="operator 'sequential' is defined on linear orders only"):
        sequential(two_tied_top)


def test_registry_enforces_domains(two_tied_top):
    operator = REGISTRY["sequential"]
    assert not operator.in_domain(two_tied_top)
    with pytest.raises(NotLinear):
        operator(two_tied_top)
    linear = from_tiers([{"a"}, {"b"}])
    assert dict(operator(linear)) == {"a": 1, "b": 2}


def test_get_operator_parses_affine_parameters(two_tied_top):
    identity = get_operator("affine:a=1/1,b=0/1")
    assert identity(two_tied_top) == dense(two_tied_top)
    assert identity.name == "affine:a=1/1,b=0/1"
    scaled = get_operator("affine:a=2,b=1")
    assert scaled(two_tied_top) == REGISTRY["affine"](two_tied_top)


def test_get_operator_rejects_unknown_names():
    with pytest.raises(UnknownOperator):
        get_operator("percentile")
    with pytest.raises(UnknownOperator):
        get_operator("affine:a=1/1")
    with pytest.raises(UnknownOperator):
        get_operator("affine:a=x,b=1")
    with pytest.raises(NegativeCoefficient):
        get_operator("affine:a=-1,b=0")


@pytest.mark.parametrize("name", ["affine:a=1,c=2", "affine:a=1,a=2"])
def test_get_operator_refuses_a_bad_affine_parameter_list(name):
    with pytest.raises(UnknownOperator, match="bad affine parameter list"):
        get_operator(name)


def test_assignments_cover_exactly_the_ground_set():
    for order in support.orders_up_to(3):
        for name in OPERATOR_NAMES:
            operator = REGISTRY[name]
            if not operator.in_domain(order):
                continue
            assert set(operator(order)) == set(order.ground)


def test_assignment_items_is_a_read_only_view_of_its_positions(two_tied_top):
    assignment = dense(two_tied_top)
    items = assignment.items()
    assert items == dict(assignment).items()
    assert isinstance(items, ItemsView)
    with pytest.raises(TypeError):
        items.mapping["x"] = F(5)
    assert assignment["x"] == 1


def test_assignment_repr_lists_alternatives_in_label_order():
    # Integer labels sort before strings; positions print as fractions do.
    assert repr(dense(from_tiers([{"b"}, {"a", 1}]))) == "PositionAssignment({1: 2, 'a': 2, 'b': 1})"


# ----- the shared tier loop --------------------------------------------------


def test_by_tier_hands_every_tier_member_the_rules_own_fraction(four_tier_ten):
    returned = []

    def rule(sizes):
        returned.extend(F(size, 2) for size in sizes)
        return returned

    positions = _by_tier(four_tier_ten, rule)
    assert len(returned) == four_tier_ten.num_tiers
    for tier, value in zip(four_tier_ten.tiers, returned):
        assert all(positions[alt] is value for alt in tier)


def test_by_tier_wraps_an_int_rule_value_as_a_fraction(four_tier_ten):
    positions = _by_tier(four_tier_ten, itertools.accumulate)
    for tier in four_tier_ten.tiers:
        assert all(type(positions[alt]) is F for alt in tier)
    assert positions == modified(four_tier_ten)


def test_whole_number_positions_are_shared_exact_fractions():
    ties, linear = from_tiers([{"a"}, {"b", "c"}]), from_tiers([{"x1"}, {"x2"}, {"x3"}])
    handed_out = [dense(ties), dense(linear), dense_via_chain(linear), list_index(linear), standard(ties)]
    for positions in handed_out:
        assert all(type(value) is F for value in positions.values())
    # Equal whole numbers are one object, whichever order or operator gave them.
    assert all(positions["x2"] is dense(ties)["b"] for positions in handed_out[1:4])
    assert standard(ties)["b"] is dense(linear)["x2"] is not dense(linear)["x3"]


def test_whole_number_positions_past_the_cache_bound_stay_exact():
    bound = _whole.cache_info().maxsize
    linear = from_tiers([{alt} for alt in range(2 * bound)])
    for positions in (dense(linear), dense_via_chain(linear)):
        assert all(type(positions[alt]) is F and positions[alt] == alt + 1 for alt in linear.ground)
    assert _whole.cache_info().currsize <= bound
    huge = 10**40 + 1
    value = _by_tier(linear, lambda sizes: [huge] * len(sizes))[0]
    assert (type(value), value) == (F, huge)


def test_tier_mates_share_one_position_object_exhaustive():
    tiered = [dense, standard, modified, fractional, quotient, plus_n, dense_over_tier_count, REGISTRY["affine"]]
    for order in support.orders_up_to(4):
        for operator in tiered:
            positions = operator(order)
            for tier in order.tiers:
                first = positions[next(iter(tier))]
                assert all(positions[alt] is first for alt in tier)


# ----- randomized cross-checks ----------------------------------------------------


@given(support.weak_orders())
def test_random_midpoint_identity(order):
    s, m, f = standard(order), modified(order), fractional(order)
    for alt in order.ground:
        assert f[alt] == F(s[alt] + m[alt], 2)


@given(support.weak_orders())
def test_random_dense_matches_chain(order):
    assert dense(order) == dense_via_chain(order)


@given(support.weak_orders())
def test_random_pointwise_order(order):
    d, s, m, f = dense(order), standard(order), modified(order), fractional(order)
    for alt in order.ground:
        assert d[alt] <= s[alt] <= f[alt] <= m[alt]


# ----- the per-tier rules against the per-alternative definitions -------------


def test_tier_rules_match_per_alternative_definitions_exhaustive():
    """Each operator fed by the shared tier loop equals the formula it
    was first written as, alternative by alternative."""
    coefficients = [(0, 0), (0, 3), (2, 1), (F(1, 2), F(5, 3))]
    for order in support.orders_up_to(5):
        n, base = order.n, dense(order)
        got = {
            "quotient": quotient(order),
            "plus_n": plus_n(order),
            "dense_over_tier_count": dense_over_tier_count(order),
            "standard": standard(order),
            "modified": modified(order),
        }
        affines = [affine(order, a, b) for a, b in coefficients]
        for alt in order.ground:
            below, size = order.dominated_count(alt), len(order.tier_of(alt))
            assert got["quotient"][alt] == base[alt] / size
            assert got["plus_n"][alt] == base[alt] + (0 if order.is_linear else n)
            assert got["dense_over_tier_count"][alt] == base[alt] / order.num_tiers
            assert got["standard"][alt] == n - below - size + 1
            assert got["modified"][alt] == n - below
            for (a, b), positions in zip(coefficients, affines):
                assert positions[alt] == a * base[alt] + b
        if order.is_linear:
            positions = sequential(order)
            assert all(positions[alt] == n - order.dominated_count(alt) for alt in order.ground)


# The public name of each tier rule, which is its registered operator (the
# test above holds it to the formula it was first written as); affine is the
# one function, taking its coefficients.
PUBLIC_TIER_RULES = {
    "dense": dense,
    "standard": standard,
    "modified": modified,
    "fractional": fractional,
    "sequential": sequential,
    "quotient": quotient,
    "plus-n": plus_n,
    "dense-over-tiercount": dense_over_tier_count,
    "affine": lambda order: affine(order, 2, 1),
    "affine:a=0/1,b=3/2": lambda order: affine(order, 0, F(3, 2)),
    "affine:a=1/3,b=2": lambda order: affine(order, F(1, 3), 2),
}


def test_each_tier_rule_gives_each_tier_its_public_position_exhaustive():
    """The rule a marked operator carries, called on the tier sizes alone,
    gives one int or Fraction per tier: the position its public name gives
    every member of that tier."""
    marked = {name for name, op in REGISTRY.items() if op._tier_rule is not None}
    assert marked | {"affine:a=0/1,b=3/2", "affine:a=1/3,b=2"} == set(PUBLIC_TIER_RULES)
    for order in support.orders_up_to(5):
        sizes = [len(tier) for tier in order.tiers]
        for name, public in PUBLIC_TIER_RULES.items():
            op = get_operator(name)
            if not op.in_domain(order):
                continue
            values = list(op._tier_rule(sizes))
            assert len(values) == order.num_tiers, name
            assert all(type(value) in (int, F) for value in values), name
            positions = public(order)
            for tier, value in zip(order.tiers, values):
                assert all(positions[alt] == value for alt in tier), (name, order)


def test_every_position_is_a_fraction_exhaustive():
    for order in support.orders_up_to(5):
        for op in REGISTRY.values():
            if op.in_domain(order):
                assert all(type(value) is F for value in op(order).values()), op.name


def test_sequential_and_chain_stay_fast_on_a_long_linear_order():
    """Both read each alternative's below-count; summing the lower tiers
    on every call made 50,000 alternatives take minutes."""
    order = from_tiers([{i} for i in range(50_000)])
    start = time.perf_counter()
    expected = dense(order)
    assert sequential(order) == expected
    assert dense_via_chain(order) == expected
    assert time.perf_counter() - start < 10
