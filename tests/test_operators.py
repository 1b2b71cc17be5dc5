from __future__ import annotations

import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from rankops import (
    NegativeCoefficient,
    NotLinear,
    OPERATOR_NAMES,
    REGISTRY,
    UnknownOperator,
    WeakOrder,
    affine,
    dense,
    dense_over_tier_count,
    dense_via_chain,
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


def _ground(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def _all_orders(max_n: int):
    for n in range(1, max_n + 1):
        yield from enumerate_weak_orders(_ground(n))


@st.composite
def weak_orders(draw, min_n: int = 1, max_n: int = 7) -> WeakOrder:
    n = draw(st.integers(min_n, max_n))
    labels = [f"x{i}" for i in range(1, n + 1)]
    keys = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, set[str]] = {}
    for label, key in zip(labels, keys):
        groups.setdefault(key, set()).add(label)
    return from_tiers([groups[k] for k in sorted(groups)])


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
        for order in enumerate_linear_orders(_ground(n)):
            reference = sequential(order)
            assert sorted(reference.values()) == [F(k) for k in range(1, n + 1)]
            for operator in (dense, standard, modified, fractional):
                assert operator(order) == reference


def test_tier_mates_share_positions_exhaustive():
    for order in _all_orders(5):
        for operator in (dense, standard, modified, fractional):
            positions = operator(order)
            for tier in order.tiers:
                assert len({positions[alt] for alt in tier}) == 1


def test_pointwise_order_and_midpoint_identity_exhaustive():
    """dense <= standard <= fractional <= modified, with fractional the
    exact midpoint of the outer competition ranks."""
    for order in _all_orders(5):
        d, s, m, f = dense(order), standard(order), modified(order), fractional(order)
        for alt in order.ground:
            assert d[alt] <= s[alt] <= f[alt] <= m[alt]
            assert f[alt] == F(s[alt] + m[alt], 2)


def test_monotonicity_of_principal_operators_exhaustive():
    for order in _all_orders(5):
        for operator in (dense, standard, modified, fractional):
            positions = operator(order)
            for a in order.ground:
                for b in order.ground:
                    assert order.weakly_prefers(a, b) == (positions[a] <= positions[b])


def test_dense_equals_chain_computation_exhaustive():
    total = 0
    for order in _all_orders(5):
        total += 1
        assert dense(order) == dense_via_chain(order)
    assert total == 1 + 3 + 13 + 75 + 541


def test_dense_range_is_initial_segment():
    for order in _all_orders(5):
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
            for order in enumerate_weak_orders(_ground(n)):
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
    for order in _all_orders(3):
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
    for order in _all_orders(4):
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
    for order in _all_orders(4):
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
    for order in _all_orders(3):
        for name in OPERATOR_NAMES:
            operator = REGISTRY[name]
            if not operator.in_domain(order):
                continue
            assert set(operator(order)) == set(order.ground)


def test_assignment_repr_lists_alternatives_in_label_order():
    # Integer labels sort before strings; positions print as fractions do.
    assert repr(dense(from_tiers([{"b"}, {"a", 1}]))) == "PositionAssignment({1: 2, 'a': 2, 'b': 1})"


# ----- randomized cross-checks ----------------------------------------------------


@given(weak_orders())
def test_random_midpoint_identity(order):
    s, m, f = standard(order), modified(order), fractional(order)
    for alt in order.ground:
        assert f[alt] == F(s[alt] + m[alt], 2)


@given(weak_orders())
def test_random_dense_matches_chain(order):
    assert dense(order) == dense_via_chain(order)


@given(weak_orders())
def test_random_pointwise_order(order):
    d, s, m, f = dense(order), standard(order), modified(order), fractional(order)
    for alt in order.ground:
        assert d[alt] <= s[alt] <= f[alt] <= m[alt]


# ----- the per-tier rules against the per-alternative definitions -------------


def test_tier_rules_match_per_alternative_definitions_exhaustive():
    """Each operator fed by the shared tier loop equals the formula it
    was first written as, alternative by alternative."""
    coefficients = [(0, 0), (0, 3), (2, 1), (F(1, 2), F(5, 3))]
    for order in _all_orders(5):
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


def test_every_position_is_a_fraction_exhaustive():
    for order in _all_orders(5):
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
