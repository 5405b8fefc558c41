"""Splitting types: parsing, canonical order, enumeration, duality."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysplit import arrangements
from polysplit.arrangements import count_arrangements, leq, poset
from polysplit.types import (
    SplittingType,
    canonical_sort_key,
    enumerate_types,
    forget_neighbors,
    hilbert_type_counts,
    merge_neighbors,
    parse_type,
    partition_centralizer_order,
    reachability_order,
    up_neighbors,
)


def T(text):
    return parse_type(text)


# ---------------------------------------------------------------------------
# construction and parsing


def test_parts_are_canonically_sorted():
    tau = SplittingType([(1, 1), (2, 1), (1, 3), (1, 2)])
    assert tau.parts == ((2, 1), (1, 3), (1, 2), (1, 1))


def test_parse_examples():
    assert T("2,1,1").degree() == 4
    assert T("1^3 1^2 2").degree() == 7
    assert T("(2 1^3)").parts == ((2, 1), (1, 3))
    assert T("10").parts == ((10, 1),)


def test_parse_rejects_garbage():
    for bad in ("", "1^0", "0", "2^", "x", "1^-1", "(,)"):
        with pytest.raises(ValueError):
            T(bad)


def test_label_round_trip():
    for d in range(1, 7):
        for tau in enumerate_types(d):
            assert parse_type(tau.label()) == tau


def test_json_round_trip():
    tau = T("3 1^2 1")
    assert SplittingType.from_json(tau.to_json()) == tau
    assert tau.to_json() == [[3, 1], [1, 2], [1, 1]]


# ---------------------------------------------------------------------------
# basic statistics


def test_degree_length_index():
    tau = T("1^3 1^2 2")
    assert tau.degree() == 7
    assert tau.length() == 3
    assert tau.index() == 7 - 4


def test_aut_order():
    assert T("1^2 1^2 2").aut_order() == 2
    assert T("1 1 1").aut_order() == 6
    assert T("2 2 1 1").aut_order() == 4
    assert T("5").aut_order() == 1


def test_dual():
    assert T("1^3 1^2 2").dual() == T("3 2 1^2")
    assert T("2^3").dual() == T("3^2")
    for d in range(1, 9):
        for tau in enumerate_types(d):
            assert tau.dual().dual() == tau
            assert tau.dual().degree() == d


def test_purity():
    assert T("1 2 3").is_unramified()
    assert not T("1^2 2").is_unramified()
    assert T("1^2 3^2").pure_multiplicity() == 2
    assert T("1^2 3").pure_multiplicity() is None
    assert T("2^3").pure_multiplicity() == 3


def test_slot_multiplicities():
    tau = T("1^2 1^2 1 2")
    assert tau.degree() == 7
    assert tau.slot_multiplicities(1) == (1, 2, 0, 0, 0, 0, 0)
    assert tau.slot_multiplicities(2) == (1, 0, 0, 0, 0, 0, 0)


def test_union():
    assert T("2 1").union(T("1^2")) == T("2 1 1^2")


# ---------------------------------------------------------------------------
# enumeration and the canonical order


def test_enumeration_counts_match_hilbert_series():
    counts = hilbert_type_counts(20)
    assert counts[:6] == [1, 1, 3, 5, 11, 17]
    for d in range(1, 13):
        assert len(enumerate_types(d)) == counts[d]


def test_enumeration_has_no_duplicates():
    for d in range(1, 10):
        types = enumerate_types(d)
        assert len(set(types)) == len(types)
        assert all(t.degree() == d for t in types)


def test_canonical_order_examples():
    assert [t.label() for t in enumerate_types(2)] == ["(1^2)", "(1 1)", "(2)"]
    assert [t.label() for t in enumerate_types(3)] == [
        "(1^3)", "(1^2 1)", "(1 1 1)", "(2 1)", "(3)"]


def test_canonical_order_is_by_index_then_length():
    for d in range(1, 11):
        keys = [canonical_sort_key(t) for t in enumerate_types(d)]
        assert keys == sorted(keys)
        indices = [t.index() for t in enumerate_types(d)]
        assert indices == sorted(indices, reverse=True)


# cover relations of the degree-4 order, worked out by hand
D4_COVERS = [
    ("3 1", "4"), ("2 2", "4"), ("2 1 1", "3 1"), ("2 1 1", "2 2"),
    ("2 1^2", "2 1 1"), ("1 1 1 1", "2 1 1"), ("2^2", "2 2"),
    ("1^2 1 1", "1 1 1 1"), ("1^2 1 1", "2 1^2"), ("1^3 1", "1^2 1 1"),
    ("1^2 1^2", "1^2 1 1"), ("1^2 1^2", "2^2"), ("1^4", "1^2 1^2"),
    ("1^4", "1^3 1"),
]


def test_canonical_order_extends_degree_4_covers():
    for low, high in D4_COVERS:
        assert canonical_sort_key(T(low)) < canonical_sort_key(T(high))


# ---------------------------------------------------------------------------
# elementary moves and the reachability order


def test_up_neighbors_have_no_duplicates():
    for d in range(1, 11):
        for tau in enumerate_types(d):
            neighbors = up_neighbors(tau)
            assert len(set(neighbors)) == len(neighbors), tau


def test_merge_neighbors():
    # only parts with equal multiplicity can merge
    assert set(merge_neighbors(T("1^2 1^2 1"))) == {T("2^2 1")}
    assert set(merge_neighbors(T("1 1 2"))) == {T("2 2"), T("3 1")}
    assert merge_neighbors(T("1^2 2")) == []
    assert all(m.degree() == 5 for m in merge_neighbors(T("1^2 1^2 1")))


def test_forget_neighbors():
    tau = T("1^4")
    forgotten = forget_neighbors(tau)
    assert set(forgotten) == {T("1^3 1"), T("1^2 1^2")}
    assert forget_neighbors(T("4")) == []


def test_reachability_bounds():
    # the closure is reflexive, reaches the top from everywhere, and the
    # bottom element reaches everything
    for d in range(1, 8):
        order = reachability_order(d)
        top = T(str(d))
        bottom = T("1^%d" % d)
        for tau in enumerate_types(d):
            assert tau in order[tau]
            assert top in order[tau]
            assert tau in order[bottom]


def test_poset_matches_reachability():
    # the arrangement order coincides with the merge/forget closure, and
    # the early-stopping order test agrees with the full count
    for d in range(1, 9):
        pairs = poset(d)
        order = reachability_order(d)
        for tau in enumerate_types(d):
            for lam in enumerate_types(d):
                expected = tau == lam or lam in order[tau]
                assert ((tau, lam) in pairs) == expected, (tau.label(), lam.label())
                assert leq(tau, lam) == (count_arrangements(tau, lam) > 0)


def test_poset_extremes():
    pairs = poset(5)
    types = enumerate_types(5)
    maxima = [lam for lam in types if all((tau, lam) in pairs for tau in types)]
    minima = [tau for tau in types if all((tau, lam) in pairs for lam in types)]
    assert maxima == [T("5")]
    assert minima == [T("1^5")]


def test_poset_relation_pairs_antisymmetric():
    pairs = poset(5)
    for tau, lam in pairs:
        if tau != lam:
            assert (lam, tau) not in pairs


def test_poset_transitive():
    pairs = poset(5)
    types = enumerate_types(5)
    for tau in types:
        for kappa in types:
            if (tau, kappa) not in pairs:
                continue
            for lam in types:
                if (kappa, lam) in pairs:
                    assert (tau, lam) in pairs


def test_poset_reads_the_walker_rows(monkeypatch):
    # the pair set comes from one counter shared by every row, not from a
    # leq or a cached one-pair walk for each of the N^2 pairs
    def forbidden(*args, **kwargs):
        raise AssertionError("poset made a one-pair query")

    monkeypatch.setattr(arrangements, "leq", forbidden)
    monkeypatch.setattr(arrangements, "_walk", forbidden)
    order = reachability_order(7)
    assert poset(7) == {(tau, lam) for tau in order for lam in order[tau]}


def test_dual_reverses_nothing_but_preserves_degree():
    # duality is an involution on types of each degree; it does not reverse
    # the arrangement order in general, but it does swap pure powers
    assert T("1^4").dual() == T("4")
    assert T("4").dual() == T("1^4")


# ---------------------------------------------------------------------------
# partition helpers


def test_partition_centralizer_order():
    # centralizer orders of cycle types of S_3: (1,1,1) -> 6, (2,1) -> 2, (3) -> 3
    assert partition_centralizer_order((3, 0, 0)) == 6
    assert partition_centralizer_order((1, 1, 0)) == 2
    assert partition_centralizer_order((0, 0, 1)) == 3


def test_centralizer_orders_sum_to_group_order():
    # sum over classes of |G|/|centralizer| = |G|
    from polysplit.rings import partitions
    for n in range(1, 8):
        total = sum(math.factorial(n) // partition_centralizer_order(mult)
                    for mult in partitions(n))
        assert total == math.factorial(n)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=5),
                          st.integers(min_value=1, max_value=5)),
                min_size=1, max_size=5))
def test_type_construction_is_order_insensitive(parts):
    tau = SplittingType(parts)
    for perm in itertools.islice(itertools.permutations(parts), 6):
        assert SplittingType(list(perm)) == tau
