"""Arrangement counts, incidence tables, and their reference data."""

import gc
import hashlib
import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest

from polysplit.rings import MathCheckError, divisors, format_rational, moebius
from polysplit.types import SplittingType, enumerate_types, parse_type, reachability_order
from polysplit import arrangements as arr


def T(text):
    return parse_type(text)


def _fresh_table(d, tag):
    """The table built in a store of its own, with no memory or disk cache."""
    with arr.caches_bypassed():
        return arr.incidence_table(d, tag)


# ---------------------------------------------------------------------------
# an independent counting oracle
#
# The library counts by depth-first search over the columns of lam with
# memoization on canonicalized residual multiplicities.  The oracle here
# instead assigns each row of tau a distribution over the columns, with no
# sharing and no canonicalization, and checks the column sums at the end.


def oracle_count(tau, lam, squarefree=False):
    rows = tau.parts
    cols = lam.parts

    def row_fills(m, n_vec):
        # vectors (A_i1, ..., A_ik) with sum_j A_ij * n_j = m
        fills = []

        def extend(j, remaining, acc):
            if j == len(n_vec):
                if remaining == 0:
                    fills.append(tuple(acc))
                return
            cap = remaining // n_vec[j]
            if squarefree:
                cap = min(cap, 1)
            for v in range(cap + 1):
                extend(j + 1, remaining - v * n_vec[j], acc + [v])

        extend(0, m, [])
        return fills

    n_vec = [n for _, n in cols]
    total = 0
    per_row = [row_fills(m, n_vec) for _, m in rows]
    for choice in itertools.product(*per_row):
        good = True
        for j, (c, _n) in enumerate(cols):
            if sum(choice[i][j] * rows[i][0] for i in range(len(rows))) != c:
                good = False
                break
        if good:
            total += 1
    return total


def test_counts_match_oracle_low_degrees():
    for d in range(1, 6):
        for tau in enumerate_types(d):
            for lam in enumerate_types(d):
                want = oracle_count(tau, lam)
                assert arr.count_arrangements(tau, lam) == want, \
                    (tau.label(), lam.label())


def test_squarefree_counts_match_oracle_low_degrees():
    for d in range(1, 5):
        for tau in enumerate_types(d):
            for lam in enumerate_types(d):
                want = oracle_count(tau, lam, squarefree=True)
                assert arr.count_arrangements(tau, lam, squarefree=True) == want


def test_counts_match_oracle_random_pairs():
    rng = random.Random(91)
    pairs = []
    for d in (6, 7):
        types = list(enumerate_types(d))
        while len([p for p in pairs if p[0].degree() == d]) < 100:
            pairs.append((rng.choice(types), rng.choice(types)))
    for tau, lam in pairs:
        assert arr.count_arrangements(tau, lam) == oracle_count(tau, lam)


@pytest.mark.parametrize("tag", ["a", "e"])
def test_table_rows_match_oracle(tag):
    # The table builder walks every row with one memo shared by the whole
    # table; single-pair counts above never share it.
    squarefree = tag == "e"
    table = _fresh_table(6, tag)
    for tau in table.types:
        for lam in table.types:
            assert table.value(tau, lam) == oracle_count(tau, lam, squarefree), \
                (tau.label(), lam.label())
    table = _fresh_table(7, tag)
    for tau in random.Random(17).sample(table.types, 5):
        for lam in table.types:
            assert table.value(tau, lam) == oracle_count(tau, lam, squarefree), \
                (tau.label(), lam.label())


# ---------------------------------------------------------------------------
# pinned values and structural facts


def test_pinned_counts():
    assert arr.count_arrangements(T("1 1 1"), T("2 1")) == 3
    assert arr.count_arrangements(T("1^2"), T("1 1")) == 1
    assert arr.count_arrangements(T("1^2"), T("2")) == 1
    assert arr.count_arrangements(T("1^2"), T("2"), squarefree=True) == 0


def test_diagonal_counts_automorphisms():
    for d in range(1, 7):
        for tau in enumerate_types(d):
            assert arr.count_arrangements(tau, tau) == tau.aut_order()
            assert arr.count_arrangements(tau, tau, squarefree=True) == tau.aut_order()


def test_count_requires_equal_degrees():
    with pytest.raises(ValueError):
        arr.count_arrangements(T("1 1"), T("3"))


def test_transpose_symmetry():
    # a(tau, lam) = a(dual lam, dual tau), and the same for e
    for d in range(1, 7):
        for tau in enumerate_types(d):
            for lam in enumerate_types(d):
                assert arr.count_arrangements(tau, lam) == \
                    arr.count_arrangements(lam.dual(), tau.dual())
                assert arr.count_arrangements(tau, lam, squarefree=True) == \
                    arr.count_arrangements(lam.dual(), tau.dual(), squarefree=True)


def test_inverse_transpose_symmetry():
    # a_inv(tau, lam) = a_inv(dual lam, dual tau), which the top column reads
    for d in range(1, 8):
        inv = arr.incidence_table(d, "a_inv")
        for tau in inv.types:
            for lam in inv.types:
                assert inv.value(tau, lam) == inv.value(lam.dual(), tau.dual()), \
                    (tau.label(), lam.label())


def test_positivity_defines_order():
    # a > 0 exactly on the order relation; e can vanish on comparable pairs
    for d in range(1, 7):
        for tau in enumerate_types(d):
            for lam in enumerate_types(d):
                assert (arr.count_arrangements(tau, lam) > 0) == arr.leq(tau, lam)
    assert arr.leq(T("1^2"), T("2"))
    assert arr.count_arrangements(T("1^2"), T("2"), squarefree=True) == 0


def test_order_bounds():
    for d in range(2, 8):
        top = T(str(d))
        bottom = T("1^%d" % d)
        for tau in enumerate_types(d):
            assert arr.leq(tau, top)
            assert arr.leq(bottom, tau)


def test_unramified_specialization_counts_partition_matrices():
    # between unramified types, arrangements are nonnegative integer
    # matrices with unit row sums weighted by degrees: each part of tau
    # is assigned to one part of lam, with degree sums matching
    rng = random.Random(7)
    for d in range(2, 6):
        unram = [t for t in enumerate_types(d) if t.is_unramified()]
        for tau in unram:
            for lam in unram:
                degs = [b for b, _ in tau.parts]
                want = 0
                for assign in itertools.product(range(len(lam.parts)),
                                                repeat=len(degs)):
                    sums = [0] * len(lam.parts)
                    for i, j in enumerate(assign):
                        sums[j] += degs[i]
                    if sums == [c for c, _ in lam.parts]:
                        want += 1
                assert arr.count_arrangements(tau, lam) == want


# ---------------------------------------------------------------------------
# explicit arrangements and tilings


def test_enumeration_agrees_with_counts():
    rng = random.Random(23)
    pairs = []
    for d in range(2, 7):
        types = list(enumerate_types(d))
        for _ in range(40):
            pairs.append((rng.choice(types), rng.choice(types)))
    for tau, lam in pairs:
        found = arr.enumerate_arrangements(tau, lam)
        assert len(found) == arr.count_arrangements(tau, lam)
        assert len(set(found)) == len(found)
        square = arr.enumerate_arrangements(tau, lam, squarefree=True)
        assert len(square) == arr.count_arrangements(tau, lam, squarefree=True)
        assert all(x <= 1 for a in square for row in a.matrix for x in row)


def test_arrangement_constraints_hold():
    tau, lam = T("1 1 1"), T("2 1")
    for a in arr.enumerate_arrangements(tau, lam):
        for j, (c, n) in enumerate(lam.parts):
            assert sum(a.matrix[i][j] * tau.parts[i][0]
                       for i in range(len(tau.parts))) == c
        for i, (b, m) in enumerate(tau.parts):
            assert sum(a.matrix[i][j] * lam.parts[j][1]
                       for j in range(len(lam.parts))) == m


def test_render_worked_example():
    tau = T("1^3 1^2 2")
    lam = T("1^2 1^2 1 2")
    matches = [a for a in arr.enumerate_arrangements(tau, lam)
               if a.matrix == ((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0))]
    assert len(matches) == 1
    text = matches[0].render()
    lines = text.splitlines()
    assert lines[0] == "aa b c b"
    assert lines[1] == "   b c"
    assert lines[2] == "with a = (2), b = (1^3), c = (1^2)"


def test_arrangement_json():
    a = arr.enumerate_arrangements(T("1 1"), T("2"))[0]
    data = a.to_json()
    assert data["matrix"] == [[1], [1]]
    assert data["tau"] == [[1, 1], [1, 1]]


# ---------------------------------------------------------------------------
# incidence tables against the bundled reference data


@pytest.mark.parametrize("degree", arr.REFERENCE_TABLE_DEGREES)
@pytest.mark.parametrize("tag", ["a", "a_inv", "mobius"])
def test_tables_match_reference(degree, tag):
    computed = _fresh_table(degree, tag)
    reference = arr.reference_table(degree, tag)
    assert set(computed.types) == set(reference.types)
    for tau in computed.types:
        for lam in computed.types:
            assert computed.value(tau, lam) == reference.value(tau, lam), \
                (tag, degree, tau.label(), lam.label())


def test_table_json_round_trip():
    table = _fresh_table(3, "a_inv")
    again = arr.IncidenceTable.from_json(table.to_json())
    assert again.types == table.types
    assert again.entries == table.entries
    assert again.tag == "a_inv"


def test_table_rejects_bad_json():
    table = _fresh_table(2, "a").to_json()
    bad = dict(table, tag="nonsense")
    with pytest.raises(ValueError):
        arr.IncidenceTable.from_json(bad)
    bad = dict(table, entries=table["entries"][:1])
    with pytest.raises(ValueError):
        arr.IncidenceTable.from_json(bad)


def test_inverse_tables_are_two_sided_inverses():
    for d in range(2, 8):
        types = list(enumerate_types(d))
        a = _fresh_table(d, "a")
        inv = _fresh_table(d, "a_inv")
        for i, tau in enumerate(types):
            for j, lam in enumerate(types):
                left = sum(a.value(tau, kappa) * inv.value(kappa, lam)
                           for kappa in types)
                right = sum(inv.value(tau, kappa) * a.value(kappa, lam)
                            for kappa in types)
                expected = Fraction(1) if i == j else Fraction(0)
                assert left == expected and right == expected


def test_squarefree_inverse_table():
    for d in range(2, 6):
        types = list(enumerate_types(d))
        e = _fresh_table(d, "e")
        inv = _fresh_table(d, "e_inv")
        for i, tau in enumerate(types):
            for j, lam in enumerate(types):
                total = sum(e.value(tau, kappa) * inv.value(kappa, lam)
                            for kappa in types)
                assert total == (Fraction(1) if i == j else Fraction(0))


def test_mobius_inverts_zeta():
    for d in range(2, 8):
        types = list(enumerate_types(d))
        mob = _fresh_table(d, "mobius")
        for i, tau in enumerate(types):
            for j, lam in enumerate(types):
                total = sum(mob.value(tau, kappa)
                            for kappa in types
                            if arr.leq(tau, kappa) and arr.leq(kappa, lam))
                assert total == (Fraction(1) if i == j else Fraction(0))


def test_mobius_vanishes_on_ramified_top():
    for d in range(2, 9):
        mob = arr.incidence_table(d, "mobius")
        top = T(str(d))
        for tau in enumerate_types(d):
            if not tau.is_unramified():
                assert mob.value(tau, top) == 0, (d, tau.label())


def test_inverse_entries_lie_in_z_over_d_factorial():
    for d in range(2, 8):
        inv = arr.incidence_table(d, "a_inv")
        scale = math.factorial(d)
        for row in inv.entries:
            for x in row:
                assert (x * scale).denominator == 1


def _rows_of(t, asked):
    """The ``row`` argument of the inverse kernel for the table t; each k
    asked for is appended to ``asked``."""
    def row(k):
        asked.append(k)
        return t[k][k], [(j, x) for j, x in enumerate(t[k][k + 1:], k + 1) if x]
    return row


def _inverse(t, scale):
    row = _rows_of(t, [])
    return [arr._inverse_row(i, len(t), row, scale, {}) for i in range(len(t))]


def test_integer_inverter_rejects_an_entry_outside_z_over_scale():
    # the inverse of diag(1, 7) has the entry 1/7, which 3! does not clear
    with pytest.raises(MathCheckError, match="outside"):
        _inverse([[1, 2], [0, 7]], 6)
    assert _inverse([[1, 2], [0, 3]], 6) == [[6, -4], [0, 2]]
    inv = _fresh_table(6, "a_inv")
    assert all(type(x) is Fraction for row in inv.entries for x in row)


def test_integer_inverter_asks_only_for_the_rows_it_needs():
    # row 0 of the inverse is zero at k = 1, so row 1 of t is never walked
    asked = []
    t = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    assert arr._inverse_row(0, 3, _rows_of(t, asked), 1, {}) == [1, 0, -1]
    assert asked == [0, 2]


def test_table_inverse_guards():
    types = enumerate_types(2)
    halves = arr.IncidenceTable(2, "E", types, [[1, Fraction(1, 2), 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(MathCheckError, match="table entry outside Z") as info:
        halves.inverse("E_inv")
    assert info.value.detail == {"degree": 2, "tag": "E"}
    sevens = arr.IncidenceTable(2, "a", types, [[1, 0, 0], [0, 7, 0], [0, 0, 1]])
    with pytest.raises(MathCheckError, match=r"outside Z\[1/d!\]") as info:
        sevens.inverse("a_inv")
    assert info.value.detail["tag"] == "a_inv"
    # Z[1/2!] holds 1/2, but the Mobius function is inverted over Z
    twos = arr.IncidenceTable(2, "order", types, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    assert twos.inverse("a_inv").entries[1][1] == Fraction(1, 2)
    with pytest.raises(MathCheckError, match="outside"):
        twos.inverse("mobius")


@pytest.mark.parametrize("d", range(1, 8))
def test_inverse_of_the_forward_table_is_the_inverse_table(d):
    for tag in ("a", "e"):
        inverse = arr.incidence_table(d, tag).inverse(tag + "_inv")
        assert inverse.to_json() == arr.incidence_table(d, tag + "_inv").to_json()


# SHA-256 of json.dumps(incidence_table(8, tag).to_json(), sort_keys=True),
# recorded from the pair-by-pair builder that the row walker replaced.
PINNED_TABLE_HASHES = {
    "a": "a85ab77425f6e74b13194f5b1dedb8e53410c4830ec8871d4ef5211418794199",
    "e": "7b4faae11699fb62122dbedeeb81d55007a4a3fcc46f3446439783ac09d4d9e7",
    "a_inv": "2fe6d60bc603c8f911342c3a721e7befc16b288a5c893abef195cfdc9d0ffd68",
    "e_inv": "18df84b1c8851784d2551c740006800102d8733e67b4bb60a39d13e812b78bc0",
    "mobius": "2feb648b81318cf0e246529f853af97801f09bcf5a4a2265b47136549db30b16",
}


# The same hash at degrees 9 and 10, recorded from the walker that kept one
# memo per row before the counter shared one memo by every row of a table.
PINNED_TABLE_HASHES_9_10 = {
    (9, "a"): "bb2b1df7db368f40b80c6687818ab1b33943848bfc9de0ba0e6e771651690877",
    (9, "e"): "31ecfac06c9c82ef6aa578225d1a1cf8eb575c40b0cdc95a30ef26e406075155",
    (9, "a_inv"): "1274d039469ea16c2230e4d4cef7aac979ed15175b1c9135a1cff56f352201d4",
    (9, "e_inv"): "a57b125668682830bf2a64b69676607b8f82f2faf452a16ee2665a9a1b633cbd",
    (9, "mobius"): "61ae7e7bf9ebc1c614db1161131c78fbde1f28348661f9cec927e8a932873ddb",
    (10, "a"): "3e29c61b020e12bb107f438a388ccffe08cab3955098e6a07b2c73859047b36f",
    (10, "e"): "876fa6abc452b6982694039c9df75f5dcfa04503125efce37ec1a3a15e8791c8",
    (10, "a_inv"): "dae67447e3f71bc280af0980f94bccf34d348eff241256e61b305492f700dfc7",
    (10, "e_inv"): "e35a55cd491d90d3077e1d70abae21eee3aa696ce1383ca1bfd2156979db03af",
    (10, "mobius"): "1862ceab42b52215b706226fd9864bf827685f1f1c92f6862daa097806cb794b",
}


def _table_hash(d, tag):
    text = json.dumps(_fresh_table(d, tag).to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("tag", arr.TABLE_TAGS)
def test_degree_8_tables_are_pinned(tag):
    assert _table_hash(8, tag) == PINNED_TABLE_HASHES[tag]


@pytest.mark.parametrize("d, tag", sorted(PINNED_TABLE_HASHES_9_10))
def test_degree_9_and_10_tables_are_pinned(d, tag):
    assert _table_hash(d, tag) == PINNED_TABLE_HASHES_9_10[(d, tag)]


# ---------------------------------------------------------------------------
# one counter shared by every row of a table

COUNTER_MODES = {"a": False, "e": True}


def test_shared_counters_match_fresh_pairs_and_the_oracle(monkeypatch):
    # One counter per mode answers every pair of degree <= 6, the modes
    # asked in turn, so a memo shared across modes hands one mode the
    # counts of another.  Every column fill a counter makes is recorded:
    # its rows must form a type (no row with nothing left, rows sorted),
    # and no counter fills the same column from the same rows twice.
    fills = arr._column_fills
    filled = {mode: [] for mode in COUNTER_MODES}
    asking = [None]

    def spy(degs, c, n, residual, squarefree):
        filled[asking[0]].append((tuple(zip(degs, residual)), c, n))
        return fills(degs, c, n, residual, squarefree)

    monkeypatch.setattr(arr, "_column_fills", spy)
    counters = {mode: arr._Counter(squarefree).count for mode, squarefree in COUNTER_MODES.items()}
    shared = {}
    for d in range(1, 7):
        types = enumerate_types(d)
        for tau, lam in itertools.product(types, types):
            for mode, count in counters.items():
                asking[0] = mode
                shared[mode, tau, lam] = count(tau.parts, lam.parts)
    monkeypatch.undo()

    for mode, states in filled.items():
        assert len(set(states)) == len(states), mode
        for rows, _c, _n in states:
            assert SplittingType(rows).parts == rows, (mode, rows)
    arr._walk.cache_clear()
    for d in range(1, 7):
        types = enumerate_types(d)
        for tau, lam in itertools.product(types, types):
            want = oracle_count(tau, lam)
            assert shared["a", tau, lam] == arr.count_arrangements(tau, lam) == want
            assert arr.leq(tau, lam) == (want > 0)
            want = oracle_count(tau, lam, squarefree=True)
            assert shared["e", tau, lam] == arr.count_arrangements(tau, lam, True) == want


def test_walked_rows_count_each_dual_pair_once(monkeypatch):
    # A table walk reads a(tau, lam) = a(lam*, tau*), and e likewise, from
    # a row it has walked, so it asks its counter for at most one pair of
    # each dual pair; every entry still equals a fresh count.
    real = arr._Counter
    asked = []

    class Spy:
        def __init__(self, squarefree):
            self.inner = real(squarefree).count

        def count(self, rows, cols):
            asked.append((SplittingType(rows), SplittingType(cols)))
            return self.inner(rows, cols)

    for d in range(1, 8):
        types = enumerate_types(d)
        for squarefree in COUNTER_MODES.values():
            asked.clear()
            monkeypatch.setattr(arr, "_Counter", Spy)
            rows = arr._walk_rows(types, squarefree)
            monkeypatch.undo()
            pairs = set(asked)
            assert len(pairs) == len(asked)
            assert all((tau, lam) == (lam.dual(), tau.dual()) or (lam.dual(), tau.dual()) not in pairs
                       for tau, lam in pairs), (d, squarefree)
            arr._walk.cache_clear()
            for (i, tau), (j, lam) in itertools.product(enumerate(types), repeat=2):
                assert rows[i][j] == arr.count_arrangements(tau, lam, squarefree), \
                    (d, squarefree, tau.label(), lam.label())


# ---------------------------------------------------------------------------
# the order is a reading of the count


def test_order_reads_the_count_and_matches_the_merge_forget_closure():
    # tau <= lam iff a(tau, lam) > 0 iff lam is reached from tau by merges
    # and forgets; poset(d) is the same relation as a set of pairs
    for d in range(1, 9):
        types = enumerate_types(d)
        above = reachability_order(d)
        for tau, lam in itertools.product(types, types):
            assert arr.leq(tau, lam) == (arr.count_arrangements(tau, lam) > 0) \
                == (lam in above[tau]), (tau.label(), lam.label())
        assert arr.poset(d) == {(tau, lam) for tau in types for lam in above[tau]}, d


def test_leq_after_a_count_is_a_cache_hit(monkeypatch):
    made = []

    class Spy(arr._Counter):
        __slots__ = ()

        def __init__(self, squarefree):
            made.append(squarefree)
            super().__init__(squarefree)

    monkeypatch.setattr(arr, "_Counter", Spy)
    arr._walk.cache_clear()
    tau, lam = T("1^4"), T("2,1^2")
    assert arr.count_arrangements(tau, lam) == oracle_count(tau, lam) > 0
    assert made == [False]
    hits = arr._walk.cache_info().hits
    assert arr.leq(tau, lam)
    assert made == [False]
    assert arr._walk.cache_info().hits == hits + 1


def test_fills_and_counters_leave_no_reference_cycles():
    # Each table, top column and pair is freed by reference counting when
    # the call that made it ends; a fill enumerator built on a closure that
    # calls itself leaves thousands of objects for the cyclic collector.
    types = enumerate_types(6)
    gc.collect()
    gc.disable()
    try:
        arr._walk_rows(types, False)
        arr.top_column_inverse.__wrapped__(6)
        left = gc.collect()
    finally:
        gc.enable()
    assert left < 100


# ---------------------------------------------------------------------------
# the top column in degrees 6..10


def test_top_column_matches_reference():
    for d in arr.REFERENCE_TOP_DEGREES:
        column = arr.top_column_inverse(d)
        reference = arr.reference_top_column(d)
        for tau in enumerate_types(d):
            assert column[tau] == reference.get(tau, Fraction(0)), (d, tau.label())


def test_top_column_closed_form():
    for d in range(2, 11):
        column = arr.top_column_inverse(d)
        for tau, value in column.items():
            assert arr.top_stratum_inverse(tau) == value, (d, tau.label())


def test_top_column_agrees_with_full_table():
    for d in range(2, 9):
        inv = arr.incidence_table(d, "a_inv")
        column = arr.top_column_inverse(d)
        top = T(str(d))
        for tau in enumerate_types(d):
            assert column[tau] == inv.value(tau, top)


def test_top_stratum_mixed_types_vanish():
    assert arr.top_stratum_inverse(T("1^2 1")) == 0
    assert arr.top_stratum_inverse(T("2^2 1^2")) == Fraction(1, 2)
    assert arr.top_stratum_inverse(T("1 1 1 1")) == Fraction(-1, 4)
    assert arr.top_stratum_inverse(T("3 3")) == Fraction(-1, 2)
    assert arr.top_stratum_inverse(T("2^3")) == Fraction(-1, 3)


def test_top_column_sum_identities():
    # the unramified sum is 1/d; the length-k sum over all types follows an
    # inclusion-exclusion over the divisors of d
    for d in range(2, 9):
        column = arr.top_column_inverse(d)
        unram = [t for t in enumerate_types(d) if t.is_unramified()]
        assert sum(column[t] for t in unram) == Fraction(1, d)
        for k in range(1, d + 1):
            got = sum(value for t, value in column.items() if t.length() == k)
            want = Fraction((-1) ** (k + 1), d) * sum(
                moebius(d // e) * math.comb(e, k) for e in divisors(d))
            assert got == want, (d, k)


def test_top_column_weighted_sum_identity():
    # length-weighted unramified sum cancels against types with one
    # doubled point of multiplicity two
    for d in range(3, 9):
        column = arr.top_column_inverse(d)
        first = sum(t.length() * column[t]
                    for t in enumerate_types(d) if t.is_unramified())
        second = Fraction(0)
        for t in enumerate_types(d - 2):
            if t.is_unramified():
                second += column[t.union(T("1^2"))]
        assert first + second == 0, d


# ---------------------------------------------------------------------------
# disk cache behaviour


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYSPLIT_CACHE_DIR", str(tmp_path))
    arr._memory_tables.clear()
    fresh = arr.incidence_table(4, "a_inv")
    # the inverse is built from the stored a table, so both are written,
    # each file the compact JSON of its table, byte for byte
    forward = arr._memory_tables[(4, "a")]
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        sorted(os.path.basename(arr._cache_path(4, tag)) for tag in ("a", "a_inv"))
    for table in (forward, fresh):
        with open(arr._cache_path(4, table.tag), "rb") as handle:
            assert handle.read() == json.dumps(table.to_json()).encode()
    arr._memory_tables.clear()
    cached = arr.incidence_table(4, "a_inv")
    assert cached.entries == fresh.entries
    arr._memory_tables.clear()


def test_disk_cache_ignores_corruption(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYSPLIT_CACHE_DIR", str(tmp_path))
    arr._memory_tables.clear()
    good = arr.incidence_table(3, "a")
    path = arr._cache_path(3, "a")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{ not json")
    arr._memory_tables.clear()
    recovered = arr.incidence_table(3, "a")
    assert recovered.entries == good.entries
    arr._memory_tables.clear()


@pytest.mark.parametrize("tag", arr.TABLE_TAGS)
def test_disk_cache_rejects_a_wrong_diagonal(tmp_path, monkeypatch, tag):
    # a file that parses, with the right types, but one diagonal entry off
    # is recomputed and overwritten, so no inverse is built from it
    monkeypatch.setenv("POLYSPLIT_CACHE_DIR", str(tmp_path))
    arr._memory_tables.clear()
    good = arr.incidence_table(4, tag)
    path = arr._cache_path(4, tag)
    data = good.to_json()
    data["entries"][2][2] = format_rational(good.entries[2][2] + 1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(data))
    arr._memory_tables.clear()
    recovered = arr.incidence_table(4, tag)
    assert recovered.entries == good.entries
    with open(path, "rb") as handle:
        assert handle.read() == json.dumps(good.to_json()).encode()
    arr._memory_tables.clear()


def test_one_walk_per_forward_table_in_a_store(monkeypatch):
    # the inverses and the Mobius function invert the forward table of
    # their store, so a scope walks each forward table once
    real = arr._walk_rows
    walks = []

    def spy(types, squarefree):
        walks.append(squarefree)
        return real(types, squarefree)

    monkeypatch.setattr(arr, "_walk_rows", spy)
    for tags, squarefree in ((("a", "a_inv", "mobius"), False), (("e", "e_inv"), True)):
        for order in (tags, tags[::-1]):
            walks.clear()
            with arr.caches_bypassed():
                for tag in order:
                    arr.incidence_table(6, tag)
            assert walks == [squarefree], order


def test_disk_cache_can_be_bypassed(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYSPLIT_CACHE_DIR", str(tmp_path))
    arr._memory_tables.clear()
    _fresh_table(2, "a")
    assert list(tmp_path.iterdir()) == []
    # the memory cache is bypassed too: a fresh table, nothing stored
    cached = arr.incidence_table(2, "a")
    before = dict(arr._memory_tables)
    fresh = _fresh_table(2, "a")
    assert fresh is not cached and fresh.entries == cached.entries
    assert arr._memory_tables == before
    arr._memory_tables.clear()


def test_table_degree_cap():
    with pytest.raises(ValueError):
        arr.incidence_table(11, "a")
    with pytest.raises(ValueError):
        arr.incidence_table(2, "zeta")


# ---------------------------------------------------------------------------
# the free commutative monoid oracle


def test_monoid_oracle_small():
    report = arr.monoid_oracle(3, [1, 2])
    assert report["ok"], report
    assert report["failure"] is None
    report = arr.monoid_oracle(4, [1, 1, 3])
    assert report["ok"], report


def test_monoid_oracle_leaves_no_reference_cycles():
    arr.monoid_oracle(4, [1, 1, 2])  # the tables and type lists it reads are cached now
    gc.collect()
    gc.disable()
    try:
        report = arr.monoid_oracle(4, [1, 1, 2])
        left = gc.collect()
    finally:
        gc.enable()
    assert report["ok"]
    assert left == 0


def test_monoid_oracle_sees_an_entry_off_the_order():
    # (3) is not below (1^3), so a nonzero a_inv entry there breaks the
    # X-from-S identity at (1^3)
    table = arr.incidence_table(3, "a_inv")
    i, j = table._pos[parse_type("3")], table._pos[parse_type("1^3")]
    saved = table.entries[i][j]
    assert saved == 0
    table.entries[i][j] = Fraction(1)
    try:
        report = arr.monoid_oracle(3, [1, 2])
    finally:
        table.entries[i][j] = saved
    assert not report["ok"]
    assert report["failure"] == {"identity": "X-from-S", "type": "(1^3)", "degree": 3}


def test_monoid_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        arr.monoid_oracle(0, [1])
    with pytest.raises(ValueError):
        arr.monoid_oracle(3, [])
    with pytest.raises(ValueError):
        arr.monoid_oracle(99, [1])
