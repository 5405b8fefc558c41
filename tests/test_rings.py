"""Ring descriptors, polynomial and series arithmetic, Witt vectors."""

import ast
import hashlib
import itertools
import json
import math
import operator
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysplit import rings
from polysplit.rings import (
    IntegerRing,
    MathCheckError,
    MPoly,
    MPolyRing,
    PairRing,
    Poly,
    PolyRing,
    RatFunc,
    RationalFunctionRing,
    RationalRing,
    RingDescriptor,
    WittElement,
    WittRing,
    add_terms,
    divisors,
    euler_product,
    exact_div,
    from_power_sums,
    moebius,
    parse_rational,
    format_rational,
    partition_count_bounded,
    partitions,
    poly_divmod,
    _dense_ints,
    _dense_over,
    _int_gcd,
    _pseudo_divmod,
    packed_dot,
    power_sums,
    ring_from_token,
    RING_TOKENS,
    QQ,
    ser_exp,
    ser_inv,
    ser_log,
    ser_mul,
    sparse_dot,
    sparse_mul,
)
from polysplit.plethysm import _sieve, forward_zeta, invert_zeta
from polysplit.polysym import PolysymElement
from polysplit.types import SplittingType, parse_type


# ---------------------------------------------------------------------------
# number-theory helpers


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(13) == [1, 13]


def test_moebius():
    values = [moebius(n) for n in range(1, 13)]
    assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_moebius_dirichlet_identity():
    for n in range(2, 60):
        assert sum(moebius(d) for d in divisors(n)) == 0


def test_partitions_counts():
    # partition numbers p(0)..p(10)
    counts = [sum(1 for _ in partitions(m)) for m in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partitions_weights():
    for m in range(8):
        for mult in partitions(m):
            assert sum((j + 1) * n for j, n in enumerate(mult)) == m


def _reference_partitions(m, largest):
    """The partitions of m into parts at most largest, each a list of
    parts in decreasing order."""
    if m == 0:
        return [[]]
    return [[part] + rest for part in range(min(m, largest), 0, -1)
            for rest in _reference_partitions(m - part, part)]


def test_partitions_match_a_reference_enumerator():
    numbers = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]
    for m, count in enumerate(numbers):
        got = partitions(m)
        assert len(got) == len(set(got)) == count
        assert set(got) == {tuple(parts.count(k) for k in range(1, m + 1))
                            for parts in _reference_partitions(m, m)}


UNBOUNDED = 10**9


def _reference_vectors(weights, caps, total):
    """The weighted vectors by brute force, in decreasing lexicographic order."""
    ranges = [range(min(cap, total) + 1) for cap in caps]
    return sorted((v for v in itertools.product(*ranges)
                   if sum(x * w for x, w in zip(v, weights)) == total), reverse=True)


def test_weighted_vectors_match_a_product_filter():
    rng = random.Random(22)
    for length in range(5):
        for cap in (0, 1, UNBOUNDED, None):
            for _ in range(5):
                weights = [rng.randint(1, 4) for _ in range(length)]
                # None draws a cap of 0, 1 or unbounded for each entry
                caps = [rng.choice((0, 1, UNBOUNDED)) if cap is None else cap
                        for _ in range(length)]
                for total in range(8):
                    assert rings.weighted_vectors(weights, caps, total) == \
                        _reference_vectors(weights, caps, total), (weights, caps, total)


def test_weighted_vectors_edge_cases_and_order():
    assert rings.weighted_vectors([], [], 0) == [()]
    assert rings.weighted_vectors([3, 1], [0, 0], 0) == [(0, 0)]
    assert rings.weighted_vectors([], [], 2) == []
    assert rings.weighted_vectors([2, 4], [UNBOUNDED] * 2, 7) == []
    assert rings.weighted_vectors([1, 1], [1, 1], 3) == []
    # decreasing lexicographic order, the order arr tilings prints
    assert rings.weighted_vectors([1, 2, 1], [UNBOUNDED, 1, 2], 3) == [
        (3, 0, 0), (2, 0, 1), (1, 1, 0), (1, 0, 2), (0, 1, 1)]


def test_poly_and_mpoly_share_one_type_strict_body():
    shared = {"is_zero", "__add__", "__neg__", "__sub__", "scale", "__eq__", "__hash__"}
    assert not shared & (set(vars(Poly)) | set(vars(MPoly)))
    assert Poly({0: 1}) != MPoly(1, {(0,): 1})
    assert MPoly(1, {(0,): 1}) != Poly({0: 1})
    assert Poly() != MPoly(1)  # both term dicts are empty
    assert Poly({0: Fraction(2)}) == Poly({0: 2})
    assert hash(Poly({0: Fraction(2)})) == hash(Poly({0: 2}))


def test_partition_count_bounded():
    # partitions of 4 into at most 2 parts: 4, 3+1, 2+2
    assert partition_count_bounded(4, 2) == 3
    assert partition_count_bounded(0, 5) == 1
    assert partition_count_bounded(5, 0) == 0
    assert partition_count_bounded(6, 6) == 11


def _series_product(exponents, upto):
    """prod_d (1 - t^d)^(e_d) through t^upto by truncated convolution, one
    factor at a time: 1 - t^d, or the geometric series sum t^(jd) for its
    inverse."""
    out = [1] + [0] * upto
    for d, e in exponents.items():
        if e > 0:
            factor = [1 if k == 0 else -1 if k == d else 0 for k in range(upto + 1)]
        else:
            factor = [1 if k % d == 0 else 0 for k in range(upto + 1)]
        for _ in range(abs(e)):
            out = [sum(out[i] * factor[k - i] for i in range(k + 1)) for k in range(upto + 1)]
    return out


@pytest.mark.parametrize("exponents,upto", [
    ({}, 0),
    ({}, 6),
    ({3: 2}, 0),
    ({1: -1}, 0),
    ({1: -1}, 8),
    ({1: 3, 2: -2, 5: 1, 4: -1}, 12),
    ({7: 2, 9: -3, 2: 1}, 6),
    ({2: 1, 1: -1, 3: 0}, 9),
    (dict.fromkeys(range(1, 6), 24), 5),
    ({k: -len(divisors(k)) for k in range(1, 10)}, 9),
])
def test_euler_product_matches_a_series_product(exponents, upto):
    assert euler_product(exponents, upto) == _series_product(exponents, upto)


def test_euler_product_matches_a_series_product_on_random_exponents():
    rng = random.Random(24)
    for _ in range(60):
        upto = rng.randint(0, 12)
        exponents = {d: rng.randint(-4, 4) for d in rng.sample(range(1, 16), rng.randint(0, 5))}
        assert euler_product(exponents, upto) == _series_product(exponents, upto), exponents


def test_euler_product_of_no_factors_is_one():
    assert euler_product({}, 4) == [1, 0, 0, 0, 0]
    assert euler_product({}, 0) == euler_product({5: 3}, 0) == [1]


@pytest.mark.parametrize("exponents", [{0: 1}, {-1: -2}, {2: 1, 0: -1}])
def test_euler_product_rejects_a_nonpositive_degree(exponents):
    with pytest.raises(ValueError):
        euler_product(exponents, 3)


def test_rational_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(7)) == "7"
    # ints and Fractions are read directly, anything else through Fraction
    assert [format_rational(x) for x in (-12, 0, True, 0.75, "6/8")] == ["-12", "0", "1", "3/4", "3/4"]
    # every "0" is one shared zero, so a table of zeros holds one object
    assert parse_rational("0") == 0 and parse_rational("0") is parse_rational("0")
    assert parse_rational(0) == 0 and parse_rational("-0") == 0


# ---------------------------------------------------------------------------
# polynomials and rational functions


def test_poly_arithmetic():
    w = Poly.variable()
    one = Poly.const(1)
    assert (one + w) * (one - w) == one - w * w
    assert (w ** 3).degree() == 3
    assert Poly().degree() == -1
    assert (w + w) == w.scale(2)


def test_poly_substitute_and_evaluate():
    w = Poly.variable()
    p = w ** 2 + w.scale(3) + Poly.const(1)
    assert p.substitute_power(2) == w ** 4 + (w ** 2).scale(3) + Poly.const(1)
    assert p.evaluate(Fraction(2)) == Fraction(11)


def test_poly_json_round_trip():
    p = Poly({0: Fraction(1, 2), 3: Fraction(-2)})
    assert Poly.from_json(p.to_json()) == p


def test_poly_str():
    w = Poly.variable()
    p = w ** 2 - w.scale(2) + Poly.const(1)
    assert str(p) == "w^2 - 2*w + 1"


def test_poly_divmod():
    w = Poly.variable()
    num = w ** 3 - Poly.const(1)
    den = w - Poly.const(1)
    q, r = poly_divmod(num, den)
    assert r.is_zero()
    assert q == w ** 2 + w + Poly.const(1)


def test_ratfunc_normalization():
    w = Poly.variable()
    f = RatFunc(w ** 2 - Poly.const(1), w - Poly.const(1))
    assert f.is_polynomial()
    assert f.as_poly() == w + Poly.const(1)


def test_ratfunc_arithmetic():
    w = Poly.variable()
    f = RatFunc(Poly.const(1), w)
    g = RatFunc(w, Poly.const(1))
    assert (f * g) == RatFunc.from_poly(Poly.const(1))
    assert f.inverse() == g
    h = f + f
    assert h == RatFunc(Poly.const(2), w)


# ---------------------------------------------------------------------------
# descriptor laws, shared across every shipped ring


def _sample_elements(ring, token):
    if token in ("Z", "Q"):
        return [ring.from_int(n) for n in (-2, 0, 1, 3)]
    if token.startswith("poly"):
        w = ring.variable()
        return [ring.one(), w, ring.add(ring.mul(w, w), ring.from_int(2))]
    if token == "ratfunc":
        w = ring.variable()
        return [ring.one(), w, ring.add(w, ring.from_int(1))]
    if token == "pair":
        return [ring.from_int(2), (1, 5), (-3, 2)]
    if token == "witt":
        return [ring.one(), ring.from_int(2),
                WittElement.geometric(Fraction(3), ring.order)]
    raise AssertionError(token)


@pytest.mark.parametrize("token", RING_TOKENS)
def test_ring_axioms(token):
    ring = ring_from_token(token, order=6)
    samples = _sample_elements(ring, token)
    zero, one = ring.zero(), ring.one()
    for x in samples:
        assert ring.eq(ring.add(x, zero), x)
        assert ring.eq(ring.mul(x, one), x)
        assert ring.eq(ring.add(x, ring.neg(x)), zero)
        assert ring.eq(ring.sub(x, x), zero)
        for y in samples:
            assert ring.eq(ring.add(x, y), ring.add(y, x))
            assert ring.eq(ring.mul(x, y), ring.mul(y, x))


@pytest.mark.parametrize("token", RING_TOKENS)
def test_adams_identity_and_additivity(token):
    ring = ring_from_token(token, order=12)
    samples = _sample_elements(ring, token)
    for x in samples:
        assert ring.eq(ring.adams(1, x), x)
        for y in samples:
            for r in (2, 3):
                lhs = ring.adams(r, ring.add(x, y))
                rhs = ring.add(ring.adams(r, x), ring.adams(r, y))
                assert ring.eq(lhs, rhs)


@pytest.mark.parametrize("token", RING_TOKENS)
def test_adams_separability(token):
    # psi_a after psi_b equals psi_ab for all a, b up to 6
    ring = ring_from_token(token, order=36)
    samples = _sample_elements(ring, token)
    for x in samples:
        for a in range(1, 7):
            for b in range(1, 7):
                lhs = ring.adams(a, ring.adams(b, x))
                rhs = ring.adams(a * b, x)
                assert ring.eq(lhs, rhs)


@pytest.mark.parametrize("token", RING_TOKENS)
def test_exact_division_round_trip(token):
    ring = ring_from_token(token, order=6)
    samples = _sample_elements(ring, token)
    for x in samples:
        for d in (1, 2, 3, 5):
            y = ring.exact_div_by_int(ring.scalar_mul_int(d, x), d)
            assert y is not None
            assert ring.eq(y, x)


def test_exact_division_failure():
    ring = IntegerRing()
    assert ring.exact_div_by_int(3, 2) is None
    poly = PolyRing(integral=True)
    assert poly.exact_div_by_int(poly.one(), 2) is None
    rational = RationalRing()
    assert rational.exact_div_by_int(Fraction(3), 2) == Fraction(3, 2)
    for integral in (False, True):
        with pytest.raises(ZeroDivisionError):
            PolyRing(integral=integral).exact_div_by_int(Poly({}), 0)
    ratfunc = RationalFunctionRing()
    for x in (ratfunc.zero(), ratfunc.variable()):
        with pytest.raises(ZeroDivisionError):
            ratfunc.exact_div_by_int(x, 0)


def test_pair_ring_componentwise():
    ring = PairRing()
    assert ring.mul((1, 2), (3, 4)) == (3, 8)
    assert ring.add((1, 2), (3, 4)) == (4, 6)
    assert ring.adams(5, (1, 2)) == (1, 2)


def test_pair_ring_exact_division():
    ring = PairRing()
    assert ring.exact_div_by_int((6, -9), 3) == (2, -3)
    assert ring.exact_div_by_int((6, 7), 3) is None
    assert ring.exact_div_by_int((7, 6), 3) is None
    with pytest.raises(ZeroDivisionError):
        ring.exact_div_by_int((6, 9), 0)


@pytest.mark.parametrize("obj", [
    [True, 1], [1, False], ["1/2", 1], [1, "3/4"], [Fraction(1, 2), 1], [1.5, 1],
    [1], [1, 2, 3], 5, "1", {"0": 1, "1": 2}, None,
])
def test_pair_ring_from_json_rejects(obj):
    with pytest.raises(ValueError):
        PairRing().from_json(obj)


def test_pair_ring_from_json_reads_ints():
    ring = PairRing()
    assert ring.from_json([3, "-4"]) == (3, -4)
    assert ring.from_json(ring.to_json((5, -6))) == (5, -6)


def test_failed_series_division_is_a_math_check():
    # log(1 + t) = t - t^2/2 + ...: the t^2 coefficient is not an integer
    with pytest.raises(MathCheckError) as info:
        ser_log(IntegerRing(), [1, 1, 0], 2)
    assert str(info.value) == "exact division by 2 failed"
    assert isinstance(info.value, ValueError)


def test_poly_ring_frobenius_adams():
    ring = PolyRing()
    w = ring.variable()
    assert ring.adams(3, ring.add(w, ring.one())) == Poly({3: Fraction(1), 0: Fraction(1)})
    trivial = PolyRing(frobenius=False)
    assert trivial.adams(3, trivial.variable()) == trivial.variable()


def test_ring_tokens_all_constructible():
    for token in RING_TOKENS:
        ring = ring_from_token(token)
        assert ring.eq(ring.add(ring.one(), ring.neg(ring.one())), ring.zero())


def test_ring_from_token_rejects_unknown():
    with pytest.raises(ValueError):
        ring_from_token("octonions")


def test_adams_rejects_nonpositive():
    for token in RING_TOKENS:
        ring = ring_from_token(token)
        with pytest.raises(ValueError):
            ring.adams(0, ring.one())
        with pytest.raises(ValueError):
            ring.adams_sum([(1, 1, ring.one()), (1, 0, ring.one())])


# ---------------------------------------------------------------------------
# Witt vectors: big Witt ring of Q presented by power series


def test_witt_geometric_identities():
    # (1 - at)^-1 [*] (1 - bt)^-1 = (1 - abt)^-1
    ring = WittRing(10)
    two = WittElement.geometric(Fraction(2), 10)
    three = WittElement.geometric(Fraction(3), 10)
    six = WittElement.geometric(Fraction(6), 10)
    assert ring.eq(ring.mul(two, three), six)
    assert ring.eq(ring.one(), WittElement.geometric(Fraction(1), 10))


def test_witt_addition_is_series_multiplication():
    ring = WittRing(8)
    two = WittElement.geometric(Fraction(2), 8)
    three = WittElement.geometric(Fraction(3), 8)
    total = ring.add(two, three)
    # coefficients of 1/((1-2t)(1-3t)) are 2^(k+1) - 3^(k+1) over -1... use direct product
    expect = [sum(Fraction(2) ** i * Fraction(3) ** (k - i) for i in range(k + 1))
              for k in range(9)]
    assert list(total.coeffs) == expect


def test_witt_ghost_is_ring_homomorphism():
    ring = WittRing(12)
    f = WittElement.geometric(Fraction(2), 12)
    g = WittElement([Fraction(1), Fraction(1), Fraction(-1), Fraction(2)] +
                    [Fraction(0)] * 9)
    for x, y in ((f, g), (g, f)):
        gx, gy = x.ghost(), y.ghost()
        assert ring.add(x, y).ghost() == [a + b for a, b in zip(gx, gy)]
        assert ring.mul(x, y).ghost() == [a * b for a, b in zip(gx, gy)]


def test_witt_operations_truncate_to_the_smaller_order():
    ring = WittRing(8)
    x = WittElement([Fraction(1), Fraction(2), Fraction(-1, 3)] +
                    [Fraction(k, 5) for k in range(6)])
    y = WittElement.geometric(Fraction(3), 4)
    short = x.truncate(4)
    for op in (ring.add, ring.sub, ring.mul):
        assert op(x, y).order == 4
        assert ring.eq(op(x, y), op(short, y))
        assert ring.eq(op(y, x), op(y, short))


def test_witt_equality_compares_at_the_smaller_order():
    ring = WittRing(8)
    z = ring.adams(2, ring.zero())
    assert z.order == 4
    assert ring.eq(z, ring.zero())
    assert ring.eq(ring.add(z, ring.one()), ring.one())
    assert ring.eq(ring.one(), ring.add(z, ring.one()))
    assert not ring.eq(ring.add(z, ring.one()), ring.from_int(2))
    assert not ring.eq(ring.adams(2, ring.one()), ring.zero())


def test_witt_ghost_round_trip():
    ghosts = [Fraction(k * k - 3, 2) for k in range(1, 13)]
    x = WittElement.from_ghost(ghosts)
    assert x.ghost() == ghosts


def test_witt_geometric_ghosts():
    x = WittElement.geometric(Fraction(5), 9)
    assert x.ghost() == [Fraction(5) ** k for k in range(1, 10)]


def test_witt_adams_reindexes_ghosts():
    ring = WittRing(12)
    x = WittElement([Fraction(1)] + [Fraction(k % 3 - 1) for k in range(1, 13)])
    y = ring.adams(3, x)
    assert y.order == 4
    assert y.ghost() == [x.ghost()[3 * i - 1] for i in range(1, 5)]
    # psi_r on a geometric element is again geometric
    g = ring.adams(2, WittElement.geometric(Fraction(3), 12))
    assert ring.eq(g, WittElement.geometric(Fraction(9), 6))


def test_witt_exact_division():
    ring = WittRing(10)
    x = WittElement.geometric(Fraction(4), 10)
    doubled = ring.scalar_mul_int(3, x)
    back = ring.exact_div_by_int(doubled, 3)
    assert ring.eq(back, x)


# The Witt ring against its series definition: W_N(Q) is the group of series
# 1 + a_1 t + ... + a_N t^N under multiplication, whatever coordinates the
# elements are stored in.

_WITT_X = WittElement([1, 2, Fraction(-1, 3), 0, 5, Fraction(1, 2), -4, 1, 0])
_WITT_Y = WittElement([1, Fraction(-3, 2), 1, 7, Fraction(2, 5), -1])


@pytest.mark.parametrize("x,y", [(_WITT_X, _WITT_Y), (_WITT_Y, _WITT_X),
                                 (_WITT_X, _WITT_X)])
def test_witt_addition_and_negation_follow_the_series(x, y):
    ring = WittRing(8)
    order = min(x.order, y.order)
    assert ring.add(x, y).coeffs == ser_mul(QQ, x.coeffs, y.coeffs, order)
    assert ring.neg(x).coeffs == ser_inv(QQ, x.coeffs, x.order)


@pytest.mark.parametrize("n", [-3, -1, 0, 1, 2, 5])
def test_witt_integers_are_powers_of_the_geometric_series(n):
    # the coefficient of t^k in (1 - t)^(-n) is n (n + 1) ... (n + k - 1) / k!
    expect = [Fraction(math.prod(range(n, n + k)), math.factorial(k)) for k in range(8)]
    assert WittRing(7).from_int(n).coeffs == expect


@pytest.mark.parametrize("d", [2, 3, 7, -2])
def test_witt_exact_division_undoes_scaling(d):
    ring = WittRing(8)
    for x in (_WITT_X, _WITT_Y):
        assert ring.scalar_mul_int(d, ring.exact_div_by_int(x, d)) == x


def test_witt_requires_constant_term_one():
    with pytest.raises(ValueError):
        WittElement([Fraction(2), Fraction(1)])


def test_witt_json_round_trip():
    x = WittElement.geometric(Fraction(2, 3), 5)
    data = x.to_json()
    assert data["order"] == 5
    assert WittElement.from_json(data) == x


# ---------------------------------------------------------------------------
# series kernels over a descriptor ring


def test_series_inverse_geometric():
    ring = RationalRing()
    one_minus_t = [Fraction(1), Fraction(-1)] + [Fraction(0)] * 19
    assert ser_inv(ring, one_minus_t, 20) == [Fraction(1)] * 21


def test_series_log_of_geometric():
    ring = RationalRing()
    logs = ser_log(ring, [Fraction(1)] * 21, 20)
    assert logs[0] == Fraction(0)
    assert logs[1:] == [Fraction(1, k) for k in range(1, 21)]


def test_series_exp_log_round_trip():
    ring = RationalRing()
    f = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3), Fraction(0),
         Fraction(1, 5)] + [Fraction(0)] * 15
    assert ser_log(ring, ser_exp(ring, f, 20), 20) == f
    g = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-4)] + [Fraction(0)] * 17
    assert ser_exp(ring, ser_log(ring, g, 20), 20) == g
    assert ser_mul(ring, g, ser_inv(ring, g, 20), 20) == [Fraction(1)] + [Fraction(0)] * 20


def test_series_exp_matches_exponential_series():
    ring = RationalRing()
    e = ser_exp(ring, [Fraction(0), Fraction(1)] + [Fraction(0)] * 10, 11)
    fact = 1
    for k in range(12):
        fact = fact * k if k else 1
        assert e[k] == Fraction(1, fact)


def test_series_requires_unit_or_zero_constant():
    ring = RationalRing()
    with pytest.raises(ValueError):
        ser_inv(ring, [Fraction(2), Fraction(1)], 1)
    with pytest.raises(ValueError):
        ser_exp(ring, [Fraction(1), Fraction(1)], 1)


def test_series_multiplication_truncates_to_min_order():
    # the product at order 3 reads no coefficient past t^3 of either factor
    ring = RationalRing()
    assert ser_mul(ring, [Fraction(1)] * 6, [Fraction(1)] * 4, 3) == [1, 2, 3, 4]


def test_series_over_integer_ring_division_guard():
    ring = IntegerRing()
    with pytest.raises(ValueError):
        ser_exp(ring, [0, 1, 0], 2)
    # but an exactly divisible exponential goes through
    assert ser_exp(ring, [0, 2, 2], 2) == [1, 2, 4]


_KERNEL_RINGS = {
    "Z": (IntegerRing(), st.integers(-30, 30)),
    "Q": (RationalRing(), st.fractions(-30, 30, max_denominator=12)),
    "polyZ": (PolyRing(integral=True),
              st.dictionaries(st.integers(0, 3), st.integers(-9, 9), max_size=3).map(Poly)),
    "pair": (PairRing(), st.tuples(st.integers(-30, 30), st.integers(-30, 30))),
}


@pytest.mark.parametrize("token", sorted(_KERNEL_RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_power_sums_round_trip(token, data):
    # P_n is integral whenever the x's are, and the n * x_n it rebuilds
    # divide by n exactly: the kernel pair is a bijection in every ring
    ring, values = _KERNEL_RINGS[token]
    xs = data.draw(st.lists(values, min_size=1, max_size=7))
    n = len(xs)
    ps = power_sums(ring, xs, n)
    assert len(ps) == n
    assert all(ring.eq(a, b) for a, b in zip(from_power_sums(ring, ps, n), xs))


# The per-term loops that each degree's one ``ring.dot`` replaced, kept as
# the reference for the kernel.


def _schoolbook_power_sums(ring, xs, upto):
    ps = []
    for n in range(1, upto + 1):
        p = ring.scalar_mul_int(n, xs[n - 1])
        for i in range(1, n):
            p = ring.sub(p, ring.mul(xs[i - 1], ps[n - i - 1]))
        ps.append(p)
    return ps


def _schoolbook_from_power_sums(ring, ps, upto, direction):
    xs = [ring.one()]
    for n in range(1, upto + 1):
        total = ring.sum(ring.mul(ps[i - 1], xs[n - i]) for i in range(1, n + 1))
        xs.append(exact_div(ring, total, n, {"degree": n, "direction": direction}))
    return xs[1:]


def _seeded_fraction(rng):
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _seeded_poly(rng, coeff):
    return Poly({e: coeff(rng) for e in range(rng.randint(0, 3))})


def _seeded_mpoly(rng):
    return MPoly(3, {tuple(rng.randint(0, 2) for _ in range(3)): _seeded_fraction(rng)
                     for _ in range(rng.randint(0, 3))})


_NEWTON_RINGS = [
    (IntegerRing(), lambda rng: rng.randint(-30, 30)),
    (RationalRing(), _seeded_fraction),
    (PolyRing(integral=True), lambda rng: _seeded_poly(rng, lambda r: r.randint(-9, 9))),
    (PolyRing(integral=False), lambda rng: _seeded_poly(rng, _seeded_fraction)),
    (RationalFunctionRing(),
     lambda rng: RatFunc(_seeded_poly(rng, lambda r: r.randint(-3, 3)),
                         Poly({0: 1, 1: rng.randint(-2, 2)}))),
    (PairRing(), lambda rng: (rng.randint(-30, 30), rng.randint(-30, 30))),
    (WittRing(6), lambda rng: WittElement([1] + [_seeded_fraction(rng) for _ in range(6)])),
    (MPolyRing(3, "monomial"), _seeded_mpoly),
    (MPolyRing(3), _seeded_mpoly),
]


def test_newton_rings_cover_every_token():
    assert {ring.name for ring, _ in _NEWTON_RINGS} >= set(RING_TOKENS)


@pytest.mark.parametrize("ring,draw", _NEWTON_RINGS,
                         ids=[ring.name for ring, _ in _NEWTON_RINGS])
@pytest.mark.parametrize("seed", range(3))
def test_newton_kernel_matches_the_per_term_loops(ring, draw, seed):
    # the seeded values go through both kernels, and so do their power sums,
    # which divide back exactly in every ring; over Z, pairs and polyZ the
    # seeded values themselves may not, and both kernels must then refuse
    # the same degree with the same detail
    rng = random.Random(seed)
    size = 4 if ring.name == "ratfunc" else 6
    values = [draw(rng) for _ in range(size)]
    for upto in (1, size):
        ps = _schoolbook_power_sums(ring, values, upto)
        assert power_sums(ring, values, upto) == ps
        for given in (ps, values):
            try:
                expected = _schoolbook_from_power_sums(ring, given, upto, "forward")
            except MathCheckError as exc:
                with pytest.raises(MathCheckError) as got:
                    from_power_sums(ring, given, upto, "forward")
                assert (str(got.value), got.value.detail) == (str(exc), exc.detail)
            else:
                assert from_power_sums(ring, given, upto, "forward") == expected


_ADAMS_SUM_RINGS = _NEWTON_RINGS + [
    (PolyRing(frobenius=False), lambda rng: _seeded_poly(rng, _seeded_fraction))]


@pytest.mark.parametrize("ring,draw", _ADAMS_SUM_RINGS,
                         ids=[ring.name for ring, _ in _ADAMS_SUM_RINGS])
@pytest.mark.parametrize("seed", range(3))
def test_adams_sum_matches_the_generic_body(ring, draw, seed):
    # the sum of n * psi_r(x) over (n, r, x) triples, n = 0 and r = 1
    # included, is what scalar_mul_int, adams and sum give one term at a time
    rng = random.Random(seed)
    for size in (0, 1, 2, 5):
        terms = [(rng.randint(-3, 3), rng.randint(1, 4), draw(rng)) for _ in range(size)]
        expected = ring.sum(ring.scalar_mul_int(n, ring.adams(r, x)) for n, r, x in terms)
        assert ring.adams_sum(terms) == expected, terms


def test_sieve_matches_divisors_and_moebius():
    divs, mu = _sieve(500)
    assert divs[1:] == [divisors(n) for n in range(1, 501)]
    assert mu[1:] == [moebius(n) for n in range(1, 501)]
    assert _sieve(1) == ([[], [1]], [0, 1])


def test_power_sums_keep_x_1_as_given():
    # a Witt x_1 of a higher order than the ring keeps its order as P_1
    x = WittElement.geometric(Fraction(2), 8)
    assert power_sums(WittRing(4), [x], 1) == [x]


def test_from_power_sums_needs_every_power_sum():
    # a missing P_n is an error, not a zero term of the sum
    with pytest.raises(ValueError, match="need P_1..P_3"):
        from_power_sums(QQ, [Fraction(1), Fraction(1)], 3)


def _dot_inputs(token, rng, length):
    if token == "Z":
        return [rng.randint(-2**70, 2**70) for _ in range(length)]
    if token == "pair":
        return [(rng.randint(-99, 99), rng.randint(-2**70, 2**70)) for _ in range(length)]
    # Q: plain ints, small fractions and denominators past 2**64, mixed
    kinds = (lambda: rng.randint(-50, 50), lambda: _seeded_fraction(rng),
             lambda: Fraction(rng.randint(-2**90, 2**90), rng.randint(1, 2**80)))
    return [rng.choice(kinds)() for _ in range(length)]


@pytest.mark.parametrize("token", ["Z", "Q", "pair"])
@pytest.mark.parametrize("seed", range(4))
def test_dot_overrides_match_the_default(token, seed):
    ring = ring_from_token(token)
    rng = random.Random(seed)
    assert ring.dot([], []) == ring.zero()
    for length in (1, 2, 5, 40):
        xs, ys = _dot_inputs(token, rng, length), _dot_inputs(token, rng, length)
        assert ring.dot(xs, ys) == RingDescriptor.dot(ring, xs, ys)


class _PerDegree:
    """The ring, seen from outside its class, so that the series kernels run
    one ``ring.dot`` per degree (the ring's own dot) instead of a series
    path that they choose by the ring's class."""

    def __init__(self, ring):
        self.ring = ring

    def __getattr__(self, name):
        return getattr(self.ring, name)


def _first_primes(count):
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


# 40 values whose denominators are distinct primes: the common denominator
# of the series grows at every degree
_PRIME_DENOMINATORS = [Fraction((-1) ** i * (i % 7 + 1), p)
                       for i, p in enumerate(_first_primes(40))]
_Q_VALUES = st.one_of(st.integers(-50, 50), st.just(0), st.just(Fraction(0)),
                      st.fractions(max_denominator=12),
                      st.fractions(min_value=-2**70, max_value=2**70, max_denominator=2**80))


@settings(max_examples=80, deadline=None)
@given(st.lists(_Q_VALUES, min_size=1, max_size=12), st.integers(1, 12))
@example(_PRIME_DENOMINATORS, 40)
@example(_PRIME_DENOMINATORS, 17)
@example([0, 0, Fraction(3, 4)], 3)
def test_fraction_series_matches_the_per_degree_kernel(values, upto):
    # over Q both kernels run as one series on ints; through _PerDegree
    # each degree is one RationalRing.dot
    upto = min(upto, len(values))
    for kernel in (power_sums, from_power_sums):
        assert kernel(QQ, values, upto) == kernel(_PerDegree(QQ), values, upto)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(max_denominator=9), min_size=0, max_size=8))
@example(_PRIME_DENOMINATORS)
def test_witt_coefficients_and_ghosts_round_trip(values):
    coeffs = [Fraction(1)] + values
    assert WittElement(coeffs).coeffs == coeffs
    assert WittElement.from_ghost(values).ghost() == values
    assert WittElement(WittElement.from_ghost(values).coeffs).ghost() == values


# ---------------------------------------------------------------------------
# multivariate polynomials


def test_mpoly_arithmetic():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    square = (x + y) * (x + y)
    assert square == x * x + (x * y).scale(2) + y * y
    assert (x - x).is_zero()


def test_mpoly_power_substitute():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    f = x * y + x
    assert f.power_substitute(3) == MPoly(2, {(3, 3): Fraction(1),
                                              (3, 0): Fraction(1)})


def test_mpoly_ring_adams_modes():
    monomial = MPolyRing(2, adams_mode="monomial")
    trivial = MPolyRing(2, adams_mode="trivial")
    x = monomial.variable(0)
    y = monomial.variable(1)
    f = monomial.add(x, y)
    assert monomial.adams(2, f) == MPoly(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    assert trivial.adams(2, f) == f


def test_mpoly_string():
    ring = MPolyRing(2)
    f = ring.add(ring.mul(ring.variable(0), ring.variable(0)), ring.variable(1))
    assert f.to_string(("a", "b")) == "a^2 + b"


# MPoly keeps Poly's coefficient convention: against a reference that
# computes on dicts of Fractions term by term, every operation, the Adams
# operations and a zeta round trip agree, and no coefficient is stored as a
# Fraction with denominator 1.


class _FractionMPolyRing(RingDescriptor):
    """MPolyRing's arithmetic on plain dicts of Fractions, one product and one
    sum per pair of terms."""

    def __init__(self, ring):
        self.nvars = ring.nvars
        self.monomial = ring.adams_mode == "monomial"

    def from_int(self, n):
        return {(0,) * self.nvars: Fraction(n)} if n else {}

    def add(self, x, y):
        out = dict(x)
        for m, c in y.items():
            out[m] = out.get(m, Fraction(0)) + c
        return {m: c for m, c in out.items() if c}

    def neg(self, x):
        return {m: -c for m, c in x.items()}

    def mul(self, x, y):
        out = {}
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return {m: c for m, c in out.items() if c}

    def adams(self, r, x):
        return {tuple(e * r for e in m): c for m, c in x.items()} if self.monomial else x

    def exact_div_by_int(self, x, d):
        return {m: c / d for m, c in x.items()}


def _canonical_mpoly(p):
    """Assert that p stores an int exactly where a coefficient is integral,
    and no zero; hand p back."""
    for c in p.coeffs.values():
        assert c and type(c) is (int if c.denominator == 1 else Fraction), p.coeffs
    return p


def _mixed_mpoly(rng):
    """Three-variable terms whose coefficients are ints, Fractions, and
    integral Fractions that the constructor must store as ints."""
    kinds = (lambda: rng.randint(-9, 9), lambda: _seeded_fraction(rng),
             lambda: Fraction(2 * rng.randint(-9, 9), 2))
    return {tuple(rng.randint(0, 2) for _ in range(3)): rng.choice(kinds)()
            for _ in range(rng.randint(0, 4))}


@pytest.mark.parametrize("mode", ["trivial", "monomial"])
@pytest.mark.parametrize("seed", range(4))
def test_mpoly_matches_the_fraction_reference(mode, seed):
    ring = MPolyRing(3, mode)
    ref = _FractionMPolyRing(ring)
    rng = random.Random(seed)
    for _ in range(20):
        a, b = _mixed_mpoly(rng), _mixed_mpoly(rng)
        p, q = _canonical_mpoly(MPoly(3, a)), _canonical_mpoly(MPoly(3, b))
        fa = {m: Fraction(c) for m, c in p.coeffs.items()}
        fb = {m: Fraction(c) for m, c in q.coeffs.items()}
        assert p.coeffs == fa and q.coeffs == fb
        assert _canonical_mpoly(p + q).coeffs == ref.add(fa, fb)
        assert _canonical_mpoly(p - q).coeffs == ref.add(fa, ref.neg(fb))
        assert _canonical_mpoly(p * q).coeffs == ref.mul(fa, fb)
        assert _canonical_mpoly(ring.mul(p, q)).coeffs == ref.mul(fa, fb)
        for c in (0, 1, -3, Fraction(2, 3), Fraction(-6, 3)):
            assert _canonical_mpoly(p.scale(c)).coeffs == ref.mul(fa, ref.from_int(c))
        for r in (1, 2, 3):
            assert _canonical_mpoly(p.power_substitute(r)).coeffs == \
                {tuple(e * r for e in m): v for m, v in fa.items()}
            assert _canonical_mpoly(ring.adams(r, p)).coeffs == ref.adams(r, fa)
        for d in (1, 2, 3, -2):
            assert _canonical_mpoly(ring.exact_div_by_int(p, d)).coeffs == \
                ref.exact_div_by_int(fa, d)
    for const in (MPoly.const(3, 4), MPoly.const(3, Fraction(8, 2)), ring.one(),
                  ring.variable(1), MPoly.const(3, Fraction(1, 3))):
        _canonical_mpoly(const)
    assert MPoly.const(3, Fraction(8, 2)).coeffs == {(0, 0, 0): 4}


@pytest.mark.parametrize("mode", ["trivial", "monomial"])
@pytest.mark.parametrize("seed", range(3))
def test_mpoly_zeta_round_trip_matches_the_fraction_reference(mode, seed):
    ring = MPolyRing(3, mode)
    ref = _FractionMPolyRing(ring)
    rng = random.Random(seed)
    us = [MPoly(3, _mixed_mpoly(rng)) for _ in range(5)]
    ref_us = [{m: Fraction(c) for m, c in u.coeffs.items()} for u in us]
    xs = forward_zeta(ring, us)
    assert [_canonical_mpoly(x).coeffs for x in xs] == forward_zeta(ref, ref_us)
    back = invert_zeta(ring, xs)
    assert [_canonical_mpoly(u).coeffs for u in back] == invert_zeta(ref, forward_zeta(ref, ref_us))
    assert back == us


# ---------------------------------------------------------------------------
# PolyRing.dot: one Kronecker-packed sum, against the default sum of products

_DOT_POLY_RINGS = [PolyRing(integral=True), PolyRing(),
                   PolyRing(integral=True, frobenius=False), PolyRing(frobenius=False)]


def _dot_poly(rng, ring):
    """A polynomial with zero to seven coefficients from a random lowest
    exponent, gaps included; over Q the coefficients mix ints, small
    Fractions and denominators past 2**80.  With Frobenius, it is sometimes
    a (wider, sparser) Adams image."""
    kinds = [lambda: rng.randint(-9, 9), lambda: rng.randint(-2**90, 2**90),
             lambda: 0]
    if not ring.integral:
        kinds += [lambda: _seeded_fraction(rng),
                  lambda: Fraction(rng.randint(-2**90, 2**90), rng.randint(1, 2**82))]
    low = rng.randint(0, 6)
    p = Poly({low + e: rng.choice(kinds)() for e in range(rng.randint(0, 7))})
    return ring.adams(rng.randint(1, 3), p) if rng.random() < 0.3 else p


@pytest.mark.parametrize("ring", _DOT_POLY_RINGS, ids=[r.name for r in _DOT_POLY_RINGS])
@pytest.mark.parametrize("seed", range(4))
def test_poly_ring_dot_matches_the_default(ring, seed):
    rng = random.Random(seed)
    assert ring.dot([], []) == ring.zero()
    zero, w = ring.zero(), ring.variable()
    assert ring.dot([zero], [w]) == zero and ring.dot([w, zero], [zero, w]) == zero
    for length in (1, 1, 2, 3, 5, 12):
        xs = [_dot_poly(rng, ring) for _ in range(length)]
        ys = [_dot_poly(rng, ring) for _ in range(length)]
        expected = RingDescriptor.dot(ring, xs, ys)
        assert _canonical(ring.dot(xs, ys)) == expected
        pairs = [(x, y) for x, y in zip(xs, ys) if x.coeffs and y.coeffs]
        if pairs:
            assert packed_dot(pairs) == expected.coeffs


def test_packed_dot_shifts_and_scales_each_product():
    # w^3 * (w^2 / 3) + (1/2) * (w / 5) - w^5 / 3 - w / 10: each product has
    # its own lowest exponent and its own denominator, and the sum cancels
    pairs = [(Poly(a), Poly(b)) for a, b in [
        ({3: 1}, {2: Fraction(1, 3), 4: 1}), ({0: Fraction(1, 2)}, {1: Fraction(1, 5)}),
        ({5: -1}, {0: Fraction(1, 3)}), ({1: -1}, {0: Fraction(1, 10)})]]
    assert packed_dot(pairs) == {7: 1}
    assert packed_dot(pairs[:2]) == {5: Fraction(1, 3), 7: 1, 1: Fraction(1, 10)}
    # one operand in a product of small coefficients and one of 70-bit ones
    p = Poly({e: e + 1 for e in range(6)})
    small, large = Poly({e: 1 for e in range(4)}), Poly({e: 2**70 + e for e in range(4)})
    assert packed_dot([(p, small), (p, large)]) == sparse_dot(
        [(p.coeffs, small.coeffs), (p.coeffs, large.coeffs)], operator.add)


def test_poly_ring_dot_packs_only_dense_products(monkeypatch):
    # terms at 0 and 1000 would need about 2,000 slots for 4 term pairs per
    # product; the dense operands have 25 term pairs over 9 slots each
    calls = []

    def spy(pairs):
        calls.append(len(pairs))
        return packed_dot(pairs)

    monkeypatch.setattr(rings, "packed_dot", spy)
    for ring in _DOT_POLY_RINGS:
        sparse = [Poly({0: 1, 1000: k}) for k in range(1, 4)]
        assert ring.dot(sparse, sparse[::-1]) == RingDescriptor.dot(ring, sparse, sparse[::-1])
        assert calls == []
        dense = [Poly({e: k + e for e in range(5)}) for k in range(1, 4)]
        assert ring.dot(dense, dense[::-1]) == RingDescriptor.dot(ring, dense, dense[::-1])
        assert calls == [3] + [1] * 3  # one packed dot, then the reference's products
        calls.clear()


# ---------------------------------------------------------------------------
# the integer form that each Poly keeps, against fresh copies


def _fresh(x):
    """A copy of a Poly or RatFunc that shares no integer form with x."""
    if isinstance(x, RatFunc):
        return RatFunc._new(_fresh(x.num), _fresh(x.den))
    return Poly(dict(x.coeffs), var=x.var)


class _FreshDot:
    """The ring, except that every dot is the default sum of products over
    fresh copies, so no operand brings an integer form from an earlier degree."""

    def __init__(self, ring):
        self.ring = ring

    def __getattr__(self, name):
        return getattr(self.ring, name)

    def dot(self, xs, ys):
        return RingDescriptor.dot(self.ring, [_fresh(x) for x in xs], [_fresh(y) for y in ys])


_FORM_RINGS = [PolyRing(integral=True), PolyRing(), PolyRing(frobenius=False),
               RationalFunctionRing()]


def _pack_widths(monkeypatch):
    """The list that records the slot width, in bytes, of every later
    ``rings._pack`` call."""
    widths, pack = [], rings._pack

    def spy(dense, width):
        widths.append(width)
        return pack(dense, width)

    monkeypatch.setattr(rings, "_pack", spy)
    return widths


@pytest.mark.parametrize("ring", _FORM_RINGS, ids=[r.name for r in _FORM_RINGS])
def test_newton_kernel_matches_the_default_dot_on_fresh_copies(monkeypatch, ring):
    # every degree of the kernel reuses the operands of the degree before,
    # each with the integer form it kept, packed at slot widths that grow
    # with the degree
    rng = random.Random(26)
    widths = _pack_widths(monkeypatch)

    def poly():
        if ring.name == "polyZ":
            return Poly({e: rng.randint(-9, 9) for e in range(4)})
        return Poly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for e in range(4)})

    if ring.name == "ratfunc":
        xs = [RatFunc(poly(), Poly({0: 1, 1: rng.randint(1, 5)})) for _ in range(4)]
    else:
        xs = [poly() for _ in range(10)]
    n = len(xs)
    ps = power_sums(ring, xs, n)
    assert ps == power_sums(_FreshDot(ring), [_fresh(x) for x in xs], n)
    back = from_power_sums(ring, ps, n)
    assert back == from_power_sums(_FreshDot(ring), [_fresh(p) for p in ps], n)
    assert back == xs
    assert widths  # some operands were packed


# ---------------------------------------------------------------------------
# the slot codec, and the Newton series over integral polynomials run on
# their values at w = 2^(64k), against the per-degree kernel

_WORD_EDGES = [-2**63, 2**63 - 1, 0, 1, -1]


@pytest.mark.parametrize("width,slots", [(8, _WORD_EDGES), (9, _WORD_EDGES + [2**70, -2**70]),
                                         (16, _WORD_EDGES + [2**70, -2**127])])
def test_slot_codec_round_trips(width, slots):
    value = rings._pack(slots, width)
    assert value == sum(c << 8 * width * i for i, c in enumerate(slots))
    assert rings._unpack(value, len(slots), width) == slots
    assert rings._unpack(value << 8 * width, len(slots) + 1, width) == [0] + slots
    assert rings._pack([], width) == 0 and rings._unpack(0, 0, width) == []
    half, n = 1 << 8 * width - 1, len(slots)
    largest, smallest = rings._pack([half - 1] * n, width), rings._pack([-half] * n, width)
    assert rings._unpack(largest, n, width) == [half - 1] * n
    assert rings._unpack(smallest, n, width) == [-half] * n
    for outside in (largest + 1, smallest - 1):
        with pytest.raises(OverflowError):
            rings._unpack(outside, n, width)


def _check_series(ring, xs):
    """power_sums and from_power_sums over xs and over its power sums give
    what the per-degree kernel gives, a MathCheckError included."""
    n = len(xs)
    per_degree = _FreshDot(ring)  # not a PolyRing, so no series path
    ps = power_sums(ring, xs, n)
    assert ps == power_sums(per_degree, [_fresh(x) for x in xs], n)
    for given in (ps, xs):
        try:
            expected = from_power_sums(per_degree, [_fresh(x) for x in given], n, "forward")
        except MathCheckError as exc:
            with pytest.raises(MathCheckError) as got:
                from_power_sums(ring, given, n, "forward")
            assert (str(got.value), got.value.detail) == (str(exc), exc.detail)
        else:
            assert from_power_sums(ring, given, n, "forward") == expected


_SERIES_RINGS = [PolyRing(integral=True), PolyRing(), PolyRing(frobenius=False)]
_series_coeffs = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70),
                           st.sampled_from([0, -2**63, 2**63 - 1, 2**63, -2**63 - 1]))


@st.composite
def _series_poly(draw, ring):
    low = draw(st.sampled_from([0, 0, 1, 4]))
    coeffs = draw(st.lists(_series_coeffs, max_size=6))
    return ring.adams(draw(st.sampled_from([1, 1, 2, 3])),
                      Poly({low + e: c for e, c in enumerate(coeffs)}))


@pytest.mark.parametrize("ring", _SERIES_RINGS, ids=[r.name for r in _SERIES_RINGS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_word_series_matches_the_per_degree_kernel(ring, data):
    _check_series(ring, data.draw(st.lists(_series_poly(ring), min_size=1, max_size=6)))


def _series_cases(ring):
    dense = [Poly({e: (-1) ** e * (e + n) for e in range(4)}) for n in range(1, 6)]
    return {
        "zero": dense[:2] + [Poly({})] + dense[2:],
        "lowest exponent 3": [Poly({3 + e: c for e, c in x.coeffs.items()}) for x in dense],
        "frobenius": [ring.adams(r, x) for r, x in zip([1, 2, 1, 3, 2], dense)],
        "one word": [Poly({e: 2**6 - e for e in range(4)}) for _ in range(5)],
        "multiword": [Poly({e: 2**63 - e for e in range(4)}) for _ in range(5)],
    }


@pytest.mark.parametrize("ring", _SERIES_RINGS, ids=[r.name for r in _SERIES_RINGS])
def test_word_series_takes_the_pinned_cases(monkeypatch, ring):
    widths = _pack_widths(monkeypatch)
    for case, xs in _series_cases(ring).items():
        widths.clear()
        assert rings._word_series(ring, xs, len(xs), False) is not None, case
        assert set(widths) == {8} if case != "multiword" else min(widths) > 8, case
        _check_series(ring, xs)


def test_word_series_refuses_what_the_per_degree_kernel_refuses():
    # P_1 = 2 + 2w + 2w^2 and P_2 = w: 2 x_2 = P_1^2 + P_2 has odd terms
    ring = PolyRing(integral=True)
    ps = [Poly({0: 2, 1: 2, 2: 2}), Poly({1: 1})]
    assert len(rings._word_series(ring, ps, 2, True)) == 1
    _check_series(ring, ps)
    # 3 x_3 = 1 - w: _word_series unpacks S_3 at w = 2^(8 * width), and
    # exact_div_by_int refuses it, as 3 does not divide 1 - w
    x1, x2 = Poly({0: 1, 1: 2, 2: 1}), Poly({0: 3, 1: -1, 2: 1, 3: 2})
    p1, p2 = power_sums(ring, [x1, x2], 2)
    ps = [p1, p2, Poly({0: 1, 1: -1}) - (p1 * x2 + p2 * x1)]
    assert rings._word_series(ring, ps, 3, True) == [x1, x2]
    with pytest.raises(MathCheckError) as got:
        from_power_sums(ring, ps, 3, "forward")
    assert got.value.detail == {"degree": 3, "direction": "forward"}
    _check_series(ring, ps)
    # over Q the series hands the failing degree to the per-degree kernel
    assert from_power_sums(PolyRing(), ps, 3)[2] == Poly({0: Fraction(1, 3), 1: Fraction(-1, 3)})


_IN_PLACE_HELPERS = {"add_terms", "_ints"}
_DICT_WRITES = {"update", "pop", "popitem", "clear", "setdefault"}


def _coeffs_writes(source):
    """(function, line) for every write to a ``coeffs`` attribute or its dict
    outside ``__init__`` and ``_new``: an assignment, augmented assignment or
    ``del`` of ``x.coeffs`` or ``x.coeffs[k]``, a mutating dict method of
    ``x.coeffs``, or ``x.coeffs`` as the first argument of an in-place
    helper.  A Poly's kept integer form is sound only without them."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def is_coeffs(node):
        return isinstance(node, ast.Attribute) and node.attr == "coeffs"

    def written(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(written(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return written(target.value)
        return is_coeffs(target) or isinstance(target, ast.Subscript) and is_coeffs(target.value)

    def function(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name
        return "<module>"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            hit = any(written(t) for t in node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            hit = written(node.target)
        elif isinstance(node, ast.Call):
            f = node.func
            hit = (isinstance(f, ast.Attribute) and f.attr in _DICT_WRITES and is_coeffs(f.value)
                   or isinstance(f, ast.Name) and f.id in _IN_PLACE_HELPERS
                   and bool(node.args) and is_coeffs(node.args[0]))
        else:
            continue
        if hit and function(node) not in ("__init__", "_new"):
            found.append((function(node), node.lineno))
    return sorted(found, key=lambda f: f[1])


def test_no_code_writes_a_coeffs_dict_after_construction():
    package = pathlib.Path(rings.__file__).parent
    found = {path.name: _coeffs_writes(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: writes for name, writes in found.items() if writes} == {}


def test_the_scan_sees_every_coeffs_write():
    source = ("class P:\n"
              "    def __init__(self, c):\n"
              "        self.coeffs = c\n"
              "        self.coeffs[0] = 1\n"
              "    def _new(self, c):\n"
              "        r = P(c); r.coeffs = _ints(c); return r\n"
              "    def scale(self, k, other):\n"
              "        self.coeffs = {}\n"
              "        self.coeffs[1] += k\n"
              "        del self.coeffs[2]\n"
              "        other.coeffs.update({3: k})\n"
              "        add_terms(self.coeffs, [(4, k)])\n"
              "        _ints(other.coeffs, self.coeffs)\n"
              "        return dict(self.coeffs), add_terms({}, self.coeffs.items())\n"
              "p.coeffs, q = {}, 1\n")
    assert _coeffs_writes(source) == [("scale", 8), ("scale", 9), ("scale", 10),
                                      ("scale", 11), ("scale", 12), ("scale", 13),
                                      ("<module>", 15)]


# ---------------------------------------------------------------------------
# light property-based coverage


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-30, max_value=30),
       st.integers(min_value=1, max_value=5))
def test_poly_ring_adams_multiplicativity(a, b, r):
    ring = PolyRing()
    w = ring.variable()
    x = ring.add(w, ring.from_int(a))
    y = ring.add(ring.mul(w, w), ring.from_int(b))
    assert ring.adams(r, ring.mul(x, y)) == ring.mul(ring.adams(r, x), ring.adams(r, y))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3), min_size=1, max_size=8))
def test_witt_from_ghost_round_trip(ghosts):
    x = WittElement.from_ghost(ghosts)
    assert x.ghost() == list(ghosts)


# ---------------------------------------------------------------------------
# the sparse-term kernel behind Poly and MPoly, against evaluation

_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_POLY_TERMS = st.dictionaries(st.integers(0, 6), _RATIONALS, max_size=6)
_MONOMIALS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
_MPOLY_TERMS = st.dictionaries(_MONOMIALS, _RATIONALS, max_size=6)


def _mpoly_at(p, point):
    total = Fraction(0)
    for mono, c in p.coeffs.items():
        for x, e in zip(point, mono):
            c *= x**e
        total += c
    return total


@settings(max_examples=80, deadline=None)
@given(_POLY_TERMS, _POLY_TERMS, _RATIONALS)
def test_poly_sums_and_products_agree_with_evaluation(a, b, x):
    p, q = Poly(a), Poly(b)
    for r, value in ((p + q, p.evaluate(x) + q.evaluate(x)),
                     (p - q, p.evaluate(x) - q.evaluate(x)),
                     (p * q, p.evaluate(x) * q.evaluate(x))):
        assert r.evaluate(x) == value
        assert all(r.coeffs.values())
    assert (p - p).is_zero()


@settings(max_examples=80, deadline=None)
@given(_MPOLY_TERMS, _MPOLY_TERMS, st.tuples(_RATIONALS, _RATIONALS, _RATIONALS))
def test_mpoly_sums_and_products_agree_with_evaluation(a, b, point):
    p, q = MPoly(3, a), MPoly(3, b)
    for r, value in ((p + q, _mpoly_at(p, point) + _mpoly_at(q, point)),
                     (p - q, _mpoly_at(p, point) - _mpoly_at(q, point)),
                     (p * q, _mpoly_at(p, point) * _mpoly_at(q, point))):
        assert _mpoly_at(r, point) == value
        assert all(r.coeffs.values())
    assert (p - p).is_zero()


# ---------------------------------------------------------------------------
# the packed (Kronecker) Poly product against the schoolbook product

_WIDE = st.integers(-2**80, 2**80)
_MUL_COEFFS = st.one_of(
    st.integers(-2, 2),
    _WIDE,
    st.builds(Fraction, _WIDE, st.integers(1, 60)),
)
# dense runs (zero coefficients leave gaps) and a few terms spread wide
_MUL_TERMS = st.one_of(
    st.builds(lambda low, cs: dict(zip(range(low, low + len(cs)), cs)),
              st.integers(0, 5), st.lists(_MUL_COEFFS, max_size=40)),
    st.dictionaries(st.integers(0, 300), _MUL_COEFFS, max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(_MUL_TERMS, _MUL_TERMS)
@example({0: 1, 1: 1}, {0: 1, 1: -1})                 # the w term cancels
@example({0: 1, 1: 1, 2: 1}, {0: -1, 1: 1})           # all but two cancel
@example({0: -1, 1: -2, 2: -1}, {0: 1, 1: 1})         # negative packed product
@example({0: -2**70, 3: 1}, {0: 2**70, 1: -2**70})    # slots wider than 8 bytes
@example({7: Fraction(-1, 3)}, {0: Fraction(1, 2), 1: Fraction(2, 5), 4: 3})
def test_poly_product_matches_the_schoolbook_product(a, b):
    p, q = Poly(a), Poly(b)
    expected = sparse_mul(p.coeffs, q.coeffs, operator.add)
    product = (p * q).coeffs
    assert product == expected
    assert all(product.values())
    if p.coeffs and q.coeffs:
        packed = packed_dot([(p, q)])
        assert packed == expected
        assert all(packed.values())
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for c in packed.values())


@settings(max_examples=80, deadline=None)
@given(st.integers(-5, 5), _POLY_TERMS, st.dictionaries(st.integers(0, 6), st.integers(-9, 9),
                                                        max_size=6))
def test_poly_scalar_mul_int_matches_the_product(n, rational, integral):
    for ring, terms in ((PolyRing(), rational), (PolyRing(integral=True), integral)):
        x = Poly(terms)
        scaled = ring.scalar_mul_int(n, x)
        assert scaled == ring.mul(ring.from_int(n), x)
        assert all(scaled.coeffs.values())
        if ring.integral:
            assert scaled.is_integral()


def test_add_terms_stores_a_new_coefficient_as_given():
    c = Fraction(2, 3)
    out = add_terms({}, [("x", c), ("y", 0), ("z", 1), ("z", -1)])
    assert out == {"x": c} and out["x"] is c


def test_wide_sparse_product_takes_the_schoolbook_path():
    # packing the square would need 4 * 10**6 + 1 slots; the schoolbook
    # product is nine term pairs
    p = Poly({0: 1, 10**6: 1, 2 * 10**6: 1})
    start = time.perf_counter()
    square = p * p
    assert time.perf_counter() - start < 0.25
    assert square.coeffs == sparse_mul(p.coeffs, p.coeffs, operator.add)


def test_poly_ring_sum_matches_repeated_addition():
    ring = PolyRing(var="q")
    parts = [Poly({0: 1, 2: Fraction(1, 2)}, var="q"), Poly({2: Fraction(-1, 2)}, var="q"),
             Poly({}, var="q"), Poly({5: 3, 0: -1}, var="q")]
    total = ring.sum(parts)
    assert total == parts[0] + parts[1] + parts[2] + parts[3]
    assert total.coeffs == {5: 3} and total.var == "q"
    assert ring.sum(parts[:1]).coeffs == parts[0].coeffs
    assert ring.sum([]) == ring.zero()
    assert parts[0].coeffs == {0: 1, 2: Fraction(1, 2)}


# ---------------------------------------------------------------------------
# the coefficient invariant: an int when integral, a Fraction otherwise

_SMALL = st.one_of(st.integers(-9, 9),
                   st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
_INVARIANT_TERMS = st.one_of(
    st.dictionaries(st.integers(0, 8), _SMALL, max_size=6),
    st.builds(lambda cs: dict(enumerate(cs)), st.lists(_SMALL, max_size=12)),
)


def _fractions(p):
    return {e: Fraction(c) for e, c in p.coeffs.items()}


def _plus(a, b):
    return add_terms(dict(a), b.items())


def _canonical(p):
    """Assert that p keeps the invariant and hand p back."""
    for c in p.coeffs.values():
        assert type(c) is (int if c.denominator == 1 else Fraction), p.coeffs
    return p


@settings(max_examples=150, deadline=None)
@given(_INVARIANT_TERMS, _INVARIANT_TERMS, _SMALL, st.integers(1, 3), st.integers(1, 6))
@example({2: 10**400, 1: 2**60 + 1, 0: 1}, {1: 3, 0: 1}, 2, 1, 2)  # int / int overflows a float
@example({0: Fraction(1, 2), 1: 1}, {0: Fraction(1, 2), 1: 1}, Fraction(2), 2, 3)
@example({0: 4, 1: 3, 2: Fraction(1, 2)}, {0: 1}, 1, 1, -2)  # a negative divisor
def test_poly_coefficients_are_ints_exactly_when_integral(a, b, c, r, d):
    p, q = _canonical(Poly(a)), _canonical(Poly(b))
    fp, fq = _fractions(p), _fractions(q)
    assert _canonical(p + q).coeffs == _plus(fp, fq)
    assert _canonical(p - q).coeffs == _plus(fp, {e: -v for e, v in fq.items()})
    assert _canonical(p * q).coeffs == sparse_mul(fp, fq, operator.add)
    if p.coeffs and q.coeffs:
        assert _canonical(p._new(packed_dot([(p, q)]))).coeffs == \
            sparse_mul(fp, fq, operator.add)
    assert _canonical(p.scale(c)).coeffs == sparse_mul(fp, {0: Fraction(c)}, operator.add)
    assert _canonical(p.substitute_power(r)).coeffs == {e * r: v for e, v in fp.items()}
    if not q.is_zero():
        quo, rem = poly_divmod(p, q)
        _canonical(quo), _canonical(rem)
        assert rem.degree() < q.degree()
        assert _plus(sparse_mul(_fractions(quo), fq, operator.add), _fractions(rem)) == fp
        f = RatFunc(p, q)
        _canonical(f.num), _canonical(f.den)
        assert _lead(f.den) == 1
        assert sparse_mul(_fractions(f.num), fq, operator.add) == \
            sparse_mul(fp, _fractions(f.den), operator.add)
    quotient = PolyRing().exact_div_by_int(p, d)
    assert _canonical(quotient).coeffs == {e: v / d for e, v in fp.items()}
    integral = Poly({e: v.numerator for e, v in fp.items()})
    quotient = PolyRing(integral=True).exact_div_by_int(integral, d)
    if any(v % d for v in integral.coeffs.values()):
        assert quotient is None
    else:
        assert _canonical(quotient).coeffs == {e: Fraction(v, d)
                                                for e, v in integral.coeffs.items()}


# ---------------------------------------------------------------------------
# the integer pseudo-remainder kernel against Fraction long division and
# Euclid over Q, the reference it replaced


def _lead(p):
    """The leading coefficient of p, 0 for the zero polynomial."""
    return p.coeffs[p.degree()] if p.coeffs else 0


def _reference_divmod(a, b):
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = Poly({}, var=a.var)
    r = a
    db, lb = b.degree(), _lead(b)
    while not r.is_zero() and r.degree() >= db:
        shift = r.degree() - db
        coeff = Fraction(_lead(r), lb)
        term = Poly({shift: coeff}, var=a.var)
        q = q + term
        r = r - term * b
    return q, r


def _reference_gcd(a, b):
    while not b.is_zero():
        a, b = b, _reference_divmod(a, b)[1]
    if a.is_zero():
        return a
    return a.scale(Fraction(1) / _lead(a))


def _reference_normal_form(num, den):
    g = _reference_gcd(num, den)
    if not g.is_zero() and g.degree() >= 0 and not (g.degree() == 0 and _lead(g) == 1):
        num = _reference_divmod(num, g)[0]
        den = _reference_divmod(den, g)[0]
    lead = _lead(den)
    if lead != 1:
        num = num.scale(Fraction(1) / lead)
        den = den.scale(Fraction(1) / lead)
    return num, den


_WIDE = st.one_of(st.integers(-2**80, 2**80),
                  st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 60)))
_WIDE_POLY = st.dictionaries(st.integers(0, 5), _WIDE, max_size=6).map(Poly)
_WIDE_NONZERO = _WIDE_POLY.filter(lambda p: not p.is_zero())


@settings(max_examples=120, deadline=None)
@given(_WIDE_POLY, _WIDE_NONZERO, _WIDE_NONZERO)
@example(Poly({3: -2**80, 1: Fraction(7, 60), 0: 5}), Poly({2: -3, 0: Fraction(1, 59)}),
         Poly({1: -1, 0: 2}))                                       # negative leading terms
@example(Poly({4: Fraction(2**80, 7), 0: -1}), Poly({0: Fraction(-7, 60)}),
         Poly({0: 3}))                                              # a constant divisor
@example(Poly({}), Poly({2: 5, 1: Fraction(1, 3)}), Poly({1: 1, 0: 1}))  # a zero numerator
@example(Poly({2: Fraction(3, 8), 0: -2**79}), Poly({2: Fraction(3, 8), 0: -2**79}),
         Poly({1: 2}))                                              # equal operands
@example(Poly({2: 1, 0: -1}), Poly({1: 1, 0: -1}),
         Poly({3: Fraction(-2**80, 59), 1: 6, 0: Fraction(1, 60)}))   # a wide planted factor
def test_division_kernel_matches_the_fraction_reference(p, q, c):
    for num, den in ((p, q), (p * c, q * c), (q, p) if not p.is_zero() else (q, q)):
        quo, rem = poly_divmod(num, den)
        ref_quo, ref_rem = _reference_divmod(num, den)
        assert (_canonical(quo).coeffs, _canonical(rem).coeffs) == (ref_quo.coeffs, ref_rem.coeffs)
        g = _int_gcd(_dense_ints(num)[1], _dense_ints(den)[1])
        assert _canonical(_dense_over(num, g, g[-1])).coeffs == _reference_gcd(num, den).coeffs
        f = RatFunc(num, den)
        assert (_canonical(f.num).coeffs, _canonical(f.den).coeffs) == \
            tuple(x.coeffs for x in _reference_normal_form(num, den))
        assert _lead(f.den) == 1
        assert _reference_gcd(f.num, f.den).coeffs == {0: 1}
        assert math.gcd(*_int_gcd(_dense_ints(num)[1], _dense_ints(den)[1])) == 1
    assert RatFunc(p * c, q * c) == RatFunc(p, q)


def test_exact_quotient_by_the_gcd_needs_no_scaling():
    # g is primitive over Z, so by Gauss's lemma the quotients of num and
    # den by g are integral and no pseudo-division step scales
    g = [3, -2, 5]
    num, den = [0, 6, -4, 10], [-3, 2, -5, 3, -2, 5]
    assert _int_gcd(num, den) in (g, [-x for x in g])
    assert _pseudo_divmod(num, g) == (1, [0, 2], [])
    assert _pseudo_divmod(den, g) == (1, [-1, 0, 0, 1], [])
    # 2w + 1 divides no leading term of w^3 + 1: 8 (w^3 + 1) = (4w^2 - 2w + 1)(2w + 1) + 7
    assert _pseudo_divmod([1, 0, 0, 1], [1, 2]) == (8, [1, -2, 4], [7])


def test_ratfunc_ring_divides_the_numerator_once():
    ring = RationalFunctionRing()
    w = Poly.variable()
    x = RatFunc(w.scale(6) + Poly.const(Fraction(1, 2)), w + Poly.const(3))
    third = ring.exact_div_by_int(x, 3)
    assert third.num.coeffs == {1: 2, 0: Fraction(1, 6)} and third.den == x.den
    _canonical(third.num)
    assert ring.exact_div_by_int(x, -2).num.coeffs == {1: -3, 0: Fraction(-1, 4)}


# ---------------------------------------------------------------------------
# RatFunc sums and products by Henrici's formulas, against the normal form
# of the full numerator and denominator taken from scratch

_RF_PART = st.dictionaries(st.integers(0, 3), _SMALL, max_size=4).map(Poly)
_RF_NONZERO = _RF_PART.filter(lambda p: not p.is_zero())


def _from_scratch(num, den):
    f = RatFunc(num, den)
    _canonical(f.num), _canonical(f.den)
    assert _lead(f.den) == 1
    return f


@settings(max_examples=150, deadline=None)
@given(_RF_PART, _RF_NONZERO, _RF_PART, _RF_NONZERO, _RF_NONZERO, st.integers(1, 3))
@example(Poly({1: 1}), Poly({0: 1}), Poly({1: -1}), Poly({0: 1}), Poly({0: 1}), 1)  # w + (-w)
@example(Poly({0: 1}), Poly({1: 1, 0: -1}), Poly({0: 2}), Poly({1: 1, 0: 1}),
         Poly({1: 1, 0: -1}), 2)                   # (w - 1)^2 against (w + 1)(w - 1)
@example(Poly({0: 1}), Poly({1: 1, 0: -1}), Poly({0: 1}), Poly({1: 1, 0: 1}),
         Poly({1: 1}), 1)                          # t = 2w shares w with g = gcd(b, d)
@example(Poly({1: Fraction(3, 4)}), Poly({2: Fraction(-2, 3), 0: 1}), Poly({0: Fraction(1, 5)}),
         Poly({1: Fraction(5, 7)}), Poly({1: Fraction(-1, 2), 0: 3}), 3)  # non-monic Fractions
@example(Poly({1: 1, 0: 1}), Poly({0: 1}), Poly({1: 1, 0: -1}), Poly({0: 1}),
         Poly({1: 1, 0: 1}), 2)                    # a numerator shares the other's denominator
def test_ratfunc_arithmetic_matches_the_normal_form_from_scratch(a, b, c, d, f, r):
    x, y = RatFunc(a, b * f), RatFunc(c, d * f)  # denominators sharing a factor f
    constant = RatFunc(c, Poly({0: Fraction(-3, 7)}))
    cases = [(x, y), (x, x), (x, -x), (y, x), (x, constant), (constant, y),
             (x.substitute_power(r), y.substitute_power(r)),  # psi_r images
             (x.substitute_power(r), y), (RatFunc.from_poly(a), y)]
    for p, q in cases:
        assert p + q == _from_scratch(p.num * q.den + q.num * p.den, p.den * q.den)
        assert p - q == _from_scratch(p.num * q.den - q.num * p.den, p.den * q.den)
        assert p * q == _from_scratch(p.num * q.num, p.den * q.den)
        for z in (p + q, p - q, p * q):
            _canonical(z.num), _canonical(z.den)
        assert p.substitute_power(r) == _from_scratch(p.num.substitute_power(r),
                                                      p.den.substitute_power(r))
    assert (x - x).is_zero() and (x - x).den.coeffs == {0: 1}


def _random_ratfuncs(count):
    """Rational functions from Random(2022) with degree-2 Fraction parts,
    each denominator drawn first and redrawn while zero."""
    rng = random.Random(2022)

    def part():
        return Poly({e: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for e in range(3)})

    values = []
    for _ in range(count):
        den = part()
        while den.is_zero():
            den = part()
        values.append(RatFunc(part(), den))
    return values


def test_ratfunc_zeta_of_six_random_values_round_trips_in_time():
    # the forward denominators reach degree 96; a full gcd of every sum
    # took over 8 s for the round trip, Henrici's formulas well under a second
    ring = RationalFunctionRing()
    us = _random_ratfuncs(6)
    start = time.perf_counter()
    xs = forward_zeta(ring, us)
    back = invert_zeta(ring, xs)
    assert time.perf_counter() - start < 5
    assert back == us
    # recorded with the full-gcd normal form of every sum and product
    text = json.dumps([x.to_json() for x in xs], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "aa4210c820672bd30ed89c9cdc2bc0ab0897e01fd697fd3ae0c7aeabd085b6f9"


# ---------------------------------------------------------------------------
# the sparse dot product: one term dict for a sum of products

@pytest.mark.parametrize("mode", ["trivial", "monomial"])
@pytest.mark.parametrize("seed", range(4))
def test_mpoly_ring_dot_and_sum_match_the_default(mode, seed):
    ring = MPolyRing(3, mode)
    rng = random.Random(seed)
    assert ring.dot([], []) == ring.zero() and ring.sum([]) == ring.zero()
    for length in (1, 2, 3, 6, 12):
        xs = [MPoly(3, _mixed_mpoly(rng)) for _ in range(length)]
        ys = [ring.adams(rng.randint(1, 2), MPoly(3, _mixed_mpoly(rng))) for _ in range(length)]
        assert _canonical_mpoly(ring.dot(xs, ys)) == RingDescriptor.dot(ring, xs, ys)
        assert _canonical_mpoly(ring.sum(xs)) == RingDescriptor.sum(ring, xs)
        cancelled = xs + [-x for x in xs]
        assert ring.sum(cancelled).is_zero() and ring.dot(cancelled, ys + ys).is_zero()


@pytest.mark.parametrize("seed", range(4))
def test_sparse_dot_is_the_sum_of_its_products(seed):
    rng = random.Random(seed)
    assert sparse_dot([], operator.add) == {}
    for length in (1, 2, 5):
        pairs = [(_mixed_mpoly(rng), _mixed_mpoly(rng)) for _ in range(length)]
        pairs += [({}, pairs[0][1]), (pairs[0][0], {})]  # empty operands
        a, b = pairs[0]
        pairs.append(({m: -c for m, c in a.items()}, b))  # cancels the first product
        expected = {}
        for a, b in pairs:
            add_terms(expected, sparse_mul(a, b, rings._mono_mul).items())
        assert sparse_dot(pairs, rings._mono_mul) == expected
        assert all(expected.values())


# ---------------------------------------------------------------------------
# rendering: Poly, MPoly and polysym elements print their terms alike

_XYZ = ["x", "y", "z"]


@pytest.mark.parametrize("make,text", [
    (lambda: str(Poly({3: -1, 2: Fraction(1, 2), 1: 1, 0: -7})), "-w^3 + 1/2*w^2 + w - 7"),
    (lambda: str(Poly({0: 5})), "5"),
    (lambda: str(Poly({})), "0"),
    (lambda: str(Poly({1: -1, 0: Fraction(-2, 3)})), "-w - 2/3"),
    (lambda: str(Poly({4: Fraction(-3, 4), 1: -1}, var="q")), "-3/4*q^4 - q"),
    (lambda: MPoly(3, {(2, 0, 1): -1, (1, 1, 0): Fraction(2, 3),
                     (0, 1, 0): 1, (0, 0, 0): -4}).to_string(_XYZ),
     "-x^2*z + 2/3*x*y + y - 4"),
    (lambda: MPoly(3, {(0, 0, 0): Fraction(1, 2)}).to_string(_XYZ), "1/2"),
    (lambda: MPoly(3).to_string(_XYZ), "0"),
    (lambda: MPoly(3, {(0, 0, 3): 1, (1, 0, 0): -1}).to_string(_XYZ), "z^3 - x"),
    (lambda: MPoly(2, {(1, 1): -2, (0, 2): 1}).to_string(MPolyRing(2).names), "-2*x_1*x_2 + x_2^2"),
    (lambda: PolysymElement("M", {parse_type("1^2,2"): -1, parse_type("2,2"): Fraction(3, 2),
                                  parse_type("1"): 1}).show(),
     "M(1) - M(2 1^2) + 3/2*M(2 2)"),
    (lambda: PolysymElement("H", {SplittingType([]): 3, parse_type("1,1"): -1}).show(),
     "3*H() - H(1 1)"),
    (lambda: PolysymElement("E").show(), "0"),
    (lambda: PolysymElement("Eplus", {parse_type("3"): Fraction(-5, 7),
                                      parse_type("1^3"): 1}).show(),
     "Eplus(1^3) - 5/7*Eplus(3)"),
    (lambda: PolysymElement("P", {SplittingType([]): -1}).show(), "-P()"),
])
def test_rendered_terms_are_pinned(make, text):
    assert make() == text
