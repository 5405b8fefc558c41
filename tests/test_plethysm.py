"""Tests for zeta-sequence inversion, plethysm evaluation, and strata.

The headline engine is checked against an independently coded double-sum
formula (a sum over divisors and partitions), against closed forms for
geometric sequences, and by roundtripping with the forward expansion over
every shipped ring.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysplit.arrangements import count_arrangements, incidence_table
from polysplit.plethysm import (
    MeasureSequence,
    binomial_strata,
    forward_zeta,
    generic_plethysm,
    invert_zeta,
    multinomial,
    powerfree,
    stratum_closed,
    symbolic_inverse,
    virtual_stratum,
)
from polysplit.polysym import (
    PolysymElement,
    complete_element,
    elementary_element,
    power_basis,
)
from polysplit.rings import (
    RING_TOKENS,
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
    WittElement,
    divisors,
    moebius,
    partitions,
    power_sums,
    ring_from_token,
    ser_inv,
    ser_mul,
)
from polysplit.types import SplittingType, enumerate_types

def _type(text):
    from polysplit.types import parse_type

    return parse_type(text)


def _frob_ring(integral=False):
    return PolyRing(var="w", integral=integral, frobenius=True)


def _combine(ring, pairs):
    """Rational linear combination via a common denominator (test-side)."""
    den = 1
    for c, _v in pairs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    total = ring.zero()
    for c, v in pairs:
        total = ring.add(total, ring.scalar_mul_int(int(c * den), v))
    out = ring.exact_div_by_int(total, den)
    assert out is not None
    return out


def double_sum_inverse(ring, xs, d):
    """Independent oracle: u_d as an explicit sum over divisors m of d and
    partitions of m, with multinomial coefficients written out directly."""
    pairs = []
    for m in divisors(d):
        mu = moebius(d // m)
        if not mu:
            continue
        ys = [ring.adams(d // m, x) for x in xs[:m]]
        for mult in partitions(m):
            ell = sum(mult)
            coeff = Fraction(mu * m * (-1) ** (ell - 1) * math.factorial(ell - 1), d)
            for n in mult:
                coeff /= math.factorial(n)
            mono = ring.one()
            for k, n in enumerate(mult, start=1):
                for _ in range(n):
                    mono = ring.mul(mono, ys[k - 1])
            pairs.append((coeff, mono))
    return _combine(ring, pairs)


# ---------------------------------------------------------------------------
# Newton polynomials


def _newton(m):
    """The m-th power sum written in the first m complete symmetric
    functions, as a polynomial in variables h_1 ... h_m."""
    ring = MPolyRing(m)
    return power_sums(ring, [ring.variable(i) for i in range(m)], m)[m - 1]


def _hmono(m, exps):
    return MPoly(m, {tuple(exps): Fraction(1)})


def test_newton_poly_small():
    assert _newton(1) == _hmono(1, (1,))
    p2 = _hmono(2, (0, 1)).scale(2) + _hmono(2, (2, 0)).scale(-1)
    assert _newton(2) == p2
    p3 = (
        _hmono(3, (0, 0, 1)).scale(3)
        + _hmono(3, (1, 1, 0)).scale(-3)
        + _hmono(3, (3, 0, 0))
    )
    assert _newton(3) == p3
    p4 = (
        _hmono(4, (0, 0, 0, 1)).scale(4)
        + _hmono(4, (1, 0, 1, 0)).scale(-4)
        + _hmono(4, (0, 2, 0, 0)).scale(-2)
        + _hmono(4, (2, 1, 0, 0)).scale(4)
        + _hmono(4, (4, 0, 0, 0)).scale(-1)
    )
    assert _newton(4) == p4


def test_newton_poly_partition_formula():
    # p_m = sum over partitions of m of m (-1)^(l-1) (l-1)! / prod n_k!  h^mult
    for m in range(1, 8):
        expected = MPoly(m, {})
        for mult in partitions(m):
            ell = sum(mult)
            coeff = Fraction(m * (-1) ** (ell - 1) * math.factorial(ell - 1))
            for n in mult:
                coeff /= math.factorial(n)
            expected = expected + _hmono(m, mult).scale(coeff)
        assert _newton(m) == expected


def _newton_poly_reference(m):
    """The Newton recurrence written out on MPoly operators."""
    powers = []
    h = [MPoly.variable(m, i) for i in range(m)]
    for k in range(1, m + 1):
        p = h[k - 1].scale(k)
        for i in range(1, k):
            p = p - h[i - 1] * powers[k - i - 1]
        powers.append(p)
    return powers[m - 1]


@pytest.mark.parametrize("m", range(1, 9))
def test_newton_poly_matches_the_mpoly_recurrence(m):
    assert _newton(m) == _newton_poly_reference(m)


# ---------------------------------------------------------------------------
# the inversion against the double-sum oracle


def test_double_sum_oracle_polynomial_frobenius():
    ring = _frob_ring()
    w = ring.variable()
    xs = [
        ring.add(w, ring.one()),
        ring.mul(w, w),
        ring.scalar_mul_int(2, w),
        ring.add(ring.mul(ring.mul(w, w), w), w),
        ring.from_int(3),
        ring.sub(ring.mul(w, w), ring.one()),
    ]
    us = invert_zeta(ring, xs)
    for d in range(1, 7):
        assert ring.eq(us[d - 1], double_sum_inverse(ring, xs, d))


def test_double_sum_oracle_rationals():
    ring = RationalRing()
    xs = [Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(5, 7), Fraction(1), Fraction(-1)]
    us = invert_zeta(ring, xs)
    for d in range(1, 7):
        assert us[d - 1] == double_sum_inverse(ring, xs, d)


def test_double_sum_oracle_symbolic_trivial():
    ring = MPolyRing(5, adams_mode="trivial")
    xs = [ring.variable(i) for i in range(5)]
    us = invert_zeta(ring, xs)
    for d in range(1, 6):
        assert ring.eq(us[d - 1], double_sum_inverse(ring, xs, d))


def test_double_sum_oracle_symbolic_monomial_adams():
    ring = MPolyRing(4, adams_mode="monomial")
    xs = [ring.variable(i) for i in range(4)]
    us = invert_zeta(ring, xs)
    for d in range(1, 5):
        assert ring.eq(us[d - 1], double_sum_inverse(ring, xs, d))


# ---------------------------------------------------------------------------
# closed forms for recognizable sequences


def test_geometric_frobenius_sequence_is_a_single_class():
    # x_d = psi_d(c) inverts to u_1 = c and u_d = 0 beyond
    ring = _frob_ring(integral=True)
    w = ring.variable()
    xs = [ring.adams(d, w) for d in range(1, 9)]
    us = invert_zeta(ring, xs)
    assert ring.eq(us[0], w)
    for u in us[1:]:
        assert ring.eq(u, ring.zero())


def test_constant_ones_invert_to_a_point():
    ring = IntegerRing()
    us = invert_zeta(ring, [1] * 8)
    assert us == [1] + [0] * 7


def test_necklace_counts_from_powers():
    # trivial Adams: x_d = c^d gives u_d = (1/d) sum mu(d/m) c^m
    ring = IntegerRing()
    for c in (2, 3):
        xs = [c**d for d in range(1, 9)]
        us = invert_zeta(ring, xs)
        for d in range(1, 9):
            expected = sum(moebius(d // m) * c**m for m in divisors(d)) // d
            assert us[d - 1] == expected


def test_unit_irreducibles_expand_to_partition_numbers():
    ring = IntegerRing()
    xs = forward_zeta(ring, [1] * 10)
    assert xs == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


# ---------------------------------------------------------------------------
# roundtrips over every shipped ring


def _sample_values(token, ring, n):
    if token == "Z":
        return [2, -1, 3, 0, 1, -2, 2, 1][:n]
    if token == "Q":
        return [Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(1, 5),
                Fraction(0), Fraction(7, 2), Fraction(-1), Fraction(2, 9)][:n]
    if token in ("polyZ", "polyQ"):
        w = ring.variable()
        vals = [
            w,
            ring.sub(ring.mul(w, w), w),
            ring.scalar_mul_int(2, w),
            ring.one(),
            ring.add(ring.mul(w, w), ring.from_int(3)),
            ring.neg(w),
            ring.from_int(2),
            ring.mul(ring.mul(w, w), w),
        ]
        return vals[:n]
    if token == "ratfunc":
        w = ring.variable()
        winv = w.inverse()
        vals = [w, winv, ring.add(w, ring.one()), ring.mul(w, w),
                ring.sub(winv, ring.one()), ring.one(), ring.neg(w), w]
        return vals[:n]
    if token == "pair":
        return [(1, 2), (0, -1), (3, 3), (-2, 1), (1, 0), (2, -2), (0, 0), (1, 1)][:n]
    if token == "witt":
        base = [WittElement.geometric(k, 8) for k in (2, 3, 5, 1, 2, 4, 3)]
        base.append(WittElement([1, 1, 0, 1, 0, 0, 1, 0, 1]))
        return base[:n]
    raise AssertionError("unknown token %s" % token)


def _assert_prefix_equal(ring, got, reference, full_order=None):
    for i, (g, e) in enumerate(zip(got, reference), start=1):
        if full_order is not None and isinstance(g, WittElement):
            assert g.order >= full_order // i
        assert ring.eq(g, e)


@pytest.mark.parametrize("token", RING_TOKENS)
def test_invert_then_forward_roundtrip(token):
    ring = ring_from_token(token, order=8)
    xs = _sample_values(token, ring, 8)
    us = invert_zeta(ring, xs)
    back = forward_zeta(ring, us)
    _assert_prefix_equal(ring, back, xs, full_order=8 if token == "witt" else None)


@pytest.mark.parametrize("token", RING_TOKENS)
def test_forward_then_invert_roundtrip(token):
    ring = ring_from_token(token, order=8)
    us = _sample_values(token, ring, 8)
    xs = forward_zeta(ring, us)
    back = invert_zeta(ring, xs)
    _assert_prefix_equal(ring, back, us, full_order=8 if token == "witt" else None)


def test_upto_prefix_and_bounds():
    ring = IntegerRing()
    xs = [1, 4, 9, 16, 25]
    full = invert_zeta(ring, xs)
    assert invert_zeta(ring, xs, upto=3) == full[:3]
    assert forward_zeta(ring, full, upto=2) == xs[:2]
    with pytest.raises(ValueError):
        invert_zeta(ring, xs, upto=6)
    with pytest.raises(ValueError):
        invert_zeta(ring, xs, upto=0)
    with pytest.raises(ValueError):
        forward_zeta(ring, [], upto=1)


def test_inversion_integrality_failure_is_flagged():
    # over Z[w] with trivial Adams (not a binomial ring) degree 2 divides
    # (x_1^2 + x_1) by 2, which fails at x_1 = w
    ring = PolyRing(var="w", integral=True, frobenius=False)
    w = ring.variable()
    with pytest.raises(MathCheckError) as info:
        invert_zeta(ring, [w, ring.zero()])
    assert info.value.detail["degree"] == 2
    with pytest.raises(MathCheckError):
        forward_zeta(ring, [w, ring.zero()])
    # U'_(1 1) = (x_1^2 - psi_2(x_1)) / 2 = (w^2 - w) / 2
    with pytest.raises(MathCheckError) as info:
        virtual_stratum(ring, [w, ring.zero()], _type("1 1"))
    assert info.value.detail == {"type": "(1 1)", "op": "virtual_stratum"}


def test_forward_division_failure_names_degree_then_direction():
    # from_power_sums divides 2 * x_2 = P_1 x_1 + P_2 = w^2 + w by 2
    ring = PolyRing(integral=True, frobenius=False)
    with pytest.raises(MathCheckError) as info:
        forward_zeta(ring, [ring.variable(), ring.zero()])
    assert str(info.value) == "exact division by 2 failed"
    assert list(info.value.detail.items()) == [("degree", 2), ("direction", "forward")]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=1, max_size=6))
def test_roundtrip_random_rationals(values):
    ring = RationalRing()
    xs = list(values)
    assert forward_zeta(ring, invert_zeta(ring, xs)) == xs
    assert invert_zeta(ring, forward_zeta(ring, xs)) == xs


def _seeded_ratfunc_values():
    rng = random.Random(2022)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    return [RatFunc(Poly({0: frac(), 1: rng.randint(-9, 9)}),
                    Poly({0: 1, 1: rng.randint(1, 5)}))
            for _ in range(6)]


def _sha256(values):
    text = json.dumps([v.to_json() for v in values], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_ratfunc_zeta_is_pinned():
    # recorded from the Fraction long division that RatFunc normalised with
    # before the integer kernel
    ring = RationalFunctionRing()
    us = _seeded_ratfunc_values()
    xs = forward_zeta(ring, us)
    assert _sha256(xs) == "4663ce07d100bb013e8b2aa97c60dd94df5f16c515baaef68a0a62ab4c80fe5c"
    assert _sha256(invert_zeta(ring, us)) == \
        "ac5df1009f84ef384c17ece67d6fc7d3f3a29646b2df5b8fae1501050c9ae38e"
    assert invert_zeta(ring, xs) == us


def test_pair_zeta_is_pinned():
    # recorded from the PairRing that dispatched to two IntegerRing halves
    ring = PairRing()
    rng = random.Random(2022)
    us = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(40)]

    def digest(values):
        text = json.dumps([ring.to_json(v) for v in values])
        return hashlib.sha256(text.encode()).hexdigest()

    xs = forward_zeta(ring, us)
    assert digest(xs) == "c79737974c183e92214170b332ddc88683ad8bf27bdcd6f7b1f38b6ede070390"
    assert digest(invert_zeta(ring, us)) == \
        "b888a1b015a9c932ec0e0422ae373c8afa2683810280c88cfdc68d627077a3f9"
    assert invert_zeta(ring, xs) == us


# ---------------------------------------------------------------------------
# symbolic inversion with trivial Adams operations


def test_symbolic_inverse_degree_two():
    ring, us = symbolic_inverse(2)
    x1, x2 = ring.variable(0), ring.variable(1)
    half = Fraction(1, 2)
    expected = x2 + (x1 * x1).scale(-half) + x1.scale(-half)
    assert ring.eq(us[0], x1)
    assert ring.eq(us[1], expected)


def test_symbolic_inverse_degree_three():
    ring, us = symbolic_inverse(3)
    x1, x2, x3 = (ring.variable(i) for i in range(3))
    third = Fraction(1, 3)
    expected = (
        x3
        + (x2 * x1).scale(-1)
        + (x1 * x1 * x1).scale(third)
        + x1.scale(-third)
    )
    assert ring.eq(us[2], expected)


def test_symbolic_inverse_rejects_zero():
    with pytest.raises(ValueError):
        symbolic_inverse(0)


# ---------------------------------------------------------------------------
# strata through the arrangement tables


def test_stratum_closed_examples():
    ring = _frob_ring()
    w = ring.variable()
    x1 = ring.add(w, ring.from_int(2))
    xs = [x1, ring.mul(w, w), ring.from_int(1), w]
    assert ring.eq(stratum_closed(ring, xs, _type("1 1")), ring.mul(x1, x1))
    assert ring.eq(stratum_closed(ring, xs, _type("1^2")), ring.adams(2, x1))
    mixed = stratum_closed(ring, xs, _type("2 1^3"))
    assert ring.eq(mixed, ring.mul(ring.mul(w, w), ring.adams(3, x1)))


def test_virtual_stratum_needs_enough_values():
    ring = IntegerRing()
    with pytest.raises(ValueError):
        stratum_closed(ring, [1], _type("2"))


def test_top_virtual_stratum_matches_inversion():
    # the inverse-table combination at the full-degree type recovers u_d
    ring = _frob_ring()
    w = ring.variable()
    xs = [ring.add(ring.adams(d, w), ring.from_int(d)) for d in range(1, 7)]
    us = invert_zeta(ring, xs)
    for d in range(1, 7):
        lam = _type("(%d)" % d)
        assert ring.eq(virtual_stratum(ring, xs, lam), us[d - 1])


def test_top_virtual_stratum_matches_inversion_over_z():
    ring = IntegerRing()
    xs = [3, 9, 27, 81, 243, 729]
    us = invert_zeta(ring, xs)
    for d in range(1, 7):
        assert virtual_stratum(ring, xs, _type("(%d)" % d)) == us[d - 1]


def test_virtual_strata_reconstruct_closed_strata():
    # sum over tau of a(tau, lam) * U'_tau is S_lam, since a * a_inv = I
    ring = MPolyRing(4, adams_mode="monomial")
    xs = [ring.variable(i) for i in range(4)]
    for d in range(1, 5):
        table = incidence_table(d, "a")
        for lam in enumerate_types(d):
            lhs = ring.sum(ring.scalar_mul_int(int(table.value(tau, lam)),
                                               virtual_stratum(ring, xs, tau))
                           for tau in table.types if table.value(tau, lam))
            assert ring.eq(lhs, stratum_closed(ring, xs, lam))


def test_virtual_strata_sum_to_the_whole_space():
    ring = IntegerRing()
    xs = [2, 5, 11, 23, 47]
    for d in range(1, 6):
        total = sum(virtual_stratum(ring, xs, lam) for lam in enumerate_types(d))
        assert total == xs[d - 1]


# ---------------------------------------------------------------------------
# generic plethysm


def test_generic_plethysm_on_h_basis():
    ring = _frob_ring()
    w = ring.variable()
    xs = [w, ring.add(w, ring.one()), ring.mul(w, w), ring.from_int(5)]
    for tau in enumerate_types(4):
        elt = complete_element(tau)
        assert ring.eq(generic_plethysm(ring, xs, elt), stratum_closed(ring, xs, tau))


def test_generic_plethysm_monomial_m2():
    # M_2 = -1/2 H_(1^2) - 1/2 H_(1 1) + H_(2)
    ring = _frob_ring()
    w = ring.variable()
    xs = [ring.add(w, ring.one()), ring.mul(w, w)]
    elt = PolysymElement.monomial("M", _type("2"))
    expected = _combine(
        ring,
        [
            (Fraction(-1, 2), ring.adams(2, xs[0])),
            (Fraction(-1, 2), ring.mul(xs[0], xs[0])),
            (Fraction(1), xs[1]),
        ],
    )
    assert ring.eq(generic_plethysm(ring, xs, elt), expected)


def test_generic_plethysm_is_linear():
    ring = RationalRing()
    xs = [Fraction(2), Fraction(3, 2), Fraction(-1)]
    a = PolysymElement.monomial("M", _type("2 1"))
    b = PolysymElement.monomial("M", _type("1^3"))
    combo = a.scale(Fraction(2, 3)) + b.scale(Fraction(-5))
    assert generic_plethysm(ring, xs, combo) == (
        Fraction(2, 3) * generic_plethysm(ring, xs, a)
        - 5 * generic_plethysm(ring, xs, b)
    )


def test_generic_plethysm_elementary_inverts_the_series():
    # sum_d value(E_d) t^d is the series inverse of 1 + sum_d x_d t^d
    ring = _frob_ring()
    w = ring.variable()
    xs = [ring.adams(d, ring.add(w, ring.one())) for d in range(1, 6)]
    e_values = [ring.one()] + [
        generic_plethysm(ring, xs, elementary_element(d)) for d in range(1, 6)
    ]
    assert e_values == ser_inv(ring, [ring.one()] + xs, 5)


def test_generic_plethysm_power_sums_give_ghost_components():
    # P_d evaluated on the x's equals sum over k | d of k psi_(d/k)(u_k)
    ring = _frob_ring()
    w = ring.variable()
    xs = [ring.add(ring.adams(d, w), ring.one()) for d in range(1, 7)]
    us = invert_zeta(ring, xs)
    for d in range(1, 7):
        value = generic_plethysm(ring, xs, power_basis(d))
        expected = ring.zero()
        for k in divisors(d):
            expected = ring.add(
                expected, ring.scalar_mul_int(k, ring.adams(d // k, us[k - 1]))
            )
        assert ring.eq(value, expected)


# ---------------------------------------------------------------------------
# multinomial classes and configuration spaces


def test_multinomial_numeric():
    ring = RationalRing()
    assert multinomial(ring, Fraction(5), (2, 1)) == 30
    assert multinomial(ring, Fraction(5), ()) == 1
    assert multinomial(ring, Fraction(1, 2), (2,)) == Fraction(-1, 8)
    with pytest.raises(ValueError):
        multinomial(ring, Fraction(1), (1, -1))


def test_multinomial_integrality_over_z():
    ring = IntegerRing()
    for x in range(-5, 9):
        for counts in [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1)]:
            value = multinomial(ring, x, counts)
            expected = Fraction(1)
            for j in range(sum(counts)):
                expected *= x - j
            for n in counts:
                expected /= math.factorial(n)
            assert value == expected
            assert isinstance(value, int)


def test_multinomial_failure_outside_binomial_rings():
    ring = _frob_ring(integral=True)
    with pytest.raises(MathCheckError):
        multinomial(ring, ring.variable(), (2,))


def _compositions(total, max_len):
    if total == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first, max_len - 1):
            yield (first,) + rest


def test_configuration_recurrence_symbolic():
    # [Conf_(w,m)] = [Conf_w][Conf_m]
    #               - sum over 0 <= u <= w with 1 <= |u| <= m
    #                 of [Conf_(w - u, m - |u|, u)]
    ring = MPolyRing(1, adams_mode="trivial")
    x = ring.variable(0)

    def conf(vec):
        return multinomial(ring, x, vec)

    for total in range(2, 6):
        for m in range(1, total):
            for wvec in _compositions(total - m, 3):
                lhs = conf(wvec + (m,))
                rhs = ring.mul(conf(wvec), conf((m,)))
                for uvec in itertools.product(*(range(wi + 1) for wi in wvec)):
                    size = sum(uvec)
                    if not 1 <= size <= m:
                        continue
                    child = tuple(wi - ui for wi, ui in zip(wvec, uvec))
                    child = child + (m - size,) + uvec
                    rhs = ring.sub(rhs, conf(child))
                assert ring.eq(lhs, rhs)


# ---------------------------------------------------------------------------
# binomial strata


def test_binomial_strata_match_virtual_strata_symbolically():
    ring = MPolyRing(4, adams_mode="trivial")
    xs = [ring.variable(i) for i in range(4)]
    us = invert_zeta(ring, xs)
    for d in range(1, 5):
        for tau in enumerate_types(d):
            lhs = binomial_strata(ring, us, tau)
            rhs = virtual_stratum(ring, xs, tau)
            assert ring.eq(lhs, rhs)


def test_binomial_strata_spot_value():
    ring = RationalRing()
    us = [Fraction(5), Fraction(3)]
    # two distinct simple parts of degree 1: binom(u_1, 2)
    assert binomial_strata(ring, us, _type("1 1")) == 10
    # one part of degree 1 and multiplicity 2: binom(u_1; 0, 1) = u_1
    assert binomial_strata(ring, us, _type("1^2")) == 5


# ---------------------------------------------------------------------------
# strata against polynomial arithmetic over F_p


def _mul_mod(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _monics(p, k):
    """Monic degree-k polynomials over F_p, as coefficient tuples from the
    constant term up."""
    return [low + (1,) for low in itertools.product(range(p), repeat=k)]


def _type_counts(p, d):
    """Number of monic degree-d polynomials over F_p of each splitting type.

    The monic irreducibles come from a sieve (every product of two monics of
    lower degree is reducible); the factorizations are the multisets of
    (irreducible, multiplicity), tallied by the type of their
    (degree, multiplicity) pairs."""
    irreducibles = []
    for k in range(1, d + 1):
        reducible = {_mul_mod(f, g, p) for i in range(1, k // 2 + 1)
                     for f in _monics(p, i) for g in _monics(p, k - i)}
        irreducibles += [k for f in _monics(p, k) if f not in reducible]
    counts = {}

    def extend(start, remaining, parts):
        if remaining == 0:
            tau = SplittingType(parts)
            counts[tau] = counts.get(tau, 0) + 1
            return
        for i in range(start, len(irreducibles)):
            b = irreducibles[i]
            for m in range(1, remaining // b + 1):
                extend(i + 1, remaining - b * m, parts + [(b, m)])

    extend(0, d, [])
    assert sum(counts.values()) == p ** d
    return counts


@pytest.mark.parametrize("p, d", [(2, 3), (3, 3), (5, 3), (3, 4), (2, 5), (2, 7)])
def test_open_strata_count_polynomials_over_f_p(p, d):
    ring = IntegerRing()
    xs = [p ** k for k in range(1, d + 1)]
    us = invert_zeta(ring, xs)
    counts = _type_counts(p, d)
    for tau in enumerate_types(d):
        assert virtual_stratum(ring, xs, tau) == counts.get(tau, 0), tau.label()
        assert binomial_strata(ring, us, tau) == counts.get(tau, 0), tau.label()


@pytest.mark.parametrize("p, d", [(2, 5), (3, 4)])
def test_closed_strata_count_polynomials_over_f_p(p, d):
    xs = [p ** k for k in range(1, d + 1)]
    counts = _type_counts(p, d)
    for lam in enumerate_types(d):
        expected = sum(count_arrangements(tau, lam) * n for tau, n in counts.items())
        assert stratum_closed(IntegerRing(), xs, lam) == expected, lam.label()


@pytest.mark.parametrize("p, d", [(2, 3), (3, 3), (2, 4)])
def test_weighted_strata_count_polynomials_over_f_p(p, d):
    # every point of A^1 in weight 2: x_(2j) = p^j and x_k = 0 at odd k, so a
    # degree-2d stratum counts the degree-d polynomials of the halved type
    xs = [p ** (k // 2) if k % 2 == 0 else 0 for k in range(1, 2 * d + 1)]
    counts = _type_counts(p, d)
    for tau in enumerate_types(2 * d):
        if any(b % 2 for b, _m in tau.parts):
            expected = 0
        else:
            expected = counts.get(SplittingType([(b // 2, m) for b, m in tau.parts]), 0)
        assert virtual_stratum(IntegerRing(), xs, tau) == expected, tau.label()


@pytest.mark.parametrize("p, d", [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 6)])
def test_mixed_grading_strata_count_polynomial_pairs_over_f_p(p, d):
    # X = A^1 in weight 1 and A^1 in weight 2: a point of weighted degree d
    # is a closed point of degree d of the first line or of degree d/2 of
    # the second, so u_d = N_d(p) + N_(d/2)(p) with N the necklace count.
    # A zero-cycle is a pair of monics (f, g) with deg f + 2 deg g = d, and
    # its type joins the parts of f to those of g with doubled degrees.
    def necklaces(k):
        return sum(moebius(k // e) * p ** e for e in divisors(k)) // k

    us = [necklaces(k) + (necklaces(k // 2) if k % 2 == 0 else 0) for k in range(1, d + 1)]
    xs = forward_zeta(IntegerRing(), us)
    counts = {}
    for j in range(d // 2 + 1):
        for (f, m), (g, n) in itertools.product(_type_counts(p, d - 2 * j).items(),
                                                _type_counts(p, j).items()):
            tau = f.union(SplittingType([(2 * b, e) for b, e in g.parts]))
            counts[tau] = counts.get(tau, 0) + m * n
    for tau in enumerate_types(d):
        assert virtual_stratum(IntegerRing(), xs, tau) == counts.get(tau, 0), tau.label()


# ---------------------------------------------------------------------------
# power-free loci


def test_powerfree_squarefree_binomial_counts():
    # x_d = C(c + d - 1, d) (degree-d monomials in c variables) makes the
    # squarefree classes C(c, d)
    ring = IntegerRing()
    for c in (3, 4):
        xs = [math.comb(c + d - 1, d) for d in range(1, 9)]
        for d in range(0, 9):
            assert powerfree(ring, xs, 2, (d,)) == math.comb(c, d)


def test_powerfree_first_power_collapses():
    ring = IntegerRing()
    xs = [5, 7, 11, 2, 3]
    assert powerfree(ring, xs, 1, (0,)) == 1
    for d in range(1, 6):
        assert powerfree(ring, xs, 1, (d,)) == 0


def test_powerfree_pair_of_lines_is_a_product():
    ring = MPolyRing(2, adams_mode="trivial")
    x1 = ring.variable(0)
    xs = [x1, ring.variable(1)]
    assert ring.eq(powerfree(ring, xs, 2, (1, 1)), ring.mul(x1, x1))


def _gf2_mul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _gf2_mod(a, b):
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _gf2_pow(a, n):
    out = 1
    for _ in range(n):
        out = _gf2_mul(out, a)
    return out


def _gf2_tuple_powerfree(fs, n):
    smallest = min(f.bit_length() - 1 for f in fs)
    for b in range(1, smallest // n + 1):
        for g in range(1 << b, 1 << (b + 1)):
            gn = _gf2_pow(g, n)
            if all(_gf2_mod(f, gn) == 0 for f in fs):
                return False
    return True


@pytest.mark.parametrize("n", [2, 3])
def test_powerfree_against_binary_polynomial_counts(n):
    # monic binary polynomials: x_d = 2^d; brute-force the power-free tuples
    ring = IntegerRing()
    xs = [2**d for d in range(1, 5)]
    for shape in [(1,), (2,), (3,), (4,), (1, 2), (2, 2), (3, 2), (3, 3)]:
        monics = [range(1 << d, 1 << (d + 1)) for d in shape]
        brute = sum(
            1 for fs in itertools.product(*monics) if _gf2_tuple_powerfree(fs, n)
        )
        assert powerfree(ring, xs, n, shape) == brute


def test_powerfree_generating_function_identity():
    # sum Zpf_d t^d = Z(t) / Z(t^n) in the one-variable case
    ring = RationalRing()
    xs = [Fraction(2), Fraction(-1, 2), Fraction(3), Fraction(1, 3),
          Fraction(-2), Fraction(5, 7), Fraction(1), Fraction(4, 3)]
    zeta = [Fraction(1)] + xs
    for n in (2, 3):
        stretched = [Fraction(0)] * 9
        stretched[0] = Fraction(1)
        for k in range(1, 9):
            if n * k <= 8:
                stretched[n * k] = xs[k - 1]
        quotient = ser_mul(ring, zeta, ser_inv(ring, stretched, 8), 8)
        for d in range(0, 9):
            assert powerfree(ring, xs, n, (d,)) == quotient[d]


def test_powerfree_validation():
    ring = IntegerRing()
    with pytest.raises(ValueError):
        powerfree(ring, [1, 2], 0, (1,))
    with pytest.raises(ValueError):
        powerfree(ring, [1, 2], 2, ())
    with pytest.raises(ValueError):
        powerfree(ring, [1, 2], 2, (1, -1))
    with pytest.raises(ValueError):
        powerfree(ring, [1, 2], 2, (3,))


# ---------------------------------------------------------------------------
# serialized sequences


def test_measure_sequence_roundtrip_integers():
    ring = IntegerRing()
    seq = MeasureSequence(ring, [3, 5, 7], role="closed")
    data = json.loads(json.dumps(seq.to_json()))
    back = MeasureSequence.from_json(data)
    assert back.ring.name == "Z"
    assert back.values == [3, 5, 7]
    assert back.role == "closed"


def test_measure_sequence_roundtrip_witt_infers_order():
    ring = ring_from_token("witt", order=6)
    values = [WittElement.geometric(2, 6), WittElement.geometric(3, 6)]
    seq = MeasureSequence(ring, values, role="irreducible")
    back = MeasureSequence.from_json(seq.to_json())
    assert back.ring.order == 6
    assert back.values == values
    assert back.role == "irreducible"


def test_measure_sequence_validation():
    ring = IntegerRing()
    with pytest.raises(ValueError):
        MeasureSequence(ring, [1], role="open")
    with pytest.raises(ValueError):
        MeasureSequence(MPolyRing(2), [MPoly.const(2, 1)]).to_json()
