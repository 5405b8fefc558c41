"""Tests for the counting applications.

Strategy: every headline number is pinned against an independent route --
closed points of the projective line for hypersurface motives, ghost
coordinates of Witt vectors for point counts, Burnside-style brute force
over symmetric groups for transitive tuples, and classical coefficient
tables for the product factorizations.
"""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from polysplit import applications, arrangements, rings
from polysplit.applications import (
    _cyclotomic,
    _sl_closed_value,
    inverse_polya,
    inverse_sum_checks,
    irr_hypersurface,
    mass_identity,
    real_euler_factorization,
    sl_character_variety,
    stratum_mass,
    transitive_oracle,
    transitive_tuples,
    verify_factorization,
    verify_identities,
    verify_oracles,
)
from polysplit.arrangements import verify_appendix
from polysplit.plethysm import invert_zeta
from polysplit.rings import (
    IntegerRing,
    MathCheckError,
    Poly,
    RationalFunctionRing,
    WittElement,
    WittRing,
    divisors,
    euler_product,
    moebius,
)
from polysplit.types import SplittingType, enumerate_types, parse_type


def _poly(coeffs, var):
    return Poly({e: Fraction(c) for e, c in coeffs.items()}, var=var)


# ---------------------------------------------------------------------------
# hypersurface motives and counts


def test_quartic_plane_curve_motive():
    value = irr_hypersurface(2, 4, "motive")
    expected = _poly(
        {14: 1, 13: 1, 12: 1, 10: -2, 9: -2, 8: -1, 7: 1, 6: 1}, var="w")
    assert value == expected


def test_quartic_plane_curve_weighted_count():
    value = irr_hypersurface(2, 4, "count")
    expected = _poly(
        {
            14: 1,
            13: 1,
            12: 1,
            10: Fraction(-3, 2),
            9: -2,
            8: Fraction(-3, 4),
            7: 1,
            6: 1,
            5: Fraction(-1, 2),
            4: Fraction(-1, 2),
            2: Fraction(1, 4),
        },
        var="q",
    )
    assert value == expected


def _closed_points_of_the_line(d, q):
    """Degree-d closed points of the projective line: the infinite place in
    degree one plus monic irreducible polynomials, counted by necklaces."""
    necklace = sum(moebius(d // m) * q**m for m in divisors(d)) // d
    return necklace + (1 if d == 1 else 0)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_line_counts_are_closed_points(q):
    for d in range(1, 7):
        value = irr_hypersurface(1, d, "count", q=q)
        assert value == _closed_points_of_the_line(d, q)


def _forms(nvars, d, q):
    """The nonzero degree-d forms in nvars variables over F_q, prime q, as
    dicts from exponent tuples to nonzero coefficients."""
    monomials = [exps for exps in itertools.product(range(d + 1), repeat=nvars)
                 if sum(exps) == d]
    return [{m: c for m, c in zip(monomials, coeffs) if c}
            for coeffs in itertools.product(range(q), repeat=len(monomials)) if any(coeffs)]


def _form_product(f, g, q):
    out = {}
    for m, a in f.items():
        for k, b in g.items():
            key = tuple(x + y for x, y in zip(m, k))
            out[key] = (out.get(key, 0) + a * b) % q
    return frozenset((m, c) for m, c in out.items() if c)


@pytest.mark.parametrize("n, d, q", [(2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2)])
def test_hypersurface_counts_match_f_q_brute_force(n, d, q):
    # a hypersurface is a nonzero form up to a scalar; it is reducible when
    # the form is a product of two forms of lower degree
    forms = {k: _forms(n + 1, k, q) for k in range(1, d + 1)}
    reducible = {_form_product(f, g, q) for i in range(1, d // 2 + 1)
                 for f in forms[i] for g in forms[d - i]}
    irreducible = sum(frozenset(f.items()) not in reducible for f in forms[d])
    assert irreducible % (q - 1) == 0
    assert irr_hypersurface(n, d, "count", q) == irreducible // (q - 1)


def test_line_motive_is_the_line_itself():
    # geometrically every point of the line has degree one, so the whole
    # tower of symmetric powers is generated by the degree-one stratum
    assert irr_hypersurface(1, 1, "motive") == _poly({0: 1, 1: 1}, var="w")
    for d in range(2, 7):
        assert irr_hypersurface(1, d, "motive") == Poly({}, var="w")


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_witt_ghost_route_matches_motive_counts(n, q):
    _check_ghost_route(n, q, top=4, order=8)


def test_field_sizes_are_exactly_the_prime_powers():
    def smallest_factor(q):
        return next(p for p in range(2, q + 1) if q % p == 0)

    def by_trial_division(q):
        p = smallest_factor(q) if q > 1 else 0
        while p and q % p == 0:
            q //= p
        return q == 1 and p > 0

    assert all(applications._is_prime_power(q) == by_trial_division(q) for q in range(1, 5000))
    # primes and prime powers near 2^64, and strong pseudoprimes to the bases 2..23
    for q in (2**61 - 1, (2**31 - 1)**2, 3**40, 2**63, 2**64 - 59):
        assert applications._is_prime_power(q)
    for q in (2**32 * 3, (2**32 - 5) * (2**32 - 17), 3215031751, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not applications._is_prime_power(q)


def test_witt_ghost_route_covers_packed_products(monkeypatch):
    # at n = 6 the motive's inversion runs over polynomials of hundreds of
    # terms, whose power sums are one integer series over their packed values
    widest, int_series = [], rings._int_series

    def spy(ring, values, upto, divide):
        out = int_series(ring, values, upto, divide)
        if out is not None and isinstance(ring, rings.PolyRing):
            widest.append(max(len(p.coeffs) for p in values))
        return out

    monkeypatch.setattr(rings, "_int_series", spy)
    _check_ghost_route(6, 2, top=5, order=10)
    assert max(widest) >= 200


def _check_ghost_route(n, q, top, order):
    # encode each closed stratum by its tower of point counts as ghost
    # coordinates; the inversion in the Witt ring must reproduce the
    # motive's counts over every extension that survives truncation
    ring = WittRing(order)
    xs = []
    for k in range(1, top + 1):
        forms = math.comb(n + k, k)
        ghosts = [sum(q ** (i * j) for i in range(forms)) for j in range(1, order + 1)]
        xs.append(WittElement.from_ghost(ghosts))
    us = invert_zeta(ring, xs)
    for d in range(1, top + 1):
        motive = irr_hypersurface(n, d, "motive")
        ghosts = us[d - 1].ghost()
        for j in range(1, len(ghosts) + 1):
            assert ghosts[j - 1] == motive.evaluate(Fraction(q**j))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_weighted_count_is_integral_at_integers(q):
    for d in range(1, 6):
        value = irr_hypersurface(2, d, "count", q=q)
        assert isinstance(value, int)


def test_epoly_is_the_motive_in_uv():
    motive = irr_hypersurface(2, 3, "motive")
    epoly = irr_hypersurface(2, 3, "epoly")
    assert epoly.var == "uv"
    assert epoly.coeffs == motive.coeffs


@pytest.mark.parametrize("n, top", [(1, 6), (2, 6), (3, 6), (4, 5), (6, 8)])
def test_necklace_relation_turns_count_into_motive(n, top):
    # A hypersurface irreducible over F_q but not geometrically irreducible
    # is an orbit of e > 1 conjugate geometrically irreducible components of
    # degree d/e, each defined over F_(q^e) and over no smaller field:
    #   G_d = I_d - sum over e | d, e > 1 of
    #         (1/e) sum over f | e of mu(e/f) * G_(d/e)(q^f)
    motives = {}
    for d in range(1, top + 1):
        count = irr_hypersurface(n, d, "count")
        g = Poly(dict(count.coeffs), var="w")
        for e in divisors(d)[1:]:
            orbits = Poly({}, var="w")
            for f in divisors(e):
                orbits = orbits + motives[d // e].substitute_power(f).scale(moebius(e // f))
            g = g - orbits.scale(Fraction(1, e))
        motives[d] = g
        assert g == irr_hypersurface(n, d, "motive"), (n, d)
    if n == 2:
        # the smooth conics
        assert motives[2] == Poly({5: 1, 2: -1}, var="w")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_euler_measure_degenerates(n):
    assert irr_hypersurface(n, 1, "euler") == n
    for d in range(2, 7):
        assert irr_hypersurface(n, d, "euler") == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rcc_measure_degenerates(n):
    assert irr_hypersurface(n, 1, "rcc") == (1, n)
    for d in range(2, 7):
        assert irr_hypersurface(n, d, "rcc") == (0, 0)


def test_real_euler_sequences():
    line = real_euler_factorization(1, 16)
    assert line == [0, 1] + [0] * 14
    plane = real_euler_factorization(2, 16)
    assert plane[:4] == [1, -1, 0, 1]
    for n in (3, 4):
        for d, u in enumerate(real_euler_factorization(n, 16), start=1):
            if u:
                assert d & (d - 1) == 0
    assert irr_hypersurface(2, 4, "realeuler") == 1


# SHA-256 of json.dumps(irr_hypersurface(n, d, measure).to_json(), sort_keys=True),
# recorded when every Poly coefficient was still a Fraction
PINNED_HYPERSURFACE_HASHES = {
    (6, 8, "motive"): "e67135a00503750b9a0c935c952ce6d7b2606c77ff815bb440843128209f6f8c",
    (6, 8, "epoly"): "45d457e4187a43cb39044af831f15c229eeb5d7b7ea64f3f4656556f48e73bd9",
    (6, 8, "count"): "2873a370174a1df170a2db1c87a007fa36c2f5a4fc999cc21d54d04095a1b8d9",
    (4, 6, "motive"): "540e887aa77c370674a58fc820672614b3ac1d4586a1b9ccd13f2f0ea202937c",
    (4, 6, "epoly"): "eaa948088a2cd5f6383fb873167bfd9d1efa818cdd13add7c30f6771d9b0b488",
    (4, 6, "count"): "f72e50ef3f55a3ba6d697c4a06f8f0859d3db878dd88c235d4464f4e3796fbd4",
    (2, 4, "motive"): "a627d8e70748f5e8b2bd0964c0263e03794daea1ff3ee62a7d0e8ce0b9f09e46",
    (2, 4, "epoly"): "962cc985baeb4423603e95871b3a86e8de6264cd49e117e045953f3aa042826b",
    (2, 4, "count"): "28595383dbb8d04d6b2b3e24976c44b9155068285550831db5e9f9607fb52c75",
}


@pytest.mark.parametrize("n,d,measure", sorted(PINNED_HYPERSURFACE_HASHES))
def test_hypersurface_answers_are_pinned(n, d, measure):
    value = irr_hypersurface(n, d, measure)
    text = json.dumps(value.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_HYPERSURFACE_HASHES[n, d, measure]
    if measure == "motive":
        assert all(type(c) is int for c in value.coeffs.values())


def test_hypersurface_validation():
    with pytest.raises(ValueError):
        irr_hypersurface(7, 2, "motive")
    with pytest.raises(ValueError):
        irr_hypersurface(2, 9, "motive")
    with pytest.raises(ValueError):
        irr_hypersurface(2, 2, "volume")
    with pytest.raises(ValueError):
        irr_hypersurface(2, 2, "motive", q=3)
    with pytest.raises(ValueError):
        irr_hypersurface(2, 2, "stratum-mass")


# ---------------------------------------------------------------------------
# stratum masses


def test_gauss_stratum_mass():
    value = stratum_mass(parse_type("(2)"), 1)
    assert value == _poly({2: Fraction(1, 2), 1: Fraction(-1, 2)}, var="q")


def test_linear_stratum_mass_is_projective_space():
    for n in (1, 2, 3):
        value = stratum_mass(parse_type("(1)"), n)
        assert value == _poly({k: 1 for k in range(n + 1)}, var="q")


def test_stratum_masses_sum_to_the_closed_count():
    from polysplit.types import enumerate_types

    for n in (1, 2):
        for d in range(1, 5):
            total = Poly({}, var="q")
            for lam in enumerate_types(d):
                total = total + stratum_mass(lam, n)
            expected = _poly({k: 1 for k in range(math.comb(n + d, d))}, var="q")
            assert total == expected


def _divide_form(f, g, q):
    """f / g for forms over F_q, prime q, or None when g does not divide f:
    division by the one divisor g in lex order leaves no remainder exactly
    when g divides f, so the first leading term that the leading term of g
    does not divide decides."""
    f, lead = dict(f), max(g)
    inverse = pow(g[lead], -1, q)
    quotient = {}
    while f:
        top = max(f)
        shift = tuple(a - b for a, b in zip(top, lead))
        if min(shift) < 0:
            return None
        t = quotient[shift] = f[top] * inverse % q
        for m, c in g.items():
            key = tuple(a + b for a, b in zip(shift, m))
            value = (f.get(key, 0) - t * c) % q
            if value:
                f[key] = value
            else:
                f.pop(key, None)
    return quotient


@pytest.mark.parametrize("n, d, q", [(1, d, q) for d in (2, 3, 4) for q in (2, 3)]
                         + [(2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2)])
def test_stratum_masses_count_the_factorizations_over_f_q(n, d, q):
    # a hypersurface is a form up to scalar, here the one whose lex-leading
    # coefficient is 1; its type has a part (deg g, m) for each irreducible
    # factor g of multiplicity m, found by trial division over the
    # irreducible forms of lower degree
    irreducibles = []
    tally = {}
    for k in range(1, d + 1):
        for f in _forms(n + 1, k, q):
            if f[max(f)] != 1:
                continue
            parts = []
            for g in [g for g in irreducibles if 2 * sum(max(g)) <= k]:
                m = 0
                while (quotient := _divide_form(f, g, q)) is not None:
                    f, m = quotient, m + 1
                if m:
                    parts.append((sum(max(g)), m))
            if not parts:
                irreducibles.append(f)
                parts = [(k, 1)]
            elif sum(max(f)):  # one irreducible factor of degree above k / 2 is left
                parts.append((sum(max(f)), 1))
            if k == d:
                lam = SplittingType(parts)
                tally[lam] = tally.get(lam, 0) + 1
    for lam in enumerate_types(d):
        assert tally.get(lam, 0) == stratum_mass(lam, n).evaluate(q), lam.label()


# SHA-256 of json.dumps([[stratum_mass(lam, n).to_json() for n in 1..4] for
# lam in enumerate_types(d)], sort_keys=True), recorded when stratum_mass
# summed the inverse-table column itself instead of calling virtual_stratum
PINNED_STRATUM_MASS_HASHES = {
    1: "63c39bd8df4c21eb05d3ceeea97af7394d0a6e4fdbd404f438a7dbcc97e2e4e2",
    2: "3f23ee8c56631897e16385365c851af75bfc42a30eac9c6821ae4b7fb1a33626",
    3: "1dc826f40a3cd42944a81dc9cc0de3df26668ee4684a0666524dc487fcc27de1",
    4: "ed1e5e4bd12891c41bd94f5c742bd2fb696a11bc83823d4b7c2f489a8cdb7b8c",
    5: "ccd714667430d7b8a45c8964bab688d786533354a118c1c9d66639a032b48751",
    6: "5e6985cd6e840928658c842e3da4c0102641ae202f296feabd44dde30b003ce8",
    7: "00a82ce8894786ad8dc5ca22ee72373d5839c03c58262740f57759fd63d3b521",
    8: "84dc8f4b2a5a7f574d141b54e65ca4f3ed0436cfcc6dd8d12f03183ac3c7bc15",
}


@pytest.mark.parametrize("d", sorted(PINNED_STRATUM_MASS_HASHES))
def test_stratum_masses_are_pinned(d):
    values = [[stratum_mass(lam, n).to_json() for n in range(1, 5)]
              for lam in enumerate_types(d)]
    text = json.dumps(values, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_STRATUM_MASS_HASHES[d]


def test_stratum_mass_validation():
    with pytest.raises(ValueError):
        stratum_mass(parse_type("(1)"), 5)
    with pytest.raises(ValueError):
        stratum_mass("(1)", 2)


# ---------------------------------------------------------------------------
# inverse Polya counting


def test_inverse_polya_examples():
    assert inverse_polya([2, 4]) == [2, 1]
    # multisets from five atoms: C(5 + k - 1, k)
    assert inverse_polya([5, 15, 35]) == [5, 0, 0]


# ---------------------------------------------------------------------------
# transitive tuples


def test_two_pairs_on_two_letters():
    assert transitive_tuples(2, 2) == 3


def test_transitive_formula_matches_brute_force():
    cases = [(d, r) for d in range(1, 5) for r in range(1, 4)] + [(5, 2)]
    for d, r in cases:
        assert transitive_tuples(d, r) == transitive_oracle(d, r)


def test_transitive_validation():
    with pytest.raises(ValueError):
        transitive_tuples(13, 2)
    with pytest.raises(ValueError):
        transitive_tuples(3, 7)
    with pytest.raises(ValueError):
        transitive_oracle(6, 2)


def _perm_compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _commuting_classes(k, transitive_only):
    """Pairs of commuting permutations of k letters up to simultaneous
    conjugation, optionally restricted to transitive pairs."""
    perms = list(itertools.permutations(range(k)))
    reps = {}
    for g in perms:
        seen = [False] * k
        counts = [0] * k
        for start in range(k):
            if seen[start]:
                continue
            length = 0
            point = start
            while not seen[point]:
                seen[point] = True
                point = g[point]
                length += 1
            counts[length - 1] += 1
        reps.setdefault(tuple(counts), g)

    from polysplit.types import partition_centralizer_order

    total = Fraction(0)
    for counts, g in reps.items():
        cent = [t for t in perms if _perm_compose(g, t) == _perm_compose(t, g)]
        fixed = 0
        for a in cent:
            for b in cent:
                if _perm_compose(a, b) != _perm_compose(b, a):
                    continue
                if transitive_only:
                    seen = {0}
                    frontier = [0]
                    while frontier:
                        point = frontier.pop()
                        for perm in (a, b):
                            if perm[point] not in seen:
                                seen.add(perm[point])
                                frontier.append(perm[point])
                    if len(seen) != k:
                        continue
                fixed += 1
        total += Fraction(fixed, partition_centralizer_order(counts))
    assert total.denominator == 1
    return int(total)


def test_commuting_pairs_inversion():
    # the inversion principle on an independent dataset: total commuting
    # classes invert to transitive commuting classes
    xs = [_commuting_classes(k, False) for k in range(1, 5)]
    us = invert_zeta(IntegerRing(), xs)
    for d in range(1, 5):
        assert us[d - 1] == _commuting_classes(d, True)


# ---------------------------------------------------------------------------
# special-linear character varieties


def test_sl_closed_values():
    ring = RationalFunctionRing(var="w")
    w = ring.variable()
    assert ring.eq(_sl_closed_value(ring, 1, 1), ring.one())
    assert ring.eq(_sl_closed_value(ring, 1, 3), ring.one())
    assert ring.eq(_sl_closed_value(ring, 2, 1), w)


def test_sl_rank_one_degree_two():
    # x_1 = 1 and x_2 = w, so 2 u_2 = -psi_2(1) + (2w - 1) = 2w - 2
    polys = sl_character_variety(2, 1, mode="epoly")
    assert polys[0] == _poly({0: 1}, var="w")
    assert polys[1] == _poly({1: 1, 0: -1}, var="w")


def test_sl_rank_two_degree_two():
    # x_2 = ((w-1)^4 + (w^2-1)^2) / (2 (w-1)^2) = w^2 + 1
    polys = sl_character_variety(2, 2, mode="epoly")
    assert polys[0] == _poly({0: 1}, var="w")
    assert polys[1] == _poly({2: 1}, var="w")


def test_sl_euler_is_epoly_at_one():
    for r in (1, 2, 3):
        polys = sl_character_variety(3, r, mode="epoly")
        eulers = sl_character_variety(3, r, mode="euler")
        assert [p.evaluate(Fraction(1)) for p in polys] == eulers


def test_sl_validation():
    with pytest.raises(ValueError):
        sl_character_variety(6, 1)
    with pytest.raises(ValueError):
        sl_character_variety(2, 5)
    with pytest.raises(ValueError):
        sl_character_variety(2, 2, mode="motive")


# SHA-256 of the canonical JSON of sl_character_variety(d, r) for every
# degree and rank the library accepts, recorded from the Fraction long
# division that RatFunc normalised with before the integer kernel
PINNED_SL_HASHES = {
    (1, 1): "9056faa39cf140cfdf72ca988416a33494983791c76292fd26c0195f38b81cd9",
    (1, 2): "9056faa39cf140cfdf72ca988416a33494983791c76292fd26c0195f38b81cd9",
    (1, 3): "9056faa39cf140cfdf72ca988416a33494983791c76292fd26c0195f38b81cd9",
    (1, 4): "9056faa39cf140cfdf72ca988416a33494983791c76292fd26c0195f38b81cd9",
    (2, 1): "da785505500686fe2b0491ae864ce11e1744c6f4d70b5a7fe98f8aaf4a061dba",
    (2, 2): "ac84a527e6648b9b269800d259b6b40fda5a6cfec44671158d7212b6afecfab5",
    (2, 3): "695e08963e3af8e66a44e64e753b7a823e5a06a99605f54f75bade123c77e107",
    (2, 4): "0f4a45309bd8dfd36622e3a3cb43d000f37b3a76568dfca9368892d81898ad14",
    (3, 1): "406f6a34724fceefd2941f0a32163c71af9538deb2065b596a94a2190c1c19fc",
    (3, 2): "5799b7e0692906718ffb410d0b116a1db5ad7b983185c334b6f9db2201b02f76",
    (3, 3): "538c5636434abb99dca3cf3de89b04f9f0ca0b775f8d2f161ff57a919dca122e",
    (3, 4): "5e2c6b5f27a2ac41049c2f2ed6ffbf028d7dc50a28d10d69ed2a1a43e93898ac",
    (4, 1): "5954003fd9953e6f224d805b3fc741df9a98d75490afc2c3b929e4d5cc2ec139",
    (4, 2): "1b924303a8764fe0ec8dc83810b4e6e8f173acd5cd3addef972fa6b75bb55d91",
    (4, 3): "591fc24c768b95d644ea3954f103ebc9934331aceb336712bbe08b53b863f2d2",
    (4, 4): "ddf6343b6d6aacfc64f3835a07103f74ddaeea11b953331cffd6f6e510ca5cfa",
    (5, 1): "5882a9d27f14a645b96a6a23a4c3ec69258b3d023d8fc88e552fe1f93a40c371",
    (5, 2): "e3ff3aa1e8ecaab74424b8df9d3e2158c65e7f465726e6303605ff7fe3750ecd",
    (5, 3): "2fc4806057bdf707d89707444eb956421b2460c16a1ae3c106b799026d0a0159",
    (5, 4): "28a9494867229eb0b94b90ec30e4c9c63e1ac2eba418ee52384009eabe19f5e4",
}


@pytest.mark.parametrize("d,r", sorted(PINNED_SL_HASHES))
def test_sl_character_varieties_are_pinned(d, r):
    text = json.dumps([p.to_json() for p in sl_character_variety(d, r)], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SL_HASHES[d, r]


# ---------------------------------------------------------------------------
# bounded inputs


# every bounded input at each end of its range, with the message the CLI
# prints after "error: "
OUT_OF_RANGE = [
    (lambda: irr_hypersurface(0, 3), "dimension must be between 1 and 6"),
    (lambda: irr_hypersurface(7, 3), "dimension must be between 1 and 6"),
    (lambda: irr_hypersurface(2, 0), "degree must be between 1 and 8"),
    (lambda: irr_hypersurface(2, 9), "degree must be between 1 and 8"),
    (lambda: real_euler_factorization(0, 3), "dimension must be between 1 and 8"),
    (lambda: real_euler_factorization(9, 3), "dimension must be between 1 and 8"),
    (lambda: real_euler_factorization(2, 0), "order must be between 1 and 16"),
    (lambda: real_euler_factorization(2, 17), "order must be between 1 and 16"),
    (lambda: stratum_mass(parse_type("1^9"), 2), "stratum degree must be between 1 and 8"),
    (lambda: stratum_mass(parse_type("1"), 0), "dimension must be between 1 and 4"),
    (lambda: stratum_mass(parse_type("1"), 5), "dimension must be between 1 and 4"),
    (lambda: transitive_tuples(0, 2), "letters must be between 1 and 12"),
    (lambda: transitive_tuples(13, 2), "letters must be between 1 and 12"),
    (lambda: transitive_tuples(3, 0), "rank must be between 1 and 6"),
    (lambda: transitive_tuples(3, 7), "rank must be between 1 and 6"),
    (lambda: transitive_oracle(0, 2), "oracle letters must be between 1 and 5"),
    (lambda: transitive_oracle(6, 2), "oracle letters must be between 1 and 5"),
    (lambda: transitive_oracle(3, 0), "oracle rank must be between 1 and 3"),
    (lambda: transitive_oracle(3, 4), "oracle rank must be between 1 and 3"),
    (lambda: sl_character_variety(0, 1), "degree must be between 1 and 5"),
    (lambda: sl_character_variety(6, 1), "degree must be between 1 and 5"),
    (lambda: sl_character_variety(2, 0), "rank must be between 1 and 4"),
    (lambda: sl_character_variety(2, 5), "rank must be between 1 and 4"),
    (lambda: mass_identity(0), "degree must be between 1 and 12"),
    (lambda: mass_identity(13), "degree must be between 1 and 12"),
    (lambda: arrangements.incidence_table(0, "a"), "table degree must be between 1 and 10"),
    (lambda: arrangements.incidence_table(11, "a"), "table degree must be between 1 and 10"),
    (lambda: arrangements.monoid_oracle(0, [1]), "oracle degree must be between 1 and 5"),
    (lambda: arrangements.monoid_oracle(6, [1]), "oracle degree must be between 1 and 5"),
]


@pytest.mark.parametrize("call,message", OUT_OF_RANGE)
def test_out_of_range_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_check_range_accepts_both_ends():
    for value in (1, 5):
        rings.check_range("degree", value, 5)


# ---------------------------------------------------------------------------
# the mass identity


def test_mass_identity_small_values():
    assert mass_identity(2) == {0: 1, 1: 1}
    assert mass_identity(3) == {0: 1, 1: 1, 2: 1}
    values = mass_identity(6)
    assert values[2] == 2  # partitions of 2 into at most 4 parts


def test_mass_identity_full_range():
    for d in range(1, 13):
        mass_identity(d)
    with pytest.raises(ValueError):
        mass_identity(13)


def test_inverse_sum_checks_run():
    for d in range(2, 9):
        inverse_sum_checks(d)
    with pytest.raises(ValueError):
        inverse_sum_checks(1)


# ---------------------------------------------------------------------------
# product factorizations


def test_discriminant_coefficients_are_classical():
    coeffs = euler_product({d: 24 for d in range(1, 6)}, 5)
    assert coeffs[:5] == [1, -24, 252, -1472, 4830]


def test_pentagonal_coefficients():
    coeffs = euler_product({d: 1 for d in range(1, 16)}, 15)
    expected = [0] * 16
    for j in (0, 5, 7):
        expected[j] = 1
    for j in (1, 2, 12, 15):
        expected[j] = -1
    assert coeffs == expected


def test_cyclotomic_polynomials():
    assert _cyclotomic(1) == Poly({1: Fraction(1), 0: Fraction(-1)}, var="y")
    assert _cyclotomic(2) == Poly({1: Fraction(1), 0: Fraction(1)}, var="y")
    assert _cyclotomic(6) == Poly(
        {2: Fraction(1), 1: Fraction(-1), 0: Fraction(1)}, var="y")
    assert _cyclotomic(12) == Poly(
        {4: Fraction(1), 2: Fraction(-1), 0: Fraction(1)}, var="y")


def test_factorization_rows_all_pass():
    rows = verify_factorization()
    names = [row["row"] for row in rows]
    assert names == [
        "partition-numbers",
        "type-counts",
        "thue-morse",
        "level-eleven",
        "discriminant",
        "pentagonal",
        "artin-hasse-2",
        "artin-hasse-3",
        "cyclotomic",
    ]
    by_name = {row["row"]: row for row in rows}
    assert by_name["thue-morse"]["max_degree"] == 16
    assert by_name["level-eleven"]["max_degree"] == 22
    assert by_name["pentagonal"]["max_degree"] == 15


def test_factorization_rows_respect_caps():
    rows = verify_factorization(max_degree=6)
    assert all(row["max_degree"] <= 6 for row in rows)


# ---------------------------------------------------------------------------
# verification suites


def test_verify_appendix_clean():
    checks = verify_appendix()
    assert len(checks) == 12 + 5
    assert {c["check"] for c in checks} == {"table-a", "table-a_inv",
                                            "table-mobius", "top-column"}


def test_verify_identities_clean():
    checks = verify_identities(max_degree=6)
    kinds = {c["check"] for c in checks}
    assert kinds == {"mass-identity", "inverse-sums", "hilbert-series",
                     "poset-agreement"}


def test_verify_oracles_clean():
    checks = verify_oracles(max_degree=4)
    kinds = {c["check"] for c in checks}
    assert kinds == {"monoid", "transitive"}
