"""Counting and measure-theoretic applications of the zeta inversion.

Everything here instantiates the generic inversion engine on a concrete
sequence:

* irreducible-hypersurface measures (motives, weighted counts, Euler
  characteristics, and real refinements),
* masses of strata of the space of hypersurfaces of a fixed splitting type,
* transitive tuples of permutations and character varieties of surface-like
  groups,
* product factorizations of classical power series, verified degree by
  degree,
* the mass identity tying partition counts to automorphism weights.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import HYPER_MEASURES
from .arrangements import monoid_oracle, poset, top_column_inverse
from .plethysm import MAX_SEQUENCE_TERMS, forward_zeta, invert_zeta, virtual_stratum
from .rings import (
    IntegerRing,
    MathCheckError,
    PairRing,
    Poly,
    PolyRing,
    QQ,
    RatFunc,
    RationalFunctionRing,
    check_range,
    divisors,
    euler_product,
    from_power_sums,
    moebius,
    partition_count_bounded,
    partitions,
    poly_divmod,
)
from .types import (
    SplittingType,
    canonical_sort_key,
    enumerate_types,
    hilbert_type_counts,
    partition_centralizer_order,
    reachability_order,
)

MAX_HYPER_DIM = 6
MAX_HYPER_DEGREE = 8
MAX_STRATUM_DEGREE = 8
MAX_STRATUM_DIM = 4
MAX_TRANSITIVE_LETTERS = 12
MAX_TRANSITIVE_RANK = 6
MAX_ORACLE_LETTERS = 5
MAX_ORACLE_RANK = 3
MAX_SL_DEGREE = 5
MAX_SL_RANK = 4
MAX_REAL_EULER_DIM = 8
MAX_REAL_EULER_ORDER = 16
MAX_MASS_DEGREE = 12


# ---------------------------------------------------------------------------
# hypersurfaces in projective space


def _forms_count(n, k):
    """Number of degree-k monomials in n + 1 variables."""
    return math.comb(n + k, k)


def _projective_space(ring, dim_plus_one):
    """1 + w + ... + w^(N-1) in the polynomial ring, where N = dim_plus_one."""
    return ring.zero()._new(dict.fromkeys(range(dim_plus_one), 1))


def irr_hypersurface(n, d, measure="motive", q=None):
    """Measure of the irreducible degree-d hypersurfaces in n-space.

    The space of all degree-k hypersurfaces is a projective space of
    dimension C(n + k, k) - 1; inverting that sequence isolates the
    irreducible locus.  The available measures:

    * ``motive``:    class in Z[w] with Frobenius Adams operations of the
                     geometrically irreducible hypersurfaces; the
                     inversion is checked to stay integral.
    * ``epoly``:     the same coefficients read as a polynomial in uv.
    * ``count``:     number of hypersurfaces irreducible over a field with
                     q elements (trivial Adams operations), a polynomial
                     in q with (possibly) fractional coefficients; passing
                     ``q`` evaluates it exactly and checks it is an integer.
    * ``euler``:     integer Euler characteristic.
    * ``rcc``:       pair (point measure, Euler measure) in Z x Z.
    * ``realeuler``: Euler measure of the real locus; the sequence is
                     checked to be supported on powers of two.
    """
    check_range("dimension", n, MAX_HYPER_DIM)
    check_range("degree", d, MAX_HYPER_DEGREE)
    if measure not in HYPER_MEASURES or measure == "stratum-mass":
        raise ValueError("unknown hypersurface measure %r" % (measure,))
    if q is not None and measure != "count":
        raise ValueError("q is only meaningful for the count measure")

    if measure in ("motive", "epoly"):
        ring = PolyRing(var="w", integral=True, frobenius=True)
        xs = [_projective_space(ring, _forms_count(n, k)) for k in range(1, d + 1)]
        value = invert_zeta(ring, xs, upto=d)[d - 1]
        if measure == "epoly":
            return Poly(dict(value.coeffs), var="uv")
        return value
    if measure == "count":
        ring = PolyRing(var="q", integral=False, frobenius=False)
        xs = [_projective_space(ring, _forms_count(n, k)) for k in range(1, d + 1)]
        value = invert_zeta(ring, xs, upto=d)[d - 1]
        if q is None:
            return value
        exact = value.evaluate(Fraction(q))
        if exact.denominator != 1:
            raise MathCheckError(
                "weighted count is not an integer at q = %s" % q,
                {"degree": d, "q": q, "value": str(exact)},
            )
        return int(exact)
    if measure == "euler":
        ring = IntegerRing()
        xs = [math.comb(n + k - 1, k) for k in range(1, d + 1)]
        return invert_zeta(ring, xs, upto=d)[d - 1]
    if measure == "rcc":
        ring = PairRing()
        xs = [(1, math.comb(n + k - 1, k)) for k in range(1, d + 1)]
        return invert_zeta(ring, xs, upto=d)[d - 1]
    # realeuler
    return real_euler_factorization(n, d)[d - 1]


def real_euler_factorization(n, upto):
    """Euler measures of the real irreducible loci up to the given degree.

    The closed sequence is 1 when C(n + k, k) is odd and 0 otherwise; the
    inversion is checked to be supported on power-of-two degrees.
    """
    check_range("dimension", n, MAX_REAL_EULER_DIM)
    check_range("order", upto, MAX_REAL_EULER_ORDER)
    ring = IntegerRing()
    xs = [_forms_count(n, k) % 2 for k in range(1, upto + 1)]
    us = invert_zeta(ring, xs, upto=upto)
    for d, u in enumerate(us, start=1):
        if u and d & (d - 1):
            raise MathCheckError(
                "real Euler measure is supported outside powers of two",
                {"dimension": n, "degree": d, "value": u},
            )
    return us


def stratum_mass(lam, n):
    """Mass of the locally closed stratum of hypersurfaces with splitting
    type lam, as a polynomial in q.

    It is the virtual stratum over the q-counts of the projective spaces
    of degree-b hypersurfaces, with no Adams twist: the closed strata
    separated by the inverse arrangement table.  Like ``virtual_stratum``,
    it reads and writes the table disk cache unless run inside
    ``caches_bypassed()``.
    """
    if not isinstance(lam, SplittingType):
        raise ValueError("the stratum is indexed by a splitting type")
    d = lam.degree()
    check_range("stratum degree", d, MAX_STRATUM_DEGREE)
    check_range("dimension", n, MAX_STRATUM_DIM)
    ring = PolyRing(var="q", integral=False, frobenius=False)
    xs = [_projective_space(ring, _forms_count(n, b)) for b in range(1, d + 1)]
    return virtual_stratum(ring, xs, lam)


# ---------------------------------------------------------------------------
# inverse Polya counting


def inverse_polya(values):
    """Connected/irreducible counts from total counts, trivial Adams over Z."""
    values = [int(v) for v in values]
    check_range("number of values", len(values), MAX_SEQUENCE_TERMS)
    return invert_zeta(IntegerRing(), values)


# ---------------------------------------------------------------------------
# transitive tuples of permutations


def transitive_tuples(d, r):
    """Number of r-tuples of permutations of d letters that act
    transitively, counted up to simultaneous conjugation.

    The closed sequence is x_k = sum over partitions of k of z^(r-1) with z
    the centralizer order; inverting it isolates the transitive classes.
    """
    check_range("letters", d, MAX_TRANSITIVE_LETTERS)
    check_range("rank", r, MAX_TRANSITIVE_RANK)
    ring = IntegerRing()
    xs = []
    for k in range(1, d + 1):
        xs.append(sum(partition_centralizer_order(mult) ** (r - 1)
                      for mult in partitions(k)))
    return invert_zeta(ring, xs, upto=d)[d - 1]


def _is_transitive(tup, d):
    seen = {0}
    frontier = [0]
    while frontier:
        point = frontier.pop()
        for perm in tup:
            image = perm[point]
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return len(seen) == d


def transitive_oracle(d, r):
    """Brute-force count of transitive r-tuples up to simultaneous
    conjugation, via orbit counting over conjugacy-class representatives."""
    check_range("oracle letters", d, MAX_ORACLE_LETTERS)
    check_range("oracle rank", r, MAX_ORACLE_RANK)
    perms = list(itertools.permutations(range(d)))

    def compose(a, b):
        return tuple(a[b[i]] for i in range(d))

    reps = {}
    for g in perms:
        # cycle type as a multiplicity vector
        seen = [False] * d
        counts = [0] * d
        for start in range(d):
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

    total = Fraction(0)
    for counts, g in reps.items():
        centralizer = [t for t in perms if compose(g, t) == compose(t, g)]
        fixed = sum(
            1
            for tup in itertools.product(centralizer, repeat=r)
            if _is_transitive(tup, d)
        )
        total += Fraction(fixed, partition_centralizer_order(counts))
    if total.denominator != 1:
        raise MathCheckError("orbit count is not an integer",
                             {"letters": d, "rank": r, "value": str(total)})
    return int(total)


# ---------------------------------------------------------------------------
# character varieties with special-linear weights


def _sl_closed_value(ring, b, r):
    """x_b(w) = (w - 1)^(-r) sum over partitions of b of
    prod_j (w^j - 1)^(n_j r) / (n_j! j^(n_j))."""
    w, one = Poly.variable(ring.var), Poly.const(1, ring.var)
    total = Poly({}, ring.var)
    for mult in partitions(b):
        numerator = one
        denominator = 1
        for j, n in enumerate(mult, start=1):
            if not n:
                continue
            numerator = numerator * (w.substitute_power(j) - one) ** (n * r)
            denominator *= math.factorial(n) * j**n
        total = total + numerator.scale(Fraction(1, denominator))
    return RatFunc(total, (w - one) ** r)


def sl_character_variety(d, r, mode="epoly"):
    """Degreewise measures U_1 ... U_d of the irreducible special-linear
    loci of rank r.

    ``epoly`` inverts the rational-function sequence and checks every
    inverse is a polynomial in w; ``euler`` inverts the integer sequence
    x_k = k^(r-1).
    """
    check_range("degree", d, MAX_SL_DEGREE)
    check_range("rank", r, MAX_SL_RANK)
    if mode == "euler":
        ring = IntegerRing()
        xs = [k ** (r - 1) for k in range(1, d + 1)]
        return invert_zeta(ring, xs, upto=d)
    if mode != "epoly":
        raise ValueError("mode must be epoly or euler")
    ring = RationalFunctionRing(var="w")
    xs = [_sl_closed_value(ring, b, r) for b in range(1, d + 1)]
    us = invert_zeta(ring, xs, upto=d)
    polys = []
    for degree, u in enumerate(us, start=1):
        if not u.is_polynomial():
            raise MathCheckError(
                "character-variety measure is not polynomial",
                {"degree": degree, "rank": r},
            )
        polys.append(u.as_poly())
    return polys


# ---------------------------------------------------------------------------
# the mass identity


def mass_identity(d):
    """For each k, partitions of k into at most d - k parts equal the
    weighted count of index-k types: sum over types tau of degree d with
    index k of 1 / (prod of part degrees * |Aut(tau)|).

    Returns {k: common value}; a mismatch raises MathCheckError.
    """
    check_range("degree", d, MAX_MASS_DEGREE)
    sums = {k: Fraction(0) for k in range(d)}
    for tau in enumerate_types(d):
        weight = tau.aut_order()
        for b, _m in tau.parts:
            weight *= b
        sums[tau.index()] += Fraction(1, weight)
    out = {}
    for k in range(d):
        expected = partition_count_bounded(k, d - k)
        if sums[k] != expected:
            raise MathCheckError(
                "mass identity failed",
                {"degree": d, "index": k,
                 "weighted_sum": str(sums[k]), "partition_count": expected},
            )
        out[k] = sums[k]
    return out


# ---------------------------------------------------------------------------
# verified product factorizations


@lru_cache(maxsize=None)
def _cyclotomic(n):
    """The n-th cyclotomic polynomial in y, by exact division."""
    numerator = Poly({n: Fraction(1), 0: Fraction(-1)}, var="y")
    for d in divisors(n):
        if d == n:
            continue
        quotient, remainder = poly_divmod(numerator, _cyclotomic(d))
        if not remainder.is_zero():
            raise MathCheckError("cyclotomic division left a remainder", {"n": n})
        numerator = quotient
    return numerator


def _check_factorization(name, ring, xs, expected, upto):
    us = invert_zeta(ring, xs, upto=upto)
    for d in range(1, upto + 1):
        want = expected(d)
        if not ring.eq(us[d - 1], ring.from_int(want) if isinstance(want, int) else want):
            raise MathCheckError(
                "factorization row failed",
                {"row": name, "degree": d,
                 "got": str(us[d - 1]), "expected": str(want)},
            )
    return {"row": name, "max_degree": upto, "checked": upto}


# The rows inverted over Z: (row, default degree, x_1 .. x_upto from upto,
# predicted u_d).
_INTEGER_ROWS = (
    ("partition-numbers", 12,
     lambda upto: [partition_count_bounded(k, k) for k in range(1, upto + 1)], lambda d: 1),
    ("type-counts", 12, lambda upto: hilbert_type_counts(upto)[1:], lambda d: len(divisors(d))),
    ("thue-morse", 16, lambda upto: [(-1) ** bin(k).count("1") for k in range(1, upto + 1)],
     lambda d: -1 if d & (d - 1) == 0 else 0),
    ("level-eleven", 22, lambda upto: euler_product(
        {d: 4 if d % 11 == 0 else 2 for d in range(1, upto + 1)}, upto)[1:],
     lambda d: -4 if d % 11 == 0 else -2),
    ("discriminant", 12,
     lambda upto: euler_product(dict.fromkeys(range(1, upto + 1), 24), upto)[1:],
     lambda d: -24),
    ("pentagonal", 15,
     lambda upto: euler_product(dict.fromkeys(range(1, upto + 1), 1), upto)[1:],
     lambda d: -1),
)


def _row_artin_hasse(p, upto=12):
    # exp(sum over j of t^(p^j) / p^j): its power sums are 1 at the powers of p
    ps = [QQ.zero()] * upto
    power = 1
    while power <= upto:
        ps[power - 1] = QQ.one()
        power *= p
    xs = from_power_sums(QQ, ps, upto)
    return _check_factorization(
        "artin-hasse-%d" % p, QQ, xs,
        lambda d: Fraction(0) if d % p == 0 else Fraction(moebius(d), d), upto)


def _row_cyclotomic(max_n=12):
    ring = IntegerRing()
    for n in range(1, max_n + 1):
        poly = _cyclotomic(n)
        constant = poly.evaluate(Fraction(0))
        coeffs = [poly.coeffs.get(k, Fraction(0)) / constant for k in range(n + 1)]
        xs = [int(c) for c in coeffs[1:]]
        us = invert_zeta(ring, xs, upto=n)
        for d in range(1, n + 1):
            want = -moebius(n // d) if n % d == 0 else 0
            if us[d - 1] != want:
                raise MathCheckError(
                    "factorization row failed",
                    {"row": "cyclotomic", "n": n, "degree": d,
                     "got": us[d - 1], "expected": want},
                )
    return {"row": "cyclotomic", "max_degree": max_n, "checked": max_n}


def verify_factorization(max_degree=None):
    """Run every product-factorization row, optionally capping the degree.

    Each row inverts an independently computed coefficient sequence and
    compares against the predicted exponents; any mismatch raises
    MathCheckError.  Returns one summary dict per row.
    """

    def cap(default):
        return default if max_degree is None else max(1, min(default, max_degree))

    rows = [_check_factorization(name, IntegerRing(), xs(cap(upto)), expected, cap(upto))
            for name, upto, xs, expected in _INTEGER_ROWS]
    return rows + [_row_artin_hasse(2, cap(12)), _row_artin_hasse(3, cap(12)),
                   _row_cyclotomic(cap(12))]


# ---------------------------------------------------------------------------
# sum rules for the inverse top column


def inverse_sum_checks(d):
    """Three sum rules for the inverse-table column at lam = (d).

    * the entries at unramified types sum to 1/d;
    * for d >= 3, the length-weighted unramified sum cancels against the
      entries at types with one squared part adjoined;
    * for each k, the entries at ALL length-k types sum to
      (1/d) (-1)^(k+1) sum over e | d of mu(d/e) C(e, k).
    """
    if d < 2:
        raise ValueError("the sum rules start at degree 2")
    column = top_column_inverse(d)

    unramified_sum = sum(
        (value for tau, value in column.items() if tau.is_unramified()),
        Fraction(0),
    )
    if unramified_sum != Fraction(1, d):
        raise MathCheckError("unramified column sum is not 1/d",
                             {"degree": d, "sum": str(unramified_sum)})

    if d >= 3:
        square = SplittingType([(1, 2)])
        weighted = sum(
            (value * tau.length() for tau, value in column.items()
             if tau.is_unramified()),
            Fraction(0),
        )
        for tau in enumerate_types(d - 2):
            if tau.is_unramified():
                weighted += column[tau.union(square)]
        if weighted:
            raise MathCheckError("length-weighted column sum does not cancel",
                                 {"degree": d, "sum": str(weighted)})

    for k in range(1, d + 1):
        length_sum = sum(
            (value for tau, value in column.items() if tau.length() == k),
            Fraction(0),
        )
        expected = Fraction((-1) ** (k + 1), d) * sum(
            moebius(d // e) * math.comb(e, k) for e in divisors(d)
        )
        if length_sum != expected:
            raise MathCheckError(
                "length-k column sum mismatch",
                {"degree": d, "length": k,
                 "sum": str(length_sum), "expected": str(expected)},
            )

    return {"degree": d, "checked": d + 2}


# ---------------------------------------------------------------------------
# verification suites


def verify_identities(max_degree=None):
    """Structural identities: the mass identity, the inverse-column sum
    rules, the Hilbert series of the type algebra, and the agreement of
    the neighbor-generated order with the arrangement order."""
    cap = 8 if max_degree is None else max_degree
    out = []
    for d in range(1, min(cap, MAX_MASS_DEGREE) + 1):
        mass_identity(d)
        out.append({"check": "mass-identity", "degree": d})
    for d in range(2, min(cap, 8) + 1):
        result = inverse_sum_checks(d)
        out.append({"check": "inverse-sums", "degree": d,
                    "entries": result["checked"]})

    order = min(cap, 12)
    counts = hilbert_type_counts(order)
    series = forward_zeta(IntegerRing(),
                          [len(divisors(d)) for d in range(1, order + 1)])
    if counts[1:] != series:
        raise MathCheckError("type counts disagree with the product expansion",
                             {"enumerated": counts[1:], "series": series})
    out.append({"check": "hilbert-series", "degree": order})

    for d in range(2, min(cap, 6) + 1):
        closure = {(tau, lam) for tau, above in reachability_order(d).items() for lam in above}
        diff = poset(d) ^ closure
        if diff:
            tau, lam = min(diff, key=lambda pair: tuple(map(canonical_sort_key, pair)))
            raise MathCheckError(
                "neighbor order disagrees with arrangement order",
                {"degree": d, "tau": tau.label(), "lam": lam.label()},
            )
        out.append({"check": "poset-agreement", "degree": d})
    return out


def verify_oracles(max_degree=None):
    """Independent recomputations: the free-monoid oracle for the tables
    and the brute-force count of transitive tuples."""
    cap = 5 if max_degree is None else max_degree
    out = []
    for d, generators in ((3, (1, 2)), (4, (1, 1, 2)), (5, (1, 2, 3))):
        if d > cap:
            continue
        result = monoid_oracle(d, list(generators))
        if not result["ok"]:
            raise MathCheckError("monoid oracle failed", result["failure"])
        out.append({"check": "monoid", "degree": d,
                    "generators": list(generators),
                    "entries": result["checked"]})
    for d, r in ((2, 2), (3, 2), (4, 2), (3, 3)):
        if d > cap:
            continue
        formula = transitive_tuples(d, r)
        brute = transitive_oracle(d, r)
        if formula != brute:
            raise MathCheckError(
                "transitive-tuple count disagrees with brute force",
                {"letters": d, "rank": r, "formula": formula, "oracle": brute},
            )
        out.append({"check": "transitive", "letters": d, "rank": r,
                    "count": formula})
    return out
