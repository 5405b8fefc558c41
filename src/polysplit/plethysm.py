"""Zeta-sequence inversion and graded plethysm over lambda rings.

Given a sequence x_1, x_2, ... in a ring with Adams operations, the
associated zeta series is inverted degree by degree:

    d * u_d = sum over m | d of mu(d/m) * psi_(d/m)(P_m),

where P_m is the Newton polynomial rewriting the m-th power sum in terms
of x_1 ... x_m.  The forward direction rebuilds the x's from the u's via

    d * x_d = sum over i = 1..d of P_i * x_(d-i),
    P_i = sum over k | i of k * psi_(i/k)(u_k).

Both recurrences are Newton's identity, the series kernel
``rings.power_sums`` / ``rings.from_power_sums``, whose every degree is one
``ring.dot``, a sum of products; each Moebius or divisor sum is one
``ring.adams_sum`` over the divisors of one sieve.  Both directions divide
by d exactly and raise MathCheckError when the division does not land back
in the ring.

The same machinery evaluates polysymmetric elements on a sequence
(generic plethysm: the element in the H basis, with H_tau sent to the
closed stratum S_tau).  The virtual stratum U'_lam is the plethysm of the
monomial element M_lam.  Multinomial classes of configuration spaces and
power-free loci close the module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polysym import convert, monomial_element
from .rings import (
    MPolyRing,
    RING_TOKENS,
    check_range,
    exact_div,
    from_power_sums,
    power_sums,
    ring_from_token,
)

# every 5 degrees u_d gets about 3x the terms and 4x the time: 5,846 terms
# and 0.45 s at d = 30 on one core of a 2-vCPU host
MAX_SYMBOLIC_DEGREE = 30

# zeta inversion is quadratic in the number of values, each doubling about
# 4x: on one core of a 2-vCPU host, 1,000 unit values invert in 0.02-0.03 s
# over Z, 0.03-0.05 s over Q and 0.06-0.07 s over pairs, and expand forward
# in about twice as long
MAX_SEQUENCE_TERMS = 1000


# ---------------------------------------------------------------------------
# exact combinations


def _rational_combination(ring, pairs, context):
    """Sum of coeff * element with rational coeffs, via a common denominator."""
    pairs = [(Fraction(c), v) for c, v in pairs if c]
    if not pairs:
        return ring.zero()
    scale = math.lcm(*[c.denominator for c, _ in pairs])
    total = ring.adams_sum([(int(c * scale), 1, v) for c, v in pairs])
    if scale == 1:
        return total
    return exact_div(ring, total, scale, context)


# ---------------------------------------------------------------------------
# the inversion and its inverse


def _sieve(upto):
    """(divisors, mu) for 0..upto: divisors[n] the sorted divisors of n and
    mu[n] the Moebius function, from mu(n) = -(sum of mu(m) over the proper
    divisors m of n), all in one pass over the multiples of each m."""
    divisors = [[] for _ in range(upto + 1)]
    mu = [0, 1] + [0] * (upto - 1)
    for m in range(1, upto + 1):
        for k in range(m, upto + 1, m):
            divisors[k].append(m)
            if k > m:
                mu[k] -= mu[m]
    return divisors, mu


def invert_zeta(ring, values, upto=None):
    """Recover u_1 ... u_upto from x_1 ... x_N.

    Divisions by the degree must be exact in the ring; a failure raises
    MathCheckError carrying the offending degree.
    """
    xs = list(values)
    upto = len(xs) if upto is None else upto
    check_range("upto", upto, len(xs))
    powers = power_sums(ring, xs, upto)
    divisors, mu = _sieve(upto)
    us = []
    for d in range(1, upto + 1):
        total = ring.adams_sum([(mu[d // m], d // m, powers[m - 1])
                                for m in divisors[d] if mu[d // m]])
        us.append(exact_div(ring, total, d, {"degree": d, "direction": "invert"}))
    return us


def forward_zeta(ring, values, upto=None):
    """Rebuild x_1 ... x_upto from u_1 ... u_N."""
    us = list(values)
    upto = len(us) if upto is None else upto
    check_range("upto", upto, len(us))
    divisors, _ = _sieve(upto)
    big_p = [ring.adams_sum([(k, i // k, us[k - 1]) for k in divisors[i]])
             for i in range(1, upto + 1)]
    return from_power_sums(ring, big_p, upto, "forward")


def symbolic_inverse(d):
    """u_1 ... u_d as polynomials in indeterminates x_1 ... x_d with all
    Adams operations trivial."""
    check_range("symbolic degree", d, MAX_SYMBOLIC_DEGREE)
    ring = MPolyRing(d, adams_mode="trivial")
    xs = [ring.variable(i) for i in range(d)]
    return ring, invert_zeta(ring, xs)


# ---------------------------------------------------------------------------
# strata attached to splitting types


def stratum_closed(ring, xs, tau):
    """S_tau: the product over parts (b, m) of psi_m(x_b)."""
    total = ring.one()
    for b, m in tau.parts:
        if b > len(xs):
            raise ValueError("need x_1..x_%d for this type" % b)
        total = ring.mul(total, ring.adams(m, xs[b - 1]))
    return total


def _evaluate_h(ring, xs, element, context):
    """The element rewritten in the H basis, with each H_tau evaluated to
    the closed stratum S_tau."""
    pairs = [(coeff, stratum_closed(ring, xs, tau))
             for tau, coeff in convert(element, "H").terms.items()]
    return _rational_combination(ring, pairs, context)


def virtual_stratum(ring, xs, lam):
    """U'_lam: the plethysm of the monomial element M_lam, a combination of
    the closed strata below lam through the inverse arrangement table.  It
    reads that table through ``incidence_table``, so it reads and writes the
    table disk cache unless run inside ``caches_bypassed()``."""
    return _evaluate_h(ring, xs, monomial_element(lam),
                       {"type": lam.label(), "op": "virtual_stratum"})


def generic_plethysm(ring, xs, element):
    """Evaluate a polysymmetric element on the sequence x_1, x_2, ...

    The element is rewritten in the H basis, whose basis vector at a type
    tau evaluates to the product over the parts (b, m) of psi_m(x_b).
    """
    return _evaluate_h(ring, xs, element, {"op": "generic_plethysm"})


# ---------------------------------------------------------------------------
# multinomial classes, configuration spaces, binomial strata


def multinomial(ring, x, counts):
    """binom(x; n_1, ..., n_r) = x (x-1) ... (x-N+1) / prod n_i!  for N the
    total count; the falling factorial is divided exactly."""
    counts = list(counts)
    if any(n < 0 for n in counts):
        raise ValueError("counts must be nonnegative")
    total = sum(counts)
    product = ring.one()
    for j in range(total):
        product = ring.mul(product, ring.sub(x, ring.from_int(j)))
    denominator = 1
    for n in counts:
        denominator *= math.factorial(n)
    if denominator == 1:
        return product
    return exact_div(ring, product, denominator,
                     {"op": "multinomial", "counts": counts})


def binomial_strata(ring, us, tau):
    """Stratum class in a binomial ring: the product over distinct part
    degrees p of binom(u_p; counts of (p, 1), (p, 2), ...)."""
    total = ring.one()
    for p in tau.part_degrees():
        if p > len(us):
            raise ValueError("need u_1..u_%d for this type" % p)
        counts = list(tau.slot_multiplicities(p))
        while counts and counts[-1] == 0:
            counts.pop()
        total = ring.mul(total, multinomial(ring, us[p - 1], counts))
    return total


# ---------------------------------------------------------------------------
# power-free loci


def powerfree(ring, xs, n, shape):
    """Class of n-power-free tuples with degree vector ``shape``.

    Defined by removing a common n-th power divisor of each degree:

        Zpf(dvec) = x(dvec) - sum over b >= 1 with n*b <= min(dvec)
                    of Zpf(dvec - n*b) * x_b,

    where x(dvec) is the product of the x's over the components.
    """
    if n < 1:
        raise ValueError("the power must be positive")
    shape = tuple(shape)
    if not shape or any(d < 0 for d in shape):
        raise ValueError("the degree vector must be nonempty and nonnegative")
    if max(shape) > len(xs):
        raise ValueError("need x_1..x_%d for this shape" % max(shape))
    return _powerfree_class(ring, xs, n, shape, {})


def _powerfree_class(ring, xs, n, dvec, memo):
    """Zpf(dvec) by the recursion of ``powerfree``, memoized in memo.  It
    recurses at module level, so a call leaves no reference cycle."""
    if dvec in memo:
        return memo[dvec]
    value = _x_product(ring, xs, dvec)
    smallest = min(dvec)
    b = 1
    while n * b <= smallest:
        shifted = tuple(d - n * b for d in dvec)
        value = ring.sub(value, ring.mul(_powerfree_class(ring, xs, n, shifted, memo), xs[b - 1]))
        b += 1
    memo[dvec] = value
    return value


def _x_product(ring, xs, dvec):
    """x(dvec): the product of x_d over the nonzero components d of dvec."""
    total = ring.one()
    for d in dvec:
        if d:
            total = ring.mul(total, xs[d - 1])
    return total


# ---------------------------------------------------------------------------
# serialized sequences


class MeasureSequence:
    """A ring together with the values x_1 ... x_N (or u_1 ... u_N)."""

    ROLES = ("closed", "irreducible")

    __slots__ = ("ring", "values", "role")

    def __init__(self, ring, values, role="closed"):
        if role not in self.ROLES:
            raise ValueError("unknown role %r" % (role,))
        self.ring = ring
        self.values = list(values)
        self.role = role

    def to_json(self):
        if self.ring.name not in RING_TOKENS:
            raise ValueError("ring %r has no serialization token" % self.ring.name)
        return {
            "ring": self.ring.name,
            "role": self.role,
            "values": [self.ring.to_json(v) for v in self.values],
        }

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "ring" not in data or "values" not in data:
            raise ValueError('a values file must be an object with "ring" and "values"')
        check_range("number of values", len(data["values"]), MAX_SEQUENCE_TERMS)
        token = data["ring"]
        order = None
        if token == "witt":
            order = data["values"][0].get("order")
        ring = ring_from_token(token, order=order)
        values = [ring.from_json(v) for v in data["values"]]
        return cls(ring, values, data.get("role", "closed"))
