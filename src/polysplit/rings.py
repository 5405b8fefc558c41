"""Exact arithmetic foundation.

Every computation in the package runs over a ring described by a
:class:`RingDescriptor`: a commutative ring with exact arithmetic, Adams
operations ``psi_r``, and an optional exact-division-by-integer.  The shipped
rings are the trivial-Adams integers and rationals, sparse polynomial rings
over Z and Q with Frobenius Adams (``w -> w^r``), the univariate rational
function field over Q, the pair ring Z x Z, the truncated big Witt ring
of Q, and a multivariate polynomial ring over Q used for symbolic runs.

No floating point is used anywhere; all scalars are ints or
``fractions.Fraction``.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from fractions import Fraction
from itertools import accumulate, compress, repeat


class MathCheckError(ValueError):
    """A mathematically guaranteed property failed to hold at runtime.

    Raised for integrality failures, non-cancelling denominators, and
    verification-suite mismatches; the CLI maps it to exit code 2.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail or {}


# ---------------------------------------------------------------------------
# number-theory and partition helpers


def divisor_sieve(n):
    """(divisors, mu) for 0..n: divisors[k] the sorted divisors of k and
    mu[k] the Moebius function, from mu(k) = -(sum of mu(m) over the proper
    divisors m of k), all in one pass over the multiples of each m."""
    if n < 1:
        raise ValueError("divisors and mu need n >= 1")
    divisors = [[] for _ in range(n + 1)]
    mu = [0, 1] + [0] * (n - 1)
    for m in range(1, n + 1):
        for k in range(m, n + 1, m):
            divisors[k].append(m)
            if k > m:
                mu[k] -= mu[m]
    return divisors, mu


def divisors(n):
    """Sorted list of positive divisors of n."""
    return divisor_sieve(n)[0][n]


def moebius(n):
    """The Moebius function mu(n)."""
    return divisor_sieve(n)[1][n]


def weighted_vectors(weights, caps, total):
    """Every vector v with sum v_i * weights[i] = total and 0 <= v_i <= caps[i],
    as tuples in decreasing lexicographic order; weights are positive."""
    out = []
    _extend_vector(weights, caps, [0] * len(weights), 0, total, out)
    return out


def _extend_vector(weights, caps, v, i, remaining, out):
    """Append to out every vector that agrees with v before i and whose
    entries from i on, each at most its cap, weigh remaining, larger
    entries first.  It recurses at module level: no reference cycle."""
    if remaining == 0:
        out.append(tuple(v))
        return
    if i == len(weights):
        return
    for value in range(min(remaining // weights[i], caps[i]), -1, -1):
        v[i] = value
        _extend_vector(weights, caps, v, i + 1, remaining - value * weights[i], out)
    v[i] = 0


def partitions(m):
    """All partitions of m as multiplicity tuples (n_1, ..., n_m).

    n_k is the number of parts equal to k, so sum(k * n_k) = m.  The empty
    tuple is the one partition of m = 0.
    """
    if m < 0:
        raise ValueError("partitions requires m >= 0")
    return weighted_vectors(range(1, m + 1), [m] * m, m)


def euler_product(exponents, upto):
    """Integer coefficients through t^upto of prod_d (1 - t^d)^(e_d) for
    exponents {d: e_d}, d >= 1.  A positive e_d multiplies, by descending
    differences; a negative one divides, by ascending prefix sums with
    stride d, since 1/(1 - t^d) = sum t^(jd)."""
    coeffs = [1] + [0] * upto
    for d, e in exponents.items():
        if d < 1:
            raise ValueError("factors must have positive degree")
        for _ in range(e):
            for k in range(upto, d - 1, -1):
                coeffs[k] -= coeffs[k - d]
        for _ in range(-e):
            for k in range(d, upto + 1):
                coeffs[k] += coeffs[k - d]
    return coeffs


def partition_count_bounded(k, max_parts):
    """Number of partitions of k into at most max_parts parts: by conjugation,
    into parts of size at most max_parts."""
    return euler_product(dict.fromkeys(range(1, max_parts + 1), -1), k)[k]


def check_range(what, value, cap):
    """Reject an input outside 1 .. cap with "<what> must be between 1 and cap"."""
    if not 1 <= value <= cap:
        raise ValueError("%s must be between 1 and %d" % (what, cap))


# ---------------------------------------------------------------------------
# rational JSON helpers


_ZERO = Fraction(0)


def parse_rational(text):
    """Parse "p/q" or "p" into a Fraction; every "0" gives one shared zero."""
    if text == "0":
        return _ZERO
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected rational string, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(x):
    """Render a Fraction (or int) as "p/q", or "p" when the denominator is 1."""
    if type(x) is not int and type(x) is not Fraction:
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# sparse term dicts: the one kernel behind Poly, MPoly and polysym elements,
# each a map from monomial keys to nonzero coefficients


def add_terms(out, pairs):
    """Add the (key, coeff) pairs into the term dict ``out`` in place,
    dropping every key whose coefficient cancels to zero; returns ``out``."""
    get = out.get
    for key, c in pairs:
        s = get(key)
        if s is not None:
            c = s + c
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def sparse_dot(pairs, combine):
    """Sum of the products a * b over the (a, b) pairs of term dicts, whose
    keys multiply by ``combine``, in one term dict."""
    out = {}
    for a, b in pairs:
        items = b.items()
        for k1, c1 in a.items():
            add_terms(out, [(combine(k1, k2), c1 * c2) for k2, c2 in items])
    return out


def sparse_mul(a, b, combine):
    """Product of the term dicts a and b: the one-pair :func:`sparse_dot`."""
    return sparse_dot([(a, b)], combine)


def _ints(terms, keys=None):
    """Turn the integral Fractions of terms (at keys, or all) into ints in
    place; with no Fraction among those values it returns at once."""
    values = terms.values() if keys is None else map(terms.get, keys)
    if Fraction not in set(map(type, values)):
        return terms
    for e in terms if keys is None else keys:
        c = terms.get(e)
        if type(c) is Fraction and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _scaled(terms, c):
    """The term dict c * terms, an int wherever the product is integral."""
    if type(c) is not int:
        c = Fraction(c)
    return _ints({k: v * c for k, v in terms.items()}) if c else {}


def _half_slots(count, width):
    """The int with half the slot base, 2**(8 * width - 1), in each of
    ``count`` slots of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


# the native order of the words of an array, least significant first
_LITTLE = sys.byteorder == "little"


def _slot_width(bound):
    """Bytes a slot for slot values of magnitude at most ``bound``: at least
    one 64-bit word, so that the word codec of :func:`_pack` runs."""
    return max(8, bound.bit_length() // 8 + 1)


def _pack(dense, width):
    """The int sum of dense[i] * 2**(8 * width * i) for slot values in
    [-2**(8 * width - 1), 2**(8 * width - 1)).  The slots are laid out in
    two's complement, one-word slots as an array of words so that no Python
    call runs per slot, and their top bits, flipped, give the offset slots
    c + 2**(8 * width - 1) of one unsigned int."""
    half = _half_slots(len(dense), width)
    if width == 8:
        raw, order = array("q", dense if _LITTLE else dense[::-1]), sys.byteorder
    else:
        raw, order = b"".join([c.to_bytes(width, "little", signed=True) for c in dense]), "little"
    return (int.from_bytes(raw, order) ^ half) - half


def _unpack(value, count, width):
    """The ``count`` signed slot values whose :func:`_pack` is value;
    OverflowError when value has no such form."""
    half = _half_slots(count, width)
    order = sys.byteorder if width == 8 else "little"
    raw = ((value + half) ^ half).to_bytes(count * width, order)
    if width == 8:
        words = memoryview(raw).cast("q").tolist()
        return words if _LITTLE else words[::-1]
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, len(raw), width)]


def _slot_terms(slots, low=0):
    """The term dict {low + i: slots[i]} of the nonzero slots."""
    return dict(zip(compress(range(low, low + len(slots)), slots), filter(None, slots)))


def _pays_to_pack(a, b):
    """Term pairs less exponent slots of the product of the nonempty term
    dicts a and b: a sum of products is packed only when the sum of these is
    positive, as the schoolbook product costs one coefficient product per
    term pair and the packed one a few int operations per exponent slot."""
    return len(a) * len(b) - (max(a) - min(a) + max(b) - min(b) + 1)


def packed_dot(pairs):
    """Sum of the products a * b over a nonempty list of (a, b) pairs of
    nonzero Polys, as a term dict, by Kronecker substitution: every
    operand's integer form (:meth:`Poly._integer_form`) is packed into one
    int with a slot of ``width`` bytes per exponent, each pair's packed
    product is scaled to one common denominator (the lcm of the products'
    denominators) and shifted by its lowest exponent, and the slots of the
    packed sum are read back once.

    A slot holds any |c| < 2**(8 * width - 1); no coefficient of one product
    exceeds max|a| * max|b| * min(len(a), len(b)), so none of the sum exceeds
    the sum of those bounds, each times its product's scale.
    """
    products = []  # (denominator, lowest key, dense a, dense b, bound on the product, slot count)
    for a, b in pairs:
        den_a, low_a, dense_a, top_a = a._integer_form()
        den_b, low_b, dense_b, top_b = b._integer_form()
        products.append((den_a * den_b, low_a + low_b, dense_a, dense_b,
                         top_a * top_b * min(len(a.coeffs), len(b.coeffs)),
                         len(dense_a) + len(dense_b) - 1))
    den = math.lcm(*[d for d, *_ in products])
    low = min(lo for _, lo, *_ in products)
    bound = slots = 0
    for d, lo, _, _, top, span in products:
        bound += top * (den // d)
        slots = max(slots, lo - low + span)
    width = _slot_width(bound)
    total = 0
    for d, lo, a, b, *_ in products:
        total += _pack(a, width) * _pack(b, width) * (den // d) << 8 * width * (lo - low)
    terms = _slot_terms(_unpack(total, slots, width), low)
    return terms if den == 1 else _over(terms.items(), den)


def show_terms(pairs):
    """Signed-term text for (monomial text, coeff) pairs in display order.

    The monomial text is "" for a constant term; a coefficient of magnitude
    one is left out in front of a monomial.
    """
    pieces = []
    for mono, c in pairs:
        mag = abs(c)
        if not mono:
            body = format_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = format_rational(mag) + "*" + mono
        if pieces:
            pieces.append(("+ " if c > 0 else "- ") + body)
        else:
            pieces.append(body if c > 0 else "-" + body)
    return " ".join(pieces) or "0"


class _Terms:
    """The term-dict body of Poly and MPoly over ``coeffs``; each class has
    its own ``__init__``, ``_new`` and ``__mul__``."""

    __slots__ = ("coeffs",)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        terms = add_terms(dict(self.coeffs), other.coeffs.items())
        return self._new(_ints(terms, other.coeffs))

    def __neg__(self):
        return self._new({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._new(_scaled(self.coeffs, c))

    def __eq__(self, other):
        # a Poly never equals an MPoly
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))


# ---------------------------------------------------------------------------
# sparse univariate polynomials


class Poly(_Terms):
    """Sparse univariate polynomial over Q: an integral coefficient is an
    int, any other a Fraction, so a polynomial over Z computes on ints.

    ``_form`` keeps the integer form that the packed products, the integer
    series and the gcd steps read, built on first use
    (:meth:`_integer_form`); it stays valid because no code changes
    ``coeffs`` after ``__init__`` or ``_new``."""

    __slots__ = ("var", "_form")

    def __init__(self, coeffs=None, var="w"):
        self.var = var
        clean = {}
        if coeffs:
            for exp, c in coeffs.items():
                if type(c) is not int:
                    c = Fraction(c)
                if c != 0:
                    if exp < 0:
                        raise ValueError("negative exponent in polynomial")
                    clean[int(exp)] = c
        self.coeffs = _ints(clean)
        self._form = None

    def _new(self, coeffs):
        """A polynomial in the same variable over an already clean term dict."""
        result = Poly.__new__(Poly)
        result.var = self.var
        result.coeffs = coeffs
        result._form = None
        return result

    def _integer_form(self):
        """(lcm D of the denominators, lowest exponent, dense list of the
        numerators over D from the lowest exponent to the highest, zero in
        every gap, largest |numerator|) of a nonzero polynomial."""
        if self._form is None:
            terms = self.coeffs
            low, high = min(terms), max(terms)
            if Fraction in set(map(type, terms.values())):
                den = math.lcm(*[c.denominator for c in terms.values()])
                dense = [0] * (high - low + 1)
                for e, c in terms.items():
                    dense[e - low] = c.numerator * (den // c.denominator)
            else:
                den, dense = 1, list(map(terms.get, range(low, high + 1), repeat(0)))
            self._form = (den, low, dense, max(map(abs, dense)))
        return self._form

    @classmethod
    def const(cls, c, var="w"):
        return cls({0: c}, var=var)

    @classmethod
    def variable(cls, var="w"):
        return cls({1: 1}, var=var)

    def degree(self):
        """Degree, with the zero polynomial mapped to -1."""
        return max(self.coeffs) if self.coeffs else -1

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs.values())

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if a and b and _pays_to_pack(a, b) > 0:
            return self._new(packed_dot([(self, other)]))
        return self._new(_ints(sparse_mul(a, b, operator.add)))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1, var=self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute_power(self, r):
        """The Frobenius substitution w -> w^r."""
        if r < 1:
            raise ValueError("substitution power must be >= 1")
        return self._new({e * r: c for e, c in self.coeffs.items()})

    def evaluate(self, value):
        value = Fraction(value)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * value**e
        return total

    def to_json(self):
        return {
            "var": self.var,
            "coeffs": {str(e): format_rational(c) for e, c in sorted(self.coeffs.items())},
        }

    @classmethod
    def from_json(cls, obj, var="w"):
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise ValueError("polynomial JSON must be {'var': ..., 'coeffs': {...}}")
        return cls(
            {int(e): parse_rational(c) for e, c in obj["coeffs"].items()},
            var=obj.get("var", var),
        )

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        def mono(e):
            return "" if e == 0 else self.var if e == 1 else f"{self.var}^{e}"
        return show_terms((mono(e), self.coeffs[e]) for e in sorted(self.coeffs, reverse=True))


def _dense_ints(p):
    """(D, dense) with p = sum of dense[e] * w^e / D over e = 0 .. deg p, where
    D is the lcm of the denominators of p; (1, []) for the zero polynomial."""
    if not p.coeffs:
        return 1, []
    den, low, dense, _ = p._integer_form()
    return den, [0] * low + dense


def _over(pairs, d):
    """The term dict {e: c / d} of (e, c) pairs with c nonzero: an int where
    d divides an int c, else one Fraction."""
    return {e: c // d if type(c) is int and not c % d else Fraction(c, d) for e, c in pairs}


def _dense_over(p, dense, d):
    """The polynomial in the variable of p with coefficient dense[e] / d at each e."""
    return p._new(_over([(e, c) for e, c in enumerate(dense) if c], d))


def _pseudo_divmod(a, b):
    """Pseudo-division of dense int lists, b without a zero leading entry:
    (s, q, r) with s * a = q * b + r and len(r) < len(b), r trimmed.

    Each step subtracts t * w^k * b to clear the leading entry c of the
    running remainder; when the leading entry lb of b does not divide c,
    the remainder and quotient are first scaled by lb / gcd(c, lb), so an
    exact quotient over Z runs with s = 1 and no scaling at all."""
    r = list(a)
    m = len(b) - 1
    lb = b[-1]
    s, q = 1, [0] * max(len(r) - m, 0)
    for i in range(len(r) - 1, m - 1, -1):
        c = r[i]
        if not c:
            continue
        t, rem = divmod(c, lb)
        if rem:
            g = math.gcd(c, lb)
            f, t = lb // g, c // g
            s *= f
            r[:i] = [x * f for x in r[:i]]
            q = [x * f for x in q]
        k = i - m
        q[k] = t
        r[k:i] = [x - t * y for x, y in zip(r[k:i], b)]
    del r[m:]
    while r and not r[-1]:
        r.pop()
    return s, q, r


def _primitive(a):
    """The dense int list a divided by the gcd of its entries."""
    content = math.gcd(*a)
    return a if content == 1 else [x // content for x in a]


def _int_gcd(a, b):
    """A primitive gcd over Z of the dense int lists a and b, not both empty,
    by pseudo-remainders taken to their primitive parts; its sign is open."""
    a, b = _primitive(a), _primitive(b)
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, _primitive(_pseudo_divmod(a, b)[2])
    return a


def _exact_quo(p, g):
    """p / g for a Poly p that the primitive dense int list g divides: by
    Gauss's lemma the quotient is integral, so no pseudo-division step scales."""
    den, dense = _dense_ints(p)
    return _dense_over(p, _pseudo_divmod(dense, g)[1], den)


def _cancel(p, q):
    """(p / g, q / g) for g a primitive gcd of the Polys p and q, q nonzero."""
    g = _int_gcd(_dense_ints(p)[1], _dense_ints(q)[1])
    return (p, q) if len(g) == 1 else (_exact_quo(p, g), _exact_quo(q, g))


def _monic(num, den):
    """(num / c, den / c) for c the leading coefficient of den."""
    c = den.coeffs[den.degree()]
    return (num, den) if c == 1 else (num.scale(1 / Fraction(c)), den.scale(1 / Fraction(c)))


def poly_divmod(a, b):
    """Polynomial division with remainder over Q."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    den_a, dense_a = _dense_ints(a)
    den_b, dense_b = _dense_ints(b)
    # den_a * s * a = q * (den_b * b) + r
    s, q, r = _pseudo_divmod(dense_a, dense_b)
    return (_dense_over(a, [c * den_b for c in q], s * den_a),
            _dense_over(a, r, s * den_a))


# ---------------------------------------------------------------------------
# rational functions over Q


class RatFunc:
    """Univariate rational function over Q in normal form.

    The denominator is monic and coprime to the numerator; zero is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly.const(1, var=num.var)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = _monic(*_cancel(num, den))

    @classmethod
    def _new(cls, num, den):
        """The rational function num / den, already in normal form."""
        result = cls.__new__(cls)
        result.num = num
        result.den = den
        return result

    @classmethod
    def from_poly(cls, p):
        return cls._new(p, Poly.const(1, var=p.var))

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree() == 0

    def as_poly(self):
        if not self.is_polynomial():
            raise ValueError("rational function is not a polynomial")
        return self.num

    def __add__(self, other):
        # Henrici: for g = gcd(b, d), a/b + c/d = t / (b' d) with b' = b/g, d' = d/g
        # and t = a d' + c b', which shares only h = gcd(t, g) with b' d
        a, b, c, d = self.num, self.den, other.num, other.den
        g = _int_gcd(_dense_ints(b)[1], _dense_ints(d)[1])
        if len(g) == 1:
            return RatFunc._new(a * d + c * b, b * d)
        b1 = _exact_quo(b, g)
        t = a * _exact_quo(d, g) + c * b1
        if t.is_zero():
            return RatFunc.from_poly(t)
        h = _int_gcd(_dense_ints(t)[1], g)
        if len(h) > 1:
            t, d = _exact_quo(t, h), _exact_quo(d, h)
        return RatFunc._new(*_monic(t, b1 * d))

    def __neg__(self):
        return RatFunc._new(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # a/b * c/d with gcd(a, d) and gcd(c, b) cancelled first
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return self if a.is_zero() else other
        (a, d), (c, b) = _cancel(a, d), _cancel(c, b)
        return RatFunc._new(*_monic(a * c, b * d))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def substitute_power(self, r):
        # w -> w^r maps a Bezout identity u num + v den = 1 to one for the
        # images, and a monic denominator to a monic one
        return RatFunc._new(self.num.substitute_power(r), self.den.substitute_power(r))

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, dict) and "num" in obj:
            return cls(Poly.from_json(obj["num"]), Poly.from_json(obj["den"]))
        return cls.from_poly(Poly.from_json(obj))

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


# ---------------------------------------------------------------------------
# series kernels over a ring descriptor; a series is the list of its
# coefficients up to ``order``.  Newton's identity between the coefficients
# x_1, x_2, ... of 1 + sum x_k t^k and its power sums
# P_n = n [t^n] log(1 + sum x_k t^k),
#
#     n * x_n = sum over i = 1..n of P_i * x_(n-i),    x_0 = 1,
#
# is the one kernel behind zeta inversion, Witt coordinates, log and exp.
# Each degree is one ``ring.dot``, a sum of products that a descriptor may
# compute in one pass; over Q and over dense integral Poly sequences the
# whole series runs on one int per value (:func:`_int_series`).


def exact_div(ring, x, d, detail=None):
    """x / d in the ring; MathCheckError when the quotient leaves the ring."""
    result = ring.exact_div_by_int(x, d)
    if result is None:
        raise MathCheckError("exact division by %d failed" % d, detail)
    return result


def power_sums(ring, xs, upto):
    """[P_1, ..., P_upto] from x_1 ... x_upto, without a division:
    P_n = n * x_n - sum over i = 1..n-1 of x_i * P_(n-i)."""
    ps = _int_series(ring, xs, upto, False)
    if ps is not None:
        return ps
    ps = []
    for n in range(1, upto + 1):
        p = ring.scalar_mul_int(n, xs[n - 1])
        # P_1 is x_1 as given: subtracting an empty dot would cut a Witt x_1
        # to the ring's order
        ps.append(ring.sub(p, ring.dot(xs[:n - 1], ps[::-1])) if ps else p)
    return ps


def from_power_sums(ring, ps, upto, direction=None):
    """[x_1, ..., x_upto] from P_1 ... P_upto, dividing each n * x_n by n
    exactly; a failure carries {"degree": n, "direction": direction} when a
    direction is given.  Degrees past the prefix that :func:`_int_series`
    gives run one ``ring.dot`` each."""
    if len(ps) < upto:
        raise ValueError("need P_1..P_%d, got %d power sums" % (upto, len(ps)))
    xs = [ring.one()] + (_int_series(ring, ps, upto, True) or [])
    for n in range(len(xs), upto + 1):
        detail = None if direction is None else {"degree": n, "direction": direction}
        xs.append(exact_div(ring, ring.dot(ps[:n], xs[::-1]), n, detail))
    return xs[1:]


def _int_series(ring, values, upto, divide):
    """The outputs of :func:`power_sums` (``divide`` false), or the longest
    prefix of those of :func:`from_power_sums` that stays in the ring, on
    one int per value, so that each degree is one int dot; None when the
    values have no int image.

    Over Q a value's int is its numerator over the lcm D of the
    denominators.  Over a PolyRing whose values have int coefficients only
    and whose series is dense (its input term pairs (x_i, x_j), i + j <=
    upto, outnumber the exponent slots of its outputs), it is the value at
    w = 2**(8 * width), and D = 1.  The outputs are kept as ints over one
    running denominator, which grows by what a new output's denominator
    adds, and each degree's int is decoded once: to a reduced Fraction,
    exact over Q, so that the series completes, or unpacked to a Poly and
    divided by n as the per-degree kernel divides it, the first quotient
    that is not integral ending the prefix.

    An output of degree n has degree at most D_n = max_i (deg x_i +
    D_(n-i)), D_0 = 0, and, as no coefficient of a * b exceeds |a|_1 max|b|,
    no coefficient beyond B_n = n max|x_n| + sum_(i<n) |x_i|_1 B_(n-i), or
    for the division B_n = T_n // n with T_n = sum_i |P_i|_1 B_(n-i) and
    B_0 = 1, the bound on the coefficients of S_n = sum_i P_i x_(n-i) and on
    an integral x_n = S_n / n.  Slots hold every B_n and T_n, so each
    degree's int is read back exactly."""
    values, den, width = values[:upto], 1, 0
    if isinstance(ring, RationalRing):
        den = math.lcm(*[v.denominator for v in values])
        given = [v.numerator * (den // v.denominator) for v in values]
    elif (not isinstance(ring, PolyRing) or len(values) < upto
          or any(Fraction in set(map(type, p.coeffs.values())) for p in values)):
        return None
    else:
        degrees = [p.degree() for p in values]
        tops = [0]  # D_0, D_1, ...
        for n in range(1, upto + 1):
            tops.append(max(map(operator.add, degrees[:n], reversed(tops))))
        lens = [len(p.coeffs) for p in values]
        pairs = sum(map(operator.mul, lens, reversed(list(accumulate(lens))[:upto - 1])))
        if pairs <= sum(tops[1:]) + upto:
            return None
        forms = [p._integer_form() if p.coeffs else (1, 0, [], 0) for p in values]
        norms = [sum(map(abs, dense)) for _, _, dense, _ in forms]
        bounds = [int(divide)]  # B_0, B_1, ...
        peak = 0
        for n in range(1, upto + 1):
            t = sum(map(operator.mul, norms[:n], reversed(bounds)))
            if not divide:
                t += n * forms[n - 1][3]
            peak = max(peak, t)
            bounds.append(t // n if divide else t)
        width = _slot_width(peak)
        given = [_pack(dense, width) << 8 * width * low for _, low, dense, _ in forms]
    kept, scale, out = [1] if divide else [], 1, []  # kept[k] / scale: x_k or P_(k+1)
    for n in range(1, upto + 1):
        s = sum(map(operator.mul, given[:n if divide else n - 1], reversed(kept)))
        if not divide:
            s = n * scale * given[n - 1] - s
        if width:
            x = values[0]._new(_slot_terms(_unpack(s, tops[n] + 1, width)))
            if divide:
                x = ring.exact_div_by_int(x, n)
                if x is None or Fraction in set(map(type, x.coeffs.values())):
                    break
                s //= n  # n divides every slot of s, so s // n packs x
            kept.append(s)
        else:
            x = Fraction(s, n * den * scale if divide else den * scale)
            grow = x.denominator // math.gcd(scale, x.denominator)
            if grow > 1:
                scale *= grow
                kept = list(map(operator.mul, kept, repeat(grow)))
            kept.append(x.numerator * (scale // x.denominator))
        out.append(x)
    return out


def ser_mul(ring, a, b, order):
    add, mul, zero = ring.add, ring.mul, ring.zero()
    out = [zero] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ring.eq(ai, zero):
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def ser_inv(ring, f, order):
    one = ring.one()
    if not ring.eq(f[0], one):
        raise ValueError("series inverse requires constant term 1")
    g = [one] + [ring.zero()] * order
    for n in range(1, order + 1):
        g[n] = ring.neg(ring.dot(f[1:n + 1], g[n - 1::-1]))
    return g


def ser_log(ring, f, order):
    """log f for f[0] = 1: its t^n coefficient is P_n / n."""
    if not ring.eq(f[0], ring.one()):
        raise ValueError("series log requires constant term 1")
    ps = power_sums(ring, f[1:], order)
    return [ring.zero()] + [exact_div(ring, p, n) for n, p in enumerate(ps, start=1)]


def ser_exp(ring, f, order):
    """exp f for f[0] = 0: the series whose power sums are n * f[n]."""
    if not ring.eq(f[0], ring.zero()):
        raise ValueError("series exp requires constant term 0")
    ps = [ring.scalar_mul_int(n, f[n]) for n in range(1, order + 1)]
    return [ring.one()] + from_power_sums(ring, ps, order)


# ---------------------------------------------------------------------------
# Witt vectors


class WittElement:
    """A truncated big Witt vector over Q: a series 1 + a_1 t + ... + a_N t^N.

    The element is stored by its ghost coordinates g_1..g_N, the power sums
    of its coefficients (log f = sum g_i t^i / i).  The ghost map is a ring
    isomorphism from W_N(Q) onto Q^N, so Witt addition (series
    multiplication) and Witt multiplication are both componentwise on
    ghosts; the coefficients a_k are computed only when asked for.
    """

    __slots__ = ("ghosts",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if not coeffs or coeffs[0] != 1:
            raise MathCheckError(
                "Witt element must have constant term 1",
                {"constant_term": str(coeffs[0]) if coeffs else None},
            )
        self.ghosts = power_sums(QQ, coeffs[1:], len(coeffs) - 1)

    @classmethod
    def from_ghost(cls, ghosts):
        x = cls.__new__(cls)
        x.ghosts = [Fraction(g) for g in ghosts]
        return x

    @property
    def order(self):
        return len(self.ghosts)

    @property
    def coeffs(self):
        """Series coefficients [1, a_1, ..., a_N]: the exp of sum g_i t^i / i."""
        return [Fraction(1)] + from_power_sums(QQ, self.ghosts, self.order)

    @classmethod
    def geometric(cls, a, order):
        """(1 - a t)^{-1} truncated at the given order; its ghosts are a^i."""
        a = Fraction(a)
        return cls.from_ghost([a**i for i in range(1, order + 1)])

    def ghost(self):
        """Ghost coordinates (g_1, ..., g_N)."""
        return list(self.ghosts)

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a Witt element")
        if order == self.order:
            return self
        return WittElement.from_ghost(self.ghosts[:order])

    def __eq__(self, other):
        return isinstance(other, WittElement) and self.ghosts == other.ghosts

    def __hash__(self):
        return hash(tuple(self.ghosts))

    def to_json(self):
        return {"order": self.order, "coeffs": [format_rational(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise ValueError("series JSON must be {'order': N, 'coeffs': [...]}")
        coeffs = [parse_rational(c) for c in obj["coeffs"]]
        order = int(obj.get("order", len(coeffs) - 1))
        if len(coeffs) != order + 1:
            raise ValueError("series coefficient list does not match its order")
        return cls(coeffs)

    def __repr__(self):
        return f"WittElement({[str(c) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# ring descriptors


class RingDescriptor:
    """A commutative ring with exact arithmetic and Adams operations.

    Contract: ``adams(1, x) = x``; adams is additive; for all shipped rings it
    is separable (``adams(a, adams(b, x)) = adams(ab, x)``).
    ``exact_div_by_int`` returns None (not an exception) when no exact
    quotient exists.  ``add``, ``neg``, ``mul``, ``eq`` and ``to_json``
    default to the elements' own operators and method; ``adams`` defaults to
    the trivial operation.  ``dot(xs, ys)``, the sum of the products
    ``xs[i] * ys[i]`` (zero for empty lists), defaults to ``sum`` over
    ``mul``; override it only with an exact equivalent.  Z (one int sum), Q
    (one common denominator), the pair ring (one int sum per component) and
    the Poly and MPoly rings (one term dict, :func:`sparse_dot`, or for dense
    Poly products one Kronecker-packed sum, :func:`packed_dot`) do.
    ``adams_sum(terms)``, the sum of ``n * psi_r(x)`` over (n, r, x) triples,
    defaults to ``scalar_mul_int``, ``adams`` and ``sum``; Z, Q and the pair
    ring take it as one ``dot``.
    """

    name = "abstract"

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        raise NotImplementedError

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        return x * y

    def eq(self, x, y):
        return x == y

    def adams(self, r, x):
        self._check_r(r)
        return x

    def exact_div_by_int(self, x, d):
        raise NotImplementedError

    def scalar_mul_int(self, n, x):
        if n == 1:
            return x
        return self.mul(self.from_int(n), x)

    def sum(self, elements):
        elements = iter(elements)
        total = next(elements, None)
        if total is None:
            return self.zero()
        for e in elements:
            total = self.add(total, e)
        return total

    def dot(self, xs, ys):
        return self.sum(map(self.mul, xs, ys))

    def adams_sum(self, terms):
        return self.sum(self.scalar_mul_int(n, self.adams(r, x)) for n, r, x in terms)

    def _trivial_adams_sum(self, terms):
        # adams_sum where psi_r is trivial: one dot of the multipliers with
        # the elements, each read through adams, which checks r
        return self.dot([self.from_int(n) for n, _, _ in terms],
                        [self.adams(r, x) for _, r, x in terms])

    def to_json(self, x):
        return x.to_json()

    def from_json(self, obj):
        raise NotImplementedError

    def _check_r(self, r):
        if r < 1:
            raise ValueError("Adams operation index must be >= 1")


class IntegerRing(RingDescriptor):
    """Z with trivial Adams operations."""

    name = "Z"

    def from_int(self, n):
        return int(n)

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys))

    adams_sum = RingDescriptor._trivial_adams_sum

    def exact_div_by_int(self, x, d):
        q, r = divmod(x, d)
        return q if r == 0 else None

    def to_json(self, x):
        return int(x)

    def from_json(self, obj):
        if isinstance(obj, str):
            f = parse_rational(obj)
            if f.denominator != 1:
                raise ValueError(f"{obj!r} is not an integer")
            return f.numerator
        if isinstance(obj, int) and not isinstance(obj, bool):
            return obj
        raise ValueError(f"integer JSON expected, got {obj!r}")


ZZ = IntegerRing()


class RationalRing(RingDescriptor):
    """Q with trivial Adams operations."""

    name = "Q"

    def from_int(self, n):
        return Fraction(n)

    def dot(self, xs, ys):
        # one pass over a common denominator, the lcm of the products'
        # denominators, and one normalisation at the end; ints have a
        # numerator and a denominator too
        num, den = 0, 1
        for x, y in zip(xs, ys):
            d = x.denominator * y.denominator
            g = math.gcd(den, d)
            num = num * (d // g) + x.numerator * y.numerator * (den // g)
            den = den // g * d
        return Fraction(num, den)

    adams_sum = RingDescriptor._trivial_adams_sum

    def exact_div_by_int(self, x, d):
        return Fraction(x) / d

    def to_json(self, x):
        return format_rational(x)

    def from_json(self, obj):
        return parse_rational(obj)


QQ = RationalRing()


class PolyRing(RingDescriptor):
    """Sparse polynomials in one variable.

    With ``frobenius=True`` the Adams operation is w -> w^r; with
    ``frobenius=False`` the Adams operations are trivial (the counting ring
    for weighted point masses).  With ``integral=True`` exact division by an
    integer fails unless every coefficient stays integral.
    """

    def __init__(self, var="w", integral=False, frobenius=True):
        self.var = var
        self.integral = integral
        self.frobenius = frobenius
        self.name = ("polyZ" if integral else "polyQ") + ("" if frobenius else "-trivial")

    def variable(self):
        return Poly.variable(var=self.var)

    def from_int(self, n):
        return Poly.const(n, var=self.var)

    def sum(self, elements):
        # one term dict: a copy of the summand with the most terms, into
        # which the rest are added, so k summands cost the terms of all but
        # the largest, not k copies of a growing total
        elements = sorted(elements, key=lambda e: len(e.coeffs), reverse=True)
        if not elements:
            return self.zero()
        terms = dict(elements[0].coeffs)
        for e in elements[1:]:
            add_terms(terms, e.coeffs.items())
        return elements[0]._new(_ints(terms))

    def dot(self, xs, ys):
        # Poly.__mul__'s rule summed over the pairs, so that wide sparse
        # operands (Frobenius images) stay sparse
        pairs = [(x, y) for x, y in zip(xs, ys) if x.coeffs and y.coeffs]
        terms = [(x.coeffs, y.coeffs) for x, y in pairs]
        if sum(_pays_to_pack(a, b) for a, b in terms) > 0:
            return xs[0]._new(packed_dot(pairs))
        return (xs[0] if xs else self.zero())._new(_ints(sparse_dot(terms, operator.add)))

    def adams(self, r, x):
        self._check_r(r)
        return x.substitute_power(r) if self.frobenius and r > 1 else x

    def scalar_mul_int(self, n, x):
        return x if n == 1 else x.scale(n)

    def exact_div_by_int(self, x, d):
        if d == 0:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.integral:
            return x._new(_over(x.coeffs.items(), d))
        if any(map(operator.mod, x.coeffs.values(), repeat(d))):  # not divisible in Z[w]
            return None
        return x._new({e: c // d for e, c in x.coeffs.items()})

    def from_json(self, obj):
        p = Poly.from_json(obj, var=self.var)
        if self.integral and not p.is_integral():
            raise ValueError("polynomial over Z has a fractional coefficient")
        return p


class RationalFunctionRing(RingDescriptor):
    """The rational function field Q(w) with Frobenius Adams operations."""

    name = "ratfunc"

    def __init__(self, var="w"):
        self.var = var

    def variable(self):
        return RatFunc.from_poly(Poly.variable(var=self.var))

    def from_int(self, n):
        return RatFunc.from_poly(Poly.const(n, var=self.var))

    def adams(self, r, x):
        self._check_r(r)
        return x.substitute_power(r)

    def exact_div_by_int(self, x, d):
        if d == 0:
            raise ZeroDivisionError("rational function division by zero")
        return RatFunc._new(x.num._new(_over(x.num.coeffs.items(), d)), x.den)

    def from_json(self, obj):
        return RatFunc.from_json(obj)


class PairRing(RingDescriptor):
    """Z x Z with trivial Adams operations, on pairs of ints.

    Z x Z models Z[l]/(l^2 - l) via l = (0, 1): a + b*l corresponds to
    (a, a + b).
    """

    name = "pair"

    def from_int(self, n):
        return (int(n), int(n))

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def neg(self, x):
        return (-x[0], -x[1])

    def mul(self, x, y):
        return (x[0] * y[0], x[1] * y[1])

    def dot(self, xs, ys):
        a = b = 0
        for (x0, x1), (y0, y1) in zip(xs, ys):
            a += x0 * y0
            b += x1 * y1
        return (a, b)

    adams_sum = RingDescriptor._trivial_adams_sum

    def exact_div_by_int(self, x, d):
        if x[0] % d or x[1] % d:
            return None
        return (x[0] // d, x[1] // d)

    def to_json(self, x):
        return list(x)

    def from_json(self, obj):
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ValueError("pair-ring JSON must be a two-element array")
        return (ZZ.from_json(obj[0]), ZZ.from_json(obj[1]))


class WittRing(RingDescriptor):
    """The big Witt ring of Q, truncated at a fixed order.

    Every operation is componentwise on ghost coordinates: addition is the
    power-series product, multiplication the Witt product, and
    ``adams(r, f)`` keeps the ghosts g_r, g_2r, ..., so it lands in order
    floor(N / r).  Binary operations and ``eq`` truncate both operands to the
    smaller order, which is a ring map W_N -> W_M.
    """

    name = "witt"

    def __init__(self, order):
        if order < 0:
            raise ValueError("Witt truncation order must be >= 0")
        self.order = order

    def from_int(self, n):
        return WittElement.from_ghost([n] * self.order)

    def add(self, x, y):
        return WittElement.from_ghost([a + b for a, b in zip(x.ghosts, y.ghosts)])

    def neg(self, x):
        return WittElement.from_ghost([-a for a in x.ghosts])

    def mul(self, x, y):
        return WittElement.from_ghost([a * b for a, b in zip(x.ghosts, y.ghosts)])

    def eq(self, x, y):
        order = min(x.order, y.order)
        return x.ghosts[:order] == y.ghosts[:order]

    def adams(self, r, x):
        self._check_r(r)
        return WittElement.from_ghost(x.ghosts[r - 1::r])

    def exact_div_by_int(self, x, d):
        # the d-th root of the series, always exact over Q
        return WittElement.from_ghost([g / d for g in x.ghosts])

    def from_json(self, obj):
        return WittElement.from_json(obj)


# ---------------------------------------------------------------------------
# multivariate polynomials over Q


def _mono_mul(m1, m2):
    return tuple(map(operator.add, m1, m2))


class MPoly(_Terms):
    """Multivariate polynomial over Q: a map from exponent tuples to
    coefficients, an int where integral and a Fraction only where not, as
    in :class:`Poly`."""

    __slots__ = ("nvars",)

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for mono, c in terms.items():
                if type(c) is not int:
                    c = Fraction(c)
                if c != 0:
                    if len(mono) != nvars:
                        raise ValueError("exponent tuple of wrong length")
                    clean[tuple(mono)] = c
        self.coeffs = _ints(clean)

    def _new(self, coeffs):
        """A polynomial in as many variables over an already clean term dict."""
        result = MPoly.__new__(MPoly)
        result.nvars = self.nvars
        result.coeffs = coeffs
        return result

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, {tuple(mono): 1})

    def __mul__(self, other):
        return self._new(_ints(sparse_mul(self.coeffs, other.coeffs, _mono_mul)))

    def power_substitute(self, r):
        """Raise every variable to the r-th power (monomial Adams)."""
        return self._new({tuple(e * r for e in m): c for m, c in self.coeffs.items()})

    def to_string(self, names):
        def text(m):
            return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e)
        order = sorted(self.coeffs, key=lambda m: (-sum(m), tuple(-e for e in m)))
        return show_terms((text(m), self.coeffs[m]) for m in order)

    def __repr__(self):
        return f"MPoly({self.nvars}, {self.coeffs!r})"


class MPolyRing(RingDescriptor):
    """Multivariate polynomials over Q.

    ``adams_mode="trivial"`` gives the symbolic binomial-ring context;
    ``adams_mode="monomial"`` substitutes every variable by its r-th power,
    the Adams structure of a free commutative monoid algebra.
    """

    def __init__(self, nvars, adams_mode="trivial"):
        if adams_mode not in ("trivial", "monomial"):
            raise ValueError("adams_mode must be 'trivial' or 'monomial'")
        self.nvars = nvars
        self.adams_mode = adams_mode
        self.names = [f"x_{i + 1}" for i in range(nvars)]
        self.name = f"mpoly{nvars}-{adams_mode}"

    def variable(self, i):
        return MPoly.variable(self.nvars, i)

    def from_int(self, n):
        return MPoly.const(self.nvars, n)

    sum = PolyRing.sum

    def dot(self, xs, ys):
        pairs = [(x.coeffs, y.coeffs) for x, y in zip(xs, ys)]
        return self.zero()._new(_ints(sparse_dot(pairs, _mono_mul)))

    def adams(self, r, x):
        self._check_r(r)
        if self.adams_mode == "trivial":
            return x
        return x.power_substitute(r)

    def exact_div_by_int(self, x, d):
        return x._new(_over(x.coeffs.items(), d))


# ---------------------------------------------------------------------------
# ring registry for the CLI and JSON value files


# CLI ring token -> descriptor for a Witt truncation order, in the order
# that a round over every ring takes
_RING_BY_TOKEN = {
    "Z": lambda order: IntegerRing(),
    "Q": lambda order: RationalRing(),
    "polyZ": lambda order: PolyRing(integral=True),
    "polyQ": lambda order: PolyRing(integral=False),
    "ratfunc": lambda order: RationalFunctionRing(),
    "pair": lambda order: PairRing(),
    "witt": WittRing,
}
RING_TOKENS = tuple(_RING_BY_TOKEN)


def ring_from_token(token, order=None):
    """Resolve a CLI ring token to a descriptor.

    The Witt ring needs a truncation order, taken from the values file;
    it is 8 when none is given.
    """
    if token not in _RING_BY_TOKEN:
        raise ValueError(f"unknown ring token {token!r}")
    return _RING_BY_TOKEN[token](8 if order is None else order)
