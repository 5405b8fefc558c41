"""Seeded inputs, timed jobs and output checks.

A job is ``(name, run, check, corrupt)``: ``run()`` is the timed call into
the library, ``check(result)`` runs after the timer stops and returns None
or the reason the output is wrong, and ``corrupt(result)`` damages a result
so that the self-test can confirm the check catches it.  Every check uses an
oracle that does not go through the path being timed.

The seed sets coefficients and query choices, never sizes: every round of a
workload has the same jobs on inputs of the same shape.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

from polysplit import applications, arrangements, plethysm, polysym, rings, types

# ---------------------------------------------------------------------------
# tables-cold: checks on the CLI outputs

def check_appendix(returncode, text, max_degree):
    """``verify appendix --max-degree max_degree``: three tables per
    reference degree and one top column per reference top degree."""
    checks = (3 * len(arrangements.REFERENCE_TABLE_DEGREES)
              + sum(d <= max_degree for d in arrangements.REFERENCE_TOP_DEGREES))
    lines = text.splitlines()
    expected = "all %d checks passed" % checks
    if returncode != 0:
        return "exit code %d" % returncode
    if not lines or lines[-1] != expected:
        return "last line is not %r" % expected
    if sum(line.startswith("ok: ") for line in lines) != checks:
        return "wrong number of ok lines"
    return None


def _column_sum_rules(column, d):
    """The three sum rules of the inverse top column at lam = (d)."""
    unramified = [(tau, v) for tau, v in column.items() if tau.is_unramified()]
    if sum((v for _, v in unramified), Fraction(0)) != Fraction(1, d):
        return "unramified column sum is not 1/d"
    weighted = sum((v * tau.length() for tau, v in unramified), Fraction(0))
    square = types.SplittingType([(1, 2)])
    for tau in types.enumerate_types(d - 2):
        if tau.is_unramified():
            weighted += column[tau.union(square)]
    if weighted:
        return "length-weighted column sum does not cancel"
    for k in range(1, d + 1):
        total = sum((v for tau, v in column.items() if tau.length() == k), Fraction(0))
        expected = Fraction((-1) ** (k + 1), d) * sum(
            rings.moebius(d // e) * math.comb(e, k) for e in rings.divisors(d))
        if total != expected:
            return "length-%d column sum mismatch" % k
    return None


def parse_table(text):
    data = json.loads(text)
    table_types = [types.SplittingType.from_json(t) for t in data["types"]]
    entries = [[rings.parse_rational(x) for x in row] for row in data["entries"]]
    return data, table_types, entries


def check_inverse_table(returncode, parsed, d):
    """The a_inv table of degree d printed by ``arr table``."""
    if returncode != 0:
        return "exit code %d" % returncode
    data, table_types, entries = parsed
    if data["degree"] != d or data["tag"] != "a_inv":
        return "wrong degree or tag"
    if table_types != list(types.enumerate_types(d)):
        return "wrong type list"
    scale = math.factorial(d)
    for i, row in enumerate(entries):
        if len(row) != len(table_types):
            return "row %d has the wrong length" % i
        if row[i] != Fraction(1, table_types[i].aut_order()):
            return "diagonal entry %d is not 1/aut_order" % i
        if any((x * scale).denominator != 1 for x in row):
            return "row %d has an entry outside Z[1/%d!]" % (i, d)
    top = table_types.index(types.SplittingType([(d, 1)]))
    column = {tau: row[top] for tau, row in zip(table_types, entries)}
    reference = arrangements.reference_top_column(d)
    for tau, value in column.items():
        if value != reference.get(tau, Fraction(0)):
            return "top column differs from the reference at %s" % tau.label()
        if value != arrangements.top_stratum_inverse(tau):
            return "top column differs from the closed form at %s" % tau.label()
    return _column_sum_rules(column, d)


def corrupt_table(parsed):
    data, table_types, entries = parsed
    entries = [list(row) for row in entries]
    entries[0][0] += 1
    return data, table_types, entries


# ---------------------------------------------------------------------------
# zeta-rings: seeded round trips over every ring, and the paper's jobs

# Terms u_1..u_N drawn per ring, fixed so that the run length does not
# depend on the seed.
ZETA_TERMS = {"Z": 320, "Q": 96, "polyZ": 14, "polyQ": 13, "ratfunc": 4,
              "pair": 240, "witt": 10, "mpoly": 9}
WITT_ORDER = 10
MPOLY_VARS = 3

# SHA-256 of the canonical JSON of each paper job's output, recorded from
# the library's exact results; any change to these answers is an error.
PAPER_DIGESTS = {
    "hyper-motive": "e67135a00503750b9a0c935c952ce6d7b2606c77ff815bb440843128209f6f8c",
    "hyper-count": "2873a370174a1df170a2db1c87a007fa36c2f5a4fc999cc21d54d04095a1b8d9",
    "charvar-sl": "28a9494867229eb0b94b90ec30e4c9c63e1ac2eba418ee52384009eabe19f5e4",
}


def _frac(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _poly(rng, degree, integral):
    return rings.Poly({e: rng.randint(-9, 9) if integral else _frac(rng)
                       for e in range(degree + 1)})


def _draw(rng, token, n):
    """A ring and n seeded elements of it."""
    if token == "mpoly":
        ring = rings.MPolyRing(MPOLY_VARS, adams_mode="monomial")
        monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
                 if a + b + c <= 2]
        return ring, [rings.MPoly(MPOLY_VARS, {m: rng.randint(-5, 5)
                                               for m in rng.sample(monos, 3)})
                      for _ in range(n)]
    ring = rings.ring_from_token(token, order=WITT_ORDER)
    if token == "Z":
        return ring, [rng.randint(-50, 50) for _ in range(n)]
    if token == "Q":
        return ring, [_frac(rng) for _ in range(n)]
    if token in ("polyZ", "polyQ"):
        return ring, [_poly(rng, 3, token == "polyZ") for _ in range(n)]
    if token == "ratfunc":
        return ring, [rings.RatFunc(_poly(rng, 2, True),
                                    rings.Poly({0: 1, 1: rng.randint(1, 5)}))
                      for _ in range(n)]
    if token == "pair":
        return ring, [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(n)]
    if token == "witt":
        return ring, [rings.WittElement([1] + [_frac(rng) for _ in range(WITT_ORDER)])
                      for _ in range(n)]
    raise ValueError("no generator for ring %r" % token)


def _witt_forward_ghosts(us, order):
    """Ghost coordinates of forward_zeta over the Witt ring, computed one
    ghost index at a time over Q, where psi_r reindexes ghosts by r."""
    ghosts = [u.ghost() for u in us]
    out = []
    for d in range(1, len(us) + 1):
        row = []
        for n in range(1, order // d + 1):
            xs = [Fraction(1)]
            for e in range(1, d + 1):
                total = Fraction(0)
                for i in range(1, e + 1):
                    p = sum(k * ghosts[k - 1][n * i // k - 1] for k in rings.divisors(i))
                    total += p * xs[e - i]
                xs.append(total / e)
            row.append(xs[d])
        out.append(row)
    return out


def _round_trip_job(rng, token):
    ring, us = _draw(rng, token, ZETA_TERMS[token])

    def run():
        xs = plethysm.forward_zeta(ring, us)
        return xs, plethysm.invert_zeta(ring, xs)

    def check(result):
        xs, back = result
        if len(back) != len(us):
            return "inversion returned %d terms" % len(back)
        for d, (u, b) in enumerate(zip(us, back), start=1):
            if token == "witt":
                if b.order != WITT_ORDER // d or b != u.truncate(b.order):
                    return "u_%d does not come back" % d
            elif not ring.eq(u, b):
                return "u_%d does not come back" % d
        if token == "witt":
            expected = _witt_forward_ghosts(us, WITT_ORDER)
            if [x.ghost() for x in xs] != expected:
                return "forward values disagree with the ghost coordinates"
        return None

    def corrupt(result):
        xs, back = result
        return xs, [ring.add(back[0], ring.one())] + back[1:]

    return ("zeta:" + token, run, check, corrupt)


def _digest(value):
    if isinstance(value, list):
        data = [v.to_json() for v in value]
    else:
        data = value.to_json()
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _paper_job(name, fn):
    def check(result):
        if _digest(result) != PAPER_DIGESTS[name]:
            return "output differs from the recorded answer"
        return None

    def corrupt(result):
        first = result[0] if isinstance(result, list) else result
        bumped = first + rings.Poly.const(1, var=first.var)
        return [bumped] + result[1:] if isinstance(result, list) else bumped

    return (name, fn, check, corrupt)


PAPER_JOBS = [
    ("hyper-motive", lambda: applications.irr_hypersurface(6, 8, "motive")),
    ("hyper-count", lambda: applications.irr_hypersurface(6, 8, "count")),
    ("charvar-sl", lambda: applications.sl_character_variety(5, 4)),
]
SYMBOLIC_DEGREE = 7


def _symbolic_job():
    """The general inverse u_1..u_d in indeterminates x_1..x_d (the CLI's
    ``polya --symbolic``); the forward direction must give the x's back."""
    def run():
        return plethysm.symbolic_inverse(SYMBOLIC_DEGREE)

    def check(result):
        ring, us = result
        xs = plethysm.forward_zeta(ring, us)
        if xs != [ring.variable(i) for i in range(SYMBOLIC_DEGREE)]:
            return "the forward direction does not give x_1..x_d back"
        return None

    def corrupt(result):
        ring, us = result
        return ring, [ring.add(us[0], ring.one())] + us[1:]

    return ("polya-symbolic", run, check, corrupt)


def zeta_round(seed, index):
    """One round trip per ring, the symbolic inverse, and the paper's jobs.

    Twelve jobs, so that the 90th percentile falls inside the motive jobs
    rather than on the boundary between the two hypersurface jobs."""
    rng = random.Random("zeta-rings:%d:%d" % (seed, index))
    jobs = [_round_trip_job(rng, token) for token in rings.RING_TOKENS + ("mpoly",)]
    jobs.append(_symbolic_job())
    jobs += [_paper_job(name, fn) for name, fn in PAPER_JOBS]
    return jobs


# ---------------------------------------------------------------------------
# session-warm: a long-lived interpreter over tables already in memory

SESSION_TABLE_DEGREE = 8
SESSION_TAGS = ("a", "e", "a_inv", "e_inv")
CONVERT_DEGREES = range(4, SESSION_TABLE_DEGREE + 1)
QUERY_DEGREES = range(9, 13)
CONVERTS_PER_ROUND = 24
MULTIPLIES_PER_ROUND = 6
ADAMS_PER_ROUND = 4
PAIRS_PER_DEGREE = 2
REPEATS_PER_ROUND = 4


def session_tables():
    """Every table the session uses.  Run once untimed to fill the disk
    cache; the set-up then loads them from it."""
    for d in range(1, SESSION_TABLE_DEGREE + 1):
        for tag in SESSION_TAGS:
            arrangements.incidence_table(d, tag)


def session_setup():
    """Load the tables and build the E and P basis matrices, through the
    public API."""
    session_tables()
    for d in range(1, SESSION_TABLE_DEGREE + 1):
        top = types.SplittingType([(d, 1)])
        for basis in ("E", "P"):
            polysym.convert(polysym.PolysymElement.monomial(basis, top), "H")
            polysym.convert(polysym.PolysymElement.monomial("H", top), basis)


def _element(rng, basis, d, terms=3):
    pool = list(types.enumerate_types(d))
    return polysym.PolysymElement(basis, {tau: _frac(rng) or 1
                                          for tau in rng.sample(pool, min(terms, len(pool)))})


def _other_basis(rng, basis):
    return rng.choice([b for b in polysym.BASES if b != basis])


def _bump(element):
    tau, c = next(iter(element.terms.items()))
    terms = dict(element.terms)
    terms[tau] = c + 1
    return polysym.PolysymElement(element.basis, terms)


def _convert_job(rng):
    source = rng.choice(polysym.BASES)
    target = _other_basis(rng, source)
    element = _element(rng, source, rng.choice(CONVERT_DEGREES))

    def run():
        return polysym.convert(polysym.convert(element, target), source)

    def check(back):
        return None if back == element else "conversion does not round-trip"

    return ("convert", run, check, _bump)


def _in_second_basis(op, elements, basis, second):
    """op applied to the elements rewritten in a second basis, converted back."""
    moved = [polysym.convert(e, second) for e in elements]
    return polysym.convert(op(*moved), basis)


def _multiply_job(rng):
    basis = rng.choice(polysym.BASES)
    second = _other_basis(rng, basis)
    a = rng.randint(1, SESSION_TABLE_DEGREE - 1)
    b = rng.randint(1, SESSION_TABLE_DEGREE - a)
    left, right = _element(rng, basis, a, 2), _element(rng, basis, b, 2)

    def run():
        return polysym.multiply(left, right)

    def check(product):
        if product != _in_second_basis(polysym.multiply, [left, right], basis, second):
            return "product differs from the product in basis %s" % second
        return None

    return ("multiply", run, check, _bump)


def _adams_job(rng):
    basis = rng.choice(polysym.BASES)
    second = _other_basis(rng, basis)
    r = 2
    element = _element(rng, basis, rng.randint(1, SESSION_TABLE_DEGREE // r))

    def run():
        return polysym.adams_ps(r, element)

    def check(image):
        def op(e):
            return polysym.adams_ps(r, e)
        if image != _in_second_basis(op, [element], basis, second):
            return "psi_%d differs from psi_%d in basis %s" % (r, r, second)
        return None

    return ("adams_ps", run, check, _bump)


def _query_jobs(rng):
    """count_arrangements and leq on type pairs of degree 9-12, half of them
    comparable, then a few repeated counts.  The oracle is the closure of
    merge and forget moves, which runs no arrangement search."""
    jobs = []
    pairs = []
    for d in QUERY_DEGREES:
        pool = list(types.enumerate_types(d))
        above = types.reachability_order(d)
        for k in range(PAIRS_PER_DEGREE):
            tau = rng.choice(pool)
            if k % 2 == 0:
                lam = rng.choice(sorted(above[tau], key=types.canonical_sort_key))
            else:
                lam = rng.choice(pool)
            pairs.append((tau, lam, lam in above[tau]))
    repeats = rng.sample(pairs, REPEATS_PER_ROUND)
    for tau, lam, comparable in pairs + repeats:
        def count(tau=tau, lam=lam):
            return arrangements.count_arrangements(tau, lam)

        def check_count(n, comparable=comparable):
            return None if (n > 0) == comparable else "count disagrees with the order"

        jobs.append(("count", count, check_count, lambda n: 0 if n else 1))
    for tau, lam, comparable in pairs:
        def query(tau=tau, lam=lam):
            return arrangements.leq(tau, lam)

        def check_leq(flag, comparable=comparable):
            return None if flag == comparable else "leq disagrees with the order"

        jobs.append(("leq", query, check_leq, lambda flag: not flag))
    return jobs


def session_round(seed, index):
    rng = random.Random("session-warm:%d:%d" % (seed, index))
    jobs = [_convert_job(rng) for _ in range(CONVERTS_PER_ROUND)]
    jobs += [_multiply_job(rng) for _ in range(MULTIPLIES_PER_ROUND)]
    jobs += [_adams_job(rng) for _ in range(ADAMS_PER_ROUND)]
    jobs += _query_jobs(rng)
    rng.shuffle(jobs)
    return jobs


ROUNDS = {"zeta-rings": zeta_round, "session-warm": session_round}
SETUPS = {"zeta-rings": lambda: None, "session-warm": session_setup}
