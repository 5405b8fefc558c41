"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Each test carries its own wall-clock budget and recomputes
everything from scratch (no disk cache), so a pass certifies both correctness
against the bundled reference tables and the advertised runtimes.
"""

import json
import time
from fractions import Fraction

from click.testing import CliRunner

from polysplit.applications import (
    inverse_sum_checks,
    irr_hypersurface,
    mass_identity,
    sl_character_variety,
    transitive_oracle,
    transitive_tuples,
    verify_factorization,
)
from polysplit.arrangements import (
    caches_bypassed,
    count_arrangements,
    incidence_table,
    monoid_oracle,
    reference_table,
    reference_top_column,
    top_column_inverse,
    top_stratum_inverse,
)
from polysplit.cli import cli
from polysplit.plethysm import (
    MAX_SEQUENCE_TERMS,
    binomial_strata,
    forward_zeta,
    invert_zeta,
    powerfree,
    symbolic_inverse,
    virtual_stratum,
)
from polysplit.polysym import (
    PolysymElement,
    complete_element,
    convert,
    elementary_element,
    multiply,
    omega,
    pairing,
    power_basis,
)
from polysplit.rings import (
    RING_TOKENS,
    MPolyRing,
    Poly,
    RationalRing,
    WittElement,
    WittRing,
    ring_from_token,
)
from polysplit.types import SplittingType, enumerate_types


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, (
            "ran %.1fs, over the %.0fs budget" % (elapsed, self.seconds))


def _tables_match(degree, tag):
    with caches_bypassed():
        computed = incidence_table(degree, tag)
    reference = reference_table(degree, tag)
    assert set(computed.types) == set(reference.types)
    for tau in computed.types:
        for lam in computed.types:
            assert computed.value(tau, lam) == reference.value(tau, lam), (
                tag, degree, tau, lam)


def test_criterion_01_arrangement_tables():
    budget = _Budget(5)
    for degree in (2, 3, 4, 5):
        _tables_match(degree, "a")
    budget.check()


def test_criterion_02_inverse_tables():
    budget = _Budget(10)
    for degree in (2, 3, 4, 5):
        _tables_match(degree, "a_inv")
    budget.check()


def test_criterion_03_top_columns_and_closed_form():
    budget = _Budget(60)
    for degree in range(6, 11):
        column = top_column_inverse(degree)
        reference = reference_top_column(degree)
        assert set(reference) <= set(column)
        for tau in column:
            assert column[tau] == reference.get(tau, Fraction(0)), (degree, tau)
    for degree in range(1, 11):
        column = top_column_inverse(degree)
        for tau, value in column.items():
            assert top_stratum_inverse(tau) == value, tau
    budget.check()


def test_criterion_04_mobius_tables_and_ramified_vanishing():
    budget = _Budget(10)
    for degree in (2, 3, 4, 5):
        _tables_match(degree, "mobius")
    for degree in range(2, 9):
        with caches_bypassed():
            table = incidence_table(degree, "mobius")
        top = SplittingType([(degree, 1)])
        for tau in table.types:
            if any(m > 1 for _b, m in tau.parts):
                assert table.value(tau, top) == 0, (degree, tau)
    budget.check()


def test_criterion_05_quartic_plane_curves():
    budget = _Budget(2)
    motive = irr_hypersurface(2, 4, "motive")
    assert motive == Poly(
        {14: 1, 13: 1, 12: 1, 10: -2, 9: -2, 8: -1, 7: 1, 6: 1}, var="w")
    count = irr_hypersurface(2, 4, "count")
    assert count == Poly(
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
    assert len(count.coeffs) == 11
    budget.check()


def test_criterion_06_symbolic_menu():
    budget = _Budget(1)
    ring2, us2 = symbolic_inverse(2)
    x1, x2 = ring2.variable(0), ring2.variable(1)
    half = Fraction(1, 2)
    assert ring2.eq(us2[0], x1)
    assert ring2.eq(us2[1],
                    x2 + (x1 * x1).scale(-half) + x1.scale(-half))
    ring3, us3 = symbolic_inverse(3)
    x1, x2, x3 = (ring3.variable(i) for i in range(3))
    third = Fraction(1, 3)
    assert ring3.eq(us3[2],
                    x3 + (x2 * x1).scale(-1)
                    + (x1 * x1 * x1).scale(third) + x1.scale(-third))
    budget.check()


def test_criterion_07_euler_and_cycle_measures():
    budget = _Budget(2)
    for n in (1, 2, 3, 4):
        assert irr_hypersurface(n, 1, "euler") == n
        assert irr_hypersurface(n, 1, "rcc") == (1, n)
        for d in range(2, 7):
            assert irr_hypersurface(n, d, "euler") == 0
            assert irr_hypersurface(n, d, "rcc") == (0, 0)
    budget.check()


def test_criterion_08_factorization_rows():
    budget = _Budget(30)
    rows = {row["row"]: row for row in verify_factorization()}
    assert rows["discriminant"]["max_degree"] == 12
    assert rows["pentagonal"]["max_degree"] == 15
    assert rows["thue-morse"]["max_degree"] == 16
    assert rows["level-eleven"]["max_degree"] == 22
    assert rows["artin-hasse-2"]["max_degree"] == 12
    assert rows["artin-hasse-3"]["max_degree"] == 12
    assert rows["cyclotomic"]["max_degree"] == 12
    budget.check()


def test_criterion_09_transitive_tuples_vs_oracle():
    budget = _Budget(120)
    assert transitive_tuples(2, 2) == 3
    cases = [(d, r) for d in range(1, 5) for r in range(1, 4)] + [(5, 2)]
    for d, r in cases:
        assert transitive_tuples(d, r) == transitive_oracle(d, r), (d, r)
    budget.check()


def test_criterion_10_mass_identity():
    budget = _Budget(5)
    for d in range(1, 11):
        values = mass_identity(d)  # raises on any mismatch
        assert set(values) == set(range(d))
    budget.check()


# ---------------------------------------------------------------------------
# criterion 11: the property suites


def _sample_values(token, ring, n):
    if token == "Z":
        return [2, -1, 3, 0, 1, -2, 2, 1][:n]
    if token == "Q":
        return [Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(1, 5),
                Fraction(0), Fraction(7, 2), Fraction(-1), Fraction(2, 9)][:n]
    if token in ("polyZ", "polyQ"):
        w = ring.variable()
        vals = [w, ring.sub(ring.mul(w, w), w), ring.scalar_mul_int(2, w),
                ring.one(), ring.add(ring.mul(w, w), ring.from_int(3)),
                ring.neg(w), ring.from_int(2), ring.mul(ring.mul(w, w), w)]
        return vals[:n]
    if token == "ratfunc":
        w = ring.variable()
        winv = w.inverse()
        vals = [w, winv, ring.add(w, ring.one()), ring.mul(w, w),
                ring.sub(winv, ring.one()), ring.one(), ring.neg(w), w]
        return vals[:n]
    if token == "pair":
        return [(1, 2), (0, -1), (3, 3), (-2, 1),
                (1, 0), (2, -2), (0, 0), (1, 1)][:n]
    base = [WittElement.geometric(k, 8) for k in (2, 3, 5, 1, 2, 4, 3)]
    base.append(WittElement([1, 1, 0, 1, 0, 0, 1, 0, 1]))
    return base[:n]


def _assert_prefix_equal(ring, got, reference, full_order=None):
    for i, (g, e) in enumerate(zip(got, reference), start=1):
        if full_order is not None and isinstance(g, WittElement):
            assert g.order >= full_order // i
        assert ring.eq(g, e)


def _check_transpose_symmetry():
    for d in range(1, 7):
        types = list(enumerate_types(d))
        for tau in types:
            for lam in types:
                assert count_arrangements(tau, lam) == count_arrangements(
                    lam.dual(), tau.dual())
                assert count_arrangements(
                    tau, lam, squarefree=True) == count_arrangements(
                    lam.dual(), tau.dual(), squarefree=True)


def _check_monoid_oracle():
    for d, gens in ((2, [1]), (3, [1, 2]), (4, [1, 1, 2]), (5, [1, 2, 3])):
        result = monoid_oracle(d, gens)
        assert result["ok"], result


def _check_zeta_roundtrips():
    for token in RING_TOKENS:
        ring = ring_from_token(token, order=8)
        xs = _sample_values(token, ring, 8)
        us = invert_zeta(ring, xs)
        back = forward_zeta(ring, us)
        _assert_prefix_equal(ring, back, xs,
                             full_order=8 if token == "witt" else None)
        ys = forward_zeta(ring, xs)
        again = invert_zeta(ring, ys)
        _assert_prefix_equal(ring, again, xs,
                             full_order=8 if token == "witt" else None)


def _check_witt_ghosts():
    ring = WittRing(12)
    a = WittElement([1, 2, -1, 3, 0, 1, -2, 1, 0, 2, 1, -1, 4])
    b = WittElement([1, Fraction(1, 2), 1, -2, 1, 0, 3, -1, 2, 0, 1, 1, 0])
    ga, gb = a.ghost(), b.ghost()
    assert WittElement.from_ghost(ga) == a
    total = ring.add(a, b).ghost()
    product = ring.mul(a, b).ghost()
    for j in range(12):
        assert total[j] == ga[j] + gb[j]
        assert product[j] == ga[j] * gb[j]


def _check_binomial_vs_virtual_strata():
    for d in range(1, 5):
        ring = MPolyRing(d, "trivial")
        us = [ring.variable(i) for i in range(d)]
        xs = forward_zeta(ring, us)
        for tau in enumerate_types(d):
            assert ring.eq(binomial_strata(ring, us, tau),
                           virtual_stratum(ring, xs, tau))


def _check_powerfree_identity():
    ring = RationalRing()
    xs = [Fraction(k * k + 1, 2) for k in range(1, 9)]
    for n in (1, 2, 3):
        zpf = {0: Fraction(1)}
        for a in range(1, 9):
            zpf[a] = powerfree(ring, xs, n, (a,))
        for d in range(1, 9):
            total = Fraction(0)
            for a in range(d + 1):
                rest = d - a
                if rest % n:
                    continue
                b = rest // n
                total += zpf[a] * (Fraction(1) if b == 0 else xs[b - 1])
            assert total == xs[d - 1], (n, d)


def _check_polysym_identities():
    def as_m(x):
        return convert(x, "M")

    def h_degree(d):
        return complete_element(SplittingType([(d, 1)]))

    for d in range(1, 7):
        want = PolysymElement("M",
                              {t: Fraction(1) for t in enumerate_types(d)})
        assert as_m(h_degree(d)) == want
        convolution = None
        newton = None
        for i in range(d + 1):
            if i == 0:
                term = as_m(h_degree(d))
            elif i == d:
                term = as_m(elementary_element(d))
            else:
                term = as_m(multiply(elementary_element(i), h_degree(d - i)))
            convolution = term if convolution is None else convolution + term
        assert not convolution.terms, d
        for k in range(1, d + 1):
            p = power_basis(k)
            term = as_m(p) if k == d else as_m(multiply(p, h_degree(d - k)))
            newton = term if newton is None else newton + term
        assert newton == as_m(h_degree(d)).scale(Fraction(d)), d

    for d in range(1, 6):
        for tau in enumerate_types(d):
            h = complete_element(tau)
            assert as_m(omega(omega(h))) == as_m(h)

    for d in range(1, 5):
        for tau in enumerate_types(d):
            for sig in enumerate_types(d):
                left = complete_element(tau)
                right = PolysymElement(
                    "M", {sig: Fraction(1)}) + as_m(complete_element(sig))
                assert pairing(left, right) == pairing(right, left)


def _check_sl_euler_limits():
    for d in (1, 2, 3):
        for r in (1, 2, 3):
            polys = sl_character_variety(d, r, mode="epoly")
            eulers = sl_character_variety(d, r, mode="euler")
            assert [p.evaluate(Fraction(1)) for p in polys] == eulers


def test_criterion_11_property_suites():
    budget = _Budget(300)
    _check_transpose_symmetry()
    _check_monoid_oracle()
    _check_zeta_roundtrips()
    _check_witt_ghosts()
    _check_binomial_vs_virtual_strata()
    _check_powerfree_identity()
    _check_polysym_identities()
    _check_sl_euler_limits()
    budget.check()


def test_criterion_12_top_columns_past_the_reference_degrees():
    # No reference column is bundled past degree 10: the closed form and
    # the three sum rules are the oracles at degrees 11 and 12.
    budget = _Budget(10)
    for degree in (11, 12):
        column = top_column_inverse(degree)
        assert set(column) == set(enumerate_types(degree))
        for tau, value in column.items():
            assert top_stratum_inverse(tau) == value, (degree, tau)
        assert inverse_sum_checks(degree) == {"degree": degree, "checked": degree + 2}
    budget.check()


def test_criterion_12_top_columns_at_degrees_13_and_14():
    # The same oracles two degrees further, with a budget of their own:
    # about 2 s and 6 s of the run.
    budget = _Budget(40)
    for degree in (13, 14):
        column = top_column_inverse(degree)
        assert set(column) == set(enumerate_types(degree))
        for tau, value in column.items():
            assert top_stratum_inverse(tau) == value, (degree, tau)
        assert inverse_sum_checks(degree) == {"degree": degree, "checked": degree + 2}
    budget.check()


# ---------------------------------------------------------------------------
# criterion 13: zeta round trip at the value-list cap


def test_criterion_13_zeta_round_trip_at_the_sequence_cap(tmp_path):
    # x_n = 2^n counts the monic degree-n polynomials over F_2, so u_d counts
    # the irreducible ones; the whole cap goes through the CLI both ways
    budget = _Budget(15)
    closed = {"ring": "Q", "role": "closed",
              "values": [str(2**n) for n in range(1, MAX_SEQUENCE_TERMS + 1)]}
    src = tmp_path / "closed.json"
    src.write_text(json.dumps(closed))
    runner = CliRunner()
    inverted = runner.invoke(cli, ["zeta", "invert", "--ring", "Q", "--values", str(src)])
    assert inverted.exit_code == 0, inverted.output
    assert json.loads(inverted.stdout)["values"][:6] == ["2", "1", "2", "3", "6", "9"]
    mid = tmp_path / "irreducible.json"
    mid.write_text(inverted.stdout)
    expanded = runner.invoke(cli, ["zeta", "forward", "--ring", "Q", "--values", str(mid)])
    assert expanded.exit_code == 0, expanded.output
    assert json.loads(expanded.stdout) == closed
    budget.check()
