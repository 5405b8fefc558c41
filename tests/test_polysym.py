"""Polysymmetric elements: conversions, products, pairing, involution."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from polysplit.rings import divisors, moebius
from polysplit.types import SplittingType, enumerate_types, parse_type
from polysplit.arrangements import incidence_table
from polysplit import polysym as ps
from polysplit.polysym import (
    BASES,
    PolysymElement,
    adams_ps,
    complete_element,
    convert,
    elementary_element,
    monomial_element,
    multiply,
    omega,
    pairing,
    power_basis,
)


def T(text):
    return parse_type(text)


ONE_TYPE = SplittingType([])


def _power_element(tau):
    """The power element of an arbitrary type, in the monomial basis."""
    return convert(PolysymElement.monomial("P", tau), "M")


def H_full(d):
    # H_d = sum of all monomial vectors in degree d
    if d == 0:
        return PolysymElement.monomial("M", ONE_TYPE)
    return PolysymElement("M", {t: Fraction(1) for t in enumerate_types(d)})


def E_elem(d):
    if d == 0:
        return PolysymElement.monomial("M", ONE_TYPE)
    return elementary_element(d)


def random_element(rng, basis, max_degree=4, nterms=4):
    terms = {}
    for _ in range(nterms):
        d = rng.randint(1, max_degree)
        tau = rng.choice(list(enumerate_types(d)))
        terms[tau] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return PolysymElement(basis, terms)


# ---------------------------------------------------------------------------
# elements and serialization


def test_element_construction_drops_zeros():
    x = PolysymElement("M", {T("2"): Fraction(0), T("1 1"): Fraction(3)})
    assert list(x.terms) == [T("1 1")]
    assert x.terms
    assert not PolysymElement("H").terms


def test_element_rejects_unknown_basis():
    with pytest.raises(ValueError):
        PolysymElement("Q", {})


def test_element_addition_requires_matching_basis():
    with pytest.raises(ValueError):
        PolysymElement.monomial("M", T("1")) + PolysymElement.monomial("H", T("1"))


def test_element_json_round_trip():
    x = PolysymElement("Eplus", {T("2 1"): Fraction(-3, 2), T("1^3"): Fraction(5)})
    data = x.to_json()
    assert data["basis"] == "Eplus"
    assert PolysymElement.from_json(data) == x


def test_element_show():
    x = PolysymElement("M", {T("2"): Fraction(2), T("1^2"): Fraction(-1, 2)})
    assert x.show() == "-1/2*M(1^2) + 2*M(2)"
    assert PolysymElement("M").show() == "0"


def test_graded_component():
    x = PolysymElement("M", {T("1"): Fraction(1), T("2 1"): Fraction(2)})
    assert x.degrees() == [1, 3]
    assert x.graded_component(3).terms == {T("2 1"): Fraction(2)}


# ---------------------------------------------------------------------------
# conversions


def test_known_conversions():
    M2_in_H = convert(monomial_element(T("2")), "H")
    assert M2_in_H.terms == {T("1^2"): Fraction(-1, 2),
                             T("1 1"): Fraction(-1, 2),
                             T("2"): Fraction(1)}
    # H_d expands as the sum of every monomial vector of degree d
    for d in range(1, 6):
        assert convert(complete_element(T(str(d))), "M") == H_full(d)


def test_conversion_round_trips_all_bases():
    rng = random.Random(5)
    for source in BASES:
        for target in BASES:
            for _ in range(3):
                x = random_element(rng, source, max_degree=4)
                there = convert(x, target)
                back = convert(there, source)
                assert back == x, (source, target)


def test_conversion_round_trips_degree_7():
    rng = random.Random(11)
    for basis in ("H", "E", "Eplus", "P"):
        x = PolysymElement(
            "M", {rng.choice(list(enumerate_types(7))): Fraction(3, 2)})
        assert convert(convert(x, basis), "M") == x


def _matmul(x, y):
    out = [[Fraction(0)] * len(y[0]) for _ in x]
    for i, row in enumerate(x):
        for k, a in enumerate(row):
            if a:
                for j, b in enumerate(y[k]):
                    if b:
                        out[i][j] += a * b
    return out


@pytest.mark.parametrize("d", range(1, 9))
def test_basis_transition_tables_times_inverse_are_identity(d):
    # the inverses come from triangular back substitution, so this also
    # checks that the E and P transition tables are upper-triangular
    for basis in ("E", "P"):
        table = ps._basis_table(basis, d, False).entries
        inverse = ps._basis_table(basis, d, True).entries
        identity = [[Fraction(int(i == j)) for j in range(len(table))]
                    for i in range(len(table))]
        assert _matmul(table, inverse) == identity, basis
        assert _matmul(inverse, table) == identity, basis


def test_conversion_degree_cap():
    x = PolysymElement.monomial("M", T("11"))
    with pytest.raises(ValueError):
        convert(x, "H")


def test_constants_convert_to_themselves():
    one = PolysymElement("M", {ONE_TYPE: Fraction(7, 3)})
    for basis in BASES:
        assert convert(one, basis).terms == {ONE_TYPE: Fraction(7, 3)}


# ---------------------------------------------------------------------------
# multiplication and Adams operations


def test_h_basis_product_is_union_of_parts():
    x = complete_element(T("2 1^2"))
    y = complete_element(T("1"))
    assert multiply(x, y) == complete_element(T("2 1^2 1"))


def test_monomial_square():
    x = monomial_element(T("1"))
    assert multiply(x, x) == PolysymElement(
        "M", {T("1^2"): Fraction(1), T("1 1"): Fraction(2)})


def test_multiplication_is_commutative_and_basis_respecting():
    rng = random.Random(3)
    for basis in BASES:
        x = random_element(rng, basis, max_degree=3, nterms=2)
        y = random_element(rng, basis, max_degree=3, nterms=2)
        xy = multiply(x, y)
        yx = multiply(y, x)
        assert xy.basis == basis
        assert convert(xy, "M") == convert(yx, "M")


def test_adams_on_complete_parts():
    x = complete_element(T("2"))
    assert adams_ps(3, x) == complete_element(T("2^3"))
    y = complete_element(T("3^2"))
    assert adams_ps(2, y) == complete_element(T("3^4"))


def test_adams_is_multiplicative_and_separable():
    rng = random.Random(17)
    # in the monomial basis, within the conversion cap
    x = random_element(rng, "M", max_degree=2, nterms=2)
    y = random_element(rng, "M", max_degree=2, nterms=2)
    lhs = adams_ps(2, multiply(x, y))
    rhs = multiply(adams_ps(2, x), adams_ps(2, y))
    assert lhs == rhs
    assert adams_ps(1, x) == x
    # in the H basis, where no conversion is needed, to higher degree
    u = random_element(rng, "H", max_degree=4, nterms=3)
    v = random_element(rng, "H", max_degree=4, nterms=3)
    for r in (2, 3):
        assert adams_ps(r, multiply(u, v)) == multiply(adams_ps(r, u),
                                                       adams_ps(r, v))
    for a in range(1, 7):
        for b in range(1, 7):
            assert adams_ps(a, adams_ps(b, u)) == adams_ps(a * b, u)


# ---------------------------------------------------------------------------
# elementary and power elements


def test_elementary_small_cases():
    assert elementary_element(1) == PolysymElement("M", {T("1"): Fraction(-1)})
    assert elementary_element(2) == PolysymElement(
        "M", {T("1 1"): Fraction(1), T("2"): Fraction(-1)})


def test_complete_times_elementary_telescopes():
    for d in range(1, 7):
        total = PolysymElement("M")
        for k in range(d + 1):
            total = total + multiply(H_full(k), E_elem(d - k))
        assert not total.terms, d


def test_squarefree_convolution():
    # sum over k of H at the part (k, 2) times Eplus_(d-2k) gives H_d
    for d in range(1, 7):
        total = PolysymElement("M")
        for k in range(0, d // 2 + 1):
            if k == 0:
                h_part = PolysymElement.monomial("M", ONE_TYPE)
            else:
                h_part = convert(complete_element(SplittingType([(k, 2)])), "M")
            rest = d - 2 * k
            if rest == 0:
                eplus = PolysymElement.monomial("M", ONE_TYPE)
            else:
                eplus = convert(
                    PolysymElement.monomial("Eplus", T(str(rest))), "M")
            total = total + multiply(h_part, eplus)
        assert total == H_full(d), d


def test_power_elements():
    assert power_basis(2) == PolysymElement(
        "M", {T("1^2"): Fraction(1), T("2"): Fraction(2)})
    assert power_basis(1) == PolysymElement("M", {T("1"): Fraction(1)})
    # psi_m takes P_d to the power element of the part (d, m)
    for d in range(1, 6):
        for m in range(1, 4):
            if d * m > 10:
                continue
            lhs = adams_ps(m, power_basis(d))
            rhs = _power_element(SplittingType([(d, m)]))
            assert lhs == rhs, (d, m)


def test_power_moebius_inversion():
    # M_d = (1/d) sum over k | d of mu(d/k) P at the part (k, d/k)
    for d in range(1, 7):
        acc = PolysymElement("M")
        for k in divisors(d):
            acc = acc + _power_element(
                SplittingType([(k, d // k)])).scale(moebius(d // k))
        assert acc.scale(Fraction(1, d)) == monomial_element(T(str(d)))


def test_power_series_is_log_of_complete_series():
    # the log derivative of sum H_d t^d: d H_d = sum over k = 1..d of P_k H_(d-k)
    for d in range(1, 7):
        acc = PolysymElement("M")
        for k in range(1, d + 1):
            acc = acc + multiply(power_basis(k), H_full(d - k))
        assert acc == H_full(d).scale(d), d


def test_elementary_series_inverts_complete_series():
    # (sum H_d t^d) (sum E_d t^d) = 1: sum over k = 0..n of H_k E_(n-k) = 0
    assert multiply(H_full(0), E_elem(0)) == H_full(0)
    for n in range(1, 7):
        acc = PolysymElement("M")
        for k in range(n + 1):
            acc = acc + multiply(H_full(k), E_elem(n - k))
        assert not acc.terms, n


# ---------------------------------------------------------------------------
# pairing


def test_pairing_on_basis_vectors():
    for d in range(1, 5):
        for lam in enumerate_types(d):
            for tau in enumerate_types(d):
                value = pairing(monomial_element(lam), complete_element(tau))
                assert value == (1 if lam == tau.dual() else 0)


def test_pairing_of_completes_is_arrangement_count():
    for d in range(1, 5):
        table = incidence_table(d, "a")
        for lam in enumerate_types(d):
            for tau in enumerate_types(d):
                value = pairing(complete_element(lam),
                                complete_element(tau.dual()))
                assert value == table.value(tau, lam), (lam.label(), tau.label())


def test_pairing_is_symmetric():
    rng = random.Random(29)
    for _ in range(5):
        x = random_element(rng, "M", max_degree=4)
        y = random_element(rng, "H", max_degree=4)
        assert pairing(x, y) == pairing(y, x)


def test_pairing_vanishes_across_degrees():
    assert pairing(monomial_element(T("1")), complete_element(T("2"))) == 0


# ---------------------------------------------------------------------------
# the involution


# SHA-256 of json.dumps([f(tau).to_json() for tau in enumerate_types(d)],
# sort_keys=True) for f = omega of H_tau and f = _power_element, recorded
# when both multiplied out the single E_b and P_b vectors themselves
# instead of converting from the E and P bases
PINNED_OMEGA_HASHES = {
    1: "f0de9df7b23b4f4c998ea7115b15be9d505f22922ceb72070816a29844afb0c1",
    2: "0eb462d862cf803d2452c98128a55366aa8e481b691c1af6dc85eab8d098986b",
    3: "1e64ee5a77264d174cd781171f5937c3d56c5741483fff2a4b649c723868760c",
    4: "ebf0ccac6a254a2d7e08e2268d55fedf2105fe6be65c097ec583d266320d4cd2",
    5: "e322b35ee4fbb54de7a0b0b81b72edd57f52cd45f17a7f8d1af77d340fe584fa",
    6: "f5276007ac89f566c15bc5ef1c7d706e1b1d6120a77622d5e6c98c7e772ce7c9",
    7: "8a0c2c763255f3b4112f2c4f5e7d84e72073223a33cc9d6938a879e5d2edf5de",
}
PINNED_POWER_ELEMENT_HASHES = {
    1: "0db31ce7aaec31212f3d3f08cc7287a7a2f239c36c7c6116cc84cc58627b4980",
    2: "faa6f04ddaa79d904714e65b95b5d0c72adf2f0f85cab8df2f86b24e261e9045",
    3: "a1f1d952ff88ddb57e4cf712cff0940a96e835a0cb8ed016ed73d22c8bb7cc04",
    4: "be4f8bdd5bcf837f6cbf5a7302fb4f928f5e04dda6edb7f8cb73a38381d942f3",
    5: "0f471e73b84a25da5b4bb7e731635faebe564242ac8e20d3773602d56d6bbc06",
    6: "8112c93a1324012294c805818ece4faeb6ef3ec9cf2c3e60e09732bb1ccbda51",
    7: "f7cd4c0e6f78f414ca394e82473826e16228bdbfef8c05c744281c9930f590ee",
}


def _digest(elements):
    text = json.dumps([x.to_json() for x in elements], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("d", sorted(PINNED_OMEGA_HASHES))
def test_omega_of_complete_vectors_is_pinned(d):
    images = [omega(complete_element(tau)) for tau in enumerate_types(d)]
    assert _digest(images) == PINNED_OMEGA_HASHES[d]


@pytest.mark.parametrize("d", sorted(PINNED_POWER_ELEMENT_HASHES))
def test_power_elements_are_pinned(d):
    images = [_power_element(tau) for tau in enumerate_types(d)]
    assert _digest(images) == PINNED_POWER_ELEMENT_HASHES[d]


def test_omega_on_complete_parts():
    # omega sends H of the part (b, m) to psi_m applied to E_b
    for b in range(1, 5):
        for m in range(1, 3):
            if b * m > 6:
                continue
            got = omega(complete_element(SplittingType([(b, m)])))
            want = convert(adams_ps(m, E_elem(b)), "H")
            assert got == want, (b, m)


def test_omega_swaps_elementary_and_complete():
    assert omega(PolysymElement("M", {T("1"): Fraction(-1)})) == monomial_element(T("1"))
    for d in range(1, 6):
        assert convert(omega(E_elem(d)), "M") == H_full(d), d


def test_omega_is_an_involution():
    rng = random.Random(41)
    for basis in ("M", "H"):
        for _ in range(4):
            x = random_element(rng, basis, max_degree=5, nterms=3)
            assert omega(omega(x)) == x


def test_omega_is_a_ring_map():
    rng = random.Random(43)
    x = random_element(rng, "M", max_degree=3, nterms=2)
    y = random_element(rng, "M", max_degree=3, nterms=2)
    assert omega(multiply(x, y)) == multiply(omega(x), omega(y))
