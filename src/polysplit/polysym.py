"""Polysymmetric functions: monomial, complete, elementary and power bases.

Elements are finite linear combinations of basis vectors indexed by
splitting types.  The monomial basis M is the presentation basis; the
complete basis H is the arithmetic hub, because products and Adams
operations act on it by bookkeeping alone:

    H_tau * H_sigma = H_(tau union sigma),
    psi_r(H of a part (b, m)) = H of the part (b, r*m).

The basis conversions are driven by the arrangement tables:

    H_lam    = sum over tau <= lam of a(tau, lam) * M_tau,
    Eplus_lam = sum over tau <= lam of e(tau, lam) * M_tau,
    E_b      = sum over squarefree tau of degree b of (-1)^len(tau) * M_tau,

with E on general types defined multiplicatively, E of a part (b, m) being
psi_m(E_b), and the power elements P_b = sum over k dividing b of
k * M of the single part (k, b/k).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import BASES
from .arrangements import MAX_TABLE_DEGREE, IncidenceTable, incidence_table
from .rings import (
    add_terms,
    divisors,
    format_rational,
    parse_rational,
    show_terms,
    sparse_mul,
)
from .types import (
    SplittingType,
    canonical_sort_key,
    enumerate_types,
)


class PolysymElement:
    """A finite linear combination of basis vectors indexed by types."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms=None):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        self.basis = basis
        clean = {}
        for tau, coeff in (terms or {}).items():
            value = Fraction(coeff)
            if value:
                clean[tau] = value
        self.terms = clean

    @classmethod
    def monomial(cls, basis, tau):
        return cls(basis, {tau: 1})

    def degrees(self):
        return sorted({tau.degree() for tau in self.terms})

    def graded_component(self, d):
        return PolysymElement(
            self.basis,
            {tau: c for tau, c in self.terms.items() if tau.degree() == d})

    def __add__(self, other):
        if self.basis != other.basis:
            raise ValueError("cannot add elements in different bases")
        return PolysymElement(self.basis, add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return PolysymElement(self.basis,
                              {tau: c * v for tau, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, PolysymElement):
            return NotImplemented
        return self.basis == other.basis and self.terms == other.terms

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda item: (item[0].degree(),
                                        canonical_sort_key(item[0])))

    def to_json(self):
        return {
            "basis": self.basis,
            "terms": [{"type": tau.to_json(), "coeff": format_rational(c)}
                      for tau, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "basis" not in data or "terms" not in data:
            raise ValueError('an element must be an object with "basis" and "terms"')
        return cls(data["basis"], add_terms({}, (
            (SplittingType.from_json(item["type"]), parse_rational(item["coeff"]))
            for item in data["terms"])))

    def show(self):
        return show_terms((self.basis + tau.label(), c) for tau, c in self.sorted_terms())

    def __repr__(self):
        return "PolysymElement(%s)" % self.show()


# ---------------------------------------------------------------------------
# coordinate dictionaries and the H-basis arithmetic core


def _h_mul(left, right):
    return sparse_mul(left, right, SplittingType.union)


def _h_adams(r, coords):
    return add_terms({}, ((SplittingType([(b, r * m) for b, m in tau.parts]), c)
                          for tau, c in coords.items()))


_H_ONE_TYPE = SplittingType([])


def _check_degree(d):
    if d > MAX_TABLE_DEGREE:
        raise ValueError(
            "basis conversions are supported up to degree %d" % MAX_TABLE_DEGREE)


def _apply(table, coords):
    """The upper-triangular table times a coordinate vector: column j of
    the table meets only its rows i <= j."""
    out = {}
    for lam, c in coords.items():
        j = table._pos[lam]
        add_terms(out, [(tau, c * row[j]) for tau, row in zip(table.types[:j + 1], table.entries)
                        if row[j]])
    return out


@lru_cache(maxsize=None)
def _single_in_h(basis, b):
    """E_b or P_b (basis "E" or "P") in H coordinates, as a tuple of items."""
    element = elementary_element(b) if basis == "E" else power_basis(b)
    return tuple(convert(element, "H").terms.items())


@lru_cache(maxsize=None)
def _basis_table(basis, d, inverse):
    """The degree-d transition table from E or P to H, whose column lam is
    the basis vector lam in H coordinates, or its inverse.  In canonical
    order both are upper-triangular with a nonzero diagonal."""
    if inverse:
        return _basis_table(basis, d, False).inverse(basis + "_inv")
    types = list(enumerate_types(d))
    columns = []
    for lam in types:
        # the product over the parts (b, m) of lam of psi_m(E_b) or psi_m(P_b)
        coords = {_H_ONE_TYPE: Fraction(1)}
        for b, m in lam.parts:
            coords = _h_mul(coords, _h_adams(m, dict(_single_in_h(basis, b))))
        columns.append(coords)
    zero = Fraction(0)
    return IncidenceTable(d, basis, types,
                          [[col.get(tau, zero) for col in columns] for tau in types])


def _chain(basis, d, to_h):
    """The tables that carry degree-d coordinates in the basis to H (or,
    if not to_h, from H to the basis), in the order they apply."""
    if d == 0 or basis == "H":
        return []
    if basis == "M":
        return [incidence_table(d, "a_inv" if to_h else "a")]
    if basis == "Eplus":
        tags = ("e", "a_inv") if to_h else ("a", "e_inv")
        return [incidence_table(d, tag) for tag in tags]
    return [_basis_table(basis, d, not to_h)]


# ---------------------------------------------------------------------------
# public operations


def convert(element, target):
    """Rewrite an element in another basis, degree by degree.  The basis
    changes are incidence tables read through ``incidence_table``, so a
    conversion reads and writes the table disk cache unless run inside
    ``caches_bypassed()``."""
    if target not in BASES:
        raise ValueError("unknown basis %r" % (target,))
    if element.basis == target:
        return PolysymElement(target, element.terms)
    out = {}
    for d in element.degrees():
        _check_degree(d)
        coords = element.graded_component(d).terms
        for table in _chain(element.basis, d, True) + _chain(target, d, False):
            coords = _apply(table, coords)
        add_terms(out, coords.items())
    return PolysymElement(target, out)


def multiply(left, right):
    """Product of two elements, returned in the basis of the left factor."""
    h_left = convert(left, "H").terms
    h_right = convert(right, "H").terms
    product = PolysymElement("H", _h_mul(h_left, h_right))
    return convert(product, left.basis)


def adams_ps(r, element):
    """Adams operation psi_r, acting on parts by scaling multiplicities."""
    if r < 1:
        raise ValueError("Adams operations are indexed by positive integers")
    h_coords = convert(element, "H").terms
    return convert(PolysymElement("H", _h_adams(r, h_coords)), element.basis)


def power_basis(d):
    """The degree-d power element, in the monomial basis."""
    if d < 1:
        raise ValueError("power elements are indexed by positive degrees")
    return PolysymElement(
        "M", {SplittingType([(k, d // k)]): Fraction(k) for k in divisors(d)})


def pairing(left, right):
    """The bilinear pairing with <M_lam, H_tau> = 1 iff lam is dual to tau."""
    m_coords = convert(left, "M").terms
    h_coords = convert(right, "H").terms
    total = Fraction(0)
    for tau, c in h_coords.items():
        other = m_coords.get(tau.dual())
        if other:
            total += c * other
    return total


def omega(element):
    """The involution sending the complete part (b, m) to psi_m(E_b): H_tau
    goes to E_tau."""
    return convert(PolysymElement("E", convert(element, "H").terms), element.basis)


def complete_element(tau):
    """H indexed by an arbitrary type, as an H-basis element."""
    return PolysymElement.monomial("H", tau)


def monomial_element(tau):
    """M indexed by an arbitrary type, as an M-basis element."""
    return PolysymElement.monomial("M", tau)


def elementary_element(d):
    """The degree-d elementary element E_d, in the monomial basis."""
    if d < 1:
        raise ValueError("elementary elements are indexed by positive degrees")
    return PolysymElement("M", {tau: Fraction((-1) ** tau.length())
                                for tau in enumerate_types(d)
                                if tau.is_unramified()})
