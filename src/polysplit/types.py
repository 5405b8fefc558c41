"""Splitting types.

A splitting type records how a degree-d object factors: it is a finite
multiset of parts (b, m), a factor of degree b occurring with multiplicity m,
with degree sum(b * m).  This module provides the canonical form, parsing and
display, duality, statistics, enumeration, and the merge/forget partial
order whose incidence algebra lives in :mod:`polysplit.arrangements`.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .rings import divisors, euler_product


class SplittingType:
    """A multiset of parts (degree b >= 1, multiplicity m >= 1).

    Parts are stored sorted descending in (b, m) lexicographic order, so
    equal multisets compare and hash equal.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        clean = []
        for b, m in parts:
            b, m = int(b), int(m)
            if b < 1 or m < 1:
                raise ValueError("type parts need degree >= 1 and multiplicity >= 1")
            clean.append((b, m))
        clean.sort(reverse=True)
        self.parts = tuple(clean)

    # -- basic statistics ---------------------------------------------------

    def degree(self):
        return sum(b * m for b, m in self.parts)

    def length(self):
        """Number of parts counted with repetition."""
        return len(self.parts)

    def index(self):
        """Degree minus the sum of part degrees."""
        return self.degree() - sum(b for b, _ in self.parts)

    def part_counts(self):
        """Map (b, m) -> number of repetitions of that part."""
        counts = {}
        for part in self.parts:
            counts[part] = counts.get(part, 0) + 1
        return counts

    def aut_order(self):
        """Order of the automorphism group: product of repetition factorials."""
        out = 1
        for k in self.part_counts().values():
            out *= math.factorial(k)
        return out

    def dual(self):
        """Swap degrees and multiplicities: (b, m) -> (m, b)."""
        return SplittingType((m, b) for b, m in self.parts)

    def is_unramified(self):
        return all(m == 1 for _, m in self.parts)

    def pure_multiplicity(self):
        """The common multiplicity m if the type is m-pure, else None."""
        mults = {m for _, m in self.parts}
        return mults.pop() if len(mults) == 1 else None

    def slot_multiplicities(self, p):
        """Counts (n_1, ..., n_d) where n_j = number of parts (p, j); d = degree."""
        d = self.degree()
        vec = [0] * d
        for b, m in self.parts:
            if b == p:
                vec[m - 1] += 1
        return tuple(vec)

    def part_degrees(self):
        """Sorted set of distinct part degrees."""
        return sorted({b for b, _ in self.parts})

    def union(self, other):
        """Multiset union of parts."""
        return SplittingType(self.parts + other.parts)

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, SplittingType) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def label(self):
        """Compact text form, e.g. (2 1^3 1^2)."""
        tokens = [f"{b}^{m}" if m > 1 else str(b) for b, m in self.parts]
        return "(" + " ".join(tokens) + ")"

    def to_json(self):
        return [[b, m] for b, m in self.parts]

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, list):
            raise ValueError("type JSON must be an array of [b, m] pairs")
        return cls((p[0], p[1]) for p in obj)

    def __repr__(self):
        return f"SplittingType{self.label()}"


def parse_type(text):
    """Parse "b^m" tokens separated by spaces or commas, e.g. "1^2,1,2".

    A bare "b" means multiplicity one.  Surrounding parentheses are allowed.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    tokens = [t for t in body.replace(",", " ").split() if t]
    if not tokens:
        raise ValueError(f"empty type text {text!r}")
    parts = []
    for token in tokens:
        piece = token.split("^")
        try:
            if len(piece) == 1:
                b, m = int(piece[0]), 1
            elif len(piece) == 2:
                b, m = int(piece[0]), int(piece[1])
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"malformed type token {token!r}") from None
        if b < 1 or m < 1:
            raise ValueError(f"type token {token!r} needs degree and multiplicity >= 1")
        parts.append((b, m))
    return SplittingType(parts)


def canonical_sort_key(tau):
    """Total-order key on same-degree types: index desc, length desc, parts asc.

    This is a linear extension of the merge/forget order: going up, a forget
    strictly decreases the index, and a merge preserves the index while
    strictly decreasing the length.
    """
    return (-tau.index(), -tau.length(), tau.parts)


MAX_ENUMERATION_DEGREE = 30


@lru_cache(maxsize=None)
def enumerate_types(d):
    """All splitting types of degree d, in the canonical total order."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d > MAX_ENUMERATION_DEGREE:
        raise ValueError(f"type enumeration capped at degree {MAX_ENUMERATION_DEGREE}")

    out = []
    _extend_type(d, (d, d), [], out)
    out.sort(key=canonical_sort_key)
    return tuple(out)


def _extend_type(budget, max_part, acc, out):
    """Append to out every type whose parts start with acc and go on with
    parts (b, m) in decreasing order, none above max_part, weighing budget
    in all.  It recurses at module level, so a call leaves no reference
    cycle."""
    if budget == 0:
        out.append(SplittingType(acc))
        return
    max_b, max_m = max_part
    for b in range(min(max_b, budget), 0, -1):
        m_cap = max_m if b == max_b else budget // b
        for m in range(min(m_cap, budget // b), 0, -1):
            acc.append((b, m))
            _extend_type(budget - b * m, (b, m), acc, out)
            acc.pop()


def hilbert_type_counts(N):
    """Coefficients of prod_k (1 - t^k)^{-sigma_0(k)} through t^N.

    The t^d coefficient is the number of types of degree d.
    """
    return euler_product({k: -len(divisors(k)) for k in range(1, N + 1)}, N)


# ---------------------------------------------------------------------------
# elementary merge/forget moves and their closure


def merge_neighbors(tau):
    """Types obtained by merging two parts of equal multiplicity."""
    parts = tau.parts
    seen = set()
    out = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            (b1, m1), (b2, m2) = parts[i], parts[j]
            if m1 != m2:
                continue
            rest = parts[:i] + parts[i + 1 : j] + parts[j + 1 :]
            merged = SplittingType(rest + ((b1 + b2, m1),))
            if merged not in seen:
                seen.add(merged)
                out.append(merged)
    return out


def forget_neighbors(tau):
    """Types obtained by splitting one part's multiplicity in two."""
    parts = tau.parts
    seen = set()
    out = []
    for i, (b, m) in enumerate(parts):
        if m < 2:
            continue
        rest = parts[:i] + parts[i + 1 :]
        for a in range(1, m // 2 + 1):
            split = SplittingType(rest + ((b, m - a), (b, a)))
            if split not in seen:
                seen.add(split)
                out.append(split)
    return out


def up_neighbors(tau):
    """All elementary-move successors: a merge lowers the length by one and
    a forget raises it by one, so the two lists never share a type."""
    return merge_neighbors(tau) + forget_neighbors(tau)


@lru_cache(maxsize=None)
def reachability_order(d):
    """The partial order on degree-d types as the reflexive-transitive
    closure of elementary merges and forgets; dict tau -> frozenset above."""
    above = {}
    for tau in reversed(enumerate_types(d)):
        reach = {tau}
        for nb in up_neighbors(tau):
            reach |= above[nb]
        above[tau] = frozenset(reach)
    return above


# ---------------------------------------------------------------------------
# partition helpers shared by the applications


def partition_centralizer_order(mult):
    """z_kappa = prod_j j^{m_j} m_j! for a partition given as multiplicities."""
    out = 1
    for j, mj in enumerate(mult, start=1):
        out *= j**mj * math.factorial(mj)
    return out
