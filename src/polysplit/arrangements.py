"""Arrangements between splitting types and the resulting incidence algebra.

An arrangement from tau to lam is a nonnegative integer matrix A whose rows
are indexed by the parts (b_i, m_i) of tau and whose columns are indexed by
the parts (c_j, n_j) of lam, subject to

    sum_i A_ij * b_i = c_j   for every column j,
    sum_j A_ij * n_j = m_i   for every row i.

Counting these matrices gives the function a(tau, lam); restricting entries
to {0, 1} gives e(tau, lam).  The relation ``tau <= lam  iff  a(tau, lam) > 0``
is a partial order on splitting types of a fixed degree, and the matrices
a, e, their inverses and the Moebius function of the order are the incidence
tables exposed here.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
import os
import tempfile
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .rings import (MathCheckError, MPoly, check_range, format_rational, moebius,
                    parse_rational, weighted_vectors)
from .types import SplittingType, enumerate_types

TABLE_TAGS = ("a", "e", "a_inv", "e_inv", "mobius")

MAX_TABLE_DEGREE = 10
MAX_POSET_DEGREE = 12
MAX_ORACLE_DEGREE = 5
MAX_ENUMERATED_ARRANGEMENTS = 10_000

# Bump when the table layout or the counting conventions change, so stale
# disk caches are ignored rather than trusted.
ARTIFACT_VERSION = 1


# ---------------------------------------------------------------------------
# counting arrangements


def _column_fills(degs, c, n, residual, squarefree):
    """All row vectors v with sum v_i * degs[i] = c and v_i * n <= residual_i,
    in decreasing lexicographic order; entries are at most 1 if squarefree."""
    caps = [min(r // n, 1) if squarefree else r // n for r in residual]
    return weighted_vectors(degs, caps, c)


class _Counter:
    """Arrangement counts, filled column by column: ``count(rows, cols)`` is
    the number of ways to fill the columns cols, parts (c, n) of lam, from
    the rows (b, r): parts of tau, each with the multiplicity r it has left.
    Permuting rows permutes the matrices, and a row with r = 0 is 0 in
    every later column, so a state keeps only the rows with r > 0, sorted
    like the parts of a type.  One memo, keyed on (remaining rows, remaining
    columns), serves every pair the counter is asked; next to it sit the
    fills of a column (c, n) from some rows, grouped by the rows they leave.
    A counter is in no reference cycle, so a table's memo is freed when the
    call that made it ends, not at the next collection."""

    __slots__ = ("squarefree", "memo", "steps")

    def __init__(self, squarefree):
        self.squarefree = squarefree
        self.memo = {}
        self.steps = {}

    def count(self, rows, cols):
        if not cols:
            # The weighted residual equals the total weight of the
            # remaining columns, so no rows are left either.
            return 1
        key = (rows, cols)
        total = self.memo.get(key)
        if total is not None:
            return total
        (c, n), later = cols[0], cols[1:]
        step = self.steps.get((rows, c, n))
        if step is None:
            grouped = {}
            degs, residual = [b for b, _ in rows], [r for _, r in rows]
            for fill in _column_fills(degs, c, n, residual, self.squarefree):
                rest = tuple(sorted(((b, r - f * n) for (b, r), f in zip(rows, fill) if r > f * n),
                                    reverse=True))
                grouped[rest] = grouped.get(rest, 0) + 1
            step = self.steps[(rows, c, n)] = list(grouped.items())
        total = 0
        for rest, ways in step:
            total += ways * self.count(rest, later)
        self.memo[key] = total
        return total


@lru_cache(maxsize=None)
def _walk(tau, lam, squarefree):
    """The count for one pair, from a counter of its own; the cache holds
    results only."""
    return _Counter(squarefree).count(tau.parts, lam.parts)


def count_arrangements(tau, lam, squarefree=False):
    """Number of arrangement matrices from tau to lam (a or, if squarefree, e)."""
    if tau.degree() != lam.degree():
        raise ValueError("types must have equal degree, got %d and %d"
                         % (tau.degree(), lam.degree()))
    if _above_is_impossible(tau, lam):
        return 0
    return _walk(tau, lam, bool(squarefree))


def _above_is_impossible(tau, lam):
    """Quick necessary-condition filter for tau <= lam.

    Going up the order, the index strictly drops on a forget move and the
    length strictly drops on a merge move, so (index, length) must decrease
    lexicographically from tau to lam.
    """
    if lam.index() > tau.index():
        return True
    return lam.index() == tau.index() and lam.length() > tau.length()


def leq(tau, lam):
    """Order relation: tau <= lam iff a(tau, lam) > 0, that is, iff some
    arrangement from tau to lam exists.  It reads the count, so it shares
    the count's cache."""
    return count_arrangements(tau, lam) > 0


# ---------------------------------------------------------------------------
# explicit arrangements and their tiling pictures


class Arrangement:
    """A single arrangement matrix, kept with its row and column types."""

    __slots__ = ("tau", "lam", "matrix")

    def __init__(self, tau, lam, matrix):
        self.tau = tau
        self.lam = lam
        self.matrix = tuple(tuple(row) for row in matrix)

    def to_json(self):
        return {
            "tau": self.tau.to_json(),
            "lam": self.lam.to_json(),
            "matrix": [list(row) for row in self.matrix],
        }

    def __eq__(self, other):
        if not isinstance(other, Arrangement):
            return NotImplemented
        return (self.tau, self.lam, self.matrix) == (other.tau, other.lam, other.matrix)

    def __hash__(self):
        return hash((self.tau, self.lam, self.matrix))

    def render(self):
        """ASCII tiling: one block per lam part, strips lettered by tau part.

        The block for a part (c, n) of lam is n rows of width c.  Each tau
        part (b, m), labelled by a letter, contributes full-height strips of
        width b; entry A_ij says how many strips of part i land in block j.
        """
        letters = "abcdefghijklmnopqrstuvwxyz"
        if len(self.tau.parts) > len(letters):
            raise ValueError("too many parts to letter")
        blocks = []
        for j, (c, n) in enumerate(self.lam.parts):
            row_text = "".join(
                letters[i] * b * self.matrix[i][j]
                for i, (b, _m) in enumerate(self.tau.parts)
            )
            blocks.append([row_text] * n)
        height = max(len(block) for block in blocks) if blocks else 0
        lines = []
        for r in range(height):
            cells = []
            for j, block in enumerate(blocks):
                width = self.lam.parts[j][0]
                cells.append(block[r] if r < len(block) else " " * width)
            lines.append(" ".join(cells).rstrip())
        legend = ", ".join(
            "%s = %s" % (letters[i], SplittingType([part]).label())
            for i, part in enumerate(self.tau.parts)
        )
        lines.append("with " + legend)
        return "\n".join(lines)


def enumerate_arrangements(tau, lam, squarefree=False):
    """All arrangement matrices from tau to lam, in lexicographic order.

    Raises ValueError when there are more than MAX_ENUMERATED_ARRANGEMENTS
    of them; count_arrangements gives the number without building any.
    """
    total = count_arrangements(tau, lam, squarefree)
    if total > MAX_ENUMERATED_ARRANGEMENTS:
        raise ValueError("%d arrangements from %s to %s; at most %d are enumerated"
                         % (total, tau.label(), lam.label(), MAX_ENUMERATED_ARRANGEMENTS))
    return list(_fill_columns(tau, lam, squarefree, tuple(m for _, m in tau.parts), []))


def _fill_columns(tau, lam, squarefree, residual, columns):
    """Yield every arrangement from tau to lam whose first columns are
    columns, the rows keeping the multiplicities residual for the rest.  It
    recurses at module level, so a call leaves no reference cycle."""
    j = len(columns)
    if j == len(lam.parts):
        yield Arrangement(tau, lam, zip(*columns))
        return
    c, n = lam.parts[j]
    for fill in _column_fills([b for b, _ in tau.parts], c, n, residual, squarefree):
        rest = tuple(r - f * n for r, f in zip(residual, fill))
        yield from _fill_columns(tau, lam, squarefree, rest, columns + [fill])


# ---------------------------------------------------------------------------
# incidence tables


class IncidenceTable:
    """Dense upper-triangular table at one degree: an incidence function, or a
    polysymmetric basis transition."""

    __slots__ = ("degree", "tag", "types", "entries", "_pos")

    def __init__(self, degree, tag, types, entries):
        self.degree = degree
        self.tag = tag
        self.types = list(types)
        self.entries = [list(row) for row in entries]
        self._pos = {t: i for i, t in enumerate(self.types)}

    def value(self, tau, lam):
        i = self._pos.get(tau)
        j = self._pos.get(lam)
        if i is None or j is None:
            raise KeyError("type not present in table of degree %d" % self.degree)
        return self.entries[i][j]

    def to_json(self):
        return {
            "degree": self.degree,
            "tag": self.tag,
            "types": [t.to_json() for t in self.types],
            "entries": [[format_rational(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, data):
        degree = data["degree"]
        tag = data["tag"]
        if tag not in TABLE_TAGS:
            raise ValueError("unknown table tag %r" % (tag,))
        types = [SplittingType.from_json(t) for t in data["types"]]
        entries = [[parse_rational(x) for x in row] for row in data["entries"]]
        if len(entries) != len(types) or any(len(row) != len(types) for row in entries):
            raise ValueError("table entries are not square of the right size")
        for t in types:
            if t.degree() != degree:
                raise ValueError("table contains a type of the wrong degree")
        return cls(degree, tag, types, entries)

    def inverse(self, tag):
        """The inverse table, tagged ``tag``.  The table must be integral;
        the inverse is computed over Z[1/d!] for d the degree, or over Z
        for the Mobius function, which inverts the order.  A non-integral
        entry, or an inverse entry outside that ring, raises MathCheckError."""
        if any(x.denominator != 1 for row in self.entries for x in row):
            raise MathCheckError("table entry outside Z", {"degree": self.degree, "tag": self.tag})
        rows = [[x.numerator for x in row] for row in self.entries]
        scale = 1 if tag == "mobius" else math.factorial(self.degree)
        size = len(rows)
        split = [(row[k], [(j, x) for j, x in enumerate(row[k + 1:], k + 1) if x])
                 for k, row in enumerate(rows)]
        detail = {"degree": self.degree, "tag": tag}
        inv = [_inverse_row(i, size, split.__getitem__, scale, detail) for i in range(size)]
        return IncidenceTable(self.degree, tag, self.types, _fractions(inv, scale))


def _walk_rows(types, squarefree):
    """The int table of arrangement counts on types in canonical order, a
    linear extension of the order, so it is upper-triangular.  One counter
    serves every row, so rows that reach the same (remaining rows,
    remaining columns) share that work.  Transposing a matrix gives
    a(tau, lam) = a(lam*, tau*), and e likewise, so an entry whose dual
    lies in a row already walked is read from it; types must be closed
    under duals."""
    count = _Counter(squarefree).count
    pos = {t: i for i, t in enumerate(types)}
    dual = [pos[t.dual()] for t in types]
    rows = []
    for i, tau in enumerate(types):
        rows.append([0] * i + [rows[dual[j]][dual[i]] if dual[j] < i
                               else count(tau.parts, types[j].parts)
                               for j in range(i, len(types))])
    return rows


def _inverse_row(i, size, row, scale, detail):
    """Row i of scale times the inverse of an upper-triangular int table t
    of the given size, by back substitution over the integers: for i < j,

        inv[i][j] = -(1 / t[j][j]) * sum over i <= k < j of inv[i][k] * t[k][j].

    ``row(k)`` gives t[k][k] and the pairs (j, t[k][j]) with j > k and
    t[k][j] nonzero; it is asked only for the k with inv[i][k] nonzero.  A
    remainder in a division means an entry outside Z[1/scale] and raises
    MathCheckError with ``detail``."""
    out = [0] * size
    acc = [0] * size
    acc[i] = -scale  # so the diagonal comes out as scale / t[i][i]
    for k in range(i, size):
        if not acc[k]:
            continue
        diagonal, entries = row(k)
        x, remainder = divmod(-acc[k], diagonal)
        if remainder:
            raise MathCheckError(
                "inverse table entry outside Z[1/d!]",
                dict(detail, entry=format_rational(Fraction(-acc[k], diagonal * scale))))
        out[k] = x
        for j, y in entries:
            acc[j] += x * y
    return out


def _fractions(rows, scale=1):
    """The int table divided by scale, as the Fraction entries of a table;
    equal entries share one Fraction, built once."""
    shared = {x: Fraction(x, scale) for x in set().union(*rows)}
    return [[shared[x] for x in row] for row in rows]


def _compute_table(d, tag):
    """The table of the tag at degree d.  Rows are walked only for a and e;
    an inverse inverts its forward table, taken from the store, and the
    Mobius function inverts the order, the 0/1 pattern of a."""
    if tag in ("a", "e"):
        types = enumerate_types(d)
        return IncidenceTable(d, tag, types, _fractions(_walk_rows(types, tag == "e")))
    if tag == "mobius":
        a = incidence_table(d, "a")
        return IncidenceTable(d, "order", a.types,
                              [[int(x > 0) for x in row] for row in a.entries]).inverse(tag)
    return incidence_table(d, tag.removesuffix("_inv")).inverse(tag)


def poset(d):
    """The order on degree-d types as the set of pairs (tau, lam) with tau <= lam,
    read off the nonzero entries of the ``a`` table walk."""
    if d > MAX_POSET_DEGREE:
        raise ValueError(f"poset materialization capped at degree {MAX_POSET_DEGREE}")
    types = enumerate_types(d)
    return {(tau, lam) for tau, row in zip(types, _walk_rows(types, False))
            for lam, x in zip(types, row) if x}


# ---------------------------------------------------------------------------
# disk cache

_memory_tables = {}
# The store of the current scope; None stands for the session store,
# _memory_tables, mirrored to the disk cache.
_store = contextvars.ContextVar("table_store", default=None)


@contextlib.contextmanager
def caches_bypassed():
    """Within the block every ``incidence_table`` call, whoever makes it,
    uses a fresh in-memory store that reads and writes no disk cache and
    is dropped when the block ends: this is how the CLI's ``--no-cache``
    reaches the tables behind every command.  Inside it, each table is
    still built once."""
    token = _store.set({})
    try:
        yield
    finally:
        _store.reset(token)


def cache_directory():
    env = os.environ.get("POLYSPLIT_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "polysplit")


def _cache_path(d, tag):
    name = "table-%s-deg%02d-v%d.json" % (tag, d, ARTIFACT_VERSION)
    return os.path.join(cache_directory(), name)


def _load_cached_table(d, tag):
    path = _cache_path(d, tag)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        table = IncidenceTable.from_json(data)
        if table.degree != d or table.tag != tag:
            return None
        if table.types != list(enumerate_types(d)):
            return None
        # the diagonal the tag fixes: |Aut(tau)| for a and e, its inverse
        # for a_inv and e_inv, and 1 for the Mobius function
        power = {"a": 1, "e": 1, "mobius": 0}.get(tag, -1)
        if any(row[i] != Fraction(tau.aut_order()) ** power
               for i, (tau, row) in enumerate(zip(table.types, table.entries))):
            return None
        return table
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _store_cached_table(table):
    directory = cache_directory()
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # json.dumps runs the C encoder; json.dump writes the same
                # text through the pure-Python one, about 4x slower
                handle.write(json.dumps(table.to_json()))
            os.replace(tmp, _cache_path(table.degree, table.tag))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass


def incidence_table(d, tag):
    """The incidence table of the given tag at degree d.

    Every table comes from the store of the current scope, and is built
    there once.  The session store holds tables in memory and mirrors them
    to a JSON disk cache (POLYSPLIT_CACHE_DIR, defaulting to
    ~/.cache/polysplit); a corrupt or stale cache file is silently
    recomputed and overwritten.  An inverse table, or the Mobius function,
    is built by inverting its forward table taken from the same store, so
    on a cold cache it also stores that table.  Inside ``caches_bypassed()``
    the store is a fresh dict that no disk backs.
    """
    if tag not in TABLE_TAGS:
        raise ValueError("unknown table tag %r" % (tag,))
    check_range("table degree", d, MAX_TABLE_DEGREE)
    store = _store.get()
    on_disk = store is None
    if on_disk:
        store = _memory_tables
    table = store.get((d, tag))
    if table is None:
        table = _load_cached_table(d, tag) if on_disk else None
        if table is None:
            table = _compute_table(d, tag)
            if on_disk:
                _store_cached_table(table)
        store[(d, tag)] = table
    return table


# ---------------------------------------------------------------------------
# bundled reference tables

REFERENCE_TABLE_DEGREES = (2, 3, 4, 5)
REFERENCE_TOP_DEGREES = (6, 7, 8, 9, 10)


def _read_data_file(name):
    path = resources.files(__package__).joinpath("data").joinpath(name)
    return json.loads(path.read_text(encoding="utf-8"))


def reference_table(degree, tag):
    """Bundled hand-checked incidence table, degrees 2..5.

    Available tags: a, a_inv, mobius.
    """
    stems = {"a": "a", "a_inv": "ainv", "mobius": "mobius"}
    if tag not in stems:
        raise ValueError("no reference table for tag %r" % (tag,))
    if degree not in REFERENCE_TABLE_DEGREES:
        raise ValueError("no reference table at degree %d" % degree)
    data = _read_data_file("ref-%s-deg%d.json" % (stems[tag], degree))
    return IncidenceTable.from_json(data)


def reference_top_column(degree):
    """Bundled nonzero inverse-table entries at lam = (d), degrees 6..10.

    Types absent from the returned dict have value zero.
    """
    if degree not in REFERENCE_TOP_DEGREES:
        raise ValueError("no reference top column at degree %d" % degree)
    data = _read_data_file("ref-top-deg%d.json" % degree)
    return {SplittingType.from_json(entry["type"]): parse_rational(entry["value"])
            for entry in data["entries"]}


def verify_appendix(max_degree=None):
    """Compare computed incidence tables against the bundled reference
    tables, entry by entry; mismatches raise MathCheckError naming the
    first offending pair of types."""
    out = []
    for degree in REFERENCE_TABLE_DEGREES:
        if max_degree is not None and degree > max_degree:
            continue
        for tag in ("a", "a_inv", "mobius"):
            reference = reference_table(degree, tag)
            live = incidence_table(degree, tag)
            for tau in reference.types:
                for lam in reference.types:
                    if reference.value(tau, lam) != live.value(tau, lam):
                        raise MathCheckError(
                            "computed table differs from the reference",
                            {"tag": tag, "degree": degree,
                             "tau": tau.label(), "lam": lam.label()},
                        )
            out.append({"check": "table-" + tag, "degree": degree,
                        "entries": len(reference.types) ** 2})
    for degree in REFERENCE_TOP_DEGREES:
        if max_degree is not None and degree > max_degree:
            continue
        reference = reference_top_column(degree)
        live = top_column_inverse(degree)
        for tau, value in live.items():
            if reference.get(tau, Fraction(0)) != value:
                raise MathCheckError(
                    "computed top column differs from the reference",
                    {"degree": degree, "tau": tau.label(),
                     "lam": "(%d)" % degree},
                )
        out.append({"check": "top-column", "degree": degree,
                    "entries": len(live)})
    return out


# ---------------------------------------------------------------------------
# the top stratum


def top_stratum_inverse(tau):
    """Closed form for the inverse-table entry at lam = (d).

    Mixed types give zero.  A type with r parts, all of multiplicity m,
    contributes (mu(m)/m) * ((-1)^(r-1)/r) * r! / prod_b tau[b^m]!.
    """
    m = tau.pure_multiplicity()
    if m is None:
        return Fraction(0)
    r = len(tau.parts)
    value = Fraction(moebius(m), m) * Fraction((-1) ** (r - 1), r)
    return value * Fraction(math.factorial(r), tau.aut_order())


@lru_cache(maxsize=None)
def top_column_inverse(d):
    """Inverse-table entries a_inv(tau, (d)) for every tau of degree d.

    Transposing an arrangement matrix gives a(tau, lam) = a(lam*, tau*) for
    the dual types, and so a_inv(tau, (d)) = a_inv((1^d), tau*).  The
    bottom type (1^d) comes first in canonical order; its row of the inverse
    is back-substituted by the kernel of ``IncidenceTable.inverse``, which
    walks only the rows of a that it needs, all with one counter.
    """
    types = enumerate_types(d)
    scale = math.factorial(d)
    count = _Counter(False).count

    def row(k):
        tau = types[k].parts
        counts = enumerate((count(tau, lam.parts) for lam in types[k + 1:]), k + 1)
        return count(tau, tau), [(j, x) for j, x in counts if x]

    bottom = _inverse_row(0, len(types), row, scale, {"degree": d, "tag": "a_inv"})
    pos = {t: i for i, t in enumerate(types)}
    return {tau: Fraction(bottom[pos[tau.dual()]], scale) for tau in types}


# ---------------------------------------------------------------------------
# the free commutative monoid oracle


def monoid_oracle(d, generator_degrees):
    """Check the arrangement tables against a free commutative monoid.

    In the monoid algebra on generators of the given degrees, let x_k be
    the sum of all monoid elements of degree k.  For a splitting type tau,

        S_tau = product over parts (b, m) of psi_m(x_b),
        X_tau = sum of the monoid elements of splitting type tau,

    where an element g_1^e_1 ... g_r^e_r has type given by the multiset of
    (degree of g_i, e_i).  The tables must satisfy

        S_tau = sum over lam of a(lam, tau) * X_lam,
        X_tau = sum over lam of a_inv(lam, tau) * S_lam,

    for every tau of degree at most d, where lam runs over every type of
    that degree, so a nonzero entry off the order shows as a mismatch.
    Returns a report dictionary with the first mismatch, if any.
    """
    check_range("oracle degree", d, MAX_ORACLE_DEGREE)
    degrees = list(generator_degrees)
    if not degrees or any(g < 1 for g in degrees):
        raise ValueError("generator degrees must be positive")
    nvars = len(degrees)
    zero = MPoly(nvars)

    def type_of(exps):
        parts = []
        for g, e in zip(degrees, exps):
            if e:
                parts.append((g, e))
        return SplittingType(parts)

    x = {}
    X = {}
    for k in range(1, d + 1):
        x[k] = zero
        for exps in weighted_vectors(degrees, [k] * nvars, k):
            term = MPoly(nvars, {exps: 1})
            x[k] = x[k] + term
            t = type_of(exps)
            X[t] = X.get(t, zero) + term

    def S_of(t):
        product = MPoly(nvars, {(0,) * nvars: 1})
        for b, m in t.parts:
            product = product * x[b].power_substitute(m)
        return product

    checked = 0
    for degree in range(1, d + 1):
        table_a = incidence_table(degree, "a")
        table_inv = incidence_table(degree, "a_inv")
        for tau in enumerate_types(degree):
            lhs_sum = zero
            rhs_sum = zero
            for lam in enumerate_types(degree):
                a_val = table_a.value(lam, tau)
                if a_val:
                    lhs_sum = lhs_sum + X.get(lam, zero).scale(a_val)
                inv_val = table_inv.value(lam, tau)
                if inv_val:
                    rhs_sum = rhs_sum + S_of(lam).scale(inv_val)
            checked += 1
            if S_of(tau) != lhs_sum:
                return {"ok": False, "checked": checked,
                        "failure": {"identity": "S-from-X",
                                    "type": tau.label(), "degree": degree}}
            if X.get(tau, zero) != rhs_sum:
                return {"ok": False, "checked": checked,
                        "failure": {"identity": "X-from-S",
                                    "type": tau.label(), "degree": degree}}
    return {"ok": True, "checked": checked, "failure": None}
