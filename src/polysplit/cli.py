"""Command line surface: table generation, single queries, and the
verification suites.

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a mathematical
assertion fails.  Assertion failures write a machine-readable JSON record to
stderr naming the first offending input.
"""

import itertools
import json
import sys

import click

# Only the two choice lists come from the package here.  Each command
# imports the layers it runs when it runs, so a process loads only those:
# start-up is a large share of a short command.
from . import BASES, HYPER_MEASURES

TAG_ALIASES = {"a": "a", "e": "e", "ainv": "a_inv", "mobius": "mobius"}

# arr count and arr tilings refuse a type degree above this before they
# count.  The count grows fast with the degree: from (1 1 ... 1) to
# (1 2 3 4 ...) a cold command takes about 0.5 s at degree 18, 1.8 s at 20
# and 12 s at 24 on a 2-vCPU host.
MAX_QUERY_DEGREE = 18


@click.group()
@click.option("--no-cache", is_flag=True, default=False,
              help="Recompute tables, bypassing the memory and disk caches.")
@click.pass_context
def cli(ctx, no_cache):
    """Exact computations with splitting types, arrangement numbers, and
    graded zeta factorizations."""
    if no_cache:
        from .arrangements import caches_bypassed

        ctx.with_resource(caches_bypassed())


# ---------------------------------------------------------------------------
# types


@cli.group(name="types")
def types_group():
    """Splitting-type enumeration."""


@types_group.command(name="enumerate")
@click.option("--degree", type=int, required=True)
@click.option("--poset", "show_poset", is_flag=True, default=False,
              help="Also list the order relations.")
def types_enumerate(degree, show_poset):
    """List the types of the given degree in canonical order."""
    from .arrangements import poset
    from .types import enumerate_types

    types = enumerate_types(degree)
    order = poset(degree) if show_poset else set()
    for tau in types:
        click.echo(tau.label())
    # the canonical order extends the type order: its relations lie above the diagonal
    for tau, lam in itertools.combinations(types, 2) if show_poset else ():
        if (tau, lam) in order:
            click.echo("%s <= %s" % (tau.label(), lam.label()))


# ---------------------------------------------------------------------------
# arrangement numbers


@cli.group(name="arr")
def arr_group():
    """Arrangement counts and incidence tables."""


def _table_csv(table):
    from .rings import format_rational

    labels = [t.label() for t in table.types]
    lines = [",".join(["type"] + ['"%s"' % s for s in labels])]
    for tau, row in zip(table.types, table.entries):
        cells = [format_rational(x) for x in row]
        lines.append(",".join(['"%s"' % tau.label()] + cells))
    return "\n".join(lines)


def _table_ascii(table):
    from .rings import format_rational

    labels = [t.label() for t in table.types]
    rows = [[""] + labels]
    for tau, row in zip(table.types, table.entries):
        rows.append([tau.label()] + [format_rational(x) for x in row])
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


@arr_group.command(name="table")
@click.option("--degree", type=int, required=True)
@click.option("--tag", type=click.Choice(sorted(TAG_ALIASES)), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "ascii"]),
              default="json", show_default=True)
def arr_table(degree, tag, fmt):
    """Print a full incidence table for one degree."""
    from .arrangements import incidence_table

    table = incidence_table(degree, TAG_ALIASES[tag])
    if fmt == "json":
        click.echo(json.dumps(table.to_json(), indent=2))
    elif fmt == "csv":
        click.echo(_table_csv(table))
    else:
        click.echo(_table_ascii(table))


def _query_types(tau_text, lam_text):
    """The types --tau and --lambda, refused when either degree exceeds
    MAX_QUERY_DEGREE."""
    from .rings import check_range
    from .types import parse_type

    tau, lam = parse_type(tau_text), parse_type(lam_text)
    check_range("type degree", max(tau.degree(), lam.degree()), MAX_QUERY_DEGREE)
    return tau, lam


@arr_group.command(name="count")
@click.option("--tau", "tau_text", required=True)
@click.option("--lambda", "lam_text", required=True)
@click.option("--squarefree", is_flag=True, default=False)
def arr_count(tau_text, lam_text, squarefree):
    """Count arrangements transporting --tau into --lambda."""
    from .arrangements import count_arrangements

    tau, lam = _query_types(tau_text, lam_text)
    click.echo(str(count_arrangements(tau, lam, squarefree=squarefree)))


@arr_group.command(name="tilings")
@click.option("--tau", "tau_text", required=True)
@click.option("--lambda", "lam_text", required=True)
@click.option("--render", is_flag=True, default=False,
              help="Draw each arrangement as an ASCII tiling.")
def arr_tilings(tau_text, lam_text, render):
    """Enumerate the arrangements themselves."""
    from .arrangements import enumerate_arrangements

    tau, lam = _query_types(tau_text, lam_text)
    found = enumerate_arrangements(tau, lam)
    if render:
        blocks = [arr.render() for arr in found]
        click.echo("\n\n".join(blocks) if blocks else "(none)")
    else:
        for arr in found:
            click.echo(json.dumps(arr.to_json()))
    click.echo("total %d" % len(found), err=False)


# ---------------------------------------------------------------------------
# input files


def _read_input(path, from_json):
    """Parse a JSON input file with ``from_json``.

    A file whose structure ``from_json`` cannot walk (a missing key, a short
    list, a value of the wrong type, a zero denominator) is a usage error
    naming the file, not a traceback.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    try:
        return from_json(data)
    except (KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError("malformed input file %s (%s: %s)"
                         % (path, type(exc).__name__, exc)) from None


# ---------------------------------------------------------------------------
# polysymmetric bases


@cli.command(name="polysym")
@click.argument("action", type=click.Choice(["convert"]))
@click.option("--from", "source", type=click.Choice(BASES), required=True)
@click.option("--to", "target", type=click.Choice(BASES), required=True)
@click.option("--element", "path", type=click.Path(exists=True), required=True)
def polysym_cmd(action, source, target, path):
    """Convert an element file between bases."""
    from .polysym import PolysymElement, convert

    element = _read_input(path, PolysymElement.from_json)
    if element.basis != source:
        raise ValueError(
            "element file is in basis %r, not %r" % (element.basis, source))
    click.echo(json.dumps(convert(element, target).to_json(), indent=2))


# ---------------------------------------------------------------------------
# zeta factorizations


@cli.command(name="zeta")
@click.argument("direction", type=click.Choice(["invert", "forward"]))
@click.option("--ring", "token", required=True)
@click.option("--values", "path", type=click.Path(exists=True), required=True)
@click.option("--upto", type=int, default=None)
def zeta_cmd(direction, token, path, upto):
    """Invert a closed-stratum sequence, or expand an irreducible one."""
    from .plethysm import MeasureSequence, forward_zeta, invert_zeta

    sequence = _read_input(path, MeasureSequence.from_json)
    if sequence.ring.name != token:
        raise ValueError(
            "values file is over ring %r, not %r" % (sequence.ring.name, token))
    if direction == "invert":
        out = invert_zeta(sequence.ring, sequence.values, upto=upto)
        role = "irreducible"
    else:
        out = forward_zeta(sequence.ring, sequence.values, upto=upto)
        role = "closed"
    result = MeasureSequence(sequence.ring, out, role=role)
    click.echo(json.dumps(result.to_json(), indent=2))


# ---------------------------------------------------------------------------
# hypersurface measures


@cli.command(name="hyper")
@click.option("--dim", type=int, required=True)
@click.option("--degree", type=int, required=True)
@click.option("--measure", type=click.Choice(HYPER_MEASURES), required=True)
@click.option("--q", "q", type=int, default=None)
@click.option("--stratum", "stratum_text", default=None)
def hyper_cmd(dim, degree, measure, q, stratum_text):
    """Measures of the irreducible hypersurfaces: geometrically irreducible
    for motive and epoly, irreducible over F_q for count."""
    from . import applications
    from .types import parse_type

    if measure == "stratum-mass":
        if stratum_text is None:
            raise ValueError("--measure stratum-mass needs --stratum")
        lam = parse_type(stratum_text)
        if lam.degree() != degree:
            raise ValueError(
                "stratum %s has degree %d, not %d"
                % (lam.label(), lam.degree(), degree))
        click.echo(str(applications.stratum_mass(lam, dim)))
        return
    if stratum_text is not None:
        raise ValueError("--stratum only applies to --measure stratum-mass")
    value = applications.irr_hypersurface(dim, degree, measure, q=q)
    if measure == "rcc":
        click.echo("(%d, %d)" % value)
    else:
        click.echo(str(value))


# ---------------------------------------------------------------------------
# inverse Polya counting


@cli.command(name="polya")
@click.option("--x", "xs_text", required=True,
              help="Comma-separated multiset counts x_1,x_2,...")
@click.option("--symbolic", "symbolic_degree", type=int, default=None)
def polya_cmd(xs_text, symbolic_degree):
    """Count atoms from their multiset counts, or print the general formulas."""
    from . import applications
    from .plethysm import symbolic_inverse

    if symbolic_degree is not None:
        ring, us = symbolic_inverse(symbolic_degree)
        for d, u in enumerate(us, start=1):
            click.echo("u_%d = %s" % (d, u.to_string(ring.names)))
        return
    xs = [int(tok) for tok in xs_text.split(",") if tok.strip()]
    for d, u in enumerate(applications.inverse_polya(xs), start=1):
        click.echo("u_%d = %d" % (d, u))


# ---------------------------------------------------------------------------
# character varieties


@cli.group(name="charvar")
def charvar_group():
    """Counting results for character varieties."""


@charvar_group.command(name="transitive")
@click.option("--letters", type=int, required=True)
@click.option("--rank", type=int, required=True)
@click.option("--oracle", is_flag=True, default=False,
              help="Cross-check against the brute-force count.")
def charvar_transitive(letters, rank, oracle):
    """Transitive permutation-tuple classes on the given letters."""
    from . import applications
    from .rings import MathCheckError

    value = applications.transitive_tuples(letters, rank)
    click.echo("%d" % value)
    if oracle:
        check = applications.transitive_oracle(letters, rank)
        if check != value:
            raise MathCheckError(
                "transitive count disagrees with the oracle",
                {"letters": letters, "rank": rank,
                 "formula": value, "oracle": check},
            )
        click.echo("oracle: ok")


@charvar_group.command(name="sl")
@click.option("--degree", type=int, required=True)
@click.option("--rank", type=int, required=True)
@click.option("--mode", type=click.Choice(["epoly", "euler"]),
              default="epoly", show_default=True)
def charvar_sl(degree, rank, mode):
    """Special-linear character-variety invariants, degree by degree."""
    from . import applications

    values = applications.sl_character_variety(degree, rank, mode=mode)
    for d, value in enumerate(values, start=1):
        click.echo("U_%d = %s" % (d, value))


# ---------------------------------------------------------------------------
# verification suites


@cli.command(name="verify")
@click.argument("suite", type=click.Choice(
    ["appendix", "figure1", "identities", "oracles"]))
@click.option("--max-degree", type=int, default=None)
def verify_cmd(suite, max_degree):
    """Re-run a verification suite; any mismatch exits with code 2."""
    if max_degree is not None and max_degree < 1:
        raise ValueError("max degree must be at least 1")
    if suite == "appendix":
        from .arrangements import verify_appendix

        checks = verify_appendix(max_degree=max_degree)
    else:
        from . import applications

        suites = {"figure1": applications.verify_factorization,
                  "identities": applications.verify_identities,
                  "oracles": applications.verify_oracles}
        checks = suites[suite](max_degree=max_degree)
    for check in checks:
        fields = ", ".join("%s=%s" % (k, check[k]) for k in sorted(check))
        click.echo("ok: %s" % fields)
    click.echo("all %d checks passed" % len(checks))


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    from .rings import MathCheckError

    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except MathCheckError as exc:
        record = {"error": "math-check-failure", "message": str(exc),
                  "detail": exc.detail}
        click.echo(json.dumps(record, default=str), err=True)
        return 2
    except ValueError as exc:
        click.echo("error: %s" % exc, err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
