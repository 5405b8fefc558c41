"""Every function in ``src/polysplit`` is reached from the command line, or
named in ``ALLOWED`` with the reason it stays.

One run of every command, option, table tag and format, hypersurface
measure, basis pair, ring token (in both zeta directions) and verify suite
goes through ``polysplit.cli.main`` in this process under
``sys.setprofile``, which records every Python function entered.  Every
named function and method that the package source defines must be among
them or in ``ALLOWED``.  A function that no command reaches needs a route
from the CLI, a reason here, or deletion; an ``ALLOWED`` entry that a
command does reach, or that names nothing, must go.
"""

import contextlib
import inspect
import io
import json
import pathlib
import sys
import time

import polysplit
from polysplit import arrangements, cli
from polysplit.polysym import BASES
from polysplit.rings import RING_TOKENS

PACKAGE = pathlib.Path(polysplit.__file__).resolve().parent
BUDGET_S = 15

DATA_MODEL = "data model: equality, hashing, repr or an operator of a value type"
ABSTRACT = "abstract: every ring descriptor overrides it"
PERFBENCH = "perfbench span target"
ZETA_RINGS = "perfbench zeta-rings output check"

ALLOWED = {
    # arrangements
    "arrangements.Arrangement.__eq__": DATA_MODEL,
    "arrangements.Arrangement.__hash__": DATA_MODEL,
    "arrangements.leq": PERFBENCH + " (session-warm order queries)",
    "arrangements.top_stratum_inverse": "the paper's closed form; acceptance criterion 3 "
                                        "and the tables-cold output check",
    # plethysm
    "plethysm.binomial_strata": "paper formula; acceptance criterion 11 (a command "
                                "`strata --values FILE --degree D` would route it)",
    "plethysm.multinomial": "the multinomial classes behind binomial_strata",
    "plethysm.generic_plethysm": "the abstract's general plethysm (an action "
                                 "`polysym plethysm --element FILE --values FILE` "
                                 "would route it)",
    "plethysm.powerfree": "paper formula; acceptance criterion 11",
    "plethysm._powerfree_class": "part of powerfree",
    "plethysm._x_product": "part of powerfree",
    # polysym
    "polysym.PolysymElement.__add__": DATA_MODEL,
    "polysym.PolysymElement.__eq__": DATA_MODEL,
    "polysym.PolysymElement.__neg__": DATA_MODEL,
    "polysym.PolysymElement.__repr__": DATA_MODEL,
    "polysym.PolysymElement.__sub__": DATA_MODEL,
    "polysym.PolysymElement.scale": "element API: a rational multiple; __neg__ uses it",
    "polysym.PolysymElement.show": "element API: signed-term text of an element; "
                                   "__repr__ uses it",
    "polysym.adams_ps": PERFBENCH,
    "polysym.multiply": PERFBENCH + "; acceptance criterion 11",
    "polysym.complete_element": "acceptance criterion 11",
    "polysym.omega": "acceptance criterion 11",
    "polysym.pairing": "acceptance criterion 11",
    # rings
    "rings.MPoly.__repr__": DATA_MODEL,
    "rings.Poly.__repr__": DATA_MODEL,
    "rings.PolyRing.variable": "ring API: the generator w, used by acceptance criterion 11",
    "rings.RatFunc.__eq__": DATA_MODEL,
    "rings.RatFunc.__hash__": DATA_MODEL,
    "rings.RatFunc.__repr__": DATA_MODEL,
    "rings.RatFunc.__str__": DATA_MODEL,
    "rings.RatFunc.__sub__": DATA_MODEL,
    "rings.RatFunc.inverse": "acceptance criterion 11 (ratfunc sample values)",
    "rings.RatFunc.is_zero": "element API used by RatFunc.inverse",
    "rings.RationalFunctionRing.variable": "ring API: the generator w, used by acceptance "
                                           "criterion 11",
    "rings.RingDescriptor.exact_div_by_int": ABSTRACT,
    "rings.RingDescriptor.from_int": ABSTRACT,
    "rings.RingDescriptor.from_json": ABSTRACT,
    "rings.WittElement.__eq__": DATA_MODEL,
    "rings.WittElement.__hash__": DATA_MODEL,
    "rings.WittElement.__repr__": DATA_MODEL,
    "rings.WittElement.geometric": "acceptance criterion 11 (Witt sample values)",
    "rings.WittElement.ghost": ZETA_RINGS + "; acceptance criterion 11",
    "rings.WittElement.truncate": ZETA_RINGS,
    "rings.WittRing.eq": "equality over the smaller truncation order; the zeta round-trip tests",
    "rings._Terms.__hash__": DATA_MODEL,
    "rings.ser_exp": PERFBENCH,
    "rings.ser_inv": PERFBENCH,
    "rings.ser_log": PERFBENCH,
    "rings.ser_mul": PERFBENCH,
    # types
    "types.SplittingType.__repr__": DATA_MODEL,
    "types.SplittingType.part_degrees": "used by binomial_strata",
    "types.SplittingType.pure_multiplicity": "used by top_stratum_inverse",
    "types.SplittingType.slot_multiplicities": "used by binomial_strata",
}

# values files, one per ring token
VALUES = {
    "Z": [2, 4, 8],
    "Q": ["1/2", "3", "1"],
    "polyZ": [{"coeffs": {"0": 1, "1": 2}}] * 3,
    "polyQ": [{"coeffs": {"0": "1/2", "1": 2}}] * 3,
    "ratfunc": [{"num": {"coeffs": {"0": 1}}, "den": {"coeffs": {"0": 1, "1": -1}}},
                {"coeffs": {"1": 1}}],
    "pair": [[1, 2], [3, 4], [0, 1]],
    "witt": [{"order": 3, "coeffs": ["1", "1", "0", "2"]}] * 2,
}


def _defined():
    """Module-qualified name of every named function and method in the
    package source, keyed on (file, qualified name)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if inspect.iscode(const):
                    stack.append(const)
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        out[path.name, const.co_qualname] = "%s.%s" % (path.stem, const.co_qualname)
    return out


def _runs(tmp_path):
    """(argv, exit code) for one run of every command and option."""
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    runs = [
        (["types", "enumerate", "--degree", "4", "--poset"], 0),
        (["arr", "count", "--tau", "1^4", "--lambda", "2,1^2"], 0),
        (["arr", "count", "--tau", "1^4", "--lambda", "2^2", "--squarefree"], 0),
        (["arr", "tilings", "--tau", "1^4", "--lambda", "2^2"], 0),
        (["arr", "tilings", "--tau", "1^4", "--lambda", "2^2", "--render"], 0),
        (["polya", "--x", "2,4,8"], 0),
        (["polya", "--x", "0", "--symbolic", "3"], 0),
        (["polya", "--x", ""], 1),
        (["charvar", "transitive", "--letters", "3", "--rank", "2", "--oracle"], 0),
        (["charvar", "sl", "--degree", "3", "--rank", "2", "--mode", "epoly"], 0),
        (["charvar", "sl", "--degree", "3", "--rank", "2", "--mode", "euler"], 0),
        (["hyper", "--dim", "2", "--degree", "3", "--measure", "stratum-mass",
          "--stratum", "2,1"], 0),
        (["hyper", "--dim", "2", "--degree", "3", "--measure", "count", "--q", "2"], 0),
    ]
    runs += [(["hyper", "--dim", "2", "--degree", "3", "--measure", measure], 0)
             for measure in ("motive", "epoly", "euler", "rcc", "realeuler")]
    runs += [(["arr", "table", "--degree", "3", "--tag", tag, "--format", fmt], 0)
             for tag in ("a", "e", "ainv", "mobius") for fmt in ("json", "csv", "ascii")]
    terms = [{"type": [[2, 1], [1, 2]], "coeff": "3/2"}, {"type": [[1, 3]], "coeff": "-2"}]
    for source in BASES:
        element = write("element-%s.json" % source, {"basis": source, "terms": terms})
        runs += [(["polysym", "convert", "--from", source, "--to", target,
                   "--element", element], 0) for target in BASES if target != source]
    for token in RING_TOKENS:
        values = write("values-%s.json" % token,
                       {"ring": token, "role": "closed", "values": VALUES[token]})
        runs.append((["zeta", "invert", "--ring", token, "--values", values], 0))
        runs.append((["zeta", "forward", "--ring", token, "--values", values, "--upto", "2"], 0))
    bad = write("bad-witt.json", {"ring": "witt", "role": "closed",
                                  "values": [{"order": 4, "coeffs": ["2", "1", "0", "0", "0"]}]})
    runs.append((["zeta", "invert", "--ring", "witt", "--values", bad], 2))
    runs += [(["--no-cache", "verify", suite, "--max-degree", str(cap)], 0)
             for suite, cap in (("appendix", 6), ("figure1", 6), ("identities", 6),
                                ("oracles", 5))]
    return runs


def test_every_function_is_reached_from_the_cli_or_allowed(tmp_path, monkeypatch):
    start = time.monotonic()
    # Fresh caches, so that what a command reaches does not depend on the
    # tests that ran before this one.
    monkeypatch.setenv("POLYSPLIT_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(arrangements, "_memory_tables", {})
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("polysplit."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    for argv, want in _runs(tmp_path):
        out, err = io.StringIO(), io.StringIO()
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            sys.setprofile(None)
        assert code == want, (argv, err.getvalue())

    reached = {(pathlib.Path(code.co_filename).name, code.co_qualname) for code in entered
               if pathlib.Path(code.co_filename).resolve().parent == PACKAGE}
    defined = _defined()
    names = set(defined.values())
    unreached = sorted(name for key, name in defined.items() if key not in reached)
    assert sorted(set(unreached) - set(ALLOWED)) == [], "reached by no command and not allowed"
    assert sorted(set(ALLOWED) - names) == [], "allowed but not defined"
    assert sorted(set(ALLOWED) - set(unreached)) == [], "allowed but reached"
    elapsed = time.monotonic() - start
    assert elapsed < BUDGET_S, "ran %.1fs, over the %ds budget" % (elapsed, BUDGET_S)
