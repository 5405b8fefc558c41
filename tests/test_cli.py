"""End-to-end tests of the command line surface.

Each test drives ``polysplit.cli.main`` with an argv list and inspects the
exit code plus captured output, exactly as a shell user would see it.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from polysplit import arrangements, rings
from polysplit.arrangements import incidence_table
from polysplit.cli import MAX_QUERY_DEGREE, cli, main
from polysplit.polysym import BASES
from polysplit.rings import RING_TOKENS
from polysplit.types import enumerate_types


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# headline examples


def test_polya_menu_roundtrip(capsys):
    code, out, _ = run(capsys, "polya", "--x", "2,4")
    assert code == 0
    assert "u_1 = 2" in out
    assert "u_2 = 1" in out


def test_arr_count_example(capsys):
    code, out, _ = run(capsys, "arr", "count",
                       "--tau", "1 1 1", "--lambda", "2 1")
    assert code == 0
    assert out.strip() == "3"


def test_arr_count_squarefree(capsys):
    code, out, _ = run(capsys, "arr", "count", "--tau", "1^2", "--lambda", "2")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "arr", "count", "--tau", "1^2", "--lambda", "2",
                       "--squarefree")
    assert (code, out.strip()) == (0, "0")


def test_hyper_quartic_motive(capsys):
    code, out, _ = run(capsys, "hyper", "--dim", "2", "--degree", "4",
                       "--measure", "motive")
    assert code == 0
    assert out.strip() == (
        "w^14 + w^13 + w^12 - 2*w^10 - 2*w^9 - w^8 + w^7 + w^6")


def test_hyper_count_at_a_prime(capsys):
    code, out, _ = run(capsys, "hyper", "--dim", "2", "--degree", "2",
                       "--measure", "count", "--q", "3")
    assert code == 0
    assert out.strip().isdigit()


@pytest.mark.parametrize("q", ["0", "1", "-3", "6"])
def test_hyper_count_rejects_a_field_size_that_is_not_a_prime_power(capsys, q):
    code, out, err = run(capsys, "hyper", "--dim", "2", "--degree", "2",
                         "--measure", "count", "--q=" + q)
    assert (code, out) == (1, "")
    assert err == "error: q must be a prime power below 2^64, got %s\n" % q


def test_polya_symbolic_menu(capsys):
    code, out, _ = run(capsys, "polya", "--x", "0", "--symbolic", "2")
    assert code == 0
    assert "u_2 = -1/2*x_1^2 - 1/2*x_1 + x_2" in out


@pytest.mark.parametrize("degree", ["0", "31"])
def test_polya_symbolic_degree_is_bounded(capsys, degree):
    code, out, err = run(capsys, "polya", "--x", "0", "--symbolic", degree)
    assert (code, out) == (1, "")
    assert err == "error: symbolic degree must be between 1 and 30\n"


# ---------------------------------------------------------------------------
# tables


def test_arr_table_json_roundtrip(capsys):
    code, out, _ = run(capsys, "arr", "table", "--degree", "3",
                       "--tag", "ainv", "--format", "json")
    assert code == 0
    data = json.loads(out)
    table = incidence_table(3, "a_inv")
    assert data == table.to_json()


def test_arr_table_csv_headers(capsys):
    code, out, _ = run(capsys, "arr", "table", "--degree", "2",
                       "--tag", "a", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("type,")
    assert '"(1^2)"' in header and '"(2)"' in header


def test_arr_table_ascii(capsys):
    code, out, _ = run(capsys, "arr", "table", "--degree", "2",
                       "--tag", "mobius", "--format", "ascii")
    assert code == 0
    assert "(1^2)" in out


def test_arr_table_no_cache(capsys):
    code, out, _ = run(capsys, "--no-cache", "arr", "table", "--degree", "2",
                       "--tag", "a", "--format", "json")
    assert code == 0
    assert json.loads(out)["degree"] == 2


# the commands that build incidence tables, on small inputs
TABLE_COMMANDS = {
    "arr-table": ["arr", "table", "--degree", "4", "--tag", "ainv"],
    "arr-table-mobius": ["arr", "table", "--degree", "4", "--tag", "mobius"],
    "verify-appendix": ["verify", "appendix", "--max-degree", "3"],
    "verify-oracles": ["verify", "oracles", "--max-degree", "3"],
    "polysym-convert": ["polysym", "convert", "--from", "M", "--to", "E", "--element"],
    "polysym-convert-eplus": ["polysym", "convert", "--from", "Eplus", "--to", "M", "--element"],
    "hyper-stratum-mass": ["hyper", "--dim", "2", "--degree", "4", "--measure", "stratum-mass",
                           "--stratum", "2,1^2"],
}


@pytest.mark.parametrize("name", list(TABLE_COMMANDS))
def test_no_cache_reads_and_writes_no_cache(capsys, tmp_path, monkeypatch, name):
    args = list(TABLE_COMMANDS[name])
    if args[-1] == "--element":
        element = tmp_path / "element.json"
        basis = args[args.index("--from") + 1]
        element.write_text(json.dumps({"basis": basis, "terms": [
            {"type": [[2, 1], [1, 2]], "coeff": "3/2"}, {"type": [[1, 3]], "coeff": "-2"}]}))
        args.append(str(element))
    cache = tmp_path / "cache"
    monkeypatch.setenv("POLYSPLIT_CACHE_DIR", str(cache))
    monkeypatch.setattr(arrangements, "_memory_tables", {})
    code, bypassed, err = run(capsys, "--no-cache", *args)
    assert (code, err) == (0, "")
    assert not cache.exists() or not list(cache.iterdir())
    assert arrangements._memory_tables == {}
    code, cached, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert list(cache.iterdir()), "the command built no table"
    assert bypassed == cached


def test_arr_tilings(capsys):
    code, out, _ = run(capsys, "arr", "tilings",
                       "--tau", "1 1", "--lambda", "2")
    assert code == 0
    assert "total 1" in out
    code, out, _ = run(capsys, "arr", "tilings",
                       "--tau", "1 1", "--lambda", "2", "--render")
    assert code == 0
    assert "with a" in out


def test_arr_tilings_refuses_too_many_arrangements(capsys):
    ones = ",".join(["1"] * 8)  # 8! = 40,320 permutation matrices
    code, out, err = run(capsys, "arr", "tilings", "--tau", ones, "--lambda", ones)
    assert code == 1
    assert out == ""
    assert err.startswith("error: 40320 arrangements") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["count", "tilings"])
def test_arr_queries_are_bounded_by_type_degree(capsys, command):
    cap = MAX_QUERY_DEGREE
    code, out, err = run(capsys, "arr", command, "--tau", "1^%d" % cap, "--lambda", str(cap))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] in ("1", "total 1")
    code, out, err = run(capsys, "arr", command, "--tau", "1^%d" % (cap + 1),
                         "--lambda", str(cap + 1))
    assert (code, out) == (1, "")
    assert err == "error: type degree must be between 1 and %d\n" % cap


def test_types_enumerate(capsys):
    code, out, _ = run(capsys, "types", "enumerate", "--degree", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(1^4)"
    assert lines[-1] == "(4)"
    code, out, _ = run(capsys, "types", "enumerate", "--degree", "3",
                       "--poset")
    assert code == 0
    assert "(1^3) <= (3)" in out


# SHA-256 of the stdout of `types enumerate --degree 8 --poset`, recorded
# when the relations came from one leq call per pair of types
PINNED_POSET_8 = "2684f7d4ae78733998b9b0f8795194165710179dcb11dd9102af6975ac1814a8"


def test_types_enumerate_poset_is_pinned(capsys):
    code, out, err = run(capsys, "types", "enumerate", "--degree", "8", "--poset")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_POSET_8


def test_types_enumerate_poset_cap_prints_nothing(capsys):
    code, out, err = run(capsys, "types", "enumerate", "--degree", "13", "--poset")
    assert code == 1
    assert out == ""
    assert err == "error: poset materialization capped at degree 12\n"


# ---------------------------------------------------------------------------
# file-based commands


def test_polysym_convert_roundtrip(capsys, tmp_path):
    element = {"basis": "H", "terms": [{"type": [[2, 1], [1, 1]],
                                        "coeff": "3/2"}]}
    src = tmp_path / "element.json"
    src.write_text(json.dumps(element))
    code, out, _ = run(capsys, "polysym", "convert", "--from", "H",
                       "--to", "M", "--element", str(src))
    assert code == 0
    mid = tmp_path / "converted.json"
    mid.write_text(out)
    code, back, _ = run(capsys, "polysym", "convert", "--from", "M",
                        "--to", "H", "--element", str(mid))
    assert code == 0
    assert json.loads(back) == element


def test_polysym_convert_basis_mismatch(capsys, tmp_path):
    src = tmp_path / "element.json"
    src.write_text(json.dumps({"basis": "M", "terms": []}))
    code, _, err = run(capsys, "polysym", "convert", "--from", "H",
                       "--to", "M", "--element", str(src))
    assert code == 1
    assert "basis" in err


def test_zeta_invert_forward_roundtrip(capsys, tmp_path):
    closed = {"ring": "Z", "role": "closed", "values": [2, 4, 8, 16, 32]}
    src = tmp_path / "closed.json"
    src.write_text(json.dumps(closed))
    code, out, _ = run(capsys, "zeta", "invert", "--ring", "Z",
                       "--values", str(src))
    assert code == 0
    inverted = json.loads(out)
    assert inverted["role"] == "irreducible"
    assert inverted["values"] == [2, 1, 2, 3, 6]
    mid = tmp_path / "irr.json"
    mid.write_text(out)
    code, out, _ = run(capsys, "zeta", "forward", "--ring", "Z",
                       "--values", str(mid))
    assert code == 0
    assert json.loads(out)["values"] == closed["values"]


def test_zeta_upto_truncates(capsys, tmp_path):
    closed = {"ring": "Q", "role": "closed", "values": ["1", "1", "1", "1"]}
    src = tmp_path / "closed.json"
    src.write_text(json.dumps(closed))
    code, out, _ = run(capsys, "zeta", "invert", "--ring", "Q",
                       "--values", str(src), "--upto", "2")
    assert code == 0
    assert len(json.loads(out)["values"]) == 2


@pytest.mark.parametrize("direction", ["invert", "forward"])
@pytest.mark.parametrize("upto", ["0", "-3", "5"])
def test_zeta_upto_is_bounded(capsys, tmp_path, direction, upto):
    src = tmp_path / "values.json"
    src.write_text(json.dumps({"ring": "Z", "role": "closed", "values": [1, 2, 3, 4]}))
    code, out, err = run(capsys, "zeta", direction, "--ring", "Z",
                         "--values", str(src), "--upto", upto)
    assert (code, out, err) == (1, "", "error: upto must be between 1 and 4\n")


@pytest.mark.parametrize("command", ["polya", "invert", "forward"])
def test_value_lists_are_bounded(capsys, tmp_path, command):
    # 1,000 values run and 1,001 are refused before any inversion
    for n in (1000, 1001):
        if command == "polya":
            args = ("polya", "--x", ",".join(["1"] * n))
        else:
            src = tmp_path / "values.json"
            src.write_text(json.dumps({"ring": "Z", "values": [1] * n}))
            args = ("zeta", command, "--ring", "Z", "--values", str(src))
        code, out, err = run(capsys, *args)
        if n == 1000:
            assert (code, err) == (0, "")
            count = len(out.splitlines()) if command == "polya" else len(json.loads(out)["values"])
            assert count == n
        else:
            assert (code, out) == (1, "")
            assert err == "error: number of values must be between 1 and 1000\n"


def test_zeta_ring_mismatch(capsys, tmp_path):
    src = tmp_path / "closed.json"
    src.write_text(json.dumps({"ring": "Z", "role": "closed",
                               "values": ["1"]}))
    code, _, err = run(capsys, "zeta", "invert", "--ring", "Q",
                       "--values", str(src))
    assert code == 1
    assert "ring" in err


# ---------------------------------------------------------------------------
# exit codes


MALFORMED_INPUTS = [
    ("zeta", {"role": "closed", "values": [1, 2]}),
    ("zeta", {"ring": "Z", "role": "closed"}),
    ("zeta", {"ring": "Z", "role": "closed", "values": ["1/0"]}),
    ("zeta", [2, 4, 8]),
    ("polysym", {"basis": "M"}),
    ("polysym", {"basis": "M", "terms": [{"type": [[1, 1]], "coeff": "1/0"}]}),
    ("polysym", [{"basis": "M", "terms": []}]),
    ("zeta", {"ring": "witt", "values": ["1"]}),
    ("zeta", {"ring": "Z", "values": 5}),
    ("zeta", {"ring": "witt", "values": [{"order": None, "coeffs": ["1"]}]}),
    ("zeta", {"ring": "ratfunc", "values": [{"num": {"coeffs": {"0": "1"}}}]}),
    ("zeta", {"ring": "polyQ", "values": [{"coeffs": [1, 2]}]}),
    ("zeta", {"ring": "Z", "values": [True, 2]}),
    ("polysym", {"basis": "M", "terms": [{"coeff": "1"}]}),
    ("polysym", {"basis": "M", "terms": [{"type": [[1]], "coeff": "1"}]}),
    ("polysym", {"basis": "M", "terms": 3}),
]


@pytest.mark.parametrize("command,content", MALFORMED_INPUTS)
def test_malformed_input_files_give_one_error_line(capsys, tmp_path, command, content):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(content))
    if command == "zeta":
        token = content.get("ring", "Z") if isinstance(content, dict) else "Z"
        args = ("zeta", "invert", "--ring", token, "--values", str(src))
    else:
        args = ("polysym", "convert", "--from", "M", "--to", "H", "--element", str(src))
    code, _, err = run(capsys, *args)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


# Generated inputs stay small (lists of at most 4 items, type degree at most
# 6) so that no example builds a large table.  Each file is well formed, has
# junk mixed into its list, or is junk where the reader expects structure.
_INT = st.integers(-3, 3)
_JUNK = st.one_of(st.none(), st.booleans(), _INT, st.text(max_size=3),
                  st.lists(_INT, max_size=2), st.dictionaries(st.text(max_size=2), _INT, max_size=1))
_RATIONAL = st.one_of(_INT, st.builds("{}/{}".format, _INT, st.integers(0, 3)))


def _list_of(valid, loose):
    return st.one_of(st.lists(valid, min_size=1, max_size=4), st.lists(loose, max_size=4), _JUNK)


_POLY = st.fixed_dictionaries(
    {"coeffs": st.dictionaries(st.sampled_from(["0", "1", "2"]), _RATIONAL, max_size=3)})
_WITT = st.builds(lambda head, tail: {"order": len(tail), "coeffs": [head] + tail},
                  st.one_of(st.just("1"), _RATIONAL), st.lists(_RATIONAL, max_size=3))
_RING_VALUE = {
    "Z": _RATIONAL,
    "Q": _RATIONAL,
    "polyZ": _POLY,
    "polyQ": _POLY,
    "ratfunc": st.one_of(_POLY, st.fixed_dictionaries({"num": _POLY, "den": _POLY})),
    "pair": st.lists(_RATIONAL, min_size=2, max_size=2),
    "witt": _WITT,
}
_LOOSE_VALUE = st.one_of(
    _JUNK, st.lists(_RATIONAL, max_size=3),
    st.fixed_dictionaries({}, optional={"order": st.one_of(_INT, _JUNK), "coeffs": _JUNK,
                                        "num": _POLY, "den": _JUNK}))
_VALUES_FILE = st.sampled_from(RING_TOKENS).flatmap(lambda token: st.tuples(
    st.just(token),
    st.fixed_dictionaries(
        {"ring": st.just(token),
         "values": _list_of(_RING_VALUE[token], st.one_of(_RING_VALUE[token], _LOOSE_VALUE))},
        optional={"role": st.sampled_from(["closed", "irreducible"])})))
_PARTS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=4).filter(
    lambda parts: sum(b * m for b, m in parts) <= 6)
_TYPE_JSON = _PARTS.map(lambda parts: [list(p) for p in parts])
_LOOSE_TERM = st.fixed_dictionaries({}, optional={
    "type": st.one_of(_TYPE_JSON, _JUNK, st.lists(st.lists(st.integers(-1, 2), max_size=3),
                                                  max_size=1)),
    "coeff": st.one_of(_RATIONAL, _JUNK)})
_TERM = st.fixed_dictionaries({"type": _TYPE_JSON, "coeff": _RATIONAL})
_ELEMENT_FILE = st.fixed_dictionaries({
    "basis": st.one_of(st.just("M"), st.sampled_from(BASES), _JUNK),
    "terms": _list_of(_TERM, st.one_of(_TERM, _LOOSE_TERM)),
})
_TYPE_TEXT = st.one_of(
    _PARTS.map(lambda parts: ",".join("%d^%d" % p for p in parts)),
    st.builds(lambda pieces, sep, paren: ("(%s)" if paren else "%s") % sep.join(pieces),
              st.lists(st.sampled_from(["1", "2", "x", "1^", "^2", "1^2^3", "0^1", "-1", "()"]),
                       max_size=2),
              st.sampled_from([",", " ", "; "]), st.booleans()))
_SAME_DEGREE = st.integers(1, 6).flatmap(lambda d: st.lists(
    st.sampled_from([tau.label() for tau in enumerate_types(d)]), min_size=2, max_size=2))
_ARGV = st.one_of(
    st.tuples(st.just("zeta"), st.sampled_from(["invert", "forward"]), _VALUES_FILE),
    st.tuples(st.just("polysym"), st.sampled_from(BASES), _ELEMENT_FILE),
    st.tuples(st.just("arr"), st.one_of(_SAME_DEGREE, st.lists(_TYPE_TEXT, min_size=2, max_size=2)),
              st.booleans()),
)


@settings(max_examples=100, deadline=None)
@given(_ARGV)
def test_generated_inputs_never_raise(case):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "input.json")
        if case[0] == "zeta":
            _, direction, (token, content) = case
            argv = ["zeta", direction, "--ring", token, "--values", path]
        elif case[0] == "polysym":
            _, target, content = case
            argv = ["polysym", "convert", "--from", "M", "--to", target, "--element", path]
        else:
            _, (tau, lam), squarefree = case
            content = None
            argv = ["arr", "count", "--tau", tau, "--lambda", lam] + (
                ["--squarefree"] if squarefree else [])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(content, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
    elif code == 2:
        assert json.loads(err.getvalue())["error"] == "math-check-failure"


def test_math_failure_exits_two_with_record(capsys, tmp_path):
    bad = {"ring": "witt", "role": "closed",
           "values": [{"order": 4, "coeffs": ["2", "1", "0", "0", "0"]}]}
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(bad))
    code, _, err = run(capsys, "zeta", "invert", "--ring", "witt",
                       "--values", str(src))
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "math-check-failure"
    assert record["detail"]["constant_term"] == "2"


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "arr", "count")[0] == 1
    assert run(capsys, "arr", "table", "--degree", "3", "--tag", "zzz")[0] == 1
    assert run(capsys, "polya", "--x", "not-a-number")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


def test_hyper_stratum_validation(capsys):
    code, out, _ = run(capsys, "hyper", "--dim", "1", "--degree", "2",
                       "--measure", "stratum-mass", "--stratum", "2")
    assert code == 0
    assert out.strip() == "1/2*q^2 - 1/2*q"
    code, _, err = run(capsys, "hyper", "--dim", "1", "--degree", "3",
                       "--measure", "stratum-mass", "--stratum", "2")
    assert code == 1
    code, _, err = run(capsys, "hyper", "--dim", "1", "--degree", "2",
                       "--measure", "motive", "--stratum", "2")
    assert code == 1
    code, _, err = run(capsys, "hyper", "--dim", "1", "--degree", "2",
                       "--measure", "stratum-mass")
    assert code == 1


# ---------------------------------------------------------------------------
# character varieties and verification suites


def test_charvar_transitive_with_oracle(capsys):
    code, out, _ = run(capsys, "charvar", "transitive", "--letters", "2",
                       "--rank", "2", "--oracle")
    assert code == 0
    assert out.splitlines()[0] == "3"
    assert "oracle: ok" in out


def test_charvar_sl_modes(capsys):
    code, out, _ = run(capsys, "charvar", "sl", "--degree", "2", "--rank", "1")
    assert code == 0
    assert "U_2 = w - 1" in out
    code, out, _ = run(capsys, "charvar", "sl", "--degree", "2", "--rank", "1",
                       "--mode", "euler")
    assert code == 0
    assert "U_2 = 0" in out


@pytest.mark.parametrize("suite,flags", [
    ("appendix", ["--max-degree", "3"]),
    ("figure1", ["--max-degree", "6"]),
    ("identities", ["--max-degree", "4"]),
    ("oracles", ["--max-degree", "3"]),
])
def test_verify_suites_pass(capsys, suite, flags):
    code, out, _ = run(capsys, "verify", suite, *flags)
    assert code == 0
    assert "checks passed" in out
    assert all(line.startswith("ok:") or "checks passed" in line
               for line in out.strip().splitlines())


@pytest.mark.parametrize("suite", ["appendix", "figure1", "identities", "oracles"])
@pytest.mark.parametrize("degree", ["0", "-2"])
def test_verify_rejects_a_max_degree_below_one(capsys, suite, degree):
    code, out, err = run(capsys, "verify", suite, "--max-degree", degree)
    assert (code, out, err) == (1, "", "error: max degree must be at least 1\n")


# SHA-256 of the stdout of the full `--no-cache verify appendix` (with its
# `top-column ... entries=N` lines) and of `verify identities`, recorded
# when the top column had its own Fraction back substitution
PINNED_VERIFY = {
    ("--no-cache", "verify", "appendix"):
        "004ca7c4781ba70e717b99dc6da555b05c8852f123e9f64e750ad0bbc20b1a2f",
    ("verify", "identities"):
        "40d31ef762f1529001e5922b689bdf106f0208ec63dc039b9aa995899a67512c",
}


@pytest.mark.parametrize("args", list(PINNED_VERIFY), ids=lambda args: args[-1])
def test_verify_output_is_pinned(capsys, args):
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY[args]


# SHA-256 of the stdout of zeta inversion and expansion over the seeded
# values files in tests/data, of the symbolic menu (MPoly) and of the monoid
# and transitive oracles, recorded when MPoly stored every coefficient as a
# Fraction and PolyRing summed its products one at a time; the Z, pair and
# witt pins were recorded when each Moebius or divisor sum ran
# scalar_mul_int, adams and sum per divisor
DATA = pathlib.Path(__file__).resolve().parent / "data"
PINNED_KERNEL_OUTPUTS = {
    ("zeta", "invert", "polyZ"):
        "66b4b1d9012ff2d3b292c073ac4cbf395bf513633dcccc94d883a63a9e718b1c",
    ("zeta", "forward", "polyZ"):
        "0d651177fae03c52857f4478ccba6c12bbd31a363e909e73f41bc65fc6a0797d",
    ("zeta", "invert", "polyQ"):
        "5ff117856fc9480e0c71d1710dd0c64547b85ad7c360cd3a76f39a0b64d0ff68",
    ("zeta", "forward", "polyQ"):
        "bf2efb1f62670e5201ad8a030692f0c302c43d7e2b5f00da21a577542e4beca5",
    ("zeta", "invert", "Q"):
        "1ceb57aaed09efbf9312276403df5d75f9077c2b4a941e80dd75281b6eb12a51",
    ("zeta", "forward", "Q"):
        "115cac434314e963659572ace7b66a9766b772c8d88f7c430d2ed0028fa863e6",
    ("zeta", "invert", "Z"):
        "b15583a0f94c0e367585d6e177b05f1912d19f32517a9148538c69e4031080c1",
    ("zeta", "forward", "Z"):
        "8e0d9d50d76cc83e9906d234bf382a26df401d41fa3510296ac595552667c801",
    ("zeta", "invert", "pair"):
        "5354e696bef36186b48d8ec36b79fa7c52e3bd23e5b3047436fe4f65789afeb7",
    ("zeta", "forward", "pair"):
        "e8074139558266dff5173b0e3c764e7e158b769058ab2e5865e4c94cf5607e9f",
    ("zeta", "invert", "witt"):
        "e50f54529fb50be716815afcdbd26922fdc2503f420f1715aeabc4d67c6d2501",
    ("zeta", "forward", "witt"):
        "85e83624926e59b7fecd4666e5a86f6346bb1ab83ecc70a5958bb81397b6880c",
    ("polya", "--x", "0", "--symbolic", "12"):
        "c498b9df27b4e582fe9fb6697cc782c543946b5458db8addc93123276b2e5380",
    ("verify", "oracles"):
        "17d9b4317ddc735341d352ec409035dbe966914f99d9f3eaf8918e36a433d264",
}


@pytest.mark.parametrize("key", list(PINNED_KERNEL_OUTPUTS), ids="-".join)
def test_kernel_outputs_are_pinned(monkeypatch, key):
    # the zeta commands over Q and the polynomial rings must also reach
    # their fast path: over Q and over polyZ, whose values are integral, the
    # Newton series runs once on ints; over polyQ each degree is one packed
    # dot product with more than one pair, which only PolyRing.dot passes
    packed, packed_dot = [], rings.packed_dot
    series, word_series = [], rings._word_series
    fractions, fraction_series = [], rings._fraction_series

    def spy(pairs):
        packed.append(len(pairs))
        return packed_dot(pairs)

    def series_spy(ring, polys, upto, divide):
        out = word_series(ring, polys, upto, divide)
        if isinstance(ring, rings.PolyRing):  # not the inner series over Z
            series.append(None if out is None else len(out))
        return out

    def fraction_spy(values, upto, divide):
        fractions.append(divide)
        return fraction_series(values, upto, divide)

    args = list(key)
    if key[0] == "zeta":
        values = DATA / ("zeta-%s.json" % key[2])
        args = ["zeta", key[1], "--ring", key[2], "--values", str(values)]
        monkeypatch.setattr(rings, "packed_dot", spy)
        monkeypatch.setattr(rings, "_word_series", series_spy)
        monkeypatch.setattr(rings, "_fraction_series", fraction_spy)
    result = CliRunner().invoke(cli, args)
    assert (result.exit_code, result.stderr) == (0, "")
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == PINNED_KERNEL_OUTPUTS[key]
    if key[:1] + key[2:] == ("zeta", "polyZ"):
        assert series == [12] and packed == []
    elif key[:1] + key[2:] == ("zeta", "polyQ"):
        assert series == [None] and max(packed) > 1
    elif key[:1] + key[2:] == ("zeta", "Q"):
        assert fractions == [key[1] == "forward"]


# The values hold w^(10^11): their Newton series must stay sparse, as each
# dense slot form would take terabytes.  The pins are the outputs of the
# per-degree kernel; both commands took about 0.2 s on a 2-vCPU host.
WIDE_SPARSE_VALUES = [{"0": "1", "100000000000": "1"}, {"1": "-2", "100000000000": "3"},
                      {"0": "5"}, {"2": "1", "100000000000": "-1"}]
PINNED_WIDE_SPARSE = {
    "forward": "07e972cf106cb02fe1ac56748205ea2091b8afe3a28e4f047f27f1f81d435189",
    "invert": "23a878883878437b431dbb23fe9c37394ae59016c3567fa76f8ddf935b397618",
}


def test_wide_sparse_values_are_never_packed_densely(tmp_path):
    values = tmp_path / "us.json"
    values.write_text(json.dumps({"ring": "polyZ", "role": "irreducible", "values": [
        {"var": "w", "coeffs": c} for c in WIDE_SPARSE_VALUES]}))
    for direction in ("forward", "invert"):
        start = time.perf_counter()
        result = CliRunner().invoke(cli, ["zeta", direction, "--ring", "polyZ",
                                          "--values", str(values)])
        assert time.perf_counter() - start < 5
        assert (result.exit_code, result.stderr) == (0, "")
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == \
            PINNED_WIDE_SPARSE[direction]
        values = tmp_path / ("%s.json" % direction)
        values.write_text(result.stdout)
