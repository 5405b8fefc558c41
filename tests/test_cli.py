"""End-to-end tests of the command line surface.

Each test drives ``polysplit.cli.main`` with an argv list and inspects the
exit code plus captured output, exactly as a shell user would see it.
"""

import json

import pytest

from polysplit.arrangements import incidence_table
from polysplit.cli import main


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


def test_polya_symbolic_menu(capsys):
    code, out, _ = run(capsys, "polya", "--x", "0", "--symbolic", "2")
    assert code == 0
    assert "u_2 = -1/2*x_1^2 - 1/2*x_1 + x_2" in out


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


def test_arr_tilings(capsys):
    code, out, _ = run(capsys, "arr", "tilings",
                       "--tau", "1 1", "--lambda", "2")
    assert code == 0
    assert "total 1" in out
    code, out, _ = run(capsys, "arr", "tilings",
                       "--tau", "1 1", "--lambda", "2", "--render")
    assert code == 0
    assert "with a" in out


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
]


@pytest.mark.parametrize("command,content", MALFORMED_INPUTS)
def test_malformed_input_files_give_one_error_line(capsys, tmp_path, command, content):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(content))
    if command == "zeta":
        args = ("zeta", "invert", "--ring", "Z", "--values", str(src))
    else:
        args = ("polysym", "convert", "--from", "M", "--to", "H", "--element", str(src))
    code, _, err = run(capsys, *args)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


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
