import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import maninalg
from maninalg import pairing
from maninalg.cli import main, operator_from_json, operator_to_json
from maninalg.idempotents import hecke_minus

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, json.loads(out) if out.strip() else None
    return _run


def test_catalog_emits_nine_by_nine(run):
    code, doc = run("catalog", "--family", "A_n", "--n", "3")
    assert code == 0
    assert len(doc["matrix"]) == 9
    assert all(len(row) == 9 for row in doc["matrix"])


def test_operator_json_roundtrip():
    op = hecke_minus(3, 2)
    doc = operator_to_json("RhatMinus", op)
    assert operator_from_json(doc) == op
    # the serialized strings themselves are reproducible
    assert operator_to_json("RhatMinus", operator_from_json(doc)) == doc


def test_check_idempotent_exit_codes(run, tmp_path):
    code, doc = run("check-idempotent", "--family", "RhatMinus",
                    "--n", "2", "--q", "2")
    assert code == 0 and doc["idempotent"] and doc["rank_equals_trace"]
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps({"family": "P_n", "n": 2, "params": {}}))
    code, doc = run("check-idempotent", "--spec", str(spec))
    assert code == 1 and not doc["idempotent"]


def test_dims_table(run):
    code, doc = run("dims", "--family", "Aq", "--n", "3", "--q", "2",
                    "--variant", "Xi", "--max-degree", "4")
    assert code == 0
    assert doc["dims"] == [1, 3, 3, 1, 0]


def test_equiv(run, tmp_path):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps({"family": "Aq", "n": 2, "params": {"q": "2"}}))
    right.write_text(json.dumps({"family": "RhatMinus", "n": 2,
                                 "params": {"q": "2"}}))
    code, doc = run("equiv", "--left", str(left), "--right", str(right),
                    "--mode", "left")
    assert code == 0 and doc["left_equivalent"] and not doc["right_equivalent"]


def manin_inputs(tmp_path, relations):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "A": {"family": "Aq", "n": 2, "params": {"q": "2"}},
        "B": {"family": "A_n", "n": 2, "params": {}}}))
    matrix = tmp_path / "m.txt"
    matrix.write_text("x[1]; 0\n0; x[2]\n")
    rel = tmp_path / "rel.txt"
    rel.write_text(relations)
    return str(pair), str(matrix), str(rel)


def test_manin_check_passes(run, tmp_path):
    pair, matrix, rel = manin_inputs(tmp_path, "x[2]*x[1] - 2*x[1]*x[2]\n")
    code, doc = run("manin-check", "--pair", pair, "--matrix", matrix,
                    "--relations", rel)
    assert code == 0 and doc["manin"]


def test_manin_check_fails(run, tmp_path):
    pair, matrix, rel = manin_inputs(tmp_path, "x[1]*x[2] - x[2]*x[1]\n")
    code, doc = run("manin-check", "--pair", pair, "--matrix", matrix,
                    "--relations", rel)
    assert code == 1 and not doc["manin"]


def test_manin_check_bad_input(run, tmp_path, capsys):
    pair, matrix, _ = manin_inputs(tmp_path, "")
    assert main(["manin-check", "--pair", pair, "--matrix", matrix,
                 "--relations", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_manin_check_non_homogeneous_relation_is_input_error(tmp_path, capsys):
    pair, matrix, rel = manin_inputs(tmp_path, "x[1]*x[2] - x[1]\n")
    assert main(["manin-check", "--pair", pair, "--matrix", matrix,
                 "--relations", rel]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "homogeneous" in captured.err


def test_pairing_command(run, tmp_path):
    spec = tmp_path / "rm.json"
    spec.write_text(json.dumps({"family": "RhatMinus", "n": 2,
                                "params": {"q": "2"}}))
    code, doc = run("pairing", "--spec", str(spec), "--k", "3",
                    "--kind", "A", "--method", "hecke")
    assert code == 0 and doc["exists"]
    assert doc["operator"]["axioms"]["pass"]
    assert doc["operator"]["provenance"] == "hecke"


def test_pairing_not_exists(run):
    code, doc = run("pairing", "--family", "FourParam", "--a", "1", "--b", "2",
                    "--c", "1", "--kappa", "1", "--k", "3", "--kind", "A",
                    "--method", "closed")
    assert code == 1 and not doc["exists"]


def test_minor_command(run, tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "A": {"family": "A_n", "n": 2, "params": {}},
        "B": {"family": "A_n", "n": 2, "params": {}}}))
    matrix = tmp_path / "m.txt"
    matrix.write_text("a; b\nc; d\n")
    code, doc = run("minor", "--pair", str(pair), "--matrix", str(matrix),
                    "--k", "2", "--kind", "A")
    assert code == 0
    assert doc["entries"][1][1] == "1/2*a*d - 1/2*c*b"


def test_scenario_bcd_b1(run):
    # B_1 takes k = 1 of the dimension formula, whose binomial C(n - 2, 0)
    # has a negative top there
    code, doc = run("scenario", "bcd", "--family", "B", "--n", "1")
    assert code == 0 and doc["pass"]
    assert doc["scenario"] == "bcd-B1"
    assert doc["data"] == {"X_dims": [1, 1, 0, 0], "rank": 1}


def test_scenario_commands(run, tmp_path):
    code, doc = run("scenario", "bcd", "--family", "D", "--n", "2")
    assert code == 0 and doc["pass"]
    code, doc = run("scenario", "fourparam", "--a", "1", "--b", "1",
                    "--c", "1", "--kappa", "1")
    assert code == 0 and doc["pass"]
    sc = tmp_path / "sl2.json"
    sc.write_text(json.dumps({
        "dim": 3,
        "brackets": [[1, 2, 3, "1"], [2, 1, 3, "-1"], [3, 1, 1, "2"],
                     [1, 3, 1, "-2"], [3, 2, 2, "-2"], [2, 3, 2, "2"]]}))
    code, doc = run("scenario", "lie", "--sc", str(sc))
    assert code == 0 and doc["pass"]


def test_verify_suite_command(run):
    code, doc = run("verify-suite", "--suite", "negative")
    assert code == 0 and doc["pass"]
    assert all(item["pass"] for item in doc["results"])


def test_bad_json_is_input_error(run, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["catalog", "--spec", str(bad)]) == 2
    capsys.readouterr()


# Custom sources with E E != E: the pairing routes must refuse them at once
NON_IDEMPOTENT_N2 = ('{"family": "Custom", "n": 2, "params": {"matrix": [["2", "0", "0", "0"], '
                     '["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]}}')
NON_IDEMPOTENT_N1 = '{"family": "Custom", "n": 1, "params": {"matrix": [["2"]]}}'


# Each row: argv (SPEC stands for a spec file holding spec_text), the spec
# file's text or None, and a phrase the error line must contain.
@pytest.mark.parametrize("argv, spec_text, phrase", [
    (["catalog", "--family", "Aq", "--n", "2", "--q", "1/0"], None, "zero denominator"),
    (["catalog", "--family", "Aq", "--n", "2", "--params", '{"q": 2.5}'], None, "2.5"),
    (["dims", "--family", "A_n", "--n", "2", "--variant", "X", "--max-degree", "-3"],
     None, "max degree"),
    (["catalog", "--spec", "SPEC"], '["A_n", 2]', "JSON object"),
    (["catalog", "--spec", "SPEC"], '{"n": 2}', "'family'"),
    (["check-idempotent", "--spec", "SPEC"], '{"family": "A_n", "n": null}', "'n'"),
    (["check-idempotent", "--family", "A_n", "--n", "-1"], None, "A_n needs a local dimension"),
    (["catalog", "--family", "RhatMinus"], None, "RhatMinus needs a local dimension"),
    (["catalog", "--family", "Custom"], None, "Custom needs the parameter 'matrix'"),
    (["catalog", "--family", "Aq", "--n", "2"], None, "Aq needs the parameter 'q'"),
    (["pairing", "--family", "FourParam", "--a", "1", "--b", "1", "--k", "3",
      "--kind", "A", "--method", "closed"], None, "FourParam needs the parameter 'c'"),
    (["scenario", "bcd", "--family", "D", "--n", "0"], None, "n >= 1"),
    (["scenario", "bcd", "--family", "B", "--n", "-1"], None, "n >= 1"),
    (["scenario", "lie", "--sc", "SPEC"], '[3, []]', "JSON object"),
    (["scenario", "lie", "--sc", "SPEC"], '{"dim": null, "brackets": []}', "'dim'"),
    (["scenario", "lie", "--sc", "SPEC"], '{"dim": 3, "brackets": [[1, 2, 3]]}',
     "[i, j, k, c]"),
    (["scenario", "lie", "--sc", "SPEC"], '{"dim": 3, "brackets": [[1, 2, null, "1"]]}',
     "bracket index"),
    (["scenario", "lie", "--sc", "SPEC"], '{"dim": 3}', "'brackets'"),
    (["catalog", "--family", "Lie", "--params", '{"dim": 3, "brackets": [5]}'], None,
     "[i, j, k, c]"),
    (["catalog", "--family", "A_n", "--n", "2", "--params", "[1, 2]"], None,
     "--params must be a JSON object"),
    (["catalog", "--family", "A_n", "--n", "2", "--params", "5"], None,
     "--params must be a JSON object"),
    (["catalog", "--spec", "SPEC"], '{"family": "Aqhat", "params": {"qhat": 5}}',
     "list of lists"),
    (["catalog", "--spec", "SPEC"], '{"family": "Aqhat", "params": {"qhat": ["1", "2"]}}',
     "list of lists"),
    (["catalog", "--spec", "SPEC"], '{"family": "Custom", "params": {"matrix": [1, 0]}}',
     "list of lists"),
    (["catalog", "--family", "Aqhat", "--params", '{"qhat": []}'], None, "non-empty"),
    (["pairing", "--family", "A_n", "--n", "2", "--k", "0", "--kind", "S",
      "--method", "generic"], None, "arity starts at 1"),
    (["pairing", "--family", "A_n", "--n", "2", "--k", "0", "--kind", "S",
      "--method", "group"], None, "arity starts at 1"),
    (["pairing", "--family", "RhatMinus", "--n", "2", "--q", "2", "--k", "0", "--kind", "S",
      "--method", "hecke"], None, "arity starts at 1"),
    (["pairing", "--family", "RhatMinus", "--n", "2", "--q", "2", "--k", "-1", "--kind", "A",
      "--method", "hecke"], None, "arity starts at 1"),
    (["pairing", "--family", "B_n", "--n", "3", "--k", "0", "--kind", "S",
      "--method", "brauer"], None, "arity starts at 1"),
    (["pairing", "--family", "A_n", "--n", "2", "--k", "0", "--kind", "A",
      "--method", "closed"], None, "arity starts at 1"),
    (["pairing", "--family", "B_n", "--n", "3", "--k", "2", "--kind", "A",
      "--method", "brauer"], None, "give B_n kind S, not A"),
    (["pairing", "--family", "Btilde_n", "--n", "4", "--k", "2", "--kind", "S",
      "--method", "brauer"], None, "give Btilde_n kind A, not S"),
    (["pairing", "--spec", "SPEC", "--k", "2", "--kind", "S", "--method", "generic"],
     NON_IDEMPOTENT_N2, "idempotents"),
    (["pairing", "--spec", "SPEC", "--k", "2", "--kind", "S", "--method", "group"],
     NON_IDEMPOTENT_N2, "idempotents"),
    (["pairing", "--spec", "SPEC", "--k", "2", "--kind", "S", "--method", "generic"],
     NON_IDEMPOTENT_N1, "idempotents"),
    (["pairing", "--spec", "SPEC", "--k", "2", "--kind", "S", "--method", "group"],
     NON_IDEMPOTENT_N1, "idempotents"),
    (["minor", "--pair", "SPEC", "--matrix", "unused", "--k", "2", "--kind", "A"],
     '[1, 2]', "JSON object with keys 'A' and 'B'"),
    (["manin-check", "--pair", "SPEC", "--matrix", "unused", "--relations", "unused"],
     '"x"', "JSON object with keys 'A' and 'B'"),
    (["minor", "--pair", "SPEC", "--matrix", "unused", "--k", "2", "--kind", "S"],
     '{"A": {"family": "A_n", "n": 2}}', "JSON object with keys 'A' and 'B'"),
    (["check-idempotent", "--family", "Aqhat", "--params",
      '{"qhat": [[1, true], [true, 1]]}'], None, "boolean"),
    (["check-idempotent", "--family", "FourParam", "--params",
      '{"a": 1, "b": 1, "c": 1, "kappa": false}'], None, "boolean"),
    (["catalog", "--family", "Aq", "--n", "2", "--params", '{"q": true}'], None, "boolean"),
    (["dims", "--family", "A_n", "--n", "2", "--q", "banana", "--variant", "X",
      "--max-degree", "3"], None, "takes no parameter 'q'"),
    (["dims", "--family", "A_n", "--n", "2", "--q", "1/0", "--variant", "X",
      "--max-degree", "3"], None, "takes no parameter 'q'"),
    (["dims", "--family", "RhatMinus", "--n", "2", "--q", "2", "--params", '{"qq": 2}',
      "--variant", "X", "--max-degree", "3"], None, "takes no parameter 'qq'"),
], ids=["zero-denominator", "float-parameter", "negative-max-degree", "spec-is-a-list",
        "spec-without-family", "spec-null-n", "negative-n", "missing-n",
        "custom-without-matrix", "missing-q", "fourparam-without-c",
        "bcd-zero-n", "bcd-negative-n", "lie-not-an-object", "lie-null-dim",
        "lie-short-bracket-row", "lie-null-bracket-index", "lie-without-brackets",
        "lie-spec-bracket-not-a-row", "params-is-a-list", "params-is-a-number",
        "qhat-is-a-number", "qhat-is-flat", "custom-matrix-is-flat", "qhat-is-empty",
        "pairing-generic-k0", "pairing-group-k0", "pairing-hecke-k0",
        "pairing-hecke-negative-k", "pairing-brauer-k0", "pairing-closed-k0",
        "pairing-brauer-so-kind-A", "pairing-brauer-sp-kind-S",
        "pairing-generic-non-idempotent-n2", "pairing-group-non-idempotent-n2",
        "pairing-generic-non-idempotent-n1", "pairing-group-non-idempotent-n1",
        "pair-is-a-list", "pair-is-a-string", "pair-without-B",
        "qhat-holds-booleans", "fourparam-kappa-is-a-boolean", "q-is-a-boolean",
        "unused-q", "unused-q-zero-denominator", "unknown-params-key"])
def test_malformed_input_is_input_error(argv, spec_text, phrase, tmp_path, capsys):
    if spec_text is not None:
        spec = tmp_path / "spec.json"
        spec.write_text(spec_text)
        argv = [str(spec) if a == "SPEC" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert phrase in captured.err


# Malformed polynomial text, each read from the matrix file and from the
# relations file of manin-check: a dangling '*', an unclosed index list, two
# factors side by side, a rational power, an index list on a number and a
# sign with no term; then index lists with an empty slot or a space for a
# comma, once read as x[1,2], x[1] or bare x, so that a typo named another
# generator.
MALFORMED_TEXTS = ["a *", "a[1", "a b", "x[1]^1/2", "2[1]", "+",
                   "x[1,,2]", "x[1 2]", "x[1,2,]", "x[,1]", "x[,]", "x[]"]


# Each row: the command, the matrix file's text, the relations file's text
# (manin-check only), MANIN_BUDGET or None, and a phrase the error line must
# contain.
@pytest.mark.parametrize("command, matrix_text, relations_text, budget, phrase", [
    ("manin-check", "1/0*x[1]; 0\n0; x[2]\n", "x[2]*x[1] - 2*x[1]*x[2]\n", None,
     "zero denominator"),
    ("manin-check", "x[1]; 0\n0; x[2]\n", "x[2]*x[1] - 1/0*x[1]*x[2]\n", None,
     "zero denominator"),
    ("minor", "x[1]; 0\n0; 1/0*x[2]\n", None, None, "zero denominator"),
    ("manin-check", "x[1]^17; 0\n0; x[2]\n", "x[2]*x[1] - 2*x[1]*x[2]\n", "16",
     "word budget 16"),
    ("manin-check", "x[1]; 0\n0; x[2]\n", "x[1]^9*x[2]^8\n", "16", "word budget 16"),
    ("minor", "x[1]; x[2]^20\n0; x[2]\n", None, "16", "word budget 16"),
    *[("manin-check", f"{text}; 0\n0; x[2]\n", "x[2]*x[1] - 2*x[1]*x[2]\n", None,
       "position") for text in MALFORMED_TEXTS],
    *[("manin-check", "x[1]; 0\n0; x[2]\n", f"{text}\n", None, "position")
      for text in MALFORMED_TEXTS],
    ("manin-check", "x[1];\n0; x[2]\n", "x[2]*x[1] - 2*x[1]*x[2]\n", None,
     "empty entry 2 on line 1"),
    ("manin-check", "x[1]; 0\n;x[2]\n", "x[2]*x[1] - 2*x[1]*x[2]\n", None,
     "empty entry 1 on line 2"),
    ("manin-check", "x[1];;x[2]\n0; x[2]\n", "x[2]*x[1] - 2*x[1]*x[2]\n", None,
     "empty entry 2 on line 1"),
    ("minor", "# a comment\nx[1]; 0\n0;  \n", None, None, "empty entry 2 on line 3"),
], ids=["matrix-zero-denominator", "relations-zero-denominator", "minor-zero-denominator",
        "matrix-word-over-budget", "relations-word-over-budget", "minor-word-over-budget",
        *(f"{file}-malformed-{text}" for file in ("matrix", "relations")
          for text in MALFORMED_TEXTS),
        "matrix-empty-last-entry", "matrix-empty-first-entry", "matrix-empty-middle-entry",
        "minor-blank-entry"])
def test_malformed_polynomial_file_is_input_error(command, matrix_text, relations_text,
                                                  budget, phrase, tmp_path, capsys,
                                                  monkeypatch):
    pair, matrix, rel = manin_inputs(tmp_path, relations_text or "")
    (tmp_path / "m.txt").write_text(matrix_text)
    if budget is not None:
        monkeypatch.setenv("MANIN_BUDGET", budget)
    if command == "manin-check":
        argv = ["manin-check", "--pair", pair, "--matrix", matrix, "--relations", rel]
    else:
        argv = ["minor", "--pair", pair, "--matrix", matrix, "--k", "2", "--kind", "A"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert phrase in captured.err and "Traceback" not in captured.err


# Each row: argv, MANIN_BUDGET or None, and a phrase naming the budget that
# the one error line must contain; {pair} and {matrix} name the files of
# manin_inputs.  n^k has 47,712 digits in the first row and 30,103 in the
# next three, more than Python will print.  The k = 10^9 rows are refused
# from n and k, without forming n^k, so each exits within the time limit;
# the flip rows are refused from n before any of its n^2 entries is built.
@pytest.mark.parametrize("argv, budget, phrase", [
    (["dims", "--family", "A_n", "--n", "3", "--variant", "Xi", "--max-degree", "99999"],
     None, "exceeds budget 4096"),
    (["pairing", "--family", "RhatMinus", "--n", "2", "--q", "2", "--k", "100000",
      "--kind", "S"], None, "exceeds budget 4096"),
    (["pairing", "--family", "RhatMinus", "--n", "2", "--q", "2", "--k", "100000",
      "--kind", "S", "--method", "hecke"], None, "exceeds budget 4096"),
    (["pairing", "--family", "A_n", "--n", "2", "--k", "100000", "--kind", "A",
      "--method", "group"], None, "exceeds budget 4096"),
    (["dims", "--family", "A_n", "--n", "3", "--variant", "Xi", "--max-degree", "4"],
     "abc", "MANIN_BUDGET must be an integer"),
    (["pairing", "--family", "RhatMinus", "--n", "3", "--q", "2", "--k", "1000000000",
      "--kind", "S", "--method", "hecke"], None, "size 3^1000000000 exceeds budget 4096"),
    (["pairing", "--family", "B_n", "--n", "3", "--k", "1000000000", "--kind", "S",
      "--method", "brauer"], None, "size 3^1000000000 exceeds budget 4096"),
    (["dims", "--family", "A_n", "--n", "3", "--variant", "X", "--max-degree",
      "1000000000"], None, "size 3^1000000000 exceeds budget 4096"),
    (["minor", "--pair", "{pair}", "--matrix", "{matrix}", "--k", "1000000000",
      "--kind", "A"], None, "size 2^1000000000 exceeds budget 4096"),
    (["pairing", "--family", "RhatMinus", "--n", "1", "--q", "2", "--k", "1000000000",
      "--kind", "S", "--method", "hecke"], None,
     "size 1^1000000000 (arity over 13) exceeds budget 4096"),
    (["pairing", "--family", "A_n", "--n", "1", "--k", "1000000000", "--kind", "S",
      "--method", "group"], None, "size 1^1000000000 (arity over 13) exceeds budget 4096"),
    (["catalog", "--family", "P_n", "--n", "65"], None, "size 4225 exceeds budget 4096"),
    (["check-idempotent", "--family", "P_n", "--n", "65"], None,
     "size 4225 exceeds budget 4096"),
], ids=["dims-astronomical-degree", "pairing-astronomical-arity",
        "hecke-astronomical-arity", "group-astronomical-arity", "budget-not-an-integer",
        "hecke-billion-arity", "brauer-billion-arity", "dims-billion-degree",
        "minor-billion-arity", "hecke-one-generator-billion-arity",
        "group-one-generator-billion-arity", "catalog-flip-past-the-budget",
        "check-idempotent-flip-past-the-budget"])
def test_budget_refusal_names_the_budget(argv, budget, phrase, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("MANIN_BUDGET", None)
    if budget is not None:
        env["MANIN_BUDGET"] = budget
    pair, matrix, _ = manin_inputs(tmp_path, "")
    argv = [a.format(pair=pair, matrix=matrix) for a in argv]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "maninalg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert phrase in proc.stderr
    assert "Traceback" not in proc.stderr and "integer string conversion" not in proc.stderr


def test_unknown_suite_is_input_error(capsys):
    assert main(["verify-suite", "--suite", "nope"]) == 2
    capsys.readouterr()


def test_certified_dims_past_the_budget_are_refused(capsys, monkeypatch):
    # X of A_2 has a PBW certificate, so its dimensions are counted as normal
    # words past degree 3; a degree past the budget is still refused
    monkeypatch.delenv("MANIN_BUDGET", raising=False)
    argv = ["dims", "--family", "A_n", "--n", "2", "--variant", "X", "--max-degree"]
    assert main(argv + ["12"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == list(range(1, 14))
    assert main(argv + ["13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: component of size 8192 exceeds budget 4096 "
                            "(override with MANIN_BUDGET)\n")


@pytest.mark.parametrize("family, n, k, method, size", [
    (["A_n"], "2", "13", "group", 8192),
    (["RhatMinus", "--q", "2"], "3", "8", "hecke", 6561),
], ids=["group", "hecke"])
def test_over_budget_route_is_input_error(family, n, k, method, size, capsys, monkeypatch):
    # n^k exceeds the default budget of 4096; both routes refuse it before
    # building any operator
    monkeypatch.delenv("MANIN_BUDGET", raising=False)
    assert main(["pairing", "--family", *family, "--n", n, "--k", k, "--kind", "S",
                 "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: component of size {size} exceeds budget 4096 "
                            "(override with MANIN_BUDGET)\n")


def test_every_package_exception_is_an_input_error():
    """cli.main maps ValueError to exit 2; an exception class of the package
    that is not a ValueError would escape it as a traceback."""
    classes = set()
    for info in pkgutil.iter_modules(maninalg.__path__):
        module = importlib.import_module(f"maninalg.{info.name}")
        classes.update(cls for _, cls in inspect.getmembers(module, inspect.isclass)
                       if issubclass(cls, BaseException) and cls.__module__ == module.__name__)
    assert pairing.BraidRelationFailed in classes
    assert sorted(cls.__name__ for cls in classes if not issubclass(cls, ValueError)) == []


def test_pairing_group_method(run):
    code, doc = run("pairing", "--family", "A_n", "--n", "2", "--k", "3",
                    "--kind", "S", "--method", "group")
    assert code == 0 and doc["operator"]["axioms"]["pass"]
    assert doc["operator"]["provenance"] == "group_average"


def test_pairing_brauer_method(run):
    code, doc = run("pairing", "--family", "B_n", "--n", "3", "--k", "2",
                    "--kind", "S", "--method", "brauer")
    assert code == 0 and doc["operator"]["provenance"] == "brauer"


def test_minor_s_kind(run, tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "A": {"family": "A_n", "n": 2, "params": {}},
        "B": {"family": "A_n", "n": 2, "params": {}}}))
    matrix = tmp_path / "m.txt"
    matrix.write_text("a; b\nc; d\n")
    code, doc = run("minor", "--pair", str(pair), "--matrix", str(matrix),
                    "--k", "2", "--kind", "S")
    assert code == 0
    assert doc["entries"][0][1] == "1/2*a*b + 1/2*b*a"


def test_catalog_inline_params(run):
    code, doc = run("catalog", "--family", "Aqhat",
                    "--params", '{"qhat": [["1","2"],["1/2","1"]]}')
    assert code == 0 and len(doc["matrix"]) == 4


def test_wrong_method_for_family(run, capsys):
    assert main(["pairing", "--family", "A_n", "--n", "2", "--k", "2",
                 "--kind", "S", "--method", "hecke"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("matrix, k, kind, details", (
    ([[0, 1, -1, 0], [0, 1, -1, 0], [0, 0, 0, 0], [0, 1, -1, 0]], 3, "S",
     {"dim": "4", "gram_rank": "2"}),
    ([[0, -2, 1, 0], [0, 1, 0, -1], [0, 0, 1, -2], [0, 0, 0, 0]], 3, "A",
     {"dim": "1", "gram_rank": "0"}),
))
def test_degenerate_natural_pairing_exits_one(run, tmp_path, matrix, k, kind, details):
    spec = tmp_path / "custom.json"
    spec.write_text(json.dumps({"family": "Custom", "n": 2, "params": {"matrix": matrix}}))
    code, doc = run("pairing", "--spec", str(spec), "--k", str(k), "--kind", kind,
                    "--method", "generic")
    assert code == 1
    assert doc == {"exists": False, "reason": "degenerate natural pairing",
                   "details": details}


def test_reports_are_deterministic(run):
    outputs = set()
    for _ in range(2):
        code, doc = run("pairing", "--family", "RhatMinus", "--n", "2",
                        "--q", "2", "--k", "2", "--kind", "A",
                        "--method", "generic")
        assert code == 0
        outputs.add(json.dumps(doc, sort_keys=True))
    assert len(outputs) == 1
