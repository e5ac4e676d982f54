import json
import math
import os
import subprocess
import sys

import pytest

import cycperm
from cycperm.autgroup import VerificationReport, predicted_group
from cycperm.cyclic_code import make_code
from cycperm.galois import make_field
from cycperm.group_constructors import expr_degree, expr_order
from cycperm.table import (
    RunConfig,
    TABLE_ROWS,
    parse_gen_expr,
    run_table,
    select_rows,
    summarize_csv,
)

F2 = make_field(2)


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "cycperm.cli", *args],
                          capture_output=True, text=True)


def test_row_corpus_shape():
    assert len(TABLE_ROWS) == 43
    ids = [r.id for r in TABLE_ROWS]
    assert len(set(ids)) == 43


def test_every_row_builds_and_claim_degree_matches():
    for row in TABLE_ROWS:
        code = make_code(F2, row.n, row.build_gen(F2))  # divisibility check
        assert code.n == row.n
        claim = row.claim_expr()
        assert expr_degree(claim) == row.n, row.id


def test_theoretical_orders_frozen_examples():
    by_id = {r.id: r for r in TABLE_ROWS}
    assert by_id["T04a"].theoretical_order() == math.factorial(3) ** 7 * 168
    assert by_id["T07a"].theoretical_order() == 168 ** 7 * math.factorial(7)
    assert by_id["T16"].theoretical_order() == 155 ** 2 * 2
    assert by_id["T17"].theoretical_order() == 155 ** 31 * math.factorial(31)
    assert by_id["T23"].theoretical_order() == 720


def test_q15_mislabel_note_recorded():
    row = next(r for r in TABLE_ROWS if r.id == "T24")
    assert "217" in (row.note or "")
    assert row.gen_text == "Q(15)"


def test_predictions_match_embedded_claims():
    # the pattern matcher reproduces every row's claim up to equal orders
    for row in TABLE_ROWS:
        code = make_code(F2, row.n, row.build_gen(F2))
        pred = predicted_group(code)
        claim = row.claim_expr()
        assert expr_order(pred) == expr_order(claim), row.id
        assert expr_degree(pred) == row.n


def test_select_rows():
    assert len(select_rows(None)) == 43
    assert [r.id for r in select_rows(["T01"])] == ["T01a", "T01b"]
    assert [r.id for r in select_rows(["T24"])] == ["T24"]
    with pytest.raises(KeyError):
        select_rows(["nope"])


def test_gen_expr_parser():
    p = parse_gen_expr("(x^3+x+1)^2", F2)
    assert p.degree == 6
    q = parse_gen_expr("Q(15)", F2)
    assert q.degree == 8
    r = parse_gen_expr("(x-1)Q(3)Q(5)", F2)
    assert r.degree == 7
    with pytest.raises(ValueError):
        parse_gen_expr("x^", F2)


def test_run_table_subset_all_tiers():
    rows = select_rows(["T01a", "T21", "T23", "T15", "T16"])
    reports = run_table(rows, RunConfig())
    assert [r.method for r in reports] == \
        ["Exhaustive", "Exhaustive", "Backtrack", "Certify", "Certify"]
    for rep in reports:
        assert rep.certified is True
        assert rep.equal is True
        assert rep.counterexamples == []
        blob = json.dumps(rep.to_json_dict())
        assert VerificationReport.from_json_dict(json.loads(blob)) == rep
    csv = summarize_csv(rows, reports)
    lines = csv.strip().split("\n")
    assert lines[0] == "row,tier,certified,order_match,elapsed_ms"
    assert len(lines) == 6
    assert lines[1].startswith("T01a,Exhaustive,true,true,")


def test_cli_factor_json():
    res = _run_cli("factor", "--field", "2", "--n", "7")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert [d["poly"] for d in data] == ["1,1", "1,0,1,1", "1,1,0,1"]


def test_cli_cyclotomic():
    res = _run_cli("cyclotomic", "--field", "2", "--n", "15")
    assert res.returncode == 0
    assert json.loads(res.stdout)["poly"] == "1,1,0,1,1,1,0,1,1"


def test_cli_code_info():
    res = _run_cli("code-info", "--field", "2", "--n", "7",
                   "--gen", "1,1,0,1", "--min-distance")
    assert res.returncode == 0
    info = json.loads(res.stdout)
    assert info["n"] == 7 and info["k"] == 4
    assert info["check"] == "1,1,1,0,1"
    assert info["dual_gen"] == "1,0,1,1,1"
    assert info["min_distance"] == 3
    assert len(info["factors_of_xn_minus_1"]) == 3


def test_cli_perm_group_brute():
    res = _run_cli("perm-group", "--field", "2", "--n", "7",
                   "--gen", "1,1,0,1", "--mode", "brute")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["method"] == "Exhaustive"
    assert rep["computed_order"] == "168"


def test_cli_perm_group_certify_with_claim_and_sampling():
    res = _run_cli("perm-group", "--field", "2", "--n", "14",
                   "--gen", "1,1,0,1", "--mode", "certify",
                   "--claim", "wr(S(2), PSL2_7, rows)",
                   "--trials", "500", "--seed", "7")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["certified"] is True
    assert rep["equal"] is True
    assert rep["predicted_order"] == str(2 ** 7 * 168)
    assert rep["counterexamples"] == []
    back = VerificationReport.from_json_dict(rep)
    assert json.loads(json.dumps(back.to_json_dict())) == rep


def test_cli_perm_group_wrong_claim_fails_exit():
    res = _run_cli("perm-group", "--field", "2", "--n", "7",
                   "--gen", "1,1,0,1", "--mode", "certify",
                   "--claim", "S(7)")
    assert res.returncode == 1
    rep = json.loads(res.stdout)
    assert rep["certified"] is False


def test_cli_table_row_with_outputs(tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "summary.csv"
    res = _run_cli("table", "--row", "T01", "--row", "T23",
                   "--out", str(out), "--csv", str(csv))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert [r["row"] for r in doc["rows"]] == ["T01a", "T01b", "T23"]
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 4


def test_cli_table_tier_cap():
    res = _run_cli("table", "--row", "T01a", "--tier", "certify")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["rows"][0]["report"]["method"] == "Certify"


def test_cli_extension_field_with_modulus():
    res = _run_cli("factor", "--field", "2^2", "--modulus", "1,1,1",
                   "--n", "5")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert [d["poly"] for d in data] == \
        ["1:0,1:0", "1:0,0:1,1:0", "1:0,1:1,1:0"]


def test_cli_bad_input_exit_code():
    res = _run_cli("code-info", "--field", "2", "--n", "7", "--gen", "1,0,1")
    assert res.returncode == 2
    assert "error" in res.stderr
    # malformed --gen text: an error line, not a traceback
    for args in (["perm-group", "--field", "2^13", "--n", "3", "--gen", "1,1",
                  "--mode", "certify"],
                 ["perm-group", "--field", "2", "--n", "7", "--gen", "1,x,1"],
                 ["code-info", "--field", "2", "--n", "7", "--gen", "1,x,1"],
                 ["code-info", "--field", "3", "--n", "7", "--gen", "1,5"]):
        res = _run_cli(*args)
        assert res.returncode == 2, args
        assert res.stderr.startswith("error: --gen: "), args
        assert "Traceback" not in res.stderr, args
    # malformed --field or --modulus, and a length that is not positive
    for args, prefix in (
            (["factor", "--field", "x", "--n", "3"], "error: --field: "),
            (["factor", "--field", "2^2", "--modulus", "1,a,1", "--n", "3"],
             "error: --modulus: "),
            (["cyclotomic", "--field", "2^", "--n", "3"], "error: --field: "),
            (["factor", "--n", "0"], "usage: "),
            (["cyclotomic", "--n", "0"], "usage: ")):
        res = _run_cli(*args)
        assert res.returncode == 2, args
        assert res.stderr.startswith(prefix), args
        assert "Traceback" not in res.stderr, args
    assert "argument --n: 0 is not a positive integer" in res.stderr


def test_python_m_cycperm_runs_from_a_checkout():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycperm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-m", "cycperm", "--help"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: cycperm")
    assert "table" in res.stdout
