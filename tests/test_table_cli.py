import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import cycperm
from cycperm import cli
from cycperm.autgroup import VerificationReport, predicted_group
from cycperm.cyclic_code import make_code
from cycperm.galois import make_field
from cycperm.group_constructors import expr_degree, expr_order
from cycperm.polyring import format_poly_text
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
    # polynomial arithmetic shares the q <= 4096 cap of the field tables
    one = ":".join(["1"] + ["0"] * 12)  # x - 1 = x + 1 over F_{2^13}
    res = _run_cli("code-info", "--field", "2^13", "--n", "3",
                   "--gen", f"{one},{one}")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    # negative or zero trials, and a row id that matches nothing
    for args, prefix in (
            (["perm-group", "--n", "7", "--gen", "1,1,0,1", "--trials", "-1"],
             "usage: "),
            (["table", "--row", "T17", "--trials", "0"], "usage: "),
            (["table", "--row", "ZZZ"], "error: no table row matches 'ZZZ'"),
            # sampling runs in certify mode only
            (["perm-group", "--n", "7", "--gen", "1,1,0,1", "--mode", "brute",
              "--claim", "PSL2_7", "--trials", "50"],
             "error: --trials: certify mode only"),
            (["perm-group", "--n", "7", "--gen", "1,1,0,1", "--mode",
              "backtrack", "--trials", "1"],
             "error: --trials: certify mode only")):
        res = _run_cli(*args)
        assert res.returncode == 2, args
        assert res.stderr.startswith(prefix), args
        assert "Traceback" not in res.stderr, args


def test_python_m_cycperm_runs_from_a_checkout():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycperm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-m", "cycperm", "--help"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: cycperm")
    assert "table" in res.stdout


F4_15 = ["--field", "2^2", "--n", "15", "--gen", "1:0,0:0,0:0,0:1,0:0,0:0,1:0"]
F4_LEAF = "per(2^2;5;1:0,0:1,1:0)"

# perm-group invocations whose report must not change: searches without a
# claim, and certify with and without a claim, with trials, with n above
# --order-cap, over F_2 and F_4, and one over-claim
PERM_GROUP_GOLDEN = [
    ["--n", "7", "--gen", "1,1,0,1", "--mode", "brute"],
    ["--n", "14", "--gen", "1,1,0,1", "--mode", "backtrack"],
    ["--field", "2^2", "--n", "7", "--gen", "1:0,1:0,0:0,1:0", "--mode", "brute"],
    [*F4_15, "--mode", "backtrack"],
    ["--n", "14", "--gen", "1,1,0,1"],
    ["--n", "14", "--gen", "1,1,0,1", "--claim", "wr(S(2), PSL2_7, rows)",
     "--trials", "300", "--seed", "7"],
    ["--n", "14", "--gen", "1,1,0,1", "--claim", "wr(S(2), PSL2_7, rows)",
     "--order-cap", "10"],
    ["--n", "14", "--gen", "1,1,0,1", "--order-cap", "10", "--trials", "200"],
    ["--field", "2^2", "--n", "7", "--gen", "1:0,1:0,0:0,1:0"],
    [*F4_15, "--claim", f"wr({F4_LEAF}, S(3), cols)", "--trials", "200"],
    [*F4_15, "--claim", f"wr(S(3), {F4_LEAF}, rows)"],
    ["--n", "7", "--gen", "1,1,0,1", "--claim", "S(7)"],
]


def _report_sans_time(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "elapsed_ms"}


def test_verdict_reports_golden(capsys):
    # pins every perm-group report above and run_table's reports on rows
    # that reach every tier (values recorded before one function built
    # all reports)
    outputs = []
    for args in PERM_GROUP_GOLDEN:
        status = cli.main(["perm-group", *args])
        doc = json.loads(capsys.readouterr().out)
        outputs.append([status, _report_sans_time(doc)])
    assert [status for status, _ in outputs] == [0] * 10 + [1, 1]
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    assert digest[:16] == "2dc7f78b4ea7809a"
    rows = select_rows(["T01a", "T02a", "T15", "T23", "T27", "T17"])
    reports = run_table(rows, RunConfig(trials=200))
    assert [r.method for r in reports] == \
        ["Exhaustive", "Backtrack", "Certify", "Backtrack", "Certify", "Certify"]
    docs = [_report_sans_time(r.to_json_dict()) for r in reports]
    digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
    assert digest[:16] == "8f4d261f58a4aba5"


def _perm_group(capsys, *args):
    status = cli.main(["perm-group", *args])
    return status, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("mode", ["brute", "backtrack"])
def test_exact_modes_certify_the_claim(capsys, mode):
    code = ["--n", "7", "--gen", "1,1,0,1", "--mode", mode]
    # --trials 0, the default, is accepted in every mode
    status, rep = _perm_group(capsys, *code, "--claim", "PSL2_7",
                              "--trials", "0")
    assert status == 0
    assert rep["certified"] is True and rep["equal"] is True
    assert rep["trials"] is None
    assert rep["counterexamples"] == []
    # the transposition (0 1) of S(7) moves basis word 1 out of the code
    status, rep = _perm_group(capsys, *code, "--claim", "S(7)")
    assert status == 1
    assert rep["certified"] is False and rep["equal"] is False
    assert rep["counterexamples"] == [
        {"images": [1, 0, 2, 3, 4, 5, 6], "basis_index": 1}]


@pytest.mark.parametrize("row_id, mode", [("T01a", "brute"),
                                          ("T02a", "backtrack")])
def test_table_and_perm_group_agree(capsys, row_id, mode):
    row = select_rows([row_id])[0]
    (table_rep,) = run_table([row], RunConfig())
    gen = format_poly_text(row.build_gen(F2))
    status, rep = _perm_group(capsys, "--n", str(row.n), "--gen", gen,
                              "--mode", mode, "--claim", row.claim)
    assert status == 0
    keys = ("method", "certified", "equal", "computed_order",
            "counterexamples")
    want = table_rep.to_json_dict()
    assert {k: rep[k] for k in keys} == {k: want[k] for k in keys}
