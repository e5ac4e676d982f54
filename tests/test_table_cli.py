import collections
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import cycperm
from cycperm import cli
from cycperm.autgroup import (
    RNG_ALGORITHM,
    VerificationReport,
    backtrack_per_group,
    certify_subgroup,
    derive_per_group,
    exhaustive_per_group,
    predicted_group,
    verify_claim,
)
from cycperm.cyclic_code import make_code
from cycperm.errors import TooLarge
from cycperm.galois import make_field, parse_field
from cycperm.group_constructors import (
    Affine,
    CrtProduct,
    Cyclic,
    Named,
    PerOf,
    Sym,
    Wreath,
    expr_contains,
    expr_degree,
    expr_order,
    format_group_expr,
    materialize,
    parse_group_expr,
)
from cycperm.permutation import PermGroup, groups_equal
from cycperm.polyring import format_poly_text, parse_poly_text
from cycperm.table import (
    EXACT_CUTOFF,
    RunConfig,
    TABLE_ROWS,
    TableRow,
    parse_gen_expr,
    run_table,
    select_rows,
    selftest,
    summarize_csv,
)
from wreath_reference import per_block_materialize

F2 = make_field(2)


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(cycperm.__file__)))


def _src_env():
    """os.environ with src first on PYTHONPATH: pyproject's pythonpath
    reaches the pytest process only, not the interpreters it starts."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=_SRC + (os.pathsep + path if path else ""))


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "cycperm.cli", *args],
                          capture_output=True, text=True, env=_src_env())


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


def test_cli_main_is_reentrant(capsys):
    """One process, many main calls: one parser, and each call prints what
    a fresh interpreter prints."""
    assert cli.build_parser() is cli.build_parser()
    for argv in (["factor", "--field", "2", "--n", "7"],
                 ["factor", "--n", "0"],
                 ["cyclotomic", "--field", "2", "--n", "15"],
                 ["factor", "--field", "2^2", "--n", "5"]):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        out, err = capsys.readouterr()
        res = _run_cli(*argv)
        assert (status, out, err) == (res.returncode, res.stdout, res.stderr)
        if argv[-1] == "0":
            assert status == 2 and err.startswith("usage:")
    parser = cli.build_parser()
    assert parser.parse_args(["table", "--row", "T01a"]).row == ["T01a"]
    assert parser.parse_args(["table"]).row is None


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


def test_cli_table_tier_cap(capsys):
    for tier, method in (("exact", "Exhaustive"), ("backtrack", "Backtrack"),
                         ("certify", "Certify")):
        assert cli.main(["table", "--row", "T01a", "--tier", tier]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["report"]["method"] == method, tier
        (rep,) = run_table(select_rows(["T01a"]), RunConfig(tier=tier))
        assert rep.method == method, tier


def test_run_config_fields():
    assert [f.name for f in dataclasses.fields(RunConfig)] == \
        ["tier", "order_cap", "trials", "seed", "workers"]
    with pytest.raises(ValueError, match="unknown tier"):
        run_table(select_rows(["T01a"]), RunConfig(tier="brute"))


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
            # a negative seed: random.Random would seed with its absolute
            # value
            (["perm-group", "--n", "7", "--gen", "1,1,0,1", "--mode",
              "certify", "--trials", "10", "--seed", "-1"], "usage: "),
            (["table", "--row", "T17", "--seed", "-3"], "usage: "),
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


@pytest.mark.parametrize("argv, message", [
    (["perm-group", "--n", "7", "--gen", "1,1,0,1", "--workers", "-3"],
     "argument --workers: -3 is not a positive integer"),
    (["table", "--row", "T01a", "--workers", "0"],
     "argument --workers: 0 is not a positive integer"),
    (["perm-group", "--n", "7", "--gen", "1,1,0,1", "--order-cap", "-1"],
     "argument --order-cap: -1 is negative"),
    (["table", "--row", "T01a", "--order-cap", "-5"],
     "argument --order-cap: -5 is negative"),
    (["code-info", "--n", "7", "--gen", "1,1,0,1", "--min-distance",
      "--enum-cap", "-1"],
     "argument --enum-cap: -1 is negative"),
], ids=["perm-group-workers", "table-workers", "perm-group-order-cap",
        "table-order-cap", "code-info-enum-cap"])
def test_cli_rejects_counts_out_of_range(capsys, argv, message):
    # a usage error and exit status 2, before any verification runs
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: ") and message in err


def test_python_m_cycperm_runs_from_a_checkout():
    res = subprocess.run([sys.executable, "-m", "cycperm", "--help"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=_SRC))
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


NEW_FIELDS = ("evidence", "order_match", "sampling_log10_power")
# the sampler's stream was re-pinned after the digests below were recorded
# (support-first drawing); no pinned report has a sampled counterexample
OLD_RNG_ALGORITHM = "numpy-pcg64/fisher-yates-permutation"

# The two over-claims: computed_order is now |Per(C)| derived from the code
# (it was the order of the claim's own chain), and equal needs the
# certificate.  (parent computed_order, equal) -> (now computed_order, equal)
OVER_CLAIMS = [(("77760", True), ("6000", False)),
               (("5040", True), ("168", False))]

# wr(S(3), per(...), rows) over F_4 now materializes one copy of S(3) (on the
# class of point 0) and the leaf's generators: 4 failing generators, where
# the one-copy-per-block set the digest was recorded with had 12.  The
# exhaustive scan's leaf generators are its chain's strong generators, the
# shift last, so the fourth counterexample is the shift on each block (was
# the reflection i -> 1 - i); it moved the digest from 2dc7f78b4ea7809a
F4_OVER_CLAIM_COUNTEREXAMPLES = [
    {"images": [5, 1, 2, 3, 4, 0, 6, 7, 8, 9, 10, 11, 12, 13, 14],
     "basis_index": 0},
    {"images": [5, 1, 2, 3, 4, 10, 6, 7, 8, 9, 0, 11, 12, 13, 14],
     "basis_index": 0},
    {"images": [0, 4, 3, 2, 1, 5, 9, 8, 7, 6, 10, 14, 13, 12, 11],
     "basis_index": 0},
    {"images": [1, 2, 3, 4, 0, 6, 7, 8, 9, 5, 11, 12, 13, 14, 10],
     "basis_index": 0}]


def _per_block_counterexamples(args):
    """The claim generators, built one copy per block, that fail."""
    field = parse_field(args[args.index("--field") + 1])
    code = make_code(field, int(args[args.index("--n") + 1]),
                     parse_poly_text(args[args.index("--gen") + 1], field))
    claim = parse_group_expr(args[args.index("--claim") + 1])
    return certify_subgroup(code, per_block_materialize(claim)).counterexamples


def _report_sans_time(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "elapsed_ms"}


def _split_new_fields(doc: dict):
    old = {k: v for k, v in doc.items() if k not in NEW_FIELDS}
    if old["rng_algorithm"] is not None:
        assert old["rng_algorithm"] == RNG_ALGORITHM
        assert old["counterexamples"] == []
        old["rng_algorithm"] = OLD_RNG_ALGORITHM
    power = doc["sampling_log10_power"]
    return old, [doc["evidence"], doc["order_match"],
                 None if power is None else round(power, 2)]


def test_verdict_reports_golden(capsys):
    # pins every perm-group report above and run_table's reports on rows
    # that reach every tier: the fields that predate evidence, order_match
    # and sampling_log10_power against digests recorded before one function
    # built all reports, and the three new fields on their own
    outputs, new_fields = [], []
    for args in PERM_GROUP_GOLDEN:
        status = cli.main(["perm-group", *args])
        doc, extra = _split_new_fields(
            _report_sans_time(json.loads(capsys.readouterr().out)))
        outputs.append([status, doc])
        new_fields.append(extra)
    assert [status for status, _ in outputs] == [0] * 10 + [1, 1]
    for (_, doc), (before, now) in zip(outputs[10:], OVER_CLAIMS):
        assert doc["certified"] is False
        assert (doc["computed_order"], doc["equal"]) == now
        doc["computed_order"], doc["equal"] = before
    f4_over_claim = outputs[10][1]
    assert f4_over_claim["counterexamples"] == F4_OVER_CLAIM_COUNTEREXAMPLES
    per_block = _per_block_counterexamples(PERM_GROUP_GOLDEN[10])
    assert len(per_block) == 12
    f4_over_claim["counterexamples"] = per_block
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    assert digest[:16] == "ec4976055fd3a03e"
    # log10(|claim| / n!) wherever trials are recorded: 2^7 * 168 / 14! and
    # 10^3 * 3! / 15!
    assert new_fields == [[None, None, None]] * 4 + [
        ["decomposition-equal", True, None],
        ["decomposition-equal", True, -6.61],
        ["subgroup", None, None], ["subgroup+sampling", None, -6.61],
        ["decomposition-equal", True, None],
        ["decomposition-equal", True, -8.34],
        ["decomposition-equal", False, None],
        ["decomposition-equal", False, None]]
    rows = select_rows(["T01a", "T02a", "T15", "T23", "T27", "T17"])
    reports = run_table(rows, RunConfig(trials=200))
    assert [r.method for r in reports] == \
        ["Exhaustive", "Backtrack", "Certify", "Backtrack", "Certify", "Certify"]
    docs, new_fields = zip(*(_split_new_fields(_report_sans_time(
        r.to_json_dict())) for r in reports))
    digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
    assert digest[:16] == "8f4d261f58a4aba5"
    assert list(new_fields) == [
        ["exhaustive-equal", True, None], ["backtrack-equal", True, None],
        ["decomposition-equal", True, None], ["backtrack-equal", True, None],
        ["decomposition-equal", True, None],
        ["subgroup+sampling", None, -2349.12]]


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


def _proper_subgroup(e):
    """e with its outermost S(h >= 3), named group, x(p, q) or per leaf
    (A before H in a wreath) replaced by the cyclic group of its degree,
    a proper subgroup that the shift still puts inside Per(C)."""
    if isinstance(e, Wreath):
        a = _proper_subgroup(e.a)
        if a is not None:
            return Wreath(a, e.h, e.layout)
        h = _proper_subgroup(e.h)
        return None if h is None else Wreath(e.a, h, e.layout)
    if isinstance(e, Sym) and e.n < 3:
        return None
    if isinstance(e, (Sym, Named, Affine, CrtProduct, PerOf)):
        return Cyclic(expr_degree(e))
    return None


def test_proper_subgroup_mutants_rejected():
    # one under-claim per record that an exact or the decomposition tier
    # decides; the certificate passes, so only Per(C) <= claim can reject it
    rows = [row for row in TABLE_ROWS if row.n <= 300]
    reports = run_table(rows, RunConfig())
    mutants, evidence = [], []
    for row, rep in zip(rows, reports):
        if rep.evidence in ("exhaustive-equal", "backtrack-equal",
                            "decomposition-equal"):
            claim = format_group_expr(_proper_subgroup(row.claim_expr()))
            mutants.append(TableRow(row.id + "m", row.n_factored, row.n,
                                    row.gen_text, claim))
            evidence.append(rep.evidence)
    assert collections.Counter(evidence) == {"exhaustive-equal": 5,
                                             "backtrack-equal": 8,
                                             "decomposition-equal": 28}
    assert [m.claim for m in mutants if m.id in ("T25m", "T26m")] \
        == ["C(217)", "C(217)"]
    for mutant, want, rep in zip(mutants, evidence,
                                 run_table(mutants, RunConfig())):
        assert rep.certified is True, mutant.claim
        assert rep.evidence == want, mutant.claim
        assert rep.equal is False, mutant.claim
        assert rep.order_match is False, mutant.claim


def _block_rule_equal(code, group, claim):
    """equal from the certificate (claim <= Per(C)) and the search group's
    generators lying in the claim, block by block (Per(C) <= claim); an
    empty generator set lies in any claim."""
    rows = np.array([g.array() for g in group.generators],
                    dtype=np.int32).reshape(-1, code.n)
    return (certify_subgroup(code, materialize(claim)).certified
            and bool(expr_contains(claim, rows).all()))


# the exact-tier records of the benchmark's search-exact workload, and its
# direct searches: (field, n, generator, claim, search)
EXACT_RECORDS = ("T01a", "T01b", "T02a", "T02b", "T03a", "T03b", "T04a",
                 "T04b", "T19", "T20", "T21", "T23", "T24")
DIRECT_SEARCHES = (
    ("2", 30, "Q(3)Q(5)", "wr(S(2), x(3,5), rows)", backtrack_per_group),
    ("2", 105, "Q(5)Q(7)", "wr(S(3), x(5,7), rows)", backtrack_per_group),
    ("2^2", 14, "x^3+x+1", "wr(S(2), PSL2_7, rows)", backtrack_per_group),
    ("2^2", 21, "x^3+x+1", "wr(S(3), PSL2_7, rows)", backtrack_per_group),
    ("2", 9, "x^6+x^3+1", "wr(S(3), S(3), cols)", exhaustive_per_group),
    ("2", 10, "Q(5)", "wr(S(2), S(5), rows)", exhaustive_per_group),
    ("5", 5, "(x-1)^2", "AGL1(5)", exhaustive_per_group),
    ("2", 1, "1", "S(1)", exhaustive_per_group),  # no generators
)


def test_block_rule_decides_exact_verdicts_as_group_equality():
    # differential: on every exact-tier record, a proper-subgroup mutant of
    # each and the direct searches, the certificate plus expr_contains of
    # the search group's generators gives groups_equal's answer without a
    # chain of the claim
    cases = []
    for row in select_rows(list(EXACT_RECORDS)):
        code = make_code(F2, row.n, row.build_gen(F2))
        search = exhaustive_per_group if row.n <= EXACT_CUTOFF \
            else backtrack_per_group
        group = search(code)
        claim = row.claim_expr()
        cases += [(code, group, claim),
                  (code, group, _proper_subgroup(claim))]
    for field_text, n, gen_text, claim_text, search in DIRECT_SEARCHES:
        field = parse_field(field_text)
        code = make_code(field, n, parse_gen_expr(gen_text, field))
        cases.append((code, search(code), parse_group_expr(claim_text)))
    verdicts = []
    for code, group, claim in cases:
        want = groups_equal(group, PermGroup(code.n, materialize(claim)))
        assert _block_rule_equal(code, group, claim) is want, \
            format_group_expr(claim)
        verdicts.append(want)
    assert verdicts == [True, False] * len(EXACT_RECORDS) \
        + [True] * len(DIRECT_SEARCHES)


def test_cli_search_without_generators_is_inside_the_claim(capsys):
    # the exhaustive scan of the n = 1 code drops the identity and keeps no
    # generator; the empty set lies in the claim
    status, rep = _perm_group(capsys, "--field", "2", "--n", "1", "--gen",
                              "1", "--mode", "brute", "--claim", "S(1)")
    assert status == 0
    assert rep["certified"] is True and rep["equal"] is True


def test_pq_records_build_no_chain(monkeypatch):
    # T25 and T26 are decided from the pair counts of their weight-4
    # words, with no Schreier-Sims chain of the claim x(7,31)
    def no_chain(self):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(PermGroup, "chain", no_chain)
    for rep in run_table(select_rows(["T25", "T26"]), RunConfig()):
        assert rep.evidence == "decomposition-equal"
        assert rep.certified is True and rep.equal is True
        assert rep.computed_order == math.factorial(7) * math.factorial(31)


def test_verify_paths_do_not_import_numpy_ma():
    # np.unique without return_* flags imports numpy.ma (numpy >= 2.3),
    # which costs every process about 10 ms
    script = """
import contextlib, io, sys
from cycperm import cli
from cycperm.table import RunConfig, run_table, select_rows
reports = run_table(select_rows(["T15", "T26", "T29"]), RunConfig())
assert all(rep.equal for rep in reports)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["factor", "--field", "3", "--n", "40"]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=_src_env())
    assert res.returncode == 0, res.stderr


def test_sampling_does_not_import_numpy_random():
    # the sampler reads random.Random streams; importing numpy.random
    # (bit_generator, secrets, hmac, _hashlib) costs every sampling process
    # about 12 ms
    script = """
import contextlib, io, sys
from cycperm import cli
from cycperm.table import RunConfig, run_table, select_rows
[rep] = run_table(select_rows(["T17"]), RunConfig(trials=100))
assert rep.trials == 100 and rep.evidence == "subgroup+sampling"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["perm-group", "--field", "2^2", "--n", "14", "--gen",
                     "1:0,1:0,0:0,1:0", "--mode", "certify",
                     "--trials", "50"]) == 0
assert "numpy.random" not in sys.modules, "numpy.random was imported"
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=_src_env())
    assert res.returncode == 0, res.stderr


def test_factoring_does_not_import_numpy_random():
    # x^n - 1 is split by its coset sums, with no random probe
    script = """
import contextlib, io, sys
from cycperm import cli
for field in ("2", "3", "2^2"):
    for n in range(1, 61):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["factor", "--field", field, "--n", str(n)]) == 0
assert "numpy.random" not in sys.modules, "numpy.random was imported"
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=_src_env())
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("n, gen, order", [
    (31, "1,1,0,1,0,0,0,1,0,0,0,0,0,0,0,1", 155),          # T15's code
    (35, "1,0,1,0,1,1,1,0,1,0,1", math.factorial(5) * math.factorial(7)),
])
def test_per_leaves_above_the_exhaustive_cutoff_as_claims(capsys, n, gen,
                                                          order):
    status, rep = _perm_group(capsys, "--n", str(n), "--gen", gen,
                              "--claim", f"per(2;{n};{gen})")
    assert status == 0
    assert rep["certified"] is True and rep["equal"] is True
    assert rep["evidence"] == "decomposition-equal"
    assert rep["computed_order"] == rep["predicted_order"] == str(order)


QR47 = "1,0,0,0,1,1,0,0,0,1,1,1,0,1,1,0,1,1,1,0,1,1,1,1"


def test_qr47_under_claim_is_rejected(capsys):
    # the binary QR code of length 47 is a prime leaf that cannot be
    # enumerated; the prime rule gives Per(C) = 47:23, the affine maps with
    # a square multiplier, of order 1,081 (not PSL(2,47), which has no
    # action on 47 points), so the true certificate of C(47) is an
    # under-claim that the library and the CLI both reject
    code = make_code(F2, 47, parse_poly_text(QR47, F2))
    assert format_group_expr(derive_per_group(code)[0]) == "47:23"
    rep = verify_claim(code, parse_group_expr("C(47)")).to_json_dict()
    status, cli_rep = _perm_group(capsys, "--n", "47", "--gen", QR47,
                                  "--mode", "certify", "--claim", "C(47)")
    assert status == 1
    for doc in (rep, cli_rep):
        assert doc["certified"] is True
        assert doc["evidence"] == "decomposition-equal"
        assert doc["equal"] is False
        assert doc["computed_order"] == "1081"
        assert doc["order_match"] is False


# a binary leaf of length 49 (one of the census's composite lengths) that
# neither the code nor its dual can enumerate
UNDECIDED49 = "1,1,0,1,0,0,0,1,1,0,1,0,0,0,0,0,0,0,0,0,0,1,1,0,1"


def test_undecided_leaf_reports_the_certificate_only(capsys):
    # derive_per_group cannot decide this leaf, so the true certificate of
    # C(49) must not become an equality by the claim's order
    code = make_code(F2, 49, parse_poly_text(UNDECIDED49, F2))
    with pytest.raises(TooLarge):
        derive_per_group(code)
    rep = verify_claim(code, parse_group_expr("C(49)")).to_json_dict()
    _, cli_rep = _perm_group(capsys, "--n", "49", "--gen", UNDECIDED49,
                             "--mode", "certify", "--claim", "C(49)")
    for doc in (rep, cli_rep):
        assert doc["certified"] is True
        assert doc["evidence"] == "subgroup"
        assert doc["equal"] is None
        assert doc["computed_order"] is None
        assert doc["order_match"] is None


def test_prediction_at_degree_p_minus_1_is_the_repetition_code_only(capsys):
    # x^3 - 1 splits over F_4: g = (x + 1)(x + w^2) has degree p - 1 but
    # is not Q_3, and its Per(C) is C_3, not the repetition code's S_3
    status = cli.main(["perm-group", "--field", "2^2", "--n", "3",
                       "--gen", "1:1,0:1,1:0", "--mode", "certify"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert status == 0 and err == "predicted: C(3)\n"
    assert rep["predicted"] == "C(3)" and rep["equal"] is True


SELFTEST_CHECKS = [
    "field axioms", "factorization identities", "dual round-trip",
    "action-composition coherence", "matrix representation round-trip",
    "oracle equivalence (n <= 8)", "decomposition", "wreath order formula",
    "CRT product inside both wreaths", "group expression round-trip",
]


def test_selftest_runs_the_public_api_checks_only():
    # regression tests of internals belong in this suite, not in selftest
    lines = []
    assert selftest(log=lines.append) == 0
    assert [re.fullmatch(r"(.*): PASS \[\d+\.\ds\]", line).group(1)
            for line in lines] == SELFTEST_CHECKS
