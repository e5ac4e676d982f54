"""The four benchmark workloads: their ops, and the output check of each op.

An op is either one call into cycperm's public API (timed on its own) or
one record of a ``run_table`` call (timed as the interval between two
``log`` callbacks).  Every op is either a true claim, whose output is
checked, or an under-claim probe: a claim that is a proper subgroup of the
true group, which a sound verifier must reject.

The seed only reorders ops and seeds sampling streams; every op's input is
fixed.  The op sets are cut down from the full table so that one pass fits
the benchmark's run length on a 2-core machine (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

# Evidence tiers of a group verdict, weakest first.
TIER_SAMPLING = 1   # subgroup certificate + seeded sampling (n > order cap)
TIER_ORDER = 2      # subgroup certificate + exact Schreier-Sims order
TIER_EXACT = 3      # group equality from exhaustive search or backtracking

SAMPLING_TRIALS = 10_000   # per table-sampling record (table default: 10^5)
CLI_TRIALS = 2_000         # per algebra-fq perm-group query
FACTOR_N = range(1, 61)    # x^n - 1 is factored for these n
FACTOR_FIELDS = ("2", "3", "2^2")

# Records verified by certificate plus exact order.  T10, T11b, T12, T13
# and T14 (about 77 s of chain building together) do not fit one pass;
# T11a keeps one degree-196 chain.
TABLE_ORDERS_ROWS = ("T05a", "T05b", "T06a", "T06b", "T07a", "T07b", "T08a",
                     "T08b", "T09a", "T09b", "T11a", "T15", "T16", "T22",
                     "T25", "T26", "T27", "T28", "T29")
TABLE_SAMPLING_ROWS = ("T17", "T18")
SEARCH_EXACT_ROWS = ("T01a", "T01b", "T02a", "T02b", "T03a", "T03b", "T04a",
                     "T04b", "T19", "T20", "T21", "T23", "T24")

# Under-claim probes: (id, n_factored, n, generator, claim, workload).
MUTANTS = (
    ("M21", "7", 7, "Q(7)", "PSL2_7", "search-exact"),
    ("M04a", "3*7", 21, "x^3+x+1", "wr(C(3), PSL2_7, rows)", "search-exact"),
    ("M05a", "3*2*7", 42, "x^3+x+1", "wr(C(6), PSL2_7, rows)", "table-orders"),
    ("M16", "2*31", 62, "(x^5+x^2+1)^2(x^5+x^3+1)^2(x^5+x^3+x^2+x+1)^2",
     "wr(C(31), S(2), cols)", "table-orders"),
    ("M17", "31^2", 961,
     "(x^155+x^62+1)(x^155+x^93+1)(x^155+x^93+x^62+x^31+1)",
     "wr(C31xC5, C(31), cols)", "table-sampling"),
)

# Direct exact-search calls of search-exact, each compared with its claim:
# (name, field, n, generator in the table's closed form, claim, search).
# T28 (8 s of backtracking) does not fit one pass; T29 has the same shape.
DIRECT_SEARCHES = (
    ("backtrack T27", "2", 30, "Q(3)Q(5)", "wr(S(2), x(3,5), rows)",
     "backtrack"),
    ("backtrack T29", "2", 105, "Q(5)Q(7)", "wr(S(3), x(5,7), rows)",
     "backtrack"),
    ("backtrack F4 n=14", "2^2", 14, "x^3+x+1", "wr(S(2), PSL2_7, rows)",
     "backtrack"),
    ("backtrack F4 n=21", "2^2", 21, "x^3+x+1", "wr(S(3), PSL2_7, rows)",
     "backtrack"),
    ("exhaustive n=9", "2", 9, "x^6+x^3+1", "wr(S(3), S(3), cols)",
     "exhaustive"),
    ("exhaustive n=10", "2", 10, "Q(5)", "wr(S(2), S(5), rows)",
     "exhaustive"),
    ("exhaustive F5 n=5", "5", 5, "(x-1)^2", "AGL1(5)", "exhaustive"),
)

F4_GEN = "1:0,1:0,0:0,1:0"     # x^3 + x + 1 over F_4, as CLI text
# algebra-fq perm-group queries: (name, n, predicted claim).
CLI_CERTIFY = (
    ("certify F4 n=14", 14, "wr(S(2), PSL2_7, rows)"),
    ("certify F4 n=21", 21, "wr(S(3), PSL2_7, rows)"),
)

WORKLOADS = ("table-orders", "table-sampling", "search-exact", "algebra-fq")


@dataclass
class Outcome:
    """What the benchmark learned from one op (filled in outside timing)."""
    name: str
    true_claim: bool
    ms: float = 0.0                  # at reference speed (see speed.py)
    t0: float = 0.0                  # raw interval, perf_counter seconds
    t1: float = 0.0
    problems: List[str] = field(default_factory=list)
    accepted: Optional[bool] = None  # verifier's verdict, for group claims
    tier: Optional[int] = None       # evidence tier, for group verdicts

    @property
    def right(self) -> bool:
        """A true claim must pass its check; a probe must be rejected."""
        if self.true_claim:
            return not self.problems
        return not self.problems and self.accepted is False

    def as_dict(self) -> dict:
        return {"name": self.name, "true_claim": self.true_claim,
                "ms": self.ms, "raw_ms": 1000.0 * (self.t1 - self.t0),
                "problems": self.problems,
                "accepted": self.accepted, "tier": self.tier,
                "right": self.right}


@dataclass
class CallOp:
    """One timed call; ``check`` turns its return value into an Outcome."""
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Outcome], None]
    true_claim: bool = True


@dataclass
class TableBlock:
    """One ``run_table`` call; each row is an op."""
    rows: list
    cfg: Any
    mutant_ids: frozenset


def report_accepted(rep) -> bool:
    """The verifier's pass/fail verdict on one report."""
    return (rep.certified is not False and rep.equal is not False
            and not rep.counterexamples)


def report_tier(rep) -> int:
    if rep.method in ("Exhaustive", "Backtrack"):
        return TIER_EXACT
    if rep.trials is not None:
        return TIER_SAMPLING
    return TIER_ORDER


def check_record(row, rep, cfg, out: Outcome) -> None:
    """Criterion-7 checks for one true-claim table record."""
    out.accepted = report_accepted(rep)
    out.tier = report_tier(rep)
    p = out.problems
    theory = row.theoretical_order()
    if rep.certified is not True:
        p.append("not certified")
    if rep.predicted_order != theory:
        p.append(f"predicted order {rep.predicted_order} != {theory}")
    if row.n <= cfg.order_cap:
        if rep.computed_order != theory:
            p.append(f"computed order {rep.computed_order} != {theory}")
        if rep.equal is not True:
            p.append(f"equal is {rep.equal}")
    else:
        if rep.trials != cfg.trials or rep.seed != cfg.seed:
            p.append(f"sampling recorded trials={rep.trials} seed={rep.seed}")
        if rep.rng_algorithm is None:
            p.append("sampling rng not recorded")
    if rep.counterexamples:
        p.append(f"{len(rep.counterexamples)} counterexamples")


def check_probe(rep, out: Outcome) -> None:
    out.accepted = report_accepted(rep)
    out.tier = report_tier(rep)


def mutant_rows(cp, workload: str) -> list:
    return [cp.TableRow(mid, nf, n, gen, claim)
            for mid, nf, n, gen, claim, wl in MUTANTS if wl == workload]


def _table_block(cp, ids, workload, cfg, rng) -> TableBlock:
    probes = mutant_rows(cp, workload)
    rows = cp.select_rows(list(ids)) + probes
    rng.shuffle(rows)
    return TableBlock(rows, cfg, frozenset(r.id for r in probes))


def _direct_search(cp, spec) -> CallOp:
    name, field_text, n, gen_text, claim_text, kind = spec

    def run():
        from cycperm.table import parse_gen_expr
        field = cp.parse_field(field_text)
        code = cp.make_code(field, n, parse_gen_expr(gen_text, field))
        if kind == "backtrack":
            group = cp.backtrack_per_group(code)
        else:
            group = cp.exhaustive_per_group(code, workers=1)
        claimed = cp.PermGroup(n, cp.materialize(cp.parse_group_expr(claim_text)))
        return group.order, cp.groups_equal(group, claimed)

    def check(result, out: Outcome) -> None:
        order, equal = result
        out.accepted = bool(equal)
        out.tier = TIER_EXACT
        theory = cp.expr_order(cp.parse_group_expr(claim_text))
        if order != theory:
            out.problems.append(f"order {order} != {theory}")
        if equal is not True:
            out.problems.append(f"groups_equal is {equal}")

    return CallOp(name, run, check)


def _cli(cp, argv) -> Callable[[], tuple]:
    from cycperm.cli import main

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(argv))
        return rc, buf.getvalue()
    return run


def _factor_op(cp, field_text: str, n: int) -> CallOp:
    def check(result, out: Outcome) -> None:
        rc, text = result
        if rc != 0:
            out.problems.append(f"exit status {rc}")
            return
        field = cp.parse_field(field_text)
        from cycperm.polyring import one_poly, poly_mul, poly_pow, xn_minus_1
        prod = one_poly(field)
        for fac in json.loads(text):
            poly = cp.parse_poly_text(fac["poly"], field)
            if poly.degree != fac["degree"]:
                out.problems.append(f"degree of {fac['poly']} misreported")
            prod = poly_mul(prod, poly_pow(poly, fac["multiplicity"]))
        if prod != xn_minus_1(field, n):
            out.problems.append("factors do not multiply back to x^n - 1")

    argv = ["factor", "--field", field_text, "--n", str(n)]
    return CallOp(f"factor F{field_text} n={n}", _cli(cp, argv), check)


def _certify_op(cp, spec, seed: int) -> CallOp:
    name, n, claim_text = spec

    def check(result, out: Outcome) -> None:
        rc, text = result
        rep = json.loads(text)
        out.accepted = rc == 0
        out.tier = TIER_ORDER if rep["computed_order"] else TIER_SAMPLING
        p = out.problems
        theory = cp.expr_order(cp.parse_group_expr(claim_text))
        if rc != 0:
            p.append(f"exit status {rc}")
        if rep["predicted"] != claim_text:
            p.append(f"predicted {rep['predicted']!r}")
        if rep["certified"] is not True or rep["equal"] is not True:
            p.append(f"certified={rep['certified']} equal={rep['equal']}")
        if int(rep["computed_order"] or -1) != theory:
            p.append(f"computed order {rep['computed_order']} != {theory}")
        if rep["trials"] != CLI_TRIALS or rep["seed"] != seed:
            p.append(f"sampling recorded trials={rep['trials']} "
                     f"seed={rep['seed']}")
        if rep["counterexamples"]:
            p.append(f"{len(rep['counterexamples'])} counterexamples")

    argv = ["perm-group", "--field", "2^2", "--n", str(n), "--gen", F4_GEN,
            "--mode", "certify", "--trials", str(CLI_TRIALS),
            "--seed", str(seed), "--workers", "1"]
    return CallOp(name, _cli(cp, argv), check)


def first_ops(items: list, limit: int) -> list:
    """The first ``limit`` ops of a pass (a table block counts its rows)."""
    out = []
    for item in items:
        if limit <= 0:
            break
        if isinstance(item, TableBlock):
            item = TableBlock(item.rows[:limit], item.cfg, item.mutant_ids)
            limit -= len(item.rows)
        else:
            limit -= 1
        out.append(item)
    return out


def build(cp, workload: str, seed: int, pass_index: int) -> list:
    """The ops of one pass, in the order this seed and pass give them."""
    rng = random.Random(f"{seed}/{pass_index}")
    if workload == "table-orders":
        items = [_table_block(cp, TABLE_ORDERS_ROWS, workload,
                              cp.RunConfig(seed=seed, workers=1), rng)]
    elif workload == "table-sampling":
        cfg = cp.RunConfig(seed=seed, trials=SAMPLING_TRIALS, workers=1)
        items = [_table_block(cp, TABLE_SAMPLING_ROWS, workload, cfg, rng)]
    elif workload == "search-exact":
        items = [_table_block(cp, SEARCH_EXACT_ROWS, workload,
                              cp.RunConfig(seed=seed, workers=1), rng)]
        items += [_direct_search(cp, spec) for spec in DIRECT_SEARCHES]
    elif workload == "algebra-fq":
        items = [_factor_op(cp, f, n) for f in FACTOR_FIELDS for n in FACTOR_N]
        items += [_certify_op(cp, spec, seed) for spec in CLI_CERTIFY]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items
