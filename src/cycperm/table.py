"""The embedded binary-code regression corpus and the batch verifier.

Each record is one table row; rows quoting two alternative generators
("or" variants) become two records with suffixed ids.  Generator
polynomials are stored in closed form and expanded on demand; every
claimed group is a parseable expression whose degree must equal n.

Verification tiers per row (monotone: every row gets at least a
certificate):

* certify  - every claimed-group generator preserves the code; plus, when
  n <= order_cap, Per(C) derived from the code's structure and compared
  with the claim by block membership (the claim's Schreier-Sims order
  when a leaf is too large to decide), or seeded sampling falsification
  when n is beyond the cap;
* backtrack - exact Per(C) when the code (or its dual) is enumerable and
  n <= backtrack_cutoff, compared to the claim by group equality;
* exact - exhaustive search when n <= exact_cutoff, same comparison.

run_table only chooses the tier; autgroup.verify_claim builds each report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from .autgroup import (
    VerificationReport,
    backtrack_per_group,
    exhaustive_per_group,
    report_passed,
    verify_claim,
)
from .cyclic_code import DEFAULT_ENUM_CAP, contains, make_code
from .galois import FieldSpec, make_field
from .group_constructors import (
    GroupExpr,
    expr_degree,
    expr_order,
    format_group_expr,
    materialize,
    parse_group_expr,
)
from .permutation import PermGroup, groups_equal
from .polyring import (
    Poly,
    cyclotomic,
    one_poly,
    poly_add,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_sub,
    x_poly,
)


@dataclass(frozen=True)
class TableRow:
    id: str
    n_factored: str
    n: int
    gen_text: str       # closed form, e.g. "(x^21+x^7+1)^2" or "Q(15)"
    claim: str          # group expression string
    note: Optional[str] = None

    def build_gen(self, field: FieldSpec) -> Poly:
        return parse_gen_expr(self.gen_text, field)

    def claim_expr(self) -> GroupExpr:
        return parse_group_expr(self.claim)

    def theoretical_order(self) -> int:
        return expr_order(self.claim_expr())


# -- tiny closed-form polynomial expressions ----------------------------------
# grammar: sum of terms; term = factors by adjacency or '*'; factor =
# atom ['^' int]; atom = '(' expr ')' | 'x' | 'Q(' int ')' | integer.

class _GenParser:
    def __init__(self, text: str, field: FieldSpec):
        self.t = text
        self.i = 0
        self.f = field

    def err(self, msg):
        raise ValueError(f"{msg} at {self.i} in {self.t!r}")

    def ws(self):
        while self.i < len(self.t) and self.t[self.i].isspace():
            self.i += 1

    def peek(self):
        self.ws()
        return self.t[self.i] if self.i < len(self.t) else ""

    def integer(self) -> int:
        self.ws()
        s = self.i
        while self.i < len(self.t) and self.t[self.i].isdigit():
            self.i += 1
        if s == self.i:
            self.err("expected integer")
        return int(self.t[s:self.i])

    def atom(self) -> Poly:
        c = self.peek()
        if c == "(":
            self.i += 1
            e = self.expr()
            if self.peek() != ")":
                self.err("expected ')'")
            self.i += 1
            return e
        if c == "x":
            self.i += 1
            return x_poly(self.f)
        if c == "Q":
            self.i += 1
            if self.peek() != "(":
                self.err("expected '(' after Q")
            self.i += 1
            n = self.integer()
            if self.peek() != ")":
                self.err("expected ')'")
            self.i += 1
            return cyclotomic(n, self.f)
        if c.isdigit():
            v = self.integer()
            return poly_scale(one_poly(self.f),
                              self.f.element_of_index(v % self.f.r))
        self.err("expected atom")

    def factor(self) -> Poly:
        a = self.atom()
        if self.peek() == "^":
            self.i += 1
            return poly_pow(a, self.integer())
        return a

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.i += 1
                acc = poly_mul(acc, self.factor())
            elif c in ("(", "x", "Q") or c.isdigit():
                acc = poly_mul(acc, self.factor())
            else:
                return acc

    def expr(self) -> Poly:
        acc = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.i += 1
                acc = poly_add(acc, self.term())
            elif c == "-":
                self.i += 1
                acc = poly_sub(acc, self.term())
            else:
                return acc

    def parse(self) -> Poly:
        e = self.expr()
        self.ws()
        if self.i != len(self.t):
            self.err("trailing input")
        return e


def parse_gen_expr(text: str, field: FieldSpec) -> Poly:
    return _GenParser(text, field).parse()


# -- the embedded rows ---------------------------------------------------------

def _pair(num: str, nf: str, n: int, gen_a: str, gen_b: str, claim: str,
          note: Optional[str] = None) -> List[TableRow]:
    """Two records for an either-generator row.  The reciprocal generator's
    code is the reversed code, whose PSL(2,7) copy is conjugate to but not
    equal to the canonical one, so the "b" claim pins its own leaf code."""
    claim_b = claim.replace("PSL2_7", "per(2;7;1,0,1,1)")
    return [TableRow(f"{num}a", nf, n, gen_a, claim, note),
            TableRow(f"{num}b", nf, n, gen_b, claim_b, note)]


TABLE_ROWS: List[TableRow] = (
    _pair("T01", "7", 7, "x^3+x+1", "x^3+x^2+1", "PSL2_7")
    + _pair("T02", "2*7", 14, "x^3+x+1", "x^3+x^2+1",
            "wr(S(2), PSL2_7, rows)")
    + _pair("T03", "2*7", 14, "(x^3+x+1)^2", "(x^3+x^2+1)^2",
            "wr(PSL2_7, S(2), cols)")
    + _pair("T04", "3*7", 21, "x^3+x+1", "x^3+x^2+1",
            "wr(S(3), PSL2_7, rows)")
    + _pair("T05", "3*2*7", 42, "x^3+x+1", "x^3+x^2+1",
            "wr(S(6), PSL2_7, rows)")
    + _pair("T06", "7^2", 49, "x^3+x+1", "x^3+x^2+1",
            "wr(S(7), PSL2_7, rows)")
    + _pair("T07", "7^2", 49, "x^21+x^7+1", "x^21+x^14+1",
            "wr(PSL2_7, S(7), cols)")
    + _pair("T08", "2*7^2", 98, "x^21+x^7+1", "x^21+x^14+1",
            "wr(wr(S(2), PSL2_7, rows), S(7), cols)")
    + _pair("T09", "2*7^2", 98, "(x^21+x^7+1)^2", "(x^21+x^14+1)^2",
            "wr(PSL2_7, S(14), cols)")
    + _pair("T10", "2^2*7^2", 196, "(x^3+x+1)^4", "(x^3+x^2+1)^4",
            "wr(wr(S(7), PSL2_7, rows), S(4), cols)")
    + _pair("T11", "2^2*7^2", 196, "(x^21+x^7+1)^2", "(x^21+x^14+1)^2",
            "wr(wr(S(2), PSL2_7, rows), S(14), cols)")
    + _pair("T12", "2^2*7^2", 196, "(x^21+x^7+1)^4", "(x^21+x^14+1)^4",
            "wr(PSL2_7, S(28), cols)")
    + _pair("T13", "3*2*7^2", 294, "x^21+x^7+1", "x^21+x^14+1",
            "wr(wr(S(6), PSL2_7, rows), S(7), cols)")
    + _pair("T14", "3*2*7^2", 294, "(x^21+x^7+1)^2", "(x^21+x^14+1)^2",
            "wr(wr(S(3), PSL2_7, rows), S(14), cols)")
    + [
        TableRow("T15", "31", 31,
                 "(x^5+x^2+1)(x^5+x^3+1)(x^5+x^3+x^2+x+1)", "C31xC5"),
        TableRow("T16", "2*31", 62,
                 "(x^5+x^2+1)^2(x^5+x^3+1)^2(x^5+x^3+x^2+x+1)^2",
                 "wr(C31xC5, S(2), cols)"),
        TableRow("T17", "31^2", 961,
                 "(x^155+x^62+1)(x^155+x^93+1)(x^155+x^93+x^62+x^31+1)",
                 "wr(C31xC5, S(31), cols)"),
        TableRow("T18", "2^2*31^2", 3844,
                 "(x^155+x^62+1)^2(x^155+x^93+1)^2(x^155+x^93+x^62+x^31+1)^2",
                 "wr(wr(S(2), C31xC5, rows), S(62), cols)"),
        TableRow("T19", "3", 3, "Q(3)", "S(3)"),
        TableRow("T20", "5", 5, "Q(5)", "S(5)"),
        TableRow("T21", "7", 7, "Q(7)", "S(7)"),
        TableRow("T22", "31", 31, "Q(31)", "S(31)"),
        TableRow("T23", "3*5", 15, "(x-1)Q(3)Q(5)", "x(3,5)"),
        TableRow("T24", "3*5", 15, "Q(15)", "x(3,5)",
                 note="source table mislabels Q_15 as the 217-th cyclotomic "
                      "polynomial; recorded as Q_15"),
        TableRow("T25", "7*31", 217, "(x-1)Q(7)Q(31)", "x(7,31)"),
        TableRow("T26", "7*31", 217, "Q(217)", "x(7,31)"),
        TableRow("T27", "2*3*5", 30, "Q(3)Q(5)", "wr(S(2), x(3,5), rows)"),
        TableRow("T28", "7*3*5", 105, "Q(3)Q(5)", "wr(S(7), x(3,5), rows)"),
        TableRow("T29", "3*5*7", 105, "Q(5)Q(7)", "wr(S(3), x(5,7), rows)"),
    ]
)

_ROWS_BY_ID = {row.id: row for row in TABLE_ROWS}


def select_rows(tokens: Optional[Sequence[str]]) -> List[TableRow]:
    """ids match exactly or by prefix ("T01" selects both variants)."""
    if not tokens:
        return list(TABLE_ROWS)
    out = []
    for tok in tokens:
        hits = [r for r in TABLE_ROWS
                if r.id == tok or r.id.startswith(tok)]
        if not hits:
            raise KeyError(f"no table row matches {tok!r}")
        out.extend(h for h in hits if h not in out)
    return out


@dataclass
class RunConfig:
    exact_cutoff: int = 10
    backtrack_cutoff: int = 24
    enum_cap: int = DEFAULT_ENUM_CAP
    order_cap: int = 300
    trials: int = 100_000
    seed: int = 42
    workers: int = 1


def run_table(rows: Sequence[TableRow], cfg: RunConfig,
              log=None) -> List[VerificationReport]:
    """Verify each row; reports align with the input order.

    Materialized claim groups are cached by claim string.  Their
    stabilizer chains are built only for sampling hits, for exact-search
    equality and for the chain fallback of a leaf too large to decide,
    which no table record reaches.
    """
    field = make_field(2)
    group_cache: dict = {}
    reports = []
    for row in rows:
        t0 = time.perf_counter()
        claim = row.claim_expr()
        code = make_code(field, row.n, row.build_gen(field))
        if expr_degree(claim) != row.n:
            raise ValueError(f"{row.id}: claim degree != n")
        if row.claim not in group_cache:
            group_cache[row.claim] = PermGroup(row.n, materialize(claim))
        enumerable = 2 ** min(code.k, code.n - code.k) <= cfg.enum_cap
        search = None
        if row.n <= cfg.exact_cutoff:
            search = ("Exhaustive",
                      partial(exhaustive_per_group, workers=cfg.workers))
        elif row.n <= cfg.backtrack_cutoff and enumerable:
            search = ("Backtrack", partial(backtrack_per_group,
                                           cap=cfg.enum_cap))
        rep = verify_claim(code, claim, group_cache[row.claim], search,
                           cfg.order_cap,
                           cfg.trials if row.n > cfg.order_cap else 0,
                           cfg.seed)
        rep.elapsed_ms = int((time.perf_counter() - t0) * 1000)
        reports.append(rep)
        if log:
            status = "pass" if report_passed(rep) else "FAIL"
            log(f"{row.id:5s} n={row.n:<5d} tier={rep.method:<10s} "
                f"evidence={rep.evidence:<19s} {status}  "
                f"({rep.elapsed_ms} ms)")
    return reports


def summarize_csv(rows: Sequence[TableRow],
                  reports: Sequence[VerificationReport]) -> str:
    lines = ["row,tier,certified,order_match,elapsed_ms"]
    for row, rep in zip(rows, reports):
        eq = "" if rep.order_match is None else str(rep.order_match).lower()
        lines.append(f"{row.id},{rep.method},{str(rep.certified).lower()},"
                     f"{eq},{rep.elapsed_ms}")
    return "\n".join(lines) + "\n"


# -- selftest -------------------------------------------------------------------

def _check(name: str, fn, log) -> bool:
    t0 = time.perf_counter()
    try:
        fn()
        ok = True
        msg = "PASS"
    except Exception as exc:  # noqa: BLE001 - report any failure
        ok = False
        msg = f"FAIL ({exc})"
    log(f"{name}: {msg} [{time.perf_counter() - t0:.1f}s]")
    return ok


def selftest(log=print) -> int:
    """Fast invariant suite; returns a process exit status."""
    checks = [
        ("field axioms", _st_field_axioms),
        ("factorization identities", _st_factorization),
        ("factor memo", _st_factor_memo),
        ("dual round-trip", _st_dual_roundtrip),
        ("action-composition coherence", _st_action_coherence),
        ("matrix representation round-trip", _st_matrix_roundtrip),
        ("oracle equivalence (n <= 8)", _st_oracle_equivalence),
        ("decomposition", _st_decomposition),
        ("wreath order formula", _st_wreath_orders),
        ("CRT product inside both wreaths", _st_crt_in_wreaths),
        ("group expression round-trip", _st_expr_roundtrip),
        ("sampling filter", _st_sampling_filter),
        ("pq words", _st_pq_words),
    ]
    ok = True
    for name, fn in checks:
        ok = _check(name, fn, log) and ok
    return 0 if ok else 1


def _st_field_axioms():
    rng = random.Random(101)
    for (r, a) in [(2, 3), (3, 2), (2, 2), (5, 2), (7, 1)]:
        f = make_field(r, a)
        q = f.order
        els = [f.element_of_index(i) for i in range(q)]
        for _ in range(1000):
            x, y, z = (els[rng.randrange(q)] for _ in range(3))
            assert f.mul(x, f.mul(y, z)) == f.mul(f.mul(x, y), z)
            assert f.mul(x, y) == f.mul(y, x)
            assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
            assert f.add(x, y) == f.add(y, x)
            frob = f.pow(f.add(x, y), r)
            assert frob == f.add(f.pow(x, r), f.pow(y, r))
            if x != f.zero:
                assert f.mul(x, f.inv(x)) == f.one
                assert f.pow(x, q - 1) == f.one


def _st_factorization():
    from .polyring import factor_xn_minus_1, xn_minus_1
    for f in (make_field(2), make_field(3), make_field(2, 2)):
        for n in range(1, 31):
            prod = one_poly(f)
            for fac, mult in factor_xn_minus_1(n, f):
                prod = poly_mul(prod, poly_pow(fac, mult))
            assert prod == xn_minus_1(f, n), (f, n)
        for (p, q) in ((3, 5), (3, 7), (5, 7)):
            if f.r in (p, q):
                continue
            lhs = xn_minus_1(f, p * q)
            rhs = poly_mul(poly_mul(poly_sub(x_poly(f), one_poly(f)),
                                    cyclotomic(p, f)),
                           poly_mul(cyclotomic(q, f), cyclotomic(p * q, f)))
            assert lhs == rhs, (f, p, q)


def _st_factor_memo():
    from .polyring import _cyclotomic_factors, factor_xn_minus_1
    for f in (make_field(2), make_field(3), make_field(2, 2)):
        runs = []
        for order in (range(30, 0, -1), range(1, 31)):
            _cyclotomic_factors.cache_clear()
            runs.append({n: factor_xn_minus_1(n, f) for n in order})
        assert runs[0] == runs[1], f


def _st_dual_roundtrip():
    from .polyring import dual_generator, factor_xn_minus_1
    f = make_field(2)
    for n in (7, 9, 15, 20):
        divisors = _all_divisor_polys(f, n)
        for g in divisors:
            if g.degree in (0, n):
                continue
            assert dual_generator(dual_generator(g, n), n) == g


def _all_divisor_polys(f, n):
    from .polyring import factor_xn_minus_1
    from itertools import product as iproduct
    facs = factor_xn_minus_1(n, f)
    out = []
    choices = [range(m + 1) for _, m in facs]
    for combo in iproduct(*choices):
        g = one_poly(f)
        for (fac, _), e in zip(facs, combo):
            g = poly_mul(g, poly_pow(fac, e))
        out.append(g)
    return out


def _st_action_coherence():
    from .permutation import Permutation, apply_perm, compose
    rng = random.Random(202)
    f = make_field(2, 3)
    n = 12
    for _ in range(1000):
        word = tuple(f.element_of_index(rng.randrange(f.order))
                     for _ in range(n))
        imgs = list(range(n))
        rng.shuffle(imgs)
        sigma = Permutation(imgs)
        rng.shuffle(imgs)
        tau = Permutation(list(imgs))
        lhs = apply_perm(apply_perm(word, sigma), tau)
        rhs = apply_perm(word, compose(sigma, tau))
        assert lhs == rhs
    assert compose(Permutation([1, 2, 0]), Permutation([1, 0, 2])).images \
        == (2, 1, 0)


def _st_matrix_roundtrip():
    from .cyclic_code import Layout, flatten, matrix_rep
    rng = random.Random(303)
    f = make_field(3)
    for _ in range(300):
        n = rng.choice([6, 12, 20])
        word = tuple(f.element_of_index(rng.randrange(3)) for _ in range(n))
        for layout in (Layout.ROW_BLOCKS, Layout.COL_BLOCKS):
            blocks = [b for b in range(1, n + 1) if n % b == 0]
            b = rng.choice(blocks)
            assert flatten(matrix_rep(word, layout, b)) == word


def _st_oracle_equivalence():
    f = make_field(2)
    for n in (6, 7, 8):
        for g in _all_divisor_polys(f, n):
            if not 1 < g.degree < n:
                continue
            code = make_code(f, n, g)
            assert groups_equal(exhaustive_per_group(code),
                                backtrack_per_group(code)), (n, g)


def _st_decomposition():
    from .autgroup import derive_per_group
    for r, n_max in ((2, 8), (3, 6)):
        f = make_field(r)
        for n in range(2, n_max + 1):
            for g in _all_divisor_polys(f, n):
                code = make_code(f, n, g)
                if 0 < code.k < n:
                    assert derive_per_group(code)[1] == \
                        exhaustive_per_group(code).order, (r, n, g)


def _st_wreath_orders():
    from .group_constructors import sym_generators, cyclic_generators, \
        wreath_generators
    from .cyclic_code import Layout
    rng = random.Random(404)
    import math
    for _ in range(12):
        da, dh = rng.randrange(2, 5), rng.randrange(2, 5)
        a_sym = rng.random() < 0.5
        h_sym = rng.random() < 0.5
        a = sym_generators(da) if a_sym else cyclic_generators(da)
        h = sym_generators(dh) if h_sym else cyclic_generators(dh)
        oa = math.factorial(da) if a_sym else da
        oh = math.factorial(dh) if h_sym else dh
        layout = rng.choice([Layout.ROW_BLOCKS, Layout.COL_BLOCKS])
        w = PermGroup(da * dh, wreath_generators(a, h, layout))
        assert w.order == oa ** dh * oh


def _st_crt_in_wreaths():
    from .group_constructors import crt_product_generators, sym_generators, \
        wreath_generators
    from .cyclic_code import Layout
    crt = crt_product_generators(3, 5)
    w1 = PermGroup(15, wreath_generators(sym_generators(5),
                                         sym_generators(3),
                                         Layout.ROW_BLOCKS))
    w2 = PermGroup(15, wreath_generators(sym_generators(3),
                                         sym_generators(5),
                                         Layout.ROW_BLOCKS))
    for p in crt:
        assert w1.contains(p) and w2.contains(p)
    crt_group = PermGroup(15, crt)
    assert crt_group.order == 720
    from .permutation import compose
    for a in crt[:2]:
        for b in crt[2:]:
            assert compose(a, b) == compose(b, a)


def _st_expr_roundtrip():
    rng = random.Random(505)
    for _ in range(300):
        e = random_group_expr(rng, depth=2)
        assert parse_group_expr(format_group_expr(e)) == e


def _st_sampling_filter():
    import numpy as np
    from .autgroup import _Engine, falsify_by_sampling
    from .permutation import identity_perm
    from .polyring import poly_from_ints
    for r, n, gen in ((2, 7, [1, 1, 0, 1]), (3, 8, [2, 0, 1])):
        f = make_field(r)
        code = make_code(f, n, poly_from_ints(f, gen))
        engine = _Engine(code)
        head_rng, tail_rng = map(np.random.default_rng,
                                 np.random.SeedSequence(606).spawn(2))
        supp, want = engine.g_supp.tolist(), []
        for _ in range(5000):  # the sampler's stream, one trial at a time
            pts = list(range(n))
            for j, d in enumerate(head_rng.integers(n - np.arange(len(supp)))):
                pts[j], pts[j + d] = pts[j + d], pts[j]
            img = dict(zip(pts, (code.gen.coeffs[i] for i in supp)))
            if not contains(code, tuple(img.get(p, f.zero) for p in range(n))):
                continue  # basis word 0 leaves C: no tail is drawn
            tail = iter(tail_rng.permutation(sorted(pts[len(supp):])))
            s = np.array([pts[supp.index(i)] if i in supp else next(tail)
                          for i in range(n)])
            if engine.perm_preserves(s)[0] and (s != np.arange(n)).any():
                want.append(s.tolist())  # the identity is claimed
        rep = falsify_by_sampling(code, PermGroup(n, [identity_perm(n)]),
                                  5000, 606, engine=engine)
        assert want and [c["images"] for c in rep.counterexamples] == want


def _st_pq_words():
    from .autgroup import _crt_expr
    from .group_constructors import crt_product_generators
    f = make_field(2)
    for n, p, q in ((15, 3, 5), (21, 3, 7)):
        crt = PermGroup(n, crt_product_generators(p, q))
        decided = [g for g in _all_divisor_polys(f, n)
                   if 0 < g.degree < n and _crt_expr(n, g)]
        assert len(decided) == 2, n
        for g in decided:
            assert groups_equal(backtrack_per_group(make_code(f, n, g)), crt)


def random_group_expr(rng: random.Random, depth: int) -> GroupExpr:
    from .cyclic_code import Layout
    from .group_constructors import AGL1, CrtProduct, Cyclic, Named, Sym, \
        Wreath
    leaves = [Sym(rng.randrange(1, 9)), Cyclic(rng.randrange(1, 9)),
              AGL1(rng.choice([3, 5, 7, 11])), Named("PSL2_7"),
              Named("C31xC5"),
              CrtProduct(*rng.sample([3, 5, 7, 11, 13], 2))]
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(leaves)
    return Wreath(random_group_expr(rng, depth - 1),
                  random_group_expr(rng, depth - 1),
                  rng.choice([Layout.ROW_BLOCKS, Layout.COL_BLOCKS]))
