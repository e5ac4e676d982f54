"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest -s to see them) and
enforces the stated tolerances and time budgets.
"""

import math
import os
import random
import subprocess
import sys
import time

import cycperm
from cycperm.autgroup import backtrack_per_group, exhaustive_per_group
from cycperm.cyclic_code import Layout, make_code
from cycperm.galois import make_field
from cycperm.group_constructors import (
    crt_product_generators,
    named_group_generators,
    sym_generators,
    wreath_generators,
)
from cycperm.permutation import PermGroup, Permutation, apply_perm, compose, \
    groups_equal
from cycperm.polyring import (
    cyclotomic,
    dual_generator,
    factor_xn_minus_1,
    one_poly,
    poly_from_ints,
    poly_mul,
    poly_pow,
    poly_sub,
    substitute_power,
    x_poly,
    xn_minus_1,
)
from cycperm.table import RunConfig, TABLE_ROWS, run_table, selftest

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


def _report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({elapsed:.1f}s){' ' + detail if detail else ''}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_hamming_psl27():
    t0 = time.perf_counter()
    group = exhaustive_per_group(make_code(F2, 7, poly_from_ints(F2, [1, 1, 0, 1])))
    elapsed = time.perf_counter() - t0
    _report(1, group.order == 168 and elapsed < 5.0, elapsed,
            f"order={group.order}")


def test_criterion_2_repetition_s7():
    t0 = time.perf_counter()
    group = exhaustive_per_group(make_code(F2, 7, cyclotomic(7, F2)))
    s7 = PermGroup(7, sym_generators(7))
    ok = group.order == 5040 and groups_equal(group, s7)
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 5.0, elapsed, f"order={group.order}")


def test_criterion_3_theorem_hp_n6():
    t0 = time.perf_counter()
    got = exhaustive_per_group(make_code(F2, 6, cyclotomic(3, F2)))
    wreath = PermGroup(6, wreath_generators(sym_generators(2),
                                            sym_generators(3),
                                            Layout.ROW_BLOCKS))
    ok = got.order == 48 and wreath.order == 48 and groups_equal(got, wreath)
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 5.0, elapsed, f"order={got.order}")


def test_criterion_4_theorem_rp_n9_n10():
    # n = 9: Q_3(x^3), expected S_3 wr S_3 of order 1296
    t0 = time.perf_counter()
    got9 = exhaustive_per_group(make_code(F2, 9, substitute_power(cyclotomic(3, F2), 3)))
    w9 = PermGroup(9, wreath_generators(sym_generators(3), sym_generators(3),
                                        Layout.COL_BLOCKS))
    ok9 = got9.order == 1296 and groups_equal(got9, w9)
    t9 = time.perf_counter() - t0

    # n = 10: Q_5, expected S_2 wr S_5 of order 3840 (single-threaded)
    t0 = time.perf_counter()
    code10 = make_code(F2, 10, cyclotomic(5, F2))
    got10 = exhaustive_per_group(code10)
    w10 = PermGroup(10, wreath_generators(sym_generators(2),
                                          sym_generators(5),
                                          Layout.ROW_BLOCKS))
    ok10 = got10.order == 3840 and groups_equal(got10, w10)
    t10 = time.perf_counter() - t0

    # same search partitioned over 8 workers
    t0 = time.perf_counter()
    got10w = exhaustive_per_group(code10, workers=8)
    t10w = time.perf_counter() - t0
    okw = got10w.order == 3840 and groups_equal(got10w, got10)

    ok = ok9 and ok10 and okw and t9 < 120 and t10 < 120 and t10w < 30
    _report(4, ok, t9 + t10 + t10w,
            f"n=9 {t9:.1f}s, n=10 {t10:.1f}s single / {t10w:.1f}s 8-worker")


def test_criterion_5_theorem_pq_n15():
    t0 = time.perf_counter()
    code = make_code(F2, 15, cyclotomic(15, F2))
    got = backtrack_per_group(code)
    crt = PermGroup(15, crt_product_generators(3, 5))
    ok = got.order == 720 and groups_equal(got, crt)
    # dual code: (x-1) Q_3 Q_5; the permutation groups must coincide
    gd = poly_mul(poly_mul(poly_sub(x_poly(F2), one_poly(F2)),
                           cyclotomic(3, F2)), cyclotomic(5, F2))
    got_dual = backtrack_per_group(make_code(F2, 15, gd))
    ok = ok and groups_equal(got, got_dual)
    elapsed = time.perf_counter() - t0
    _report(5, ok and elapsed < 60.0, elapsed, f"order={got.order}")


def test_criterion_6_agl_over_f5():
    t0 = time.perf_counter()
    xm1 = poly_sub(x_poly(F5), one_poly(F5))
    got = exhaustive_per_group(make_code(F5, 5, poly_mul(xm1, xm1)))
    agl = PermGroup(5, named_group_generators("AGL1", 5))
    ok = got.order == 20 and groups_equal(got, agl)
    elapsed = time.perf_counter() - t0
    _report(6, ok and elapsed < 5.0, elapsed, f"order={got.order}")


def test_criterion_7_table_regression():
    t0 = time.perf_counter()
    cfg = RunConfig()  # order cap 300, 10^5 sampling trials, seed 42
    reports = run_table(TABLE_ROWS, cfg)
    elapsed = time.perf_counter() - t0
    problems = []
    for row, rep in zip(TABLE_ROWS, reports):
        if rep.certified is not True:
            problems.append(f"{row.id}: not certified")
        if row.n <= cfg.order_cap:
            if rep.computed_order != row.theoretical_order():
                problems.append(f"{row.id}: order mismatch")
            if rep.equal is not True:
                problems.append(f"{row.id}: equality verdict {rep.equal}")
        else:
            if rep.trials != cfg.trials or rep.seed != cfg.seed:
                problems.append(f"{row.id}: sampling not recorded")
            if rep.counterexamples:
                problems.append(f"{row.id}: sampling found counterexamples")
    # spot-frozen symbolic orders from the criterion text
    spot = {r.id: r for r in TABLE_ROWS}
    assert spot["T04a"].theoretical_order() == math.factorial(3) ** 7 * 168
    assert spot["T07a"].theoretical_order() == 168 ** 7 * math.factorial(7)
    assert spot["T16"].theoretical_order() == 155 ** 2 * 2
    ok = not problems and elapsed < 900
    _report(7, ok, elapsed, "; ".join(problems) or f"{len(reports)} rows")


def test_criterion_8_polynomial_identities():
    t0 = time.perf_counter()
    for field in (F2, F3):
        for (p, q) in ((3, 5), (3, 7), (5, 7)):
            if field.r in (p, q):
                continue
            lhs = xn_minus_1(field, p * q)
            rhs = poly_mul(
                poly_mul(poly_sub(x_poly(field), one_poly(field)),
                         cyclotomic(p, field)),
                poly_mul(cyclotomic(q, field), cyclotomic(p * q, field)))
            assert lhs == rhs, (field.r, p, q)
    for (r, alpha) in ((2, 1), (3, 1), (2, 2)):
        field = make_field(r, alpha)
        for n in range(1, 101):
            prod = one_poly(field)
            for fac, mult in factor_xn_minus_1(n, field):
                prod = poly_mul(prod, poly_pow(fac, mult))
            assert prod == xn_minus_1(field, n), (r, alpha, n)
    elapsed = time.perf_counter() - t0
    _report(8, elapsed < 30.0, elapsed)


def test_criterion_9_invariant_suites_and_selftest():
    t0 = time.perf_counter()
    rng = random.Random(90001)

    # field axioms, 1000 randomized cases
    for _ in range(1000):
        f = rng.choice([F2, F3, make_field(2, 3), make_field(3, 2)])
        a, b, c = (f.element_of_index(rng.randrange(f.order)) for _ in range(3))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a != f.zero:
            assert f.mul(a, f.inv(a)) == f.one

    # action-composition coherence, 1000 randomized cases
    for _ in range(1000):
        n = rng.randrange(2, 10)
        word = tuple(rng.randrange(9) for _ in range(n))
        im1 = list(range(n))
        rng.shuffle(im1)
        im2 = list(range(n))
        rng.shuffle(im2)
        s, t = Permutation(im1), Permutation(im2)
        assert apply_perm(apply_perm(word, s), t) == apply_perm(word, compose(s, t))

    # dual round-trip over divisors of x^n - 1
    for n in (7, 15, 21):
        for fac, _m in factor_xn_minus_1(n, F2):
            if 0 < fac.degree < n:
                assert dual_generator(dual_generator(fac, n), n) == fac

    # wreath order formula, randomized
    for _ in range(10):
        da, dh = rng.randrange(2, 5), rng.randrange(2, 5)
        w = PermGroup(da * dh, wreath_generators(sym_generators(da),
                                                 sym_generators(dh),
                                                 rng.choice(list(Layout))))
        assert w.order == math.factorial(da) ** dh * math.factorial(dh)

    # CRT product sits inside both wreath groups
    crt = crt_product_generators(3, 5)
    w1 = PermGroup(15, wreath_generators(sym_generators(5), sym_generators(3),
                                         Layout.ROW_BLOCKS))
    w2 = PermGroup(15, wreath_generators(sym_generators(3), sym_generators(5),
                                         Layout.ROW_BLOCKS))
    assert all(w1.contains(g) and w2.contains(g) for g in crt)

    # the CLI selftest must complete cleanly within its budget
    t1 = time.perf_counter()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycperm.__file__)))
    path = os.environ.get("PYTHONPATH")  # src first, as from a checkout
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    res = subprocess.run([sys.executable, "-m", "cycperm.cli", "selftest"],
                         capture_output=True, text=True, timeout=120, env=env)
    selftest_elapsed = time.perf_counter() - t1
    ok = res.returncode == 0 and selftest_elapsed <= 60
    elapsed = time.perf_counter() - t0
    _report(9, ok, elapsed,
            f"selftest {selftest_elapsed:.1f}s exit={res.returncode}")
