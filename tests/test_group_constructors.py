import math
import random

import pytest

from cycperm.cyclic_code import Layout
from cycperm.errors import (
    ArityError,
    BadDegree,
    EmptyGenerators,
    ExprSyntaxError,
    NotCoprime,
    UnknownTag,
)
from cycperm.galois import make_field
from cycperm.group_constructors import (
    AGL1,
    CrtProduct,
    Cyclic,
    Named,
    PerOf,
    Sym,
    Wreath,
    crt_product_generators,
    expr_degree,
    expr_order,
    format_group_expr,
    materialize,
    named_group_generators,
    parse_group_expr,
    per_of_generators,
    sym_generators,
    wreath_generators,
)
from cycperm.permutation import (
    PermGroup,
    Permutation,
    compose,
    groups_equal,
    perm_from_cycles,
)
from cycperm.polyring import poly_from_ints
from cycperm.table import random_group_expr

F2 = make_field(2)


def test_wreath_example_s2_by_s3():
    gens = wreath_generators(sym_generators(2), sym_generators(3),
                             Layout.ROW_BLOCKS)
    expect = [perm_from_cycles([[0, 3]], 6), perm_from_cycles([[1, 4]], 6),
              perm_from_cycles([[2, 5]], 6),
              perm_from_cycles([[0, 1], [3, 4]], 6),
              perm_from_cycles([[0, 1, 2], [3, 4, 5]], 6)]
    assert gens == expect
    assert PermGroup(6, gens).order == 48


def test_wreath_generator_count():
    a = sym_generators(4)
    h = sym_generators(5)
    gens = wreath_generators(a, h, Layout.COL_BLOCKS)
    assert len(gens) == 5 * len(a) + len(h)
    with pytest.raises(EmptyGenerators):
        wreath_generators([], h, Layout.ROW_BLOCKS)


def test_wreath_order_formula_random():
    rng = random.Random(88)
    for _ in range(15):
        da, dh = rng.randrange(2, 5), rng.randrange(2, 5)
        use_sym_a, use_sym_h = rng.random() < .5, rng.random() < .5
        a = named_group_generators("Sym" if use_sym_a else "Cyclic", da)
        h = named_group_generators("Sym" if use_sym_h else "Cyclic", dh)
        oa = math.factorial(da) if use_sym_a else da
        oh = math.factorial(dh) if use_sym_h else dh
        layout = rng.choice(list(Layout))
        w = PermGroup(da * dh, wreath_generators(a, h, layout))
        assert w.order == oa ** dh * oh


def test_psl_wreath_col_blocks_order():
    # degree 49 group with order 168^7 * 7!
    gens = wreath_generators(named_group_generators("PSL2_7", 7),
                             sym_generators(7), Layout.COL_BLOCKS)
    assert PermGroup(49, gens).order == 168 ** 7 * math.factorial(7)


def test_crt_product_examples():
    gens = crt_product_generators(3, 5)
    tau0 = gens[0]  # lift of (0 1) in S_3
    assert tau0.images[0] == 10
    assert tau0.images[3] == 13
    assert PermGroup(15, gens).order == 720
    with pytest.raises(NotCoprime):
        crt_product_generators(3, 3)
    with pytest.raises(NotCoprime):
        crt_product_generators(4, 5)


@pytest.mark.parametrize("p,q", [(3, 5), (5, 7), (7, 31)])
def test_crt_product_matches_pointwise_formula(p, q):
    def crt(a, b):  # the unique k in [0, pq) with k = a mod p, k = b mod q
        return (a * q * pow(q, -1, p) + b * p * pow(p, -1, q)) % (p * q)

    n = p * q
    expected = [
        Permutation([crt(tau.images[k % p], k % q) for k in range(n)])
        for tau in sym_generators(p)
    ] + [
        Permutation([crt(k % p, tau.images[k % q]) for k in range(n)])
        for tau in sym_generators(q)
    ]
    assert crt_product_generators(p, q) == expected


def test_crt_lifts_commute_across_factors():
    gens = crt_product_generators(3, 5)
    p_lifts, q_lifts = gens[:2], gens[2:]
    for a in p_lifts:
        for b in q_lifts:
            assert compose(a, b) == compose(b, a)


def test_crt_inside_both_wreaths():
    crt = crt_product_generators(3, 5)
    w_qp = PermGroup(15, wreath_generators(sym_generators(5),
                                           sym_generators(3),
                                           Layout.ROW_BLOCKS))
    w_pq = PermGroup(15, wreath_generators(sym_generators(3),
                                           sym_generators(5),
                                           Layout.ROW_BLOCKS))
    for g in crt:
        assert w_qp.contains(g)
        assert w_pq.contains(g)


def test_named_groups():
    assert PermGroup(5, named_group_generators("AGL1", 5)).order == 20
    assert PermGroup(7, named_group_generators("PSL2_7", 7)).order == 168
    assert PermGroup(7, named_group_generators("Cyclic", 7)).order == 7
    assert PermGroup(31, named_group_generators("C31xC5", 31)).order == 155
    with pytest.raises(UnknownTag):
        named_group_generators("M23", 23)
    with pytest.raises(BadDegree):
        named_group_generators("PSL2_7", 8)
    with pytest.raises(BadDegree):
        named_group_generators("AGL1", 4)


def test_per_of_copies_differ():
    # the two [7,4] codes have conjugate but unequal permutation groups
    a = per_of_generators(F2, 7, poly_from_ints(F2, [1, 1, 0, 1]))
    b = per_of_generators(F2, 7, poly_from_ints(F2, [1, 0, 1, 1]))
    ga, gb = PermGroup(7, a), PermGroup(7, b)
    assert ga.order == gb.order == 168
    assert not groups_equal(ga, gb)


def test_parse_examples():
    e = parse_group_expr("wr(S(2), PSL2_7, rows)")
    assert e == Wreath(Sym(2), Named("PSL2_7"), Layout.ROW_BLOCKS)
    assert expr_degree(e) == 14
    e2 = parse_group_expr("x(3,5)")
    assert e2 == CrtProduct(3, 5)
    assert expr_degree(e2) == 15
    assert expr_order(e2) == 720
    assert parse_group_expr("  AGL1( 11 ) ") == AGL1(11)
    assert parse_group_expr("C(9)") == Cyclic(9)


def test_parse_unbalanced_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_group_expr("wr(S(2)")
    assert exc.value.offset == 8


def test_parse_arity_error():
    with pytest.raises(ArityError):
        parse_group_expr("wr(S(2), PSL2_7, )")


def test_parse_per_leaf():
    e = parse_group_expr("per(2;7;1,0,1,1)")
    assert isinstance(e, PerOf)
    assert expr_degree(e) == 7
    assert expr_order(e) == 168
    assert format_group_expr(e) == "per(2;7;1,0,1,1)"
    f4_gen = "1:0,1:0,0:0,1:0"
    assert parse_group_expr(f"per(4;7;{f4_gen})") \
        == parse_group_expr(f"per(2^2;7;{f4_gen})")


def test_expr_round_trip_1000_random():
    rng = random.Random(2024)
    for _ in range(1000):
        e = random_group_expr(rng, depth=2)
        assert parse_group_expr(format_group_expr(e)) == e


def test_symbolic_orders():
    e = parse_group_expr("wr(wr(S(2), PSL2_7, rows), S(7), cols)")
    assert expr_degree(e) == 98
    assert expr_order(e) == (2 ** 7 * 168) ** 7 * math.factorial(7)


def test_materialized_perms_are_bijections():
    rng = random.Random(3)
    for _ in range(50):
        e = random_group_expr(rng, depth=1)
        for p in materialize(e):
            assert sorted(p.images) == list(range(expr_degree(e)))
