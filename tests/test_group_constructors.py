import math
import random

import numpy as np
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
    Affine,
    CrtProduct,
    Cyclic,
    Linear,
    Mathieu,
    Named,
    PerOf,
    Sym,
    Wreath,
    crt_product_generators,
    cyclic_generators,
    expr_contains,
    expr_degree,
    expr_order,
    format_group_expr,
    linear_geometries,
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
    identity_perm,
    perm_from_cycles,
)
from cycperm.polyring import poly_from_ints
from cycperm.table import random_group_expr, select_rows
from wreath_reference import per_block_wreath_generators

F2 = make_field(2)


def test_wreath_example_s2_by_s3():
    gens = wreath_generators(sym_generators(2), sym_generators(3),
                             Layout.ROW_BLOCKS)
    # S_3 is transitive: one copy of S_2, on the class of point 0
    expect = [perm_from_cycles([[0, 3]], 6),
              perm_from_cycles([[0, 1], [3, 4]], 6),
              perm_from_cycles([[0, 1, 2], [3, 4, 5]], 6)]
    assert gens == expect
    assert PermGroup(6, gens).order == 48


def test_wreath_generator_count():
    a = sym_generators(4)
    h = sym_generators(5)
    gens = wreath_generators(a, h, Layout.COL_BLOCKS)
    assert len(gens) == 1 * len(a) + len(h)  # orbits(H) * |a| + |h|
    # <(0 1)> on 3 points has the orbits {0, 1} and {2}
    h = [perm_from_cycles([[0, 1]], 3)]
    assert len(wreath_generators(a, h, Layout.ROW_BLOCKS)) == 2 * len(a) + 1
    with pytest.raises(EmptyGenerators):
        wreath_generators([], h, Layout.ROW_BLOCKS)


def _random_generators(rng, degree):
    return [Permutation(rng.sample(range(degree), degree))
            for _ in range(rng.randrange(1, 3))]


def test_wreath_generators_match_one_copy_per_block():
    # one copy of A per orbit of H generates the group that one copy per
    # block does, A^deg(H) semidirect H, whether H is transitive or not
    rng = random.Random(14)
    cases = [(sym_generators(3), [perm_from_cycles([[0, 1]], 3)]),
             (cyclic_generators(3), [identity_perm(4)]),
             (sym_generators(2), [identity_perm(1)])]
    for _ in range(12):
        cases.append((_random_generators(rng, rng.randrange(2, 5)),
                      _random_generators(rng, rng.randrange(1, 5))))
    for a, h in cases:
        la, lh = a[0].degree, h[0].degree
        gens = wreath_generators(a, h, rng.choice(list(Layout)))
        chain = PermGroup(la * lh, gens).chain()
        assert chain.order() == \
            PermGroup(la, a).order ** lh * PermGroup(lh, h).order
        old = per_block_wreath_generators(a, h)
        assert chain.contains_batch(np.stack([g.array() for g in old])).all()
        old_chain = PermGroup(la * lh, old).chain()
        assert old_chain.contains_batch(
            np.stack([g.array() for g in gens])).all()


def test_table_wreath_claims_stay_small():
    # the table's largest wreath claims materialize a handful of generators
    # (one base copy per top orbit), not one copy per block: T18 had 2,048
    counts = {row.id: len(materialize(row.claim_expr()))
              for row in select_rows(["T17", "T18", "T11a", "T13a"])}
    assert counts == {"T17": 4, "T18": 5, "T11a": 7, "T13a": 8}


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


def test_prime_degree_tags():
    # the affine tag p:m keeps the old spellings and generators, and the
    # 2-transitive tags have the orders their formulas give
    x31 = np.arange(31)
    assert materialize(parse_group_expr("C31xC5")) == [
        Permutation((x31 + 1) % 31), Permutation(2 * x31 % 31)]
    assert [g.images[1] for g in materialize(AGL1(7))] == [2, 3]
    assert materialize(Affine(13, 1)) == cyclic_generators(13)
    assert linear_geometries(31) == [(3, 5), (5, 2)]
    assert linear_geometries(13) == [(3, 3)]
    assert linear_geometries(17) == [(2, 16)]
    assert linear_geometries(23) == []
    for e, text, order in [
            (Affine(31, 5), "C31xC5", 155), (AGL1(11), "AGL1(11)", 110),
            (Affine(13, 3), "13:3", 39),
            (Linear(3, 3, 2, 3), "L(3,3;2;3)", 5616),
            (Linear(2, 16, 1, 4), "L(2,16;1;4)", 8160),
            (Linear(3, 5, 1, 3), "L(3,5;1;3)", 372_000),
            (Linear(5, 2, 3, 5), "L(5,2;3;5)", 9_999_360),
            (Mathieu(5), "M23(5)", 10_200_960)]:
        assert format_group_expr(e) == text
        assert parse_group_expr(text) == e
        assert PermGroup(expr_degree(e), materialize(e)).order \
            == expr_order(e) == order, text
    for bad in (Affine(4, 3), Affine(13, 5), Affine(13, 0),
                Linear(4, 2, 1, 4), Linear(3, 3, 1, 2), Linear(3, 3, 1, 0),
                Linear(2, 16, 1, 16), Linear(3, 3, 13, 3), Mathieu(23)):
        with pytest.raises(BadDegree):
            materialize(bad)


@pytest.mark.parametrize("e", [Cyclic(12), Cyclic(9), Affine(13, 4),
                               AGL1(11), Affine(31, 5)])
def test_affine_membership_is_structural(e):
    # i -> a i + b with a in the multipliers, decided without a chain, as
    # the chain of the materialized group decides it, on members, on
    # affine maps with any unit a and on random permutations
    rng, words = np.random.default_rng(26), random.Random(26)
    n = expr_degree(e)
    group = PermGroup(n, materialize(e))
    units = [a for a in range(1, n) if math.gcd(a, n) == 1]
    a, b = rng.choice(units, size=(200, 1)), rng.integers(n, size=(200, 1))
    rows = np.array([group.sample(words).array() for _ in range(200)]
                    + list((a * np.arange(n) + b) % n)
                    + [rng.permutation(n) for _ in range(200)])
    want = group.chain().contains_batch(rows)
    assert want[:200].all() and not want.all()
    assert np.array_equal(expr_contains(e, rows), want)


def test_leaf_chains_are_memoized(monkeypatch):
    # expr_contains builds one chain per leaf and process, which answers as
    # a fresh chain does; a searched leaf (PSL2_7, per(...)) reads its
    # search's chain, psl27_generators builds none once its search ran, and
    # AGL1(11) is decided structurally, with no chain
    from cycperm import group_constructors, permutation
    from cycperm.table import parse_gen_expr

    t15 = parse_gen_expr("(x^5+x^2+1)(x^5+x^3+1)(x^5+x^3+x^2+x+1)", F2)
    leaves = [Named("PSL2_7"), AGL1(11), Mathieu(1), PerOf(F2, 31, t15)]
    for e in leaves:
        materialize(e)  # runs the leaf searches, whose chains are not counted
    built = []
    init = permutation._StabChain.__init__

    def counting_init(self, n):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(permutation._StabChain, "__init__", counting_init)
    assert group_constructors.psl27_generators() == materialize(leaves[0])
    assert built == []
    rng, words = np.random.default_rng(18), random.Random(18)
    cases = []
    for e in leaves:
        n = expr_degree(e)
        group = PermGroup(n, materialize(e))
        rows = np.array([group.sample(words).array() for _ in range(500)]
                        + [rng.permutation(n) for _ in range(500)])
        want = group.chain().contains_batch(rows)
        assert want[:500].all() and not want[500:].all()
        cases.append((e, rows, want))
    group_constructors._leaf_chain.cache_clear()
    del built[:]
    for _ in range(3):
        for e, rows, want in cases:
            assert np.array_equal(expr_contains(e, rows), want), e
    assert built == [23]  # PSL2_7 and per(...) use their search's chain
    group_constructors._leaf_chain.cache_clear()
    for e, rows, want in cases:
        assert np.array_equal(expr_contains(e, rows), want), e
    assert built == [23] * 2
    # every table claim of degree <= 300 answers on a cleared memo, then
    # again in reverse order on warm ones, alike: words of 16 generators
    # are members, and each composed with a random transposition is near
    from cycperm.table import TABLE_ROWS
    claims = dict.fromkeys(row.claim_expr() for row in TABLE_ROWS
                           if row.n <= 300)
    cold = []
    for e in claims:
        n = expr_degree(e)
        gens = np.array([g.array() for g in materialize(e)])
        members = np.tile(np.arange(n), (32, 1))
        for letters in rng.integers(len(gens), size=(16, 32)):
            members = np.take_along_axis(members, gens[letters], axis=1)
        swapped = members.copy()
        at, (i, j) = np.arange(32), rng.integers(n, size=(2, 32))
        swapped[at, i], swapped[at, j] = members[at, j], members[at, i]
        rows = np.concatenate([members, swapped])
        group_constructors._leaf_chain.cache_clear()
        want = expr_contains(e, rows)
        assert want[:32].all(), format_group_expr(e)
        cold.append((e, rows, want))
    for e, rows, want in reversed(cold):
        assert np.array_equal(expr_contains(e, rows), want), \
            format_group_expr(e)


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


def test_chain_orders_match_the_order_formula():
    # the constructors' check that left the verdict path: the Schreier-Sims
    # order of every table claim of degree <= 300 and of every derived
    # Per(C) expression equals expr_order (each distinct generator set once)
    from cycperm.autgroup import derive_per_group
    from cycperm.cyclic_code import make_code
    from cycperm.table import TABLE_ROWS

    exprs = []
    for row in TABLE_ROWS:
        if row.n > 300:
            continue
        exprs.append(row.claim_expr())
        exprs.append(derive_per_group(
            make_code(F2, row.n, row.build_gen(F2)))[0])
    assert len(exprs) == 41 + 41
    seen = {}
    for e in exprs:
        gens = materialize(e)
        key = b"".join(g.array().tobytes() for g in gens)
        if key not in seen:
            seen[key] = PermGroup(expr_degree(e), gens).order
        assert seen[key] == expr_order(e), format_group_expr(e)
