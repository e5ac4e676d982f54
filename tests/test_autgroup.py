import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from cycperm.autgroup import (
    VerificationReport,
    _Engine,
    backtrack_per_group,
    certify_subgroup,
    exhaustive_per_group,
    falsify_by_sampling,
    predicted_group,
)
from cycperm.cyclic_code import Layout, basis_codewords, contains, make_code
from cycperm.errors import NoPattern, TooLarge
from cycperm.galois import make_field
from cycperm.group_constructors import (
    CrtProduct,
    PerOf,
    Wreath,
    crt_product_generators,
    expr_order,
    format_group_expr,
    materialize,
    named_group_generators,
    parse_group_expr,
    sym_generators,
    wreath_generators,
)
from cycperm.permutation import (
    PermGroup,
    Permutation,
    groups_equal,
    identity_perm,
    perm_from_cycles,
)
from cycperm.polyring import (
    cyclotomic,
    factor_xn_minus_1,
    one_poly,
    poly_from_ints,
    poly_mul,
    poly_pow,
    poly_sub,
    substitute_power,
    x_poly,
)
from cycperm.table import select_rows

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
G7A = poly_from_ints(F2, [1, 1, 0, 1])


def _all_proper_divisor_codes(field, n):
    facs = factor_xn_minus_1(n, field)
    out = []
    for combo in itertools.product(*(range(m + 1) for _, m in facs)):
        g = one_poly(field)
        for (fac, _), e in zip(facs, combo):
            g = poly_mul(g, poly_pow(fac, e))
        if 1 < g.degree < n:
            out.append(make_code(field, n, g))
    return out


def test_exhaustive_hamming_psl27():
    assert exhaustive_per_group(make_code(F2, 7, G7A)).order == 168


def test_exhaustive_repetition_s7():
    g = exhaustive_per_group(make_code(F2, 7, cyclotomic(7, F2)))
    assert g.order == 5040


def test_exhaustive_agl_over_f5():
    xm1 = poly_sub(x_poly(F5), one_poly(F5))
    code = make_code(F5, 5, poly_mul(xm1, xm1))
    g = exhaustive_per_group(code)
    assert g.order == 20
    assert groups_equal(g, PermGroup(5, named_group_generators("AGL1", 5)))


def test_exhaustive_cutoff():
    with pytest.raises(TooLarge):
        exhaustive_per_group(make_code(F2, 15, cyclotomic(15, F2)))


def test_exhaustive_workers_agree():
    code = make_code(F2, 9, substitute_power(cyclotomic(3, F2), 3))
    g1 = exhaustive_per_group(code)
    g2 = exhaustive_per_group(code, workers=3)
    assert g1.order == g2.order == 1296
    assert groups_equal(g1, g2)


def test_backtrack_q15_crt():
    g = backtrack_per_group(make_code(F2, 15, cyclotomic(15, F2)))
    assert g.order == 720
    assert groups_equal(g, PermGroup(15, crt_product_generators(3, 5)))


def test_backtrack_repetition():
    g = backtrack_per_group(make_code(F2, 7, cyclotomic(7, F2)))
    assert g.order == 5040


def test_backtrack_n9_matches_wreath():
    code = make_code(F2, 9, substitute_power(cyclotomic(3, F2), 3))
    g = backtrack_per_group(code)
    assert g.order == 1296
    w = PermGroup(9, wreath_generators(sym_generators(3), sym_generators(3),
                                       Layout.COL_BLOCKS))
    assert groups_equal(g, w)


def test_oracle_equivalence_small_n():
    for field, ns in ((F2, (6, 7, 8)), (F3, (4, 8))):
        for n in ns:
            for code in _all_proper_divisor_codes(field, n):
                assert groups_equal(exhaustive_per_group(code),
                                    backtrack_per_group(code)), code


def test_theorem_hp_desk_scale():
    # (h, p) = (2, 3) and (3, 3) over F_2: admissible g | x^p - 1, deg > 1
    for h, p in ((2, 3), (3, 3)):
        g = cyclotomic(3, F2)
        code = make_code(F2, h * p, g)
        inner = exhaustive_per_group(make_code(F2, p, g))
        w = PermGroup(h * p, wreath_generators(
            sym_generators(h), list(inner.generators), Layout.ROW_BLOCKS))
        assert groups_equal(exhaustive_per_group(code), w), (h, p)


def test_theorem_hp_desk_scale_f3():
    # (h, p) = (2, 5) over F_3: Q_5 is an irreducible quartic mod 3
    g = cyclotomic(5, F3)
    assert g.degree == 4
    code = make_code(F3, 10, g)
    w = PermGroup(10, wreath_generators(sym_generators(2), sym_generators(5),
                                        Layout.ROW_BLOCKS))
    got = exhaustive_per_group(code)
    assert got.order == 3840
    assert groups_equal(got, w)


def test_theorem_rp_desk_scale_n6():
    code = make_code(F2, 6, substitute_power(cyclotomic(3, F2), 2))
    w = PermGroup(6, wreath_generators(sym_generators(3), sym_generators(2),
                                       Layout.COL_BLOCKS))
    got = exhaustive_per_group(code)
    assert got.order == 72
    assert groups_equal(got, w)


def test_dual_per_lemma_small():
    for field, n, gen in [(F2, 6, cyclotomic(3, F2)),
                          (F2, 7, G7A),
                          (F2, 9, substitute_power(cyclotomic(3, F2), 3))]:
        code = make_code(field, n, gen)
        dual = make_code(field, n, code.dual_gen)
        assert groups_equal(exhaustive_per_group(code),
                            exhaustive_per_group(dual))


def test_inclu_per_lemma():
    xm1 = poly_sub(x_poly(F2), one_poly(F2))
    gd = poly_mul(poly_mul(xm1, cyclotomic(3, F2)), cyclotomic(5, F2))
    per = backtrack_per_group(make_code(F2, 15, gd))
    w_qp = PermGroup(15, wreath_generators(sym_generators(5),
                                           sym_generators(3),
                                           Layout.ROW_BLOCKS))
    w_pq = PermGroup(15, wreath_generators(sym_generators(3),
                                           sym_generators(5),
                                           Layout.ROW_BLOCKS))
    for g in per.generators:
        assert w_qp.contains(g)
        assert w_pq.contains(g)


def test_shift_and_multiplier_members():
    for field, n, gen in [(F2, 7, G7A), (F2, 15, cyclotomic(15, F2)),
                          (F2, 9, substitute_power(cyclotomic(3, F2), 3))]:
        code = make_code(field, n, gen)
        per = backtrack_per_group(code)
        shift = Permutation([(i + 1) % n for i in range(n)])
        assert per.contains(shift)
        if n % field.r:
            mult = Permutation([(field.order * i) % n for i in range(n)])
            assert per.contains(mult)


def test_predicted_examples():
    assert format_group_expr(predicted_group(make_code(F2, 14, G7A))) \
        == "wr(S(2), PSL2_7, rows)"
    assert format_group_expr(predicted_group(
        make_code(F2, 14, poly_pow(G7A, 2)))) == "wr(PSL2_7, S(2), cols)"
    assert predicted_group(make_code(F2, 15, cyclotomic(15, F2))) \
        == CrtProduct(3, 5)


def test_predicted_reciprocal_variant_pins_leaf_code():
    e = predicted_group(make_code(F2, 14, poly_from_ints(F2, [1, 0, 1, 1])))
    assert isinstance(e, Wreath) and isinstance(e.h, PerOf)
    assert expr_order(e) == 2 ** 7 * 168


def test_predicted_no_pattern_cases():
    # p = char is not covered by the hp theorem
    with pytest.raises(NoPattern):
        predicted_group(make_code(F2, 4, poly_from_ints(F2, [1, 0, 1])))
    # degree-1 generator other than x - 1 at prime length: x - zeta with
    # zeta a 5th root of unity in F_16
    from cycperm.polyring import make_poly
    f16 = make_field(2, 4)
    zeta = next(f16.element_of_index(i) for i in range(2, 16)
                if f16.pow(f16.element_of_index(i), 5) == f16.one
                and f16.element_of_index(i) != f16.one)
    code = make_code(f16, 5, make_poly(f16, [f16.neg(zeta), f16.one]))
    with pytest.raises(NoPattern):
        predicted_group(code)


def test_certify_table_n21():
    claim = parse_group_expr("wr(S(3), PSL2_7, rows)")
    rep = certify_subgroup(make_code(F2, 21, G7A), materialize(claim),
                           claim=claim)
    assert rep.certified is True
    assert rep.predicted_order == math.factorial(3) ** 7 * 168 == 47029248
    assert rep.computed_order == rep.predicted_order
    assert rep.equal is True


def test_certify_identity_only():
    rep = certify_subgroup(make_code(F2, 7, G7A), [identity_perm(7)])
    assert rep.certified is True
    assert rep.computed_order == 1


def test_certify_overclaim_fails():
    claim = parse_group_expr("S(7)")
    rep = certify_subgroup(make_code(F2, 7, G7A), materialize(claim),
                           claim=claim)
    assert rep.certified is False
    bad = [tuple(c["images"]) for c in rep.counterexamples]
    assert perm_from_cycles([[0, 1]], 7).images in bad


def test_falsify_zero_counterexamples_q15():
    code = make_code(F2, 15, cyclotomic(15, F2))
    claimed = PermGroup(15, crt_product_generators(3, 5))
    rep = falsify_by_sampling(code, claimed, trials=100_000, seed=42)
    assert rep.counterexamples == []
    assert rep.trials == 100_000 and rep.seed == 42
    assert rep.rng_algorithm


def test_falsify_finds_counterexamples_for_trivial_claim():
    code = make_code(F2, 7, cyclotomic(7, F2))  # repetition: Per = S_7
    trivial = PermGroup(7, [identity_perm(7)])
    rep = falsify_by_sampling(code, trivial, trials=100, seed=1)
    assert rep.counterexamples


def test_falsify_rejects_zero_trials():
    code = make_code(F2, 7, G7A)
    with pytest.raises(ValueError):
        falsify_by_sampling(code, PermGroup(7, [identity_perm(7)]), 0, 1)


def test_falsify_deterministic_stream():
    code = make_code(F2, 7, cyclotomic(7, F2))
    trivial = PermGroup(7, [identity_perm(7)])
    a = falsify_by_sampling(code, trivial, trials=50, seed=9)
    b = falsify_by_sampling(code, trivial, trials=50, seed=9)
    assert a.counterexamples == b.counterexamples


def test_falsify_golden_stream():
    # pins the rng.permutation(n) stream and which trials pass
    code = make_code(F2, 7, G7A)
    trivial = PermGroup(7, [identity_perm(7)])
    rep = falsify_by_sampling(code, trivial, trials=2000, seed=5)
    images = [tuple(c["images"]) for c in rep.counterexamples]
    assert len(images) == 77
    assert images[:2] == [(6, 0, 4, 2, 5, 1, 3), (2, 0, 5, 6, 4, 1, 3)]
    digest = hashlib.sha256(json.dumps(images).encode()).hexdigest()
    assert digest[:16] == "1d9ff51baab2d90e"


def _dense_preserves(code, sigma):
    """Reference: check every basis word x^t g, return the first failure."""
    f = code.field
    for t, row in enumerate(basis_codewords(code)):
        word = tuple(f.element_of_index(row[j]) for j in sigma)
        if not contains(code, word):
            return False, t
    return True, None


def _factor_of_degree(field, n, degree, weight):
    return next(g for g, _ in factor_xn_minus_1(n, field)
                if g.degree == degree
                and sum(c != field.zero for c in g.coeffs) == weight)


def _transposition(n, a, b):
    return perm_from_cycles([[a, b]], n)


@pytest.mark.parametrize("code, blocks", [
    (make_code(F2, 7, G7A), []),
    (make_code(F2, 21, G7A), [(3, 7), (7, 3)]),
    (make_code(F2, 62, select_rows(["T16"])[0].build_gen(F2)), [(2, 31), (31, 2)]),
    (make_code(F3, 13, _factor_of_degree(F3, 13, 3, 4)), []),
    (make_code(F3, 21, _factor_of_degree(F3, 21, 6, 7)), [(3, 7), (7, 3)]),
])
def test_sparse_preserves_matches_dense(code, blocks):
    n = code.n
    perms = [_transposition(n, 0, 1), _transposition(n, 0, n - 1),
             _transposition(n, 2, n // 2), _transposition(n, n - 2, n - 1),
             perm_from_cycles([[1, 4, n - 3]], n),
             Permutation([(i + 1) % n for i in range(n)])]
    perms += sym_generators(n)
    for la, lh in blocks:
        perms += wreath_generators(sym_generators(la), sym_generators(lh),
                                   Layout.ROW_BLOCKS)
    rng = np.random.default_rng(2024)
    perms += [Permutation(rng.permutation(n)) for _ in range(6)]
    engine = _Engine(code)
    outcomes = []
    for p in perms:
        want = _dense_preserves(code, p.images)
        assert engine.perm_preserves(p.array()) == want, p
        assert engine.perm_preserves(p.array(), first_failure=True) == want, p
        outcomes.append(want)
    assert (True, None) in outcomes
    assert any(not ok and t > 0 for ok, t in outcomes)


def test_groups_equal_without_generators():
    # the exhaustive scan drops the identity, leaving no generators at n = 1
    exact = exhaustive_per_group(make_code(F2, 1, one_poly(F2)))
    assert exact.generators == ()
    assert groups_equal(exact, PermGroup(1, materialize(parse_group_expr("S(1)"))))
    assert groups_equal(exact, exact)


def test_report_json_round_trip():
    claim = parse_group_expr("wr(S(2), PSL2_7, rows)")
    rep = certify_subgroup(make_code(F2, 14, G7A), materialize(claim),
                           claim=claim)
    blob = json.dumps(rep.to_json_dict())
    back = VerificationReport.from_json_dict(json.loads(blob))
    assert back == rep
    assert json.loads(blob)["predicted_order"] == str(2 ** 7 * 168)
