import collections
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from cycperm import autgroup
from cycperm.autgroup import (
    VerificationReport,
    _Engine,
    _GRAM_ROWS,
    _coordinate_structure,
    _leaf_expr,
    backtrack_per_group,
    enumerable,
    certify_subgroup,
    derive_per_group,
    exhaustive_per_group,
    falsify_by_sampling,
    predicted_group,
    verify_claim,
)
from cycperm.cyclic_code import (
    DEFAULT_ENUM_CAP,
    Layout,
    basis_codewords,
    codeword_index_matrix,
    contains,
    make_code,
)
from cycperm.errors import AmbiguousPattern, FieldMismatch, NoPattern, \
    TooLarge
from cycperm.galois import make_field, parse_field
from cycperm.group_constructors import (
    CrtProduct,
    PerOf,
    Wreath,
    crt_product_generators,
    expr_contains,
    expr_degree,
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
    _divisors,
    _indices,
    _xpow_lanes_f2,
    _xpow_table,
    cyclotomic,
    factor_xn_minus_1,
    format_poly_text,
    one_poly,
    parse_poly_text,
    poly_from_ints,
    poly_mul,
    poly_pow,
    poly_sub,
    substitute_power,
    x_poly,
)
from cycperm.table import select_rows
from wreath_reference import per_block_materialize, per_block_wreath_generators

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F9 = make_field(3, 2)
G7A = poly_from_ints(F2, [1, 1, 0, 1])


def _all_divisors(field, n):
    """Every monic g | x^n - 1, g = 1 and g = x^n - 1 included."""
    facs = factor_xn_minus_1(n, field)
    out = []
    for combo in itertools.product(*(range(m + 1) for _, m in facs)):
        g = one_poly(field)
        for (fac, _), e in zip(facs, combo):
            g = poly_mul(g, poly_pow(fac, e))
        out.append(g)
    return out


def _all_divisor_codes(field, n):
    """C_{n,g} for every monic g | x^n - 1, g = 1 and g = x^n - 1 included."""
    return [make_code(field, n, g) for g in _all_divisors(field, n)]


def _all_proper_divisor_codes(field, n):
    return [c for c in _all_divisor_codes(field, n) if 1 < c.gen.degree < n]


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


def test_exhaustive_non_group_check(monkeypatch):
    # the group keeps reduce_generators' chain, which is complete for the
    # kept generators: a scan that loses first image 1 still counts one
    # first image too few against that group's order
    scan = autgroup._scan_permutations

    def lose_first_image_1(args):
        found = scan(args)
        return found[:0] if args[1] == 1 else found

    code = make_code(F2, 10, cyclotomic(5, F2))
    assert exhaustive_per_group(code).order == 3840
    monkeypatch.setattr(autgroup, "_scan_permutations", lose_first_image_1)
    with pytest.raises(AssertionError, match="non-group"):
        exhaustive_per_group(code)


def test_exhaustive_workers_agree():
    code = make_code(F2, 9, substitute_power(cyclotomic(3, F2), 3))
    g1 = exhaustive_per_group(code)
    g2 = exhaustive_per_group(code, workers=3)
    assert g1.order == g2.order == 1296
    assert groups_equal(g1, g2)


@pytest.mark.parametrize("field, n_max", [(F2, 7), (F3, 7), (F4, 5)])
def test_exhaustive_matches_per_permutation_reference(field, n_max):
    # the scan's group must be exactly the set of sigma in S_n that pass
    # the engine's membership test, each sigma checked on its own
    for n in range(1, n_max + 1):
        codes = _all_divisor_codes(field, n)
        assert any(c.k == n for c in codes) and any(c.k == 0 for c in codes)
        for code in codes:
            engine = _Engine(code)
            passing = [sigma for sigma in itertools.permutations(range(n))
                       if engine.perm_preserves(np.array(sigma))[0]]
            group = exhaustive_per_group(code)
            assert group.order == len(passing), (field, n, code.gen)
            assert group.chain().contains_batch(np.array(passing)).all()


@pytest.mark.parametrize("scan_rows", [1, 1 << 12])
def test_scan_rows_are_the_passing_inverses_in_order(monkeypatch, scan_rows):
    # however the scan splits its blocks, the rows with first image v are
    # the inverses of the passing sigmas in lexicographic order, and the
    # first-row scan gives the first of them
    monkeypatch.setattr(autgroup, "_SCAN_ROWS", scan_rows)
    codes = [make_code(F2, 7, G7A)] + _all_divisor_codes(F3, 6)
    for code in codes:
        n, engine = code.n, _Engine(code)
        taus = [list(tau) for tau in itertools.permutations(range(n))
                if engine.perm_preserves(np.argsort(tau))[0]]
        for v in range(n):
            want = [tau for tau in taus if tau[0] == v]
            got = autgroup._scan_permutations((engine, v, False))
            assert got.tolist() == want, (code.gen, v)
            got = autgroup._scan_permutations((engine, v, True))
            assert got.tolist() == want[:1], (code.gen, v)


def _exact_search(kind, field_text, n, gen_text, workers=1):
    from cycperm.table import parse_gen_expr
    field = parse_field(field_text)
    code = make_code(field, n, parse_gen_expr(gen_text, field))
    if kind == "backtrack":
        return backtrack_per_group(code)
    return exhaustive_per_group(code, workers=workers)


def _exact_search_records(calls):
    out = []
    for call in calls:
        group = _exact_search(*call)
        out.append([str(group.order),
                    [list(map(int, g.images)) for g in group.generators]])
    return out


def test_exact_search_golden():
    # pins order and generator images of the benchmark's direct exact
    # searches (values recorded before the vectorized search kernels)
    records = _exact_search_records([
        ("backtrack", "2", 30, "Q(3)Q(5)", 1),
        ("backtrack", "2", 105, "Q(5)Q(7)", 1),
        ("backtrack", "2^2", 14, "x^3+x+1", 1),
        ("backtrack", "2^2", 21, "x^3+x+1", 1),
        ("exhaustive", "2", 9, "x^6+x^3+1", 1),
        ("exhaustive", "2", 10, "Q(5)", 1),
        ("exhaustive", "2", 9, "x^6+x^3+1", 2),
    ])
    assert [int(order) for order, _ in records] == [
        23592960, 1039694019687845983054132464844800, 21504, 47029248,
        1296, 3840, 1296]
    assert records[4] == records[6]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest[:16] == "7cd539e179db2b82"


def _chain_shape(chain):
    base = chain.base_points()
    return [str(chain.order()), base, [chain.orbit_at(b) for b in base],
            len(chain.all_gens)]


# strong generator counts of the claim chains below, from materialize's
# generators (one base copy per top orbit) and from the one-copy-per-block
# generators the first digest was recorded with
CHAIN_GENS = [39, 39, 46, 46, 30, 30, 75, 75, 58, 58, 145, 2, 5, 30, 36, 36,
              19, 94, 76, 11, 3]
PER_BLOCK_CHAIN_GENS = [39, 39, 46, 46, 34, 34, 83, 83, 69, 69, 167, 2, 5, 30,
                        36, 36, 21, 96, 80, 11, 3]


def test_chain_golden():
    # pins order, base, fundamental orbits and strong generator count of
    # the chains of the benchmark's certify+order claims (table-orders
    # records and under-claim probes) and of its direct exact searches
    # (values recorded before the batch re-sift in _StabChain._complete).
    # Fewer wreath generators change the claim chains' strong generator
    # counts and the order in which orbit points are listed, not their
    # groups, bases or orbit sets: the claims are pinned as materialized by
    # a digest of their own and, built one copy per block, by the first
    rows = select_rows(["T05a", "T05b", "T06a", "T06b", "T07a", "T07b",
                        "T08a", "T08b", "T09a", "T09b", "T11a", "T15", "T16",
                        "T22", "T25", "T26", "T27", "T28", "T29"])
    claims = [row.claim for row in rows] + ["wr(C(6), PSL2_7, rows)",
                                            "wr(C(31), S(2), cols)"]
    shapes, per_block = [], []
    for text in claims:
        expr = parse_group_expr(text)
        n = expr_degree(expr)
        new = _chain_shape(PermGroup(n, materialize(expr)).chain())
        old = _chain_shape(PermGroup(n, per_block_materialize(expr)).chain())
        assert new[:2] == old[:2], text
        assert list(map(sorted, new[2])) == list(map(sorted, old[2])), text
        shapes.append(new)
        per_block.append(old)
    assert [shape[3] for shape in shapes] == CHAIN_GENS
    assert [shape[3] for shape in per_block] == PER_BLOCK_CHAIN_GENS
    digest = hashlib.sha256(json.dumps(shapes).encode()).hexdigest()
    assert digest[:16] == "265bd6394ef34c9d"
    shapes = per_block
    for call in [("backtrack", "2", 30, "Q(3)Q(5)"),
                 ("backtrack", "2", 105, "Q(5)Q(7)"),
                 ("backtrack", "2^2", 14, "x^3+x+1"),
                 ("backtrack", "2^2", 21, "x^3+x+1"),
                 ("exhaustive", "2", 9, "x^6+x^3+1"),
                 ("exhaustive", "2", 10, "Q(5)"),
                 ("exhaustive", "5", 5, "(x-1)^2")]:
        shapes.append(_chain_shape(_exact_search(*call).chain()))
    # the backtrack's chains keep the order, base, orbit sets and strong
    # generator count they had when the backtrack still formed Schreier
    # generators (digest recorded from that build and this one alike); the
    # digest below moved from d86441511435c9a6 only because the n = 105
    # and F_4 n = 21 chains now list their orbit points in another order
    backtrack = shapes[-7:-3]
    assert [shape[3] for shape in backtrack] == [19, 76, 11, 17]
    sets = [shape[:2] + [list(map(sorted, shape[2])), shape[3]]
            for shape in backtrack]
    digest = hashlib.sha256(json.dumps(sets).encode()).hexdigest()
    assert digest[:16] == "ccac39d0fed79693"
    digest = hashlib.sha256(json.dumps(shapes).encode()).hexdigest()
    assert digest[:16] == "f3044b024348a2d2"


@pytest.mark.parametrize("N", [1, 63, 64, 65, 512, 1024])
def test_word_masks_match_the_big_int_form(N):
    # bit for bit the int.from_bytes(np.packbits(...)) masks the backtrack
    # used before the packed form; a set padding bit past N would keep
    # every mask nonempty and switch pruning off unseen
    q, n = 4, 7
    W = np.random.default_rng(N).integers(q, size=(N, n))
    W[0] = 0
    masks = autgroup._word_masks(W, q)
    assert masks.shape == (n, q, -(-N // 64)) and masks.dtype == np.uint64
    for i in range(n):
        for v in range(q):
            want = int.from_bytes(
                np.packbits(W[:, i] == v, bitorder="little").tobytes(),
                "little")
            got = int.from_bytes(masks[i, v].astype("<u8").tobytes(),
                                 "little")
            assert got == want, (i, v)
            assert got >> N == 0  # padding bits are zero
    # every word has some value at each coordinate
    full = np.bitwise_or.reduce(masks[0], axis=0)
    assert int.from_bytes(full.astype("<u8").tobytes(), "little") == \
        (1 << N) - 1


@pytest.mark.parametrize("call", [("2", 30, "Q(3)Q(5)"),
                                  ("2", 105, "Q(5)Q(7)"),
                                  ("2^2", 21, "x^3+x+1"),
                                  ("2", 15, "Q(15)"),
                                  ("2^2", 14, "x^3+x+1")])
def test_backtrack_chain_answers_membership_in_full(call, monkeypatch):
    # the backtrack's chain is complete by the search alone, with no
    # Schreier generator formed; the group keeps that chain, which must
    # answer membership in full, for permutations fixing a long prefix too
    from cycperm import permutation
    from cycperm.table import parse_gen_expr
    field_text, n, gen_text = call
    field = parse_field(field_text)
    code = make_code(field, n, parse_gen_expr(gen_text, field))
    built = []
    init = permutation._StabChain.__init__

    def recording_init(self, degree):
        built.append(self)
        init(self, degree)

    monkeypatch.setattr(permutation._StabChain, "__init__", recording_init)
    group = backtrack_per_group(code)
    assert group.chain() is built[0] and len(built) == 1  # never rebuilt
    monkeypatch.undo()
    fresh = PermGroup(n, group.generators)
    assert group.order == fresh.order
    assert not groups_equal(group, _shift_group(n))  # a proper subgroup
    engine = _Engine(code)
    rng = np.random.default_rng(16)
    gens = [g.array() for g in group.generators]
    tail = np.arange(n)
    tail[[n - 2, n - 1]] = [n - 1, n - 2]  # fixes 0..n-3 pointwise
    perms = [tail]
    for _ in range(80):  # products of the found generators
        acc = np.arange(n)
        for k in rng.integers(len(gens), size=rng.integers(1, 7)):
            acc = acc[gens[k]]
        perms += [acc, acc[tail]]
    for _ in range(40):  # random, and fixing 0..d-1 for a deep d
        perms.append(rng.permutation(n))
        d = int(rng.integers(n // 2, n - 1))
        perms.append(np.concatenate([np.arange(d), d + rng.permutation(n - d)]))
    assert len(perms) >= 200
    member = [group.contains(Permutation(p)) for p in perms]
    assert member == [fresh.contains(Permutation(p)) for p in perms]
    assert member == [engine.perm_preserves(p)[0] for p in perms]
    assert not member[0] and sum(member) >= 80


def _reference_coordinate_structure(code, W):
    """The pair-by-pair bincount form of _coordinate_structure."""
    n = code.n
    q = code.field.order
    wts = np.count_nonzero(W, axis=1).astype(np.int64)
    wspan = n + 1

    def intern(table, key):
        return table.setdefault(key, len(table))

    sig_tab = {}
    colors = []
    for i in range(n):
        counts = np.bincount(wts * q + W[:, i], minlength=wspan * q)
        colors.append(intern(sig_tab, tuple(counts.tolist())))
    pair_tab = {}
    pair = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        base_i = wts * q + W[:, i]
        for j in range(n):
            if i == j:
                pair[i, j] = -1
                continue
            counts = np.bincount(base_i * q + W[:, j], minlength=wspan * q * q)
            pair[i, j] = intern(pair_tab, tuple(counts.tolist()))
    for _ in range(2):
        ref_tab = {}
        new_colors = []
        for i in range(n):
            nbhd = sorted((int(pair[i, j]), int(pair[j, i]), colors[j])
                          for j in range(n) if j != i)
            new_colors.append(intern(ref_tab, (colors[i], tuple(nbhd))))
        colors = new_colors
    return np.array(colors), pair


def test_coordinate_structure_matches_reference():
    from cycperm.table import parse_gen_expr
    codes = [code for field, n_max in ((F2, 15), (F3, 10), (F4, 9))
             for n in range(1, n_max + 1)
             for code in _all_divisor_codes(field, n)]
    # T27, T29, and T15, whose searched code is the one with Gram products
    # of several blocks: 32,768 words in 10 weight classes, 16 blocks
    for n, gen_text in ((30, "Q(3)Q(5)"), (105, "Q(5)Q(7)"),
                        (31, "(x^5+x^2+1)(x^5+x^3+1)(x^5+x^3+x^2+x+1)")):
        code = make_code(F2, n, parse_gen_expr(gen_text, F2))
        if code.k > n - code.k:  # the code backtrack_per_group searches
            code = make_code(F2, n, code.dual_gen)
        codes.append(code)
    codes.append(make_code(F3, 10, poly_from_ints(F3, [1, 1])))  # 3^9 words
    # the float32 Gram blocks are exact while every entry, at most
    # _GRAM_ROWS, fits float32's 24-bit significand
    assert _GRAM_ROWS < 2 ** 24
    for code in codes:
        W = codeword_index_matrix(code)
        pair = _coordinate_structure(code, W)
        ref_colors, ref_pair = _reference_coordinate_structure(code, W)
        assert pair.dtype == np.int64
        assert (ref_colors == ref_colors[0]).all(), code.describe()
        assert np.array_equal(pair, ref_pair), code.describe()
    t15, f3 = (np.bincount(np.count_nonzero(codeword_index_matrix(c), axis=1))
               for c in codes[-2:])
    t15 = t15[t15 > 0]
    assert t15.sum() == 2 ** 15 and len(t15) == 10
    assert (-(-t15 // _GRAM_ROWS)).sum() == 16
    assert f3.max() > _GRAM_ROWS  # one weight's words span two blocks


def test_enumerable_bound():
    # k = n - k = 20 enumerates 2^20 = DEFAULT_ENUM_CAP words; 21 does not
    for half, want in ((20, True), (21, False)):
        code = make_code(F2, 2 * half, poly_from_ints(
            F2, [1] + [0] * (half - 1) + [1]))
        assert code.k == half
        assert (2 ** half <= DEFAULT_ENUM_CAP) is want
        assert enumerable(code) is want


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
    # the backtrack's chain is complete without Schreier generators: its
    # order is that of a full Schreier-Sims rebuild from its generators,
    # and, where the scan is cheap, that of the exhaustive scan
    checked = 0
    for field, n_max in ((F2, 15), (F3, 10), (F4, 9)):
        for n in range(1, n_max + 1):
            for code in _all_divisor_codes(field, n):
                if not enumerable(code):
                    continue
                group = backtrack_per_group(code)
                order = PermGroup(n, group.generators).order
                assert group.order == order, code.describe()
                if n <= 8:
                    assert exhaustive_per_group(code).order == order, \
                        code.describe()
                checked += 1
    assert checked == 355


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
        # both searches switch sides: the scan runs on the higher-rate code
        # (lower-degree generator), the backtrack on the lower-rate one
        assert code.k != dual.k
        group = exhaustive_per_group(code)
        assert groups_equal(group, backtrack_per_group(dual))
        for g in group.generators:
            assert _dense_preserves(code, g.images) == (True, None)
            assert _dense_preserves(dual, g.images) == (True, None)


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


def _leaf_outcome(field, p, g):
    try:
        return format_group_expr(_leaf_expr(field, p, g))
    except NoPattern as exc:
        return f"NoPattern: {exc}"


# One code per outcome of _leaf_expr's p > 12 branch.  AGL1(p) cannot occur
# there: the only defining sets that every unit fixes are {}, {0}, the units
# and Z_p, whose generators are all handled before the branch.
@pytest.mark.parametrize("field, p, gen, want", [
    # 53 = 1 mod 13, so every coset is a singleton
    (make_field(53), 13, "42,13,1", "C(13)"),
    (F2, 31, "1,0,1,1,1,0,1,1,1,1,1", "C31xC5"),
    (F2, 23, "1,1,0,0,0,1,1,1,0,1,0,1",
     "NoPattern: quadratic-residue family: exceptional group out of scope"),
    (F2, 31, "1,1,1,1,0,1",
     "NoPattern: single-coset (projective) family out of scope"),
    (F2, 31, "1,0,0,0,1,1,1,0,0,0,1",
     "NoPattern: no named tag for multiplier order 10 at p=31"),
    (make_field(53), 13, "1,15,1",
     "NoPattern: no named tag for multiplier order 2 at p=13"),
    (F4, 43, "1:0,0:1,1:1,0:1,1:1,0:0,1:0,1:0,1:0,0:0,0:1,1:1,0:1,1:1,1:0",
     "NoPattern: no named tag for multiplier order 7 at p=43"),
    (F5, 31, "1,2,0,2,1,1,1",
     "NoPattern: no named tag for multiplier order 3 at p=31"),
])
def test_leaf_expr_large_prime_outcomes(field, p, gen, want):
    assert _leaf_outcome(field, p, parse_poly_text(gen, field)) == want


def test_factoring_and_leaf_golden():
    # pins the factors of x^n - 1 and _leaf_expr's outcome on every
    # g | x^p - 1 (values recorded before factoring moved off splitting
    # fields; _leaf_expr must not see which root of unity labels the cosets)
    factors = [[field.describe(), n,
                [[format_poly_text(p), m] for p, m in factor_xn_minus_1(n, field)]]
               for field, n_max in ((F2, 60), (F3, 60), (F4, 60),
                                    (F5, 30), (make_field(2, 3), 30), (F9, 30))
               for n in range(1, n_max + 1)]
    digest = hashlib.sha256(json.dumps(factors).encode()).hexdigest()
    assert digest[:16] == "dbf590af3e2e3425"
    leaves = [[field.describe(), p, format_poly_text(g), _leaf_outcome(field, p, g)]
              for field, primes in ((F2, (17, 23, 31)), (F3, (13, 23)),
                                    (F4, (13, 17)))
              for p in primes for g in _all_divisors(field, p)]
    assert len(leaves) == 224
    digest = hashlib.sha256(json.dumps(leaves).encode()).hexdigest()
    assert digest[:16] == "4a33e596f640b29f"


@pytest.mark.parametrize("field, n_max, counts", [
    (F2, 30, (106, 633, 2)), (F3, 20, (33, 524, 3)), (F4, 21, (124, 1579, 1)),
    (F5, 12, (22, 377, 1)), (make_field(7), 9, (21, 122, 1)),
    (F9, 10, (23, 344, 1)),
])
def test_predictions_match_derived_orders(field, n_max, counts):
    # the paper's hp, r^m p^n and pq patterns against derive_per_group on
    # every g | x^n - 1 with 0 < k < n: wherever predicted_group answers,
    # the orders agree.  counts = (matches, no pattern, ambiguous) pins
    # the patterns' coverage
    matches = no_pattern = ambiguous = 0
    for n in range(2, n_max + 1):
        for code in _all_divisor_codes(field, n):
            if not 0 < code.k < n:
                continue
            try:
                expr = predicted_group(code)
            except NoPattern:
                no_pattern += 1
                continue
            except AmbiguousPattern:
                ambiguous += 1
                continue
            assert expr_order(expr) == derive_per_group(code)[1], \
                (n, format_poly_text(code.gen), format_group_expr(expr))
            matches += 1
    assert (matches, no_pattern, ambiguous) == counts


def test_certify_table_n21():
    claim = parse_group_expr("wr(S(3), PSL2_7, rows)")
    rep = verify_claim(make_code(F2, 21, G7A), claim)
    assert rep.evidence == "decomposition-equal"
    assert rep.certified is True
    assert rep.predicted_order == math.factorial(3) ** 7 * 168 == 47029248
    assert rep.computed_order == rep.predicted_order
    assert rep.equal is True


def test_certify_identity_only():
    rep = certify_subgroup(make_code(F2, 7, G7A), [identity_perm(7)])
    assert rep.certified is True


def test_certify_overclaim_fails():
    claim = parse_group_expr("S(7)")
    rep = certify_subgroup(make_code(F2, 7, G7A), materialize(claim),
                           claim=claim)
    assert rep.certified is False
    assert rep.predicted_order == 5040
    # the certificate alone decides no order and no equality
    assert rep.computed_order is None and rep.equal is None
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
    # pins the support-first stream (head and tail generators spawned from
    # the seed) and which trials pass
    code = make_code(F2, 7, G7A)
    trivial = PermGroup(7, [identity_perm(7)])
    rep = falsify_by_sampling(code, trivial, trials=2000, seed=5)
    assert rep.rng_algorithm == "numpy-pcg64/support-first-fisher-yates"
    images = [tuple(c["images"]) for c in rep.counterexamples]
    assert len(images) == 53
    assert images[:2] == [(0, 6, 3, 2, 4, 5, 1), (2, 3, 1, 5, 0, 6, 4)]
    digest = hashlib.sha256(json.dumps(images).encode()).hexdigest()
    assert digest[:16] == "40f884852227288c"


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
    # coefficients as element indices: 2 is y in F_4 = F_2[y]/(y^2+y+1)
    (make_code(F4, 15, poly_from_ints(F4, [2, 2, 1])), [(3, 5), (5, 3)]),
    (make_code(F4, 21, poly_from_ints(F4, [1, 0, 2, 1])), [(3, 7), (7, 3)]),
    (make_code(F9, 10, poly_from_ints(F9, [1, 4, 1])), [(2, 5)]),
    (make_code(F5, 12, poly_from_ints(F5, [4, 2, 1])), [(3, 4)]),
    # g = 1: the full space, and a reduction table with no columns
    (make_code(F2, 7, one_poly(F2)), []),
    (make_code(F4, 9, one_poly(F4)), [(3, 3)]),
])
def test_sparse_preserves_matches_dense(code, blocks):
    n = code.n
    perms = [_transposition(n, 0, 1), _transposition(n, 0, n - 1),
             _transposition(n, 2, n // 2), _transposition(n, n - 2, n - 1),
             perm_from_cycles([[1, 4, n - 3]], n),
             Permutation([(i + 1) % n for i in range(n)])]
    perms += sym_generators(n)
    for la, lh in blocks:
        perms += per_block_wreath_generators(sym_generators(la),
                                             sym_generators(lh))
    rng = np.random.default_rng(2024)
    perms += [Permutation(rng.permutation(n)) for _ in range(6)]
    engine = _Engine(code)
    outcomes = []
    for p in perms:
        want = _dense_preserves(code, p.images)
        assert engine.perm_preserves(p.array()) == want, p
        outcomes.append(want)
    assert (True, None) in outcomes
    if code.gen.degree:
        assert any(not ok and t > 0 for ok, t in outcomes)


def _shift_group(n):
    return PermGroup(n, [Permutation([(i + 1) % n for i in range(n)])])


def _trivial_group(n):
    return PermGroup(n, [identity_perm(n)])


def _reference_sampling(code, claimed, trials, seed):
    """Reference: one trial at a time, the head by a Python Fisher-Yates
    loop over supp g, the tail only for trials whose basis word 0 maps into
    C, then the dense check and membership in the claim."""
    head_rng, tail_rng = (np.random.default_rng(s)
                          for s in np.random.SeedSequence(seed).spawn(2))
    f, n = code.field, code.n
    supp = [i for i, c in enumerate(code.gen.coeffs)
            if c != f.zero] if code.k else []
    rest_at = [i for i in range(n) if i not in supp]
    found = []
    for _ in range(trials):
        points = list(range(n))
        for j, r in enumerate(head_rng.integers(0, n - np.arange(len(supp)))):
            points[j], points[j + r] = points[j + r], points[j]
        head = points[:len(supp)]
        word = [f.zero] * n
        for i, p in zip(supp, head):
            word[p] = code.gen.coeffs[i]
        if code.k and not contains(code, tuple(word)):
            continue
        tail = np.array(sorted(points[len(supp):]))
        tail_rng.shuffle(tail)
        sigma = np.empty(n, dtype=np.int64)
        sigma[supp], sigma[rest_at] = head, tail
        if _dense_preserves(code, sigma)[0] \
                and not claimed.contains(Permutation(sigma)):
            found.append({"images": sigma.tolist(), "basis_index": None})
    return found


SAMPLER_CASES = [
    (make_code(F2, 7, G7A), _shift_group, 60),
    (make_code(F2, 7, poly_from_ints(F2, [1] * 7)), _trivial_group, 60),
    (make_code(F3, 8, poly_from_ints(F3, [2, 0, 1])), _shift_group, 300),
    (make_code(F4, 9, poly_from_ints(F4, [1, 0, 0, 1])), _shift_group, 1500),
    (make_code(F5, 6, poly_from_ints(F5, [1, 1, 1])), _shift_group, 300),
    # g = x + y is not a multiple of its reciprocal: value order matters
    (make_code(F4, 6, poly_from_ints(F4, [2, 1])), _shift_group, 300),
    # k = 0: g = x^n - 1; and g = 1, the full space
    (make_code(F4, 9, poly_sub(poly_pow(x_poly(F4), 9), one_poly(F4))),
     _shift_group, 60),
    (make_code(F5, 6, one_poly(F5)), _shift_group, 60),
]


@pytest.mark.parametrize("code, claim_of, trials", SAMPLER_CASES)
def test_block_sampler_matches_per_trial_loop(monkeypatch, code, claim_of,
                                              trials):
    n = code.n
    claimed = claim_of(n)
    want = _reference_sampling(code, claimed, trials, seed=11)
    assert want  # every case has counterexamples to compare
    # a block holds _SAMPLE_BLOCK // w heads of w = |supp g| images (w = 0
    # when k = 0 counts as 1): blocks of one row (a cap of 1), 7 rows
    # (ragged last block), 12 rows (trials a multiple of it) and all trials
    w = max(1, _Engine(code).g_supp.size if code.k else 0)
    for cap in (1, 7 * w, 12 * w, trials * w):
        monkeypatch.setattr(autgroup, "_SAMPLE_BLOCK", cap)
        rep = falsify_by_sampling(code, claimed, trials, seed=11)
        assert rep.counterexamples == want, cap


# chi-square quantile for 23 degrees of freedom, upper tail 1e-6
_CHI2_23_P1E6 = 70.55


@pytest.mark.parametrize("gen", [
    [1, 1, 1, 1],     # repetition code: sigma is all head (|supp g| = 4)
    [1],              # g = 1: one head image, three tail images
    [1, 0, 0, 0, 1],  # k = 0: no filter, sigma is all tail
])
def test_sampled_sigma_is_uniform(gen):
    # Per(C) = S_4 and the claim is trivial, so every trial but the
    # identity comes back: the 24 counts of 24,000 trials, the identity's
    # implied by the total, must pass a chi-square test at p = 1e-6
    code = make_code(F2, 4, poly_from_ints(F2, gen))
    trials = 24_000
    rep = falsify_by_sampling(code, _trivial_group(4), trials, seed=2026)
    counts = collections.Counter(tuple(c["images"])
                                 for c in rep.counterexamples)
    assert (0, 1, 2, 3) not in counts and len(counts) <= 23
    observed = [counts[p] for p in itertools.permutations(range(4))
                if p != (0, 1, 2, 3)]
    observed.append(trials - sum(observed))
    expected = trials / 24
    stat = sum((o - expected) ** 2 / expected for o in observed)
    assert stat < _CHI2_23_P1E6, (stat, observed)


def test_engine_shares_the_field_table_cap():
    f = make_field(2, 13)  # q = 8192 > 4096
    with pytest.raises(FieldMismatch):
        _Engine(make_code(f, 3, poly_sub(x_poly(f), one_poly(f))))


def _no_xpow_table(*args):
    raise AssertionError("_xpow_table called over F_2")


def test_f2_engine_keeps_only_the_packed_table(monkeypatch):
    # T18 (n = 3844, deg g = 930): an int64 R would be 28.6 MB alone; the
    # lanes come from integer rows, never from _xpow_table
    monkeypatch.setattr(autgroup, "_xpow_table", _no_xpow_table)
    row = select_rows(["T18"])[0]
    code = make_code(F2, row.n, row.build_gen(F2))
    tracemalloc.start()
    try:
        engine = _Engine(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    assert not hasattr(engine, "R")
    m = code.gen.degree
    low = _indices(code.gen)[:m]
    ref = np.zeros((code.n, m), dtype=np.int64)  # x^i mod g, row by row
    ref[0, 0] = 1
    for i in range(1, code.n):
        ref[i, 1:] = ref[i - 1, :-1]
        if ref[i - 1, -1]:
            ref[i] ^= low
    packed = np.packbits(ref, axis=1, bitorder="little")
    want = np.zeros((code.n, 8 * -(-m // 64)), dtype=np.uint8)  # whole lanes
    want[:, :packed.shape[1]] = packed
    assert engine.packed.dtype == np.uint64
    assert np.array_equal(engine.packed, want.view("<u8"))
    # _bad_rows checks lane 0 before the rest and reports the rows an
    # all-lanes XOR does: on random supports and shifts of g (in C) of
    # T17's and T18's codes, and on {64, 65}, whose x^64 and x^65 agree in
    # lane 0 (both zero) but not in lane 1
    t17 = select_rows(["T17"])[0]
    rng = np.random.default_rng(17)
    for eng in (engine, _Engine(make_code(F2, t17.n, t17.build_gen(F2)))):
        w = eng.g_supp.size
        idx = np.concatenate([
            np.stack([rng.permutation(eng.n)[:w] for _ in range(300)]),
            eng.g_supp[None, :] + rng.integers(0, eng.k, size=(40, 1))])
        idx = idx[rng.permutation(len(idx))]
        full = np.bitwise_xor.reduce(eng.packed[idx], axis=1).any(axis=1)
        assert 0 < full.sum() < len(idx)
        assert np.array_equal(eng._bad_rows(idx), np.flatnonzero(full))
        assert eng.packed[64, 0] == eng.packed[65, 0]
        assert (eng.packed[64] != eng.packed[65]).any()
        pairs = np.array([[64, 65], [64, 64], [0, 65], [65, 64]])
        assert eng._bad_rows(pairs).tolist() == [0, 2, 3]


def test_f2_rows_rule_reads_the_packed_rows(monkeypatch):
    # over the differential grid's binary codes (n <= 30), the packed rows
    # x^e mod g give the period test of _derived_expr's rows rule the
    # answer the index rows of _xpow_table give, for g and the dual's
    # generator alike, and the rule never builds the index rows
    codes = [code for n in range(2, 31) for code in _all_divisor_codes(F2, n)
             if 0 < code.k < n]
    assert len(codes) == 741
    for code in codes:
        for g in (code.gen, code.dual_gen):
            gidx = _indices(g)
            lanes = _xpow_lanes_f2(gidx, code.n + 1)
            rows = _xpow_table(F2, gidx, code.n + 1)
            assert [(lanes[e] == lanes[0]).all() for e in _divisors(code.n)] \
                == [(rows[e] == rows[0]).all() for e in _divisors(code.n)]
    monkeypatch.setattr(autgroup, "_xpow_table", _no_xpow_table)
    for code in codes:
        autgroup._derived_expr(code)


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


def test_sampling_power_t17():
    # one uniform trial lands in the claim with probability |claim| / n!
    row = select_rows(["T17"])[0]
    code = make_code(F2, row.n, row.build_gen(F2))
    claim = parse_group_expr(row.claim)
    rep = verify_claim(code, claim, trials=10)
    assert rep.trials == 10 and rep.evidence == "subgroup+sampling"
    assert abs(rep.sampling_log10_power - (-2349.12)) < 0.01
    exact = math.log10(expr_order(claim)) - math.log10(math.factorial(961))
    assert abs(rep.sampling_log10_power - exact) < 1e-6
    back = VerificationReport.from_json_dict(
        json.loads(json.dumps(rep.to_json_dict())))
    assert back == rep
    # no trials, no power
    assert verify_claim(code, claim).sampling_log10_power is None


L7A, L7B = "per(2;7;1,1,0,1)", "per(2;7;1,0,1,1)"
L31 = "per(2;31;1,1,0,1,0,0,0,1,0,0,0,0,0,0,0,1)"

# derive_per_group on every record; the "b" rows read the same with L7B
# for L7A.  T25 and T26 are n = 217 leaves that cannot be enumerated,
# decided by the pair counts of their weight-4 words.
DERIVED_GOLDEN = {
    "T01": L7A, "T02": f"wr(S(2), {L7A}, rows)",
    "T03": f"wr({L7A}, S(2), cols)", "T04": f"wr(S(3), {L7A}, rows)",
    "T05": f"wr(S(6), {L7A}, rows)", "T06": f"wr(S(7), {L7A}, rows)",
    "T07": f"wr({L7A}, S(7), cols)",
    "T08": f"wr(S(2), wr({L7A}, S(7), cols), rows)",
    "T09": f"wr({L7A}, S(14), cols)",
    "T10": f"wr(S(7), wr({L7A}, S(4), cols), rows)",
    "T11": f"wr(S(2), wr({L7A}, S(14), cols), rows)",
    "T12": f"wr({L7A}, S(28), cols)",
    "T13": f"wr(S(6), wr({L7A}, S(7), cols), rows)",
    "T14": f"wr(S(3), wr({L7A}, S(14), cols), rows)",
    "T15": L31, "T16": f"wr({L31}, S(2), cols)",
    "T17": f"wr({L31}, S(31), cols)",
    "T18": f"wr(S(2), wr({L31}, S(62), cols), rows)",
    "T19": "S(3)", "T20": "S(5)", "T21": "S(7)", "T22": "S(31)",
    "T23": "per(2;15;1,1,1,0,0,1,1,1)", "T24": "per(2;15;1,1,0,1,1,1,0,1,1)",
    "T25": "x(7,31)", "T26": "x(7,31)",
    "T27": "wr(S(2), per(2;15;1,0,1,1,1,0,1), rows)",
    "T28": "wr(S(7), per(2;15;1,0,1,1,1,0,1), rows)",
    "T29": "wr(S(3), per(2;35;1,0,1,0,1,1,1,0,1,0,1), rows)",
}


def _table_code(row):
    return make_code(F2, row.n, row.build_gen(F2))


def test_derived_expressions_golden():
    got = {}
    for row in select_rows(None):
        expr, order = derive_per_group(_table_code(row))
        assert order == row.theoretical_order() == expr_order(expr), row.id
        got[row.id] = format_group_expr(expr)
    want = {}
    for num, text in DERIVED_GOLDEN.items():
        if num < "T15":  # the either-generator rows
            want[num + "a"], want[num + "b"] = text, text.replace(L7A, L7B)
        else:
            want[num] = text
    assert got == want


@pytest.mark.parametrize("field, n_max", [(F2, 14), (F3, 9), (F4, 8),
                                          (F5, 7)])
def test_derived_order_matches_exact_search(field, n_max):
    # every g | x^n - 1 with 0 < k < n: the derived |Per(C)| equals the
    # order an exact search finds: exhaustive up to 8 points and for the
    # leaves of 9 and 10 points (which derive_per_group backtracks),
    # backtracking elsewhere, so every leaf up to 10 points is searched
    # both ways
    decomposed = 0
    for n in range(2, n_max + 1):
        for code in _all_divisor_codes(field, n):
            if not 0 < code.k < n:
                continue
            expr, order = derive_per_group(code)
            leaf = isinstance(expr, PerOf)
            exact = exhaustive_per_group(code) if n <= 8 or leaf and n <= 10 \
                else backtrack_per_group(code)
            assert order == exact.order, (n, format_poly_text(code.gen))
            decomposed += not leaf
    assert decomposed > 0


def test_crt_rule_matches_backtracking():
    # the weight-4 pair-count rule, called on both sides of every binary
    # g | x^n - 1 with 0 < k < n whether or not it is a leaf: wherever it
    # answers x(p, q), backtracking finds exactly that group
    decided = []
    for n, p, q in ((15, 3, 5), (21, 3, 7), (35, 5, 7)):
        crt = PermGroup(n, crt_product_generators(p, q))
        for code in _all_divisor_codes(F2, n):
            if not 0 < code.k < n:
                continue
            got = {autgroup._crt_expr(n, g) for g in (code.gen, code.dual_gen)}
            if got == {None}:
                continue
            assert got <= {None, CrtProduct(p, q)}
            exact = backtrack_per_group(code)
            assert exact.order == math.factorial(p) * math.factorial(q)
            assert groups_equal(exact, crt), format_poly_text(code.gen)
            decided.append(format_poly_text(code.gen))
    t23, t24 = (format_poly_text(_table_code(row).gen)
                for row in select_rows(["T23", "T24"]))
    assert t23 in decided and t24 in decided and len(decided) == 12


def test_expr_contains_matches_chain_membership():
    # block membership against _StabChain.contains on random members
    # (generator words), near members (a word and one transposition) and
    # uniform permutations of the table's claims of degree <= 217
    rng = np.random.default_rng(2026)
    claims = sorted({row.claim for row in select_rows(None)
                     if row.n <= 105 or row.n == 217})
    checked = members = 0
    for text in claims:
        expr = parse_group_expr(text)
        n = expr_degree(expr)
        gens = np.stack([g.array() for g in materialize(expr)])
        chain = PermGroup(n, materialize(expr)).chain()
        rows = np.tile(np.arange(n), (450, 1))
        for _ in range(24):
            pick = gens[rng.integers(len(gens), size=len(rows))]
            rows = np.take_along_axis(rows, pick, axis=1)
        for r in rows[150:300]:
            i, j = rng.choice(n, 2, replace=False)
            r[[i, j]] = r[[j, i]]
        rows[300:] = rng.permuted(rows[300:], axis=1)
        want = np.array([chain.contains(r) for r in rows])
        assert (expr_contains(expr, rows) == want).all(), text
        checked += len(rows)
        members += int(want.sum())
    assert checked >= 10_000 and members >= 4000 and checked - members >= 4000
