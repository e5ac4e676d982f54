import itertools
import random

import pytest

import numpy as np

from cycperm.cyclic_code import (
    Layout,
    basis_codewords,
    codeword_index_matrix,
    contains,
    enumerate_codewords,
    flatten,
    intersect,
    make_code,
    matrix_rep,
    min_distance,
)
from cycperm.errors import (
    LengthMismatch,
    NotADivisor,
    NotADivisorOfLength,
    TooLarge,
    ZeroCode,
)
from cycperm.galois import field_tables, make_field
from cycperm.permutation import Permutation, apply_perm
from cycperm.polyring import (
    cyclotomic,
    factor_xn_minus_1,
    one_poly,
    poly_from_ints,
    poly_mul,
    poly_sub,
    x_poly,
)

F2 = make_field(2)
F3 = make_field(3)


def _w(bits):
    return tuple((b,) for b in bits)


def test_make_code_dimensions():
    code = make_code(F2, 7, poly_from_ints(F2, [1, 1, 0, 1]))
    assert code.k == 4
    q15 = make_code(F2, 15, cyclotomic(15, F2))
    assert q15.k == 7
    with pytest.raises(NotADivisor):
        make_code(F2, 7, poly_from_ints(F2, [1, 0, 1]))


def test_check_and_dual_polys():
    code = make_code(F2, 7, poly_from_ints(F2, [1, 1, 0, 1]))
    assert poly_mul(code.gen, code.check).coeffs \
        == poly_sub(poly_mul(x_poly(F2), one_poly(F2)), one_poly(F2)).coeffs \
        or True  # product identity checked directly below
    from cycperm.polyring import xn_minus_1
    assert poly_mul(code.gen, code.check) == xn_minus_1(F2, 7)


def test_contains_examples():
    code = make_code(F2, 7, poly_from_ints(F2, [1, 1, 0, 1]))
    assert contains(code, _w([1, 1, 0, 1, 0, 0, 0]))
    assert contains(code, _w([0, 1, 1, 0, 1, 0, 0]))   # cyclic shift
    assert not contains(code, _w([1, 1, 0, 0, 0, 0, 0]))
    with pytest.raises(LengthMismatch):
        contains(code, _w([1, 0]))


def test_enumerate_repetition():
    code = make_code(F2, 7, cyclotomic(7, F2))
    words = set(enumerate_codewords(code))
    assert words == {_w([0] * 7), _w([1] * 7)}


def test_enumerate_counts_and_membership_agreement():
    code = make_code(F2, 6, poly_from_ints(F2, [1, 1, 1]))
    words = list(enumerate_codewords(code))
    assert len(words) == 16
    assert len(set(words)) == 16
    # full agreement with the remainder-based membership test
    for cand in itertools.product((0, 1), repeat=6):
        assert contains(code, _w(cand)) == (_w(cand) in set(words))


def test_enumerate_lexicographic_message_order():
    # message (m_0..m_{k-1}) maps to (sum m_i x^i) * g; first symbol most
    # significant, so word #1 is x^{k-1} g
    code = make_code(F2, 6, poly_from_ints(F2, [1, 1, 1]))
    words = list(enumerate_codewords(code))
    assert words[0] == _w([0] * 6)
    assert words[1] == _w([0, 0, 0, 1, 1, 1])      # x^3 (1+x+x^2)
    assert words[2 ** 3] == _w([1, 1, 1, 0, 0, 0])  # message x^0


def _reference_codeword_index_matrix(code):
    """Every message at once: column i of the messages times basis word i."""
    q = code.field.order
    add_t, mul_t, _ = field_tables(code.field)
    basis = np.array(basis_codewords(code), dtype=np.int64)
    rows = np.zeros((q ** code.k, code.n), dtype=np.int64)
    idx = np.arange(q ** code.k)
    for i in range(code.k):
        m_col = (idx // (q ** (code.k - 1 - i))) % q
        rows = add_t[rows, mul_t[m_col[:, None], basis[i][None, :]]]
    return rows


@pytest.mark.parametrize("r, alpha, n", [(2, 1, 9), (2, 1, 15), (3, 1, 8),
                                         (2, 2, 7), (5, 1, 6), (3, 2, 4)])
def test_codeword_index_matrix_matches_reference(r, alpha, n):
    field = make_field(r, alpha)
    facs = factor_xn_minus_1(n, field)
    for combo in itertools.product(*(range(m + 1) for _, m in facs)):
        g = one_poly(field)
        for (fac, _), e in zip(facs, combo):
            for _ in range(e):
                g = poly_mul(g, fac)
        code = make_code(field, n, g)
        if field.order ** code.k > 2 ** 14:
            continue
        got = codeword_index_matrix(code)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference_codeword_index_matrix(code))


def test_enumerate_f3_sum_zero():
    code = make_code(F3, 4, poly_from_ints(F3, [2, 1]))  # x - 1
    words = list(enumerate_codewords(code))
    assert len(words) == 27
    for w in words:
        assert sum(c[0] for c in w) % 3 == 0


def test_enumeration_cap():
    code = make_code(F2, 30, poly_from_ints(F2, [1, 1]))
    with pytest.raises(TooLarge):
        list(enumerate_codewords(code, cap=2 ** 10))


def test_min_distance_brute_oracle():
    # oracle: enumerate messages with plain python polynomial multiplication
    g = [1, 1, 0, 1]
    best = 8
    for msg in itertools.product((0, 1), repeat=4):
        if not any(msg):
            continue
        word = [0] * 7
        for i, m in enumerate(msg):
            if m:
                for j, c in enumerate(g):
                    word[i + j] ^= c
        best = min(best, sum(word))
    assert best == 3
    code = make_code(F2, 7, poly_from_ints(F2, [1, 1, 0, 1]))
    assert min_distance(code) == 3
    assert min_distance(make_code(F2, 7, cyclotomic(7, F2))) == 7
    assert min_distance(make_code(F2, 6, poly_from_ints(F2, [1, 1, 1]))) == 2
    with pytest.raises(ZeroCode):
        from cycperm.polyring import xn_minus_1
        min_distance(make_code(F2, 4, xn_minus_1(F2, 4)))


def test_matrix_rep_row_blocks():
    word = tuple(chr(ord("a") + i) for i in range(6))
    m = matrix_rep(word, Layout.ROW_BLOCKS, 3)
    assert m.rows == 2 and m.cols == 3
    assert m.grid == (("a", "b", "c"), ("d", "e", "f"))
    assert flatten(m) == word


def test_matrix_rep_col_blocks():
    word = tuple(chr(ord("a") + i) for i in range(6))
    m = matrix_rep(word, Layout.COL_BLOCKS, 2)
    assert m.rows == 2 and m.cols == 3
    assert m.grid == (("a", "c", "e"), ("b", "d", "f"))
    assert flatten(m) == word


def test_matrix_rep_block_must_divide():
    with pytest.raises(NotADivisorOfLength):
        matrix_rep(tuple(range(6)), Layout.ROW_BLOCKS, 4)


def test_flatten_round_trip_random():
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.choice([4, 6, 8, 12])
        word = tuple(rng.randrange(100) for _ in range(n))
        layout = rng.choice([Layout.ROW_BLOCKS, Layout.COL_BLOCKS])
        block = rng.choice([b for b in range(1, n + 1) if n % b == 0])
        assert flatten(matrix_rep(word, layout, block)) == word


def test_intersect_pq_identity():
    xm1 = poly_sub(x_poly(F2), one_poly(F2))
    parts = [make_code(F2, 15, xm1),
             make_code(F2, 15, cyclotomic(3, F2)),
             make_code(F2, 15, cyclotomic(5, F2))]
    meet = intersect(parts)
    expect = poly_mul(poly_mul(xm1, cyclotomic(3, F2)), cyclotomic(5, F2))
    assert meet.gen == expect
    # intersection equals the code generated by (x-1) Q_3 Q_5: same word set
    lhs = set(enumerate_codewords(meet))
    rhs = set.intersection(*(set(enumerate_codewords(c)) for c in parts))
    assert lhs == rhs


def test_intersect_trivial_and_coprime():
    c = make_code(F2, 7, poly_from_ints(F2, [1, 1, 0, 1]))
    assert intersect([c]).gen == c.gen
    c2 = make_code(F2, 7, poly_from_ints(F2, [1, 1]))
    both = intersect([c2, c])
    assert both.gen == poly_mul(c2.gen, c.gen)


def test_shift_invariance():
    rng = random.Random(17)
    for field, n, gen in [(F2, 7, poly_from_ints(F2, [1, 1, 0, 1])),
                          (F3, 8, poly_from_ints(F3, [2, 1])),
                          (F2, 15, cyclotomic(15, F2))]:
        code = make_code(field, n, gen)
        words = list(enumerate_codewords(code))
        shift = Permutation([(i + 1) % n for i in range(n)])
        for _ in range(25):
            w = words[rng.randrange(len(words))]
            assert contains(code, apply_perm(w, shift))


def test_multiplier_invariance():
    for field, n, gen in [(F2, 7, poly_from_ints(F2, [1, 1, 0, 1])),
                          (F2, 15, cyclotomic(15, F2)),
                          (F3, 4, poly_from_ints(F3, [2, 1]))]:
        q = field.order
        assert n % field.r != 0
        mult = Permutation([(q * i) % n for i in range(n)])
        code = make_code(field, n, gen)
        for w in itertools.islice(enumerate_codewords(code), 64):
            assert contains(code, apply_perm(w, mult))


def test_dual_orthogonality_and_dimension():
    for field, n, gen in [(F2, 7, poly_from_ints(F2, [1, 1, 0, 1])),
                          (F3, 8, poly_from_ints(F3, [1, 0, 1]))]:
        code = make_code(field, n, gen)
        dual = make_code(field, n, code.dual_gen)
        assert code.k + dual.k == n
        for w in itertools.islice(enumerate_codewords(code), 32):
            for d in itertools.islice(enumerate_codewords(dual), 32):
                acc = field.zero
                for a, b in zip(w, d):
                    acc = field.add(acc, field.mul(a, b))
                assert acc == field.zero
