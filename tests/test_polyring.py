import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
import sympy

from cycperm.cyclic_code import make_code
from cycperm.errors import (
    CharacteristicDividesN,
    DivisionByZero,
    FieldMismatch,
    NotADivisor,
)
from cycperm.galois import field_tables, make_field
import cycperm.polyring as polyring
from cycperm.polyring import (
    _Ext,
    _cyclotomic_cosets_of_units,
    _cyclotomic_int,
    _cyclotomic_factors,
    _indices,
    _labelled_factors,
    _poly_of_indices,
    _xpow_lanes_f2,
    _xpow_table,
    cyclotomic,
    dual_generator,
    factor_xn_minus_1,
    format_poly_text,
    make_poly,
    one_poly,
    parse_poly_text,
    poly_add,
    poly_divides,
    poly_divmod,
    poly_from_ints,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_sub,
    substitute_power,
    x_poly,
    xn_minus_1,
    zero_poly,
)

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


def _sympy_poly(p):
    """Bridge to sympy over GF(r) for prime-field oracles."""
    x = sympy.symbols("x")
    coeffs = [int(c[0]) for c in reversed(p.coeffs)] or [0]
    return sympy.Poly(coeffs, x, modulus=p.field.r)


# -- schoolbook reference on FieldSpec scalar ops (coefficient lists) ---------

def _strip(f, coeffs):
    while coeffs and coeffs[-1] == f.zero:
        coeffs.pop()
    return coeffs


def _school_mul(f, a, b):
    out = [f.zero] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return _strip(f, out)


def _school_divmod(f, a, b):
    rem, quot = list(a), [f.zero] * max(len(a) - len(b) + 1, 0)
    lead_inv = f.inv(b[-1])
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        c = quot[shift] = f.mul(rem[-1], lead_inv)
        for i, bi in enumerate(b):
            rem[shift + i] = f.sub(rem[shift + i], f.mul(c, bi))
        _strip(f, rem)
    return _strip(f, quot), rem


def _school_gcd(f, a, b):
    while b:
        a, b = b, _school_divmod(f, a, b)[1]
    lead_inv = f.inv(a[-1])
    return [f.mul(c, lead_inv) for c in a]


KERNEL_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (2, 4), (3, 2), (5, 2)]


@pytest.mark.parametrize("r, alpha", KERNEL_FIELDS)
def test_index_kernels_match_schoolbook(r, alpha):
    f = make_field(r, alpha)
    els = list(f.elements())
    rng = random.Random(r * 100 + alpha)

    def rand(deg, monic=False):
        coeffs = [rng.choice(els) for _ in range(deg)]
        return coeffs + [f.one if monic else rng.choice(els[1:])]

    pairs = [(rand(rng.randrange(41)), rand(rng.randrange(41)))
             for _ in range(30)]
    pairs += [([], rand(5)), (rand(5), []), ([], []),  # zero operands
              (rand(12), rand(0)),                     # constant divisor
              (rand(3), rand(9)),                      # deg a < deg b
              (rand(20), [f.zero, f.zero, els[-1]]),   # non-monic unless F_2
              (rand(7, monic=True), rand(7, monic=True))]
    # long Euclid runs, and the gcds the elimination loop can end on
    pairs += [(rand(rng.randrange(61)), rand(rng.randrange(61)))
              for _ in range(10)]
    a, c = rand(23), rand(37)
    pairs += [(a, _school_mul(f, a, c)),          # a | b
              (a, list(a)),                       # a = b
              (a, [f.one] + a),                   # coprime: b = a x + 1
              (rand(60), rand(0))]                # constant divisor
    for a, b in pairs:
        pa, pb = make_poly(f, a), make_poly(f, b)
        span = range(max(len(a), len(b)))
        assert list(poly_mul(pa, pb).coeffs) == _school_mul(f, a, b)
        assert list(poly_add(pa, pb).coeffs) == _strip(
            f, [f.add(pa.coeff(i), pb.coeff(i)) for i in span])
        assert list(poly_sub(pa, pb).coeffs) == _strip(
            f, [f.sub(pa.coeff(i), pb.coeff(i)) for i in span])
        c = rng.choice(els)
        assert list(poly_scale(pa, c).coeffs) == _strip(
            f, [f.mul(x, c) for x in a])
        if b:
            quot, rem = poly_divmod(pa, pb)
            assert (list(quot.coeffs), list(rem.coeffs)) == _school_divmod(f, a, b)
        if a or b:  # gcd with a zero argument included
            assert list(poly_gcd(pa, pb).coeffs) == _school_gcd(f, a, b)
            assert list(poly_gcd(pb, pa).coeffs) == _school_gcd(f, b, a)


@pytest.mark.parametrize("r, alpha", KERNEL_FIELDS)
def test_ext_matches_poly_mod(r, alpha):
    f = make_field(r, alpha)
    rng = np.random.default_rng(r * 100 + alpha)
    for d in range(1, 13):
        modulus = np.append(rng.integers(0, f.order, size=d), 1)
        ring, m = _Ext(f, modulus), _poly_of_indices(f, modulus)
        for _ in range(3):
            a, b = rng.integers(0, f.order, size=(2, d))
            pa, pb = _poly_of_indices(f, a), _poly_of_indices(f, b)
            got = _poly_of_indices(f, ring.mul(a, b))
            assert got == poly_mod(poly_mul(pa, pb), m), (d, a, b)
            e = int(rng.integers(0, 40))
            got = _poly_of_indices(f, ring.pow(a, e))
            assert got == poly_mod(poly_pow(pa, e), m), (d, a, e)
            if r == 2:  # the characteristic-2 squaring kernel
                for x in (a, b, np.zeros(d, dtype=np.int64)):
                    got = _poly_of_indices(f, ring.square(x))
                    px = _poly_of_indices(f, x)
                    assert got == _poly_of_indices(f, ring.mul(x, x)), (d, x)
                    assert got == poly_mod(poly_mul(px, px), m), (d, x)
        assert _indices(_poly_of_indices(f, modulus)).tolist() == modulus.tolist()


def _xpow_reference(f, modulus, count):
    """x^i mod M, i < count, by the int64 recurrence x^i = x * x^(i-1) over
    the field tables, one coefficient at a time."""
    add, mul, neg = field_tables(f)
    m = len(modulus) - 1
    rows = np.zeros((count, m), dtype=np.int64)
    row = []
    for i in range(count):
        if i < m:
            row = [int(j == i) for j in range(m)]
        elif m:
            top, row = row[-1], [0] + row[:-1]
            row = [int(add[row[j], mul[top, neg[modulus[j]]]])
                   for j in range(m)]
        rows[i] = row
    return rows


@pytest.mark.parametrize("r, alpha", [(2, 1), (3, 1), (2, 2), (5, 1),
                                      (257, 1)])
def test_xpow_table_matches_the_reference_in_the_narrow_dtype(r, alpha):
    f = make_field(r, alpha)
    rng = np.random.default_rng(r * 10 + alpha)
    for d, count in ((0, 5), (1, 9), (3, 2), (5, 40), (8, 3), (8, 0)):
        modulus = np.append(rng.integers(0, f.order, size=d), 1)
        got = _xpow_table(f, modulus, count)
        assert got.dtype == np.min_scalar_type(f.order - 1), (d, count)
        assert got.shape == (count, d)
        assert np.array_equal(got, _xpow_reference(f, modulus, count)), d
    want = np.uint16 if f.order > 256 else np.uint8
    assert _xpow_table(f, np.array([1]), 1).dtype == want
    if (r, alpha) == (3, 1):  # off F_2 the engine keeps these rows as R
        from cycperm.autgroup import _Engine
        for n, g in ((8, poly_from_ints(f, [1, 0, 1])),
                     (13, cyclotomic(13, f))):
            R = _Engine(make_code(f, n, g)).R
            assert R.dtype == np.int64
            assert np.array_equal(R, _xpow_reference(f, _indices(g), n)), n


def test_f2_lanes_match_the_packed_reference():
    # bit b of lane b >> 6 holds x^b, in whole lanes and at least one:
    # M = 1 gives zero rows, not the bit of x^0
    f = make_field(2)
    rng = np.random.default_rng(64)
    for m in (0, 1, 63, 64, 65, 128):
        modulus = np.append(rng.integers(0, 2, size=m), 1)
        lanes = max(1, -(-m // 64))
        for count in (0, 1, 2 * m + 3):
            got = _xpow_lanes_f2(modulus, count)
            bits = np.packbits(_xpow_reference(f, modulus, count), axis=1,
                               bitorder="little")
            want = np.zeros((count, 8 * lanes), dtype=np.uint8)
            want[:, :bits.shape[1]] = bits
            assert got.dtype == np.uint64 and got.shape == (count, lanes)
            assert np.array_equal(got, want.view("<u8")), (m, count)


@pytest.mark.parametrize("r, alpha", [(2, 1), (3, 1), (2, 2)])
def test_poly_pow_matches_repeated_mul(r, alpha):
    f = make_field(r, alpha)
    rng = np.random.default_rng(r + alpha)
    bases = [zero_poly(f), one_poly(f), x_poly(f),
             _poly_of_indices(f, np.array([f.order - 1]))]  # a constant
    bases += [_poly_of_indices(f, np.append(rng.integers(0, f.order, d), 1))
              for d in (1, 3, 6)]
    for a in bases:
        want = one_poly(f)
        for e in range(156):
            if e < 10 or e == 155:
                assert poly_pow(a, e) == want, (a, e)
            want = poly_mul(want, a)
    assert poly_pow(zero_poly(f), 0) == one_poly(f)
    assert poly_pow(zero_poly(f), 3).is_zero()


def test_poly_arithmetic_shares_the_field_table_cap():
    f = make_field(2, 13)  # q = 8192 > 4096
    with pytest.raises(FieldMismatch):
        poly_mul(x_poly(f), x_poly(f))


def test_divmod_example_multiply_back():
    g = poly_from_ints(F2, [1, 1, 0, 1])
    q, r = poly_divmod(xn_minus_1(F2, 7), g)
    assert r.is_zero()
    assert format_poly_text(q) == "1,1,1,0,1"  # x^4+x^2+x+1
    assert poly_add(poly_mul(q, g), r) == xn_minus_1(F2, 7)


def test_divmod_small_degree():
    a = poly_from_ints(F2, [1, 1])           # x+1
    b = poly_from_ints(F2, [1, 0, 1])        # x^2+1
    q, r = poly_divmod(a, b)
    assert q.is_zero() and r == a


def test_divmod_difference_of_squares():
    a = poly_from_ints(F5, [4, 0, 1])        # x^2-1
    b = poly_from_ints(F5, [4, 1])           # x-1
    q, r = poly_divmod(a, b)
    assert r.is_zero()
    assert q == poly_from_ints(F5, [1, 1])


def test_divmod_random_multiply_back():
    rng = random.Random(77)
    for field in (F2, F3, make_field(2, 2)):
        for _ in range(60):
            da, db = rng.randrange(0, 9), rng.randrange(1, 5)
            a = make_poly(field, [field.element_of_index(rng.randrange(field.order))
                                  for _ in range(da + 1)])
            b = make_poly(field, [field.element_of_index(rng.randrange(field.order))
                                  for _ in range(db)]
                          + [field.one])
            q, r = poly_divmod(a, b)
            assert poly_add(poly_mul(q, b), r) == a
            assert r.degree < b.degree


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        poly_divmod(x_poly(F2), make_poly(F2, []))


def test_gcd_examples():
    assert poly_gcd(xn_minus_1(F2, 7), xn_minus_1(F2, 14)) == xn_minus_1(F2, 7)
    assert poly_gcd(xn_minus_1(F2, 3), xn_minus_1(F2, 5)) \
        == poly_from_ints(F2, [1, 1])
    g = poly_from_ints(F2, [1, 1, 0, 1])
    assert poly_gcd(g, xn_minus_1(F2, 7)) == g  # divisor per factorization


def test_gcd_is_monic_over_f5():
    a = poly_from_ints(F5, [2, 4])    # 2(x+... not monic
    b = poly_from_ints(F5, [1, 2])
    g = poly_gcd(poly_mul(a, b), b)
    assert g.is_monic()


def test_cyclotomic_prime():
    assert format_poly_text(cyclotomic(7, F2)) == "1,1,1,1,1,1,1"


def test_cyclotomic_15_against_sympy():
    got = cyclotomic(15, F2)
    x = sympy.symbols("x")
    expect = sympy.Poly(sympy.cyclotomic_poly(15, x), x, modulus=2)
    assert _sympy_poly(got) == expect
    assert format_poly_text(got) == "1,1,0,1,1,1,0,1,1"


def test_cyclotomic_char_divides():
    with pytest.raises(CharacteristicDividesN):
        cyclotomic(6, F3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 20, 21, 36, 105])
def test_cyclotomic_against_sympy(n):
    for field in (F2, F3, F5):
        if n % field.r == 0:
            continue
        x = sympy.symbols("x")
        expect = sympy.Poly(sympy.cyclotomic_poly(n, x), x, modulus=field.r)
        assert _sympy_poly(cyclotomic(n, field)) == expect


def test_cyclotomic_int_against_sympy():
    # the Mobius product over the divisors, with no division by a Q_d;
    # Q_105 has a coefficient -2 and Q_385 one of -3
    x = sympy.symbols("x")
    for n in list(range(1, 301)) + [385, 728, 961, 1155, 2047]:
        expect = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert _cyclotomic_int(n) == tuple(int(c) for c in reversed(expect)), n
    assert min(_cyclotomic_int(105)) == -2 and min(_cyclotomic_int(385)) == -3


def test_factor_n7_f2():
    facs = factor_xn_minus_1(7, F2)
    assert [(format_poly_text(p), m) for p, m in facs] == [
        ("1,1", 1), ("1,0,1,1", 1), ("1,1,0,1", 1)]


def test_factor_n6_f2_multiplicities():
    facs = factor_xn_minus_1(6, F2)
    assert [(format_poly_text(p), m) for p, m in facs] == [
        ("1,1", 2), ("1,1,1", 2)]


def test_factor_n4_f3():
    facs = factor_xn_minus_1(4, F3)
    assert [(format_poly_text(p), m) for p, m in facs] == [
        ("1,1", 1), ("2,1", 1), ("1,0,1", 1)]


def _product_of_factors(field, n):
    prod = one_poly(field)
    for fac, mult in factor_xn_minus_1(n, field):
        prod = poly_mul(prod, poly_pow(fac, mult))
    return prod


@pytest.mark.parametrize("r,alpha", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_factor_product_check_sample(r, alpha):
    field = make_field(r, alpha)
    for n in list(range(1, 36)) + [48, 64, 81]:
        assert _product_of_factors(field, n) == xn_minus_1(field, n), (r, n)


def test_factors_match_sympy_over_prime_fields():
    for field, n in [(F2, 15), (F2, 23), (F3, 13), (F5, 12), (F2, 31)]:
        ours = {(_sympy_poly(p).rep, m) for p, m in factor_xn_minus_1(n, field)}
        x = sympy.symbols("x")
        _, sym_facs = sympy.Poly(x ** n - 1, x, modulus=field.r).factor_list()
        theirs = {(sympy.Poly(f, x, modulus=field.r).monic().rep, m)
                  for f, m in sym_facs}
        assert ours == theirs


def test_factors_irreducible_over_f4_by_trial_division():
    field = make_field(2, 2)
    for n in (5, 9, 15, 17):
        for fac, _m in factor_xn_minus_1(n, field):
            d = fac.degree
            if d <= 1:
                continue
            # brute trial division by every monic poly of degree <= d/2
            for dd in range(1, d // 2 + 1):
                for code in range(field.order ** dd):
                    coeffs = []
                    m = code
                    for _ in range(dd):
                        coeffs.append(field.element_of_index(m % field.order))
                        m //= field.order
                    div = make_poly(field, coeffs + [field.one])
                    assert not poly_mod(fac, div).is_zero(), (n, fac, div)


@pytest.mark.parametrize("r,alpha,n_free", [
    (2, 1, 7), (2, 1, 15), (2, 1, 21), (2, 1, 31),
    (3, 1, 8), (3, 1, 13), (3, 1, 20),
    (2, 2, 9), (2, 2, 15), (2, 2, 21),
    # the F_4 factors of Q_25 are swapped by the Frobenius map over F_2
    (2, 2, 25), (2, 3, 21), (3, 2, 20), (5, 1, 31), (2, 1, 73),
])
def test_labelled_factors_carry_their_cosets(r, alpha, n_free):
    """The factor labelled (o, C) vanishes at gamma^s for s in C, where
    gamma is a root of the factor m_1 whose label for o contains 1."""
    field = make_field(r, alpha)
    labelled = _labelled_factors(n_free, field)
    assert sorted(format_poly_text(f) for _, _, f in labelled) \
        == sorted(format_poly_text(f) for f, _ in factor_xn_minus_1(n_free, field))
    by_o = {}
    for o, coset, fac in labelled:
        by_o.setdefault(o, []).append((coset, fac))
    assert sorted(by_o) == [o for o in range(1, n_free + 1) if n_free % o == 0]
    for o, entries in by_o.items():
        units = {t for t in range(o) if math.gcd(t, o) == 1} if o > 1 else {0}
        assert sum(len(c) for c, _ in entries) == len(units), (o, entries)
        assert set().union(*(c for c, _ in entries)) == units
        [m1] = [fac for c, fac in entries if 1 % o in c]
        for coset, fac in entries:
            assert fac.degree == len(coset)
            for s in coset:
                # m_1 | f(x^s)  <=>  f(gamma^s) = 0
                assert poly_divides(m1, substitute_power(fac, s or o)), (o, s)


def test_factor_memo_is_invisible():
    """The per-(o, field) memo of Q_o's factors changes no result, in
    whatever order n is visited, and hands out no shared mutable state."""
    for field in (F2, F3, make_field(2, 2)):
        cold = {}
        for n in range(1, 61):
            _cyclotomic_factors.cache_clear()
            cold[n] = factor_xn_minus_1(n, field)
        for order in (range(60, 0, -1), range(1, 61)):
            _cyclotomic_factors.cache_clear()
            warm = {n: factor_xn_minus_1(n, field) for n in order}
            assert warm == cold, field
    first = _labelled_factors(21, F2)
    expect = list(first)
    first.clear()
    assert _labelled_factors(21, F2) == expect


def test_factor_memo_keeps_moduli_apart():
    # x^2 + 1 and x^2 + x + 2 both define F_9; equal (o, field) keys would
    # hand one field's polynomials to the other
    fields = [make_field(3, 2, [1, 0, 1]), make_field(3, 2, [2, 1, 1])]
    assert fields[0] != fields[1]
    _cyclotomic_factors.cache_clear()
    for n in range(1, 41):
        for field in fields:
            assert all(fac.field == field
                       for fac, _ in factor_xn_minus_1(n, field))
            assert _product_of_factors(field, n) == xn_minus_1(field, n)
    assert _cyclotomic_factors.cache_info().currsize \
        == 2 * len([o for o in range(1, 41) if o % 3])


def test_large_n_factoring_golden():
    # guards the fold-and-divide conjugate step at large o; the digest was
    # recorded with the earlier ring.pow-and-Horner evaluation of m_1(x^t)
    cases = [(F2, 961, 13), (F2, 1023, 107), (make_field(2, 2), 255, 69)]
    record = []
    for field, n, count in cases:
        factors = factor_xn_minus_1(n, field)
        assert len(factors) == count, n
        assert _product_of_factors(field, n) == xn_minus_1(field, n)
        record.append([field.describe(), n,
                       [[format_poly_text(p), m] for p, m in factors]])
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == ("aa59702c68855ab76eab8ba76ee6086b"
                      "80965c1d6d00769a90b95eb539a3242b")


DIFFERENTIAL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]


@pytest.mark.parametrize("r, alpha", DIFFERENTIAL_FIELDS)
def test_conjugate_factors_match_the_gcd_rule(r, alpha):
    """Every factor of Q_o, o < 130, equals gcd(Q_o, m_1(x^t)) with
    t = (min C)^-1 mod o, whether it came from a gcd or as the reciprocal
    of the factor for -C."""
    field = make_field(r, alpha)
    _cyclotomic_factors.cache_clear()
    self_reciprocal = []  # o with several cosets, each equal to its -C
    for o in range(2, 130):
        if o % r == 0:
            continue
        entries = _cyclotomic_factors(o, field)
        cosets = _cyclotomic_cosets_of_units(field.order, o)
        assert [c for _, c, _ in entries] == [frozenset(c) for c in cosets]
        q_o, m1 = cyclotomic(o, field), entries[0][2]
        for _, coset, fac in entries[1:]:
            folded = [field.zero] * o  # m_1(x^t) mod x^o - 1
            t = pow(min(coset), -1, o)
            for i, c in enumerate(m1.coeffs):
                folded[i * t % o] = c
            rem = poly_mod(make_poly(field, folded), q_o)
            assert fac == poly_gcd(q_o, rem), (o, sorted(coset))
        if len(cosets) > 1 and o - 1 in cosets[0]:
            self_reciprocal.append(o)
    # -1 is a power of q mod o here (q^k = -1, e.g. 2^4 = 16 mod 17), so
    # every factor but m_1 comes from a gcd and nothing is saved
    expect = {(2, 1): {17, 41}, (3, 1): {28, 41}, (2, 2): {5, 13},
              (5, 1): {13, 26}, (7, 1): {8, 25}, (3, 2): {5, 10}}
    assert expect[(r, alpha)] <= set(self_reciprocal)


def test_factoring_runs_fewer_euclid_loops(monkeypatch):
    # every gcd goes through _gcd_idx; before reciprocal conjugates each was
    # one poly_gcd call: 258 for n <= 60 over F_2, F_3 and F_4, and 112
    # for x^1023 - 1 over F_2
    calls = []
    gcd = polyring._gcd_idx

    def counting_gcd(*args):
        calls.append(1)
        return gcd(*args)

    monkeypatch.setattr(polyring, "_gcd_idx", counting_gcd)
    _cyclotomic_factors.cache_clear()
    for field in (F2, F3, make_field(2, 2)):
        for n in range(1, 61):
            factor_xn_minus_1(n, field)
    assert len(calls) == 184
    calls.clear()
    _cyclotomic_factors.cache_clear()
    assert len(factor_xn_minus_1(1023, F2)) == 107
    assert len(calls) == 61
    _cyclotomic_factors.cache_clear()


def test_dual_generator_examples():
    q7 = cyclotomic(7, F2)
    assert dual_generator(q7, 7) == poly_from_ints(F2, [1, 1])
    assert dual_generator(poly_from_ints(F2, [1, 1]), 7) == q7
    # dual of Q_15 is (x-1) Q_3 Q_5 -- the pq-length duality from the theory
    expect = poly_mul(poly_mul(poly_sub(x_poly(F2), one_poly(F2)),
                               cyclotomic(3, F2)), cyclotomic(5, F2))
    assert dual_generator(cyclotomic(15, F2), 15) == expect


def test_dual_generator_formula_oracle():
    # independent recomputation of x^k h(1/x)/h(0) via sympy
    g = poly_from_ints(F2, [1, 1, 0, 1])
    n = 7
    x = sympy.symbols("x")
    h = sympy.Poly((x ** n - 1), x, modulus=2).quo(_sympy_poly(g))
    k = h.degree()
    rev = sympy.Poly(list(reversed(h.all_coeffs())), x, modulus=2)
    got = dual_generator(g, n)
    assert _sympy_poly(got) == rev.monic()


def test_dual_generator_requires_divisor():
    with pytest.raises(NotADivisor):
        dual_generator(poly_from_ints(F2, [1, 0, 1]), 7)


def test_dual_involution_n_le_30():
    for n in (4, 6, 9, 15, 21, 30):
        facs = factor_xn_minus_1(n, F2)
        choices = [range(m + 1) for _, m in facs]
        for combo in itertools.product(*choices):
            g = one_poly(F2)
            for (fac, _), e in zip(facs, combo):
                g = poly_mul(g, poly_pow(fac, e))
            if g.degree in (0, n):
                continue
            assert dual_generator(dual_generator(g, n), n) == g
            assert make_code(F2, n, g).dual_gen == dual_generator(g, n)


def test_substitute_power():
    assert substitute_power(poly_from_ints(F2, [1, 1, 1]), 3) \
        == poly_from_ints(F2, [1, 0, 0, 1, 0, 0, 1])
    # Table entry: (x^3+x+1) at x^7 gives x^21+x^7+1
    got = substitute_power(poly_from_ints(F2, [1, 1, 0, 1]), 7)
    expect = [0] * 22
    expect[0] = expect[7] = expect[21] = 1
    assert got == poly_from_ints(F2, expect)
    g = poly_from_ints(F3, [2, 1, 1])
    assert substitute_power(g, 1) == g


def test_pq_cyclotomic_identity():
    for field in (F2, F3):
        for (p, q) in ((3, 5), (3, 7), (5, 7)):
            if field.r in (p, q):
                continue
            lhs = xn_minus_1(field, p * q)
            rhs = poly_mul(
                poly_mul(poly_sub(x_poly(field), one_poly(field)),
                         cyclotomic(p, field)),
                poly_mul(cyclotomic(q, field), cyclotomic(p * q, field)))
            assert lhs == rhs


def test_poly_text_round_trip():
    rng = random.Random(99)
    for field in (F2, F3, make_field(3, 2), make_field(2, 3)):
        for _ in range(100):
            deg = rng.randrange(0, 8)
            p = make_poly(field, [field.element_of_index(rng.randrange(field.order))
                                  for _ in range(deg + 1)])
            assert parse_poly_text(format_poly_text(p), field) == p
    assert format_poly_text(make_poly(F2, [])) == "0"
    assert parse_poly_text("0", F2).is_zero()
