import random

import pytest

from cycperm.errors import (
    DegreeMismatch,
    DivisionByZero,
    NotPrime,
    ReducibleModulus,
)
from cycperm.galois import field_tables, make_field, parse_field


# independent irreducibility oracle: trial division of Z_2 polynomials
# represented as bitmasks

def _bits_mod(a, b):
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _gf2_irreducible(poly_bits, degree):
    for d in range(1, degree // 2 + 1):
        for low in range(1 << d):
            div = low | (1 << d)
            if _bits_mod(poly_bits, div) == 0:
                return False
    return True


def test_prime_field_needs_no_modulus():
    f2 = make_field(2, 1)
    assert f2.modulus is None
    assert f2.order == 2


def test_default_modulus_matches_scan_oracle():
    # enumerate monic cubics over F_2 in low-coefficient-code order and pick
    # the first irreducible; the library must agree
    expected = None
    for code in range(8):
        bits = code | 8  # monic degree 3
        if _gf2_irreducible(bits, 3):
            expected = tuple((bits >> i) & 1 for i in range(4))
            break
    assert expected == (1, 1, 0, 1)  # y^3 + y + 1
    assert make_field(2, 3).modulus == expected


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrime):
        make_field(4, 1)


def test_supplied_modulus_validation():
    make_field(2, 3, [1, 1, 0, 1])  # fine
    with pytest.raises(ReducibleModulus):
        make_field(2, 3, [1, 0, 0, 1])  # y^3 + 1 = (y+1)(y^2+y+1)
    with pytest.raises(DegreeMismatch):
        make_field(2, 3, [1, 1, 1])
    with pytest.raises(ReducibleModulus):
        make_field(2, 3, [1, 1, 0, 0])  # not monic at degree 3


def test_f8_arithmetic_examples():
    f8 = make_field(2, 3)
    y, y2 = (0, 1, 0), (0, 0, 1)
    assert f8.mul(y, y2) == (1, 1, 0)       # y^3 = y + 1
    assert f8.inv(y) == (1, 0, 1)           # y (y^2+1) = 1
    assert f8.inv(f8.one) == f8.one


def test_prime_field_examples():
    f3 = make_field(3)
    assert f3.mul((2,), (2,)) == (1,)
    f5 = make_field(5)
    assert f5.inv((2,)) == (3,)
    f9 = make_field(3, 2)
    assert f9.modulus == (1, 0, 1)          # y^2 + 1
    assert f9.mul((0, 1), (0, 1)) == (2, 0)  # y^2 = -1 = 2


def test_inverse_of_zero_raises():
    f8 = make_field(2, 3)
    with pytest.raises(DivisionByZero):
        f8.inv(f8.zero)


@pytest.mark.parametrize("r,alpha", [(2, 1), (2, 3), (3, 2), (5, 1), (5, 2), (3, 3)])
def test_field_axioms_random(r, alpha):
    f = make_field(r, alpha)
    rng = random.Random(1234 + r * 10 + alpha)
    q = f.order
    els = [f.element_of_index(i) for i in range(q)]
    for _ in range(400):
        a, b, c = (els[rng.randrange(q)] for _ in range(3))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.sub(a, b) == f.add(a, f.neg(b))
        # Frobenius via square-and-multiply powering
        assert f.pow(f.add(a, b), r) == f.add(f.pow(a, r), f.pow(b, r))
        if a != f.zero:
            assert f.mul(a, f.inv(a)) == f.one
            assert f.pow(a, q - 1) == f.one


def test_element_index_round_trip():
    f = make_field(3, 2)
    for i in range(f.order):
        assert f.element_index(f.element_of_index(i)) == i


def test_parse_field_descriptor():
    assert parse_field("2").order == 2
    assert parse_field("2^3").order == 8
    assert parse_field(" 5 ").r == 5
    # a plain prime power q reads as its r^alpha
    assert parse_field("4") == parse_field("2^2") == make_field(2, 2)
    assert parse_field("9") == make_field(3, 2)
    for text in ("0", "1", "6"):
        with pytest.raises(NotPrime):
            parse_field(text)


@pytest.mark.parametrize("r, alpha", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2),
                                      (5, 2), (2, 6)])
def test_field_tables_match_scalar_ops(r, alpha):
    f = make_field(r, alpha)
    add, mul, neg = field_tables(f)
    assert add.shape == mul.shape == (f.order, f.order)
    elems = list(f.elements())
    for i, a in enumerate(elems):
        assert neg[i] == f.element_index(f.neg(a))
        for j, b in enumerate(elems):
            assert add[i, j] == f.element_index(f.add(a, b))
            assert mul[i, j] == f.element_index(f.mul(a, b))
