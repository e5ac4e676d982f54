"""Dense univariate polynomials over F_{r^alpha}.

Home of the generator/check polynomial machinery: division, gcd, cyclotomic
polynomials Q_n, the factorization of x^n - 1 by q-cyclotomic cosets, the
dual-generator formula and power substitution g(x^t).

x^n - 1 is factored without a splitting field: equal-degree splitting
modulo Q_o finds one irreducible factor m_1, and every other factor of Q_o
is a gcd of Q_o with m_1(x^t).  _Ext is the vectorized residue arithmetic
modulo a monic polynomial behind both steps, and _xpow_table the one table
of x^i mod M that it shares with the membership engine.

A Poly stores ascending coefficients with no trailing zeros; the zero
polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    CharacteristicDividesN,
    DivisionByZero,
    FieldMismatch,
    NotADivisor,
)
from .galois import Element, FieldSpec, field_tables


@dataclass(frozen=True)
class Poly:
    field: FieldSpec
    coeffs: tuple  # tuple[Element, ...], ascending, trimmed

    @property
    def degree(self) -> int:
        """-1 stands in for the zero polynomial's degree."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coeff(self, i: int) -> Element:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __repr__(self):
        return f"Poly({format_poly_text(self)!r} over F_{self.field.describe()})"


def _trim(field: FieldSpec, coeffs: list) -> Poly:
    while coeffs and coeffs[-1] == field.zero:
        coeffs.pop()
    return Poly(field, tuple(coeffs))


def make_poly(field: FieldSpec, coeffs: Iterable[Element]) -> Poly:
    return _trim(field, [field.check(c) for c in coeffs])


def poly_from_ints(field: FieldSpec, ints: Sequence[int]) -> Poly:
    """Convenience: coefficients as base-r integer encodings (alpha=1: residues)."""
    return _trim(field, [field.element_of_index(int(c) % field.order if field.alpha == 1
                                                else int(c)) for c in ints])


def zero_poly(field: FieldSpec) -> Poly:
    return Poly(field, ())


def one_poly(field: FieldSpec) -> Poly:
    return Poly(field, (field.one,))


def x_poly(field: FieldSpec) -> Poly:
    return Poly(field, (field.zero, field.one))


def xn_minus_1(field: FieldSpec, n: int) -> Poly:
    coeffs = [field.zero] * (n + 1)
    coeffs[0] = field.neg(field.one)
    coeffs[n] = field.one
    return Poly(field, tuple(coeffs))


def _same_field(a: Poly, b: Poly):
    if a.field != b.field:
        raise FieldMismatch("polynomials over different fields")


# F_2 fast path: packed-int arithmetic carries the big table rows.

def _to_bits(p: Poly) -> int:
    v = 0
    for i, c in enumerate(p.coeffs):
        if c[0]:
            v |= 1 << i
    return v


def _from_bits(field: FieldSpec, v: int) -> Poly:
    one, zero = field.one, field.zero
    return Poly(field, tuple(one if (v >> i) & 1 else zero
                             for i in range(v.bit_length())))


def _bits_mul(a: int, b: int) -> int:
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _bits_divmod(a: int, b: int) -> tuple:
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def _is_gf2(field: FieldSpec) -> bool:
    return field.r == 2 and field.alpha == 1


def poly_add(a: Poly, b: Poly) -> Poly:
    _same_field(a, b)
    f = a.field
    n = max(len(a.coeffs), len(b.coeffs))
    return _trim(f, [f.add(a.coeff(i), b.coeff(i)) for i in range(n)])


def poly_sub(a: Poly, b: Poly) -> Poly:
    _same_field(a, b)
    f = a.field
    n = max(len(a.coeffs), len(b.coeffs))
    return _trim(f, [f.sub(a.coeff(i), b.coeff(i)) for i in range(n)])


def poly_scale(a: Poly, c: Element) -> Poly:
    f = a.field
    return _trim(f, [f.mul(x, c) for x in a.coeffs])


def poly_mul(a: Poly, b: Poly) -> Poly:
    _same_field(a, b)
    f = a.field
    if a.is_zero() or b.is_zero():
        return zero_poly(f)
    if _is_gf2(f):
        return _from_bits(f, _bits_mul(_to_bits(a), _to_bits(b)))
    out = [f.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        if ai != f.zero:
            for j, bj in enumerate(b.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return _trim(f, out)


def poly_divmod(a: Poly, b: Poly) -> tuple:
    """a = q*b + r with deg r < deg b."""
    _same_field(a, b)
    f = a.field
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if _is_gf2(f):
        q, r = _bits_divmod(_to_bits(a), _to_bits(b))
        return _from_bits(f, q), _from_bits(f, r)
    rem = list(a.coeffs)
    db = b.degree
    lead_inv = f.inv(b.coeffs[-1])
    qlen = max(len(rem) - db, 0)
    q = [f.zero] * qlen
    while len(rem) - 1 >= db and rem:
        shift = len(rem) - 1 - db
        c = f.mul(rem[-1], lead_inv)
        q[shift] = c
        for i, bi in enumerate(b.coeffs):
            rem[shift + i] = f.sub(rem[shift + i], f.mul(c, bi))
        while rem and rem[-1] == f.zero:
            rem.pop()
    return Poly(f, tuple(q)), _trim(f, rem)


def poly_mod(a: Poly, b: Poly) -> Poly:
    return poly_divmod(a, b)[1]


def poly_divides(a: Poly, b: Poly) -> bool:
    """a | b exactly."""
    return poly_mod(b, a).is_zero()


def monic(a: Poly) -> Poly:
    if a.is_zero():
        return a
    return poly_scale(a, a.field.inv(a.coeffs[-1]))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    _same_field(a, b)
    if a.is_zero() and b.is_zero():
        raise DivisionByZero("gcd(0, 0) undefined")
    while not b.is_zero():
        a, b = b, poly_mod(a, b)
    return monic(a)


def poly_pow(a: Poly, e: int) -> Poly:
    result = one_poly(a.field)
    while e:
        if e & 1:
            result = poly_mul(result, a)
        a = poly_mul(a, a)
        e >>= 1
    return result


def substitute_power(g: Poly, t: int) -> Poly:
    """g(x^t): coefficient i moves to position i*t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if t == 1 or g.is_zero():
        return g
    f = g.field
    out = [f.zero] * (g.degree * t + 1)
    for i, c in enumerate(g.coeffs):
        out[i * t] = c
    return Poly(f, tuple(out))


def try_contract_power(g: Poly, t: int) -> Optional[Poly]:
    """Inverse of substitute_power: g0 with g == g0(x^t), or None."""
    if g.is_zero() or g.degree % t:
        return None
    f = g.field
    out = []
    for i, c in enumerate(g.coeffs):
        if i % t == 0:
            out.append(c)
        elif c != f.zero:
            return None
    return Poly(f, tuple(out))


# -- cyclotomic polynomials ---------------------------------------------------

def _divisors(n: int) -> list:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _int_poly_divexact(a: list, b: list) -> list:
    """Exact division of integer polynomials (ascending coefficients)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        c = a[-1] // b[-1]
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] -= c * bi
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
    assert not a, "inexact cyclotomic division"
    return q


@functools.lru_cache(maxsize=None)
def _cyclotomic_int(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in _divisors(n)[:-1]:
        num = _int_poly_divexact(num, list(_cyclotomic_int(d)))
    return tuple(num)


def cyclotomic(n: int, field: FieldSpec) -> Poly:
    """Q_n reduced into the field; requires gcd(n, char) = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % field.r == 0:
        raise CharacteristicDividesN(
            f"char {field.r} divides {n}; Q_{n} is not defined here")
    ints = _cyclotomic_int(n)
    emb = [(c % field.r,) + (0,) * (field.alpha - 1) for c in ints]
    return _trim(field, emb)


# -- coset-labelled factorization ---------------------------------------------

def _cyclotomic_cosets_of_units(q: int, o: int) -> list:
    """q-cosets partitioning the units mod o, each sorted, ordered by min."""
    units = [t for t in range(1, o) if math.gcd(t, o) == 1] if o > 1 else []
    seen = set()
    cosets = []
    for t in units:
        if t in seen:
            continue
        cos = []
        cur = t
        while cur not in seen:
            seen.add(cur)
            cos.append(cur)
            cur = (cur * q) % o
        cosets.append(sorted(cos))
    return cosets


def _xpow_table(field: FieldSpec, modulus, count: int):
    """x^0 .. x^(count-1) mod a monic M, as rows of element indices.

    modulus holds M's ascending coefficient indices and each row has deg M
    columns.  Row i is row i-1 shifted up, with its top column folded back
    in through x^m = -(M_0 + ... + M_{m-1} x^(m-1)); M = 1 gives rows with
    no columns.
    """
    add, mul, neg = field_tables(field)
    m = len(modulus) - 1
    low = neg[modulus[:m]]
    rows = np.zeros((count, m), dtype=np.int64)
    for i in range(min(m, count)):
        rows[i, i] = 1
    for i in range(m, count if m else 0):
        prev = rows[i - 1]
        rows[i, 1:] = prev[:-1]
        if prev[m - 1]:
            rows[i] = add[rows[i], mul[prev[m - 1], low]]
    return rows


def _indices(p: Poly):
    return np.array([p.field.element_index(c) for c in p.coeffs], dtype=np.int64)


def _poly_of_indices(field: FieldSpec, idx) -> Poly:
    return _trim(field, [field.element_of_index(int(v)) for v in idx])


class _Ext:
    """Arithmetic in F_q[x]/(M) for a monic M of degree d >= 1 over an
    arbitrary FieldSpec; M need not be irreducible.

    Elements are index-form vectors: numpy arrays of d base-element indices
    (ascending powers of x).  Multiplication runs as per-component integer
    convolutions over Z_r followed by two precomputed reductions (powers of
    the base generator y, then x^d .. x^(2d-2) mod M), so products stay
    vectorized even around degree 90.
    """

    def __init__(self, base: FieldSpec, modulus):
        d = self.d = len(modulus) - 1
        alpha = self.alpha = base.alpha
        r = self.r = base.r
        self.add_t, self.mul_t, self.neg_t = field_tables(base)
        # y^s mod the base modulus, s = 0..2*alpha-2, as Z_r digit vectors
        self.YR = np.zeros((alpha, 2 * alpha - 1), dtype=np.int64)
        acc = base.one
        ygen = base.element_of_index(r) if alpha > 1 else base.one
        for s in range(2 * alpha - 1):
            self.YR[:, s] = acc
            acc = base.mul(acc, ygen)
        self._rpow = np.array([r ** u for u in range(alpha)], dtype=np.int64)
        self.one = np.zeros(d, dtype=np.int64)
        self.one[0] = 1
        rows = _xpow_table(base, modulus, 2 * d - 1)[d:]
        # TY[s, j, u, i]: component u of y^s * (x^(d+j) mod M)
        self.TY = np.zeros((alpha, d - 1, alpha, d), dtype=np.int64)
        ypow = base.one
        for s in range(alpha):
            ys = base.element_index(ypow)
            for j in range(d - 1):
                self.TY[s, j] = self._decode(self.mul_t[ys, rows[j]])
            ypow = base.mul(ypow, ygen)

    def _decode(self, idx):
        return (idx[None, :] // self._rpow[:, None]) % self.r

    def _encode(self, comp):
        return (comp * self._rpow[:, None]).sum(axis=0)

    def add(self, a, b):
        return self.add_t[a, b]

    def sub(self, a, b):
        return self.add_t[a, self.neg_t[b]]

    def mul(self, a, b):
        d, alpha, r = self.d, self.alpha, self.r
        Ac = self._decode(a)
        Bc = self._decode(b)
        buckets = np.zeros((2 * alpha - 1, 2 * d - 1), dtype=np.int64)
        for s in range(alpha):
            if not Ac[s].any():
                continue
            for t in range(alpha):
                if Bc[t].any():
                    buckets[s + t] += np.convolve(Ac[s], Bc[t])
        comp = (self.YR @ (buckets % r)) % r  # (alpha, 2d-1)
        low, high = comp[:, :d], comp[:, d:]
        if high.any():
            low = low + np.tensordot(high, self.TY, axes=([0, 1], [0, 1]))
        return self._encode(low % r)

    def pow(self, a, e: int):
        result = self.one.copy()
        acc = a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result


def _one_factor(f: Poly, d: int) -> Poly:
    """One irreducible factor of f, a product of distinct monic irreducibles
    of degree d, by equal-degree splitting (Cantor & Zassenhaus, 1981).

    Each pass draws a probe a in F_q[x]/(f) and takes gcd(f, s) with
    s = a^((q^d-1)/2) - 1 for odd q, or the trace a + a^2 + ... +
    a^(2^(alpha d - 1)) for even q.  On each irreducible factor, s vanishes
    for about half the probes, independently, so a pass splits f with
    probability about 1/2; the smaller part is kept.  The probes come from
    a fixed-seed generator, so every run returns the same factor.  They are
    drawn at random because probes with coefficients in a subfield can have
    the same value on every factor (the F_4 factors of Q_25 are swapped by
    the Frobenius map over F_2, so no probe over F_2 splits them).
    """
    field = f.field
    q = field.order
    rng = np.random.default_rng(0)
    while f.degree > d:
        ring = _Ext(field, _indices(f))
        a = rng.integers(0, q, size=f.degree)
        if q % 2:
            s = ring.sub(ring.pow(a, (q ** d - 1) // 2), ring.one)
        else:
            s = a
            for _ in range(field.alpha * d - 1):
                a = ring.mul(a, a)
                s = ring.add(s, a)
        g = poly_gcd(f, _poly_of_indices(field, s))
        if 0 < g.degree < f.degree:
            h = poly_divmod(f, g)[0]
            f = g if g.degree <= h.degree else h
    return f


def _labelled_factors(n_free: int, field: FieldSpec) -> list:
    """Irreducible factors of the squarefree x^n_free - 1, each with its
    q-cyclotomic coset.

    gcd(n_free, r) must be 1.  Returns [(o, coset, Poly)]: for each divisor
    o of n_free, the factors of the o-th cyclotomic polynomial Q_o, one per
    coset of the units mod o under multiplication by q; o = 1 gives x - 1
    labelled {0}.  The cosets of one o partition the units mod o.

    No extension field is built.  _one_factor splits off one factor m_1 of
    Q_o, labelled by the coset of 1, and gamma stands for one of its roots.
    The factor with the roots gamma^u, u in C, is gcd(Q_o, m_1(x^t)) for
    t = (min C)^-1 mod o: gamma^u is a root of m_1(x^t) exactly when u*t
    lies in the powers of q mod o, that is when u lies in C.  m_1(x^t) is
    evaluated modulo Q_o.
    """
    q = field.order
    out = []
    for o in _divisors(n_free):
        if o == 1:
            out.append((1, frozenset({0}),
                        poly_sub(x_poly(field), one_poly(field))))
            continue
        cosets = _cyclotomic_cosets_of_units(q, o)
        q_o = cyclotomic(o, field)
        if len(cosets) == 1:
            out.append((o, frozenset(cosets[0]), q_o))
            continue
        m1 = _one_factor(q_o, len(cosets[0]))
        out.append((o, frozenset(cosets[0]), m1))
        ring = _Ext(field, _indices(q_o))
        x = np.zeros(q_o.degree, dtype=np.int64)
        x[1] = 1
        for coset in cosets[1:]:
            y = ring.pow(x, pow(coset[0], -1, o))
            acc = np.zeros(q_o.degree, dtype=np.int64)
            for c in _indices(m1)[::-1]:  # Horner: m_1(y)
                acc = ring.mul(acc, y)
                acc[0] = ring.add(acc[0], c)
            out.append((o, frozenset(coset),
                        poly_gcd(q_o, _poly_of_indices(field, acc))))
    return out


def factor_xn_minus_1(n: int, field: FieldSpec) -> list:
    """Irreducible factors of x^n - 1 with multiplicities.

    n = r^e * n' with gcd(n', r) = 1; the squarefree part x^n' - 1 splits by
    q-cyclotomic cosets, and every factor carries multiplicity r^e.  Returns
    [(Poly, mult)] sorted by (degree, coefficient encoding).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = field.r
    e, n_free = 0, n
    while n_free % r == 0:
        n_free //= r
        e += 1
    factors = sorted((fac for _o, _c, fac in _labelled_factors(n_free, field)),
                     key=lambda p: (p.degree, tuple(field.element_index(c)
                                                    for c in p.coeffs)))
    return [(p, r ** e) for p in factors]


def dual_generator(g: Poly, n: int) -> Poly:
    """Generator of the dual code: monic x^k h(1/x) / h(0) for h = (x^n-1)/g."""
    field = g.field
    quot, rem = poly_divmod(xn_minus_1(field, n), g)
    if not rem.is_zero():
        raise NotADivisor(f"generator does not divide x^{n}-1")
    h = quot
    h0 = h.coeffs[0]
    rev = list(reversed(h.coeffs))
    inv0 = field.inv(h0)
    return _trim(field, [field.mul(c, inv0) for c in rev])


# -- text encoding ------------------------------------------------------------

def format_poly_text(p: Poly) -> str:
    """Ascending coefficients, comma separated; colon-joined residues when
    alpha > 1.  The zero polynomial prints as a single zero coefficient."""
    f = p.field
    coeffs = p.coeffs if p.coeffs else (f.zero,)
    if f.alpha == 1:
        return ",".join(str(c[0]) for c in coeffs)
    return ",".join(":".join(str(d) for d in c) for c in coeffs)


def parse_poly_text(text: str, field: FieldSpec) -> Poly:
    toks = [t.strip() for t in text.strip().split(",")]
    coeffs = []
    for t in toks:
        if field.alpha == 1:
            v = int(t)
            if not 0 <= v < field.r:
                raise ValueError(f"coefficient {v} out of range for F_{field.r}")
            coeffs.append((v,))
        else:
            parts = [int(x) for x in t.split(":")]
            if len(parts) != field.alpha:
                raise ValueError(f"coefficient {t!r} needs {field.alpha} residues")
            if any(not 0 <= v < field.r for v in parts):
                raise ValueError(f"coefficient {t!r} out of range")
            coeffs.append(tuple(parts))
    return _trim(field, coeffs)
