"""Dense univariate polynomials over F_{r^alpha}.

Home of the generator/check polynomial machinery: division, gcd, cyclotomic
polynomials Q_n, the factorization of x^n - 1 by q-cyclotomic cosets, the
dual-generator formula and power substitution g(x^t).

A Poly stores ascending coefficients with no trailing zeros; the zero
polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    CharacteristicDividesN,
    DivisionByZero,
    FieldMismatch,
    NotADivisor,
)
from .galois import Element, FieldSpec


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


# -- splitting-field machinery for coset factorization ------------------------

def _multiplicative_order(q: int, n: int) -> int:
    t, acc = 1, q % n
    while acc != 1:
        acc = (acc * q) % n
        t += 1
    return t


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


class _Ext:
    """Degree-d extension of an arbitrary FieldSpec, for root extraction.

    Elements are index-form vectors: numpy arrays of d base-element indices
    (ascending powers of the extension variable).  Multiplication runs as
    per-component integer convolutions over Z_r followed by two precomputed
    reductions (powers of the base generator y, then powers of the
    extension variable beyond d), so the splitting fields behind the coset
    factorization stay fast even around degree 90.
    """

    def __init__(self, base: FieldSpec, d: int, modulus_idx=None):
        import numpy as np
        from .galois import field_tables

        self.np = np
        self.base = base
        self.d = d
        self.alpha = base.alpha
        self.r = base.r
        self.add_t, self.mul_t, self.neg_t = field_tables(base)
        # y^s mod the base modulus, s = 0..2*alpha-2, as Z_r digit vectors
        self.YR = np.zeros((self.alpha, 2 * self.alpha - 1), dtype=np.int64)
        acc = base.one
        ygen = base.element_of_index(base.r) if self.alpha > 1 else base.one
        for s in range(2 * self.alpha - 1):
            for u in range(self.alpha):
                self.YR[u, s] = acc[u]
            acc = base.mul(acc, ygen)
        self._rpow = np.array([self.r ** u for u in range(self.alpha)],
                              dtype=np.int64)
        self.zero_el = np.zeros(d, dtype=np.int64)
        self.one = np.zeros(d, dtype=np.int64)
        self.one[0] = 1
        if modulus_idx is None:
            modulus_idx = self._find_modulus()
        self.modulus = np.asarray(modulus_idx, dtype=np.int64)
        self._build_xreduce()

    # -- representation helpers ------------------------------------------

    def _decode(self, idx):
        return (idx[None, :] // self._rpow[:, None]) % self.r

    def _encode(self, comp):
        return (comp * self._rpow[:, None]).sum(axis=0)

    def element_of_index(self, code: int):
        q = self.base.order
        out = self.np.zeros(self.d, dtype=self.np.int64)
        for t in range(self.d):
            out[t] = code % q
            code //= q
        return out

    # -- the reduction tables ---------------------------------------------

    def _xpow_rows(self, modulus):
        """x^(d+j) mod modulus in index form, j = 0..d-2."""
        np = self.np
        d = self.d
        rows = np.zeros((max(d - 1, 1), d), dtype=np.int64)
        t0 = self.neg_t[modulus[:d]]  # x^d = -(low part); modulus is monic
        if d == 1:
            return rows, t0
        rows[0] = t0
        for j in range(1, d - 1):
            prev = rows[j - 1]
            row = np.zeros(d, dtype=np.int64)
            row[1:] = prev[:-1]
            c = int(prev[d - 1])
            if c:
                row = self.add_t[row, self.mul_t[c, t0]]
            rows[j] = row
        return rows, t0

    def _build_xreduce(self):
        np = self.np
        d, alpha = self.d, self.alpha
        rows, _ = self._xpow_rows(self.modulus)
        # TY[s, j, u, x]: component u of y^s * (x^(d+j) mod M)
        self.TY = np.zeros((alpha, max(d - 1, 1), alpha, d), dtype=np.int64)
        ygen = self.base.element_of_index(self.r) if alpha > 1 else self.base.one
        ypow = self.base.one
        for s in range(alpha):
            ys = int(self.base.element_index(ypow))
            for j in range(d - 1):
                srow = self.mul_t[ys, rows[j]]
                self.TY[s, j] = self._decode(srow)
            ypow = self.base.mul(ypow, ygen)

    def _find_modulus(self):
        np = self.np
        base, d = self.base, self.d
        if d == 1:
            return np.array([0, 1], dtype=np.int64)  # the variable itself
        q = base.order
        dprimes = _prime_factors(d)
        for code in range(q ** d):
            digits = []
            m = code
            for _ in range(d):
                digits.append(m % q)
                m //= q
            if digits[0] == 0:
                continue  # root at zero
            cand = np.array(digits + [1], dtype=np.int64)
            if self._rabin_irreducible(cand, dprimes):
                return cand
        raise AssertionError("no irreducible modulus exists")  # unreachable

    def _rabin_irreducible(self, cand, dprimes) -> bool:
        """y^(q^d) = y mod cand, plus gcd checks at d/p for primes p | d."""
        np = self.np
        d, q = self.d, self.base.order
        probe = _Ext(self.base, d, modulus_idx=cand)
        y = np.zeros(d, dtype=np.int64)
        y[1] = 1
        t = y.copy()
        checkpoints = {d // p for p in dprimes}
        saved = {}
        for i in range(1, d + 1):
            t = probe.pow(t, q)
            if i in checkpoints:
                saved[i] = t.copy()
        if not np.array_equal(t, y):
            return False
        for _i, ti in saved.items():
            u = probe.sub(ti, y)
            if not u.any():
                return False  # splits into factors of degree dividing d/p
            if poly_gcd(self._to_poly(cand), self._to_poly(u)).degree > 0:
                return False
        return True

    def _to_poly(self, idx) -> Poly:
        f = self.base
        return _trim(f, [f.element_of_index(int(v)) for v in idx])

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        return self.add_t[a, b]

    def sub(self, a, b):
        return self.add_t[a, self.neg_t[b]]

    def neg(self, a):
        return self.neg_t[a]

    def mul(self, a, b):
        np = self.np
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
        low = comp[:, :d]
        if d > 1:
            high = comp[:, d:]
            if high.any():
                low = (low + np.tensordot(high, self.TY,
                                          axes=([0, 1], [0, 1]))) % r
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

    def root_of_unity(self, o: int):
        """Deterministic scan for an element of multiplicative order o."""
        np = self.np
        big = self.base.order ** self.d
        assert (big - 1) % o == 0
        cofactor = (big - 1) // o
        primes = _prime_factors(o)
        for code in range(2, big):
            xi = self.element_of_index(code)
            eta = self.pow(xi, cofactor)
            if np.array_equal(eta, self.one):
                continue
            if all(not np.array_equal(self.pow(eta, o // p), self.one)
                   for p in primes):
                return eta
        raise AssertionError("no root of unity found")


@functools.lru_cache(maxsize=None)
def _get_ext(field: FieldSpec, d: int) -> _Ext:
    return _Ext(field, d)


def _coset_min_poly(ext: _Ext, gamma, coset: list, o: int) -> Poly:
    """prod over i in coset of (x - gamma^i), projected down to the base."""
    base = ext.base
    acc = [ext.one.copy()]
    for i in coset:
        root = ext.pow(gamma, i % o)
        neg_root = ext.neg(root)
        nxt = [ext.zero_el.copy() for _ in range(len(acc) + 1)]
        for k, c in enumerate(acc):
            nxt[k + 1] = ext.add(nxt[k + 1], c)
            nxt[k] = ext.add(nxt[k], ext.mul(c, neg_root))
        acc = nxt
    coeffs = []
    for c in acc:
        assert not c[1:].any(), "coefficient not in base field"
        coeffs.append(base.element_of_index(int(c[0])))
    return _trim(base, coeffs)


def _labelled_factors(n_free: int, field: FieldSpec) -> list:
    """Irreducible factors of the squarefree x^n_free - 1, each with the
    q-cyclotomic coset it was built from.

    gcd(n_free, r) must be 1.  Returns [(o, coset, Poly)]: for each divisor
    o of n_free, the factors of the o-th cyclotomic polynomial, one per
    coset of the units mod o under multiplication by q.  The factor
    labelled (o, C) has the roots gamma^s, s in C, for the primitive o-th
    root of unity gamma that the splitting field picks; o = 1 gives x - 1
    labelled {0}.  The cosets of one o partition the units mod o.
    """
    q = field.order
    out = []
    for o in _divisors(n_free):
        if o == 1:
            out.append((1, frozenset({0}),
                        poly_sub(x_poly(field), one_poly(field))))
            continue
        cosets = _cyclotomic_cosets_of_units(q, o)
        if len(cosets) == 1:
            out.append((o, frozenset(cosets[0]), cyclotomic(o, field)))
            continue
        ext = _get_ext(field, _multiplicative_order(q, o))
        gamma = ext.root_of_unity(o)
        for coset in cosets:
            out.append((o, frozenset(coset),
                        _coset_min_poly(ext, gamma, coset, o)))
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
