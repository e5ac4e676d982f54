"""Dense univariate polynomials over F_{r^alpha}.

Home of the generator/check polynomial machinery: division, gcd, cyclotomic
polynomials Q_n, the factorization of x^n - 1 by q-cyclotomic cosets, the
dual-generator formula and power substitution g(x^t).

One arithmetic serves every field.  The poly_* operations turn coefficients
into element indices (galois element_index, through a cached element list
and dict per field) and run two kernels on the field's add/mul/neg tables
(galois.field_tables): _mul_idx, a product, and _divmod_idx, a division with
remainder.  For alpha = 1 an index is the residue, so the product is an
np.convolve mod r.  Polynomial arithmetic therefore shares the tables' cap
q <= 4096; FieldSpec's scalar ops remain the reference they are tested
against.

x^n - 1 is factored without a splitting field: equal-degree splitting
modulo Q_o finds one irreducible factor m_1, and every other factor of Q_o
is a gcd of Q_o with m_1(x^t), folded to exponents mod o and divided by
Q_o once (fold-and-divide).  The factors of each Q_o are memoized per
(o, field), so x^n - 1 for many n factors each Q_o once.  _Ext is the
residue arithmetic modulo a monic polynomial behind the splitting, on the
same kernels, with _xpow_table the one table of x^i mod M that it shares
with the membership engine.  It keeps its name because perfbench traces it.

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


# -- index form: coefficients as element indices, arithmetic by table -------

@functools.lru_cache(maxsize=None)
def _codec(field: FieldSpec):
    """The field's elements by index, and the dict back to indices.

    Every conversion comes here before any arithmetic, so this is where the
    tables' cap q <= 4096 is enforced, before q elements are listed."""
    field_tables(field)
    elements = list(field.elements())
    return elements, {e: i for i, e in enumerate(elements)}


def _indices(p: Poly):
    index = _codec(p.field)[1]
    return np.array([index[c] for c in p.coeffs], dtype=np.int64)


def _trimmed(idx):
    """idx without its trailing zeros."""
    nonzero = np.flatnonzero(idx)
    return idx[:nonzero[-1] + 1] if len(nonzero) else idx[:0]


def _poly_of_indices(field: FieldSpec, idx) -> Poly:
    elements = _codec(field)[0]
    return Poly(field, tuple(elements[i] for i in _trimmed(idx).tolist()))


def _fsum(field: FieldSpec, terms):
    """Field sum over axis 0 of a nonempty array of element indices: mod r
    for alpha = 1, XOR of the digit bits for r = 2, else pairwise through
    the add table."""
    if field.alpha == 1:
        return terms.sum(axis=0) % field.r
    if field.r == 2:
        return np.bitwise_xor.reduce(terms, axis=0)
    add = field_tables(field)[0]
    while len(terms) > 1:
        half = len(terms) // 2
        terms = np.concatenate([add[terms[:half], terms[half:2 * half]],
                                terms[2 * half:]])
    return terms[0]


def _mul_idx(field: FieldSpec, a, b):
    """Product of two nonempty index arrays, of length len(a) + len(b) - 1."""
    if field.alpha == 1:
        return np.convolve(a, b) % field.r
    la, lb = len(a), len(b)
    skew = np.zeros((la, la + lb), dtype=np.int64)
    skew[:, :lb] = field_tables(field)[1][a[:, None], b]
    # read row-major with one column less, row i moves i places right, so
    # each column holds the terms a_i b_j of one power x^(i+j)
    return _fsum(field, skew.ravel()[:la * (la + lb - 1)].reshape(la, -1))


def _divmod_idx(field: FieldSpec, a, b):
    """Quotient and trimmed remainder of index arrays; b is trimmed and
    nonempty."""
    add, mul, neg = field_tables(field)
    db = len(b) - 1
    rem = a.copy()
    quot = np.zeros(max(len(a) - db, 0), dtype=np.int64)
    lead_inv = np.argmax(mul[b[-1]] == 1)  # index 1 is the field's one
    minus_b = neg[b]
    for s in range(len(quot) - 1, -1, -1):
        c = mul[rem[s + db], lead_inv]
        if c:
            quot[s] = c
            rem[s:s + db + 1] = add[rem[s:s + db + 1], mul[c, minus_b]]
    return quot, _trimmed(rem[:db])


def _add_idx(field: FieldSpec, a, b):
    n = max(len(a), len(b))
    return field_tables(field)[0][np.pad(a, (0, n - len(a))),
                                  np.pad(b, (0, n - len(b)))]


def poly_add(a: Poly, b: Poly) -> Poly:
    _same_field(a, b)
    return _poly_of_indices(a.field,
                            _add_idx(a.field, _indices(a), _indices(b)))


def poly_sub(a: Poly, b: Poly) -> Poly:
    _same_field(a, b)
    neg = field_tables(a.field)[2]
    return _poly_of_indices(a.field,
                            _add_idx(a.field, _indices(a), neg[_indices(b)]))


def poly_scale(a: Poly, c: Element) -> Poly:
    f = a.field
    mul, index = field_tables(f)[1], _codec(f)[1]
    return _poly_of_indices(f, mul[_indices(a), index[c]])


def poly_mul(a: Poly, b: Poly) -> Poly:
    _same_field(a, b)
    f = a.field
    if a.is_zero() or b.is_zero():
        return zero_poly(f)
    return _poly_of_indices(f, _mul_idx(f, _indices(a), _indices(b)))


def poly_divmod(a: Poly, b: Poly) -> tuple:
    """a = q*b + r with deg r < deg b."""
    _same_field(a, b)
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    quot, rem = _divmod_idx(a.field, _indices(a), _indices(b))
    return _poly_of_indices(a.field, quot), _poly_of_indices(a.field, rem)


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
    u, v = _indices(a), _indices(b)
    while len(v):
        u, v = v, _divmod_idx(a.field, u, v)[1]
    return monic(_poly_of_indices(a.field, u))


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


class _Ext:
    """Arithmetic in F_q[x]/(M) for a monic M of degree d >= 1 over an
    arbitrary FieldSpec; M need not be irreducible.

    Elements are index arrays of length d (ascending powers of x).  A
    product is _mul_idx reduced with the rows x^d .. x^(2d-2) mod M of
    _xpow_table: a matmul mod r when alpha = 1, a table product and _fsum
    otherwise.
    """

    def __init__(self, base: FieldSpec, modulus):
        self.field = base
        d = self.d = len(modulus) - 1
        self.add_t, self.mul_t, self.neg_t = field_tables(base)
        self.one = np.zeros(d, dtype=np.int64)
        self.one[0] = 1
        self.high = _xpow_table(base, modulus, 2 * d - 1)[d:]

    def add(self, a, b):
        return self.add_t[a, b]

    def sub(self, a, b):
        return self.add_t[a, self.neg_t[b]]

    def mul(self, a, b):
        field, d = self.field, self.d
        prod = _mul_idx(field, a, b)
        if field.alpha == 1:
            return (prod[:d] + prod[d:] @ self.high) % field.r
        return _fsum(field, np.vstack([prod[:d],
                                       self.mul_t[prod[d:, None], self.high]]))

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


@functools.lru_cache(maxsize=None)
def _cyclotomic_factors(o: int, field: FieldSpec) -> tuple:
    """The irreducible factors of Q_o as ((o, coset, Poly), ...), one per
    q-coset of the units mod o, by the cosets' minima; o = 1 gives x - 1
    labelled {0}.  gcd(o, r) must be 1.  Memoized per (o, field), so each
    Q_o is factored once however many n it serves.

    No extension field is built.  _one_factor splits off one factor m_1 of
    Q_o, labelled by the coset of 1, and gamma stands for one of its roots.
    The factor with the roots gamma^u, u in C, is gcd(Q_o, m_1(x^t)) for
    t = (min C)^-1 mod o: gamma^u is a root of m_1(x^t) exactly when u*t
    lies in the powers of q mod o, that is when u lies in C.  As Q_o
    divides x^o - 1, m_1(x^t) folds to sum c_i x^(i*t mod o), at distinct
    positions since deg m_1 < o, and one division by Q_o reduces it.
    """
    if o == 1:
        return ((1, frozenset({0}), poly_sub(x_poly(field), one_poly(field))),)
    cosets = _cyclotomic_cosets_of_units(field.order, o)
    q_o = cyclotomic(o, field)
    if len(cosets) == 1:
        return ((o, frozenset(cosets[0]), q_o),)
    m1 = _one_factor(q_o, len(cosets[0]))
    out = [(o, frozenset(cosets[0]), m1)]
    m1_idx, q_o_idx = _indices(m1), _indices(q_o)
    for coset in cosets[1:]:
        folded = np.zeros(o, dtype=np.int64)
        folded[np.arange(len(m1_idx)) * pow(coset[0], -1, o) % o] = m1_idx
        rem = _divmod_idx(field, folded, q_o_idx)[1]
        out.append((o, frozenset(coset),
                    poly_gcd(q_o, _poly_of_indices(field, rem))))
    return tuple(out)


def _labelled_factors(n_free: int, field: FieldSpec) -> list:
    """Irreducible factors of the squarefree x^n_free - 1, gcd(n_free, r) = 1,
    as a fresh list [(o, coset, Poly)] of the _cyclotomic_factors of each
    divisor o in turn.  The cosets of one o partition the units mod o."""
    return [entry for o in _divisors(n_free)
            for entry in _cyclotomic_factors(o, field)]


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
                     key=lambda p: (p.degree, _indices(p).tolist()))
    return [(p, r ** e) for p in factors]


def _reciprocal_monic(h: Poly) -> Poly:
    """x^deg(h) h(1/x) / h(0), the monic reciprocal of h with h(0) != 0."""
    return poly_scale(Poly(h.field, h.coeffs[::-1]), h.field.inv(h.coeffs[0]))


def dual_generator(g: Poly, n: int) -> Poly:
    """Generator of the dual code: monic x^k h(1/x) / h(0) for h = (x^n-1)/g."""
    quot, rem = poly_divmod(xn_minus_1(g.field, n), g)
    if not rem.is_zero():
        raise NotADivisor(f"generator does not divide x^{n}-1")
    return _reciprocal_monic(quot)


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
