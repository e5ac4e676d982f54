"""Dense univariate polynomials over F_{r^alpha}.

Home of the generator/check polynomial machinery: division, gcd, cyclotomic
polynomials Q_n, the factorization of x^n - 1 by q-cyclotomic cosets, the
dual-generator formula and power substitution g(x^t).

One arithmetic serves every field.  The poly_* operations turn coefficients
into element indices (galois element_index, through a cached element list
and dict per field) and run two kernels on the field's add/mul/neg tables
(galois.field_tables): _mul_idx, a product, and _reduce, a remainder
computed in the dividend's own buffer by one leading-term elimination per
step (_divmod_idx also collects the quotient; _gcd_idx is Euclid's loop on
it).  For alpha = 1 an index is the residue, so the product is an
np.convolve mod r; for r = 2 a sum of indices is their XOR (_fadd).
Polynomial arithmetic therefore shares the tables' cap q <= 4096;
FieldSpec's scalar ops remain the reference they are tested against.

x^n - 1 is factored without a splitting field: equal-degree splitting
modulo Q_o finds one irreducible factor m_1.  Every other factor of Q_o is
either a gcd of Q_o with m_1(x^t), folded to exponents mod o and divided by
Q_o once (fold-and-divide), or the monic reciprocal of the factor for the
negated coset, so one gcd serves each such pair.  The factors of each Q_o
are memoized per (o, field), so x^n - 1 for many n factors each Q_o once.
_Ext is the residue arithmetic modulo a monic polynomial behind the
splitting, on the same kernels, with _xpow_table the one table of x^i mod M
that it shares with the membership engine off F_2 (over F_2 the engine
takes the same rows packed in uint64 lanes from _xpow_lanes_f2); in
characteristic 2 it squares through that table's even rows.  It keeps its
name because perfbench traces it.

A Poly stores ascending coefficients with no trailing zeros; the zero
polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

import functools
import itertools
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
    """idx without its trailing zeros, found by a scan from the top: the
    arrays trimmed here end in few zeros."""
    top = len(idx)
    while top and not idx[top - 1]:
        top -= 1
    return idx[:top]


def _poly_of_indices(field: FieldSpec, idx) -> Poly:
    elements = _codec(field)[0]
    return Poly(field, tuple(elements[i] for i in _trimmed(idx).tolist()))


def _fadd(field: FieldSpec, x, y):
    """x + y on index arrays: XOR of the digit bits for r = 2, the residues
    mod r for alpha = 1, else the add table."""
    if field.r == 2:
        return x ^ y
    if field.alpha == 1:
        return (x + y) % field.r
    return field_tables(field)[0][x, y]


def _fsum(field: FieldSpec, terms):
    """Field sum over axis 0 of a nonempty array of element indices: mod r
    for alpha = 1, XOR for r = 2, else pairwise by _fadd."""
    if field.alpha == 1:
        return terms.sum(axis=0) % field.r
    if field.r == 2:
        return np.bitwise_xor.reduce(terms, axis=0)
    while len(terms) > 1:
        half = len(terms) // 2
        terms = np.concatenate([_fadd(field, terms[:half],
                                      terms[half:2 * half]),
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


@functools.lru_cache(maxsize=None)
def _inverses(field: FieldSpec):
    """Index of each nonzero element's inverse (entry 0 is unused)."""
    return np.argmax(field_tables(field)[1] == 1, axis=1)  # index 1 is one


def _division_tables(field: FieldSpec):
    """The mul, neg and inverse tables _reduce reads, fetched once per
    division or Euclid run rather than through the caches on every step."""
    return field_tables(field)[1:] + (_inverses(field),)


def _reduce(field: FieldSpec, tables, w, v, quot=None):
    """w mod v, computed in w's own buffer by one leading-term elimination
    per step; returns the trimmed remainder, a view of w.  v is trimmed and
    nonempty, tables is _division_tables(field).  quot, when given,
    receives the quotient's coefficients."""
    mul, neg, inverses = tables
    dv = len(v) - 1
    lead_inv = inverses[v[-1]]
    minus_v = neg[v]
    for top in range(len(w) - 1, dv - 1, -1):
        lead = w[top]
        if lead:
            c = mul[lead, lead_inv]
            s = top - dv
            if quot is not None:
                quot[s] = c
            w[s:top + 1] = _fadd(field, w[s:top + 1],
                                 minus_v if c == 1 else mul[c, minus_v])
    return _trimmed(w[:dv])


def _divmod_idx(field: FieldSpec, a, b):
    """Quotient and trimmed remainder of index arrays; b is trimmed and
    nonempty."""
    quot = np.zeros(max(len(a) - len(b) + 1, 0), dtype=np.int64)
    return quot, _reduce(field, _division_tables(field), a.copy(), b, quot)


def _gcd_idx(field: FieldSpec, u, v):
    """Monic gcd of trimmed index arrays u and v, not both empty, by
    Euclid's algorithm; each remainder is reduced in place, so u and v are
    overwritten."""
    tables = _division_tables(field)
    while len(v):
        u, v = v, _reduce(field, tables, u, v)
    mul, _, inverses = tables
    return mul[inverses[u[-1]], u]


def _add_idx(field: FieldSpec, a, b):
    n = max(len(a), len(b))
    return _fadd(field, np.pad(a, (0, n - len(a))), np.pad(b, (0, n - len(b))))


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
    return _poly_of_indices(a.field,
                            _gcd_idx(a.field, _indices(a), _indices(b)))


def poly_pow(a: Poly, e: int) -> Poly:
    """a^e by squaring on index arrays; 0^0 = 1."""
    f = a.field
    if e and a.is_zero():
        return zero_poly(f)
    result = np.ones(1, dtype=np.int64)  # index 1 is the field's one
    acc = _indices(a)
    while e:
        if e & 1:
            result = _mul_idx(f, result, acc)
        e >>= 1
        if e:
            acc = _mul_idx(f, acc, acc)
    return _poly_of_indices(f, result)


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


@functools.lru_cache(maxsize=None)
def _cyclotomic_int(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending.

    Q_n = prod over d | n of (x^d - 1)^mu(n/d), and mu(n/d) != 0 exactly
    when n/d is a product of distinct primes of n.  The factors with
    mu = 1 are multiplied first.  Each Q_e, e | n, divides that product at
    least as often as it divides all the factors with mu = -1 together, so
    every division by one of them is exact: a = q (x^d - 1) gives
    q[i] = q[i - d] - a[i].
    """
    primes = _prime_factors(n)
    up, down = [], []
    for k in range(len(primes) + 1):
        for ps in itertools.combinations(primes, k):
            (down if k % 2 else up).append(n // math.prod(ps))
    a = [1]
    for d in up:  # a (x^d - 1)
        b = [-c for c in a] + [0] * d
        for i, c in enumerate(a):
            b[i + d] += c
        a = b
    for d in down:
        q: list = []
        for i in range(len(a) - d):
            q.append((q[i - d] if i >= d else 0) - a[i])
        a = q
    return tuple(a)


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
    columns, in np.min_scalar_type(q - 1): uint8 up to q = 256, uint16 up
    to the tables' cap.  Row i is row i-1 shifted up, with its top column
    folded back in through x^m = -(M_0 + ... + M_{m-1} x^(m-1)); M = 1
    gives rows with no columns.
    """
    add, mul, neg = field_tables(field)
    m = len(modulus) - 1
    low = neg[modulus[:m]]
    rows = np.zeros((count, m), dtype=np.min_scalar_type(field.order - 1))
    for i in range(min(m, count)):
        rows[i, i] = 1
    for i in range(m, count if m else 0):
        prev = rows[i - 1]
        rows[i, 1:] = prev[:-1]
        if prev[m - 1]:
            rows[i] = add[rows[i], mul[prev[m - 1], low]]
    return rows


def _xpow_lanes_f2(modulus, count: int):
    """_xpow_table over F_2, packed: x^0 .. x^(count-1) mod a monic M as
    rows of little-endian uint64 lanes, bit b of lane b >> 6 holding the
    coefficient of x^b (at least one lane, so M = 1 gives one zero lane).

    Each row is an integer, the previous one shifted up a bit with M XORed
    in when bit deg M is set (the shift-register sequence of M); every row
    is written straight into the lanes of one read-only buffer.
    """
    m = len(modulus) - 1
    size = 8 * max(1, -(-m // 64))  # bytes per row
    g = int("".join(map(str, modulus[::-1].tolist())), 2)
    top, row, out = 1 << m, 1, []
    for _ in range(count):
        if row & top:
            row ^= g
        out.append(row.to_bytes(size, "little"))
        row <<= 1
    return np.frombuffer(b"".join(out), dtype="<u8").reshape(count, size // 8)


class _Ext:
    """Arithmetic in F_q[x]/(M) for a monic M of degree d >= 1 over an
    arbitrary FieldSpec; M need not be irreducible.

    Elements are index arrays of length d (ascending powers of x).  A
    product is _mul_idx reduced with the rows x^d .. x^(2d-2) mod M of
    _xpow_table: a matmul mod r when alpha = 1, a table product and _fsum
    otherwise.  In characteristic 2 squaring is additive,
    (sum a_i x^i)^2 = sum a_i^2 x^(2i), so square sums the rows x^(2i) mod
    M of the same table, each times the Frobenius image a_i^2 of its
    coefficient, with no product to reduce.
    """

    def __init__(self, base: FieldSpec, modulus):
        self.field = base
        d = self.d = len(modulus) - 1
        self.mul_t, self.neg_t = field_tables(base)[1:]
        self.one = np.zeros(d, dtype=np.int64)
        self.one[0] = 1
        rows = _xpow_table(base, modulus, 2 * d - 1)
        # int64: every product gathers or multiplies through these rows
        self.high = rows[d:].astype(np.int64)
        if base.r == 2:
            self.squares = rows[::2]  # x^(2i) mod M, i < d
            self.frob = self.mul_t.diagonal()  # index of a^2

    def add(self, a, b):
        return _fadd(self.field, a, b)

    def sub(self, a, b):
        return _fadd(self.field, a, self.neg_t[b])

    def mul(self, a, b):
        field, d = self.field, self.d
        prod = _mul_idx(field, a, b)
        if field.alpha == 1:
            return (prod[:d] + prod[d:] @ self.high) % field.r
        return _fsum(field, np.vstack([prod[:d],
                                       self.mul_t[prod[d:, None], self.high]]))

    def square(self, a):
        """a * a in characteristic 2, by one gather of the rows x^(2i)."""
        if self.field.alpha == 1:
            return np.bitwise_xor.reduce(self.squares[a != 0], axis=0)
        return _fsum(self.field, self.mul_t[self.frob[a][:, None],
                                            self.squares])

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
    a^(2^(alpha d - 1)) for even q, built by _Ext.square.  On each
    irreducible factor, s vanishes for about half the probes,
    independently, so a pass splits f with probability about 1/2; the
    smaller part is kept.  The probes come from a fixed-seed generator, so
    every run returns the same factor.  They are drawn at random because
    probes with coefficients in a subfield can have the same value on every
    factor (the F_4 factors of Q_25 are swapped by the Frobenius map over
    F_2, so no probe over F_2 splits them).  The loop works on index arrays
    and builds a Poly only for the factor it returns.
    """
    field = f.field
    q = field.order
    rng = np.random.default_rng(0)
    f_idx = _indices(f)
    while len(f_idx) - 1 > d:
        ring = _Ext(field, f_idx)
        a = rng.integers(0, q, size=len(f_idx) - 1)
        if q % 2:
            s = ring.sub(ring.pow(a, (q ** d - 1) // 2), ring.one)
        else:
            s = a
            for _ in range(field.alpha * d - 1):
                a = ring.square(a)
                s = ring.add(s, a)
        g = _gcd_idx(field, f_idx.copy(), _trimmed(s))
        if 1 < len(g) < len(f_idx):
            h = _divmod_idx(field, f_idx, g)[0]
            f_idx = g if len(g) <= len(h) else h
    return _poly_of_indices(field, f_idx)


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
    positions since deg m_1 < o, and one division by Q_o reduces it.  The
    factor for -C has the roots gamma^(-u), so it is the monic reciprocal
    of the factor for C, and one gcd serves each pair {C, -C}; the first
    reciprocal is that of m_1.
    """
    if o == 1:
        return ((1, frozenset({0}), poly_sub(x_poly(field), one_poly(field))),)
    cosets = _cyclotomic_cosets_of_units(field.order, o)
    q_o = cyclotomic(o, field)
    if len(cosets) == 1:
        return ((o, frozenset(cosets[0]), q_o),)
    coset_of = {u: i for i, coset in enumerate(cosets) for u in coset}
    factors = [_one_factor(q_o, len(cosets[0]))] + [None] * (len(cosets) - 1)
    m1_idx, q_o_idx = _indices(factors[0]), _indices(q_o)
    for i, coset in enumerate(cosets):
        if factors[i] is None:
            folded = np.zeros(o, dtype=np.int64)
            folded[np.arange(len(m1_idx)) * pow(coset[0], -1, o) % o] = m1_idx
            factors[i] = _poly_of_indices(
                field, _gcd_idx(field, q_o_idx.copy(), _trimmed(folded)))
        mirror = coset_of[o - coset[0]]
        if factors[mirror] is None:
            factors[mirror] = _reciprocal_monic(factors[i])
    return tuple((o, frozenset(coset), fac)
                 for coset, fac in zip(cosets, factors))


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
