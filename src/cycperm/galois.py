"""Arithmetic in prime fields Z_r and extension fields F_{r^alpha}.

Field elements are plain tuples of ``alpha`` residues mod ``r``, ascending
powers of the extension generator ``y``.  Tuples are immutable and hashable,
so codeword sets and cache keys work without wrappers.  The prime field is
the ``alpha == 1`` case: elements look like ``(3,)``.

All operations are pure; a FieldSpec can be shared freely across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    NotPrime,
    ReducibleModulus,
)

Element = tuple  # tuple[int, ...] of length alpha


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- dense polynomial helpers over Z_r (lists of ints, ascending powers) ----

def _zp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_mul(a, b, r):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % r
    return _zp_trim(out)


def _zp_divmod(a, b, r):
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    inv_lead = pow(b[-1], -1, r)
    q = [0] * max(da - db + 1, 0)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        c = (a[-1] * inv_lead) % r
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % r
        _zp_trim(a)
    return _zp_trim(q), a


def _zp_mod(a, b, r):
    return _zp_divmod(a, b, r)[1]


def _zp_gcd(a, b, r):
    a, b = list(a), list(b)
    while b:
        a, b = b, _zp_mod(a, b, r)
    if a:
        inv = pow(a[-1], -1, r)
        a = [(c * inv) % r for c in a]
    return a


def _zp_powmod(base, e, mod, r):
    result = [1]
    base = _zp_mod(base, mod, r)
    while e:
        if e & 1:
            result = _zp_mod(_zp_mul(result, base, r), mod, r)
        base = _zp_mod(_zp_mul(base, base, r), mod, r)
        e >>= 1
    return result


def _zp_irreducible(f, r) -> bool:
    """Monic f over Z_r has no irreducible factor of degree <= deg(f)/2."""
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if f[0] == 0:  # root at 0
        return False
    t = [0, 1]
    for _ in range(d // 2):
        t = _zp_powmod(t, r, f, r)  # t = y^(r^i) mod f
        probe = list(t)
        while len(probe) < 2:
            probe.append(0)
        probe[1] = (probe[1] - 1) % r
        if len(_zp_gcd(f, _zp_trim(probe), r)) > 1:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The field F_{r^alpha}; ``modulus`` is ascending coefficients of the
    defining monic irreducible (length alpha+1), or None when alpha == 1."""

    r: int
    alpha: int
    modulus: Optional[tuple]

    @property
    def order(self) -> int:
        return self.r ** self.alpha

    @property
    def zero(self) -> Element:
        return (0,) * self.alpha

    @property
    def one(self) -> Element:
        return (1,) + (0,) * (self.alpha - 1)

    def check(self, a: Element) -> Element:
        if len(a) != self.alpha or any(not (0 <= c < self.r) for c in a):
            raise FieldMismatch(f"{a!r} is not an element of {self.describe()}")
        return a

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % self.r for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % self.r for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % self.r for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        r = self.r
        if self.alpha == 1:
            return ((a[0] * b[0]) % r,)
        prod = [0] * (2 * self.alpha - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % r
        rem = _zp_mod(prod, list(self.modulus), r)
        rem.extend(0 for _ in range(self.alpha - len(rem)))
        return tuple(rem)

    def inv(self, a: Element) -> Element:
        if not any(a):
            raise DivisionByZero("inverse of zero")
        r = self.r
        if self.alpha == 1:
            return (pow(a[0], -1, r),)
        # extended Euclid on coefficient polynomials
        old_r, cur = list(self.modulus), _zp_trim(list(a))
        old_t, t = [], [1]
        while cur:
            q, rem = _zp_divmod(old_r, cur, r)
            old_r, cur = cur, rem
            qt = _zp_mul(q, t, r)
            new_t = [(x - y) % r for x, y in
                     zip(old_t + [0] * len(qt), qt + [0] * len(old_t))]
            old_t, t = t, _zp_trim(new_t)
        lead_inv = pow(old_r[-1], -1, r)
        out = [(c * lead_inv) % r for c in old_t]
        out.extend(0 for _ in range(self.alpha - len(out)))
        return tuple(out[: self.alpha])

    def pow(self, a: Element, e: int) -> Element:
        if e < 0:
            raise ValueError("negative exponents unsupported; invert first")
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def element_index(self, a: Element) -> int:
        """Base-r integer encoding; a canonical 0..q-1 labelling."""
        idx = 0
        for c in reversed(a):
            idx = idx * self.r + c
        return idx

    def element_of_index(self, idx: int) -> Element:
        out = []
        for _ in range(self.alpha):
            out.append(idx % self.r)
            idx //= self.r
        return tuple(out)

    def elements(self) -> Iterator[Element]:
        for idx in range(self.order):
            yield self.element_of_index(idx)

    def describe(self) -> str:
        return str(self.r) if self.alpha == 1 else f"{self.r}^{self.alpha}"

    def __repr__(self):
        return f"FieldSpec(F_{self.describe()})"


def make_field(r: int, alpha: int = 1,
               modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Build F_{r^alpha}.

    Without an explicit modulus the defining polynomial is the first monic
    irreducible of degree alpha in the scan order c_0 + c_1 r + c_2 r^2 + ...,
    so every run picks the same one.
    """
    if not _is_prime(r):
        raise NotPrime(f"{r} is not prime")
    if alpha < 1:
        raise DegreeMismatch("alpha must be >= 1")
    if alpha == 1:
        if modulus is not None:
            raise DegreeMismatch("prime field takes no modulus")
        return FieldSpec(r, 1, None)
    if modulus is not None:
        mod = tuple(int(c) % r for c in modulus)
        if len(mod) != alpha + 1:
            raise DegreeMismatch(
                f"modulus must have degree {alpha} (got {len(mod) - 1})")
        if mod[-1] != 1:
            raise ReducibleModulus("modulus must be monic")
        if not _zp_irreducible(list(mod), r):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible over Z_{r}")
        return FieldSpec(r, alpha, mod)
    for low in range(r ** alpha):
        coeffs = []
        m = low
        for _ in range(alpha):
            coeffs.append(m % r)
            m //= r
        cand = coeffs + [1]
        if _zp_irreducible(cand, r):
            return FieldSpec(r, alpha, tuple(cand))
    raise ReducibleModulus("no irreducible modulus found")  # unreachable


def parse_field(text: str) -> FieldSpec:
    """Parse the CLI field descriptor: "r^alpha", or a prime power q as its
    r^alpha (e.g. "2", "2^3", "4" for 2^2)."""
    text = text.strip()
    if "^" in text:
        r_s, a_s = text.split("^", 1)
        return make_field(int(r_s), int(a_s))
    q = int(text)
    for alpha in range(2, max(q, 2).bit_length()):
        r = round(q ** (1 / alpha))
        if r ** alpha == q and _is_prime(r):
            return make_field(r, alpha)
    return make_field(q, 1)


@functools.lru_cache(maxsize=None)
def field_tables(f: FieldSpec):
    """(add, mul, neg) tables over element indices, as numpy arrays.

    Built on the base-r digits of the indices: addition adds digits mod r,
    and a * b = sum_l a_l (y^l b) through the linear maps b -> y^l b,
    adding one digit of a per step.
    Used by the vectorized codeword engines; q x q is fine at desk scale.
    """
    import numpy as np

    q, r, alpha = f.order, f.r, f.alpha
    if q > 4096:
        raise FieldMismatch(f"index tables unsupported for q={q}")
    weights = r ** np.arange(alpha, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // weights % r
    add = np.zeros((q, q), dtype=np.int64)
    for i in range(alpha):
        add += (digits[:, i, None] + digits[None, :, i]) % r * weights[i]
    mul = np.zeros((1, q), dtype=np.int64)  # the products with a = 0
    ylb = digits  # digits of y^l * b
    for l in range(alpha):
        # row c * r^l + a: the products with a + c y^l, for a < r^l
        times = np.arange(r)[:, None, None] * ylb % r @ weights
        mul = add[times[:, None, :], mul[None, :, :]].reshape(-1, q)
        if l + 1 < alpha:  # y^alpha = -(m_0 + ... + m_{alpha-1} y^{alpha-1})
            top = ylb[:, -1:]
            ylb = (np.hstack([0 * top, ylb[:, :-1]])
                   - top * f.modulus[:alpha]) % r
    neg = -digits % r @ weights
    return add, mul, neg
