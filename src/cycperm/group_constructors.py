"""Materialize the predicted groups as explicit permutation generators.

Covers wreath products in both matrix layouts, CRT direct products
S_p x S_q inside S_pq, the prime-degree groups that hold the shift (the
affine p:m, PSL(d, q) on PG(d-1, q) in Singer order, M_23, PSL2_7), a
parser/printer for symbolic group expressions, and membership in an
expression decided block by block (expr_contains).  Each expression is
materialized once per process (materialize), as each leaf chain
(_leaf_chain) and each searched code (_searched_group) is built once.

Wreath indexing.  For W = A wr H on deg(A)*deg(H) points, flat point
(a_pt, h_pt) = a_pt * deg(H) + h_pt.  Base copies of A act on the stride
classes {j, deg(H)+j, ...}; each top generator of H acts inside every
contiguous block of length deg(H).  The ROW_BLOCKS picture (theorem for
length h*p: grid rows of length p, A = S_h on a column of the grid) and
the COL_BLOCKS picture (theorem for length r^m p^n: Mc rows carry inner
codewords, H permutes the rows of each contiguous column) are transposed
drawings of the same flat action, so both layouts share this indexing;
the layout tag records which matrix representation justified the claim.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .cyclic_code import Layout
from .errors import (
    ArityError,
    BadDegree,
    EmptyGenerators,
    ExprSyntaxError,
    NotCoprime,
    UnknownTag,
)
from .galois import FieldSpec, _is_prime, field_tables, make_field
from .permutation import PermGroup, Permutation, _StabChain, identity_perm, \
    perm_from_cycles
from .polyring import Poly, _prime_factors, poly_from_ints


# -- generator-level constructors ---------------------------------------------

def sym_generators(n: int) -> List[Permutation]:
    if n < 1:
        raise BadDegree("symmetric group needs degree >= 1")
    if n == 1:
        return [identity_perm(1)]
    if n == 2:
        return [perm_from_cycles([[0, 1]], 2)]
    return [perm_from_cycles([[0, 1]], n),
            perm_from_cycles([list(range(n))], n)]


def cyclic_generators(n: int) -> List[Permutation]:
    if n < 1:
        raise BadDegree("cyclic group needs degree >= 1")
    if n == 1:
        return [identity_perm(1)]
    return [perm_from_cycles([list(range(n))], n)]


def _prime_power(q: int) -> Optional[Tuple[int, int]]:
    """(r, e) with q = r^e and r prime, or None."""
    primes = _prime_factors(q) if q > 1 else []
    if len(primes) != 1:
        return None
    return primes[0], round(math.log(q, primes[0]))


def _unit_of_order(p: int, m: int) -> int:
    """The least unit mod the prime p of multiplicative order m (m | p - 1):
    the smallest primitive root for m = p - 1."""
    return next(a for a in range(1, p) if pow(a, m, p) == 1
                and all(pow(a, m // f, p) != 1 for f in _prime_factors(m)))


def _prime_degree_generators(p: int, s: Optional[np.ndarray], t: int,
                             m: int) -> List[Permutation]:
    """x -> x + 1 on Z_p, then t s t^-1 (the conjugate of s by x -> t x)
    when s is given, then x -> a x for the least unit a of order m when
    m > 1."""
    x = np.arange(p)
    gens = [Permutation((x + 1) % p)]
    if s is not None:
        conj = np.empty(p, dtype=np.int64)
        conj[t * x % p] = t * s % p
        gens.append(Permutation(conj))
    if m > 1:
        gens.append(Permutation(_unit_of_order(p, m) * x % p))
    return gens


def linear_geometries(p: int) -> List[Tuple[int, int]]:
    """Every (d, q), q a prime power, with p = (q^d - 1)/(q - 1): the
    projective spaces PG(d-1, q) with p points (31 has two)."""
    out = []
    for d in range(2, p.bit_length() + 1):
        root = round((p - 1) ** (1 / (d - 1)))
        for q in (root - 1, root, root + 1):
            if q > 1 and (q ** d - 1) // (q - 1) == p and _prime_power(q):
                out.append((d, q))
    return out


@functools.lru_cache(maxsize=None)
def linear_element(d: int, q: int) -> np.ndarray:
    """A non-affine element s of PSL(d, q) on the p = (q^d - 1)/(q - 1)
    points of PG(d-1, q) in Singer order, for prime p.

    Point i is <alpha^i>, alpha a root of the first primitive x^d - c(x)
    over F_q in index order, so x -> x + 1 is multiplication by alpha.  c
    is primitive iff x has order q^d - 1 mod x^d - c(x), which also makes
    F_q[x]/(x^d - c(x)) a field; x^e is found by squaring.  Vectors are
    coordinates over 1, alpha, ..., alpha^(d-1); the shift register of
    x^d = c(x) runs through every alpha^k once, which gives the point of
    each vector (its log mod p).  s is the first transvection
    v -> v + v_j e_i that is not affine on Z_p: PSL(d, q) is generated by
    transvections and does not normalize the shift.  As p is prime, d is
    prime and gcd(d, q - 1) = 1, so PGL(d, q) = PSL(d, q).  Built once per
    (d, q) and process.
    """
    rq = _prime_power(q)
    if rq is None or d < 2 or not _is_prime((q ** d - 1) // (q - 1)):
        raise BadDegree(f"PG({d - 1},{q}) needs a prime power q and a prime "
                        "number of points")
    p, units = (q ** d - 1) // (q - 1), q ** d - 1
    add, mul, _ = field_tables(make_field(*rq))
    add_rows, mul_rows = add.tolist(), mul.tolist()
    one = [1] + [0] * (d - 1)

    def times_x(v, c):  # v x mod x^d - c(x), on element indices
        return [add_rows[a][mul_rows[v[-1]][cj]]
                for a, cj in zip([0] + v[:-1], c)]

    def times(u, v, c):  # u v mod x^d - c(x), the sum of u_i x^i v
        acc = [0] * d
        for ui in u:
            acc = [add_rows[a][mul_rows[ui][b]] for a, b in zip(acc, v)]
            v = times_x(v, c)
        return acc

    def x_power(e, c):
        out, base = one, times_x(one, c)
        while e:
            if e & 1:
                out = times(out, base, c)
            base, e = times(base, base, c), e >> 1
        return out

    c = next(c for c in itertools.product(range(q), repeat=d)
             if c[0] and x_power(units, c) == one
             and all(x_power(units // f, c) != one
                     for f in _prime_factors(units)))
    vecs = [one]
    for _ in range(units - 1):
        vecs.append(times_x(vecs[-1], c))
    V = np.array(vecs)
    weights = q ** np.arange(d)
    log = np.empty(units + 1, dtype=np.int64)
    log[V @ weights] = np.arange(units)
    V, x = V[:p], np.arange(p)
    for i, j in itertools.permutations(range(d), 2):
        W = V.copy()
        W[:, i] = add[W[:, i], W[:, j]]
        s = log[W @ weights] % p
        if (s != ((s[1] - s[0]) * x + s[0]) % p).any():
            return s
    raise AssertionError(f"no transvection of PSL({d},{q}) is non-affine")


@functools.lru_cache(maxsize=None)
def m23_element() -> np.ndarray:
    """Conway's delta on Z_23, a non-affine element of M_23.

    M_24 = <x -> x + 1, x -> 2x, x -> -1/x, delta> on the projective line
    PL(23) (Conway & Sloane, SPLAG, ch. 10), where delta fixes 0 and
    infinity and maps x to x^3/9 on the nonzero squares and to 9x^3 on
    the non-squares.  M_23 is the stabilizer of infinity, so it holds the
    shift and delta.
    """
    squares = {x * x % 23 for x in range(1, 23)}
    return np.array([0] + [x ** 3 * pow(9, -1 if x in squares else 1, 23)
                           % 23 for x in range(1, 23)])


@functools.lru_cache(maxsize=None)
def _searched_group(field: FieldSpec, n: int, gen: Poly) -> PermGroup:
    """Per(C_{n,gen}) as its exact search returns it, with the chain the
    search proved complete: the exhaustive scan up to EXACT_CUTOFF points,
    backtracking above (which raises TooLarge when neither the code nor
    its dual can be enumerated)."""
    from .autgroup import EXACT_CUTOFF, backtrack_per_group, \
        exhaustive_per_group
    from .cyclic_code import make_code

    search = exhaustive_per_group if n <= EXACT_CUTOFF \
        else backtrack_per_group
    return search(make_code(field, n, gen))


def per_of_generators(field: FieldSpec, n: int, gen: Poly) -> List[Permutation]:
    """Exactly computed Per(C_{n,gen}), searched once per (field, n, gen)
    and process."""
    return list(_searched_group(field, n, gen).generators)


def per_of_order(field: FieldSpec, n: int, gen: Poly) -> int:
    per_of_generators(field, n, gen)  # a first search runs inside it
    return _searched_group(field, n, gen).order


def psl27_generators() -> List[Permutation]:
    """PSL(2,7) on 7 points: Per of the [7,4] code C_{7, x^3+x+1}.

    Rather than hardcoding a transcription, the group comes from the
    code's exact search, run once per process; its order is validated
    against the one that search proved.
    """
    e = _PSL27_LEAF
    if per_of_order(e.field, e.n, e.gen) != 168:
        raise AssertionError("PSL(2,7) bootstrap failed order validation")
    return per_of_generators(e.field, e.n, e.gen)


def named_group_generators(tag: str, degree: int) -> List[Permutation]:
    if tag == "Sym":
        return sym_generators(degree)
    if tag == "Cyclic":
        return cyclic_generators(degree)
    if tag == "AGL1":
        return materialize(AGL1(degree))
    if tag == "PSL2_7":
        if degree != 7:
            raise BadDegree("PSL2_7 acts on 7 points")
        return psl27_generators()
    if tag == "C31xC5":
        if degree != 31:
            raise BadDegree("C31xC5 acts on 31 points")
        return materialize(Affine(31, 5))
    raise UnknownTag(f"unknown group tag {tag!r}")


def _orbit_representatives(gens: List[Permutation]) -> List[int]:
    """The least point of each orbit of <gens>, ascending.

    Each orbit is closed over a point set, as _Level.extend_orbit closes
    a chain's orbits: forward images close an orbit of a finite group, and
    each generator's images are read once, as a list local to the call.
    """
    images = [g.array().tolist() for g in gens]
    seen = set()
    reps = []
    for p in range(gens[0].degree):
        if p in seen:
            continue
        reps.append(p)
        seen.add(p)
        todo = [p]
        while todo:
            a = todo.pop()
            for img in images:
                b = img[a]
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
    return reps


def wreath_generators(a_gens: List[Permutation], h_gens: List[Permutation],
                      layout: Layout) -> List[Permutation]:
    """Generators of A wr H on deg(A)*deg(H) points.

    One base copy of A per orbit of H (on the stride class of the orbit's
    least point) plus the lifted top generators: a top element carrying
    class j to h(j) conjugates the copy on j onto the copy on h(j), so the
    copies on one orbit generate each other (Dixon & Mortimer, Permutation
    Groups, 1996, section 2.6).  Generator count = orbits(H)*|a_gens| +
    |h_gens|, which is |a_gens| + |h_gens| for a transitive H.
    """
    if not a_gens or not h_gens:
        raise EmptyGenerators("wreath product needs generators on both sides")
    la = a_gens[0].degree
    lh = h_gens[0].degree
    n = la * lh
    grid = np.arange(n, dtype=np.int32).reshape(la, lh)
    out: List[Permutation] = []
    for j in _orbit_representatives(h_gens):
        for ga in a_gens:
            img = np.arange(n, dtype=np.int32)
            img[j::lh] = ga.array() * lh + j
            out.append(Permutation(img))
    for gh in h_gens:
        out.append(Permutation(grid[:, gh.array()].ravel()))
    return out


def crt_product_generators(p: int, q: int) -> List[Permutation]:
    """S_p x S_q inside S_pq via k <-> (k mod p, k mod q).

    The point with residues (a, b) is the unique k in [0, pq) with k = a
    mod p and k = b mod q, that is (a e_p + b e_q) mod pq for the CRT
    idempotents e_p = q (q^-1 mod p) and e_q = p (p^-1 mod q).
    """
    if p == q or not (_is_prime(p) and _is_prime(q)):
        raise NotCoprime(f"need distinct primes, got {p}, {q}")
    n = p * q
    e_p, e_q = q * pow(q, -1, p), p * pow(p, -1, q)
    k = np.arange(n, dtype=np.int64)
    a, b = k % p, k % q
    out = []
    for tau in sym_generators(p):
        out.append(Permutation((tau.array()[a] * e_p + b * e_q) % n))
    for tau in sym_generators(q):
        out.append(Permutation((a * e_p + tau.array()[b] * e_q) % n))
    return out


# -- symbolic group expressions ------------------------------------------------

@dataclass(frozen=True)
class Sym:
    n: int


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Affine:
    """{x -> a x + b : a in M} on Z_p, M the units of order dividing m:
    p:m, spelled AGL1(p) for m = p - 1 and C31xC5 for 31:5."""
    p: int
    m: int


def AGL1(p: int) -> Affine:
    return Affine(p, p - 1)


@dataclass(frozen=True)
class Linear:
    """<x -> x + 1, s^t, the units of order m> on the p = (q^d - 1)/(q - 1)
    points of PG(d-1, q) in Singer order, s = linear_element(d, q) and s^t
    its conjugate by x -> t x: PSL(d, q)^t extended by its multipliers,
    of order |PSL(d, q)| m / d (d | m | d e for q = r^e), spelled
    L(d,q;t;m)."""
    d: int
    q: int
    t: int
    m: int


@dataclass(frozen=True)
class Mathieu:
    """M_23^t = <x -> x + 1, delta^t> on Z_23 (m23_element), spelled
    M23(t)."""
    t: int


@dataclass(frozen=True)
class Named:
    tag: str  # PSL2_7


@dataclass(frozen=True)
class Wreath:
    a: "GroupExpr"
    h: "GroupExpr"
    layout: Layout


@dataclass(frozen=True)
class CrtProduct:
    p: int
    q: int


@dataclass(frozen=True)
class PerOf:
    """Permutation group of a concrete code; resolved during prediction or
    materialized through an exact search (per_of_generators)."""
    field: FieldSpec
    n: int
    gen: Poly


GroupExpr = Union[Sym, Cyclic, Affine, Linear, Mathieu, Named, Wreath,
                  CrtProduct, PerOf]

_F2 = make_field(2)
_PSL27_LEAF = PerOf(_F2, 7, poly_from_ints(_F2, [1, 1, 0, 1]))  # x^3+x+1

_NAMED_DEGREE = {"PSL2_7": 7}
_NAMED_ORDER = {"PSL2_7": 168}


def expr_degree(e: GroupExpr) -> int:
    if isinstance(e, Sym):
        return e.n
    if isinstance(e, Cyclic):
        return e.n
    if isinstance(e, Affine):
        return e.p
    if isinstance(e, Linear):
        return (e.q ** e.d - 1) // (e.q - 1)
    if isinstance(e, Mathieu):
        return 23
    if isinstance(e, Named):
        return _NAMED_DEGREE[e.tag]
    if isinstance(e, Wreath):
        return expr_degree(e.a) * expr_degree(e.h)
    if isinstance(e, CrtProduct):
        return e.p * e.q
    if isinstance(e, PerOf):
        return e.n
    raise TypeError(f"not a GroupExpr: {e!r}")


def expr_order(e: GroupExpr) -> int:
    """Theoretical order: |A wr H| = |A|^deg(H) * |H|, |S_p x S_q| = p! q!."""
    if isinstance(e, Sym):
        return math.factorial(e.n)
    if isinstance(e, Cyclic):
        return e.n
    if isinstance(e, Affine):
        return e.p * e.m
    if isinstance(e, Linear):  # |PSL(d, q)| m / d, as gcd(d, q - 1) = 1
        return e.q ** (e.d * (e.d - 1) // 2) * e.m // e.d \
            * math.prod(e.q ** i - 1 for i in range(2, e.d + 1))
    if isinstance(e, Mathieu):
        return 10_200_960
    if isinstance(e, Named):
        return _NAMED_ORDER[e.tag]
    if isinstance(e, Wreath):
        return expr_order(e.a) ** expr_degree(e.h) * expr_order(e.h)
    if isinstance(e, CrtProduct):
        return math.factorial(e.p) * math.factorial(e.q)
    if isinstance(e, PerOf):
        return per_of_order(e.field, e.n, e.gen)
    raise TypeError(f"not a GroupExpr: {e!r}")


def materialize(e: GroupExpr) -> List[Permutation]:
    """Generators of the group e, built once per expression and process.

    Every call returns a new list of the same immutable Permutations, so
    a claim, the expression derived for its code and their shared
    sub-expressions build each generator set once.  A constructor error
    (BadDegree, ...) is raised again on every call: nothing is kept for it.
    """
    return list(_generators(e))


@functools.lru_cache(maxsize=None)
def _generators(e: GroupExpr) -> Tuple[Permutation, ...]:
    return tuple(_build_generators(e))


def _build_generators(e: GroupExpr) -> List[Permutation]:
    if isinstance(e, Sym):
        return sym_generators(e.n)
    if isinstance(e, Cyclic):
        return cyclic_generators(e.n)
    if isinstance(e, Affine):
        if not _is_prime(e.p) or e.p < 3 or e.m < 1 or (e.p - 1) % e.m:
            raise BadDegree(f"{format_group_expr(e)} needs an odd prime p "
                            "and m | p - 1")
        return _prime_degree_generators(e.p, None, 1, e.m)
    if isinstance(e, Linear):
        s, (_, power) = linear_element(e.d, e.q), _prime_power(e.q)
        p = len(s)
        if e.m < 1 or e.m % e.d or e.d * power % e.m or not 0 < e.t < p:
            raise BadDegree(f"{format_group_expr(e)} needs d | m | d e and "
                            "0 < t < p")
        return _prime_degree_generators(p, s, e.t, e.m)
    if isinstance(e, Mathieu):
        if not 0 < e.t < 23:
            raise BadDegree("M23(t) needs 0 < t < 23")
        return _prime_degree_generators(23, m23_element(), e.t, 1)
    if isinstance(e, Named):
        return named_group_generators(e.tag, _NAMED_DEGREE[e.tag])
    if isinstance(e, Wreath):
        return wreath_generators(materialize(e.a), materialize(e.h), e.layout)
    if isinstance(e, CrtProduct):
        return crt_product_generators(e.p, e.q)
    if isinstance(e, PerOf):
        return per_of_generators(e.field, e.n, e.gen)
    raise TypeError(f"not a GroupExpr: {e!r}")


def expr_contains(e: GroupExpr, rows: np.ndarray) -> np.ndarray:
    """Membership of each row of an (m, deg e) image array in the group e.

    Decided block by block, with no chain of e (Seress, Permutation Group
    Algorithms, 2003).  A wreath A wr H, in either layout, is the set of
    maps (a, h) -> (alpha_h(a), pi(h)) on flat points a*deg(H) + h: a row
    is a member iff it maps the classes mod deg(H) to classes, its induced
    class permutation pi lies in H and each component alpha_h lies in A.
    x(p, q) holds iff both CRT partitions (mod p and mod q) are preserved;
    S(h) always holds.  A row is in C(n) iff it is i -> i + b, and in p:m
    iff it is i -> a i + b with a^m = 1 mod p.  The other leaves sift the
    rows through one chain per leaf expression and process (_leaf_chain).
    """
    rows = np.asarray(rows)
    ok = np.ones(len(rows), dtype=bool)
    if isinstance(e, Sym) or not len(rows) or rows.shape[1] == 1:
        return ok
    if isinstance(e, (Cyclic, Affine)):
        n = rows.shape[1]
        a, b = (rows[:, 1] - rows[:, 0]) % n, rows[:, :1]
        ok = (rows == (a[:, None] * np.arange(n) + b) % n).all(axis=1)
        if isinstance(e, Cyclic):
            return ok & (a == 1)
        units = np.zeros(n, dtype=bool)
        units[[pow(_unit_of_order(n, e.m), i, n) for i in range(e.m)]] = True
        return ok & units[a]
    if isinstance(e, Wreath):
        la, lh = expr_degree(e.a), expr_degree(e.h)
        grid = rows.reshape(len(rows), la, lh)  # [r, a, h] = row r at a*lh + h
        pi = grid[:, 0, :] % lh
        ok = (grid % lh == pi[:, None, :]).all(axis=(1, 2))
        idx = np.flatnonzero(ok)
        ok[idx] = expr_contains(e.h, pi[idx])
        idx = np.flatnonzero(ok)
        alpha = (grid[idx] // lh).transpose(0, 2, 1).reshape(-1, la)
        ok[idx] = expr_contains(e.a, alpha).reshape(len(idx), lh).all(axis=1)
        return ok
    if isinstance(e, CrtProduct):
        k = np.arange(e.p * e.q)
        for m in (e.p, e.q):
            cls = rows % m
            ok &= (cls == cls[:, k % m]).all(axis=1)
        return ok
    return _leaf_chain(e).contains_batch(rows)


@functools.lru_cache(maxsize=None)
def _leaf_chain(e: GroupExpr) -> _StabChain:
    """The stabilizer chain of a leaf of expr_contains, memoized per
    expression; contains_batch only reads it.  A searched leaf, PSL2_7
    (the [7,4] code's group) among them, has the chain its search proved
    complete, so none is built twice."""
    if e == Named("PSL2_7"):
        e = _PSL27_LEAF
    if isinstance(e, PerOf):
        per_of_generators(e.field, e.n, e.gen)  # as in per_of_order
        return _searched_group(e.field, e.n, e.gen).chain()
    return PermGroup(expr_degree(e), materialize(e)).chain()


def format_group_expr(e: GroupExpr) -> str:
    if isinstance(e, Sym):
        return f"S({e.n})"
    if isinstance(e, Cyclic):
        return f"C({e.n})"
    if isinstance(e, Affine):
        if e.m == e.p - 1:
            return f"AGL1({e.p})"
        return "C31xC5" if (e.p, e.m) == (31, 5) else f"{e.p}:{e.m}"
    if isinstance(e, Linear):
        return f"L({e.d},{e.q};{e.t};{e.m})"
    if isinstance(e, Mathieu):
        return f"M23({e.t})"
    if isinstance(e, Named):
        return e.tag
    if isinstance(e, Wreath):
        lay = "rows" if e.layout is Layout.ROW_BLOCKS else "cols"
        return f"wr({format_group_expr(e.a)}, {format_group_expr(e.h)}, {lay})"
    if isinstance(e, CrtProduct):
        return f"x({e.p},{e.q})"
    if isinstance(e, PerOf):
        from .polyring import format_poly_text
        return f"per({e.field.describe()};{e.n};{format_poly_text(e.gen)})"
    raise TypeError(f"not a GroupExpr: {e!r}")


# constructors whose arguments are integers: (make, separators)
_INTEGER_TAGS = {"S": (Sym, ()), "C": (Cyclic, ()), "AGL1": (AGL1, ()),
                 "x": (CrtProduct, (",",)), "M23": (Mathieu, ()),
                 "L": (Linear, (",", ";", ";"))}


class _Parser:
    """Recursive descent for the claim grammar; offsets are 1-based bytes."""

    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def error(self, msg: str):
        raise ExprSyntaxError(msg, self.i + 1)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.i >= len(self.text) or self.text[self.i] != ch:
            self.error(f"expected {ch!r}")
        self.i += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == start:
            self.error("expected an integer")
        return int(self.text[start:self.i])

    def word(self) -> str:
        self.skip_ws()
        start = self.i
        while self.i < len(self.text) and (self.text[self.i].isalnum()
                                           or self.text[self.i] == "_"):
            self.i += 1
        return self.text[start:self.i]

    def integers(self, seps: Tuple[str, ...]) -> List[int]:
        """'(' integer, then sep integer for each sep, then ')'."""
        self.expect("(")
        out = [self.integer()]
        for sep in seps:
            self.expect(sep)
            out.append(self.integer())
        self.expect(")")
        return out

    def expr(self) -> GroupExpr:
        w = self.word()
        if w in _INTEGER_TAGS:
            make, seps = _INTEGER_TAGS[w]
            return make(*self.integers(seps))
        if w.isdigit():
            self.expect(":")
            return Affine(int(w), self.integer())
        if w == "C31xC5":
            return Affine(31, 5)
        if w == "PSL2_7":
            return Named(w)
        if w == "wr":
            self.expect("(")
            a = self.expr()
            self.expect(",")
            h = self.expr()
            self.expect(",")
            lay = self.word()
            if lay not in ("rows", "cols"):
                if not lay:
                    raise ArityError("wr(A, H, layout) needs a layout argument")
                self.error(f"unknown layout {lay!r}")
            self.expect(")")
            return Wreath(a, h, Layout.ROW_BLOCKS if lay == "rows"
                          else Layout.COL_BLOCKS)
        if w == "per":
            # per(FIELD;N;GEN) -- concrete-code leaf, text fields split on ';'
            self.expect("(")
            close = self.text.find(")", self.i)
            if close < 0:
                self.error("unterminated per(...)")
            body = self.text[self.i:close]
            parts = body.split(";")
            if len(parts) != 3:
                raise ArityError("per(FIELD;N;GEN) takes three ';'-separated fields")
            from .galois import parse_field
            from .polyring import parse_poly_text
            fld = parse_field(parts[0])
            self.i = close + 1
            return PerOf(fld, int(parts[1]), parse_poly_text(parts[2], fld))
        self.error(f"unknown constructor {w!r}" if w else "expected an expression")

    def parse(self) -> GroupExpr:
        e = self.expr()
        self.skip_ws()
        if self.i != len(self.text):
            self.error("trailing input")
        return e


def parse_group_expr(text: str) -> GroupExpr:
    return _Parser(text).parse()
