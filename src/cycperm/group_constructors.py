"""Materialize the predicted groups as explicit permutation generators.

Covers wreath products in both matrix layouts, CRT direct products
S_p x S_q inside S_pq, the named prime-length comparison groups, a
parser/printer for symbolic group expressions, and membership in an
expression decided block by block (expr_contains).

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
import math
from dataclasses import dataclass
from typing import List, Union

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
from .galois import FieldSpec, _is_prime, make_field
from .permutation import PermGroup, Permutation, _StabChain, identity_perm, \
    perm_from_cycles
from .polyring import Poly, poly_from_ints


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


def _smallest_primitive_root(p: int) -> int:
    from .polyring import _prime_factors
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise BadDegree(f"no primitive root mod {p}")


def agl1_generators(p: int) -> List[Permutation]:
    """AGL(1,p) = {x -> a x + b}: translation plus smallest-root scaling."""
    if not _is_prime(p) or p < 3:
        raise BadDegree("AGL(1,p) needs an odd prime p")
    g = _smallest_primitive_root(p)
    return [Permutation([(i + 1) % p for i in range(p)]),
            Permutation([(g * i) % p for i in range(p)])]


def c31_c5_generators() -> List[Permutation]:
    return [Permutation([(i + 1) % 31 for i in range(31)]),
            Permutation([(2 * i) % 31 for i in range(31)])]


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
        return agl1_generators(degree)
    if tag == "PSL2_7":
        if degree != 7:
            raise BadDegree("PSL2_7 acts on 7 points")
        return psl27_generators()
    if tag == "C31xC5":
        if degree != 31:
            raise BadDegree("C31xC5 acts on 31 points")
        return c31_c5_generators()
    raise UnknownTag(f"unknown group tag {tag!r}")


def _orbit_representatives(gens: List[Permutation]) -> List[int]:
    """The least point of each orbit of <gens>, ascending."""
    arrays = [g.array() for g in gens]
    seen = np.zeros(gens[0].degree, dtype=bool)
    reps = []
    for p in range(len(seen)):
        if seen[p]:
            continue
        reps.append(p)
        seen[p] = True
        front = np.array([p])
        while front.size:  # forward images close an orbit of a finite group
            hit = np.zeros_like(seen)
            hit[np.concatenate([a[front] for a in arrays])] = True
            front = np.flatnonzero(hit & ~seen)
            seen[front] = True
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
class AGL1:
    p: int


@dataclass(frozen=True)
class Named:
    tag: str  # PSL2_7 | C31xC5


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


GroupExpr = Union[Sym, Cyclic, AGL1, Named, Wreath, CrtProduct, PerOf]

_F2 = make_field(2)
_PSL27_LEAF = PerOf(_F2, 7, poly_from_ints(_F2, [1, 1, 0, 1]))  # x^3+x+1

_NAMED_DEGREE = {"PSL2_7": 7, "C31xC5": 31}
_NAMED_ORDER = {"PSL2_7": 168, "C31xC5": 155}


def expr_degree(e: GroupExpr) -> int:
    if isinstance(e, Sym):
        return e.n
    if isinstance(e, Cyclic):
        return e.n
    if isinstance(e, AGL1):
        return e.p
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
    if isinstance(e, AGL1):
        return e.p * (e.p - 1)
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
    if isinstance(e, Sym):
        return sym_generators(e.n)
    if isinstance(e, Cyclic):
        return cyclic_generators(e.n)
    if isinstance(e, AGL1):
        return agl1_generators(e.p)
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
    S(h) always holds.  The other leaves (degree <= 35 in the table) sift
    the rows through one chain per leaf expression and process
    (_leaf_chain).
    """
    rows = np.asarray(rows)
    ok = np.ones(len(rows), dtype=bool)
    if isinstance(e, Sym) or not len(rows):
        return ok
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
    if isinstance(e, AGL1):
        return f"AGL1({e.p})"
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

    def expr(self) -> GroupExpr:
        w = self.word()
        if w == "S":
            self.expect("(")
            n = self.integer()
            self.expect(")")
            return Sym(n)
        if w == "C":
            self.expect("(")
            n = self.integer()
            self.expect(")")
            return Cyclic(n)
        if w == "AGL1":
            self.expect("(")
            n = self.integer()
            self.expect(")")
            return AGL1(n)
        if w in ("PSL2_7", "C31xC5"):
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
        if w == "x":
            self.expect("(")
            p = self.integer()
            self.expect(",")
            q = self.integer()
            self.expect(")")
            return CrtProduct(p, q)
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
