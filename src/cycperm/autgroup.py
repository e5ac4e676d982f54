"""Computing and certifying Per(C) = {sigma in S_n | C^sigma = C}.

Three routes with different reach:

* exhaustive_per_group - scan all of S_n (small n), exact;
* backtrack_per_group  - coordinate-image backtracking with signature
  refinement and stabilizer-chain pruning (enumerable codes), exact;
* predicted_group / certify_subgroup / falsify_by_sampling - theorem-shaped
  prediction, subgroup certificates and seeded negative sampling (any n).

Membership checks everywhere reduce to "g(x) divides the permuted word":
by linearity a permutation preserves the code iff it maps the k
generator-shift basis words back into the code, which is ~q^k times
cheaper than set comparisons.  A basis word whose support the permutation
fixes pointwise maps to itself, so only the words that meet the moved
points are checked; a transposition costs at most 2*wt(g) word checks
whatever k is.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cyclic_code import (
    CyclicCodeSpec,
    DEFAULT_ENUM_CAP,
    basis_codewords,
    codeword_index_matrix,
    make_code,
)
from .errors import DegreeMismatch, NoPattern, AmbiguousPattern, TooLarge
from .galois import FieldSpec
from .group_constructors import (
    AGL1,
    CrtProduct,
    Cyclic,
    GroupExpr,
    Named,
    Sym,
    Wreath,
    expr_order,
    format_group_expr,
)
from .cyclic_code import Layout
from .permutation import (
    PermGroup,
    Permutation,
    _StabChain,
    reduce_generators,
)
from .polyring import (
    Poly,
    cyclotomic,
    factor_xn_minus_1,
    format_poly_text,
    one_poly,
    poly_divides,
    poly_from_ints,
    poly_mod,
    poly_mul,
    poly_sub,
    try_contract_power,
    x_poly,
    xn_minus_1,
)

RNG_ALGORITHM = "numpy-pcg64/fisher-yates-permutation"


class _Engine:
    """Fast membership tests for one code.

    For prime fields the reduction table x^i mod g is precomputed; over F_2
    its rows are additionally bit-packed so a whole permuted basis can be
    syndrome-checked with vectorized XOR reductions.

    A permutation sigma only changes the basis words whose support it
    moves: if sigma fixes every point of supp(x^t g), the permuted word is
    x^t g itself, which lies in C over any field.  perm_preserves therefore
    checks just the rows t with (supp g + t) meeting the moved set M, or
    all k rows when |M| * wt(g) >= k.
    """

    def __init__(self, code: CyclicCodeSpec):
        self.code = code
        f = code.field
        n, k = code.n, code.k
        self.n, self.k, self.q = n, k, f.order
        self._points = np.arange(n, dtype=np.int64)
        self._rows = np.arange(k, dtype=np.int64)
        g = code.gen
        self.g_supp = np.array([i for i, c in enumerate(g.coeffs)
                                if c != f.zero], dtype=np.int64)
        self.g_vals = np.array([f.element_index(g.coeffs[i])
                                for i in self.g_supp], dtype=np.int64)
        self.prime_field = f.alpha == 1
        if self.prime_field and g.degree >= 1:
            r = f.r
            m = g.degree
            gv = np.array([c[0] for c in g.coeffs], dtype=np.int64)
            R = np.zeros((n, m), dtype=np.int64)
            for i in range(min(m, n)):
                R[i, i] = 1
            for i in range(m, n):
                prev = R[i - 1]
                row = np.zeros(m, dtype=np.int64)
                row[1:] = prev[:-1]
                c = prev[m - 1]
                if c:
                    row = (row - c * gv[:m]) % r
                R[i] = row % r
            self.R = R
            if r == 2:
                # bit b of lane b >> 6 holds column b
                lanes = (m + 63) // 64
                bits = np.zeros((n, 64 * lanes), dtype=np.uint8)
                bits[:, :m] = R
                self.packed = np.packbits(bits, axis=1, bitorder="little") \
                    .view("<u8").astype(np.uint64)
            else:
                self.packed = None
        else:
            self.R = None
            self.packed = None

    def perm_preserves(self, sigma: np.ndarray,
                       first_failure: bool = False) -> Tuple[bool, Optional[int]]:
        """Does sigma map every basis word back into the code?

        Returns (ok, failing basis index), the index being the smallest
        failing one.  Only the basis words sigma can change are checked.
        With first_failure the first of them is checked on its own before
        the rest are built (sampling fast path).
        """
        code = self.code
        if code.k == 0:
            return True, None
        if self.R is None:
            return self._perm_preserves_generic(sigma, first_failure)
        sigma = np.asarray(sigma, dtype=np.int64)
        moved = sigma != self._points
        if np.count_nonzero(moved) * self.g_supp.size >= self.k:
            rows = self._rows
        else:
            rows = np.unique(np.flatnonzero(moved)[:, None] - self.g_supp[None, :])
            rows = rows[(rows >= 0) & (rows < self.k)]
        inv = np.empty(self.n, dtype=np.int64)
        inv[sigma] = self._points
        for batch in ((rows[:1], rows[1:]) if first_failure else (rows,)):
            if batch.size == 0:
                continue
            bad = self._bad_rows(inv[self.g_supp[None, :] + batch[:, None]])
            if bad.size:
                return False, int(batch[bad[0]])
        return True, None

    def _bad_rows(self, idx: np.ndarray) -> np.ndarray:
        """Rows of idx (permuted-word supports, one word per row) not in C."""
        if self.packed is not None:
            syn = np.bitwise_xor.reduce(self.packed[idx], axis=1)
        else:
            r = self.code.field.r
            syn = np.zeros((idx.shape[0], self.R.shape[1]), dtype=np.int64)
            for j in range(idx.shape[1]):
                syn += self.g_vals[j] * self.R[idx[:, j]]
            syn %= r
        return np.flatnonzero(syn.any(axis=1))

    def _perm_preserves_generic(self, sigma, first_failure):
        code = self.code
        f = code.field
        n = code.n
        sigma = [int(s) for s in sigma]
        for t in range(code.k):
            word = [f.zero] * n
            for pos, c in zip(self.g_supp, self.g_vals):
                word[int(pos) + t] = f.element_of_index(int(c))
            permuted = tuple(word[sigma[i]] for i in range(n))
            from .polyring import make_poly
            if not poly_mod(make_poly(f, permuted), code.gen).is_zero():
                return False, t
        return True, None


# ---------------------------------------------------------------------------
# exhaustive search


def _scan_permutations(args):
    """Worker: scan permutations with the given first images.

    Iterates tau = sigma^{-1}; the packed key of the sigma-permuted basis
    word is sum(val_j * q^{tau(pos_j)}), so no tuples are materialized.
    """
    n, firsts, supports, powq, keys = args
    found = []
    pts = list(range(n))
    s0 = supports[0]
    rest_supports = supports[1:]
    for v in firsts:
        others = [p for p in pts if p != v]
        for tail in itertools.permutations(others):
            tau = (v,) + tail
            acc = 0
            for p_, c_ in s0:
                acc += c_ * powq[tau[p_]]
            if acc not in keys:
                continue
            ok = True
            for sup in rest_supports:
                acc = 0
                for p_, c_ in sup:
                    acc += c_ * powq[tau[p_]]
                if acc not in keys:
                    ok = False
                    break
            if ok:
                found.append(tau)
    return found


def _worker_count(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("CYCPERM_WORKERS")
    return max(1, int(env)) if env else 1


def exhaustive_per_group(code: CyclicCodeSpec, cutoff: int = 12,
                         workers: Optional[int] = None) -> PermGroup:
    """Per(C) by scanning all n! permutations with early-exit basis checks."""
    n = code.n
    if n > cutoff:
        raise TooLarge(f"n={n} exceeds the exhaustive cutoff {cutoff}")
    f = code.field
    q = f.order
    if code.k == 0:
        from .group_constructors import sym_generators
        return PermGroup(n, sym_generators(n))
    if q ** code.k > DEFAULT_ENUM_CAP:
        raise TooLarge("codeword set too large to enumerate for the scan")
    rows = codeword_index_matrix(code)
    powq = [q ** i for i in range(n)]
    keys = set()
    for row in rows:
        keys.add(sum(int(c) * powq[i] for i, c in enumerate(row) if c))
    supports = []
    for t in range(code.k):
        supports.append(tuple((int(p) + t, int(c))
                              for p, c in zip(_engine_supp(code), _engine_vals(code))))
    nworkers = _worker_count(workers)
    firsts = list(range(n))
    if nworkers == 1:
        found = _scan_permutations((n, firsts, supports, powq, keys))
    else:
        import multiprocessing as mp
        chunks = [(n, [v], supports, powq, keys) for v in firsts]
        with mp.get_context("fork").Pool(nworkers) as pool:
            parts = pool.map(_scan_permutations, chunks)
        found = [t for part in parts for t in part]
    found.sort()
    perms = []
    for tau in found:
        inv = [0] * n
        for i, j in enumerate(tau):
            inv[j] = i
        perms.append(Permutation(inv))
    gens = reduce_generators(perms, n)
    group = PermGroup(n, gens)
    if group.order != len(perms):
        raise AssertionError("exhaustive scan produced a non-group")
    return group


def _engine_supp(code):
    f = code.field
    return [i for i, c in enumerate(code.gen.coeffs) if c != f.zero]


def _engine_vals(code):
    f = code.field
    return [f.element_index(c) for c in code.gen.coeffs if c != f.zero]


# ---------------------------------------------------------------------------
# backtracking with signature refinement


def _intern(table: Dict, key) -> int:
    return table.setdefault(key, len(table))


def _coordinate_structure(code: CyclicCodeSpec, cap: int, W=None):
    """Colors and pair classes from codeword statistics.

    sig(i) counts codewords by (weight, value at i); pair(i,j) counts by
    (weight, value at i, value at j).  Both are invariant under any code
    automorphism, so they are sound pruning data.  Colors are then refined
    two Weisfeiler-Leman-style rounds using the pair classes.
    """
    if W is None:
        W = codeword_index_matrix(code, cap)
    n = code.n
    q = code.field.order
    wts = np.count_nonzero(W, axis=1).astype(np.int64)
    wspan = n + 1
    sig_tab: Dict = {}
    colors = []
    for i in range(n):
        counts = np.bincount(wts * q + W[:, i], minlength=wspan * q)
        colors.append(_intern(sig_tab, tuple(counts.tolist())))
    pair_tab: Dict = {}
    pair = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        base_i = wts * q + W[:, i]
        for j in range(n):
            if i == j:
                pair[i, j] = -1
                continue
            counts = np.bincount(base_i * q + W[:, j], minlength=wspan * q * q)
            pair[i, j] = _intern(pair_tab, tuple(counts.tolist()))
    for _ in range(2):
        ref_tab: Dict = {}
        new_colors = []
        for i in range(n):
            nbhd = sorted((int(pair[i, j]), int(pair[j, i]), colors[j])
                          for j in range(n) if j != i)
            new_colors.append(_intern(ref_tab, (colors[i], tuple(nbhd))))
        colors = new_colors
    return np.array(colors), pair


def backtrack_per_group(code: CyclicCodeSpec,
                        cap: int = DEFAULT_ENUM_CAP) -> PermGroup:
    """Exact Per(C) via backtracking over coordinate images.

    A partial map may only send i to j with identical refined colors and
    matching pair classes against everything already placed; complete maps
    are accepted iff every basis word maps into the code.  Found
    automorphisms feed a stabilizer chain so cosets already covered are
    skipped (orbit pruning along the first-point spine).

    Since Per(C) = Per(C^dual), the search runs against whichever of the
    two codes has fewer codewords; high-rate codes have nearly uniform
    codeword statistics, while their low-dimensional duals prune sharply.
    """
    n = code.n
    if code.k > n - code.k:
        code = make_code(code.field, n, code.dual_gen)
    engine = _Engine(code)
    W = codeword_index_matrix(code, cap)
    colors, pair = _coordinate_structure(code, cap, W)
    q = code.field.order
    N = W.shape[0]

    # word-image masks: tracked word c must map onto some codeword, and
    # assigning sigma(i) = j forces (c^sigma)[i] = c[j].
    track_words = N <= 512
    if N <= 8192:
        pos_val = [[0] * q for _ in range(n)]
        for i in range(n):
            col = W[:, i]
            for v in range(q):
                bits = np.nonzero(col == v)[0]
                acc = 0
                for b in bits:
                    acc |= 1 << int(b)
                pos_val[i][v] = acc
        tracked = W if track_words else np.array(basis_codewords(code))
        full_mask = (1 << N) - 1
    else:
        pos_val = None
        tracked = np.empty((0, n), dtype=np.int64)
        full_mask = 0

    chain = _StabChain(n)
    found: List[Permutation] = []

    def note(perm_images) -> None:
        p = Permutation(perm_images)
        if not chain.contains(p.array()):
            chain.extend([p.array()])
            found.append(p)

    # seed with the cyclic shift, and the multiplier when gcd(n, q) = 1
    shift = Permutation([(i + 1) % n for i in range(n)])
    ok, _ = engine.perm_preserves(shift.array())
    if ok:
        note(shift.images)
    if _gcd(n, code.field.order) == 1:
        mult = Permutation([(code.field.order * i) % n for i in range(n)])
        ok, _ = engine.perm_preserves(mult.array())
        if ok:
            note(mult.images)

    def compatible(i: int, j: int, assigned: List[Tuple[int, int]]) -> bool:
        if colors[i] != colors[j]:
            return False
        for i0, j0 in assigned:
            if pair[i, i0] != pair[j, j0] or pair[i0, i] != pair[j0, j]:
                return False
        return True

    def filter_masks(masks: List[int], i: int, j: int) -> Optional[List[int]]:
        if pos_val is None:
            return masks
        out = []
        for t in range(len(masks)):
            m = masks[t] & pos_val[i][int(tracked[t][j])]
            if not m:
                return None
            out.append(m)
        return out

    def dfs_complete(assigned: List[Tuple[int, int]], used: set,
                     masks: List[int]) -> Optional[List[int]]:
        if len(assigned) == n:
            images = [0] * n
            for i, j in assigned:
                images[i] = j
            ok, _ = engine.perm_preserves(np.array(images, dtype=np.int64))
            return images if ok else None
        placed = {a for a, _ in assigned}
        best_i, best_cands = None, None
        for i in range(n):
            if i in placed:
                continue
            cands = [j for j in range(n)
                     if j not in used and compatible(i, j, assigned)]
            if best_cands is None or len(cands) < len(best_cands):
                best_i, best_cands = i, cands
                if not cands:
                    return None
        for j in best_cands:
            nxt = filter_masks(masks, best_i, j)
            if nxt is None:
                continue
            assigned.append((best_i, j))
            used.add(j)
            res = dfs_complete(assigned, used, nxt)
            if res is not None:
                return res
            assigned.pop()
            used.discard(j)
        return None

    def generate(d: int):
        """Ensure the chain holds all of Per(C) fixing 0..d-1 pointwise."""
        if d >= n - 1:
            return
        generate(d + 1)
        prefix = [(i, i) for i in range(d)]
        base_masks = [full_mask] * len(tracked) if pos_val is not None else []
        for i in range(d):
            nxt = filter_masks(base_masks, i, i)
            if nxt is None:
                return
            base_masks = nxt
        for j in range(n):
            if j == d:
                continue
            if not compatible(d, j, prefix):
                continue
            if j in chain.orbit_at(d):
                continue
            masks = filter_masks(base_masks, d, j)
            if masks is None:
                continue
            assigned = prefix + [(d, j)]
            used = set(range(d)) | {j}
            res = dfs_complete(list(assigned), used, masks)
            if res is not None:
                note(res)

    generate(0)
    gens = reduce_generators(found, n) if found else [Permutation(range(n))]
    group = PermGroup(n, gens)
    group._chain = chain
    return group


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# theorem-driven prediction


def _v_p(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _prime_divisors(n: int) -> List[int]:
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


def _quadratic_residues(p: int) -> frozenset:
    return frozenset((x * x) % p for x in range(1, p))


def _leaf_expr(field: FieldSpec, p: int, g: Poly) -> GroupExpr:
    """Per(C_{p,g}) for prime p as a symbolic tag.

    p <= 12 resolves by exhaustive search; larger primes use the multiplier
    stabilizer of the defining set, guarded against the exceptional
    families (quadratic-residue codes, single-coset projective codes) whose
    groups this artifact does not construct.
    """
    if g.degree == p:
        raise NoPattern("zero code at prime length")
    if g.degree == 0:
        raise NoPattern("full space; not a proper cyclic code pattern")
    if g.degree == 1:
        if g == poly_sub(x_poly(field), one_poly(field)):
            return Sym(p)
        raise NoPattern("degree-1 generator other than x-1 is not covered")
    if g.degree == p - 1:
        return Sym(p)  # repetition code
    if p <= 12:
        from .group_constructors import PerOf, per_of_order
        order = per_of_order(field, p, g)
        if order == _factorial(p):
            return Sym(p)
        if p == 7 and order == 168 \
                and g == poly_from_ints(field, [1, 1, 0, 1]):
            return Named("PSL2_7")
        if order == p * (p - 1):
            return AGL1(p)
        if order == p:
            return Cyclic(p)
        # concrete leaf: exhaustively solved, no canonical name applies
        # (the named groups are multiplier-canonical subgroups; a group like
        # the reciprocal-code copy of PSL(2,7) is conjugate but not equal)
        return PerOf(field, p, g)
    # p > 12: classify by the multiplier stabilizer of the defining set
    q = field.order
    defining = set()
    cos_of = {}
    seen = set()
    for s in range(p):
        if s in seen:
            continue
        cos = []
        cur = s
        while cur not in seen:
            seen.add(cur)
            cos.append(cur)
            cur = (cur * q) % p
        fz = frozenset(cos)
        for c in cos:
            cos_of[c] = fz
    # root exponents of g: coset minimal polys dividing g
    from .polyring import _get_ext, _multiplicative_order
    for fac, _m in factor_xn_minus_1(p, field):
        if poly_divides(fac, g):
            if fac.degree == 1 and fac == poly_sub(x_poly(field), one_poly(field)):
                defining.add(0)
            else:
                # identify the coset with matching size; disambiguate by
                # direct root containment in the splitting field
                for fz in set(cos_of.values()):
                    if len(fz) == fac.degree and 0 not in fz:
                        if _coset_matches_factor(field, p, fz, fac):
                            defining |= fz
                            break
    nonzero = frozenset(defining - {0})
    qr = _quadratic_residues(p)
    if nonzero and (nonzero == qr or nonzero == frozenset(range(1, p)) - qr):
        raise NoPattern("quadratic-residue family: exceptional group out of scope")
    ncosets = {cos_of[c] for c in nonzero}
    if len(ncosets) == 1 or len({cos_of[c] for c in range(1, p)} - ncosets) == 1:
        raise NoPattern("single-coset (projective) family out of scope")
    stab = [a for a in range(1, p)
            if frozenset((a * z) % p for z in defining) == frozenset(defining)]
    m = len(stab)
    if m == 1:
        return Cyclic(p)
    if m == p - 1:
        return AGL1(p)
    if p == 31 and m == 5:
        return Named("C31xC5")
    raise NoPattern(f"no named tag for multiplier order {m} at p={p}")


_COSET_ROOT_CACHE: Dict = {}


def _coset_matches_factor(field: FieldSpec, p: int, coset: frozenset,
                          fac: Poly) -> bool:
    """Does fac vanish on gamma^s for s in the coset?  (One test suffices.)"""
    from .polyring import _get_ext, _multiplicative_order
    key = (field, p)
    if key not in _COSET_ROOT_CACHE:
        d = _multiplicative_order(field.order, p)
        ext = _get_ext(field, d)
        _COSET_ROOT_CACHE[key] = (ext, ext.root_of_unity(p))
    ext, gamma = _COSET_ROOT_CACHE[key]
    s = min(coset)
    root = ext.pow(gamma, s)
    # evaluate fac at root inside the extension (index-form elements)
    acc = ext.zero_el.copy()
    power = ext.one.copy()
    for c in fac.coeffs:
        ci = field.element_index(c)
        if ci:
            acc = ext.add(acc, ext.mul_t[ci, power])
        power = ext.mul(power, root)
    return not acc.any()


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def predicted_group(code: CyclicCodeSpec) -> GroupExpr:
    """Match the code against the length-hp / length-r^m p^n / length-pq
    shapes and return the predicted group expression.

    Patterns are tried in precedence (pq-cyclotomic) > (power substitution)
    > (plain hp); every matching pattern is evaluated and their theoretical
    orders must agree.
    """
    field = code.field
    n, g, r = code.n, code.gen, code.field.r
    matches: List[Tuple[int, GroupExpr]] = []

    # (c) n = h p q with cyclotomic-product generators
    primes = [p for p in _prime_divisors(n) if p != r]
    for ia in range(len(primes)):
        for ib in range(ia + 1, len(primes)):
            p, q2 = primes[ia], primes[ib]
            h = n // (p * q2)
            if n % (p * q2):
                continue
            qp, qq = cyclotomic(p, field), cyclotomic(q2, field)
            if h == 1:
                shapes = [cyclotomic(p * q2, field),
                          poly_mul(poly_mul(poly_sub(x_poly(field), one_poly(field)), qp), qq),
                          poly_mul(qp, qq)]
                if any(g == s for s in shapes):
                    matches.append((0, CrtProduct(p, q2)))
            else:
                if g == poly_mul(qp, qq):
                    matches.append((0, Wreath(Sym(h), CrtProduct(p, q2),
                                              Layout.ROW_BLOCKS)))

    # (b) g = g0(x^{r^u p^v}) with g0 | x^p - 1
    for p in primes:
        m = _v_p(n, r)
        np_ = _v_p(n, p)
        h = n // (r ** m * p ** np_)
        for u in range(m + 1):
            for v in range(np_):
                t = r ** u * p ** v
                if t == 1:
                    continue
                if n % t:
                    continue
                g0 = try_contract_power(g, t)
                if g0 is None or g0.degree < 1:
                    continue
                if not poly_divides(g0, xn_minus_1(field, p)):
                    continue
                inner_n = h * r ** (m - u) * p ** (np_ - v)
                try:
                    if inner_n == p:
                        inner = _leaf_expr(field, p, g0)
                    else:
                        inner = predicted_group(make_code(field, inner_n, g0))
                except NoPattern:
                    continue
                matches.append((1, Wreath(inner, Sym(t), Layout.COL_BLOCKS)))

    # (a) n = h p with g | x^p - 1, deg g > 1
    for p in primes:
        h = n // p
        if g.degree <= 1 and h > 1:
            continue
        if g.degree >= p and h > 1:
            continue
        if not poly_divides(g, xn_minus_1(field, p)):
            continue
        try:
            leaf = _leaf_expr(field, p, g)
        except NoPattern:
            continue
        if h == 1:
            matches.append((2, leaf))
        elif g.degree > 1:
            matches.append((2, Wreath(Sym(h), leaf, Layout.ROW_BLOCKS)))

    if not matches:
        raise NoPattern(f"no theorem pattern applies to {code.describe()}")
    orders = {expr_order(e) for _, e in matches}
    if len(orders) > 1:
        raise AmbiguousPattern(
            f"patterns disagree on the order: { {format_group_expr(e): expr_order(e) for _, e in matches} }")
    matches.sort(key=lambda t: t[0])
    return matches[0][1]


# ---------------------------------------------------------------------------
# certification and sampling


@dataclass
class VerificationReport:
    code: dict
    method: str
    predicted: Optional[str] = None
    predicted_order: Optional[int] = None
    computed_order: Optional[int] = None
    certified: Optional[bool] = None
    equal: Optional[bool] = None
    counterexamples: list = dc_field(default_factory=list)
    trials: Optional[int] = None
    seed: Optional[int] = None
    rng_algorithm: Optional[str] = None
    elapsed_ms: int = 0

    def to_json_dict(self) -> dict:
        return {
            "code": self.code,
            "method": self.method,
            "predicted": self.predicted,
            "predicted_order": None if self.predicted_order is None
            else str(self.predicted_order),
            "computed_order": None if self.computed_order is None
            else str(self.computed_order),
            "certified": self.certified,
            "equal": self.equal,
            "counterexamples": self.counterexamples,
            "trials": self.trials,
            "seed": self.seed,
            "rng_algorithm": self.rng_algorithm,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "VerificationReport":
        return cls(
            code=d["code"],
            method=d["method"],
            predicted=d.get("predicted"),
            predicted_order=None if d.get("predicted_order") is None
            else int(d["predicted_order"]),
            computed_order=None if d.get("computed_order") is None
            else int(d["computed_order"]),
            certified=d.get("certified"),
            equal=d.get("equal"),
            counterexamples=d.get("counterexamples", []),
            trials=d.get("trials"),
            seed=d.get("seed"),
            rng_algorithm=d.get("rng_algorithm"),
            elapsed_ms=d.get("elapsed_ms", 0),
        )


def report_passed(rep: VerificationReport) -> bool:
    """The pass/fail verdict of a report: certified, not unequal, and
    without counterexamples."""
    return (rep.certified is not False and rep.equal is not False
            and not rep.counterexamples)


def _code_descriptor(code: CyclicCodeSpec) -> dict:
    return {"field": code.field.describe(), "n": code.n,
            "gen": format_poly_text(code.gen)}


def certify_subgroup(code: CyclicCodeSpec, gens: Sequence[Permutation],
                     claim: Optional[GroupExpr] = None,
                     compute_order: bool = True,
                     engine: Optional[_Engine] = None) -> VerificationReport:
    """Check that every generator preserves the code (basis-word test).

    certified = all (generator, basis word) checks pass; failures are
    reported as counterexamples carrying the failing basis index.  The
    Schreier-Sims order of <gens> is included unless disabled (large
    degrees), and the symbolic order of the claim when one is attached.
    A caller that also samples the same code passes its engine in.
    """
    t0 = time.perf_counter()
    if engine is None:
        engine = _Engine(code)
    counterexamples = []
    certified = True
    for p in gens:
        if p.degree != code.n:
            raise DegreeMismatch(
                f"generator degree {p.degree} != n={code.n}")
        ok, bad = engine.perm_preserves(p.array())
        if not ok:
            certified = False
            counterexamples.append({"images": list(p.images),
                                    "basis_index": bad})
    report = VerificationReport(
        code=_code_descriptor(code),
        method="Certify",
        certified=certified,
        counterexamples=counterexamples,
    )
    if claim is not None:
        report.predicted = format_group_expr(claim)
        report.predicted_order = expr_order(claim)
    if compute_order and gens:
        report.computed_order = PermGroup(code.n, list(gens)).order
        if report.predicted_order is not None:
            report.equal = report.computed_order == report.predicted_order
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def falsify_by_sampling(code: CyclicCodeSpec, claimed: PermGroup,
                        trials: int, seed: int,
                        engine: Optional[_Engine] = None) -> VerificationReport:
    """Seeded random search for code-preserving permutations outside the
    claimed group.  Same seed gives the identical trial stream everywhere;
    an empty counterexample list is evidence, not proof.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    if engine is None:
        engine = _Engine(code)
    rng = np.random.default_rng(seed)
    n = code.n
    counterexamples = []
    for _ in range(trials):
        sigma = rng.permutation(n)
        ok, _bad = engine.perm_preserves(sigma, first_failure=True)
        if ok:
            p = Permutation(sigma)
            if not claimed.contains(p):
                counterexamples.append({"images": list(p.images),
                                        "basis_index": None})
    report = VerificationReport(
        code=_code_descriptor(code),
        method="Sample",
        certified=None,
        counterexamples=counterexamples,
        trials=trials,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
    )
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report
