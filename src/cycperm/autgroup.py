"""Computing and certifying Per(C) = {sigma in S_n | C^sigma = C}.

Three routes with different reach:

* exhaustive_per_group - scan all of S_n (small n) in blocks, exact;
* backtrack_per_group  - coordinate-image backtracking over a candidate
  matrix refined by pair classes, with stabilizer-chain pruning
  (enumerable codes), exact;
* predicted_group / certify_subgroup / falsify_by_sampling - theorem-shaped
  prediction, subgroup certificates and seeded negative sampling (any n).

verify_claim is the one place that combines a certificate, an order,
sampling and an exact search into a VerificationReport.

Membership checks everywhere reduce to "g(x) divides the permuted word":
by linearity a permutation preserves the code iff it maps the k
generator-shift basis words back into the code, which is ~q^k times
cheaper than set comparisons.  One engine (_Engine) does this for every
route, the exhaustive scan included, and every field with q <= 4096: a
table of x^i mod g over element indices, with bit-packed XOR syndromes
over F_2 and table-accumulated syndromes over every other field.  A basis
word whose support the permutation fixes pointwise maps to itself, so
only the words that meet the moved points are checked; a transposition
costs at most 2*wt(g) word checks whatever k is.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field as dc_field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cyclic_code import (
    CyclicCodeSpec,
    DEFAULT_ENUM_CAP,
    basis_codewords,
    codeword_index_matrix,
    make_code,
)
from .errors import DegreeMismatch, NoPattern, AmbiguousPattern, TooLarge
from .galois import FieldSpec, field_tables
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
    materialize,
)
from .cyclic_code import Layout
from .permutation import (
    PermGroup,
    Permutation,
    _StabChain,
    groups_equal,
    reduce_generators,
)
from .polyring import (
    Poly,
    _indices,
    _labelled_factors,
    _prime_factors,
    _xpow_table,
    cyclotomic,
    format_poly_text,
    one_poly,
    poly_divides,
    poly_from_ints,
    poly_mul,
    poly_sub,
    try_contract_power,
    x_poly,
    xn_minus_1,
)

RNG_ALGORITHM = "numpy-pcg64/fisher-yates-permutation"


class _Engine:
    """Fast membership tests for one code, over any field with q <= 4096.

    The reduction table R[i] = x^i mod g is precomputed over element indices
    with the field's add/mul/neg tables.  Over F_2 its rows are bit-packed
    so a whole permuted basis is syndrome-checked with vectorized XOR
    reductions; over every other field the syndromes are accumulated with
    the same tables.

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
        self._add, mul, _ = field_tables(f)
        gidx = _indices(code.gen)
        self.g_supp = np.flatnonzero(gidx)
        self.g_vals = gidx[self.g_supp]
        self._g_mul = mul[self.g_vals]  # row j: times the j-th nonzero g_i
        m = code.gen.degree
        self.R = R = _xpow_table(f, gidx, n)
        if self.q == 2:
            # bit b of lane b >> 6 holds column b
            lanes = (m + 63) // 64
            bits = np.zeros((n, 64 * lanes), dtype=np.uint8)
            bits[:, :m] = R
            self.packed = np.packbits(bits, axis=1, bitorder="little") \
                .view("<u8").astype(np.uint64)

    def perm_preserves(self, sigma: np.ndarray,
                       first_failure: bool = False) -> Tuple[bool, Optional[int]]:
        """Does sigma map every basis word back into the code?

        Returns (ok, failing basis index), the index being the smallest
        failing one.  Only the basis words sigma can change are checked.
        With first_failure the first of them is checked on its own before
        the rest are built (sampling fast path).
        """
        if self.k == 0:
            return True, None
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

    def preserving_inverses(self, taus: np.ndarray) -> np.ndarray:
        """Indices of the rows tau = sigma^{-1} of taus whose sigma
        preserves the code; basis word t is checked only on the rows that
        passed the words before it."""
        keep = np.arange(taus.shape[0])
        for t in range(self.k):
            bad = self._bad_rows(taus[:, self.g_supp + t])
            if bad.size:
                good = np.ones(taus.shape[0], dtype=bool)
                good[bad] = False
                keep, taus = keep[good], taus[good]
        return keep

    def _bad_rows(self, idx: np.ndarray) -> np.ndarray:
        """Rows of idx (permuted-word supports, one word per row) not in C."""
        if self.q == 2:
            syn = np.bitwise_xor.reduce(self.packed[idx], axis=1)
        else:
            syn = self._g_mul[0][self.R[idx[:, 0]]]
            for j in range(1, idx.shape[1]):
                syn = self._add[syn, self._g_mul[j][self.R[idx[:, j]]]]
        return np.flatnonzero(syn.any(axis=1))


# ---------------------------------------------------------------------------
# exhaustive search

_TAIL = 7  # a scan block runs over every ordering of its last 7 images


def _scan_permutations(args):
    """Worker: the rows tau = sigma^{-1} with first image v whose sigma
    preserves the code, as one array in lexicographic order.

    A block fixes tau[0] = v and a prefix, and takes every ordering of the
    remaining points from the table of orderings.  Prefixes and orderings
    both run in lexicographic order, so the kept rows do too.
    """
    engine, orderings, v = args
    n, tail = engine.n, orderings.shape[1]
    others = [p for p in range(n) if p != v]
    block = np.empty((len(orderings), n), dtype=np.int64)
    block[:, 0] = v
    found = []
    for prefix in itertools.permutations(others, n - 1 - tail):
        free = np.ones(n, dtype=bool)
        free[[v, *prefix]] = False
        block[:, 1:n - tail] = prefix
        block[:, n - tail:] = np.flatnonzero(free)[orderings]
        found.append(block[engine.preserving_inverses(block)])
    return np.concatenate(found)


def exhaustive_per_group(code: CyclicCodeSpec, cutoff: int = 12,
                         workers: int = 1) -> PermGroup:
    """Per(C) by scanning all n! permutations, as blocks of their inverses
    checked by _Engine.preserving_inverses one basis word at a time."""
    n = code.n
    if n > cutoff:
        raise TooLarge(f"n={n} exceeds the exhaustive cutoff {cutoff}")
    if code.k == 0:
        from .group_constructors import sym_generators
        return PermGroup(n, sym_generators(n))
    engine = _Engine(code)
    tail = range(min(_TAIL, n - 1))
    orderings = np.array(list(itertools.permutations(tail)), dtype=np.int64)
    chunks = [(engine, orderings, v) for v in range(n)]
    if workers <= 1:
        parts = map(_scan_permutations, chunks)
    else:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(workers) as pool:
            parts = pool.map(_scan_permutations, chunks)
    found = np.concatenate(list(parts))  # first images ascending
    group = PermGroup(n, reduce_generators(np.argsort(found, axis=1), n))
    if group.order != len(found):
        raise AssertionError("exhaustive scan produced a non-group")
    return group


# ---------------------------------------------------------------------------
# backtracking with signature refinement


_GRAM_ROWS = 4096  # codewords per indicator block of a Gram product


def _first_occurrence_ids(rows: np.ndarray) -> np.ndarray:
    """Equal rows get equal ids, numbered in order of first occurrence."""
    table: Dict[bytes, int] = {}
    return np.array([table.setdefault(key, len(table))
                     for key in map(bytes, rows)], dtype=np.int64)


def _coordinate_structure(code: CyclicCodeSpec, cap: int, W=None):
    """Colors and pair classes from codeword statistics.

    sig(i) counts codewords by (weight, value at i); pair(i,j) counts by
    (weight, value at i, value at j).  Both are invariant under any code
    automorphism, so they are sound pruning data.  Colors are then refined
    two Weisfeiler-Leman-style rounds using the pair classes.

    With E_{w,a} the 0/1 indicator (words of weight w x coordinates) of
    value a, sig(i) sums column i of E_{w,a} and pair(i,j) is entry (i, j)
    of E_{w,a}^T E_{w,b}, one int32 product per weight (no BLAS buffers).
    Counts of value 0 follow from the rest, so pair classes are keyed by
    (color(i), color(j), counts for nonzero a, b).  Ids go by first
    occurrence in row-major order; the diagonal is -1.  A refinement round
    sorts each row of (pair(i,j), pair(j,i), color(j)), encoded as int64.
    """
    if W is None:
        W = codeword_index_matrix(code, cap)
    n = code.n
    m = code.field.order - 1
    nonzero = np.arange(1, m + 1)
    wts = np.count_nonzero(W, axis=1)
    weights = np.unique(wts)
    sig = np.zeros((n, len(weights), m), dtype=np.int64)
    keys = np.empty((n, n, 2 + len(weights) * m * m), dtype=np.int32)
    counts = keys[:, :, 2:].reshape(n, n, len(weights), m, m)  # a view
    for t, w in enumerate(weights):
        rows = np.flatnonzero(wts == w)
        gram = np.zeros((n * m, n * m), dtype=np.int32)
        for s in range(0, len(rows), _GRAM_ROWS):
            E = W[rows[s:s + _GRAM_ROWS], :, None] == nonzero
            sig[:, t] += E.sum(axis=0)
            F = E.reshape(len(E), n * m).astype(np.int32)
            gram += F.T @ F
        counts[:, :, t] = gram.reshape(n, m, n, m).transpose(0, 2, 1, 3)
    colors = _first_occurrence_ids(sig.reshape(n, -1))
    keys[:, :, 0] = colors[:, None]
    keys[:, :, 1] = colors[None, :]
    keys[np.arange(n), np.arange(n)] = -1  # one class, first at (0, 0)
    pair = _first_occurrence_ids(keys.reshape(n * n, -1)).reshape(n, n) - 1
    off = ~np.eye(n, dtype=bool)
    for _ in range(2):
        nbhd = (pair * (pair.max() + 1) + pair.T) * (colors.max() + 1) \
            + colors[None, :]
        nbhd = np.sort(nbhd[off].reshape(n, n - 1), axis=1)
        colors = _first_occurrence_ids(
            np.concatenate([colors[:, None], nbhd], axis=1))
    return colors, pair


def backtrack_per_group(code: CyclicCodeSpec,
                        cap: int = DEFAULT_ENUM_CAP) -> PermGroup:
    """Exact Per(C) via backtracking over coordinate images.

    The open choices are an n x n candidate matrix: sigma(i) = j stays
    possible while i and j have identical refined colors and matching pair
    classes against every placed pair, and each placement ANDs in two outer
    comparisons (the refinement step of partition backtracking).  A node
    branches on the first open row with the fewest candidates; complete
    maps are accepted iff every basis word maps into the code.  Found
    automorphisms feed a stabilizer chain so cosets already covered are
    skipped (orbit pruning along the first-point spine).

    Up to 8192 codewords, each tracked word keeps a Python-int mask of
    the codewords it can still map onto; pos_val[i][v], the words with
    value v at i, is one np.packbits of a column test read as an int.

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
        pos_val = [[int.from_bytes(np.packbits(W[:, i] == v,
                                               bitorder="little").tobytes(),
                                   "little") for v in range(q)]
                   for i in range(n)]
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
    if math.gcd(n, code.field.order) == 1:
        mult = Permutation([(code.field.order * i) % n for i in range(n)])
        ok, _ = engine.perm_preserves(mult.array())
        if ok:
            note(mult.images)

    def place(cands: np.ndarray, i0: int, j0: int) -> np.ndarray:
        """The candidate matrix after sigma(i0) = j0: sigma(i) = j stays
        possible only if the pair classes of (i, i0) and (j, j0) match."""
        out = cands & (pair[:, i0, None] == pair[None, :, j0]) \
            & (pair[i0, :, None] == pair[None, j0, :])
        out[i0, :] = False
        out[:, j0] = False
        return out

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

    images = np.arange(n, dtype=np.int64)  # rows below generate's d: identity

    def dfs_complete(cands: np.ndarray, open_rows: np.ndarray,
                     masks: List[int]) -> Optional[List[int]]:
        if open_rows.size == 0:
            ok, _ = engine.perm_preserves(images)
            return images.tolist() if ok else None
        counts = np.count_nonzero(cands[open_rows], axis=1)
        b = int(counts.argmin())  # the first open row with fewest candidates
        if counts[b] == 0:
            return None
        i = int(open_rows[b])
        rest = np.delete(open_rows, b)
        for j in np.flatnonzero(cands[i]).tolist():
            nxt = filter_masks(masks, i, j)
            if nxt is None:
                continue
            images[i] = j
            res = dfs_complete(place(cands, i, j), rest, nxt)
            if res is not None:
                return res
        return None

    # prefixes[d]: the candidate matrix after the identity on 0..d-1
    prefixes = [colors[:, None] == colors[None, :]]
    for i in range(n - 2):
        prefixes.append(place(prefixes[-1], i, i))

    def generate(d: int):
        """Ensure the chain holds all of Per(C) fixing 0..d-1 pointwise."""
        if d >= n - 1:
            return
        generate(d + 1)
        base_masks = [full_mask] * len(tracked) if pos_val is not None else []
        for i in range(d):
            nxt = filter_masks(base_masks, i, i)
            if nxt is None:
                return
            base_masks = nxt
        open_rows = np.arange(d + 1, n)
        for j in np.flatnonzero(prefixes[d][d]).tolist():
            if j == d:
                continue
            if j in chain.orbit_at(d):
                continue
            masks = filter_masks(base_masks, d, j)
            if masks is None:
                continue
            images[d] = j
            res = dfs_complete(place(prefixes[d], d, j), open_rows, masks)
            if res is not None:
                note(res)

    generate(0)
    group = PermGroup(n, found or [Permutation(range(n))])
    group._chain = chain
    return group


# ---------------------------------------------------------------------------
# theorem-driven prediction


def _v_p(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


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
        if order == math.factorial(p):
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
    # p > 12: classify by the multiplier stabilizer of the defining set,
    # the union of the coset labels of the factors that divide g
    cosets = [(o, coset, poly_divides(fac, g))
              for o, coset, fac in _labelled_factors(p, field)]
    defining = frozenset().union(*(c for _, c, div in cosets if div))
    nonzero = defining - {0}
    qr = _quadratic_residues(p)
    if nonzero and (nonzero == qr or nonzero == frozenset(range(1, p)) - qr):
        raise NoPattern("quadratic-residue family: exceptional group out of scope")
    n_in = sum(div for o, _, div in cosets if o == p)
    n_out = sum(not div for o, _, div in cosets if o == p)
    if n_in == 1 or n_out == 1:
        raise NoPattern("single-coset (projective) family out of scope")
    stab = [a for a in range(1, p)
            if frozenset((a * z) % p for z in defining) == defining]
    m = len(stab)
    if m == 1:
        return Cyclic(p)
    if p == 31 and m == 5:
        return Named("C31xC5")
    raise NoPattern(f"no named tag for multiplier order {m} at p={p}")


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
    primes = [p for p in _prime_factors(n) if p != r]
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


# orders exceed 2^53, so JSON carries them as decimal strings
_DECIMAL_FIELDS = ("predicted_order", "computed_order")


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
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in _DECIMAL_FIELDS:
            if d[name] is not None:
                d[name] = str(d[name])
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "VerificationReport":
        kwargs = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        for name in _DECIMAL_FIELDS:
            if kwargs.get(name) is not None:
                kwargs[name] = int(kwargs[name])
        return cls(**kwargs)


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
    for p in gens:
        if p.degree != code.n:
            raise DegreeMismatch(
                f"generator degree {p.degree} != n={code.n}")
        ok, bad = engine.perm_preserves(p.array())
        if not ok:
            counterexamples.append({"images": list(p.images),
                                    "basis_index": bad})
    report = VerificationReport(code=_code_descriptor(code), method="Certify",
                                certified=not counterexamples,
                                counterexamples=counterexamples)
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
    return VerificationReport(
        code=_code_descriptor(code), method="Sample",
        counterexamples=counterexamples, trials=trials, seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        elapsed_ms=int((time.perf_counter() - t0) * 1000))


def verify_claim(code: CyclicCodeSpec, claim: Optional[GroupExpr] = None,
                 claimed: Optional[PermGroup] = None,
                 search: Optional[Tuple[str, Callable]] = None,
                 order_cap: int = 300, trials: int = 0,
                 seed: int = 42) -> VerificationReport:
    """The verdict report on Per(C) and an optional claim about it.

    A claim gets a certificate of claimed's generators (materialized from
    claim when not given), claimed's order when n <= order_cap, and
    sampling when trials > 0.  search = (method name, function of the
    code) runs an exact tier whose group's order and equality with the
    claim then decide computed_order and equal.
    """
    t0 = time.perf_counter()
    if claim is None:
        report = VerificationReport(code=_code_descriptor(code),
                                    method="Certify")
    else:
        if claimed is None:
            claimed = PermGroup(code.n, materialize(claim))
        engine = _Engine(code)
        report = certify_subgroup(code, list(claimed.generators), claim=claim,
                                  compute_order=False, engine=engine)
        if code.n <= order_cap:
            report.computed_order = claimed.order
            report.equal = report.computed_order == report.predicted_order
        if trials:
            samp = falsify_by_sampling(code, claimed, trials, seed,
                                       engine=engine)
            report.trials = samp.trials
            report.seed = samp.seed
            report.rng_algorithm = samp.rng_algorithm
            report.counterexamples += samp.counterexamples
    if search is not None:
        method, find = search
        group = find(code)
        report.method = method
        report.computed_order = group.order
        if claim is not None:
            report.equal = groups_equal(group, claimed)
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report
