"""Computing and certifying Per(C) = {sigma in S_n | C^sigma = C}.

Four routes with different reach:

* exhaustive_per_group - scan the stabilizer of 0 in S_n (small n), pruning
  prefixes, and take the orbit of 0 from the cyclic shift, exact;
* backtrack_per_group  - coordinate-image backtracking over a candidate
  matrix refined by pair classes, with stabilizer-chain pruning
  (enumerable codes), exact;
* derive_per_group - Per(C) from the code's structure: repeated
  coordinates (rows) and interleaved components (cols) reduce it to
  wreath products over leaf codes; a prime leaf past 12 points is decided
  by Burnside's theorem and a few membership tests (predicted_group uses
  the same rule), the weight-4 words of
  a binary length-pq leaf can show Per(C) = x(p, q), and the exact
  searches solve the other leaves; exact whenever every leaf is decided,
  at any n;
* predicted_group / certify_subgroup / falsify_by_sampling - theorem-shaped
  prediction, subgroup certificates and seeded negative sampling (any n).

verify_claim is the one place that combines a certificate, the derived
Per(C) and its block membership test against the claim
(group_constructors.expr_contains), sampling and an exact search into a
VerificationReport that names its evidence.

Membership checks everywhere reduce to "g(x) divides the permuted word":
by linearity a permutation preserves the code iff it maps the k
generator-shift basis words back into the code, which is ~q^k times
cheaper than set comparisons.  One engine (_Engine) does this for every
route, the exhaustive scan included, and every field with q <= 4096: a
table of x^i mod g, over F_2 built as shifted integers straight into
uint64 lanes and checked by XOR syndromes lane 0 first, over every other
field kept as element indices with table-accumulated syndromes.  A basis
word whose support the permutation fixes pointwise maps to itself, so
only the words that meet the moved points are checked; a transposition
costs at most 2*wt(g) word checks whatever k is.  The sampler draws the
images of supp g for a block of trials from a seeded random.Random stream,
checks basis word 0 on them with one gather of lane 0, which rejects
almost every trial, and completes the survivors a batch at a time: one
draw of all their tails, one _bad_rows call on all their basis words and
one batched membership test in the claim.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
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
from .errors import DegreeMismatch, FieldMismatch, NoPattern, \
    AmbiguousPattern, TooLarge
from .galois import FieldSpec, _is_prime, field_tables
from .group_constructors import (
    AGL1,
    Affine,
    CrtProduct,
    Cyclic,
    GroupExpr,
    Linear,
    Mathieu,
    Named,
    PerOf,
    Sym,
    Wreath,
    _prime_power,
    _unit_of_order,
    crt_product_generators,
    expr_contains,
    expr_order,
    format_group_expr,
    linear_element,
    linear_geometries,
    m23_element,
    materialize,
    per_of_order,
    sym_generators,
)
from .cyclic_code import Layout
from .permutation import (
    PermGroup,
    Permutation,
    _StabChain,
    groups_equal,
)
from .polyring import (
    Poly,
    _indices,
    _divisors,
    _prime_factors,
    _xpow_lanes_f2,
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

RNG_ALGORITHM = "python-mt19937/support-first-fisher-yates"
ORDER_CAP = 300  # default largest n whose certify tier derives Per(C)
EXACT_CUTOFF = 8  # longest code an exact search scans; longer ones backtrack


class _Engine:
    """Fast membership tests for one code, over any field with q <= 4096.

    The reduction table R[i] = x^i mod g is precomputed once.  Over F_2
    its rows are integers, each the previous one shifted with g XORed in,
    written straight into uint64 lanes (polyring._xpow_lanes_f2), so a
    whole permuted basis is syndrome-checked with vectorized XOR
    reductions: lane 0, the coefficients of x^0 .. x^63, from a contiguous
    copy first, and the other lanes only for the rows whose lane 0 is
    zero, as a permuted word outside C almost never has a zero syndrome
    there; perm_preserves, whose words mostly lie in C, reads all lanes in
    one gather.  Over every other field R is built over element indices with
    the field's add/mul/neg tables (polyring._xpow_table), widened to int64
    as every check gathers through it, and the syndromes are accumulated
    with the same tables.

    A permutation sigma only changes the basis words whose support it
    moves: if sigma fixes every point of supp(x^t g), the permuted word is
    x^t g itself, which lies in C over any field.  perm_preserves therefore
    checks just the rows t with (supp g + t) meeting the moved set M, or
    all k rows when |M| * wt(g) >= k.  _bad_rows tests a batch of
    permuted supports of g at once: the exhaustive scan checks its rows
    with it one word at a time, and the sampler filters blocks of trials
    with it before any exact test.
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
        if self.q == 2:
            self.packed = _xpow_lanes_f2(gidx, n)
            self._lane0 = np.ascontiguousarray(self.packed[:, 0])
        else:
            self.R = _xpow_table(f, gidx, n).astype(np.int64)

    def perm_preserves(self, sigma: np.ndarray) -> Tuple[bool, Optional[int]]:
        """Does sigma map every basis word back into the code?

        Returns (ok, failing basis index), the index being the smallest
        failing one.  Only the basis words sigma can change are checked.
        """
        if self.k == 0:
            return True, None
        sigma = np.asarray(sigma, dtype=np.int64)
        moved = sigma != self._points
        if np.count_nonzero(moved) * self.g_supp.size >= self.k:
            rows = self._rows
        else:
            t = np.flatnonzero(moved)[:, None] - self.g_supp[None, :]
            hit = np.zeros(self.k, dtype=bool)
            hit[t[(t >= 0) & (t < self.k)]] = True
            rows = np.flatnonzero(hit)
        inv = np.empty(self.n, dtype=np.int64)
        inv[sigma] = self._points
        bad = self._bad_rows(inv[self.g_supp[None, :] + rows[:, None]],
                             screen=False)
        if bad.size:
            return False, int(rows[bad[0]])
        return True, None

    def _bad_rows(self, idx: np.ndarray, screen: bool = True) -> np.ndarray:
        """Rows of idx (permuted-word supports, one word per row) not in C.

        Over F_2 with more than one lane, screen reads lane 0 first and all
        lanes only for the rows it passes, which suits the scan and the
        sampler, whose rows mostly fail; perm_preserves, whose rows mostly
        pass, reads all lanes in one gather instead.
        """
        if self.q == 2:
            if not screen and self.packed.shape[1] > 1:
                return np.flatnonzero(np.bitwise_xor.reduce(
                    self.packed[idx], axis=1).any(axis=1))
            bad = np.bitwise_xor.reduce(self._lane0[idx], axis=1) != 0
            if self.packed.shape[1] > 1:  # rows with lane 0 zero: all lanes
                rest = np.flatnonzero(~bad)
                bad[rest] = np.bitwise_xor.reduce(
                    self.packed[idx[rest]], axis=1).any(axis=1)
            return np.flatnonzero(bad)
        R = self.R
        syn = self._g_mul[0][R[idx[:, 0]]]
        for j in range(1, idx.shape[1]):
            syn = self._add[syn, self._g_mul[j][R[idx[:, j]]]]
        return np.flatnonzero(syn.any(axis=1))


# ---------------------------------------------------------------------------
# exhaustive search

_SCAN_MAX_N = 12  # longest code the exhaustive scan accepts
_SCAN_ROWS = 1 << 12  # prefix rows the scan extends at a time
_REDUCE_ROWS = 1 << 12  # stabilizer rows absorbed at a time, a block in cache


def _scan_permutations(args):
    """Worker: the rows tau = sigma^{-1} that begin with `prefix` and whose
    sigma preserves the code, as one array of the smallest unsigned dtype
    that holds n - 1, in lexicographic order.

    The prefix is checked a position at a time.  The rows then grow one
    position at a time, each row's candidates ascending, and a block whose
    extension would pass _SCAN_ROWS rows is split, its pieces finished in
    turn, so the rows come out in lexicographic order.  Under sigma, basis
    word t has support tau[supp g + t], which is placed once position
    t + deg g is; a row that word rejects is dropped there, with all its
    extensions.
    """
    engine, prefix = args
    n, m = engine.n, engine.code.gen.degree
    dtype = np.min_scalar_type(n - 1)

    def pruned(taus):
        t = taus.shape[1] - 1 - m  # the basis word the last position ends
        if 0 <= t < engine.k:
            bad = engine._bad_rows(taus[:, engine.g_supp + t])
            if bad.size:
                taus = np.delete(taus, bad, axis=0)
        return taus

    head = np.array([prefix], dtype=dtype)
    if not all(len(pruned(head[:, :i])) for i in range(1, len(prefix) + 1)):
        return np.empty((0, n), dtype=dtype)
    found, stack = [], [head]
    while stack:
        taus = stack.pop()
        i = taus.shape[1]  # the next position to place
        if not len(taus):
            continue
        if i == n:
            found.append(taus)
            continue
        per = max(1, _SCAN_ROWS // (n - i))
        if len(taus) > per:
            stack.extend(taus[s:s + per]
                         for s in reversed(range(0, len(taus), per)))
            continue
        free = np.ones((len(taus), n), dtype=bool)
        free[np.arange(len(taus))[:, None], taus] = False
        parent, point = np.nonzero(free)
        stack.append(pruned(np.concatenate(
            [taus[parent], point[:, None].astype(dtype)], axis=1)))
    return np.concatenate(found) if found else np.empty((0, n), dtype=dtype)


def exhaustive_per_group(code: CyclicCodeSpec,
                         workers: int = 1) -> PermGroup:
    """Per(C) by orbit-stabilizer: a prefix-pruned scan finds Per(C)_0,
    the stabilizer of 0, and the shift i -> i + 1 gives the orbit of 0.
    C is cyclic, so the shift lies in Per(C), Per(C) is transitive and
    |Per(C)| = n |Per(C)_0| (Seress 2003, section 4.1); a shift the engine
    rejects is an internal fault, not a verdict.  The scan
    (_scan_permutations) runs on C or C-dual, whichever generator has the
    lower degree: Per(C) = Per(C-dual), and a low degree lets the first
    words prune early.  It runs as one chunk, prefix (0,), or with workers
    as one chunk per second image u, prefix (0, u); joined in u order these
    are the same rows of Per(C)_0 in the same, lexicographic, order.

    The chain is complete by construction and forms no Schreier generator.
    Every row is absorbed, _REDUCE_ROWS at a time, so every row is a
    member; a member is a product of transversals, and so of rows, so when
    the rows form a group the chain holds exactly Per(C)_0.  Absorbing the
    shift then opens level 0 to all n points and changes no deeper level,
    so the chain holds Per(C), and PermGroup seals it.  Absorb inserts what
    sifting each row alone in order would, so every worker count builds
    the same chain.  Its order must be n times the number of rows; a scan
    that loses or adds a row fails that.  The group's generators are the
    chain's strong generators.
    """
    n = code.n
    if n > _SCAN_MAX_N:
        raise TooLarge(f"n={n} exceeds the exhaustive cutoff {_SCAN_MAX_N}")
    if code.k == 0:
        return PermGroup(n, sym_generators(n))
    if code.dual_gen.degree < code.gen.degree:
        code = make_code(code.field, n, code.dual_gen)
    engine = _Engine(code)
    shift = np.arange(1, n + 1, dtype=np.int32) % n
    if not engine.perm_preserves(shift)[0]:
        raise AssertionError("the cyclic shift does not preserve the code")
    # one chunk, or with workers one per second image u, prefix (0, u)
    prefixes = [(0, u) for u in range(1, n)] if workers > 1 else []
    chunks = [(engine, prefix) for prefix in prefixes or [(0,)]]
    chain, rows = _StabChain(n), 0
    with contextlib.ExitStack() as stack:
        parts = map(_scan_permutations, chunks)
        if workers > 1:
            import multiprocessing as mp
            pool = stack.enter_context(mp.get_context("fork").Pool(workers))
            parts = pool.imap(_scan_permutations, chunks)
        for found in parts:  # second images ascending
            rows += len(found)
            for start in range(0, len(found), _REDUCE_ROWS):
                taus = found[start:start + _REDUCE_ROWS]
                sigmas = np.empty(taus.shape, dtype=np.int32)
                sigmas[np.arange(len(taus))[:, None], taus] = chain.arange
                chain.absorb(sigmas)
    chain.absorb(shift[None, :])
    group = PermGroup(n, [Permutation(g) for g, _ in chain.all_gens], chain)
    if group.order != n * rows:
        raise AssertionError("exhaustive scan produced a non-group")
    return group


# ---------------------------------------------------------------------------
# backtracking with signature refinement


_GRAM_ROWS = 4096  # codewords per Gram block; < 2^24 keeps float32 exact


def _first_occurrence_ids(rows: np.ndarray) -> np.ndarray:
    """Equal rows get equal ids, numbered in order of first occurrence."""
    table: Dict[bytes, int] = {}
    return np.array([table.setdefault(key, len(table))
                     for key in map(bytes, rows)], dtype=np.int64)


def _coordinate_structure(code: CyclicCodeSpec, W: np.ndarray) -> np.ndarray:
    """Pair classes from the codewords W of code.

    pair(i,j) counts codewords by (weight, value at i, value at j); any
    code automorphism keeps it, so it is sound pruning data.  The shift is
    one, so pair(i,j) = pair(0, (j-i) mod n) and only row 0 is counted.
    The shift also gives every coordinate the same counts by (weight,
    value at i), so there are no colors to refine.

    With E_{w,a} the 0/1 indicator (words of weight w x coordinates) of
    value a, pair(0,j) is entry (0, j) of E_{w,a}^T E_{w,b}, summed in
    int32 over blocks of _GRAM_ROWS words.  Each block's product is a
    float32 BLAS product, which is exact: its entries are integers
    <= _GRAM_ROWS < 2^24, float32's 24-bit significand, whatever order
    BLAS adds in.  Counts of value 0 follow from the rest, so pair classes
    are keyed by the counts for nonzero a, b.  Ids go by first occurrence
    over j = 1..n-1; the diagonal is -1.
    """
    n = code.n
    m = code.field.order - 1
    nonzero = np.arange(1, m + 1)
    wts = np.count_nonzero(W, axis=1)
    weights = np.flatnonzero(np.bincount(wts))
    counts = np.empty((n, len(weights), m, m), dtype=np.int32)
    for t, w in enumerate(weights):
        rows = np.flatnonzero(wts == w)
        gram = np.zeros((m, n * m), dtype=np.int32)
        for s in range(0, len(rows), _GRAM_ROWS):
            E = W[rows[s:s + _GRAM_ROWS], :, None] == nonzero
            F = E.reshape(len(E), n * m).astype(np.float32)
            gram += (F[:, :m].T @ F).astype(np.int32)
        counts[:, t] = gram.reshape(m, n, m).transpose(1, 0, 2)
    ids = _first_occurrence_ids(counts[1:].reshape(n - 1, counts[0].size))
    row = np.concatenate([[-1], ids])
    return row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def _word_masks(W: np.ndarray, q: int) -> np.ndarray:
    """masks[i, v]: the set of rows of W (codewords) with value v at
    coordinate i, as ceil(N/64) uint64 words, bit k of the set in bit k % 64
    of word k // 64.  The padding bits past N are zero."""
    N, n = W.shape
    E = np.zeros((n, q, -(-N // 64) * 64), dtype=bool)
    E[:, :, :N] = W.T[:, None, :] == np.arange(q)[:, None]
    return np.packbits(E, axis=-1, bitorder="little").view("<u8")


def enumerable(code: CyclicCodeSpec) -> bool:
    """Whether 2^min(k, n-k) is within DEFAULT_ENUM_CAP: the size of the
    smaller of C and C^dual when C is binary, a lower bound over larger
    fields.  run_table sends such codes to backtrack_per_group."""
    return 2 ** min(code.k, code.n - code.k) <= DEFAULT_ENUM_CAP


def backtrack_per_group(code: CyclicCodeSpec) -> PermGroup:
    """Exact Per(C) via backtracking over coordinate images.

    The open choices are an n x n candidate matrix: sigma(i) = j stays
    possible while i and j have matching pair classes against every placed
    pair, and each placement ANDs in two outer comparisons (the refinement
    step of partition backtracking).  A node branches on the first open
    row with the fewest candidates; complete maps are accepted iff every
    basis word maps into the code.  Found automorphisms feed a stabilizer
    chain so cosets already covered are skipped (orbit pruning along the
    first-point spine).

    The chain needs no Schreier generator.  generate(d) runs after
    generate(d+1) (deepest level first, as in Leon's partition backtrack)
    and searches every candidate image j of d outside the chain's level-d
    orbit.  Every strong generator lies in Per(C) and fixes the points
    below its level, so each level's orbit stays inside the orbit of d
    under Per(C)_(0..d-1), the automorphisms fixing 0..d-1.  After
    generate(d), each candidate j is in the orbit or was searched, and a
    found sigma fixes 0..d-1 and maps d outside the orbit, so it stalls at
    d when sifted and its insertion opens j; a point that is no candidate
    is outside the true orbit.  The level-d orbit is then the true one at
    every d, so the generators of levels >= d generate Per(C)_(0..d-1) by
    induction from the deepest level, the orbits' product is |Per(C)|, and
    every element of Per(C) sifts to the identity.

    note(p) also absorbs p's n conjugates by the powers of the shift,
    which lies in Per(C), so each is an automorphism.  They only prune:
    each orbit they open is one fewer search, and the argument above does
    not use them.  The shift is noted first, so a member's conjugates are
    members, and absorb's one sift of row 0, p itself, tells whether p is
    new.

    Up to 8192 codewords, each tracked word keeps a bit set of the
    codewords it can still map onto, packed in uint64 words (_word_masks
    gives pos_val[i, v], the words with value v at i); one AND of the
    tracked words' rows filters them all.

    Since Per(C) = Per(C^dual), the search runs against whichever of the
    two codes has fewer codewords; high-rate codes have nearly uniform
    codeword statistics, while their low-dimensional duals prune sharply.
    """
    n = code.n
    if code.k > n - code.k:
        code = make_code(code.field, n, code.dual_gen)
    engine = _Engine(code)
    W = codeword_index_matrix(code)
    pair = _coordinate_structure(code, W)
    q = code.field.order
    N = W.shape[0]

    # word-image masks: tracked word c must map onto some codeword, and
    # assigning sigma(i) = j forces (c^sigma)[i] = c[j].
    if N <= 8192:
        pos_val = _word_masks(W, q)
        tracked = W if N <= 512 else np.array(basis_codewords(code))
        cols = np.ascontiguousarray(tracked.T)  # the tracked words' values
        # every word has some value at coordinate 0: all N words
        masks0 = np.tile(np.bitwise_or.reduce(pos_val[0], axis=0),
                         (len(tracked), 1))
    else:
        pos_val = None
        masks0 = np.zeros((0, 0), dtype=np.uint64)

    chain = _StabChain(n)
    found: List[Permutation] = []
    # row k of (p[conj] - back) % n is p's conjugate by the k-th power of
    # the shift, i -> (p[(i + k) mod n] - k) mod n
    conj = (np.arange(n)[None, :] + np.arange(n)[:, None]) % n
    back = np.arange(n, dtype=np.int32)[:, None]

    def note(perm_images) -> None:
        p = Permutation(perm_images)
        if chain.absorb((p.array()[conj] - back) % n):  # p is row 0
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

    def filter_masks(masks: np.ndarray, i: int, j: int) -> Optional[np.ndarray]:
        if pos_val is None:
            return masks
        out = masks & pos_val[i].take(cols[j], axis=0)
        return out if out.any(axis=1).all() else None

    images = np.arange(n, dtype=np.int64)  # rows below generate's d: identity

    def dfs_complete(cands: np.ndarray, open_rows: np.ndarray,
                     masks: np.ndarray) -> Optional[List[int]]:
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

    # prefixes[d]: the candidate matrix and the word masks after the
    # identity on 0..d-1; the identity keeps every tracked word (a
    # codeword) in its own mask, so none of these masks runs empty
    prefixes = [(np.ones((n, n), dtype=bool), masks0)]
    for i in range(n - 2):
        cands, masks = prefixes[-1]
        prefixes.append((place(cands, i, i), filter_masks(masks, i, i)))

    def generate(d: int):
        """Ensure the chain holds all of Per(C) fixing 0..d-1 pointwise."""
        if d >= n - 1:
            return
        generate(d + 1)
        cands, base_masks = prefixes[d]
        open_rows = np.arange(d + 1, n)
        for j in np.flatnonzero(cands[d]).tolist():
            if j == d:
                continue
            if j in chain.orbit_at(d):
                continue
            masks = filter_masks(base_masks, d, j)
            if masks is None:
                continue
            images[d] = j
            res = dfs_complete(place(cands, d, j), open_rows, masks)
            if res is not None:
                note(res)

    generate(0)
    return PermGroup(n, found or [Permutation(range(n))], chain)


# ---------------------------------------------------------------------------
# Per(C) from the code's structure


def derive_per_group(code: CyclicCodeSpec) -> Tuple[GroupExpr, int]:
    """Per(C) as a group expression derived from C alone, with its order.

    Tried in order; the first case that applies recurses on a shorter code:

    * rows - the least divisor e < n of n with g | x^e - 1, for g and then
      for the dual's generator (Per(C) = Per(C^dual)).  x^i mod g has
      period e, so the coordinates of a residue class mod e have equal
      check columns and C is the preimage of C_{e,g} under summing each
      class: Per(C) = wr(S(n/e), Per(C_{e,g}), rows).
    * cols - the largest m | n, m > 1, with g = f(x^m).  C is the direct
      sum of m copies of C_{n/m,f}, one on each residue class mod m, and
      its indecomposable summands are unique (Slepian, 1960) and permuted
      by the shift, so no larger split exists: Per(C) =
      wr(Per(C_{n/m,f}), S(m), cols).
    * prime - a leaf of prime length p > 12 prime to q, by Burnside's
      theorem (_prime_expr): S(p), a group between PSL(d, q0) and
      PGammaL(d, q0) with p = (q0^d - 1)/(q0 - 1) (L(d,q0;t;m)), M_23
      (M23(t)), or else the affine maps x -> a x + b whose multiplier
      x -> a x preserves C (p:m, C(p) for m = 1).  A few perm_preserves
      calls decide it, enumerable or not; predicted_group's prime leaves
      past 12 points use the same rule.
    * pq words - x(p, q) for a binary leaf of length pq, when the pairs
      i = j mod p share one count of weight-4 words through i and j that
      no other pair has, likewise mod q, and x(p, q) preserves C.  Per(C)
      keeps those counts (Leon, 1982) in any binary code, hence both CRT
      partitions, so it lies in x(p, q); the generators give the reverse
      inclusion.
    * leaf - per(FIELD;N;GEN), searched exactly by per_of_generators
      (TooLarge when neither the code nor its dual can be enumerated).

    The zero and full codes, and rows with e = 1, give S(n).  Nothing
    here reads a claim or the theorem patterns of predicted_group.
    """
    expr = _derived_expr(code)
    return expr, expr_order(expr)


def _derived_expr(code: CyclicCodeSpec) -> GroupExpr:
    field, n = code.field, code.n
    if code.k in (0, n):
        return Sym(n)
    divisors = _divisors(n)
    for g in (code.gen, code.dual_gen):
        gidx = _indices(g)
        R = (_xpow_lanes_f2(gidx, n + 1) if field.order == 2
             else _xpow_table(field, gidx, n + 1))
        e = next(e for e in divisors if (R[e] == R[0]).all())  # g | x^e - 1
        if e == 1:
            return Sym(n)
        if e < n:
            return Wreath(Sym(n // e), _derived_expr(make_code(field, e, g)),
                          Layout.ROW_BLOCKS)
    for m in reversed(divisors[1:]):
        f = try_contract_power(code.gen, m)
        if f is not None:
            return Wreath(_derived_expr(make_code(field, n // m, f)), Sym(m),
                          Layout.COL_BLOCKS)
    if _is_prime(n) and n > _SEARCHED_PRIME_MAX and field.r != n:
        return _prime_expr(n, code.gen)
    high = min(code.gen, code.dual_gen, key=lambda g: g.degree)
    return _crt_expr(n, high) or PerOf(field, n, code.gen)


_SEARCHED_PRIME_MAX = 12  # PSL(2,11) and M_11 act on 11 points


@functools.lru_cache(maxsize=None)
def _prime_expr(p: int, gen: Poly) -> GroupExpr:
    """The prime rule of derive_per_group on C_{p,gen}, p prime to q.

    Per(C) holds the p-cycle x -> x + 1, so by Burnside (1911) it is either
    solvable, and then inside the p-cycle's normalizer AGL(1, p), or
    2-transitive and nonsolvable.  For p > 12 the latter are A_p, S_p, the
    groups from PSL(d, q0) to PGammaL(d, q0) on the points of PG(d-1, q0)
    with p = (q0^d - 1)/(q0 - 1), and M_23 at p = 23 (Guralnick, J.
    Algebra 81, 1983).  The rule checks, with perm_preserves:

    * (0 1 2): with the shift it generates A_p; then (0 1) decides S_p.
    * For each simple T of the others whose multipliers M holds, a
      non-affine s in T (linear_element, m23_element) conjugated by one
      multiplier t per class of the units
      mod the multipliers that normalize T: <r0> for a power q0 of r0,
      the squares (<2>) for M_23.  The copies of T that hold the shift are
      exactly these T^t, and <shift, s^t> = T^t: for PSL by Kantor (J.
      Algebra 62, 1980), for M_23 by Burnside again, since a nonsolvable
      2-transitive subgroup of M_23 of degree 23 is M_23.  Then T^t <=
      Per(C) <= N(T^t), whose multipliers are <r0>: Per(C) =
      L(d,q0;t;|M & <r0>|), or M23(t), M_23 being maximal in A_23 and its
      own normalizer.  Each T^t holds a multiplier of fixed order, so T
      is built and tested only when d | |M|, or 11 | |M| for M_23: the
      Frobenius v -> v^q0 is F_q0-linear and maps alpha^i to alpha^(q0 i),
      so PSL(d, q0) = PGL(d, q0) holds x -> q0 x, of order d mod p; M_23
      holds 23:11, whose multipliers are the squares, x -> 2x among them;
      and x -> t x commutes with every multiplier.
    * Otherwise Per(C) is p:|M|, the affine maps x -> a x + b whose
      multiplier x -> a x preserves C (C(p) for |M| = 1).  Those
      multipliers form a subgroup M of the cyclic units mod p, so |M| is
      the largest m | p - 1 whose x -> root^((p-1)/m) x preserves C.

    The rule reads the code only through perm_preserves; predicted_group
    names its prime leaves past 12 points with it too (_leaf_expr).

    A geometry that M admits and whose field passes the tables' cap falls
    back to the search.
    """
    field = gen.field
    engine = _Engine(make_code(field, p, gen))
    x = np.arange(p)

    def keeps(cycle) -> bool:
        sigma = x.copy()
        sigma[cycle] = np.roll(cycle, 1)
        return engine.perm_preserves(sigma)[0]

    if keeps([0, 1, 2]):
        return Sym(p) if keeps([0, 1]) else PerOf(field, p, gen)
    root = _unit_of_order(p, p - 1)
    m = next(m for m in reversed(_divisors(p - 1))  # |M|
             if engine.perm_preserves(pow(root, (p - 1) // m, p) * x % p)[0])
    try:
        socles = [((d, q0), _prime_power(q0)[0], linear_element(d, q0))
                  for d, q0 in linear_geometries(p) if m % d == 0]
    except FieldMismatch:
        return PerOf(field, p, gen)
    if p == 23 and m % 11 == 0:
        socles.append((None, 2, m23_element()))
    for geometry, r0, s in socles:
        normal = sorted({pow(r0, k, p) for k in range(p - 1)})  # <r0> mod p
        reps = {min(t * a % p for a in normal) for t in range(1, p)}
        for t in sorted(reps):  # the least t of each class t<r0>
            conj = np.empty(p, dtype=np.int64)
            conj[t * x % p] = t * s % p
            if engine.perm_preserves(conj)[0]:
                return Mathieu(t) if geometry is None else \
                    Linear(*geometry, t, math.gcd(m, len(normal)))
    return Cyclic(p) if m == 1 else Affine(p, m)


@functools.lru_cache(maxsize=None)
def _crt_expr(n: int, gen: Poly) -> Optional[CrtProduct]:
    """The pq-words rule of derive_per_group on C_{n,gen}, or None.
    count(i, j) is the number of pairs {k, l} != {i, j} of equal
    check-column syndrome: weight-4 words in a leaf, and invariant under
    Per(C) in any binary code, so the rule is sound off leaves too.

    Multiplication by x is invertible mod g (g(0) != 0) and carries the
    column x^i mod g to x^(i+1) mod g, so it maps the pairs of equal
    syndrome sum onto each other and count(i, j) = count(0, j - i mod n):
    only the n - 1 counts of the pairs (0, d) are read, and the class
    test compares d = 0 mod m with the rest.  The pair sums are grouped
    by one sort of a key per pair: the sum itself in one uint64 lane, or
    its rank among the distinct rows (one lexsort) in more lanes."""
    primes = _prime_factors(n)
    if gen.field.order != 2 or len(primes) != 2 or math.prod(primes) != n:
        return None
    engine = _Engine(make_code(gen.field, n, gen))
    i, j = np.triu_indices(n, 1)  # the pairs (0, d) come first
    syn = engine.packed[i] ^ engine.packed[j]
    key = syn[:, 0]
    if syn.shape[1] > 1:  # each row's rank among the distinct rows
        order = np.lexsort(syn.T)
        new = np.diff(syn[order], axis=0).any(axis=1)  # a row unlike the last
        key = np.empty(len(syn), dtype=np.uint64)
        key[order] = np.cumsum(np.r_[True, new])
    keys, head = np.sort(key), key[:n - 1]
    count = (np.searchsorted(keys, head, "right")
             - np.searchsorted(keys, head) - 1)  # count[d - 1] = count(0, d)
    for m in primes:
        same = np.arange(1, n) % m == 0
        v = count[same]
        if (v != v[0]).any() or (count[~same] == v[0]).any():
            return None
    gens = crt_product_generators(*primes)
    ok = all(engine.perm_preserves(s.array())[0] for s in gens)
    return CrtProduct(*primes) if ok else None


# ---------------------------------------------------------------------------
# theorem-driven prediction


def _v_p(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _leaf_expr(field: FieldSpec, p: int, g: Poly) -> GroupExpr:
    """Per(C_{p,g}) for a prime p prime to q as a symbolic tag.

    Up to _SEARCHED_PRIME_MAX points an exact search resolves it
    (exhaustive up to EXACT_CUTOFF points, backtracking above); past it,
    derive_per_group's prime rule (_prime_expr) names it, so prediction
    and derivation agree on every such leaf.
    """
    if g.degree == p:
        raise NoPattern("zero code at prime length")
    if g.degree == 0:
        raise NoPattern("full space; not a proper cyclic code pattern")
    if g.degree == 1 and g != poly_sub(x_poly(field), one_poly(field)):
        raise NoPattern("degree-1 generator other than x-1 is not covered")
    if p > _SEARCHED_PRIME_MAX:
        return _prime_expr(p, g)
    order = per_of_order(field, p, g)
    if order == math.factorial(p):
        return Sym(p)
    if p == 7 and order == 168 and g == poly_from_ints(field, [1, 1, 0, 1]):
        return Named("PSL2_7")
    if order == p * (p - 1):
        return AGL1(p)
    if order == p:
        return Cyclic(p)
    # concrete leaf: exactly solved, no canonical name applies (the named
    # groups are multiplier-canonical subgroups; a group like the
    # reciprocal-code copy of PSL(2,7) is conjugate but not equal)
    return PerOf(field, p, g)


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
        for u in range(m + 1):
            for v in range(np_):
                t = r ** u * p ** v  # divides n
                if t == 1:
                    continue
                g0 = try_contract_power(g, t)
                if g0 is None or g0.degree < 1:
                    continue
                if not poly_divides(g0, xn_minus_1(field, p)):
                    continue
                inner_n = n // t
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
    evidence: Optional[str] = None
    order_match: Optional[bool] = None
    counterexamples: list = dc_field(default_factory=list)
    trials: Optional[int] = None
    seed: Optional[int] = None
    rng_algorithm: Optional[str] = None
    sampling_log10_power: Optional[float] = None  # log10 of |claim| / n!
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
                     engine: Optional[_Engine] = None) -> VerificationReport:
    """The certificate <gens> <= Per(C): every generator preserves the code
    (basis-word test).

    certified = all (generator, basis word) checks pass; failures are
    reported as counterexamples carrying the failing basis index.  An
    attached claim sets predicted, its symbolic order and evidence
    "subgroup"; the certificate alone never decides equal.  A caller that
    also samples the same code passes its engine in.
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
        report.evidence = "subgroup"
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


_SAMPLE_BLOCK = 1 << 14  # head images per block of sampled trials


def _words32(stream: random.Random, count: int) -> np.ndarray:
    """The next count 32-bit words of stream, in stream order.

    getrandbits(32 * count) holds the generator's i-th word in bits
    32i .. 32i + 31, so the words do not depend on how many are asked for
    at once."""
    return np.frombuffer(stream.getrandbits(32 * count).to_bytes(
        4 * count, "little"), dtype="<u4")


def _bounded_draws(words: Callable[[int], np.ndarray],
                   bounds: np.ndarray) -> np.ndarray:
    """One draw uniform on [0, b) for each bound b in turn, by Lemire's
    multiply-shift with rejection (ACM TOMACS 29(1), 2019).

    A word x gives (x * b) >> 32 unless the low 32 bits of x * b fall below
    2^32 mod b (which only a low part below b can); then x is skipped and
    the slot takes the next word.  words(count) returns the next count
    words of a stream, and no word is asked for beyond those the slots use.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    parts, buf, done = [bounds[:0]], np.empty(0, dtype=np.uint32), 0
    while done < bounds.size:
        more = words(bounds.size - done - buf.size)
        buf = np.concatenate([buf, more]) if buf.size else more
        b = bounds[done:]
        prod = np.multiply(buf, b, dtype=np.uint64)
        low = prod.astype(np.uint32)
        near = np.flatnonzero(low < b)
        rejected = near[low[near] < (1 << 32) % b[near]]
        used = int(rejected[0]) if rejected.size else buf.size
        prod >>= 32
        parts.append(prod[:used])
        done += used
        buf = buf[used + 1:]  # the rejected word goes too
    draws = parts[-1] if len(parts) <= 2 else np.concatenate(parts)
    return draws.view(np.int64)


def _shuffle_draws(words: Callable[[int], np.ndarray], rows: int, top: int,
                   width: int) -> np.ndarray:
    """rows x width Fisher-Yates draws, row-major: entry (r, j) is uniform
    on [0, top - j)."""
    bounds = np.tile(np.arange(top, top - width, -1, dtype=np.uint64), rows)
    return _bounded_draws(words, bounds).reshape(rows, width)


def _fisher_yates_heads(draws: np.ndarray) -> np.ndarray:
    """Row-wise slots 0..w-1 of arange(n) after swaps j <-> j + draws[:, j]."""
    pos = draws + np.arange(draws.shape[1])
    head, moved = np.empty_like(draws), np.empty_like(draws)
    for j in range(draws.shape[1]):
        at_p, at_j = pos[:, j], np.full(len(draws), j)
        for i in range(j):  # moved[:, i] is what swap i wrote to pos[:, i]
            at_p = np.where(pos[:, i] == pos[:, j], moved[:, i], at_p)
            at_j = np.where(pos[:, i] == j, moved[:, i], at_j)
        head[:, j], moved[:, j] = at_p, at_j
    return head


def falsify_by_sampling(code: CyclicCodeSpec, claimed: PermGroup,
                        trials: int, seed: int,
                        engine: Optional[_Engine] = None) -> VerificationReport:
    """Seeded random search for code-preserving permutations outside the
    claimed group.  Same seed gives the identical trial stream everywhere;
    an empty counterexample list is evidence, not proof.

    Two Mersenne Twister streams, random.Random(2 seed) for heads and
    random.Random(2 seed + 1) for tails, are read as 32-bit words, and each
    word becomes a bounded draw by Lemire's rule (_bounded_draws), so every
    draw is exactly uniform.  sigma is drawn support first: the head
    sigma(s), s = supp g ascending (empty if k = 0), by a partial
    Fisher-Yates on arange(n) for a block of trials at once.  sigma
    preserves C iff sigma^{-1} does, whose basis word 0 has support
    sigma(s), so one _bad_rows call rejects almost every head.  Only the
    survivors, in trial order, draw the tail: the points left, ascending,
    shuffled by Fisher-Yates onto the positions outside s.  Head and tail
    are uniform, hence sigma, and the draws are used in stream order, so no
    stream depends on the block.  The survivors of a block are completed
    and checked a batch at a time (at most 32 _SAMPLE_BLOCK points and
    syndrome entries): one _bad_rows call on all their basis words, then
    one contains_batch on the claim's chain for those that preserve C; the
    chain is built only then.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if claimed.degree != code.n:
        raise DegreeMismatch(f"claim degree {claimed.degree} != n={code.n}")
    t0 = time.perf_counter()
    if engine is None:
        engine = _Engine(code)
    head_words, tail_words = (functools.partial(_words32, random.Random(s))
                              for s in (2 * seed, 2 * seed + 1))
    n, k = engine.n, engine.k
    supp = engine.g_supp if k else engine.g_supp[:0]
    w, m = supp.size, n - supp.size
    rest_at = np.delete(engine._points, supp)
    basis = engine.g_supp[None, :] + engine._rows[:, None]  # word supports
    width = engine.packed.shape[1] if engine.q == 2 else engine.R.shape[1]
    rows = max(1, min(trials, _SAMPLE_BLOCK // max(1, w)))
    batch = max(1, (_SAMPLE_BLOCK << 5) // (n + k * w * max(1, width)))
    counterexamples = []
    for start in range(0, trials, rows):
        heads = _fisher_yates_heads(_shuffle_draws(
            head_words, min(rows, trials - start), n, w))
        if k:
            heads = np.delete(heads, engine._bad_rows(heads), axis=0)
        for at in range(0, len(heads), batch):
            head = heads[at:at + batch]
            r = np.arange(len(head))
            left = np.ones((len(head), n), dtype=bool)
            left[r[:, None], head] = False
            # the points left of each survivor, ascending, transposed (slot
            # j of every tail in row j), and the flat index of each swap's
            # partner
            tail = np.broadcast_to(engine._points, left.shape)[left].reshape(
                len(head), m).T.copy()
            flat = tail.reshape(-1)
            draws = _shuffle_draws(tail_words, len(head), m, max(0, m - 1))
            partner = (draws.T + np.arange(m - 1)[:, None]) * len(head) + r
            for j, p in enumerate(partner):  # slot j is final after swap j
                col = tail[j].copy()
                tail[j] = flat[p]
                flat[p] = col
            sigma = np.empty((len(head), n), dtype=np.int64)
            sigma[:, supp], sigma[:, rest_at] = head, tail.T
            if k:
                inv = np.empty_like(sigma)
                inv[r[:, None], sigma] = engine._points
                bad = engine._bad_rows(inv[:, basis].reshape(-1, w))
                keep = np.ones(len(sigma), dtype=bool)
                keep[bad // k] = False
                sigma = sigma[keep]
            if len(sigma):
                inside = claimed.chain().contains_batch(sigma)
                counterexamples += [{"images": s.tolist(),
                                     "basis_index": None}
                                    for s in sigma[~inside]]
    return VerificationReport(
        code=_code_descriptor(code), method="Sample",
        counterexamples=counterexamples, trials=trials, seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        elapsed_ms=int((time.perf_counter() - t0) * 1000))


def verify_claim(code: CyclicCodeSpec, claim: Optional[GroupExpr] = None,
                 search: Optional[Tuple[str, Callable]] = None,
                 order_cap: int = ORDER_CAP, trials: int = 0,
                 seed: int = 42) -> VerificationReport:
    """The verdict report on Per(C) and an optional claim about it.

    A claim is materialized once.  Its generators get a certificate, which
    proves claim <= Per(C), and sampling when trials > 0: falsify_by_sampling
    on the seed's two random.Random streams (seed >= 0), which shares the
    certificate's engine.  search =
    (method name, function of the code) runs an exact search whose group
    decides computed_order and equal (by group equality with the claim).
    Without one, n <= order_cap decides them from derive_per_group: equal
    needs the certificate, and every derived generator must preserve C and
    lie in the claim (expr_contains), which proves Per(C) <= claim.  When
    the derived expression equals the claim, its generators (materialize
    returns the same permutations) are the ones the certificate has just
    passed through perm_preserves, so each is checked once.  A
    leaf that derive_per_group cannot decide (TooLarge) decides nothing:
    the report keeps the certificate alone.

    evidence names the tier that decided equal (None without a claim):
    exhaustive-equal, backtrack-equal, decomposition-equal,
    subgroup+sampling or subgroup (a certificate only; equal,
    computed_order and order_match stay None).  order_match says whether
    computed_order equals the claim's symbolic order.  equal is never true
    for an uncertified claim.  The claim's stabilizer chain is built only
    for a sampling hit and for the exact tiers' group equality.
    """
    t0 = time.perf_counter()
    if claim is None:
        report = VerificationReport(code=_code_descriptor(code),
                                    method="Certify")
    else:
        gens = materialize(claim)
        engine = _Engine(code)
        report = certify_subgroup(code, gens, claim=claim, engine=engine)
        if search is None and code.n <= order_cap:
            try:
                derived, order = derive_per_group(code)
            except TooLarge:
                pass  # an undecided leaf: the certificate is all there is
            else:
                same = derived == claim  # the certificate checked these
                rows = np.stack([g.array() for g in
                                 (gens if same else materialize(derived))])
                report.computed_order = order
                report.equal = (report.certified
                                and (same or all(engine.perm_preserves(r)[0]
                                                 for r in rows))
                                and bool(expr_contains(claim, rows).all()))
                report.evidence = "decomposition-equal"
        if trials:
            samp = falsify_by_sampling(code, PermGroup(code.n, gens), trials,
                                       seed, engine=engine)
            report.trials = samp.trials
            report.seed = samp.seed
            report.rng_algorithm = samp.rng_algorithm
            report.sampling_log10_power = math.log10(report.predicted_order) \
                - math.lgamma(code.n + 1) / math.log(10)
            report.counterexamples += samp.counterexamples
            if report.evidence == "subgroup":
                report.evidence = "subgroup+sampling"
    if search is not None:
        method, find = search
        group = find(code)
        report.method = method
        report.computed_order = group.order
        if claim is not None:
            report.equal = report.certified \
                and groups_equal(group, PermGroup(code.n, gens))
            report.evidence = f"{method.lower()}-equal"
    if report.computed_order is not None \
            and report.predicted_order is not None:
        report.order_match = report.computed_order == report.predicted_order
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report
