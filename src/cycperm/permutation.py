"""Permutations of {0..n-1} and exact permutation-group computation.

The action convention matches the codeword action c^sigma = (c_{sigma(0)},
..., c_{sigma(n-1)}); composition is fixed as compose(s, t)(i) = s(t(i)),
which makes the action a right action: (c^s)^t = c^{compose(s, t)}.  This
is property-tested; it is the one place the convention lives.

Groups are backed by a deterministic (non-randomized) Schreier-Sims
stabilizer chain over the natural base 0, 1, 2, ... with fixed points
skipped.  Orders are exact Python integers.

The chain keeps every level's transversals as explicit permutations in one
pooled pair of int32 tables (forward and inverse), which grow by doubling.
A point -> level-slot array and a (slot, image) -> pool-row map take a row
from its first moved point straight to the transversal that sifts it.
Sifting is level-parallel: one step reduces every live row of a batch by a
single flat gather from the inverse table, whichever level each row sits
at, and rows that stall come back as residues.  Scalar sift, membership,
batch membership and Schreier-generator sifting all run this one kernel.
A level's pending (generator, orbit point) pairs are turned into products
g u_a by flat gathers over a stacked generator table; the kernel's step at
that level makes them Schreier generators, and after each insertion the
batch's remaining residues go through the kernel again as one batch.  This
keeps the wreath-product groups of degree ~300 from Table-scale runs
affordable.

Each strong generator has an origin: -1 for a row given to extend or
absorb, k for a residue of a batch of Schreier generators collected at
the level of base k.  A level of base i forms Schreier pairs only with
its generators of origin < i; its orbit and transversals still close
under all of them.  This is sound.  A residue formed at level k is a product of generators
that were then in S^(k), the generators fixing 0..k-1, and so in S^(i)
for every i <= k.  Leaving it out of S^(i) keeps the group it generates,
by induction on the order of insertion, and Schreier's lemma holds for
any generating set and any transversal (Seress, Permutation Group
Algorithms, 2003, sections 4.1-4.2).

One loop grows a chain: absorb sifts a batch of rows, inserts the first
non-member's residue, sifts the rest again and repeats.  extend absorbs
its inputs (origin -1) and then completes the chain, absorbing each batch
of pending Schreier generators with its level's base as their origin.  A
caller may pass a target at least the group's order (an overgroup's
order): the build then stops once the orbit product reaches it, since
every transversal is whole.  groups_equal uses it.  A caller that can
prove its chain complete by other means (the backtrack in autgroup) only
absorbs, never forms a Schreier generator, and hands the chain to
PermGroup, which seals it.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DegreeMismatch

_BATCH = 2048
_GATHER = 1 << 15  # entries per flat gather block


class Permutation:
    """Immutable permutation; images[i] = sigma(i).

    Built from any sequence of ints (a list, tuple, range or integer
    ndarray), validated by one vectorized bijection check and stored as a
    private int32 array; the images tuple is built on first read.
    """

    __slots__ = ("_arr", "_images")

    def __init__(self, images: Sequence[int]):
        self._arr = _checked_array(images)
        self._images: Optional[Tuple[int, ...]] = None

    @property
    def images(self) -> Tuple[int, ...]:
        if self._images is None:
            self._images = tuple(self._arr.tolist())
        return self._images

    @property
    def degree(self) -> int:
        return len(self._arr)

    def array(self) -> np.ndarray:
        return self._arr

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({format_permutation(self)!r}, degree={self.degree})"


def _checked_array(images: Sequence[int]) -> np.ndarray:
    """A private int32 copy of images, which must be a bijection of 0..n-1
    given as a 1-D sequence of integers."""
    arr = np.asarray(images)
    n = arr.size
    ok = arr.ndim == 1 and (arr.dtype.kind in "iu" or not n)
    if ok and n:
        ok = 0 <= arr.min() and arr.max() < n
    if ok:
        arr = arr.astype(np.int32)
        seen = np.zeros(n, dtype=bool)
        seen[arr] = True
        ok = bool(seen.all())
    if not ok:
        raise ValueError(f"{images!r} is not a permutation of 0..{n - 1}")
    return arr


def identity_perm(n: int) -> Permutation:
    return Permutation(range(n))


def perm_from_cycles(cycles: Iterable[Sequence[int]], degree: int) -> Permutation:
    images = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            if not 0 <= a < degree:
                raise ValueError(f"point {a} out of range for degree {degree}")
            images[a] = b
    return Permutation(images)


def apply_perm(word: tuple, sigma: Permutation) -> tuple:
    """c^sigma with (c^sigma)[i] = c[sigma(i)]."""
    if len(word) != sigma.degree:
        raise DegreeMismatch(
            f"word length {len(word)} != degree {sigma.degree}")
    return tuple(word[j] for j in sigma.images)


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """pi with pi(i) = sigma(tau(i)); then (c^sigma)^tau = c^compose(sigma,tau)."""
    if sigma.degree != tau.degree:
        raise DegreeMismatch("composing permutations of different degrees")
    return Permutation(sigma.array()[tau.array()])


def inverse(sigma: Permutation) -> Permutation:
    return Permutation(np.argsort(sigma.array()))


def format_permutation(p: Permutation) -> str:
    """Cycle notation with 0-based points; identity prints as "()"."""
    seen = set()
    parts = []
    for i in range(p.degree):
        if i in seen or p.images[i] == i:
            continue
        cyc = [i]
        j = p.images[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p.images[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def parse_permutation(text: str, degree: int) -> Permutation:
    text = text.strip()
    if text in ("", "()"):
        return identity_perm(degree)
    cycles = []
    for m in re.finditer(r"\(([^()]*)\)|\S", text):
        if m.group(0)[0] != "(":
            raise ValueError(f"unexpected {m.group(0)!r} in permutation text")
        body = m.group(1).strip()
        if body:
            cycles.append([int(t) for t in re.split(r"[,\s]+", body)])
    return perm_from_cycles(cycles, degree)


# ---------------------------------------------------------------------------
# Schreier-Sims stabilizer chain


def _grown(buf: np.ndarray, need: int,
           fill: Optional[int] = None) -> np.ndarray:
    """`buf` with room for at least `need` rows; capacity doubles.  New rows
    hold `fill`, or are left unwritten when it is None."""
    cap = buf.shape[0]
    if need <= cap:
        return buf
    shape = (max(need, 2 * cap),) + buf.shape[1:]
    if fill is None:
        out = np.empty(shape, dtype=buf.dtype)
    else:
        out = np.full(shape, fill, dtype=buf.dtype)
    out[:cap] = buf
    return out


def _gather(table: np.ndarray, rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    """out[i, j] = table[rows[i], X[i, j]] by flat gathers over row blocks.

    A block's flat index is small enough to stay in cache, so a batch of
    any size needs no index temporary of its own size.
    """
    flat = table.reshape(-1)
    n = table.shape[1]
    off = rows.astype(np.intp)[:, None] * n
    out = np.empty(X.shape, dtype=table.dtype)
    step = max(1, _GATHER // n)
    for s in range(0, len(X), step):
        e = s + step
        out[s:e] = flat[X[s:e] + off[s:e]]
    return out


class _Level:
    """One base point: its orbit, the pool rows of its transversals, and how
    far each of its paired generators has been paired with the orbit.

    The orbit closes under every generator of the level (gens); only those
    of origin below the base (paired) form Schreier pairs, by the origin
    rule of the module docstring."""

    __slots__ = ("chain", "base", "slot", "orbit", "rows", "size", "gens",
                 "paired", "processed", "pending")

    def __init__(self, chain: "_StabChain", base: int, slot: int,
                 gens: Sequence[int] = ()):
        """gens must fix base: they join without an orbit check."""
        self.chain = chain
        self.base = base
        self.slot = slot
        self.orbit = np.full(4, base, dtype=np.int32)
        self.rows = np.zeros(4, dtype=np.int32)  # pool row 0 is the identity
        self.size = 1
        self.gens: List[int] = []       # indices into the chain's gen table
        self.paired: List[int] = []     # the gens that form Schreier pairs
        self.processed: List[int] = []  # per paired gen, orbit points done
        self.pending = 0                # unprocessed (gen, point) pairs
        for gi in gens:
            self.add_gen(gi)

    def orbit_points(self) -> np.ndarray:
        return self.orbit[:self.size]

    def add_gen(self, gi: int):
        """Bookkeeping only: the caller extends the orbit if gi opens it."""
        self.gens.append(gi)
        if self.chain.origins[gi] < self.base:
            self.paired.append(gi)
            self.processed.append(0)
            self.pending += self.size

    def extend_orbit(self, seed: int):
        """Vectorized BFS closure; only the new generator can open points
        from the previously closed orbit.  Each round applies every sweeping
        generator to the frontier at once; a new point's transversal comes
        from its first (generator, frontier point) hit in gen-major order."""
        ch = self.chain
        frontier = np.arange(self.size)
        sweep = np.array([seed])
        while frontier.size:
            Q = ch.gen_table[sweep[:, None], self.orbit[frontier]]
            hit_g, hit_f = np.nonzero(ch.rowmap[self.slot, Q] < 0)
            if not hit_g.size:
                break
            qf = Q[hit_g, hit_f]
            _, first = np.unique(qf, return_index=True)
            first.sort()
            qf, src = qf[first], frontier[hit_f[first]]
            k = len(qf)
            # compose(g, u_src): base -> q
            UG = _gather(ch.gen_table, sweep[hit_g[first]],
                         ch.fwd[self.rows[src]])
            prow = ch.alloc_rows(k)
            ch.fwd[prow] = UG
            ch.inv[prow[:, None], UG] = ch.arange
            old = self.size
            self.orbit = _grown(self.orbit, old + k)
            self.rows = _grown(self.rows, old + k)
            self.orbit[old:old + k] = qf
            self.rows[old:old + k] = prow
            ch.rowmap[self.slot, qf] = prow
            self.size = old + k
            self.pending += k * len(self.paired)
            frontier = np.arange(old, old + k)
            sweep = np.array(self.gens)  # new points close under everything

    def collect_pending(self, limit: int) -> np.ndarray:
        """g u_a for the next `limit` unprocessed (paired gen, orbit point)
        pairs, gen by gen in orbit order.  The sift's step at this level
        turns each into its Schreier generator u_{g(a)}^-1 g u_a."""
        ch = self.chain
        done = np.array(self.processed)
        left = self.size - done
        start = np.cumsum(left) - left
        take = np.clip(limit - start, 0, left)
        total = int(take.sum())
        gen_of = np.repeat(np.array(self.paired), take)
        orb = np.arange(total) - np.repeat(start - done, take)
        self.processed = (done + take).tolist()
        self.pending -= total
        return _gather(ch.gen_table, gen_of, ch.fwd[self.rows[orb]])


class _StabChain:
    """Deterministic Schreier-Sims over the natural base order.

    Levels exist only for base points with nontrivial data; conceptually the
    base is 0, 1, ..., n-1 with fixed points skipped.  Every level's
    transversals live in one pooled pair of tables (`fwd[r]` maps the base
    point to an orbit point, `inv[r]` is its inverse; row 0 is the identity
    shared by all levels).  `slot_of[p]` names the level at point p (slot 0
    is an empty level for points that are not bases) and `rowmap[s, a]` the
    pool row whose transversal takes level s's base to a, or -1.
    """

    def __init__(self, n: int):
        self.n = n
        self.levels: dict[int, _Level] = {}
        self.bases: List[int] = []  # sorted
        self.all_gens: List[Tuple[np.ndarray, int]] = []  # (gen, its level)
        self.origins: List[int] = []  # per strong generator (module doc)
        self.arange = np.arange(n, dtype=np.int32)
        self.gen_table = np.empty((4, n), dtype=np.int32)
        self.fwd = np.empty((16, n), dtype=np.int32)
        self.inv = np.empty((16, n), dtype=np.int32)
        self.fwd[0] = self.inv[0] = self.arange
        self.pool_size = 1
        self.slot_of = np.zeros(n, dtype=np.int32)
        self.rowmap = np.full((4, n), -1, dtype=np.int32)
        self._dirty: set = set()

    def alloc_rows(self, k: int) -> np.ndarray:
        """Indices of k fresh pool rows."""
        old = self.pool_size
        self.fwd = _grown(self.fwd, old + k)
        self.inv = _grown(self.inv, old + k)
        self.pool_size = old + k
        return np.arange(old, old + k, dtype=np.int32)

    # -- queries ------------------------------------------------------------

    def order(self) -> int:
        out = 1
        for b in self.bases:
            out *= self.levels[b].size
        return out

    def _sift_rows(self, X: np.ndarray) -> np.ndarray:
        """The sift kernel: reduce every row of X through the chain at once.

        Each step looks up, for every live row, the transversal at its first
        moved point and applies all of them by one gather, whatever levels
        the rows sit at.  The conceptual base is 0, 1, ..., n-1; a point
        without a level has a trivial orbit, so a row moving such a point
        (or mapping a base outside its orbit) stalls right there.  This keeps
        the invariant that a generator inserted at level b fixes every point
        below b.  Stalled rows of X are overwritten with their residues;
        returns each row's stall point, n for members.
        """
        stall = np.full(len(X), self.n)
        if not self.n:  # the one permutation of nothing is the identity
            return stall
        live, Y = np.arange(len(X)), X
        while True:
            neq = Y != self.arange
            f = neq.argmax(axis=1)
            at = np.arange(len(f))
            moved = neq[at, f]  # False only for the identity
            if not moved.all():
                live, Y, f = live[moved], Y[moved], f[moved]
                at = at[:len(f)]
            if not live.size:
                return stall
            r = self.rowmap[self.slot_of[f], Y[at, f]]
            ok = r >= 0
            if not ok.all():
                X[live[~ok]] = Y[~ok]
                stall[live[~ok]] = f[~ok]
                live, Y, r = live[ok], Y[ok], r[ok]
            Y = _gather(self.inv, r, Y)

    def sift(self, x: np.ndarray):
        """Returns (residue, stall_point); (None, None) when x is a member."""
        X = np.array(x, dtype=np.int32).reshape(1, self.n)
        b = int(self._sift_rows(X)[0])
        return (None, None) if b == self.n else (X[0], b)

    def contains(self, x: np.ndarray) -> bool:
        return self.sift(x)[0] is None

    def contains_batch(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized membership for a stack of permutations."""
        X = np.array(rows, dtype=np.int32)
        return self._sift_rows(X) == self.n

    # -- construction ---------------------------------------------------------

    def extend(self, gens: Iterable[np.ndarray],
               target: Optional[int] = None):
        """Add gens and sift Schreier generators until the chain is complete.

        target: at least the order of the group being built; the build
        stops once the orbit product reaches it.  It holds for this call
        only, and does not change what the chain becomes.
        """
        rows = [np.asarray(g, dtype=np.int32) for g in gens]
        if rows:
            self.absorb(np.stack(rows))  # a fresh array
        self._complete(target)

    def absorb(self, rows: np.ndarray, origin: int = -1):
        """Insert every row of the (m, n) int32 array rows, which it
        overwrites, that the chain does not yet hold: sift the batch, make
        the first non-member's residue a strong generator of origin
        `origin`, sift the rest again, and repeat.  Transversal entries are
        only ever added, so a member stays one and a residue sifts as its
        source row would: the insertions are those of sifting each row
        alone, in order, against the chain as it then stands.  Forms no
        Schreier generator."""
        stall = self._sift_rows(rows)
        while True:
            out = stall < self.n
            if not out.any():
                return
            rows, stall = rows[out], stall[out]
            self._insert(rows[0].copy(), int(stall[0]), origin)
            rows = rows[1:]
            stall = self._sift_rows(rows)

    def _insert(self, g: np.ndarray, b: int, origin: int):
        """Make g, which fixes 0..b-1 and stalls at b, a strong generator of
        origin `origin` at every level of base <= b.  One boolean test over
        those levels' orbits finds the ones g opens."""
        gi = len(self.all_gens)
        self.gen_table = _grown(self.gen_table, gi + 1)
        self.gen_table[gi] = g
        self.origins.append(origin)
        if b not in self.levels:
            slot = len(self.levels) + 1
            self.rowmap = _grown(self.rowmap, slot + 1, fill=-1)
            self.rowmap[slot, b] = 0
            self.slot_of[b] = slot
            # generators living strictly below become active here too; they
            # fix b, so the orbit {b} stays as it is
            self.levels[b] = _Level(self, b, slot, [
                gi0 for gi0, (_, lvl0) in enumerate(self.all_gens) if lvl0 > b])
            self.bases.append(b)
            self.bases.sort()
            self._dirty.add(b)
        self.all_gens.append((g, b))
        levels = [self.levels[bb] for bb in self.bases if bb <= b]
        M = self.rowmap[[lv.slot for lv in levels]] >= 0
        opens = (M & ~M[:, g]).any(axis=1)
        for level, grows in zip(levels, opens.tolist()):
            level.add_gen(gi)
            if grows:
                level.extend_orbit(seed=gi)
            self._dirty.add(level.base)

    def _complete(self, target: Optional[int] = None):
        """Absorb pending Schreier generators a batch at a time, deepest
        dirty level first, with the batch's base as their origin.  target
        is extend's; a stop at target leaves the rest pending, where a
        later extend sifts them as members.
        """
        while self._dirty and (target is None or self.order() != target):
            b = max(self._dirty)
            level = self.levels[b]
            if level.pending <= 0:
                self._dirty.discard(b)
                continue
            self.absorb(level.collect_pending(_BATCH), origin=b)

    def base_points(self) -> List[int]:
        return [b for b in self.bases if self.levels[b].size > 1]

    def orbit_at(self, point: int) -> List[int]:
        """Fundamental orbit of `point` in the stabilizer of all smaller points."""
        if point in self.levels:
            return self.levels[point].orbit_points().tolist()
        return [point]


class PermGroup:
    """A permutation group: generators plus a stabilizer chain, built on
    first use unless a search that proved one complete hands it over; such
    a chain is sealed, every pending Schreier pair marked processed, so a
    later extend sifts only what it is given."""

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 chain: Optional[_StabChain] = None):
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != degree {degree}")
        self.degree = degree
        self.generators = tuple(generators)
        if chain is not None:  # complete: its Schreier pairs need no sift
            for level in chain.levels.values():
                level.processed = [level.size] * len(level.paired)
                level.pending = 0
            chain._dirty.clear()
        self._chain = chain

    def chain(self, target: Optional[int] = None) -> _StabChain:
        """The stabilizer chain, built on first use.  A target must be at
        least the group's order (an overgroup's order, say): the build then
        stops once the orbit product reaches it, with the chain a full build
        gives."""
        if self._chain is None:
            ch = _StabChain(self.degree)
            ch.extend([g.array() for g in self.generators], target=target)
            self._chain = ch
        return self._chain

    @property
    def order(self) -> int:
        return self.chain().order()

    def contains(self, sigma: Permutation) -> bool:
        if sigma.degree != self.degree:
            raise DegreeMismatch("degree mismatch in membership test")
        return self.chain().contains(sigma.array())

    def base(self) -> List[int]:
        return self.chain().base_points()

    def sample(self, rng) -> Permutation:
        """Random chain word: product of random transversal representatives."""
        ch = self.chain()
        acc = np.arange(self.degree, dtype=np.int32)
        for b in ch.bases:
            lev = ch.levels[b]
            t = ch.fwd[lev.rows[rng.randrange(lev.size)]]
            acc = acc[t]  # compose(acc, t)
        return Permutation(acc)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, |gens|={len(self.generators)})"


def group_from_generators(gens: Sequence[Permutation]) -> PermGroup:
    gens = list(gens)
    if not gens:
        raise ValueError("generator list must be nonempty")
    degree = gens[0].degree
    return PermGroup(degree, gens)


def groups_equal(g1: PermGroup, g2: PermGroup) -> bool:
    """Equal as permutation groups.

    g2's generators are checked against g1's complete chain: if one is
    outside, g2 is not a subgroup of g1.  Otherwise g2 <= g1, so
    |g2| <= |g1|, and g2's chain is built with target |g1|.  Reaching it
    shows |g2| >= |g1|, so g2 = g1; a full build that falls short shows g2
    is a proper subgroup.
    """
    if g1.degree != g2.degree:
        raise DegreeMismatch("groups of different degrees")
    order = g1.order
    gens = [g.array() for g in g2.generators]
    if gens and not g1.chain().contains_batch(np.stack(gens)).all():
        return False
    return g2.chain(target=order).order() == order


def reduce_generators(perms: Union[Sequence[Permutation], np.ndarray],
                      degree: int,
                      chain: Optional[_StabChain] = None) -> List[Permutation]:
    """Greedy deterministic reduction: keep elements that grow the group.

    perms is a sequence of Permutations or an (m, degree) integer array of
    images; either becomes one int32 array up front, and each kept row
    comes back as a Permutation.  Membership is tested a batch at a time,
    and a batch is tested again from just after each element it keeps, so
    the result is the greedy one.  A given chain is extended in place:
    pieces reduced into it in turn keep what their concatenation would.
    """
    if not isinstance(perms, np.ndarray):
        perms = [p.array() for p in perms]
    rows = np.asarray(perms, dtype=np.int32)
    chain = _StabChain(degree) if chain is None else chain
    kept: List[Permutation] = []
    i = 0
    while i < len(rows):
        X = rows[i:i + _BATCH]
        member = chain.contains_batch(X)
        j = int(member.argmin())
        if member[j]:
            i += len(X)
            continue
        chain.extend([X[j]])
        kept.append(Permutation(X[j]))
        i += j + 1
    return kept
