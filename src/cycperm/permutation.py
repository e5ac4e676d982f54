"""Permutations of {0..n-1} and exact permutation-group computation.

The action convention matches the codeword action c^sigma = (c_{sigma(0)},
..., c_{sigma(n-1)}); composition is fixed as compose(s, t)(i) = s(t(i)),
which makes the action a right action: (c^s)^t = c^{compose(s, t)}.  This
is property-tested; it is the one place the convention lives.

Groups are backed by a deterministic (non-randomized) Schreier-Sims
stabilizer chain over the natural base 0, 1, 2, ... with fixed points
skipped.  Transversals are stored as explicit permutation tables, and
sifting is vectorized over batches of rows, which keeps the wreath-product
groups of degree ~300 from Table-scale runs affordable.  Orders are exact
Python integers.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegreeMismatch

_BATCH = 2048


class Permutation:
    """Immutable permutation; images[i] = sigma(i).

    Built from a sequence of ints (validated point by point) or from an
    integer ndarray (validated by one vectorized bijection check and stored
    as int32; the images tuple is then built on first read).
    """

    __slots__ = ("_images", "_arr")

    def __init__(self, images: Sequence[int]):
        if isinstance(images, np.ndarray):
            object.__setattr__(self, "_images", None)
            object.__setattr__(self, "_arr", _checked_array(images))
            return
        imgs = tuple(int(i) for i in images)
        n = len(imgs)
        seen = [False] * n
        for i in imgs:
            if not 0 <= i < n or seen[i]:
                raise ValueError(f"{imgs!r} is not a permutation of 0..{n - 1}")
            seen[i] = True
        object.__setattr__(self, "_images", imgs)
        object.__setattr__(self, "_arr", None)

    @property
    def images(self) -> Tuple[int, ...]:
        if self._images is None:
            object.__setattr__(self, "_images", tuple(self._arr.tolist()))
        return self._images

    @property
    def degree(self) -> int:
        return len(self._arr) if self._images is None else len(self._images)

    def array(self) -> np.ndarray:
        if self._arr is None:
            object.__setattr__(self, "_arr", np.array(self.images, dtype=np.int32))
        return self._arr

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({format_permutation(self)!r}, degree={self.degree})"


def _checked_array(images: np.ndarray) -> np.ndarray:
    """A private int32 copy of a 1-D array that is a bijection of 0..n-1."""
    n = images.size
    ok = images.ndim == 1 and images.dtype.kind in "iu"
    if ok and n:
        ok = 0 <= images.min() and images.max() < n
    if ok:
        arr = images.astype(np.int32)
        seen = np.zeros(n, dtype=bool)
        seen[arr] = True
        ok = bool(seen.all())
    if not ok:
        raise ValueError(f"array {images!r} is not a permutation of 0..{n - 1}")
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
    s = sigma.images
    return Permutation(tuple(s[t] for t in tau.images))


def inverse(sigma: Permutation) -> Permutation:
    out = [0] * sigma.degree
    for i, j in enumerate(sigma.images):
        out[j] = i
    return Permutation(out)


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
    pos = 0
    for m in re.finditer(r"\(([^()]*)\)|\S", text):
        if m.group(0)[0] != "(":
            raise ValueError(f"unexpected {m.group(0)!r} in permutation text")
        body = m.group(1).strip()
        if body:
            cycles.append([int(t) for t in re.split(r"[,\s]+", body)])
        pos = m.end()
    return perm_from_cycles(cycles, degree)


# ---------------------------------------------------------------------------
# Schreier-Sims stabilizer chain


class _Level:
    __slots__ = ("base", "n", "gens", "orbit", "pos", "trans", "trinv",
                 "size", "processed", "pending")

    def __init__(self, base: int, n: int):
        self.base = base
        self.n = n
        self.gens: List[np.ndarray] = []
        self.orbit = np.empty(4, dtype=np.int64)
        self.orbit[0] = base
        self.pos = np.full(n, -1, dtype=np.int64)
        self.pos[base] = 0
        self.trans = np.empty((4, n), dtype=np.int32)
        self.trinv = np.empty((4, n), dtype=np.int32)
        self.trans[0] = self.trinv[0] = np.arange(n, dtype=np.int32)
        self.size = 1
        self.processed: List[int] = []  # per-gen count of orbit points done
        self.pending = 0                # unprocessed (gen, point) pairs

    def orbit_points(self) -> np.ndarray:
        return self.orbit[:self.size]

    def _grow(self, need: int):
        cap = self.trans.shape[0]
        if need > cap:
            newcap = max(need, 2 * cap)
            buf = np.empty(newcap, dtype=np.int64)
            buf[:self.size] = self.orbit[:self.size]
            self.orbit = buf
            for name in ("trans", "trinv"):
                old = getattr(self, name)
                buf2 = np.empty((newcap, self.n), dtype=np.int32)
                buf2[:self.size] = old[:self.size]
                setattr(self, name, buf2)

    def add_gen(self, g: np.ndarray):
        self.gens.append(g)
        self.processed.append(0)
        self.pending += self.size
        if (self.pos[g[self.orbit_points()]] < 0).any():
            self._extend_orbit(seed_gen=g)

    def _extend_orbit(self, seed_gen: np.ndarray):
        """Vectorized BFS closure; only the new generator can open points
        from the previously closed orbit."""
        arange = np.arange(self.n, dtype=np.int32)
        frontier = np.arange(self.size)
        sweep_gens = [seed_gen]
        while frontier.size:
            pts = self.orbit[frontier]
            new_idx = []
            for g in sweep_gens:
                q = g[pts]
                fresh = self.pos[q] < 0
                if not fresh.any():
                    continue
                src = frontier[fresh]
                qf = q[fresh]
                _, upos = np.unique(qf, return_index=True)
                src, qf = src[upos], qf[upos]
                still = self.pos[qf] < 0
                src, qf = src[still], qf[still]
                if not src.size:
                    continue
                UG = g[self.trans[src]]  # compose(g, u_parent): base -> q
                old = self.size
                self._grow(old + len(qf))
                self.pos[qf] = np.arange(old, old + len(qf))
                self.orbit[old:old + len(qf)] = qf
                self.trans[old:old + len(qf)] = UG
                inv = np.empty_like(UG)
                np.put_along_axis(inv, UG, arange[None, :].repeat(len(qf), 0), axis=1)
                self.trinv[old:old + len(qf)] = inv
                new_idx.extend(range(old, old + len(qf)))
                self.size = old + len(qf)
                self.pending += len(qf) * len(self.gens)
            frontier = np.array(new_idx, dtype=np.int64)
            sweep_gens = self.gens  # new points must close under everything

    def collect_pending(self, limit: int) -> Optional[np.ndarray]:
        """Schreier generators for unprocessed (gen, orbit point) pairs."""
        chunks = []
        total = 0
        m = self.size
        arange = np.arange(self.n, dtype=np.int32)
        for gi, g in enumerate(self.gens):
            done = self.processed[gi]
            if done >= m:
                continue
            take = min(m - done, max(1, limit - total))
            U = self.trans[done:done + take]
            SU = g[U]  # rows: compose(g, u_a), map base -> g(a)
            TI = self.trinv[self.pos[SU[:, self.base]]]
            rows = np.take_along_axis(TI, SU, axis=1)
            keep = ~(rows == arange).all(axis=1)
            if keep.any():
                chunks.append(rows[keep])
                total += int(keep.sum())
            self.processed[gi] = done + take
            self.pending -= take
            if total >= limit:
                break
        if not chunks:
            return None
        return np.concatenate(chunks, axis=0)


class _StabChain:
    """Deterministic Schreier-Sims over the natural base order.

    Levels exist only for base points with nontrivial data; conceptually the
    base is 0, 1, ..., n-1 with fixed points skipped.
    """

    def __init__(self, n: int):
        self.n = n
        self.levels: dict[int, _Level] = {}
        self.bases: List[int] = []  # sorted
        self.all_gens: List[Tuple[np.ndarray, int]] = []  # (gen, its level)
        self._arange = np.arange(n, dtype=np.int32)
        self._dirty: set = set()

    # -- queries ------------------------------------------------------------

    def order(self) -> int:
        out = 1
        for b in self.bases:
            out *= self.levels[b].size
        return out

    def sift(self, x: np.ndarray):
        """Returns (residue, stall_point); (None, None) when x is a member.

        The conceptual base is 0, 1, ..., n-1; points without a level have a
        trivial orbit, so a residue moving such a point stalls right there.
        This keeps the invariant that a generator inserted at level b fixes
        every point below b.
        """
        ar = self._arange
        for b in self.bases:
            moved = np.nonzero(x != ar)[0]
            if moved.size == 0:
                return None, None
            f = int(moved[0])
            if f < b:
                return x, f
            if f > b:
                continue
            lev = self.levels[b]
            j = lev.pos[int(x[b])]
            if j < 0:
                return x, b
            x = lev.trinv[j][x]
        moved = np.nonzero(x != ar)[0]
        if moved.size == 0:
            return None, None
        return x, int(moved[0])

    def contains(self, x: np.ndarray) -> bool:
        return self.sift(np.asarray(x, dtype=np.int32))[0] is None

    def contains_batch(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized membership for a stack of permutations."""
        rows = np.asarray(rows, dtype=np.int32)
        m = rows.shape[0]
        member = np.zeros(m, dtype=bool)
        alive = np.arange(m)
        X = rows.copy()
        for b in self.bases:
            if alive.size == 0:
                break
            lev = self.levels[b]
            p = X[alive, b]
            act = p != b
            if not act.any():
                continue
            idx = alive[act]
            j = lev.pos[X[idx, b]]
            ok = j >= 0
            # rows leaving the chain are non-members
            alive = np.setdiff1d(alive, idx[~ok], assume_unique=True)
            idx = idx[ok]
            if idx.size:
                X[idx] = np.take_along_axis(lev.trinv[j[ok]], X[idx], axis=1)
        if alive.size:
            member[alive] = (X[alive] == self._arange).all(axis=1)
        return member

    # -- construction ---------------------------------------------------------

    def extend(self, gens: Iterable[np.ndarray]):
        for g in gens:
            g = np.asarray(g, dtype=np.int32)
            residue, b = self.sift(g.copy())
            if residue is not None:
                self._insert(residue, b)
        self._complete()

    def _insert(self, g: np.ndarray, b: int):
        if b not in self.levels:
            lev = _Level(b, self.n)
            self.levels[b] = lev
            self.bases.append(b)
            self.bases.sort()
            # generators living strictly below become active here too
            for g0, lvl0 in self.all_gens:
                if lvl0 > b:
                    lev.add_gen(g0)
            self._dirty.add(b)
        self.all_gens.append((g, b))
        for bb in self.bases:
            if bb <= b:
                self.levels[bb].add_gen(g)
                self._dirty.add(bb)

    @staticmethod
    def _first_moved(X: np.ndarray, ar: np.ndarray, sentinel: int) -> np.ndarray:
        neq = X != ar
        moved = neq.any(axis=1)
        return np.where(moved, neq.argmax(axis=1), sentinel)

    def _sift_batch(self, rows) -> List[np.ndarray]:
        """Sift a batch; returns the non-member residues (fully reduced).

        Mirrors the gap-aware scalar sift.  Each row's first moved point is
        tracked incrementally, so a row only pays at levels it acts on and
        rows that reduce to the identity early cost nothing downstream.
        """
        if rows is None or not len(rows):
            return []
        X = np.array(rows, dtype=np.int32)
        ar = self._arange
        n = self.n
        f = self._first_moved(X, ar, n)
        alive = np.nonzero(f < n)[0]
        stalled: List[np.ndarray] = []
        for b in self.bases:
            if alive.size == 0:
                break
            fa = f[alive]
            gap = fa < b
            if gap.any():
                for row in alive[gap]:
                    stalled.append(X[row])
                alive = alive[~gap]
                fa = fa[~gap]
            here = fa == b
            if not here.any():
                continue
            lev = self.levels[b]
            idx = alive[here]
            j = lev.pos[X[idx, b]]
            ok = j >= 0
            for row in idx[~ok]:
                stalled.append(X[row])
            idx = idx[ok]
            if idx.size:
                X[idx] = np.take_along_axis(lev.trinv[j[ok]], X[idx], axis=1)
                f[idx] = self._first_moved(X[idx], ar, n)
            alive = np.concatenate([alive[~here], idx])
            alive = alive[f[alive] < n]
        for row in alive:
            stalled.append(X[row])
        return stalled

    def _complete(self):
        while self._dirty:
            b = max(self._dirty)
            target = self.levels[b]
            if target.pending <= 0:
                self._dirty.discard(b)
                continue
            batch = target.collect_pending(_BATCH)
            if batch is None:
                continue
            residues = self._sift_batch(batch)
            for res in residues:
                r2, b2 = self.sift(res.copy())
                if r2 is not None:
                    self._insert(r2, b2)

    def base_points(self) -> List[int]:
        return [b for b in self.bases if self.levels[b].size > 1]

    def orbit_at(self, point: int) -> List[int]:
        """Fundamental orbit of `point` in the stabilizer of all smaller points."""
        if point in self.levels:
            return [int(p) for p in self.levels[point].orbit_points()]
        return [point]

    def transversal_elements(self, b: int) -> List[np.ndarray]:
        if b not in self.levels:
            return []
        lev = self.levels[b]
        return [lev.trans[j] for j in range(lev.size)]


class PermGroup:
    """A permutation group: generators plus a lazily built stabilizer chain."""

    def __init__(self, degree: int, generators: Sequence[Permutation]):
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch("generator degree mismatch")
        self.degree = degree
        self.generators = tuple(generators)
        self._chain: Optional[_StabChain] = None

    def chain(self) -> _StabChain:
        if self._chain is None:
            ch = _StabChain(self.degree)
            ch.extend([g.array() for g in self.generators])
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
            t = lev.trans[rng.randrange(lev.size)]
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


def group_contains(group: PermGroup, sigma: Permutation) -> bool:
    return group.contains(sigma)


def groups_equal(g1: PermGroup, g2: PermGroup) -> bool:
    """Equal as permutation groups: same order, mutual generator membership."""
    if g1.degree != g2.degree:
        raise DegreeMismatch("groups of different degrees")
    if g1.order != g2.order:
        return False
    return (_contains_all(g2.chain(), g1.generators)
            and _contains_all(g1.chain(), g2.generators))


def _contains_all(chain: _StabChain, gens: Sequence[Permutation]) -> bool:
    """Every generator is in the chain's group; an empty set trivially is."""
    if not gens:
        return True
    return bool(chain.contains_batch(np.stack([g.array() for g in gens])).all())


def reduce_generators(perms: Sequence[Permutation],
                      degree: int) -> List[Permutation]:
    """Greedy deterministic reduction: keep elements that grow the group."""
    chain = _StabChain(degree)
    kept: List[Permutation] = []
    for p in perms:
        if not chain.contains(p.array()):
            chain.extend([p.array()])
            kept.append(p)
    return kept
