import math
import random

import numpy as np
import pytest

from cycperm import permutation
from cycperm.errors import DegreeMismatch
from cycperm.group_constructors import (
    expr_degree,
    expr_order,
    materialize,
    parse_group_expr,
)
from cycperm.permutation import (
    PermGroup,
    Permutation,
    apply_perm,
    compose,
    format_permutation,
    group_from_generators,
    groups_equal,
    identity_perm,
    inverse,
    parse_permutation,
    perm_from_cycles,
    reduce_generators,
)


def test_not_a_permutation_rejected():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 3, 1])


@pytest.mark.parametrize("images", [
    np.array([0, 0, 1]),
    np.array([0, 3, 1]),
    np.array([0, -1, 1]),
    np.array([[0, 1], [1, 0]]),
])
def test_not_a_permutation_array_rejected(images):
    with pytest.raises(ValueError):
        Permutation(images)


def test_array_and_list_permutations_agree():
    images = [3, 0, 4, 1, 2]
    for dtype in (np.int32, np.int64, np.uint16):
        arr = np.array(images, dtype=dtype)
        p, q = Permutation(arr), Permutation(images)
        assert p == q and q == p
        assert hash(p) == hash(q)
        assert p.degree == 5 and p.images == tuple(images)
        arr[0] = 0  # the permutation keeps its own copy
        assert p == q
    assert Permutation(tuple(images)) == Permutation(images)
    assert Permutation(range(4)) == Permutation(np.arange(4)) \
        == identity_perm(4)
    for empty in ([], (), range(0), np.array([], dtype=np.int64)):
        e = Permutation(empty)
        assert e.degree == 0 and e.images == () and e == identity_perm(0)
    assert Permutation(np.arange(4)) != Permutation([1, 0, 2, 3])
    assert Permutation(np.arange(4)) != Permutation(np.arange(5))
    # compose is one gather and inverse one argsort: both agree with the
    # tuple formulas they replaced
    rng = random.Random(49)
    for _ in range(200):
        n = rng.randrange(1, 40)
        s, t = rng.sample(range(n), n), rng.sample(range(n), n)
        sigma, tau = Permutation(s), Permutation(t)
        assert compose(sigma, tau).images == tuple(s[j] for j in t)
        inv = [0] * n
        for i, j in enumerate(s):
            inv[j] = i
        assert inverse(sigma).images == tuple(inv)


def test_apply_perm_definition():
    c = ("a", "b", "c")
    sigma = Permutation([1, 2, 0])
    assert apply_perm(c, sigma) == ("b", "c", "a")
    assert apply_perm(c, identity_perm(3)) == c
    rep = ("z",) * 5
    assert apply_perm(rep, perm_from_cycles([[0, 4, 2]], 5)) == rep
    with pytest.raises(DegreeMismatch):
        apply_perm(("a",), sigma)


def test_compose_convention():
    sigma = Permutation([1, 2, 0])
    tau = Permutation([1, 0, 2])
    assert compose(sigma, tau).images == (2, 1, 0)
    assert compose(sigma, identity_perm(3)) == sigma
    assert compose(sigma, inverse(sigma)) == identity_perm(3)


def test_action_composition_coherence():
    rng = random.Random(31)
    for _ in range(1000):
        n = rng.randrange(2, 9)
        word = tuple(rng.randrange(50) for _ in range(n))
        a = list(range(n))
        rng.shuffle(a)
        sigma = Permutation(list(a))
        rng.shuffle(a)
        tau = Permutation(list(a))
        assert apply_perm(apply_perm(word, sigma), tau) \
            == apply_perm(word, compose(sigma, tau))


def test_symmetric_group_orders():
    for n in range(2, 11):
        g = group_from_generators([perm_from_cycles([[0, 1]], n),
                                   perm_from_cycles([list(range(n))], n)])
        assert g.order == math.factorial(n)


def test_modular_generators_order_155():
    shift = Permutation([(i + 1) % 31 for i in range(31)])
    dbl = Permutation([(2 * i) % 31 for i in range(31)])
    g = group_from_generators([shift, dbl])
    assert g.order == 155
    assert g.contains(shift) and g.contains(dbl)
    assert g.contains(identity_perm(31))
    assert not g.contains(perm_from_cycles([[0, 1]], 31))  # 2 does not divide 155


def test_wreath_generator_example_order_48():
    gens = [perm_from_cycles([[0, 3]], 6), perm_from_cycles([[1, 4]], 6),
            perm_from_cycles([[2, 5]], 6),
            perm_from_cycles([[0, 1], [3, 4]], 6),
            perm_from_cycles([[0, 1, 2], [3, 4, 5]], 6)]
    assert group_from_generators(gens).order == 48


def test_groups_equal():
    a = group_from_generators([perm_from_cycles([[0, 1]], 3),
                               perm_from_cycles([[1, 2]], 3)])
    b = group_from_generators([perm_from_cycles([[0, 1, 2]], 3),
                               perm_from_cycles([[0, 1]], 3)])
    assert groups_equal(a, a)
    assert groups_equal(a, b)
    s6 = group_from_generators([perm_from_cycles([[0, 1]], 6),
                                perm_from_cycles([list(range(6))], 6)])
    w = group_from_generators([perm_from_cycles([[0, 3]], 6),
                               perm_from_cycles([[1, 4]], 6),
                               perm_from_cycles([[2, 5]], 6),
                               perm_from_cycles([[0, 1], [3, 4]], 6),
                               perm_from_cycles([[0, 1, 2], [3, 4, 5]], 6)])
    assert not groups_equal(w, s6)
    with pytest.raises(DegreeMismatch):
        groups_equal(a, s6)


def _sym(points, n):
    """Sym(points) inside S_n: a transposition and a cycle of the points."""
    return [perm_from_cycles([points[:2]], n),
            perm_from_cycles([points], n)]


def _chain_shape(group):
    ch = group.chain()
    base = ch.base_points()
    return (group.order, base, [sorted(ch.orbit_at(b)) for b in base],
            len(ch.all_gens))


# sift-kernel calls for T29's backtrack and claim chains (see
# test_absorb_resume_rule_builds_the_chain_a_full_resift_builds)
T29_SIFT_CALLS, T29_RESIFT_CALLS = 294, 333


def _t29_groups():
    from cycperm.autgroup import backtrack_per_group
    from cycperm.cyclic_code import make_code
    from cycperm.galois import make_field
    from cycperm.table import parse_gen_expr
    f2 = make_field(2)
    found = backtrack_per_group(make_code(f2, 105,
                                          parse_gen_expr("Q(5)Q(7)", f2)))
    claim = materialize(parse_group_expr("wr(S(3), x(5,7), rows)"))
    return found, claim


def test_groups_equal_builds_the_chains_a_full_build_gives():
    # groups_equal checks g2's generators against g1's chain and builds
    # g2's chain only up to |g1|; each case is tried in both argument
    # orders on fresh groups, and every chain it leaves must have the base,
    # orbits and strong generator count of a chain built from scratch
    n = 6
    s6 = _sym(list(range(6)), n)
    s6_adjacent = [perm_from_cycles([[i, i + 1]], n) for i in range(5)]
    a6 = [perm_from_cycles([[0, 1, 2]], n),
          perm_from_cycles([[1, 2, 3, 4, 5]], n)]
    fix0 = _sym([1, 2, 3, 4, 5], n)
    fix5 = _sym([0, 1, 2, 3, 4], n)
    t29_found, t29_claim = _t29_groups()
    cases = [(n, s6, s6_adjacent, True),
             (105, t29_found.generators, t29_claim, True),
             (n, s6, a6, False),        # a proper subgroup
             (n, fix0, fix5, False),    # order 120 each, neither inside
             (n, [], [], True),
             (n, [], [identity_perm(n)], True),
             (n, [], s6, False)]
    assert PermGroup(n, a6).order == 360
    for degree, gens1, gens2, equal in cases:
        for a, b in ((gens1, gens2), (gens2, gens1)):
            g1, g2 = PermGroup(degree, a), PermGroup(degree, b)
            assert groups_equal(g1, g2) is equal
            for g in (g1, g2):
                assert _chain_shape(g) == \
                    _chain_shape(PermGroup(degree, g.generators))
    # the backtrack's own group, whose chain it built without Schreier
    # generators
    claimed = PermGroup(105, t29_claim)
    assert groups_equal(t29_found, claimed)
    assert _chain_shape(claimed) == _chain_shape(PermGroup(105, t29_claim))


def _closure(gens, n):
    """Every element of <gens>, as image tuples, by breadth-first search."""
    seen = {tuple(range(n))}
    frontier = [tuple(range(n))]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(g.images[c] for c in cur)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _check_entry_points_agree(G, perms):
    """Scalar sift/contains and contains_batch agree row by row."""
    ch = G.chain()
    batch = ch.contains_batch(np.stack([p.array() for p in perms]))
    for p, in_batch in zip(perms, batch):
        x = p.array()
        residue, stall = ch.sift(x)
        assert (residue is None) == (stall is None)
        assert ch.contains(x) == (residue is None) == bool(in_batch)
        if residue is not None:  # a residue moves its stall point first
            moved = np.nonzero(residue != np.arange(G.degree))[0]
            assert moved[0] == stall
    return batch


def test_chain_membership_against_brute_closure():
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randrange(3, 8)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(Permutation(img))
        seen = _closure(gens, n)
        G = group_from_generators(gens)
        assert G.order == len(seen)
        perms = []
        for _ in range(30):
            img = list(range(n))
            rng.shuffle(img)
            perms.append(Permutation(img))
        batch = _check_entry_points_agree(G, perms)
        assert list(batch) == [tuple(p.images) in seen for p in perms]


@pytest.mark.parametrize("claim", ["wr(S(2), PSL2_7, rows)", "x(3,5)"])
def test_chain_structure_against_brute_closure(claim):
    expr = parse_group_expr(claim)
    n = expr_degree(expr)
    G = PermGroup(n, materialize(expr))
    elements = _closure(G.generators, n)
    assert G.order == len(elements) == expr_order(expr)
    rng = random.Random(9)
    members = [Permutation(e) for e in rng.sample(sorted(elements), 200)]
    others = []
    while len(others) < 200:
        img = list(range(n))
        rng.shuffle(img)
        if tuple(img) not in elements:
            others.append(Permutation(img))
    batch = _check_entry_points_agree(G, members + others)
    assert batch.tolist() == [True] * 200 + [False] * 200
    # orbit of d in the pointwise stabilizer of 0..d-1
    stab = elements
    base = []
    for d in range(n):
        orbit = {e[d] for e in stab}
        assert set(G.chain().orbit_at(d)) == orbit
        if len(orbit) > 1:
            base.append(d)
        stab = [e for e in stab if e[d] == d]
    assert G.base() == base


def _random_generators(rng, n):
    """1-4 generators; often intransitive (random blocks) with fixed points."""
    points = list(range(n))
    rng.shuffle(points)
    blocks, i = [], rng.randrange(0, n // 3 + 1)  # points[:i] stay fixed
    while i < n:
        size = rng.randrange(1, n - i + 1)
        if rng.random() < 0.5:
            size = min(size, rng.randrange(2, 9))
        blocks.append(points[i:i + size])
        i += size
    gens = []
    for _ in range(rng.randrange(1, 5)):
        img = list(range(n))
        for block in blocks:
            moved = block[:]
            rng.shuffle(moved)
            for a, b in zip(block, moved):
                img[a] = b
        gens.append(Permutation(img))
    return gens


def _count_batch_inserts(monkeypatch) -> list:
    """Insertions per batch of pending Schreier generators, chain-wide."""
    per_batch = []
    chain = permutation._StabChain
    extend, insert = chain.extend, chain._insert
    collect = permutation._Level.collect_pending

    def counting_extend(self, gens, **known):
        self.batch_inserts = None  # the generators' own inserts come first
        extend(self, gens, **known)

    def counting_collect(self, limit):
        self.chain.batch_inserts = len(per_batch)
        per_batch.append(0)
        return collect(self, limit)

    def counting_insert(self, g, b, origin):
        if getattr(self, "batch_inserts", None) is not None:
            per_batch[self.batch_inserts] += 1
        insert(self, g, b, origin)

    monkeypatch.setattr(chain, "extend", counting_extend)
    monkeypatch.setattr(chain, "_insert", counting_insert)
    monkeypatch.setattr(permutation._Level, "collect_pending",
                        counting_collect)
    return per_batch


@pytest.mark.parametrize("batch", [None, 3])
def test_chain_against_sympy(batch, monkeypatch):
    sympy_perm = pytest.importorskip("sympy.combinatorics")
    per_batch = _count_batch_inserts(monkeypatch)
    if batch is not None:  # batches then span levels and stall off-base
        monkeypatch.setattr(permutation, "_BATCH", batch)
    rng = random.Random(2026)
    for _ in range(20):
        n = rng.randrange(8, 41)
        gens = _random_generators(rng, n)
        G = group_from_generators(gens)
        H = sympy_perm.PermutationGroup(
            [sympy_perm.Permutation(list(g.images)) for g in gens])
        assert G.order == H.order()
        members = []
        for _ in range(10):
            acc = identity_perm(n)
            for _ in range(rng.randrange(1, 8)):
                acc = compose(acc, rng.choice(gens))
            members.append(acc)
        others = []
        for _ in range(10):
            img = list(range(n))
            rng.shuffle(img)
            others.append(Permutation(img))
        for p in members + others:
            expect = H.contains(sympy_perm.Permutation(list(p.images)))
            assert G.contains(p) == expect
        assert all(G.contains(p) for p in members)
    # some batch inserts several residues, each sifted again after the last
    assert max(per_batch) > 1


def _rebuilt_from_strong_generators(chain):
    """A chain fed every strong generator of `chain` as an input of extend:
    each has origin -1, so every level pairs all of them."""
    ref = permutation._StabChain(chain.n)
    ref.extend([g for g, _ in chain.all_gens])
    return ref


def _check_origin_rule(chain, members, rng):
    """chain, whose levels pair only generators of origin below their
    base, has the order, base and orbit sets of the full rebuild, and both
    answer membership alike on members and random permutations."""
    n = chain.n
    ref = _rebuilt_from_strong_generators(chain)
    base = chain.base_points()
    assert chain.order() == ref.order()
    assert base == ref.base_points()
    assert [sorted(chain.orbit_at(b)) for b in base] == \
        [sorted(ref.orbit_at(b)) for b in base]
    others = [rng.permutation(n) for _ in range(20)]
    perms = np.array(list(members) + others, dtype=np.int32)
    got = chain.contains_batch(perms)
    assert got[:len(members)].all()
    assert np.array_equal(got, ref.contains_batch(perms))


def _words(gens, rng, count):
    """count random products of 1-7 of the generators, as image arrays."""
    out = []
    for _ in range(count):
        acc = np.arange(gens[0].degree)
        for k in rng.integers(len(gens), size=rng.integers(1, 8)):
            acc = acc[gens[k].array()]
        out.append(acc)
    return out


def test_origin_rule_matches_a_rebuild_from_strong_generators():
    # 300 generator sets: blocks with fixed points as in _random_generators
    # (degree 6-60), or random permutations, which mostly generate A_n or
    # S_n (degree 6-24, as one such chain of degree 60 takes a second)
    rng, np_rng = random.Random(2020), np.random.default_rng(2020)
    skipped = 0
    for trial in range(300):
        if trial % 2:
            gens = _random_generators(rng, rng.randrange(6, 61))
        else:
            n = rng.randrange(6, 25)
            gens = [Permutation(np_rng.permutation(n))
                    for _ in range(rng.randrange(1, 4))]
        n = gens[0].degree
        chain = PermGroup(n, gens).chain()
        skipped += sum(origin >= 0 for origin in chain.origins)
        _check_origin_rule(chain, _words(gens, np_rng, 20), np_rng)
    for text in ("wr(S(3), C(5), rows)", "wr(C(4), S(4), cols)", "x(3,5)"):
        gens = materialize(parse_group_expr(text))
        chain = PermGroup(gens[0].degree, gens).chain()
        _check_origin_rule(chain, _words(gens, np_rng, 20), np_rng)
    assert skipped  # residues of origin k >= 0 were formed and left out


def test_origin_rule_after_absorb_and_target_builds():
    # the backtrack builds its chain by absorb alone, and groups_equal
    # builds the claim's chain only up to the found group's order
    from cycperm.autgroup import backtrack_per_group
    from cycperm.cyclic_code import make_code
    from cycperm.galois import parse_field
    from cycperm.table import parse_gen_expr
    rng = np.random.default_rng(29)
    for field_text, n, gen_text, claim in [
            ("2", 30, "Q(3)Q(5)", "wr(S(2), x(3,5), rows)"),
            ("2^2", 21, "x^3+x+1", "wr(S(3), PSL2_7, rows)"),
            ("2", 105, "Q(5)Q(7)", "wr(S(3), x(5,7), rows)")]:
        field = parse_field(field_text)
        found = backtrack_per_group(
            make_code(field, n, parse_gen_expr(gen_text, field)))
        claimed = PermGroup(n, materialize(parse_group_expr(claim)))
        assert groups_equal(found, claimed)
        for group in (found, claimed):
            _check_origin_rule(group.chain(),
                               _words(group.generators, rng, 20), rng)


def test_t29_backtrack_forms_no_schreier_generators(monkeypatch):
    # the backtrack proves its chain complete and forms no Schreier
    # generator in T29's search; completing the chain after each found
    # automorphism formed 16,641 under the origin rule, and 25,032 when
    # every strong generator was paired
    formed = []
    collect = permutation._Level.collect_pending

    def counting_collect(self, limit):
        rows = collect(self, limit)
        formed.append(len(rows))
        return rows

    monkeypatch.setattr(permutation._Level, "collect_pending",
                        counting_collect)
    found, _ = _t29_groups()
    assert sum(formed) == 0
    assert len(found.chain().all_gens) == 76
    assert found.order == math.factorial(3) ** 35 * math.factorial(5) \
        * math.factorial(7)


def test_sealed_backtrack_chain_extends_without_schreier_generators(
        monkeypatch):
    # PermGroup seals the chain the backtrack proved complete: its 25,032
    # pending Schreier pairs on 70 dirty levels are marked processed, so
    # extend([]) forms none of them and the order stays
    formed = []
    collect = permutation._Level.collect_pending

    def counting_collect(self, limit):
        rows = collect(self, limit)
        formed.append(len(rows))
        return rows

    found, _ = _t29_groups()
    chain = found.chain()
    order = chain.order()
    assert not chain._dirty
    assert all(lv.pending == 0 for lv in chain.levels.values())
    monkeypatch.setattr(permutation._Level, "collect_pending",
                        counting_collect)
    chain.extend([])
    assert formed == []
    assert chain.order() == order == found.order


def _fingerprint(chain):
    """Everything an insertion writes: bases, each orbit in listed order
    with its transversal rows, and the strong generators with their
    origins, in insertion order."""
    levels = [chain.levels[b] for b in chain.bases]
    return (list(chain.bases),
            [chain.orbit_at(lv.base) for lv in levels],
            [chain.fwd[lv.rows[:lv.size]].tolist() for lv in levels],
            chain.gen_table[:len(chain.all_gens)].tolist(),
            list(chain.origins))


def _absorb_resifting_every_residue(self, rows, origin=-1):
    """absorb as it was before its resume rule: after each insertion every
    remaining residue is sifted again."""
    stall = self._sift_rows(rows)
    first_out = bool(len(rows) and stall[0] < self.n)
    while True:
        out = stall < self.n
        if not out.any():
            return first_out
        rows, stall = rows[out], stall[out]
        self._insert(rows[0].copy(), int(stall[0]), origin)
        rows = rows[1:]
        stall = self._sift_rows(rows)


def _chains_and_sift_calls(monkeypatch, build):
    """The fingerprints of the chains build() returns, and the number of
    sift-kernel calls it made."""
    calls = []
    sift = permutation._StabChain._sift_rows

    def counting_sift(self, X):
        calls.append(len(X))
        return sift(self, X)

    with monkeypatch.context() as m:
        m.setattr(permutation._StabChain, "_sift_rows", counting_sift)
        chains = build()
    return [_fingerprint(ch) for ch in chains], len(calls)


def test_absorb_resume_rule_builds_the_chain_a_full_resift_builds(
        monkeypatch):
    # absorb sifts a residue again only once the level at its stall point
    # holds its image there; re-sifting every residue after every insertion
    # must give the same chains bit for bit, in more sift calls
    rng = random.Random(28)
    sets = [_random_generators(rng, rng.randrange(2, 61)) for _ in range(60)]

    def random_chains():
        return [PermGroup(g[0].degree, g).chain() for g in sets]

    def t29_chains():
        found, claim = _t29_groups()
        claimed = PermGroup(105, claim)
        assert groups_equal(found, claimed)
        return [found.chain(), claimed.chain(),
                PermGroup(105, claim).chain()]

    for build in (random_chains, t29_chains):
        got, calls = _chains_and_sift_calls(monkeypatch, build)
        with monkeypatch.context() as m:
            m.setattr(permutation._StabChain, "absorb",
                      _absorb_resifting_every_residue)
            want, ref_calls = _chains_and_sift_calls(monkeypatch, build)
        assert got == want
        assert calls < ref_calls
        if build is t29_chains:
            assert (calls, ref_calls) == (T29_SIFT_CALLS, T29_RESIFT_CALLS)
    # absorb reports whether its first row was a non-member
    outs = []
    for gens in sets[:20]:
        n = gens[0].degree
        chain = PermGroup(n, gens[1:] or [identity_perm(n)]).chain()
        row = gens[0].array()
        member = chain.contains(row)
        assert chain.absorb(np.stack([row, row])) is not member
        assert chain.contains(row)
        outs.append(member)
    assert set(outs) == {False, True}


def _closure_by_first_hit(gens, orbit, transversal, seed):
    """The documented closure rule, brute force: the seed generator goes
    over the old orbit, then every generator over each round's new points;
    each round lists all its (generator, point) hits outside the orbit in
    generator-major order, and a new point takes its first hit, with
    transversal compose(g, u_a)."""
    orbit, transversal = list(orbit), dict(transversal)
    frontier, sweep = list(orbit), [seed]
    while frontier:
        hits = [(g[a], gi, a) for gi in sweep for a in frontier
                for g in [gens[gi]] if g[a] not in transversal]
        new = []
        for q, gi, a in hits:
            if q not in new:
                new.append(q)
                transversal[q] = [gens[gi][x] for x in transversal[a]]
        orbit += new
        frontier, sweep = new, list(range(len(gens)))
    return orbit, [transversal[p] for p in orbit]


def test_orbit_closure_lists_points_by_first_hit(monkeypatch):
    # every orbit extension on chains of degree up to 60 lists its points
    # and writes its transversal rows as the brute-force first-hit rule does
    extend_orbit = permutation._Level.extend_orbit
    checked = []

    def checked_extend(self, seed):
        ch = self.chain
        ids = self.gens  # the level's generators, seed among them
        gens = [ch.gen_table[gi].tolist() for gi in ids]
        before = {p: ch.fwd[ch.rowmap[self.slot, p]].tolist()
                  for p in self.orbit}
        want = _closure_by_first_hit(gens, self.orbit, before,
                                     ids.index(seed))
        extend_orbit(self, seed)
        rows = ch.fwd[self.rows[:self.size]]
        assert (list(self.orbit), rows.tolist()) == want
        assert (ch.rowmap[self.slot, self.orbit] == self.rows[:self.size]).all()
        assert (np.take_along_axis(ch.inv[self.rows[:self.size]], rows, 1)
                == np.arange(ch.n)).all()
        checked.append(len(want[0]) - len(before))

    monkeypatch.setattr(permutation._Level, "extend_orbit", checked_extend)
    rng, np_rng = random.Random(60), np.random.default_rng(60)
    for trial in range(40):
        if trial % 4:
            gens = _random_generators(rng, rng.randrange(2, 61))
        else:
            n = rng.randrange(2, 25)
            gens = [Permutation(np_rng.permutation(n)) for _ in range(2)]
        PermGroup(gens[0].degree, gens).chain()
    assert 0 in checked and max(checked) > 20  # closed and multi-round cases


def test_random_chain_words_are_members():
    rng = random.Random(777)
    G = group_from_generators([perm_from_cycles([[0, 3]], 6),
                               perm_from_cycles([[1, 4]], 6),
                               perm_from_cycles([[2, 5]], 6),
                               perm_from_cycles([[0, 1], [3, 4]], 6),
                               perm_from_cycles([[0, 1, 2], [3, 4, 5]], 6)])
    for _ in range(1000):
        assert G.contains(G.sample(rng))


def test_sift_soundness_products_of_generators():
    rng = random.Random(55)
    gens = [perm_from_cycles([[0, 1, 2, 3, 4]], 7),
            perm_from_cycles([[4, 5, 6]], 7)]
    G = group_from_generators(gens)
    for _ in range(300):
        acc = identity_perm(7)
        for _ in range(rng.randrange(1, 12)):
            acc = compose(acc, gens[rng.randrange(2)])
        assert G.contains(acc)


def test_reduce_generators():
    gens = [perm_from_cycles([[0, 1]], 5), perm_from_cycles([[0, 1]], 5),
            identity_perm(5), perm_from_cycles([[0, 1, 2, 3, 4]], 5)]
    reduced = reduce_generators(gens, 5)
    assert len(reduced) == 2
    assert PermGroup(5, reduced).order == 120


def test_reduce_generators_array_input():
    rng = random.Random(31)
    gens = [perm_from_cycles([[0, 1]], 6), identity_perm(6),
            perm_from_cycles([[0, 1]], 6)]
    for _ in range(20):
        img = list(range(6))
        rng.shuffle(img)
        gens.append(Permutation(img))
    rows = np.array([g.images for g in gens])
    from_list = reduce_generators(gens, 6)
    from_array = reduce_generators(rows, 6)
    assert [p.images for p in from_array] == [p.images for p in from_list]
    assert all(isinstance(p, Permutation) for p in from_array)
    assert 1 < len(from_list) < len(gens)
    assert PermGroup(6, from_array).order == PermGroup(6, gens).order
    assert reduce_generators(np.empty((0, 6), dtype=np.int64), 6) == []
    assert reduce_generators([], 6) == []


def test_cycle_notation_round_trip():
    p = perm_from_cycles([[0, 1, 2], [3, 4]], 6)
    text = format_permutation(p)
    assert text == "(0 1 2)(3 4)"
    assert parse_permutation(text, 6) == p
    assert format_permutation(identity_perm(4)) == "()"
    assert parse_permutation("()", 4) == identity_perm(4)
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randrange(1, 10)
        img = list(range(n))
        rng.shuffle(img)
        q = Permutation(img)
        assert parse_permutation(format_permutation(q), n) == q
