import math
import random

import numpy as np
import pytest

from cycperm.errors import DegreeMismatch
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
    assert Permutation(np.arange(4)) != Permutation([1, 0, 2, 3])
    assert Permutation(np.arange(4)) != Permutation(np.arange(5))


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


def test_chain_membership_against_brute_closure():
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randrange(3, 8)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(Permutation(img))
        seen = {tuple(range(n))}
        frontier = [tuple(range(n))]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple(g.images[c] for c in cur)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        G = group_from_generators(gens)
        assert G.order == len(seen)
        for _ in range(30):
            img = list(range(n))
            rng.shuffle(img)
            p = Permutation(img)
            assert G.contains(p) == (tuple(p.images) in seen)


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
