"""The one-copy-per-block wreath generators, kept as a test oracle.

wreath_generators emits one base copy of A per orbit of H.  The generator
set below has a copy on every block, as materialize built it before: it
generates the same group, and it reproduces the chains and reports that
golden digests recorded with it.
"""

import numpy as np

from cycperm.group_constructors import Wreath, materialize
from cycperm.permutation import Permutation


def per_block_wreath_generators(a_gens, h_gens):
    la, lh = a_gens[0].degree, h_gens[0].degree
    n = la * lh
    grid = np.arange(n).reshape(la, lh)
    out = []
    for j in range(lh):
        for ga in a_gens:
            img = np.arange(n)
            img[j::lh] = ga.array() * lh + j
            out.append(Permutation(img))
    return out + [Permutation(grid[:, gh.array()].ravel()) for gh in h_gens]


def per_block_materialize(e):
    """materialize(e) with every wreath node built one copy per block."""
    if isinstance(e, Wreath):
        return per_block_wreath_generators(per_block_materialize(e.a),
                                           per_block_materialize(e.h))
    return materialize(e)
