"""Cyclic codes C_{n,g(x)}: membership, enumeration, distance, duals, and
the two block-matrix views of a codeword.

Coordinates are 0-based everywhere.  A codeword is a tuple of n field
elements; the vector (c_0,...,c_{n-1}) corresponds to the polynomial
c_0 + c_1 x + ... + c_{n-1} x^{n-1}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    FieldMismatch,
    LengthMismatch,
    NotADivisor,
    NotADivisorOfLength,
    TooLarge,
    ZeroCode,
)
from .galois import Element, FieldSpec, field_tables
from .polyring import (
    Poly,
    _fadd,
    _indices,
    _reciprocal_monic,
    make_poly,
    monic,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    xn_minus_1,
)

DEFAULT_ENUM_CAP = 2 ** 20


class Layout(enum.Enum):
    """Block arrangement of a codeword: row-major rows (the paper's Mr usage
    with h rows of length p) or column-major columns (Mc)."""
    ROW_BLOCKS = "rows"
    COL_BLOCKS = "cols"


@dataclass(frozen=True)
class CyclicCodeSpec:
    field: FieldSpec
    n: int
    gen: Poly
    k: int
    check: Poly
    dual_gen: Poly

    def describe(self) -> str:
        from .polyring import format_poly_text
        return f"[{self.n},{self.k}] over F_{self.field.describe()}, g={format_poly_text(self.gen)}"

    def __repr__(self):
        return f"CyclicCodeSpec({self.describe()})"


Codeword = tuple  # tuple[Element, ...] of length n


def make_code(field: FieldSpec, n: int, gen: Poly) -> CyclicCodeSpec:
    if gen.field != field:
        raise FieldMismatch("generator polynomial over the wrong field")
    if gen.is_zero() or not gen.is_monic():
        raise NotADivisor("generator must be monic and nonzero")
    if gen.degree > n:
        raise NotADivisor(f"deg(g)={gen.degree} exceeds n={n}")
    quot, rem = poly_divmod(xn_minus_1(field, n), gen)
    if not rem.is_zero():
        raise NotADivisor(f"generator does not divide x^{n}-1")
    k = n - gen.degree
    return CyclicCodeSpec(field, n, gen, k, quot, _reciprocal_monic(quot))


def word_to_poly(code_or_field, word: Codeword) -> Poly:
    field = code_or_field.field if isinstance(code_or_field, CyclicCodeSpec) \
        else code_or_field
    return make_poly(field, word)


def contains(code: CyclicCodeSpec, word: Codeword) -> bool:
    if len(word) != code.n:
        raise LengthMismatch(f"word length {len(word)} != n={code.n}")
    return poly_mod(word_to_poly(code, word), code.gen).is_zero()


def basis_codewords(code: CyclicCodeSpec) -> np.ndarray:
    """The k generator-shift codewords x^i g(x), i = 0..k-1, as the rows of
    a k x n int64 array of element indices."""
    g_idx = _indices(code.gen)
    rows = np.zeros((code.k, code.n), dtype=np.int64)
    # row i holds g at columns i .. i + deg g: g_j sits on diagonal j
    for j in np.flatnonzero(g_idx):
        rows[np.arange(code.k), np.arange(code.k) + j] = g_idx[j]
    return rows


def codeword_index_matrix(code: CyclicCodeSpec,
                          cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """All q^k codewords as element indices, messages in lexicographic order
    (first message symbol most significant).  Row 0 is the zero word.

    Filled in place from the last message symbol up: once the words of
    the last j symbols fill the first q^j rows, block a of the next q^(j+1)
    rows is that block plus a times the next basis word, added by the
    field's rule (XOR over F_2), so the only temporary is one block.
    """
    f = code.field
    q = f.order
    total = q ** code.k
    if total > cap:
        raise TooLarge(f"{total} codewords exceed the enumeration cap {cap}")
    mul_t = field_tables(f)[1]
    basis = basis_codewords(code)
    rows = np.zeros((total, code.n), dtype=np.int64)
    size = 1
    for word in basis[::-1]:
        for a in range(1, q):
            rows[a * size:(a + 1) * size] = _fadd(f, rows[:size],
                                                  mul_t[a, word])
        size *= q
    return rows


def enumerate_codewords(code: CyclicCodeSpec,
                        cap: int = DEFAULT_ENUM_CAP) -> Iterator[Codeword]:
    f = code.field
    for row in codeword_index_matrix(code, cap):
        yield tuple(f.element_of_index(int(v)) for v in row)


def min_distance(code: CyclicCodeSpec, cap: int = DEFAULT_ENUM_CAP) -> int:
    if code.k == 0:
        raise ZeroCode("the zero code has no nonzero codeword")
    rows = codeword_index_matrix(code, cap)
    weights = np.count_nonzero(rows, axis=1)
    return int(weights[1:].min())


@dataclass(frozen=True)
class MatrixRep:
    layout: Layout
    rows: int
    cols: int
    grid: tuple  # rows x cols of Element


def matrix_rep(word: Codeword, layout: Layout, block: int) -> MatrixRep:
    """block = row length for ROW_BLOCKS, row count for COL_BLOCKS."""
    n = len(word)
    if block < 1 or n % block:
        raise NotADivisorOfLength(f"block {block} does not divide n={n}")
    if layout is Layout.ROW_BLOCKS:
        cols = block
        rows = n // cols
        grid = tuple(tuple(word[i * cols + j] for j in range(cols))
                     for i in range(rows))
    else:
        rows = block
        cols = n // rows
        grid = tuple(tuple(word[j * rows + i] for j in range(cols))
                     for i in range(rows))
    return MatrixRep(layout, rows, cols, grid)


def flatten(m: MatrixRep) -> Codeword:
    n = m.rows * m.cols
    out = [None] * n
    for i in range(m.rows):
        for j in range(m.cols):
            if m.layout is Layout.ROW_BLOCKS:
                out[i * m.cols + j] = m.grid[i][j]
            else:
                out[j * m.rows + i] = m.grid[i][j]
    return tuple(out)


def intersect(codes: Sequence[CyclicCodeSpec]) -> CyclicCodeSpec:
    """Intersection of cyclic codes = code generated by lcm of generators."""
    if not codes:
        raise ValueError("need at least one code")
    first = codes[0]
    gen = first.gen
    for other in codes[1:]:
        if other.field != first.field:
            raise FieldMismatch("codes over different fields")
        if other.n != first.n:
            raise LengthMismatch("codes of different lengths")
        g = poly_gcd(gen, other.gen)
        gen = monic(poly_divmod(poly_mul(gen, other.gen), g)[0])
    return make_code(first.field, first.n, gen)
