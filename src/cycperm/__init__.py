"""Cyclic codes over finite fields and their permutation groups.

Construction of C_{n,g(x)} over F_{r^alpha}, the wreath-product and
CRT-product groups the structure theory predicts for special lengths, and
four verification routes: exhaustive search, backtracking with signature
refinement, Per(C) derived from the code's structure and compared with a
claim by block membership, and subgroup certificates with seeded
sampling.
"""

from .galois import FieldSpec, make_field, parse_field
from .polyring import (
    Poly,
    cyclotomic,
    dual_generator,
    factor_xn_minus_1,
    format_poly_text,
    make_poly,
    parse_poly_text,
    poly_divmod,
    poly_from_ints,
    poly_gcd,
    substitute_power,
)
from .cyclic_code import (
    CyclicCodeSpec,
    Layout,
    MatrixRep,
    contains,
    enumerate_codewords,
    flatten,
    intersect,
    make_code,
    matrix_rep,
    min_distance,
)
from .permutation import (
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
)
from .group_constructors import (
    AGL1,
    Affine,
    CrtProduct,
    Cyclic,
    Linear,
    Mathieu,
    Named,
    PerOf,
    Sym,
    Wreath,
    crt_product_generators,
    expr_contains,
    expr_degree,
    expr_order,
    format_group_expr,
    materialize,
    named_group_generators,
    parse_group_expr,
    wreath_generators,
)
from .autgroup import (
    VerificationReport,
    backtrack_per_group,
    certify_subgroup,
    derive_per_group,
    exhaustive_per_group,
    falsify_by_sampling,
    predicted_group,
    verify_claim,
)
from .table import RunConfig, TABLE_ROWS, TableRow, run_table, select_rows, selftest

__version__ = "0.1.0"
