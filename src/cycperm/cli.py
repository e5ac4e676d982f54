"""Command-line interface.

Subcommands: factor, cyclotomic, code-info, perm-group, table, selftest.
Reports are JSON on stdout; progress lines go to stderr.  Exit status is 0
iff every verification in the invocation passed; malformed input prints
an error line and exits 2.  --workers (default 1) sets the worker count of
the exhaustive search.  perm-group and table only choose the verification
tier; autgroup.verify_claim builds every report.  main is reentrant: the
parser is built once, on first use, and each call parses into a fresh
Namespace.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache, partial

from .autgroup import (
    ORDER_CAP,
    backtrack_per_group,
    exhaustive_per_group,
    predicted_group,
    report_passed,
    verify_claim,
)
from .cyclic_code import make_code, min_distance
from .errors import CycpermError
from .galois import make_field, parse_field
from .group_constructors import format_group_expr, parse_group_expr
from .polyring import (
    cyclotomic,
    factor_xn_minus_1,
    format_poly_text,
    parse_poly_text,
)
from .table import TIERS, RunConfig, run_table, select_rows, selftest, \
    summarize_csv


def _field_arg(args) -> "FieldSpec":
    try:
        field = parse_field(args.field)
    except ValueError as exc:
        raise CycpermError(f"--field: {exc}") from None
    if getattr(args, "modulus", None):
        try:
            coeffs = [int(c) for c in args.modulus.split(",")]
        except ValueError as exc:
            raise CycpermError(f"--modulus: {exc}") from None
        field = make_field(field.r, field.alpha, coeffs)
    return field


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def _gen_arg(args, field) -> "Poly":
    try:
        return parse_poly_text(args.gen, field)
    except ValueError as exc:
        raise CycpermError(f"--gen: {exc}") from None


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_factor(args) -> int:
    field = _field_arg(args)
    factors = factor_xn_minus_1(args.n, field)
    _emit([{"poly": format_poly_text(p), "degree": p.degree,
            "multiplicity": m} for p, m in factors])
    return 0


def cmd_cyclotomic(args) -> int:
    field = _field_arg(args)
    _emit({"n": args.n, "field": field.describe(),
           "poly": format_poly_text(cyclotomic(args.n, field))})
    return 0


def cmd_code_info(args) -> int:
    field = _field_arg(args)
    gen = _gen_arg(args, field)
    code = make_code(field, args.n, gen)
    info = {
        "n": code.n,
        "k": code.k,
        "field": field.describe(),
        "gen": format_poly_text(code.gen),
        "check": format_poly_text(code.check),
        "dual_gen": format_poly_text(code.dual_gen),
        "factors_of_xn_minus_1": [
            {"poly": format_poly_text(p), "multiplicity": m}
            for p, m in factor_xn_minus_1(code.n, field)],
    }
    if args.min_distance:
        info["min_distance"] = min_distance(code, cap=args.enum_cap)
    _emit(info)
    return 0


def cmd_perm_group(args) -> int:
    if args.mode != "certify" and args.trials:
        raise CycpermError("--trials: certify mode only")
    field = _field_arg(args)
    gen = _gen_arg(args, field)
    code = make_code(field, args.n, gen)
    claim = parse_group_expr(args.claim) if args.claim else None
    search = None
    if args.mode == "brute":
        search = ("Exhaustive", partial(exhaustive_per_group,
                                        workers=args.workers))
    elif args.mode == "backtrack":
        search = ("Backtrack", backtrack_per_group)
    elif claim is None:
        claim = predicted_group(code)
        print(f"predicted: {format_group_expr(claim)}", file=sys.stderr)
    report = verify_claim(code, claim, search=search,
                          order_cap=args.order_cap, trials=args.trials,
                          seed=args.seed)
    _emit(report.to_json_dict())
    return 0 if report_passed(report) else 1


def cmd_table(args) -> int:
    try:
        rows = select_rows(args.row)
    except KeyError as exc:
        raise CycpermError(exc.args[0]) from None
    cfg = RunConfig(tier=args.tier, order_cap=args.order_cap,
                    trials=args.trials, seed=args.seed, workers=args.workers)
    reports = run_table(rows, cfg, log=lambda s: print(s, file=sys.stderr))
    payload = [{"row": row.id, "n": row.n, "n_factored": row.n_factored,
                "gen": row.gen_text, "claim": row.claim, "note": row.note,
                "passed": report_passed(rep), "report": rep.to_json_dict()}
               for row, rep in zip(rows, reports)]
    all_ok = all(entry["passed"] for entry in payload)
    doc = {"rows": payload, "all_passed": all_ok}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        _emit(doc)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(summarize_csv(rows, reports))
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0 if all_ok else 1


def cmd_selftest(args) -> int:
    return selftest(log=print)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cycperm",
        description="Cyclic codes over finite fields and their permutation "
                    "groups: construction, search, certification.")
    sub = ap.add_subparsers(dest="command", required=True)

    common_field = argparse.ArgumentParser(add_help=False)
    common_field.add_argument("--field", default="2",
                              help="field descriptor, e.g. 2 or 2^3")
    common_field.add_argument("--modulus", default=None,
                              help="comma-separated ascending modulus "
                                   "coefficients (extension fields)")

    p = sub.add_parser("factor", parents=[common_field],
                       help="factor x^n - 1 into irreducibles")
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("cyclotomic", parents=[common_field],
                       help="the n-th cyclotomic polynomial in the field")
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(fn=cmd_cyclotomic)

    p = sub.add_parser("code-info", parents=[common_field],
                       help="derived data of the cyclic code C_{n,g}")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--gen", required=True,
                   help="generator polynomial, comma-separated ascending "
                        "coefficients")
    p.add_argument("--min-distance", action="store_true")
    p.add_argument("--enum-cap", type=_nonnegative_int, default=2 ** 20)
    p.set_defaults(fn=cmd_code_info)

    p = sub.add_parser("perm-group", parents=[common_field],
                       help="compute or certify Per(C)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--mode", choices=["brute", "backtrack", "certify"],
                   default="certify")
    p.add_argument("--claim", default=None,
                   help="group expression; certify mode predicts one "
                        "when omitted")
    p.add_argument("--trials", type=_nonnegative_int, default=0,
                   help="sampling trials, certify mode only (0: none)")
    p.add_argument("--seed", type=_nonnegative_int, default=42)
    p.add_argument("--order-cap", type=_nonnegative_int,
                   default=ORDER_CAP)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_perm_group)

    p = sub.add_parser("table", help="verify embedded Table I rows")
    p.add_argument("--row", action="append",
                   help="row id or prefix (repeatable); default all rows")
    p.add_argument("--all", action="store_true", dest="all_rows",
                   help="verify every row (the default)")
    p.add_argument("--tier", choices=TIERS, default="exact",
                   help="deepest verification tier to attempt (rows always "
                        "get at least a certificate)")
    p.add_argument("--out", default=None, help="write JSON report here")
    p.add_argument("--csv", default=None, help="write CSV summary here")
    p.add_argument("--order-cap", type=_nonnegative_int,
                   default=ORDER_CAP)
    p.add_argument("--trials", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=_nonnegative_int, default=42)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("selftest", help="fast invariant suite")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CycpermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
