"""Command-line interface.

Every subcommand prints a human-readable summary to stdout; `--out PATH`
additionally writes a JSON report.  Exit status: 0 for a completed run,
1 when any per-item error occurred or an input was rejected (with an
`error: ...` line on stderr), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import ast
import operator
import sys
from typing import List, Optional

from .cyclotomic import alpha_beta_verify, subfield_test
from .enumeration import (DEFAULT_CEILING, QueryMode, dominated_elements,
                          require_count, sum_of_squares_test)
from .errors import TernlatError
from .fieldscan import (exceptional_sets, ingest_fields, load_field_file,
                        scan_obstructions, scan_small_condition,
                        verify_identities, write_report)
from .numberfield import Element, FieldContext
from .obstruction import (DEFAULT_POOL_SIZE, dual_nonrepresentation,
                          indecomposables_classify, obstruction_search,
                          quartic_case_analysis)
from .polys import cos_minpoly
from .quadlattice import free_overlattice_test, ternary_classification


def parse_element(ctx: FieldContext, text: str) -> Element:
    """A bound such as "3*(2+sqrt2)": decimal integers and sqrt2 joined by
    +, - and * with parentheses and unary minus, read by Python's own
    expression parser and evaluated on the four node types allowed."""
    src = text.strip()     # `ast` rejects leading whitespace
    ops = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul}

    def value(node) -> Element:
        seg = ast.get_source_segment(src, node)
        if isinstance(node, ast.BinOp) and type(node.op) in ops:
            return ops[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if isinstance(node, ast.Name) and seg == "sqrt2":
            if ctx.sqrt2 is None:
                raise TernlatError("field has no sqrt2 tag")
            return ctx.sqrt2
        if isinstance(node, ast.Constant) and seg.isdigit():
            return ctx.from_rational(node.value)
        raise TernlatError(f"cannot parse {text!r}")

    try:
        if "#" in src or "\\" in src:    # no comments or line joins
            raise SyntaxError
        return value(ast.parse(src, mode="eval").body)
    except (SyntaxError, RecursionError):
        raise TernlatError(f"cannot parse {text!r}") from None


def _emit(args, verdicts: list, **metadata) -> None:
    """Write `{"metadata": {"command": <subcommand>, ...}, "verdicts": ...}`
    to `--out`, when given."""
    if args.out:
        write_report({"metadata": {"command": args.cmd, **metadata},
                      "verdicts": verdicts}, args.out)
        print(f"report written to {args.out}")


def cmd_small_elements(args) -> int:
    ctx = load_field_file(args.field)
    bound = parse_element(ctx, args.bound)
    mode = QueryMode.INTERVAL if args.mode == "interval" \
        else QueryMode.SQUARE_DOMINATED
    sols = dominated_elements(ctx, bound, mode, args.ceiling)
    for w in sols:
        print(ctx.format_element(w))
    print(f"# {len(sols)} elements with "
          f"{'0 <= w <= B' if mode is QueryMode.INTERVAL else 'w^2 <= B'}, "
          f"B = {args.bound} over {ctx.record.label}")
    _emit(args, [{"coords": list(w.coords)} for w in sols],
          field=ctx.record.label, bound=args.bound, mode=mode.value)
    return 0


def cmd_indecomposables(args) -> int:
    ctx = load_field_file(args.field)
    rep = indecomposables_classify(ctx, args.trace_bound, args.ceiling)
    for e in rep.entries:
        print(f"{ctx.format_element(e.element):24} {e.classification}")
    print(f"# {len(rep.entries)} indecomposables with trace <= "
          f"{args.trace_bound}; {len(rep.others)} outside the two classes")
    _emit(args, [{"coords": list(e.element.coords),
                  "class": e.classification} for e in rep.entries],
          field=ctx.record.label, trace_bound=args.trace_bound)
    return 0


def cmd_dual(args) -> int:
    ctx = load_field_file(args.field)
    diag = [parse_element(ctx, t) for t in args.diag.split(";")]
    if len(diag) != 3:
        raise TernlatError("--diag needs three ';'-separated entries")
    gamma = parse_element(ctx, args.gamma)
    tr = dual_nonrepresentation(ctx, diag, gamma, args.ceiling)
    if tr.is_valid:
        print(f"{args.gamma} is NOT represented by the dual of "
              f"<{args.diag}> (complete search, "
              f"candidate lists {tr.candidate_counts})")
    else:
        ce = ", ".join(ctx.format_element(e) for e in tr.counterexample)
        print(f"{args.gamma} IS represented: ({ce})")
    _emit(args, [tr.to_dict()])
    return 0


def cmd_classify_ternary(args) -> int:
    ctx = load_field_file(args.field)
    rep = ternary_classification(ctx, args.ceiling)
    for c in rep.cases:
        cls = c.lattice_class.value if c.lattice_class else "infeasible"
        print(f"offdiag ({ctx.format_element(c.w13)}, "
              f"{ctx.format_element(c.w23)}) -> {cls}")
    print(f"# classes found: {[c.value for c in rep.classes_found()]}")
    _emit(args, [{"w13": list(c.w13.coords), "w23": list(c.w23.coords),
                  "class": c.lattice_class.value if c.lattice_class else None}
                 for c in rep.cases], field=ctx.record.label)
    return 0


def cmd_case_analysis(args) -> int:
    mode = {"L1": "L1_extension", "L3": "L3_extension",
            "two": "nonsquarefree_two"}[args.mode]
    rep = quartic_case_analysis(mode, args.ceiling)
    if mode == "nonsquarefree_two":
        for b in rep.branches:
            print(f"beta24 = {b.beta24}: det = {b.determinant} = 0  =>  "
                  f"{b.identity_lhs} = {b.identity_rhs}")
        _emit(args, [b._asdict() for b in rep.branches], mode=mode)
        return 0
    fmt = rep.cases[0].alpha.ctx.format_element
    for c in rep.cases:
        line = f"alpha = {fmt(c.alpha):12} beta = {fmt(c.beta):12} {c.status}"
        if c.status == "admissible":
            line += (f"  x^2 = {fmt(c.x_squared)}, square class "
                     f"{fmt(c.residual)}")
        elif c.status == "reconstructs-base-lattice":
            line += (f"  x = {fmt(c.x_in_base)}, lattice "
                     f"{c.reconstruction_class.value}")
        print(line)
    print(f"# determinant formula verified: {rep.det_formula_verified}")
    print(f"# x^2 values: {[fmt(x) for x in rep.x_squared_values]}")
    print(f"# residual square classes: {[fmt(r) for r in rep.residuals]}")
    _emit(args, [{"alpha": list(c.alpha.coords), "beta": list(c.beta.coords),
                  "status": c.status,
                  "x_squared": list(c.x_squared.coords)
                  if c.x_squared is not None and c.x_squared.is_integral
                  else None} for c in rep.cases], mode=mode)
    return 0


def cmd_overlattice_test(args) -> int:
    ctx = load_field_file(args.field)
    res = free_overlattice_test(ctx, args.ceiling)
    if res.has_proper_free_classical_overlattice:
        t, gamma = res.witness
        print(f"{ctx.record.label}: proper classical free overlattice exists; "
              f"witness t = {ctx.format_element(t)}, "
              f"gamma = {ctx.format_element(gamma)}")
    else:
        print(f"{ctx.record.label}: no proper classical free overlattice "
              "(5+3*sqrt2 is squarefree)")
    _emit(args, [{"overlattice": res.has_proper_free_classical_overlattice,
                  "witness": None if res.witness is None else
                  [list(e.coords) for e in res.witness]}],
          field=ctx.record.label)
    return 0


def cmd_cyclotomic(args) -> int:
    rep = alpha_beta_verify(args.k)
    print(f"F{args.k}: degree {rep.degree}, mu = {rep.mu}, "
          f"minimal polynomial of 2cos(2pi/{args.k}): "
          f"{cos_minpoly(args.k)}")
    print(f"N(alpha) = {rep.norm_alpha}, N(beta) = {rep.norm_beta}, "
          f"Tr(alpha) = {rep.trace_alpha}, Tr(beta) = {rep.trace_beta}")
    if rep.alpha_indecomposable is not None:
        print(f"alpha, beta indecomposable: {rep.alpha_indecomposable}, "
              f"{rep.beta_indecomposable}")
    _emit(args, [rep._asdict()], k=args.k)
    return 0


def cmd_subfield(args) -> int:
    ctx = load_field_file(args.field)
    w = subfield_test(ctx, args.k, args.ceiling)
    if w is None:
        print(f"F{args.k} is not a subfield of {ctx.record.label}")
    else:
        print(f"F{args.k} subfield generator found: {ctx.format_element(w)}")
    _emit(args, [{"generator": None if w is None else list(w.coords)}],
          k=args.k, field=ctx.record.label)
    return 0


def cmd_obstruct(args) -> int:
    ctx = load_field_file(args.field)
    cert = obstruction_search(ctx, args.pool, args.ceiling)
    if cert is None:
        print(f"{ctx.record.label}: no obstruction certificate within the "
              f"pool (size {args.pool})")
    else:
        quad = ", ".join(ctx.format_element(e) for e in cert.quadruple)
        print(f"{ctx.record.label}: certificate with quadruple ({quad})")
        print("  orthogonality forced for all pairs: "
              f"{cert.orthogonality.is_valid}")
        print(f"  dual non-representation: {cert.nonrepresentation.is_valid}")
    _emit(args, [{"status": "pool-exhausted"} if cert is None
                 else cert.to_dict()], field=ctx.record.label)
    return 0


def cmd_scan(args) -> int:
    table = ingest_fields(args.fields)
    if args.command == "small":
        report = scan_small_condition(table, args.max_disc,
                                      unit_filter=not args.no_unit_filter,
                                      ceiling=args.ceiling)
        sets = exceptional_sets(report)
        for v in report["verdicts"]:
            print(f"{v['label']:10} disc {v['disc']:7} {v['status']}"
                  + ("" if v["status"] != "ok" else
                     f"  3lambda:{'EXC' if v['exceptional_3lambda'] else 'ok'}"
                     f"  6:{'EXC' if v['exceptional_6'] else 'ok'}"))
        print(f"# exceptional for 3*lambda: {sets['3lambda']}")
        print(f"# exceptional for 6: {sets['6']}")
    else:                                   # argparse allows only these two
        report = scan_obstructions(table, args.max_disc, args.pool,
                                   args.ceiling)
        for v in report["verdicts"]:
            print(f"{v['label']:10} disc {v['disc']:7} {v['status']}")
    # fieldscan's own report; its `command` replaces "scan"
    _emit(args, report["verdicts"], **report["metadata"])
    return int(any(v["status"] == "error" for v in report["verdicts"]))


def cmd_verify_identities(args) -> int:
    rep = verify_identities()
    for r in rep["sum_of_squares"]:
        print(f"2*{r['form']} as a sum of {r['squares']} squares: exact")
    g = rep["gap_maximum"]
    print(f"pairwise-gap maximum on [-1,1]^4: {g['maximum']:.12f} "
          f"(closed form {g['closed_form']:.12f}, error {g['error']:.2e})")
    b = rep["disc_bound"]
    print(f"discriminant bound constant: {b['value']:.2f} "
          f"in [{b['lower']:.4f}, {b['upper']:.4f}]")
    _emit(args, [rep])
    return 0


def cmd_sum_of_squares(args) -> int:
    ctx = load_field_file(args.field)
    gamma = parse_element(ctx, args.gamma)
    dec = sum_of_squares_test(gamma, args.n, args.ceiling)
    if dec is None:
        print(f"{args.gamma} is NOT a sum of {args.n} squares "
              f"over {ctx.record.label} (complete search)")
    else:
        parts = " + ".join(f"({ctx.format_element(w)})^2" for w in dec) or "0"
        print(f"{args.gamma} = {parts}")
    _emit(args, [{"decomposition": None if dec is None else
                  [list(w.coords) for w in dec]}],
          field=ctx.record.label, n=args.n)
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ternlat",
        description="Exact arithmetic and universality obstructions for "
                    "ternary classical lattices over totally real fields.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, field=True, ceiling=True):
        if field:
            p.add_argument("--field", required=True,
                           help="single-field JSON file")
        if ceiling:
            p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING,
                           help="enumeration candidate cap")
        p.add_argument("--out", help="write a JSON report here")

    p = sub.add_parser("small-elements", help="enumerate dominated elements")
    common(p)
    p.add_argument("--bound", required=True)
    p.add_argument("--mode", choices=["square", "interval"], default="square")
    p.set_defaults(fn=cmd_small_elements)

    p = sub.add_parser("indecomposables",
                       help="classify indecomposables up to a trace bound")
    common(p)
    p.add_argument("--trace-bound", type=int, required=True)
    p.set_defaults(fn=cmd_indecomposables)

    p = sub.add_parser("dual", help="dual non-representation transcript")
    common(p)
    p.add_argument("--diag", required=True,
                   help="three ';'-separated diagonal entries")
    p.add_argument("--gamma", required=True)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("classify-ternary",
                       help="classify the 3x3 off-diagonal case table")
    common(p)
    p.set_defaults(fn=cmd_classify_ternary)

    p = sub.add_parser("case-analysis", help="4x4 determinant case analysis")
    common(p, field=False)
    p.add_argument("--mode", choices=["L1", "L3", "two"], required=True)
    p.set_defaults(fn=cmd_case_analysis)

    p = sub.add_parser("overlattice-test",
                       help="free classical overlattice criterion")
    common(p)
    p.set_defaults(fn=cmd_overlattice_test)

    p = sub.add_parser("cyclotomic", help="real cyclotomic subfield data")
    common(p, field=False, ceiling=False)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_cyclotomic)

    p = sub.add_parser("subfield", help="test containment of F_k")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_subfield)

    p = sub.add_parser("obstruct", help="search an obstruction certificate")
    common(p)
    p.add_argument("--pool", type=int, default=DEFAULT_POOL_SIZE)
    p.set_defaults(fn=cmd_obstruct)

    p = sub.add_parser("scan", help="batch scan over a field table")
    p.add_argument("--fields", required=True, help="JSONL field table")
    p.add_argument("--max-disc", type=int, default=20000)
    p.add_argument("--command", choices=["small", "obstruct"],
                   default="small")
    p.add_argument("--pool", type=int, default=DEFAULT_POOL_SIZE)
    p.add_argument("--no-unit-filter", action="store_true")
    common(p, field=False)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("verify-identities", help="closed-form checks")
    common(p, field=False, ceiling=False)
    p.set_defaults(fn=cmd_verify_identities)

    p = sub.add_parser("sum-of-squares",
                       help="decompose gamma as a sum of n squares")
    common(p)
    p.add_argument("--gamma", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_sum_of_squares)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        # counts are checked once, before any field is loaded
        for flag in ("ceiling", "pool"):
            if hasattr(args, flag):
                require_count(f"--{flag}", getattr(args, flag))
        return args.fn(args)
    except (TernlatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
