#!/usr/bin/env python3
"""Run the headline computations end to end and print their summaries.

Covers: the five dominated-element lists over the sqrt2 field, both
small-condition scans over the shipped quartic table, the two determinant
case analyses with their residual square classes, the symbolic branch mode,
the closed-form identity checks, and the obstruction certificate search on
the class-number-two field.

Usage: python scripts/reproduce_headline_runs.py [--fields fields/]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ternlat.enumeration import dominated_elements  # noqa: E402
from ternlat.fieldscan import (exceptional_sets, ingest_fields,  # noqa: E402
                               load_field_file, scan_small_condition,
                               verify_identities)
from ternlat.obstruction import (DEFAULT_POOL_SIZE,  # noqa: E402
                                 obstruction_search, quartic_case_analysis)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fields", default="fields")
    args = ap.parse_args()
    fields = Path(args.fields)
    t0 = time.time()

    ctx = load_field_file(fields / "qsqrt2.json")
    lam = 2 + ctx.sqrt2
    print("== dominated-element lists over the sqrt2 field")
    for name, bound in [("2+sqrt2", lam), ("3", ctx.from_rational(3)),
                        ("6", ctx.from_rational(6)), ("3*(2+sqrt2)", 3 * lam),
                        ("3*(2-sqrt2)", 3 * (2 - ctx.sqrt2))]:
        sols = dominated_elements(ctx, bound)
        print(f"  w^2 <= {name:12} -> {len(sols):2} elements: "
              f"{[ctx.format_element(w) for w in sols]}")

    print("== small-condition scans over the quartic table")
    table = ingest_fields(fields / "quartic_sqrt2.jsonl")
    for flt in (True, False):
        sets = exceptional_sets(scan_small_condition(table, 20000,
                                                     unit_filter=flt))
        print(f"  unit filter {'on ' if flt else 'off'}: "
              f"3*(2+sqrt2) -> {sorted(sets['3lambda'])}; "
              f"6 -> {sorted(sets['6'])}")

    print("== determinant case analyses")
    for mode in ("L1_extension", "L3_extension"):
        rep = quartic_case_analysis(mode)
        fmt = rep.cases[0].alpha.ctx.format_element
        print(f"  {mode}: x^2 in {[fmt(x) for x in rep.x_squared_values]}")
        print(f"    residual square classes {[fmt(r) for r in rep.residuals]}")
    rep = quartic_case_analysis("nonsquarefree_two")
    for b in rep.branches:
        print(f"  symbolic branch beta24={b.beta24}: {b.identity_lhs} = "
              f"{b.identity_rhs}")

    print("== closed-form identity checks")
    rep = verify_identities()
    print(f"  sum-of-squares identities exact: "
          f"{all(r['exact'] for r in rep['sum_of_squares'])}; "
          f"gap max err {rep['gap_maximum']['error']:.1e}; "
          f"disc bound {rep['disc_bound']['value']:.2f}")

    print("== obstruction certificate over the class-number-two field")
    ctx = table.context("K51200")
    cert = obstruction_search(ctx, DEFAULT_POOL_SIZE)
    if cert is None:
        print("  no certificate (unexpected)")
        return 1
    quad = ", ".join(ctx.format_element(e) for e in cert.quadruple)
    norms = [int(abs(e.norm())) for e in cert.quadruple]
    print(f"  quadruple ({quad}) with norms {norms}; valid = {cert.is_valid}")
    print(f"done in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
