#!/usr/bin/env python3
"""Assemble the shipped field tables from first principles.

Builds every totally real quartic field containing sqrt2 with field
discriminant <= 20000 (plus the discriminant-51200 field used by the
obstruction demos) by sweeping quadratic extensions of Z[sqrt2].  The number
theory lives in `ternlat.orders`: `maximal_order` saturates each order with
round-2 steps, and `find_units` searches unit generators whose classes are
independent modulo squares.  Narrow class data is derived from
unit signatures: d independent unit classes generate the full unit group
modulo squares for a totally real field of degree d, so
|U+/U^2| = 2^d / #signatures exactly.

Class numbers themselves are not computable here and are taken as input
(all fields in the table below discriminant 51200 have h = 1; the
discriminant-51200 field has h = 2).

Usage: python scripts/build_field_table.py [--out fields/]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ternlat import polys  # noqa: E402
from ternlat.enumeration import sqrt_element  # noqa: E402
from ternlat.numberfield import (FieldContext, FieldRecord,  # noqa: E402
                                 load_field)
from ternlat.orders import Order, find_units, maximal_order  # noqa: E402


# ---------------------------------------------------------------------------
# field assembly helpers

def context_from_order(label, order: Order) -> FieldContext:
    rec = FieldRecord(
        label=label, degree=order.d, poly=tuple(int(c) for c in order.p),
        basis=tuple(tuple(row) for row in order.basis), disc=order.disc)
    return load_field(rec)


def record_dict(label, order: Order, h, h_plus, units, sqrt2):
    return {
        "label": label,
        "degree": order.d,
        "poly": [int(c) for c in order.p],
        "basis": [[str(x) for x in row] for row in order.basis],
        "disc": order.disc,
        "h": h,
        "h_plus": h_plus,
        "units": [[list(u.coords), u.den] for u in units],
        "sqrt2": list(sqrt2.coords),
    }


# ---------------------------------------------------------------------------
# the quartic sweep

# defining polynomials pinned for the shipped labels, keyed by the sweep's
# delta of the same field, so that each order is built once
STANDARD_POLYS = {
    (15, -10): [4, 0, -6, 0, 1],       # K1600: x^4 - 6x^2 + 4
    (2, -1): [2, 0, -4, 0, 1],         # K2048: x^4 - 4x^2 + 2
    (7, -2): [1, 2, -3, -2, 1],        # K2624: x^4 - 2x^3 - 3x^2 + 2x + 1
    (3, -1): [7, 0, -6, 0, 1],         # K7168: x^4 - 6x^2 + 7
    (39, -26): [-1, 10, -9, -2, 1],    # K10816: x^4 - 2x^3 - 9x^2 + 10x - 1
    (4, -1): [14, 0, -8, 0, 1],        # K14336: x^4 - 8x^2 + 14
    (6, -3): [18, 0, -12, 0, 1],       # K18432: x^4 - 12x^2 + 18
    (10, -5): [50, 0, -20, 0, 1],      # K51200: x^4 - 20x^2 + 50
}

# tag choices pinned for reproducibility of downstream demos (power coords)
SQRT2_OVERRIDE = {
    7168: (3, 0, -1, 0),           # 3 - theta^2, so theta^2 = 3 - sqrt2
}

KNOWN_DISCS = {1600, 2048, 2304, 2624, 7168, 10816, 12544, 14336, 18432,
               18496, 51200}


def sqrt_in_zsqrt2(a, b):
    """Integer (x, y) with (x + y sqrt2)^2 = a + b sqrt2, or None."""
    if a < 0:
        return None
    if b % 2 != 0:
        return None
    for x in range(0, isqrt(a) + 1):
        r = a - x * x
        if r < 0:
            break
        if r % 2 == 0:
            y2 = r // 2
            y = isqrt(y2)
            if y * y == y2:
                if 2 * x * y == b:
                    return (x, y)
                if 2 * x * y == -b:
                    return (x, -y)
    return None


def rational_sqrt(n: int):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def is_quartic_field(a, b):
    """Is x^4 - 2a x^2 + (a^2 - 2b^2) irreducible (b != 0)?"""
    n = a * a - 2 * b * b
    m = rational_sqrt(n)
    if m is None:
        return True
    for mm in (m, -m):
        s = 2 * a + 2 * mm
        if s >= 0 and rational_sqrt(s) is not None:
            return False
    return True


def same_quartic_field(d1, d2):
    """F(sqrt(a1 + b1 sqrt2)) isomorphic to F(sqrt(a2 + b2 sqrt2))?"""
    for e2 in (d2, (d2[0], -d2[1])):
        a = d1[0] * e2[0] + 2 * d1[1] * e2[1]
        b = d1[0] * e2[1] + d1[1] * e2[0]
        if sqrt_in_zsqrt2(a, b):
            return True
    return False


def quartic_sweep(max_disc=20000, amax=40, bmax=28, nmax=700):
    deltas = []
    for a in range(1, amax + 1):
        for b in range(-bmax, bmax + 1):
            n = a * a - 2 * b * b
            if n <= 0 or n > nmax:
                continue
            if b == 0:
                continue
            if not is_quartic_field(a, b):
                continue
            if any(same_quartic_field((a, b), dd) for dd in deltas):
                continue
            deltas.append((a, b))
    for m in (3, 5, 7, 13, 17):   # biquadratic: delta rational
        if not any(same_quartic_field((m, 0), dd) for dd in deltas):
            deltas.append((m, 0))
    fields = []
    for (a, b) in deltas:
        if (a, b) in STANDARD_POLYS:
            poly = STANDARD_POLYS[a, b]
        elif b != 0:
            poly = [a * a - 2 * b * b, 0, -2 * a, 0, 1]
        else:
            poly = [(a - 2) ** 2, 0, -2 * (a + 2), 0, 1]
        # squarefree: x^2 = a -+ sqrt2*|b| with a^2 - 2b^2 > 0, b != 0, or
        # x = +-(sqrt(m) -+ sqrt2) with m != 2; the pinned ones are irreducible
        if len(polys.isolate_real_roots(poly)) != 4:
            continue
        order = maximal_order(poly)
        disc = order.disc
        if disc <= max_disc or disc in KNOWN_DISCS:
            fields.append(((a, b), order))
    return fields


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="fields")
    ap.add_argument("--max-disc", type=int, default=20000)
    args = ap.parse_args()
    outdir = Path(args.out)
    outdir.mkdir(exist_ok=True)

    t0 = time.time()
    print("sweeping quartic extensions of Z[sqrt2] ...", flush=True)
    fields = quartic_sweep(args.max_disc)
    print(f"  {len(fields)} candidate fields in {time.time()-t0:.1f}s",
          flush=True)
    by_disc = {}
    for prov, order in fields:
        by_disc.setdefault(order.disc, []).append((prov, order))
    rows = []
    for disc in sorted(by_disc):
        entries = by_disc[disc]
        kept = []
        for prov, order in entries:
            if any(same_quartic_field(prov, p2) for p2, _ in kept):
                continue
            kept.append((prov, order))
        for idx, (prov, order) in enumerate(kept):
            label = f"K{disc}" if len(kept) == 1 else f"K{disc}{'abcd'[idx]}"
            ctx = context_from_order(label, order)
            s2 = sqrt_element(ctx.from_rational(2))
            if s2 is None:
                print(f"  {label}: no sqrt2 (prov {prov}), skipped", flush=True)
                continue
            if disc in SQRT2_OVERRIDE:
                s2 = ctx.from_power_coords(SQRT2_OVERRIDE[disc])
                assert s2.is_integral and s2 * s2 == ctx.from_rational(2)
            h = 2 if disc == 51200 else 1
            # the tagged record loads afresh; loading checks that the tag
            # squares to 2
            gens, uratio = find_units(load_field(
                ctx.record._replace(sqrt2=tuple(s2.coords))))
            h_plus = h * uratio
            rows.append(record_dict(label, order, h, h_plus, gens, s2))
            print(f"  {label}: disc {disc} prov {prov} h={h} h+={h_plus} "
                  f"units={[str(g) for g in gens]}", flush=True)
    rows.sort(key=lambda r: (r["disc"], r["label"]))
    table = outdir / "quartic_sqrt2.jsonl"
    with table.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    print(f"wrote {table} with {len(rows)} fields in {time.time()-t0:.1f}s")

    singles = {
        "q": {"label": "Q", "degree": 1, "poly": [0, 1], "basis": [["1"]],
              "disc": 1, "h": 1, "h_plus": 1, "units": [[[-1], 1]]},
        "qsqrt2": {"label": "Q(sqrt2)", "degree": 2, "poly": [-2, 0, 1],
                   "basis": [["1", "0"], ["0", "1"]], "disc": 8, "h": 1,
                   "h_plus": 1, "units": [[[-1, 0], 1], [[1, 1], 1]],
                   "sqrt2": [0, 1]},
        "qsqrt3": {"label": "Q(sqrt3)", "degree": 2, "poly": [-3, 0, 1],
                   "basis": [["1", "0"], ["0", "1"]], "disc": 12, "h": 1,
                   "h_plus": 2, "units": [[[-1, 0], 1], [[2, 1], 1]]},
        "qsqrt5": {"label": "Q(sqrt5)", "degree": 2, "poly": [-5, 0, 1],
                   "basis": [["1", "0"], ["-1/2", "1/2"]], "disc": 5, "h": 1,
                   "h_plus": 1, "units": [[[-1, 0], 1], [[0, 1], 1]]},
    }
    for name, data in singles.items():
        with (outdir / f"{name}.json").open("w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        print(f"wrote {outdir}/{name}.json")


if __name__ == "__main__":
    main()
