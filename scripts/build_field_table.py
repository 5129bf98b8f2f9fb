#!/usr/bin/env python3
"""Assemble the shipped field tables from first principles.

Builds every totally real quartic field containing sqrt2 with field
discriminant <= 20000 (plus the discriminant-51200 field used by the
obstruction demos) by sweeping quadratic extensions of Z[sqrt2], and the
single fields Q, Q(sqrt2), Q(sqrt3) and Q(sqrt5).  `orders.field_record`
makes every record (maximal order, discriminant, sqrt2 tag, units, h+) and
`fieldscan.record_row` writes it.  Pinned so that the files stay as
shipped: the polynomials of the shipped labels, the K7168 tag, the units
1+sqrt2 and 2+sqrt3 (`find_units` picks their conjugates), and the Q(sqrt5)
basis 1, (-1+sqrt5)/2 (LLL gives (-1-sqrt5)/2).  Class numbers are not
computable here and are input: h = 2 for discriminant 51200, else h = 1.

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
from ternlat.fieldscan import record_row  # noqa: E402
from ternlat.numberfield import load_field  # noqa: E402
from ternlat.orders import Order, field_record, maximal_order  # noqa: E402


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

# tag choices pinned for reproducibility of downstream demos (basis coords)
SQRT2_OVERRIDE = {
    7168: (0, -1, 0, 0),           # 3 - theta^2, so theta^2 = 3 - sqrt2
}

KNOWN_DISCS = {1600, 2048, 2304, 2624, 7168, 10816, 12544, 14336, 18432,
               18496, 51200}


def sqrt_in_zsqrt2(a, b):
    """Integer (x, y) with (x + y sqrt2)^2 = a + b sqrt2, or None."""
    if a < 0 or b % 2 != 0:
        return None
    for x in range(0, isqrt(a) + 1):
        r = a - x * x
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
    return all(rational_sqrt(2 * a + 2 * mm) is None for mm in (m, -m))


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
    records = []
    for disc in sorted(by_disc):
        kept = []
        for prov, order in by_disc[disc]:
            if not any(same_quartic_field(prov, p2) for p2, _ in kept):
                kept.append((prov, order))
        for idx, (prov, order) in enumerate(kept):
            label = f"K{disc}" if len(kept) == 1 else f"K{disc}{'abcd'[idx]}"
            h = 2 if disc == 51200 else 1
            # the sweep's order is maximal_order(order.p)
            rec = field_record(order.p, label, order, h=h)
            if rec.sqrt2 is None:
                print(f"  {label}: no sqrt2 (prov {prov}), skipped", flush=True)
                continue
            if disc in SQRT2_OVERRIDE:
                # loading checks that the tag squares to 2
                rec = rec._replace(sqrt2=SQRT2_OVERRIDE[disc])
                load_field(rec)
            records.append(rec)
            print(f"  prov {prov}:", json.dumps(record_row(rec)), flush=True)
    table = outdir / "quartic_sqrt2.jsonl"
    with table.open("w") as fh:
        for rec in records:
            fh.write(json.dumps(record_row(rec)) + "\n")
    print(f"wrote {table} with {len(records)} fields in "
          f"{time.time()-t0:.1f}s")

    singles = {
        "q": field_record((0, 1), "Q"),
        "qsqrt2": field_record((-2, 0, 1), "Q(sqrt2)", units=[((1, 1), 1)]),
        "qsqrt3": field_record((-3, 0, 1), "Q(sqrt3)", units=[((2, 1), 1)]),
        # the maximal order Z[(1+sqrt5)/2] over its shipped basis
        "qsqrt5": field_record((-5, 0, 1), "Q(sqrt5)",
                               Order([-5, 0, 1], [[2, 0], [-1, 1]], 2)),
    }
    for name, rec in singles.items():
        with (outdir / f"{name}.json").open("w") as fh:
            json.dump(record_row(rec), fh, indent=1)
            fh.write("\n")
        print(f"wrote {outdir}/{name}.json")


if __name__ == "__main__":
    main()
