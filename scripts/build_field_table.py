#!/usr/bin/env python3
"""Assemble the shipped field tables from first principles.

Builds every totally real quartic field containing sqrt2 with field
discriminant <= --max-disc (default 20000), plus the discriminant-51200
field used by the obstruction demos, by sweeping quadratic extensions
F(sqrt delta) of F = Q(sqrt2) over a range of delta derived from the bound
(`quartic_sweep`), and the single fields Q, Q(sqrt2), Q(sqrt3) and
Q(sqrt5).  `orders.field_record` makes every record (maximal order,
discriminant, sqrt2 tag, units, h+) and `fieldscan.record_row` writes it.
Pinned so that the files stay as shipped: five polynomials of shipped
labels, the K7168 tag, the units 1+sqrt2 and 2+sqrt3 (`find_units` picks
their conjugates), and the Q(sqrt5) basis 1, (-1+sqrt5)/2 (LLL gives
(-1-sqrt5)/2).  Class numbers are not computable here and are input:
h = 2 for discriminant 51200, else h = 1.

Usage: python scripts/build_field_table.py [--out fields/] [--max-disc N]
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
    (5, 0): [4, 0, -6, 0, 1],          # K1600: x^4 - 6x^2 + 4
    (3, 0): [9, 0, -18, 0, 1],         # K2304: x^4 - 18x^2 + 9
    (7, -2): [1, 2, -3, -2, 1],        # K2624: x^4 - 2x^3 - 3x^2 + 2x + 1
    (13, 0): [-1, 10, -9, -2, 1],      # K10816: x^4 - 2x^3 - 9x^2 + 10x - 1
    (7, 0): [49, 0, -42, 0, 1],        # K12544: x^4 - 42x^2 + 49
}

# tag choices pinned for reproducibility of downstream demos (basis coords)
SQRT2_OVERRIDE = {
    7168: (0, -1, 0, 0),           # 3 - theta^2, so theta^2 = 3 - sqrt2
}

# K51200 = Q(sqrt(10 - 5 sqrt2)), h = 2, carries the obstruction demos: it is
# shipped whatever --max-disc is, so that the default table holds it
DEMO_DELTA = (10, -5)


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


def same_quartic_field(d1, d2):
    """F(sqrt(a1 + b1 sqrt2)) isomorphic to F(sqrt(a2 + b2 sqrt2))?"""
    for e2 in (d2, (d2[0], -d2[1])):
        a = d1[0] * e2[0] + 2 * d1[1] * e2[1]
        b = d1[0] * e2[1] + d1[1] * e2[0]
        if sqrt_in_zsqrt2(a, b):
            return True
    return False


def quartic_sweep(max_disc):
    """Every (delta, maximal order) of a totally real quartic K = F(sqrt
    delta) over F = Q(sqrt2) with disc K <= max_disc, one delta per field,
    and the demo field K51200.

    disc K = 64 N(d_{K/F}).  Write K = F(sqrt delta0) with delta0 totally
    positive and squarefree; delta0 divides the relative discriminant, so
    N(delta0) <= N = max_disc // 64.  Multiplying by the square eps^2 =
    3 + 2 sqrt2 moves sigma1/sigma2 by eps^4, so every class has a
    representative a + b sqrt2 with eps^-2 <= sigma1/sigma2 <= eps^2, that
    is |b| <= a/2.  Then a^2 = n + 2b^2 <= n + a^2/2, so a <= sqrt(2N).
    The sweep keeps the a + b sqrt2 of that range with 0 < n = a^2 - 2b^2
    <= N that are not squares in Z[sqrt2], the first of each field.  For
    b != 0 the quartic of sqrt delta is then irreducible; b = 0 gives the
    biquadratic fields Q(sqrt2, sqrt a).
    """
    nmax = max_disc // 64
    deltas = []
    for a in range(1, isqrt(2 * nmax) + 1):
        for b in range(-(a // 2), a // 2 + 1):
            n = a * a - 2 * b * b
            if not 0 < n <= nmax or sqrt_in_zsqrt2(a, b) is not None:
                continue
            if not any(same_quartic_field((a, b), dd) for dd in deltas):
                deltas.append((a, b))
    if not any(same_quartic_field(DEMO_DELTA, dd) for dd in deltas):
        deltas.append(DEMO_DELTA)
    fields = []
    for (a, b) in deltas:
        if (a, b) in STANDARD_POLYS:
            poly = STANDARD_POLYS[a, b]
        elif b != 0:                        # sqrt delta
            poly = [a * a - 2 * b * b, 0, -2 * a, 0, 1]
        else:                               # sqrt2 + sqrt a
            poly = [(a - 2) ** 2, 0, -2 * (a + 2), 0, 1]
        if len(polys.isolate_real_roots(poly)) != 4:
            raise RuntimeError(f"delta {(a, b)}: {poly} is not totally real")
        order = maximal_order(poly)
        if order.disc <= max_disc or (a, b) == DEMO_DELTA:
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
    # the sweep's deltas give pairwise distinct fields; a discriminant can
    # still carry two (79424 and 96832 do)
    for disc, group in sorted(by_disc.items()):
        for idx, (prov, order) in enumerate(group):
            label = f"K{disc}" if len(group) == 1 else f"K{disc}{'abcd'[idx]}"
            h = 2 if disc == 51200 else 1
            # the sweep's order is maximal_order(order.p)
            rec = field_record(order.p, label, order, h=h)
            if rec.sqrt2 is None:
                raise RuntimeError(f"{label}: no sqrt2 found in F(sqrt "
                                   f"{prov}), which contains sqrt2")
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
