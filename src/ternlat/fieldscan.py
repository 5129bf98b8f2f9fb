"""Field-table ingestion, batch scans, and closed-form identity checks.

The on-disk table format is one JSON object per line with keys `label`,
`degree`, `poly` (ascending integer coefficients), `basis` (rows of "p/q"
strings over the power basis), `disc`, `h`, `h_plus`, and optionally
`units` (pairs [coords, den]) and `sqrt2` (integer coordinates):
`record_row` writes a record in it and `parse_record` reads one.  Reports
are plain dictionaries so they serialize to JSON unchanged.

`verify_identities` decides nothing in floating point: its identities are
`MPoly` equalities and its bound constant is compared as `Fraction`s;
floats only render the proven values.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from typing import Dict, List, Tuple

from . import __version__
from .enumeration import (DEFAULT_CEILING, require_count, solution_box,
                          sqrt2_span_witnesses)
from .errors import (FieldDataError, IdentityMismatch, InvalidInput,
                     ParseError, TernlatError, ValidationError)
from .intervals import sqrt_numerator
from .numberfield import (FieldContext, FieldRecord, basis_rows,
                          class_numbers_ok, load_field, sqrt2_context)
from .obstruction import DEFAULT_POOL_SIZE, obstruction_search
from .polys import MPoly
from .quadlattice import LatticeClass, standard_lattice


# ---------------------------------------------------------------------------
# ingestion

def _integer(x, text: bool = False):
    """x if it is a JSON integer, or with `text` a string: no float, and
    no bool, which `int` and `Fraction` would read as 0 or 1."""
    if type(x) is not int and not (text and type(x) is str):
        raise TypeError(f"{x!r} is not a JSON integer" +
                        ' or "p/q" string' * text)
    return x


def parse_record(obj: dict) -> FieldRecord:
    """The record of one table object; integer fields must be JSON integers
    and basis entries JSON integers or "p/q" strings (`_integer`), `disc`
    the trace-form determinant of the basis (`orders.Order`) and the class
    numbers those `load_field` admits (`numberfield.class_numbers_ok`),
    else `ValidationError`."""
    if not isinstance(obj, dict):
        raise ValidationError("?", "malformed record: not a JSON object")
    try:
        label = str(obj["label"])
        degree = _integer(obj["degree"])
        poly = tuple(map(_integer, obj["poly"]))
        basis = tuple(tuple(Fraction(_integer(x, True)) for x in row)
                      for row in obj["basis"])
        disc = _integer(obj["disc"])
        h = _integer(obj.get("h", 1))
        h_plus = _integer(obj.get("h_plus", h))
        units = None
        if obj.get("units") is not None:
            units = tuple((tuple(map(_integer, coords)), _integer(den))
                          for coords, den in obj["units"])
        sqrt2 = None
        if obj.get("sqrt2") is not None:
            sqrt2 = tuple(map(_integer, obj["sqrt2"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(str(obj.get("label", "?")),
                              f"malformed record: {exc}")
    if degree < 1 or len(poly) != degree + 1 or poly[-1] != 1:
        raise ValidationError(label, "polynomial must be monic of the "
                                     "declared degree")
    if disc <= 0:
        raise ValidationError(label, "discriminant must be positive")
    if not class_numbers_ok(h, h_plus):
        raise ValidationError(label, "h_plus is not h >= 1 times 2^k")
    if len(basis) != degree or any(len(row) != degree for row in basis):
        raise ValidationError(label, f"basis is not a {degree}x{degree} "
                                     f"matrix")
    from .orders import Order       # importing fieldscan loads no orders
    try:
        order_disc = Order(poly, *basis_rows(basis)).disc
    except RuntimeError as exc:
        raise ValidationError(label, str(exc))
    if disc != order_disc:
        raise ValidationError(label, f"disc {disc} is not the basis "
                                     f"discriminant {order_disc}")
    return FieldRecord(label=label, degree=degree, poly=poly, basis=basis,
                       disc=disc, h=h, h_plus=h_plus, units=units,
                       sqrt2=sqrt2)


def record_row(rec: FieldRecord) -> dict:
    """The JSON object of a record: its fields in order, basis entries as
    "p/q" strings, and absent units or tag left out."""
    row = {k: v for k, v in rec._asdict().items() if v is not None}
    row["basis"] = [[str(x) for x in r] for r in rec.basis]
    return row


class FieldTable:
    def __init__(self, records: Tuple[FieldRecord, ...]):
        labels = [r.label for r in records]
        if len(set(labels)) != len(labels):
            raise ValidationError("table", "duplicate labels")
        self.records = records
        self._contexts: Dict[str, FieldContext] = {}

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def by_label(self, label: str) -> FieldRecord:
        for r in self.records:
            if r.label == label:
                return r
        raise InvalidInput(f"no field labelled {label!r} in the table")

    def context(self, label: str) -> FieldContext:
        if label not in self._contexts:
            self._contexts[label] = load_field(self.by_label(label))
        return self._contexts[label]


def ingest_fields(path) -> FieldTable:
    """Parse and validate a line-oriented UTF-8 field table."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line or line.startswith("#"):
                    continue
                obj = json.loads(line)
            except ValueError as exc:   # UnicodeDecodeError, JSONDecodeError
                raise ParseError(lineno, f"invalid JSON: {exc}")
            try:
                records.append(parse_record(obj))
            except TernlatError as exc:
                raise ParseError(lineno, str(exc))
    return FieldTable(tuple(records))


def load_field_file(path) -> FieldContext:
    """Load a field from a single-object UTF-8 JSON file, or from a table
    with the `table.jsonl#LABEL` syntax."""
    path = str(path)
    if "#" in path:
        table_path, label = path.rsplit("#", 1)
        return ingest_fields(table_path).context(label)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        obj = json.loads(data.decode("utf-8"))
    except ValueError as exc:           # UnicodeDecodeError, JSONDecodeError
        raise ValidationError(path, f"invalid JSON: {exc}")
    return load_field(parse_record(obj))


# ---------------------------------------------------------------------------
# scans

def _scan(table: FieldTable, disc_cap: int, worker, metadata: dict) -> dict:
    """One verdict per field with disc <= disc_cap, in (disc, label) order:
    `worker(rec, out)` fills `out`, and a `TernlatError` makes it an error."""
    t0 = time.time()
    rows = sorted((r for r in table if r.disc <= disc_cap),
                  key=lambda r: (r.disc, r.label))
    verdicts = []
    for rec in rows:
        out = {"label": rec.label, "disc": rec.disc}
        try:
            worker(rec, out)
        except TernlatError as exc:
            out["status"] = "error"
            out["error"] = f"{type(exc).__name__}: {exc}"
        verdicts.append(out)
    return {
        "metadata": dict(metadata, max_disc=disc_cap,
                         fields_scanned=len(rows),
                         elapsed_seconds=round(time.time() - t0, 3),
                         version=__version__),
        "verdicts": verdicts,
    }


def scan_small_condition(table: FieldTable, disc_cap: int,
                         unit_filter: bool = True,
                         ceiling: int = DEFAULT_CEILING) -> dict:
    """Per field: do any solutions of w^2 <= 3*lambda or w^2 <= 6 leave the
    span of {1, sqrt2}?  Exceptional fields are reported with witnesses."""
    require_count("ceiling", ceiling)

    def worker(rec: FieldRecord, out: dict) -> None:
        if rec.sqrt2 is None:
            out["status"] = "not-applicable"
            return
        if not class_numbers_ok(rec.h, rec.h_plus):
            raise FieldDataError(
                f"{rec.label}: h_plus is not h >= 1 times 2^k")
        if unit_filter and rec.h_plus != rec.h:
            out.update(status="filtered", h_plus_over_h=rec.h_plus // rec.h)
            return
        ctx = table.context(rec.label)
        b3, b6 = 3 * (2 + ctx.sqrt2), ctx.from_rational(6)
        t0 = time.time()
        w3 = sqrt2_span_witnesses(ctx, b3, ceiling)
        w6 = sqrt2_span_witnesses(ctx, b6, ceiling)
        box3 = solution_box(ctx, b3, ceiling=ceiling)
        box6 = solution_box(ctx, b6, ceiling=ceiling)
        out.update({
            "status": "ok",
            "exceptional_3lambda": bool(w3),
            "witnesses_3lambda": [list(w.coords) for w in w3],
            "exceptional_6": bool(w6),
            "witnesses_6": [list(w.coords) for w in w6],
            "box_3lambda": box3.to_dict(),
            "box_6": box6.to_dict(),
            "seconds": round(time.time() - t0, 3),
        })

    return _scan(table, disc_cap, worker,
                 {"command": "small-condition", "unit_filter": unit_filter,
                  "bounds": ["3*(2+sqrt2)", "6"], "ceiling": ceiling})


def exceptional_sets(report: dict) -> Dict[str, List[str]]:
    """Labels of exceptional fields per bound, from a small-condition report."""
    out = {"3lambda": [], "6": []}
    for v in report["verdicts"]:
        if v.get("status") != "ok":
            continue
        if v["exceptional_3lambda"]:
            out["3lambda"].append(v["label"])
        if v["exceptional_6"]:
            out["6"].append(v["label"])
    return out


def scan_obstructions(table: FieldTable, disc_cap: int,
                      pool_size: int = DEFAULT_POOL_SIZE,
                      ceiling: int = DEFAULT_CEILING) -> dict:
    """Per quartic field: search an obstruction certificate.  The ingested
    class numbers are echoed as `h` and `h_plus`; no verdict reads them."""
    require_count("pool size", pool_size)
    require_count("ceiling", ceiling)

    def worker(rec: FieldRecord, out: dict) -> None:
        out.update(h=rec.h, h_plus=rec.h_plus)
        ctx = table.context(rec.label)
        t0 = time.time()
        cert = obstruction_search(ctx, pool_size, ceiling)
        out["seconds"] = round(time.time() - t0, 3)
        if cert is None:
            out["status"] = "pool-exhausted"
        else:
            out["status"] = "certificate"
            out["certificate"] = cert.to_dict()

    return _scan(table, disc_cap, worker,
                 {"command": "obstruct", "pool_size": pool_size,
                  "ceiling": ceiling})


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# closed-form identity checks

def sum_of_squares_identities(ctx: FieldContext) -> List[dict]:
    """The four exact identities expressing twice each base-field universal
    ternary form, the value of its `quadlattice.standard_lattice` on (x, y,
    z), as a sum of at most four squares of linear forms."""
    s = ctx.sqrt2
    one, zero, two = ctx.one, ctx.zero, ctx.from_rational(2)
    x, y, z = xyz = [MPoly.var(i, 3, one) for i in range(3)]
    specs = [
        ("Q1", LatticeClass.L1,
         [(s, zero, zero), (zero, s, zero), (zero, zero, one + s),
          (zero, zero, one)]),
        ("Q2", LatticeClass.L2,
         [(s, zero, zero), (zero, one + s, s - one), (zero, one, one)]),
        ("Q3", LatticeClass.L3,
         [(s, zero, zero), (zero, one + s, zero), (zero, one, two),
          (zero, zero, s)]),
        ("Q3p", LatticeClass.L3P,
         [(s, zero, zero), (zero, one - s, zero), (zero, one, two),
          (zero, zero, s)]),
    ]
    results = []
    for name, cls, linear_forms in specs:
        total = MPoly()
        for c0, c1, c2 in linear_forms:
            lf = x * c0 + y * c1 + z * c2
            total = total + lf * lf
        ok = total == standard_lattice(ctx, cls).value(xyz) * two
        results.append({"form": name, "squares": len(linear_forms),
                        "exact": ok})
        if not ok:
            raise IdentityMismatch(f"sum-of-squares identity fails for {name}")
    return results


# the square of `quartic_gap_maximum`, a factor of the degree-4 disc bound
GAP_SQUARE_MAX = Fraction(2 ** 12, 5 ** 5)


def quartic_gap_maximum() -> dict:
    """The largest product of the six pairwise gaps of four points in
    [-1, 1], 2^6 5^(-5/2) at -1, -1/sqrt5, 1/sqrt5, 1, proved exactly.

    Moving sorted points affinely to x_1 = -1, x_4 = 1 multiplies every gap
    by 2 / (x_4 - x_1) >= 1, leaving g = 2(1 - b^2)(1 - c^2)(c - b), b = x_2
    <= c = x_3.  With t = b^2 + c^2, (2 - t)^2 - 4(1 - b^2)(1 - c^2) =
    (b^2 - c^2)^2 and 2t - (c - b)^2 = (b + c)^2 give g^2 <= t(2 - t)^4 / 2.
    With u = 2 - t >= 0, 8192 - 3125 t(2 - t)^4 = (5t - 2)^2 (125u^3 +
    150u^2 + 160u + 128) >= 0, so g^2 <= 2^12 / 5^5, which b = -c, b^2 =
    1/5 attains.  Raises IdentityMismatch when an identity (an `MPoly`
    equality) or the attained value (in `Fraction`s) fails; the returned
    floats only render the proven values.
    """
    b, c = MPoly.var(0, 2), MPoly.var(1, 2)
    one = MPoly.const(1, 2)
    t = b * b + c * c
    u = one * 2 - t
    cofactor = MPoly()
    for a in (125, 150, 160, 128):
        cofactor = cofactor * u + one * a
    identities = [
        (u * u - (one - b * b) * (one - c * c) * 4,
         (b * b - c * c) * (b * b - c * c)),
        (t * 2 - (c - b) * (c - b), (b + c) * (b + c)),
        (one * 8192 - t * u * u * u * u * 3125,
         (t * 5 - one * 2) * (t * 5 - one * 2) * cofactor),
    ]
    for k, (lhs, rhs) in enumerate(identities, start=1):
        if lhs != rhs:
            raise IdentityMismatch(f"gap maximum: identity {k} fails")
    b2 = Fraction(1, 5)     # g^2 at c = -b: 4 (1 - b^2)^4 (2b)^2
    if 4 * (1 - b2) ** 4 * 4 * b2 != GAP_SQUARE_MAX:
        raise IdentityMismatch("gap maximum: 2^12/5^5 is not attained")
    closed = 64 / (25 * math.sqrt(5))
    return {"maximum": closed, "closed_form": closed, "error": 0.0,
            "argmax": (-1.0, -1 / math.sqrt(5), 1 / math.sqrt(5), 1.0)}


def _disc_bound() -> Tuple[Fraction, Fraction]:
    """Rational bounds on (2^12/5^5) * (6 + 3 sqrt2)^6."""
    a, b = 577368, 408240            # (6 + 3 sqrt2)^6 = a + b sqrt2
    lo, hi = (Fraction(*sqrt_numerator(2, 1, up)) for up in (False, True))
    return GAP_SQUARE_MAX * (a + b * lo), GAP_SQUARE_MAX * (a + b * hi)


def discriminant_bound_value() -> dict:
    """(2^12/5^5) * (6 + 3 sqrt2)^6 with certified rational bounds,
    rendered as floats; IdentityMismatch unless both bounds lie in
    [1513496.95, 1513496.97], compared as `Fraction`s."""
    lo, hi = _disc_bound()
    bound = {"lower": float(lo), "upper": float(hi),
             "value": float((lo + hi) / 2)}
    if not Fraction("1513496.95") <= lo <= hi <= Fraction("1513496.97"):
        raise IdentityMismatch(f"discriminant bound {bound} out of tolerance")
    return bound


def verify_identities() -> dict:
    """All closed-form checks: the four sum-of-squares identities, the
    pairwise-gap maximum, and the quartic discriminant bound constant."""
    identities = sum_of_squares_identities(sqrt2_context())
    gap = quartic_gap_maximum()
    bound = discriminant_bound_value()
    return {"sum_of_squares": identities, "gap_maximum": gap,
            "disc_bound": bound, "ok": True}
