"""Workloads of the ternlat benchmark.

Each workload makes its inputs from the seed at set-up, runs one op per
call into a public function of the package, and checks each output
outside the timed region.  Every op loads its own `FieldContext`: users pay
root refinement on every CLI run and on every scanned field, and a context
keeps its refined roots, so a reused context would do less work on later
repeats and per-layer counts would not repeat.

A round is one pass over the workload's ops in seed order.  Rounds repeat
identical work, so per-round counts are exact.  `round_seconds` is the
nominal time of an untraced round on the machine the benchmark was built
on (2 cores, Python 3.11); it sets how many rounds a run makes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import List, Optional

FIELD_TABLE = "fields/quartic_sqrt2.jsonl"

# -- scan ---------------------------------------------------------------------

SCAN_CAP = 20000
OBSTRUCT_CAP = 250000
OBSTRUCT_LABEL = "K51200"
# Exceptional sets of the small-condition scan with the unit filter off
# (acceptance criterion 2), and the certificate norms of criterion 8.
EXCEPTIONAL_3LAMBDA = frozenset({"K2048", "K2624", "K7168", "K18432"})
EXCEPTIONAL_6 = frozenset({"K1600", "K2048", "K2624", "K10816", "K2304",
                           "K7168", "K14336"})
CERTIFICATE_NORMS = [1, 4, 14, 14]


class Scan:
    """Many small queries: one field verdict per op.

    The 18 table fields up to discriminant 20000 go through
    `scan_small_condition` with the unit filter off, and K51200 goes through
    `scan_obstructions` at cap 250000, the one field that runs the
    certificate search.  Building certified boxes dominates.
    """

    name = "scan"
    round_seconds = 1.8

    def __init__(self, ternlat, root, seed):
        self.t = ternlat
        table = ternlat.fieldscan.ingest_fields(root / FIELD_TABLE)
        ops = [(rec, False) for rec in table if rec.disc <= SCAN_CAP]
        ops.append((table.by_label(OBSTRUCT_LABEL), True))
        random.Random(seed).shuffle(ops)
        self.ops = ops
        self._revalidated = set()

    @staticmethod
    def label(op) -> str:
        return op[0].label

    def run(self, op):
        rec, obstruct = op
        table = self.t.fieldscan.FieldTable((rec,))
        if obstruct:
            return self.t.fieldscan.scan_obstructions(table, OBSTRUCT_CAP)
        return self.t.fieldscan.scan_small_condition(table, SCAN_CAP,
                                                     unit_filter=False)

    def check(self, op, report) -> Optional[str]:
        rec, obstruct = op
        verdicts = report["verdicts"]
        if len(verdicts) != 1 or verdicts[0]["label"] != rec.label:
            return f"expected one verdict for {rec.label}"
        v = verdicts[0]
        if obstruct:
            return self._check_certificate(rec, v)
        if v["status"] != "ok":
            return f"status {v['status']}: {v.get('error')}"
        for key, expected in (("exceptional_3lambda", EXCEPTIONAL_3LAMBDA),
                              ("exceptional_6", EXCEPTIONAL_6)):
            if v[key] != (rec.label in expected):
                return f"{key} is {v[key]}"
        return None

    def _check_certificate(self, rec, v) -> Optional[str]:
        if v["status"] != "certificate":
            return f"status {v['status']}: {v.get('error')}"
        cert = v["certificate"]
        if cert["valid"] is not True:
            return "certificate marked invalid"
        key = json.dumps(cert, sort_keys=True)
        if key in self._revalidated:
            return None
        ctx = self.t.numberfield.load_field(rec)
        norms = [int(abs(ctx.element(e["coords"], e["den"]).norm()))
                 for e in cert["quadruple"]]
        if norms != CERTIFICATE_NORMS:
            return f"certificate norms {norms}"
        if not self.t.obstruction.revalidate_certificate(ctx, cert):
            return "certificate does not revalidate"
        self._revalidated.add(key)
        return None

    @staticmethod
    def solutions(report) -> int:
        return len(report["verdicts"])


# -- enum ---------------------------------------------------------------------

# Target query sizes are the midpoints of equal strata on a log scale, so
# that every round costs about the same whatever the seed; the seed picks
# each query's field, mode and bound shape.
ENUM_STRATA = 5
ENUM_LOG10_SIZES = (3.0, 4.5)
# The baseline query, run in every round: 11,305 solutions from 11,305
# candidates.
ANCHOR = ("K51200", "square_dominated", 400, 11305)
DEFAULT_SEED = 0
EXPECTED_COUNTS = "perfbench/expected_counts.json"


class Enum:
    """Few large queries: one `dominated_elements` call per op.

    Each round holds the anchor query and one seed-made query per size
    stratum: a table field, a mode, and a totally positive bound t + e with
    e a small random element and t sized for the stratum's target count.
    Exact verification of each candidate dominates.
    """

    name = "enum"
    round_seconds = 3.5

    def __init__(self, ternlat, root, seed):
        self.t = ternlat
        QueryMode = ternlat.enumeration.QueryMode
        table = ternlat.fieldscan.ingest_fields(root / FIELD_TABLE)
        rng = random.Random(seed)
        self.contexts = {}
        label, mode, bound, solutions = ANCHOR
        anchor_rec = table.by_label(label)
        anchor = (anchor_rec, QueryMode(mode),
                  self._context(anchor_rec).from_rational(bound).coords)
        ops = [anchor]
        lo, hi = ENUM_LOG10_SIZES
        for i in range(ENUM_STRATA):
            target = 10 ** (lo + (hi - lo) * (i + 0.5) / ENUM_STRATA)
            rec = rng.choice(table.records)
            mode = rng.choice(list(QueryMode))
            ops.append((rec, mode, self._bound(rec, mode, target, rng)))
        rng.shuffle(ops)
        self.ops = ops
        self.expected = {self.key(anchor): solutions}
        if seed == DEFAULT_SEED:
            with open(root / EXPECTED_COUNTS, encoding="utf-8") as fh:
                for row in json.load(fh)["seed_0"]:
                    self.expected[(row["field"], row["mode"],
                                   tuple(row["bound"]))] = row["solutions"]
        self._verified = {}

    def _context(self, rec):
        if rec.label not in self.contexts:
            self.contexts[rec.label] = self.t.numberfield.load_field(rec)
        return self.contexts[rec.label]

    def _bound(self, rec, mode, target, rng):
        """Coordinates of t + e, with t the least integer making the
        volume estimate of the solution count reach `target`."""
        ctx = self._context(rec)
        d = ctx.degree
        e = ctx.element([rng.randint(-2, 2) for _ in range(d)])
        emb = [float(iv.mid) for iv in ctx.embeddings(e)]
        if mode.value == "square_dominated":
            # count ~ prod(2 sqrt(b_i)) / sqrt(disc)
            goal = target * target * rec.disc / 4 ** d
        else:
            # count ~ prod(b_i) / sqrt(disc)
            goal = target * math.sqrt(rec.disc)
        low = math.ceil(2 - min(emb))
        step = 1
        while math.prod(low + step + x for x in emb) < goal:
            step *= 2
        high = low + step
        while low < high:
            mid = (low + high) // 2
            if math.prod(mid + x for x in emb) < goal:
                low = mid + 1
            else:
                high = mid
        return (ctx.from_rational(low) + e).coords

    @staticmethod
    def key(op):
        rec, mode, bound = op
        return (rec.label, mode.value, tuple(bound))

    @staticmethod
    def label(op) -> str:
        rec, mode, bound = op
        return f"{rec.label}/{mode.value}/{list(bound)}"

    def run(self, op):
        rec, mode, bound = op
        ctx = self.t.numberfield.load_field(rec)
        return self.t.enumeration.dominated_elements(ctx, ctx.element(bound),
                                                     mode)

    def check(self, op, elements) -> Optional[str]:
        """Verify a query's first output in full; later outputs of the same
        query must have the same digest.  Keeping digests, not outputs,
        keeps the benchmark's own memory flat across rounds."""
        coords = tuple(w.coords if w.den == 1 else None for w in elements)
        digest = hashlib.sha256(repr(coords).encode()).hexdigest()
        key = self.key(op)
        if key in self._verified:
            if digest != self._verified[key]:
                return "output differs from the first round"
            return None
        problem = self._verify(op, coords)
        if problem is None:
            self._verified[key] = digest
        return problem

    def _verify(self, op, coords) -> Optional[str]:
        rec, mode, bound = op
        key = self.key(op)
        if key in self.expected and len(coords) != self.expected[key]:
            return (f"{len(coords)} solutions, expected "
                    f"{self.expected[key]}")
        if None in coords:
            return "non-integral solution"
        if any(a >= b for a, b in zip(coords, coords[1:])):
            return "solutions not strictly sorted"
        found = set(coords)
        square = mode.value == "square_dominated"
        if square:
            mirror = [tuple(-c for c in w) for w in coords]
        else:
            mirror = [tuple(b - c for b, c in zip(bound, w)) for w in coords]
        if any(m not in found for m in mirror):
            return ("not closed under negation" if square
                    else "not closed under w -> bound - w")
        arith = ExactArithmetic(self._context(rec).mult_table)
        for w in coords:
            if square:
                ok = arith.totally_nonnegative(
                    [b - c for b, c in zip(bound, arith.mul(w, w))])
            else:
                ok = arith.totally_nonnegative(w) and arith.totally_nonnegative(
                    [b - c for b, c in zip(bound, w)])
            if not ok:
                return f"{list(w)} fails the exact check"
        return None

    @staticmethod
    def solutions(elements) -> int:
        return len(elements)


class ExactArithmetic:
    """Integer arithmetic on integral-basis coordinates, written apart from
    the package so that it checks the package's fast paths independently.

    An algebraic integer of a totally real field is totally nonnegative
    exactly when all elementary symmetric functions of its conjugates are
    nonnegative; those come from the traces of its powers by Newton's
    identities.
    """

    def __init__(self, mult_table):
        self.table = mult_table
        d = len(mult_table)
        self.d = d
        self.basis_trace = [sum(mult_table[i][k][i] for i in range(d))
                            for k in range(d)]
        self.trace_form = [[sum(c * t for c, t in zip(mult_table[i][j],
                                                       self.basis_trace))
                            for j in range(d)] for i in range(d)]

    def mul(self, x, y) -> List[int]:
        out = [0] * self.d
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if yj:
                    p = xi * yj
                    for k, c in enumerate(row[j]):
                        out[k] += p * c
        return out

    def trace_of_product(self, x, y) -> int:
        q = self.trace_form
        return sum(xi * sum(q[i][j] * yj for j, yj in enumerate(y) if yj)
                   for i, xi in enumerate(x) if xi)

    def totally_nonnegative(self, x) -> bool:
        d = self.d
        powers = [None, list(x)]
        while len(powers) <= (d + 1) // 2:
            powers.append(self.mul(powers[-1], x))
        p = [None, sum(c * t for c, t in zip(x, self.basis_trace))]
        p += [self.trace_of_product(powers[m // 2], powers[m - m // 2])
              for m in range(2, d + 1)]
        e = [1]
        for k in range(1, d + 1):
            s = sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1))
            q, r = divmod(s, k)
            if r:
                raise ArithmeticError("power sums of a non-integral element")
            e.append(q)
        return all(c >= 0 for c in e)


# -- cyclo --------------------------------------------------------------------

CYCLO_KS = range(3, 61)


def euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


class Cyclo:
    """High degree: one `alpha_beta_verify(k)` per op over the criterion-5
    sweep k = 3..60, up to degree 29.  Fixed-point embeddings, polynomial
    division and root isolation dominate; no enumeration box is built.
    """

    name = "cyclo"
    round_seconds = 12.5

    def __init__(self, ternlat, root, seed):
        self.t = ternlat
        ops = list(CYCLO_KS)
        random.Random(seed).shuffle(ops)
        self.ops = ops
        self.verified = set()

    @staticmethod
    def label(k) -> str:
        return f"k={k}"

    def run(self, k):
        return self.t.cyclotomic.alpha_beta_verify(k)

    def check(self, k, report) -> Optional[str]:
        # alpha_beta_verify raises on any mismatch with the closed formulas
        degree = euler_phi(k) // 2
        if report.k != k or report.degree != degree:
            return f"report for k={report.k} of degree {report.degree}"
        flag = None if degree <= 2 else True
        if (report.alpha_indecomposable, report.beta_indecomposable) != \
                (flag, flag):
            return "indecomposability flags"
        self.verified.add(k)
        return None

    def finish(self) -> Optional[str]:
        if len(self.verified) != len(CYCLO_KS):
            return f"{len(self.verified)} of {len(CYCLO_KS)} fields checked"
        return None

    @staticmethod
    def solutions(report) -> int:
        return 1


WORKLOADS = {w.name: w for w in (Scan, Enum, Cyclo)}
