from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from pathlib import Path

import pytest

from ternlat import linalg, polys
from ternlat.errors import Singular
from ternlat.fieldscan import ingest_fields, load_field_file
from ternlat.intervals import Interval
from ternlat.quadlattice import GramMatrix

FIELDS = Path(__file__).resolve().parent.parent / "fields"


@pytest.fixture(scope="session")
def ctx_q():
    return load_field_file(FIELDS / "q.json")


@pytest.fixture(scope="session")
def ctx_sqrt2():
    return load_field_file(FIELDS / "qsqrt2.json")


@pytest.fixture(scope="session")
def ctx_sqrt3():
    return load_field_file(FIELDS / "qsqrt3.json")


@pytest.fixture(scope="session")
def ctx_sqrt5():
    return load_field_file(FIELDS / "qsqrt5.json")


@pytest.fixture(scope="session")
def table():
    return ingest_fields(FIELDS / "quartic_sqrt2.jsonl")


@pytest.fixture(scope="session")
def fields_dir():
    return FIELDS


# ---------------------------------------------------------------------------
# trace-form boxes for the test oracles, from the multiplication table alone

def trace_form(table):
    """(t, Q): t[m] = Tr(b_m), the diagonal sum of multiplication by b_m,
    and the trace form Q[j][k] = Tr(b_j b_k)."""
    d = len(table)
    tr = [sum(table[m][k][k] for k in range(d)) for m in range(d)]
    q = [[sum(map(mul, table[j][k], tr)) for k in range(d)]
         for j in range(d)]
    return tr, q


def mat_vec(a, v):
    """The `Fraction` product a v."""
    return [sum((Fraction(c) * Fraction(x) for c, x in zip(row, v)),
                Fraction(0)) for row in a]


def ref_bareiss(m):
    """Reference for `linalg._bareiss`: the same fraction-free elimination
    of the integer rows m in place, updating every entry right of column k
    in each row below the pivot, whether m is symmetric or not; returns the
    sign of the row swaps, or 0 when a column has no pivot."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is None:
                return 0
            m[k], m[r], sign = m[r], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, len(m[i])):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign


def fraction_inverse(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def ellipsoid_radii(q, t):
    """r_j = floor(sqrt(t * (Q^-1)[j][j])): every x with x^T Q x <= t has
    |x_j| <= r_j, for Q positive definite."""
    inv = fraction_inverse(q)
    return [isqrt(int(t * inv[j][j])) for j in range(len(q))]


# ---------------------------------------------------------------------------
# polynomial references over Q on `Fraction`s, independent of the package's
# integer kernels: evaluation, long division and gcd

def ref_eval_at(p, x):
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def ref_divmod_poly(a, b):
    """(q, r) with a = q b + r and deg r < deg b, by long division with
    `Fraction` coefficients (ascending)."""
    a = [Fraction(c) for c in polys.trim(a)]
    b = [Fraction(c) for c in polys.trim(b)]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = a[:]
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        c = r[-1] / lb
        q[k] = c
        for i in range(len(b)):
            r[i + k] -= c * b[i]
        r = polys.trim(r)
    return polys.trim(q), r


def gcd_poly(a, b):
    """A gcd of two polynomials over Q (ascending coefficients), up to a
    nonzero rational factor, by Euclid's algorithm on `Fraction`
    remainders; [] when both are zero."""
    a, b = polys.trim(a), polys.trim(b)
    while b:
        _, r = ref_divmod_poly(a, b)
        a, b = b, r
    return a


# ---------------------------------------------------------------------------
# rational interval arithmetic on `Fraction` endpoints, the reference for
# the package's integer interval kernels

def iv_add(a, b):
    return Interval(a.lo + b.lo, a.hi + b.hi)


def iv_mul(a, b):
    ps = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(ps), max(ps))


def iv_scale(a, c):
    c = Fraction(c)
    if c >= 0:
        return Interval(a.lo * c, a.hi * c)
    return Interval(a.hi * c, a.lo * c)


def as_intervals(rows):
    """Rows of integer endpoint numerators (lows, highs, den), as
    `FieldContext.basis_embeddings` and `linalg.interval_inverse` give them,
    as rows of `Interval`s."""
    return [[Interval(Fraction(lo, den), Fraction(hi, den))
             for lo, hi in zip(lows, highs)] for lows, highs, den in rows]


def endpoint_numerators(ivs):
    """(lows, highs, den): ivs[k] = [lows[k], highs[k]] / den with integers
    lows, highs and den the least positive common denominator of all the
    endpoints, as the package's kernels take a row of intervals."""
    den = lcm(*(x.denominator for iv in ivs for x in (iv.lo, iv.hi)))
    return ([iv.lo.numerator * (den // iv.lo.denominator) for iv in ivs],
            [iv.hi.numerator * (den // iv.hi.denominator) for iv in ivs], den)


def numerators(mat):
    """An `Interval` matrix as rows of integer endpoint numerators, as
    `FieldContext.basis_embeddings` gives them."""
    return [endpoint_numerators(row) for row in mat]


def point(x):
    """The `Interval` [x, x]."""
    x = Fraction(x)
    return Interval(x, x)


def as_cell(iv):
    """The `polys.RootCell` of iv's ends over their least common
    denominator, with no values."""
    (a,), (e,), b = endpoint_numerators([iv])
    return polys.RootCell(a, e, b)


def cell_interval(cell):
    """The `Interval` [a/b, e/b] of a `polys.RootCell`."""
    return Interval(Fraction(cell.a, cell.b), Fraction(cell.e, cell.b))


def root_intervals(ctx):
    """The root cells of a context's current root state, as `Interval`s."""
    return [cell_interval(c) for c in ctx._state.cells]


def rational_span_coords(a, gens):
    """Exact rational coordinates of a over span(gens), gens independent,
    or None: `linalg.adjugate_solve` solves the normal equations C^T C y =
    C^T x for the integer coordinates C of gens and x of a, and a is in the
    span exactly when C y = x."""
    cols = [g.coords for g in gens]
    det, (y,) = linalg.adjugate_solve(
        [[sum(map(mul, c, e)) for e in cols] for c in cols],
        [[sum(map(mul, c, a.coords)) for c in cols]])
    if any(det * x != sum(map(mul, y, row))
           for x, row in zip(a.coords, zip(*cols))):
        return None
    return [Fraction(v * g.den, det * a.den) for v, g in zip(y, gens)]


def eval_one(p, iv):
    """`polys.eval_interval` on the one polynomial p at the `Interval` iv,
    as an `Interval`."""
    (lo,), (hi,), den = polys.eval_interval(*polys.horner_rows([p]),
                                            as_cell(iv))
    return Interval(Fraction(lo, den), Fraction(hi, den))


def ref_embeddings(ctx, a, max_width):
    """`FieldContext.embeddings` on `Fraction` intervals: the interval sum
    of (c_j / den) * sigma_i(basis_j) over the basis embeddings, with the
    roots refined in the same steps until every enclosure is narrow
    enough."""
    max_width = Fraction(max_width)
    width = min((iv.hi - iv.lo for iv in root_intervals(ctx)),
                default=Fraction(0))
    for _ in range(256):
        out = []
        for row in as_intervals(ctx.basis_embeddings()):
            acc = point(0)
            for e, c in zip(row, a.coords):
                if c:
                    acc = iv_add(acc, iv_scale(e, Fraction(c, a.den)))
            out.append(acc)
        if all(iv.hi - iv.lo <= max_width for iv in out):
            return out
        width = max(width / 4, Fraction(1, 1 << 300))
        ctx.refine_roots(width)
    raise RuntimeError("embedding refinement did not converge")


# ---------------------------------------------------------------------------
# dual lattices

def gram_inverse_dual(g):
    """Gram matrix of the dual lattice in the dual basis: exactly G^-1,
    from the adjugate over the determinant.  The same matrix also gives the
    coordinates of the dual basis vectors in the original basis."""
    det = g.det()
    if det.is_zero:
        raise Singular("Gram matrix has determinant zero")
    adj = linalg.ring_adjugate(g.entries)
    return GramMatrix([[adj[i][j] / det for j in range(g.n)]
                       for i in range(g.n)])


# ---------------------------------------------------------------------------
# unit-square walk

def ref_unit_square_reduce(a):
    """Reference for `numberfield.unit_square_reduce`: the greedy walk that
    forms a * u^2 on every step (u, u^2), u and 1/u for every unit
    generator of the context (-1 included), and compares the full key
    (trace, negated coordinates, den)."""
    ctx = a.ctx
    if a.is_zero or not a.is_totally_positive():
        return a, ctx.one

    def key(e):
        return (e.trace(), tuple(-c for c in e.coords), e.den)

    steps = [(v, v * v) for u in ctx.units or () for v in (u, u.inverse())]
    best, best_key, eta = a, key(a), ctx.one
    improved = True
    while improved:
        improved = False
        for u, u2 in steps:
            cand = best * u2
            cand_key = key(cand)
            if cand_key < best_key:
                best, best_key, eta = cand, cand_key, eta * u
                improved = True
    return best, eta
