"""Differential tests of the enumeration kernels against their exact paths.

`enumeration._iter_box` solves each level's feasible coordinate range by
integer division and walks the levels with an explicit stack; the
reference below is the recursive scan-and-reject loop it replaced, which
tries every coordinate of the box and tests every embedding.  The two must
yield the same sequence, in the same order, up to degree 8.  Each level
also drops the values with no real solution in the level below
(`enumeration._project`); on random levels the values it keeps must be
exactly those of a `Fraction` brute force over real y, and never fewer
than those with an integer y.

`FieldContext._fast_signs` decides signs from the context's fixed-point
table of the basis embeddings; every decisive verdict must equal the exact
one from the characteristic polynomial, and every decisive sign the
refined one.  It reads both tables, at root widths 1/256 and 2^-32, through
`numberfield._table_bounds`, whose bounds must equal one dot product per
embedding and enclose the root state's own integer sums.  `_iter_box` prunes with the same table, taken after the box
is built: it must be entrywise at least as tight as the ends of the box's
own embeddings, and prune to a subsequence of what those admit.
`FieldContext.compare`, which exits early when every lower bound is
positive, must equal the characteristic polynomial's verdict on a - b
with b = 0 and b != 0, in both argument orders.
`Element.signature` starts from those enclosures and `Element.trace` from
the traces of the basis; both are checked against the paths they replaced.
A context with no table yet reads its signs off the same ends taken at
root width 1/256 first: its `compare` and `signature` must equal those of
a context holding the table and the characteristic polynomial's, with no
exact step (`FieldContext._exact_signs`) taken where the table decides.

`enumeration._exact_check` decides a candidate by one comparison of an
integer quadratic residual, whose coefficients in x_0 it forms once per
run of candidates sharing x[1:]; the reference is the element path it
replaced, beta - w^2 >= 0 or w >= 0 and beta - w >= 0, on candidates in
such runs and out of them.  Each candidate takes exactly one
`FieldContext.compare` call.

The certified box is built on integers: `enumeration._box_bounds` applies
the verified inverse to the target region and `_candidate_estimate` takes
the determinant of the integer matrix of midpoint numerators, both over
common denominators; the references are the `Fraction` interval loops
they replaced.  The targets are integer numerators over one denominator,
against the `Fraction` bodies they replaced (an upper square root and
`Interval`).
`FieldContext.sqrt2_span`, which `sqrt2_span_witnesses` and
`format_element` call, decides membership in span{1, sqrt2} by one integer
Cramer test; the reference is the normal-equations solve it replaced
(`conftest.rational_span_coords`).
"""

import copy
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (as_intervals, endpoint_numerators, gcd_poly, iv_add,
                      iv_mul, mat_vec, numerators, point, rational_span_coords)
from ternlat import enumeration, linalg, polys
from ternlat.cyclotomic import cyclo_info
from ternlat.enumeration import (EnumerationBox, QueryMode,
                                 _box_bounds, _build_box, _candidate_estimate,
                                 _exact_check, _halves,
                                 _iter_box, _project, _targets,
                                 dominated_elements, solution_box,
                                 sqrt2_span_witnesses)
from ternlat.intervals import Interval
from ternlat.numberfield import (Dominance, FieldContext, FieldRecord,
                                 _table_bounds, fixed_point_table, load_field,
                                 sqrt2_context)


# ---------------------------------------------------------------------------
# reference: the scan-and-reject loop

def _fixed_point(x, up):
    """The rational x rounded outward to a multiple of 2^-INT_BITS, as the
    integer numerator over 2^INT_BITS."""
    scale = 1 << FieldContext.INT_BITS
    if up:
        return -((-x.numerator * scale) // x.denominator)
    return (x.numerator * scale) // x.denominator


def ref_iter_box(emb, box):
    emb = as_intervals(emb)
    d = len(box.lows)
    if not all(lo <= hi for lo, hi in zip(box.lows, box.highs)):
        return
    lows, highs, den = box.targets
    tlo = [_fixed_point(F(lo, den), up=False) for lo in lows]
    thi = [_fixed_point(F(hi, den), up=True) for hi in highs]
    elo = [[_fixed_point(emb[i][j].lo, up=False) for j in range(d)]
           for i in range(d)]
    ehi = [[_fixed_point(emb[i][j].hi, up=True) for j in range(d)]
           for i in range(d)]

    def scaled(i, j, c):
        if c >= 0:
            return c * elo[i][j], c * ehi[i][j]
        return c * ehi[i][j], c * elo[i][j]

    rem_lo = [[0] * (d + 1) for _ in range(d)]
    rem_hi = [[0] * (d + 1) for _ in range(d)]
    for i in range(d):
        for j in range(d):
            alo, ahi = scaled(i, j, box.lows[j])
            blo, bhi = scaled(i, j, box.highs[j])
            rem_lo[i][j + 1] = rem_lo[i][j] + min(alo, blo)
            rem_hi[i][j + 1] = rem_hi[i][j] + max(ahi, bhi)

    coords = [0] * d

    def go(level, plo, phi):
        if level < 0:
            yield tuple(coords)
            return
        for c in range(box.lows[level], box.highs[level] + 1):
            coords[level] = c
            nlo, nhi = [0] * d, [0] * d
            ok = True
            for i in range(d):
                slo, shi = scaled(i, level, c)
                nlo[i] = plo[i] + slo
                nhi[i] = phi[i] + shi
                if nlo[i] + rem_lo[i][level] > thi[i] or \
                        nhi[i] + rem_hi[i][level] < tlo[i]:
                    ok = False
                    break
            if ok:
                yield from go(level - 1, nlo, nhi)

    yield from go(d - 1, [0] * d, [0] * d)


def pruned(emb, box):
    """`_iter_box` on the fixed-point table of hand-built rows, taken as the
    context takes its own."""
    return list(_iter_box(fixed_point_table(emb, FieldContext.INT_BITS), box))


# ---------------------------------------------------------------------------
# _iter_box on random boxes

# enclosure entries, in eighths: exactly zero, straddling zero, or ordinary
ENTRY = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(-64, -1), st.integers(1, 64)),
    st.tuples(st.integers(-64, 64), st.integers(0, 16)).map(
        lambda t: (t[0], t[0] + t[1])),
)
SIDE = {1: 14, 2: 9, 3: 6, 4: 4, 5: 3}


@st.composite
def boxes(draw):
    d = draw(st.integers(1, 5))
    emb = numerators([[Interval(F(lo, 8), F(hi, 8)) for lo, hi in
                       (draw(ENTRY) for _ in range(d))] for _ in range(d)])
    side = SIDE[d]
    lows = [draw(st.integers(-side, side)) for _ in range(d)]
    # a side of 0 makes the box empty, all sides of 1 a single point
    highs = [lo + draw(st.integers(0, side)) - 1 for lo in lows]
    den = draw(st.sampled_from([1, 3, 4]))
    tlo, thi = [], []
    for _ in range(d):
        tlo.append(draw(st.integers(-12 * den, 12 * den)))
        thi.append(tlo[-1] + draw(st.integers(0, 16 * den)))
    return emb, EnumerationBox(tuple(lows), tuple(highs), F(1, 64),
                               (tuple(tlo), tuple(thi), den))


@settings(max_examples=400, deadline=None)
@given(boxes())
def test_iter_box_equals_scan_and_reject(case):
    emb, box = case
    assert pruned(emb, box) == list(ref_iter_box(emb, box))


def _box(d, lows, highs, entry=(F(1), F(2)), target=(F(-3), F(3))):
    emb = numerators([[Interval(*entry)] * d] * d)
    tlo, thi, den = endpoint_numerators([Interval(*target)] * d)
    return emb, EnumerationBox(tuple(lows), tuple(highs), F(1, 64),
                               (tuple(tlo), tuple(thi), den))


@pytest.mark.parametrize("emb, box", [
    _box(3, (0, 0, 0), (-1, 2, 2)),                       # empty
    _box(3, (1, -1, 0), (1, -1, 0)),                      # one point, kept
    _box(3, (5, 5, 5), (5, 5, 5)),                        # one point, pruned
    _box(2, (-3, -3), (3, 3), entry=(F(0), F(0))),        # zero embeddings
    _box(2, (-3, -3), (3, 3), target=(F(1), F(2))),       # 0 excluded
    _box(4, (-2,) * 4, (2,) * 4, entry=(F(-1, 3), F(1, 2))),  # straddling
    _box(1, (-9,), (9,), entry=(F(-2), F(-1))),           # negative entry
])
def test_iter_box_edge_boxes(emb, box):
    got = pruned(emb, box)
    assert got == list(ref_iter_box(emb, box))


def test_iter_box_prunes_exactly():
    # 1-dimensional: c * [1, 2] must meet [-3, 3], so c in [-3, 3] survive
    emb, box = _box(1, (-9,), (9,))
    assert pruned(emb, box) == [(c,) for c in range(-3, 4)]


# ---------------------------------------------------------------------------
# _iter_box on certified boxes of real queries

def _certified(ctx, bound, mode):
    """The certified box of a query, the context's table taken after it, as
    `enumerate_dominated` takes it, and the rows of that table."""
    box = _build_box(ctx, lambda: _targets(ctx, bound, mode), 10 ** 8)
    table = ctx.fixed_point_table()
    return box, table, ctx.basis_embeddings()


@pytest.mark.parametrize("label, bound, mode", [
    ("K51200", 60, QueryMode.SQUARE_DOMINATED),
    ("K2624", 9, QueryMode.INTERVAL),
    ("K7168", 30, QueryMode.SQUARE_DOMINATED),
])
def test_iter_box_on_certified_boxes(table, label, bound, mode):
    ctx = table.context(label)
    box, table, emb = _certified(ctx, ctx.from_rational(bound), mode)
    got = list(_iter_box(table, box))
    assert got == list(ref_iter_box(emb, box))
    assert len(got) >= len(dominated_elements(ctx, ctx.from_rational(bound),
                                              mode))


def test_iter_box_on_a_degree_5_box():
    ctx = cyclo_info(11).field
    box, table, emb = _certified(ctx, ctx.from_rational(7),
                                 QueryMode.SQUARE_DOMINATED)
    assert list(_iter_box(table, box)) == list(ref_iter_box(emb, box))


def test_iter_box_on_a_degree_8_box(monkeypatch):
    # seven levels above the innermost one; two of the five points have a
    # negative coordinate above level 0; the levels' projections drop values
    # there, and the points stay those of the scan-and-reject loop
    ctx = cyclo_info(32).field
    box, table, emb = _certified(ctx, ctx.from_rational(3),
                                 QueryMode.SQUARE_DOMINATED)
    dropped = []
    project = enumeration._project

    def counted_project(lo, hi, halves, g):
        runs = project(lo, hi, halves, g)
        dropped.append(hi - lo + 1 - sum(b - a + 1 for a, b in runs))
        return runs

    monkeypatch.setattr(enumeration, "_project", counted_project)
    got = list(_iter_box(table, box))
    assert got == list(ref_iter_box(emb, box))
    assert len(got) == 5
    assert sum(any(c < 0 for c in x[1:]) for x in got) == 2
    assert len(dropped) > 100 and sum(dropped) > 1000, (len(dropped),
                                                         sum(dropped))


def _fresh_box(rec, bound, mode):
    """A fresh context, the certified box of a query built on it before
    anything has taken its table, and the rows that box was built from."""
    ctx = load_field(rec)
    beta = ctx.from_rational(bound)
    box = _build_box(ctx, lambda: _targets(ctx, beta, mode), 10 ** 8)
    return ctx, box, ctx.basis_embeddings()


def test_context_table_is_at_least_as_tight_as_the_box_rows(table):
    # the table is taken after the box, from roots refined at least as far:
    # each of its ends lies inside the outward ends of the box's own rows,
    # rounded here on `Fraction`s; exact entries (sigma_i(1)) are equal, and
    # a fresh context's box rows are wider than the table somewhere
    scale = 1 << FieldContext.INT_BITS
    seen = {"equal": 0, "tighter": 0}
    assert len(table.records) == 19
    for rec in table.records:
        ctx, _, emb = _fresh_box(rec, 6, QueryMode.SQUARE_DOMINATED)
        lows, highs, _ = ctx.fixed_point_table()
        for i, row in enumerate(as_intervals(emb)):
            for j, iv in enumerate(row):
                lo, hi = math.floor(iv.lo * scale), math.ceil(iv.hi * scale)
                assert lo <= lows[j][i] <= highs[j][i] <= hi, (rec.label, i, j)
                seen["equal" if (lo, hi) == (lows[j][i], highs[j][i])
                     else "tighter"] += 1
    assert seen["equal"] > 19 and seen["tighter"] > 100, seen


@pytest.mark.parametrize("label, bound, mode", [
    ("K51200", 60, QueryMode.SQUARE_DOMINATED),
    ("K2624", 9, QueryMode.INTERVAL),
    ("K7168", 30, QueryMode.SQUARE_DOMINATED),
])
def test_iter_box_on_the_context_table_keeps_a_subsequence(table, label,
                                                           bound, mode):
    # the points pruned with the context's table are a subsequence of those
    # that the box's own rows admit (the scan-and-reject reference), and
    # hold every solution among those
    ctx, box, emb = _fresh_box(table.by_label(label), bound, mode)
    got = list(_iter_box(ctx.fixed_point_table(), box))
    wide = list(ref_iter_box(emb, box))
    rest = iter(wide)
    assert all(x in rest for x in got)
    sols = _exact_check(ctx, ctx.from_rational(bound), mode, wide)
    assert sols and set(sols) <= set(got)


# ---------------------------------------------------------------------------
# _project: the level below projected onto a level's coordinate

def _level_below(c, y, col_c, col_y, g):
    """Whether the level below admits (c, y): per embedding i, with the
    enclosures col[i] = (lo, hi) scaled by c and y as in `ref_iter_box`, the
    lower end of the sum is <= g[i] and the upper end >= -g[d + i]."""
    d = len(col_c)
    for i, ((cl, ch), (yl, yh)) in enumerate(zip(col_c, col_y)):
        if min(c * cl, c * ch) + min(y * yl, y * yh) > g[i]:
            return False
        if max(c * cl, c * ch) + max(y * yl, y * yh) < -g[d + i]:
            return False
    return True


def ref_real_y(c, col_c, col_y, g, ylo, yhi):
    """Whether some real y in [ylo, yhi] with y <= -1 or y >= 0 has
    `_level_below(c, y)`: on each half the ends of y * [yl, yh] are linear
    in y, so each row bounds y by one exact quotient."""
    d = len(col_c)
    for lo, hi in ((F(ylo), F(min(yhi, -1))), (F(max(ylo, 0)), F(yhi))):
        pos = lo >= 0
        for i, ((cl, ch), (yl, yh)) in enumerate(zip(col_c, col_y)):
            # each row as y * b <= r: the lower end against g[i], the
            # upper end, negated, against g[d + i]
            for b, r in (((yl, yh)[not pos], g[i] - min(c * cl, c * ch)),
                         (-(yh, yl)[not pos], g[d + i] + max(c * cl, c * ch))):
                if b > 0:
                    hi = min(hi, F(r, b))
                elif b < 0:
                    lo = max(lo, F(r, b))
                elif r < 0:
                    lo, hi = F(1), F(0)
        if lo <= hi:
            return True
    return False


def _enclosure(rng):
    """Integer ends (lo, hi): zero, straddling zero, or one-signed."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0, 0
    if kind == 1:
        return -rng.randint(1, 40), rng.randint(1, 40)
    lo = rng.randint(-40, 40)
    return lo, lo + rng.randint(0, 6)


def test_projection_is_exact_over_real_y_and_sound_over_integer_y():
    # random levels of degree 2..5: the values _project keeps are exactly
    # those with a real y below (a Fraction brute force), and every value
    # with an integer y below is kept
    rng = random.Random(18)
    seen = {"kept": 0, "dropped": 0, "real y only": 0, "zero entry": 0,
            "one-signed y": 0, "c < 0": 0}
    for _ in range(3000):
        d = rng.randint(2, 5)
        col_y = [_enclosure(rng) for _ in range(d)]
        col_c = [_enclosure(rng) for _ in range(d)]
        tables = ([[lo for lo, _ in col_y], [lo for lo, _ in col_c]],
                  [[hi for _, hi in col_y], [hi for _, hi in col_c]], {})
        c_pos = rng.random() < 0.5
        end = rng.randint(0, 6) if c_pos else -rng.randint(1, 6)
        lo, hi = sorted((end, end + rng.randint(0, 8) * (1 if c_pos else -1)))
        ylo = rng.randint(-8, 6)
        yhi = ylo + rng.randint(0, 10)
        # right sides with a random slack per row around a random point
        # (c0, y0); narrow strips can cross -1 < y < 0 inside c's range
        c0, y0 = rng.uniform(lo, hi), rng.uniform(ylo - 1, yhi + 1)
        g = [math.floor(min(c0 * cl, c0 * ch) + min(y0 * yl, y0 * yh))
             for (cl, ch), (yl, yh) in zip(col_c, col_y)]
        g += [math.floor(-max(c0 * cl, c0 * ch) - max(y0 * yl, y0 * yh))
              for (cl, ch), (yl, yh) in zip(col_c, col_y)]
        g = [r + rng.choice((0, 2, 10, 200)) - rng.randint(0, 3) for r in g]
        runs = _project(lo, hi, _halves(tables, 1, c_pos, ylo, yhi), g)
        got = [c for a, b in runs for c in range(a, b + 1)]
        assert got == sorted(set(got)) and all(
            b + 1 < a for (_, b), (a, _) in zip(runs, runs[1:]))
        want = [c for c in range(lo, hi + 1)
                if ref_real_y(c, col_c, col_y, g, ylo, yhi)]
        assert got == want, (col_c, col_y, g, lo, hi, ylo, yhi)
        for c in range(lo, hi + 1):
            integer_y = any(_level_below(c, y, col_c, col_y, g)
                            for y in range(ylo, yhi + 1))
            assert c in got or not integer_y
            seen["real y only"] += c in got and not integer_y
        seen["kept"] += len(got)
        seen["dropped"] += hi - lo + 1 - len(got)
        seen["zero entry"] += (0, 0) in col_c + col_y
        seen["one-signed y"] += ylo >= 0 or yhi < 0
        seen["c < 0"] += not c_pos
    assert all(n > 100 for n in seen.values()), seen
    # the strip c - 2 y = 3 meets no y <= -1 or y >= 0 at c = 2 alone
    tables = ([[-2, 0], [1, 0]], [[-2, 0], [1, 0]], {})
    halves = _halves(tables, 1, True, -3, 3)
    assert _project(0, 5, halves, [3, 0, -3, 0]) == [(0, 1), (3, 5)]


# ---------------------------------------------------------------------------
# compare: fixed-point fast path against the characteristic polynomial

def ref_fast_signs(ctx, a):
    """The endpoint form of the fast path: lo and hi sums per embedding,
    from the basis embeddings that the context's table is taken from, each
    rounded outward to 2^-INT_BITS on `Fraction`s."""
    ctx.fixed_point_table()   # refines the roots to the width of the table
    scale = 1 << ctx.INT_BITS
    signs = []
    for row in as_intervals(ctx.basis_embeddings()):
        lo = hi = 0
        for c, iv in zip(a.coords, row):
            elo, ehi = math.floor(iv.lo * scale), math.ceil(iv.hi * scale)
            if c > 0:
                lo += c * elo
                hi += c * ehi
            elif c < 0:
                lo += c * ehi
                hi += c * elo
        if lo > 0:
            signs.append(1)
        elif hi < 0:
            signs.append(-1)
        else:
            return None
    return tuple(signs)


def charpoly_verdict(c):
    d = c.ctx.degree
    p = linalg.charpoly(c.mult_matrix_scaled())
    if all((-1) ** (d - k) * p[k] >= 0 for k in range(d + 1)):
        return Dominance.GE_TIED if p[0] == 0 else Dominance.GT
    if all(p[k] >= 0 for k in range(d + 1)):
        return Dominance.LE_TIED if p[0] == 0 else Dominance.LT
    return Dominance.INCOMPARABLE


def fast_verdict(signs):
    if all(s > 0 for s in signs):
        return Dominance.GT
    if all(s < 0 for s in signs):
        return Dominance.LT
    return Dominance.INCOMPARABLE


def _samples(ctx, rng):
    d = ctx.degree
    out = [ctx.element([rng.randint(-20, 20) for _ in range(d)],
                       rng.choice([1, 1, 2, 3])) for _ in range(25)]
    # units and their powers: some embeddings far below the fixed-point grid
    for u in ctx.units or ():
        out += [u, -u, u ** 3, u ** 8, u ** -5]
    # near-ties: bound - w^2 for the solutions w closest to the boundary
    bound = ctx.from_rational(5) + ctx.element([rng.randint(-1, 1)
                                                for _ in range(d)])
    if bound.is_totally_positive():
        sols = dominated_elements(ctx, bound)
        gaps = sorted(sols, key=lambda w: min(
            iv.lo for iv in ctx.embeddings(bound - w * w, F(1, 1 << 20))))
        out += [bound - w * w for w in gaps[:6]]
    return out


def _table_samples(table, seed):
    """(context, _samples) for every table field and for F_11 (degree 5),
    drawn from one generator."""
    rng = random.Random(seed)
    assert len(table.records) == 19
    ctxs = [table.context(rec.label) for rec in table.records]
    ctxs.append(cyclo_info(11).field)
    return [(ctx, _samples(ctx, rng)) for ctx in ctxs]


def ref_signature(a):
    """Signs of the embeddings from rational interval embeddings alone,
    refined until no enclosure holds zero; an exactly-zero embedding is
    detected by a common factor of the defining polynomial and a's
    power-basis polynomial."""
    ctx = a.ctx
    width = F(1, 16)
    for attempt in range(64):
        ivs = ctx.embeddings(a, width)
        if all(not iv.lo <= 0 <= iv.hi for iv in ivs):
            return tuple(1 if iv.lo > 0 else -1 for iv in ivs)
        if attempt == 1:
            pw = mat_vec(linalg.transpose(ctx.basis_pow),
                         [F(c, a.den) for c in a.coords])
            if polys.degree(gcd_poly(pw, ctx.poly)) > 0:
                raise ValueError("element has an exactly-zero embedding")
        width /= 16
    raise ValueError("embedding signs did not stabilize")


def _check_fast_path(ctx, elements, stats):
    for c in elements:
        signs = ctx._fast_signs(c)
        assert signs == ref_fast_signs(ctx, c)
        if signs is None or c.is_zero:
            stats["fallback"] += 1
            continue
        stats["decisive"] += 1
        assert fast_verdict(signs) is charpoly_verdict(c)
        assert signs == ref_signature(c)


def test_fast_path_agrees_with_charpoly_on_table_fields(table):
    stats = {"decisive": 0, "fallback": 0}
    for ctx, elements in _table_samples(table, 20):
        _check_fast_path(ctx, elements, stats)
    assert stats["decisive"] > 500 and stats["fallback"] > 10


def test_signature_and_trace_agree_with_references(table):
    branches = {"fixed-point": 0, "refined": 0}
    for ctx, elements in _table_samples(table, 21):
        for c in elements:
            m = c.mult_matrix_scaled()
            assert c.trace() == F(sum(m[i][i] for i in range(len(m))), c.den)
            if c.is_zero:
                continue
            fixed = ctx._fast_signs(c) is not None
            branches["fixed-point" if fixed else "refined"] += 1
            assert c.signature() == ref_signature(c)
    # u ** 8 and u ** -5 have embeddings below the fixed-point grid
    assert branches["fixed-point"] > 500 and branches["refined"] > 10, branches


def ref_table_bounds(table, x):
    """Per embedding i, the dot product of x with the ends of column i
    that the sign of each x_j selects: the lower ends for the lower bound
    where x_j >= 0, the upper ends where x_j < 0, and the reverse."""
    lows, highs, _ = table
    return tuple([sum(c * (near if c >= 0 else far)[j][i]
                      for j, c in enumerate(x)) for i in range(len(x))]
                 for near, far in ((lows, highs), (highs, lows)))


def test_table_bounds_equal_one_dot_product_per_embedding(table):
    # `_table_bounds` is the one reader of both tables: the 1/256 one that
    # a lone comparison reads first and the full one.  On each, its bounds
    # equal the reference and enclose 2^INT_BITS sigma_i(x) as the root
    # state's own integer sums enclose it
    rng = random.Random(44)
    recs = list(table.records[::3]) + [cyclo_info(11).field.record]
    tested = 0
    for rec in recs:
        ctx = load_field(rec)
        d = ctx.degree
        xs = [[0] * d] + [[rng.randint(-2 ** bits, 2 ** bits)
                           for _ in range(d)]
                          for bits in (1, 4, 12, 40) for _ in range(6)]
        ctx._fast_signs(ctx.one)            # the 1/256 table
        for full in (False, True):
            tab = ctx.fixed_point_table() if full else ctx._state.table
            assert ctx._state.fine is full
            for x in xs:
                lows, highs = _table_bounds(tab, x)
                assert (lows, highs) == ref_table_bounds(tab, x)
                sums = ctx._interval_sums(ctx.element(x))
                assert all(lo * den <= a << ctx.INT_BITS and
                           b << ctx.INT_BITS <= hi * den
                           for lo, hi, (a, b, den) in zip(lows, highs, sums))
                if full:
                    assert ctx.fixed_point_bounds(ctx.element(x)) == \
                        (lows, highs)
                tested += 1
    assert tested == 2 * 25 * len(recs)


def test_packed_bounds_equal_one_dot_product_per_row(table):
    # the d lower fixed-point bounds are the digits of one packed integer,
    # whose digits' top bits are all set exactly when every lower bound is
    # positive; `fixed_point_bounds` equal, per embedding, x_j times the
    # end of the table that the sign of x_j selects.  The first coordinate
    # sits at and just past the largest sum of |x_j| that the 64-bit digits
    # admit, then coordinates grow to 2^200, which widens the digits further
    rng = random.Random(24)
    ctxs = [table.context(rec.label) for rec in table.records[::4]]
    widths = set()
    for ctx in ctxs + [cyclo_info(11).field]:
        d = ctx.degree
        ctx.fixed_point_table()
        ctx.compare(ctx.one, ctx.zero)      # packs the full table
        limit = ctx._state.pack[0]
        xs = [[sign * (limit + k)] + [0] * (d - 1)
              for k in (0, 1) for sign in (1, -1)]
        xs += [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(d)]
               for bits in (1, 8, 30, 40, 64, 100, 200, 3) for _ in range(8)]
        tab = ctx.fixed_point_table()
        for x in xs:
            want = ref_table_bounds(tab, x)
            assert ctx.fixed_point_bounds(ctx.element(x)) == want
            t, top = ctx._packed_bounds(tuple(x))
            assert (t & top == top) == (min(want[0]) > 0)
            # the top bits 2^(w-1) of d digits span w d bits
            widths.add(ctx._state.pack[-1].bit_length() // d)
    assert {64, 128, 256} <= widths, widths


def test_fast_path_is_indecisive_on_an_enclosure_touching_zero():
    # hand-made tables of ends by basis column, in units of 2^-INT_BITS:
    # sigma_i(1) in [0, 2] touches zero and must fall back; in [1, 3] it is
    # decisive
    ctx = sqrt2_context()
    ctx.refine_roots(F(1, 1 << 32))
    state = ctx._state
    state.table = ([[0, 0], [0, 0]], [[2, 2], [0, 0]], {})
    assert ctx._fast_signs(ctx.one) is None
    assert ctx._fast_signs(-ctx.one) is None
    state.table, state.pack = ([[1, 1], [0, 0]], [[3, 3], [0, 0]], {}), None
    assert ctx._fast_signs(ctx.one) == (1, 1)
    assert ctx._fast_signs(-ctx.one) == (-1, -1)


def test_fast_path_falls_back_on_ties_in_a_product_ring():
    # (t^2 - 2)(t^2 - 3) is squarefree but reducible: t^2 - 2 vanishes on
    # two embeddings, so beta - w^2 with beta = w^2 + (t^2 - 2) s^2 ties
    rec = FieldRecord("QxQ", 4, (6, 0, -5, 0, 1),
                      tuple(tuple(F(int(i == j)) for j in range(4))
                            for i in range(4)), 144)
    ctx = load_field(rec)
    z = ctx.gen * ctx.gen - ctx.from_rational(2)
    rng = random.Random(3)
    for _ in range(20):
        w = ctx.element([rng.randint(-5, 5) for _ in range(4)])
        s = ctx.element([rng.randint(-5, 5) for _ in range(4)])
        if (z * s).is_zero:
            continue
        beta = w * w + z * s * s
        tie = beta - w * w
        assert ctx._fast_signs(tie) is None
        assert beta.compare(w * w) is Dominance.GE_TIED
        assert charpoly_verdict(tie) is Dominance.GE_TIED
        for signature in (tie.signature, lambda: ref_signature(tie)):
            with pytest.raises(ValueError, match="exactly-zero"):
                signature()


@pytest.mark.parametrize("n", [200, 400])
def test_exact_signs_of_large_unit_powers(n):
    # (1 + sqrt2)^n has a conjugate of about 2^(-1.27 n), below any fixed
    # absolute width: the exact step's relative test decides its sign
    ctx = sqrt2_context()
    u = (ctx.one + ctx.sqrt2) ** n
    eta, positive = ctx.totally_positive_associate(-u)
    assert eta.is_unit() and positive.signature() == (1, 1)
    assert (u - 1).signature() == (-1, 1)
    assert ctx.compare(u, ctx.zero) is charpoly_verdict(u)


def _compare_cases(ctx, elements):
    """Pairs (a, b) for `FieldContext.compare`: each sample against 0 and 0
    against it, and each sample plus the next one against that one and
    the other way round, so every sample is also a difference a - b with
    b != 0."""
    zero = ctx.zero
    for a, b in zip(elements, elements[1:] + elements[:1]):
        yield from ((a, zero), (zero, a), (a + b, b), (b, a + b))


def test_compare_agrees_with_charpoly(table, monkeypatch):
    calls = {"fast_signs": 0, "exact_signs": 0}
    fast_signs, exact_signs = (FieldContext._fast_signs,
                               FieldContext._exact_signs)

    def counted_fast_signs(self, a):
        calls["fast_signs"] += 1
        return fast_signs(self, a)

    def counted_exact_signs(self, a):
        calls["exact_signs"] += 1
        return exact_signs(self, a)

    monkeypatch.setattr(FieldContext, "_fast_signs", counted_fast_signs)
    monkeypatch.setattr(FieldContext, "_exact_signs", counted_exact_signs)
    paths = {"early": 0, "signs": 0, "fallback": 0}

    def check(ctx, a, b):
        before = dict(calls)
        got = ctx.compare(a, b)
        after = dict(calls)
        c = a - b
        assert got is (Dominance.EQ if c.is_zero else charpoly_verdict(c))
        if after["exact_signs"] > before["exact_signs"]:
            paths["fallback"] += 1
        elif after["fast_signs"] > before["fast_signs"]:
            paths["signs"] += 1
        elif not c.is_zero:
            assert got is Dominance.GT
            paths["early"] += 1

    for ctx, elements in _table_samples(table, 23):
        for a, b in _compare_cases(ctx, elements):
            check(ctx, a, b)
    assert min(paths.values()) > 10, paths

    # Q x Q = Q[t]/(t^2 - 1) has exact enclosures, sigma(t) = -1 and 1:
    # x + y t with |x| = |y| has a lower bound of exactly 0 and a zero
    # embedding, so the early exit must not take it for GT
    rec = FieldRecord("QxQ", 2, (-1, 0, 1), ((F(1), F(0)), (F(0), F(1))), 4)
    ctx = load_field(rec)
    s = 1 << ctx.INT_BITS
    exact = [[s, s], [-s, s]]
    assert ctx.fixed_point_table()[:2] == (exact, exact)
    elements = [ctx.element([x, y]) for x in range(-3, 4) for y in range(-3, 4)]
    ties = 0
    for a, b in _compare_cases(ctx, elements):
        check(ctx, a, b)
        ties += min(ctx.fixed_point_bounds(a - b)[0]) == 0
    assert ties > 10


# ---------------------------------------------------------------------------
# a lone comparison: the table at root width 1/256 first, then the full one

def _cyclo_samples(info, rng):
    """alpha and beta; 4 - w^2 for w = z^j + z^-j, j = 1, 2, whose
    conjugates all lie in (-2, 2), so that 4 - w^2 has an embedding near 0
    for large k, and 4 - w^2 - 2^-20; random elements on the first four
    power-basis coordinates and on all of them; and all their negatives."""
    ctx = info.field
    d, g = ctx.degree, ctx.gen
    four, eps = ctx.from_rational(4), ctx.from_rational(F(1, 1 << 20))
    out = [info.alpha, info.beta]
    for w in (g, g * g - 2):
        out += [four - w * w, four - w * w - eps]
    out += [ctx.element([rng.randint(-2, 2) if j < 4 else 0
                         for j in range(d)]) for _ in range(3)]
    out += [ctx.element([rng.randint(-1, 1) for _ in range(d)])
            for _ in range(2)]
    return out + [-c for c in out]


def _tie_samples(ctx, rng):
    """In Q[t]/((t^2 - 2)(t^2 - 3)): beta - w^2 = (t^2 - 2) s^2, which has
    two exactly-zero embeddings, the same plus or minus 2^-30, and random
    elements."""
    z = ctx.gen * ctx.gen - ctx.from_rational(2)
    eps = ctx.from_rational(F(1, 1 << 30))
    out = []
    for _ in range(8):
        s = ctx.element([rng.randint(-5, 5) for _ in range(4)])
        out += [z * s * s, z * s * s + eps, z * s * s - eps,
                ctx.element([rng.randint(-5, 5) for _ in range(4)])]
    return out + [-c for c in out]


def _signature_or_error(a):
    try:
        return a.signature()
    except ValueError:
        return ValueError


def test_lone_comparisons_equal_the_full_table_and_charpoly(table,
                                                            monkeypatch):
    # `compare` and `signature` on a context as loaded (a copy of one, with
    # no table built) read the table at root width 1/256 first: they must
    # equal the verdicts of a context holding the 2^-32 table and, up to
    # degree 8, the characteristic polynomial's; where the 2^-32 table
    # decides, the exact step must not run.  Above degree 8,
    # where a characteristic polynomial takes up to seconds, the reference
    # is the context holding the table alone, and an element that table
    # leaves undecided is skipped
    calls = [0]
    exact_signs = FieldContext._exact_signs

    def counted_exact_signs(self, a):
        calls[0] += 1
        return exact_signs(self, a)

    monkeypatch.setattr(FieldContext, "_exact_signs", counted_exact_signs)
    rng = random.Random(31)
    cases = [(load_field(ctx.record), elements)
             for ctx, elements in _table_samples(table, 30)[:19]]
    for k in range(3, 61):
        info = cyclo_info(k)
        cases.append((load_field(info.field.record),
                      _cyclo_samples(info, rng)))
    qxq = load_field(FieldRecord("QxQ", 4, (6, 0, -5, 0, 1), tuple(
        tuple(F(int(i == j)) for j in range(4)) for i in range(4)), 144))
    cases.append((load_field(qxq.record), _tie_samples(qxq, rng)))
    assert len(cases) == 19 + 58 + 1
    paths = {"1/256": 0, "2^-32": 0, "exact": 0}
    for template, elements in cases:
        d = template.degree
        full = copy.copy(template)
        full.fixed_point_table()
        for c in elements:
            if c.is_zero:
                continue
            a = full.element(c.coords, c.den)
            decided = full._fast_signs(a) is not None
            if not decided and d > 8:
                continue
            fresh = copy.copy(template)
            before = calls[0]
            got = fresh.compare(fresh.element(c.coords, c.den), fresh.zero)
            exact = calls[0] > before
            assert not (decided and exact)
            paths["exact" if exact else
                  "2^-32" if fresh._state.fine else "1/256"] += 1
            assert got is full.compare(a, full.zero)
            fresh = copy.copy(template)
            sig = _signature_or_error(fresh.element(c.coords, c.den))
            assert sig == _signature_or_error(a)
            if d > 8:
                continue
            want = charpoly_verdict(a)
            assert got is want
            if want in (Dominance.GT, Dominance.LT):
                assert sig == (1 if want is Dominance.GT else -1,) * d
            elif want is Dominance.INCOMPARABLE:
                assert sig is ValueError or {1, -1} <= set(sig)
            else:
                assert sig is ValueError
    assert min(paths.values()) > 10, paths


# ---------------------------------------------------------------------------
# the exact check of a candidate against the element path it replaced

def ref_accepts(bound, mode, x):
    w = bound.ctx.element(x)
    if mode is QueryMode.SQUARE_DOMINATED:
        return (bound - w * w).is_totally_nonnegative()
    return w.is_totally_nonnegative() and (bound - w).is_totally_nonnegative()


def _bounds(ctx, rng):
    """Bounds 0 << beta << cap: two integral ones, and two gamma * adj / det
    of a 2x2 Gram matrix [[a, 1], [1, b]], which have a denominator > 1.
    Above degree 4 (F_32, a power basis whose boxes grow fast) the cap is
    6 instead of 40 and only the first four coordinates are perturbed."""
    d = ctx.degree
    cap = 40 if d <= 4 else 6

    def near(n):
        return ctx.from_rational(n) + ctx.element(
            [rng.randint(-1, 1) if k < 4 else 0 for k in range(d)])

    def fraction_bound():
        a, b = near(3), near(4)
        gram = [[a, ctx.one], [ctx.one, b]]
        adj = linalg.ring_adjugate(gram)
        return (ctx.from_rational(rng.randint(cap // 2, cap)) * adj[0][0]
                / linalg.ring_det(gram))

    out = []
    for make in (lambda: near(cap // 3), lambda: near(2 * cap // 3),
                 fraction_bound, fraction_bound):
        for _ in range(20):
            beta = make()
            if beta.is_totally_positive() and \
                    (ctx.from_rational(cap) - beta).is_totally_positive():
                out.append(beta)
                break
    return out


def _runs(r, box, rng):
    """Runs of points (c,) + s that share s, as `_iter_box` yields them,
    with c over the box's range of x_0 widened by 2 on each side: for s = r,
    for s = r moved by one step in r[0] alone (a residual cached by r[1:]
    would be reused there), and for r again after it."""
    cs = range(box.lows[0] - 2, box.highs[0] + 3)
    moved = (r[0] + rng.choice((-1, 1)),) + r[1:]
    return [(c,) + s for s in (r, moved, r) for c in cs]


def _candidates(ctx, bound, mode, rng):
    """Points of the pruned box (at the boundary of the solution set or
    inside it), each moved by one step in one coordinate, random points of
    the coordinate box, 0, beta when it is integral, runs of points that
    share all coordinates but the first (`_runs`), and all their
    negatives."""
    d = ctx.degree
    box = solution_box(ctx, bound, mode, 10 ** 6)
    points = list(_iter_box(ctx.fixed_point_table(), box))
    xs = rng.sample(points, min(len(points), 40))
    xs += [tuple(c + (k == j) * step for k, c in enumerate(x))
           for x in list(xs) for j, step in [(rng.randrange(d),
                                              rng.choice((-1, 1)))]]
    xs += [tuple(rng.randint(lo, hi) for lo, hi in zip(box.lows, box.highs))
           for _ in range(10)]
    xs.append((0,) * d)
    if bound.den == 1:
        xs.append(bound.coords)
    for x in rng.sample(points, min(len(points), 2)):
        xs += _runs(x[1:], box, rng)
    return xs + [tuple(-c for c in x) for x in xs]


@pytest.mark.parametrize("mode", list(QueryMode))
def test_exact_check_equals_the_element_path(table, mode):
    rng = random.Random(22)
    assert len(table.records) == 19
    ctxs = [table.context(rec.label) for rec in table.records]
    ctxs += [cyclo_info(16).field, cyclo_info(32).field]
    seen = {True: 0, False: 0, "fraction bounds": 0, "same prefix": 0}
    for ctx in ctxs:
        for bound in _bounds(ctx, rng):
            seen["fraction bounds"] += bound.den > 1
            xs = _candidates(ctx, bound, mode, rng)
            # the filter keeps the accepted candidates in their order, and
            # equal candidates take equal verdicts
            kept = iter(_exact_check(ctx, bound, mode, xs))
            head, prev = next(kept, None), None
            for x in xs:
                verdict = x == head
                if verdict:
                    head = next(kept, None)
                assert verdict == ref_accepts(bound, mode, x), (ctx, bound, x)
                seen[verdict] += 1
                seen["same prefix"] += prev is not None and x[1:] == prev[1:]
                prev = x
            assert head is None
    assert seen[True] > 2000 and seen[False] > 2000, seen
    assert seen["fraction bounds"] >= 40, seen
    # most candidates of a run reuse the residual of their prefix
    assert seen["same prefix"] > 5000, seen


@pytest.mark.parametrize("label, mode, bound, points", [
    ("K51200", QueryMode.SQUARE_DOMINATED, 400, 11305),      # the anchor
    ("K51200", QueryMode.INTERVAL, 30, None),
    ("K2624", QueryMode.INTERVAL, 9, None),
])
def test_one_exact_check_per_candidate(table, monkeypatch, label, mode,
                                       bound, points):
    counts = {"points": 0, "compare": 0}
    iter_box, compare = enumeration._iter_box, FieldContext.compare

    def counted_iter_box(table, box):
        for x in iter_box(table, box):
            counts["points"] += 1
            yield x

    def counted_compare(self, a, b):
        counts["compare"] += 1
        return compare(self, a, b)

    monkeypatch.setattr(enumeration, "_iter_box", counted_iter_box)
    monkeypatch.setattr(FieldContext, "compare", counted_compare)
    ctx = table.context(label)
    sols = dominated_elements(ctx, ctx.from_rational(bound), mode)
    # one more call: `solution_box` checks that the bound is totally positive
    assert counts["compare"] == counts["points"] + 1
    assert 0 < len(sols) <= counts["points"]
    if points is not None:
        assert counts["points"] == points


# ---------------------------------------------------------------------------
# certified boxes on integers against the `Fraction` interval loops

def ref_box_bounds(inv, targets):
    lows, highs = [], []
    for alo, ahi, den in inv:
        acc = point(0)
        for lo, hi, t in zip(alo, ahi, targets):
            acc = iv_add(acc, iv_mul(Interval(F(lo, den), F(hi, den)), t))
        lows.append(math.ceil(acc.lo))
        highs.append(math.floor(acc.hi))
    return lows, highs


def ref_candidate_estimate(emb, box):
    region = F(1)
    lows, highs, den = box.targets
    for lo, hi in zip(lows, highs):
        region *= F(hi - lo, den)
    det = abs(linalg.det([[e.mid for e in row] for row in as_intervals(emb)]))
    if det == 0:
        return box.volume
    return min(box.volume, math.ceil(region / det) + 1)


def _table_and_cyclotomic_contexts(table):
    assert len(table.records) == 19
    return [table.context(rec.label) for rec in table.records] + \
        [cyclo_info(16).field, cyclo_info(32).field]


@pytest.mark.parametrize("mode", list(QueryMode))
def test_box_kernels_equal_the_fraction_loops(table, monkeypatch, mode):
    # every box product and estimate made while building the boxes of
    # real queries is checked against its reference on the same inputs
    seen = {"bounds": 0, "estimates": 0, "fraction bounds": 0}

    def checked_bounds(inv, targets):
        got = _box_bounds(inv, targets)
        assert got == ref_box_bounds(inv, as_intervals([targets])[0])
        seen["bounds"] += 1
        return got

    def checked_estimate(emb, det, box):
        got = _candidate_estimate(emb, det, box)
        assert got == ref_candidate_estimate(emb, box)
        seen["estimates"] += 1
        return got

    monkeypatch.setattr(enumeration, "_box_bounds", checked_bounds)
    monkeypatch.setattr(enumeration, "_candidate_estimate", checked_estimate)
    rng = random.Random(41)
    for ctx in _table_and_cyclotomic_contexts(table):
        bounds = _bounds(ctx, rng)
        if ctx.sqrt2 is not None:
            bounds.append(3 * (2 + ctx.sqrt2))
        for bound in bounds:
            seen["fraction bounds"] += bound.den > 1
            solution_box(ctx, bound, mode, 10 ** 8)
    assert seen["bounds"] >= 2 * 21 * 4 and seen["estimates"] >= 21 * 4, seen
    assert seen["fraction bounds"] >= 40, seen


# the target bodies the integer `enumeration._targets` replaced, with
# the upper square root written out on `Fraction`s

def ref_sqrt_upper(x):
    n = x.numerator * x.denominator << 64
    r = math.isqrt(n)
    return F(r + (r * r < n), x.denominator << 32)


def ref_square_targets(ctx, bound):
    out = []
    for _, hi, den in ctx._embedding_numerators(bound, F(1, 256)):
        r = ref_sqrt_upper(F(max(hi, 0), den))
        out.append(Interval(-r, r))
    return out


def ref_interval_targets(ctx, bound):
    sums = ctx._embedding_numerators(bound, F(1, 256))
    return [Interval(F(0), F(max(hi, 0), den)) for _, hi, den in sums]


@pytest.mark.parametrize("mode", list(QueryMode))
def test_integer_targets_equal_the_interval_bodies(table, mode):
    # on every table field, for the bounds of the box tests and for the
    # generator, whose negative embeddings are clamped at 0 beside
    # positive ones in the same bound
    ref = ref_square_targets if mode is QueryMode.SQUARE_DOMINATED \
        else ref_interval_targets
    rng = random.Random(43)
    seen = {"bounds": 0, "clamped": 0, "mixed": 0}
    assert len(table.records) == 19
    for rec in table.records:
        ctx = table.context(rec.label)
        bounds = _bounds(ctx, rng) + [ctx.from_rational(6), ctx.gen]
        if ctx.sqrt2 is not None:
            bounds.append(3 * (2 + ctx.sqrt2))
        for bound in bounds:
            lows, highs, den = _targets(ctx, bound, mode)
            got = [Interval(F(lo, den), F(hi, den))
                   for lo, hi in zip(lows, highs)]
            assert got == ref(ctx, bound), (rec.label, bound)
            zero = sum(hi == 0 for hi in highs)
            seen["bounds"] += 1
            seen["clamped"] += zero
            seen["mixed"] += 0 < zero < len(highs)
    assert seen["bounds"] >= 19 * 6 and seen["mixed"] >= 19, seen


def rationals():
    return st.one_of(st.just(F(0)), st.builds(F, st.integers(-60, 60),
                                              st.integers(1, 16)))


@st.composite
def rational_intervals(draw):
    """Intervals with negative, zero, mixed-sign and unrelated rational
    endpoints; some are points."""
    a, b = draw(rationals()), draw(rationals())
    return Interval(min(a, b), max(a, b))


@st.composite
def products(draw):
    d = draw(st.integers(1, 5))
    row = st.lists(rational_intervals(), min_size=d, max_size=d)
    return (draw(st.lists(row, min_size=d, max_size=d)), draw(row),
            draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)))


@given(products())
@settings(max_examples=300, deadline=None)
@example(([[Interval(F(-1, 3), F(2, 5))]], [Interval(F(-7, 2), F(-1, 6))],
          [0]))
@example(([[Interval(F(1), F(2)), Interval(F(1), F(2))],
           [Interval(F(1), F(2)), Interval(F(1), F(2))]],
          [Interval(F(0), F(3)), Interval(F(-5, 4), F(0))], [-2, 1]))
def test_box_kernels_on_random_rational_intervals(case):
    # the second example has a singular midpoint matrix
    mat, targets, lows = case
    inv = numerators(mat)
    tnum = endpoint_numerators(targets)
    assert _box_bounds(inv, tnum) == ref_box_bounds(inv, targets)
    box = EnumerationBox(tuple(lows), tuple(c + 3 for c in lows), F(1, 64),
                         (tuple(tnum[0]), tuple(tnum[1]), tnum[2]))
    det = linalg.det_int([[lo + hi for lo, hi in zip(lows, highs)]
                          for lows, highs, _ in inv])
    assert _candidate_estimate(inv, det, box) == \
        ref_candidate_estimate(inv, box)


def _moved(rec):
    """The field over the basis b_0 + b_1, b_1, ..., b_(d-1): coordinates c
    become (c_0, c_1 - c_0, c_2, ...), and 1 = +-b_0 is no basis element."""
    basis = (tuple(x + y for x, y in zip(rec.basis[0], rec.basis[1])),) + \
        rec.basis[1:]
    s = list(rec.sqrt2)
    s[1] -= s[0]
    return rec._replace(label=rec.label + "'", basis=basis, sqrt2=tuple(s),
                        units=None)


def test_sqrt2_span_witnesses_equal_rational_span_coords(table, ctx_sqrt2):
    seen = {"in span": 0, "witnesses": 0}
    ctxs = [table.context(rec.label) for rec in table.records]
    ctxs += [load_field(_moved(rec)) for rec in table.records]
    assert all(ctx.one.coords[1] for ctx in ctxs[19:])
    for ctx in ctxs + [ctx_sqrt2]:
        gens = [ctx.one, ctx.sqrt2]
        for bound in (ctx.from_rational(6), 3 * (2 + ctx.sqrt2),
                      ctx.from_rational(20)):
            sols = dominated_elements(ctx, bound)
            want = [w for w in sols
                    if rational_span_coords(w, gens) is None]
            assert sqrt2_span_witnesses(ctx, bound) == want
            seen["in span"] += len(sols) - len(want)
            seen["witnesses"] += len(want)
    assert seen["in span"] > 500 and seen["witnesses"] > 500, seen


def test_sqrt2_span_equals_the_normal_equations(table, ctx_sqrt2):
    # elements (x + y sqrt2) / den, many with den > 1, and elements with
    # random coordinates, which in a quartic field mostly leave the span;
    # on every table field the minor is +-1
    rng = random.Random(48)
    seen = {"den > 1 in Q(sqrt2)": 0, "den > 1 in a quartic": 0,
            "outside": 0}
    assert len(table.records) == 19
    for ctx in [table.context(rec.label) for rec in table.records] + \
            [ctx_sqrt2]:
        assert ctx._sqrt2_minor[0] in (1, -1)
        one, s = ctx.one, ctx.sqrt2
        xs = [(rng.randint(-9, 9) * one + rng.randint(-9, 9) * s)
              / rng.randint(1, 6) for _ in range(30)]
        xs += [ctx.element([rng.randint(-5, 5) for _ in range(ctx.degree)],
                           rng.randint(1, 6)) for _ in range(30)]
        for a in xs:
            span, want = ctx.sqrt2_span(a), rational_span_coords(a, [one, s])
            if want is None:
                assert span is None, (ctx, a)
                seen["outside"] += 1
                continue
            x, y, den = span
            assert den > 0 and [F(x, den), F(y, den)] == want, (ctx, a)
            assert (x * one + y * s) / den == a
            if F(x, den).denominator > 1 or F(y, den).denominator > 1:
                seen["den > 1 in Q(sqrt2)" if ctx.degree == 2
                     else "den > 1 in a quartic"] += 1
    assert min(seen.values()) > 20, seen
