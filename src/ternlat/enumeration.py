"""Complete, certified enumeration of algebraic integers under constraints.

Every search here reduces to integer points of a box in integral-basis
coordinates.  The box comes from enclosing the inverse of the basis
embedding matrix by a verified midpoint-radius inverse (an approximate
inverse whose error bound is checked in exact integers,
`linalg.interval_inverse`) and applying it to the per-embedding constraint
region, so it provably contains all solutions.  That product runs on
integers: the embedding matrix and its inverse come as integer endpoint
numerators, per row over one denominator (2^s for the inverse), the
region comes as integer numerators over one common denominator, the
interval products and sums are taken on the numerators, and the box
bounds are their exact ceiling and floor.  Precision is increased until
the box volume stabilizes, and a configurable ceiling turns runaway
searches into errors instead of long runs.  The targets, the
per-embedding region, depend only on the bound and the roots, so a round
whose root state did not change (as the first rounds after
`fixed_point_table`) reuses them, and every box at that root state
certifies its inverse from the one `linalg.ApproximateInverse` the state
keeps (`FieldContext.embedding_inverse`).  The box keeps the targets as
integers; only `EnumerationBox.to_dict` makes `Fraction`s of them.  A
query is a plain record, and `solution_box` is the one place it becomes
a box; the box records the width bound of the root state it was
certified at, so a fresh context refined to that width re-derives it.

Each candidate x of the pruned box then takes one exact comparison against
zero, of an integer residual from a quadratic map built once per query:
den * (beta - x^2) for omega^2 <= beta, and den * (beta x - x^2) for 0 <=
omega <= beta, where beta = B / den is the bound.  As beta is totally
positive, sigma(x)(sigma(beta) - sigma(x)) >= 0 holds exactly when 0 <=
sigma(x) <= sigma(beta), so the interval mode needs one test, not two.
The box yields its points in runs that share every coordinate but the
first, c = x_0, and the residual is a quadratic polynomial in c whose
coefficients depend only on the rest, r: they are formed once per run,
so a candidate costs d multiply-adds before its comparison (the
incremental evaluation along the innermost coordinate of Fincke-Pohst
enumeration).  The box iteration is one generator with an explicit stack
of levels, so a candidate passes through one generator frame, whatever
the degree.  It prunes with the table that `compare` reads too
(`FieldContext.fixed_point_table`).

Each level solves the feasible values of its coordinate c exactly, per
embedding and per sign of c, against the hull of what the coordinates
below it can contribute.  That hull lets through values of c for which
the next level, y, has no value at all.  So a level with enough values
also projects the level below onto c: once the signs of c and y are
fixed, the level below's constraints are linear in (c, y), and
eliminating y over the reals (Fourier-Motzkin, the pairing of an upper
and a lower bound on y) leaves the values of c with a real y.  The level
below solves the same constraints, in the same outward fixed-point
integers, for integer y, so every value of c that the projection drops
has an empty range below: the points, their order and every count of
candidates stay the same, and only empty inner runs are skipped.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, islice, product
from math import lcm, prod
from operator import mul, sub
from typing import (Callable, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from . import linalg, polys
from .errors import (BoxTooLarge, DivisionByZero, InvalidInput,
                     PrecisionExhausted)
from .intervals import Numerators, fixed_point_ends, sqrt_numerator
from .numberfield import Dominance, Element, FieldContext

DEFAULT_CEILING = 10 ** 8


def require_count(name: str, value: int) -> None:
    """Reject a ceiling or pool size below 1, before any work is done."""
    if value < 1:
        raise InvalidInput(f"{name} must be at least 1, got {value}")


class QueryMode(Enum):
    SQUARE_DOMINATED = "square_dominated"   # omega^2 <= bound (all embeddings)
    INTERVAL = "interval"                   # 0 <= omega <= bound


class DominanceQuery(NamedTuple):
    """A dominated-element query, a plain record: `solution_box` checks the
    bound and refines the roots."""
    field: FieldContext
    bound: Element
    mode: QueryMode = QueryMode.SQUARE_DOMINATED


class EnumerationBox(NamedTuple):
    """Certified coordinate box: provably contains every solution."""

    lows: Tuple[int, ...]
    highs: Tuple[int, ...]
    root_width: Fraction            # width bound of the certifying root state
    targets: Numerators             # per-embedding region, as tuples over den

    @property
    def volume(self) -> int:
        return prod(max(hi - lo + 1, 0) for lo, hi in zip(self.lows,
                                                          self.highs))

    def to_dict(self) -> dict:
        lows, highs, den = self.targets
        return {
            "lows": list(self.lows),
            "highs": list(self.highs),
            "root_width": str(self.root_width),
            "targets": [[str(Fraction(a, den)), str(Fraction(b, den))]
                        for a, b in zip(lows, highs)],
        }


def _candidate_estimate(emb: List[Numerators], det: int,
                        box: EnumerationBox) -> int:
    """Expected number of enumerated points: region volume / |det E|, E the
    midpoint of emb, det E = det / prod(2 den_i) for det that of the rows
    lows + highs (`FieldContext.embedding_inverse`), the region the product
    of the target widths.  The pruned iteration visits on this order of
    candidates, far below the raw box volume for skewed bases."""
    if det == 0:
        return box.volume
    lows, highs, tden = box.targets
    num = prod(map(sub, highs, lows)) * prod(2 * d for _, _, d in emb)
    den = tden ** len(lows) * abs(det)
    return min(box.volume, -(-num // den) + 1)


def _box_bounds(inv: List[Numerators], targets: Numerators
                ) -> Tuple[List[int], List[int]]:
    """Per coordinate j, the ceiling of the lower and the floor of the
    upper end of the interval sum over i of inv[j][i] * targets[i], each
    product the hull of its four endpoint products.

    Row j of inv is given as integer endpoint numerators over den_j, as
    `linalg.interval_inverse` returns it, and the targets over tden; the
    sums are taken exactly on integer numerators over den_j * tden.
    """
    tlo, thi, tden = targets
    lows, highs = [], []
    for alo, ahi, den in inv:
        lo = hi = 0
        for a, b, c, e in zip(alo, ahi, tlo, thi):
            ps = (a * c, a * e, b * c, b * e)
            lo += min(ps)
            hi += max(ps)
        den *= tden
        lows.append(-(-lo // den))
        highs.append(hi // den)
    return lows, highs


def _build_box(ctx: FieldContext, make_targets: Callable[[], Numerators],
               ceiling: int) -> EnumerationBox:
    """Shrink the certified box until its volume stabilizes within 1%.

    Each round certifies its own inverse from `ctx.embedding_inverse()`.
    The targets depend only on the bound and the roots, so `make_targets`
    runs, and the box takes the `Numerators` it returns, again only in a
    round that finds a new root state: when `ctx.basis_embeddings()`
    returns a new list.  The box records the width bound that
    `refine_roots` returns for the root state it was certified at."""
    prev: Optional[tuple] = None
    made_for = targets = None
    for k in range(80):
        width = ctx.refine_roots(Fraction(1, 64 * 4 ** k))
        emb = ctx.basis_embeddings()
        approx, det = ctx.embedding_inverse()
        inv = linalg.interval_inverse(approx)
        if inv is None:
            continue
        if emb is not made_for:
            made_for, targets = emb, make_targets()
        lows, highs = _box_bounds(inv, targets)
        box = EnumerationBox(tuple(lows), tuple(highs), width, targets)
        if prev is not None and 100 * box.volume >= 99 * prev[2].volume:
            est = _candidate_estimate(emb, det, box)
            if est > ceiling:
                raise BoxTooLarge(est, ceiling)
            return box
        prev = emb, det, box
    if prev is None:
        raise PrecisionExhausted(width)
    if _candidate_estimate(*prev) <= ceiling:
        return prev[2]
    raise BoxTooLarge(prev[2].volume, ceiling, "box volume {}")


# Levels with fewer feasible values are walked without projecting the level
# below.  Most levels of the certified boxes of `scan` hold one or two
# values, and projecting levels of 1, 2 or 3 values made `scan` 5-9% slower
# in paired runs, while `enum` did not move and degree 8 gained at most 10%
# (BENCH_enum_projection.json, "projection_gate").
_PROJECT_MIN = 4


def _narrow(lo: int, hi: int, ea: int, a: int, eb: int, b: int
            ) -> Tuple[int, int]:
    """The integers c in [lo, hi] with c * ea <= a and c * eb >= b, as a
    range [lo, hi] that is empty when lo > hi."""
    if ea > 0:
        q = a // ea
        if q < hi:
            hi = q
    elif ea < 0:
        q = -(-a // ea)
        if q > lo:
            lo = q
    elif a < 0:
        return 1, 0
    if eb > 0:
        q = -(-b // eb)
        if q > lo:
            lo = q
    elif eb < 0:
        q = b // eb
        if q < hi:
            hi = q
    elif b > 0:
        return 1, 0
    return lo, hi


Row = Tuple[int, int, int]


def _active_cut(c: int, ups: List[Row], lows: List[Row], g: List[int]
                ) -> Optional[Tuple[int, int]]:
    """None when some real y meets the least upper and the greatest lower
    bound on y at c (`_halves`), else the Fourier-Motzkin cut e c <=
    r of those two bounds, which c violates: with h_k = g_k - a_k c, the
    bounds are h_u / b_u and -h_m / |b_m|, and they meet when
    h_u |b_m| + h_m b_u >= 0, i.e. when (b_u a_m + |b_m| a_u) c <=
    b_u g_m + |b_m| g_u."""
    au, bu, ku = ups[0]
    hu = g[ku] - au * c
    for a, b, k in ups:
        h = g[k] - a * c
        if h * bu < hu * b:
            hu, bu, au, ku = h, b, a, k
    am, bm, km = lows[0]
    hm = g[km] - am * c
    for a, b, k in lows:
        h = g[k] - a * c
        if h * bm < hm * b:
            hm, bm, am, km = h, b, a, k
    if hu * bm + hm * bu >= 0:
        return None
    return bu * am + bm * au, bu * g[km] + bm * g[ku]


def _project(lo: int, hi: int, halves: list, g: List[int]
             ) -> List[Tuple[int, int]]:
    """The integers c in [lo, hi] for which some real y satisfies the
    system of one of the halves, as ascending disjoint ranges (lo, hi).

    Each half holds its rows a_k c + b_k y <= g_k, sorted by what they say
    of y (`_halves`), and (y_max, -y_min), the right sides of its range
    rows; g holds the right sides of the other rows.  The rows with b = 0
    bound c directly.  For the others, the c with a real y form an
    interval, the projection of a convex polygon, which Fourier-Motzkin
    elimination of y describes by one cut per pair of an upper and a lower
    bound on y.  Its ends are found from lo upwards and from hi downwards:
    while c has no y, the cut of the two bounds that are active at c
    (`_active_cut`) is violated at c, so it either excludes every value
    beyond c or moves c to the first value that meets it.  No value with a
    real y, and so none with an integer y, is ever dropped.
    """
    runs = []
    for (ups, lows, flats), ybox in halves:
        gy = g + ybox
        a, b = lo, hi
        for e, k in flats:
            if e > 0:
                b = min(b, gy[k] // e)
            elif e < 0:
                a = max(a, -(gy[k] // -e))
            elif gy[k] < 0:
                b = a - 1
        while a <= b:
            cut = _active_cut(a, ups, lows, gy)
            if cut is None:
                break
            e, r = cut
            a = -(-r // e) if e < 0 else b + 1
        while a <= b:
            cut = _active_cut(b, ups, lows, gy)
            if cut is None:
                break
            e, r = cut
            b = r // e if e > 0 else a - 1
        if a <= b:
            runs.append((a, b))
    runs.sort()
    if len(runs) == 2 and runs[1][0] <= runs[0][1] + 1:
        runs = [(runs[0][0], max(runs[0][1], runs[1][1]))]
    return runs


def _halves(table: tuple, level: int, c_pos: bool, ylo: int, yhi: int
            ) -> list:
    """The halves of `_project` for the rows of level - 1 in c = x_level and
    y = x_(level-1) in [ylo, yhi] (`_iter_box`), one per sign of y that
    the range holds, for c of the given sign.

    The rows a_k c + b_k y <= g_k are, per embedding, the upper target row
    and the lower one negated, then y <= y_max and -y <= -y_min.  They are
    sorted by what they say of y: (a_k, b_k, k) for b_k > 0 (y <= (g_k -
    a_k c) / b_k), (a_k, -b_k, k) for b_k < 0 (y >= (a_k c - g_k) / |b_k|)
    and (a_k, k) for b_k = 0, and kept in the table's memo
    (`FieldContext.fixed_point_table`)."""
    cols_lo, cols_hi, split = table
    out = []
    for y_pos, lo, hi in ((False, ylo, min(yhi, -1)),
                          (True, max(ylo, 0), yhi)):
        if lo > hi:
            continue
        key = level, c_pos, y_pos
        if key not in split:
            ca, cb = (cols_lo, cols_hi) if c_pos else (cols_hi, cols_lo)
            ya, yb = (cols_lo, cols_hi) if y_pos else (cols_hi, cols_lo)
            rows = list(zip(ca[level], ya[level - 1]))
            rows += [(-a, -b) for a, b in zip(cb[level], yb[level - 1])]
            rows = list(enumerate(rows + [(0, 1), (0, -1)]))
            split[key] = ([(a, b, k) for k, (a, b) in rows if b > 0],
                          [(a, -b, k) for k, (a, b) in rows if b < 0],
                          [(a, k) for k, (a, b) in rows if not b])
        out.append((split[key], [hi, -lo]))
    return out


def _iter_box(table: tuple, box: EnumerationBox
              ) -> Iterator[Tuple[int, ...]]:
    """Integer points of the box surviving per-embedding interval pruning.

    Coordinates are fixed from the last to the first; at each level the
    partial embedding sum plus the hull of the remaining coordinates'
    possible contributions must still meet every target region.  Pruning
    uses the outward fixed-point ends of the basis embeddings in `table`
    (`FieldContext.fixed_point_table`), so it never discards a solution.
    The context's table is taken after the box, from roots at least as
    narrow, so it prunes at least as tightly as the box's embeddings would.

    Each level's constraints are linear in its coordinate c on c < 0 and on
    c >= 0 (where the enclosure endpoint that bounds c * sigma_i(basis)
    from below or above swaps), so the surviving values of c form one
    range on each side, solved exactly by integer division (Fincke-Pohst
    style); points come in lexicographic order of reversed coordinates.

    A level above 0 with at least _PROJECT_MIN values then also drops the
    values c for which the level below has no real solution y.  For signs
    of c and of y fixed, the level below admits y when, per embedding i,
    c A_i + y B_i <= thi_i - rem_lo_i - plo_i and c A'_i + y B'_i >= tlo_i
    - rem_hi_i - phi_i, with the hulls rem of the coordinates below y:
    linear in (c, y), with y in its half of the box range.  Eliminating y
    over the reals (`_project`) leaves the integers c for which such a
    real y exists, per half of y, and the union of the two halves is
    kept.  As the level below solves the same rows for integer y, only
    values c whose range below is empty are dropped: every point, and its
    order, stays the same.

    One generator walks all levels with an explicit stack: per level above
    0, the values it has left and the partial sums it was solved against.
    The innermost level yields its points straight from its two ranges, so
    a point costs one generator step, whatever the degree.
    """
    d = len(box.lows)
    lows, highs = box.lows, box.highs
    if not all(lo <= hi for lo, hi in zip(lows, highs)):
        return
    (tlo,), (thi,) = fixed_point_ends([box.targets], FieldContext.INT_BITS)
    cols_lo, cols_hi, _ = table

    # rem[i][j] = hull of possible contributions of coordinates < j
    rem_lo = [[0] * (d + 1) for _ in range(d)]
    rem_hi = [[0] * (d + 1) for _ in range(d)]
    for j, lo, hi in zip(range(d), lows, highs):
        for i, el, eh in zip(range(d), cols_lo[j], cols_hi[j]):
            ends = (lo * el, lo * eh, hi * el, hi * eh)
            rem_lo[i][j + 1] = rem_lo[i][j] + min(ends)
            rem_hi[i][j + 1] = rem_hi[i][j] + max(ends)

    # per level: embedding i admits c when
    #   plo[i] + c * e_a <= thi[i] - rem_lo[i][level]
    #   phi[i] + c * e_b >= tlo[i] - rem_hi[i][level]
    # with (e_a, e_b) = (elo, ehi) for c >= 0 and (ehi, elo) for c < 0
    caps = [[thi[i] - rem_lo[i][j] for i in range(d)] for j in range(d)]
    floors = [[tlo[i] - rem_hi[i][j] for i in range(d)] for j in range(d)]
    coords = [0] * d
    # per level: the partial sums (plo, phi) of the coordinates above it,
    # and above level 0 the values it has left
    sums = [([0] * d, [0] * d)] * d
    pending: List[Optional[Iterator[int]]] = [None] * d
    level = d - 1
    while True:
        # solve this level's two ranges against the coordinates above it
        plo, phi = sums[level]
        neg_lo, neg_hi = lows[level], min(highs[level], -1)
        pos_lo, pos_hi = max(lows[level], 0), highs[level]
        for el, eh, cap, flo, p, q in zip(cols_lo[level], cols_hi[level],
                                          caps[level], floors[level], plo, phi):
            if neg_lo <= neg_hi:
                neg_lo, neg_hi = _narrow(neg_lo, neg_hi, eh, cap - p, el, flo - q)
            if pos_lo <= pos_hi:
                pos_lo, pos_hi = _narrow(pos_lo, pos_hi, el, cap - p, eh, flo - q)
        if level:
            runs = [(neg_lo, neg_hi), (pos_lo, pos_hi)]
            if max(neg_hi - neg_lo, -1) + max(pos_hi - pos_lo, -1) + 2 \
                    >= _PROJECT_MIN:
                # the level below's rows as a c + b y <= g, per embedding
                # the upper target row, then the lower one negated
                g = [cap - p for cap, p in zip(caps[level - 1], plo)]
                g += [q - flo for q, flo in zip(phi, floors[level - 1])]
                ylo, yhi = lows[level - 1], highs[level - 1]
                runs = [run for c_pos, (lo, hi) in zip((False, True), runs)
                        if lo <= hi for run in _project(
                            lo, hi, _halves(table, level, c_pos, ylo, yhi), g)]
            pending[level] = chain(*[range(lo, hi + 1) for lo, hi in runs])
        else:
            rest = tuple(coords[1:])
            for c in range(neg_lo, neg_hi + 1):
                yield (c,) + rest
            for c in range(pos_lo, pos_hi + 1):
                yield (c,) + rest
            level = 1
        # descend with the next value of the lowest level that has one
        while level < d:
            c = next(pending[level], None)
            if c is not None:
                break
            level += 1
        else:
            return
        coords[level] = c
        ea, eb = (cols_lo, cols_hi) if c >= 0 else (cols_hi, cols_lo)
        plo, phi = sums[level]
        sums[level - 1] = ([x + c * e for x, e in zip(plo, ea[level])],
                           [x + c * e for x, e in zip(phi, eb[level])])
        level -= 1


def _targets(ctx: FieldContext, bound: Element, mode: QueryMode
             ) -> Numerators:
    """The region of a query, per embedding and over one least common
    denominator: for hi_i / den_i the upper end of sigma_i(bound) at width
    1/256, clamped at 0, [0, hi_i / den_i] for 0 <= omega <= bound and
    [-r_i, r_i] for omega^2 <= bound, r_i the upper bound on
    sqrt(hi_i / den_i) that `sqrt_numerator` rounds up on integers."""
    ends = [(max(hi, 0), d) for _, hi, d in
            ctx._embedding_numerators(bound, Fraction(1, 256))]
    square = mode is QueryMode.SQUARE_DOMINATED
    if square:
        ends = [sqrt_numerator(n, d, True) for n, d in ends]
    den = lcm(*(d for _, d in ends))
    his = tuple(n * (den // d) for n, d in ends)
    return tuple(-r for r in his) if square else (0,) * len(his), his, den


def solution_box(query: DominanceQuery,
                 ceiling: int = DEFAULT_CEILING) -> EnumerationBox:
    """The certified box of a query, the one place a query becomes a box.
    The field's full fixed-point table is taken before the positivity
    check, so that the box and its pruning read the roots at 2^-32
    whatever the context compared before (a lone comparison leaves them at
    1/256), and the box records that width (`_build_box`)."""
    ctx, bound, mode = query
    ctx.fixed_point_table()
    if not bound.is_totally_positive():
        raise InvalidInput("enumeration bound must be totally positive")
    return _build_box(ctx, lambda: _targets(ctx, bound, mode), ceiling)


_ACCEPT = (Dominance.GT, Dominance.EQ, Dominance.GE_TIED)


Point = Tuple[int, ...]


def _exact_check(query: DominanceQuery, points: Iterable[Point]
                 ) -> List[Point]:
    """The points x that pass the exact test, in their order: one
    `FieldContext.compare` per candidate, against zero, of the integer
    coordinates v of den * (beta - x^2) or den * (beta x - x^2) (module
    docstring).

    v is a quadratic form in y = (1, x_0, ..., x_(d-1)), with one column of
    coefficients per monomial y_a y_b, a <= b: B or the integer matrix of B
    for the constant or linear part, and -den times the multiplication
    table, doubled off the diagonal, for x^2.  By degree in c = x_0 = y_1,
    v = A(r) + c (L(r) + c Q) with r = x[1:]: Q is the column of x_0^2, L(r)
    sums the columns of y_1 y_b times y_b, and A(r) sums the other
    monomials.  `_iter_box` yields candidates in runs that share r, so A and
    L are formed only when r differs from the previous candidate's, and
    each candidate costs d multiply-adds, in one loop over the candidates.
    The residual is built as an integer `Element` over 1 directly on its
    slots (its coordinates are in lowest terms already).
    """
    ctx, bound = query.field, query.bound
    d, den = ctx.degree, bound.den
    if query.mode is QueryMode.SQUARE_DOMINATED:
        columns = {(0, 0): bound.coords}
    else:
        m = bound.mult_matrix_scaled()
        columns = {(0, j + 1): [row[j] for row in m] for j in range(d)}
    for i in range(d):
        for j in range(i, d):
            w = den if i == j else 2 * den
            columns[i + 1, j + 1] = [-w * t for t in ctx.mult_table[i][j]]
    quad = columns.pop((1, 1))
    # all-zero columns are dropped; the linear ones are keyed by the index
    # b of their other factor y_b
    linear = {b if a == 1 else a: col for (a, b), col in columns.items()
              if 1 in (a, b) and any(col)}
    pairs = [p for p, col in columns.items() if 1 not in p and any(col)]
    const_rows = [[columns[p][k] for p in pairs] for k in range(d)]
    lin_rows = [[col[k] for col in linear.values()] for k in range(d)]

    zero, compare, blank = ctx.zero, ctx.compare, Element.__new__
    last_r, terms, out = None, (), []
    for x in points:
        r = x[1:]
        if r != last_r:
            y = (1, 0) + r
            monomials = [y[a] * y[b] for a, b in pairs]
            ys = [y[b] for b in linear]
            last_r = r
            terms = tuple(zip([sum(map(mul, monomials, row))
                               for row in const_rows],
                              [sum(map(mul, ys, row)) for row in lin_rows],
                              quad))
        c = x[0]
        v = blank(Element)
        v.ctx, v.den = ctx, 1
        v.coords = tuple([a + c * (b + c * q) for a, b, q in terms])
        if compare(v, zero) in _ACCEPT:
            out.append(x)
    return out


def enumerate_dominated(query: DominanceQuery,
                        ceiling: int = DEFAULT_CEILING) -> List[Element]:
    """All integral omega with omega^2 <= bound (or 0 <= omega <= bound).

    Completeness is guaranteed by the enclosing box; each candidate of the
    pruned box iteration takes the one exact test of `_exact_check`, and
    only accepted points become elements.  Output is sorted
    lexicographically by coordinates.  Raises BoxTooLarge when the
    estimated or the visited number of candidates exceeds the ceiling.
    """
    ctx = query.field
    box = solution_box(query, ceiling)
    points = _iter_box(ctx.fixed_point_table(), box)
    out = _exact_check(query, islice(points, ceiling))
    if next(points, None) is not None:
        raise BoxTooLarge(ceiling + 1, ceiling, "visited {} candidates")
    out.sort()
    return [Element._new(ctx, coords, 1) for coords in out]


def dominated_elements(ctx: FieldContext, bound: Element,
                       mode: QueryMode = QueryMode.SQUARE_DOMINATED,
                       ceiling: int = DEFAULT_CEILING) -> List[Element]:
    return enumerate_dominated(DominanceQuery(ctx, bound, mode), ceiling)


class Representations(NamedTuple):
    """Vectors found by `enumerate_representations`; complete is False when
    the search stopped at its cap with candidates left to test; counts are
    the sizes of the complete candidate lists it built, () on early returns."""
    vectors: List[Tuple[Element, ...]]
    complete: bool
    counts: Tuple[int, ...] = ()


def enumerate_representations(gram: Sequence[Sequence[Element]], gamma: Element,
                              cap: int = 10000,
                              ceiling: int = DEFAULT_CEILING
                              ) -> Representations:
    """All vectors v over the ring of integers with v^T G v = gamma, up to cap.

    Completeness: for positive definite G, any solution satisfies
    v_j^2 <= gamma * (G^-1)_jj in every embedding, so each coordinate ranges
    over a complete dominated-element list.  Candidate vectors are tested in
    lexicographic order of those lists; the search stops at the cap-th
    solution, and the result says whether candidates were left untested.
    """
    n = len(gram)
    ctx = gamma.ctx
    if gamma.is_zero:
        return Representations([tuple(ctx.zero for _ in range(n))], True)
    if not gamma.is_totally_positive():
        return Representations([], True)
    det = linalg.ring_det(gram)
    if det.is_zero:
        raise DivisionByZero("Gram matrix is singular")
    adj = linalg.ring_adjugate(gram)
    candidate_lists: List[List[Element]] = []
    volume = 1
    for j in range(n):
        bound = gamma * adj[j][j] / det
        cands = dominated_elements(ctx, bound, QueryMode.SQUARE_DOMINATED, ceiling)
        candidate_lists.append(cands)
        volume *= len(cands)
        if volume > ceiling:
            raise BoxTooLarge(volume, ceiling, "box volume {}")

    counts = tuple(map(len, candidate_lists))
    out: List[Tuple[Element, ...]] = []
    for vec in product(*candidate_lists):
        if len(out) >= cap:
            return Representations(out, False, counts)
        if linalg.ring_bilinear(vec, gram, vec) == gamma:
            out.append(vec)
    return Representations(out, True, counts)


# ---------------------------------------------------------------------------
# indecomposability

class IndecompResult(NamedTuple):
    indecomposable: bool
    reason: str                                   # norm-bound | trace-bound | exhaustive-search
    decomposition: Optional[Tuple[Element, Element]] = None

    def __bool__(self):
        return self.indecomposable


def is_indecomposable(alpha: Element,
                      ceiling: int = DEFAULT_CEILING) -> IndecompResult:
    """Decide whether alpha is a sum of two totally positive integers."""
    ctx = alpha.ctx
    if not alpha.is_integral:
        raise ValueError("indecomposability is defined for integral elements")
    if not alpha.is_totally_positive():
        raise ValueError("alpha must be totally positive")
    d = ctx.degree
    if abs(alpha.norm()) < 2 ** d:
        return IndecompResult(True, "norm-bound")
    if alpha.trace() < Fraction(5 * d, 2) and alpha != ctx.from_rational(2):
        return IndecompResult(True, "trace-bound")
    for beta in dominated_elements(ctx, alpha, QueryMode.INTERVAL, ceiling):
        if beta.is_zero or beta == alpha:
            continue
        return IndecompResult(False, "exhaustive-search", (beta, alpha - beta))
    return IndecompResult(True, "exhaustive-search")


def canonical_sign(e: Element) -> Element:
    """Of the pair +-e, the one whose first nonzero coordinate is positive."""
    for c in e.coords:
        if c > 0:
            return e
        if c < 0:
            return -e
    return e


def sqrt_element(alpha: Element, ceiling: int = DEFAULT_CEILING) -> Optional[Element]:
    """An integral square root of alpha (sign-normalized so that the first
    nonzero coordinate is positive), or None when alpha is not a square."""
    ctx = alpha.ctx
    if not alpha.is_integral:
        raise ValueError("square roots are searched among integral elements")
    if alpha.is_zero:
        return ctx.zero
    if not alpha.is_totally_nonnegative():
        return None
    for beta in dominated_elements(ctx, alpha, QueryMode.SQUARE_DOMINATED, ceiling):
        if beta * beta == alpha:
            return canonical_sign(beta)
    return None


def small_norm_elements(ctx: FieldContext, house_bound: Fraction,
                        norm_bound: int, ceiling: int = DEFAULT_CEILING
                        ) -> List[Tuple[Element, Fraction]]:
    """Pairs (w, |N(w)|), in `dominated_elements` order, of the nonzero
    integral w with house(w) <= house_bound and |N(w)| <= norm_bound.  A w
    takes the exact resultant norm only when the product of its least
    |sigma_i(w)| over the fixed-point enclosures (0 for one that holds
    zero) is at most norm_bound.  Only the first half of the list is
    tested: it is sorted and closed under negation, which reverses
    lexicographic order, so element n-1-i is minus element i, and -w has
    the fixed-point bounds of w negated and swapped, so the same product
    and |N|; the second half is the first one mirrored."""
    bound = ctx.from_rational(Fraction(house_bound) ** 2)
    # each fixed-point bound is in units of 2^-INT_BITS, a product of d of
    # them in units of 2^-(INT_BITS * d)
    limit = norm_bound << ctx.INT_BITS * ctx.degree
    ws = dominated_elements(ctx, bound, QueryMode.SQUARE_DOMINATED, ceiling)
    half = []
    for w in ws[:len(ws) // 2]:
        if prod(lo if lo > 0 else max(-hi, 0) for lo, hi in
                zip(*ctx.fixed_point_bounds(w))) > limit:
            continue
        n = abs(w.norm())
        if n <= norm_bound:
            half.append((w, n))
    return half + [(-w, n) for w, n in reversed(half)]


def elements_of_norm(ctx: FieldContext, n: int, house_bound: Fraction,
                     totally_positive: bool = False,
                     ceiling: int = DEFAULT_CEILING) -> List[Element]:
    """All integral elements with |norm| = n and house <= house_bound."""
    return [w for w, m in small_norm_elements(ctx, house_bound, n, ceiling)
            if m == n and (not totally_positive or w.is_totally_positive())]


_SQUAREFREE_PAD = 4


def squarefree_witness(alpha: Element, ceiling: int = DEFAULT_CEILING
                       ) -> Optional[Tuple[Element, Element]]:
    """A non-unit s with s^2 | alpha, together with gamma = alpha / s^2.

    Candidates s with norm(s)^2 | norm(alpha), by (|norm|, sum of |coords|,
    key), come from one enumeration of house(s) <= _SQUAREFREE_PAD *
    ceil(top^(1/d)), top the largest such |norm(s)|.  With B the product
    over the unit generators u of sqrt(max(house u, house 1/u)), rounding
    log|sigma(s)| in the basis of the log|sigma(u)| gives an associate with
    house <= B * |N(s)|^(1/d) <= B * top^(1/d): the radius depends on the
    norm alone, so it is the same for every associate of alpha, and None
    means squarefree when B <= _SQUAREFREE_PAD, as over Q(sqrt2) (B = 1.554).
    """
    ctx = alpha.ctx
    if not alpha.is_integral or alpha.is_zero:
        raise ValueError("squarefree test needs a nonzero integral element")
    n = abs(alpha.norm())
    if n.denominator != 1:
        raise ValueError("norm is not an integer")
    n = int(n)
    norms = [m for m in polys.mobius(n) if m > 1 and n % (m * m) == 0]
    if not norms:
        return None
    top, lo, root = norms[-1], 1, norms[-1]
    while lo < root:                # least root with root^d >= top
        mid = (lo + root) // 2
        lo, root = (lo, mid) if mid ** ctx.degree >= top else (mid + 1, root)
    found = {canonical_sign(s): m for s, m in small_norm_elements(
        ctx, _SQUAREFREE_PAD * root, top, ceiling) if m in norms}
    for s in sorted(found, key=lambda e: (found[e], sum(map(abs, e.coords)),
                                          e.key())):
        gamma = alpha / (s * s)
        if gamma.is_integral:
            return s, gamma
    return None


def sum_of_squares_test(gamma: Element, n: int,
                        ceiling: int = DEFAULT_CEILING
                        ) -> Optional[Tuple[Element, ...]]:
    """A decomposition gamma = w_1^2 + ... + w_n^2, or None (complete search).

    Solutions are normalized: each w_i is the lexicographically larger of
    +-w_i and the w_i appear in non-increasing coordinate order, which loses
    no generality.  Zeros come last, so a branch takes only nonzero w and
    recursion is at most Tr(gamma) / d deep, as Tr(w^2) >= d for nonzero
    integral w.  A count n below 0 raises InvalidInput.
    """
    if n < 0:
        raise InvalidInput(f"square count must be at least 0, got {n}")
    ctx = gamma.ctx
    if not gamma.is_totally_nonnegative():
        return None

    def rec(g: Element, k: int, max_key) -> Optional[Tuple[Element, ...]]:
        if g.is_zero:
            return tuple(ctx.zero for _ in range(k))
        if k == 0:
            return None
        cands = [w for w in dominated_elements(ctx, g, QueryMode.SQUARE_DOMINATED,
                                               ceiling)
                 if w.key() > (-w).key()]
        cands.sort(key=Element.key, reverse=True)
        for w in cands:
            if max_key is not None and w.key() > max_key:
                continue
            rest = rec(g - w * w, k - 1, w.key())
            if rest is not None:
                return (w,) + rest
        return None

    return rec(gamma, n, None)


def sqrt2_span_witnesses(ctx: FieldContext, bound: Element,
                         ceiling: int = DEFAULT_CEILING) -> List[Element]:
    """Solutions of omega^2 <= bound lying outside the span of {1, sqrt2}.

    1 and sqrt2 are independent, so some 2x2 minor m = u_p s_q - u_q s_p of
    their coordinates u, s is nonzero; w lies in their span exactly when
    m w = a u + b s with a = w_p s_q - w_q s_p and b = u_p w_q - u_q w_p
    (Cramer's rule on rows p and q), one integer test per solution.
    """
    if ctx.sqrt2 is None:
        raise ValueError("field has no sqrt2 tag")
    u, s = ctx.one.coords, ctx.sqrt2.coords
    d = ctx.degree
    m, p, q = next((u[p] * s[q] - u[q] * s[p], p, q) for p in range(d)
                   for q in range(p + 1, d) if u[p] * s[q] != u[q] * s[p])
    out = []
    for w in dominated_elements(ctx, bound, QueryMode.SQUARE_DOMINATED, ceiling):
        x = w.coords
        a = x[p] * s[q] - x[q] * s[p]
        b = u[p] * x[q] - u[q] * x[p]
        if any(m * xk != a * uk + b * sk for xk, uk, sk in zip(x, u, s)):
            out.append(w)
    return out
