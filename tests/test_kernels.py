"""Differential tests of the integer kernels against `Fraction` references.

`polys._horner`, `polys.eval_interval`, `polys.refine_root`,
`polys.isolate_real_roots`, `polys.divmod_poly`, `polys.cyclotomic` and
`linalg.det` work on integer numerators over a common denominator.  The
references below are the plain `Fraction` loops; every result must be
equal to theirs, not merely enclose it.  `polys.resultant` is checked
against the determinant of the Sylvester matrix.  `polys.eval_interval`
evaluates a whole set of rows at one interval, a row t times an earlier
one by one step from that row's value; its reference is one `Fraction`
Horner run per row, and `FieldContext.basis_embeddings` and
`fixed_point_table` are checked against it on every table field and F_k, k = 3..60.
Its steps by sign case and its shifts for a power-of-two denominator
must give the very integers of the four-product step with b^k as products.
`polys.refine_root` jumps down the bisection grid by secant proposals; it
must return bisection's interval for every isolating interval of those
fields, down to width 2^-200, and resumed from a cell it returned, the
cell it returns from the isolating one.  Every value a `polys.RootCell`
carries must be Horner's at the cell's own denominator.
`polys._sturm_signs` takes a Sturm chain's values by the recurrence that
builds it; its value and variations must be those of integer evaluation
of every member, and `intervals.fixed_point_ends` must round as floor
division does.
"""

import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import (Phase, assume, example, given, settings,
                        strategies as st)

from conftest import (FIELDS, as_cell, as_intervals, cell_interval, eval_one,
                      gcd_poly, iv_add, iv_mul, numerators, point,
                      ref_divmod_poly, ref_eval_at, root_intervals)
from ternlat import linalg, polys
from ternlat.cyclotomic import alpha_beta_verify, cyclo_info
from ternlat.fieldscan import ingest_fields
from ternlat.intervals import Interval, fixed_point_ends
from ternlat.numberfield import load_field


# ---------------------------------------------------------------------------
# Fraction references

def ref_eval_interval(p, iv):
    acc = point(0)
    for c in reversed(list(p)):
        acc = iv_add(iv_mul(acc, iv), point(F(c)))
    return acc


def sign(x):
    return (x > 0) - (x < 0)


def ref_refine_root(p, iv, max_width):
    if iv.lo == iv.hi:
        return iv
    lo, hi = iv.lo, iv.hi
    slo = sign(ref_eval_at(p, lo))
    shi = sign(ref_eval_at(p, hi))
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("not a sign-isolating interval")
    while hi - lo > max_width:
        m = (lo + hi) / 2
        sm = sign(ref_eval_at(p, m))
        if sm == 0:
            return Interval(m, m)
        if sm == slo:
            lo = m
        else:
            hi = m
    return Interval(lo, hi)


def ref_sign_at(nums, x, b):
    """Sign of p(x/b), b > 0, for integer coefficients nums, from the sum
    of the terms c_i x^i b^(n-i)."""
    n = len(nums) - 1
    return sign(sum(c * x ** i * b ** (n - i) for i, c in enumerate(nums)))


def ref_bisect(p, iv, max_width):
    """`ref_refine_root` with integer signs, for widths where `Fraction`
    evaluation is too slow: the same bisection of the same interval."""
    if iv.lo == iv.hi:
        return iv
    d = math.lcm(*(F(c).denominator for c in p))
    nums = [int(c * d) for c in p]
    b = math.lcm(iv.lo.denominator, iv.hi.denominator)
    a, e = int(iv.lo * b), int(iv.hi * b)
    slo, shi = ref_sign_at(nums, a, b), ref_sign_at(nums, e, b)
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("not a sign-isolating interval")
    while F(e - a, b) > max_width:
        a, e, b, m = 2 * a, 2 * e, 2 * b, a + e
        sm = ref_sign_at(nums, m, b)
        if sm == 0:
            return point(F(m, b))
        if sm == slo:
            a = m
        else:
            e = m
    return Interval(F(a, b), F(e, b))


def ref_isolate_real_roots(p):
    """Sturm bisection with `Fraction` endpoints from the `Fraction` Cauchy
    bound, as before the integer kernel: every count takes the signs of
    the chain at both of its endpoints (by `ref_sign_at`, the chain being
    integer polynomials), and squarefreeness comes from a separate gcd."""
    p = polys.trim(p)
    if polys.degree(p) < 1:
        return []
    if polys.degree(gcd_poly(p, polys.diff(p))) > 0:
        raise ValueError("root isolation requires a squarefree polynomial")
    chain = polys.sturm_chain(p)

    def variations(x):
        x = F(x)
        signs = [ref_sign_at(q, x.numerator, x.denominator) for q in chain]
        signs = [s for s in signs if s]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    def count(a, b):
        return variations(a) - variations(b)

    out = []

    def go(a, b, n):
        if n == 0:
            return
        if n == 1:
            out.append(Interval(a, b))
            return
        m = (a + b) / 2
        if ref_eval_at(p, m) == 0:
            out.append(Interval(m, m))
            eps = (b - a) / 4
            while ref_eval_at(p, m - eps) == 0 or ref_eval_at(p, m + eps) == 0 \
                    or count(m - eps, m + eps) != 1:
                eps /= 2
            go(a, m - eps, count(a, m - eps))
            go(m + eps, b, count(m + eps, b))
        else:
            left = count(a, m)
            go(a, m, left)
            go(m, b, n - left)

    bound = 1 + max(abs(F(c)) for c in p[:-1]) / abs(F(p[-1]))
    a, b = -bound, bound
    while ref_eval_at(p, a) == 0:
        a -= 1
    while ref_eval_at(p, b) == 0:
        b += 1
    go(F(a), F(b), count(a, b))
    out.sort(key=lambda iv: iv.lo)
    return out


@lru_cache(maxsize=None)
def ref_cyclotomic(k):
    """Phi_k by long division of x^k - 1 over `Fraction`s."""
    den = [F(1)]
    for d in range(1, k):
        if k % d == 0:
            den = polys.mul(den, ref_cyclotomic(d))
    rem = [F(-1)] + [F(0)] * (k - 1) + [F(1)]
    n = len(den) - 1
    quot = [F(0)] * (k - n + 1)
    for i in range(k - n, -1, -1):
        quot[i] = rem[i + n] / den[n]
        for j, x in enumerate(den):
            rem[i + j] -= quot[i] * x
    assert not any(rem)
    return tuple(quot)


def ref_det(a):
    n = len(a)
    m = [[F(x) for x in row] for row in a]
    sign = 1
    prev = F(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return F(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = F(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else F(1)


# ---------------------------------------------------------------------------
# strategies

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
coeffs = st.one_of(st.integers(-40, 40), rationals)
polys_q = st.lists(coeffs, min_size=0, max_size=9)


@st.composite
def intervals(draw):
    """Intervals whose endpoints have unrelated denominators; some are points."""
    lo = draw(rationals)
    width = draw(st.one_of(st.just(F(0)),
                           st.fractions(min_value=0, max_value=5,
                                        max_denominator=30)))
    return Interval(lo, lo + width)


# ---------------------------------------------------------------------------
# evaluation

@settings(max_examples=150, deadline=None)
@given(polys_q, st.one_of(st.integers(-9, 9), rationals))
@example([F(1, 2), F(1, 2)], F(3, 7))        # basis row (1 + t)/2
@example([], F(5, 3))
def test_eval_at_equals_fraction_horner(p, x):
    # p(x) from integer Horner on p's numerators over their common
    # denominator, as the isolation and refinement kernels evaluate
    nums, den = polys.clear_denominators(p)
    b = x.denominator
    got = F(polys._horner(nums, x.numerator, b),
            den * b ** max(len(nums) - 1, 0))
    assert got == ref_eval_at(p, x)


@settings(max_examples=150, deadline=None)
@given(polys_q, intervals())
@example([F(1, 2), 0, F(1, 2)], Interval(F(-3, 4), F(5, 6)))
@example([3, -1, 2], point(F(7, 5)))
@example([], Interval(F(1, 3), F(1, 2)))
def test_eval_interval_equals_fraction_horner(p, iv):
    got = eval_one(p, iv)
    want = ref_eval_interval(p, iv)
    assert (got.lo, got.hi) == (want.lo, want.hi)
    assert isinstance(got.lo, F) and isinstance(got.hi, F)


@settings(max_examples=150, deadline=None)
@given(polys_q, intervals(), st.integers(1, 6))
@example([F(1, 2), F(1, 3)], Interval(F(-3, 4), F(5, 6)), 2)
@example([], Interval(F(1, 3), F(1, 2)), 3)
def test_eval_interval_ignores_zero_high_order_coefficients(p, iv, k):
    # basis rows are padded with zeros to the field degree
    cell = as_cell(iv)
    assert polys.eval_interval(*polys.horner_rows([list(p) + [0] * k]),
                               cell) \
        == polys.eval_interval(*polys.horner_rows([p]), cell)


def test_eval_interval_is_exact_at_a_point():
    p = [F(1, 2), F(-2, 3), 0, 5]
    x = F(-7, 9)
    assert eval_one(p, point(x)) == point(ref_eval_at(p, x))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=12),
       st.integers(-10 ** 9, 10 ** 9), st.integers(0, 70),
       st.integers(1, 10 ** 6))
def test_horner_equals_fraction_horner_on_both_denominator_kinds(
        nums, a, shift, b):
    # a power of two b takes the shift path, any other b the product path
    n = len(nums) - 1
    for den in (1 << shift, b):
        assert polys._horner(nums, a, den) == \
            ref_eval_at(nums, F(a, den)) * den ** n


# ---------------------------------------------------------------------------
# division and resultants, on the one integer pseudo-division `polys._prem`

@settings(max_examples=200, deadline=None)
@given(st.one_of(polys_q, st.lists(st.integers(-40, 40), max_size=9)),
       st.one_of(polys_q, st.lists(st.integers(-40, 40), max_size=9))
       .filter(any))
@example([], [F(1, 2), 3])                          # zero dividend
@example([1, 2], [0, 0, 5])                         # deg a < deg b
@example([F(1, 3), 0, 0, 0, F(-7, 2)], [F(2, 5), F(-3, 4)])
@example([3, 1, 4, 1, 5], [2, 7, -3])               # integers, lc(b) != 1
def test_divmod_poly_equals_fraction_long_division(a, b):
    q, r = polys.divmod_poly(a, b)
    assert (q, r) == ref_divmod_poly(a, b)
    assert all(isinstance(c, F) for c in q + r)


@pytest.mark.parametrize("a, b", [([1, 2, 3], []), ([1, 2], [0, F(0)]),
                                  ([], [0])])
def test_divmod_poly_by_zero_raises(a, b):
    with pytest.raises(ZeroDivisionError):
        polys.divmod_poly(a, b)


def sylvester_resultant(a, b):
    """Res(a, b) as `linalg.det_int` of the Sylvester matrix: 0 when either
    is zero, 1 when both are nonzero constants."""
    a, b = polys.trim(a), polys.trim(b)
    if not a or not b:
        return 0
    m, n = len(a) - 1, len(b) - 1
    if m + n == 0:
        return 1
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return linalg.det_int(rows)


@st.composite
def resultant_pairs(draw):
    """Integer polynomials, with nontrivial contents and sometimes a common
    factor."""
    ints = st.lists(st.integers(-9, 9), max_size=8)
    a = polys.mul(draw(ints), [draw(st.sampled_from([1, 1, -1, 2, 6]))])
    b = polys.mul(draw(ints), [draw(st.sampled_from([1, 1, -1, 4, -15]))])
    if draw(st.booleans()):
        f = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=3))
        a, b = polys.mul(a, f), polys.mul(b, f)
    return a, b


@settings(max_examples=300, deadline=None)
@given(resultant_pairs())
@example(([], [1, 2]))                              # a zero polynomial
@example(([3, 1], [0]))
@example(([5], [-3]))                               # constants
@example(([4], [1, 2, 3]))
@example(([1, 2, 3], [-2]))
@example(([1, 1], [1, 0, 0, 1]))                    # deg a < deg b
@example(([1, 2, 0, 1], [3, 1]))                    # both degrees odd
@example(([3, 1], [1, 2, 0, 1]))
@example(([2, 4, 6], [3, 0, 9, 3]))                 # contents 2 and 3
@example(([1, 0, 0, 0, 0, 0, 1], [2, 0, 0, 3]))     # a degree drop of 2
@example(([7, -3, 0, 5, 2, 3], [-4, 0, 6, 0, 5]))   # lc != 1 all along
def test_resultant_equals_sylvester_determinant(ab):
    a, b = ab
    assert polys.resultant(a, b) == sylvester_resultant(a, b)


def test_resultant_discriminant_equals_the_hankel_discriminant():
    # disc(p) = (-1)^(d(d-1)/2) Res(p, p') for monic p; cyclo_info takes
    # F_k's discriminant as the Hankel determinant of power sums
    for k in range(3, 61):
        ctx = cyclo_info(k).field
        p, d = ctx.poly, ctx.degree
        sign_ = -1 if d * (d - 1) // 2 % 2 else 1
        assert sign_ * polys.resultant(p, polys.diff(p)) == ctx.record.disc, k


def test_table_polynomial_discriminants_are_square_multiples(table):
    # disc(p) = [O_K : Z[t]]^2 disc_K for the defining polynomial p
    for rec in table:
        d = rec.degree
        sign_ = -1 if d * (d - 1) // 2 % 2 else 1
        disc_p = sign_ * polys.resultant(rec.poly, polys.diff(rec.poly))
        q, r = divmod(disc_p, rec.disc)
        assert r == 0 and q > 0 and math.isqrt(q) ** 2 == q, rec.label


# ---------------------------------------------------------------------------
# basis embeddings: one `eval_interval` call per root evaluates every row,
# a row t times an earlier one by one step from that row's value

@st.composite
def basis_rows(draw):
    """Polynomials with `Fraction` coefficients, some padded with zero
    high-order coefficients and some t times an earlier one, not always
    the one before."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.booleans()):
            p = [0] + rows[draw(st.integers(0, len(rows) - 1))]
        else:
            p = draw(polys_q)
        rows.append(list(p) + [0] * draw(st.integers(0, 2)))
    return rows


SHIFTED = [[1, F(1, 2)], [F(2, 3), 0, 5], [0, 1, F(1, 2), 0],
           [0, 0, 1, F(1, 2)]]
# accumulators of either sign and straddling 0 on the intervals below;
# row 2 is t times row 0
MIXED = [[F(1, 2), -3, 2], [-1, 0, 0, 1], [0, F(1, 2), -3, 2],
         [F(-2, 3), 0, 5, 0, -1]]
# a power basis 1, t, ..., t^5: on a cell of one sign `eval_interval` takes
# rows 1 to 5 as running products of the cell's ends
POWERS = [[0] * j + [1] for j in range(6)]


def test_horner_rows_finds_rows_t_times_an_earlier_row():
    # rows 2 and 3 are t and t^2 times row 0; row 2 is not adjacent to it
    assert polys.horner_rows(SHIFTED) == (
        [[6, 3], [4, 0, 30], [0, 6, 3], [0, 0, 6, 3]], [-1, -1, 0, 2], 6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), max_size=6), min_size=1,
                max_size=6), st.data())
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1]], None)     # a power basis
def test_horner_rows_on_integer_rows_equals_the_fraction_path(rows, data):
    # rows t times an earlier row, as on a power basis, where integer rows
    # skip the denominators
    if data is not None:
        for j in range(1, len(rows)):
            if data.draw(st.booleans()):
                rows[j] = [0] + rows[data.draw(st.integers(0, j - 1))]
    got = polys.horner_rows(rows)
    assert got == polys.horner_rows([[F(c) for c in r] for r in rows])
    assert all(type(c) is int for r in got[0] for c in r) and got[2] == 1


def ref_eval_interval_numerators(rows, src, den, iv):
    """`polys.eval_interval` with every step's ends the min and max of all
    four endpoint products, and b^k as products: its integers, not only
    their ratios."""
    b = math.lcm(iv.lo.denominator, iv.hi.denominator)
    a, e = int(iv.lo * b), int(iv.hi * b)
    top = max(map(len, rows), default=0)
    vals = []
    for r, i in zip(rows, src):
        lo, hi, n = vals[i] if i >= 0 else (0, 0, 0)
        for c in reversed(r[:1] if i >= 0 else r):
            ps = (lo * a, lo * e, hi * a, hi * e)
            lo, hi, n = min(ps) + c * b ** n, max(ps) + c * b ** n, n + 1
        vals.append((lo, hi, n))
    return ([lo * b ** (top - n) for lo, _, n in vals],
            [hi * b ** (top - n) for _, hi, n in vals],
            den * b ** max(top - 1, 0))


@settings(max_examples=200, deadline=None)
@given(basis_rows(), intervals())
@example(SHIFTED, Interval(F(-7, 4), F(-5, 4)))              # negative
@example(SHIFTED, Interval(F(-1, 3), F(1, 2)))               # straddles 0
@example(SHIFTED, point(F(-5, 3)))                           # a point
@example([[1], [0, 1], [0, 0, 1], [F(1, 2), 0, F(1, 2)]],
         Interval(F(3, 7), F(5, 9)))
# each sign case of `eval_interval`, over a power of two b (dyadic ends)
# and over any other b
@example(MIXED, Interval(F(3, 8), F(5, 4)))                   # positive
@example(MIXED, Interval(F(-5, 4), F(-3, 8)))                 # negative
@example(MIXED, Interval(F(-3, 8), F(5, 4)))                  # straddles 0
@example(MIXED, Interval(F(2, 7), F(5, 3)))
@example(MIXED, Interval(F(-5, 3), F(-2, 7)))
@example(MIXED, Interval(F(-2, 7), F(5, 3)))
@example(MIXED, Interval(0, F(3, 4)))                         # ends at 0
@example(MIXED, Interval(F(-3, 4), 0))
@example(MIXED, point(0))                                     # exact points
@example(MIXED, point(F(-3, 8)))
@example(MIXED, point(F(5, 3)))
# power runs, over b = 8 and b = 21, on each sign case
@example(POWERS, Interval(F(3, 8), F(5, 4)))                  # positive
@example(POWERS, Interval(F(-5, 4), F(-3, 8)))                # negative
@example(POWERS, Interval(F(2, 7), F(5, 3)))
@example(POWERS, Interval(F(-5, 3), F(-2, 7)))
@example(POWERS, Interval(F(-3, 2), F(-3, 4)))                # ends share 3
@example(POWERS, Interval(F(-3, 8), F(5, 4)))                 # straddles 0
@example(POWERS, point(F(-7, 3)))
@example([[5, -1], [0, 5, -1], [0, 0, 5, -1]],                # from 5 - t
         Interval(F(2, 7), F(5, 3)))
@example([[-2], [0, -2], [0, 0, -2]],                         # from -2: steps
         Interval(F(-5, 4), F(-3, 8)))
def test_eval_interval_equals_per_row_fraction_horner(rows, iv):
    lows, highs, den = polys.eval_interval(*polys.horner_rows(rows),
                                           as_cell(iv))
    got = as_intervals([(lows, highs, den)])[0]
    assert got == [ref_eval_interval(p, iv) for p in rows]
    assert (lows, highs, den) == \
        ref_eval_interval_numerators(*polys.horner_rows(rows), iv)


def ref_fixed_point_ends(emb, bits):
    """The ends of `FieldContext.fixed_point_table` from `Fraction` interval
    rows: lo and hi rounded outward to 2^-bits, by basis column."""
    lows = [[math.floor(row[j].lo * 2 ** bits) for row in emb]
            for j in range(len(emb))]
    highs = [[math.ceil(row[j].hi * 2 ** bits) for row in emb]
             for j in range(len(emb))]
    return lows, highs


@st.composite
def numerator_rows(draw):
    """(rows, bits): `Numerators` rows over denominators that are powers of
    two at or above 2^bits, powers of two below it, or not powers of two,
    with numerators of either sign up to about 1,500 bits."""
    bits = draw(st.sampled_from([0, 1, 5, 32, 64]))
    dens = st.one_of(st.integers(0, 1500).map(lambda t: 1 << bits + t),
                     st.integers(0, bits).map(lambda t: 1 << t),
                     st.integers(3, 1 << 80).filter(lambda d: d & (d - 1)))
    nums = st.lists(st.integers(-(1 << 1500), 1 << 1500), max_size=4)
    rows = draw(st.lists(st.tuples(nums, nums, dens), max_size=4))
    return rows, bits


@settings(max_examples=200, deadline=None)
@given(numerator_rows())
@example(([([-3, 3, -(1 << 40)], [-3, 3, 1 << 40], 1 << 34)], 32))
@example(([([-3, 5], [-3, 5], 1 << 32)], 32))        # den = 2^bits
@example(([([-3, 5], [-3, 5], 4)], 32))               # den < 2^bits
@example(([([-3, 5], [-3, 5], 3 << 40)], 32))         # not a power of two
def test_fixed_point_ends_equal_floor_division(data):
    rows, bits = data
    los, his = fixed_point_ends(rows, bits)
    assert los == [[math.floor(F(x, den) * 2 ** bits) for x in lows]
                   for lows, _, den in rows]
    assert his == [[math.ceil(F(x, den) * 2 ** bits) for x in highs]
                   for _, highs, den in rows]


def test_basis_embeddings_equal_per_row_fraction_horner(table):
    # all 19 table fields and F_k, k = 3..60 (degrees up to 29), at the
    # isolation width, at 2^-32 (that of `fixed_point_table`) and at 2^-64
    fields = [load_field(rec) for rec in table.records] + \
        [cyclo_info(k).field for k in range(3, 61)]
    assert len(fields) == 19 + 58
    powers = 0
    for ctx in fields:
        if ctx.basis_pow == [[int(i == j) for j in range(ctx.degree)]
                             for i in range(ctx.degree)]:
            powers += 1
            assert polys.horner_rows(ctx.basis_pow)[1] == \
                list(range(-1, ctx.degree - 1))
        for width in (None, F(1, 1 << 32), F(1, 1 << 64)):
            if width is not None:
                ctx.refine_roots(width)
            # zero high-order coefficients leave the reference's
            # accumulator at 0; trimming them only saves time
            want = [[ref_eval_interval(polys.trim(p), root)
                     for p in ctx.basis_pow] for root in root_intervals(ctx)]
            assert as_intervals(ctx.basis_embeddings()) == want, ctx
            if width == F(1, 1 << 32):
                assert ctx.fixed_point_table()[:2] == \
                    ref_fixed_point_ends(want, ctx.INT_BITS)
    assert powers >= 58


def test_basis_embeddings_equal_four_product_numerators(table):
    # the integers themselves, from which every fixed-point table, verified
    # inverse and box is built, on all 19 table fields and F_k, k = 3..60
    # (power bases, evaluated by running products on cells of one sign):
    # at the isolation width, where some roots straddle 0, and at 1/256,
    # 2^-32 and 2^-64, where every root has ends over a power of two
    fields = [load_field(rec) for rec in table.records] + \
        [cyclo_info(k).field for k in range(3, 61)]
    straddle = 0
    for ctx in fields:
        rows = polys.horner_rows(ctx.basis_pow)
        straddle += sum(iv.lo < 0 < iv.hi for iv in root_intervals(ctx))
        for width in (None, F(1, 256), F(1, 1 << 32), F(1, 1 << 64)):
            if width is not None:
                ctx.refine_roots(width)
            assert ctx.basis_embeddings() == [
                ref_eval_interval_numerators(*rows, root)
                for root in root_intervals(ctx)], ctx
        assert all(math.lcm(iv.lo.denominator, iv.hi.denominator)
                   .bit_count() == 1 for iv in root_intervals(ctx)), ctx
    assert straddle > 0


# ---------------------------------------------------------------------------
# root bisection

@st.composite
def isolated_roots(draw):
    """(p, iv) where p = c * (x - r) * (x^2 + s) has the one real root r,
    strictly inside iv, and iv's endpoints have different denominators."""
    r = draw(rationals)
    s = draw(st.integers(1, 9))
    c = draw(st.sampled_from([1, -1, F(1, 2), F(-3, 5), 7]))
    p = polys.mul(polys.mul([-r, 1], [s, 0, 1]), [c])
    below = draw(st.fractions(min_value=F(1, 40), max_value=4,
                              max_denominator=40))
    above = draw(st.fractions(min_value=F(1, 40), max_value=4,
                              max_denominator=40))
    return p, Interval(r - below, r + above)


def refine(p, iv, max_width):
    """`polys.refine_root` from the cell of iv, as an `Interval`."""
    return cell_interval(polys.refine_root(polys.primitive_int(p),
                                           as_cell(iv), max_width))


@settings(max_examples=150, deadline=None)
@given(isolated_roots(), st.integers(0, 48))
def test_refine_root_equals_fraction_bisection(case, bits):
    p, iv = case
    width = F(1, 1 << bits)
    assert refine(p, iv, width) == ref_refine_root(p, iv, width)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.data())
def test_refine_root_stops_on_exact_midpoint_root(depth, data):
    # a dyadic root of [0, 1] is hit exactly by some bisection midpoint
    num = data.draw(st.integers(0, (1 << (depth - 1)) - 1))
    r = F(2 * num + 1, 1 << depth)
    p = polys.mul(polys.mul([-r, 1], [2, 0, 1]), [F(1, 3)])
    iv = Interval(F(0), F(1))
    got = refine(p, iv, F(1, 1 << 20))
    assert got == ref_refine_root(p, iv, F(1, 1 << 20)) == point(r)


def test_refine_root_width_bound_not_a_power_of_two():
    p = [-2, 0, 1]
    iv = Interval(F(4, 3), F(3, 2))
    for width in (F(1, 3), F(2, 7), F(1, 1000), 1):
        assert refine(p, iv, width) == ref_refine_root(p, iv, width)


def test_refine_root_rejects_non_isolating_intervals():
    p = [-2, 0, 1]
    for iv in (Interval(F(0), F(1)), Interval(F(-2), F(2)),
               Interval(F(2), F(3))):
        with pytest.raises(ValueError):
            polys.refine_root(p, as_cell(iv), F(1, 8))
        with pytest.raises(ValueError):
            ref_refine_root(p, iv, F(1, 8))


def test_refine_root_point_interval_is_returned():
    cell = polys.RootCell(3, 3, 2, 0, 0)
    assert polys.refine_root([-3, 2], cell, F(1, 8)) is cell


@settings(max_examples=100, deadline=None)
@given(isolated_roots(), st.integers(0, 48))
def test_ref_bisect_equals_the_fraction_reference(case, bits):
    p, iv = case
    width = F(1, 1 << bits)
    assert ref_bisect(p, iv, width) == ref_refine_root(p, iv, width)


@lru_cache(maxsize=None)
def isolating_intervals():
    """(p, isolating cell) per root, as freshly loaded contexts hold them,
    with the values isolation computed: of the 19 table fields, and of
    F_k, k = 3..60.  Each p is monic, so primitive as `refine_root` takes
    it."""
    table = [load_field(rec) for rec in
             ingest_fields(FIELDS / "quartic_sqrt2.jsonl").records]
    cyclo = [cyclo_info(k).field for k in range(3, 61)]
    assert len(table) == 19
    return tuple(tuple((tuple(ctx.poly), c) for ctx in ctxs
                       for c in ctx._state.cells) for ctxs in (table, cyclo))


@pytest.mark.parametrize("width", [F(1, 1 << 32), F(1, 1 << 64),
                                   F(1, 1 << 200), F(3, 10 ** 15)])
def test_refine_root_equals_bisection_on_every_field_root(width):
    table, cyclo = isolating_intervals()
    roots = table + cyclo
    assert (len(table), len(cyclo)) == (76, 550)
    for p, c in roots:
        iv = cell_interval(c)
        assert cell_interval(polys.refine_root(p, c, width)) == \
            ref_bisect(p, iv, width), (p, iv)
    if width == F(1, 1 << 32):
        for p, c in roots:
            assert cell_interval(polys.refine_root(p, c, width)) == \
                ref_refine_root(p, cell_interval(c), width)


@st.composite
def clustered_roots(draw):
    """c * prod (x - r_i) * q, q = 1 or a quadratic with no real root,
    with the real roots r_i in a cluster: gaps down to 10^-12, and one
    root perhaps far off.  A secant across an isolating interval then
    points far from the root, out of the cell that holds it."""
    r = draw(rationals)
    roots = [r]
    for gap in draw(st.lists(st.fractions(min_value=F(1, 10 ** 12),
                                          max_value=F(1, 10),
                                          max_denominator=10 ** 12),
                             min_size=1, max_size=5)):
        roots.append(roots[-1] + gap)
    if draw(st.booleans()):
        roots.append(roots[0] - draw(st.integers(5, 50)))
    p = [draw(st.sampled_from([1, -1, F(2, 3), -7]))]
    for x in roots:
        p = polys.mul(p, [-x, 1])
    if draw(st.booleans()):
        p = polys.mul(p, [draw(st.integers(2, 9)), draw(st.integers(-2, 2)),
                          1])
    return p


# no shrink phase: a failing example of clustered roots takes minutes to
# shrink and reads as well unshrunk
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(clustered_roots(),
       st.one_of(st.integers(1, 200).map(lambda b: F(1, 1 << b)),
                 st.fractions(min_value=F(1, 10 ** 40), max_value=1,
                              max_denominator=10 ** 40)))
def test_refine_root_on_clustered_roots_equals_fraction_bisection(p, width):
    assume(width > 0)
    nums = polys.primitive_int(p)
    for c in isolate(p):
        assert cell_interval(polys.refine_root(nums, c, width)) == \
            ref_refine_root(p, cell_interval(c), width), c


def test_refine_root_takes_few_horner_evaluations(monkeypatch):
    # bisection takes one evaluation of p per bit, about 33 per root of the
    # k = 3..60 sweep at 2^-32; the secant proposals take about 11
    roots = isolating_intervals()[1]
    calls = 0
    horner = polys._horner

    def counted(*args):
        nonlocal calls
        calls += 1
        return horner(*args)

    monkeypatch.setattr(polys, "_horner", counted)
    for p, c in roots:
        polys.refine_root(p, c, F(1, 1 << 32))
    assert len(roots) == 550 and calls <= 12 * len(roots)


def assert_values_carried(p, cell):
    """Every value the cell carries is a fresh Horner value of the
    primitive p at the cell's own denominator."""
    nums = polys.primitive_int(p)
    for x, f in ((cell.a, cell.fa), (cell.e, cell.fe)):
        assert f is None or f == polys._horner(nums, x, cell.b), (p, cell)


def test_resumed_refinement_equals_refinement_from_the_isolating_cell():
    # on every root of the 19 table fields and of F_k, k = 3..60: a cell
    # refined from where an earlier request left it, along 1/256 -> 2^-32
    # -> 2^-64, is the cell that refining the isolating cell gives at each
    # width, and carries the true values at its ends
    table, cyclo = isolating_intervals()
    for p, cell in table + cyclo:
        assert_values_carried(p, cell)
        step = cell
        for width in (F(1, 256), F(1, 1 << 32), F(1, 1 << 64)):
            direct = polys.refine_root(p, cell, width)
            step = polys.refine_root(p, step, width)
            assert cell_interval(step) == cell_interval(direct), \
                (p, cell, width)
            for c in (step, direct):
                assert None not in (c.fa, c.fe)
                assert_values_carried(p, c)


def test_root_cells_spare_horner_evaluations(monkeypatch):
    # over the 550 roots of F_k, k = 3..60, as `polys._horner` calls:
    # refinement reads the values isolation computed (3,839 evaluations to
    # 1/256 and 6,289 to 2^-32 when it took them afresh), and a request
    # narrower than an earlier one resumes from the cell and the secant
    # step that one reached (9,504 through 1/256 to 2^-32 when it started
    # again from the isolating interval)
    records = [cyclo_info(k).field.record for k in range(3, 61)]
    calls = 0
    horner = polys._horner

    def counted(*args):
        nonlocal calls
        calls += 1
        return horner(*args)

    def refined(widths):
        nonlocal calls
        ctxs = [load_field(rec) for rec in records]
        calls = 0
        for ctx in ctxs:
            for width in widths:
                ctx.refine_roots(width)
        return calls

    monkeypatch.setattr(polys, "_horner", counted)
    ctxs = [load_field(rec) for rec in records]
    assert sum(ctx.degree for ctx in ctxs) == 550 and calls == 1954
    assert refined([F(1, 256)]) <= 2739
    assert refined([F(1, 256), F(1, 1 << 32)]) <= 5893
    assert refined([F(1, 1 << 32)]) <= 5189


def test_cyclotomic_sweep_work_counts(monkeypatch):
    # one `alpha_beta_verify` per k = 3..60 on fresh contexts, a round of
    # the `cyclo` benchmark: the chain evaluations of isolation, one
    # basis-embedding evaluation and one refinement per root, and the
    # Horner runs, all counted by wrapping, are pinned, so that a faster
    # kernel cannot come from doing less work
    counts = dict.fromkeys(
        ("_sturm_signs", "eval_interval", "refine_root", "_horner"), 0)
    for name in counts:
        def counted(*args, f=getattr(polys, name), name=name, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(polys, name, counted)
    for k in range(3, 61):
        alpha_beta_verify(k)
    assert counts == {"_sturm_signs": 919, "eval_interval": 550,
                      "refine_root": 550, "_horner": 4693}


# ---------------------------------------------------------------------------
# root isolation

def squarefree(p):
    return polys.degree(gcd_poly(p, polys.diff(p))) == 0


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after `seconds`: a bisection whose
    counts are wrong never reaches single roots, and must fail, not hang."""
    def expire(signum, frame):
        raise TimeoutError(f"isolation did not finish in {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def isolate(p):
    """`polys.isolate_real_roots(p)` under a time limit of 5 s, some 30
    times the slowest isolation of these tests (0.16 s): hypothesis replays
    a timed-out example many times while it shrinks, so the limit bounds
    how long a wrong count takes to fail."""
    with time_limit(5):
        return polys.isolate_real_roots(p)


def assert_same_isolation(p):
    """The isolation of p as `Interval`s, once it equals the reference's
    and every value its cells carry is a fresh Horner value of the
    primitive p at the cell's own denominator."""
    cells = isolate(p)
    got = [cell_interval(c) for c in cells]
    want = ref_isolate_real_roots(p)
    assert [(iv.lo, iv.hi) for iv in got] == [(iv.lo, iv.hi) for iv in want]
    for c in cells:
        assert_values_carried(p, c)
    return got


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=8),
       st.sampled_from([1, -1, 2, -3, 5]))
@example([-2], 1)                                   # x^2 - 2
@example([0, -1, 0], 1)                             # x(x - 1)(x + 1)
@example([6, -5], 1)                                # (x - 2)(x - 3)
def test_isolate_real_roots_equals_fraction_bisection(low, lead):
    p = low + [lead]
    assume(squarefree(p))
    assert_same_isolation(p)


@st.composite
def rational_products(draw):
    """c * prod (x - r_i) * q for distinct rationals r_i and q = 1 or a
    positive quadratic; the first midpoints often hit a root exactly."""
    roots = draw(st.lists(st.fractions(min_value=-12, max_value=12,
                                       max_denominator=6),
                          min_size=1, max_size=7, unique=True))
    p = [draw(st.sampled_from([1, -2, F(1, 3)]))]
    for r in roots:
        p = polys.mul(p, [-r, 1])
    if draw(st.booleans()):
        p = polys.mul(p, [draw(st.integers(1, 9)), 0, 1])
    return p


@settings(max_examples=150, deadline=None)
@given(rational_products())
@example([0, 1])                                     # x: root at midpoint 0
@example(polys.mul([1, 1], polys.mul([-1, 1], [0, 1])))
def test_isolate_real_roots_with_exact_rational_roots(p):
    got = assert_same_isolation(p)
    for iv in got:
        if iv.lo == iv.hi:
            assert ref_eval_at(p, iv.lo) == 0
        else:
            assert ref_eval_at(p, iv.lo) * ref_eval_at(p, iv.hi) < 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fractions(min_value=-300, max_value=300,
                             max_denominator=40), min_size=1, max_size=6,
                unique=True),
       st.integers(0, 5000), st.sampled_from([1, -3, F(2, 7)]))
@example([F(-1, 3)], 0, 1)                          # |root| < 1: r = 0
@example([F(8)], 0, 1)                              # the root 8 = 2^3
def test_root_bound_log2_bounds_every_root(roots, s, c):
    # real roots r_i and, for s > 0, the complex roots +-i sqrt(s) of
    # x^2 + s: Fujiwara's bound holds for all of them, and the isolation
    # that skips the chain beyond it still equals the reference
    p = [c]
    for x in roots:
        p = polys.mul(p, [-x, 1])
    if s:
        p = polys.mul(p, [s, 0, 1])
    r = polys._root_bound_log2(polys.primitive_int(p))
    assert max(map(abs, roots)) <= 1 << r and s <= 1 << 2 * r
    assert_same_isolation(p)


@pytest.mark.parametrize("p, n", [
    # roots -1, 0, 1 and the bound 2: the first midpoint is the root 0, and
    # a quarter of the width around it isolates it at once
    (polys.mul([0, 1], [-1, 0, 1]), 3),
    # roots 0 and +-1/1000 inside the bound 1 + 10^-6: the first midpoint
    # is the root 0, and the gap around it is halved nine times
    (polys.mul([0, 1], [-1, 0, 10 ** 6]), 3),
    # roots 1 and 1 +- 1/1000, and -s with s = (8 - 10^-6)/(3 - 10^-6) so
    # that the bound is 8: the fourth midpoint is the root 1, and the gap
    # around it is halved nine times
    (polys.mul(polys.mul([-1, 1], [1 - F(1, 10 ** 6), -2, 1]),
               [(8 - F(1, 10 ** 6)) / (3 - F(1, 10 ** 6)), 1]), 4),
])
def test_isolate_real_roots_reaches_the_exact_root_branch(p, n):
    got = assert_same_isolation(p)
    assert any(iv.lo == iv.hi for iv in got) and len(got) == n


def test_isolate_real_roots_on_cosine_minimal_polynomials():
    for k in range(3, 121):
        p = polys.cos_minpoly(k)
        got = assert_same_isolation(p)
        assert len(got) == polys.degree(p)


def chain_signs(chain, steps, a, b):
    """(sign of chain[0], variations) from `polys._sturm_signs`, once the
    value it gives is Horner's on chain[0] at a/b."""
    value, variations = polys._sturm_signs(chain, steps, a, b)
    assert value == polys._horner(chain[0], a, b)
    return sign(value), variations


def ref_chain_signs(chain, a, b):
    """(sign of chain[0], variations) from every member by `ref_sign_at`."""
    signs = [ref_sign_at(q, a, b) for q in chain]
    nonzero = [t for t in signs if t]
    return signs[0], sum(1 for u, v in zip(nonzero, nonzero[1:]) if u != v)


def chain_roots(chain):
    """(a, b) for the rational roots a/b of chain members of degree 1 or 2
    and for their neighbours at 1/(2b)."""
    out = []
    for q in chain:
        if len(q) == 2:
            a, b = -q[0], q[1]
            out.append((a, b) if b > 0 else (-a, -b))
        elif len(q) == 3:
            disc = q[1] ** 2 - 4 * q[0] * q[2]
            r = math.isqrt(disc) if disc >= 0 else -1
            if r * r == disc:
                for t in (r, -r):
                    a, b = -q[1] + t, 2 * q[2]
                    out.append((a, b) if b > 0 else (-a, -b))
    return out + [(2 * a + 1, 2 * b) for a, b in out]


@st.composite
def chain_inputs(draw):
    """(p, points): an integer polynomial, often with up to four rational
    roots a/b of its own (repeated ones too), and points a/b with b a
    power of two or not, those roots among them."""
    p = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=7))
    dens = st.one_of(st.integers(1, 40),
                     st.integers(0, 9).map(lambda t: 1 << t))
    points = draw(st.lists(st.tuples(st.integers(-300, 300), dens),
                           max_size=6))
    for a, b in draw(st.lists(st.tuples(st.integers(-9, 9), dens),
                              max_size=4)):
        p = polys.mul(p, [-a, b])
        points.append((a, b))
    return p, points


@settings(max_examples=200, deadline=None)
@given(chain_inputs())
@example(([0, -1, 0, 0, 0, 1], [(1, 2)]))      # x^5 - x: degrees 5, 4, 1, 0
@example(([-2, 0, 0, 0, 1], [(5, 4)]))         # x^4 - 2: degrees 4, 3, 0
@example(([1, 0, -2, 0, 1], []))               # (x^2 - 1)^2: ends in x^2 - 1
@example(([0, 0, 1], [(0, 1)]))                # x^2 at its double root
def test_sturm_recurrence_equals_per_member_signs(data):
    p, points = data
    p = polys.trim(p)
    assume(polys.degree(p) >= 1)
    sturm = polys._sturm(p)
    chain = sturm[0]
    assert chain == polys.sturm_chain(p) and len(sturm[1]) == len(chain) - 2
    for a, b in points + chain_roots(chain) + [(0, 1), (1, 1), (-1, 1)]:
        assert chain_signs(*sturm, a, b) == ref_chain_signs(chain, a, b), \
            (p, a, b)


@pytest.mark.parametrize("p, degrees", [
    ([0, -1, 0, 0, 0, 1], [5, 4, 1, 0]),             # x^5 - x
    ([-3, 0, 0, 0, 0, 0, 1], [6, 5, 0]),              # x^6 - 3
    ([1, 0, -3, 0, 0, 0, 0, 1], [7, 6, 2, 1, 0]),     # x^7 - 3x^2 + 1
    ([4, 0, 0, -5, 0, 0, 1], [6, 5, 3, 2, 0]),        # (x^3 - 1)(x^3 - 4)
])
def test_sturm_recurrence_on_non_normal_chains(p, degrees):
    # degrees falling by more than 1 give quotients of degree > 1 and
    # powers b^e with e > 2; every point of a grid, the chain members'
    # rational roots among them, has the signs of every member
    chain, steps = polys._sturm(p)
    assert [len(q) - 1 for q in chain] == degrees
    assert any(len(qn) > 2 or e > 2 for qn, _, e, _ in steps)
    for b in (1, 2, 3, 4, 7, 16):
        for a in range(-3 * b, 3 * b + 1):
            assert chain_signs(chain, steps, a, b) == \
                ref_chain_signs(chain, a, b), (p, a, b)


def test_sturm_signs_take_two_horner_runs_per_point(monkeypatch):
    # cos_minpoly(59) has degree 29 and a normal chain of 30 members; per
    # point, Horner on every member took 30 runs, the recurrence takes 2
    p = polys.cos_minpoly(59)
    chain, steps = polys._sturm(p)
    assert len(chain) == 30 and all(len(qn) == 2 for qn, _, _, _ in steps)
    counts = {"_horner": 0, "_sturm_signs": 0}
    for name in counts:
        def counted(*args, f=getattr(polys, name), name=name):
            counts[name] += 1
            return f(*args)
        monkeypatch.setattr(polys, name, counted)
    assert len(isolate(p)) == 29
    # the bisection's points are unchanged: 43 evaluations
    assert counts["_sturm_signs"] == 43
    assert counts["_horner"] <= 2 * 43 + 2


@pytest.mark.parametrize("p", [
    [1, -2, 1],                                       # (x - 1)^2
    polys.mul([-2, 0, 1], [-2, 0, 1]),                # (x^2 - 2)^2
    polys.mul([1, 0, 1], polys.mul([3, 1], [3, 1])),  # (x^2 + 1)(x + 3)^2
    polys.mul([0, 1], [0, 0, 1]),                     # x^3
])
def test_isolate_real_roots_rejects_repeated_roots(p):
    with pytest.raises(ValueError, match="squarefree"):
        isolate(p)
    with pytest.raises(ValueError):
        ref_isolate_real_roots(p)


def test_cyclotomic_equals_fraction_division():
    for k in range(1, 201):
        assert polys.cyclotomic(k) == list(ref_cyclotomic(k)), k


# ---------------------------------------------------------------------------
# determinants

matrix_entries = st.one_of(st.integers(-9, 9),
                           st.fractions(min_value=-9, max_value=9,
                                        max_denominator=6))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 6))
    a = [[draw(matrix_entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["any", "zero_pivot", "dependent_row",
                                  "zero_column", "symmetric"]))
    if shape == "symmetric":
        a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if draw(st.booleans()):
            a[0][0] = 0
    elif shape == "zero_pivot":
        a[0][0] = 0
    elif shape == "dependent_row" and n > 1:
        c = draw(matrix_entries)
        a[n - 1] = [c * x for x in a[0]]
    elif shape == "zero_column":
        for row in a:
            row[0] = 0
    return a


@settings(max_examples=150, deadline=None)
@given(matrices())
@example([])
@example([[0, 1], [1, 0]])
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
@example([[F(1, 2), 1], [1, 2]])
@example([[0, F(1, 2), 1], [0, 3, F(-2, 3)], [F(5, 4), 1, 1]])
@example([[F(1, 2), F(1, 3)], [F(3, 2), 1]])
def test_det_equals_fraction_bareiss(a):
    got = linalg.det(a)
    assert isinstance(got, F)
    assert got == ref_det(a)


def test_det_keeps_a_symmetric_matrix_symmetric(monkeypatch):
    # one common denominator for every entry, so a symmetric matrix whose
    # rows have unequal denominators reaches `_bareiss`'s symmetric pass
    seen, det_int = [], linalg.det_int
    monkeypatch.setattr(linalg, "det_int",
                        lambda m: seen.append(m) or det_int(m))
    assert linalg.det([[F(1, 2), 1], [1, 2]]) == 0
    assert linalg.det([[F(1, 2), F(1, 3)], [F(1, 3), 3]]) == F(25, 18)
    assert seen == [[[1, 2], [2, 4]], [[3, 2], [2, 18]]]


def test_det_of_singular_matrices_is_zero():
    assert linalg.det([[0, 0], [0, 5]]) == 0
    assert linalg.det([[F(1, 2), 1], [1, 2]]) == 0
    assert linalg.det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


# ---------------------------------------------------------------------------
# verified interval inverse: every returned entry must contain the exact
# inverse of every point matrix of the input, whatever approximate inverse
# R it certifies; row i comes as integer endpoint numerators (lows, highs)
# over a power of two

def entry(inv, i, j):
    lows, highs, den = inv[i]
    assert den > 0 and den & (den - 1) == 0
    return Interval(F(lows[j], den), F(highs[j], den))


def verified_inverse(rows):
    """The verified inverse of rows from their Bareiss midpoint inverse."""
    return linalg.interval_inverse(linalg.midpoint_inverse(rows))


def certified(rows, r):
    """The verified inverse of rows from any integer approximate inverse r."""
    mids, rads = linalg._midrad(rows)
    rabs = [[abs(x) for x in row] for row in r]
    return linalg.interval_inverse(linalg.ApproximateInverse(
        r, rabs, linalg.transpose(rabs), linalg.transpose(mids),
        linalg.transpose(rads)))


def assert_encloses(inv, e):
    exact = linalg.inverse(e)
    assert exact is not None
    assert len(inv) == len(exact)
    for i, exact_row in enumerate(exact):
        assert len(inv[i][0]) == len(inv[i][1]) == len(exact_row)
        for j, x in enumerate(exact_row):
            iv = entry(inv, i, j)
            assert iv.lo <= x <= iv.hi


def sample_points(a, rng, count):
    """The two extreme corners, random corners and random interior rational
    points of the interval matrix a."""
    yield [[iv.lo for iv in row] for row in a]
    yield [[iv.hi for iv in row] for row in a]
    for _ in range(count):
        yield [[rng.choice((iv.lo, iv.hi)) for iv in row] for row in a]
        yield [[iv.lo + (iv.hi - iv.lo) * F(rng.randrange(65), 64)
                for iv in row] for row in a]


def degree_8_field():
    return cyclo_info(32).field


@pytest.mark.parametrize("make", [
    lambda table: load_field(table.by_label("K2048")),
    lambda table: load_field(table.by_label("K51200")),
    lambda table: degree_8_field()], ids=["K2048", "K51200", "F32"])
@pytest.mark.parametrize("width", [F(1, 64), F(1, 256)])
def test_interval_inverse_encloses_inverses_of_basis_embeddings(table, make,
                                                                width):
    ctx = make(table)
    ctx.refine_roots(width)
    emb = ctx.basis_embeddings()
    approx = ctx.embedding_inverse()[0]
    inv = linalg.interval_inverse(approx)
    assert inv == verified_inverse(emb)
    if ctx.degree == 8 and width == F(1, 64):
        # the degree-8 embeddings are too wide at 1/64 for beta < 1
        assert inv is None
        return
    assert inv is not None
    # R off the midpoint inverse by about 2^-30 relative still certifies
    rng = random.Random(7)
    off = certified(emb, [[x + (x >> 30) * rng.randint(-1, 1) for x in row]
                          for row in approx.r])
    assert off is not None and off != inv
    for e in sample_points(as_intervals(emb), random.Random(7), 6):
        assert_encloses(inv, e)
        assert_encloses(off, e)


@st.composite
def interval_matrices(draw):
    """A nonsingular rational point matrix widened by a random radius
    pattern; radii up to 1/5 make the Neumann term of the enclosure matter
    on entries of size 1."""
    n = draw(st.integers(1, 4))
    a = [[draw(matrix_entries) for _ in range(n)] for _ in range(n)]
    if linalg.det(a) == 0:
        # diagonally dominant, hence nonsingular
        a = [[x + 40 * (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(a)]
    eps = draw(st.sampled_from([F(0), F(1, 1000), F(1, 50), F(1, 5)]))
    rads = [[eps * draw(st.integers(0, 4)) / 4 for _ in range(n)]
            for _ in range(n)]
    return [[Interval(F(x) - r, F(x) + r) for x, r in zip(row, rrow)]
            for row, rrow in zip(a, rads)]


@settings(max_examples=150, deadline=None)
@given(interval_matrices(), st.integers(0, 2 ** 32))
@example([[Interval(F(1, 2), F(3, 2))]], 0)
@example([[Interval(F(2), F(3)), Interval(F(-1, 2), F(1, 2))],
          [Interval(F(0), F(1, 3)), Interval(F(1), F(2))]], 0)
def test_interval_inverse_encloses_random_rational_matrices(a, seed):
    # the certificate holds for any R: the Bareiss midpoint inverse, and
    # that inverse perturbed by up to 2^-20 or 2^-8 per entry
    rows = numerators(a)
    rng = random.Random(seed)
    approx = linalg.midpoint_inverse(rows)
    rs = [] if approx is None else [approx.r] + [
        [[x + rng.randint(-(1 << b), 1 << b) for x in row] for row in approx.r]
        for b in (45, 57)]
    for r in rs:
        inv = certified(rows, r)
        if inv is None:
            continue
        for e in sample_points(a, random.Random(seed), 4):
            assert_encloses(inv, e)


def test_interval_inverse_neumann_term_is_needed():
    # [1/2, 3/2]: the midpoint inverse 1 plus the first-order term G |R| =
    # 1/2 misses 1/(1/2) = 2; the Neumann term makes the enclosure [0, 2]
    inv = verified_inverse(numerators([[Interval(F(1, 2), F(3, 2))]]))
    assert inv is not None
    assert entry(inv, 0, 0).lo <= F(2, 3) and entry(inv, 0, 0).hi >= 2
    # a diagonal matrix: each entry is the scalar case
    d = [[Interval(F(1, 2), F(3, 2)), point(0)],
         [point(0), Interval(F(3), F(5))]]
    inv = verified_inverse(numerators(d))
    assert entry(inv, 0, 0).hi >= 2 and entry(inv, 1, 1).hi >= F(1, 3)


@pytest.mark.parametrize("a", [
    [[point(1), point(2)],
     [point(2), point(4)]],
    [[Interval(F(999, 1000), F(1001, 1000)), point(2)],
     [point(2), Interval(F(3999, 1000), F(4001, 1000))]],
    [[point(0)]],
], ids=["singular-point", "singular-midpoint", "zero"])
def test_interval_inverse_rejects_a_singular_midpoint(a):
    assert linalg.midpoint_inverse(numerators(a)) is None
    assert verified_inverse(numerators(a)) is None


@pytest.mark.parametrize("a", [
    # beta = 1 exactly: the interval holds the singular matrix 0
    [[Interval(F(0), F(2))]],
    # beta = 3/2 although the interval [-1/2, 5/2] ...
    [[Interval(F(-1, 2), F(5, 2))]],
    # identity with every entry widened by 1/2: row sums of G are 1, 3/2
    [[Interval(F(1, 2), F(3, 2)), Interval(F(-1, 2), F(1, 2))],
     [Interval(F(-1, 2), F(1, 2)), Interval(F(1, 2), F(3, 2))]],
], ids=["beta-1", "beta-3/2", "widened-identity"])
def test_interval_inverse_rejects_radius_with_beta_at_least_one(a):
    assert verified_inverse(numerators(a)) is None
