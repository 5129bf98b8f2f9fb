"""An oracle for dominated-element lists that shares no code with them.

The certified enumeration builds its box from interval enclosures of the
embeddings and decides each candidate with `FieldContext.compare`.  The
oracle below uses only the multiplication table and exact integers:

- Box.  With Q the trace form, Q[j][k] = Tr(b_j b_k), every solution omega
  satisfies Tr(omega^2) = omega^T Q omega <= T, where T = Tr(beta) when
  omega^2 <= beta and T = Tr(beta^2) when 0 <= omega <= beta (then
  sigma(omega)^2 <= sigma(beta)^2 in every embedding).  On that ellipsoid
  |omega_j| <= sqrt(T * (Q^-1)[j][j]), computed exactly over Fractions.
- Decision.  x is totally nonnegative exactly when every elementary
  symmetric function e_k of its conjugates is >= 0 (all conjugates are
  real).  The e_k come from the power sums Tr(x^k) by Newton's identities.
"""

from fractions import Fraction as F
from itertools import product
from operator import mul

import pytest

from conftest import ellipsoid_radii, trace_form
from ternlat.cyclotomic import cyclo_info
from ternlat.enumeration import QueryMode, dominated_elements


class Oracle:
    def __init__(self, ctx):
        self.table = ctx.mult_table
        self.d = ctx.degree
        self.tr_basis, self.q = trace_form(self.table)

    def mul(self, x, y):
        out = [0] * self.d
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                for k, t in enumerate(self.table[i][j]):
                    out[k] += a * b * t
        return out

    def trace(self, x):
        return sum(c * t for c, t in zip(x, self.tr_basis))

    def totally_nonnegative(self, x):
        power_sums, xk = [self.trace(x)], x
        for _ in range(self.d - 1):
            xk = self.mul(xk, x)
            power_sums.append(self.trace(xk))
        e = [F(1)]
        for k in range(1, self.d + 1):
            e.append(sum((-1) ** (i - 1) * e[k - i] * power_sums[i - 1]
                         for i in range(1, k + 1)) / k)
        return all(ek >= 0 for ek in e)

    def dominated(self, beta, mode):
        """Sorted coordinates of all omega with omega^2 <= beta (square
        mode) or 0 <= omega <= beta (interval mode)."""
        if mode is QueryMode.SQUARE_DOMINATED:
            t = self.trace(beta)
        else:
            t = self.trace(self.mul(beta, beta))
        out = []
        ranges = [range(-r, r + 1) for r in ellipsoid_radii(self.q, t)]
        for w in product(*ranges):
            if sum(a * sum(map(mul, row, w)) for a, row in zip(w, self.q)) > t:
                continue
            if mode is QueryMode.SQUARE_DOMINATED:
                ok = self.totally_nonnegative(
                    [b - s for b, s in zip(beta, self.mul(w, w))])
            else:
                ok = self.totally_nonnegative(list(w)) and \
                    self.totally_nonnegative([b - c for b, c in zip(beta, w)])
            if ok:
                out.append(tuple(w))
        return sorted(out)


def test_oracle_decides_known_elements(ctx_sqrt2):
    o = Oracle(ctx_sqrt2)
    s = ctx_sqrt2.sqrt2
    assert o.totally_nonnegative(list((2 + s).coords))
    assert not o.totally_nonnegative(list((1 + s).coords))
    assert o.totally_nonnegative([0, 0])
    assert o.dominated(list(ctx_sqrt2.from_rational(3).coords),
                       QueryMode.SQUARE_DOMINATED) == sorted(
        [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])


# (field, bound as an integer plus integral coordinates, mode); the bound 16
# is a square, so +-4 sit on the boundary with bound - omega^2 = 0
CASES = [
    ("K51200", 16, (0, 0, 0, 0), QueryMode.SQUARE_DOMINATED),
    ("K51200", 9, (0, 0, 0, 0), QueryMode.INTERVAL),
    ("K2624", 7, (1, 0, -1, 0), QueryMode.SQUARE_DOMINATED),
    ("K2624", 6, (0, 1, 0, 0), QueryMode.INTERVAL),
    ("K7168", 8, (0, 0, 1, 0), QueryMode.SQUARE_DOMINATED),
    ("K7168", 6, (0, 0, 0, 0), QueryMode.INTERVAL),
]


@pytest.mark.parametrize("label, n, shift, mode", CASES)
def test_quartic_lists_match_the_trace_form_oracle(table, label, n, shift,
                                                   mode):
    ctx = table.context(label)
    bound = ctx.from_rational(n) + ctx.element(shift)
    got = [w.coords for w in dominated_elements(ctx, bound, mode)]
    assert got and got == Oracle(ctx).dominated(list(bound.coords), mode)


@pytest.mark.parametrize("k, n, mode", [
    (7, 9, QueryMode.SQUARE_DOMINATED), (9, 6, QueryMode.INTERVAL),
    (11, 5, QueryMode.SQUARE_DOMINATED), (11, 3, QueryMode.INTERVAL)])
def test_cyclotomic_lists_match_the_trace_form_oracle(k, n, mode):
    ctx = cyclo_info(k).field
    assert ctx.degree in (3, 5)
    bound = ctx.from_rational(n) + ctx.gen
    got = [w.coords for w in dominated_elements(ctx, bound, mode)]
    assert got and got == Oracle(ctx).dominated(list(bound.coords), mode)


@pytest.mark.parametrize("k, n, count", [(32, 3, 5), (40, 6, 33),
                                         (32, 12, 143), (48, 12, 189)])
def test_degree_8_lists_are_pinned_and_rechecked_exactly(k, n, count):
    """omega^2 <= n on F_k = Q(zeta_k)^+, of degree 8.

    The counts 5 and 33 were computed by the interval Gauss-Jordan inverse
    that the verified midpoint-radius inverse replaced, so they do not come
    from the box code under test; 143 and 189 were listed before the box
    iteration projected each level onto the one below it, and pin the
    queries whose prefixes that projection prunes most.  Every listed
    solution is re-checked by the oracle's exact Newton-identity test.  The
    oracle's own enumeration cannot check completeness here: its ellipsoid
    product box holds about 4.4e8 points on F32.
    """
    ctx = cyclo_info(k).field
    assert ctx.degree == 8
    bound = ctx.from_rational(n)
    sols = dominated_elements(ctx, bound)
    assert len(sols) == count
    coords = [w.coords for w in sols]
    assert all(w.den == 1 for w in sols)
    assert sorted(set(coords)) == coords
    assert sorted(tuple(-c for c in w) for w in coords) == coords
    o = Oracle(ctx)
    beta = list(bound.coords)
    for w in coords:
        square = o.mul(list(w), list(w))
        assert o.totally_nonnegative([b - s for b, s in zip(beta, square)])
