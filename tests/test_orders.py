"""Round-2 maximal orders and unit classes (`ternlat.orders`).

Each result is checked against a route that shares no code with the order
arithmetic: closed-form discriminants of biquadratic fields, the power
order of a cyclotomic field, the shipped table, and the trace form built
from `load_field`'s multiplication table alone.  The integer `linalg.lll`
is checked against a `Fraction` LLL kept here, with its own Gram-Schmidt,
and the symmetric pass of `linalg._bareiss` against the elimination that
updates every entry (`conftest.ref_bareiss`) on the trace forms, Hankel
matrices and Gram matrices it meets here.
"""

import importlib.util
import subprocess
import sys
from fractions import Fraction as F
from math import floor, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import ref_bareiss, trace_form
from ternlat import linalg, orders, polys
from ternlat.cyclotomic import cyclo_info
from ternlat.enumeration import sqrt_element
from ternlat.errors import FieldDataError
from ternlat.linalg import det_int
from ternlat.numberfield import FieldRecord, basis_mult_table, load_field
from ternlat.orders import (enlarge_at, field_record, find_units,
                            maximal_order)

ROOT = Path(__file__).resolve().parent.parent
BIQUADRATIC_M = (3, 5, 7, 13, 17)


def quadratic_disc(m):
    """Discriminant of Q(sqrt m), m squarefree."""
    return m if m % 4 == 1 else 4 * m


def biquadratic_poly(m):
    """Minimal polynomial of sqrt2 + sqrtm: x^4 - 2(m+2)x^2 + (m-2)^2."""
    return [(m - 2) ** 2, 0, -2 * (m + 2), 0, 1]


@pytest.mark.parametrize("m", BIQUADRATIC_M)
def test_biquadratic_discriminant_closed_form(m):
    # disc Q(sqrt2, sqrtm) = D(2) D(m) D(2m), the conductor-discriminant
    # formula over the three quadratic subfields
    order = maximal_order(biquadratic_poly(m))
    assert order.disc == 8 * quadratic_disc(m) * quadratic_disc(2 * m)


@pytest.mark.parametrize("k, disc", [(16, 2048), (24, 2304)])
def test_cyclotomic_power_order_is_maximal(k, disc):
    info = cyclo_info(k)
    assert info.field.record.disc == disc
    assert maximal_order(list(info.minpoly_cos)).disc == disc


def test_k7168_basis_is_the_shipped_one(table):
    order = maximal_order([7, 0, -6, 0, 1])
    assert tuple(map(tuple, order.basis)) == table.by_label("K7168").basis


@pytest.mark.parametrize("poly", [biquadratic_poly(m) for m in BIQUADRATIC_M]
                         + [[7, 0, -6, 0, 1], [1, 2, -3, -2, 1]])
def test_trace_form_determinant_is_disc(poly):
    order = maximal_order(poly)
    ctx = load_field(FieldRecord("t", order.d, tuple(poly),
                                 tuple(map(tuple, order.basis)), order.disc))
    _, q = trace_form(ctx.mult_table)
    assert q == order.trace_form
    assert det_int(q) == order.disc


def test_order_rows_in_lowest_terms_and_integral_trace_form():
    # Z[sqrt2] given as rows 2, 2x over 2: stored as 1, x over 1
    order = orders.Order([-2, 0, 1], [[2, 0], [0, 2]], 2)
    assert (order.rows, order.den) == ([[1, 0], [0, 1]], 1)
    assert order.basis == [[1, 0], [0, 1]] and order.disc == 8
    assert order.trace_form == [[2, 0], [0, 4]]
    # 1/2, x/2 span no order: Tr(1/4) = 1/2 is not an integer
    with pytest.raises(RuntimeError, match="not integral"):
        orders.Order([-2, 0, 1], [[1, 0], [0, 1]], 2)


def test_order_builds_its_inverse_and_table_once(monkeypatch):
    # maximal_order calls enlarge_at again on an unchanged order for the
    # next prime; the order's inverse and table, from one
    # `basis_mult_table` call, serve every call
    calls = []

    def counted_table(*args):
        calls.append(args)
        return basis_mult_table(*args)

    order = maximal_order(biquadratic_poly(7))
    monkeypatch.setattr(orders, "basis_mult_table", counted_table)
    assert enlarge_at(order, 2).disc == enlarge_at(order, 2).disc == order.disc
    assert len(calls) == 1
    assert order.tables == basis_mult_table(order.p, order.rows, order.den)


def test_shipped_table_trace_forms_give_its_discs(table):
    for rec in table:
        _, q = trace_form(table.context(rec.label).mult_table)
        assert det_int(q) == rec.disc, rec.label


def test_find_units_k7168(table):
    rec = table.by_label("K7168")
    ctx = load_field(rec)
    gens = find_units(ctx)
    assert len(gens) == 4 and all(g.is_unit() for g in gens)
    assert [g.coords for g in gens] == [c for c, _ in rec.units]
    # independent modulo squares: no nonempty product is a square
    for mask in range(1, 16):
        prod = ctx.one
        for i, g in enumerate(gens):
            if (mask >> i) & 1:
                prod = prod * g
        assert sqrt_element(prod) is None, mask
    made = field_record(rec.poly, "K7168")
    assert made.h_plus // made.h == 2
    # the shipped record but for its pinned tag
    assert made._replace(sqrt2=rec.sqrt2) == rec


@pytest.mark.parametrize("poly, units, h_plus", [
    ((-2, 0, 1), [((3, 2), 1)], None),              # (1 + sqrt2)^2
    ((-2, 0, 1), [((1, 1), 1), ((2, 1), 1)], None),  # N(2 + sqrt2) = 2
    ((-2, 0, 1), [], None),                          # too few
    ((-3, 0, 1), [((2, 1), 1)], 2),                  # 2 + sqrt3 >> 0
])
def test_field_record_checks_supplied_units(poly, units, h_plus):
    # a unit list with a dependent unit or a non-unit is refused, and h+
    # is derived from the signatures of those it accepts
    if h_plus is None:
        with pytest.raises(FieldDataError):
            field_record(poly, "t", units=units)
    else:
        rec = field_record(poly, "t", units=units)
        assert (rec.h, rec.h_plus) == (1, h_plus)
        assert rec.units == (((-1, 0), 1),) + tuple(units)


def test_field_table_script_runs(tmp_path):
    # the builder reproduces the shipped tables byte for byte
    script = ROOT / "scripts" / "build_field_table.py"
    done = subprocess.run([sys.executable, str(script), "--out",
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    shipped = ROOT / "fields"
    names = sorted(f.name for f in shipped.iterdir())
    assert sorted(f.name for f in tmp_path.iterdir()) == names
    for name in names:
        want = (shipped / name).read_bytes()
        assert (tmp_path / name).read_bytes() == want, name


def test_quartic_sweep_is_complete():
    # the builder's sweep, whose range is derived from the discriminant
    # bound, finds every field of a brute-force box wider in a and in b,
    # with twice the norm bound; run at 51200 because a sweep cut to
    # a <= sqrt(N) loses fields there and none at 20000
    spec = importlib.util.spec_from_file_location(
        "build_field_table", ROOT / "scripts" / "build_field_table.py")
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    max_disc = 51200
    deltas = []
    for a in range(1, 81):
        for b in range(-a, a + 1):
            n = a * a - 2 * b * b
            if (0 < n <= 2 * (max_disc // 64)
                    and builder.sqrt_in_zsqrt2(a, b) is None
                    and not any(builder.same_quartic_field((a, b), d)
                                for d in deltas)):
                deltas.append((a, b))
    discs = [maximal_order([a * a - 2 * b * b, 0, -2 * a, 0, 1] if b
                           else biquadratic_poly(a)).disc for a, b in deltas]
    swept = [order.disc for _, order in builder.quartic_sweep(max_disc)]
    assert sorted(swept) == sorted(d for d in discs if d <= max_disc)


# ---------------------------------------------------------------------------
# integer LLL against a `Fraction` reference that shares no code with linalg

def congruent(u, g):
    """U g U^T."""
    return [[sum(x * g[i][j] * y for i, x in enumerate(a) if x
                 for j, y in enumerate(b) if y) for b in u] for a in u]


def fraction_gram_schmidt(g):
    """(mu, bstar) of the basis with Gram matrix g, over Fractions."""
    n = len(g)
    mu = [[F(0)] * n for _ in range(n)]
    bstar = [F(0)] * n
    for i in range(n):
        bstar[i] = F(g[i][i])
        for j in range(i):
            mu[i][j] = F(g[i][j])
            for k in range(j):
                mu[i][j] -= mu[i][k] * mu[j][k] * bstar[k]
            mu[i][j] /= bstar[j]
            bstar[i] -= mu[i][j] ** 2 * bstar[j]
    return mu, bstar


def fraction_lll(g):
    """The LLL that `orders.trace_reduce` ran on `Fraction`s before
    `linalg.lll`: Gram-Schmidt afresh at every step, size reduction by the
    nearest integer with halves up, delta = 3/4."""
    n = len(g)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    k = 1
    while k < n:
        mu, bstar = fraction_gram_schmidt(congruent(u, g))
        for j in range(k - 1, -1, -1):
            q = floor(mu[k][j] + F(1, 2))
            if q:
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if bstar[k] >= (F(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            u[k], u[k - 1] = u[k - 1], u[k]
            k = max(k - 1, 1)
    return u


def check_lll(g):
    """linalg.lll(g) is the reference's U, unimodular, and U g U^T is
    size-reduced and meets the Lovasz condition."""
    u = linalg.lll(g)
    assert u == fraction_lll(g)
    mu, bstar = fraction_gram_schmidt(congruent(u, g))
    # U is integral, so det U = +-1 iff det(U g U^T) = det(g)
    assert prod(bstar) == prod(fraction_gram_schmidt(g)[1])
    n = len(g)
    assert all(abs(mu[i][j]) <= F(1, 2) for i in range(n) for j in range(i))
    assert all(bstar[k] >= (F(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1]
               for k in range(1, n))


def test_lll_on_table_trace_forms(table):
    for rec in table:
        check_lll(trace_form(table.context(rec.label).mult_table)[1])


@pytest.mark.parametrize("k", [16, 24, 32, 40, 48, 56, 60])
def test_lll_on_cyclotomic_hankel_forms(k):
    # the trace form of the power basis: Tr(t^i t^j) = s_(i+j)
    info = cyclo_info(k)
    d = info.field.degree
    s = polys.power_sums(list(info.minpoly_cos), 2 * d - 2)
    check_lll([[int(s[i + j]) for j in range(d)] for i in range(d)])


@st.composite
def nonsingular(draw):
    n = draw(st.integers(1, 6))
    b = [draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
         for _ in range(n)]
    assume(linalg.det_int(b))
    return b


@settings(max_examples=150, deadline=None)
@given(nonsingular())
def test_lll_on_random_gram_matrices(b):
    check_lll([[sum(x * y for x, y in zip(r, s)) for s in b] for r in b])


# ---------------------------------------------------------------------------
# the symmetric pass of `linalg._bareiss`: the same matrix and sign as the
# elimination that updates every entry

def check_bareiss(m):
    got, want = [list(row) for row in m], [list(row) for row in m]
    assert linalg._bareiss(got) == ref_bareiss(want)
    assert got == want


def test_bareiss_on_cyclotomic_hankel_forms():
    for k in range(3, 61):
        pcos = polys.cos_minpoly(k)
        d = len(pcos) - 1
        s = polys.power_sums(pcos, 2 * d - 2)
        check_bareiss([[int(s[i + j]) for j in range(d)] for i in range(d)])


def test_bareiss_on_table_trace_forms(table):
    for rec in table:
        check_bareiss(trace_form(table.context(rec.label).mult_table)[1])


@settings(max_examples=150, deadline=None)
@given(nonsingular())
def test_bareiss_on_the_gram_matrices_lll_eliminates(b):
    eliminated = []
    bareiss = linalg._bareiss

    def recording(m):
        eliminated.append([list(row) for row in m])
        return bareiss(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_bareiss", recording)
        linalg.lll([[sum(x * y for x, y in zip(r, s)) for s in b] for r in b])
    for m in eliminated:
        check_bareiss(m)


@st.composite
def symmetric_systems(draw):
    """[a | cols]: a symmetric integer a of size 1 to 6, positive definite
    (B B^T + I), with a zero leading pivot, with a zero pivot at k = 1
    (a_00 a_11 = a_01^2), singular (C C^T for C with n - 1 columns) or any
    symmetric, and 0 to 3 integer columns."""
    ints = st.integers(-9, 9)
    n = draw(st.integers(1, 6))
    b = [draw(st.lists(ints, min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(["any", "definite", "zero_pivot",
                                  "zero_pivot_k1", "singular"]))
    if shape == "definite":
        a = [[sum(map(mul, r, s)) + (i == j) for j, s in enumerate(b)]
             for i, r in enumerate(b)]
    elif shape == "singular":
        a = [[sum(map(mul, r[1:], s[1:])) for s in b] for r in b]
    else:
        a = [[b[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if shape == "zero_pivot":
        a[0][0] = 0
    elif shape == "zero_pivot_k1" and n > 1:
        x = draw(st.integers(1, 3))
        y = draw(ints)
        a[0][0], a[0][1], a[1][0], a[1][1] = x, x * y, x * y, x * y * y
    cols = draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                         max_size=3))
    return [row + [c[i] for c in cols] for i, row in enumerate(a)]


@settings(max_examples=300, deadline=None)
@given(symmetric_systems())
@example([[0, 1], [1, 0]])
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
@example([[1, 1, 1, 5], [1, 1, 2, 6], [1, 2, 3, 7]])  # a_21 moves at k = 0
@example([[1, 1], [1, 1]])
def test_bareiss_on_symmetric_systems(m):
    check_bareiss(m)
