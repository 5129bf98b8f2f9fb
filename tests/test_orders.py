"""Round-2 maximal orders and unit classes (`ternlat.orders`).

Each result is checked against a route that shares no code with the order
arithmetic: closed-form discriminants of biquadratic fields, the power
order of a cyclotomic field, the shipped table, and the trace form built
from `load_field`'s multiplication table alone.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import trace_form
from ternlat import linalg, orders
from ternlat.cyclotomic import cyclo_info
from ternlat.enumeration import sqrt_element
from ternlat.linalg import det_int
from ternlat.numberfield import FieldRecord, basis_mult_table, load_field
from ternlat.orders import enlarge_at, find_units, maximal_order

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


def test_order_builds_its_inverse_and_table_once(monkeypatch):
    # maximal_order calls enlarge_at again on an unchanged order for the
    # next prime; the order's inverse and table serve every call
    calls = {"inverse": 0, "table": 0}
    inverse, table = linalg.inverse, orders.basis_mult_table

    def counted_inverse(a):
        calls["inverse"] += 1
        return inverse(a)

    def counted_table(*args):
        calls["table"] += 1
        return table(*args)

    order = maximal_order(biquadratic_poly(7))
    monkeypatch.setattr(linalg, "inverse", counted_inverse)
    monkeypatch.setattr(orders, "basis_mult_table", counted_table)
    # two calls on the same order: the ideal's inverse is one per call
    assert enlarge_at(order, 2).disc == enlarge_at(order, 2).disc == order.disc
    assert calls == {"inverse": 2 + 1, "table": 1}
    assert order.mult_table == basis_mult_table(order.p, order.basis,
                                                inverse(order.basis))


def test_shipped_table_trace_forms_give_its_discs(table):
    for rec in table:
        _, q = trace_form(table.context(rec.label).mult_table)
        assert det_int(q) == rec.disc, rec.label


def test_find_units_k7168(table):
    rec = table.by_label("K7168")
    ctx = load_field(rec)
    gens, ratio = find_units(ctx)
    assert len(gens) == 4 and all(g.is_unit() for g in gens)
    assert [g.coords for g in gens] == [c for c, _ in rec.units]
    # independent modulo squares: no nonempty product is a square
    for mask in range(1, 16):
        prod = ctx.one
        for i, g in enumerate(gens):
            if (mask >> i) & 1:
                prod = prod * g
        assert sqrt_element(prod) is None, mask
    assert ratio == rec.h_plus // rec.h == 2


def test_integral_quotient_equals_element_division(table):
    # a / b from b* = N(b) / b on integers against Element division (the
    # inverse by rational elimination), on every table field and F_32:
    # random pairs, whose quotients are mostly not integral, and pairs
    # (a b, b) and (u a, a) for units u, whose quotients are
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    ctxs = [table.context(rec.label) for rec in table.records]
    for ctx in ctxs + [cyclo_info(32).field]:
        d = ctx.degree
        els = [ctx.element([rng.randint(-4, 4) for _ in range(d)])
               for _ in range(8)]
        els = [e for e in els if not e.is_zero]
        pairs = [(a, b) for a in els for b in els]
        pairs += [(a * b, b) for a, b in zip(els, els[1:])]
        pairs += [(u * a, a) for u in ctx.units or () for a in els[:2]]
        for a, b in pairs:
            conj = orders._conjugate_product(b)
            assert conj[0] == b.norm() and b * conj[1] == ctx.from_rational(
                conj[0])
            want = a / b
            got = orders._integral_quotient(a, conj)
            assert got == (want if want.is_integral else None), (ctx, a, b)
            seen[got is not None] += 1
    assert seen[True] > 200 and seen[False] > 500, seen


def test_field_table_script_runs():
    script = ROOT / "scripts" / "build_field_table.py"
    done = subprocess.run([sys.executable, str(script), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "--out" in done.stdout
