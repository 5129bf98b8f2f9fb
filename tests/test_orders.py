"""Round-2 maximal orders and unit classes (`ternlat.orders`).

Each result is checked against a route that shares no code with the order
arithmetic: closed-form discriminants of biquadratic fields, the power
order of a cyclotomic field, the shipped table, and the trace form built
from `load_field`'s multiplication table alone.
"""

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
    # two calls on the same order: the ideal's solve is an adjugate, so the
    # one inverse is the order's own
    assert enlarge_at(order, 2).disc == enlarge_at(order, 2).disc == order.disc
    assert calls == {"inverse": 1, "table": 1}
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
