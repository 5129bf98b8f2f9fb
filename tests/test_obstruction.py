from dataclasses import replace
from fractions import Fraction as F

import pytest

from ternlat.enumeration import elements_of_norm, squarefree_witness
from ternlat.errors import InvalidInput, NoSuchUnit
from ternlat.numberfield import load_field, unit_square_canonical
from ternlat.obstruction import (candidate_pool, dual_nonrepresentation,
                                 indecomposables_classify,
                                 obstruction_certificate, obstruction_search,
                                 orthogonality_forcing, quartic_case_analysis,
                                 revalidate_certificate, square_class_reduce)
from ternlat.quadlattice import LatticeClass


def test_forcing_invalid_pair(ctx_sqrt2):
    cert = orthogonality_forcing(ctx_sqrt2, [ctx_sqrt2.one, ctx_sqrt2.one])
    assert not cert.is_valid
    assert {e.coords for e in cert.pairs[0].admissible} == \
        {(0, 0), (1, 0), (-1, 0)}


def test_forcing_k2624(table):
    ctx = table.context("K2624")
    lam = 2 + ctx.sqrt2
    p7s = elements_of_norm(ctx, 7, F(6), totally_positive=True)
    assert p7s
    cert = orthogonality_forcing(ctx, [ctx.one, lam, p7s[0]])
    assert cert.is_valid


def test_dual_nonrepresentation_rationals(ctx_q):
    one = ctx_q.one
    seven = ctx_q.from_rational(7)
    tr = dual_nonrepresentation(ctx_q, [one, one, one], seven)
    assert tr.is_valid                       # 7 not a sum of three squares
    two = ctx_q.from_rational(2)
    tr2 = dual_nonrepresentation(ctx_q, [one, one, two], seven)
    assert not tr2.is_valid                  # dual <1,1,1/2> represents 7
    x, y, z = tr2.counterexample
    assert (x * x * two + y * y * two + z * z) == seven * two
    # gamma equal to a diagonal entry is always represented
    tr3 = dual_nonrepresentation(ctx_q, [one, one, two], two)
    assert not tr3.is_valid


def test_square_class_reduce(ctx_sqrt2):
    ctx = ctx_sqrt2
    s = ctx.sqrt2
    cases = {
        (12, -6): 6 + 3 * s,
        (10, -5): 10 + 5 * s,
        (4, -2): 2 + s,
        (10, -7): 2 + s,
        (18, -9): 2 + s,
        (9, -6): ctx.from_rational(3),
        (15, -9): 9 + 3 * s,
    }
    for coords, expected in cases.items():
        x = ctx.element(coords)
        r, scale = square_class_reduce(x)
        assert r == expected
        assert r * scale * scale == x


def test_square_class_reduce_needs_units(ctx_sqrt2):
    # without generators there is no unit-square walk to reduce by
    ctx = load_field(replace(ctx_sqrt2.record, units=None))
    with pytest.raises(NoSuchUnit):
        square_class_reduce(ctx.element((10, -7)))


def test_case_analysis_l1():
    rep = quartic_case_analysis("L1_extension")
    assert rep.det_formula_verified
    ctx = rep.cases[0].alpha.ctx
    s = ctx.sqrt2
    expected_x2 = [12 - 6 * s, 10 - 5 * s, 4 - 2 * s, 8 - 4 * s, 10 - 7 * s,
                   2 + s, 10 - 6 * s, 8 - 5 * s, 6 - 2 * s, 4 - s]
    assert list(rep.x_squared_values) == expected_x2
    expected_res = [3 * (2 + s), 5 * (2 + s), 2 + s, 3 + s, 4 + s, 3 - s,
                    4 - s]
    assert list(rep.residuals) == expected_res
    recon = [c for c in rep.cases if c.status == "reconstructs-base-lattice"]
    assert len(recon) == 2
    assert {c.x_in_base for c in recon} == {2 - s, s}
    assert all(c.reconstruction_class is LatticeClass.L1 for c in recon)


def test_case_analysis_l3():
    rep = quartic_case_analysis("L3_extension")
    assert rep.det_formula_verified
    ctx = rep.cases[0].alpha.ctx
    s = ctx.sqrt2
    expected_x2 = [18 - 9 * s, 6 - 3 * s, 12 - 6 * s, 15 - 9 * s, 9 - 6 * s,
                   9 - 3 * s, ctx.from_rational(3)]
    assert list(rep.x_squared_values) == expected_x2
    expected_res = [2 + s, 6 + 3 * s, 9 + 3 * s, ctx.from_rational(3),
                    9 - 3 * s]
    assert list(rep.residuals) == expected_res
    assert not [c for c in rep.cases if c.status == "reconstructs-base-lattice"]
    dropped = [c for c in rep.cases if c.status == "not-integral"]
    assert {c.beta.coords for c in dropped} <= {(1, 0), (1, 1), (1, -1)}


def test_case_analysis_symbolic():
    rep = quartic_case_analysis("nonsquarefree_two")
    assert len(rep.branches) == 2
    b0, b1 = rep.branches
    assert (b0.identity_lhs, b0.identity_rhs) == ("gamma^2*t", "beta^2")
    assert (b1.identity_lhs, b1.identity_rhs) == ("gamma", "t*beta^2")


def test_indecomposables_sqrt2(ctx_sqrt2):
    rep = indecomposables_classify(ctx_sqrt2, 10)
    assert rep.entries
    assert not rep.others
    kinds = {e.element.coords: e.classification for e in rep.entries}
    assert kinds[(2, 1)] == "lambda-square"
    assert kinds[(1, 0)] == "square"
    assert (2, 0) not in kinds            # 2 = 1 + 1 is decomposable


def test_indecomposables_biquadratic(table):
    ctx = table.context("K1600")
    rep = indecomposables_classify(ctx, 12)
    others = rep.others
    assert others, "expected a witness outside the two classes"
    norms = {int(abs(e.norm())) for e in others}
    assert 9 in norms


def test_two_decomposition(ctx_sqrt3, ctx_sqrt5, ctx_q):
    # 2 = gamma t^2 with t not a unit: in Q(sqrt3) a witness t exists, but
    # no unit realizes its signature, so no totally positive gamma, t do;
    # in Q(sqrt5) and Q, 2 is squarefree
    two = ctx_sqrt3.from_rational(2)
    t, gamma = squarefree_witness(two)
    assert gamma * t * t == two and not t.is_unit()
    with pytest.raises(NoSuchUnit):
        ctx_sqrt3.totally_positive_associate(t)
    for ctx in (ctx_sqrt5, ctx_q):
        assert squarefree_witness(ctx.from_rational(2)) is None


def test_pool_and_search_on_trivial_field(ctx_sqrt2):
    pool = candidate_pool(ctx_sqrt2, 12)
    assert pool[0] == ctx_sqrt2.one
    assert obstruction_search(ctx_sqrt2, 12) is None


@pytest.mark.parametrize("pool_size, ceiling", [(0, 10 ** 8), (-1, 10 ** 8),
                                                 (40, 0), (40, -5)])
def test_nonpositive_pool_or_ceiling_is_rejected(table, ctx_sqrt2,
                                                 monkeypatch, pool_size,
                                                 ceiling):
    # rejected before any field is loaded or searched, not turned into a
    # verdict
    from ternlat import obstruction
    from ternlat.fieldscan import scan_obstructions, scan_small_condition

    def no_work(*args):
        raise AssertionError(f"work done on {args}")

    monkeypatch.setattr(table, "context", no_work)
    monkeypatch.setattr(obstruction, "dominated_elements", no_work)
    ctx = ctx_sqrt2
    calls = [lambda: candidate_pool(ctx, pool_size, ceiling),
             lambda: obstruction_search(ctx, pool_size, ceiling),
             lambda: scan_obstructions(table, 60000, pool_size, ceiling)]
    if ceiling < 1:
        calls.append(lambda: scan_small_condition(table, 20000, False,
                                                  ceiling))
    for call in calls:
        with pytest.raises(InvalidInput, match="at least 1"):
            call()


def test_certificate_roundtrip(table):
    ctx = table.context("K2624")
    lam = 2 + ctx.sqrt2
    p7 = elements_of_norm(ctx, 7, F(6), totally_positive=True)[0]
    p7b = [e for e in elements_of_norm(ctx, 7, F(6), totally_positive=True)
           if unit_square_canonical(e) !=
           unit_square_canonical(p7)][0]
    cert = obstruction_certificate(ctx, [ctx.one, lam, p7], p7b)
    data = cert.to_dict()
    assert revalidate_certificate(ctx, data)
    import json
    assert revalidate_certificate(ctx, json.loads(json.dumps(data)))


def test_search_none_on_sum_of_three_squares_field(ctx_sqrt5):
    assert obstruction_search(ctx_sqrt5, 12) is None


def test_scan_obstructions_finds_k51200(table):
    from ternlat.fieldscan import scan_obstructions
    rep = scan_obstructions(table, 60000, pool_size=40)
    by = {v["label"]: v for v in rep["verdicts"]}
    assert by["K51200"]["status"] == "certificate"
    assert by["K51200"]["certificate"]["valid"]


def test_classification_stable_under_unit_squares(ctx_sqrt2):
    from ternlat.obstruction import classify_square_shape
    rep = indecomposables_classify(ctx_sqrt2, 10)
    for entry in rep.entries:
        for u in ctx_sqrt2.units:
            scaled = entry.element * u * u
            assert classify_square_shape(scaled).classification == \
                entry.classification
