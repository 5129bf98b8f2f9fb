"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
output.  Every tolerance and runtime budget is asserted here.
"""

import time
from fractions import Fraction as F

import pytest

from ternlat.cyclotomic import alpha_beta_verify
from ternlat.enumeration import (dominated_elements, elements_of_norm,
                                 enumerate_representations)
from ternlat.fieldscan import (exceptional_sets, scan_small_condition,
                               verify_identities)
from ternlat.numberfield import unit_square_canonical
from ternlat.obstruction import (obstruction_search, orthogonality_forcing,
                                 quartic_case_analysis)
from ternlat.quadlattice import (GramMatrix, LatticeClass,
                                 contains_sublattice, free_overlattice_test,
                                 lattice_predicates)

from test_properties import (run_certificate_suite, run_dual_of_dual_suite,
                             run_enumeration_oracle_suite,
                             run_norm_trace_suite, run_unsquare_suite)


def report(n, ok, detail, t0, budget=None):
    elapsed = time.time() - t0
    line = f"[criterion {n:2}] {'PASS' if ok else 'FAIL'} {detail} " \
           f"({elapsed:.2f} s)"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {n} exceeded {budget} s budget"


def test_criterion_1_small_square_lists(ctx_sqrt2):
    t0 = time.time()
    ctx = ctx_sqrt2
    s = ctx.sqrt2
    lam = 2 + s
    expected = [
        (lam, {"0"}),
        (ctx.from_rational(3), {"0", "1", "-1", "sqrt2", "-sqrt2"}),
        (ctx.from_rational(6),
         {"0", "1", "-1", "2", "-2", "sqrt2", "-sqrt2", "1+sqrt2",
          "-1-sqrt2", "1-sqrt2", "-1+sqrt2"}),
        (3 * lam, {"0", "1", "-1", "1+sqrt2", "-1-sqrt2"}),
        (3 * (2 - s), {"0", "1", "-1", "1-sqrt2", "-1+sqrt2"}),
    ]
    sizes = []
    for bound, names in expected:
        got = dominated_elements(ctx, bound)
        assert {ctx.format_element(w) for w in got} == names
        sizes.append(len(got))
    report(1, sizes == [1, 5, 11, 5, 5],
           f"five dominated-element lists, sizes {sizes}", t0, budget=5)


def test_criterion_2_scan_reproduction(table):
    t0 = time.time()
    on = exceptional_sets(scan_small_condition(table, 20000, unit_filter=True))
    off = exceptional_sets(scan_small_condition(table, 20000,
                                                unit_filter=False))
    ok = (set(on["3lambda"]) == {"K2048", "K2624"}
          and set(on["6"]) == {"K1600", "K2048", "K2624", "K10816"}
          and set(off["3lambda"]) == {"K2048", "K2624", "K7168", "K18432"}
          and set(off["6"]) == {"K1600", "K2048", "K2624", "K10816", "K2304",
                                "K7168", "K14336"})
    report(2, ok, f"exceptional sets (filter on) {sorted(on['3lambda'])} / "
           f"{sorted(on['6'])}; (filter off) {sorted(off['3lambda'])} / "
           f"{sorted(off['6'])}", t0, budget=600)


def test_criterion_3_case_analyses():
    t0 = time.time()
    l1 = quartic_case_analysis("L1_extension")
    ctx = l1.cases[0].alpha.ctx
    s = ctx.sqrt2
    ok = l1.det_formula_verified
    ok &= list(l1.x_squared_values) == [
        12 - 6 * s, 10 - 5 * s, 4 - 2 * s, 8 - 4 * s, 10 - 7 * s, 2 + s,
        10 - 6 * s, 8 - 5 * s, 6 - 2 * s, 4 - s]
    ok &= list(l1.residuals) == [3 * (2 + s), 5 * (2 + s), 2 + s, 3 + s,
                                 4 + s, 3 - s, 4 - s]
    recon = [c for c in l1.cases if c.status == "reconstructs-base-lattice"]
    ok &= len(recon) == 2 and all(
        c.reconstruction_class is LatticeClass.L1 for c in recon)
    l3 = quartic_case_analysis("L3_extension")
    ok &= l3.det_formula_verified
    ok &= list(l3.x_squared_values) == [
        18 - 9 * s, 6 - 3 * s, 12 - 6 * s, 15 - 9 * s, 9 - 6 * s, 9 - 3 * s,
        ctx.from_rational(3)]
    ok &= list(l3.residuals) == [2 + s, 6 + 3 * s, 9 + 3 * s,
                                 ctx.from_rational(3), 9 - 3 * s]
    report(3, ok, f"{len(l1.x_squared_values)} + {len(l3.x_squared_values)} "
           "determinant cases with matching residual square classes; both "
           "excluded cases reconstruct the base lattice", t0, budget=60)


def test_criterion_4_identities():
    t0 = time.time()
    rep = verify_identities()
    ok = rep["ok"] and all(r["exact"] for r in rep["sum_of_squares"])
    ok &= rep["gap_maximum"]["error"] <= 1e-9
    ok &= abs(rep["disc_bound"]["value"] - 1513496.96) <= 0.01
    report(4, ok, "four polynomial identities exact; gap maximum within "
           f"1e-9 (err {rep['gap_maximum']['error']:.1e}); discriminant "
           f"bound {rep['disc_bound']['value']:.2f}", t0)


def test_criterion_5_cyclotomic_formulas():
    t0 = time.time()
    checked = 0
    confirmed = 0
    for k in range(3, 61):
        r = alpha_beta_verify(k)     # raises on any mismatch
        checked += 1
        if r.alpha_indecomposable is not None and r.degree <= 6:
            confirmed += 1
    report(5, checked == 58,
           f"norm/trace formulas verified for k = 3..60; indecomposability "
           f"confirmed in {confirmed} fields of degree 3..6", t0)


def test_criterion_6_unimodular_example(table):
    t0 = time.time()
    ctx = table.context("K7168")
    s = ctx.sqrt2
    theta = ctx.gen
    assert theta * theta == 3 - s
    alpha = (1 + s) * theta
    assert alpha * alpha == 5 + 3 * s
    lam = 2 + s
    one, zero = ctx.one, ctx.zero
    lattice = GramMatrix([[one, zero, zero],
                          [zero, ctx.from_rational(3), alpha],
                          [zero, alpha, lam]])
    ok = lattice_predicates(lattice).unimodular
    emb = contains_sublattice(lattice, LatticeClass.L3)
    ok &= emb is not None
    values = [lattice.value(v) for v in emb]
    ok &= values == [one, lam, ctx.from_rational(3)]
    ok &= lattice.pairing(emb[0], emb[1]).is_zero
    ok &= lattice.pairing(emb[0], emb[2]).is_zero
    ok &= lattice.pairing(emb[1], emb[2]) == one
    # the stated embedding vectors work as well
    e_vec = (zero, one, zero)
    f_vec = (zero, zero, one)
    x2 = (zero, -alpha, ctx.from_rational(3))
    ok &= lattice.value(f_vec) == lam and lattice.value(x2) == \
        ctx.from_rational(3) and lattice.pairing(f_vec, x2) == one
    # the binary part represents no unit: test both sign-normalized
    # totally positive unit classes exhaustively
    binary = [[ctx.from_rational(3), alpha], [alpha, lam]]
    classes = {}
    for mask in range(1 << len(ctx.units)):
        prod = ctx.one
        for i, u in enumerate(ctx.units):
            if (mask >> i) & 1:
                prod = prod * u
        if prod.is_totally_positive():
            rep_u = unit_square_canonical(prod)
            classes[rep_u.coords] = rep_u
    ok &= len(classes) == 2          # h+/h = 2: the classes are 1 and eps
    for u in classes.values():
        reps = enumerate_representations(binary, u)
        ok &= reps.vectors == [] and reps.complete
    report(6, ok, "unimodular ternary over the degree-4 field: sublattice "
           "with Gram values (2+sqrt2, 3, 1) found; binary part represents "
           "no unit (both unit classes exhausted)", t0)


def test_criterion_7_overlattice_criterion(ctx_sqrt2, table):
    t0 = time.time()
    r1 = free_overlattice_test(ctx_sqrt2)
    r2 = free_overlattice_test(table.context("K1600"))
    r3 = free_overlattice_test(table.context("K7168"))
    ok = not r1.has_proper_free_classical_overlattice
    ok &= not r2.has_proper_free_classical_overlattice
    ok &= r3.has_proper_free_classical_overlattice
    t, gamma = r3.witness
    ctx = table.context("K7168")
    ok &= t * t * gamma == 5 + 3 * ctx.sqrt2 and gamma == ctx.one
    report(7, ok, "no overlattice over the quadratic and biquadratic fields; "
           "witness with t^2 = 5+3*sqrt2 over the quartic field", t0)


def test_criterion_8_obstruction_certificates(table):
    t0 = time.time()
    # field with the norm-2 / norm-17 quadruple
    ctx = table.context("K2048")
    p2 = elements_of_norm(ctx, 2, F(6), totally_positive=True)[0]
    p17_classes = {}
    for e in elements_of_norm(ctx, 17, F(6), totally_positive=True):
        r = unit_square_canonical(e)
        p17_classes[r.coords] = r
    ok = len(p17_classes) == 4
    for p17 in p17_classes.values():
        ok &= orthogonality_forcing(ctx, [ctx.one, p2, p17]).is_valid
    # field with the norm-7 pair
    ctx = table.context("K2624")
    p7 = elements_of_norm(ctx, 7, F(6), totally_positive=True)[0]
    ok &= orthogonality_forcing(ctx, [ctx.one, 2 + ctx.sqrt2, p7]).is_valid
    # class-number-2 field: full certificate search
    ctx = table.context("K51200")
    a14 = [e for e in (unit_square_canonical(
        ctx.totally_positive_associate(x)[1])
        for x in elements_of_norm(ctx, 14, F(6)))]
    ok &= bool(a14)
    ok &= orthogonality_forcing(ctx, [ctx.one, 2 + ctx.sqrt2,
                                      a14[0]]).is_valid
    cert = obstruction_search(ctx, 40)
    ok &= cert is not None and cert.is_valid
    norms = [int(abs(e.norm())) for e in cert.quadruple]
    report(8, ok, "orthogonality forced for all listed triples (all four "
           f"norm-17 classes); search certificate with norms {norms}",
           t0, budget=600)


def test_criterion_9_property_suites(ctx_sqrt2, ctx_sqrt3, ctx_sqrt5, table):
    t0 = time.time()
    n1 = run_enumeration_oracle_suite([ctx_sqrt2, ctx_sqrt3, ctx_sqrt5])
    n2 = run_dual_of_dual_suite(ctx_sqrt2)
    n3 = run_norm_trace_suite([ctx_sqrt2, table.context("K2048")])
    n4 = run_unsquare_suite(ctx_sqrt2)
    n5 = run_certificate_suite(table)
    report(9, (n1, n2, n3, n4) == (50, 20, 200, 20) and n5 == 2,
           f"oracle suites: {n1} enumerations, {n2} duals, {n3} norm/trace "
           f"pairs, {n4} unsquare round-trips, {n5} certificates revalidated",
           t0, budget=300)


def test_criterion_10_symbolic_branches():
    t0 = time.time()
    rep = quartic_case_analysis("nonsquarefree_two")
    b0, b1 = rep.branches
    ok = (b0.identity_lhs, b0.identity_rhs) == ("gamma^2*t", "beta^2")
    ok &= (b1.identity_lhs, b1.identity_rhs) == ("gamma", "t*beta^2")
    report(10, ok, f"branch identities {b0.identity_lhs} = {b0.identity_rhs}"
           f" and {b1.identity_lhs} = {b1.identity_rhs} derived exactly", t0)
