import pytest

from conftest import gram_inverse_dual
from ternlat import quadlattice
from ternlat.enumeration import Representations
from ternlat.errors import Singular
from ternlat.quadlattice import (GramMatrix, LatticeClass,
                                 contains_sublattice, free_overlattice_test,
                                 generated_module_gram,
                                 isometry_search, lattice_predicates,
                                 offdiag_candidates, small_condition_holds,
                                 standard_lattice, ternary_classification)


def lam(ctx):
    return 2 + ctx.sqrt2


def test_dual_binary(ctx_sqrt2):
    ctx = ctx_sqrt2
    one = ctx.one
    g0 = GramMatrix([[lam(ctx), one], [one, ctx.from_rational(3)]])
    dual = gram_inverse_dual(g0)
    p7 = 5 + 3 * ctx.sqrt2
    assert dual.entries[0][0] == ctx.from_rational(3) / p7
    assert dual.entries[0][1] == -(one / p7)
    assert dual.entries[1][1] == lam(ctx) / p7
    assert gram_inverse_dual(dual) == g0


def test_dual_identity(ctx_sqrt2):
    ident = GramMatrix.diagonal([ctx_sqrt2.one] * 3)
    assert gram_inverse_dual(ident) == ident


def test_dual_singular(ctx_sqrt2):
    one, zero = ctx_sqrt2.one, ctx_sqrt2.zero
    with pytest.raises(Singular):
        gram_inverse_dual(GramMatrix([[one, one], [one, one]]))


def test_predicates(ctx_sqrt2):
    ctx = ctx_sqrt2
    l2 = standard_lattice(ctx, LatticeClass.L2)
    pr = lattice_predicates(l2)
    assert pr.classical and pr.unimodular and pr.det == ctx.one
    l3 = standard_lattice(ctx, LatticeClass.L3)
    pr3 = lattice_predicates(l3)
    assert pr3.classical and not pr3.unimodular
    assert pr3.det == 5 + 3 * ctx.sqrt2
    ident = GramMatrix.diagonal([ctx.one] * 3)
    assert lattice_predicates(ident).unimodular


def test_offdiag_candidates(ctx_sqrt2):
    ctx = ctx_sqrt2
    assert [e.coords for e in offdiag_candidates(ctx.one, lam(ctx))] == [(0, 0)]
    eleven = offdiag_candidates(lam(ctx), 3 * (2 - ctx.sqrt2))
    assert len(eleven) == 11
    assert {e.coords for e in offdiag_candidates(ctx.one, ctx.one)} == \
        {(0, 0), (1, 0), (-1, 0)}


def test_isometry_permutation(ctx_sqrt2):
    ctx = ctx_sqrt2
    one = ctx.one
    a = GramMatrix.diagonal([one, one, lam(ctx)])
    b = GramMatrix.diagonal([one, lam(ctx), one])
    m = isometry_search(a, b)
    assert m is not None
    # verify M^T A M = B via the returned vectors
    cols = [tuple(m[r][c] for r in range(3)) for c in range(3)]
    for i in range(3):
        for j in range(3):
            assert a.pairing(cols[i], cols[j]) == b.entries[i][j]


def test_isometry_always_self(ctx_sqrt2):
    g = standard_lattice(ctx_sqrt2, LatticeClass.L3)
    assert isometry_search(g, g) is not None


def test_no_isometry_distinct_det_class(ctx_sqrt2):
    ctx = ctx_sqrt2
    a = GramMatrix.diagonal([ctx.one, lam(ctx), ctx.from_rational(2)])
    b = GramMatrix.diagonal([ctx.one, lam(ctx), ctx.from_rational(3)])
    assert isometry_search(a, b) is None


def test_contains_sublattice_identity(ctx_sqrt2):
    g = standard_lattice(ctx_sqrt2, LatticeClass.L1)
    emb = contains_sublattice(g, LatticeClass.L1)
    assert emb is not None


def test_contains_sublattice_none(ctx_sqrt2):
    ctx = ctx_sqrt2
    ident = GramMatrix.diagonal([ctx.one] * 3)
    assert contains_sublattice(ident, LatticeClass.L1) is None


def test_classification_partition(ctx_sqrt2):
    rep = ternary_classification(ctx_sqrt2)
    outcome = {(c.w13.coords, c.w23.coords):
               (c.lattice_class.value if c.lattice_class else None)
               for c in rep.cases}
    s = ctx_sqrt2.sqrt2
    one = ctx_sqrt2.one
    assert outcome[((0, 0), (0, 0))] == "<1,lambda,3>"
    assert outcome[((0, 0), (1, 0))] == "L3"
    assert outcome[((0, 0), (1, 1))] == "L3'"
    assert outcome[((1, 0), (0, 0))] == "<1,lambda,2>"
    assert outcome[((1, 0), (1, 0))] == "L2"
    assert outcome[((1, 0), (1, 1))] == "L2"
    assert outcome[((0, 1), (0, 0))] == "L1"
    assert outcome[((0, 1), (1, 0))] is None
    assert outcome[((0, 1), (1, 1))] is None
    assert len(rep.classes_found()) == 6


def test_det_class_matches_up_to_unit_square(ctx_sqrt2):
    # every feasible classified case has det equal to its class
    # representative's det times a unit square
    from ternlat.enumeration import sqrt_element
    rep = ternary_classification(ctx_sqrt2)
    for c in rep.cases:
        if c.lattice_class is None:
            continue
        one = ctx_sqrt2.one
        s = ctx_sqrt2.sqrt2
        g = GramMatrix([[one, ctx_sqrt2.zero, c.w13],
                        [ctx_sqrt2.zero, lam(ctx_sqrt2), c.w23],
                        [c.w13, c.w23, ctx_sqrt2.from_rational(3)]])
        target = standard_lattice(ctx_sqrt2, c.lattice_class)
        ratio = g.det() / target.det()
        num = ratio * ratio.den ** 2  # clear the denominator: den^2 * ratio
        assert sqrt_element(num) is not None


def test_small_condition(ctx_sqrt2, table):
    assert small_condition_holds(table.context("K51200"))
    assert not small_condition_holds(table.context("K2048"))


def test_free_overlattice(ctx_sqrt2, table):
    assert not free_overlattice_test(ctx_sqrt2).has_proper_free_classical_overlattice
    assert not free_overlattice_test(table.context("K1600")).has_proper_free_classical_overlattice
    res = free_overlattice_test(table.context("K7168"))
    assert res.has_proper_free_classical_overlattice
    t, g = res.witness
    assert t * t * g == 5 + 3 * table.context("K7168").sqrt2


def test_generated_module_gram(ctx_sqrt2):
    # four generators of a rank-3 module that reduce to the diagonal lattice
    ctx = ctx_sqrt2
    one, zero = ctx.one, ctx.zero
    two = ctx.from_rational(2)
    g4 = GramMatrix([
        [one, zero, zero, one],
        [zero, one, zero, zero],
        [zero, zero, two, zero],
        [one, zero, zero, one],
    ])
    g3 = generated_module_gram(g4)
    assert g3.n == 3 and g3.det() == two


def test_unimodular_dual_isometric(ctx_sqrt2):
    # the dual of a unimodular lattice is the lattice itself up to isometry
    l2 = standard_lattice(ctx_sqrt2, LatticeClass.L2)
    dual = gram_inverse_dual(l2)
    assert dual.is_classical
    assert isometry_search(l2, dual) is not None


def test_gram_times_inverse_is_identity(ctx_sqrt2):
    g = standard_lattice(ctx_sqrt2, LatticeClass.L3)
    inv = gram_inverse_dual(g)
    n = g.n
    for i in range(n):
        for j in range(n):
            acc = ctx_sqrt2.zero
            for k in range(n):
                acc = acc + g.entries[i][k] * inv.entries[k][j]
            assert acc == (ctx_sqrt2.one if i == j else ctx_sqrt2.zero)


def test_classification_over_quartic_field(table):
    # the discriminant-51200 field satisfies the off-diagonal condition, so
    # the classification table applies verbatim over it
    rep = ternary_classification(table.context("K51200"))
    assert len(rep.classes_found()) == 6


def test_incomplete_representation_list_raises(ctx_sqrt2, monkeypatch):
    # a list cut at its cap must not read as "no vector": the check is an
    # explicit raise, which `python -O` keeps
    monkeypatch.setattr(quadlattice, "enumerate_representations",
                        lambda *args, **kwargs: Representations([], False))
    g = standard_lattice(ctx_sqrt2, LatticeClass.L1)
    with pytest.raises(RuntimeError, match="cut at the ceiling"):
        contains_sublattice(g, LatticeClass.L1)
