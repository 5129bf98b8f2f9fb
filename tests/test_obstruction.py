import hashlib
import json
from fractions import Fraction as F

import pytest

from ternlat.enumeration import elements_of_norm, squarefree_witness
from ternlat import enumeration, numberfield, obstruction
from ternlat.cli import main
from ternlat.errors import BoxTooLarge, InvalidInput, NoSuchUnit
from ternlat.numberfield import load_field, unit_square_reduce
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
        # the squares of 11, 3 + sqrt2 and 5 + sqrt2
        (121, 0): ctx.one,
        (11, 6): ctx.one,
        (27, 10): ctx.one,
    }
    for coords, expected in cases.items():
        x = ctx.element(coords)
        r, scale = square_class_reduce(x)
        assert r == expected
        assert r * scale * scale == x


def test_square_class_reduce_needs_units(ctx_sqrt2):
    # without generators there is no unit-square walk to reduce by
    ctx = load_field(ctx_sqrt2.record._replace(units=None))
    with pytest.raises(NoSuchUnit):
        square_class_reduce(ctx.element((10, -7)))


def test_square_class_reduce_in_quartic_fields(table):
    # criterion 7's t^2 = 5 + 3*sqrt2 is a square in K7168; elsewhere only
    # x = r * scale^2 and r's lack of a square factor in the search hold
    ctx = table.context("K7168")
    assert square_class_reduce(5 + 3 * ctx.sqrt2)[0] == ctx.one
    for label in ("K7168", "K2048", "K51200"):
        ctx = table.context(label)
        s = ctx.sqrt2
        for x in (5 + 3 * s, ctx.from_rational(121), 7 * (3 + s) ** 2):
            r, scale = square_class_reduce(x)
            assert r * scale * scale == x, (label, x)
            assert squarefree_witness(r) is None, (label, x)


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


@pytest.mark.parametrize("mode", ["L1_extension", "L3_extension"])
def test_case_analysis_reduces_each_case_once(mode, monkeypatch):
    # each case past the positivity and integrality filters takes one
    # square-class reduction and one psd check, and no separate square root
    calls = {"reduce": 0, "psd": 0, "sqrt": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name, attr in (("reduce", "square_class_reduce"),
                       ("psd", "_psd_rank3_check"), ("sqrt", "sqrt_element")):
        monkeypatch.setattr(obstruction, attr,
                            counted(name, getattr(obstruction, attr)))
    rep = quartic_case_analysis(mode)
    passed = [c for c in rep.cases
              if c.status in ("admissible", "reconstructs-base-lattice")]
    assert passed
    assert calls == {"reduce": len(passed), "psd": len(passed), "sqrt": 0}


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
    assert ctx_sqrt3.totally_positive_associate(t) is None
    for ctx in (ctx_sqrt5, ctx_q):
        assert squarefree_witness(ctx.from_rational(2)) is None


def test_pool_and_search_on_trivial_field(ctx_q, ctx_sqrt2, ctx_sqrt3):
    # Q(sqrt2) and Q(sqrt3) carry universal ternary classical lattices, so
    # a certificate there would be unsound; over Z no pair is ever forced
    # (a_i a_j >= 1 admits b = 1), so Q's pool is exhausted too
    for ctx in (ctx_q, ctx_sqrt2, ctx_sqrt3):
        assert candidate_pool(ctx, 12)[0] == ctx.one
        assert obstruction_search(ctx, 40) is None, ctx.record.label


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
           if unit_square_reduce(e)[0] != unit_square_reduce(p7)[0]][0]
    cert = obstruction_certificate(ctx, [ctx.one, lam, p7], p7b)
    data = cert.to_dict()
    assert revalidate_certificate(ctx, data)
    import json
    assert revalidate_certificate(ctx, json.loads(json.dumps(data)))


def test_search_none_on_sum_of_three_squares_field(ctx_sqrt5):
    # x^2 + y^2 + z^2 is universal over Q(sqrt5)
    assert obstruction_search(ctx_sqrt5, 40) is None


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


# (quadruple norms, sha256 of json.dumps(obstruction_search(ctx, 40)
# .to_dict(), sort_keys=True)) per table field; the digests of the 8 fields
# with h+ = h were pinned before the search reused its pair checks, and
# before the other 11 were searched at all
GOLDEN_CERTIFICATES = {
    "K1600": ([1, 4, 9, 9],
             "605a86af35a960d5d16cf5ef601cef735c1b26a0d3820ce6e610ac1e4ba6d7e9"),
    "K2048": ([1, 2, 17, 17],
             "2616ea84874e63662d5b35acacac16db3361cf191f505969c1c7bed0d63767fc"),
    "K2304": ([1, 1, 9, 9],
             "5979af61300a70df208ce88d1c1e978608a57ff62ebd14ae76950d752c38a5f7"),
    "K2624": ([1, 4, 7, 7],
             "d9795a0d21b3159cac7a37a568f3eb3133fa47b6e9aa816b2e65c60537daa9c4"),
    "K4352": ([1, 1, 2, 2],
             "a7eb67c1b3dee5d18864cd903a4f0b5f7164e61d7c17aa7d75c29939f5589eee"),
    "K7168": ([1, 1, 14, 14],
             "c481d9c6358436b2901b1d69d17f61fdc4c1e3be6f5db1bc6a51c179b7aac048"),
    "K7232": ([1, 2, 2, 4],
             "4666fbb8b1ec8a63058861351bad0200c8e3574e6c1efa2bf2e8cbd5fa8bef1f"),
    "K8768": ([1, 4, 7, 7],
             "a9be8f710b9b2092450fbc660cd3b3a4e0ae52d38834b8d4aadfb0988a466e88"),
    "K9792": ([1, 1, 4, 4],
             "4d47448ad5f6966897899ef09f727858a2e1f94d3f5e6c10d9c3f4a32153582d"),
    "K10304": ([1, 4, 4, 14],
              "6954848c8bca35d1bf64d8b976034873898b508361996fc804b770bf159e30d1"),
    "K10816": ([1, 4, 9, 9],
              "9a0e52e302bfd5c6dd20195bc8860904230a4a8bc6de1b2cd0f5a37c41573d54"),
    "K12544": ([1, 1, 1, 4],
              "290720d1ce88eb46f13d66e83f4c52931a0fff69b0db619413884061b3a73311"),
    "K13888": ([1, 1, 4, 23],
              "9f05ec20d061a814131b19b78b1a1ffeafdba4bfcb80a4eef76f2a007d9d6fb7"),
    "K14336": ([1, 4, 14, 14],
              "6e36d2af65c0959fdbf95901d1e26eff843e68859ce449f6b55b481e4bf9aaf4"),
    "K16448": ([1, 2, 2, 4],
              "19a40a477d1474e3a0c4f53f30a26dab3a550b25e78e7c7e9f6dc5f3b54870c1"),
    "K18432": ([1, 4, 7, 7],
              "e9a2fa08a718598a3baf55ec0635d752af9e708c697cf3daa0b74538916bba10"),
    "K18496": ([1, 2, 2, 2],
              "46db10b18a2a22f8fc874a0014e44f224cfc8700908a63128ae228411d632f60"),
    "K18688": ([1, 4, 9, 9],
              "e1561dc12fbeb720f2400c5a46dab4c273b8ec28acd8a4d4bbba40c73465471a"),
    "K51200": ([1, 4, 14, 14],
              "9adfa64f1c42923bac8d463a5f45e478ad669760d106fb18dc6de805ee9ea6ba"),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_CERTIFICATES))
def test_search_certificates_are_unchanged(table, label):
    norms, golden = GOLDEN_CERTIFICATES[label]
    cert = obstruction_search(table.context(label), 40)
    assert [int(abs(e.norm())) for e in cert.quadruple] == norms
    data = cert.to_dict()
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == golden
    fresh = load_field(table.context(label).record)
    assert revalidate_certificate(fresh, json.loads(json.dumps(data)))


def test_tampered_certificate_fails_on_a_narrow_class_field(table):
    # K2304 has h+ = 2h; its fourth element swapped for a pool element that
    # the dual of the triple represents no longer revalidates
    ctx = table.context("K2304")
    cert = obstruction_search(ctx, 40)
    triple = cert.quadruple[:3]
    swap = next(g for g in candidate_pool(ctx, 40)
                if not dual_nonrepresentation(ctx, triple, g).is_valid)
    assert not obstruction_certificate(ctx, triple, swap).is_valid
    data = cert.to_dict()
    data["quadruple"][3] = {"coords": list(swap.coords), "den": swap.den}
    assert revalidate_certificate(ctx, cert.to_dict())
    assert not revalidate_certificate(ctx, data)


def test_search_enumerates_each_bound_once(table, monkeypatch):
    # one K51200 search: 7 dominated-element lists, none enumerated twice
    # (a dual that recounts its lists and a certificate that re-runs its
    # pair checks make 13); at most 74 multiplications in the unit-square
    # walk: a walk that forms a * u^2 on every step makes 722, one that
    # forms it only when its trace is not larger makes 246, and 172 of
    # those are the best * 1 that the two steps of u = -1 form on every
    # pass, which the walk skips as u^2 = 1; and at most 30 norms: the
    # pool's house-6 list is 0 and 50 pairs +-w, 60 of its 100 nonzero
    # elements pass the fixed-point prefilter, 30 in each half, and -w
    # takes no norm of its own (normed too, they make 60; a sort that takes
    # each kept class's norm again adds 59)
    ctx = load_field(table.context("K51200").record)
    queries, muls, depth, norms = [], [0], [0], [0]
    solution_box = enumeration.solution_box
    mul = numberfield.Element.__mul__
    walk = obstruction.unit_square_reduce
    norm = numberfield.Element.norm

    def counted_box(ctx, bound, mode, ceiling):
        # one box per dominated-element list
        queries.append((bound.coords, bound.den, mode))
        return solution_box(ctx, bound, mode, ceiling)

    def counted_mul(a, b):
        muls[0] += depth[0] > 0
        return mul(a, b)

    def counted_norm(a):
        norms[0] += 1
        return norm(a)

    def counted_walk(a):
        depth[0] += 1
        try:
            return walk(a)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(enumeration, "solution_box", counted_box)
    monkeypatch.setattr(numberfield.Element, "__mul__", counted_mul)
    monkeypatch.setattr(obstruction, "unit_square_reduce", counted_walk)
    monkeypatch.setattr(numberfield.Element, "norm", counted_norm)
    assert obstruction_search(ctx, 40).is_valid
    assert len(queries) == 7 and len(set(queries)) == 7
    assert 0 < muls[0] <= 74
    assert 0 < norms[0] <= 30


def test_dual_box_volume_is_checked_before_the_last_list(ctx_q, fields_dir,
                                                         capsys):
    # <1, 1, 2> against 7: lists of 5, 5 and 7 candidates; with a ceiling
    # of 6 the volume 25 of the first two lists is refused before the third
    # list is built
    one, two = ctx_q.one, ctx_q.from_rational(2)
    seven = ctx_q.from_rational(7)
    assert dual_nonrepresentation(ctx_q, [one, one, two], seven, 175) \
        .candidate_counts == (5, 5, 7)
    with pytest.raises(BoxTooLarge, match="box volume 25 exceeds ceiling 6"):
        dual_nonrepresentation(ctx_q, [one, one, two], seven, 6)
    assert main(["dual", "--field", str(fields_dir / "q.json"), "--diag",
                 "1;1;2", "--gamma", "7", "--ceiling", "6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "box volume 25" in err
