from fractions import Fraction as F

import pytest

from conftest import cell_interval, eval_one, ref_eval_at
from ternlat import linalg, polys
from ternlat.cyclotomic import (alpha_beta_verify, cyclo_info, mobius_phi,
                                prime_power_base, subfield_test)
from ternlat.errors import UnsupportedK
from ternlat.numberfield import FieldContext


def test_mobius_phi():
    assert mobius_phi(12) == (0, 4)
    assert mobius_phi(5) == (-1, 4)
    assert mobius_phi(30) == (-1, 8)
    assert mobius_phi(1) == (1, 1)
    assert mobius_phi(8) == (0, 4)


def test_mobius_phi_against_trial_division():
    for k in range(1, 2001):
        # mu and phi from a factorisation of k by trial division
        mu, phi, n, p = 1, 1, k, 2
        while n > 1:
            if p * p > n:
                p = n
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            if e:
                mu = 0 if e > 1 else -mu
                phi *= (p - 1) * p ** (e - 1)
            p += 1
        assert mobius_phi(k) == (mu, phi), k


def test_prime_power_base():
    assert prime_power_base(9) == 3
    assert prime_power_base(8) == 2
    assert prime_power_base(12) is None
    assert prime_power_base(7) == 7


def test_cyclo_info_small():
    info8 = cyclo_info(8)
    assert info8.minpoly_cos == (-2, 0, 1)
    assert info8.field.degree == 2
    info5 = cyclo_info(5)
    assert info5.minpoly_cos == (-1, 1, 1)
    info12 = cyclo_info(12)
    assert info12.minpoly_cos == (-3, 0, 1)
    assert polys.cyclotomic(12) == [1, 0, -1, 0, 1]


def test_cyclo_rejects_small_k():
    with pytest.raises(UnsupportedK):
        cyclo_info(2)


def test_alpha_beta_structure():
    info = cyclo_info(7)
    assert info.alpha + info.beta == info.field.from_rational(4)
    assert info.alpha - info.beta == 2 * info.field.gen
    assert info.alpha.is_totally_positive()
    assert info.beta.is_totally_positive()


def test_alpha_beta_numbers():
    r9 = alpha_beta_verify(9)
    assert (r9.norm_alpha, r9.norm_beta) == (1, 3)
    r14 = alpha_beta_verify(14)
    assert r14.norm_alpha == 7
    r5 = alpha_beta_verify(5)
    assert r5.trace_alpha == 3
    r12 = alpha_beta_verify(12)
    assert r12.trace_alpha == 4       # twice the degree, mu(12) = 0


def test_alpha_beta_sweep_refines_no_root_below_1_256(monkeypatch):
    # every sign question of the sweep is decided by the table at root
    # width 1/256 that a lone comparison reads first, so each context
    # refines its roots once, and never to the 2^-32 of the full table
    widths = []
    refine_roots = FieldContext.refine_roots
    monkeypatch.setattr(FieldContext, "refine_roots", lambda ctx, w: (
        widths.append(F(w)), refine_roots(ctx, w))[1])
    for k in range(3, 61):
        alpha_beta_verify(k)
    assert len(widths) == 58 and min(widths) == F(1, 256)


def test_cos_minpoly_straddles_its_root():
    # the largest root of the halved polynomial encloses 2cos(2pi/k)
    import math
    for k in (7, 9, 16, 30):
        p = polys.cos_minpoly(k)
        roots = map(cell_interval, polys.isolate_real_roots(p))
        top = max(roots, key=lambda iv: iv.hi)
        target = 2 * math.cos(2 * math.pi / k)
        assert float(top.lo) - 1e-9 <= target <= float(top.hi) + 1e-9
        val = eval_one(p, top)
        assert val.lo <= 0 <= val.hi


def test_cyclotomic_values_at_units():
    # constant-term facts behind the norm formulas
    for k in range(2, 40):
        phi_at_1 = ref_eval_at(polys.cyclotomic(k), 1)
        p = prime_power_base(k)
        assert phi_at_1 == (p if p is not None else 1)


def test_subfield_tests(ctx_sqrt2, table):
    w = subfield_test(ctx_sqrt2, 8)
    assert w is not None and w * w == ctx_sqrt2.from_rational(2)
    assert subfield_test(ctx_sqrt2, 5) is None
    k1600 = table.context("K1600")
    w5 = subfield_test(k1600, 5)
    assert w5 is not None
    # root of x^2 + x - 1
    assert w5 * w5 + w5 - k1600.one == k1600.zero
    # self containment
    info = cyclo_info(20)
    assert subfield_test(info.field, 20) is not None


def test_generator_house_below_two():
    from fractions import Fraction as F
    info = cyclo_info(7)
    ivs = info.field.embeddings(info.field.gen, F(1, 1000))
    assert max(max(-iv.lo, iv.hi) for iv in ivs) < 2


def test_cyclotomic_value_at_minus_one():
    # constant-term fact behind the norm formula for the plus element
    for k in range(3, 40):
        phi_at_m1 = ref_eval_at(polys.cyclotomic(k), -1)
        p = prime_power_base(k // 2) if k % 2 == 0 else None
        expected = p if (k % 2 == 0 and p is not None) else 1
        assert phi_at_m1 == expected


def test_subfield_detects_own_generator(table):
    # the degree-4 field generated by sqrt(2+sqrt2) is the k=16 real
    # cyclotomic field; its generator must be found inside itself
    ctx = table.context("K2048")
    w = subfield_test(ctx, 16)
    assert w is not None
    acc = ctx.zero
    for c in reversed(polys.cos_minpoly(16)):
        acc = acc * w + ctx.from_rational(c)
    assert acc.is_zero
    # the k=20 real cyclotomic field has the same degree but is a
    # different field
    assert subfield_test(table.context("K1600"), 20) is None


def _is_prime(n):
    return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_prime_cyclotomic_discriminants():
    # disc of the maximal real subfield of Q(zeta_p) is p^((p-3)/2)
    for p in filter(_is_prime, range(5, 60)):
        assert cyclo_info(p).field.record.disc == p ** ((p - 3) // 2)


def test_discriminants_match_trace_form_of_mult_table():
    # Tr(b_k) is the trace of multiplication by b_k, read off the table, and
    # Tr(b_i b_j) = sum_k t_ijk Tr(b_k); no power sums are involved
    for k in range(3, 61):
        ctx = cyclo_info(k).field
        t, d = ctx.mult_table, ctx.degree
        tr = [sum(t[m][i][i] for i in range(d)) for m in range(d)]
        gram = [[sum(c * tr[m] for m, c in enumerate(t[i][j]))
                 for j in range(d)] for i in range(d)]
        assert ctx.record.disc == linalg.det_int(gram), k
