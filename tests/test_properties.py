"""Oracle-backed randomized suites and hypothesis property tests.

The randomized suites use a fixed seed so the counts are stable; the oracle
implementations are deliberately naive (trace-form boxes, double loops) and
independent of the certified box machinery they check.
"""

import math
import random
from fractions import Fraction as F
from operator import mul

from hypothesis import given, settings, strategies as st

from conftest import ellipsoid_radii, gram_inverse_dual, trace_form
from ternlat.enumeration import QueryMode, dominated_elements
from ternlat.numberfield import Dominance, Element, sqrt2_context
from ternlat.obstruction import (obstruction_certificate,
                                 revalidate_certificate, square_class_reduce)
from ternlat.quadlattice import GramMatrix


# ---------------------------------------------------------------------------
# criterion-style randomized suites

def naive_dominated(ctx, bound, mode):
    """Double-loop oracle over the trace-form box (quadratic fields).

    Every solution w has Tr(w^2) <= T, with T = Tr(bound) in square mode and
    T = Tr(bound^2) in interval mode, so it lies in the exact box of the
    ellipsoid w^T Q w <= T of the trace form Q.
    """
    top = bound if mode is QueryMode.SQUARE_DOMINATED else bound * bound
    tr, q = trace_form(ctx.mult_table)
    cx, cy = ellipsoid_radii(q, F(sum(map(mul, top.coords, tr)), top.den))
    out = []
    for x in range(-cx, cx + 1):
        for y in range(-cy, cy + 1):
            w = ctx.element([x, y])
            if mode is QueryMode.SQUARE_DOMINATED:
                ok = (bound - w * w).is_totally_nonnegative()
            else:
                ok = w.is_totally_nonnegative() and \
                    (bound - w).is_totally_nonnegative()
            if ok:
                out.append(w)
    return sorted(out, key=Element.key)


def run_enumeration_oracle_suite(fields, count=50):
    rng = random.Random(20260810)
    done = 0
    while done < count:
        ctx = fields[rng.randrange(len(fields))]
        a = rng.randint(1, 8)
        b = rng.randint(-4, 4)
        bound = ctx.element([a, b])
        if not bound.is_totally_positive():
            continue
        mode = QueryMode.SQUARE_DOMINATED if rng.random() < 0.7 \
            else QueryMode.INTERVAL
        fast = dominated_elements(ctx, bound, mode)
        slow = naive_dominated(ctx, bound, mode)
        assert fast == slow, (ctx.record.label, bound.coords, mode)
        done += 1
    return done


def test_enumeration_vs_naive_oracle(ctx_sqrt2, ctx_sqrt3, ctx_sqrt5):
    run_enumeration_oracle_suite([ctx_sqrt2, ctx_sqrt3, ctx_sqrt5])


def random_pd_gram(ctx, rng, n=3):
    while True:
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    e = ctx.element([rng.randint(1, 4), rng.randint(-1, 1)])
                else:
                    e = ctx.element([rng.randint(-1, 1), 0])
                entries[i][j] = entries[j][i] = e
        g = GramMatrix(entries)
        # totally positive definite: every leading principal minor is
        # totally positive
        if all(g.principal_minor(range(k)).is_totally_positive()
               for k in range(1, n + 1)):
            return g


def run_dual_of_dual_suite(ctx, count=20):
    rng = random.Random(7)
    for _ in range(count):
        g = random_pd_gram(ctx, rng, n=rng.choice([2, 3]))
        assert gram_inverse_dual(gram_inverse_dual(g)) == g
    return count


def test_dual_of_dual(ctx_sqrt2):
    run_dual_of_dual_suite(ctx_sqrt2)


def run_norm_trace_suite(contexts, count=200):
    rng = random.Random(99)
    for i in range(count):
        ctx = contexts[i % len(contexts)]
        d = ctx.degree
        a = ctx.element([rng.randint(-9, 9) for _ in range(d)],
                        rng.randint(1, 3))
        b = ctx.element([rng.randint(-9, 9) for _ in range(d)],
                        rng.randint(1, 3))
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a + b).trace() == a.trace() + b.trace()
    return count


def test_norm_multiplicativity_and_trace_additivity(ctx_sqrt2, table):
    run_norm_trace_suite([ctx_sqrt2, table.context("K2048")])


def run_square_class_suite(ctx, count=20):
    """`square_class_reduce` round trips over Q(sqrt2): x = r scale^2 with
    r totally positive, x the totally positive associate of a random y or,
    every other time, y^2, whose r must be 1 (the search is complete over
    Q(sqrt2))."""
    rng = random.Random(4242)
    done = 0
    while done < count:
        y = ctx.element([rng.randint(-6, 6), rng.randint(-4, 4)])
        if y.is_zero:
            continue
        square = done % 2 == 1
        x = y * y if square else ctx.totally_positive_associate(y)[1]
        r, scale = square_class_reduce(x)
        assert r * scale * scale == x and r.is_totally_positive(), x
        assert r == ctx.one or not square, x
        done += 1
    return done


def test_square_class_roundtrip(ctx_sqrt2):
    run_square_class_suite(ctx_sqrt2)


def run_certificate_suite(table):
    from ternlat.enumeration import elements_of_norm
    ctx = table.context("K2624")
    lam = 2 + ctx.sqrt2
    p7s = elements_of_norm(ctx, 7, F(6), totally_positive=True)
    cert = obstruction_certificate(ctx, [ctx.one, lam, p7s[0]], p7s[-1])
    assert cert.is_valid
    assert revalidate_certificate(ctx, cert.to_dict())
    # an invalid certificate must also revalidate to its recorded status
    ctx2 = table.context("K1600")
    bad = obstruction_certificate(
        ctx2, [ctx2.one, ctx2.one, 2 + ctx2.sqrt2], ctx2.from_rational(3))
    assert not bad.is_valid
    assert revalidate_certificate(ctx2, bad.to_dict())
    return 2


def test_certificates_revalidate(table):
    run_certificate_suite(table)


# ---------------------------------------------------------------------------
# hypothesis invariants

CTX = sqrt2_context()


def elements(max_coord=30, max_den=4):
    return st.builds(
        lambda c0, c1, d: CTX.element([c0, c1], d),
        st.integers(-max_coord, max_coord),
        st.integers(-max_coord, max_coord),
        st.integers(1, max_den))


@given(elements(), elements())
@settings(max_examples=80, deadline=None)
def test_canonical_form(a, b):
    for r in (a + b, a - b, a * b):
        g = math.gcd(r.den, math.gcd(*(abs(c) for c in r.coords))
                     if any(r.coords) else r.den)
        assert g == 1
        assert r.den >= 1


@given(elements(), elements())
@settings(max_examples=80, deadline=None)
def test_division_roundtrip(a, b):
    if b.is_zero:
        return
    assert (a * b) / b == a


@given(elements())
@settings(max_examples=60, deadline=None)
def test_embedding_consistency(a):
    prec = F(1, 256)
    ivs = CTX.embeddings(a, prec)
    d = CTX.degree
    mid_sum = sum(iv.mid for iv in ivs)
    assert abs(mid_sum - a.trace()) <= d * prec
    mid_prod = 1
    for iv in ivs:
        mid_prod *= iv.mid
    bound_hull = max(abs(float(iv.lo)) + 1 for iv in ivs) ** (d - 1)
    assert abs(float(mid_prod - a.norm())) <= d * float(prec) * bound_hull


@given(elements(), elements())
@settings(max_examples=80, deadline=None)
def test_compare_agrees_with_disjoint_intervals(a, b):
    verdict = a.compare(b)
    iva = CTX.embeddings(a, F(1, 2 ** 20))
    ivb = CTX.embeddings(b, F(1, 2 ** 20))
    if all(x.hi < y.lo for x, y in zip(iva, ivb)):
        assert verdict is Dominance.LT
    if all(x.lo > y.hi for x, y in zip(iva, ivb)):
        assert verdict is Dominance.GT


@given(elements(max_coord=3, max_den=1), elements(max_coord=3, max_den=1))
@settings(max_examples=40, deadline=None)
def test_norm_is_multiplicative_hypothesis(a, b):
    assert (a * b).norm() == a.norm() * b.norm()
