"""Maximal real subfields of cyclotomic fields.

For k >= 3, the field generated by z_k + 1/z_k (z_k a primitive k-th root of
unity) is totally real of degree phi(k)/2, and its ring of integers is the
power order of that generator, so no external field table is needed: the
context is built directly from the halved cyclotomic polynomial.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from . import linalg, polys
from .enumeration import (DEFAULT_CEILING, QueryMode, dominated_elements,
                          is_indecomposable)
from .errors import MismatchAgainstFormula, UnsupportedK
from .numberfield import Element, FieldContext, FieldRecord, load_field


def mobius_phi(k: int) -> Tuple[int, int]:
    """(Mobius mu, Euler phi) of k, with phi(k) = sum(mu(n) k/n for n | k)."""
    mu = polys.mobius(k)
    return mu[k], sum(m * (k // n) for n, m in mu.items())


def prime_power_base(k: int) -> Optional[int]:
    """p when k = p^n with n >= 1, else None."""
    primes = list(polys.factorize(k)) if k >= 2 else []
    return primes[0] if len(primes) == 1 else None


class CycloInfo(NamedTuple):
    k: int
    phi: int
    mu: int
    minpoly_cos: Tuple[int, ...]
    field: FieldContext
    alpha: Element      # 2 + (z + 1/z)
    beta: Element       # 2 - (z + 1/z)


def cyclo_info(k: int) -> CycloInfo:
    if k < 3:
        raise UnsupportedK(f"k = {k} < 3")
    mu, phi = mobius_phi(k)
    pcos = polys.cos_minpoly(k)
    d = phi // 2
    # disc of the power order (which is the maximal order here); its trace
    # form is the Hankel matrix of power sums, Tr(t^i * t^j) = s_(i+j)
    s = polys.power_sums(pcos, 2 * d - 2)
    disc = linalg.det([[s[i + j] for j in range(d)] for i in range(d)])
    if disc.denominator != 1:
        raise RuntimeError(f"F{k}: power-order discriminant {disc}")
    basis = tuple((0,) * i + (1,) + (0,) * (d - 1 - i) for i in range(d))
    rec = FieldRecord(label=f"F{k}", degree=d, poly=tuple(pcos), basis=basis,
                      disc=int(disc), h=1, h_plus=1)
    ctx = load_field(rec)
    two = ctx.from_rational(2)
    alpha = two + ctx.gen
    beta = two - ctx.gen
    return CycloInfo(k, phi, mu, tuple(pcos), ctx, alpha, beta)


class AlphaBetaReport(NamedTuple):
    k: int
    degree: int
    mu: int
    norm_alpha: int
    norm_beta: int
    trace_alpha: int
    trace_beta: int
    alpha_indecomposable: Optional[bool]
    beta_indecomposable: Optional[bool]


def alpha_beta_verify(k: int) -> AlphaBetaReport:
    """Check the closed norm/trace formulas for 2 +- (z_k + 1/z_k).

    Norm of the plus element is p exactly when k = 2p^n; of the minus element
    exactly when k = p^n; traces are twice the degree plus/minus mu(k).  Both
    elements must be totally positive, and for degree > 2 indecomposable.
    Any failure raises MismatchAgainstFormula (the formulas are theorems, so
    a mismatch means an implementation bug).
    """
    info = cyclo_info(k)
    d = info.field.degree
    na, ta = info.alpha.norm(), info.alpha.trace()
    nb, tb = info.beta.norm(), info.beta.trace()
    p_half = prime_power_base(k // 2) if k % 2 == 0 else None
    expected_na = p_half if p_half is not None else 1
    p_full = prime_power_base(k)
    expected_nb = p_full if p_full is not None else 1
    if na != expected_na:
        raise MismatchAgainstFormula(f"k={k}: N(alpha) = {na} != {expected_na}")
    if nb != expected_nb:
        raise MismatchAgainstFormula(f"k={k}: N(beta) = {nb} != {expected_nb}")
    if ta != 2 * d + info.mu:
        raise MismatchAgainstFormula(f"k={k}: Tr(alpha) = {ta} != {2*d+info.mu}")
    if tb != 2 * d - info.mu:
        raise MismatchAgainstFormula(f"k={k}: Tr(beta) = {tb} != {2*d-info.mu}")
    if not info.alpha.is_totally_positive() or not info.beta.is_totally_positive():
        raise MismatchAgainstFormula(f"k={k}: alpha or beta not totally positive")
    ia = ib = None
    if d > 2:
        ia = bool(is_indecomposable(info.alpha))
        ib = bool(is_indecomposable(info.beta))
        if not (ia and ib):
            raise MismatchAgainstFormula(f"k={k}: expected indecomposable")
    return AlphaBetaReport(k, d, info.mu, int(na), int(nb), int(ta), int(tb),
                           ia, ib)


def subfield_test(field: FieldContext, k: int,
                  ceiling: int = DEFAULT_CEILING) -> Optional[Element]:
    """A root in `field` of the minimal polynomial of z_k + 1/z_k, or None.

    Every conjugate of the generator lies strictly between -2 and 2, so the
    complete candidate set is the dominated enumeration against 4; each
    candidate is tested by exact polynomial evaluation.
    """
    if k < 3:
        raise UnsupportedK(f"k = {k} < 3")
    _, phi = mobius_phi(k)
    if field.degree % (phi // 2) != 0:
        return None
    pcos = polys.cos_minpoly(k)
    four = field.from_rational(4)
    for w in dominated_elements(field, four, QueryMode.SQUARE_DOMINATED,
                                ceiling):
        acc = field.zero
        for c in reversed(pcos):
            acc = acc * w + field.from_rational(c)
        if acc.is_zero:
            return w
    return None
