"""Exact linear algebra over Q, plus interval-matrix inversion.

Matrices are lists of rows.  Everything here is dense and intended for the
small dimensions that occur in number-field work (d <= ~32).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import List, Optional, Sequence

from .intervals import Interval
from .polys import clear_denominators

Mat = List[List[Fraction]]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            c = ai[t]
            if c == 0:
                continue
            bt = b[t]
            row = out[i]
            for j in range(m):
                row[j] += c * bt[j]
    return out


def mat_vec(a: Sequence[Sequence], v: Sequence) -> List[Fraction]:
    return [sum((Fraction(c) * Fraction(x) for c, x in zip(row, v)),
                Fraction(0)) for row in a]


def transpose(a: Sequence[Sequence]) -> Mat:
    return [list(col) for col in zip(*a)]


def det_int(a: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = len(a)
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det(a: Sequence[Sequence]) -> Fraction:
    """Determinant over Q.

    Each row is put over the least common denominator of its entries and the
    integer matrix goes to `det_int`, the one Bareiss routine; the result is
    that determinant over the product of the row denominators.
    """
    rows = [clear_denominators(row) for row in a]
    return Fraction(det_int([nums for nums, _ in rows]),
                    prod(den for _, den in rows))


def solve(a: Sequence[Sequence], b: Sequence) -> List[Fraction]:
    """Solve a x = b for square invertible a."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[k], m[piv] = m[piv], m[k]
        pk = m[k][k]
        m[k] = [x / pk for x in m[k]]
        for r in range(n):
            if r != k and m[r][k] != 0:
                c = m[r][k]
                m[r] = [x - c * y for x, y in zip(m[r], m[k])]
    return [m[i][n] for i in range(n)]


def inverse(a: Sequence[Sequence]) -> Optional[Mat]:
    """Inverse by Gauss-Jordan, or None if singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        pk = m[k][k]
        m[k] = [x / pk for x in m[k]]
        for r in range(n):
            if r != k and m[r][k] != 0:
                c = m[r][k]
                m[r] = [x - c * y for x, y in zip(m[r], m[k])]
    return [row[n:] for row in m]


def charpoly(a: Sequence[Sequence]) -> List[Fraction]:
    """Characteristic polynomial det(xI - a), ascending coefficients.

    Faddeev-LeVerrier; exact over Q.  The result is monic of degree n.
    """
    n = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        if k < n:
            m = [[am[i][j] + (c if i == j else 0) for j in range(n)]
                 for i in range(n)]
    return coeffs


def interval_inverse(a: Sequence[Sequence[Interval]]) -> Optional[List[List[Interval]]]:
    """Inverse of an interval matrix by Gauss-Jordan.

    Returns None when some pivot interval straddles zero, in which case the
    caller should tighten the input enclosures and retry.  The result
    encloses E^-1 for every point matrix E inside the input.
    """
    n = len(a)
    one = Interval.point(1)
    zero = Interval.point(0)
    m = [[a[i][j] for j in range(n)] + [one if i == j else zero for j in range(n)]
         for i in range(n)]
    for k in range(n):
        piv = None
        for r in range(k, n):
            if not m[r][k].contains_zero():
                piv = r
                break
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        pk = m[k][k]
        m[k] = [x / pk for x in m[k]]
        for r in range(n):
            if r != k:
                c = m[r][k]
                if c.lo == 0 and c.hi == 0:
                    continue
                m[r] = [x - c * y for x, y in zip(m[r], m[k])]
    return [row[n:] for row in m]
