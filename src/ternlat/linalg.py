"""Exact linear algebra over Q and over small matrices of any commutative
ring, plus interval-matrix inversion.

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


def row_reduce(m: Mat, ncols: int) -> List[int]:
    """Gauss-Jordan elimination of m in place over its first ncols columns.

    The pivot of each column is its first nonzero entry at or below the
    current row; pivot rows are scaled to 1 and the column is cleared in
    every other row.  Returns the pivot columns; pivot k sits in row k.
    """
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pk = m[r][c]
        m[r] = [x / pk for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def solve(a: Sequence[Sequence], b: Sequence) -> List[Fraction]:
    """Solve a x = b for square invertible a."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    if len(row_reduce(m, n)) < n:
        raise ValueError("singular matrix")
    return [m[i][n] for i in range(n)]


def inverse(a: Sequence[Sequence]) -> Optional[Mat]:
    """Inverse by Gauss-Jordan, or None if singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    if len(row_reduce(m, n)) < n:
        return None
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


# ---------------------------------------------------------------------------
# any commutative ring: ints, Fractions, field elements, `polys.MPoly`
# (zero is the only entry whose truth value is False)

def ring_det(m: Sequence[Sequence]):
    """Determinant by Laplace expansion along the first row, skipping zero
    entries; n! terms, so only for the small matrices of lattice work.  The
    empty matrix has determinant 1."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = m[0][0] - m[0][0]
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = m[0][j] * ring_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def ring_adjugate(m: Sequence[Sequence]) -> List[list]:
    """Adjugate (transposed cofactor matrix), with cofactors by `ring_det`;
    m * adj = det(m) * identity."""
    n = len(m)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = ring_det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def ring_bilinear(u: Sequence, g: Sequence[Sequence], v: Sequence):
    """u^T g v, skipping zero coordinates of u and v."""
    terms = [ui * g[i][j] * vj for i, ui in enumerate(u) if ui
             for j, vj in enumerate(v) if vj]
    return sum(terms[1:], terms[0]) if terms else g[0][0] - g[0][0]


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
