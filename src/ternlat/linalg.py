"""Exact linear algebra over Q, over small matrices of any commutative ring
and over Euclidean rings, plus a verified inverse of interval matrices.

One elimination per kind of problem: fraction-free Bareiss (`_bareiss`)
for every exact square system (`adjugate_solve`), for the approximate
midpoint inverse of the verified interval inverse (`midpoint_inverse`) and
for the Gram-Schmidt data of the integral LLL (`lll`), `euclid_rows` for
echelons over Euclidean rings, and Laplace expansion (`ring_det`) for
determinants over any commutative ring.  Bareiss keeps a symmetric matrix
symmetric until a zero pivot, so on trace forms and Gram matrices it
updates one triangle: the same result for half the products.

Matrices are lists of rows.  Everything here is dense and intended for the
small dimensions that occur in number-field work (d <= ~32).  Nothing here
computes in floating point: the interval inverse certifies its integer
approximate inverse in exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .intervals import Numerators, fixed_point_ends
from .polys import clear_denominators

Mat = List[List[Fraction]]

# _midrad rounds interval matrices outward to multiples of 2^-_INVERSE_BITS
_INVERSE_BITS = 64


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


def transpose(a: Sequence[Sequence]) -> Mat:
    return [list(col) for col in zip(*a)]


def _bareiss(m: List[List[int]]) -> int:
    """Fraction-free Bareiss elimination (*Math. Comp.* 22, 1968; Cohen,
    GTM 138, section 2.2) of the integer rows m in place, over their first
    len(m) columns; returns the sign of the row swaps, or 0 when a column
    has no pivot.  Every division is exact, by the previous pivot.  When no
    row is swapped, m[i][i] is the leading principal minor of order i + 1
    and m[i][j], j > i, the minor on rows 0..i and columns 0..i-1, j.

    Those minors are symmetric in (i, j) when the square part of m is, so
    while it is and no pivot is zero, row i > k updates only its entries j
    >= i and the extra columns, with multiplier m[k][i] = m[i][k]: half the
    products.  The stale entries below the diagonal are zeroed by the step
    of their column, so m ends the same.  A zero pivot first copies the
    trailing block's upper triangle into its lower one, then swaps."""
    n = len(m)
    sym = all(m[i][j] == m[j][i] for i in range(n) for j in range(i))
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            if sym:
                for i in range(k + 1, n):
                    m[i][k:i] = [m[j][i] for j in range(k, i)]
                sym = False
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is None:
                return 0
            m[k], m[r], sign = m[r], m[k], -sign
        pivot_row, pivot = m[k], m[k][k]
        for i in range(k + 1, n):
            row = m[i]
            c = pivot_row[i] if sym else row[k]
            for j in range(i if sym else k + 1, len(row)):
                row[j] = (row[j] * pivot - c * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return sign


def adjugate_solve(a: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]
                   ) -> Tuple[int, List[List[int]]]:
    """det(a) and adj(a) c for each integer column c, for square integer
    a: one `_bareiss` elimination of [a | cols], then back substitution
    scaled by det(a), whose divisions give entries of adj(a) c exactly.  A
    singular a gives det 0 and no columns."""
    n = len(a)
    m = [list(map(int, row)) + [int(c[i]) for c in cols]
         for i, row in enumerate(a)]
    det = _bareiss(m) * (m[n - 1][n - 1] if n else 1)
    if not det:
        return 0, []
    out = []
    for c in range(n, n + len(cols)):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            x[i] = (det * row[c] - sum(map(mul, row[i + 1:n], x[i + 1:]))
                    ) // row[i]
        out.append(x)
    return det, out


def det_int(a: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix: `adjugate_solve` with no columns."""
    return adjugate_solve(a, ())[0]


def det(a: Sequence[Sequence]) -> Fraction:
    """Determinant over Q.

    The n x n matrix is put over the least common denominator den of all
    its entries, so a symmetric one stays symmetric for `_bareiss`, and the
    integer matrix goes to `det_int`, the one Bareiss routine; the result is
    that determinant over den^n.
    """
    n = len(a)
    nums, den = clear_denominators([x for row in a for x in row])
    return Fraction(det_int([nums[i * n:i * n + n] for i in range(n)]),
                    den ** n)


def lll(gram: Sequence[Sequence[int]]) -> List[List[int]]:
    """A unimodular integer U with U gram U^T LLL-reduced for delta = 3/4
    (Lenstra, Lenstra and Lovasz, *Math. Ann.* 261, 1982), gram a positive
    definite symmetric integer matrix: integral LLL (Cohen, GTM 138,
    Algorithm 2.6.7).  Row i of U holds b_i in the input basis.

    Each step reads the Gram-Schmidt data of b_0..b_k afresh off one
    `_bareiss` elimination m of their Gram matrix: d_j = m[j][j] and
    lambda_kj = m[j][k] = d_j mu_kj.  b_k is size-reduced against
    b_(k-1), ..., b_0 by q = floor(mu_kj + 1/2), which changes only rows
    0..j of column k.  The Lovasz condition d_k / d_(k-1) >= (3/4 - mu^2)
    d_(k-1) / d_(k-2), mu = mu_k,k-1 and d_(-1) = 1, taken times
    4 d_(k-1) d_(k-2), moves on to k + 1, or else b_k and b_(k-1) swap.
    Raises RuntimeError after 10000 steps.
    """
    n = len(gram)
    g = [list(map(int, row)) for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    k = 1
    steps = 0
    while k < n:
        steps += 1
        if steps > 10000:
            raise RuntimeError("LLL did not finish in 10000 steps")
        # g is symmetric, so its rows are its columns
        ug = [[sum(map(mul, row, col)) for col in g] for row in u[:k + 1]]
        m = [[sum(map(mul, a, b)) for b in u[:k + 1]] for a in ug]
        _bareiss(m)
        for j in range(k - 1, -1, -1):
            q = (2 * m[j][k] + m[j][j]) // (2 * m[j][j])
            if q:
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                for i in range(j + 1):
                    m[i][k] -= q * m[i][j]
        d2 = m[k - 2][k - 2] if k > 1 else 1
        if 4 * m[k][k] * d2 >= 3 * m[k - 1][k - 1] ** 2 - 4 * m[k - 1][k] ** 2:
            k += 1
        else:
            u[k], u[k - 1] = u[k - 1], u[k]
            k = max(k - 1, 1)
    return u


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


def euclid_rows(rows: Sequence[Sequence], quotient, size) -> List[list]:
    """Independent rows spanning the module of `rows` over a Euclidean ring
    (ints or field elements), in echelon form.

    Per column, the rows nonzero there are reduced by the one of least
    `size`, r - quotient(r, pivot) * pivot, until one is left: the pivot row
    of that column.  The rows that are zero there go on to the next column.
    """
    rows = [list(r) for r in rows if any(r)]
    basis, col = [], 0
    while rows:
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: size(r[col]))
            piv = live[0]
            nxt = [piv]
            for r in live[1:]:
                q = quotient(r[col], piv[col])
                red = [x - q * y for x, y in zip(r, piv)]
                (nxt if red[col] else rows).append(red)
            live = nxt
        basis += live
        rows = [r for r in rows if any(r)]
        col += 1
    return basis


def _midrad(a: Sequence[Numerators]) -> Tuple[List[List[int]],
                                              List[List[int]]]:
    """Integer (M, D) with each entry of a in [M - D, M + D] / 2^s, s =
    _INVERSE_BITS + 1: its ends rounded outward by `fixed_point_ends`."""
    los, his = fixed_point_ends(a, _INVERSE_BITS)
    return ([[x + y for x, y in zip(lo, hi)] for lo, hi in zip(los, his)],
            [[y - x for x, y in zip(lo, hi)] for lo, hi in zip(los, his)])


class ApproximateInverse(NamedTuple):
    """An approximate inverse R = r / 2^s of an interval matrix a, with the
    parts of its certificate that depend only on a and r: |r| by rows and
    by columns, and the (M, D) of `_midrad(a)` by columns."""
    r: List[List[int]]
    rabs: List[List[int]]
    rabs_t: List[List[int]]
    mid_t: List[List[int]]
    rad_t: List[List[int]]


def midpoint_inverse(a: Sequence[Numerators]) -> Optional[ApproximateInverse]:
    """R = round(2^(2s) adj(M) / det(M)) for (M, D) of `_midrad(a)`, so
    that R / 2^s is (M / 2^s)^-1 rounded to 2^-s, from one `adjugate_solve`;
    None when det(M) = 0.  `interval_inverse` certifies it."""
    mids, rads = _midrad(a)
    n = len(mids)
    det, cols = adjugate_solve(mids, [[int(i == j) for i in range(n)]
                                      for j in range(n)])
    if not det:
        return None
    # round(x / det) = floor((2x + det) / (2 det)) for x = adj 2^(2s)
    shift = 2 * (_INVERSE_BITS + 1) + 1
    r = [[((col[i] << shift) + det) // (2 * det) for col in cols]
         for i in range(n)]
    rabs = [[abs(x) for x in row] for row in r]
    return ApproximateInverse(r, rabs, transpose(rabs), transpose(mids),
                              transpose(rads))


def interval_inverse(approx: Optional[ApproximateInverse]
                     ) -> Optional[List[Numerators]]:
    """Verified inverse of an interval matrix in midpoint-radius form
    (Rump, "Verification methods", Acta Numerica 19, 2010).

    The matrix a comes as the integer midpoint M and radius D of its
    outward rounding [M - D, M + D] / 2^s, with an approximate inverse R =
    r / 2^s (`ApproximateInverse`); any integer r serves, and
    `midpoint_inverse(a)` builds the one to pass.  For every point matrix E
    inside a, |I - R E| <= G = |I - R M / 2^s| + |R| D / 2^s entrywise, and
    G is computed exactly in integers on every call.  If beta = ||G||_inf <
    1, every such E is invertible and E^-1 = sum_k (I - R E)^k R, whence
    |E^-1 - R| <= G |R| + z (G 1) 1^T with z = max(G |R|) / (1 - beta).
    The result is R plus or minus that bound, rounded outward to 2^-s, one
    row (lows, highs, 2^s) of `Numerators` per row of the inverse.

    None when approx is None (a singular midpoint) or beta >= 1: the caller
    should tighten the enclosures and retry.  r decides only whether beta
    < 1 and how tight the result is, never whether it encloses each E^-1.
    """
    if approx is None:
        return None
    r, rabs, rabs_t, mid_t, rad_t = approx
    n = len(r)
    s = _INVERSE_BITS + 1
    # G = gn / 2^u with u = 2s; beta < 1 iff every row sum of gn is < 2^u
    u = 2 * s
    one = 1 << u
    gn = [[abs((one if i == j else 0) - sum(map(mul, r[i], mid_t[j])))
           + sum(map(mul, rabs[i], rad_t[j])) for j in range(n)]
          for i in range(n)]
    rowsums = [sum(row) for row in gn]
    beta = max(rowsums)
    if beta >= one:
        return None
    # G |R| = k / 2^(u+s); radius = (k (2^u - beta) + max(k) * rowsum) /
    # (2^(u+s) (2^u - beta)), times 2^s and rounded up to an integer
    k = [[sum(map(mul, row, col)) for col in rabs_t] for row in gn]
    kmax = max(map(max, k))
    slack = one - beta
    den = one * slack
    out = []
    for rrow, krow, g in zip(r, k, rowsums):
        radii = [-(-(kij * slack + kmax * g) // den) for kij in krow]
        out.append(([x - e for x, e in zip(rrow, radii)],
                    [x + e for x, e in zip(rrow, radii)], 1 << s))
    return out
