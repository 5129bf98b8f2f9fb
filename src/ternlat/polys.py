"""Dense univariate polynomials over Q with Sturm-based real root isolation.

Polynomials are lists of coefficients in ascending order (constant term
first), matching the on-disk field format.  Coefficients are ints or
Fractions; arithmetic promotes as needed.

Evaluation (`eval_interval`), division (`divmod_poly`), resultants, root
isolation and refinement (`isolate_real_roots`, `refine_root`),
`cyclotomic` and `cos_minpoly` run on integers: the coefficients are put
over their least common denominator (integer coefficients are taken as
they are), the point or both interval endpoints over one denominator,
and a `Fraction` is built only for a result, which is exactly what
`Fraction` arithmetic gives; `eval_interval` builds none, and returns
integer endpoint numerators for a whole set of polynomials, the basis
rows of a field, at once, by sign case, a power basis on a cell of one
sign by running products of its ends, and, over a power-of-two
denominator (every root of a monic polynomial), by shifts.  `divmod_poly`,
`resultant` and `gcd_int` share one integer pseudo-division, `_prem`.

A Sturm chain is evaluated by the recurrence that builds it: the exact
values of Horner on every member, at O(d) products per point, not O(d^2).

`refine_root` returns bisection's cell, the one cell of its level whose
endpoint signs are those of the isolating interval, from secant proposals
on the same grid: a cell is accepted only when the integer signs at both
of its ends confirm it, and a failed proposal halves the step, down to a
plain bisection step.  A root is a `RootCell`, integer ends with the
values there: isolation hands on its Sturm values, and refinement
evaluates only missing ones and resumes from the cell it reached (dyadic
cells nest, so the result is the same).

`MPoly` is the one sparse multivariate polynomial type, over any
commutative ring, for the symbolic determinant and identity checks.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .intervals import Numerators

Coeff = Union[int, Fraction]
Poly = List[Coeff]


def trim(p: Sequence[Coeff]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Sequence[Coeff]) -> int:
    p = trim(p)
    return len(p) - 1 if p else -1


def mul(p: Sequence[Coeff], q: Sequence[Coeff]) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def diff(p: Sequence[Coeff]) -> Poly:
    return trim([i * p[i] for i in range(1, len(p))])


def clear_denominators(p: Sequence[Coeff]) -> Tuple[List[int], int]:
    """Integer numerators of p over the least positive common denominator."""
    if set(map(type, p)) <= {int}:
        return list(p), 1
    den = 1
    for c in p:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in p], den


def power_sums(p: Sequence[int], upto: int) -> List[int]:
    """Power sums s_0..s_upto of the roots of monic integer p (Newton)."""
    d = len(p) - 1
    sums = [d]
    for m in range(1, upto + 1):
        s = -sum(p[d - i] * sums[m - i] for i in range(1, min(m - 1, d) + 1))
        if m <= d:
            s -= m * p[d - m]
        sums.append(s)
    return sums


def _horner(nums: Sequence[int], a: int, b: int) -> int:
    """b^(len(nums) - 1) * p(a/b) for the integer coefficients nums of p.
    A power of two b, as at every isolation and refinement point of a
    monic polynomial, costs shifts in place of products."""
    acc = 0
    if b & (b - 1):
        bpow = 1
        for c in reversed(nums):
            acc = acc * a + c * bpow
            bpow *= b
        return acc
    s, shift = b.bit_length() - 1, 0
    for c in reversed(nums):
        acc = acc * a + (c << shift)
        shift += s
    return acc


class RootCell(NamedTuple):
    """A root of p in [a/b, e/b], a <= e, b > 0 (a == e: an exact root), and
    fa, fe = b^n P there, P = `primitive_int`(p) of degree n, or None where
    not evaluated yet; k is the secant step `refine_root` resumes with."""
    a: int
    e: int
    b: int
    fa: Optional[int] = None
    fe: Optional[int] = None
    k: int = 1

    def wider(self, wn: int, wd: int) -> bool:
        """Whether the cell is wider than wn / wd."""
        return (self.e - self.a) * wd > wn * self.b

    def straddles(self, g: Sequence[int]) -> bool:
        """Whether g(a/b) g(e/b) <= 0, for integer g: for g dividing the
        squarefree p, whether the cell's root is a root of g."""
        return _horner(g, self.a, self.b) * _horner(g, self.e, self.b) <= 0


def horner_rows(ps: Sequence[Sequence[Coeff]]
                ) -> Tuple[List[List[int]], List[int], int]:
    """(rows, src, den), the input of `eval_interval`: the polynomials ps
    trimmed, as integer numerators over their least common denominator
    den, and src[j] the index of an earlier one that ps[j] is t times, or
    -1."""
    ps = [trim(p) for p in ps]
    nums, den = clear_denominators([c for p in ps for c in p])
    it = iter(nums)
    rows = [[next(it) for _ in p] for p in ps]
    seen, src = {}, []
    for j, r in enumerate(rows):
        src.append(seen.get(tuple(r[1:]), -1) if r[:1] == [0] else -1)
        seen.setdefault(tuple(r), j)
    return rows, src, den


def eval_interval(rows: Sequence[Sequence[int]], src: Sequence[int],
                  den: int, cell: RootCell) -> Numerators:
    """The polynomials of `horner_rows` on the cell [a/b, e/b], as
    `Numerators`: Horner evaluation in rational interval arithmetic, on
    integers, with a, e and b divided by gcd(a, e, b).

    An accumulator after n steps is kept as integer endpoints [lo, hi]
    over den * b^(n-1), and a step is [lo, hi] [a, e] + c b^n.  With x- =
    x (a if x >= 0 else e) and x+ = x (e if x >= 0 else a), the product
    is [lo-, hi+] for 0 <= a and [hi-, lo+] for e <= 0 (Moore, Interval
    Analysis, 1966), and the min and max of all four endpoint products
    for a < 0 < e.  The Horner run
    of a row t times row src[j] is that row's run plus one step (by its
    constant 0), so it starts from that row's value: a power basis costs
    one step per row.  On a cell of one sign, the rows from some row j to
    the last, each t times the one before and row j - 1 with ends [lo, hi],
    0 < lo (a power basis from its row 1), take those steps as running
    products of the cell's ends: row j - 1 + q is [lo a^q, hi e^q] for
    0 < a and, for e < 0, with the ends alternating, [hi a^q, lo e^q] at
    odd q and [lo e^q, hi a^q] at even q.  A cell holding 0 takes every
    step.  All values end over den * b^(m-1), m the length of the longest
    row; b^k scales as a product, or as a shift by s k bits for b = 2^s.
    """
    g = gcd(cell.a, cell.e, cell.b)
    a, e, b = cell.a // g, cell.e // g, cell.b // g
    top = max(map(len, rows), default=0)
    s = b.bit_length() - 1
    up = operator.lshift if b == 1 << s else operator.mul
    bk = [s * k if up is operator.lshift else b ** k for k in range(top + 1)]
    vals = []
    for j, (r, i) in enumerate(zip(rows, src)):
        lo, hi, n = vals[i] if i >= 0 else (0, 0, 0)
        if lo > 0 and (a > 0 or e < 0) and \
                src[j:] == list(range(i, len(rows) - 1)):
            k = len(rows) - j
            x, y = (lo, hi) if a > 0 else (hi, lo)
            los = list(accumulate(repeat(a, k), operator.mul, initial=x))
            his = list(accumulate(repeat(e, k), operator.mul, initial=y))
            if e < 0:
                los[::2], his[::2] = his[::2], los[::2]
            vals += zip(los[1:], his[1:], range(n + 1, n + k + 1))
            break
        for c in reversed(r[:1] if i >= 0 else r):
            if a >= 0:
                lo, hi = lo * (a if lo >= 0 else e), hi * (e if hi >= 0 else a)
            elif e <= 0:
                lo, hi = hi * (a if hi >= 0 else e), lo * (e if lo >= 0 else a)
            else:
                ps = (lo * a, lo * e, hi * a, hi * e)
                lo, hi = min(ps), max(ps)
            c = up(c, bk[n])
            lo, hi, n = lo + c, hi + c, n + 1
        vals.append((lo, hi, n))
    return ([up(lo, bk[top - n]) for lo, _, n in vals],
            [up(hi, bk[top - n]) for _, hi, n in vals],
            up(den, bk[max(top - 1, 0)]))


def _prem(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(Q, R) with lc(b)^(deg a - deg b + 1) a = Q b + R and deg R < deg b,
    for trimmed integer a and nonzero trimmed integer b; ([], a) when
    deg a < deg b.  a is scaled by lc(b)^(deg a - deg b + 1) once, after
    which every quotient coefficient is an exact integer division by
    lc(b)."""
    e = len(a) - len(b) + 1
    if e <= 0:
        return [], list(a)
    lb, low = b[-1], b[:-1]
    s = lb ** e
    r, q = [c * s for c in a], [0] * e
    for k in range(e - 1, -1, -1):
        c = q[k] = r.pop() // lb
        if c:
            for i, x in enumerate(low, k):
                r[i] -= c * x
    return q, trim(r)


def divmod_poly(a: Sequence[Coeff], b: Sequence[Coeff]
                ) -> Tuple[List[Fraction], List[Fraction]]:
    """(q, r) with a = q b + r and deg r < deg b, over Q: one integer
    pseudo-division `_prem` of the numerators of a and b, with `Fraction`s
    built only for the coefficients of q and r."""
    a, da = clear_denominators(trim(a))
    b, db = clear_denominators(trim(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q, r = _prem(a, b)
    s = da * b[-1] ** len(q)
    return [Fraction(c * db, s) for c in q], [Fraction(c, s) for c in r]


def resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Res(a, b) = lc(a)^deg b times the product of b over the roots of a,
    for integer polynomials, 0 when either is zero: the subresultant
    algorithm (Cohen, GTM 138, Algorithm 3.3.7) on the primitive parts,
    each pseudo-remainder `_prem` divided exactly by g h^delta, times the
    contents."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return 0
    m, n = len(a) - 1, len(b) - 1
    if m < n:
        return (-1) ** (m * n) * resultant(b, a)
    ca, cb = gcd(*a), gcd(*b)
    t = ca ** n * cb ** m
    a, b = [c // ca for c in a], [c // cb for c in b]
    s = g = h = 1
    while n > 0:
        delta = m - n
        if m & n & 1:
            s = -s
        _, r = _prem(a, b)
        div = g * h ** delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        h = g ** delta * h // h ** delta          # h^(1 - delta) g^delta
        m, n = n, len(b) - 1
    if n < 0:
        return 0
    return s * t * (b[0] ** m * h // h ** m)      # h^(1 - m) lc(b)^m


def gcd_int(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """A gcd over Q of integer polynomials a and b, as a primitive integer
    polynomial, [] when both are zero: the primitive remainder sequence,
    each pseudo-remainder `_prem` divided by its content."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, primitive_int(_prem(a, b)[1])
    return primitive_int(a)


def primitive_int(p: Sequence[Coeff]) -> List[int]:
    """Clear denominators and divide out integer content."""
    q, _ = clear_denominators(trim(p))
    g = gcd(*q) or 1
    return q if g == 1 else [c // g for c in q]


def _sturm(p: Sequence[Coeff]) -> Tuple[List[List[int]], List[tuple]]:
    """The chain p_0..p_m of `sturm_chain` and its steps 0 < i < m.

    With (Q_i / d_i, R_i / s_i) = `divmod_poly`(p_(i-1), p_i) over
    integers and g_i the content of R_i, p_(i+1) = -R_i / g_i.  So at a/b,
    with P_j = b^(deg p_j) p_j(a/b) and H_i = b^(deg Q_i) (s_i Q_i)(a/b),

        d_i s_i P_(i-1) = H_i P_i - d_i g_i b^e_i P_(i+1),

    e_i = deg p_(i-1) - deg p_(i+1), where d_i, s_i and g_i are positive.
    Step i is (s_i Q_i, d_i g_i, e_i, d_i s_i)."""
    p0 = primitive_int(p)
    chain = [p0, primitive_int(diff(p0))]
    steps = []
    while chain[-1]:
        q, r = divmod_poly(chain[-2], chain[-1])
        r, s = clear_denominators(r)
        g = gcd(*r)
        if g:
            qn, d = clear_denominators(q)
            steps.append(([c * s for c in qn], d * g,
                          len(chain[-2]) - len(r), d * s))
        chain.append([-c // g for c in r])
    chain.pop()
    return chain, steps


def sturm_chain(p: Sequence[Coeff]) -> List[Poly]:
    """Sturm chain of p, as primitive integer polynomials: p, p' and the
    negated remainders.  The last element is gcd(p, p') up to a positive
    factor, so p is squarefree exactly when it is a constant."""
    return _sturm(p)[0]


def _sturm_signs(chain: Sequence[Sequence[int]], steps: Sequence[tuple],
                 a: int, b: int) -> Tuple[int, int]:
    """(P_0, sign variations) at a/b, b > 0, for a chain of length >= 2 and
    its steps from `_sturm`: p_m and p_(m-1) by Horner, each other P_j
    exactly by its step.  On a normal chain (degrees falling by 1) every
    Q_i is linear and every e_i is 2, so a point costs O(d) products, not
    O(d^2), with b^2 taken once.  The variations are counted in the same
    pass against the last nonzero sign, which starts as that of p_m: p_m
    divides every member, so where it is 0 all are."""
    x, y = _horner(chain[-1], a, b), _horner(chain[-2], a, b)
    up, var = x > 0, 0
    b2 = b * b
    for qn, c, e, d in reversed(steps):
        if y and (y > 0) != up:
            up, var = not up, var + 1
        h = qn[0] * b + qn[1] * a if len(qn) == 2 else _horner(qn, a, b)
        x, y = y, (h * y - c * x * (b2 if e == 2 else b ** e)) // d
    return y, var + (y != 0 and (y > 0) != up)


def _root_bound_log2(nums: Sequence[int]) -> int:
    """The least r >= 0 with 2^r at least Fujiwara's bound on the complex
    roots of the integer polynomial nums of degree n >= 1,
    2 max(|c_(n-i)/c_n|^(1/i) for 0 < i < n, |c_0/(2 c_n)|^(1/n)), tested
    on integers as |c_(n-i)| 2^i <= |c_n| 2^(r i), twice that for i = n."""
    n, lc = len(nums) - 1, abs(nums[-1])
    r = 0
    while any(abs(c) << i > lc << r * i + (i == n)
              for i, c in enumerate(reversed(nums[:-1]), 1)):
        r += 1
    return r


def isolate_real_roots(p: Sequence[Coeff]) -> List[RootCell]:
    """Disjoint isolating cells for all real roots of squarefree p, in order.

    Each returned cell either is a point (exact rational root) or has
    interior containing exactly one root with nonzero values of p at both
    ends, so bisection refinement is always possible.

    One Sturm chain also tells squarefreeness (it must end in a constant).
    Each bisection node keeps its ends a/b, e/b, their variation counts and
    their values P_0 (`_sturm_signs`), which the cells carry, so a midpoint
    (a + e)/2b costs one chain evaluation, or none beyond the power-of-two
    root bound 2^r: no root lies between such a midpoint and the outer
    end, so their counts are equal, and its value stays None.
    """
    p = trim(p)
    if degree(p) < 1:
        return []
    chain, steps = _sturm(p)
    if len(chain[-1]) > 1:
        raise ValueError("root isolation requires a squarefree polynomial")
    r = _root_bound_log2(chain[0])
    n, lc = len(chain[0]) - 1, abs(chain[0][-1])
    # the Cauchy bound (|lc| + max |c_i|) / |lc| on every real root
    bound = Fraction(lc + max(map(abs, chain[0][:-1]), default=0), lc)
    den = bound.denominator
    lo, hi = -bound.numerator, bound.numerator
    while _horner(chain[0], lo, den) == 0:
        lo -= den
    while _horner(chain[0], hi, den) == 0:
        hi += den
    # nodes (a, e, b, va, ve, fa, fe): va - ve roots in (a/b, e/b), and the
    # nonzero values of P_0 there or None, which `f and f << n` keeps; the
    # right half goes on the stack first, so the cells come out in order
    fa, va = _sturm_signs(chain, steps, lo, den)
    fe, ve = _sturm_signs(chain, steps, hi, den)
    out, todo = [], [(lo, hi, den, va, ve, fa, fe)]
    while todo:
        a, e, b, va, ve, fa, fe = todo.pop()
        if va - ve == 1:
            out.append(RootCell(a, e, b, fa, fe))
        if va - ve < 2:
            continue
        a, e, b, m = 2 * a, 2 * e, 2 * b, a + e
        fa, fe = fa and fa << n, fe and fe << n
        if abs(m) > b << r:
            fm, vm = None, (ve if m > 0 else va)
        else:
            fm, vm = _sturm_signs(chain, steps, m, b)
        if fm != 0:                         # or None
            todo += (m, e, b, vm, ve, fm, fe), (a, m, b, va, vm, fa, fm)
            continue
        root = (m, m, b, 1, 0, 0, 0)        # the exact root m/b, a node
        # nudge around the exact root until the counts split cleanly: m -/+ w
        # over b, w/b a quarter of the node's width, halved by doubling the rest
        a, e, m, b = 2 * a, 2 * e, 2 * m, 2 * b
        fa, fe = fa and fa << n, fe and fe << n
        w = (e - a) // 4
        while True:
            fl, vl = _sturm_signs(chain, steps, m - w, b)
            fr, vr = _sturm_signs(chain, steps, m + w, b)
            if fl and fr and vl - vr == 1:
                break
            a, e, m, b = 2 * a, 2 * e, 2 * m, 2 * b
            fa, fe = fa and fa << n, fe and fe << n
        todo += ((m + w, e, b, vr, ve, fr, fe), root,
                 (a, m - w, b, va, vl, fa, fl))
    return out


def refine_root(p: Sequence[int], cell: RootCell, max_width: Fraction
                ) -> RootCell:
    """The cell, with its values, that bisecting an isolating cell of a
    squarefree p to width <= max_width gives, from the cell's values and a
    few integer Horner evaluations.  p is the primitive integer polynomial
    P = `primitive_int`(q) of the cell's q, on which the cell's values are
    taken; a field context's monic polynomial is its own P.

    With the cell [a/b, e/b], bisection ends at the least level s with
    (e - a)/(b 2^s) <= max_width, in the one dyadic cell of that level
    whose endpoint signs are those of p(a/b) and p(e/b), or in a point
    when some midpoint is the root.  Quadratic interval refinement
    (Abbott, ACM Commun. Comput. Algebra, 2014) moves down that grid: the
    secant through a cell's endpoint values proposes one of its 2^k
    subcells, and that cell, or the neighbour its first endpoint sign
    points to, is accepted only when the integer signs at both of its ends
    are those of p(a/b) and p(e/b), so that it is bisection's cell.  k
    doubles on success and halves on failure, and the result keeps it; at
    k = 1 the cell ends are known and the step is a bisection step.  An
    endpoint where p is 0 is the root, where bisection stops too.
    """
    a, e, b, fa, fe, k = cell
    if a == e:
        return cell
    nums = p
    n = len(nums) - 1
    fa = _horner(nums, a, b) if fa is None else fa
    fe = _horner(nums, e, b) if fe is None else fe
    if fa * fe >= 0:
        raise ValueError("not a sign-isolating interval")
    sign = -1 if fa > 0 else 1              # so that sign p(a/b) < 0
    if sign < 0:
        nums, fa, fe = [-c for c in nums], -fa, -fe
    # every cell is h/b wide, with b = b_0 2^t at level t, and fa, fe are
    # b^n p at its ends
    h = e - a
    u, v = h * max_width.denominator, max_width.numerator * b
    s = max(0, u.bit_length() - v.bit_length())
    s += u > v << s                         # the least s with u <= v 2^s

    t = 0
    while t < s:
        # grid point i of the 2^k subcells is (a 2^k + i h)/b2, and p there
        # is taken as b2^n p: at i = 0 and 2^k it is fa or fe times 2^(k n)
        if k > s - t:
            k = s - t
        b2, last = b << k, (1 << k) - 1
        j = (fa << k) // (fa - fe)          # the secant's subcell
        x = (a << k) + j * h
        f1 = _horner(nums, x, b2) if j else fa << k * n
        if f1 > 0:                          # the root is left of it
            j, x, f2 = j - 1, x - h, f1
            f1 = _horner(nums, x, b2) if j else fa << k * n
        else:
            f2 = _horner(nums, x + h, b2) if j < last else fe << k * n
            if f2 < 0:                      # or right of it
                j, x, f1 = j + 1, x + h, f2
                f2 = _horner(nums, x + h, b2) if j < last else fe << k * n
        if f1 < 0 < f2:
            a, b, fa, fe, t, k = x, b2, f1, f2, t + k, 2 * k
        elif f1 == 0 or f2 == 0:
            x = x if f1 == 0 else x + h
            return RootCell(x, x, b2, 0, 0)
        else:
            k //= 2
    return RootCell(a, a + h, b, sign * fa, sign * fe, k)


def factorize(n: int) -> Dict[int, int]:
    """{p: e} over the primes p dividing |n|, by trial division."""
    n = abs(n)
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(k: int) -> Dict[int, int]:
    """{n: mu(n)} over the divisors n of k, in increasing order, from the
    factorisation of k: mu(n) is (-1)^r when n is a product of r distinct
    primes, else 0."""
    if k < 1:
        raise ValueError("k must be positive")
    mu = {1: 1}
    for p, e in factorize(k).items():
        mu = {n * p ** i: m * (1, -1, 0)[min(i, 2)]
              for n, m in mu.items() for i in range(e + 1)}
    return dict(sorted(mu.items()))


def cyclotomic(k: int) -> List[int]:
    """k-th cyclotomic polynomial, the product of (x^d - 1)^mu(k/d) over
    the divisors d of k: shifts and subtractions, then exact synthetic
    divisions."""
    mu = mobius(k)
    out = [1]
    for d in mu:
        if mu[k // d] == 1:                 # out (x^d - 1)
            out = [x - y for x, y in zip([0] * d + out, out + [0] * d)]
    for d in mu:
        if mu[k // d] == -1:                # out / (x^d - 1), low first
            out = [-c for c in out[:-d]]
            for i in range(d, len(out)):
                out[i] += out[i - d]
    return out


def cos_minpoly(k: int) -> List[int]:
    """Minimal polynomial of z_k + 1/z_k for a primitive k-th root z_k, k >= 3.

    Uses the palindromic structure of the cyclotomic polynomial: with
    m = phi(k), Phi_k(t)/t^(m/2) is a polynomial in y = t + 1/t expressed in
    the basis C_j(y) = t^j + t^-j, C_0 = 2, C_1 = y and
    C_j = y C_(j-1) - C_(j-2), on integer lists.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    phi = cyclotomic(k)
    half = (len(phi) - 1) // 2
    result = [phi[half]] + [0] * half
    prev, cur = [2], [0, 1]
    for c in reversed(phi[:half]):
        for i, x in enumerate(cur):
            result[i] += c * x
        prev, cur = cur, [x - y for x, y in zip([0] + cur, prev + [0, 0])]
    return result


class MPoly:
    """Sparse polynomial in n variables over a commutative ring.

    Stored as a dict from exponent tuples to nonzero coefficients.  The
    coefficients may be ints, Fractions, field elements or any other ring
    elements with +, -, * and a truth value that is False exactly for zero;
    multiplying by a non-`MPoly` scales every coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def const(cls, c, nvars: int) -> "MPoly":
        return cls({(0,) * nvars: c})

    @classmethod
    def var(cls, idx: int, nvars: int, one=1) -> "MPoly":
        """The variable idx, with coefficient `one` of the coefficient ring."""
        return cls({tuple(int(i == idx) for i in range(nvars)): one})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return MPoly(out)

    def __neg__(self) -> "MPoly":
        return MPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            return MPoly({k: v * other for k, v in self.terms.items()})
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out[k] + v1 * v2 if k in out else v1 * v2
        return MPoly(out)

    def format(self, names: Sequence[str]) -> str:
        """Terms in descending exponent order, e.g. 'gamma^2*t - 2*beta'."""
        if not self.terms:
            return "0"
        bits = []
        for key, v in sorted(self.terms.items(), reverse=True):
            mono = "*".join((n if e == 1 else f"{n}^{e}")
                            for n, e in zip(names, key) if e)
            if not mono:
                bits.append(str(v))
            elif v == 1:
                bits.append(mono)
            elif v == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{v}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")
