"""Orders in number fields: round-2 maximal orders and unit classes.

An order in Q[x]/(p) is held by its basis rows over the power basis
1, x, x^2, ...  `maximal_order` saturates the equation order Z[x] at every
prime whose square divides its discriminant with round-2 steps (Cohen,
*A Course in Computational Algebraic Number Theory*, GTM 138, section 6.1):
each step replaces the order by the multiplier ring of its q-radical, until
the discriminant stops changing.  The basis is then LLL-reduced against the
trace form.

`find_units` searches unit generators of a field context whose classes are
independent modulo squares, and derives the index of the squares among the
totally positive units from their signatures.  It divides elements of equal
|norm| by `Element.inverse` (an integer adjugate over the norm, formed once
per divisor) and keeps the integral quotients: they are units.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import floordiv, mul

from . import linalg, polys
from .enumeration import (QueryMode, canonical_sign, dominated_elements,
                          sqrt_element)
from .numberfield import (FieldContext, basis_mult_table, mult_matrix,
                          units_by_signature)


# ---------------------------------------------------------------------------
# integer utilities

def factorize(n: int) -> dict:
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def hnf_rows(mat):
    """Row-style Hermite reduction over Z (returns independent rows, each
    pivot positive)."""
    rows = linalg.euclid_rows([list(map(int, r)) for r in mat], floordiv,
                              abs)
    return [r if next(filter(None, r)) > 0 else [-x for x in r]
            for r in rows]


def integral_kernel_mod(a_rows, modulus, dim):
    """Basis rows of {z in Z^dim : A z == 0 mod modulus}."""
    nrows = len(a_rows)
    cols = [[a_rows[i][j] for i in range(nrows)] for j in range(dim)]
    for i in range(nrows):
        cols.append([modulus if r == i else 0 for r in range(nrows)])
    ncols = len(cols)
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def colop(j, k, q):  # col_j -= q * col_k
        cols[j] = [x - q * y for x, y in zip(cols[j], cols[k])]
        u[j] = [x - q * y for x, y in zip(u[j], u[k])]

    pivot_cols = []
    for r in range(nrows):
        live = [j for j in range(ncols)
                if j not in pivot_cols and cols[j][r] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][r]))
            piv = live[0]
            for j in live[1:]:
                q = cols[j][r] // cols[piv][r]
                if q:
                    colop(j, piv, q)
            live = [j for j in live if cols[j][r] != 0]
            if len(live) > 1 and all(
                    abs(cols[j][r]) == abs(cols[live[0]][r]) for j in live):
                # force progress on equal remainders
                colop(live[1], live[0],
                      cols[live[1]][r] // cols[live[0]][r] or 1)
                live = [j for j in live if cols[j][r] != 0]
        if live:
            pivot_cols.append(live[0])
    kernel = []
    for j in range(ncols):
        if j in pivot_cols:
            continue
        if any(cols[j][r] != 0 for r in range(nrows)):
            continue
        z = u[j][:dim]
        if any(z):
            kernel.append(z)
    return kernel


# ---------------------------------------------------------------------------
# orders in Q[x]/(p): basis rows over the power basis, Fractions

class Order:
    """Z-order in Q[x]/(p), basis rows over the power basis.

    With B the basis matrix and H the Hankel matrix of power sums of the
    roots of p, H[i][j] = Tr(x^(i+j)), the trace form Tr(b_i b_j) is
    B H B^T and the discriminant is its determinant.  The inverse of B and
    the integer multiplication table are built once, on first use.
    """

    def __init__(self, p, basis):
        self.p = list(p)
        self.d = d = len(p) - 1
        self.basis = [[Fraction(x) for x in row] for row in basis]
        s = polys.power_sums(self.p, 2 * d - 2)
        hankel = [[s[i + j] for j in range(d)] for i in range(d)]
        self.trace_form = linalg.mat_mul(linalg.mat_mul(self.basis, hankel),
                                         linalg.transpose(self.basis))
        disc = linalg.det(self.trace_form)
        if disc.denominator != 1:
            raise RuntimeError(f"order discriminant {disc} is not integral")
        self.disc = int(disc)

    @cached_property
    def inverse(self):
        """B^-1: row k holds the basis coordinates of x^k."""
        return linalg.inverse(self.basis)

    @cached_property
    def mult_table(self) -> tuple:
        return basis_mult_table(self.p, self.basis, self.inverse)


def enlarge_at(order: Order, q: int) -> Order:
    """One round-2 step at q: multiplier ring of the q-radical."""
    d = order.d
    table = order.mult_table

    e = 1
    while q ** e < d:
        e += 1
    target = q ** e
    # row 0 of the inverse basis matrix holds the coordinates of 1
    one = [int(c) % q for c in order.inverse[0]]

    def pow_mod(u, n):
        """u^n with coordinates reduced mod q."""
        result = one
        while n:
            m = mult_matrix(table, u)
            if n & 1:
                result = [sum(map(mul, row, result)) % q for row in m]
            u = [sum(map(mul, row, u)) % q for row in m]
            n >>= 1
        return result

    frob_cols = [pow_mod([int(i == j) for j in range(d)], target)
                 for i in range(d)]
    rad = integral_kernel_mod(linalg.transpose(frob_cols), q, d)
    rad = [r for r in rad if any(c % q for c in r)]
    q_rows = [[q if j == i else 0 for j in range(d)] for i in range(d)]
    # ideal I = qO + (radical lifts) * O as a Z-lattice
    gens = q_rows[:]
    for r in rad:
        gens.extend(map(list, zip(*mult_matrix(table, r))))
    ideal = hnf_rows(gens)
    if len(ideal) != d:
        raise RuntimeError(f"radical ideal at {q} has rank {len(ideal)}")
    # multiplier ring: x = z/q, z in Z^d, with x * I inside I
    # (H^T)^-1 M_w = adj(H^T) M_w / det(H^T), every column of every M_w
    # from one elimination
    det, cols = linalg.adjugate_solve(
        linalg.transpose(ideal),
        [col for w in ideal for col in zip(*mult_matrix(table, w))])
    entries = [Fraction(x, det * q) for k in range(0, len(cols), d)
               for row in zip(*cols[k:k + d]) for x in row]
    nums, den_all = polys.clear_denominators(entries)
    a_rows = [nums[i:i + d] for i in range(0, len(nums), d)]
    kernel = integral_kernel_mod(a_rows, den_all, d)
    lattice = hnf_rows(kernel + q_rows)
    if len(lattice) != d:
        raise RuntimeError(f"multiplier ring at {q} has rank {len(lattice)}")
    new_rows = [[x / q for x in row]
                for row in linalg.mat_mul(lattice, order.basis)]
    return Order(order.p, new_rows)


def trace_reduce(order: Order) -> Order:
    """LLL-reduce the order basis with respect to the trace form, so that
    embeddings are balanced and enumeration boxes are well conditioned."""
    d = order.d
    g0 = order.trace_form
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def gram(i, j):
        return linalg.ring_bilinear(u[i], g0, u[j])

    def mu_and_norms():
        mu = [[Fraction(0)] * d for _ in range(d)]
        bstar = [Fraction(0)] * d
        for i in range(d):
            bstar[i] = gram(i, i)
            for j in range(i):
                mu[i][j] = gram(i, j)
                for k in range(j):
                    mu[i][j] -= mu[i][k] * mu[j][k] * bstar[k]
                mu[i][j] /= bstar[j]
                bstar[i] -= mu[i][j] ** 2 * bstar[j]
        return mu, bstar

    k = 1
    steps = 0
    while k < d:
        steps += 1
        if steps > 10000:
            raise RuntimeError(f"trace_reduce of {order.p} did not finish "
                               "in 10000 steps")
        mu, bstar = mu_and_norms()
        for j in range(k - 1, -1, -1):
            q = linalg.nearest_int(mu[k][j])
            if q:
                # b_k -= q b_j leaves every b* alone and changes only row k
                # of mu
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                muk, muj = mu[k], mu[j]
                for i in range(j):
                    muk[i] -= q * muj[i]
                muk[j] -= q
        if bstar[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            u[k], u[k - 1] = u[k - 1], u[k]
            k = max(k - 1, 1)
    return Order(order.p, linalg.mat_mul(u, order.basis))


def maximal_order(p) -> Order:
    """The maximal order of Q[x]/(p), trace-reduced; p monic integer and
    irreducible."""
    order = Order(p, linalg.identity(len(p) - 1))
    for q, e in sorted(factorize(order.disc).items()):
        if e < 2:
            continue
        while True:
            bigger = enlarge_at(order, q)
            if bigger.disc == order.disc:
                break
            order = trace_reduce(bigger)
    return trace_reduce(order)


# ---------------------------------------------------------------------------
# units modulo squares

def find_units(ctx: FieldContext):
    """Unit generators with independent classes mod squares (including -1),
    and |U+/U^2| = 2^d / (number of unit signatures)."""
    d = ctx.degree
    want = d

    pool = []
    seen = set()

    def add(u):
        u = canonical_sign(u)
        if u.coords not in seen and u != ctx.one:
            seen.add(u.coords)
            pool.append(u)

    small = dominated_elements(ctx, ctx.from_rational(100),
                               QueryMode.SQUARE_DOMINATED)
    by_norm = {}
    for w in small:
        if w.is_zero:
            continue
        n = abs(w.norm())
        if n == 1:
            add(w)
        elif n <= 50:
            by_norm.setdefault(n, []).append(w)

    gens = [-ctx.one]

    def in_span(u):
        k = len(gens)
        for mask in range(1 << k):
            prod = u
            for i in range(k):
                if (mask >> i) & 1:
                    prod = prod * gens[i]
            if sqrt_element(prod) is not None:
                return True
        return False

    def absorb():
        for u in sorted(pool, key=lambda u: (sum(abs(c) for c in u.coords),
                                             u.key())):
            if len(gens) >= want:
                return
            if not in_span(u):
                gens.append(u)

    absorb()
    if len(gens) < want:
        # quotients of equal-norm elements reach units beyond the house
        # bound; an integral quotient of two elements of equal |norm| is a
        # unit, and then so is its inverse b / a
        for n, els in sorted(by_norm.items()):
            els = els[:80]
            invs = [b.inverse() for b in els]
            for i, a in enumerate(els):
                for j in range(i + 1, len(els)):
                    qv = a * invs[j]
                    if qv.is_integral:
                        add(qv)
                        add(els[j] * invs[i])
        absorb()
    if len(gens) < want:
        raise RuntimeError(
            f"{ctx.record.label}: only {len(gens)} independent unit classes")
    u_plus_mod_sq = (1 << d) // len(units_by_signature(ctx.one, gens))
    return gens, u_plus_mod_sq
