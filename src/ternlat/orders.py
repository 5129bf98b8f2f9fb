"""Orders in number fields: round-2 maximal orders and unit classes.

An order in Q[x]/(p) is held by integer basis rows over the power basis
1, x, x^2, ..., over one denominator.  `maximal_order` saturates the
equation order Z[x] at every prime whose square divides its discriminant
with round-2 steps (Cohen, *A Course in Computational Algebraic Number
Theory*, GTM 138, section 6.1): each step replaces the order by the
multiplier ring of its q-radical, until the discriminant stops changing.
The basis is then LLL-reduced against the trace form by `linalg.lll`.

`find_units` searches unit generators of a field context whose classes are
independent modulo squares.  It divides elements of equal |norm| by
`Element.inverse` (an integer adjugate over the norm, formed once per
divisor) and keeps the integral quotients: they are units.

`field_record` is the one constructor of a field record: order, trace-form
discriminant, sqrt2 tag, unit generators and h+ from them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import floordiv, mul

from . import linalg, polys
from .enumeration import canonical_sign, small_norm_elements, sqrt_element
from .errors import FieldDataError
from .numberfield import (Element, FieldContext, FieldRecord,
                          basis_mult_table, is_identity, load_field,
                          mult_matrix, power_mult_table, units_by_signature)


# ---------------------------------------------------------------------------
# integer utilities

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
    pivot_cols = []
    for r in range(nrows):
        live = [j for j in range(ncols)
                if j not in pivot_cols and cols[j][r] != 0]
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][r]))
            piv = live[0]
            for j in live[1:]:
                # col_j -= q col_piv leaves |col_j[r]| < |col_piv[r]|
                q = cols[j][r] // cols[piv][r]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[piv])]
                u[j] = [x - q * y for x, y in zip(u[j], u[piv])]
            live = [j for j in live if cols[j][r] != 0]
        pivot_cols += live
    # every other column is now zero in every row: its combination u[j] of
    # the input columns, cut to the first dim, is in the kernel
    return [u[j][:dim] for j in range(ncols)
            if j not in pivot_cols and any(u[j][:dim])]


def _int_mul(a, b):
    """Product of integer matrices."""
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


# ---------------------------------------------------------------------------
# orders in Q[x]/(p): integer basis rows over one denominator

class Order:
    """Z-order in Q[x]/(p): basis rows B = R / den over the power basis, R
    integer rows, in lowest terms.  With H[i][j] = Tr(x^(i+j)) the Hankel
    matrix of power sums of the roots of p, the trace form Tr(b_i b_j) =
    B H B^T = R H R^T / den^2 is integral, so it is formed on integers with
    one exact division; the discriminant is its determinant.  The
    `Fraction` view `basis`, its inverse and the integer multiplication
    table are built once, on first use.
    """

    def __init__(self, p, rows, den: int = 1):
        self.p = list(p)
        self.d = d = len(p) - 1
        g = gcd(den, *(x for row in rows for x in row))
        self.rows = [[x // g for x in row] for row in rows]
        self.den = den // g
        s = polys.power_sums(self.p, 2 * d - 2)
        form = _int_mul(_int_mul(self.rows, [s[j:j + d] for j in range(d)]),
                        linalg.transpose(self.rows))
        den2 = self.den ** 2
        if any(x % den2 for row in form for x in row):
            raise RuntimeError("order trace form is not integral")
        self.trace_form = [[x // den2 for x in row] for row in form]
        self.disc = linalg.det_int(self.trace_form)

    @cached_property
    def basis(self):
        """B as rows of `Fraction`s."""
        return [[Fraction(x, self.den) for x in row] for row in self.rows]

    @cached_property
    def inverse(self):
        """B^-1: row k holds the basis coordinates of x^k."""
        return linalg.inverse(self.basis)

    @cached_property
    def mult_table(self) -> tuple:
        if is_identity(self.basis):
            return power_mult_table(self.p, self.d)
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
    return Order(order.p, _int_mul(lattice, order.rows), order.den * q)


def trace_reduce(order: Order) -> Order:
    """The order with its basis LLL-reduced against the trace form
    (`linalg.lll`), so that embeddings are balanced and enumeration boxes
    are well conditioned."""
    return Order(order.p, _int_mul(linalg.lll(order.trace_form), order.rows),
                 order.den)


def maximal_order(p) -> Order:
    """The maximal order of Q[x]/(p), trace-reduced; p monic integer,
    irreducible and totally real, so that the trace form is positive
    definite as `linalg.lll` requires."""
    d = len(p) - 1
    order = Order(p, [[int(i == j) for j in range(d)] for i in range(d)])
    for q, e in sorted(polys.factorize(order.disc).items()):
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

def in_square_span(u: Element, gens) -> bool:
    """Whether u times some product of gens is a square."""
    products = [u]
    for g in gens:
        products += [p * g for p in products]
    return any(sqrt_element(p) is not None for p in products)


def find_units(ctx: FieldContext):
    """Unit generators with independent classes mod squares, -1 first."""
    d = ctx.degree
    pool = []
    seen = set()

    def add(u):
        u = canonical_sign(u)
        if u.coords not in seen and u != ctx.one:
            seen.add(u.coords)
            pool.append(u)

    by_norm = {}
    for w, n in small_norm_elements(ctx, 10, 50):
        if n == 1:
            add(w)
        else:
            by_norm.setdefault(n, []).append(w)

    gens = [-ctx.one]

    def absorb():
        for u in sorted(pool, key=lambda u: (sum(abs(c) for c in u.coords),
                                             u.key())):
            if len(gens) >= d:
                return
            if not in_square_span(u, gens):
                gens.append(u)

    absorb()
    if len(gens) < d:
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
    if len(gens) < d:
        raise RuntimeError(
            f"{ctx.record.label}: only {len(gens)} independent unit classes")
    return gens


# ---------------------------------------------------------------------------
# the field constructor

def field_record(poly, label: str, order: Order = None, units=None,
                 h: int = 1) -> FieldRecord:
    """The record of the totally real field Q[x]/(poly) over the basis of
    `order`, taken as maximal (by default `maximal_order(poly)`), with the
    sqrt2 tag `sqrt_element(2)` when 2 is a square and the class number h
    as input.  The units are -1 and either those `find_units` finds or d - 1
    given (coords, den) pairs, each independent modulo squares of those
    before it.  d such classes generate U/U^2: h+ = h 2^d / #signatures."""
    if order is None:
        order = maximal_order(poly)
    d = order.d
    rec = FieldRecord(label=label, degree=d, poly=tuple(order.p),
                      basis=tuple(map(tuple, order.basis)), disc=order.disc,
                      h=h, h_plus=h)
    ctx = load_field(rec)
    if units is None:
        gens = find_units(ctx)
    else:
        gens = [-ctx.one]
        for coords, den in units:
            u = ctx.element(coords, den)
            if not u.is_unit() or in_square_span(u, gens):
                raise FieldDataError(f"{label}: {u} is no independent unit")
            gens.append(u)
        if len(gens) != d:
            raise FieldDataError(f"{label}: {len(gens)} units, not {d}")
    s2 = sqrt_element(ctx.from_rational(2))
    return rec._replace(
        h_plus=h * (1 << d) // len(units_by_signature(ctx.one, gens)),
        units=tuple((u.coords, u.den) for u in gens),
        sqrt2=None if s2 is None else s2.coords)
