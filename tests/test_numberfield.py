import random
from fractions import Fraction as F

import pytest

from conftest import (cell_interval, mat_vec, ref_divmod_poly,
                      ref_embeddings, ref_unit_square_reduce)
from ternlat import linalg, numberfield, orders, polys
from ternlat.cyclotomic import cyclo_info
from ternlat.enumeration import dominated_elements
from ternlat.errors import (DivisionByZero, FieldDataError, InvalidInput,
                            NoSuchUnit, NotARing, NotTotallyReal)
from ternlat.intervals import Interval
from ternlat.numberfield import (Dominance, FieldRecord, basis_mult_table,
                                 load_field, sqrt2_context,
                                 unit_square_canonical,
                                 unit_square_reduce, units_by_signature)
from ternlat.orders import field_record


def test_load_rejects_imaginary():
    rec = FieldRecord("bad", 2, (1, 0, 1), ((F(1), F(0)), (F(0), F(1))), 4)
    with pytest.raises(NotTotallyReal, match="bad: fewer than 2 real roots"):
        load_field(rec)


def test_records_check_and_freeze(ctx_sqrt2):
    with pytest.raises(ValueError, match="empty interval"):
        Interval(F(1), F(0))
    assert Interval(F(1), F(1)).mid == 1
    with pytest.raises(AttributeError):
        ctx_sqrt2.record.label = "other"


IDENTITY4 = tuple(tuple(F(int(i == j)) for j in range(4)) for i in range(4))
SINGULAR4 = ((F(1), F(0), F(0), F(0)),) * 4


@pytest.mark.parametrize("basis", [IDENTITY4, SINGULAR4])
def test_load_rejects_repeated_roots_before_the_basis(basis):
    # (x^2 - 2)^2: all roots real, each twice
    rec = FieldRecord("bad", 4, (4, 0, -4, 0, 1), basis, 2048)
    with pytest.raises(NotTotallyReal, match="bad: repeated roots"):
        load_field(rec)


@pytest.mark.parametrize("basis", [IDENTITY4, SINGULAR4])
def test_load_rejects_missing_real_roots_before_the_basis(basis):
    # x^4 - 2: two real roots and two complex ones
    rec = FieldRecord("bad", 4, (-2, 0, 0, 0, 1), basis, -2048)
    with pytest.raises(NotTotallyReal, match="bad: fewer than 4 real roots"):
        load_field(rec)


def test_load_rejects_non_ring():
    # {1, x/2} is not multiplicatively closed in Q[x]/(x^2-2)
    rec = FieldRecord("bad", 2, (-2, 0, 1),
                      ((F(1), F(0)), (F(0), F(1, 2))), 2)
    with pytest.raises(NotARing):
        load_field(rec)


def test_load_rejects_class_number_inconsistency():
    rec = FieldRecord("bad", 2, (-2, 0, 1), ((F(1), F(0)), (F(0), F(1))), 8,
                      h=2, h_plus=3)
    with pytest.raises(FieldDataError):
        load_field(rec)


def test_quartic_field_accepted(table):
    ctx = table.context("K2048")
    assert ctx.degree == 4
    assert len(ctx.roots()) == 4
    assert ctx.sqrt2 * ctx.sqrt2 == ctx.from_rational(2)


def test_arithmetic_identities(ctx_sqrt2):
    s = ctx_sqrt2.sqrt2
    lam = 2 + s
    assert lam * (2 - s) == ctx_sqrt2.from_rational(2)
    p7 = 5 + 3 * s
    assert p7 / (1 + s) ** 2 == 3 - s
    inv = ctx_sqrt2.one / p7
    assert inv.den == 7 and inv * p7 == ctx_sqrt2.one


def test_division_by_zero(ctx_sqrt2):
    with pytest.raises(DivisionByZero):
        ctx_sqrt2.one / ctx_sqrt2.zero


@pytest.mark.parametrize("coords,den", [
    ([F(1, 2), 2.7], 1), (["3", 1], 1), ([3, 1], 2.0),
], ids=["fraction-and-float", "string", "float-denominator"])
def test_element_refuses_non_integer_coordinates(ctx_sqrt2, coords, den):
    # read by operator.index, not truncated or parsed by int()
    with pytest.raises(InvalidInput, match="not all integers"):
        ctx_sqrt2.element(coords, den)


def test_norm_trace(ctx_sqrt2):
    lam = 2 + ctx_sqrt2.sqrt2
    assert lam.norm_trace() == (F(2), F(4))
    assert (ctx_sqrt2.one / lam).norm() == F(1, 2)


def test_norm_equals_the_determinant_of_multiplication(table):
    # N(a) = Res(p, A) / (den a.den)^d must equal det(M) / a.den^d for the
    # integer multiplication matrix M of a.den * a, on every table field
    # (integral bases over denominators up to 60), F_k for k = 3..60, and
    # Q x Q = Q[t]/(t^2 - 1) in its power basis and in the basis of the
    # idempotent (1 + t)/2
    ident = ((F(1), F(0)), (F(0), F(1)))
    qxq = [load_field(FieldRecord("QxQ", 2, (-1, 0, 1), basis, 4))
           for basis in (ident, ((F(1), F(0)), (F(1, 2), F(1, 2))))]
    ctxs = ([table.context(rec.label) for rec in table]
            + [cyclo_info(k).field for k in range(3, 61)] + qxq)
    rng = random.Random(29)
    zero_divisors = 0
    for ctx in ctxs:
        d = ctx.degree
        samples = [ctx.zero, ctx.one, ctx.gen, 1 + ctx.gen, 2 + ctx.gen,
                   2 - ctx.gen]
        samples += [ctx.element([rng.randint(-3, 3) for _ in range(d)],
                                rng.choice([1, 2, 3, 10]))
                    for _ in range(4)]
        for a in samples:
            want = F(linalg.det_int(a.mult_matrix_scaled()), a.den ** d)
            assert a.norm() == want, (ctx, a)
            zero_divisors += want == 0 and not a.is_zero
    assert max(ctx._horner[2] for ctx in ctxs) > 1
    assert all(ctx.zero.norm() == 0 for ctx in ctxs)
    e = qxq[1].element([0, 1])
    assert e * e == e and e.norm() == 0 and (1 - e).norm() == 0
    assert zero_divisors >= 2


def test_element_inverse_and_division_on_table_fields(table):
    # b b^-1 = 1 for random nonzero elements, integral or not, on every
    # table field and F_32; then a / b = a b^-1 on random pairs, whose
    # quotients are mostly not integral, and on pairs (a b, b) and (u a, a)
    # for units u, whose quotients are; last, zero divisors of a product
    # ring have no inverse
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    ctxs = [table.context(rec.label) for rec in table.records]
    for ctx in ctxs + [cyclo_info(32).field]:
        d = ctx.degree
        els = [ctx.element([rng.randint(-4, 4) for _ in range(d)])
               for _ in range(8)]
        els = [e for e in els if not e.is_zero]
        for b in els + [ctx.element(e.coords, den)
                        for e, den in zip(els, (2, 3, 10))]:
            assert b * b.inverse() == ctx.one, (ctx, b)
        pairs = [(a, b) for a in els for b in els]
        for a, b in pairs:
            q = a / b
            assert q * b == a, (ctx, a, b)
            seen[q.is_integral] += 1
        for a, b in zip(els, els[1:]):
            q = (a * b) / b
            assert q == a, (ctx, a, b)
            seen[q.is_integral] += 1
        for u in ctx.units or ():
            for a in els[:2]:
                q = (u * a) / a
                assert q == u, (ctx, u, a)
                seen[q.is_integral] += 1
    assert seen[True] > 200 and seen[False] > 500, seen
    # Q x Q = Q[t]/(t^2 - 1): t - 1 and t + 1 are zero divisors, 2 + t is a
    # unit of the ring
    rec = FieldRecord("QxQ", 2, (-1, 0, 1), ((F(1), F(0)), (F(0), F(1))), 4)
    ctx = load_field(rec)
    for z in (ctx.gen - 1, ctx.gen + 1):
        with pytest.raises(DivisionByZero, match="zero divisor"):
            z.inverse()
    u = 2 + ctx.gen
    assert u * u.inverse() == ctx.one and u.inverse().den == 3


def test_embeddings_and_house(ctx_sqrt2):
    lam = 2 + ctx_sqrt2.sqrt2
    ivs = lam.embeddings(F(1, 100))
    assert all(iv.hi - iv.lo <= F(1, 100) for iv in ivs)
    assert ivs[0].lo < ivs[1].lo  # ascending root order
    h = lam.house(F(1, 100))
    assert h.lo <= F(342, 100) <= h.hi + F(1, 100)


@pytest.mark.parametrize("n", [400, 1000])
def test_embeddings_of_large_unit_powers(n):
    # the basis coordinates of (1 + sqrt2)^n are about 2^(1.27 n), so the
    # roots must go below 2^-300 for the sums to narrow to 1/64; each end
    # is checked exactly: sigma_i(a - lo) >= 0 and sigma_i(hi - a) >= 0
    ctx = sqrt2_context()
    a = (ctx.one + ctx.sqrt2) ** n
    ivs, house = ctx.embeddings(a), a.house()
    assert house == ivs[1]
    assert_exact_enclosures(a, ivs, F(1, 64))


def assert_exact_enclosures(a, ivs, width):
    ctx = a.ctx
    assert all(iv.hi - iv.lo <= width for iv in ivs)
    for i, iv in enumerate(ivs):
        assert ctx._exact_signs(a - iv.lo)[i] >= 0
        assert ctx._exact_signs(iv.hi - a)[i] >= 0


def test_embeddings_past_the_floor_beside_exact_roots():
    # (t^2 - 1)(t^2 - 2): the roots +-1 are point cells, so the first step
    # goes to 2^-300 at once; 10^200 t needs the roots below it
    ctx = load_field(FieldRecord("1x2", 4, (2, 0, -3, 0, 1), IDENTITY4, 1))
    assert 0 in [c.e - c.a for c in ctx._state.cells]
    a = ctx.gen * 10 ** 200
    assert_exact_enclosures(a, ctx.embeddings(a, F(1, 1000)), F(1, 1000))


def test_dominance(ctx_sqrt2):
    s = ctx_sqrt2.sqrt2
    zero = ctx_sqrt2.zero
    assert (2 + s).compare(zero) is Dominance.GT
    assert (1 + s).compare(zero) is Dominance.INCOMPARABLE
    assert ctx_sqrt2.from_rational(6).compare((1 + s) ** 2) is Dominance.GT
    assert zero.compare(2 + s) is Dominance.LT
    assert s.compare(s) is Dominance.EQ


def test_signature_and_associate(ctx_sqrt2):
    s = ctx_sqrt2.sqrt2
    assert s.signature() == (-1, 1)
    eta, assoc = ctx_sqrt2.totally_positive_associate(s)
    assert eta == 1 + s and assoc == 2 + s
    eta1, assoc1 = ctx_sqrt2.totally_positive_associate(ctx_sqrt2.one)
    assert eta1 == ctx_sqrt2.one and assoc1 == ctx_sqrt2.one


def test_no_such_unit(ctx_sqrt3):
    # in this field units only realize the two constant signatures
    t = 1 + ctx_sqrt3.gen           # 1 + sqrt3, signature (-, +)
    with pytest.raises(NoSuchUnit):
        ctx_sqrt3.totally_positive_associate(t)


def ref_totally_positive_associate(ctx, a):
    """Reference: solve "sum of the units' sign vectors = sign vector of a"
    over F2 by Gaussian elimination, free variables set to zero."""
    if a.is_zero:
        raise ValueError("no totally positive associate of zero")
    units = ctx.require_units()
    target = a.signature()
    d = ctx.degree
    cols = [u.signature() for u in units]
    rows = []
    for i in range(d):
        row = [(1 if cols[j][i] < 0 else 0) for j in range(len(units))]
        row.append(1 if target[i] < 0 else 0)
        rows.append(row)
    k = len(units)
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, d) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(d):
            if i != r and rows[i][c]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, d):
        if rows[i][k]:
            raise NoSuchUnit(
                f"{ctx.record.label}: signature {target} not realized "
                "by supplied units")
    exps = [0] * k
    for row_i, col in pivots:
        exps[col] = rows[row_i][k]
    eta = ctx.one
    for u, e in zip(units, exps):
        if e:
            eta = eta * u
    result = eta * a
    if not result.is_totally_positive():
        raise NoSuchUnit("associate search produced a non-positive result")
    return eta, result


def test_associate_table_matches_f2_elimination(table, ctx_sqrt2, ctx_sqrt3,
                                                ctx_sqrt5):
    # inputs: every product of the generators (in K12544, h+/h = 4, several
    # share a signature, so the least-mask rule decides) and seeded random
    # elements, which also reach the signatures no unit realizes
    rng = random.Random(9)
    contexts = [table.context(r.label) for r in table]
    contexts += [ctx_sqrt2, ctx_sqrt3, ctx_sqrt5]
    found = missing = 0
    for ctx in contexts:
        units = ctx.units
        inputs = []
        for mask in range(1 << len(units)):
            prod = ctx.one
            for i, u in enumerate(units):
                if (mask >> i) & 1:
                    prod = prod * u
            inputs.append(prod)
        for _ in range(40):
            x = ctx.element([rng.randint(-6, 6) for _ in range(ctx.degree)])
            if not x.is_zero:
                inputs.append(x)
        for a in inputs:
            try:
                expected = ref_totally_positive_associate(ctx, a)
            except NoSuchUnit as exc:
                with pytest.raises(NoSuchUnit) as info:
                    ctx.totally_positive_associate(a)
                assert str(info.value) == str(exc)
                missing += 1
                continue
            eta, assoc = ctx.totally_positive_associate(a)
            assert (eta, assoc) == expected
            r, eta2 = unit_square_reduce(assoc)
            assert r == assoc * eta2 * eta2
            found += 1
    assert found > 0 and missing > 0
    k12544 = table.context("K12544")
    assert len(units_by_signature(k12544.one, k12544.units)) == 4


def test_unit_predicates(ctx_sqrt2):
    s = ctx_sqrt2.sqrt2
    assert (1 + s).is_unit()
    assert not (2 + s).is_unit()
    assert not (ctx_sqrt2.one / (1 + s)).is_unit() or \
        (ctx_sqrt2.one / (1 + s)).is_integral  # inverse of a unit is integral
    inv = ctx_sqrt2.one / (1 + s)
    assert inv.is_integral and inv.is_unit()


def test_unit_square_canonical(ctx_sqrt2):
    s = ctx_sqrt2.sqrt2
    assert unit_square_canonical(2 - s) == 2 + s
    assert unit_square_canonical(10 - 7 * s) == 2 + s
    assert unit_square_canonical(ctx_sqrt2.from_rational(3)) == \
        ctx_sqrt2.from_rational(3)


def test_unit_square_canonical_far_along_the_orbit():
    # 1100 unit-square steps from 2+sqrt2; a cap on the rounds would stop
    # early and return a representative with 77-digit coordinates
    ctx = sqrt2_context()
    s = ctx.sqrt2
    far = (1 + s) ** 2200 * (2 + s)
    assert unit_square_canonical(far) == 2 + s


def _pool_associates(ctx):
    """Totally positive associates of the nonzero elements with omega^2 <=
    36 and |norm| <= 64, as `obstruction.candidate_pool` forms them."""
    out = []
    for w in dominated_elements(ctx, ctx.from_rational(36)):
        if w.is_zero or abs(w.norm()) > 64:
            continue
        try:
            out.append(ctx.totally_positive_associate(w)[1])
        except NoSuchUnit:
            continue
    return out


def test_unit_square_walk_matches_the_reference(table, ctx_sqrt2):
    # the walk reads each step's trace off integers and multiplies only
    # when it is not larger; the reference multiplies on every step
    def check(a):
        r, eta = unit_square_reduce(a)
        assert (r, eta) == ref_unit_square_reduce(a), a
        assert r == a * eta * eta
        return r != a

    moved = dens = 0
    for ctx in [sqrt2_context()] + [table.context(r.label)
                                     for r in table.records]:
        pool = _pool_associates(ctx)
        assert pool, ctx.record.label
        for a in pool:
            moved += check(a)
            for q in (2, 3):
                aq = a * F(1, q)
                dens += aq.den == q
                check(aq)
        # far along the orbit: a * u^(2k), |k| <= 6, for each generator
        for a in pool[:1]:
            for u in ctx.units:
                for k in range(-6, 7):
                    moved += check(a * u ** (2 * k))
    assert moved > 0 and dens > 0
    # ties in trace: 2 - sqrt2 and 2 + sqrt2 = (2 - sqrt2)(1 + sqrt2)^2
    s = ctx_sqrt2.sqrt2
    assert check(2 - s) and unit_square_reduce(2 - s)[0] == 2 + s
    # non-positive inputs, and a context without units, give (a, 1)
    for a in (-(2 + s), 1 - s, ctx_sqrt2.zero):
        check(a)
        assert unit_square_reduce(a) == (a, ctx_sqrt2.one)
    bare = load_field(ctx_sqrt2.record._replace(units=None))
    a = bare.element([10, -7])
    check(a)
    assert unit_square_reduce(a) == (a, bare.one)


def test_rational_span(ctx_sqrt2):
    ctx = ctx_sqrt2
    gens = [ctx.one, ctx.sqrt2]
    assert ctx.rational_span_coords(5 + 3 * ctx.sqrt2, gens) == [F(5), F(3)]


def test_same_record_interoperates(ctx_sqrt2):
    other = sqrt2_context()
    assert other.one + ctx_sqrt2.sqrt2 == 1 + other.sqrt2


def test_sqrt2_context_builds_its_record_once(monkeypatch):
    # every call gets a fresh context, loaded from one cached record
    a, b = sqrt2_context(), sqrt2_context()
    assert a is not b and a.record == b.record
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return field_record(*args, **kwargs)

    monkeypatch.setattr(orders, "field_record", counted)
    numberfield._sqrt2_record.cache_clear()
    try:
        ctxs = [sqrt2_context() for _ in range(3)]
    finally:
        numberfield._sqrt2_record.cache_clear()
    assert len(calls) == 1
    assert len({id(c) for c in ctxs}) == 3
    assert all(c.record == a.record for c in ctxs)


def _some_fields(table, *single):
    """The 19 table fields, the single-field files and F5, F7, F16, F24."""
    assert len(table.records) == 19
    return [table.context(r.label) for r in table.records] + list(single) + \
        [cyclo_info(k).field for k in (5, 7, 16, 24)]


def test_as_rational_reads_q_off_the_unit(table, ctx_q, ctx_sqrt2, ctx_sqrt3,
                                          ctx_sqrt5):
    # in 9 table fields the basis starts with -1, so 1 = -e_0
    minus = 0
    for ctx in _some_fields(table, ctx_q, ctx_sqrt2, ctx_sqrt3, ctx_sqrt5):
        minus += ctx.one.coords[0] == -1
        for q in (F(0), F(3), F(-7, 2), F(5, 6)):
            assert ctx.from_rational(q).as_rational() == q, (ctx, q)
        if ctx.degree > 1:
            assert ctx.gen.as_rational() is None, ctx
    assert minus == 9


def ref_house(a, width):
    """max_i |sigma_i(a)| from the `Interval`s of `embeddings`, each taken
    to its absolute value."""
    ivs = []
    for iv in a.embeddings(width):
        if iv.lo >= 0:
            ivs.append(iv)
        elif iv.hi <= 0:
            ivs.append(Interval(-iv.hi, -iv.lo))
        else:
            ivs.append(Interval(F(0), max(-iv.lo, iv.hi)))
    return Interval(max(iv.lo for iv in ivs), max(iv.hi for iv in ivs))


def test_house_equals_the_interval_abs_hull(table, ctx_q, ctx_sqrt2,
                                            ctx_sqrt3, ctx_sqrt5):
    # fresh contexts, so the first widths meet coarse roots and some
    # enclosures hold zero; the reference reads the same root state
    rng = random.Random(47)
    seen = {"pairs": 0, "straddling": 0, "negative": 0}
    for field in _some_fields(table, ctx_q, ctx_sqrt2, ctx_sqrt3, ctx_sqrt5):
        ctx = load_field(field.record)
        elements = [ctx.zero, ctx.gen] + [
            ctx.element([rng.randint(-4, 4) for _ in range(ctx.degree)],
                        rng.choice([1, 7, 64])) for _ in range(8)]
        for width in (F(1, 2), F(1, 64), F(1, 10 ** 6)):
            for a in elements:
                ivs = a.embeddings(width)
                assert a.house(width) == ref_house(a, width), (ctx, a)
                seen["pairs"] += 1
                seen["straddling"] += any(iv.lo < 0 < iv.hi for iv in ivs)
                seen["negative"] += any(iv.hi < 0 for iv in ivs)
    assert seen["pairs"] == 27 * 30 and min(seen.values()) > 0, seen


def test_degree_one_field(ctx_q):
    a = ctx_q.from_rational(7)
    assert a.norm_trace() == (F(7), F(7))
    assert a.compare(ctx_q.zero) is Dominance.GT
    assert a.signature() == (1,)


def test_product_ring_ties():
    # a squarefree but reducible polynomial gives a product ring in which
    # dominance comparisons can tie on a coordinate
    rec = FieldRecord("QxQ", 4, (6, 0, -5, 0, 1),
                      tuple(tuple(F(int(i == j)) for j in range(4))
                            for i in range(4)), 0 + 2 ** 2 * 3 ** 2 * 4)
    ctx = load_field(rec)
    a = ctx.gen * ctx.gen - ctx.from_rational(2)   # vanishes on two factors
    assert a.compare(ctx.zero) is Dominance.GE_TIED
    with pytest.raises(DivisionByZero):
        ctx.one / a


def test_mult_table_fast_and_slow_paths_agree():
    # identity basis takes the integer fast path; a permuted basis takes the
    # generic path; the structure constants must agree up to the permutation
    poly = (2, 0, -4, 0, 1)
    ident = tuple(tuple(F(int(i == j)) for j in range(4)) for i in range(4))
    perm = tuple(ident[i] for i in (3, 2, 1, 0))
    a = load_field(FieldRecord("fast", 4, poly, ident, 2048))
    b = load_field(FieldRecord("slow", 4, poly, perm, 2048))
    p = (3, 2, 1, 0)
    for i in range(4):
        for j in range(4):
            fast = a.mult_table[i][j]
            slow = b.mult_table[p[i]][p[j]]
            assert fast == tuple(slow[p[k]] for k in range(4))


def load_counting_inverses(monkeypatch, rec):
    """load_field(rec) and the number of `linalg.inverse` calls it made;
    `linalg.identity` must not be called."""
    calls = []
    inverse = linalg.inverse

    def counted(m):
        calls.append(m)
        return inverse(m)

    def no_identity(n):
        raise AssertionError("load_field built an identity matrix")

    monkeypatch.setattr(linalg, "inverse", counted)
    monkeypatch.setattr(linalg, "identity", no_identity)
    return load_field(rec), len(calls)


@pytest.mark.parametrize("poly", [(2, 0, -4, 0, 1), tuple(polys.cos_minpoly(40)),
                                  tuple(polys.cos_minpoly(59))])
def test_identity_basis_loads_alike_as_ints_and_as_fractions(monkeypatch,
                                                            poly):
    # the identity read off the record's entries: no inverse, no identity
    # matrix, and int and `Fraction` entries load to equal contexts
    d = len(poly) - 1
    ints = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    fracs = tuple(tuple(map(F, row)) for row in ints)
    a, inverses_a = load_counting_inverses(
        monkeypatch, FieldRecord("ints", d, poly, ints, 1))
    b, inverses_b = load_counting_inverses(
        monkeypatch, FieldRecord("fracs", d, poly, fracs, 1))
    assert inverses_a == inverses_b == 0
    assert a.mult_table == b.mult_table
    assert a.basis_pow == b.basis_pow == a.pow_to_basis == b.pow_to_basis \
        == [list(row) for row in ints]
    assert a.roots() == b.roots()
    assert a._horner == b._horner == polys.horner_rows(ints)
    power = [[F(x) for x in row] for row in ints]
    assert a.mult_table == ref_basis_mult_table(poly, power, power)


def test_permutation_basis_takes_the_general_path(monkeypatch):
    # a 0/1 basis that is not the identity is inverted, and its table is
    # the power basis's table permuted
    poly = (2, 0, -4, 0, 1)
    perm = (1, 0, 3, 2)
    basis = tuple(tuple(F(int(perm[i] == j)) for j in range(4))
                  for i in range(4))
    ctx, inverses = load_counting_inverses(
        monkeypatch, FieldRecord("perm", 4, poly, basis, 2048))
    assert inverses == 1
    inv = [[F(x) for x in row] for row in ctx.pow_to_basis]
    assert ctx.mult_table == ref_basis_mult_table(poly, basis, inv)
    power = load_field(FieldRecord("power", 4, poly, IDENTITY4, 2048))
    for i in range(4):
        for j in range(4):
            entry = power.mult_table[perm[i]][perm[j]]
            assert ctx.mult_table[i][j] == tuple(entry[perm[k]]
                                                 for k in range(4))


def test_zero_divisor_signature_detected():
    rec = FieldRecord("QxQ2", 4, (6, 0, -5, 0, 1),
                      tuple(tuple(F(int(i == j)) for j in range(4))
                            for i in range(4)), 144)
    ctx = load_field(rec)
    a = ctx.gen * ctx.gen - ctx.from_rational(2)
    with pytest.raises(ValueError):
        a.signature()


def test_refine_roots_invalidates_embedding_caches(table, monkeypatch):
    # after a refine that narrows a root, both embedding tables must match
    # those of a fresh context refined straight to the same width
    rec = table.by_label("K7168")
    fine = F(1, 1 << 64)
    ref = load_field(rec)
    ref.refine_roots(fine)

    ctx = load_field(rec)
    coarse = ctx.basis_embeddings()
    assert coarse != ref.basis_embeddings()
    ctx.refine_roots(fine)
    assert ctx.basis_embeddings() == ref.basis_embeddings()

    # the box's approximate inverse and midpoint determinant go with them,
    # and so does the rest of the certificate's fixed input: |R|, and M
    # and D of a fresh outward rounding of the current rows, by columns
    ctx = load_field(rec)
    stale, stale_det = ctx.embedding_inverse()
    approx, det = ref.embedding_inverse()
    assert stale.r != approx.r and stale_det != det
    assert stale.mid_t != approx.mid_t and stale.rad_t != approx.rad_t
    ctx.refine_roots(fine)
    assert ctx.embedding_inverse() == (approx, det)
    for c in (ctx, ref):
        kept = c.embedding_inverse()[0]
        mids, rads = linalg._midrad(c.basis_embeddings())
        assert kept.mid_t == linalg.transpose(mids)
        assert kept.rad_t == linalg.transpose(rads)
        assert kept.rabs == [[abs(x) for x in row] for row in kept.r]
        assert kept.rabs_t == linalg.transpose(kept.rabs)

    # the fixed-point table is built at width 2^-(INT_BITS + 8); for K7168
    # some of its ends still move by 2^-64, and its memo goes with it
    ctx = load_field(rec)
    stale = ctx.fixed_point_table()
    stale[2]["memo"] = None
    assert stale[:2] != ref.fixed_point_table()[:2]
    ctx.refine_roots(fine)
    assert ctx.fixed_point_table() == ref.fixed_point_table()

    # so do the ends at root width 1/256 that a lone comparison sums, the
    # bounds of the full table and its packed lower bounds: after a
    # narrowing refine, each equals a fresh context's at the same width,
    # and none is carried over from the wider roots
    xs = [[int(i == j) for j in range(4)] for i in range(4)] + \
        [[3, -1, 2, -5], [-7, 2, 0, 1]]
    mid = F(1, 1 << 12)
    fresh = load_field(rec)
    fresh.refine_roots(mid)
    ctx = load_field(rec)
    ctx._fast_signs(ctx.one)
    coarse = ctx._state.table
    ctx.refine_roots(mid)
    assert [ctx._fast_signs(ctx.element(x)) for x in xs] == \
        [fresh._fast_signs(fresh.element(x)) for x in xs]
    assert ctx._state.table[:2] == fresh._state.table[:2] != coarse[:2]
    ctx = load_field(rec)
    stale = [ctx.fixed_point_bounds(ctx.element(x)) for x in xs]
    stale_packed = [ctx._packed_bounds(tuple(x)) for x in xs]
    assert ctx._state.pack is not None
    ctx.refine_roots(fine)
    bounds = [ctx.fixed_point_bounds(ctx.element(x)) for x in xs]
    assert bounds == [ref.fixed_point_bounds(ref.element(x)) for x in xs]
    assert bounds != stale
    packed = [ctx._packed_bounds(tuple(x)) for x in xs]
    assert packed == [ref._packed_bounds(tuple(x)) for x in xs]
    assert packed != stale_packed

    # only roots wider than the request are refined: K10816's isolating
    # intervals are 11, 11/16, 11/16 and 11/4 wide, and a request no
    # narrower than the widest root refines none and keeps the root state
    # and all it made; once such a request is taken, one no narrower looks
    # at no root, and a narrower one looks at each root once
    refined = []
    refine_root = polys.refine_root
    monkeypatch.setattr(polys, "refine_root", lambda p, c, w: (
        refined.append(cell_interval(c)), refine_root(p, c, w))[1])
    ctx = load_field(table.by_label("K10816"))
    roots = ctx.roots()
    emb = ctx.basis_embeddings()
    ctx.refine_roots(11)
    assert refined == [] and ctx.basis_embeddings() is emb
    ctx.refine_roots(1)
    assert refined == [roots[0], roots[3]]
    assert [iv.hi - iv.lo for iv in ctx.roots()] == [F(11, 16)] * 4
    state, emb = ctx._state, ctx.basis_embeddings()
    made = ctx.embedding_inverse(), ctx._state_table()
    ctx.refine_roots(F(3, 4))
    looked = _probe_width_tests(monkeypatch)
    ctx.refine_roots(F(3, 4))
    ctx.refine_roots(1)
    assert looked == [] and len(refined) == 2
    ctx.refine_roots(F(11, 16))
    assert looked == ctx.roots() and len(refined) == 2
    assert ctx._state is state and ctx.basis_embeddings() is emb
    assert all(a is b for a, b in zip(
        made, (ctx.embedding_inverse(), ctx._state_table())))


def _probe_width_tests(monkeypatch):
    """The roots whose width `refine_roots` tests from now on, in order, as
    `Interval`s."""
    looked, wider = [], polys.RootCell.wider
    monkeypatch.setattr(polys.RootCell, "wider", lambda c, wn, wd: (
        looked.append(cell_interval(c)), wider(c, wn, wd))[1])
    return looked


def test_refine_roots_takes_no_width_after_narrowing(table, monkeypatch):
    # every root is at most max_width wide once narrowed, so a request no
    # narrower, as `fixed_point_table` makes after a refinement to its own
    # width, looks at no root; a narrower one looks at each root once
    ctx = load_field(table.by_label("K10816"))
    ctx.refine_roots(F(1, 1 << 32))
    looked = _probe_width_tests(monkeypatch)
    ctx.fixed_point_table()
    ctx.refine_roots(F(1, 1 << 31))
    assert looked == []
    roots = ctx.roots()
    ctx.refine_roots(F(1, 1 << 33))
    assert looked == roots


# ---------------------------------------------------------------------------
# integer kernels against the `Fraction` paths they replaced

def _fresh_pairs(table):
    """Two fresh contexts of each table field, of F_16 and of F_32."""
    records = list(table.records) + [cyclo_info(k).field.record
                                     for k in (16, 32)]
    assert len(records) == 21
    return [(load_field(rec), load_field(rec)) for rec in records]


def test_embeddings_equal_the_fraction_loop(table):
    # both contexts see the same calls, so their roots must refine alike
    rng = random.Random(31)
    dens = set()
    for ctx, ref in _fresh_pairs(table):
        d = ctx.degree
        samples = [ctx.zero, ctx.one, -ctx.gen]
        for den in (1, 1, 2, 3, 8, 12):
            coords = [rng.choice((0, rng.randint(-9, 9))) for _ in range(d)]
            samples.append(ctx.element(coords, den))
        for width in (F(1, 64), F(1, 256), F(1, 1 << 20), F(3, 1 << 40)):
            for a in samples:
                assert ctx.embeddings(a, width) == \
                    ref_embeddings(ref, a, width), (ctx, a, width)
                assert ctx.roots() == ref.roots()
                dens.add(a.den)
    assert dens >= {1, 2, 3, 8, 12}


def ref_basis_mult_table(poly, basis, inv):
    """Each product of basis rows reduced modulo poly by `Fraction`
    polynomial division and mapped through the inverse basis matrix."""
    d = len(basis)
    inv_t = linalg.transpose(inv)
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            _, rem = ref_divmod_poly(polys.mul(basis[i], basis[j]), poly)
            rem = list(rem) + [F(0)] * (d - len(rem))
            coords = mat_vec(inv_t, rem[:d])
            if any(c.denominator != 1 for c in coords):
                raise NotARing(
                    f"product of basis elements {i},{j} is not in the span")
            table[i][j] = table[j][i] = tuple(int(c) for c in coords)
    return tuple(tuple(row) for row in table)


def _bases(table, rng):
    """Every table basis, the same basis after random unimodular row
    operations (the same ring), and the power basis of every F_k,
    k = 3..60, whose table rows are runs of shared residues."""
    for rec in table.records:
        yield rec.label, rec.poly, rec.basis
        rows = [list(r) for r in rec.basis]
        for _ in range(4):
            i, j = rng.sample(range(rec.degree), 2)
            c = rng.choice((-3, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        yield rec.label + " moved", rec.poly, rows
    for k in range(3, 61):
        rec = cyclo_info(k).field.record
        yield f"F{k}", rec.poly, rec.basis


def test_basis_mult_table_equals_the_fraction_path(table):
    for label, poly, basis in _bases(table, random.Random(5)):
        basis = [[F(x) for x in row] for row in basis]
        inv = linalg.inverse(basis)
        assert basis_mult_table(poly, basis, inv) == \
            ref_basis_mult_table(poly, basis, inv), label


@pytest.mark.parametrize("row, scale", [(1, F(1, 2)), (3, F(1, 3)),
                                        (2, F(-5, 4))])
def test_basis_mult_table_rejects_a_non_ring_like_the_fraction_path(
        table, row, scale):
    # a lattice strictly between O_K and (1/n) O_K is no ring, and the
    # first product that leaves it is named alike on both paths
    for rec in table.records:
        basis = [[F(x) for x in r] for r in rec.basis]
        basis[row] = [x * scale for x in basis[row]]
        inv = linalg.inverse(basis)
        with pytest.raises(NotARing) as got:
            basis_mult_table(rec.poly, basis, inv)
        with pytest.raises(NotARing) as want:
            ref_basis_mult_table(rec.poly, basis, inv)
        assert str(got.value) == str(want.value), rec.label
