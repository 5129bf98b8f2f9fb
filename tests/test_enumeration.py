from fractions import Fraction as F

import pytest

from ternlat import enumeration, linalg
from ternlat.errors import BoxTooLarge, InvalidInput, PrecisionExhausted
from ternlat.enumeration import (DominanceQuery, QueryMode,
                                 dominated_elements, elements_of_norm,
                                 enumerate_representations,
                                 is_indecomposable, solution_box,
                                 small_norm_elements, sqrt_element,
                                 squarefree_witness, sum_of_squares_test,
                                 unsquare)
from ternlat.numberfield import Dominance, load_field, sqrt2_context


def coords_of(elements):
    return sorted(e.coords for e in elements)


def test_small_square_lists(ctx_sqrt2):
    ctx = ctx_sqrt2
    s = ctx.sqrt2
    lam = 2 + s
    lists = {
        "lam": (lam, {(0, 0)}),
        "3": (ctx.from_rational(3), {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}),
        "6": (ctx.from_rational(6),
              {(0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1),
               (1, 1), (-1, -1), (1, -1), (-1, 1)}),
        "3lam": (3 * lam, {(0, 0), (1, 0), (-1, 0), (1, 1), (-1, -1)}),
        "3lambar": (3 * (2 - s), {(0, 0), (1, 0), (-1, 0), (1, -1), (-1, 1)}),
    }
    for name, (bound, expected) in lists.items():
        got = {e.coords for e in dominated_elements(ctx, bound)}
        assert got == expected, name


def test_interval_mode(ctx_sqrt2):
    ctx = ctx_sqrt2
    got = dominated_elements(ctx, ctx.from_rational(3), QueryMode.INTERVAL)
    assert coords_of(got) == sorted([(0, 0), (1, 0), (2, 0), (3, 0)])
    got4 = dominated_elements(ctx, ctx.from_rational(4), QueryMode.INTERVAL)
    # now 2 +- sqrt2 (embeddings 3.41 and 0.59) fit under the bound
    assert (2, 1) in {e.coords for e in got4}
    assert (2, -1) in {e.coords for e in got4}


def test_bound_must_be_positive():
    # a query is a plain record: making one refines no root, and the box
    # and the enumeration reject the bound
    for mode in QueryMode:
        ctx = sqrt2_context()
        state = ctx._state
        query = DominanceQuery(ctx, ctx.sqrt2, mode)
        assert ctx._state is state
        with pytest.raises(InvalidInput,
                           match="enumeration bound must be totally positive"):
            solution_box(query)
        with pytest.raises(InvalidInput,
                           match="enumeration bound must be totally positive"):
            dominated_elements(ctx, ctx.sqrt2, mode)


def test_box_is_frozen(ctx_sqrt2):
    box = solution_box(DominanceQuery(ctx_sqrt2, ctx_sqrt2.from_rational(6)))
    with pytest.raises(AttributeError):
        box.lows = (0, 0)


def test_symmetry(ctx_sqrt2):
    out = dominated_elements(ctx_sqrt2, ctx_sqrt2.from_rational(6))
    got = {e.coords for e in out}
    assert all(tuple(-c for c in t) in got for t in got)


def test_ceiling(table):
    ctx = table.context("K51200")
    with pytest.raises(BoxTooLarge) as exc:
        dominated_elements(ctx, ctx.from_rational(10 ** 8), ceiling=1000)
    assert str(exc.value) == \
        f"estimated {exc.value.estimate} candidates exceeds ceiling 1000"


def test_ceiling_caps_visited_candidates(table, monkeypatch):
    # with the estimate forced low, only the count of visited candidates
    # can stop the enumeration
    ctx = table.context("K51200")
    bound = ctx.from_rational(60)
    box = solution_box(DominanceQuery(ctx, bound), 10 ** 8)
    visited = sum(1 for _ in enumeration._iter_box(ctx.fixed_point_table(),
                                                   box))
    solutions = dominated_elements(ctx, bound)
    monkeypatch.setattr(enumeration, "_candidate_estimate",
                        lambda emb, det, box: 0)
    with pytest.raises(BoxTooLarge) as exc:
        dominated_elements(ctx, bound, ceiling=visited - 1)
    assert exc.value.estimate == visited
    assert dominated_elements(ctx, bound, ceiling=visited) == solutions


def test_box_too_large_names_its_quantity(table, monkeypatch):
    # the estimated-candidates message is checked in test_ceiling

    # box volume: targets that shrink on every call never let it settle
    # (a fresh context: the 80 rounds refine its roots to 2^-166)
    ctx2 = sqrt2_context()
    calls = iter(range(100))

    def shrinking_targets():
        r = 10 ** 6 * F(97, 100) ** next(calls)
        return [-r.numerator] * 2, [r.numerator] * 2, r.denominator

    with pytest.raises(BoxTooLarge) as exc:
        enumeration._build_box(ctx2, shrinking_targets, 10)
    assert next(calls) == 80
    assert str(exc.value) == \
        f"box volume {exc.value.estimate} exceeds ceiling 10"

    # box volume of the product of the per-coordinate candidate lists
    one, zero = ctx2.one, ctx2.zero
    gram = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    with pytest.raises(BoxTooLarge) as exc:
        enumerate_representations(gram, ctx2.from_rational(6), ceiling=50)
    assert str(exc.value) == "box volume 121 exceeds ceiling 50"

    # candidates visited, with the estimate forced low
    ctx = table.context("K51200")
    monkeypatch.setattr(enumeration, "_candidate_estimate",
                        lambda emb, det, box: 0)
    with pytest.raises(BoxTooLarge) as exc:
        dominated_elements(ctx, ctx.from_rational(60), ceiling=10)
    assert str(exc.value) == "visited 11 candidates exceeds ceiling 10"


def test_box_makes_its_targets_once_per_root_state(table):
    # as in `solution_box`, the fixed-point table comes first; its roots
    # are narrower than rounds 0 and 1 ask for: both read one list of
    # embeddings, so one set of targets serves both, and the box reports
    # the table's root width
    ctx = load_field(table.by_label("K51200"))
    bound = ctx.from_rational(60)
    ctx.fixed_point_table()
    calls = []

    def targets():
        calls.append(ctx.basis_embeddings())
        return enumeration._targets(ctx, bound,
                                    QueryMode.SQUARE_DOMINATED)

    box = enumeration._build_box(ctx, targets, 10 ** 8)
    assert len(calls) == 1 and calls[0] is ctx.basis_embeddings()
    assert box.root_width == F(1, 2 ** 32)


def test_boxes_do_not_depend_on_a_lone_comparison_first(table):
    # a lone comparison leaves the roots at width 1/256; `solution_box`
    # takes the full fixed-point table before its positivity check, so the
    # scan's 3 lambda and 6 boxes come from the roots at 2^-32 on a fresh
    # context, on one that compared first and on one that built the table
    for rec in table.records:
        boxes = []
        for first in ("nothing", "compare", "table"):
            ctx = load_field(rec)
            b3, b6 = 3 * (2 + ctx.sqrt2), ctx.from_rational(6)
            if first == "compare":
                assert b3.compare(b6) is Dominance.INCOMPARABLE
                assert not ctx._state.fine
            elif first == "table":
                ctx.fixed_point_table()
            boxes.append([solution_box(DominanceQuery(ctx, b)).to_dict()
                          for b in (b3, b6)])
        assert boxes[0] == boxes[1] == boxes[2], rec.label


def test_uninvertible_embeddings_exhaust_precision(monkeypatch):
    # an interval inverse that fails at every width is not a large box; the
    # field is made first, since making it searches square roots
    ctx = sqrt2_context()
    monkeypatch.setattr(linalg, "interval_inverse", lambda approx: None)
    with pytest.raises(PrecisionExhausted) as exc:
        dominated_elements(ctx, ctx.from_rational(3))
    last = F(1, 64 * 4 ** 79)
    assert exc.value.width == last
    assert str(exc.value) == (
        "basis-embedding matrix could not be inverted at any root width "
        f"tried (last width {last})")


def test_sqrt_element(ctx_sqrt2):
    ctx = ctx_sqrt2
    s = ctx.sqrt2
    assert sqrt_element(ctx.from_rational(2)) == s
    assert sqrt_element(ctx.from_rational(3)) is None
    assert sqrt_element(6 + 4 * s) == 2 + s
    assert sqrt_element(ctx.zero) == ctx.zero


def test_sqrt_element_quartic(table):
    ctx = table.context("K7168")
    p7 = 5 + 3 * ctx.sqrt2
    root = sqrt_element(p7)
    assert root is not None and root * root == p7
    # and the root is the expected (1+sqrt2)*theta up to sign
    expected = (1 + ctx.sqrt2) * ctx.gen
    assert root in (expected, -expected)


def test_indecomposable(ctx_sqrt2):
    ctx = ctx_sqrt2
    lam = 2 + ctx.sqrt2
    res = is_indecomposable(lam)
    assert res.indecomposable and res.reason == "norm-bound"
    res2 = is_indecomposable(ctx.from_rational(2))
    assert not res2.indecomposable
    b, g = res2.decomposition
    assert b + g == ctx.from_rational(2)
    assert b.is_totally_positive() and g.is_totally_positive()


def test_indecomposable_sigma_mode(ctx_sqrt2):
    # -lam is sigma-indecomposable: its positive associate is indecomposable
    res = is_indecomposable(
        ctx_sqrt2.totally_positive_associate(-(2 + ctx_sqrt2.sqrt2))[1])
    assert res.indecomposable


def test_squarefree_witness(ctx_sqrt2, ctx_q, ctx_sqrt3):
    ctx = ctx_sqrt2
    s = ctx.sqrt2
    assert squarefree_witness(5 + 3 * s) is None
    t, gamma = squarefree_witness(ctx.from_rational(2))
    assert t == s and t * t * gamma == ctx.from_rational(2)
    assert abs(t.norm()) > 1
    # unit-square multiples of 7 and 63 with houses above 2^500: the
    # search radius depends on the norm alone
    big = (1 + s) ** 400
    assert squarefree_witness(7 * big) is None
    t, gamma = squarefree_witness(63 * big)
    assert t * t * gamma == 63 * big and not t.is_unit()
    # nor does it need the units: without them there is no walk to make
    bare = load_field(ctx.record._replace(units=None))
    x = 63 * (1 + bare.sqrt2) ** 40
    t, gamma = squarefree_witness(x)
    assert t * t * gamma == x and not t.is_unit()
    assert squarefree_witness(ctx_q.from_rational(2)) is None
    w3 = squarefree_witness(ctx_sqrt3.from_rational(2))
    assert w3 is not None
    t3, g3 = w3
    assert t3 * t3 * g3 == ctx_sqrt3.from_rational(2)


def test_squarefree_witness_quartic(table):
    ctx = table.context("K1600")  # contains sqrt2 and sqrt5
    assert squarefree_witness(5 + 3 * ctx.sqrt2) is None


def test_squarefree_witness_enumerates_once(ctx_sqrt2, monkeypatch):
    # |N(18 + 9*sqrt2)| = 2 * 3^4: norm 3 has no element and norm 9 gives
    # 3; one box serves both norms
    s = ctx_sqrt2.sqrt2
    calls = []
    dominated = enumeration.dominated_elements

    def counted(*args):
        calls.append(args)
        return dominated(*args)

    monkeypatch.setattr(enumeration, "dominated_elements", counted)
    assert squarefree_witness(18 + 9 * s) == (ctx_sqrt2.from_rational(3),
                                              2 + s)
    assert len(calls) == 1


def test_squarefree_radius_is_sized_by_the_norm(table, ctx_q, monkeypatch):
    # house <= _SQUAREFREE_PAD * ceil(top^(1/d)), top the largest m with
    # m^2 | |N(x)|: 7^4 gives 4 * 7 and 7 gives 4 * 2 in degree 4
    radii = []

    def recorded(ctx, house_bound, norm_bound, ceiling):
        radii.append(house_bound)
        return []

    monkeypatch.setattr(enumeration, "small_norm_elements", recorded)
    for label, x, radius in (
            ("K7168", lambda ctx: 7 * (3 + ctx.sqrt2) ** 2, 28),
            ("K2048", lambda ctx: 5 + 3 * ctx.sqrt2, 8),
            ("K2048", lambda ctx: ctx.from_rational(121), 44)):
        assert squarefree_witness(x(table.context(label))) is None
        assert radii.pop() == radius, label
    monkeypatch.undo()
    # the root is found by bisection: over Q it is top = 10^12 itself, and
    # the box of house 4 * 10^12 is refused before any enumeration
    with pytest.raises(BoxTooLarge):
        squarefree_witness(ctx_q.from_rational(10 ** 24))


def test_squarefree_witness_is_complete_over_sqrt2(ctx_sqrt2):
    # B = 1.554 <= _SQUAREFREE_PAD: every gamma * s^2 with s a non-unit
    # has a witness, whatever the unit factor of gamma
    s2 = ctx_sqrt2.sqrt2
    for a in range(-5, 6):
        for b in range(-5, 6):
            s = a + b * s2
            if s.is_zero or s.is_unit():
                continue
            for gamma in (ctx_sqrt2.one, 1 + s2, 2 + s2, 3 + s2,
                          (1 + s2) ** 7):
                x = gamma * s * s
                t, g = squarefree_witness(x)
                assert t * t * g == x and not t.is_unit(), (s, gamma)


def test_squarefree_pad_covers_the_sqrt2_units(ctx_sqrt2):
    # the search box holds an associate of every square divisor when the
    # product over the unit generators u of max(house u, house 1/u) is at
    # most _SQUAREFREE_PAD^2 (2.414 <= 16 over Q(sqrt2))
    width = F(1, 2 ** 20)
    bound = 1
    for u in ctx_sqrt2.units:
        bound *= max(u.house(width).hi, (ctx_sqrt2.one / u).house(width).hi)
    assert bound <= enumeration._SQUAREFREE_PAD ** 2


def test_unsquare(ctx_sqrt2):
    ctx = ctx_sqrt2
    s = ctx.sqrt2
    lam = 2 + s
    mu, beta, k = unsquare(ctx.from_rational(2))
    assert (beta, k) == (lam, 1)
    assert mu == (1 + s) ** -2
    assert mu * beta ** 2 == ctx.from_rational(2)
    assert unsquare(lam) == (ctx.one, lam, 0)
    mu3, beta3, k3 = unsquare(6 + 4 * s)
    assert (mu3, beta3, k3) == (ctx.one, lam, 1)


def test_sum_of_squares(ctx_sqrt2, ctx_q):
    ctx = ctx_sqrt2
    dec = sum_of_squares_test(ctx.from_rational(2), 2)
    assert dec is not None
    assert sum((w * w for w in dec), ctx.zero) == ctx.from_rational(2)
    dec2 = sum_of_squares_test(2 * (2 + ctx.sqrt2), 3)
    assert dec2 is not None
    assert sum((w * w for w in dec2), ctx.zero) == 2 * (2 + ctx.sqrt2)
    assert sum_of_squares_test(ctx_q.from_rational(7), 3) is None
    assert sum_of_squares_test(ctx_q.from_rational(7), 4) is not None
    # a negative count is rejected before any search; 0 squares sum to 0
    with pytest.raises(InvalidInput, match="square count must be at least 0"):
        sum_of_squares_test(ctx.from_rational(3), -1)
    assert sum_of_squares_test(ctx.zero, 0) == ()
    assert sum_of_squares_test(ctx.from_rational(3), 0) is None


def test_representations(ctx_q):
    one, zero = ctx_q.one, ctx_q.zero
    g2 = [[one, zero], [zero, one]]
    reps = enumerate_representations(g2, ctx_q.from_rational(2))
    assert len(reps.vectors) == 4 and reps.complete
    g3 = [[one if i == j else zero for j in range(3)] for i in range(3)]
    reps = enumerate_representations(g3, ctx_q.from_rational(7))
    assert reps.vectors == [] and reps.complete
    reps = enumerate_representations(g3, ctx_q.from_rational(6))
    assert len(reps.vectors) == 24 and reps.complete


def test_representation_list_cut_at_cap_is_flagged(ctx_q, ctx_sqrt2):
    # x^2 + y^2 + z^2 = 6 over Z: 24 vectors, the last one (2, 1, 1) in the
    # order the candidate lists are searched, with (2, 1, 2) .. (2, 2, 2)
    # still to test after it
    g3 = [[ctx_q.one if i == j else ctx_q.zero for j in range(3)]
          for i in range(3)]
    six = ctx_q.from_rational(6)
    full = enumerate_representations(g3, six)
    assert full.complete and len(full.vectors) == 24
    assert full.vectors[-1] == tuple(ctx_q.from_rational(c) for c in (2, 1, 1))
    for cap in (1, 5, 23, 24):
        cut = enumerate_representations(g3, six, cap=cap)
        assert not cut.complete
        assert cut.vectors == full.vectors[:cap]
    assert enumerate_representations(g3, six, cap=25) == full
    # x^2 = 1: the last candidate, 1, is the second solution, so a cap of 2
    # is reached when nothing is left to test
    g1 = [[ctx_q.one]]
    one = ctx_q.one
    reps = enumerate_representations(g1, one, cap=2)
    assert reps.vectors == [(-one,), (one,)] and reps.complete
    reps = enumerate_representations(g1, one, cap=1)
    assert reps.vectors == [(-one,)] and not reps.complete
    # over Z[sqrt2]: 2 = sqrt2^2 = 1 + 1 in x^2 + y^2
    one, zero = ctx_sqrt2.one, ctx_sqrt2.zero
    two = ctx_sqrt2.from_rational(2)
    full = enumerate_representations([[one, zero], [zero, one]], two)
    assert full.complete and len(full.vectors) == 8
    assert all(x * x + y * y == two for x, y in full.vectors)
    cut = enumerate_representations([[one, zero], [zero, one]], two, cap=3)
    assert not cut.complete and cut.vectors == full.vectors[:3]


def test_representation_counts_are_the_candidate_list_sizes(ctx_q,
                                                            ctx_sqrt2):
    # x^2 + y^2 + z^2 = 6: each coordinate ranges over omega^2 <= 6
    for ctx, size in ((ctx_q, 5), (ctx_sqrt2, 11)):
        one, zero = ctx.one, ctx.zero
        g3 = [[one if i == j else zero for j in range(3)] for i in range(3)]
        six = ctx.from_rational(6)
        lists = [dominated_elements(ctx, six) for _ in range(3)]
        assert [len(c) for c in lists] == [size] * 3
        assert enumerate_representations(g3, six).counts == \
            tuple(len(c) for c in lists)
        # a search cut at its cap still built its complete lists
        assert enumerate_representations(g3, six, cap=1).counts == \
            (size,) * 3
        # the early returns build no list
        assert enumerate_representations(g3, zero).counts == ()
        assert enumerate_representations(g3, -six).counts == ()


def test_elements_of_norm(ctx_sqrt2):
    els = elements_of_norm(ctx_sqrt2, 7, F(5), totally_positive=True)
    assert {e.coords for e in els} == {(3, 1), (3, -1)}


@pytest.mark.parametrize("label, n, positive", [
    ("K7168", 7, False), ("K2624", 7, True), ("K51200", 49, False)])
def test_elements_of_norm_quartic(table, label, n, positive):
    # the fixed-point norm pre-filter drops no element of norm +-n
    ctx = table.context(label)
    els = elements_of_norm(ctx, n, F(6), totally_positive=positive)
    brute = [w for w in dominated_elements(ctx, ctx.from_rational(36))
             if abs(w.norm()) == n
             and (not positive or w.is_totally_positive())]
    assert els and els == brute


@pytest.mark.parametrize("label", ["sqrt2", "K2048", "K51200", "K18688"])
def test_small_norm_elements_equal_the_naive_list(table, ctx_sqrt2, label):
    # the prefilter and the norm are taken on the first half of the list
    # and mirrored onto the second: the result is the naive list, in order
    ctx = ctx_sqrt2 if label == "sqrt2" else table.context(label)
    for h, n in [(1, 1), (3, 7), (F(7, 2), 2), (6, 64), (10, 50), (4, 1000)]:
        naive = [(w, abs(w.norm()))
                 for w in dominated_elements(ctx, ctx.from_rational(F(h) ** 2))
                 if w and abs(w.norm()) <= n]
        assert naive and small_norm_elements(ctx, h, n) == naive, (h, n)


def test_lambda_squarefree_depends_on_field(ctx_sqrt2, table):
    # 2+sqrt2 is squarefree in the quadratic field but becomes a square in
    # the field generated by its square root
    lam2 = 2 + ctx_sqrt2.sqrt2
    assert squarefree_witness(lam2) is None
    ctx = table.context("K2048")
    lam4 = 2 + ctx.sqrt2
    w = squarefree_witness(lam4)
    assert w is not None
    t, gamma = w
    assert t * t * gamma == lam4 and gamma.is_unit()
