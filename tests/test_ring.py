"""Differential tests of the generic ring routines and `polys.MPoly`.

`linalg.ring_det`, `linalg.ring_adjugate` and `linalg.ring_bilinear` work
over any commutative ring.  Over Q they are checked against the Bareiss
determinant and inverse; over Q[x] by evaluation, which is a ring
homomorphism and so commutes with the determinant.  The one Bareiss
routine, `linalg.adjugate_solve`, is checked in turn against `ring_det`
and against a x = det(a) c on random integer systems.
"""

from fractions import Fraction as F
from operator import mul

from hypothesis import example, given, settings, strategies as st

from conftest import fraction_inverse, mat_vec
from ternlat import linalg
from ternlat.polys import MPoly

entries = st.one_of(st.integers(-9, 9),
                    st.fractions(min_value=-9, max_value=9, max_denominator=6)
                    ).map(F)


@st.composite
def matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    a = [[draw(entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["any", "zero_first_row", "zero_first_entry",
                                  "dependent_row"]))
    if shape == "zero_first_row":
        a[0] = [F(0)] * n
    elif shape == "zero_first_entry":
        a[0][0] = F(0)
    elif shape == "dependent_row" and n > 1:
        c = draw(entries)
        a[n - 1] = [c * x for x in a[0]]
    return a


@settings(max_examples=200, deadline=None)
@given(matrices())
@example([[F(0), F(1)], [F(1), F(0)]])
@example([[F(0), F(0)], [F(2), F(3)]])
@example([[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(9)]])
def test_ring_det_and_adjugate_match_elimination(a):
    n = len(a)
    det = linalg.ring_det(a)
    assert det == linalg.det(a)
    adj = linalg.ring_adjugate(a)
    assert linalg.mat_mul(a, adj) == [[det if i == j else 0 for j in range(n)]
                                      for i in range(n)]
    if det != 0:
        assert adj == [[det * x for x in row] for row in fraction_inverse(a)]


@st.composite
def integer_systems(draw):
    """(a, cols): a square integer matrix of size 1 to 6, some with a zero
    leading pivot or a dependent row, some symmetric (with or without a
    zero leading pivot), and up to three integer columns."""
    ints = st.integers(-9, 9)
    n = draw(st.integers(1, 6))
    a = [[draw(ints) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["any", "zero_pivot", "dependent_row",
                                  "symmetric"]))
    if shape == "zero_pivot":
        a[0][0] = 0
    elif shape == "dependent_row" and n > 1:
        c = draw(ints)
        a[n - 1] = [c * x for x in a[0]]
    elif shape == "symmetric":
        a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if draw(st.booleans()):
            a[0][0] = 0
    cols = draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                         max_size=3))
    return a, cols


@settings(max_examples=300, deadline=None)
@given(integer_systems())
@example(([[0, 1], [1, 0]], [[2, 3]]))                      # symmetric swap
@example(([[1, 2, 3], [2, 4, 5], [1, 1, 1]], [[1, 0, 0]]))  # swap at k = 1
@example(([[0, 0], [2, 3]], [[1, 1]]))                      # zero row
@example(([[0, 1, 2], [0, 3, 4], [0, 5, 7]], [[1, 1, 1]]))  # no pivot
@example(([[1, 2], [2, 4]], [[1, 1], [0, 1]]))              # zero last pivot
@example(([[5]], [[7], [-3]]))
@example(([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [[1, 2, 3]]))  # symmetric, k = 1
@example(([], []))                                          # empty
def test_adjugate_solve_gives_det_and_adjugate_columns(system):
    a, cols = system
    det, sols = linalg.adjugate_solve(a, cols)
    assert det == linalg.ring_det(a) == linalg.det_int(a)
    if det == 0:
        assert sols == []
        return
    assert len(sols) == len(cols)
    for c, x in zip(cols, sols):
        assert [sum(map(mul, row, x)) for row in a] == [det * y for y in c]


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_ring_bilinear_is_u_transpose_g_v(g, data):
    n = len(g)
    coords = st.lists(st.one_of(st.just(F(0)), entries), min_size=n,
                      max_size=n)
    u, v = data.draw(coords), data.draw(coords)
    want = sum((x * y for x, y in zip(u, mat_vec(g, v))), F(0))
    assert linalg.ring_bilinear(u, g, v) == want


def evaluate(p, x):
    return sum((c * x ** key[0] for key, c in p.terms.items()), F(0))


@st.composite
def poly_matrices(draw):
    """Square matrices of univariate polynomials over Q of degree <= 2."""
    n = draw(st.integers(1, 4))
    x = MPoly.var(0, 1, F(1))

    def entry():
        c0, c1, c2 = draw(st.lists(st.one_of(st.just(F(0)), entries),
                                   min_size=3, max_size=3))
        return MPoly.const(c0, 1) + x * c1 + x * x * c2

    return [[entry() for _ in range(n)] for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(poly_matrices(), entries)
def test_ring_det_commutes_with_evaluation(m, x):
    det = linalg.ring_det(m)
    assert isinstance(det, MPoly)
    assert evaluate(det, x) == linalg.det([[evaluate(p, x) for p in row]
                                           for row in m])


def test_mpoly_arithmetic_and_zero():
    g, t = MPoly.var(0, 2), MPoly.var(1, 2)
    p = g * t - t * g
    assert not p and p == MPoly()
    assert (g + t) * (g - t) == g * g - t * t
    assert -(g * 3) == g * -3
    assert MPoly.const(0, 2) == MPoly() and MPoly({(1, 0): 0}) == MPoly()
    assert MPoly.const(2, 2) * g == g + g


def test_mpoly_format():
    names = ("gamma", "t", "beta")
    g, t, b = (MPoly.var(i, 3) for i in range(3))
    assert MPoly().format(names) == "0"
    assert MPoly.const(-4, 3).format(names) == "-4"
    assert (g * g * t * t - t * b * b).format(names) == \
        "gamma^2*t^2 - t*beta^2"
    assert (b * 2 - g + MPoly.const(7, 3)).format(names) == \
        "-gamma + 2*beta + 7"
    assert (t * -3 + g * g * g).format(names) == "gamma^3 - 3*t"
