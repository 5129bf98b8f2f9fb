"""Gram-matrix algebra for free classical quadratic lattices.

Lattices are represented only by Gram matrices in a fixed basis.  Duals are
exact adjugate-over-determinant inverses, definiteness is decided by exact
principal minors, and isometry / sublattice searches are complete because
each image vector ranges over a certified representation enumeration.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .enumeration import (DEFAULT_CEILING, QueryMode, dominated_elements,
                          enumerate_representations, sqrt2_span_witnesses,
                          squarefree_witness)
from .errors import (InvalidInput, Singular, UnclassifiedCase,
                     UnexpectedSingularCase)
from .numberfield import Element, FieldContext, unit_square_reduce

Vector = Tuple[Element, ...]


class GramMatrix:
    """Symmetric matrix of field elements in a fixed lattice basis."""

    __slots__ = ("ctx", "n", "entries")

    def __init__(self, entries: Sequence[Sequence[Element]]):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("Gram matrix must be square")
        if n == 0:
            raise ValueError("empty Gram matrix")
        ctx = entries[0][0].ctx
        for i in range(n):
            for j in range(n):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        self.ctx = ctx
        self.n = n
        self.entries = tuple(tuple(row) for row in entries)

    def __eq__(self, other):
        if not isinstance(other, GramMatrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        rows = "; ".join("[" + ", ".join(map(str, row)) + "]"
                         for row in self.entries)
        return f"Gram({rows})"

    @staticmethod
    def diagonal(values: Sequence[Element]) -> "GramMatrix":
        ctx = values[0].ctx
        n = len(values)
        return GramMatrix([[values[i] if i == j else ctx.zero
                            for j in range(n)] for i in range(n)])

    def det(self) -> Element:
        return linalg.ring_det(self.entries)

    @property
    def is_classical(self) -> bool:
        return all(e.is_integral for row in self.entries for e in row)

    def is_totally_positive_semidefinite(self) -> bool:
        # leading minors alone do not decide psd; use all principal minors
        return all(m.is_totally_nonnegative()
                   for m in principal_minors(self.entries))

    def value(self, v: Sequence[Element]) -> Element:
        """v^T G v."""
        return self.pairing(v, v)

    def pairing(self, u: Sequence[Element], v: Sequence[Element]) -> Element:
        """u^T G v."""
        return linalg.ring_bilinear(u, self.entries, v)


def principal_minors(m: Sequence[Sequence]) -> Iterator:
    """The 2^n - 1 principal minors of the n x n matrix m over any ring
    (`linalg.ring_det`), by size and then by index set, so the determinant
    of m comes last."""
    n = len(m)
    for k in range(1, n + 1):
        for idx in combinations(range(n), k):
            yield linalg.ring_det([[m[i][j] for j in idx] for i in idx])


class LatticeClass(Enum):
    """The ternary classical lattices universal over the base quadratic field,
    plus the two diagonal shapes that occur in the classification table."""

    L1 = "L1"                       # <1, 1, lambda>
    L2 = "L2"                       # <1> + [[lambda, 1], [1, 2-sqrt2]]
    L3 = "L3"                       # <1> + [[lambda, 1], [1, 3]]
    L3P = "L3'"                     # <1> + [[2-sqrt2, 1], [1, 3]]
    DIAG_1_LAMBDA_2 = "<1,lambda,2>"
    DIAG_1_LAMBDA_3 = "<1,lambda,3>"


def standard_lattice(ctx: FieldContext, cls: LatticeClass) -> GramMatrix:
    if ctx.sqrt2 is None:
        raise ValueError("field has no sqrt2 tag")
    one, zero = ctx.one, ctx.zero
    lam = 2 + ctx.sqrt2
    lam_bar = 2 - ctx.sqrt2
    three = ctx.from_rational(3)
    two = ctx.from_rational(2)
    if cls is LatticeClass.L1:
        return GramMatrix.diagonal([one, one, lam])
    if cls is LatticeClass.L2:
        return GramMatrix([[one, zero, zero], [zero, lam, one],
                           [zero, one, lam_bar]])
    if cls is LatticeClass.L3:
        return GramMatrix([[one, zero, zero], [zero, lam, one],
                           [zero, one, three]])
    if cls is LatticeClass.L3P:
        return GramMatrix([[one, zero, zero], [zero, lam_bar, one],
                           [zero, one, three]])
    if cls is LatticeClass.DIAG_1_LAMBDA_2:
        return GramMatrix.diagonal([one, lam, two])
    if cls is LatticeClass.DIAG_1_LAMBDA_3:
        return GramMatrix.diagonal([one, lam, three])
    raise ValueError(cls)


class LatticePredicates(NamedTuple):
    classical: bool
    unimodular: bool
    det: Element
    det_norm: Fraction
    det_class: Element       # det reduced modulo squares of supplied units


def lattice_predicates(g: GramMatrix) -> LatticePredicates:
    det = g.det()
    classical = g.is_classical
    det_norm = det.norm()
    unimodular = classical and abs(det_norm) == 1
    det_class = unit_square_reduce(det)[0]
    return LatticePredicates(classical, unimodular, det, det_norm, det_class)


def offdiag_candidates(a: Element, b: Element,
                       ceiling: int = DEFAULT_CEILING) -> List[Element]:
    """All integral omega with omega^2 <= a*b: the only Gram entries possible
    between lattice vectors of values a and b (Cauchy-Schwarz)."""
    if not (a.is_totally_positive() and b.is_totally_positive()):
        raise ValueError("offdiagonal bounds need totally positive values")
    return dominated_elements(a.ctx, a * b, QueryMode.SQUARE_DOMINATED, ceiling)


def _column_search(g1: GramMatrix, target: GramMatrix, require_unit_det: bool,
                   ceiling: int) -> Optional[Tuple[Vector, ...]]:
    """Vectors v_1..v_k in the lattice of g1 whose Gram equals target."""
    ctx = g1.ctx
    k = target.n
    columns: List[List[Vector]] = []
    for j in range(k):
        # cap=ceiling never cuts: a candidate volume above ceiling raises
        reps = enumerate_representations(g1.entries, target.entries[j][j],
                                         cap=ceiling, ceiling=ceiling)
        if not reps.complete:
            raise RuntimeError("representation list cut at the ceiling")
        if not reps.vectors:
            return None
        columns.append(reps.vectors)
    chosen: List[Vector] = []

    def go(j: int) -> Optional[Tuple[Vector, ...]]:
        if j == k:
            if require_unit_det:
                m = [[chosen[c][r] for c in range(k)] for r in range(k)]
                det = linalg.ring_det(m)
                if not det.is_unit():
                    return None
            return tuple(chosen)
        for v in columns[j]:
            ok = True
            for i in range(j):
                if g1.pairing(chosen[i], v) != target.entries[i][j]:
                    ok = False
                    break
            if ok:
                chosen.append(v)
                result = go(j + 1)
                if result is not None:
                    return result
                chosen.pop()
        return None

    return go(0)


def isometry_search(g1: GramMatrix, g2: GramMatrix,
                    ceiling: int = DEFAULT_CEILING) -> Optional[Tuple[Tuple[Element, ...], ...]]:
    """Change-of-basis M (rows) with M^T G1 M = G2 and det M a unit, or None.

    Complete: column j of M ranges over all representations of G2[j][j] by
    G1, filtered by the off-diagonal pairings.
    """
    if g1.n != g2.n:
        return None
    vectors = _column_search(g1, g2, require_unit_det=True, ceiling=ceiling)
    if vectors is None:
        return None
    n = g1.n
    return tuple(tuple(vectors[c][r] for c in range(n)) for r in range(n))


def lattice_class(g: GramMatrix, ceiling: int = DEFAULT_CEILING
                  ) -> Optional[Tuple[LatticeClass, Tuple[Vector, ...]]]:
    """The first named class whose standard lattice is isometric to g,
    with the change of basis of `isometry_search`, or None."""
    for cls in LatticeClass:
        m = isometry_search(g, standard_lattice(g.ctx, cls), ceiling)
        if m is not None:
            return cls, m
    return None


def contains_sublattice(g: GramMatrix, target,
                        ceiling: int = DEFAULT_CEILING) -> Optional[Tuple[Vector, ...]]:
    """Vectors of the lattice of g whose Gram matrix equals the target's.

    `target` may be a GramMatrix or a LatticeClass name.  Returns the
    embedding vectors (coordinates in the basis of g), or None after a
    complete search.
    """
    if isinstance(target, LatticeClass):
        target = standard_lattice(g.ctx, target)
    return _column_search(g, target, require_unit_det=False, ceiling=ceiling)


# ---------------------------------------------------------------------------
# ternary classification over the sqrt2 quadratic field

class CaseOutcome(NamedTuple):
    w13: Element
    w23: Element
    feasible: bool                       # totally psd Gram?
    lattice_class: Optional[LatticeClass]
    witness: Optional[Tuple[Tuple[Element, ...], ...]]


class ClassificationReport(NamedTuple):
    cases: Tuple[CaseOutcome, ...]

    def classes_found(self) -> List[LatticeClass]:
        seen = []
        for c in self.cases:
            if c.lattice_class is not None and c.lattice_class not in seen:
                seen.append(c.lattice_class)
        return seen


def small_condition_holds(ctx: FieldContext,
                          ceiling: int = DEFAULT_CEILING) -> bool:
    """Do all omega with omega^2 <= 3*lambda or omega^2 <= 6 lie in the
    span of {1, sqrt2}?"""
    lam = 2 + ctx.sqrt2
    return not sqrt2_span_witnesses(ctx, 3 * lam, ceiling) and \
        not sqrt2_span_witnesses(ctx, ctx.from_rational(6), ceiling)


def ternary_classification(ctx: FieldContext,
                           ceiling: int = DEFAULT_CEILING) -> ClassificationReport:
    """Classify the sign-reduced family [[1,0,a],[0,lam,b],[a,b,3]].

    Off-diagonals a in {0,1,sqrt2} and b in {0,1,1+sqrt2} are the only
    possibilities (up to sign) when every admissible off-diagonal lies in the
    sqrt2 subfield; each feasible case is matched against the six named
    classes by a complete isometry search (`lattice_class`).
    """
    if ctx.sqrt2 is None:
        raise InvalidInput("classification needs the sqrt2 tag")
    if ctx.degree != 2 and not small_condition_holds(ctx, ceiling):
        raise InvalidInput("field does not force sqrt2-rational off-diagonals")
    one, zero, s = ctx.one, ctx.zero, ctx.sqrt2
    lam = 2 + s
    three = ctx.from_rational(3)
    cases = []
    for a in (zero, one, s):
        for b in (zero, one, one + s):
            g = GramMatrix([[one, zero, a], [zero, lam, b], [a, b, three]])
            if not g.is_totally_positive_semidefinite():
                cases.append(CaseOutcome(a, b, False, None, None))
                continue
            if not g.det().is_totally_positive():
                raise UnexpectedSingularCase(
                    f"psd but singular case a={a}, b={b}")
            found = lattice_class(g, ceiling)
            if found is None:
                raise UnclassifiedCase(f"case a={a}, b={b} matches no class")
            cases.append(CaseOutcome(a, b, True, *found))
    return ClassificationReport(tuple(cases))


# ---------------------------------------------------------------------------
# free overlattice criterion

class OverlatticeResult(NamedTuple):
    has_proper_free_classical_overlattice: bool
    witness: Optional[Tuple[Element, Element]]    # (t, gamma) with p7 = gamma t^2


def free_overlattice_test(ctx: FieldContext,
                          ceiling: int = DEFAULT_CEILING) -> OverlatticeResult:
    """Whether the L3 lattice acquires a proper classical free overlattice
    over this field: equivalent to 5+3*sqrt2 not being squarefree."""
    if ctx.sqrt2 is None:
        raise InvalidInput("field has no sqrt2 tag")
    p7 = 5 + 3 * ctx.sqrt2
    w = squarefree_witness(p7, ceiling=ceiling)
    if w is None:
        return OverlatticeResult(False, None)
    return OverlatticeResult(True, w)


# ---------------------------------------------------------------------------
# module bases over the Euclidean ring Z[sqrt2]

def _euclid_quotient(a: Element, b: Element) -> Element:
    """q with |N(a - b q)| < |N(b)| in Z[sqrt2] (norm-Euclidean): the
    coordinates of a / b rounded to the nearest integers."""
    x = a / b
    return a.ctx.element([(2 * c + x.den) // (2 * x.den) for c in x.coords])


def hnf_row_basis_sqrt2(ctx: FieldContext,
                        rows: Sequence[Sequence[Element]]) -> List[List[Element]]:
    """Row-reduce generators of a module over Z[sqrt2] to an independent basis.

    Entries may be non-integral; the module is scaled by a common rational
    denominator first (`linalg.euclid_rows` works on integral entries).
    Only valid over the degree-2 sqrt2 field, where the ring of integers is
    norm-Euclidean.
    """
    if ctx.degree != 2 or ctx.sqrt2 is None:
        raise ValueError("module reduction implemented over Z[sqrt2] only")
    den = lcm(*(e.den for r in rows for e in r))
    basis = linalg.euclid_rows([[e * den for e in r] for r in rows],
                               _euclid_quotient, lambda e: abs(e.norm()))
    inv_den = Fraction(1, den)
    return [[e * inv_den for e in row] for row in basis]


def generated_module_gram(g4: GramMatrix) -> GramMatrix:
    """Gram matrix of a basis of the module generated by n vectors of rank n-1.

    The first n-1 generators must be independent; the last is expressed in
    terms of them from the Gram relations, and a module basis is computed by
    Euclidean row reduction over Z[sqrt2].
    """
    n = g4.n
    ctx = g4.ctx
    lead = [[g4.entries[i][j] for j in range(n - 1)] for i in range(n - 1)]
    g3 = GramMatrix(lead)
    det3 = g3.det()
    if det3.is_zero:
        raise Singular("leading generators are dependent")
    adj = linalg.ring_adjugate(lead)
    rhs = [g4.entries[i][n - 1] for i in range(n - 1)]
    coeffs = []
    for i in range(n - 1):
        acc = ctx.zero
        for j in range(n - 1):
            acc = acc + adj[i][j] * rhs[j]
        coeffs.append(acc / det3)
    rows = [[ctx.one if i == j else ctx.zero for j in range(n - 1)]
            for i in range(n - 1)]
    rows.append(coeffs)
    basis = hnf_row_basis_sqrt2(ctx, rows)
    if len(basis) != n - 1:
        raise Singular("module reduction lost rank")
    entries = [[g3.pairing(basis[i], basis[j]) for j in range(n - 1)]
               for i in range(n - 1)]
    return GramMatrix(entries)
