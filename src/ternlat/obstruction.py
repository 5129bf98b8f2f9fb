"""Non-universality certificates for ternary classical lattices.

Two machine-checkable obstruction ingredients are produced here: forced
orthogonality (all admissible Gram off-diagonals between prescribed values
are zero) and non-representation of a target by the dual of a diagonal
lattice.  Together they show that no ternary classical lattice represents
all four chosen elements.  The module also carries square classes, the
two 4x4 determinant case analyses over the sqrt2 field and their symbolic
analogue over the relation ring gamma * t^2 = 2.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .enumeration import (DEFAULT_CEILING, QueryMode, canonical_sign,
                          dominated_elements, enumerate_representations,
                          is_indecomposable, require_count, sqrt_element,
                          small_norm_elements, squarefree_witness)
from .errors import InvalidInput, UnclassifiedCase
from .numberfield import (Element, FieldContext, sqrt2_context,
                          unit_square_reduce)
from .polys import MPoly
from .quadlattice import (GramMatrix, LatticeClass, generated_module_gram,
                          lattice_class, offdiag_candidates, principal_minors)


def _element_dict(e: Element) -> dict:
    return {"coords": list(e.coords), "den": e.den}


# ---------------------------------------------------------------------------
# orthogonality forcing

class PairForcing(NamedTuple):
    i: int
    j: int
    admissible: Tuple[Element, ...]   # complete list of possible off-diagonals

    @property
    def forced_zero(self) -> bool:
        return len(self.admissible) == 1 and self.admissible[0].is_zero


class OrthogonalityCertificate(NamedTuple):
    field_label: str
    elements: Tuple[Element, ...]
    pairs: Tuple[PairForcing, ...]

    @property
    def is_valid(self) -> bool:
        return all(p.forced_zero for p in self.pairs)

    def to_dict(self) -> dict:
        return {
            "kind": "orthogonality",
            "field": self.field_label,
            "elements": [_element_dict(e) for e in self.elements],
            "pairs": [{"i": p.i, "j": p.j,
                       "admissible": [_element_dict(a) for a in p.admissible]}
                      for p in self.pairs],
            "valid": self.is_valid,
        }


def orthogonality_forcing(ctx: FieldContext, elements: Sequence[Element],
                          ceiling: int = DEFAULT_CEILING
                          ) -> OrthogonalityCertificate:
    """For each pair, the complete list of admissible Gram off-diagonals.

    Valid when every pair forces zero: vectors representing the elements in
    any classical lattice are then necessarily orthogonal.
    """
    elements = tuple(elements)
    for e in elements:
        if not e.is_integral or not e.is_totally_positive():
            raise ValueError("orthogonality forcing needs totally positive "
                             "integral elements")
    pairs = tuple(PairForcing(i, j, tuple(offdiag_candidates(a, b, ceiling)))
                  for (i, a), (j, b) in combinations(enumerate(elements), 2))
    return OrthogonalityCertificate(ctx.record.label, elements, pairs)


# ---------------------------------------------------------------------------
# dual non-representation

class DualTranscript(NamedTuple):
    field_label: str
    diag: Tuple[Element, Element, Element]
    gamma: Element
    candidate_counts: Tuple[int, ...]      # per-coordinate complete list sizes
    counterexample: Optional[Tuple[Element, ...]]

    @property
    def is_valid(self) -> bool:
        return self.counterexample is None

    def to_dict(self) -> dict:
        return {
            "kind": "dual-nonrepresentation",
            "field": self.field_label,
            "diag": [_element_dict(e) for e in self.diag],
            "gamma": _element_dict(self.gamma),
            "candidate_counts": list(self.candidate_counts),
            "counterexample": None if self.counterexample is None else
                [_element_dict(e) for e in self.counterexample],
        }


def dual_nonrepresentation(ctx: FieldContext,
                           diag: Sequence[Element], gamma: Element,
                           ceiling: int = DEFAULT_CEILING) -> DualTranscript:
    """Exhaustive test of x^2 a2 a3 + y^2 a1 a3 + z^2 a1 a2 = gamma a1 a2 a3,
    the cleared-denominator form of representing gamma by the dual of the
    diagonal lattice <a1, a2, a3>: one representation search, stopped at
    its first solution, gives the counterexample and the candidate list
    sizes (`Representations.counts`); BoxTooLarge when a list, or the
    product of their sizes, exceeds the ceiling."""
    a1, a2, a3 = diag
    for e in diag:
        if not e.is_totally_positive():
            raise InvalidInput("diagonal entries must be totally positive")
    if not gamma.is_totally_positive():
        raise InvalidInput("gamma must be totally positive")
    gram = GramMatrix.diagonal([a2 * a3, a1 * a3, a1 * a2])
    reps = enumerate_representations(gram.entries, gamma * a1 * a2 * a3,
                                     cap=1, ceiling=ceiling)
    return DualTranscript(ctx.record.label, (a1, a2, a3), gamma, reps.counts,
                          reps.vectors[0] if reps.vectors else None)


# ---------------------------------------------------------------------------
# combined certificate

class ObstructionCertificate(NamedTuple):
    field_label: str
    quadruple: Tuple[Element, Element, Element, Element]   # (a1, a2, a3, gamma)
    orthogonality: OrthogonalityCertificate
    nonrepresentation: DualTranscript

    @property
    def is_valid(self) -> bool:
        return self.orthogonality.is_valid and self.nonrepresentation.is_valid

    def to_dict(self) -> dict:
        return {
            "kind": "obstruction",
            "field": self.field_label,
            "quadruple": [_element_dict(e) for e in self.quadruple],
            "orthogonality": self.orthogonality.to_dict(),
            "nonrepresentation": self.nonrepresentation.to_dict(),
            "valid": self.is_valid,
        }


def revalidate_certificate(ctx: FieldContext, data: dict,
                           ceiling: int = DEFAULT_CEILING) -> bool:
    """Re-run both sub-searches of a serialized certificate and compare."""
    if data.get("kind") != "obstruction":
        raise ValueError("not an obstruction certificate")
    quad = [ctx.element(d["coords"], d["den"]) for d in data["quadruple"]]
    cert = obstruction_certificate(ctx, quad[:3], quad[3], ceiling)
    return cert.to_dict() == data


def obstruction_certificate(ctx: FieldContext, triple: Sequence[Element],
                            gamma: Element,
                            ceiling: int = DEFAULT_CEILING
                            ) -> ObstructionCertificate:
    orth = orthogonality_forcing(ctx, triple, ceiling)
    dual = dual_nonrepresentation(ctx, triple, gamma, ceiling)
    return ObstructionCertificate(ctx.record.label,
                                  (*tuple(triple), gamma), orth, dual)


DEFAULT_POOL_SIZE = 40     # candidates kept by `candidate_pool`
_POOL_HOUSE_BOUND = 6      # house of the enumerated elements
_POOL_NORM_BOUND = 64      # |norm| of the kept candidates


def candidate_pool(ctx: FieldContext, pool_size: int = DEFAULT_POOL_SIZE,
                   ceiling: int = DEFAULT_CEILING) -> List[Element]:
    """Totally positive candidates of small norm, ordered by
    (norm, trace, coordinates).

    Enumeration covers all sign patterns with house up to _POOL_HOUSE_BOUND
    and keeps |norm| up to _POOL_NORM_BOUND; each element w with a totally
    positive associate eta * w (`FieldContext.totally_positive_associate`,
    eta = 1 for a totally positive w) becomes that associate, normalized
    modulo squares of the supplied units, so candidates whose positive
    representatives are large (but whose classes contain small elements)
    are still reached.  |norm| is invariant under both moves, so each class
    keeps the one of the element it came from.
    """
    require_count("pool size", pool_size)
    require_count("ceiling", ceiling)
    pool = {}
    for w, n in small_norm_elements(ctx, _POOL_HOUSE_BOUND, _POOL_NORM_BOUND,
                                    ceiling):
        associate = ctx.totally_positive_associate(w)
        if associate is None:
            continue
        w = unit_square_reduce(associate[1])[0]
        pool[w.coords] = n, w
    ordered = sorted(pool.values(), key=lambda p: (p[0], p[1].trace(),
                                                   p[1].key()))
    return [w for _, w in ordered[:pool_size]]


def obstruction_search(ctx: FieldContext, pool_size: int = DEFAULT_POOL_SIZE,
                       ceiling: int = DEFAULT_CEILING
                       ) -> Optional[ObstructionCertificate]:
    """First valid certificate over the candidate pool, in deterministic
    order, or None when the pool is exhausted.

    When every admissible off-diagonal between a1, a2 and a3 is 0, vectors
    representing them in a classical lattice L are orthogonal and span a
    copy of M = <a1, a2, a3>; L then lies in the dual of M, so gamma, which
    that dual does not represent, is not represented by L.  No unit or
    class-number fact enters, so every field is searched.  Each pair of the
    pool is checked once, by `orthogonality_forcing`, and kept: the
    certificate's orthogonality part is its triple's three kept pairs,
    re-indexed (0, 1), (0, 2), (1, 2).
    """
    pool = candidate_pool(ctx, pool_size, ceiling=ceiling)
    pairs: Dict[Tuple[int, int], PairForcing] = {}

    def forced(i: int, j: int) -> bool:
        if (i, j) not in pairs:
            pairs[i, j] = orthogonality_forcing(ctx, (pool[i], pool[j]),
                                                ceiling).pairs[0]
        return pairs[i, j].forced_zero

    n = len(pool)
    for i in range(n):
        for j in range(i + 1, n):
            if not forced(i, j):
                continue
            for k in range(j + 1, n):
                if not (forced(i, k) and forced(j, k)):
                    continue
                triple = (pool[i], pool[j], pool[k])
                for g in range(n):
                    if g in (i, j, k):
                        continue
                    dual = dual_nonrepresentation(ctx, triple, pool[g],
                                                  ceiling)
                    if dual.is_valid:
                        orth = OrthogonalityCertificate(
                            ctx.record.label, triple, tuple(
                                PairForcing(a, b, pairs[key].admissible)
                                for (a, b), key in zip(
                                    combinations(range(3), 2),
                                    combinations((i, j, k), 2))))
                        return ObstructionCertificate(
                            ctx.record.label, (*triple, pool[g]), orth, dual)
    return None


# ---------------------------------------------------------------------------
# square-class reduction

def square_class_reduce(x: Element, ceiling: int = DEFAULT_CEILING
                        ) -> Tuple[Element, Element]:
    """Integral x = r * scale^2: divides out the square factors that
    `squarefree_witness` finds until it finds none, then reduces modulo unit
    squares (`unit_square_reduce`).  Over Q(sqrt2) r is canonical, and 1
    exactly for squares: the witness search is complete there (B = 1.554),
    Z[sqrt2] is a PID, so the squarefree part is unique modulo unit squares,
    and the walk over the one generator reaches the least trace.  Elsewhere
    r has no non-unit square factor within that search."""
    if not x.is_totally_positive():
        raise ValueError("reduction expects a totally positive element")
    x.ctx.require_units()
    scale = x.ctx.one
    while (witness := squarefree_witness(x, ceiling)) is not None:
        scale, x = scale * witness[0], witness[1]
    r, eta = unit_square_reduce(x)
    return r, scale / eta


# ---------------------------------------------------------------------------
# 4x4 determinant case analyses

def _reduce_by(p: MPoly, lead: Tuple[int, ...], value) -> MPoly:
    """p with every monomial divisible by the monomial `lead` rewritten by
    the relation lead = value, until none is divisible."""
    out = MPoly()
    for key, c in p.terms.items():
        while all(e >= k for e, k in zip(key, lead)):
            key = tuple(e - k for e, k in zip(key, lead))
            c = c * value
        out = out + MPoly({key: c})
    return out


class ExtensionCase(NamedTuple):
    alpha: Element
    beta: Element
    status: str        # admissible | not-totally-positive | not-integral |
    #                    reconstructs-base-lattice
    x_squared: Optional[Element] = None
    x_in_base: Optional[Element] = None
    residual: Optional[Element] = None
    scale: Optional[Element] = None
    reconstruction_class: Optional[LatticeClass] = None


class SymbolicBranch(NamedTuple):
    beta24: int
    determinant: str
    identity_lhs: str
    identity_rhs: str


class CaseAnalysisReport(NamedTuple):
    mode: str
    det_formula_verified: bool
    cases: Tuple[ExtensionCase, ...] = ()
    x_squared_values: Tuple[Element, ...] = ()
    residuals: Tuple[Element, ...] = ()
    branches: Tuple[SymbolicBranch, ...] = ()


def _case_gram(ctx, a, b, third, corner, x, c) -> list:
    """The 4x4 Gram [[1, 0, 0, a], [0, lam, 0, b], [0, 0, third, x], [a, b,
    x, corner]] with each field entry e given as c(e): the symbolic matrix
    of the case analyses, with x = `MPoly.var` and c the constant
    polynomial, and the reconstructed lattice, with x an `Element` and c
    the identity."""
    one, zero = c(ctx.one), c(ctx.zero)
    return [[one, zero, zero, c(a)], [zero, c(2 + ctx.sqrt2), zero, c(b)],
            [zero, zero, c(third), x], [c(a), c(b), x, c(corner)]]


def _psd_rank3_check(m: list, x2: Element) -> bool:
    """All principal minors of the symbolic 4x4 Gram m are totally
    nonnegative and the full determinant vanishes, after substituting the
    exact x^2 value."""
    values = []
    for minor in principal_minors(m):
        val = _reduce_by(minor, (2,), x2)
        if any(key != (0,) for key in val.terms):
            raise ValueError("odd power survived in an even polynomial")
        values.append(val.terms.get((0,), x2.ctx.zero))
    *minors, det = values
    return det.is_zero and all(v.is_totally_nonnegative() for v in minors)


def quartic_case_analysis(mode: str,
                          ceiling: int = DEFAULT_CEILING) -> CaseAnalysisReport:
    """Case analysis of the rank-3 condition det G = 0 for the 4x4 Gram of
    a ternary lattice representing a fourth prescribed value.

    Modes: 'L1_extension' (diagonal 1, lam, 2 against 3(2-sqrt2)),
    'L3_extension' (diagonal 1, lam, 3, with the integrality filter), and
    'nonsquarefree_two' (symbolic, over the relation gamma t^2 = 2).  A case
    past the filters takes one psd check and one `square_class_reduce` of
    x^2; r = 1 reconstructs the base lattice with x = canonical_sign(scale).
    """
    if mode == "nonsquarefree_two":
        return _symbolic_two_analysis()
    if mode not in ("L1_extension", "L3_extension"):
        raise ValueError(f"unknown mode {mode!r}")
    ctx = sqrt2_context()
    s = ctx.sqrt2
    one, zero = ctx.one, ctx.zero
    lam = 2 + s
    third = ctx.from_rational(2) if mode == "L1_extension" else ctx.from_rational(3)
    corner = 3 * (2 - s)
    alphas = [zero, one, one - s]
    betas = [zero, one, ctx.from_rational(2), s, one + s, one - s]

    def symbolic(a: Element, b: Element) -> list:
        return _case_gram(ctx, a, b, third, corner, MPoly.var(0, 1, one),
                          lambda e: MPoly.const(e, 1))

    # hard-coded determinant shape: -lam x^2 + third*(6 - lam a^2 - b^2)
    formula_ok = all(
        linalg.ring_det(symbolic(a, b)) ==
        MPoly({(0,): third * (6 - lam * a * a - b * b), (2,): -lam})
        for a in alphas for b in betas)

    cases: List[ExtensionCase] = []
    x2_values: List[Element] = []
    residuals: List[Element] = []
    for a in alphas:
        for b in betas:
            x2 = third * (6 - lam * a * a - b * b) / lam
            if not x2.is_totally_positive():
                cases.append(ExtensionCase(a, b, "not-totally-positive", x2))
                continue
            if mode == "L3_extension" and not x2.is_integral:
                cases.append(ExtensionCase(a, b, "not-integral", x2))
                continue
            if not _psd_rank3_check(symbolic(a, b), x2):
                raise UnclassifiedCase(f"case a={a}, b={b} is not psd rank 3")
            residual, scale = square_class_reduce(x2, ceiling)
            if residual * scale * scale != x2:
                raise UnclassifiedCase("square-class reduction is inconsistent")
            if residual == one:
                x = canonical_sign(scale)
                found = lattice_class(generated_module_gram(GramMatrix(
                    _case_gram(ctx, a, b, third, corner, x, lambda e: e))),
                    ceiling)
                if found is None:
                    raise UnclassifiedCase(
                        "reconstructed lattice matches no known class")
                cases.append(ExtensionCase(
                    a, b, "reconstructs-base-lattice", x2, x,
                    reconstruction_class=found[0]))
                continue
            cases.append(ExtensionCase(a, b, "admissible", x2,
                                       residual=residual, scale=scale))
            x2_values.append(x2)
            if residual not in residuals:
                residuals.append(residual)
    return CaseAnalysisReport(mode, formula_ok, tuple(cases),
                              tuple(x2_values), tuple(residuals))


# ---------------------------------------------------------------------------
# symbolic branch analysis over Z[gamma, t, beta] / (gamma t^2 = 2)

_TWO_NAMES = ("gamma", "t", "beta")


def _divide_by_t(p: MPoly) -> MPoly:
    if any(key[1] < 1 for key in p.terms):
        raise ValueError("not divisible by t")
    return MPoly({(i, j - 1, k): v for (i, j, k), v in p.terms.items()})


def _split_identity(p: MPoly) -> Tuple[MPoly, MPoly]:
    """p = 0 presented as lhs = rhs with positive coefficients."""
    return (MPoly({k: v for k, v in p.terms.items() if v > 0}),
            MPoly({k: -v for k, v in p.terms.items() if v < 0}))


def _symbolic_two_analysis() -> CaseAnalysisReport:
    g, t, b = (MPoly.var(i, 3) for i in range(3))
    one = MPoly.const(1, 3)
    zero = MPoly()
    branches = []
    for beta24 in (0, 1):
        e24 = MPoly.const(beta24, 3)
        m = [
            [one, zero, zero, zero],
            [zero, t, zero, e24],
            [zero, zero, g, b],
            [zero, e24, b, g * t],
        ]
        det = linalg.ring_det(m)
        if beta24 == 0:
            # det = t (gamma^2 t - beta^2); the second factor must vanish
            core = _divide_by_t(det)
        else:
            core = _reduce_by(det, (1, 2, 0), 2)      # gamma t^2 = 2
        lhs, rhs = _split_identity(core)
        branches.append(SymbolicBranch(
            beta24, det.format(_TWO_NAMES), lhs.format(_TWO_NAMES),
            rhs.format(_TWO_NAMES)))
    return CaseAnalysisReport("nonsquarefree_two", True, branches=tuple(branches))


# ---------------------------------------------------------------------------
# indecomposables and the shape of 2

class IndecomposableEntry(NamedTuple):
    element: Element
    classification: str        # square | lambda-square | other
    root: Optional[Element]


class IndecomposablesReport(NamedTuple):
    field_label: str
    trace_bound: int
    entries: Tuple[IndecomposableEntry, ...]

    @property
    def others(self) -> Tuple[Element, ...]:
        return tuple(e.element for e in self.entries
                     if e.classification == "other")


def classify_square_shape(w: Element,
                          ceiling: int = DEFAULT_CEILING) -> IndecomposableEntry:
    """Is w a square, 2+sqrt2 times a square, or neither?  The answer is a
    square-class property, so it is stable under multiplication by squares
    of units."""
    ctx = w.ctx
    root = sqrt_element(w, ceiling)
    if root is not None:
        return IndecomposableEntry(w, "square", root)
    quot = w / (2 + ctx.sqrt2)
    if quot.is_integral:
        root = sqrt_element(quot, ceiling)
        if root is not None:
            return IndecomposableEntry(w, "lambda-square", root)
    return IndecomposableEntry(w, "other", None)


def indecomposables_classify(ctx: FieldContext, trace_bound: int,
                             ceiling: int = DEFAULT_CEILING
                             ) -> IndecomposablesReport:
    """Classify all indecomposables of trace up to the bound as unit squares,
    lambda times squares, or genuinely other (witnesses against lifting)."""
    if ctx.sqrt2 is None:
        raise InvalidInput("classification needs the sqrt2 tag")
    d = ctx.degree
    if 2 * trace_bound < 5 * d:
        raise InvalidInput("trace bound below the indecomposability threshold")
    entries = []
    for w in dominated_elements(ctx, ctx.from_rational(trace_bound),
                                QueryMode.INTERVAL, ceiling):
        if w.is_zero or w.trace() > trace_bound:
            continue
        if not is_indecomposable(w, ceiling=ceiling):
            continue
        entries.append(classify_square_shape(w, ceiling))
    return IndecomposablesReport(ctx.record.label, trace_bound, tuple(entries))
