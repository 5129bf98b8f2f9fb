"""Exact arithmetic in totally real number fields.

A field is described by a monic integer polynomial with all roots real and
simple, together with an integral basis given in power-basis coordinates.
Elements are integer coordinate vectors over the integral basis with a
positive denominator, so integrality is exactly "denominator 1".

The exact element invariants run on three integer tables of the context:
the multiplication table (multiplication matrices, hence traces and
inverses), the basis rows in power coordinates over one denominator
(norms, as resultants with the defining polynomial, with no matrix), and
the fixed-point table of the basis embeddings (signs, and the box
pruning of `enumeration`), read off the basis embeddings: integer
endpoint numerators over one denominator per root, from one Horner pass
per root, all kept on the root state.  The table is taken at root width
2^-32; before, a context reads its signs off the table at root width
1/256 first, and refines to 2^-32 only when it leaves a sign undecided.
Order comparisons (total positivity, dominance) and signatures return
exact verdicts: the fixed-point tables only short-circuit decisive cases.
An undecided comparison or signature takes one exact step: the embeddings
that vanish are the roots of gcd(p, A), A the element's power-basis
numerator, and every other sign is read off integer enclosures refined
until none holds zero.

A context holds the unit group modulo squares once: its unit generators, the
table of their products by signature and the unit-square steps, the last two
built on first use; associates and unit-square representatives read them.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from math import gcd
from operator import index, mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import linalg, polys
from .errors import (BadBasis, DivisionByZero, FieldDataError, InvalidInput,
                     NoSuchUnit, NotARing, NotTotallyReal)
from .intervals import Interval, Numerators, fixed_point_ends

Rat = Union[int, Fraction]


class FieldRecord(NamedTuple):
    """Raw description of a totally real field, as ingested from disk."""

    label: str
    degree: int
    poly: Tuple[int, ...]                      # ascending, monic
    basis: Tuple[Tuple[Rat, ...], ...]         # rows = basis elements, power coords
    disc: int
    h: int = 1
    h_plus: int = 1
    units: Optional[Tuple[Tuple[Tuple[int, ...], int], ...]] = None
    sqrt2: Optional[Tuple[int, ...]] = None


class Dominance(Enum):
    """Outcome of comparing two elements under all real embeddings."""

    GT = "a>b"
    EQ = "a=b"
    LT = "a<b"
    GE_TIED = "a>=b with equal coordinate"
    LE_TIED = "a<=b with equal coordinate"
    INCOMPARABLE = "incomparable"


# the outcomes of weak dominance, a >= b in every embedding
WEAKLY_DOMINATES = (Dominance.GT, Dominance.EQ, Dominance.GE_TIED)


class Element:
    """Field element: integer coordinates over the integral basis / denominator."""

    __slots__ = ("ctx", "coords", "den")

    def __init__(self, ctx: "FieldContext", coords: Sequence[int], den: int = 1):
        try:        # `index` refuses floats, Fractions and strings
            coords, den = list(map(index, coords)), index(den)
        except TypeError:
            raise InvalidInput(f"coordinates {coords!r} over {den!r} are not "
                               f"all integers") from None
        if den == 0:
            raise DivisionByZero("zero denominator")
        if len(coords) != ctx.degree:
            raise InvalidInput("coordinate length does not match field degree")
        if den < 0:
            den = -den
            coords = [-c for c in coords]
        if den > 1:
            g = gcd(den, *coords)
            if g > 1:
                den //= g
                coords = [c // g for c in coords]
        self.ctx = ctx
        self.coords = tuple(coords)
        self.den = den

    # -- basic structure ---------------------------------------------------

    @classmethod
    def _new(cls, ctx: "FieldContext", coords: Sequence[int],
             den: int) -> "Element":
        """Element from coordinates already in lowest terms over den > 0
        (every den == 1 result is), without normalising them again."""
        e = cls.__new__(cls)
        e.ctx, e.coords, e.den = ctx, tuple(coords), den
        return e

    @classmethod
    def _normalised(cls, ctx: "FieldContext", coords: List[int],
                    den: int) -> "Element":
        """Result of ring arithmetic; over den == 1 it is in lowest terms."""
        if den == 1:
            return cls._new(ctx, coords, 1)
        return cls(ctx, coords, den)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __bool__(self) -> bool:
        return not self.is_zero

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def _same_field(self, other: "Element") -> bool:
        return self.ctx is other.ctx or self.ctx.record == other.ctx.record

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (self._same_field(other) and self.coords == other.coords
                and self.den == other.den)

    def __hash__(self):
        return hash((self.coords, self.den))

    def __repr__(self) -> str:
        return self.ctx.format_element(self)

    def key(self) -> tuple:
        """Deterministic sort key (lexicographic coordinates, then denominator)."""
        return (self.coords, self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Optional["Element"]:
        if isinstance(other, Element):
            return other if self._same_field(other) else None
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return Element._normalised(self.ctx, [a * db + b * da for a, b in
                                              zip(self.coords, o.coords)],
                                   da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return Element._normalised(self.ctx, [a * db - b * da for a, b in
                                              zip(self.coords, o.coords)],
                                   da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Element._new(self.ctx, [-c for c in self.coords], self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        table = self.ctx.mult_table
        scales, entries = [], []
        for i, a in enumerate(self.coords):
            if a:
                row = table[i]
                for j, b in enumerate(o.coords):
                    if b:
                        scales.append(a * b)
                        entries.append(row[j])
        if not scales:
            return Element._new(self.ctx, [0] * self.ctx.degree, 1)
        out = [sum(map(mul, scales, col)) for col in zip(*entries)]
        return Element._normalised(self.ctx, out, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Element":
        if self.is_zero:
            raise DivisionByZero("division by zero")
        # (M / den) x = 1 with M the integer matrix of den * self, so
        # x = den adj(M) 1 / det(M)
        det, cols = linalg.adjugate_solve(self.mult_matrix_scaled(),
                                          [self.ctx.one.coords])
        if not det:
            raise DivisionByZero("element is a zero divisor")
        return Element(self.ctx, [self.den * c for c in cols[0]], det)

    def mult_matrix_scaled(self) -> List[List[int]]:
        """Integer matrix of multiplication by den * self on the integral
        basis (columns)."""
        return mult_matrix(self.ctx.mult_table, self.coords)

    # -- invariants ----------------------------------------------------------

    def _power_numerator(self) -> Tuple[List[int], int]:
        """(A, D) with self = A(t) / D: A the integer power-basis numerator
        summed from the `horner_rows` rows over their denominator den, and
        D = den * self.den."""
        rows, _, den = self.ctx._horner
        num = [0] * self.ctx.degree
        for c, row in zip(self.coords, rows):
            if c:
                for i, x in enumerate(row):
                    num[i] += c * x
        return num, den * self.den

    def norm(self) -> Fraction:
        """N(a) = Res(p, A) / D^d, for the monic defining polynomial p of
        degree d and a = A(t) / D (`_power_numerator`): the determinant of
        multiplication by A on Q[t]/(p) is Res(p, A), for every monic p,
        reducible or not."""
        num, den = self._power_numerator()
        return Fraction(polys.resultant(self.ctx.poly, num),
                        den ** self.ctx.degree)

    def trace(self) -> Fraction:
        return Fraction(sum(map(mul, self.coords, self.ctx.basis_traces)),
                        self.den)

    def compare(self, other) -> Dominance:
        return self.ctx.compare(self, self._coerce(other))

    def __ge__(self, other):  # weak dominance
        return self.compare(other) in WEAKLY_DOMINATES

    def __gt__(self, other):  # strict dominance
        return self.compare(other) is Dominance.GT

    def __le__(self, other):
        return self.compare(other) in (Dominance.LT, Dominance.EQ, Dominance.LE_TIED)

    def __lt__(self, other):
        return self.compare(other) is Dominance.LT

    def is_totally_positive(self) -> bool:
        return self.compare(self.ctx.zero) is Dominance.GT

    def is_totally_nonnegative(self) -> bool:
        return self.compare(self.ctx.zero) in WEAKLY_DOMINATES

    def signature(self) -> Tuple[int, ...]:
        """Signs of all real embeddings, ordered by ascending root."""
        if self.is_zero:
            raise ValueError("signature of zero is undefined")
        signs = self.ctx._fast_signs(self) or self.ctx._exact_signs(self)
        if 0 in signs:
            raise ValueError(
                "element has an exactly-zero embedding (zero divisor)")
        return signs

    def is_unit(self) -> bool:
        return self.is_integral and abs(self.norm()) == 1

    def as_rational(self) -> Optional[Fraction]:
        """The element as a rational number, if it is one: q read off the
        first nonzero coordinate of the integral `ctx.one`, not always e_0."""
        k, c = next((k, c) for k, c in enumerate(self.ctx.one.coords) if c)
        q = Fraction(self.coords[k], self.den * c)
        return q if self.ctx.from_rational(q) == self else None


class _RootState:
    """A context's roots as `polys.RootCell`s, the width bound of the last
    request that looked at them (`fine` once it is at most
    `FieldContext._FINE_WIDTH`), and what is made from them on first use:
    the basis embeddings, `embedding_inverse`, the fixed-point table and
    its packing.  It holds no reference back."""

    __slots__ = ("cells", "width", "fine", "embeddings", "inverse", "table",
                 "pack")

    def __init__(self, cells: List[polys.RootCell]):
        self.cells, self.width, self.fine = cells, None, False
        self.embeddings = self.inverse = self.table = self.pack = None


class FieldContext:
    """Validated field: multiplication table, isolated roots, named elements.

    Immutable for all observable purposes.  The roots refine monotonically,
    each refinement that narrows one installing a new root state (a benign
    cache); every public result depends only on the inputs and the
    requested precision.
    """

    def __init__(self, record: FieldRecord, mult_table,
                 roots: List[polys.RootCell], basis_pow, pow_to_basis):
        self.record = record
        self.degree = record.degree
        self.poly = list(record.poly)
        self.mult_table = mult_table
        self.basis_pow = basis_pow
        self.pow_to_basis = pow_to_basis
        self._state = _RootState(list(roots))
        self._horner = polys.horner_rows(basis_pow)     # basis_embeddings
        # basis coordinates of the power t^k are row k of pow_to_basis
        self.one = self.from_rational_coords(pow_to_basis[0])
        if not self.one.is_integral:
            raise NotARing(f"{record.label}: 1 is not in the span of the basis")
        self.zero = Element(self, [0] * self.degree)
        self.gen = self.from_rational_coords(
            pow_to_basis[1] if self.degree > 1
            else [Fraction(-record.poly[0])])
        self.sqrt2: Optional[Element] = None
        if record.sqrt2 is not None:
            s = Element(self, record.sqrt2)
            if s * s != self.from_rational(2):
                raise FieldDataError(f"{record.label}: sqrt2 tag does not square to 2")
            self.sqrt2 = s
        self.units: Optional[Tuple[Element, ...]] = None
        if record.units is not None:
            us = []
            for coords, den in record.units:
                u = Element(self, coords, den)
                if not u.is_unit():
                    raise FieldDataError(
                        f"{record.label}: listed unit has norm != +-1")
                us.append(u)
            self.units = tuple(us)

    # -- element constructors ----------------------------------------------

    def element(self, coords: Sequence[int], den: int = 1) -> Element:
        return Element(self, coords, den)

    def from_rational(self, q: Rat) -> Element:
        q = Fraction(q)
        num = [c * q.numerator for c in self.one.coords]
        return Element(self, num, self.one.den * q.denominator)

    def from_rational_coords(self, coords: Sequence[Rat]) -> Element:
        return Element(self, *polys.clear_denominators(coords))

    @cached_property
    def basis_traces(self) -> Tuple[int, ...]:
        """Tr(b_i) for each basis element: the diagonal sum of its row of
        the multiplication table."""
        d = self.degree
        return tuple(sum(row[k][k] for k in range(d))
                     for row in self.mult_table)

    # -- embeddings ----------------------------------------------------------

    def refine_roots(self, max_width: Rat) -> Fraction:
        """Narrow every root wider than max_width to at most max_width, each
        from its current cell, in a new `_RootState`; a request that narrows
        none keeps the state and all it made.  The request bounds the
        state's widths, so one no narrower returns at once.  Returns the
        state's width bound after the call: the request when it is
        narrower, else the state's own."""
        max_width = Fraction(max_width)
        state = self._state
        if state.width is not None and max_width >= state.width:
            return state.width
        wn, wd = max_width.numerator, max_width.denominator
        wide = [c.wider(wn, wd) for c in state.cells]
        if any(wide):
            state = self._state = _RootState([
                polys.refine_root(self.poly, c, max_width) if w else c
                for c, w in zip(state.cells, wide)])
        state.width, state.fine = max_width, max_width <= self._FINE_WIDTH
        return max_width

    def basis_embeddings(self) -> List[Numerators]:
        """Per root i, (lows, highs, den) with sigma_i(basis_j) in [lows[j],
        highs[j]] / den, made once per root state: one
        `polys.eval_interval` call per root evaluates every basis row."""
        if self._state.embeddings is None:
            self._state.embeddings = [polys.eval_interval(*self._horner, c)
                                      for c in self._state.cells]
        return self._state.embeddings

    def embedding_inverse(self) -> tuple:
        """(`linalg.midpoint_inverse` of `basis_embeddings`, det of their
        midpoint numerators lows + highs) for `enumeration._build_box`, made
        once per root state; `linalg.interval_inverse` takes the first."""
        if self._state.inverse is None:
            emb = self.basis_embeddings()
            self._state.inverse = linalg.midpoint_inverse(emb), linalg.det_int(
                [[lo + hi for lo, hi in zip(lows, highs)]
                 for lows, highs, _ in emb])
        return self._state.inverse

    INT_BITS = 24
    # root widths of the full fixed-point table and of a lone comparison's
    _FINE_WIDTH = Fraction(1, 1 << INT_BITS + 8)
    _COARSE_WIDTH = Fraction(1, 256)

    def fixed_point_table(self) -> tuple:
        """(lows, highs, memo): per basis column j, the outward ends
        lows[j][i] <= 2^INT_BITS sigma_i(b_j) <= highs[j][i], and a dict
        for the rows of `enumeration._halves`, made once per root state
        after the roots are refined to `_FINE_WIDTH`.  `_iter_box` prunes
        with it; `_fast_signs` reads the table of a coarser state first."""
        if self._state.table is None or not self._state.fine:
            self.refine_roots(self._FINE_WIDTH)
        return self._state_table()

    def _state_table(self) -> tuple:
        """`fixed_point_table` of the root state, whatever its width."""
        if self._state.table is None:
            self._state.table = fixed_point_table(self.basis_embeddings(),
                                                  self.INT_BITS)
        return self._state.table

    def fixed_point_bounds(self, a: Element) -> Tuple[List[int], List[int]]:
        """Outward lower and upper bounds on sigma_i(den * a) in units of
        2^-INT_BITS: `_table_bounds` of the full table (`fixed_point_table`).
        Sound but coarse; used by fast pre-filters."""
        return _table_bounds(self.fixed_point_table(), a.coords)

    def _packed_bounds(self, x: Tuple[int, ...]) -> Tuple[int, int]:
        """The d lower bounds of `fixed_point_bounds` on coordinates x, as
        the base-2^w digits of one integer t: digit i is bound_i + 2^(w-1) - 1.

        Column j of lows and of highs is packed into P_j = sum_i
        entry_ij 2^(w i), so one sum of d products of x_j with the P_j of
        the end its sign takes is sum_i bound_i 2^(w i).  With E the
        largest |entry|, |bound_i| <= E sum_j |x_j|, and the least w =
        64 * 2^k that keeps that at most 2^(w-1) - 2 puts every offset
        digit in [1, 2^w - 3], so no carry crosses digits; the root state
        keeps the packing (`_pack_table`).  Returns (t, top) with top the
        digit-wise 2^(w-1), so every bound_i is positive exactly when
        t & top == top, `compare`'s test for GT."""
        s = sum(map(abs, x))
        pack = self._state.pack
        if pack is None or s > pack[0]:     # the table may install a state
            pack = self._state.pack = _pack_table(self.fixed_point_table(), s)
        _, cols, offset, top = pack
        return sum([c * pn[c < 0] for c, pn in zip(x, cols)]) + offset, top

    def _fast_signs(self, a: Element) -> Optional[Tuple[int, ...]]:
        """Signs of all embeddings from a fixed-point table's
        `_table_bounds`, or None when some enclosure holds zero.  While the
        roots are coarser than `_FINE_WIDTH`, the table of a state at most
        `_COARSE_WIDTH` wide comes first; the full one only when that
        leaves a sign undecided.  Both round outward: every sign they
        decide is true."""
        if not self._state.fine:
            if self._state.table is None:
                self.refine_roots(self._COARSE_WIDTH)
            if signs := _signs(*_table_bounds(self._state_table(), a.coords)):
                return signs
        return _signs(*self.fixed_point_bounds(a))

    def _interval_sums(self, a: Element) -> List[Tuple[int, int, int]]:
        """Per root i, (lo, hi, den) with sigma_i(a) in [lo, hi] / den at the
        root state: row i of `basis_embeddings` holds integer numerators
        over one denominator, sigma_i(basis_j) in [lows[j], highs[j]] / den,
        and the interval sum of c_j times sigma_i(basis_j) is taken on
        those numerators over den * a.den."""
        out = []
        for lows, highs, den in self.basis_embeddings():
            los, his = zip(*((c * lo, c * hi) if c >= 0 else (c * hi, c * lo)
                             for c, lo, hi in zip(a.coords, lows, highs)))
            out.append((sum(los), sum(his), den * a.den))
        return out

    def _exact_signs(self, a: Element) -> Tuple[int, ...]:
        """The sign of every embedding of a, 0 for one that vanishes.

        With a = A(t) / D (`Element._power_numerator`) and g = gcd(p, A),
        sigma_i(a) = 0 exactly when root i is a root of g (Cohen, GTM 138,
        section 3.3); g divides the squarefree p, so that is when g changes
        sign or vanishes on root i's cell (`polys.RootCell.straddles`).
        Every other sign is read off `_interval_sums`, and while one of
        those holds zero the roots are refined, to 2^-32 and then to the
        square of the last width: a relative test, which ends for a
        nonzero value of any size."""
        g = polys.gcd_int(self.poly, a._power_numerator()[0])
        zero = [c.straddles(g) for c in self._state.cells]
        width = self._FINE_WIDTH
        while True:
            signs = tuple(0 if z else 1 if lo > 0 else -1 if hi < 0 else None
                          for z, (lo, hi, _) in zip(zero,
                                                    self._interval_sums(a)))
            if None not in signs:
                return signs
            self.refine_roots(width)
            width *= width

    def _embedding_numerators(self, a: Element, max_width: Rat
                              ) -> List[Tuple[int, int, int]]:
        """Per root i, (lo, hi, den) with sigma_i(a) in [lo, hi] / den and
        (hi - lo) / den <= max_width, refining the roots as needed: while
        some `_interval_sums` is too wide, the roots are refined to a
        quarter of the narrowest root's width, and so on down to 2^-300,
        then to the square of the last width.  The sums' widths shrink
        with the roots', so this ends for every a, and a point cell (an
        exact rational root) sends the first step to 2^-300."""
        max_width = Fraction(max_width)
        wn, wd = max_width.numerator, max_width.denominator
        floor, width = Fraction(1, 1 << 300), None
        while True:
            out = self._interval_sums(a)
            if all((hi - lo) * wd <= wn * den for lo, hi, den in out):
                return out
            if width is None:
                width = max(4 * floor, min(Fraction(c.e - c.a, c.b)
                                           for c in self._state.cells))
            width = max(width / 4, floor) if width > floor else width * width
            self.refine_roots(width)

    def embeddings(self, a: Element, max_width: Rat = Fraction(1, 64)) -> List[Interval]:
        """Enclosures of sigma_i(a), each at most max_width wide, refining
        the roots as needed (`_embedding_numerators`)."""
        return [Interval(Fraction(lo, den), Fraction(hi, den))
                for lo, hi, den in self._embedding_numerators(a, max_width)]

    # -- comparisons ---------------------------------------------------------

    def compare(self, a: Element, b: Element) -> Dominance:
        """Dominance of a over b, from the signs of the embeddings of a - b.

        The fixed-point bounds only short-circuit decisive cases: once the
        roots are at `_FINE_WIDTH`, GT at once when every lower bound is
        positive, read off the top bit of each digit of the packed lower
        bounds (`_packed_bounds`); else the signs from both bounds
        (`_fast_signs`, at root width 1/256 first for a lone comparison);
        and otherwise the exact signs (`_exact_signs`), where a zero
        embedding with no sign against it gives GE_TIED or LE_TIED.
        """
        c = a - b if any(b.coords) else a
        if not any(c.coords):
            return Dominance.EQ
        # fixed-point pre-filter (sound: falls through when indecisive)
        if self._state.fine:
            t, top = self._packed_bounds(c.coords)
            if t & top == top:
                return Dominance.GT
        signs = self._fast_signs(c) or self._exact_signs(c)
        if -1 not in signs:
            return Dominance.GE_TIED if 0 in signs else Dominance.GT
        if 1 not in signs:
            return Dominance.LE_TIED if 0 in signs else Dominance.LT
        return Dominance.INCOMPARABLE

    # -- units ---------------------------------------------------------------

    def require_units(self) -> Tuple[Element, ...]:
        if not self.units:
            raise NoSuchUnit(f"{self.record.label}: no unit generators supplied")
        return self.units

    @cached_property
    def units_by_signature(self) -> Dict[Tuple[int, ...], Element]:
        """The supplied units' products, one per realized signature (see
        `units_by_signature`); built on first use."""
        return units_by_signature(self.one, self.units or ())

    @cached_property
    def unit_square_steps(self) -> Tuple[tuple, ...]:
        """(u^e, u^2e, tau), e = +-1, per supplied unit u with u^2 != 1:
        the moves of the unit-square walk, built on first use (a step with
        u^2 = 1, as for u = -1, leaves every element where it is and so can
        never improve the walk's key).  tau_i = Tr(b_i u^2e), from the
        integer trace form, so den * Tr(a u^2e) = a.coords . tau; it is an
        integer vector, as every listed unit passes `is_unit` at load."""
        tr = self.basis_traces
        form = [[sum(map(mul, e, tr)) for e in row] for row in self.mult_table]
        return tuple((v, v2, tuple(sum(map(mul, q, v2.coords)) for q in form))
                     for u in self.units or () for v in (u, u.inverse())
                     for v2 in (v * v,) if v2 != self.one)

    def totally_positive_associate(self, a: Element
                                   ) -> Optional[Tuple[Element, Element]]:
        """(eta, eta * a) with eta * a totally positive, eta the product of
        supplied generators with the least bit mask among those of the
        signature of a (`units_by_signature`), or None when no such product
        has that signature: a context without units realizes only the
        signature of 1.  Raises NoSuchUnit on a product that is not totally
        positive.
        """
        if a.is_zero:
            raise ValueError("no totally positive associate of zero")
        eta = self.units_by_signature.get(a.signature())
        if eta is None:
            return None
        result = eta * a
        if not result.is_totally_positive():
            raise NoSuchUnit("associate search produced a non-positive result")
        return eta, result

    # -- misc ----------------------------------------------------------------

    @cached_property
    def _sqrt2_minor(self) -> Tuple[int, int, int]:
        """(m, p, q) with m = u_p s_q - u_q s_p the first nonzero 2x2 minor
        of the integer coordinates u of 1 and s of sqrt2, which are
        independent."""
        if self.sqrt2 is None:
            raise ValueError("field has no sqrt2 tag")
        u, s, d = self.one.coords, self.sqrt2.coords, self.degree
        return next((u[p] * s[q] - u[q] * s[p], p, q) for p in range(d)
                    for q in range(p + 1, d) if u[p] * s[q] != u[q] * s[p])

    def sqrt2_span(self, a: Element) -> Optional[Tuple[int, int, int]]:
        """Integers (x, y, den), den > 0, with a = (x + y sqrt2) / den, or
        None when a is not in the span of {1, sqrt2}.  With c the integer
        coordinates of a, Cramer's rule on rows p and q of the minor m
        (`_sqrt2_minor`) gives x = c_p s_q - c_q s_p and y = u_p c_q - u_q
        c_p, and a is in the span exactly when m c = x u + y s holds in
        every coordinate; then a = (x + y sqrt2) / (m a.den)."""
        m, p, q = self._sqrt2_minor
        u, s, c = self.one.coords, self.sqrt2.coords, a.coords
        x = c[p] * s[q] - c[q] * s[p]
        y = u[p] * c[q] - u[q] * c[p]
        if any(m * ck != x * uk + y * sk for ck, uk, sk in zip(c, u, s)):
            return None
        return (x, y, m * a.den) if m > 0 else (-x, -y, -m * a.den)

    def format_element(self, a: Element) -> str:
        if self.sqrt2 is not None:
            span = self.sqrt2_span(a)
            if span is not None:
                x, y = (Fraction(v, span[2]) for v in span[:2])
                if y == 0:
                    return str(x)
                sy = f"{y}*sqrt2" if abs(y) != 1 else ("sqrt2" if y > 0 else "-sqrt2")
                if x == 0:
                    return sy
                return f"{x}+{sy}" if y > 0 else f"{x}{sy}"
        q = a.as_rational()
        if q is not None:
            return str(q)
        body = ",".join(str(c) for c in a.coords)
        return f"[{body}]" if a.den == 1 else f"[{body}]/{a.den}"

    def __repr__(self):
        return f"FieldContext({self.record.label}, degree {self.degree})"


def sqrt2_context() -> FieldContext:
    """The standard degree-2 field containing sqrt2, with units -1 and
    1 + sqrt2 of all signatures and the sqrt2 tag set: a fresh context,
    loaded from one record built once per process."""
    return load_field(_sqrt2_record())


@cache
def _sqrt2_record() -> FieldRecord:
    from .orders import field_record        # orders imports this module
    return field_record((-2, 0, 1), "Q(sqrt2)", units=[((1, 1), 1)])


def load_field(record: FieldRecord) -> FieldContext:
    """Validate a field record and build its context.

    Checks: monic integer defining polynomial with d simple real roots
    (isolated once, from one Sturm chain), invertible basis matrix,
    multiplicative closure of the basis over Z, and the class-number
    divisibility constraints.
    """
    d = record.degree
    poly = list(record.poly)
    if len(poly) != d + 1 or poly[-1] != 1:
        raise NotTotallyReal(f"{record.label}: polynomial is not monic of degree {d}")
    if any(not isinstance(c, int) for c in poly):
        raise NotTotallyReal(f"{record.label}: polynomial has non-integer coefficients")
    try:
        roots = polys.isolate_real_roots(poly)
    except ValueError:
        raise NotTotallyReal(f"{record.label}: repeated roots") from None
    if len(roots) != d:
        raise NotTotallyReal(f"{record.label}: fewer than {d} real roots")
    if len(record.basis) != d or any(len(row) != d for row in record.basis):
        raise BadBasis(f"{record.label}: basis is not a {d}x{d} matrix")
    if is_identity(record.basis):
        # a power basis (every cyclotomic context) is its own inverse
        basis = inv = [[0] * i + [1] + [0] * (d - 1 - i) for i in range(d)]
        table = power_mult_table(poly, d)
    else:
        basis = [[Fraction(x) for x in row] for row in record.basis]
        inv = linalg.inverse(basis)
        if inv is None:
            raise BadBasis(f"{record.label}: basis matrix is singular")
        try:
            table = basis_mult_table(poly, basis, inv)
        except NotARing as exc:
            raise NotARing(f"{record.label}: {exc}") from None
    if not class_numbers_ok(record.h, record.h_plus):
        raise FieldDataError(f"{record.label}: h_plus is not h >= 1 times 2^k")
    return FieldContext(record, table, roots, basis, inv)


def class_numbers_ok(h: int, h_plus: int) -> bool:
    """Whether a class number h and narrow class number h_plus can be a
    field's: h >= 1 divides h_plus, and h_plus / h is a power of two."""
    return 0 < h <= h_plus and h_plus % h == 0 and \
        (h_plus // h).bit_count() == 1


def is_identity(m: Sequence[Sequence[Rat]]) -> bool:
    """Whether the square matrix m is the identity, read off its entries."""
    return all(row[i] == 1 and not any(row[:i]) and not any(row[i + 1:])
               for i, row in enumerate(m))


def _signs(lows: Sequence[int], highs: Sequence[int]
           ) -> Optional[Tuple[int, ...]]:
    """The signs of values enclosed by [lows[i], highs[i]], or None when
    some enclosure holds zero."""
    signs = tuple(1 if lo > 0 else -1 if hi < 0 else 0
                  for lo, hi in zip(lows, highs))
    return None if 0 in signs else signs


def fixed_point_table(rows: Sequence[Numerators], bits: int) -> tuple:
    """(lows, highs, {}) with lows[j][i] and highs[j][i] the ends of entry j
    of rows[i] rounded outward to multiples of 2^-bits
    (`fixed_point_ends`), in units of 2^-bits: one list per column j."""
    los, his = fixed_point_ends(rows, bits)
    return [list(c) for c in zip(*los)], [list(c) for c in zip(*his)], {}


def _table_bounds(table: tuple, coords: Sequence[int]) -> tuple:
    """The d lower and d upper bounds that a fixed-point table (lows,
    highs, _) gives on sigma_i(sum_j x_j b_j): the lower bound_i sums x_j
    lows[j][i] over x_j > 0 and x_j highs[j][i] over x_j < 0, the upper
    one the other ends; zero coordinates are skipped."""
    lows, highs, _ = table
    x = [(c, lo, hi) if c > 0 else (c, hi, lo)
         for c, lo, hi in zip(coords, lows, highs) if c]
    d = range(len(lows))
    return ([sum(c * lo[i] for c, lo, _ in x) for i in d],
            [sum(c * hi[i] for c, _, hi in x) for i in d])


def _pack_table(table: tuple, s: int) -> tuple:
    """The packing of `FieldContext._packed_bounds` for sum_j |x_j| <= s:
    (the largest such sum it admits, the pairs (P_j of lows, P_j of highs)
    taken for x_j >= 0 and for x_j < 0, the offset digits, the top bits)."""
    lows, highs, _ = table
    e = max(1, *(max(map(abs, col)) for col in lows + highs))
    w = 64
    while e * s > (1 << w - 1) - 2:
        w *= 2
    ones = sum(1 << w * i for i in range(len(lows)))
    top = ones << w - 1
    lo, hi = ([sum(v << w * i for i, v in enumerate(col)) for col in half]
              for half in (lows, highs))
    return ((1 << w - 1) - 2) // e, list(zip(lo, hi)), top - ones, top


def mult_matrix(table, coords: Sequence[int]) -> List[List[int]]:
    """Integer matrix of multiplication by x = sum_s coords[s] b_s, where
    table[s][j] holds the coordinates of b_s * b_j: column j holds those
    of x * b_j."""
    d = len(coords)
    m = [[0] * d for _ in range(d)]
    for a, row in zip(coords, table):
        if a:
            for j, entry in enumerate(row):
                for i, t in enumerate(entry):
                    if t:
                        m[i][j] += a * t
    return m


def _power_residues(poly: Sequence[int], d: int) -> List[Tuple[int, ...]]:
    """Integer coordinates of x^m mod poly over 1, x, ..., x^(d-1), for
    m < 2d - 1 (poly monic of degree d)."""
    xpow = [(0,) * m + (1,) + (0,) * (d - 1 - m) for m in range(d)]
    for _ in range(d, 2 * d - 1):
        cur = xpow[-1]
        lead = cur[-1]
        xpow.append(tuple([x - lead * c
                           for x, c in zip((0,) + cur[:-1], poly)]))
    return xpow


def power_mult_table(poly: Sequence[int], d: int) -> tuple:
    """`basis_mult_table` of the power basis 1, x, ..., x^(d-1): with r_m
    the integer coordinates of x^m mod poly, b_i b_j = x^(i+j) is read off
    r_(i+j), so row i is the run r_i, ..., r_(i+d-1) of shared residues."""
    xpow = _power_residues(poly, d)
    return tuple(tuple(xpow[i:i + d]) for i in range(d))


def basis_mult_table(poly: Sequence[int], basis: Sequence[Sequence[Fraction]],
                     inv: Sequence[Sequence[Fraction]]) -> tuple:
    """Integer structure constants of a basis of an order in Q[x]/(poly):
    entry [i][j] holds the coordinates of b_i * b_j over the basis.

    basis rows are power-basis coordinates and inv is the inverse of the
    basis matrix.  Raises NotARing when a product leaves the Z-span.

    Everything runs on integers.  With r_m the integer coordinates of x^m
    mod poly, row i is n_i / e_i and inv is N / g with integers; row m of
    W = r N holds g times the basis coordinates of x^m, so the product of
    the numerator polynomials, n_i n_j = sum_m c_m x^m, gives the
    coordinates of b_i b_j as sum_m c_m W[m] / (g e_i e_j), which must be
    integers.  The callers read the power basis's table off the residues
    alone (`power_mult_table`).
    """
    d = len(basis)
    xpow = _power_residues(poly, d)
    table = [[None] * d for _ in range(d)]
    rows = [polys.clear_denominators(row) for row in basis]
    inv_nums, g = polys.clear_denominators([x for row in inv for x in row])
    # column k of W: g times coordinate k of each x^m
    w_cols = [[sum(map(mul, r, inv_nums[k::d])) for r in xpow]
              for k in range(d)]
    for i in range(d):
        ni, ei = rows[i]
        for j in range(i, d):
            nj, ej = rows[j]
            prod_pow = polys.mul(ni, nj)
            den = g * ei * ej
            entry = []
            for col in w_cols:
                c, r = divmod(sum(map(mul, prod_pow, col)), den)
                if r:
                    raise NotARing(
                        f"product of basis elements {i},{j} is not in the span")
                entry.append(c)
            table[i][j] = table[j][i] = tuple(entry)
    return tuple(tuple(row) for row in table)


def units_by_signature(one: Element, units: Sequence[Element]
                       ) -> Dict[Tuple[int, ...], Element]:
    """Map each signature realized by a product of the units to the product
    with the least bit mask (bit i set when units[i] is a factor).

    The table holds the 2^k products of k generators.  For a signature s,
    the least-mask product is the F2 elimination's solution of "sum of the
    units' sign vectors = s" with its free variables set to zero: any other
    solution adds a kernel vector, whose highest bit is a free column that
    the least solution leaves at 0.
    """
    products = [one]
    table = {one.signature(): one}
    for u in units:
        # masks of the new bit, in increasing order, after all smaller masks
        new = [p * u for p in products]
        for p in new:
            table.setdefault(p.signature(), p)
        products += new
    return table


def unit_square_reduce(a: Element) -> Tuple[Element, Element]:
    """(r, eta) with r = a * eta^2 the deterministic representative of a
    modulo squares of the context's units.

    Greedily minimizes (trace, negated coordinates, den) until no unit
    square improves it; only meaningful for totally positive elements, where
    the trace is proper on the orbit.  Non-positive inputs, and contexts
    without units, give (a, 1).

    Traces are compared on integers, den * Tr(best u^2) = best.coords . tau
    (`FieldContext.unit_square_steps`); best * u^2 is formed only when it
    is not larger, and on a tie the coordinates decide.  The walk ends: the
    key strictly decreases, the orbit is totally positive over one den (u^2
    is a unit of the order), and finitely many such elements lie below any
    trace.
    """
    ctx = a.ctx
    if a.is_zero or not a.is_totally_positive():
        return a, ctx.one
    best, eta = a, ctx.one
    trace = sum(map(mul, a.coords, ctx.basis_traces))       # den * Tr(best)
    improved = True
    while improved:
        improved = False
        for u, u2, tau in ctx.unit_square_steps:
            t = sum(map(mul, best.coords, tau))
            if t > trace:
                continue
            cand = best * u2
            if t < trace or cand.coords > best.coords:
                best, trace, eta = cand, t, eta * u
                improved = True
    return best, eta
