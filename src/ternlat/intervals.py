"""Rational intervals and their integer forms.

Endpoints are exact `Fraction`s.  An `Interval` is only ever a result
(`FieldContext.embeddings`): the package does no arithmetic on it.  Its
kernels hold a row of intervals as integer endpoint numerators over one
denominator (`Numerators`), round such rows outward to fixed point with
the one routine `fixed_point_ends`, work on the integers and build
`Fraction`s only for their results.  Only square roots (`sqrt_numerator`)
and the fixed-point form introduce rounding, which is done outward.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import List, NamedTuple, Sequence, Tuple

Numerators = Tuple[Sequence[int], Sequence[int], int]  # [lows, highs] / den


class _Ends(NamedTuple):
    lo: Fraction
    hi: Fraction


class Interval(_Ends):
    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def fixed_point_ends(rows: Sequence[Numerators], bits: int
                     ) -> Tuple[List[List[int]], List[List[int]]]:
    """Integer matrices (lo, hi) with entry j of rows[i] inside
    [lo[i][j], hi[i][j]] / 2^bits: each endpoint rounded outward to a
    multiple of 2^-bits, by shifts over a power-of-two den >= 2^bits."""
    los, his = [], []
    for lows, highs, den in rows:
        s = den.bit_length() - 1 - bits
        if s >= 0 and not den & (den - 1):
            los.append([x >> s for x in lows])
            his.append([-(-x >> s) for x in highs])
        else:
            los.append([(x << bits) // den for x in lows])
            his.append([-((-x << bits) // den) for x in highs])
    return los, his


def sqrt_numerator(num: int, den: int, up: bool) -> Tuple[int, int]:
    """(r, q 2^32) with r / (q 2^32) a lower (up false) or upper (up true)
    bound on sqrt(num / den), relative error < 2^-32, for integers
    num >= 0, den > 0, q the denominator of num / den in lowest terms."""
    g = gcd(num, den)
    num, den = num // g, den // g
    n = num * den << 64
    r = isqrt(n)
    return r + (up and r * r < n), den << 32
