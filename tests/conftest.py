from fractions import Fraction
from math import isqrt
from operator import mul
from pathlib import Path

import pytest

from ternlat import polys
from ternlat.fieldscan import ingest_fields, load_field_file

FIELDS = Path(__file__).resolve().parent.parent / "fields"


@pytest.fixture(scope="session")
def ctx_q():
    return load_field_file(FIELDS / "q.json")


@pytest.fixture(scope="session")
def ctx_sqrt2():
    return load_field_file(FIELDS / "qsqrt2.json")


@pytest.fixture(scope="session")
def ctx_sqrt3():
    return load_field_file(FIELDS / "qsqrt3.json")


@pytest.fixture(scope="session")
def ctx_sqrt5():
    return load_field_file(FIELDS / "qsqrt5.json")


@pytest.fixture(scope="session")
def table():
    return ingest_fields(FIELDS / "quartic_sqrt2.jsonl")


@pytest.fixture(scope="session")
def fields_dir():
    return FIELDS


# ---------------------------------------------------------------------------
# trace-form boxes for the test oracles, from the multiplication table alone

def trace_form(table):
    """(t, Q): t[m] = Tr(b_m), the diagonal sum of multiplication by b_m,
    and the trace form Q[j][k] = Tr(b_j b_k)."""
    d = len(table)
    tr = [sum(table[m][k][k] for k in range(d)) for m in range(d)]
    q = [[sum(map(mul, table[j][k], tr)) for k in range(d)]
         for j in range(d)]
    return tr, q


def fraction_inverse(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def ellipsoid_radii(q, t):
    """r_j = floor(sqrt(t * (Q^-1)[j][j])): every x with x^T Q x <= t has
    |x_j| <= r_j, for Q positive definite."""
    inv = fraction_inverse(q)
    return [isqrt(int(t * inv[j][j])) for j in range(len(q))]


# ---------------------------------------------------------------------------
# polynomial gcd over Q, a reference for squarefreeness and common roots

def gcd_poly(a, b):
    """A gcd of two polynomials over Q (ascending coefficients), up to a
    nonzero rational factor, by Euclid's algorithm on `Fraction`
    remainders; [] when both are zero."""
    a, b = polys.trim(a), polys.trim(b)
    while b:
        _, r = polys.divmod_poly(a, b)
        a, b = b, r
    return a
