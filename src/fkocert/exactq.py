"""Exact rational numbers and the verifier's integer kernels.

Vectors are tuples of Fractions, matrices are tuples of row tuples.
Certificate entries live on the grid of integer multiples of 1/n^(2c);
`snap_to_grid` rounds onto that grid.  The verifier checks that grid
first and then scales every entry once by the one grid denominator, so
its cubic work runs as exact integer dot products over a single known
scale: `gram_dev` takes rows of Python ints.  No float and no
third-party code enters any accept/reject decision.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

QVec = Sequence[Fraction]
QMat = Sequence[Sequence[Fraction]]

__all__ = [
    "QVec",
    "QMat",
    "rat",
    "gram_dev",
    "grid_denominator",
    "snap_to_grid",
    "snap_up_to_grid",
]


def rat(x) -> Fraction:
    """Coerce ints, floats, strings, or Fractions to an exact Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def gram_dev(rows: Sequence[Sequence[int]], one: int) -> tuple[int, int]:
    """Deviation of the Gram matrix of integer rows from one * I.

    Returns (max |<w_i, w_j>| over i != j, max |<w_i, w_i> - one|); for
    rows V = W / s this is the Gram deviation of V scaled by s^2 = one.
    """
    if any(len(w) != len(rows[0]) for w in rows):
        raise ValueError("ragged matrix")
    off = diag = 0
    for i, wi in enumerate(rows):
        diag = max(diag, abs(sum(map(mul, wi, wi)) - one))
        for wj in rows[i + 1:]:
            off = max(off, abs(sum(map(mul, wi, wj))))
    return off, diag


def grid_denominator(n: int, c: int) -> int:
    """Common denominator n^(2c) of certificate entries."""
    if n < 1 or c < 1:
        raise ValueError("need n >= 1 and c >= 1")
    return n ** (2 * c)


def snap_to_grid(x, n: int, c: int) -> Fraction:
    """Nearest integer multiple of 1/n^(2c) to x (ties round up).

    The result is always within 1/n^(2c) of x.
    """
    d = grid_denominator(n, c)
    scaled = rat(x) * d
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    return Fraction(q, d)


def snap_up_to_grid(x, n: int, c: int) -> Fraction:
    """Least integer multiple of 1/n^(2c) that is >= x."""
    d = grid_denominator(n, c)
    scaled = rat(x) * d
    q, r = divmod(scaled.numerator, scaled.denominator)
    if r:
        q += 1
    return Fraction(q, d)
