"""Exact rational numbers and the verifier's integer kernels.

Vectors are tuples of Fractions, matrices are tuples of row tuples.  The
verifier's cubic work runs as exact integer dot products over per-row
common denominators: `scale_rows` turns each row into Python ints and the
lcm L of that row's denominators, so a product of two rows is one int
dot product over L_i * L_j, and `gram_dev` works on rows in that form.
Residuals are reported as Fractions; no floats and no numpy enter any
accept/reject decision.  Certificate entries live on the grid of integer
multiples of 1/n^(2c); `snap_to_grid` rounds onto that grid.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

Rat = Fraction
QVec = Sequence[Fraction]
QMat = Sequence[Sequence[Fraction]]

__all__ = [
    "Rat",
    "QVec",
    "QMat",
    "rat",
    "scale_rows",
    "gram_dev",
    "grid_denominator",
    "snap_to_grid",
    "snap_up_to_grid",
]


def rat(x) -> Fraction:
    """Coerce ints, floats, strings, or Fractions to an exact Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def scale_rows(rows: QMat) -> list[tuple[tuple[int, ...], int]]:
    """Each row as (integer entries, L) with row == entries / L, where L
    is the lcm of the row's denominators.

    Per-row denominators keep the integers as small as each row allows:
    on a hostile matrix whose n^2 entries have distinct prime
    denominators, one lcm over all of them would be n times longer.
    """
    out = []
    for row in rows:
        # lists, not generators: a tuple built from a generator (also as
        # *args) is resized, and when freed it parks in the tuple free list
        den = math.lcm(*[x.denominator for x in row])
        out.append((tuple([x.numerator * (den // x.denominator) for x in row]), den))
    return out


def gram_dev(scaled: list[tuple[tuple[int, ...], int]]) -> tuple[Fraction, Fraction]:
    """Deviation of the Gram matrix of rows from the identity, the rows
    given as scale_rows returns them.

    Returns (max |<v_i, v_j>| over i != j, max |<v_i, v_i> - 1|).  Each
    running max is kept as an integer pair (num, den) and compared by
    cross-multiplication.
    """
    if any(len(w) != len(scaled[0][0]) for w, _ in scaled):
        raise ValueError("ragged matrix")
    off, off_den = 0, 1
    diag, diag_den = 0, 1
    for i, (wi, li) in enumerate(scaled):
        den = li * li
        dev = abs(sum(map(mul, wi, wi)) - den)
        if dev * diag_den > diag * den:
            diag, diag_den = dev, den
        for wj, lj in scaled[i + 1:]:
            g = abs(sum(map(mul, wi, wj)))
            den = li * lj
            if g * off_den > off * den:
                off, off_den = g, den
    return Fraction(off, off_den), Fraction(diag, diag_den)


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
