"""Exact rational vectors and matrices.

Vectors are tuples of Fractions, matrices are tuples of row tuples.  The
verifier's cubic work runs as exact integer dot products over per-row
common denominators: `scale_rows` turns each row into Python ints and the
lcm L of that row's denominators, so a product of two rows is one int
dot product over L_i * L_j.  Residuals are reported as Fractions; no
floats and no numpy enter any accept/reject decision.  Certificate
entries live on the grid of integer multiples of 1/n^(2c) --
`snap_to_grid` rounds onto that grid and `is_grid_multiple` checks
membership.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

Rat = Fraction
QVec = Sequence[Fraction]
QMat = Sequence[Sequence[Fraction]]

__all__ = [
    "Rat",
    "QVec",
    "QMat",
    "rat",
    "vec",
    "mat",
    "inner_prod",
    "mat_vec",
    "quadratic_form",
    "norm_inf",
    "scale_rows",
    "gram_dev",
    "grid_denominator",
    "is_grid_multiple",
    "snap_to_grid",
    "snap_up_to_grid",
]


def rat(x) -> Fraction:
    """Coerce ints, floats, strings, or Fractions to an exact Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(vec(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def inner_prod(u: QVec, v: QVec) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_vec(m: QMat, v: QVec) -> tuple[Fraction, ...]:
    return tuple(inner_prod(row, v) for row in m)


def quadratic_form(a: QVec, m: QMat) -> Fraction:
    """a^T m a, exactly."""
    return inner_prod(a, mat_vec(m, a))


def norm_inf(v: QVec) -> Fraction:
    return max((abs(x) for x in v), default=Fraction(0))


def scale_rows(rows: QMat) -> list[tuple[tuple[int, ...], int]]:
    """Each row as (integer entries, L) with row == entries / L, where L
    is the lcm of the row's denominators.

    Per-row denominators keep the integers as small as each row allows:
    on a hostile matrix whose n^2 entries have distinct prime
    denominators, one lcm over all of them would be n times longer.
    """
    out = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        out.append((tuple(x.numerator * (den // x.denominator) for x in row), den))
    return out


def gram_dev(rows: QMat) -> tuple[Fraction, Fraction]:
    """Deviation of the rows' Gram matrix from the identity.

    Returns (max |<v_i, v_j>| over i != j, max |<v_i, v_i> - 1|).  Each
    running max is kept as an integer pair (num, den) and compared by
    cross-multiplication.
    """
    scaled = scale_rows(rows)
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


def is_grid_multiple(x: Fraction, n: int, c: int) -> bool:
    """True iff x * n^(2c) is an integer."""
    return grid_denominator(n, c) % rat(x).denominator == 0


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
