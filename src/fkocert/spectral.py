"""Clause-polarity matrix, eigenbasis certificates and their exact certification.

The matrix M of a 3CNF K has M_ij = sum over clauses of +-1/2: +1/2 when
x_i and x_j co-occur with different polarity, -1/2 with equal polarity.
For every sign vector a of an assignment A, a^T M a = 4 * nae - 3m, nae
the number of clauses A NAE-satisfies, so an upper bound on the quadratic
form over sign vectors caps how many clauses any assignment can
NAE-satisfy.

A certificate is a snapped approximate eigendecomposition (lambdas, V),
which approx_eigen builds from a float Householder-QL seed and an
exact-int refinement.  Its quality is *certified* in exact rational
arithmetic; the certified residuals feed an explicit slack term such that

    max over a in {-1,+1}^n of a^T M a  <=  lambdas[0] * n + slack

for any (lambdas, V) with lambdas weakly decreasing, a certified condition,
and every |v_ij| <= 2, a precondition; the others only keep slack small.
Without the order it fails: M = diag(1, 0), lambdas = (0, 1) and V with
rows e_2, e_1 give slack 0, yet max a^T M a = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from operator import mul

from .cnf import Cnf
from .exactq import (
    QMat,
    QVec,
    _connected,
    gram_dev,
    grid_denominator,
    support_blocks,
)
from .symeig import SpectralPrecisionError, eigenvectors

__all__ = [
    "C_MAX",
    "SpectralCert",
    "CertReport",
    "SpectralPrecisionError",
    "build_m",
    "approx_eigen",
    "certify_eigvalbound",
    "tolerances",
]

DEFAULT_K = Fraction(16)
# largest grid exponent c accepted: certificates live on the 1/n^(2c) grid,
# so c bounds the size of every integer the certification forms
C_MAX = 64


def _check_c(c: int) -> int:
    if not 1 <= c <= C_MAX:
        raise ValueError(f"grid exponent c={c} is outside 1..{C_MAX}")
    return c


def tolerances(cert: "SpectralCert") -> tuple[Fraction, Fraction, Fraction]:
    """Bounds K3/n^(c-1), K4/n^(c-1), K5/n^(c-3) on rho, Gram deviations, tau."""
    n, c = Fraction(cert.n), cert.c
    return cert.k3 * n ** (1 - c), cert.k4 * n ** (1 - c), cert.k5 * n ** (3 - c)


def build_m(cnf: Cnf) -> tuple[tuple[Fraction, ...], ...]:
    """Clause-polarity matrix: symmetric, zero diagonal, entries in (1/2)Z.

    2M is accumulated in ints, +-1 per co-occurring pair; each entry is
    then one shared Fraction(k, 2) per distinct k.
    """
    n = cnf.n
    twice = [[0] * n for _ in range(n)]
    for x, y, z, (px, py, pz) in zip(cnf.x, cnf.y, cnf.z, cnf.pols):
        for i, pi, j, pj in ((x, px, y, py), (x, px, z, pz), (y, py, z, pz)):
            w = 1 if pi != pj else -1
            twice[i - 1][j - 1] += w
            twice[j - 1][i - 1] += w
    halves = {k: Fraction(k, 2) for k in set().union(*twice)}
    # lists, not generators: see _sparse_rows
    return tuple([tuple([halves[k] for k in row]) for row in twice])


def _int_matrix(m: QMat) -> tuple[list[list[int]], int]:
    """(A, m_den) with m == A / m_den, m_den the lcm of m's denominators.

    Each distinct entry object is read once, and each entry is then mapped
    to its int by id in C-level passes.  build_m shares one Fraction per
    value, so on its output only a handful of entries are read.
    """
    objs = dict(zip(map(id, chain.from_iterable(m)), chain.from_iterable(m)))
    dens = [x.denominator for x in objs.values()]
    m_den = math.lcm(*dens)
    ints = dict(zip(objs, [x.numerator * (m_den // d) for x, d in zip(objs.values(), dens)]))
    return [list(map(ints.__getitem__, map(id, row))) for row in m], m_den


@dataclass(frozen=True)
class SpectralCert:
    """Snapped eigenvalue/eigenvector data.

    lambdas are weakly decreasing; V holds the (approximate) eigenvectors
    as rows; every entry is an integer multiple of 1/n^(2c).
    """

    lambdas: tuple[Fraction, ...]
    v: tuple[tuple[Fraction, ...], ...]
    c: int
    k3 = k4 = k5 = DEFAULT_K  # tolerance multipliers: class constants, not fields

    @property
    def n(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class CertReport:
    """Exact certified residuals plus per-condition pass flags.

    Conditions: (1) basis reconstruction rho <= K3/n^(c-1), (2) Gram
    deviations <= K4/n^(c-1), (3) eigen-residual tau <= K5/n^(c-3) with
    lambdas weakly decreasing.  Grid membership and |v_ij| <= 2 are
    preconditions of certify_eigvalbound, not conditions.
    """

    rho: Fraction
    gram_off: Fraction
    gram_diag: Fraction
    tau: Fraction
    slack: Fraction
    basis_ok: bool
    gram_ok: bool
    eigen_ok: bool

    @property
    def passed(self) -> bool:
        return not self.failed_conditions()

    def failed_conditions(self) -> list[str]:
        names = [
            ("basis", self.basis_ok),
            ("gram", self.gram_ok),
            ("eigen", self.eigen_ok),
        ]
        return [name for name, ok in names if not ok]


# --------------------------------------- float seed, exact-int refinement

_EPS = 2.0 ** -52


def _components(a: list[list[int]]) -> list[list[int]]:
    """Index sets of the connected components of a's nonzero pattern."""
    n = len(a)
    return _connected(n, ((p, q) for p, row in enumerate(a)
                          for q in compress(range(p + 1, n), row[p + 1:])))


def _sparse_rows(a: list[list[int]]) -> list[tuple[list[int], list[int]]]:
    """Each row's nonzero columns and values.

    Lists, not tuple(generator): such a tuple is allocated at one length
    and resized, and when freed it goes to the interpreter's tuple free
    list for its final length, so each call would leave its memory there.
    """
    cols = range(len(a[0])) if a else ()
    return [(list(compress(cols, row)), list(compress(row, row))) for row in a]


def _to_fixed(x: float, f_bits: int) -> int:
    """x * 2^f_bits rounded to the nearest int, exactly, for any f_bits."""
    num, den = x.as_integer_ratio()
    return ((num << (f_bits + 1)) // den + 1) >> 1


def _refine(a: list[list[int]], m_den: int, xs: list[list[int]], f_bits: int,
            thresh: int, steps: int) -> list[tuple[int, int]]:
    """Ogita-Aishima refinement (RefSyEv) of eigenvector estimates, in place.

    `a / m_den` is the symmetric matrix and `xs` holds the estimates as
    rows of ints over 2^f_bits.  Each step forms R = I - X^T X and
    S = X^T A X from exact int dot products, then in floats the
    Rayleigh quotients lam_i = S_ii / (1 - R_ii) and the correction
    E_ij = (S_ij + lam_j R_ij) / (lam_j - lam_i), or E_ij = R_ij / 2 when
    |lam_i - lam_j| <= delta (the two belong to one cluster), and sets
    X <- X + X E in ints.  delta is the bound 2(||S - diag(lam)|| +
    ||A|| ||R||) of Ogita & Aishima, in Frobenius norms, plus the float
    rounding of the lam_i, so an exactly repeated eigenvalue is always one
    cluster.  Returns the exact Rayleigh quotients of the last step, as
    int pairs (h, d) for h / d, once max |E| * 2^f_bits < thresh; raises
    SpectralPrecisionError after `steps` steps.  Its float sums are loops,
    as in symeig.
    """
    s = len(xs)
    one2 = 1 << (2 * f_bits)
    s_den = m_den * one2
    half = 1 << (f_bits - 1)
    sparse = _sparse_rows(a)
    norm_a = math.sqrt(sum(v * v for row in a for v in row)) / m_den
    for _ in range(steps):
        r = [[0.0] * s for _ in range(s)]
        sm = [[0.0] * s for _ in range(s)]
        quotients = []
        for i, xi in enumerate(xs):
            yi = [sum(map(mul, vals, map(xi.__getitem__, cols))) for cols, vals in sparse]
            for j in range(i, s):
                xj = xs[j]
                g = sum(map(mul, xi, xj))
                h = sum(map(mul, yi, xj))
                if i == j:
                    quotients.append((h, m_den * g))
                    g -= one2
                r[i][j] = r[j][i] = -g / one2
                sm[i][j] = sm[j][i] = h / s_den
        lam = [h / d for h, d in quotients]
        # S - diag(lam) has the off-diagonal of S and the diagonal -lam_i R_ii
        dev2 = diag2 = r2 = 0.0
        for i, (row, rrow) in enumerate(zip(sm, r)):
            for j, (x, y) in enumerate(zip(row, rrow)):
                if i != j:
                    dev2 += x * x
                r2 += y * y
            diag2 += (lam[i] * rrow[i]) ** 2
        dev2 += diag2
        delta = 2 * (math.sqrt(dev2) + norm_a * math.sqrt(r2)) + 16 * _EPS * norm_a
        # column j of E reads only row j of the symmetric R and S; rows are
        # dropped as they are used, and X is updated one row at a time
        ecols = []
        for j, lj in enumerate(lam):
            sj, rj = sm[j], r[j]
            sm[j] = r[j] = None
            ecols.append([
                _to_fixed((s_ij + lj * r_ij) / (lj - li) if abs(lj - li) > delta
                          else r_ij / 2, f_bits)
                for li, s_ij, r_ij in zip(lam, sj, rj)
            ])
        big = max(abs(e) for col in ecols for e in col)
        for k in range(s):
            row = [x[k] for x in xs]
            for x, col in zip(xs, ecols):
                x[k] += (sum(map(mul, row, col)) + half) >> f_bits
        if big < thresh:
            return quotients
    raise SpectralPrecisionError(
        f"refinement did not reach 2^-{f_bits} * {thresh} within {steps} steps"
    )


def _snap(h: int, d: int, grid: int, f_bits: int, thresh: int) -> int:
    """h / d times grid, d > 0, rounded to the nearest int.

    A value at most thresh / 2^f_bits, the refinement's precision, below
    a midpoint of the grid rounds up, as an exact tie does: a value that
    lies on a midpoint then snaps up wherever the refinement leaves it.
    The window is below 1/n^4 of a grid step for n >= 2; an exact value
    snaps with thresh = 0.
    """
    return (((2 * h * grid + d) << f_bits) + 2 * d * grid * thresh) // (d << (f_bits + 1))


def approx_eigen(m: QMat, c: int) -> SpectralCert:
    """Approximate eigendecomposition of m, snapped to the 1/n^(2c) grid.

    This is the untrusted builder: certify_eigvalbound re-checks its output
    exactly, so it may use floats.  It uses plain Python floats, and
    runs every operation in a fixed order, so the output is
    bit-deterministic.  Each connected component of m's nonzero pattern is
    solved on its own submatrix, in two phases:

    1. Householder tridiagonalisation and implicit-shift QL on floats
       (EISPACK's tred2 and tql2) give eigenvector estimates good to
       about k * 2^-52 at component order k;
    2. Ogita-Aishima refinement steps on ints over 2^F, with
       F = ceil((2c+4)*log2 n) + 64, run until the correction is below
       n^-(2c+4) at every component order.

    An isolated vertex i, a one-vertex component, skips both phases: its
    eigenpair is exactly (m_ii, e_i), so it enters as the row 2^F e_i and
    the quotient m_ii.  Most of a planted formula's variables are isolated.
    Every component then snaps its Rayleigh quotients and its rows in
    ints by one rule, _snap; a V entry snaps by magnitude and keeps its
    sign, so a value on a grid midpoint snaps away from zero whatever
    sign and refinement noise it carries.

    Every row of V is then negated if its first nonzero entry is
    negative, which fixes the sign the seed leaves free; the verifier
    does not read it.  Rows are sorted by snapped eigenvalue, descending,
    and equal ones keep index order.

    Raises SpectralPrecisionError when either phase misses its target.
    """
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    _check_c(c)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    a, m_den = _int_matrix(m)
    if [list(col) for col in zip(*a)] != a:
        raise ValueError("matrix is not symmetric")

    f_bits = (2 * c + 4) * max(1, math.ceil(math.log2(n))) + 64
    thresh = (1 << f_bits) // n ** (2 * c + 4)
    # a float correction gains at least ~40 bits a step, so F bounds the steps
    steps = 2 + f_bits // 40
    grid = grid_denominator(n, c)
    one = 1 << f_bits
    zero = Fraction(0)
    keys = [0] * n  # lambda_i * grid, snapped
    vecs: list[tuple[Fraction, ...]] = [()] * n
    for comp in _components(a):
        if len(comp) == 1:
            # (m_ii, e_i) is exact, so it snaps with no window: at n = 1
            # thresh / 2^F is a whole grid step
            (i,) = comp
            xs, quotients, tol = [[one]], [(a[i][i], m_den)], 0
        else:
            sub = [[a[p][q] for q in comp] for p in comp]
            seed = eigenvectors([[x / m_den for x in row] for row in sub])
            xs = [[_to_fixed(x, f_bits) for x in row] for row in seed]
            quotients = _refine(sub, m_den, xs, f_bits, thresh, steps)
            tol = thresh
        for idx, (i, (h, d)) in enumerate(zip(comp, quotients)):
            # by magnitude, so that negating a row commutes with the snap
            ints = [_snap(abs(x), one, grid, f_bits, tol) for x in xs[idx]]
            ints = [-k if x < 0 else k for k, x in zip(ints, xs[idx])]
            xs[idx] = None
            if next(filter(None, ints), 0) < 0:  # comp ascends: the row's first nonzero
                ints = [-x for x in ints]
            row = [zero] * n
            for k, x in zip(comp, ints):
                row[k] = Fraction(x, grid)
            keys[i], vecs[i] = _snap(h, d, grid, f_bits, tol), tuple(row)

    # stable: equal eigenvalues keep index order
    order = sorted(range(n), key=keys.__getitem__, reverse=True)
    lambdas = tuple([Fraction(keys[i], grid) for i in order])
    rows = tuple([vecs[i] for i in order])
    return SpectralCert(lambdas, rows, c)


# ------------------------------------------------------ exact certification


def _grid_ints(grid: int, lambdas: QVec, v: QMat) -> list[list[int]]:
    """lambdas and V's rows times grid, as int rows, each entry read once.

    Raises ValueError naming the first entry off the 1/grid grid, and
    then, when all are on it, the first |v_ij| > 2.
    """
    bound = 2 * grid
    big = None
    out = []
    for i, row in enumerate((lambdas, *v)):
        ints = []  # len(ints) is the column of x
        for x in row:
            p = x.numerator
            if p:  # a zero's denominator is 1
                d = x.denominator
                if grid % d:
                    name = f"V[{i - 1}]" if i else "lambdas"
                    raise ValueError(f"{name}[{len(ints)}] is off the 1/n^(2c) grid")
                p *= grid // d
                if i and big is None and abs(p) > bound:
                    big = (i - 1, len(ints))
            ints.append(p)
        out.append(ints)
    if big is not None:
        raise ValueError("|V[%d][%d]| > 2" % big)
    return out


def certify_eigvalbound(m: QMat, cert: SpectralCert) -> CertReport:
    """Check the certificate conditions in exact arithmetic.

    Raises ValueError, before any product is formed, on mismatched shapes,
    c outside 1..C_MAX, or an entry off the 1/n^(2c) grid or with
    |v_ij| > 2, naming it.  One pass reads each entry of lambdas and V
    once, checks it and scales it by G = n^(2c), so the products are int
    dot products and the residuals int maxima over one denominator.  The
    products run per support block of V (see exactq.support_blocks), a
    dense V as one block of every row and column: both Gram deviations on
    the block's rows and columns, and the residuals of its rows at its
    columns and their M-neighbours, since every other entry is exactly 0.
    A block of one row and one column, v_i = x e_k, as an isolated vertex
    of M gives, has both in closed form, with no per-block set-up.

    The report's slack makes lambdas[0]*n + slack an upper bound on
    max_a a^T M a when the report passes; on a failing one it bounds
    nothing (see the module docstring).  Soundness sketch, all quantities
    exact: write E~ = V^T V = I + R with rho = max|R|,
    t_i = M v_i - lambda_i v_i with tau = max|t_i|, and for a sign vector
    a put a~ = E~ a = a + Ra and c_j = <v_j, a>.  Then
    a^T M a = a~^T M a~ - 2 a~^T M(Ra) + (Ra)^T M (Ra), and since
    a~ = sum_j c_j v_j exactly,
    a~^T M a~ = sum_{j,k} lambda_k c_j c_k <v_j,v_k> + a~^T sum_j c_j t_j.
    With S = sum_j c_j^2 = a^T E~ a in [n - n^2 rho, n + n^2 rho],
    sum_j lambda_j c_j^2 <= lambdas[0] * S, |c_j| <= 2n, and the Gram
    deviations bounding the cross terms, every remainder collapses into
    the slack.
    """
    n = cert.n
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError("matrix/certificate dimension mismatch")
    v = cert.v
    if len(v) != n or any(len(row) != n for row in v):
        raise ValueError("V is not n x n")
    lambdas = cert.lambdas
    c = cert.c
    _check_c(c)

    grid = grid_denominator(n, c)
    lam, *w = _grid_ints(grid, lambdas, v)
    g2 = grid * grid
    a, m_den = _int_matrix(m)
    m_sparse = _sparse_rows(a)

    # Every product runs within one support block of V: the Gram entries
    # between blocks are exactly 0, and so is the residual of a row at
    # every ell that is neither a column of its block nor one M-edge away
    # from one.
    # column k -> the rows ell with A[ell][k] != 0
    reach = [list(compress(range(n), col)) for col in zip(*a)]
    rho = off = diag = resid = 0
    for rows, cols in support_blocks(w):
        if len(rows) == len(cols) == 1:
            # v_i = x e_k: its Gram deviation is |x^2 - G^2| and its
            # residual at ell is |G A[ell][k] x - m_den lam_i x [ell = k]|
            (i,), (k,) = rows, cols
            x = w[i][k]
            dev = abs(x * x - g2)
            rho, diag = max(rho, dev), max(diag, dev)
            resid = max(resid, abs(x) * max([
                abs(grid * a[k][k] - m_den * lam[i]),
                *[grid * abs(a[ell][k]) for ell in reach[k] if ell != k]]))
            continue
        block = [[w[i][k] for k in cols] for i in rows]
        block_t = [[w[i][k] for i in rows] for k in cols]
        # a list, not a map: a star-unpacked iterator builds a resized
        # tuple, and a freed one parks on the free list (see _sparse_rows)
        near = sorted(set(cols).union(*[reach[k] for k in cols]))
        # condition 1: V^T V - I is the Gram deviation of V's columns
        rho = max(rho, *gram_dev(block_t, g2))
        b_off, b_diag = gram_dev(block, g2)
        off, diag = max(off, b_off), max(diag, b_diag)
        # tau = max over i, ell of |(M v_i)_ell - lambda_i v_i[ell]|; with
        # M = A / m_den, v_i = w_i / G and lambda_i = lam_i / G every
        # residual is an integer over m_den * G^2
        m_near = [m_sparse[ell] for ell in near]
        resid = max([resid, *[
            abs(grid * sum(map(mul, vals, map(wi.__getitem__, ks))) - m_den * li * wi_ell)
            for wi, li in zip(map(w.__getitem__, rows), map(lam.__getitem__, rows))
            for (ks, vals), wi_ell in zip(m_near, map(wi.__getitem__, near))
        ]])
    rho = Fraction(rho, g2)
    gram_off, gram_diag = Fraction(off, g2), Fraction(diag, g2)
    tau = Fraction(resid, m_den * g2)

    tol_basis, tol_gram, tol_eigen = tolerances(cert)
    descending = all(lam[i] >= lam[i + 1] for i in range(n - 1))

    basis_ok = rho <= tol_basis
    gram_ok = gram_off <= tol_gram and gram_diag <= tol_gram
    eigen_ok = tau <= tol_eigen and descending

    mu = Fraction(max([max(max(row), -min(row)) for row in a]), m_den)
    lam_abs = Fraction(max(map(abs, lam)), grid)
    lam1 = Fraction(max(lam), grid)
    nrho = n * rho
    slack = (
        abs(lam1) * n * nrho
        + lam_abs * (gram_diag + (n - 1) * gram_off) * (n + n * nrho)
        + 2 * n**3 * tau * (1 + nrho)
        + 2 * n**2 * mu * nrho * (1 + nrho)
        + n**2 * mu * nrho * nrho
    )

    return CertReport(
        rho=rho,
        gram_off=gram_off,
        gram_diag=gram_diag,
        tau=tau,
        slack=slack,
        basis_ok=basis_ok,
        gram_ok=gram_ok,
        eigen_ok=eigen_ok,
    )

