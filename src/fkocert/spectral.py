"""Clause-polarity matrix, eigenbasis certificates, certified quadform bound.

The matrix M of a 3CNF K has M_ij = sum over clauses of +-1/2: +1/2 when
x_i and x_j co-occur with different polarity, -1/2 with equal polarity.
For every sign vector a, a^T M a = 4 * count_nae(K, A) - 3m, so an upper
bound on the quadratic form over sign vectors caps how many clauses any
assignment can NAE-satisfy.

A certificate is a snapped approximate eigendecomposition (lambdas, V)
whose quality is *certified* in exact rational arithmetic; the certified
residuals feed an explicit slack term such that

    max over a in {-1,+1}^n of a^T M a  <=  lambdas[0] * n + slack

holds unconditionally -- for arbitrary, even adversarial, (lambdas, V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .cnf import Cnf
from .exactq import (
    QMat,
    gram_dev,
    grid_denominator,
    scale_rows,
    snap_to_grid,
)

__all__ = [
    "SpectralCert",
    "CertReport",
    "SpectralPrecisionError",
    "CertificationError",
    "build_m",
    "approx_eigen",
    "certify_eigvalbound",
    "certified_quadform_bound",
]

HALF = Fraction(1, 2)
DEFAULT_K = Fraction(16)


class SpectralPrecisionError(RuntimeError):
    """Jacobi iteration failed to reach the working-precision target."""


class CertificationError(ValueError):
    """Certificate failed one of the five certified conditions."""

    def __init__(self, report: "CertReport"):
        super().__init__(f"certificate rejected: {report.failed_conditions()}")
        self.report = report


def build_m(cnf: Cnf) -> tuple[tuple[Fraction, ...], ...]:
    """Clause-polarity matrix: symmetric, zero diagonal, entries in (1/2)Z."""
    n = cnf.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for cl in cnf.clauses:
        lits = list(cl.literals())
        for s in range(3):
            for t in range(s + 1, 3):
                (vi, pi), (vj, pj) = lits[s], lits[t]
                w = HALF if pi != pj else -HALF
                rows[vi - 1][vj - 1] += w
                rows[vj - 1][vi - 1] += w
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class SpectralCert:
    """Snapped eigenvalue/eigenvector data with tolerance multipliers.

    lambdas are weakly decreasing; V holds the (approximate) eigenvectors
    as rows; every entry is an integer multiple of 1/n^(2c).
    """

    lambdas: tuple[Fraction, ...]
    v: tuple[tuple[Fraction, ...], ...]
    c: int
    k3: Fraction = DEFAULT_K
    k4: Fraction = DEFAULT_K
    k5: Fraction = DEFAULT_K

    @property
    def n(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class CertReport:
    """Exact certified residuals plus per-condition pass flags.

    Conditions: (1) grid membership of every lambda / V entry,
    (2) max |v_ij| <= 2, (3) basis reconstruction rho <= K3/n^(c-1),
    (4) Gram deviations <= K4/n^(c-1), (5) eigen-residual tau <= K5/n^(c-3)
    with lambdas weakly decreasing.
    """

    rho: Fraction
    gram_off: Fraction
    gram_diag: Fraction
    tau: Fraction
    slack: Fraction
    grid_ok: bool
    entry_bound_ok: bool
    basis_ok: bool
    gram_ok: bool
    eigen_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.grid_ok
            and self.entry_bound_ok
            and self.basis_ok
            and self.gram_ok
            and self.eigen_ok
        )

    def failed_conditions(self) -> list[str]:
        names = [
            ("grid", self.grid_ok),
            ("entry-bound", self.entry_bound_ok),
            ("basis", self.basis_ok),
            ("gram", self.gram_ok),
            ("eigen", self.eigen_ok),
        ]
        return [name for name, ok in names if not ok]


# ------------------------------------------------------- fixed-point Jacobi


def _round_div(a: int, b: int) -> int:
    """Round a/b to nearest (ties away from zero); b > 0."""
    if a >= 0:
        return (2 * a + b) // (2 * b)
    return -((-2 * a + b) // (2 * b))


def _jacobi_rotation(one: int, app: int, aqq: int, apq: int) -> tuple[int, int]:
    """Fixed-point (cos, sin) zeroing the (p,q) entry; scale `one` = 2^F."""
    beta = _round_div((aqq - app) * one, 2 * apq)
    root = math.isqrt(beta * beta + one * one)
    denom = abs(beta) + root
    t = _round_div(one * one, denom)
    if beta < 0:
        t = -t
    hyp = math.isqrt(t * t + one * one)
    cos = _round_div(one * one, hyp)
    sin = _round_div(t * cos, one)
    return cos, sin


def approx_eigen(
    m: QMat,
    c: int,
    k3: Fraction = DEFAULT_K,
    k4: Fraction = DEFAULT_K,
    k5: Fraction = DEFAULT_K,
    max_sweeps: int = 64,
) -> SpectralCert:
    """Cyclic Jacobi at fixed-point working precision, snapped to the grid.

    The scale 2^F with F = ceil((2c+4)*log2 n) + 64 keeps the iteration
    well below the n^-(2c+4) working-precision target; the sweep order is
    fixed, so the output is bit-deterministic.  Raises
    SpectralPrecisionError if the off-diagonal mass does not converge.
    """
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    for i in range(n):
        if len(m[i]) != n:
            raise ValueError("matrix is not square")
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    if n == 1:
        lam = snap_to_grid(m[0][0], 1, c)
        return SpectralCert((lam,), ((Fraction(1),),), c, k3, k4, k5)

    f_bits = (2 * c + 4) * max(1, math.ceil(math.log2(n))) + 64
    one = 1 << f_bits
    a = [
        [_round_div(m[i][j].numerator * one, m[i][j].denominator) for j in range(n)]
        for i in range(n)
    ]
    jmat = [[one if i == j else 0 for j in range(n)] for i in range(n)]

    # target: off-diagonal Frobenius mass below n^-(2c+4) (in scaled units)
    thresh = one // n ** (2 * c + 4)
    thresh2 = thresh * thresh
    skip2 = thresh2 // (n * n) if n else thresh2

    for _ in range(max_sweeps):
        off2 = 0
        for p in range(n):
            row = a[p]
            for q in range(p + 1, n):
                off2 += row[q] * row[q]
        if 2 * off2 < thresh2:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq * apq <= skip2:
                    continue
                app, aqq = a[p][p], a[q][q]
                cos, sin = _jacobi_rotation(one, app, aqq, apq)
                for r in range(n):
                    if r == p or r == q:
                        continue
                    arp, arq = a[r][p], a[r][q]
                    nrp = _round_div(cos * arp - sin * arq, one)
                    nrq = _round_div(sin * arp + cos * arq, one)
                    a[r][p] = a[p][r] = nrp
                    a[r][q] = a[q][r] = nrq
                one2 = one * one
                a[p][p] = _round_div(
                    cos * cos * app - 2 * cos * sin * apq + sin * sin * aqq, one2
                )
                a[q][q] = _round_div(
                    sin * sin * app + 2 * cos * sin * apq + cos * cos * aqq, one2
                )
                napq = _round_div(
                    (cos * cos - sin * sin) * apq + cos * sin * (app - aqq), one2
                )
                a[p][q] = a[q][p] = napq
                for r in range(n):
                    jrp, jrq = jmat[r][p], jmat[r][q]
                    jmat[r][p] = _round_div(cos * jrp - sin * jrq, one)
                    jmat[r][q] = _round_div(sin * jrp + cos * jrq, one)
    else:
        raise SpectralPrecisionError(
            f"no convergence to n^-(2c+4) within {max_sweeps} sweeps (n={n}, c={c})"
        )

    order = sorted(range(n), key=lambda i: (-a[i][i], i))
    lambdas = tuple(snap_to_grid(Fraction(a[i][i], one), n, c) for i in order)
    rows = tuple(
        tuple(snap_to_grid(Fraction(jmat[r][col], one), n, c) for r in range(n))
        for col in order
    )
    return SpectralCert(lambdas, rows, c, k3, k4, k5)


# ------------------------------------------------------ exact certification


def certify_eigvalbound(m: QMat, cert: SpectralCert) -> CertReport:
    """Check the five certificate conditions in exact arithmetic.

    The cubic products are integer dot products over per-row common
    denominators (see exactq.scale_rows); the residuals come out as exact
    Fractions.  Also computes the certified slack (see
    certified_quadform_bound); the slack formula is valid regardless of
    the pass flags, since it only uses the exactly recomputed residuals.
    """
    n = cert.n
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError("matrix/certificate dimension mismatch")
    v = cert.v
    if len(v) != n or any(len(row) != n for row in v):
        raise ValueError("V is not n x n")
    lambdas = cert.lambdas
    c = cert.c

    rows = scale_rows(v)
    grid = grid_denominator(n, c)
    grid_ok = all(grid % x.denominator == 0 for x in lambdas) and all(
        grid % den == 0 for _, den in rows
    )
    entry_bound_ok = all(max(map(abs, w)) <= 2 * den for w, den in rows)

    # condition 3: V^T V - I is the Gram deviation of V's columns
    rho = max(gram_dev(tuple(zip(*v))))

    gram_off, gram_diag = gram_dev(v)

    # tau = max over i, ell of |(M v_i)_ell - lambda_i v_i[ell]|; with
    # M = A / m_den and v_i = w / den the residual row has the single
    # denominator m_den * den * lambda_i.denominator
    m_den = math.lcm(*(x.denominator for row in m for x in row))
    m_sparse = []
    for row in m:
        nz = [(j, x.numerator * (m_den // x.denominator)) for j, x in enumerate(row) if x]
        m_sparse.append((tuple(j for j, _ in nz), tuple(a for _, a in nz)))
    tau, tau_den = 0, 1
    for (w, den), lam in zip(rows, lambdas):
        p, q = lam.numerator, lam.denominator
        mp = m_den * p
        top = max(
            abs(q * sum(map(mul, vals, map(w.__getitem__, cols))) - mp * w_ell)
            for (cols, vals), w_ell in zip(m_sparse, w)
        )
        row_den = m_den * den * q
        if top * tau_den > tau * row_den:
            tau, tau_den = top, row_den
    tau = Fraction(tau, tau_den)

    tol_basis = cert.k3 * Fraction(n) ** (1 - c)
    tol_gram = cert.k4 * Fraction(n) ** (1 - c)
    tol_eigen = cert.k5 * Fraction(n) ** (3 - c)
    descending = all(lambdas[i] >= lambdas[i + 1] for i in range(n - 1))

    basis_ok = rho <= tol_basis
    gram_ok = gram_off <= tol_gram and gram_diag <= tol_gram
    eigen_ok = tau <= tol_eigen and descending

    mu = max((abs(x) for row in m for x in row), default=Fraction(0))
    lam_abs = max(abs(x) for x in lambdas)
    lam1 = max(lambdas)
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
        grid_ok=grid_ok,
        entry_bound_ok=entry_bound_ok,
        basis_ok=basis_ok,
        gram_ok=gram_ok,
        eigen_ok=eigen_ok,
    )


def certified_quadform_bound(
    m: QMat, cert: SpectralCert, report: CertReport | None = None
) -> Fraction:
    """Certified upper bound lambdas[0]*n + slack on max_a a^T M a.

    Requires a fully passing report (recomputed here when not supplied);
    raises CertificationError otherwise.

    Soundness sketch, all quantities exact: write E~ = V^T V = I + R with
    rho = max|R|, t_i = M v_i - lambda_i v_i with tau = max|t_i|, and for
    a sign vector a put a~ = E~ a = a + Ra and c_j = <v_j, a>.  Then
    a^T M a = a~^T M a~ - 2 a~^T M(Ra) + (Ra)^T M (Ra), and since
    a~ = sum_j c_j v_j exactly,
    a~^T M a~ = sum_{j,k} lambda_k c_j c_k <v_j,v_k> + a~^T sum_j c_j t_j.
    With S = sum_j c_j^2 = a^T E~ a in [n - n^2 rho, n + n^2 rho],
    sum_j lambda_j c_j^2 <= lambdas[0] * S, |c_j| <= 2n, and the Gram
    deviations bounding the cross terms, every remainder collapses into
    the slack below.
    """
    if report is None:
        report = certify_eigvalbound(m, cert)
    if not report.passed:
        raise CertificationError(report)
    return cert.lambdas[0] * cert.n + report.slack
