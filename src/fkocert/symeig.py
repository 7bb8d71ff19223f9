"""Float eigenvectors of symmetric matrices: Householder tridiagonalisation
and implicit-shift QL with eigenvector accumulation, after EISPACK's tred2
and tql2 (Wilkinson & Reinsch, Handbook for Automatic Computation II,
1971).

spectral.approx_eigen seeds its exact-int refinement with `eigenvectors`;
`tql` diagonalises any symmetric tridiagonal matrix, a Lanczos T included.
The arithmetic is plain Python floats in a fixed order, and every float
sum is a left-to-right loop, never sum(), which CPython 3.12 made
compensated, so the results do not depend on the Python release.
"""

from __future__ import annotations

import math

__all__ = ["SpectralPrecisionError", "eigenvectors", "tql", "tridiagonalize"]

_EPS = 2.0 ** -52
# implicit-shift QL iterations tql may spend on one eigenvalue (EISPACK's 30)
_QL_MAX_ITER = 30


class SpectralPrecisionError(RuntimeError):
    """An eigensolver missed its precision target: tql spent more than
    _QL_MAX_ITER iterations on one eigenvalue, or approx_eigen's integer
    refinement did not bring its correction below n^-(2c+4) within its
    step budget."""


def tridiagonalize(a: list[list[float]]) -> tuple[list[float], list[float], list[list[float]]]:
    """Householder reduction of the symmetric float matrix a (tred2), in place.

    Returns (d, e, qt): qt is orthogonal and qt a qt^T is tridiagonal, with
    diagonal d and off-diagonal e, e[i] joining i and i + 1 and e[-1] = 0.
    Row i, from the last up, is reflected onto e[i-1] e_(i-1) by
    P = I - u u^T / h, and the leading i x i block B becomes P B P.
    """
    k = len(a)
    d, e = [0.0] * k, [0.0] * k
    reflectors = []
    for i in range(k - 1, 0, -1):
        row = a[i]
        d[i] = row[i]
        scale = 0.0
        for x in row[:i]:
            scale += abs(x)
        if i == 1 or scale == 0.0:
            e[i - 1] = row[i - 1]
            continue
        u = [x / scale for x in row[:i]]
        h = 0.0
        for x in u:
            h += x * x
        f = u[-1]
        g = -math.sqrt(h) if f > 0 else math.sqrt(h)
        e[i - 1] = scale * g
        h -= f * g
        u[-1] = f - g
        # p = B u / h by rows of the symmetric B, then q = p - (u^T p / 2h) u
        p = [0.0] * i
        for uj, rj in zip(u, a):
            p = [x + uj * y for x, y in zip(p, rj)]
        p = [x / h for x in p]
        up = 0.0
        for x, y in zip(u, p):
            up += x * y
        kk = up / (h + h)
        q = [x - kk * y for x, y in zip(p, u)]
        # B <- B - q u^T - u q^T, symmetric bit for bit
        for rj, qj, uj in zip(a, q, u):
            rj[:i] = [x - (qj * ul + uj * ql) for x, ul, ql in zip(rj, u, q)]
        reflectors.append((u, h))
    d[0] = a[0][0]
    # Q = P_(k-1) ... P_2, built from the right: before P is applied, Q is
    # the identity outside the leading block that P acts on
    qm = [[float(r == j) for j in range(k)] for r in range(k)]
    for u, h in reversed(reflectors):
        i = len(u)
        w = [0.0] * i
        for uj, rj in zip(u, qm):
            w = [x + uj * y for x, y in zip(w, rj)]
        w = [x / h for x in w]
        for rj, uj in zip(qm, u):
            rj[:i] = [x - uj * y for x, y in zip(rj, w)]
    return d, e, [list(col) for col in zip(*qm)]


def tql(d: list[float], e: list[float], z: list[list[float]]) -> None:
    """Implicit-shift QL on a symmetric tridiagonal matrix (tql2), in place.

    The matrix has diagonal d and off-diagonal e, e[i] joining i and i + 1
    and e[-1] = 0.  d becomes its eigenvalues, in no particular order, and
    each Givens rotation is applied to the rows of z: if z holds Q^T for
    T = Q^T A Q, its rows become the eigenvectors of A, row i for d[i].
    Raises SpectralPrecisionError when one eigenvalue takes more than
    _QL_MAX_ITER iterations.
    """
    n = len(d)
    f = tst1 = 0.0
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        m = l
        while abs(e[m]) > _EPS * tst1:
            m += 1
        if m > l:
            for _ in range(_QL_MAX_ITER):
                # Wilkinson shift from the leading 2 x 2 block
                g = d[l]
                p = (d[l + 1] - g) / (2.0 * e[l])
                r = math.sqrt(p * p + 1.0)
                if p < 0:
                    r = -r
                d[l] = e[l] / (p + r)
                d[l + 1] = e[l] * (p + r)
                dl1 = d[l + 1]
                h = g - d[l]
                for i in range(l + 2, n):
                    d[i] -= h
                f += h
                # chase the bulge from m up to l
                p = d[m]
                c = c2 = c3 = 1.0
                el1 = e[l + 1]
                s = s2 = 0.0
                for i in range(m - 1, l - 1, -1):
                    c3, c2, s2 = c2, c, s
                    g = c * e[i]
                    h = c * p
                    r = math.sqrt(p * p + e[i] * e[i])
                    e[i + 1] = s * r
                    s = e[i] / r
                    c = p / r
                    p = c * d[i] - s * g
                    d[i + 1] = h + s * (c * g + s * d[i])
                    zi, zj = z[i], z[i + 1]
                    z[i] = [c * x - s * y for x, y in zip(zi, zj)]
                    z[i + 1] = [s * x + c * y for x, y in zip(zi, zj)]
                p = -s * s2 * c3 * el1 * e[l] / dl1
                e[l] = s * p
                d[l] = c * p
                if abs(e[l]) <= _EPS * tst1:
                    break
            else:
                raise SpectralPrecisionError(
                    f"QL did not converge within {_QL_MAX_ITER} iterations (n={n})"
                )
        d[l] += f
        e[l] = 0.0


def eigenvectors(a: list[list[float]]) -> list[list[float]]:
    """Float eigenvector estimates of the symmetric matrix a, as rows:
    Householder tridiagonalisation, then implicit-shift QL.  Overwrites a."""
    d, e, z = tridiagonalize(a)
    tql(d, e, z)
    return z
