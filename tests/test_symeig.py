import math

import numpy as np
import pytest

import fkocert.symeig as symeig
from fkocert import SpectralPrecisionError, build_m, gen_random_3cnf


def _tridiagonal_dense(d, e):
    n = len(d)
    return [[d[i] if i == j else e[min(i, j)] if abs(i - j) == 1 else 0.0
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 30])
def test_tql_diagonalises_a_tridiagonal_matrix(n):
    rng = np.random.default_rng(n)
    d = [float(x) for x in rng.normal(size=n)]
    e = [float(x) for x in rng.normal(size=n - 1)] + [0.0]
    if n > 3:
        e[2] = 0.0  # a split: two blocks
    t = np.array(_tridiagonal_dense(d, e))
    lam, z = d[:], [[float(i == j) for j in range(n)] for i in range(n)]
    symeig.tql(lam, e[:], z)
    z = np.array(z)
    assert np.allclose(sorted(lam), np.linalg.eigvalsh(t), rtol=0, atol=1e-12)
    assert np.allclose(z @ z.T, np.eye(n), rtol=0, atol=1e-12)
    assert np.allclose(z @ t, np.array(lam)[:, None] * z, rtol=0, atol=1e-12)


def test_tql_gives_up_past_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(symeig, "_QL_MAX_ITER", 1)
    d, e = [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 0.0]
    with pytest.raises(SpectralPrecisionError, match="QL did not converge"):
        symeig.tql(d, e, [[float(i == j) for j in range(4)] for i in range(4)])


def test_eigenvectors_diagonalise_a_dense_matrix():
    m = build_m(gen_random_3cnf(20, math.floor(3 * 20 ** 1.4), 2))
    a = np.array([[float(x) for x in row] for row in m])
    z = np.array(symeig.eigenvectors(a.tolist()))
    lam = np.einsum("ij,jk,ik->i", z, a, z)
    assert np.allclose(z @ z.T, np.eye(20), rtol=0, atol=1e-12)
    assert np.allclose(z @ a, lam[:, None] * z, rtol=0, atol=1e-11)


@pytest.mark.parametrize("n", [1, 2, 3, 12])
def test_tridiagonalize_is_an_orthogonal_similarity(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    a = a + a.T
    a[-1, :-1] = a[:-1, -1] = 0.0  # nothing to reflect in the last row
    d, e, qt = symeig.tridiagonalize(a.tolist())
    qt = np.array(qt)
    assert e[-1] == 0.0
    assert np.allclose(qt @ qt.T, np.eye(n), rtol=0, atol=1e-12)
    assert np.allclose(qt @ a @ qt.T, _tridiagonal_dense(d, e), rtol=0, atol=1e-12)
