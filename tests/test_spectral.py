from dataclasses import fields, replace
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fkocert import (
    Clause,
    Cnf,
    CertificationError,
    SpectralCert,
    SpectralPrecisionError,
    approx_eigen,
    build_m,
    certified_quadform_bound,
    certify_eigvalbound,
    gen_random_3cnf,
)
from fkocert.cnf import all_assignments, count_nae, to_signs
from fkocert.exactq import inner_prod, is_grid_multiple, mat, quadratic_form, vec
from fkocert.oracle import max_quadform
from fkocert.spectral import CertReport
from conftest import planted_block
from test_acceptance import (
    _honest_cert,
    _ladder_formulas,
    _lemma_chain_formulas,
    _soundness_formulas,
)

F = Fraction
HALF = F(1, 2)


def test_build_m_single_clause_mixed():
    cnf = Cnf(3, (Clause((1, 2, 3), (1, 0, 1)),))  # x1 v ~x2 v x3
    m = build_m(cnf)
    assert m[0][1] == HALF and m[1][0] == HALF
    assert m[0][2] == -HALF and m[2][0] == -HALF
    assert m[1][2] == HALF and m[2][1] == HALF
    assert all(m[i][i] == 0 for i in range(3))


def test_build_m_single_clause_all_positive():
    cnf = Cnf(3, (Clause((1, 2, 3), (1, 1, 1)),))
    m = build_m(cnf)
    for i in range(3):
        for j in range(3):
            assert m[i][j] == (0 if i == j else -HALF)


def test_build_m_block_cancels():
    m = build_m(planted_block(1))
    assert all(x == 0 for row in m for x in row)


def test_build_m_symmetric_zero_diag():
    cnf = gen_random_3cnf(9, 40, 2)
    m = build_m(cnf)
    for i in range(9):
        assert m[i][i] == 0
        for j in range(9):
            assert m[i][j] == m[j][i]


def test_quadform_counts_nae():
    # a^T M a = 4*count_nae - 3m, assignment signs a(i) = 2A(i)-1
    cnf = gen_random_3cnf(6, 22, 8)
    m = build_m(cnf)
    for a in all_assignments(6):
        signs = vec(to_signs(a))
        assert quadratic_form(signs, m) == 4 * count_nae(cnf, a) - 3 * cnf.m


def test_approx_eigen_diagonal_fixed_point():
    cert = approx_eigen(mat([[2, 0], [0, 1]]), 4)
    assert cert.lambdas == (2, 1)
    assert cert.v == ((1, 0), (0, 1))


def test_approx_eigen_exchange_matrix():
    cert = approx_eigen(mat([[0, 1], [1, 0]]), 4)
    assert cert.lambdas == (1, -1)
    # rows snap +-1/sqrt(2) onto the 1/2^8 grid
    for col in range(2):
        column = [abs(cert.v[r][col]) for r in range(2)]
        assert column == [F(181, 256), F(181, 256)]
    rep = certify_eigvalbound(mat([[0, 1], [1, 0]]), cert)
    assert rep.passed


def test_approx_eigen_zero_and_one_by_one():
    z = approx_eigen(mat([[0, 0], [0, 0]]), 5)
    assert z.lambdas == (0, 0)
    one = approx_eigen(mat([[3]]), 3)
    assert one.lambdas == (3,)
    assert one.v == ((1,),)
    # n=1 grid spacing is 1/1^(2c) = 1: off-grid entries round to integers
    snapped = approx_eigen(mat([[F(3, 4)]]), 3)
    assert snapped.lambdas == (1,)


def test_approx_eigen_rejects_bad_input():
    with pytest.raises(ValueError):
        approx_eigen(mat([[0, 1], [2, 0]]), 4)   # not symmetric
    with pytest.raises(ValueError):
        approx_eigen(mat([[0, 1]]), 4)           # not square


def test_approx_eigen_precision_failure():
    with pytest.raises(SpectralPrecisionError):
        approx_eigen(mat([[0, 1], [1, 0]]), 4, max_sweeps=0)


def test_lambdas_descending_and_grid():
    cnf = gen_random_3cnf(8, 35, 4)
    m = build_m(cnf)
    cert = approx_eigen(m, 8)
    assert list(cert.lambdas) == sorted(cert.lambdas, reverse=True)
    for lam in cert.lambdas:
        assert is_grid_multiple(lam, 8, 8)
    for row in cert.v:
        for x in row:
            assert is_grid_multiple(x, 8, 8)
            assert abs(x) <= 2


def test_certification_random_instance():
    cnf = gen_random_3cnf(6, 20, 1)
    m = build_m(cnf)
    cert = approx_eigen(m, 8)
    rep = certify_eigvalbound(m, cert)
    assert rep.passed, rep.failed_conditions()
    assert rep.slack >= 0


def test_certified_bound_dominates_brute_force():
    for seed in (0, 1, 2):
        cnf = gen_random_3cnf(10, 45, seed)
        m = build_m(cnf)
        cert = approx_eigen(m, 8)
        rep = certify_eigvalbound(m, cert)
        assert rep.passed
        u = certified_quadform_bound(m, cert, rep)
        m2 = [[int(x * 2) for x in row] for row in m]
        assert max_quadform(m2) <= u


def test_certify_rejects_tampered_eigenvalue():
    cnf = gen_random_3cnf(7, 28, 3)
    m = build_m(cnf)
    cert = approx_eigen(m, 8)
    bumped = (cert.lambdas[0] + 1,) + cert.lambdas[1:]
    forged = replace(cert, lambdas=bumped)
    rep = certify_eigvalbound(m, forged)
    assert not rep.passed
    assert "eigen" in " ".join(rep.failed_conditions())
    with pytest.raises(CertificationError):
        certified_quadform_bound(m, forged)


def test_certify_rejects_off_grid_entry():
    cnf = gen_random_3cnf(7, 28, 3)
    m = build_m(cnf)
    cert = approx_eigen(m, 8)
    rows = [list(r) for r in cert.v]
    rows[0][0] += F(1, 3)
    forged = replace(cert, v=tuple(tuple(r) for r in rows))
    rep = certify_eigvalbound(m, forged)
    assert not rep.passed
    assert not rep.grid_ok


def test_certify_rejects_oversized_entry():
    cnf = gen_random_3cnf(7, 28, 3)
    m = build_m(cnf)
    cert = approx_eigen(m, 8)
    rows = [list(r) for r in cert.v]
    rows[0][0] = F(5, 2)
    forged = replace(cert, v=tuple(tuple(r) for r in rows))
    rep = certify_eigvalbound(m, forged)
    assert not rep.passed
    assert not rep.entry_bound_ok


def test_certify_rejects_non_orthonormal_basis():
    # duplicate eigenvector column: Gram matrix far from identity
    cnf = gen_random_3cnf(6, 24, 6)
    m = build_m(cnf)
    cert = approx_eigen(m, 8)
    rows = [list(r) for r in cert.v]
    for r in rows:
        r[1] = r[0]
    forged = replace(
        cert, v=tuple(tuple(r) for r in rows),
        lambdas=(cert.lambdas[0],) * 2 + cert.lambdas[2:],
    )
    rep = certify_eigvalbound(m, forged)
    assert not rep.passed


def test_tight_constants_can_fail():
    cnf = gen_random_3cnf(6, 20, 1)
    m = build_m(cnf)
    cert = approx_eigen(m, 8)
    strict = replace(cert, k3=F(0), k4=F(0), k5=F(0))
    rep = certify_eigvalbound(m, strict)
    # rho/tau are tiny but positive on a nonzero matrix; K=0 must fail
    assert not rep.passed


def test_approx_eigen_is_deterministic():
    m = build_m(gen_random_3cnf(9, 40, 12))
    assert approx_eigen(m, 8) == approx_eigen(m, 8)


def test_planted_block_spectrum_is_zero():
    m = build_m(planted_block(2))
    cert = approx_eigen(m, 8)
    assert set(cert.lambdas) == {0}
    rep = certify_eigvalbound(m, cert)
    assert rep.passed
    assert certified_quadform_bound(m, cert, rep) == 0


def test_certify_rejects_non_square_v():
    m = build_m(gen_random_3cnf(5, 20, 1))
    cert = approx_eigen(m, 8)
    rows = [list(r) for r in cert.v]
    short = rows[:2] + [rows[2][:-1]] + rows[3:]
    long = rows[:2] + [rows[2] + [F(0)]] + rows[3:]
    for v in (short, long, rows[:-1]):
        with pytest.raises(ValueError, match="V is not n x n"):
            certify_eigvalbound(m, replace(cert, v=tuple(tuple(r) for r in v)))


# ------------------------------------------- Fraction reference certifier
# The triple loops certify_eigvalbound ran in plain Fraction arithmetic
# before its integer core; the report must agree field by field.


def _reference_gram_dev(rows):
    off = Fraction(0)
    diag = Fraction(0)
    for i, vi in enumerate(rows):
        for j in range(i, len(rows)):
            g = inner_prod(vi, rows[j])
            if i == j:
                diag = max(diag, abs(g - 1))
            else:
                off = max(off, abs(g))
    return off, diag


def reference_certify(m, cert) -> CertReport:
    n = cert.n
    v, lambdas, c = cert.v, cert.lambdas, cert.c
    grid_ok = all(is_grid_multiple(x, n, c) for x in lambdas) and all(
        is_grid_multiple(x, n, c) for row in v for x in row
    )
    entry_bound_ok = all(abs(x) <= 2 for row in v for x in row)
    rho = Fraction(0)
    for i in range(n):
        for ell in range(n):
            e = sum((v[j][i] * v[j][ell] for j in range(n)), Fraction(0))
            if i == ell:
                e -= 1
            rho = max(rho, abs(e))
    gram_off, gram_diag = _reference_gram_dev(v)
    tau = Fraction(0)
    for i in range(n):
        vi, lam = v[i], lambdas[i]
        for ell in range(n):
            resid = sum((m[ell][j] * vi[j] for j in range(n)), Fraction(0)) - lam * vi[ell]
            tau = max(tau, abs(resid))
    tol_basis = cert.k3 * Fraction(n) ** (1 - c)
    tol_gram = cert.k4 * Fraction(n) ** (1 - c)
    tol_eigen = cert.k5 * Fraction(n) ** (3 - c)
    descending = all(lambdas[i] >= lambdas[i + 1] for i in range(n - 1))
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
        rho=rho, gram_off=gram_off, gram_diag=gram_diag, tau=tau, slack=slack,
        grid_ok=grid_ok, entry_bound_ok=entry_bound_ok,
        basis_ok=rho <= tol_basis,
        gram_ok=gram_off <= tol_gram and gram_diag <= tol_gram,
        eigen_ok=tau <= tol_eigen and descending,
    )


def _assert_same_report(m, cert):
    got, want = certify_eigvalbound(m, cert), reference_certify(m, cert)
    for f in fields(CertReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b) and a == b, f.name


@st.composite
def certificates(draw):
    """A half-integer symmetric M and a rational certificate for it: the
    honest Jacobi output with some entries overwritten, or arbitrary
    data -- on- and off-grid entries, mixed denominators, |v| up to 3,
    lambdas in any order, K multipliers including 0."""
    n = draw(st.integers(1, 6))
    c = draw(st.integers(1, 3))
    upper = {(i, j): F(draw(st.integers(-6, 6)), 2)
             for i in range(n) for j in range(i, n)}
    m = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    grid = n ** (2 * c)
    entry = st.one_of(
        st.integers(-3 * grid, 3 * grid).map(lambda k: F(k, grid)),
        st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
        st.sampled_from([F(0), F(1), F(-1), F(5, 2)]),
    )
    cert = approx_eigen(m, c)
    lambdas, v = list(cert.lambdas), [list(r) for r in cert.v]
    if draw(st.booleans()):  # arbitrary data instead of the honest output
        lambdas = [draw(entry) for _ in range(n)]
        v = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        v[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(entry)
    if draw(st.booleans()):
        lambdas[draw(st.integers(0, n - 1))] = draw(entry)
    if draw(st.booleans()):
        lambdas = draw(st.permutations(lambdas))
    k = st.sampled_from([F(0), F(1, 3), F(16), F(10**6)])
    cert = SpectralCert(tuple(lambdas), tuple(tuple(r) for r in v), c,
                        draw(k), draw(k), draw(k))
    return m, cert


@settings(max_examples=300)
@given(certificates())
def test_integer_core_matches_fraction_reference(case):
    _assert_same_report(*case)


@pytest.mark.parametrize("formulas", [_soundness_formulas, _lemma_chain_formulas,
                                      _ladder_formulas])
def test_gate_certificates_match_fraction_reference(formulas):
    for item in formulas():
        _assert_same_report(*_honest_cert(item[0] if isinstance(item, tuple) else item))
