import math
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import fkocert.spectral as spectral
import fkocert.symeig as symeig
from fkocert import (
    Cnf,
    SpectralCert,
    SpectralPrecisionError,
    approx_eigen,
    build_m,
    build_witness,
    certify_eigvalbound,
    gen_random_3cnf,
    verify_witness,
)
from fkocert.cnf import POLS
from fkocert.exactq import gram_dev, grid_denominator
from fkocert.spectral import CertReport
from conftest import (
    all_assignments,
    count_nae,
    max_quadform,
    planted_block,
    signed,
    signed_rows,
    to_signs,
)
from test_acceptance import (
    _honest_cert,
    _ladder_formulas,
    _lemma_chain_formulas,
    _noisy_blocks,
    _soundness_formulas,
)
from test_exactq import inner_prod, is_grid_multiple, mat, quadratic_form, snap_to_grid, vec

F = Fraction
HALF = F(1, 2)


def test_build_m_single_clause_mixed():
    cnf = Cnf(3, [(1, -2, 3)])  # x1 v ~x2 v x3
    m = build_m(cnf)
    assert m[0][1] == HALF and m[1][0] == HALF
    assert m[0][2] == -HALF and m[2][0] == -HALF
    assert m[1][2] == HALF and m[2][1] == HALF
    assert all(m[i][i] == 0 for i in range(3))


def test_build_m_single_clause_all_positive():
    cnf = Cnf(3, [(1, 2, 3)])
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


# ------------------------------------------- Fraction reference build_m
# The accumulation build_m ran before its int core: three Fraction
# additions per clause pair.  The output must agree entry by entry.


def reference_build_m(cnf):
    n = cnf.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for row in signed_rows(cnf):
        for s in range(3):
            for t in range(s + 1, 3):
                vi, vj = abs(row[s]), abs(row[t])
                w = HALF if (row[s] > 0) != (row[t] > 0) else -HALF
                rows[vi - 1][vj - 1] += w
                rows[vj - 1][vi - 1] += w
    return tuple(tuple(row) for row in rows)


def _assert_same_m(cnf):
    got = build_m(cnf)
    assert got == reference_build_m(cnf)
    assert type(got) is tuple and all(type(row) is tuple for row in got)
    assert all(type(x) is Fraction for row in got for x in row)


@st.composite
def repeated_clause_formulas(draw):
    """n <= 10, clauses over all 8 polarity patterns, some repeated."""
    n = draw(st.integers(3, 10))
    clause = st.builds(
        lambda vs, bits: signed(vs, POLS[bits]),
        st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True),
        st.integers(0, 7),
    )
    clauses = draw(st.lists(clause, max_size=30))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=10))
    return Cnf(n, draw(st.permutations(clauses)))


@settings(max_examples=200)
@given(repeated_clause_formulas())
def test_build_m_matches_fraction_reference(cnf):
    _assert_same_m(cnf)


def test_build_m_matches_fraction_reference_on_bench_shapes():
    _assert_same_m(Cnf(0, ()))
    _assert_same_m(planted_block(3))
    for seed in range(3):
        # dense-sweep / dense-verify: n = 28, m = floor(3 n^1.4)
        _assert_same_m(gen_random_3cnf(28, math.floor(3 * 28 ** 1.4), seed))
        # planted-refute: 10 blocks of all 8 patterns plus n/6 uniform clauses
        extra = signed_rows(gen_random_3cnf(30, 5, seed))
        _assert_same_m(Cnf(30, signed_rows(planted_block(10)) + extra))


def _reference_int_matrix(m):
    m_den = math.lcm(*[Fraction(x).denominator for row in m for x in row])
    return [[int(Fraction(x) * m_den) for x in row] for row in m], m_den


@st.composite
def entry_matrices(draw):
    """Square matrices whose entries are a few shared objects, fresh
    objects equal to those, ints and fractions of mixed denominators; with
    `even`, every entry is an even half-integer, as in 2M when all of M's
    entries are integers, so the denominator is 1."""
    n = draw(st.integers(1, 6))
    even = draw(st.booleans())
    value = (st.integers(-4, 4).map(lambda k: F(2 * k, 2)) if even else
             st.fractions(min_value=-3, max_value=3, max_denominator=12))
    pool = draw(st.lists(value, min_size=1, max_size=4))
    entry = st.one_of(
        st.sampled_from(pool),  # one of the shared objects
        st.sampled_from(pool).map(lambda x: F(x.numerator, x.denominator)),  # a copy
        value,
        st.integers(-5, 5),
    )
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@given(entry_matrices())
def test_int_matrix_matches_fraction_reference(m):
    a, m_den = spectral._int_matrix(m)
    assert (a, m_den) == _reference_int_matrix(m)
    assert all(type(x) is int for row in a for x in row)


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

    # a one-vertex matrix snaps its entry and keeps the unit vector,
    # which certify with U >= x, the largest a*x*a
    for x in (F(0), F(1, 2), F(-1, 2), F(-3, 2), F(7), F(-1, 3), F(5, 7),
              F(10**30 + 1, 2)):
        for c in (1, 2, 8, 64):
            m = mat([[x]])
            cert = approx_eigen(m, c)
            assert cert == SpectralCert((snap_to_grid(x, 1, c),), ((F(1),),), c)
            rep = certify_eigvalbound(m, cert)
            assert rep.passed
            assert cert.lambdas[0] * cert.n + rep.slack >= x


def test_approx_eigen_rejects_bad_input():
    with pytest.raises(ValueError):
        approx_eigen(mat([[0, 1], [2, 0]]), 4)   # not symmetric
    with pytest.raises(ValueError):
        approx_eigen(mat([[0, 1]]), 4)           # not square


def test_approx_eigen_precision_failure(monkeypatch):
    monkeypatch.setattr(symeig, "_QL_MAX_ITER", 0)
    with pytest.raises(SpectralPrecisionError):
        approx_eigen(mat([[0, 1], [1, 0]]), 4)


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
        u = cert.lambdas[0] * cert.n + rep.slack
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
    assert rep.failed_conditions() == ["eigen"]


def test_certify_rejects_off_grid_entry():
    cnf = gen_random_3cnf(7, 28, 3)
    m = build_m(cnf)
    cert = approx_eigen(m, 8)
    rows = [list(r) for r in cert.v]
    rows[2][5] += F(1, 3)
    forged = replace(cert, v=tuple(tuple(r) for r in rows))
    with pytest.raises(ValueError, match=r"^V\[2\]\[5\] is off the 1/n\^\(2c\) grid$"):
        certify_eigvalbound(m, forged)
    lambdas = list(cert.lambdas)
    lambdas[3] += F(1, 3)
    with pytest.raises(ValueError, match=r"^lambdas\[3\] is off the"):
        certify_eigvalbound(m, replace(cert, lambdas=tuple(lambdas)))


def test_certify_rejects_oversized_entry():
    cnf = gen_random_3cnf(7, 28, 3)
    m = build_m(cnf)
    cert = approx_eigen(m, 8)
    rows = [list(r) for r in cert.v]
    rows[0][0] = F(-3)  # on the grid, as every integer is
    forged = replace(cert, v=tuple(tuple(r) for r in rows))
    with pytest.raises(ValueError, match=r"^\|V\[0\]\[0\]\| > 2$"):
        certify_eigvalbound(m, forged)


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


def test_tight_constants_can_fail(monkeypatch):
    cnf = gen_random_3cnf(6, 20, 1)
    m = build_m(cnf)
    cert = approx_eigen(m, 8)
    for name in ("k3", "k4", "k5"):
        monkeypatch.setattr(SpectralCert, name, F(0))
    rep = certify_eigvalbound(m, cert)
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
    assert cert.lambdas[0] * cert.n + rep.slack == 0


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
# before its integer core.  Where the reference finds every entry on the
# grid and every |v_ij| <= 2 the report must agree field by field; where
# it does not, certify_eigvalbound must raise ValueError instead.


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


def reference_certify(m, cert) -> tuple[CertReport, bool, bool]:
    """(report, grid_ok, entry_bound_ok), the last two the conditions
    certify_eigvalbound checks as preconditions."""
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
    report = CertReport(
        rho=rho, gram_off=gram_off, gram_diag=gram_diag, tau=tau, slack=slack,
        basis_ok=rho <= tol_basis,
        gram_ok=gram_off <= tol_gram and gram_diag <= tol_gram,
        eigen_ok=tau <= tol_eigen and descending,
    )
    return report, grid_ok, entry_bound_ok


def _assert_same_report(m, cert):
    want, grid_ok, entry_bound_ok = reference_certify(m, cert)
    if not (grid_ok and entry_bound_ok):
        with pytest.raises(ValueError):
            certify_eigvalbound(m, cert)
        return
    got = certify_eigvalbound(m, cert)
    for f in fields(CertReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b) and a == b, f.name


@st.composite
def certificates(draw):
    """A half-integer symmetric M and a rational certificate for it: the
    honest approx_eigen output with some entries overwritten, or arbitrary
    data -- on- and off-grid entries, mixed denominators, |v| up to 3,
    lambdas in any order -- plus K multipliers, including 0, to set on
    SpectralCert while the two are compared."""
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
    cert = SpectralCert(tuple(lambdas), tuple(tuple(r) for r in v), c)
    return m, cert, {"k3": draw(k), "k4": draw(k), "k5": draw(k)}


@settings(max_examples=300)
@given(certificates())
def test_integer_core_matches_fraction_reference(case):
    m, cert, ks = case
    with pytest.MonkeyPatch.context() as mp:
        for name, k in ks.items():
            mp.setattr(SpectralCert, name, k)
        _assert_same_report(m, cert)


@pytest.mark.parametrize("formulas", [_soundness_formulas, _lemma_chain_formulas,
                                      _ladder_formulas])
def test_gate_certificates_match_fraction_reference(formulas):
    for cnf in formulas():
        _assert_same_report(*_honest_cert(cnf))


# ------------------------------------------ certification by support blocks
# certify_eigvalbound forms its products within each support block of V.
# Honest certificates of block-diagonal M have many blocks; entries added
# across blocks join them, and empty rows and columns are blocks of their
# own.  Every report must still be the reference's.


@st.composite
def block_certificates(draw):
    """A block-diagonal half-integer M with its variables permuted, and
    its honest certificate with V's rows permuted, then one edit: none,
    on-grid entries added where V is 0, a zeroed row, a zeroed column, an
    all-zero V, or one entry moved off the grid or past 2."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = sum(sizes)
    c = draw(st.integers(1, 2))
    half = [[F(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(i, start + size):
                half[i][j] = half[j][i] = F(draw(st.integers(-4, 4)), 2)
        start += size
    perm = draw(st.permutations(range(n)))
    m = tuple(tuple(half[p][q] for q in perm) for p in perm)
    cert = approx_eigen(m, c)
    order = draw(st.permutations(range(n)))
    lambdas = [cert.lambdas[i] for i in order]
    v = [list(cert.v[i]) for i in order]
    grid = n ** (2 * c)
    i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    edit = draw(st.sampled_from(["none", "join", "zero-row", "zero-col", "zero",
                                 "off-grid", "big"]))
    if edit == "join":
        zeros = [(r, q) for r in range(n) for q in range(n) if not v[r][q]]
        for r, q in draw(st.lists(st.sampled_from(zeros), max_size=3)) if zeros else ():
            v[r][q] = F(draw(st.sampled_from([-3, -1, 1, 2])), grid)
    elif edit == "zero-row":
        v[i] = [F(0)] * n
    elif edit == "zero-col":
        for row in v:
            row[k] = F(0)
    elif edit == "zero":
        v = [[F(0)] * n for _ in range(n)]
    elif edit == "off-grid":
        v[i][k] += F(1, 3 * grid + 1)
    elif edit == "big":
        v[i][k] = draw(st.sampled_from([F(3), F(-5, 2), F(2 * grid + 1, grid)]))
    return m, SpectralCert(tuple(lambdas), tuple(tuple(r) for r in v), c)


@settings(max_examples=300, deadline=None)
@given(block_certificates())
def test_block_certificates_match_fraction_reference(case):
    m, cert = case
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "gram_dev", lambda *args: calls.append(args) or gram_dev(*args))
        _assert_same_report(m, cert)
    _, grid_ok, entry_bound_ok = reference_certify(m, cert)
    if not (grid_ok and entry_bound_ok):
        assert calls == []  # raised before any product


def test_planted_certification_works_within_blocks(monkeypatch):
    # 40 planted blocks plus 20 random clauses: V splits into many small
    # support blocks, so the Gram work is far below the dense n^2 (n + 1)
    cnf = _noisy_blocks(40, 20, 1)
    n = cnf.n
    cert = build_witness(cnf).cert
    work = []

    def counted(rows, one):
        work.append(len(rows) ** 2 * len(rows[0]) if rows else 0)
        return gram_dev(rows, one)

    monkeypatch.setattr(spectral, "gram_dev", counted)
    assert certify_eigvalbound(build_m(cnf), cert).passed
    assert len(work) > 2
    assert sum(work) < n * n * (n + 1) / 10


@settings(max_examples=100)
@given(st.data())
def test_one_entry_blocks_match_fraction_reference(data):
    # V is a scaled signed permutation, so every support block is one row
    # and one column; M has a diagonal and off-diagonal entries, so each
    # block's residual reads its column's M-neighbours.  The closed forms
    # must give the reference's report without any Gram product.
    n = data.draw(st.integers(1, 5))
    c = data.draw(st.integers(1, 2))
    grid = n ** (2 * c)
    upper = {(i, j): F(data.draw(st.integers(-3, 3)), data.draw(st.sampled_from([1, 2, 3])))
             for i in range(n) for j in range(i, n)}
    m = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    perm = data.draw(st.permutations(range(n)))
    on_grid = st.integers(-2 * grid, 2 * grid).filter(bool).map(lambda k: F(k, grid))
    v = tuple(tuple(data.draw(on_grid) if k == perm[i] else F(0) for k in range(n))
              for i in range(n))
    near = st.one_of(on_grid, st.sampled_from([m[k][k] for k in perm]))
    lambdas = tuple(data.draw(near) for _ in range(n))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "gram_dev", lambda *args: calls.append(args) or gram_dev(*args))
        _assert_same_report(m, SpectralCert(lambdas, v, c))
    assert calls == []


# ------------------------------------------ fixed-point Jacobi reference
# A cyclic Jacobi on ints at the 2^F scale, independent of approx_eigen's
# float seed and refinement.  On matrices with well-separated eigenvalues
# both snap to the same grid certificate once each row's sign is fixed as
# approx_eigen fixes it (see first_nonzero_positive).


def first_nonzero_positive(cert: SpectralCert) -> SpectralCert:
    """cert with every V row whose first nonzero entry is negative negated."""
    rows = tuple(tuple(-x for x in row) if next(filter(None, row), 0) < 0 else row
                 for row in cert.v)
    return replace(cert, v=rows)


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


def reference_approx_eigen(m, c, max_sweeps=64) -> SpectralCert:
    n = len(m)
    if n == 1:
        return SpectralCert((snap_to_grid(m[0][0], 1, c),), ((Fraction(1),),), c)
    f_bits = (2 * c + 4) * max(1, math.ceil(math.log2(n))) + 64
    one = 1 << f_bits
    a = [
        [_round_div(m[i][j].numerator * one, m[i][j].denominator) for j in range(n)]
        for i in range(n)
    ]
    jmat = [[one if i == j else 0 for j in range(n)] for i in range(n)]
    thresh = one // n ** (2 * c + 4)
    thresh2 = thresh * thresh
    skip2 = thresh2 // (n * n)
    for _ in range(max_sweeps):
        off2 = 0
        for p in range(n):
            for q in range(p + 1, n):
                off2 += a[p][q] * a[p][q]
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
        raise SpectralPrecisionError("no convergence")
    order = sorted(range(n), key=lambda i: (-a[i][i], i))
    lambdas = tuple(snap_to_grid(Fraction(a[i][i], one), n, c) for i in order)
    rows = tuple(
        tuple(snap_to_grid(Fraction(jmat[r][col], one), n, c) for r in range(n))
        for col in order
    )
    return SpectralCert(lambdas, rows, c)


@pytest.mark.parametrize("n", [4, 5, 8, 12, 20, 28])
def test_approx_eigen_matches_fixed_point_reference(n):
    m_clauses = math.floor(3 * n ** 1.4)
    for seed in range(6):
        m = build_m(gen_random_3cnf(n, m_clauses, seed))
        assert approx_eigen(m, 8) == first_nonzero_positive(reference_approx_eigen(m, 8)), seed


def _assert_certifies(m, c=8):
    cert = approx_eigen(m, c)
    rep = certify_eigvalbound(m, cert)
    assert rep.passed, rep.failed_conditions()
    return cert


def _block_diagonal(block, copies):
    k = len(block)
    n = k * copies
    return tuple(
        tuple(block[i % k][j % k] if i // k == j // k else F(0) for j in range(n))
        for i in range(n)
    )


def test_approx_eigen_certifies_degenerate_spectra():
    _assert_certifies(mat([[0] * 6 for _ in range(6)]))            # zero matrix
    _assert_certifies(mat([[0, 1], [1, 0]]))                        # exchange
    ones = _assert_certifies(mat([[1] * 7 for _ in range(7)]))      # rank one
    assert ones.lambdas == (7,) + (0,) * 6
    clause_m = build_m(Cnf(3, [(1, -2, 3)]))
    copies = _assert_certifies(_block_diagonal(clause_m, 4))        # repeated
    assert len(set(copies.lambdas)) == 2


def test_approx_eigen_certifies_noisy_planted_block():
    # three blocks whose M cancels plus three clauses across them: M has a
    # large exact zero eigenspace
    extra = [(1, -4, 7), (-2, -5, 8), (7, 8, -9)]
    base = planted_block(3)
    cnf = Cnf(base.n, signed_rows(base) + extra)
    m = build_m(cnf)
    cert = _assert_certifies(m)
    assert cert.lambdas.count(0) >= 2


# ----------------------------------- whole-matrix float seed reference
# approx_eigen without its split into connected components: one float
# seed over the whole matrix, then one refinement of all n rows.  On a
# single-component matrix both run the same computation.


def whole_matrix_approx_eigen(m, c) -> SpectralCert:
    n = len(m)
    a, m_den = spectral._int_matrix(m)
    seed = symeig.eigenvectors([[x / m_den for x in row] for row in a])
    f_bits = (2 * c + 4) * max(1, math.ceil(math.log2(n))) + 64
    thresh = (1 << f_bits) // n ** (2 * c + 4)
    steps = 2 + f_bits // 40
    grid = grid_denominator(n, c)
    one = 1 << f_bits
    xs = [[spectral._to_fixed(x, f_bits) for x in row] for row in seed]
    quotients = spectral._refine(a, m_den, xs, f_bits, thresh, steps)
    keys = [spectral._snap(h, d, grid, f_bits, thresh) for h, d in quotients]
    vecs = [tuple(F(spectral._snap(xk, one, grid, f_bits, thresh) if xk >= 0
                    else -spectral._snap(-xk, one, grid, f_bits, thresh), grid) for xk in x)
            for x in xs]
    order = sorted(range(n), key=lambda i: (-keys[i], i))
    return first_nonzero_positive(SpectralCert(
        tuple(F(keys[i], grid) for i in order), tuple(vecs[i] for i in order), c))


def _union_find_components(a):
    """Components of a's nonzero pattern by a union-find over its upper
    triangle, linking each root to the other's: the reference for
    spectral._components."""
    n = len(a)
    comp = list(range(n))

    def root(i):
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    for p in range(n):
        for q in range(p + 1, n):
            if a[p][q]:
                comp[root(p)] = root(q)
    groups = {}
    for i in range(n):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


@st.composite
def symmetric_patterns(draw):
    """Symmetric int matrices with any diagonal; with `sides`, an entry is
    nonzero only between nodes on different sides, so every component is
    bipartite."""
    n = draw(st.integers(1, 10))
    sides = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    a = [[0] * n for _ in range(n)]
    for p in range(n):
        a[p][p] = draw(st.integers(-2, 2))
        for q in range(p + 1, n):
            if sides is None or sides[p] != sides[q]:
                a[p][q] = a[q][p] = draw(st.sampled_from([0, 0, 1, -1, 3]))
    return a


@given(symmetric_patterns())
def test_components_match_union_find(a):
    assert spectral._components(a) == _union_find_components(a)


def _component_count(m) -> int:
    return len(spectral._components(spectral._int_matrix(m)[0]))


@pytest.mark.parametrize("n", [4, 6, 9, 12, 16, 20, 24, 28])
def test_single_component_matches_whole_matrix_seed(n):
    for seed in range(3):
        m = build_m(gen_random_3cnf(n, math.floor(3 * n ** 1.4), seed))
        assert _component_count(m) == 1
        assert approx_eigen(m, 8) == whole_matrix_approx_eigen(m, 8), seed


def _multi_component_matrices():
    for seed in range(6):  # the planted-refute shape: n = 30, n // 6 extra
        yield build_m(_noisy_blocks(10, 5, seed))
    clause_m = build_m(Cnf(3, [(1, -2, 3)]))
    for copies in (2, 5, 9):
        yield _block_diagonal(clause_m, copies)


def test_multi_component_matches_whole_matrix_seed_lambdas():
    for m in _multi_component_matrices():
        assert _component_count(m) > 1
        cert = _assert_certifies(m)
        assert cert.lambdas == whole_matrix_approx_eigen(m, 8).lambdas


def test_seed_runs_once_per_component(monkeypatch):
    orders = []
    seed = symeig.eigenvectors

    def counted(a):
        orders.append(len(a))
        return seed(a)

    monkeypatch.setattr(spectral, "eigenvectors", counted)
    for m in [*_multi_component_matrices(), build_m(gen_random_3cnf(12, 60, 0))]:
        orders.clear()
        approx_eigen(m, 8)
        comps = spectral._components(spectral._int_matrix(m)[0])
        # a one-vertex component is an exact eigenpair and gets no seed
        assert orders == [len(comp) for comp in comps if len(comp) > 1]


def test_isolated_vertices_get_exact_eigenpairs():
    # vertices 0, 3, 4 and 5 are isolated, with diagonals 1/3, 0, -5/2 and
    # 7; vertices 1 and 2 form one component.  The grid 6^(2c) holds
    # every diagonal exactly.
    n = 6
    rows = [[F(0)] * n for _ in range(n)]
    for i, x in [(0, F(1, 3)), (1, F(1)), (4, F(-5, 2)), (5, F(7))]:
        rows[i][i] = x
    rows[1][2] = rows[2][1] = HALF
    m = tuple(map(tuple, rows))
    for c in (1, 8):
        cert = approx_eigen(m, c)
        for i in (0, 3, 4, 5):
            e_i = tuple(F(int(k == i)) for k in range(n))
            assert cert.lambdas[cert.v.index(e_i)] == m[i][i]
        assert certify_eigvalbound(m, cert).passed

    # the refinement the shortcut skips returns the same pair
    a, m_den = spectral._int_matrix(m)
    c = 8
    f_bits = (2 * c + 4) * math.ceil(math.log2(n)) + 64
    thresh = (1 << f_bits) // n ** (2 * c + 4)
    for i in (0, 3, 4, 5):
        xs = [[1 << f_bits]]
        [(h, d)] = spectral._refine([[a[i][i]]], m_den, xs, f_bits, thresh, 4)
        assert F(h, d) == F(a[i][i], m_den)
        assert xs == [[1 << f_bits]]


def test_eigenvalue_on_a_grid_midpoint_snaps_up():
    # five copies of one clause's M, each with eigenvalues 1/2, 1/2 and -1.
    # The grid G = 15^16 is odd, so 1/2 is the midpoint of (G - 1)/2 / G
    # and (G + 1)/2 / G, and a refined quotient lands a hair to one side
    m = _block_diagonal(build_m(Cnf(3, [(1, -2, 3)])), 5)
    cert = _assert_certifies(m)
    assert 15 ** 16 == 2 * 3284204177856445312 + 1
    assert cert.lambdas == (F(3284204177856445313, 15 ** 16),) * 10 + (F(-1),) * 5


def _k4_and_isolated_vertex():
    """n = 5: a K4 component with entries 1/2, and vertex 4 isolated.  Its
    top eigenpair is 3/2 and (1/2, 1/2, 1/2, 1/2, 0), and 1/2 lies on a
    midpoint of the odd grid G = 5^16."""
    return tuple(tuple(HALF if i != j and max(i, j) < 4 else F(0) for j in range(5))
                 for i in range(5))


def test_v_entries_on_a_grid_midpoint_snap_alike():
    cert = _assert_certifies(_k4_and_isolated_vertex())
    assert 5 ** 16 == 2 * 76293945312 + 1
    assert cert.lambdas[0] == F(228881835938, 5 ** 16)  # 3/2, a midpoint too
    assert cert.v[0] == (F(76293945313, 5 ** 16),) * 4 + (0,)


def test_snap_does_not_follow_seed_noise(monkeypatch):
    # the refinement leaves each value within its precision, but where in
    # that window follows the seed; no snap may
    m = _k4_and_isolated_vertex()
    cert = approx_eigen(m, 8)
    seed = symeig.eigenvectors
    for k in range(1, 21):
        def noisy(a, k=k):
            return [[x + (-1) ** (i + j) * k * 1e-13 for j, x in enumerate(row)]
                    for i, row in enumerate(seed(a))]

        monkeypatch.setattr(spectral, "eigenvectors", noisy)
        perturbed = approx_eigen(m, 8)
        assert perturbed.lambdas == cert.lambdas, k
        assert perturbed.v[0] == cert.v[0], k  # the simple eigenvalue's row


# n = 9 planted formulas: rng = random.Random(seed), then planted_clauses(rng,
# rng.randrange(1, 4), rng.randrange(0, 4)) from perfbench/workloads.py
_PLANTED_9 = {
    103: [(2, -4, 5), (-3, -7, 8), (-2, 4, -6), (1, -6, -9), (-1, 6, -9), (1, -6, 9),
          (-2, -4, 5), (-2, 4, -5), (2, 4, 5), (-2, -4, -5), (2, -4, -5), (3, -7, -8),
          (-1, 6, 9), (-2, 4, 5), (3, 7, 8), (1, 6, -9), (3, -7, 8), (-2, -8, -9),
          (-1, -6, 9), (-1, -6, -9), (1, 6, 9), (-3, -7, -8), (-3, 7, 8), (3, 7, -8),
          (-2, -7, 9), (-3, 7, -8), (2, 4, -5)],
    105: [(-4, -8, 9), (4, 8, 9), (5, 6, 7), (-1, -2, -3), (7, 8, -9), (-1, 2, -3),
          (1, -2, -3), (5, -6, -7), (1, 2, 3), (-4, 8, -9), (4, -8, -9), (1, 2, -3),
          (4, -8, 9), (5, 6, -7), (5, -6, 7), (1, 3, -9), (-5, 6, 7), (-1, 2, 3),
          (-5, 6, -7), (-1, -2, 3), (-5, -6, -7), (-4, -8, -9), (-5, -6, 7),
          (-4, 8, 9), (1, -2, 3), (4, 8, -9)],
}


@pytest.mark.parametrize("seed", sorted(_PLANTED_9))
def test_planted_half_entries_snap_by_magnitude(seed):
    # each witness has four V entries of magnitude 1/2, on a midpoint of
    # the odd grid G = 9^16, two of each sign: all four snap away from 0
    cnf = Cnf(9, _PLANTED_9[seed])
    wit = build_witness(cnf)
    assert 9 ** 16 == 2 * 926510094425920 + 1
    near = [x for row in wit.cert.v for x in row if abs(abs(x) - HALF) < F(1, 10**6)]
    assert sorted(near) == [F(-926510094425921, 9 ** 16)] * 2 + [F(926510094425921, 9 ** 16)] * 2
    assert verify_witness(cnf, wit).accepted


def test_snap_rounds_up_within_the_refinement_precision():
    # grid 10 and precision thresh / 2^f_bits = 1/1024: quotients h / 10240
    # sit at h / 1024 grid units, and h is within the precision of a
    # midpoint (2k + 1) * 512 when it is at most 10 below it
    f_bits, grid, d = 10, 10, 10240
    cases = [(512, 1, 1), (511, 1, 0), (502, 1, 0), (501, 0, 0), (0, 0, 0),
             (1537, 2, 2), (1536, 2, 2), (1526, 2, 1), (1525, 1, 1),
             (-512, 0, 0), (-513, 0, -1), (-522, 0, -1), (-523, -1, -1)]
    assert [spectral._snap(h, d, grid, f_bits, 1) for h, _, _ in cases] == [k for _, k, _ in cases]
    # with no precision to spare only an exact tie rounds up, as snap_to_grid does
    exact = [k for _, _, k in cases]
    assert [spectral._snap(h, d, grid, f_bits, 0) for h, _, _ in cases] == exact
    assert [math.floor(F(h * grid, d) + HALF) for h, _, _ in cases] == exact


def _sign_cases():
    for n in (4, 12, 28):
        yield build_m(gen_random_3cnf(n, math.floor(3 * n ** 1.4), 1))
    yield from _multi_component_matrices()
    yield build_m(planted_block(2))
    yield mat([[0, 1], [1, 0]])
    yield mat([[0, -1], [-1, 0]])


def test_every_v_row_starts_with_a_positive_entry():
    for m in _sign_cases():
        cert = approx_eigen(m, 8)
        assert all(next(filter(None, row)) > 0 for row in cert.v)


def test_approx_eigen_sums_no_floats(monkeypatch):
    # CPython 3.12 made float sum() compensated, so a float sum() would
    # make the certificate depend on the Python release
    summed = []

    def int_sum(items, start=0):
        items = list(items)
        summed.extend(map(type, items))
        return sum(items, start)

    for module in (spectral, symeig):
        monkeypatch.setattr(module, "sum", int_sum, raising=False)
    for m in _sign_cases():
        approx_eigen(m, 8)
    assert summed and set(summed) == {int}


@st.composite
def half_integer_symmetric(draw):
    n = draw(st.integers(1, 8))
    upper = {(i, j): F(draw(st.integers(-4, 4)), 2)
             for i in range(n) for j in range(i, n)}
    return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))


@settings(max_examples=200)
@given(half_integer_symmetric(), st.integers(1, 8))
def test_approx_eigen_certifies_half_integer_matrices(m, c):
    _assert_certifies(m, c)


def test_approx_eigen_certifies_dense_n60():
    n = 60
    m = build_m(gen_random_3cnf(n, math.floor(3 * n ** 1.4), 1))
    _assert_certifies(m)


def test_builder_never_imports_numpy():
    code = (
        "import math, sys\n"
        "from fkocert import build_witness, gen_random_3cnf\n"
        "build_witness(gen_random_3cnf(28, math.floor(3 * 28 ** 1.4), 0))\n"
        "assert 'numpy' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


# ------------------------------- the slack bound, for arbitrary certificates


@st.composite
def on_grid_certs(draw):
    """The M of a formula with n <= 6 and an arbitrary on-grid certificate
    (sorted lambdas, |v| <= 2), in one of three forms: drawn outright; an
    honest certificate with every entry moved a few grid steps and the
    lambdas lowered by up to 2, so that lambdas[0]*n can fall below the
    maximum and the residual tau must make up for it; or an honest one
    whose top eigenpair is dropped for a zero row, which only the basis
    and Gram deviations can make up for."""
    n = draw(st.integers(3, 6))
    m = build_m(gen_random_3cnf(n, draw(st.integers(1, 3 * n)), draw(st.integers(0, 999))))
    c = draw(st.integers(1, 3))
    d = n ** (2 * c)
    form = draw(st.sampled_from(["drawn", "moved", "dropped"]))
    if form == "drawn":
        lams = draw(st.lists(st.integers(-4 * n * d, 4 * n * d), min_size=n, max_size=n))
        v = [draw(st.lists(st.integers(-2 * d, 2 * d), min_size=n, max_size=n))
             for _ in range(n)]
    else:
        honest = approx_eigen(m, c)
        lams = [int(x * d) for x in honest.lambdas]
        v = [[int(x * d) for x in row] for row in honest.v]
        if form == "moved":
            lams = [x - draw(st.integers(-3, 2 * d)) for x in lams]
            v = [[max(-2 * d, min(2 * d, x + draw(st.integers(-3, 3)))) for x in row]
                 for row in v]
        else:
            lams = lams[1:] + [lams[-1] - draw(st.integers(0, d))]
            v = v[1:] + [[0] * n]
    pairs = sorted(zip(lams, v), key=lambda pair: -pair[0])
    return m, SpectralCert(tuple(F(x, d) for x, _ in pairs),
                           tuple(tuple(F(x, d) for x in row) for _, row in pairs), c)


@settings(max_examples=300, deadline=None)
@given(on_grid_certs())
def test_slack_bound_holds_for_arbitrary_certificates(case):
    m, cert = case
    rep = certify_eigvalbound(m, cert)  # raises unless on-grid with |v| <= 2
    m2 = [[int(x * 2) for x in row] for row in m]
    assert cert.lambdas[0] * cert.n + rep.slack >= max_quadform(m2)


def test_slack_bound_needs_descending_lambdas():
    # the module docstring's counterexample: every residual is exact, so
    # slack is 0, but lambdas are ascending and lambdas[0]*n = 0 < max = 1
    m = (F(1), F(0)), (F(0), F(0))
    cert = SpectralCert((F(0), F(1)), ((F(0), F(1)), (F(1), F(0))), 1)
    rep = certify_eigvalbound(m, cert)
    assert rep.slack == 0 and rep.rho == rep.tau == rep.gram_off == rep.gram_diag == 0
    assert cert.lambdas[0] * cert.n + rep.slack == 0
    assert max_quadform([[2, 0], [0, 0]]) == 1
    assert rep.failed_conditions() == ["eigen"]
