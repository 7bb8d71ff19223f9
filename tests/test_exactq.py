from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given

from fkocert.exactq import (
    gram_dev,
    grid_denominator,
    inner_prod,
    is_grid_multiple,
    mat,
    mat_vec,
    norm_inf,
    quadratic_form,
    rat,
    scale_rows,
    snap_to_grid,
    snap_up_to_grid,
    vec,
)

F = Fraction

rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=10**4
)


def test_inner_prod_values():
    assert inner_prod(vec([1, 0]), vec([0, 1])) == 0
    assert inner_prod(vec([F(1, 2), F(1, 2)]), vec([F(1, 2), F(1, 2)])) == F(1, 2)
    assert inner_prod(vec([3, -2]), vec([1, 1])) == 1


def test_inner_prod_length_mismatch():
    try:
        inner_prod(vec([1]), vec([1, 2]))
    except ValueError:
        pass
    else:
        raise AssertionError("length mismatch not reported")


def test_mat_vec_and_quadform():
    m = mat([[0, 1], [1, 0]])
    assert mat_vec(m, vec([2, 3])) == (3, 2)
    # a^T M a on the exchange matrix is 2*a1*a2
    assert quadratic_form(vec([1, 1]), m) == 2
    assert quadratic_form(vec([1, -1]), m) == -2


def test_norm_and_gram():
    assert norm_inf(vec([F(1, 3), F(-1, 2)])) == F(1, 2)
    ident = mat([[1, 0], [0, 1]])
    assert gram_dev(ident) == (0, 0)
    # rows (1,1) and (0,1): cross product 1; (1,1) has squared norm 2,
    # so the diagonal deviates by 1 as well
    assert gram_dev(mat([[1, 1], [0, 1]])) == (1, 1)
    assert gram_dev(mat([[0, 1], [1, 0]])) == (0, 0)


def test_scale_rows_per_row_lcm():
    rows = mat([[F(1, 2), F(-1, 3)], [1, 2], [F(5, 4), F(1, 6)]])
    assert scale_rows(rows) == [((3, -2), 6), ((1, 2), 1), ((15, 2), 12)]


def test_gram_dev_rejects_ragged_rows():
    try:
        gram_dev(((F(1), F(0)), (F(0),)))
    except ValueError:
        pass
    else:
        raise AssertionError("ragged rows not reported")


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4))
def test_gram_dev_matches_inner_products(rows):
    rows = mat(rows)
    off = max((abs(inner_prod(rows[i], rows[j])) for i in range(len(rows))
               for j in range(i + 1, len(rows))), default=F(0))
    diag = max(abs(inner_prod(r, r) - 1) for r in rows)
    assert gram_dev(rows) == (off, diag)


def test_grid_denominator_and_membership():
    assert grid_denominator(2, 2) == 16
    assert is_grid_multiple(F(11, 16), 2, 2)
    assert not is_grid_multiple(F(1, 3), 2, 2)
    assert is_grid_multiple(F(1, 4), 2, 2)  # coarser denominators divide in


def test_snap_examples():
    x = F(70710678, 10**8)
    g = snap_to_grid(x, 2, 2)
    assert g in (F(11, 16), F(12, 16))
    assert abs(g - x) <= F(1, 32)
    assert snap_to_grid(F(1), 7, 3) == 1
    assert snap_to_grid(F(1, 3), 10, 2) in (F(3333, 10**4), F(3334, 10**4))


def test_snap_ties_go_up():
    # 1/8 is exactly between 1/16-grid points 1/16 and 2/16... no: between
    # grid points of spacing 1/16?  1/8 = 2/16 lies on the grid; use 3/32.
    assert snap_to_grid(F(3, 32), 2, 2) == F(2, 16)


@given(rationals, st.integers(2, 9), st.integers(1, 4))
def test_snap_is_nearest(x, n, c):
    den = grid_denominator(n, c)
    g = snap_to_grid(x, n, c)
    assert is_grid_multiple(g, n, c)
    assert abs(g - x) <= F(1, 2 * den)


@given(rationals, st.integers(2, 9), st.integers(1, 4))
def test_snap_up_is_ceiling(x, n, c):
    den = grid_denominator(n, c)
    g = snap_up_to_grid(x, n, c)
    assert is_grid_multiple(g, n, c)
    assert x <= g < x + F(1, den)


@given(st.lists(rationals, min_size=1, max_size=6))
def test_quadform_matches_double_loop(entries):
    n = len(entries)
    a = vec(entries)
    rows = [[F(i * n + j + 1, 3) for j in range(n)] for i in range(n)]
    m = mat(rows)
    direct = sum(a[i] * rows[i][j] * a[j] for i in range(n) for j in range(n))
    assert quadratic_form(a, m) == direct


def test_rat_accepts_ints_and_strings():
    assert rat(3) == 3
    assert rat("7/2") == F(7, 2)
