import math
from collections import deque
from fractions import Fraction
from typing import Iterable

import hypothesis.strategies as st
from hypothesis import example, given

from fkocert.exactq import (
    QMat,
    QVec,
    _connected,
    gram_dev,
    grid_denominator,
    snap_up_to_grid,
    support_blocks,
)

# ------------------------------------------------ Fraction reference helpers
# Plain-Fraction vectors and matrices for the tests' reference computations.


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, entries))


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


def is_grid_multiple(x: Fraction, n: int, c: int) -> bool:
    """True iff x * n^(2c) is an integer."""
    return grid_denominator(n, c) % Fraction(x).denominator == 0


def snap_to_grid(x, n: int, c: int) -> Fraction:
    """Nearest integer multiple of 1/n^(2c) to x, ties rounding up: the
    tests' reference for the builder's int snap."""
    d = grid_denominator(n, c)
    scaled = Fraction(x) * d
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    return Fraction(q, d)


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
    assert gram_dev([[1, 0], [0, 1]], 1) == (0, 0)
    # rows (1,1) and (0,1): cross product 1; (1,1) has squared norm 2,
    # so the diagonal deviates by 1 as well
    assert gram_dev([[1, 1], [0, 1]], 1) == (1, 1)
    assert gram_dev([[0, 1], [1, 0]], 1) == (0, 0)
    # the same rows over the scale 2: V = W / 2, deviations scaled by 4
    assert gram_dev([[2, 2], [0, 2]], 4) == (4, 4)
    assert gram_dev([[2, 0], [0, 2]], 4) == (0, 0)


def test_gram_dev_rejects_ragged_rows():
    try:
        gram_dev([[1, 0], [0]], 1)
    except ValueError:
        pass
    else:
        raise AssertionError("ragged rows not reported")


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4),
       st.integers(1, 4))
def test_gram_dev_matches_inner_products(rows, extra):
    rows = mat(rows)
    off = max((abs(inner_prod(rows[i], rows[j])) for i in range(len(rows))
               for j in range(i + 1, len(rows))), default=F(0))
    diag = max(abs(inner_prod(r, r) - 1) for r in rows)
    # rows = W / s over a common denominator s, any multiple of the lcm
    s = extra * math.lcm(*[x.denominator for r in rows for x in r])
    w = [[int(x * s) for x in r] for r in rows]
    assert gram_dev(w, s * s) == (off * s * s, diag * s * s)


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
    # the grid is 1/16 at n = c = 2, and 3/32 lies midway between 1/16 and 2/16
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


def _reference_components(size, links):
    """Connected components by a breadth-first search from each unvisited
    node, in order of least node."""
    near = [set() for _ in range(size)]
    for p, q in links:
        near[p].add(q)
        near[q].add(p)
    seen, out = set(), []
    for start in range(size):
        if start in seen:
            continue
        seen.add(start)
        queue, comp = deque([start]), []
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in near[x] - seen:
                seen.add(y)
                queue.append(y)
        out.append(sorted(comp))
    return out


@given(st.integers(0, 12).flatmap(lambda size: st.tuples(
    st.just(size),
    st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=20)
    if size else st.just([]))))
@example((0, []))
@example((3, [(1, 1), (1, 1)]))
@example((5, [(4, 1), (3, 0), (1, 3)]))
def test_connected_matches_search(graph):
    # links may repeat, join a node to itself, or leave nodes isolated
    size, links = graph
    want = _reference_components(size, links)
    assert _connected(size, links) == want
    assert _connected(size, iter(links)) == want


def _reference_blocks(rows):
    """Support blocks by a search from each unvisited row and column."""
    h, w = len(rows), len(rows[0]) if rows else 0
    seen, out = set(), []
    for start in [("row", i) for i in range(h)] + [("col", k) for k in range(w)]:
        if start in seen:
            continue
        seen.add(start)
        todo, found = [start], [start]
        while todo:
            kind, x = todo.pop()
            near = ([("col", k) for k in range(w) if rows[x][k]] if kind == "row"
                    else [("row", i) for i in range(h) if rows[i][x]])
            for y in near:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
                    found.append(y)
        out.append((sorted(x for kind, x in found if kind == "row"),
                     sorted(x for kind, x in found if kind == "col")))
    return sorted(out)


def test_support_blocks_examples():
    # rows 0 and 3 share column 1; row 1 and column 2 are empty
    rows = [[0, 1, 0, 0], [0, 0, 0, 0], [2, 0, 0, -3], [0, 4, 0, 0]]
    assert sorted(support_blocks(rows)) == [([], [2]), ([0, 3], [1]), ([1], []), ([2], [0, 3])]
    # row 2 joins the blocks of rows 0 and 1
    assert support_blocks([[1, 0, 1], [0, 1, 0], [0, 1, 1]]) == [([0, 1, 2], [0, 1, 2])]
    # once one block holds every column, later rows join it unless empty
    assert sorted(support_blocks([[1, 1], [0, 0], [1, 0]])) == [([0, 2], [0, 1]), ([1], [])]
    assert support_blocks([]) == []
    assert support_blocks([[], []]) == [([0], []), ([1], [])]


@given(st.integers(1, 7).flatmap(lambda w: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -2, 10**30]), min_size=w, max_size=w),
    min_size=1, max_size=7)))
def test_support_blocks_match_search(rows):
    got = support_blocks(rows)
    assert sorted(got) == _reference_blocks(rows)
    for r, c in got:
        assert r == sorted(r) and c == sorted(c)
