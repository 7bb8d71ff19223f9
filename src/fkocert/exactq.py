"""Exact rational numbers and the verifier's integer kernels.

Vectors are tuples of Fractions, matrices are tuples of row tuples.
Certificate entries live on the grid of integer multiples of 1/n^(2c);
`snap_up_to_grid` rounds up onto that grid, and the builder snaps to it
in ints (see spectral).  The verifier checks that grid first and then
scales every entry once by the one grid denominator, so its cubic work
runs as exact integer dot products over a single known scale:
`gram_dev` takes rows of Python ints.  `support_blocks` splits a matrix
into the blocks of its nonzero pattern; a Gram matrix, of rows or of
columns, is exactly 0 between blocks, so the verifier runs `gram_dev`
on each block alone.  One union-find, `_connected`, splits both V here
and M into its components for the builder's eigensolver.  No float and
no third-party code enters any accept/reject decision.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Iterable, Sequence

QVec = Sequence[Fraction]
QMat = Sequence[Sequence[Fraction]]

__all__ = [
    "QVec",
    "QMat",
    "gram_dev",
    "support_blocks",
    "grid_denominator",
    "snap_up_to_grid",
]


def gram_dev(rows: Sequence[Sequence[int]], one: int) -> tuple[int, int]:
    """Deviation of the Gram matrix of integer rows from one * I.

    Returns (max |<w_i, w_j>| over i != j, max |<w_i, w_i> - one|); for
    rows V = W / s this is the Gram deviation of V scaled by s^2 = one.
    """
    if any(len(w) != len(rows[0]) for w in rows):
        raise ValueError("ragged matrix")
    off = diag = 0
    for i, wi in enumerate(rows):
        diag = max(diag, abs(sum(map(mul, wi, wi)) - one))
        for wj in rows[i + 1:]:
            off = max(off, abs(sum(map(mul, wi, wj))))
    return off, diag


def _connected(size: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the graph on nodes 0..size-1 with edges
    links, each ascending, ordered by least node."""
    # union-find whose roots are least nodes, so parent[i] <= i throughout
    parent = list(range(size))
    for p, q in links:
        while p != parent[p]:  # path halving: p skips to its grandparent
            parent[p] = p = parent[parent[p]]
        while q != parent[q]:
            parent[q] = q = parent[parent[q]]
        if p < q:
            parent[q] = p
        else:
            parent[p] = q
    groups: dict[int, list[int]] = {}
    for i in range(size):
        # ascending: a non-root's parent, a smaller node, points at its root
        root = parent[i] = parent[parent[i]]
        groups.setdefault(root, []).append(i)
    return list(groups.values())


def support_blocks(rows: Sequence[Sequence[int]]) -> list[tuple[list[int], list[int]]]:
    """Support blocks of an integer matrix, as (row indices, column indices).

    A block is a connected component of the bipartite graph that joins
    row i to column k whenever rows[i][k] != 0.  Rows in different blocks
    share no column, so every inner product between them is exactly 0,
    and the same holds for columns.  A row or column with no nonzero entry
    is a block of its own, with no columns or rows.  Both index lists are
    ascending.  A dense matrix is one block.
    """
    h = len(rows)
    width = len(rows[0]) if rows else 0
    # node i < h is row i, node h + k is column k
    links = ((i, k) for i, row in enumerate(rows) for k in compress(range(h, h + width), row))
    blocks = []
    for comp in _connected(h + width, links):
        cut = bisect_left(comp, h)
        blocks.append((comp[:cut], [x - h for x in comp[cut:]]))
    return blocks


def grid_denominator(n: int, c: int) -> int:
    """Common denominator n^(2c) of certificate entries."""
    if n < 1 or c < 1:
        raise ValueError("need n >= 1 and c >= 1")
    return n ** (2 * c)


def snap_up_to_grid(x, n: int, c: int) -> Fraction:
    """Least integer multiple of 1/n^(2c) that is >= x."""
    d = grid_denominator(n, c)
    scaled = Fraction(x) * d
    q, r = divmod(scaled.numerator, scaled.denominator)
    if r:
        q += 1
    return Fraction(q, d)
