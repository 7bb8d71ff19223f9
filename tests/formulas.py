"""Formula builders that need nothing beyond fkocert, so that
test_default_outputs.py also runs without pytest; conftest re-exports
them."""

from __future__ import annotations

from typing import Sequence

from fkocert import Cnf
from fkocert.cnf import POLS


def signed(vars_: Sequence[int], pols: Sequence[int]) -> tuple[int, ...]:
    """The DIMACS-signed row of the variables vars_ under the polarities
    pols, as Cnf(n, rows) takes it: signed((1, 2, 3), (1, 0, 1)) is
    (1, -2, 3)."""
    return tuple(v if p else -v for v, p in zip(vars_, pols))


def signed_rows(cnf: Cnf) -> list[tuple[int, ...]]:
    """cnf's clauses as DIMACS-signed rows: Cnf(cnf.n, signed_rows(cnf))
    == cnf."""
    return list(map(signed, zip(cnf.x, cnf.y, cnf.z), cnf.pols))


def planted_block(blocks: int) -> Cnf:
    """`blocks` disjoint variable triples, each carrying all 8 polarity
    patterns — unsatisfiable, perfectly balanced, and M = 0."""
    return Cnf(3 * blocks, [signed((3 * b + 1, 3 * b + 2, 3 * b + 3), POLS[bits])
                            for b in range(blocks) for bits in range(8)])
