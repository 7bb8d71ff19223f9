"""Brute-force oracles over all assignments / sign vectors.

Independent second route used for soundness checks: everything here is
exact integer arithmetic (numpy int64 on counts that stay tiny), kept
deliberately separate from the Fraction-based verifier.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cnf import Clause, Cnf

__all__ = [
    "brute_force_unsat",
    "brute_force_report",
    "max_quadform",
]

_CHUNK_BITS = 20


def _var_values(idx: np.ndarray, var: int) -> np.ndarray:
    """Value of x_var over a block of assignment indices (bit var-1)."""
    return (idx >> (var - 1)) & 1


def _true_literals(idx: np.ndarray, cl: Clause) -> np.ndarray:
    """True-literal count of clause `cl` over a block of assignments."""
    cnt = np.zeros(idx.shape, dtype=np.uint8)
    for v, p in cl.literals():
        cnt += _var_values(idx, v) == p
    return cnt


def _blocks(n: int):
    """All 2^n assignment indices, 2^_CHUNK_BITS at a time."""
    total = 1 << n
    step = 1 << min(_CHUNK_BITS, n)
    for start in range(0, total, step):
        yield np.arange(start, min(start + step, total), dtype=np.int64)


def brute_force_unsat(cnf: Cnf, cap: int = 25) -> bool:
    """Exhaustively decide unsatisfiability.  Raises when n exceeds cap."""
    if cnf.n > cap:
        raise ValueError(f"n={cnf.n} exceeds brute-force cap {cap}")
    if cnf.m == 0:
        return False
    for idx in _blocks(cnf.n):
        alive = np.ones(idx.shape, dtype=bool)
        for cl in cnf.clauses:
            alive &= _true_literals(idx, cl) > 0
            if not alive.any():
                break
        if alive.any():
            return False
    return True


def brute_force_report(cnf: Cnf, cap: int = 25) -> tuple[bool, int, int]:
    """(unsat, max NAE-satisfied clauses, min clauses with an even number
    of true literals) over all assignments, in one walk.

    Works block by block, so memory stays at a few arrays of
    2^_CHUNK_BITS entries for any n up to `cap`.
    """
    if cnf.n > cap:
        raise ValueError(f"n={cnf.n} exceeds brute-force cap {cap}")
    unsat, max_nae, min_even = True, 0, cnf.m
    for idx in _blocks(cnf.n):
        sat = np.ones(idx.shape, dtype=bool)
        nae = np.zeros(idx.shape, dtype=np.int32)
        even = np.zeros(idx.shape, dtype=np.int32)
        for cl in cnf.clauses:
            true = _true_literals(idx, cl)
            sat &= true > 0
            nae += (true == 1) | (true == 2)
            even += (true & 1) == 0
        unsat = unsat and not sat.any()
        max_nae = max(max_nae, int(nae.max()))
        min_even = min(min_even, int(even.min()))
    return unsat, max_nae, min_even


def max_quadform(m2: list[list[int]]) -> Fraction:
    """max over sign vectors a in {-1,+1}^n of a^T M a, for M = m2/2.

    `m2` is the doubled matrix with integer entries (exact).  n <= 20.
    """
    n = len(m2)
    if n > 20:
        raise ValueError("max_quadform is for small n")
    mat = np.array(m2, dtype=np.int64)
    best = None
    total = 1 << n
    step = 1 << min(16, n)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.int64)
        signs = np.empty((idx.shape[0], n), dtype=np.int64)
        for i in range(n):
            signs[:, i] = 2 * ((idx >> i) & 1) - 1
        vals = np.einsum("ai,ij,aj->a", signs, mat, signs)
        blockmax = int(vals.max())
        best = blockmax if best is None else max(best, blockmax)
    return Fraction(best, 2)
