from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fkocert import Cnf, gen_random_3cnf
from fkocert.cnf import POLS
from fkocert.oracle import brute_force_report

# re-exported: the test modules import these from conftest
from formulas import planted_block, signed, signed_rows  # noqa: F401

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    """pytest's pythonpath setting reaches this process only: the
    interpreters that tests start import fkocert from the same tree."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"),
                  prepend=os.pathsep)
        yield


def neg_count(row: Sequence[int]) -> int:
    """The number of negated literals in a signed row."""
    return sum(lit < 0 for lit in row)


def slot_order_cnf() -> Cnf:
    """Each of the 6 slot orders of the triple {2, 5, 7} under each of
    the 8 polarity patterns: 48 clauses, n = 8."""
    return Cnf(8, [signed(trip, POLS[bits])
                   for trip in itertools.permutations((2, 5, 7)) for bits in range(8)])


def shuffled_slots(cnf: Cnf, seed: int) -> Cnf:
    """cnf with each clause's three literals moved to a random slot order,
    each variable keeping its polarity."""
    rng = random.Random(seed)
    rows = [list(row) for row in signed_rows(cnf)]
    for row in rows:
        rng.shuffle(row)
    return Cnf(cnf.n, rows)


def slot_order_formulas() -> dict[str, Cnf]:
    """Formulas whose clauses come in every slot order: the 48 of
    slot_order_cnf, and random and planted formulas with shuffled
    slots."""
    return {
        "slot orders": slot_order_cnf(),
        "random n=12": shuffled_slots(gen_random_3cnf(12, 100, 1), 1),
        "random n=28": shuffled_slots(gen_random_3cnf(28, 318, 2), 2),
        "random n=200": shuffled_slots(gen_random_3cnf(200, 4995, 3), 3),
        "planted": shuffled_slots(planted_block(4), 4),
    }


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)


@pytest.fixture
def certify_calls(monkeypatch) -> list:
    """The list of certify_eigvalbound calls made through witness.py's
    name, the one the verifier calls, or through spectral.py's."""
    import fkocert.spectral
    import fkocert.witness

    calls: list = []
    real = fkocert.spectral.certify_eigvalbound

    def counting(*args):
        calls.append(args)
        return real(*args)

    for mod in (fkocert.spectral, fkocert.witness):
        monkeypatch.setattr(mod, "certify_eigvalbound", counting)
    return calls


# ------------------------------------------ per-assignment clause counts
# An assignment is a sequence of n bits, index i-1 holding x_i; its sign
# vector is a(i) = 2*A(i) - 1.  A clause is a signed row, as signed_rows
# gives it.


def lit_true(assignment: Sequence[int], lit: int) -> bool:
    """The signed literal lit (x_i for i, ~x_i for -i) is true."""
    return assignment[abs(lit) - 1] == (lit > 0)


def true_literal_count(row: Sequence[int], assignment: Sequence[int]) -> int:
    return sum(lit_true(assignment, lit) for lit in row)


def not_sat(row: Sequence[int], assignment: Sequence[int]) -> bool:
    """All three literals false."""
    return true_literal_count(row, assignment) == 0


def is_nae(row: Sequence[int], assignment: Sequence[int]) -> bool:
    """Not-all-equal satisfied: literal values neither all true nor all false."""
    return true_literal_count(row, assignment) in (1, 2)


def is_3xor(row: Sequence[int], assignment: Sequence[int]) -> bool:
    """Odd number (1 or 3) of true literals."""
    return true_literal_count(row, assignment) % 2 == 1


def count_sat_literals(cnf: Cnf, assignment: Sequence[int]) -> int:
    return sum(true_literal_count(row, assignment) for row in signed_rows(cnf))


def count_nae(cnf: Cnf, assignment: Sequence[int]) -> int:
    return sum(1 for row in signed_rows(cnf) if is_nae(row, assignment))


def i_imbalance(cnf: Cnf, var: int) -> int:
    """|#positive occurrences of x_var - #negative occurrences|."""
    return abs(sum(1 if lit > 0 else -1
                   for row in signed_rows(cnf) for lit in row if abs(lit) == var))


def to_signs(assignment: Sequence[int]) -> tuple[int, ...]:
    return tuple(2 * b - 1 for b in assignment)


def from_signs(signs: Sequence[int]) -> tuple[int, ...]:
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("sign vector entries must be +-1")
    return tuple((s + 1) // 2 for s in signs)


def all_assignments(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n assignments; bit i-1 of the counter is the value of x_i."""
    for idx in range(1 << n):
        yield tuple((idx >> i) & 1 for i in range(n))


def brute_force_unsat(cnf: Cnf) -> bool:
    """Exhaustively decide unsatisfiability; ValueError past oracle.CAP."""
    return brute_force_report(cnf)[0]


# ------------------------------------------- per-assignment oracle counts
# Whole (m, 2^n) numpy tables: the reference for oracle.brute_force_report,
# which walks bit-sliced blocks of assignments in pure Python.


def truth_table(cnf: Cnf) -> np.ndarray:
    """(m, 2^n) uint8 matrix of per-clause true-literal counts.

    Assignment j assigns bit i-1 of j to x_i.  Only for small n.
    """
    if cnf.n > 24:
        raise ValueError("truth_table is for small n")
    idx = np.arange(1 << cnf.n, dtype=np.int64)
    rows = []
    for row in signed_rows(cnf):
        cnt = np.zeros(idx.shape, dtype=np.uint8)
        for lit in row:
            cnt += (((idx >> (abs(lit) - 1)) & 1) == (lit > 0)).astype(np.uint8)
        rows.append(cnt)
    return np.array(rows, dtype=np.uint8).reshape(cnf.m, 1 << cnf.n)


def sat_literal_counts(cnf: Cnf) -> np.ndarray:
    """Total true literals per assignment, over all 2^n assignments."""
    return truth_table(cnf).astype(np.int64).sum(axis=0)


def nae_counts(cnf: Cnf) -> np.ndarray:
    """NAE-satisfied clause count per assignment."""
    t = truth_table(cnf)
    return (((t == 1) | (t == 2)).astype(np.int64)).sum(axis=0)


def not3xor_counts(cnf: Cnf) -> np.ndarray:
    """Clauses with an even number of true literals, per assignment."""
    t = truth_table(cnf)
    return ((t % 2 == 0).astype(np.int64)).sum(axis=0)


def table_report(cnf: Cnf) -> tuple[bool, int, int]:
    """brute_force_report's triple, read off the per-assignment tables."""
    t = truth_table(cnf)
    return (not (t > 0).all(axis=0).any(), int(nae_counts(cnf).max()),
            int(not3xor_counts(cnf).min()))


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
