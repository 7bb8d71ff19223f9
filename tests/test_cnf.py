import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fkocert import Clause, Cnf, DimacsError, gen_random_3cnf, parse_dimacs, to_dimacs
from fkocert.cnf import (
    all_assignments,
    count_nae,
    count_sat_literals,
    from_signs,
    i_imbalance,
    imbalance,
    is_3xor,
    is_nae,
    lit_positions,
    not_sat,
    to_signs,
    true_literal_count,
)
from conftest import planted_block

C123 = Clause((1, 2, 3), (1, 1, 1))          # x1 v x2 v x3
C1n23 = Clause((1, 2, 3), (1, 0, 1))         # x1 v ~x2 v x3
NEG = Clause((1, 2, 3), (0, 0, 0))           # ~x1 v ~x2 v ~x3


def test_clause_validation():
    with pytest.raises(ValueError):
        Clause((1, 1, 2), (1, 1, 1))
    with pytest.raises(ValueError):
        Clause((0, 1, 2), (1, 1, 1))
    with pytest.raises(ValueError):
        Clause((1, 2, 3), (1, 2, 1))


def test_predicate_examples():
    assert not_sat(C1n23, (0, 1, 0))
    assert not not_sat(C1n23, (1, 1, 0))
    assert not not_sat(C123, (1, 1, 1))

    assert not is_nae(C123, (1, 1, 1))
    assert is_nae(C123, (1, 0, 0))
    assert not is_nae(NEG, (1, 1, 1))

    assert is_3xor(C123, (1, 0, 0))
    assert not is_3xor(C123, (1, 1, 0))
    assert is_3xor(C123, (1, 1, 1))


def test_predicates_partition_by_true_count():
    cnf = gen_random_3cnf(6, 25, 3)
    for a in all_assignments(6):
        for cl in cnf.clauses:
            k = true_literal_count(cl, a)
            assert 0 <= k <= 3
            assert is_nae(cl, a) == (k in (1, 2))
            assert is_3xor(cl, a) == (k in (1, 3))
            assert not_sat(cl, a) == (k == 0)


def test_lit_positions():
    k1 = Cnf(3, (C123,))
    assert lit_positions(k1, 1, 1) == {(0, 1)}
    assert lit_positions(k1, 1, 0) == set()
    k2 = Cnf(3, (C123, Clause((1, 2, 3), (0, 1, 1))))
    assert lit_positions(k2, 1, 0) == {(1, 1)}


def test_count_sat_literals():
    k = Cnf(3, (C123,))
    assert count_sat_literals(k, (1, 1, 1)) == 3
    assert count_sat_literals(k, (0, 0, 0)) == 0
    pair = Cnf(3, (C123, NEG))
    for a in all_assignments(3):
        assert count_sat_literals(pair, a) == 3


def test_sat_literals_partition_identity():
    cnf = gen_random_3cnf(7, 30, 9)
    for a in all_assignments(7):
        total = sum(len(lit_positions(cnf, i, a[i - 1])) for i in range(1, 8))
        assert count_sat_literals(cnf, a) == total


def test_count_nae():
    k = Cnf(3, (C123,))
    assert count_nae(k, (1, 1, 1)) == 0
    assert count_nae(k, (1, 0, 0)) == 1
    assert count_nae(planted_block(1), (1, 0, 0)) == 6


def test_imbalance():
    k = Cnf(3, (C123, Clause((1, 2, 3), (0, 1, 0))))
    assert i_imbalance(k, 2) == 2
    assert i_imbalance(k, 1) == 0
    assert imbalance(k) == 2
    assert imbalance(Cnf(4, ())) == 0
    assert i_imbalance(Cnf(4, ()), 2) == 0
    assert imbalance(Cnf(3, (C123,))) == 3
    assert imbalance(planted_block(1)) == 0


def test_signs_round_trip():
    a = (1, 0, 0, 1)
    assert to_signs(a) == (1, -1, -1, 1)
    assert from_signs(to_signs(a)) == a
    with pytest.raises(ValueError):
        from_signs((0, 1))


def test_all_assignments_bit_order():
    got = list(all_assignments(3))
    assert len(got) == 8
    assert got[0] == (0, 0, 0)
    assert got[5] == (1, 0, 1)  # 5 = 0b101, bit i-1 is x_i
    assert len(set(got)) == 8


def test_dimacs_round_trip_manual():
    text = "c a comment\np cnf 4 2\n1 -2 3 0\n-1 2 4 0\n"
    cnf = parse_dimacs(text)
    assert cnf.n == 4 and cnf.m == 2
    assert cnf.clauses[0] == Clause((1, 2, 3), (1, 0, 1))
    assert parse_dimacs(to_dimacs(cnf)) == cnf


@pytest.mark.parametrize(
    "bad",
    [
        "p cnf 3 1\n1 2 0\n",             # width 2
        "p cnf 3 1\n1 2 2 0\n",           # duplicate variable
        "p cnf 3 1\n1 2 4 0\n",           # out of range
        "p cnf 3 2\n1 2 3 0\n",           # clause count mismatch
        "1 2 3 0\n",                      # missing header
        "p cnf 3 1\n1 2 3\n",             # missing terminator
    ],
)
def test_dimacs_rejects(bad):
    with pytest.raises(DimacsError):
        parse_dimacs(bad)


@st.composite
def cnfs(draw):
    n = draw(st.integers(3, 8))
    m = draw(st.integers(0, 12))
    clauses = []
    for _ in range(m):
        trip = tuple(sorted(draw(
            st.sets(st.integers(1, n), min_size=3, max_size=3))))
        pols = tuple(draw(st.tuples(*[st.integers(0, 1)] * 3)))
        clauses.append(Clause(trip, pols))
    return Cnf(n, tuple(clauses))


@given(cnfs())
@settings(max_examples=60)
def test_dimacs_round_trip_property(cnf):
    assert parse_dimacs(to_dimacs(cnf)) == cnf


@given(cnfs())
@settings(max_examples=100)
def test_imbalance_is_sum_of_per_variable_imbalances(cnf):
    assert imbalance(cnf) == sum(i_imbalance(cnf, v) for v in range(1, cnf.n + 1))


def test_gen_deterministic_and_well_formed():
    a = gen_random_3cnf(10, 200, 42)
    b = gen_random_3cnf(10, 200, 42)
    assert a == b
    assert a.n == 10 and a.m == 200
    for cl in a.clauses:
        assert len(set(cl.vars)) == 3
        assert all(1 <= v <= 10 for v in cl.vars)
    assert gen_random_3cnf(10, 200, 43) != a


def test_gen_polarity_frequencies():
    cnf = gen_random_3cnf(10, 10_000, 7)
    counts = [0] * 8
    for cl in cnf.clauses:
        counts[cl.pols[0] * 4 + cl.pols[1] * 2 + cl.pols[2]] += 1
    for k in counts:
        assert abs(k / 10_000 - 0.125) < 0.02


def test_gen_input_validation():
    with pytest.raises(ValueError):
        gen_random_3cnf(2, 5, 0)
    with pytest.raises(ValueError):
        gen_random_3cnf(5, -1, 0)


def test_sat_literal_bound_small():
    # per-assignment literal count never beats (3m + I)/2
    for seed in range(6):
        cnf = gen_random_3cnf(6, 20, seed)
        cap = (3 * cnf.m + imbalance(cnf)) / 2
        worst = max(count_sat_literals(cnf, a) for a in all_assignments(6))
        assert worst <= cap


def test_oracle_counting_agrees_with_direct():
    from fkocert.oracle import nae_counts, not3xor_counts, sat_literal_counts

    cnf = gen_random_3cnf(6, 18, 5)
    sat = sat_literal_counts(cnf)
    nae = nae_counts(cnf)
    x3 = not3xor_counts(cnf)
    for idx, a in enumerate(all_assignments(6)):
        assert sat[idx] == count_sat_literals(cnf, a)
        assert nae[idx] == count_nae(cnf, a)
        assert x3[idx] == sum(
            1 for cl in cnf.clauses if not is_3xor(cl, a))


def test_brute_force_unsat():
    from fkocert.oracle import brute_force_unsat

    assert brute_force_unsat(planted_block(1))
    assert not brute_force_unsat(Cnf(3, (C123,)))
    assert not brute_force_unsat(Cnf(3, ()))
    with pytest.raises(ValueError):
        brute_force_unsat(gen_random_3cnf(26, 10, 0))


def test_brute_force_independent_of_chunking():
    cnf = planted_block(2)  # n=6
    from fkocert.oracle import brute_force_unsat

    assert brute_force_unsat(cnf, cap=25) == brute_force_unsat(cnf, cap=6)
