import copy
import dataclasses
import hashlib
import itertools
import pickle
import random
import re
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import fkocert.oracle as oracle
from fkocert import Cnf, DimacsError, gen_random_3cnf, parse_dimacs, to_dimacs
from fkocert.cnf import POLS, Clause, _parse_clean, check_gen_params, imbalance
from conftest import (
    all_assignments,
    brute_force_unsat,
    count_nae,
    count_sat_literals,
    from_signs,
    i_imbalance,
    is_3xor,
    is_nae,
    not_sat,
    to_signs,
    true_literal_count,
    nae_counts,
    not3xor_counts,
    planted_block,
    sat_literal_counts,
    shuffled_slots,
    signed,
    signed_rows,
    slot_order_cnf,
    slot_order_formulas,
    table_report,
)


def lit_positions(cnf, var, pol):
    """All (clause index, slot) positions holding the literal x_var^pol.

    Slots are 1-based.
    """
    lit = var if pol else -var
    return {(k, slot) for k, row in enumerate(signed_rows(cnf))
            for slot, got in enumerate(row, start=1) if got == lit}


# x1 v x2 v x3, x1 v ~x2 v x3 and ~x1 v ~x2 v ~x3
C123, C1n23, NEG = (1, 2, 3), (1, -2, 3), (-1, -2, -3)


def test_clause_validation():
    """Cnf(n, rows) refuses each row that parse_dimacs refuses, with a
    ValueError naming the clause's index and the row as given."""
    for bad in [(1, 2),          # width 2
                (1, 2, 3, 4),    # width 4
                (),              # width 0
                (1, 0, 2),       # a 0 literal
                (1, -1, 2),      # a repeated variable, opposite signs
                (2, 3, 2),       # a repeated variable, first and last slot
                (1, 2, 5),       # a variable above n
                (-5, 2, 3)]:     # a negative literal above n
        with pytest.raises(ValueError, match=rf"^clause 1 {re.escape(repr(bad))}: want three"):
            Cnf(4, [(1, 2, -3), bad])
        with pytest.raises(DimacsError):
            parse_dimacs(f"p cnf 4 2\n1 2 -3 0\n{' '.join(map(str, bad))} 0\n")
    for n, rows in [(-1, ()), (-1, [(1, 2, 3)]), (-4, [(1, 2, 3)])]:
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            Cnf(n, rows)
    # n and the literals go through operator.index; a Clause is no row
    for n, rows in [(4.0, ()), (4, [(1, 2.0, 3)]), (4, ["123"]), (3, Cnf(3, [C123]).clauses)]:
        with pytest.raises(TypeError):
            Cnf(n, rows)
    assert Cnf(_Eight(), [(_Eight(), -1, 2)]) == Cnf(8, [(8, -1, 2)])


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
        for row in signed_rows(cnf):
            k = true_literal_count(row, a)
            assert 0 <= k <= 3
            assert is_nae(row, a) == (k in (1, 2))
            assert is_3xor(row, a) == (k in (1, 3))
            assert not_sat(row, a) == (k == 0)


def test_lit_positions():
    k1 = Cnf(3, [(1, 2, 3)])
    assert lit_positions(k1, 1, 1) == {(0, 1)}
    assert lit_positions(k1, 1, 0) == set()
    k2 = Cnf(3, [(1, 2, 3), (-1, 2, 3)])
    assert lit_positions(k2, 1, 0) == {(1, 1)}


def test_count_sat_literals():
    k = Cnf(3, [(1, 2, 3)])
    assert count_sat_literals(k, (1, 1, 1)) == 3
    assert count_sat_literals(k, (0, 0, 0)) == 0
    pair = Cnf(3, [(1, 2, 3), (-1, -2, -3)])
    for a in all_assignments(3):
        assert count_sat_literals(pair, a) == 3


def test_sat_literals_partition_identity():
    cnf = gen_random_3cnf(7, 30, 9)
    for a in all_assignments(7):
        total = sum(len(lit_positions(cnf, i, a[i - 1])) for i in range(1, 8))
        assert count_sat_literals(cnf, a) == total


def test_count_nae():
    k = Cnf(3, [(1, 2, 3)])
    assert count_nae(k, (1, 1, 1)) == 0
    assert count_nae(k, (1, 0, 0)) == 1
    assert count_nae(planted_block(1), (1, 0, 0)) == 6


def test_imbalance():
    k = Cnf(3, [(1, 2, 3), (-1, 2, -3)])
    assert i_imbalance(k, 2) == 2
    assert i_imbalance(k, 1) == 0
    assert imbalance(k) == 2
    assert imbalance(Cnf(4, ())) == 0
    assert i_imbalance(Cnf(4, ()), 2) == 0
    assert imbalance(Cnf(3, [(1, 2, 3)])) == 3
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
    assert cnf.clauses[0] == Cnf(3, [C1n23]).clauses[0]
    assert signed_rows(cnf) == [(1, -2, 3), (-1, 2, 4)]
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


# ------------------------------------------- parse against the former parser


def _reference_int(tok):
    """A DIMACS integer: ASCII decimal digits with an optional sign."""
    if re.fullmatch(r"[+-]?[0-9]+", tok) is None:
        raise ValueError(tok)
    return int(tok)


def reference_parse_dimacs(text):
    """The parser as it was before the one-check-per-clause fast path:
    every clause checked here, then again by Cnf(n, rows).  Integers
    are read by _reference_int, not by int(), which would also take
    "1_0" and non-ASCII digits."""
    n = None
    m = None
    lits = []
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                n, m = _reference_int(parts[2]), _reference_int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from exc
            if n < 0 or m < 0:
                raise DimacsError(f"line {lineno}: negative header counts")
            continue
        if n is None:
            raise DimacsError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = _reference_int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad literal {tok!r}") from exc
            if lit == 0:
                if len(lits) != 3:
                    raise DimacsError(
                        f"line {lineno}: clause of width {len(lits)}, want 3"
                    )
                vars_ = tuple([abs(x) for x in lits])
                if len(set(vars_)) != 3:
                    raise DimacsError(f"line {lineno}: repeated variable in clause")
                if max(vars_) > n:
                    raise DimacsError(f"line {lineno}: variable beyond n={n}")
                clauses.append(tuple(lits))
                lits = []
            else:
                lits.append(lit)
    if n is None:
        raise DimacsError("missing header")
    if lits:
        raise DimacsError("trailing literals without terminating 0")
    if m is not None and m != len(clauses):
        raise DimacsError(f"header declares {m} clauses, found {len(clauses)}")
    return Cnf(n, clauses)


@st.composite
def dimacs_texts(draw):
    """DIMACS-like texts: mostly one clause per line, sometimes several
    clauses on a line or one split across lines, with comments, blank
    lines, `+3` literals, and any of the parser's error classes."""
    n = draw(st.integers(3, 6))
    nonzero = st.integers(-n - 1, n + 1).filter(bool)
    good = st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True)
    clauses = []
    picked = draw(st.lists(good, max_size=8))
    if picked and draw(st.integers(0, 2)) == 0:  # width, repeats or range
        picked[draw(st.integers(0, len(picked) - 1))] = draw(
            st.lists(nonzero, max_size=5))
    for vars_ in picked:
        signs = draw(st.lists(st.sampled_from(["", "-", "+"]),
                              min_size=len(vars_), max_size=len(vars_)))
        clauses.append([f"{s}{abs(v)}" if s else str(v) for s, v in zip(signs, vars_)])
    tokens = [tok for cl in clauses for tok in (*cl, "0")]
    if draw(st.integers(0, 9)) == 0:  # a bad literal
        tokens.insert(draw(st.integers(0, len(tokens))),
                      draw(st.sampled_from(["x", "1.5", "--2", "3a", "0x1"])))
    if draw(st.integers(0, 9)) == 0:  # trailing literals
        tokens += [str(v) for v in draw(st.lists(nonzero, min_size=1, max_size=3))]
    lines = []
    line = []
    one_per_line = draw(st.booleans())
    for tok in tokens:
        line.append(tok)
        if (tok == "0") if one_per_line else draw(st.booleans()):
            lines.append(" ".join(line))
            line = []
    if line:
        lines.append(" ".join(line))
    m = len(clauses) if draw(st.integers(0, 9)) else draw(st.integers(0, 9))
    header = draw(st.sampled_from(
        [f"p cnf {n} {m}"] * 15
        + ["p cnf", f"p dnf {n} {m}", f"p cnf x {m}", f"p cnf -1 {m}", f"p cnf {n - 1} {m}"]))
    where = draw(st.sampled_from(["top"] * 15 + ["missing", "twice", "late"]))
    if where != "missing":
        lines.insert(0 if where != "late" else min(1, len(lines)), header)
    if where == "twice":
        lines.insert(draw(st.integers(1, len(lines))), header)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["c a comment", "", "   ", "c 1 2 3 0", "c"])))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return "\n".join(pad + ln + pad for ln in lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # compared by type and message below
        return exc


@given(dimacs_texts())
@settings(max_examples=500)
@example("p cnf 4 2\n1 -2 3 0 -1 2 4 0\n")            # two clauses on one line
@example("p cnf 4 2\n1 -2\n3 0\n-1 2\n4 0\n")        # clauses split across lines
@example("c hi\n\np cnf 3 1\n  c x\n\n+1 -2 +3 0\n")  # comments, blanks, +3
@example("p cnf 3 1\n1 2 0\n")                        # width
@example("p cnf 3 1\n1 2 -2 0\n")                     # repeated variable
@example("p cnf 3 1\n1 2 -1 0\n")                     # repeated, first and last
@example("p cnf 4 1\n1 2 3 4\n0\n")                   # four literals, then 0
@example("p cnf 4 1\n1\n2 3 4 0\n")                   # a clause's tail, width 4
@example("p cnf 3 1\n1 2 4 0\n")                      # out of range
@example("p cnf 3 1\n1 x 3 0\n")                      # bad token
@example("p cnf 3 1\np cnf 3 1\n1 2 3 0\n")           # duplicate header
@example("1 2 3 0\np cnf 3 1\n")                      # clause before header
@example("p cnf 3 1\n1 2 3 0\n1 2\n")                 # trailing literals
@example("p cnf 3 2\n1 2 3 0\n")                      # count mismatch
@example("p cnf 3 1\n1 2 3 -0\n")                     # a zero spelled -0
@example("p cnf 3 1\n1 2 3 0 0\n")                    # an empty clause after one
# the edges of the whole-body path for a clean text
@example("c by hand\np cnf 4 2\n1 -2 3 0\n-1 2 4 0\n")   # a comment before the header
@example("p cnf 4 2\r\n1 -2 3 0\r\n-1 2 4 0\r\n")      # CRLF line endings
@example("p cnf 4 2\n1 -2 3 0\n-1 2 4 0")                # no final newline
@example("p cnf 4 2\n1 -2 3 0\n-1 2\n4 0\n")            # one clause split across lines
@example("p cnf 4 2\n+1 -2 +3 0\n-1 +2 4 0\n")          # +3 literals
@example("p cnf 4 2\n1 -2 3 -0\n-1 2 4 0\n")            # a -0 terminator
@example("p cnf 4 2\n1 0 3 0\n-1 2 4 0\n")              # a 0 in a literal slot
@example("p cnf 4 2\n1 -2 3 4\n-1 2 4 0\n")             # a literal in a 0's slot
@example("p cnf 4 2\n1 -2 3 0\n-1 2 4 0\n\n")           # a trailing blank line
@example("p cnf 4 3\n1 -2 3 0\n-1 2 4 0\n")             # header count one too high
@example("p cnf 4 1\n1 -2 3 0\n-1 2 4 0\n")             # header count one too low
@example("p cnf 4 2\r1 -2 3 0\r-1 2 4 0\r")             # CR line endings
@example("p\x0bcnf 4 2\n1 -2 3 0\n-1 2 4 0\n")          # a line break inside the header
# integers that int() takes but DIMACS does not: "_" and non-ASCII digits
@example("p cnf 10 1\n1_0 2 3 0\n")                     # in a literal
@example("p cnf 3 1\n1 2 \u0663 0\n")                   # in a literal
@example("p cnf 3 1\n1 2 3 0_0\n")                      # in a terminator
@example("p cnf 3 1\n1 2 3 \u0660\n")                   # in a terminator
@example("p cnf 1_0 1\n1 2 3 0\n")                      # in a header count
@example("p cnf \u0663 1\n1 2 3 0\n")                   # in a header count
# distinct tokens of one value, each decoded once on the whole-body path
@example("p cnf 9 4\n007 1 2 0\n-007 3 4 0\n+7 5 6 0\n7 8 9 0\n")  # 007, -007, +7, 7
@example("p cnf 4 2\n1 -2 3 00\n-1 2 4 +0\n")          # 00 and +0 terminators
@example("p cnf 4 2\n1 -0 3 0\n-1 2 4 0\n")            # -0 in a literal slot
@example("p cnf 4 2\n1 -2 3 0\n-1 2 5 0\n")            # n + 1, only once
@example("p cnf 4 2\n1 -2 3 0\n-5 2 4 0\n")            # -(n + 1), only once
def test_parse_dimacs_matches_reference(text):
    want = _outcome(reference_parse_dimacs, text)
    got = _outcome(parse_dimacs, text)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want and repr(got) == repr(want)


def test_clean_text_is_parsed_whole_onto_the_shared_pols():
    cnf = gen_random_3cnf(30, 200, 4)
    text = to_dimacs(cnf)
    for clean in (text, text.replace("\n", "\r\n"), text.replace(" 0\n", " 0 ")):
        got = parse_dimacs(clean)
        assert got == cnf
        assert all(cl.pols is POLS[4 * p + 2 * q + r] for cl in got.clauses
                   for p, q, r in [cl.pols])


def test_clauses_are_slotted_on_every_construction_path():
    """Cnf(n, rows), both parse_dimacs paths and gen_random_3cnf give
    `.clauses` of slotted clauses that still compare, hash, pickle, copy,
    replace and refuse assignment like the frozen dataclass they are;
    every path puts one of the eight POLS tuples in pols."""
    cnf = gen_random_3cnf(30, 200, 4)
    text = to_dimacs(cnf)
    commented = "c a comment line sends the text to the line loop\n" + text
    assert _parse_clean(text) is not None and _parse_clean(commented) is None
    built = {
        "rows": Cnf(30, signed_rows(cnf)).clauses,
        "whole body": parse_dimacs(text).clauses,
        "line loop": parse_dimacs(commented).clauses,
        "gen": gen_random_3cnf(30, 200, 4).clauses,
    }
    for how, clauses in built.items():
        assert type(clauses) is tuple and clauses == cnf.clauses, how
        assert repr(clauses) == repr(cnf.clauses), how
        assert list(map(hash, clauses)) == list(map(hash, cnf.clauses)), how
        assert all(cl.pols is POLS[4 * p + 2 * q + r] for cl in clauses
                   for p, q, r in [cl.pols]), how
        for cl in clauses:
            assert type(cl) is Clause and not hasattr(cl, "__dict__"), how
            for twin in (pickle.loads(pickle.dumps(cl)), copy.deepcopy(cl),
                         dataclasses.replace(cl)):
                assert type(twin) is Clause and twin == cl and hash(twin) == hash(cl)
        with pytest.raises(dataclasses.FrozenInstanceError):
            clauses[0].vars = (1, 2, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del clauses[0].pols
        # a name outside the fields is refused too, as TypeError on
        # CPython 3.11's frozen slots dataclasses
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            clauses[0].extra = 1
        assert clauses == cnf.clauses, how
    # no clause at all on any path
    empty = to_dimacs(gen_random_3cnf(30, 0, 4))
    assert gen_random_3cnf(30, 0, 4).clauses == () == Cnf(30, []).clauses
    assert parse_dimacs(empty).clauses == () == parse_dimacs("c\n" + empty).clauses
    flipped = dataclasses.replace(cnf.clauses[0], pols=(1, 1, 1))
    assert (flipped.vars, flipped.pols) == (cnf.clauses[0].vars, (1, 1, 1))


def test_parsed_cnf_holds_under_0_2_mib():
    """Clause columns: a parsed n = 200, m = 4995 Cnf holds about
    0.15 MiB, four tuples of m entries, against 0.45 MiB with one
    slotted Clause per clause.  The parse peaks under 1.25 MiB, because
    the 19 980 token strings are freed before the columns are built."""
    text = to_dimacs(gen_random_3cnf(200, 4995, 1))
    tracemalloc.start()
    try:
        cnf = parse_dimacs(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cnf.m == 4995
    assert held < 0.2 * 2**20
    assert peak < 1.25 * 2**20


def test_huge_header_count_allocates_nothing_sized_by_n():
    """The whole-body path tables the tokens present, never 1..n: a
    header of n = 10^9 parses in well under 1 MiB."""
    tracemalloc.start()
    try:
        one = parse_dimacs("p cnf 1000000000 1\n1 2 3 0\n")
        empty = parse_dimacs("p cnf 1000000000 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert one == Cnf(10**9, [(1, 2, 3)])
    assert empty == Cnf(10**9, ())
    assert peak < 2**20


def test_imbalance_memory_follows_m_not_n():
    """Skews are counted for the variables present only: one clause under
    n = 10^6 peaks well under 1 MiB, where a skew per variable 1..n
    would take about 8 MB."""
    cnf = Cnf(10**6, [(1, 2, 3)])
    tracemalloc.start()
    try:
        got = imbalance(cnf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 3
    assert peak < 2**20


@st.composite
def cnfs(draw):
    n = draw(st.integers(3, 8))
    m = draw(st.integers(0, 12))
    clauses = []
    for _ in range(m):
        trip = tuple(sorted(draw(
            st.sets(st.integers(1, n), min_size=3, max_size=3))))
        pols = tuple(draw(st.tuples(*[st.integers(0, 1)] * 3)))
        clauses.append(signed(trip, pols))
    return Cnf(n, clauses)


@given(cnfs())
@settings(max_examples=60)
def test_dimacs_round_trip_property(cnf):
    assert parse_dimacs(to_dimacs(cnf)) == cnf


@given(cnfs())
@settings(max_examples=100)
def test_imbalance_is_sum_of_per_variable_imbalances(cnf):
    assert imbalance(cnf) == sum(i_imbalance(cnf, v) for v in range(1, cnf.n + 1))


def reference_imbalance(cnf):
    """imbalance through the signed rows, one literal at a time."""
    skew = [0] * (cnf.n + 1)
    for row in signed_rows(cnf):
        for lit in row:
            skew[abs(lit)] += 1 if lit > 0 else -1
    return sum(map(abs, skew))


def reference_to_dimacs(cnf):
    """to_dimacs through the signed rows, one joined literal at a time."""
    lines = [f"p cnf {cnf.n} {cnf.m}"]
    for row in signed_rows(cnf):
        lines.append(" ".join(map(str, row)) + " 0")
    return "\n".join(lines) + "\n"


def test_imbalance_and_dimacs_match_references_in_every_slot_order():
    for name, cnf in slot_order_formulas().items():
        assert imbalance(cnf) == reference_imbalance(cnf), name
        text = to_dimacs(cnf)
        assert text == reference_to_dimacs(cnf), name
        assert parse_dimacs(text) == cnf, name
    skewed = Cnf(8, signed_rows(slot_order_cnf())[::8])  # all-negative, every slot order
    assert imbalance(skewed) == reference_imbalance(skewed) == 18


@given(cnfs(), st.integers(0, 2**16))
@settings(max_examples=60)
def test_imbalance_and_dimacs_match_references_on_shuffled_slots(cnf, seed):
    shuffled = shuffled_slots(cnf, seed)
    assert imbalance(shuffled) == reference_imbalance(shuffled) == imbalance(cnf)
    assert to_dimacs(shuffled) == reference_to_dimacs(shuffled)


def test_gen_deterministic_and_well_formed():
    a = gen_random_3cnf(10, 200, 42)
    b = gen_random_3cnf(10, 200, 42)
    assert a == b
    assert a.n == 10 and a.m == 200
    for row in signed_rows(a):
        assert len({abs(lit) for lit in row}) == 3
        assert all(1 <= abs(lit) <= 10 for lit in row)
    assert gen_random_3cnf(10, 200, 43) != a


def test_gen_polarity_frequencies():
    cnf = gen_random_3cnf(10, 10_000, 7)
    counts = [0] * 8
    for p, q, r in cnf.pols:
        counts[p * 4 + q * 2 + r] += 1
    for k in counts:
        assert abs(k / 10_000 - 0.125) < 0.02


def test_gen_input_validation():
    with pytest.raises(ValueError):
        gen_random_3cnf(2, 5, 0)
    with pytest.raises(ValueError):
        gen_random_3cnf(5, -1, 0)
    # CPython seeds with |seed|, so seed -1 would draw seed 1's formula
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        gen_random_3cnf(8, 30, -1)


class _Eight:
    def __index__(self):
        return 8


@pytest.mark.parametrize("n, m, seed", [(5.0, 2, 0), (5, 2.0, 0), (5, 2, 1.5),
                                        ("5", 2, 0), (5, 2, "0")])
def test_gen_rejects_non_integer_parameters(n, m, seed):
    with pytest.raises(TypeError):
        gen_random_3cnf(n, m, seed)


def test_gen_takes_parameters_through_index():
    """Any __index__ type is read as its int, so the formula's n is an int
    and its DIMACS text parses back."""
    cnf = gen_random_3cnf(_Eight(), _Eight(), _Eight())
    assert type(cnf.n) is int and cnf == gen_random_3cnf(8, 8, 8)
    assert parse_dimacs(to_dimacs(cnf)) == cnf
    assert check_gen_params(_Eight(), True) == (8, 1, 0)
    assert check_gen_params(8, 30) == (8, 30, 0)


def reference_gen_random_3cnf(n, m, seed):
    """gen_random_3cnf as it drew before its clauses were built in one
    pass: a set of three draws, redrawn until it holds three variables,
    then sorted(); the clauses through Cnf(n, rows) and its checks."""
    check_gen_params(n, m)
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        while True:
            trip = {rng.randrange(1, n + 1) for _ in range(3)}
            if len(trip) == 3:
                break
        vars_ = tuple(sorted(trip))
        clauses.append(signed(vars_, POLS[rng.randrange(8)]))
    return Cnf(n, clauses)


def test_gen_matches_reference_draw_for_draw():
    # n = 3 rejects about 21 of every 27 draws, so it runs the redraw most
    for n, m, seed in itertools.product((3, 4, 28, 200), (0, 1, 17, 318), range(20)):
        got, want = gen_random_3cnf(n, m, seed), reference_gen_random_3cnf(n, m, seed)
        assert got == want and repr(got) == repr(want), (n, m, seed)
        assert all(cl.pols is POLS[4 * p + 2 * q + r] for cl in got.clauses
                   for p, q, r in [cl.pols])


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 63, 64, 65, 1023, 1024, 1025])
def test_gen_matches_reference_at_bit_length_boundaries(n):
    # n.bit_length() changes between 2^j - 1 and 2^j, and at n = 2^j about
    # half the draws are redrawn, so an off-by-one in the bit count fails
    for m, seed in itertools.product((0, 1, 17, 318), range(4)):
        got, want = gen_random_3cnf(n, m, seed), reference_gen_random_3cnf(n, m, seed)
        assert got == want and repr(got) == repr(want), (n, m, seed)


@pytest.mark.parametrize("n, m, seed, digest", [
    (200, 4995, 1, "a0dcb711161745b4333ab7dca89f347697fb5009901ee8df42f9a3b1dd738c0a"),
    (3, 50, 7, "0411abfd981b76a752b58d537c869f46dad50a160fa503f2327c59a82deb2960"),
    (28, 318, 0, "f5d9104eac45fa6c4609e9462005eb223bf656b908ccaa4eaeda0bec6f98f588"),
    (64, 1000, 3, "b354b5fa36a9f445a17badf471c7d24e5a74a9d2a057ea30826b6817c38d2de7"),
])
def test_gen_output_is_pinned(n, m, seed, digest):
    """SHA-256 of the DIMACS text of four generated formulas, so a change
    of the draws shows across versions, not only between two calls."""
    text = to_dimacs(gen_random_3cnf(n, m, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _count_clause_builds(monkeypatch) -> list:
    """From here on, record the vars of every Clause that fkocert.cnf
    builds: a counting stand-in takes the class's place there."""
    import fkocert.cnf as cnf_mod

    calls = []
    real = cnf_mod.Clause

    def counting(vars_, pols):
        calls.append(vars_)
        return real(vars_, pols)

    monkeypatch.setattr(cnf_mod, "Clause", counting)
    return calls


def test_clauses_are_built_once_on_first_read(monkeypatch):
    """gen_random_3cnf, both parse_dimacs paths and Cnf(n, rows) fill the
    columns and build no Clause.  The first read of `.clauses` builds
    one per clause; every later read returns that same tuple."""
    cnf = gen_random_3cnf(200, 4995, 1)
    text = to_dimacs(cnf)
    commented = "c a leading comment sends the text to the line loop\n" + text
    rows = signed_rows(cnf)
    assert _parse_clean(text) is not None and _parse_clean(commented) is None
    calls = _count_clause_builds(monkeypatch)
    for how, build in [("gen", lambda: gen_random_3cnf(200, 4995, 1)),
                       ("whole body", lambda: parse_dimacs(text)),
                       ("line loop", lambda: parse_dimacs(commented)),
                       ("rows", lambda: Cnf(200, rows))]:
        got = build()
        assert got == cnf and calls == [], how
        clauses = got.clauses
        assert calls == list(zip(cnf.x, cnf.y, cnf.z)), how
        assert got.clauses is clauses and len(calls) == 4995, how
        assert clauses == cnf.clauses and type(clauses[0]) is Clause, how
        calls.clear()


def test_no_timed_pipeline_stage_builds_a_clause(monkeypatch, capsys):
    """Every stage the benchmark workloads time reads the columns: parse,
    imbalance, the tuple search and its check, the builder, the witness
    JSON round trip, the verifier and one sweep row build no Clause, and
    neither do to_dimacs and the brute-force oracle."""
    from fkocert import (build_witness, check_collection, find_collection,
                         verify_witness, witness_from_json, witness_to_json)
    from fkocert.cli import main

    large = to_dimacs(gen_random_3cnf(200, 4995, 11))
    # every formula comes from text, as in a benchmark op
    planted, small = to_dimacs(planted_block(10)), to_dimacs(planted_block(2))
    calls = _count_clause_builds(monkeypatch)
    cnf = parse_dimacs(large)
    assert imbalance(cnf) > 0
    coll = find_collection(cnf, k_max=4, d=4, t_target=0, budget=50_000)
    assert coll.t > 0 and check_collection(cnf, coll) == (True, None)
    assert to_dimacs(cnf) == large
    cnf = parse_dimacs(planted)
    verdict = verify_witness(cnf, witness_from_json(witness_to_json(build_witness(cnf))))
    assert verdict.accepted
    assert oracle.brute_force_report(parse_dimacs(small))[0]
    monkeypatch.setenv("FKO_THREADS", "1")
    assert main(["sweep", "--n", "28", "--m", "318", "--seeds", "1", "--seed", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert calls == []


def test_cnf_contract_on_every_construction_path():
    """The whole-body parse, the line loop, gen_random_3cnf, Cnf(n, rows),
    pickle and deepcopy all give the same formula: four tuple columns
    that agree with `.clauses`, polarities that are POLS tuples, equal
    and of one hash and repr.  Every field and `.clauses` refuse
    assignment; Cnf(n, rows) takes any iterable of signed rows."""
    cnf = gen_random_3cnf(30, 200, 4)
    text = to_dimacs(cnf)
    commented = "c a comment line sends the text to the line loop\n" + text
    rows = signed_rows(cnf)
    read = gen_random_3cnf(30, 200, 4)
    read.clauses  # pickled and copied with its clauses held, below
    built = {
        "whole body": parse_dimacs(text),
        "line loop": parse_dimacs(commented),
        "gen": gen_random_3cnf(30, 200, 4),
        "rows": Cnf(30, (list(row) for row in rows)),
        "pickle": pickle.loads(pickle.dumps(gen_random_3cnf(30, 200, 4))),
        "deepcopy": copy.deepcopy(gen_random_3cnf(30, 200, 4)),
        "pickle, clauses read": pickle.loads(pickle.dumps(read)),
        "deepcopy, clauses read": copy.deepcopy(read),
    }
    for how, got in built.items():
        assert type(got) is Cnf and (got.n, got.m) == (30, 200), how
        for col in (got.x, got.y, got.z, got.pols):
            assert type(col) is tuple and len(col) == 200, how
        # unpickling makes its own copies of the eight tuples, one each
        shared = len(set(map(id, got.pols))) <= 8 if how.startswith("pickle") else all(
            pol is POLS[4 * p + 2 * q + r] for pol in got.pols for p, q, r in [pol])
        assert shared and set(got.pols) <= set(POLS), how
        assert got == cnf and hash(got) == hash(cnf) and repr(got) == repr(cnf), how
        assert [cl.vars for cl in got.clauses] == list(zip(got.x, got.y, got.z)), how
        assert [cl.pols for cl in got.clauses] == list(got.pols), how
        assert got.clauses == cnf.clauses and type(got.clauses) is tuple, how
        for name in ("n", "x", "y", "z", "pols", "clauses"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, name, getattr(cnf, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(got, name)
        assert got == cnf, how
    assert built["rows"] == parse_dimacs(to_dimacs(built["rows"]))
    assert repr(cnf).startswith(f"Cnf(n=30, x={cnf.x!r}, y={cnf.y!r}")
    # another clause order, slot order or polarity is another formula
    assert Cnf(30, rows[::-1]) != cnf
    assert Cnf(30, [(2, 1, 3)]) != Cnf(30, [(1, 2, 3)])
    assert Cnf(30, [(1, 2, -3)]) != Cnf(30, [(1, 2, 3)])
    assert Cnf(31, rows) != cnf
    # no clause at all
    empty = Cnf(30, ())
    assert empty == parse_dimacs("p cnf 30 0\n") == parse_dimacs("c\np cnf 30 0\n")
    assert empty == gen_random_3cnf(30, 0, 4)
    assert (empty.x, empty.y, empty.z, empty.pols, empty.m) == ((), (), (), (), 0)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        Cnf(-1, ())
    with pytest.raises(ValueError, match=r"^clause 1 \(1, 2, 31\): "):
        Cnf(30, [rows[0], (1, 2, 31)])


def test_whole_body_path_decodes_each_distinct_token_once(monkeypatch):
    """The whole-body path calls int() once per header count and once per
    distinct body token, not once per slot: at most 2 n + 3 calls for
    the 4 m = 19980 tokens of an n = 200, m = 4995 text."""
    import fkocert.cnf as cnf_mod

    cnf = gen_random_3cnf(200, 4995, 1)
    text = to_dimacs(cnf)
    distinct = len(set(text.partition("\n")[2].split()))
    seen = []

    def spy(tok):
        seen.append(tok)
        return int(tok)

    monkeypatch.setattr(cnf_mod, "int", spy, raising=False)
    assert _parse_clean(text) == cnf
    assert "200" in seen and "4995" in seen
    assert len(seen) <= distinct + 2 <= 2 * 200 + 3


def test_sat_literal_bound_small():
    # per-assignment literal count never beats (3m + I)/2
    for seed in range(6):
        cnf = gen_random_3cnf(6, 20, seed)
        cap = (3 * cnf.m + imbalance(cnf)) / 2
        worst = max(count_sat_literals(cnf, a) for a in all_assignments(6))
        assert worst <= cap


def test_oracle_counting_agrees_with_direct():
    cnf = gen_random_3cnf(6, 18, 5)
    sat = sat_literal_counts(cnf)
    nae = nae_counts(cnf)
    x3 = not3xor_counts(cnf)
    for idx, a in enumerate(all_assignments(6)):
        assert sat[idx] == count_sat_literals(cnf, a)
        assert nae[idx] == count_nae(cnf, a)
        assert x3[idx] == sum(
            1 for row in signed_rows(cnf) if not is_3xor(row, a))


def test_brute_force_unsat():
    assert brute_force_unsat(planted_block(1))
    assert not brute_force_unsat(Cnf(3, [(1, 2, 3)]))
    assert not brute_force_unsat(Cnf(3, ()))
    with pytest.raises(ValueError, match="n=26 exceeds brute-force cap 25"):
        brute_force_unsat(gen_random_3cnf(26, 10, 0))


@pytest.mark.parametrize("chunk_bits", [2, 20])
def test_brute_force_report_matches_per_assignment_counts(monkeypatch, chunk_bits):
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    cases = [Cnf(3, ()), Cnf(3, [(1, 2, 3)]), planted_block(1), planted_block(2)]
    cases += [gen_random_3cnf(n, m, seed) for n, m in [(3, 4), (6, 18), (9, 40)]
              for seed in range(3)]
    for cnf in cases:
        assert oracle.brute_force_report(cnf) == table_report(cnf), cnf
    with pytest.raises(ValueError):
        oracle.brute_force_report(gen_random_3cnf(26, 10, 0))


def test_brute_force_independent_of_chunking(monkeypatch):
    cnf = planted_block(2)  # n=6
    want = oracle.brute_force_report(cnf)
    for chunk_bits in (0, 1, 3, 6):
        monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
        assert oracle.brute_force_report(cnf) == want


@st.composite
def oracle_cnfs(draw):
    """n = 3..12 and m = 0..40, sometimes with one variable triple carrying
    all eight polarity patterns, so unsatisfiable formulas come up too."""
    n = draw(st.integers(3, 12))
    triple = st.sets(st.integers(1, n), min_size=3, max_size=3).map(sorted)
    clauses = [signed(draw(triple), draw(st.tuples(*[st.integers(0, 1)] * 3)))
               for _ in range(draw(st.integers(0, 40)))]
    if draw(st.booleans()):
        trip = draw(triple)
        clauses += [signed(trip, POLS[b]) for b in range(8)]
    return Cnf(n, draw(st.permutations(clauses)))


@pytest.mark.parametrize("chunk_bits", [2, 3, 20])
def test_brute_force_report_matches_tables(chunk_bits):
    @settings(max_examples=60)
    @given(oracle_cnfs())
    @example(Cnf(12, ()))
    def check(cnf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_CHUNK_BITS", chunk_bits)
            assert oracle.brute_force_report(cnf) == table_report(cnf)

    check()


def _on_used_vars(cnf: Cnf) -> Cnf:
    """cnf over its used variables only, renumbered 1..k in order: the
    same clauses on fewer assignments, so the same three counts."""
    rows = signed_rows(cnf)
    used = sorted({abs(lit) for row in rows for lit in row})
    rename = {v: i + 1 for i, v in enumerate(used)}
    return Cnf(len(used), [[rename[lit] if lit > 0 else -rename[-lit] for lit in row]
                           for row in rows])


def test_brute_force_report_across_blocks():
    # n = 21 and 22 at the default 2^20-assignment blocks: x_21 and x_22
    # are constant within a block and change between blocks
    assert oracle._CHUNK_BITS == 20
    block = [signed((20, 21, 22), POLS[b]) for b in range(8)]
    cases = [Cnf(21, ()), Cnf(22, ()), Cnf(22, block),
             Cnf(22, block[:7] + [(-1, 2, -21)]),
             Cnf(21, [(19, -20, 21)] * 3)]
    cases += [gen_random_3cnf(n, 5, seed) for n in (21, 22) for seed in range(3)]
    for cnf in cases:
        want = table_report(_on_used_vars(cnf)) if cnf.m else (False, 0, 0)
        assert oracle.brute_force_report(cnf) == want, cnf
    assert oracle.brute_force_report(Cnf(22, block))[0]
