import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import fkocert.oracle as oracle
from fkocert import Clause, Cnf, DimacsError, gen_random_3cnf, parse_dimacs, to_dimacs
from fkocert.cnf import POLS, imbalance
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
    table_report,
)


def lit_positions(cnf, var, pol):
    """All (clause index, slot) positions holding the literal x_var^pol.

    Slots are 1-based.
    """
    out = set()
    for k, cl in enumerate(cnf.clauses):
        for slot, (v, p) in enumerate(cl.literals(), start=1):
            if v == var and p == pol:
                out.add((k, slot))
    return out


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
    with pytest.raises(ValueError):
        Cnf(3, (Clause((1, 2, 4), (1, 1, 1)),))
    with pytest.raises(ValueError):
        Cnf(-1, ())


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


# ------------------------------------------- parse against the former parser


def reference_parse_dimacs(text):
    """The parser as it was before the one-check-per-clause fast path:
    every clause checked here, then again by Clause and Cnf."""
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
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from exc
            if n < 0 or m < 0:
                raise DimacsError(f"line {lineno}: negative header counts")
            continue
        if n is None:
            raise DimacsError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad literal {tok!r}") from exc
            if lit == 0:
                if len(lits) != 3:
                    raise DimacsError(
                        f"line {lineno}: clause of width {len(lits)}, want 3"
                    )
                vars_ = tuple([abs(x) for x in lits])
                pols = tuple([1 if x > 0 else 0 for x in lits])
                if len(set(vars_)) != 3:
                    raise DimacsError(f"line {lineno}: repeated variable in clause")
                if max(vars_) > n:
                    raise DimacsError(f"line {lineno}: variable beyond n={n}")
                clauses.append(Clause(vars_, pols))
                lits = []
            else:
                lits.append(lit)
    if n is None:
        raise DimacsError("missing header")
    if lits:
        raise DimacsError("trailing literals without terminating 0")
    if m is not None and m != len(clauses):
        raise DimacsError(f"header declares {m} clauses, found {len(clauses)}")
    return Cnf(n, tuple(clauses))


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
    assert brute_force_unsat(planted_block(1))
    assert not brute_force_unsat(Cnf(3, (C123,)))
    assert not brute_force_unsat(Cnf(3, ()))
    with pytest.raises(ValueError, match="n=26 exceeds brute-force cap 25"):
        brute_force_unsat(gen_random_3cnf(26, 10, 0))


@pytest.mark.parametrize("chunk_bits", [2, 20])
def test_brute_force_report_matches_per_assignment_counts(monkeypatch, chunk_bits):
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    cases = [Cnf(3, ()), Cnf(3, (C123,)), planted_block(1), planted_block(2)]
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
    clauses = [Clause(tuple(draw(triple)), draw(st.tuples(*[st.integers(0, 1)] * 3)))
               for _ in range(draw(st.integers(0, 40)))]
    if draw(st.booleans()):
        trip = tuple(draw(triple))
        clauses += [Clause(trip, (b >> 2 & 1, b >> 1 & 1, b & 1)) for b in range(8)]
    return Cnf(n, tuple(draw(st.permutations(clauses))))


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
    used = sorted({v for cl in cnf.clauses for v in cl.vars})
    rename = {v: i + 1 for i, v in enumerate(used)}
    return Cnf(len(used), tuple(Clause(tuple(rename[v] for v in cl.vars), cl.pols)
                                for cl in cnf.clauses))


def test_brute_force_report_across_blocks():
    # n = 21 and 22 at the default 2^20-assignment blocks: x_21 and x_22
    # are constant within a block and change between blocks
    assert oracle._CHUNK_BITS == 20
    block = [Clause((20, 21, 22), (b >> 2 & 1, b >> 1 & 1, b & 1)) for b in range(8)]
    cases = [Cnf(21, ()), Cnf(22, ()), Cnf(22, tuple(block)),
             Cnf(22, tuple(block[:7]) + (Clause((1, 2, 21), (0, 1, 0)),)),
             Cnf(21, (Clause((19, 20, 21), (1, 0, 1)),) * 3)]
    cases += [gen_random_3cnf(n, 5, seed) for n in (21, 22) for seed in range(3)]
    for cnf in cases:
        want = table_report(_on_used_vars(cnf)) if cnf.m else (False, 0, 0)
        assert oracle.brute_force_report(cnf) == want, cnf
    assert oracle.brute_force_report(Cnf(22, tuple(block)))[0]
