"""Checker tests: semantics, a hand-built proof library, a mutation
corpus that must be rejected wholesale, substitution, the constant-
formula decision procedure, and the former per-rule matchers as a
differential reference.

Every mutation class below is engineered so the mutated step cannot
match any reading of its rule: arity changes, length mismatches, or
connective-type mismatches.  That keeps "100% rejected" a theorem about
the checker rather than a statistical observation.
"""

import gc
import itertools
import random
import sys
import threading
import time
import weakref
from typing import Callable, Sequence

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fkocert.tc0frege import (
    BOT,
    MAX_DEPTH,
    RULES,
    TOP,
    Bot,
    CheckResult,
    Not,
    ProofStep,
    Sequent,
    TcFormula,
    TcProof,
    Th,
    Top,
    Var,
    check_proof,
    decide_constant_formula,
    eval_formula,
    eval_sequent,
    format_formula,
    format_proof,
    format_sequent,
    free_vars,
    parse_formula,
    parse_proof,
    parse_sequent,
    substitute,
    substitute_formula,
)

# ------------------------------------------------------------- semantics


def test_threshold_semantics():
    assert eval_formula(Th(2, (TOP, BOT, TOP)), {})
    assert not eval_formula(Th(3, (TOP, BOT, TOP)), {})
    assert eval_formula(Th(0, ()), {})
    assert eval_formula(Th(0, (BOT, BOT)), {})
    assert not eval_formula(Th(4, (Var(1), Var(2), Var(3))),
                            {1: True, 2: True, 3: True})
    assert not eval_formula(Th(1, ()), {})


def test_threshold_counts_exhaustively():
    for n in range(4):
        for bits in itertools.product([False, True], repeat=n):
            kids = tuple(TOP if b else BOT for b in bits)
            for i in range(n + 2):
                assert eval_formula(Th(i, kids), {}) == (sum(bits) >= i)


def test_unbound_variable_raises():
    with pytest.raises(ValueError):
        eval_formula(Var(4), {1: True})


def test_sequent_semantics():
    s = Sequent((Var(1),), (Var(2),))
    assert eval_sequent(s, {1: False, 2: False})
    assert eval_sequent(s, {1: True, 2: True})
    assert not eval_sequent(s, {1: True, 2: False})
    assert eval_sequent(Sequent((), ()), {}) is False
    assert eval_sequent(Sequent((BOT,), ()), {})


def test_free_vars():
    f = Th(1, (Var(3), Not(Var(7)), TOP))
    assert free_vars(f) == {3, 7}
    assert free_vars(TOP) == set()


# ---------------------------------------------------------- proof library
#
# Each entry: (name, proof text).  All proofs must check, and their final
# sequents must be valid under every assignment of their variables.

LIBRARY = [
    ("identity-axiom", "1: axiom |- p1 --> p1"),
    (
        "excluded-middle",
        """
        1: axiom |- p1 --> p1
        2: not-right(1) |-  --> ~p1, p1
        3: exchange-right(2) |-  --> p1, ~p1
        4: one-right(3) |-  --> Th1(p1, ~p1)
        """,
    ),
    (
        "and-intro",
        """
        1: axiom |- p1 --> p1
        2: axiom |- p2 --> p2
        3: weaken-left(1) |- p1, p2 --> p1
        4: weaken-left(2) |- p2, p1 --> p2
        5: exchange-left(4) |- p1, p2 --> p2
        6: all-right(3, 5) |- p1, p2 --> Th2(p1, p2)
        """,
    ),
    (
        "and-elim-first",
        """
        1: axiom |- Th2(p2) -->
        2: weaken-right(1) |- Th2(p2) --> p1
        3: axiom |- p1 --> p1
        4: weaken-left(3) |- p1, Th1(p2) --> p1
        5: exchange-left(4) |- Th1(p2), p1 --> p1
        6: th-left(2, 5) |- Th2(p1, p2) --> p1
        """,
    ),
    (
        "cut-demo",
        """
        1: axiom |- p1 --> p1
        2: weaken-right(1) |- p1 --> p2, p1
        3: axiom |- p1 --> p1
        4: weaken-left(3) |- p1, p2 --> p1
        5: cut(2, 4) |- p1 --> p1
        """,
    ),
    (
        "double-negation-intro",
        """
        1: axiom |- p1 --> p1
        2: not-left(1) |- p1, ~p1 -->
        3: not-right(2) |- p1 --> ~~p1
        """,
    ),
    (
        "or-contract",
        """
        1: axiom |- p1 --> p1
        2: one-left(1, 1) |- Th1(p1, p1) --> p1
        """,
    ),
    (
        "const-or",
        """
        1: axiom |-  --> T
        2: axiom |- F -->
        3: not-right(2) |-  --> ~F
        4: all-right(1, 3) |-  --> Th2(T, ~F)
        """,
    ),
    (
        "or-intro-middle",
        """
        1: axiom |- p2 --> p2
        2: weaken-right(1) |- p2 --> F, p2
        3: exchange-right(2) |- p2 --> p2, F
        4: weaken-right(3) |- p2 --> p1, p2, F
        5: one-right(4) |- p2 --> Th1(p1, p2, F)
        """,
    ),
    (
        "th-right-demo",
        """
        1: axiom |-  --> T
        2: weaken-right(1) |-  --> F, T
        3: exchange-right(2) |-  --> T, F
        4: one-right(3) |-  --> Th1(T), F
        5: axiom |-  --> Th0(T)
        6: th-right(4, 5) |-  --> Th1(F, T)
        """,
    ),
    (
        "or-commute",
        """
        1: axiom |- p2 --> p2
        2: weaken-left(1) |- p2, p1 --> p2
        3: exchange-left(2) |- p1, p2 --> p2
        4: weaken-right(3) |- p1, p2 --> p2, p2
        5: contract-right(4) |- p1, p2 --> p2
        6: weaken-right(5) |- p1, p2 --> p1, p2
        7: exchange-right(6) |- p1, p2 --> p2, p1
        8: one-right(7) |- p1, p2 --> Th1(p2, p1)
        9: all-left(8) |- Th2(p1, p2) --> Th1(p2, p1)
        """,
    ),
    (
        "contract-left-demo",
        """
        1: axiom |- p1 --> p1
        2: weaken-left(1) |- p1, p1 --> p1
        3: contract-left(2) |- p1 --> p1
        """,
    ),
    (
        "boundary-axioms",
        """
        1: axiom |-  --> Th0(p1, p2)
        2: axiom |- Th3(p1, p2) -->
        3: weaken-left(1) |- Th3(p1, p2) --> Th0(p1, p2)
        """,
    ),
    (
        "four-var-all-intro",
        """
        1: axiom |- p1 --> p1
        2: weaken-left(1) |- p1, p2 --> p1
        3: weaken-left(2) |- p1, p2, p3 --> p1
        4: weaken-left(3) |- p1, p2, p3, p4 --> p1
        5: axiom |- p2 --> p2
        6: weaken-left(5) |- p2, p1 --> p2
        7: exchange-left(6) |- p1, p2 --> p2
        8: weaken-left(7) |- p1, p2, p3 --> p2
        9: weaken-left(8) |- p1, p2, p3, p4 --> p2
        10: axiom |- p3 --> p3
        11: weaken-left(10) |- p3, p1 --> p3
        12: exchange-left(11) |- p1, p3 --> p3
        13: weaken-left(12) |- p1, p3, p2 --> p3
        14: exchange-left(13) |- p1, p2, p3 --> p3
        15: weaken-left(14) |- p1, p2, p3, p4 --> p3
        16: axiom |- p4 --> p4
        17: weaken-left(16) |- p4, p1 --> p4
        18: exchange-left(17) |- p1, p4 --> p4
        19: weaken-left(18) |- p1, p4, p2 --> p4
        20: exchange-left(19) |- p1, p2, p4 --> p4
        21: weaken-left(20) |- p1, p2, p4, p3 --> p4
        22: exchange-left(21) |- p1, p2, p3, p4 --> p4
        23: all-right(4, 9, 15, 22) |- p1, p2, p3, p4 --> Th4(p1, p2, p3, p4)
        """,
    ),
]


def _proofs():
    return [(name, parse_proof(text)) for name, text in LIBRARY]


@pytest.mark.parametrize("name,text", LIBRARY, ids=[n for n, _ in LIBRARY])
def test_library_proof_checks(name, text):
    proof = parse_proof(text)
    res = check_proof(proof)
    assert res.valid, res.message


@pytest.mark.parametrize("name,text", LIBRARY, ids=[n for n, _ in LIBRARY])
def test_library_proof_is_sound(name, text):
    proof = parse_proof(text)
    vs = sorted(set().union(
        *(free_vars(f) for st in proof.steps
          for f in st.seq.ante + st.seq.succ)) or set())
    for bits in itertools.product([False, True], repeat=len(vs)):
        a = dict(zip(vs, bits))
        assert eval_sequent(proof.final, a)


def test_excluded_middle_final_sequent():
    proof = parse_proof(LIBRARY[1][1])
    assert proof.final == Sequent((), (Th(1, (Var(1), Not(Var(1)))),))


# ----------------------------------------------------------- mutations

# Renames chosen so the impostor rule can never match: wrong premise
# arity, or a premise/conclusion length or connective-type clash.
RULE_SWAP = {
    "axiom": "cut",
    "weaken-left": "weaken-right",
    "weaken-right": "weaken-left",
    "exchange-left": "contract-left",
    "exchange-right": "contract-right",
    "contract-left": "exchange-left",
    "contract-right": "exchange-right",
    "not-left": "not-right",
    "not-right": "not-left",
    "all-left": "cut",
    "all-right": "cut",
    "one-left": "not-left",
    "one-right": "not-right",
    "th-left": "th-right",
    "th-right": "th-left",
    "cut": "weaken-left",
}

# rules whose premise sequents are uniquely forced by the conclusion
FORCED_PREMISES = {
    "weaken-left", "weaken-right", "not-left", "not-right",
    "all-left", "all-right", "one-left", "one-right",
    "th-left", "th-right", "cut",
}

FRESH = Var(99)  # appears in no library proof


def _mutants(proof):
    steps = proof.steps
    for idx, st in enumerate(steps):
        # A: impostor rule name
        yield TcProof(steps[:idx] + (
            ProofStep(st.seq, RULE_SWAP[st.rule], st.premises),) + steps[idx + 1:])
        # F: extra formula at the end of the conclusion antecedent
        grown = Sequent(st.seq.ante + (FRESH,), st.seq.succ)
        yield TcProof(steps[:idx] + (
            ProofStep(grown, st.rule, st.premises),) + steps[idx + 1:])
        if st.premises:
            # B: self-referencing premise
            bad = (idx,) + st.premises[1:]
            yield TcProof(steps[:idx] + (
                ProofStep(st.seq, st.rule, bad),) + steps[idx + 1:])
            # D: dropped premise
            yield TcProof(steps[:idx] + (
                ProofStep(st.seq, st.rule, st.premises[:-1]),) + steps[idx + 1:])
        if len(st.premises) == 2:
            p, q = st.premises
            if steps[p].seq != steps[q].seq:
                # E: swapped premise order
                yield TcProof(steps[:idx] + (
                    ProofStep(st.seq, st.rule, (q, p)),) + steps[idx + 1:])
        if st.rule in FORCED_PREMISES:
            # B': retarget to a line with the wrong sequent
            want = steps[st.premises[0]].seq
            for other in range(idx):
                if steps[other].seq != want:
                    yield TcProof(steps[:idx] + (
                        ProofStep(st.seq, st.rule,
                                  (other,) + st.premises[1:]),) + steps[idx + 1:])
                    break


def test_mutation_corpus_fully_rejected():
    total = 0
    for name, proof in _proofs():
        assert check_proof(proof).valid
        for mutant in _mutants(proof):
            assert mutant != proof
            res = check_proof(mutant)
            assert not res.valid, (name, res)
            total += 1
    assert total >= 100, total


def test_relabeled_not_right_is_invalid():
    text = LIBRARY[1][1].replace("not-right", "cut")
    res = check_proof(parse_proof(text))
    assert not res.valid and res.step == 1


def test_rejection_names_step_rule_and_premise():
    def message(text):
        res = check_proof(parse_proof(text))
        assert not res.valid
        return res.message

    lib = dict(LIBRARY)
    cut = lib["cut-demo"]
    assert message(cut.replace("cut(2, 4)", "cut(4, 2)")) == \
        "step 5: cut: premise 1 (step 4) differs in its antecedent"
    assert message(cut.replace("cut(2, 4)", "cut(2, 3)")) == \
        "step 5: cut: premise 2 (step 3) differs in its antecedent"
    assert message(cut.replace("cut(2, 4)", "cut(2)")) == \
        "step 5: cut: needs 2 premise(s), got 1"
    assert message(lib["or-intro-middle"].replace("weaken-right(3)", "weaken-right(2)")) == \
        "step 4: weaken-right: premise 1 (step 2) differs in its succedent"
    em = lib["excluded-middle"]
    assert message(em.replace("one-right", "all-right")) == \
        "step 4: all-right: the conclusion does not have the rule's shape"
    assert message(em.replace("not-right(1)", "not-right(3)")) == \
        "step 2: not-right: a premise does not precede the step"
    assert message(em.replace("not-right", "nat-right")) == \
        "step 2: nat-right: unknown rule"


def test_forward_and_out_of_range_premises():
    base = parse_proof(LIBRARY[1][1])
    fwd = TcProof(tuple(
        ProofStep(st.seq, st.rule, (3,) if st.premises else ())
        for st in base.steps))
    assert not check_proof(fwd).valid


def test_empty_proof_rejected():
    assert not check_proof(TcProof(())).valid


# --------------------------------------------------------- substitution


@pytest.mark.parametrize("name,text", LIBRARY, ids=[n for n, _ in LIBRARY])
def test_substitute_preserves_validity(name, text):
    proof = parse_proof(text)
    vs = sorted(set().union(
        *(free_vars(f) for st in proof.steps
          for f in st.seq.ante + st.seq.succ)) or set())
    for bits in itertools.product([False, True], repeat=len(vs)):
        sub = substitute(proof, dict(zip(vs, bits)))
        res = check_proof(sub)
        assert res.valid, (name, bits, res.message)
        assert len(sub.steps) == len(proof.steps)
        assert eval_sequent(sub.final, {})


def test_substitute_examples():
    proof = parse_proof(LIBRARY[1][1])
    subbed = substitute(proof, {1: True})
    assert subbed.final == Sequent((), (Th(1, (TOP, Not(TOP))),))
    assert check_proof(subbed).valid
    assert substitute(proof, {}) == proof


def test_substitute_formula_partial():
    f = Th(2, (Var(1), Var(2), Not(Var(1))))
    g = substitute_formula(f, {1: False})
    assert g == Th(2, (BOT, Var(2), Not(BOT)))
    assert free_vars(g) == {2}


# ------------------------------------------------- constant-formula proofs


def test_decide_top():
    proof = decide_constant_formula(TOP)
    assert check_proof(proof).valid
    assert proof.final == Sequent((), (TOP,))
    assert len(proof.steps) == 1


def test_decide_threshold_true():
    f = Th(2, (TOP, BOT, TOP))
    proof = decide_constant_formula(f)
    assert check_proof(proof).valid
    assert proof.final == Sequent((), (f,))


def test_decide_threshold_false():
    f = Th(2, (BOT, BOT, TOP))
    proof = decide_constant_formula(f)
    assert check_proof(proof).valid
    assert proof.final == Sequent((), (Not(f),))


def test_decide_rejects_variables():
    with pytest.raises(ValueError):
        decide_constant_formula(Th(1, (Var(1),)))


def _random_constant(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.25:
        return TOP if rng.random() < 0.5 else BOT
    if r < 0.5:
        return Not(_random_constant(rng, depth - 1))
    width = rng.randrange(0, 4)
    kids = tuple(_random_constant(rng, depth - 1) for _ in range(width))
    return Th(rng.randrange(0, width + 2), kids)


def test_decide_random_formulas():
    rng = random.Random(123)
    for _ in range(150):
        f = _random_constant(rng, rng.randrange(1, 5))
        proof = decide_constant_formula(f)
        res = check_proof(proof)
        assert res.valid, res.message
        want = f if eval_formula(f, {}) else Not(f)
        assert proof.final == Sequent((), (want,))
        for st in proof.steps:
            assert eval_sequent(st.seq, {})


@pytest.mark.parametrize("width,value", [(1_200, True), (1_200, False), (5_000, True)])
def test_decide_wide_threshold(width, value):
    # one level deep and `width` children: the suffixes are proved in a
    # loop, so no recursion grows with the width
    f = Th(1 if value else 2, (BOT,) * (width - 1) + (TOP,))
    proof = decide_constant_formula(f)
    assert proof.final == Sequent((), (f if value else Not(f),))
    res = check_proof(proof)
    assert res.valid, res.message


def test_decide_memoizes_repeated_subformulas():
    kids = tuple(TOP if i % 3 else BOT for i in range(24))
    wide = Th(13, kids)
    proof = decide_constant_formula(wide)
    assert check_proof(proof).valid
    assert len(proof.steps) < 3000


# ------------------------------------------------------------ text format


def test_formula_parse_format_round_trip():
    rng = random.Random(5)
    for _ in range(60):
        f = _random_constant(rng, 3)
        assert parse_formula(format_sequent(Sequent((), (f,))).
                             split("-->")[1]) == f


def test_parse_formula_examples():
    assert parse_formula("T") == TOP
    assert parse_formula("~~p12") == Not(Not(Var(12)))
    assert parse_formula("Th2(p1, ~p2, F)") == Th(2, (Var(1), Not(Var(2)), BOT))
    assert parse_formula("Th0()") == Th(0, ())


@pytest.mark.parametrize("bad", ["", "Th2(p1", "p", "Th(p1)", "T F", "q1",
                                 "p\u0663", "Th\u0661(p\u0662)"])
def test_parse_formula_rejects(bad):
    # digits are ASCII only: the Arabic-Indic p3 and Th1(p2) are refused
    with pytest.raises(ValueError):
        parse_formula(bad)


@pytest.mark.parametrize("text", [
    "\u0661: axiom |- p\u0663 --> p3",
    "1: axiom |- p1 --> p1\n2: weaken-left(\u0661) |- p1, p1 --> p1",
], ids=["step id and variable", "premise"])
def test_parse_proof_reads_ascii_digits_only(text):
    with pytest.raises(ValueError):
        parse_proof(text)


@pytest.mark.parametrize("text", [
    "\u00a0p1 --> p1",
    "p1 --> p1\u00a0",
    "p1\u00a0--> p1",
    "Th1(p1,\u00a0p2) --> p1",
    "\u2003p1, p2 --> p1",
])
def test_parse_sequent_reads_ascii_spaces_only(text):
    # a no-break or em space is no space, at an end or between tokens
    with pytest.raises(ValueError):
        parse_sequent(text)
    assert parse_sequent(text.replace("\u00a0", " ").replace("\u2003", "\t")).succ


@pytest.mark.parametrize("sep", ["\x85", "\x1c", "\x1d", "\x1e", "\u2028", "\u2029",
                                 "\x0b", "\x0c", "\r"])
def test_parse_proof_ends_lines_at_newline_only(sep):
    # str.splitlines() breaks at each of these; joined by one, the two
    # steps are one malformed line
    steps = ["1: axiom |- p1 --> p1", "2: weaken-left(1) |- p1, p1 --> p1"]
    assert len(parse_proof("\n".join(steps)).steps) == 2
    with pytest.raises(ValueError):
        parse_proof(sep.join(steps))


def test_parse_proof_reads_ascii_spaces_only():
    assert parse_proof(" \t1: axiom |- p1 --> p1\r\n").steps
    with pytest.raises(ValueError):
        parse_proof("\u00a01: axiom |- p1 --> p1")
    with pytest.raises(ValueError):
        parse_formula("p1\u00a0")


@st.composite
def _formulas(draw, depth: int = 4) -> TcFormula:
    """Any formula up to `depth` deep, over indices far past one digit."""
    kind = draw(st.sampled_from(["T", "F", "p", "~", "Th"] if depth else ["T", "F", "p"]))
    if kind in ("T", "F"):
        return TOP if kind == "T" else BOT
    if kind == "p":
        return Var(draw(st.integers(0, 10**30)))
    if kind == "~":
        return Not(draw(_formulas(depth - 1)))
    kids = draw(st.lists(_formulas(depth - 1), max_size=3))
    return Th(draw(st.integers(0, 10**30)), kids)


@given(_formulas())
def test_every_formula_reads_back_from_its_text(f):
    assert parse_formula(format_formula(f)) is f


_BAD_INDICES = [(1.5, TypeError), (2.0, TypeError), ("1", TypeError), (-1, ValueError)]


@pytest.mark.parametrize("index,error", _BAD_INDICES, ids=["1.5", "2.0", "str", "-1"])
@pytest.mark.parametrize("build", [Var, lambda i: Th(i, (TOP,))], ids=["Var", "Th"])
def test_construction_refuses_an_index_that_is_not_a_nonnegative_int(build, index, error):
    with pytest.raises(error):
        build(index)


def test_an_int_like_index_builds_the_formula_of_its_int():
    # operator.index turns an index into a plain int before the lookup, so
    # no formula keyed by 2.0 or True can stand in for the one of its int
    with pytest.raises(TypeError):
        Var(2.0)
    assert format_formula(Var(2)) == "p2"
    assert Var(True) is Var(1) and type(Var(True).index) is int
    assert Th(True, (TOP,)) is Th(1, (TOP,))
    assert format_formula(Th(True, (TOP,))) == "Th1(T)"


def test_parse_sequent():
    s = parse_sequent("p1, ~p2 --> Th1(p1)")
    assert s == Sequent((Var(1), Not(Var(2))), (Th(1, (Var(1),)),))
    assert parse_sequent(" --> ") == Sequent((), ())
    with pytest.raises(ValueError):
        parse_sequent("p1, p2")


@pytest.mark.parametrize("name,text", LIBRARY, ids=[n for n, _ in LIBRARY])
def test_proof_text_round_trip(name, text):
    proof = parse_proof(text)
    assert parse_proof(format_proof(proof)) == proof


def test_parse_proof_requires_sequential_ids():
    with pytest.raises(ValueError):
        parse_proof("2: axiom |- p1 --> p1")


def test_parse_proof_skips_comments():
    proof = parse_proof("# leading note\n1: axiom |- p1 --> p1\n\n")
    assert len(proof.steps) == 1


def _nested_not(depth: int) -> TcFormula:
    f: TcFormula = Var(1)
    for _ in range(depth):
        f = Not(f)
    return f


def _nested_th(depth: int) -> TcFormula:
    f: TcFormula = Var(1)
    for _ in range(depth):
        f = Th(1, (TOP, f))
    return f


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 400, 100_000])
@pytest.mark.parametrize("form", ["not", "th"])
def test_parse_proof_refuses_formulas_past_max_depth(depth, form):
    # the text is built directly: formatting a built formula recurses
    f = "~" * depth + "p1" if form == "not" else "Th1(T, " * depth + "p1" + ")" * depth
    for text in (f"1: axiom |- {f} --> {f}",
                 f"1: axiom |- p1 --> p1\n2: weaken-right(1) |- p1 --> p1, {f}"):
        with pytest.raises(ValueError, match=f"nests deeper than {MAX_DEPTH}"):
            parse_proof(text)


@pytest.mark.parametrize("nest", [_nested_not, _nested_th])
def test_max_depth_formulas_parse_and_check(nest):
    f = format_formula(nest(MAX_DEPTH))
    proof = parse_proof(f"1: axiom |- {f} --> {f}\n"
                        f"2: weaken-left(1) |- {f}, p1 --> {f}\n")
    assert check_proof(proof) == CheckResult(True)


# each chain wraps its formula once a step, so step k builds depth k
_CHAINS = {
    "not": (Var(1), Not),
    "th": (Var(1), lambda f: Th(1, (TOP, f))),
    "constant": (BOT, lambda f: Th(1, (f,))),
    "shared": (TOP, lambda f: Th(2, (f, f))),  # 2^k paths, k + 1 nodes
}


def _deepest(chain: str, steps: int) -> TcFormula:
    """The last formula that a `steps`-step loop over the chain builds.
    Construction must refuse step MAX_DEPTH + 1, with a message that names
    no formula, and must store nothing for it, so that building it again
    is refused again.  Depths are compared, never formulas, so that a
    failure does not print one with 2^100 paths."""
    f, wrap = _CHAINS[chain]
    depths = []
    with pytest.raises(ValueError) as refused:
        for _ in range(steps):
            f = wrap(f)
            depths.append(f.depth)
    assert str(refused.value) == f"formula nests deeper than {MAX_DEPTH}"
    assert depths == list(range(1, MAX_DEPTH + 1))
    with pytest.raises(ValueError, match=f"^formula nests deeper than {MAX_DEPTH}$"):
        wrap(f)
    return f


@pytest.mark.parametrize("chain", sorted(_CHAINS))
def test_no_formula_nests_past_max_depth(chain):
    assert _deepest(chain, 100_000).depth == MAX_DEPTH


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 400, 100_000])
@pytest.mark.parametrize("nest", [_nested_not, _nested_th])
def test_check_proof_rejects_built_formulas_past_max_depth(depth, nest):
    # check_proof has no depth verdict of its own: a formula past the
    # bound is refused while it is built, so no step can hold one, and a
    # step holding the deepest one is judged by its rule alone
    with pytest.raises(ValueError, match=f"^formula nests deeper than {MAX_DEPTH}$"):
        nest(depth)
    f = nest(MAX_DEPTH)
    ok = ProofStep(Sequent((Var(1),), (Var(1),)), "axiom")
    assert check_proof(TcProof((ProofStep(Sequent((f,), (f,)), "axiom"),))) == CheckResult(True)
    for rule, want in [("weaken-right", CheckResult(True)),
                       ("weaken-left", CheckResult(False, 1, "step 2: weaken-left: premise "
                                                  "1 (step 1) differs in its antecedent"))]:
        step = ProofStep(Sequent((Var(1),), (f, Var(1))), rule, (0,))
        assert check_proof(TcProof((ok, step))) == want


def test_check_proof_depth_walk_visits_shared_subformulas_once():
    # no depth walk is left: depths are set at construction, which refuses
    # the shared chain's step 101, and check_proof reads none of the 2^100
    # paths of the deepest one
    f = _deepest("shared", 100_000)
    steps = (ProofStep(Sequent((f,), (f,)), "axiom"),
             ProofStep(Sequent((f, Var(1)), (f,)), "weaken-left", (0,)))
    start = time.perf_counter()
    res = check_proof(TcProof(steps))
    assert time.perf_counter() - start < 1.0
    assert res == CheckResult(True)


def _constant_chain(depth: int, leaf: TcFormula) -> TcFormula:
    f = leaf
    for _ in range(depth):
        f = Th(1, (f,))
    return f


@pytest.mark.parametrize("depth", [MAX_DEPTH - 1, MAX_DEPTH])
@pytest.mark.parametrize("leaf", [TOP, BOT], ids=["true", "false"])
def test_decided_proofs_up_to_max_depth_check(depth, leaf):
    f = _constant_chain(depth, leaf)
    proof = decide_constant_formula(f)
    res = check_proof(proof)
    assert res.valid, res.message
    if leaf == TOP:
        assert proof.final == Sequent((), (f,))
    elif depth < MAX_DEPTH:
        assert proof.final == Sequent((), (Not(f),))
    else:
        # --> ~f would nest past the bound, so the refutation ends at f -->
        assert proof.final == Sequent((f,), ())


_WALKERS = {
    "free_vars": free_vars,
    "eval_formula": lambda f: eval_formula(f, {1: True}),
    "format_formula": format_formula,
    "decide_constant_formula": lambda f: decide_constant_formula(
        substitute_formula(f, {1: True})),
    "substitute_formula": lambda f: substitute_formula(f, {1: True}),
    "substitute": lambda f: substitute(
        TcProof((ProofStep(Sequent((f,), (f,)), "axiom"),)), {1: True}),
}


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1_000, 100_000])
@pytest.mark.parametrize("chain", ["not", "th", "constant"])
@pytest.mark.parametrize("walker", sorted(_WALKERS))
def test_walkers_refuse_formulas_past_max_depth(walker, chain, depth):
    # the walkers have no depth check of their own: construction stops
    # each chain at MAX_DEPTH, and they walk the deepest formula it builds
    _WALKERS[walker](_deepest(chain, depth))


@pytest.mark.parametrize("nest", [_nested_not, _nested_th])
def test_walkers_take_max_depth_formulas(nest):
    f = nest(MAX_DEPTH)
    assert free_vars(f) == {1}
    # an even number of negations; Th1(T, .) is true whatever p1 is
    assert eval_formula(f, {1: True})
    assert eval_formula(f, {1: False}) == (nest is _nested_th)
    assert parse_formula(format_formula(f)) == f


def _doubling_chain(depth: int, shared: bool) -> TcFormula:
    """f <- Th2(f, f, p_(k mod 3 + 1)) over p1, depth times: one node per
    level when shared, a tree of 2^depth copies of p1 when not."""
    if depth == 0:
        return Var(1)
    below = _doubling_chain(depth - 1, shared)
    other = below if shared else _doubling_chain(depth - 1, shared)
    return Th(2, (below, other, Var(depth % 3 + 1)))


class _LookupBudget(dict):
    """An assignment that fails at its lookup number `budget` + 1."""

    def __init__(self, pairs, budget: int):
        super().__init__(pairs)
        self.budget = budget

    def __getitem__(self, key):
        self.budget -= 1
        assert self.budget >= 0, "a variable was looked up more than once"
        return super().__getitem__(key)


def test_walkers_visit_each_shared_subformula_once():
    # the chain has 2^60 paths: a walker that follows each one fails first
    # here, at its lookup budget, on the sharing of a small rebuild or on
    # the time of a 24-deep walk, instead of running on or building 2^60 nodes
    small = substitute_formula(_doubling_chain(3, shared=True), {1: True})
    assert small.children[0] is small.children[1]
    start = time.perf_counter()
    assert free_vars(_doubling_chain(24, shared=True)) == {1, 2, 3}
    assert time.perf_counter() - start < 1.0
    f = _doubling_chain(60, shared=True)
    start = time.perf_counter()
    for bits in itertools.product((False, True), repeat=3):
        # 61 Var objects, each looked up at most once
        assert eval_formula(f, _LookupBudget(zip((1, 2, 3), bits), 61)) == bits[0]
    g = substitute_formula(f, {1: False, 3: True})
    assert free_vars(f) == {1, 2, 3}
    assert time.perf_counter() - start < 1.0
    # the output keeps the sharing: one node per level
    for _ in range(60):
        assert g.children[0] is g.children[1]
        g = g.children[0]
    assert g == BOT


def test_shared_and_tree_formulas_walk_alike():
    dag, tree = _doubling_chain(10, shared=True), _doubling_chain(10, shared=False)
    assert dag == tree
    assert free_vars(dag) == free_vars(tree) == {1, 2, 3}
    for bits in itertools.product((False, True), repeat=3):
        env = dict(zip((1, 2, 3), bits))
        assert eval_formula(dag, env) == eval_formula(tree, env)
        for keep in range(4):
            part = dict(itertools.islice(env.items(), keep))
            assert substitute_formula(dag, part) == substitute_formula(tree, part)


def test_shared_formulas_hash_once():
    # formulas are interned and hash by id, so hashing, and the emitter's
    # memo that hashes formulas, cost one step whatever the formula's size
    dag, tree = _doubling_chain(10, shared=True), _doubling_chain(10, shared=False)
    assert hash(dag) == hash(tree) and dag == tree
    f: TcFormula = TOP
    for _ in range(60):
        f = Th(2, (f, f))
    for run in (lambda: hash(f), lambda: decide_constant_formula(f)):
        start = time.perf_counter()
        run()
        assert time.perf_counter() - start < 1.0
    proof = decide_constant_formula(f)
    start = time.perf_counter()
    assert check_proof(proof).valid
    assert time.perf_counter() - start < 1.0


def test_check_proof_scans_a_wide_threshold_once():
    # the proof holds about 4 * 5 000 steps over the 5 001 suffixes of one
    # wide Th; each suffix's depth is set when it is built, so a step reads
    # it instead of walking the children.  Re-walking every child at every
    # step took several seconds.  Interning hashes each new suffix's
    # children, so building the proof is timed too.
    f = Th(1, (BOT,) * 5_000 + (TOP,))
    build_times, check_times = [], []
    for _ in range(3):  # the best of three runs, against a busy machine
        proof = None  # free the last run's suffixes, so each build is new
        start = time.perf_counter()
        proof = decide_constant_formula(f)
        build_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        assert check_proof(proof).valid
        check_times.append(time.perf_counter() - start)
    assert min(build_times) < 2.0
    assert min(check_times) < 1.0


@pytest.mark.parametrize("depth", [MAX_DEPTH - 1, MAX_DEPTH])
def test_a_children_tuple_known_from_an_earlier_step_still_counts_its_head(depth):
    # step 2's Th puts a deep head in front of step 1's children, so its
    # depth is the head's plus one, not that of step 1's Th; one past the
    # bound is refused while it is built, though step 1's Th is live
    tail = (Var(1), TOP)
    first = Th(1, tail)
    head = _nested_not(depth)
    if depth < MAX_DEPTH:
        wide = Th(1, (head,) + tail)
        assert wide.depth == depth + 1
        steps = (ProofStep(Sequent((first,), (first,)), "axiom"),
                 ProofStep(Sequent((first, wide), (first,)), "weaken-left", (0,)))
        assert check_proof(TcProof(steps)) == CheckResult(True)
    else:
        with pytest.raises(ValueError, match=f"^formula nests deeper than {MAX_DEPTH}$"):
            Th(1, (head,) + tail)
    assert first.depth == 1


# --------------------------------------------------------------- interning


def _pair_chain(depth: int) -> TcFormula:
    """f <- Th2(f, f) over T, depth times."""
    f: TcFormula = TOP
    for _ in range(depth):
        f = Th(2, (f, f))
    return f


def test_equal_formulas_are_one_object():
    a = Var(3)
    assert Var(3) is a and Var(index=3) is a
    assert Th(1, [a]) is Th(1, (a,)) is Th(i=1, children=iter([a]))
    assert Not(a) is Not(child=a)
    assert Top() is TOP and Bot() is BOT
    # ids of live formulas, so that a failure does not print 2^60 paths
    pairs = [(_doubling_chain(12, shared=False), _doubling_chain(12, shared=True)),
             (_pair_chain(60), _pair_chain(60))]
    assert [id(x) == id(y) for x, y in pairs] == [True, True]
    assert Th(1, (a,)) is not Th(2, (a,)) and Var(3) is not Var(4)


@pytest.mark.parametrize("f", [TOP, Var(1), Not(Var(1)), Th(1, (TOP,))], ids=repr)
def test_formulas_are_immutable(f):
    for name in ("depth", "index", "child", "i", "children", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, 0)
    with pytest.raises(AttributeError):
        del f.depth


def test_a_dropped_formula_is_freed():
    f = Th(7, (Not(Var(12_345)), TOP))
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_threads_building_equal_formulas_get_one_object():
    # more threads than cores, switching often: a thread that looked a
    # formula up and inserted it around another's insert would keep its
    # own copy
    results: list[list[TcFormula]] = []

    def build() -> None:
        results.append([Th(k % 3, (Var(50_000 + k), Not(Var(50_000 + k))))
                        for k in range(3_000)])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and len(results) == 8
    assert all(len({id(f) for f in built}) == 1 for built in zip(*results))


def test_depth_is_set_at_construction():
    assert TOP.depth == BOT.depth == Var(1).depth == Th(1, ()).depth == 0
    assert Not(Var(1)).depth == 1
    assert Th(1, (TOP, _nested_not(5), Var(2))).depth == 6
    assert _nested_th(MAX_DEPTH).depth == MAX_DEPTH
    with pytest.raises(ValueError, match=f"^formula nests deeper than {MAX_DEPTH}$"):
        _nested_th(100_000)


def test_decided_proof_formulas_have_their_depths():
    # the emitter builds a wide Th's suffixes from depths it tracks itself
    inner = Th(1, (BOT, Th(2, (TOP, Not(BOT), Th(0, ())))))
    f = Th(2, (Not(Not(BOT)), TOP, _constant_chain(5, TOP), BOT, inner))
    for step in decide_constant_formula(f).steps:
        for g in step.seq.ante + step.seq.succ:
            kids = g.children if isinstance(g, Th) else (g.child,) if isinstance(g, Not) else ()
            assert g.depth == 1 + max((ch.depth for ch in kids), default=-1)


def test_separately_built_equal_formulas_compare_at_once():
    # two 60-deep chains built apart: compared by structure, their 2^60
    # paths would take longer than any run
    x, y = _pair_chain(60), _pair_chain(60)
    same = x is y  # asserted by name: a failure must not print the formulas
    assert same
    proof = TcProof((ProofStep(Sequent((x,), (x,)), "axiom"),
                     ProofStep(Sequent((y, Var(1)), (x,)), "weaken-left", (0,))))
    start = time.perf_counter()
    assert check_proof(proof) == CheckResult(True)
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------- differential reference
#
# The checker before premise builders: fifteen matchers, each testing its
# rule's shape on the cited premises, and an arity table.  check_proof
# must give the same (valid, step) on every proof below.


def _ref_is_axiom(s: Sequent) -> str | None:
    if len(s.ante) == 1 and s.ante == s.succ:
        return None
    if s.ante == (BOT,) and not s.succ:
        return None
    if not s.ante and s.succ == (TOP,):
        return None
    # boundary shapes: Th_0(...) is T, Th_i(...) with i > n is F
    if not s.ante and len(s.succ) == 1:
        f = s.succ[0]
        if isinstance(f, Th) and f.i == 0:
            return None
    if not s.succ and len(s.ante) == 1:
        f = s.ante[0]
        if isinstance(f, Th) and f.i > len(f.children):
            return None
    return "not an axiom sequent"


def _ref_weaken_left(ps: Sequence[Sequent], s: Sequent) -> str | None:
    (p,) = ps
    if s.succ != p.succ:
        return "succedent changed"
    if len(s.ante) != len(p.ante) + 1 or s.ante[:-1] != p.ante:
        return "antecedent is not the premise's plus one formula at the end"
    return None


def _ref_weaken_right(ps: Sequence[Sequent], s: Sequent) -> str | None:
    (p,) = ps
    if s.ante != p.ante:
        return "antecedent changed"
    if len(s.succ) != len(p.succ) + 1 or s.succ[1:] != p.succ:
        return "succedent is not one formula plus the premise's"
    return None


def _ref_swapped(seq: tuple, i: int) -> tuple:
    return seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:]


def _ref_exchange_left(ps: Sequence[Sequent], s: Sequent) -> str | None:
    (p,) = ps
    if s.succ != p.succ:
        return "succedent changed"
    if len(s.ante) != len(p.ante):
        return "antecedent length changed"
    if any(_ref_swapped(p.ante, i) == s.ante for i in range(len(p.ante) - 1)):
        return None
    return "not an adjacent transposition of the premise antecedent"


def _ref_exchange_right(ps: Sequence[Sequent], s: Sequent) -> str | None:
    (p,) = ps
    if s.ante != p.ante:
        return "antecedent changed"
    if len(s.succ) != len(p.succ):
        return "succedent length changed"
    if any(_ref_swapped(p.succ, i) == s.succ for i in range(len(p.succ) - 1)):
        return None
    return "not an adjacent transposition of the premise succedent"


def _ref_contract_left(ps: Sequence[Sequent], s: Sequent) -> str | None:
    (p,) = ps
    if s.succ != p.succ:
        return "succedent changed"
    if not s.ante or p.ante != s.ante + (s.ante[-1],):
        return "premise antecedent must end with the duplicated formula"
    return None


def _ref_contract_right(ps: Sequence[Sequent], s: Sequent) -> str | None:
    (p,) = ps
    if s.ante != p.ante:
        return "antecedent changed"
    if not s.succ or p.succ != (s.succ[0],) + s.succ:
        return "premise succedent must start with the duplicated formula"
    return None


def _ref_not_left(ps: Sequence[Sequent], s: Sequent) -> str | None:
    (p,) = ps
    if not s.ante or not isinstance(s.ante[-1], Not):
        return "conclusion antecedent must end with a negation"
    a = s.ante[-1].child
    if p.ante != s.ante[:-1]:
        return "premise antecedent mismatch"
    if p.succ != (a,) + s.succ:
        return "premise succedent must start with the negated formula"
    return None


def _ref_not_right(ps: Sequence[Sequent], s: Sequent) -> str | None:
    (p,) = ps
    if not s.succ or not isinstance(s.succ[0], Not):
        return "conclusion succedent must start with a negation"
    a = s.succ[0].child
    if p.succ != s.succ[1:]:
        return "premise succedent mismatch"
    if p.ante != s.ante + (a,):
        return "premise antecedent must end with the negated formula"
    return None


def _ref_th_head(seq: tuple[TcFormula, ...], want_i=None) -> Th | None:
    if seq and isinstance(seq[0], Th):
        f = seq[0]
        if want_i is None or f.i == want_i:
            return f
    return None


def _ref_all_left(ps: Sequence[Sequent], s: Sequent) -> str | None:
    f = _ref_th_head(s.ante)
    if f is None or f.i != len(f.children):
        return "conclusion antecedent must start with Th_n over n children"
    (p,) = ps
    if p.succ != s.succ:
        return "succedent changed"
    if p.ante != f.children + s.ante[1:]:
        return "premise antecedent must list all children then the context"
    return None


def _ref_all_right(ps: Sequence[Sequent], s: Sequent) -> str | None:
    f = _ref_th_head(s.succ)
    if f is None or f.i != len(f.children):
        return "conclusion succedent must start with Th_n over n children"
    if len(ps) != len(f.children):
        return f"need {len(f.children)} premises, got {len(ps)}"
    for j, p in enumerate(ps):
        if p.ante != s.ante:
            return f"premise {j}: antecedent changed"
        if p.succ != (f.children[j],) + s.succ[1:]:
            return f"premise {j}: succedent must start with child {j}"
    return None


def _ref_one_left(ps: Sequence[Sequent], s: Sequent) -> str | None:
    f = _ref_th_head(s.ante, want_i=1)
    if f is None:
        return "conclusion antecedent must start with Th_1"
    if len(ps) != len(f.children):
        return f"need {len(f.children)} premises, got {len(ps)}"
    for j, p in enumerate(ps):
        if p.succ != s.succ:
            return f"premise {j}: succedent changed"
        if p.ante != (f.children[j],) + s.ante[1:]:
            return f"premise {j}: antecedent must start with child {j}"
    return None


def _ref_one_right(ps: Sequence[Sequent], s: Sequent) -> str | None:
    f = _ref_th_head(s.succ, want_i=1)
    if f is None:
        return "conclusion succedent must start with Th_1"
    (p,) = ps
    if p.ante != s.ante:
        return "antecedent changed"
    if p.succ != f.children + s.succ[1:]:
        return "premise succedent must list all children then the context"
    return None


def _ref_th_left(ps: Sequence[Sequent], s: Sequent) -> str | None:
    f = _ref_th_head(s.ante)
    if f is None or f.i < 1 or not f.children:
        return "conclusion antecedent must start with Th_i, i >= 1, n >= 1"
    p1, p2 = ps
    tail = f.children[1:]
    if p1.succ != s.succ or p2.succ != s.succ:
        return "succedent changed"
    if p1.ante != (Th(f.i, tail),) + s.ante[1:]:
        return "first premise must drop the head child"
    if p2.ante != (Th(f.i - 1, tail), f.children[0]) + s.ante[1:]:
        return "second premise must lower the threshold and expose the head"
    return None


def _ref_th_right(ps: Sequence[Sequent], s: Sequent) -> str | None:
    f = _ref_th_head(s.succ)
    if f is None or f.i < 1 or not f.children:
        return "conclusion succedent must start with Th_i, i >= 1, n >= 1"
    p1, p2 = ps
    tail = f.children[1:]
    if p1.ante != s.ante or p2.ante != s.ante:
        return "antecedent changed"
    if p1.succ != (Th(f.i, tail), f.children[0]) + s.succ[1:]:
        return "first premise must drop the head child and expose it"
    if p2.succ != (Th(f.i - 1, tail),) + s.succ[1:]:
        return "second premise must lower the threshold"
    return None


def _ref_cut(ps: Sequence[Sequent], s: Sequent) -> str | None:
    p1, p2 = ps
    if not p1.succ:
        return "first premise succedent is empty"
    a = p1.succ[0]
    if p1.ante != s.ante or p1.succ != (a,) + s.succ:
        return "first premise must be the conclusion with the cut formula in front"
    if p2.ante != s.ante + (a,) or p2.succ != s.succ:
        return "second premise must be the conclusion with the cut formula at the end"
    return None


REFERENCE_RULES: dict[str, tuple[int | None, Callable]] = {
    "weaken-left": (1, _ref_weaken_left),
    "weaken-right": (1, _ref_weaken_right),
    "exchange-left": (1, _ref_exchange_left),
    "exchange-right": (1, _ref_exchange_right),
    "contract-left": (1, _ref_contract_left),
    "contract-right": (1, _ref_contract_right),
    "not-left": (1, _ref_not_left),
    "not-right": (1, _ref_not_right),
    "all-left": (1, _ref_all_left),
    "all-right": (None, _ref_all_right),  # premise count depends on n
    "one-left": (None, _ref_one_left),
    "one-right": (1, _ref_one_right),
    "th-left": (2, _ref_th_left),
    "th-right": (2, _ref_th_right),
    "cut": (2, _ref_cut),
}


def reference_check_proof(proof: TcProof) -> CheckResult:
    """The checker's predecessor: one hand-written matcher per rule, with
    its own arity table."""
    for idx, step in enumerate(proof.steps):
        if step.rule == "axiom":
            if step.premises:
                return CheckResult(False, idx, f"step {idx + 1}: axiom with premises")
            why = _ref_is_axiom(step.seq)
            if why:
                return CheckResult(False, idx, f"step {idx + 1}: {why}")
            continue
        if step.rule not in REFERENCE_RULES:
            return CheckResult(False, idx, f"step {idx + 1}: unknown rule {step.rule!r}")
        arity, matcher = REFERENCE_RULES[step.rule]
        if any(not 0 <= p < idx for p in step.premises):
            return CheckResult(
                False, idx, f"step {idx + 1}: premise does not precede the step"
            )
        if arity is not None and len(step.premises) != arity:
            return CheckResult(
                False,
                idx,
                f"step {idx + 1}: {step.rule} takes {arity} premise(s), "
                f"got {len(step.premises)}",
            )
        prem_seqs = [proof.steps[p].seq for p in step.premises]
        why = matcher(prem_seqs, step.seq)
        if why:
            return CheckResult(False, idx, f"step {idx + 1}: {step.rule}: {why}")
    if not proof.steps:
        return CheckResult(False, None, "empty proof")
    return CheckResult(True)



def _same_verdict(proof):
    got, want = check_proof(proof), reference_check_proof(proof)
    assert (got.valid, got.step) == (want.valid, want.step), (got, want)


def test_reference_has_the_same_rules():
    assert set(REFERENCE_RULES) == set(RULES)


@pytest.mark.parametrize("name,text", LIBRARY, ids=[n for n, _ in LIBRARY])
def test_library_and_its_mutants_match_reference(name, text):
    proof = parse_proof(text)
    _same_verdict(proof)
    for mutant in _mutants(proof):
        _same_verdict(mutant)


def _decided(seed, count):
    rng = random.Random(seed)
    return [decide_constant_formula(_random_constant(rng, rng.randrange(1, 5)))
            for _ in range(count)]


def test_decided_proofs_match_reference():
    for proof in _decided(7, 200):
        _same_verdict(proof)


# Steps one edit away from a valid inference, each rejected at its last
# line: a threshold of the wrong shape for its rule (th-left needs i >= 1
# and a child to expose), an axiom just past a boundary, and an exchange
# citing itself where the swap is the identity.
NEAR_MISSES = [
    "1: axiom |- p1 --> p1\n2: one-left(1, 1) |- Th2(p1, p1) --> p1",
    "1: axiom |- p1 --> p1\n2: weaken-left(1) |- p1, p1 --> p1\n"
    "3: all-left(2) |- Th1(p1, p1) --> p1",
    "1: axiom |- p1 --> p1\n2: all-right(1, 1) |- p1 --> Th1(p1, p1)",
    "1: axiom |- p1 --> p1\n2: weaken-right(1) |- p1 --> p1, p1\n"
    "3: one-right(2) |- p1 --> Th2(p1, p1)",
    "1: axiom |- Th1() -->\n2: th-left(1, 1) |- Th1() -->",
    "1: axiom |- p1 --> p1\n2: weaken-left(1) |- p1, T --> p1\n"
    "3: exchange-left(2) |- T, p1 --> p1\n4: weaken-left(3) |- T, p1, Th0() --> p1\n"
    "5: exchange-left(4) |- T, Th0(), p1 --> p1\n6: exchange-left(5) |- Th0(), T, p1 --> p1\n"
    "7: weaken-left(1) |- p1, Th1() --> p1\n8: exchange-left(7) |- Th1(), p1 --> p1\n"
    "9: th-left(8, 6) |- Th1(), p1 --> p1",
    "1: axiom |- Th2(p1, p2) -->",
    "1: axiom |-  --> Th1()",
    "1: axiom |- p1 --> p1\n2: weaken-left(1) |- p1, p1 --> p1\n"
    "3: exchange-left(3) |- p1, p1 --> p1",
]


@pytest.mark.parametrize("text", NEAR_MISSES)
def test_near_misses_match_reference(text):
    proof = parse_proof(text)
    res = check_proof(proof)
    assert not res.valid and res.step == len(proof.steps) - 1, res
    _same_verdict(proof)


_BASES = [parse_proof(text) for _, text in LIBRARY] + _decided(11, 20)
_RULE_NAMES = sorted(RULES) + ["axiom", "bogus"]


@st.composite
def _mutated_proofs(draw):
    """A library or decided proof with one to three edits: a rule swap, a
    premise retarget, a formula added to a side, a side shuffled, or the
    sides swapped."""
    steps = list(draw(st.sampled_from(_BASES)).steps)
    pool = sorted({f for s in steps for f in s.seq.ante + s.seq.succ}, key=repr)
    for _ in range(draw(st.integers(1, 3))):
        idx = draw(st.integers(0, len(steps) - 1))
        seq, rule, prem = steps[idx].seq, steps[idx].rule, steps[idx].premises
        kind = draw(st.sampled_from(["rule", "retarget", "add", "shuffle", "swap"]))
        if kind == "rule":
            rule = draw(st.sampled_from(_RULE_NAMES))
        elif kind == "retarget" and prem and draw(st.booleans()):
            j = draw(st.integers(0, len(prem) - 1))
            prem = prem[:j] + (draw(st.integers(-1, idx)),) + prem[j + 1:]
        elif kind == "retarget":
            prem = tuple(draw(st.lists(st.integers(-1, idx), max_size=3)))
        elif kind == "add":
            f = draw(st.sampled_from(pool + [FRESH]))
            left = draw(st.booleans())
            side = seq.ante if left else seq.succ
            k = draw(st.integers(0, len(side)))
            side = side[:k] + (f,) + side[k:]
            seq = Sequent(side, seq.succ) if left else Sequent(seq.ante, side)
        elif kind == "shuffle":
            seq = Sequent(tuple(draw(st.permutations(seq.ante))),
                          tuple(draw(st.permutations(seq.succ))))
        else:
            seq = Sequent(seq.succ, seq.ante)
        steps[idx] = ProofStep(seq, rule, prem)
    return TcProof(tuple(steps))


@settings(max_examples=600)
@given(_mutated_proofs())
def test_mutated_proofs_match_reference(proof):
    _same_verdict(proof)
