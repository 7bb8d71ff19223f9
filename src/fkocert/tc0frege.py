"""Sequent calculus with threshold connectives, plus a proof checker.

Formulas are built from constants T/F, variables p_i, negation, and
threshold connectives Th_i(A_1,...,A_n), true when at least i children
are true; boundary semantics make Th_0(...) true and Th_i(...) with
i > n false.  Every formula is valid by construction: building one with
an index that is not a nonnegative int, or one nesting past MAX_DEPTH,
raises.  So nothing that takes a formula checks it again, no walk
recurses past the bound, and a formula's text parses back to it.
Sequents are ordered pairs of formula sequences; position bookkeeping is
explicit (exchange/contraction are rules, not conventions), so every
inference has to match its rule shape exactly.

`check_proof` validates a proof line by line; `decide_constant_formula`
produces, for any variable-free formula, a checkable proof of it or of
its negation; `substitute` maps variables to constants throughout a
proof, which preserves validity (every rule derives its premises from
its conclusion by structural operations, and substitution commutes with
them and preserves equality).

Proof text format (one step per line, 1-based ids, ASCII digits):

    1: axiom |- p1 --> p1
    2: not-right(1) |-  --> ~p1, p1
    3: exchange-right(2) |-  --> p1, ~p1
    4: one-right(3) |-  --> Th1(p1, ~p1)
"""

from __future__ import annotations

import operator
import re
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

__all__ = [
    "TcFormula",
    "Top",
    "Bot",
    "Var",
    "Not",
    "Th",
    "TOP",
    "BOT",
    "Sequent",
    "ProofStep",
    "TcProof",
    "CheckResult",
    "RULES",
    "MAX_DEPTH",
    "free_vars",
    "eval_formula",
    "eval_sequent",
    "check_proof",
    "substitute_formula",
    "substitute",
    "decide_constant_formula",
    "parse_formula",
    "format_formula",
    "parse_sequent",
    "format_sequent",
    "parse_proof",
    "format_proof",
]


# nesting bound, far above the constant depth of TC0 formulas; no formula
# nests deeper, so no walk over one recurses past it
MAX_DEPTH = 100
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# held from lookup to insertion, so that two threads building one formula
# get one object; re-entrant, since a collection run while it is held may
# call finalizers that build formulas
_INTERNED_LOCK = threading.RLock()
_depth = operator.attrgetter("depth")


class _Formula:
    """An interned, immutable formula node.

    Building a formula equal to a live one returns that object, so equal
    formulas are identical: == is `is` and the hash is by id, and both cost
    O(1) however the formula shares its subformulas.  The table holds its
    formulas weakly, keyed by class and fields.  `depth` is the nesting
    depth, set at construction from the children's: 0 for a leaf, else 1 +
    the largest child depth, and never above MAX_DEPTH."""

    __slots__ = ("depth", "__weakref__")

    def __new__(cls) -> TcFormula:  # Top and Bot; Var, Not and Th take fields
        return _intern(cls)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"formulas are immutable: cannot assign to {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"formulas are immutable: cannot delete {name!r}")


def _children(f: TcFormula) -> tuple[TcFormula, ...]:
    return f.children if isinstance(f, Th) else (f.child,) if isinstance(f, Not) else ()


def _intern(cls: type, *fields: object, depth: int | None = None) -> TcFormula:
    """The live formula of class cls with these fields, in slot order, or
    a new one, which alone reads its children for its depth, unless given
    it; ValueError, storing nothing, when that depth passes MAX_DEPTH."""
    key = (cls, *fields)
    with _INTERNED_LOCK:
        f = _INTERNED.get(key)
        if f is None:
            f = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(f, name, value)
            if depth is None:
                depth = 1 + max(map(_depth, _children(f)), default=-1)
            if depth > MAX_DEPTH:
                raise ValueError(f"formula nests deeper than {MAX_DEPTH}")
            object.__setattr__(f, "depth", depth)
            _INTERNED[key] = f
        return f


class Top(_Formula):
    __slots__ = ()

    def __repr__(self) -> str:
        return "T"


class Bot(_Formula):
    __slots__ = ()

    def __repr__(self) -> str:
        return "F"


class Var(_Formula):
    __slots__ = ("index",)

    def __new__(cls, index: int) -> Var:
        index = operator.index(index)
        if index < 0:
            raise ValueError("variable index must be nonnegative")
        return _intern(cls, index)

    def __repr__(self) -> str:
        return f"p{self.index}"


class Not(_Formula):
    __slots__ = ("child",)

    def __new__(cls, child: TcFormula) -> Not:
        return _intern(cls, child)

    def __repr__(self) -> str:
        return f"~{self.child!r}"


class Th(_Formula):
    __slots__ = ("i", "children")

    def __new__(cls, i: int, children: Iterable[TcFormula]) -> Th:
        i = operator.index(i)
        if i < 0:
            raise ValueError("threshold index must be nonnegative")
        return _intern(cls, i, tuple(children))

    def __repr__(self) -> str:
        return f"Th{self.i}({', '.join(map(repr, self.children))})"


TcFormula = Top | Bot | Var | Not | Th
T = TypeVar("T")
TOP = Top()
BOT = Bot()


def _once(visit: Callable[[TcFormula, Callable], T]) -> Callable[[TcFormula], T]:
    """The walk f -> visit(f, walk), memoised by id: a shared subformula
    costs one visit, not one per path to it, and its result is shared."""
    memo: dict[int, T] = {}

    def walk(f: TcFormula) -> T:
        if id(f) not in memo:
            memo[id(f)] = visit(f, walk)
        return memo[id(f)]

    return walk


def free_vars(f: TcFormula) -> set[int]:
    """Variable indices in f."""

    def names(f: TcFormula, walk: Callable[[TcFormula], set[int]]) -> set[int]:
        return {f.index} if isinstance(f, Var) else set().union(*map(walk, _children(f)))

    return _once(names)(f)


def eval_formula(f: TcFormula, assignment: Mapping[int, bool]) -> bool:
    """f's truth value; ValueError on an unbound variable."""

    def value(f: TcFormula, walk: Callable[[TcFormula], bool]) -> bool:
        if isinstance(f, Top):
            return True
        if isinstance(f, Bot):
            return False
        if isinstance(f, Var):
            if f.index not in assignment:
                raise ValueError(f"unbound variable p{f.index}")
            return bool(assignment[f.index])
        if isinstance(f, Not):
            return not walk(f.child)
        if isinstance(f, Th):
            need = f.i
            if need == 0:
                return True
            true_so_far = 0
            for ch in f.children:
                if walk(ch):
                    true_so_far += 1
                    if true_so_far >= need:
                        return True
            return False
        raise TypeError(f"not a formula: {f!r}")

    return _once(value)(f)


@dataclass(frozen=True)
class Sequent:
    ante: tuple[TcFormula, ...]
    succ: tuple[TcFormula, ...]

    def __repr__(self) -> str:
        return format_sequent(self)


def eval_sequent(seq: Sequent, assignment: Mapping[int, bool]) -> bool:
    """Conjunction of the antecedent implies disjunction of the succedent."""
    if not all(eval_formula(a, assignment) for a in seq.ante):
        return True
    return any(eval_formula(s, assignment) for s in seq.succ)


@dataclass(frozen=True)
class ProofStep:
    seq: Sequent
    rule: str
    premises: tuple[int, ...] = ()


@dataclass(frozen=True)
class TcProof:
    steps: tuple[ProofStep, ...]

    @property
    def final(self) -> Sequent:
        return self.steps[-1].seq


@dataclass(frozen=True)
class CheckResult:
    valid: bool
    step: int | None = None
    message: str | None = None

    def __bool__(self) -> bool:
        return self.valid


# --------------------------------------------------------------- rule table
#
# Each rule is a premise builder: from the conclusion it derives the
# premise sequents the rule needs, or None when the conclusion has no
# principal formula for the rule.  It also gets the cited premises, but
# only exchange (to pick the swap) and cut (to read the cut formula) look
# at them.  check_proof compares the derived premises with the cited ones,
# so a rule's shape lives in one place and its arity is their count.

Builder = Callable[[Sequent, Sequence[Sequent]], list[Sequent] | None]


def _axiom(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    """A --> A, F -->, --> T, and the boundary shapes --> Th_0(...) and
    Th_i(...) --> with i > n; no premises."""
    if len(s.ante) == 1 and s.ante == s.succ:
        return []
    if not s.ante and len(s.succ) == 1:
        f = s.succ[0]
        ok = isinstance(f, Top) or isinstance(f, Th) and f.i == 0
    elif not s.succ and len(s.ante) == 1:
        f = s.ante[0]
        ok = isinstance(f, Bot) or isinstance(f, Th) and f.i > len(f.children)
    else:
        ok = False
    return [] if ok else None


def _weaken_left(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    return [Sequent(s.ante[:-1], s.succ)] if s.ante else None


def _swapped(seq: tuple, i: int) -> tuple:
    return seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:]


def _exchange_left(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    """Swaps the adjacent pair that gives the cited premise's antecedent,
    or the first pair when none does."""
    if len(s.ante) < 2:
        return None
    cited = ps[0].ante if ps else None
    i = next((i for i in range(len(s.ante) - 1) if _swapped(s.ante, i) == cited), 0)
    return [Sequent(_swapped(s.ante, i), s.succ)]


def _contract_left(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    return [Sequent(s.ante + s.ante[-1:], s.succ)] if s.ante else None


def _not_left(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    if not s.ante or not isinstance(s.ante[-1], Not):
        return None
    return [Sequent(s.ante[:-1], (s.ante[-1].child,) + s.succ)]


def _mirror(s: Sequent) -> Sequent:
    """Sides swapped and reversed: the head of the succedent becomes the
    end of the antecedent."""
    return Sequent(s.succ[::-1], s.ante[::-1])


def _mirrored(left: Builder) -> Builder:
    """The right rule of a left rule: the left rule read through _mirror."""

    def right(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
        want = left(_mirror(s), [_mirror(p) for p in ps])
        return None if want is None else [_mirror(p) for p in want]

    return right


def _th_head(side: tuple[TcFormula, ...]) -> Th | None:
    return side[0] if side and isinstance(side[0], Th) else None


def _all_left(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    f = _th_head(s.ante)
    if f is None or f.i != len(f.children):
        return None
    return [Sequent(f.children + s.ante[1:], s.succ)]


def _all_right(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    f = _th_head(s.succ)
    if f is None or f.i != len(f.children):
        return None
    return [Sequent(s.ante, (g,) + s.succ[1:]) for g in f.children]


def _one_left(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    f = _th_head(s.ante)
    if f is None or f.i != 1:
        return None
    return [Sequent((g,) + s.ante[1:], s.succ) for g in f.children]


def _one_right(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    f = _th_head(s.succ)
    if f is None or f.i != 1:
        return None
    return [Sequent(s.ante, f.children + s.succ[1:])]


def _th_left(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    f = _th_head(s.ante)
    if f is None or f.i < 1 or not f.children:
        return None
    head, tail, rest = f.children[0], f.children[1:], s.ante[1:]
    return [Sequent((Th(f.i, tail),) + rest, s.succ),
            Sequent((Th(f.i - 1, tail), head) + rest, s.succ)]


def _th_right(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    f = _th_head(s.succ)
    if f is None or f.i < 1 or not f.children:
        return None
    head, tail, rest = f.children[0], f.children[1:], s.succ[1:]
    return [Sequent(s.ante, (Th(f.i, tail), head) + rest),
            Sequent(s.ante, (Th(f.i - 1, tail),) + rest)]


def _cut(s: Sequent, ps: Sequence[Sequent]) -> list[Sequent] | None:
    """The cut formula is the head of the first cited premise's succedent."""
    if not ps or not ps[0].succ:
        return None
    a = ps[0].succ[0]
    return [Sequent(s.ante, (a,) + s.succ), Sequent(s.ante + (a,), s.succ)]


RULES: dict[str, Builder] = {
    "weaken-left": _weaken_left,
    "weaken-right": _mirrored(_weaken_left),
    "exchange-left": _exchange_left,
    "exchange-right": _mirrored(_exchange_left),
    "contract-left": _contract_left,
    "contract-right": _mirrored(_contract_left),
    "not-left": _not_left,
    "not-right": _mirrored(_not_left),
    "all-left": _all_left,
    "all-right": _all_right,
    "one-left": _one_left,
    "one-right": _one_right,
    "th-left": _th_left,
    "th-right": _th_right,
    "cut": _cut,
}


def _step_error(steps: Sequence[ProofStep], idx: int) -> str | None:
    step = steps[idx]
    build = _axiom if step.rule == "axiom" else RULES.get(step.rule)
    if build is None:
        return "unknown rule"
    if any(not 0 <= p < idx for p in step.premises):
        return "a premise does not precede the step"
    cited = [steps[p].seq for p in step.premises]
    want = build(step.seq, cited)
    if want is None:
        return "the conclusion does not have the rule's shape"
    if len(want) != len(cited):
        return f"needs {len(want)} premise(s), got {len(cited)}"
    for j, (w, c) in enumerate(zip(want, cited)):
        if w != c:
            side = "antecedent" if w.ante != c.ante else "succedent"
            return f"premise {j + 1} (step {step.premises[j] + 1}) differs in its {side}"
    return None


def check_proof(proof: TcProof) -> CheckResult:
    """Validate every step: the premises its rule derives from the
    conclusion must equal the cited steps, which strictly precede it."""
    if not proof.steps:
        return CheckResult(False, None, "empty proof")
    for idx, step in enumerate(proof.steps):
        why = _step_error(proof.steps, idx)
        if why:
            return CheckResult(False, idx, f"step {idx + 1}: {step.rule}: {why}")
    return CheckResult(True)


# ------------------------------------------------------------- substitution


def substitute_formula(f: TcFormula, mapping: Mapping[int, bool]) -> TcFormula:
    """f with the mapped variables replaced by T or F."""

    def rebuilt(f: TcFormula, walk: Callable[[TcFormula], TcFormula]) -> TcFormula:
        if isinstance(f, Var):
            if f.index in mapping:
                return TOP if mapping[f.index] else BOT
            return f
        if isinstance(f, Not):
            return Not(walk(f.child))
        if isinstance(f, Th):
            return Th(f.i, map(walk, f.children))
        return f

    return _once(rebuilt)(f)


def substitute(proof: TcProof, mapping: Mapping[int, bool]) -> TcProof:
    """Replace variables by constants everywhere; validity is preserved
    and the proof does not grow."""

    def sub_seq(seq: Sequent) -> Sequent:
        return Sequent(
            tuple(substitute_formula(a, mapping) for a in seq.ante),
            tuple(substitute_formula(s, mapping) for s in seq.succ),
        )

    return TcProof(
        tuple(
            ProofStep(sub_seq(st.seq), st.rule, st.premises) for st in proof.steps
        )
    )


# ------------------------------------------------- deciding constant formulas


def _side(value: bool, formulas: tuple[TcFormula, ...]) -> Sequent:
    """--> formulas for a true value, formulas --> for a false one."""
    return Sequent((), formulas) if value else Sequent(formulas, ())


class _Emitter:
    """Emits proofs of --> f for true and f --> for false constant formulas,
    each subformula once.  Only nesting recurses: the suffixes of a Th are
    proved in a loop, from the last one up."""

    def __init__(self) -> None:
        self.steps: list[ProofStep] = []
        self._memo: dict[tuple[bool, TcFormula], int] = {}

    def add(self, seq: Sequent, rule: str, *premises: int) -> int:
        self.steps.append(ProofStep(seq, rule, premises))
        return len(self.steps) - 1

    def prove(self, f: TcFormula, value: bool) -> int:
        """The step proving _side(value, (f,)); f must have that value."""
        key = (value, f)
        if key not in self._memo:
            side = "right" if value else "left"
            if isinstance(f, Top if value else Bot):
                idx = self.add(_side(value, (f,)), "axiom")
            elif isinstance(f, Not):
                below = self.prove(f.child, not value)
                idx = self.add(_side(value, (f,)), f"not-{side}", below)
            elif isinstance(f, Th):
                idx = self._threshold(f, value)
            else:
                raise ValueError(f"cannot prove {f!r} {str(value).lower()}")
            self._memo[key] = idx
        return self._memo[key]

    def _threshold(self, f: Th, value: bool) -> int:
        """Proves Th(k, kids[j:]) for every (k, j) the proof of f needs.
        th-right derives a true Th(k, .) from Th(k-1, tail) and from its
        head or Th(k, tail); th-left derives a false one from Th(k, tail)
        and from its head or Th(k-1, tail).  So `must`, the suffix always
        needed, is k-1 when true and k when false, and `alt`, the one
        needed when the head lacks the value, is the other."""
        side = "right" if value else "left"
        kids, w = f.children, len(f.children)
        must, alt = (-1, 0) if value else (0, -1)
        has = [eval_formula(ch, {}) == value for ch in kids]

        def axiom(k: int, j: int) -> bool:
            return k == 0 if value else k > w - j

        need: list[set[int]] = [set() for _ in range(w + 1)]
        need[0].add(f.i)
        for j in range(w):
            for k in need[j]:
                if not axiom(k, j):
                    need[j + 1].update((k + must,) if has[j] else (k + must, k + alt))
        deep = [0] * (w + 1)  # deep[j]: the nesting depth of Th(., kids[j:])
        for j in reversed(range(w)):
            deep[j] = max(deep[j + 1], kids[j].depth + 1)
        done: dict[int, int] = {}  # k -> the step proving Th(k, rest)
        rest: tuple[TcFormula, ...] = ()  # kids[j+1:], shared by its Ths
        for j in reversed(range(w + 1)):
            tail, level = kids[j:], {}
            for k in sorted(need[j]):
                g = _intern(Th, k, tail, depth=deep[j])
                if axiom(k, j):
                    level[k] = self.add(_side(value, (g,)), "axiom")
                    continue
                # the rule wants (alt, head); weakening adds its formula at
                # the front of a succedent and the end of an antecedent
                pair = (_intern(Th, k + alt, rest, depth=deep[j + 1]), kids[j])
                weak = pair if has[j] == value else pair[::-1]
                got = self.prove(kids[j], value) if has[j] else done[k + alt]
                e = self.add(_side(value, weak), f"weaken-{side}", got)
                if weak != pair:
                    e = self.add(_side(value, pair), f"exchange-{side}", e)
                m = done[k + must]
                level[k] = self.add(_side(value, (g,)), f"th-{side}",
                                    *((e, m) if value else (m, e)))
            done, rest = level, tail
        return done[f.i]


def decide_constant_formula(f: TcFormula) -> TcProof:
    """For a variable-free formula, a checkable proof of --> f when f is
    true, and of --> ~f when false; of f --> when f is false and ~f would
    nest past MAX_DEPTH.  The proof passes check_proof."""
    names = free_vars(f)
    if names:
        raise ValueError(f"formula has free variables: {sorted(names)}")
    em = _Emitter()
    value = eval_formula(f, {})
    below = em.prove(f, value)
    if not value and f.depth < MAX_DEPTH:  # ~f nests one deeper than f
        em.add(Sequent((), (Not(f),)), "not-right", below)
    return TcProof(tuple(em.steps))


# ---------------------------------------------------------------- text form


_TOKEN = re.compile(r"\s*(Th\d+|p\d+|T|F|~|\(|\)|,)", re.ASCII)
# what \s matches under re.ASCII: every strip() of proof text strips
# these, not str.strip()'s Unicode spaces, so the text has one space rule
_SPACE = " \t\n\r\f\v"


class _FormulaParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _next(self, peek: bool = False) -> str | None:
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            return None
        if not peek:
            self.pos = m.end()
        return m.group(1)

    def parse(self, depth: int = 0) -> TcFormula:
        # counted here, not left to construction: the parse recurses first
        if depth > MAX_DEPTH:
            raise ValueError(f"formula nests deeper than {MAX_DEPTH}")
        tok = self._next()
        if tok is None:
            raise ValueError(f"expected formula at {self.text[self.pos:]!r}")
        if tok == "T":
            return TOP
        if tok == "F":
            return BOT
        if tok == "~":
            return Not(self.parse(depth + 1))
        if tok.startswith("p"):
            return Var(int(tok[1:]))
        if tok.startswith("Th"):
            i = int(tok[2:])
            if self._next() != "(":
                raise ValueError("expected '(' after threshold")
            children: list[TcFormula] = []
            if self._next(peek=True) == ")":
                self._next()
                return Th(i, ())
            while True:
                children.append(self.parse(depth + 1))
                sep = self._next()
                if sep == ")":
                    return Th(i, tuple(children))
                if sep != ",":
                    raise ValueError(f"expected ',' or ')' in threshold, got {sep!r}")
        raise ValueError(f"unexpected token {tok!r}")

    def done(self) -> bool:
        return self.pos >= len(self.text) or self.text[self.pos:].strip(_SPACE) == ""


def parse_formula(text: str) -> TcFormula:
    p = _FormulaParser(text)
    f = p.parse()
    if not p.done():
        raise ValueError(f"trailing input after formula: {text[p.pos:]!r}")
    return f


def format_formula(f: TcFormula) -> str:
    """f in the text form, which parse_formula reads back to f."""
    return repr(f)


def _split_formulas(text: str) -> tuple[TcFormula, ...]:
    text = text.strip(_SPACE)
    if not text:
        return ()
    out: list[TcFormula] = []
    p = _FormulaParser(text)
    while True:
        out.append(p.parse())
        rest = text[p.pos:].strip(_SPACE)
        if not rest:
            return tuple(out)
        if not rest.startswith(","):
            raise ValueError(f"expected ',' between formulas, got {rest!r}")
        p.pos = text.index(",", p.pos) + 1


def parse_sequent(text: str) -> Sequent:
    if "-->" not in text:
        raise ValueError(f"sequent needs '-->': {text!r}")
    left, right = text.split("-->", 1)
    return Sequent(_split_formulas(left), _split_formulas(right))


def format_sequent(seq: Sequent) -> str:
    left = ", ".join(map(format_formula, seq.ante))
    right = ", ".join(map(format_formula, seq.succ))
    return f"{left} --> {right}".strip()


_STEP = re.compile(
    r"^\s*(\d+)\s*:\s*([a-z-]+)\s*(?:\(([\d\s,]*)\))?\s*\|-\s*(.*)$", re.ASCII
)


def parse_proof(text: str) -> TcProof:
    """Parse the line format; ids must be 1..N in order, premises refer
    to earlier ids.  Lines end at "\\n" only, not at every separator
    str.splitlines() knows; a "\\r" before it is stripped as a space."""
    steps: list[ProofStep] = []
    for raw in text.split("\n"):
        line = raw.strip(_SPACE)
        if not line or line.startswith("#"):
            continue
        m = _STEP.match(line)
        if not m:
            raise ValueError(f"malformed proof line: {line!r}")
        sid, rule, prems, seq_text = m.groups()
        if int(sid) != len(steps) + 1:
            raise ValueError(f"step ids must be sequential, got {sid}")
        premises = tuple(
            int(tok) - 1 for tok in (prems or "").replace(",", " ").split()
        )
        steps.append(ProofStep(parse_sequent(seq_text), rule, premises))
    if not steps:
        raise ValueError("empty proof text")
    return TcProof(tuple(steps))


def format_proof(proof: TcProof) -> str:
    lines = []
    for idx, st in enumerate(proof.steps, start=1):
        prem = (
            "(" + ", ".join(str(p + 1) for p in st.premises) + ")"
            if st.premises
            else ("" if st.rule == "axiom" else "()")
        )
        lines.append(f"{idx}: {st.rule}{prem} |- {format_sequent(st.seq)}")
    return "\n".join(lines) + "\n"
