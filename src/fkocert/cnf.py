"""3CNF formulas: clauses, DIMACS io, the random model and the imbalance.

A clause holds exactly three literals over pairwise distinct variables.
Variables are numbered 1..n, polarity 1 means the positive literal x_i,
polarity 0 the negated literal.  An assignment is a sequence of n bits
(index i-1 holds the value of x_i); the matching sign vector uses
a(i) = 2*A(i) - 1 in {-1, +1}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import ne
from typing import Iterator, TypeVar

_T = TypeVar("_T", "Clause", "Cnf")

__all__ = [
    "Clause",
    "Cnf",
    "DimacsError",
    "parse_dimacs",
    "to_dimacs",
    "gen_random_3cnf",
    "imbalance",
]


class DimacsError(ValueError):
    """Malformed DIMACS input."""


@dataclass(frozen=True)
class Clause:
    """Three literals on distinct variables: vars (1-based), pols in {0,1}."""

    vars: tuple[int, int, int]
    pols: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.vars) != 3 or len(self.pols) != 3:
            raise ValueError("clause must have exactly three literals")
        if len(set(self.vars)) != 3:
            raise ValueError(f"repeated variable in clause: {self.vars}")
        if any(v < 1 for v in self.vars):
            raise ValueError(f"variables are 1-based: {self.vars}")
        if any(p not in (0, 1) for p in self.pols):
            raise ValueError(f"polarities must be 0/1: {self.pols}")

    def literals(self) -> Iterator[tuple[int, int]]:
        return zip(self.vars, self.pols)

    def neg_count(self) -> int:
        return 3 - sum(self.pols)


# The eight polarity patterns, POLS[bits] for bits = 4 p1 + 2 p2 + p3.  The
# clauses parse_dimacs builds from a clean body and those gen_random_3cnf
# draws share these tuples.
POLS = tuple(((bits >> 2) & 1, (bits >> 1) & 1, bits & 1) for bits in range(8))


@dataclass(frozen=True)
class Cnf:
    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        for k, cl in enumerate(self.clauses):
            if max(cl.vars) > self.n:
                raise ValueError(f"clause {k} uses variable beyond n={self.n}")

    @property
    def m(self) -> int:
        return len(self.clauses)


def _unchecked(cls: type[_T], first: object, second: object) -> _T:
    """`cls(first, second)` for Clause or Cnf without `__post_init__`, for
    fields the caller has already checked: the frozen-dataclass `__init__`
    sets its fields the same way, so instances compare, hash and print
    alike."""
    obj = object.__new__(cls)
    name1, name2 = cls.__match_args__
    object.__setattr__(obj, name1, first)
    object.__setattr__(obj, name2, second)
    return obj


def imbalance(cnf: Cnf) -> int:
    """I = sum over variables of |#positive - #negative occurrences|, in one
    pass over the clauses."""
    skew = [0] * (cnf.n + 1)
    for cl in cnf.clauses:
        for v, p in zip(cl.vars, cl.pols):
            skew[v] += 2 * p - 1
    return sum(map(abs, skew))


# ---------------------------------------------------------------- DIMACS --


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF, requiring width-3 clauses on distinct variables.

    Clause order and literal slot order are preserved as written.  Each
    clause is checked once, here (width 3, distinct variables, range
    1..n), and Clause and Cnf are built without repeating those checks.
    A text whose first line is the header and whose other lines hold
    nothing but valid `a b c 0` clauses, as `to_dimacs` writes it, is
    parsed whole by _parse_clean.  Any other text goes through the line
    loop, which handles comments, the header, several clauses on one
    line, a clause split across lines, and every error, each raised as a
    DimacsError naming its line.
    """
    cnf = _parse_clean(text)
    if cnf is not None:
        return cnf
    n = None
    m = None
    lits: list[int] = []
    clauses: list[Clause] = []
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
                clauses.append(_unchecked(Clause, vars_, pols))
                lits = []
            else:
                lits.append(lit)
    if n is None:
        raise DimacsError("missing header")
    if lits:
        raise DimacsError("trailing literals without terminating 0")
    if m is not None and m != len(clauses):
        raise DimacsError(f"header declares {m} clauses, found {len(clauses)}")
    return _unchecked(Cnf, n, tuple(clauses))


def _parse_clean(text: str) -> Cnf | None:
    """The Cnf of a text whose first line is a `p cnf n m` header and whose
    other lines hold only 4 m integer tokens, m valid `a b c 0` clauses in
    any line layout; None for any other text.

    Each check is one C-level pass over a stride slice of the tokens,
    and each clause takes its polarities from POLS.  Whatever this
    accepts, the line loop would parse to the same Cnf: no token is a
    comment or a header, and str.split breaks at every line boundary
    that str.splitlines does.
    """
    head, _, body = text.partition("\n")
    parts = head.split()
    # the header must be all of the line loop's first line: a \r or \v
    # before the end of `head` would end that line early
    if len(parts) != 4 or parts[:2] != ["p", "cnf"] or len(head.splitlines()) != 1:
        return None
    try:
        n, m = int(parts[2]), int(parts[3])
        lits = list(map(int, body.split()))
    except ValueError:
        return None
    if n < 0 or m < 0 or len(lits) != 4 * m or any(lits[3::4]):
        return None
    a, b, c = lits[0::4], lits[1::4], lits[2::4]
    x, y, z = list(map(abs, a)), list(map(abs, b)), list(map(abs, c))
    if m and not (min(map(min, (x, y, z))) > 0 and max(map(max, (x, y, z))) <= n):
        return None
    if not (all(map(ne, x, y)) and all(map(ne, y, z)) and all(map(ne, x, z))):
        return None
    new, setattr_ = object.__new__, object.__setattr__
    clauses = []
    for vars_, p, q, r in zip(zip(x, y, z), a, b, c):
        # _unchecked(Clause, ...) inlined: no call per clause
        cl = new(Clause)
        setattr_(cl, "vars", vars_)
        setattr_(cl, "pols", POLS[(p > 0) * 4 + (q > 0) * 2 + (r > 0)])
        clauses.append(cl)
    return _unchecked(Cnf, n, tuple(clauses))


def to_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.n} {cnf.m}"]
    for cl in cnf.clauses:
        lines.append(
            " ".join(str(v if p else -v) for v, p in cl.literals()) + " 0"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------- random model --


def gen_random_3cnf(n: int, m: int, seed: int) -> Cnf:
    """m clauses drawn independently, with repetitions, uniformly from the
    2^3 * C(n,3) clauses on distinct variable triples.

    Deterministic for a given seed.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        while True:
            trip = {rng.randrange(1, n + 1) for _ in range(3)}
            if len(trip) == 3:
                break
        vars_ = tuple(sorted(trip))
        clauses.append(_unchecked(Clause, vars_, POLS[rng.randrange(8)]))
    return _unchecked(Cnf, n, tuple(clauses))
