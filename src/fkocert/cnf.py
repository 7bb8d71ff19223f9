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
    A line holding exactly one valid clause, `a b c 0` as `to_dimacs`
    writes it, takes a fast path.  Every other line goes through the
    general tokenizer: comments, the header, several clauses on one line,
    a clause split across lines, and every error, each raised as a
    DimacsError naming its line.
    """
    n = None
    m = None
    lits: list[int] = []
    clauses: list[Clause] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) == 4 and n is not None and not lits:
            try:
                a, b, c, end = map(int, parts)
            except ValueError:
                pass  # a comment, a header or a bad literal
            else:
                x, y, z = abs(a), abs(b), abs(c)
                if end == 0 and 0 < x <= n and 0 < y <= n and 0 < z <= n \
                        and x != y != z != x:
                    pols = (1 if a > 0 else 0, 1 if b > 0 else 0, 1 if c > 0 else 0)
                    clauses.append(_unchecked(Clause, (x, y, z), pols))
                    continue
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
        bits = rng.randrange(8)
        pols = ((bits >> 2) & 1, (bits >> 1) & 1, bits & 1)
        clauses.append(_unchecked(Clause, vars_, pols))
    return _unchecked(Cnf, n, tuple(clauses))
