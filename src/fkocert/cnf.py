"""3CNF formulas: clause columns, DIMACS io, the random model and the imbalance.

A clause holds exactly three literals over pairwise distinct variables.
Variables are numbered 1..n, polarity 1 means the positive literal x_i,
polarity 0 the negated literal.  An assignment is a sequence of n bits
(index i-1 holds the value of x_i); the matching sign vector uses
a(i) = 2*A(i) - 1 in {-1, +1}.

A `Cnf` holds its clauses as four parallel columns: the three variables
of each clause, in slot order, and its polarity pattern, one of the
eight shared POLS tuples.  `Cnf(n, rows)`, the parser and the random
model fill them, and every pipeline stage reads them; only `.clauses`
builds `Clause` objects.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import index, itemgetter, ne
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Cnf",
    "DimacsError",
    "parse_dimacs",
    "to_dimacs",
    "gen_random_3cnf",
    "check_gen_params",
    "imbalance",
]


class DimacsError(ValueError):
    """Malformed DIMACS input."""


@dataclass(frozen=True, slots=True)
class Clause:
    """One element of `Cnf.clauses`: vars (1-based) and pols in {0,1}, in
    slot order, read from columns the formula has already checked."""

    vars: tuple[int, int, int]
    pols: tuple[int, int, int]

    def literals(self) -> Iterator[tuple[int, int]]:
        return zip(self.vars, self.pols)


# The eight polarity patterns, POLS[bits] for bits = 4 p1 + 2 p2 + p3: the
# pols column of every Cnf holds m references to these, no tuples of its own.
POLS = tuple(((bits >> 2) & 1, (bits >> 1) & 1, bits & 1) for bits in range(8))


Column = tuple[int, ...]
Pols = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, init=False)
class Cnf:
    """n variables and m clauses as four parallel columns: clause k has
    the variables x[k], y[k] and z[k], in slot order, and the polarities
    pols[k], one of the eight POLS tuples.  `Cnf(n, rows)` takes each
    clause as a DIMACS-signed triple of ints, such as (1, -2, 3) for
    x1 v ~x2 v x3, checked as `parse_dimacs` checks one: ValueError names
    the first clause refused, and n and the literals go through
    `operator.index`, so a float raises TypeError.  Equality, hash and
    repr are those of n and the columns, however the formula was built.
    `.clauses`, the formula as `Clause`s, is built on first read and kept.
    """

    n: int
    x: Column
    y: Column
    z: Column
    pols: Pols

    def __init__(self, n: int, rows: Iterable[Sequence[int]]) -> None:
        n, rows = index(n), [tuple(map(index, row)) for row in rows]
        if n < 0:
            raise ValueError("n must be nonnegative")
        # a row of another width reads as variable 0, which is refused
        x, y, z = (tuple(abs(r[s]) if len(r) == 3 else 0 for r in rows) for s in range(3))
        bad = _first_malformed(n, x, y, z)
        if bad is not None:
            raise ValueError(f"clause {bad} {rows[bad]}: want three nonzero literals"
                             f" on distinct variables in 1..{n}")
        pols = tuple([POLS[(p > 0) * 4 + (q > 0) * 2 + (r > 0)] for p, q, r in rows])
        _set_fields(self, n=n, x=x, y=y, z=z, pols=pols)

    @property
    def m(self) -> int:
        return len(self.x)

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        return tuple(map(Clause, zip(self.x, self.y, self.z), self.pols))


def _first_malformed(n: int, x: Column, y: Column, z: Column) -> int | None:
    """The index of the first clause whose variables are not pairwise
    distinct in 1..n, or None: C-level passes over the columns, and a
    clause loop only once they have found one."""
    if all(map(ne, x, y)) and all(map(ne, y, z)) and all(map(ne, x, z)) and (
            min(chain(x, y, z), default=1) >= 1 and max(chain(x, y, z), default=0) <= n):
        return None
    return next(k for k, (u, v, w) in enumerate(zip(x, y, z))
                if u == v or v == w or u == w or not 1 <= min(u, v, w) <= max(u, v, w) <= n)


def _set_fields(cnf: Cnf, **fields: object) -> Cnf:
    """Write each field through `object.__setattr__`, as a frozen dataclass's
    own `__init__` does: inline in the instance, where CPython reads it faster."""
    for name, value in fields.items():
        object.__setattr__(cnf, name, value)
    return cnf


def _unchecked(n: int, x: Column, y: Column, z: Column, pols: Pols) -> Cnf:
    """The Cnf of columns the caller has checked, without `Cnf(n, rows)`'s checks."""
    return _set_fields(object.__new__(Cnf), n=n, x=x, y=y, z=z, pols=pols)


def imbalance(cnf: Cnf) -> int:
    """I = sum over variables of |#positive - #negative occurrences|, that
    is |2 #positive - #occurrences|, from two C-level counts over the
    columns that key only the variables present: the memory follows m,
    whatever n the header gives."""
    occurrences = Counter(chain(cnf.x, cnf.y, cnf.z))
    positive = Counter(compress(chain(cnf.x, cnf.y, cnf.z),
                                chain(*(map(itemgetter(s), cnf.pols) for s in range(3)))))
    return sum(abs(2 * positive[v] - k) for v, k in occurrences.items())


# ---------------------------------------------------------------- DIMACS --


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF, requiring width-3 clauses on distinct variables.

    Clause order and literal slot order are preserved as written.  Each
    clause is checked once, here: width 3, distinct variables in 1..n.
    Every integer, header count or literal, is ASCII decimal digits with
    an optional sign, "+" included: int() alone would also take "1_0"
    and non-ASCII digits.  A text whose first line is the header and
    whose other lines hold nothing but valid `a b c 0` clauses, as
    `to_dimacs` writes it, is parsed whole by _parse_clean.  Any other
    text goes through the line loop, which handles comments, the header,
    several clauses on one line, a clause split across lines, and every
    error, each raised as a DimacsError naming its line.
    """
    cnf = _parse_clean(text)
    if cnf is not None:
        return cnf
    n = None
    m = None
    lits: list[int] = []
    x: list[int] = []
    y: list[int] = []
    z: list[int] = []
    pols: list[tuple[int, int, int]] = []
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
                n, m = _decimal(parts[2]), _decimal(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from exc
            if n < 0 or m < 0:
                raise DimacsError(f"line {lineno}: negative header counts")
            continue
        if n is None:
            raise DimacsError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = _decimal(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad literal {tok!r}") from exc
            if lit == 0:
                if len(lits) != 3:
                    raise DimacsError(
                        f"line {lineno}: clause of width {len(lits)}, want 3"
                    )
                p, q, r = lits
                u, v, w = abs(p), abs(q), abs(r)
                if u == v or v == w or u == w:
                    raise DimacsError(f"line {lineno}: repeated variable in clause")
                if max(u, v, w) > n:
                    raise DimacsError(f"line {lineno}: variable beyond n={n}")
                x.append(u)
                y.append(v)
                z.append(w)
                pols.append(POLS[(p > 0) * 4 + (q > 0) * 2 + (r > 0)])
                lits = []
            else:
                lits.append(lit)
    if n is None:
        raise DimacsError("missing header")
    if lits:
        raise DimacsError("trailing literals without terminating 0")
    if m is not None and m != len(x):
        raise DimacsError(f"header declares {m} clauses, found {len(x)}")
    return _unchecked(n, tuple(x), tuple(y), tuple(z), tuple(pols))


def _decimal(tok: str) -> int:
    """int(tok) for ASCII decimal digits with an optional sign; ValueError
    for any other token."""
    if tok.isascii() and tok.lstrip("+-").isdigit():
        return int(tok)
    raise ValueError(f"not a decimal integer: {tok!r}")


def _parse_clean(text: str) -> Cnf | None:
    """The Cnf of a text whose first line is a `p cnf n m` header and whose
    other lines hold only 4 m integer tokens, m valid `a b c 0` clauses in
    any line layout; None for any other text.

    On an ASCII text without "_", int() takes exactly the tokens that
    _decimal takes.  int() runs once per distinct token, into a table of
    the tokens present, never one sized by n: a random body has at most
    2 n + 1 distinct tokens among its 4 m.  The bound |v| <= n is checked
    on that table's values, and every slot is then read from it.  Each
    other check is one C-level pass over a stride slice of the tokens.
    The three variable columns are C-level passes too, and each clause
    takes its polarities from POLS.  Whatever this
    accepts, the line loop would parse to the same Cnf: no token is a
    comment or a header, and str.split breaks at every line boundary
    that str.splitlines does.
    """
    if not text.isascii() or "_" in text:
        return None
    head, _, body = text.partition("\n")
    parts = head.split()
    # the header must be all of the line loop's first line: a \r or \v
    # before the end of `head` would end that line early
    if len(parts) != 4 or parts[:2] != ["p", "cnf"] or len(head.splitlines()) != 1:
        return None
    toks = body.split()
    try:
        n, m = int(parts[2]), int(parts[3])
        value = {tok: int(tok) for tok in set(toks)}
    except ValueError:
        return None
    if n < 0 or m < 0 or len(toks) != 4 * m or max(map(abs, value.values()), default=0) > n:
        return None
    lit = value.__getitem__
    if any(map(lit, toks[3::4])):
        return None
    a, b, c = (list(map(lit, toks[k::4])) for k in range(3))
    del toks  # free the 4 m token strings before the columns are built: a lower peak
    if not (all(a) and all(b) and all(c)):
        return None
    x, y, z = tuple(map(abs, a)), tuple(map(abs, b)), tuple(map(abs, c))
    if not (all(map(ne, x, y)) and all(map(ne, y, z)) and all(map(ne, x, z))):
        return None
    pols = tuple([POLS[(p > 0) * 4 + (q > 0) * 2 + (r > 0)] for p, q, r in zip(a, b, c)])
    return _unchecked(n, x, y, z, pols)


def to_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.n} {cnf.m}"]
    for u, v, w, (p, q, r) in zip(cnf.x, cnf.y, cnf.z, cnf.pols):
        lines.append(f"{u if p else -u} {v if q else -v} {w if r else -w} 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------- random model --


def check_gen_params(n: int, m: int, seed: int = 0) -> tuple[int, int, int]:
    """n, m and seed as plain ints, through `operator.index`, so a float or
    other non-integer raises TypeError.  Raise ValueError unless
    gen_random_3cnf accepts them: n >= 3, and m and seed nonnegative.
    CPython seeds with |seed|, so a negative seed would alias its
    positive twin."""
    n, m, seed = index(n), index(m), index(seed)
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return n, m, seed


def gen_random_3cnf(n: int, m: int, seed: int) -> Cnf:
    """m clauses drawn independently, with repetitions, uniformly from the
    2^3 * C(n,3) clauses on distinct variable triples.

    Deterministic for a given seed; raises TypeError and ValueError as
    check_gen_params.  Per clause it draws three variables, redrawing all
    three until they are distinct, then one polarity pattern of eight.
    Each draw is `random.Random(seed).randrange` inlined: `randrange(1,
    n + 1)` is 1 + getrandbits(n.bit_length()), redrawn while the bits
    are >= n, and `randrange(8)` is getrandbits(4), redrawn while >= 8.
    The same calls in the same order give the same formulas, byte for
    byte, as the randrange draws did, on Python 3.10 to 3.13.  Skipping
    randrange's argument handling makes it about 3x faster: n = 28,
    m = 318 takes 0.32 ms and n = 200, m = 4995 5.6 ms, against 1.02 and
    15.9 ms through randrange (medians, shared 2-vCPU Intel Xeon VM,
    Python 3.11.7).
    """
    n, m, seed = check_gen_params(n, m, seed)
    getrandbits = random.Random(seed).getrandbits
    k = n.bit_length()
    xs, ys, zs, pols = [], [], [], []
    for _ in range(m):
        while True:
            u = getrandbits(k)
            while u >= n:
                u = getrandbits(k)
            v = getrandbits(k)
            while v >= n:
                v = getrandbits(k)
            w = getrandbits(k)
            while w >= n:
                w = getrandbits(k)
            if u != v and v != w and u != w:
                break
        if u > v:
            u, v = v, u
        if v > w:
            v, w = w, v
        if u > v:
            u, v = v, u
        xs.append(u + 1)
        ys.append(v + 1)
        zs.append(w + 1)
        bits = getrandbits(4)
        while bits >= 8:
            bits = getrandbits(4)
        pols.append(POLS[bits])
    return _unchecked(n, tuple(xs), tuple(ys), tuple(zs), tuple(pols))
