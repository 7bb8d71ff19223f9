"""Even clause tuples, inconsistent collections, and their search.

A tuple of clause indices is *even* when every variable occurs an even
number of times across its members (forcing even length), and
*inconsistent* when additionally the total number of negated literals is
odd.  Under any assignment, an inconsistent even tuple always contains a
clause with an even number of true literals (a non-3XOR clause): summing
literal values over the tuple, even variable multiplicities make the
assignment contribution even, so the parity of true literals equals the
parity of negations, which is odd -- the members' parities cannot all be
odd.

A (t, k, d)-collection packs t inconsistent k-tuples with every clause
index used at most d times (counting multiplicity); any assignment then
leaves at least ceil(t/d) distinct clauses non-3XOR.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, combinations, groupby, product
from typing import Iterable, Iterator, Sequence

from .cnf import Cnf

ClauseTuple = tuple[int, ...]

__all__ = [
    "ClauseTuple",
    "TupleCollection",
    "CollectionSearchError",
    "parity_vector",
    "is_even_tuple",
    "is_inconsistent_tuple",
    "check_collection",
    "find_collection",
]


@dataclass(frozen=True)
class TupleCollection:
    """t inconsistent k-tuples over a Cnf, clause reuse bounded by d."""

    tuples: tuple[ClauseTuple, ...]
    t: int
    k: int
    d: int


class CollectionSearchError(RuntimeError):
    """Search ended below t_target; carries the best collection found, the
    candidate count from each source and whether the budget cut a source
    short."""

    def __init__(self, best: TupleCollection, t_target: int,
                 candidates: dict[str, int], budget_hit: bool):
        counts = ", ".join(f"{v} {k}" for k, v in candidates.items())
        super().__init__(
            f"found t={best.t} inconsistent tuples, target was {t_target}; "
            f"candidates: {counts}; budget {'hit' if budget_hit else 'not hit'}"
        )
        self.best = best
        self.t_target = t_target
        self.candidates = candidates
        self.budget_hit = budget_hit


def parity_vector(cnf: Cnf, index: int) -> int:
    """Parity bits of one clause as an int: bit 0 is the negation parity,
    bit i (1 <= i <= n) the occurrence parity of variable i."""
    cl = cnf.clauses[index]
    bits = cl.neg_count() & 1
    for v in cl.vars:
        bits |= 1 << v
    return bits


def _tuple_parity(cnf: Cnf, indices: Sequence[int]) -> int:
    bits = 0
    for idx in indices:
        if not 0 <= idx < cnf.m:
            raise IndexError(f"clause index {idx} out of range")
        bits ^= parity_vector(cnf, idx)
    return bits


def is_even_tuple(cnf: Cnf, indices: Sequence[int]) -> bool:
    """Every variable occurs an even number of times across the tuple."""
    return _tuple_parity(cnf, indices) >> 1 == 0


def is_inconsistent_tuple(cnf: Cnf, indices: Sequence[int]) -> bool:
    """Even tuple whose total negation count is odd."""
    return _tuple_parity(cnf, indices) == 1


def check_collection(
    cnf: Cnf, coll: TupleCollection
) -> tuple[bool, str | None]:
    """Validate a collection against cnf; returns (ok, first violation)."""
    if coll.t != len(coll.tuples):
        return False, f"t={coll.t} but {len(coll.tuples)} tuples present"
    if coll.t and coll.k % 2:
        return False, f"tuple length k={coll.k} is odd"
    if coll.d < 0:
        return False, f"negative reuse bound d={coll.d}"
    use: dict[int, int] = {}
    parity: dict[int, int] = {}  # clause index -> parity_vector, once per call
    for pos, tup in enumerate(coll.tuples):
        if len(tup) != coll.k:
            return False, f"tuple {pos} has length {len(tup)}, want k={coll.k}"
        bits = 0
        for idx in tup:
            if not 0 <= idx < cnf.m:
                return False, f"tuple {pos}: clause index {idx} out of range"
            use[idx] = use.get(idx, 0) + 1
            if idx not in parity:
                parity[idx] = parity_vector(cnf, idx)
            bits ^= parity[idx]
        if bits != 1:
            return False, f"tuple {pos} is not an inconsistent even tuple"
    for idx, cnt in use.items():
        if cnt > coll.d:
            return False, f"clause {idx} used {cnt} times, bound is d={coll.d}"
    return True, None


# ------------------------------------------------------------------ search


def _occurrence_mask(cnf: Cnf, index: int) -> int:
    return parity_vector(cnf, index) >> 1


def _neg_parity(cnf: Cnf, index: int) -> int:
    return parity_vector(cnf, index) & 1


Side = tuple[list[int], list[int]]  # a triple's clauses: even, odd negation count
# an edge's (clauses of one triple, clauses of the other) factor pairs,
# listed for an even and for an odd negation sum of the two picked clauses
Picks = tuple[list[tuple[list[int], list[int]]], list[tuple[list[int], list[int]]]]


def _triple_keys(cnf: Cnf) -> list[int]:
    """One int per clause, (sorted variable triple, negation parity, clause
    index), in ascending order: each triple's clauses form a run, even
    negation counts first.  A triple is named by where its run starts."""
    span, m = cnf.n + 1, cnf.m
    keys = []
    for idx, cl in enumerate(cnf.clauses):
        u, v, w = sorted(cl.vars)
        keys.append((((u * span + v) * span + w) * 2 + (cl.neg_count() & 1)) * m + idx)
    keys.sort()
    return keys


def _starts(keys: list[int], m: int) -> Iterator[int]:
    """Where each triple's run starts, ascending."""
    return (t for t in range(m) if t == 0 or keys[t] // (2 * m) != keys[t - 1] // (2 * m))


def _repeats(keys: list[int], t: int, m: int) -> bool:
    """Whether the triple named t holds more than one clause."""
    return t + 1 < m and keys[t + 1] // (2 * m) == keys[t] // (2 * m)


def _members(keys: list[int], t: int, m: int) -> Side:
    """Clause indices of the triple named t with an even and with an odd
    negation count."""
    side: Side = ([], [])
    for k in keys[t:bisect_left(keys, (keys[t] // (2 * m) + 1) * 2 * m, t)]:
        side[k // m & 1].append(k % m)
    return side


def _pair_candidates(keys: list[int], m: int) -> list[ClauseTuple]:
    """All inconsistent 2-tuples: same variable triple, odd negation sum."""
    out: list[ClauseTuple] = []
    for t in _starts(keys, m):
        if _repeats(keys, t, m):
            even, odd = _members(keys, t, m)
            out += [(i, j) if i < j else (j, i) for i in odd for j in even]
    return out


def _quad_candidates(
    n: int, keys: list[int], budget: int
) -> tuple[list[ClauseTuple], bool]:
    """Inconsistent 4-tuples from a variable-pair index over the triples.

    Two triples {a,b,x} and {a,b,y} that share the pair {a,b} form an
    edge labelled {x,y}.  Two edges with one label cover every variable
    an even number of times, so one clause from each of their four
    (distinct) triples makes an even 4-tuple; an edge taken with itself
    gives two clauses from each of its two triples.  Those with an odd
    negation sum are kept.  Edges join triples, not clauses, so a
    repeated triple costs nothing until its clauses are drawn.

    Not found: four clauses in which every two share exactly one variable
    (Pasch configurations), and two same-triple pairs on triples that
    share fewer than two variables.

    Incidences (per first variable, in int64 arrays) and edges are each
    one int, sorted, and read as runs of equal pair or label.  At most
    `budget` distinct tuples are taken, in label order; returns them
    sorted and whether the cap cut the scan.
    """
    span, m = n + 1, len(keys)
    # for each variable a, one int per (second variable b > a, third
    # variable x, triple), in a flat array
    by_first = [array("q") for _ in range(span)]
    for t in _starts(keys, m):
        uv, w = divmod(keys[t] // (2 * m), span)
        u, v = divmod(uv, span)
        by_first[u].extend(((v * span + w) * m + t, (w * span + v) * m + t))
        by_first[v].append((w * span + u) * m + t)
    # one int per (label {x,y}, triple with x, triple with y); within the
    # run of one pair {a,b} the third variables are distinct and ascending
    edges: list[int] = []
    for inc in by_first:
        for _, run in groupby(sorted(inc), lambda code: code // (span * m)):
            run = list(run)
            if len(run) < 2:
                continue
            ends = [divmod(code % (span * m), m) for code in run]
            for r, (x, a) in enumerate(ends):
                for y, b in ends[r + 1:]:
                    edges.append(((x * span + y) * m + a) * m + b)
    del by_first
    edges.sort()
    out: set[ClauseTuple] = set()
    for _, run in groupby(edges, lambda code: code // (m * m)):
        same_label = [divmod(code % (m * m), m) for code in run]
        # an edge pairs with itself only when both its triples repeat
        twice = [_repeats(keys, a, m) and _repeats(keys, b, m) for a, b in same_label]
        if len(same_label) == 1 and not twice[0]:
            continue
        sides = [(_members(keys, a, m), _members(keys, b, m)) for a, b in same_label]
        picks = [_picks(a, b) for a, b in sides]
        for r, (a, b) in enumerate(sides):
            found = [_cross_quads(picks[r], other) for other in picks[r + 1:]]
            if twice[r]:
                found.append(_self_quads(a, b))
            for quad in chain(*found):
                if len(out) >= budget:
                    return sorted(out), True
                out.add(quad)
    return sorted(out), False


def _picks(a: Side, b: Side) -> Picks:
    """An edge's picks of one clause from each of its triples a and b,
    as factor pairs whose products give them, by negation-sum parity."""
    even = [(a[p], b[p]) for p in (0, 1) if a[p] and b[p]]
    odd = [(a[p], b[1 - p]) for p in (0, 1) if a[p] and b[1 - p]]
    return even, odd


def _cross_quads(e: Picks, f: Picks) -> Iterator[ClauseTuple]:
    """Sorted 4-tuples with an odd negation sum, one clause from each
    triple of two distinct edges with one label."""
    for s in (0, 1):
        for x, y in e[s]:
            for z, w in f[1 - s]:
                for quad in product(x, y, z, w):
                    yield tuple(sorted(quad))


def _self_quads(a: Side, b: Side) -> Iterator[ClauseTuple]:
    """Sorted 4-tuples with an odd negation sum, two clauses from each
    triple of one edge: exactly one of the two pairs mixes parities."""
    mixed = [list(product(*side)) for side in (a, b)]
    same = [[*combinations(side[0], 2), *combinations(side[1], 2)] for side in (a, b)]
    for p, q in chain(product(mixed[0], same[1]), product(same[0], mixed[1])):
        yield tuple(sorted(p + q))


def _elimination_candidates(
    cnf: Cnf, k_max: int, seed: int, budget: int, rounds: int = 8
) -> tuple[list[ClauseTuple], bool]:
    """Seeded GF(2) elimination rounds over clause parity vectors.

    Tracks, for each reduced row, which original clauses sum into it; a
    row reducing to zero exposes a kernel element whose support is an
    even tuple.  Different insertion orders expose different supports.
    Stops after `budget` kernel elements; returns the tuples found and
    whether that cap was reached.
    """
    import random

    out: set[ClauseTuple] = set()
    masks = [_occurrence_mask(cnf, i) for i in range(cnf.m)]
    examined = 0
    for r in range(rounds):
        order = list(range(cnf.m))
        random.Random(seed * 1000003 + r).shuffle(order)
        basis: dict[int, tuple[int, int]] = {}  # leading bit -> (vec, support)
        for idx in order:
            vec = masks[idx]
            sup = 1 << idx
            while vec:
                lead = vec.bit_length() - 1
                if lead not in basis:
                    basis[lead] = (vec, sup)
                    break
                bv, bs = basis[lead]
                vec ^= bv
                sup ^= bs
            else:
                examined += 1
                size = bin(sup).count("1")
                if 2 <= size <= k_max:
                    members = [i for i in range(cnf.m) if sup >> i & 1]
                    parity = 0
                    for i in members:
                        parity ^= _neg_parity(cnf, i)
                    if parity:
                        out.add(tuple(members))
            if examined >= budget:
                return sorted(out), True
    return sorted(out), False


def _greedy_pack(
    candidates: Iterable[ClauseTuple], k: int, d: int
) -> tuple[ClauseTuple, ...]:
    chosen: list[ClauseTuple] = []
    use: dict[int, int] = {}
    for tup in candidates:
        if len(tup) != k:
            continue
        if all(use.get(i, 0) + 1 <= d for i in tup):
            chosen.append(tup)
            for i in tup:
                use[i] = use.get(i, 0) + 1
    return tuple(chosen)


def find_collection(
    cnf: Cnf,
    k_max: int = 4,
    d: int = 4,
    t_target: int = 1,
    seed: int = 0,
    budget: int = 50_000,
) -> TupleCollection:
    """Search for a (t, k, d)-collection with t >= t_target and k <= k_max.

    Deterministic given the seed.  Candidates come from three sources:
    every inconsistent pair (two clauses on one variable triple); for
    k_max >= 4, the 4-tuples of a variable-pair index (triples sharing two
    variables, see _quad_candidates), with no size cutoff; and for
    k_max >= 6, seeded GF(2) elimination rounds, the only source of
    longer tuples.  `budget` caps the 4-tuples taken, in a fixed order,
    and the kernel elements the elimination examines.  One greedy packing
    pass runs per even k, and the k with the largest packed t wins (ties
    prefer smaller k).  Raises CollectionSearchError, carrying the best
    collection, the count per source and whether the budget was hit,
    when the best t is below t_target.
    """
    if k_max < 2 or k_max % 2:
        raise ValueError("k_max must be even and at least 2")
    if d < 1:
        raise ValueError("d must be at least 1")
    keys = _triple_keys(cnf)
    pairs = _pair_candidates(keys, cnf.m)
    quads: list[ClauseTuple] = []
    longer: list[ClauseTuple] = []
    quads_hit = longer_hit = False
    if k_max >= 4:
        quads, quads_hit = _quad_candidates(cnf.n, keys, budget)
    if k_max >= 6:
        longer, longer_hit = _elimination_candidates(cnf, k_max, seed, budget)
    ordered = sorted({*pairs, *quads, *longer}, key=lambda t: (len(t), t))
    best: TupleCollection | None = None
    for k in range(2, k_max + 1, 2):
        packed = _greedy_pack(ordered, k, d)
        coll = TupleCollection(packed, len(packed), k, d)
        if best is None or coll.t > best.t:
            best = coll
    assert best is not None
    if best.t < t_target:
        counts = {"pairs": len(pairs), "quads": len(quads),
                  "elimination": len(longer)}
        raise CollectionSearchError(best, t_target, counts,
                                    quads_hit or longer_hit)
    return best
