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
from dataclasses import dataclass
from itertools import chain, combinations, compress, count, groupby, islice, product, repeat
from operator import eq, floordiv, itemgetter, not_
from typing import Iterable, Iterator, Sequence

from .cnf import Cnf

ClauseTuple = tuple[int, ...]
_ELIMINATION_ROUNDS = 8  # seeded GF(2) elimination rounds, at k_max >= 6

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


Side = tuple[list[int], list[int]]  # a triple's clauses: even, odd negation count
# an edge's (clauses of one triple, clauses of the other) factor pairs,
# listed for an even and for an odd negation sum of the two picked clauses
Picks = tuple[list[tuple[list[int], list[int]]], list[tuple[list[int], list[int]]]]


def _triple_keys(cnf: Cnf) -> list[int]:
    """One int per clause, (sorted variable triple, negation parity, clause
    index), in ascending order: each triple's clauses form a run, even
    negation counts first."""
    span, m = cnf.n + 1, cnf.m
    keys = []
    for idx, cl in enumerate(cnf.clauses):
        u, v, w = sorted(cl.vars)
        keys.append((((u * span + v) * span + w) * 2 + (cl.neg_count() & 1)) * m + idx)
    keys.sort()
    return keys


def _agree(codes: Sequence[int], stride: int) -> Iterator[bool]:
    """For each i, whether codes[i] and codes[i + 1] agree above `stride`
    (equal quotients): on a sorted list, a scan for runs that takes no
    Python-level step per code."""
    return map(eq, map(floordiv, codes, repeat(stride)),
               map(floordiv, islice(codes, 1, None), repeat(stride)))


def _triple_starts(keys: list[int]) -> list[int]:
    """Where each triple's run of keys starts, ascending, then len(keys):
    triple j holds keys[starts[j]:starts[j + 1]]."""
    m = len(keys)
    if not m:
        return [0]
    return [0, *compress(count(1), map(not_, _agree(keys, 2 * m))), m]


def _members(keys: list[int], starts: list[int], j: int) -> Side:
    """Clause indices of triple j with an even and with an odd negation
    count."""
    m = len(keys)
    side: Side = ([], [])
    for k in keys[starts[j]:starts[j + 1]]:
        side[k // m & 1].append(k % m)
    return side


def _pair_candidates(keys: list[int], starts: list[int]) -> list[ClauseTuple]:
    """All inconsistent 2-tuples: same variable triple, odd negation sum."""
    out: list[ClauseTuple] = []
    for j in range(len(starts) - 1):
        if starts[j + 1] - starts[j] > 1:
            even, odd = _members(keys, starts, j)
            out += [(i, k) if i < k else (k, i) for i in odd for k in even]
    return out


def _quad_candidates(
    n: int, keys: list[int], starts: list[int], budget: int
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
    one int, sorted; one scan over each finds the runs of equal pair and
    of equal label.  Only the edges that can yield a tuple are decoded
    and expanded: those whose label is on two or more edges, and lone
    edges whose two triples both repeat.  At most `budget` distinct
    tuples are taken, in label order; returns them sorted and whether
    the cap cut the scan.
    """
    span, nt = n + 1, len(starts) - 1
    repeats = {j for j in range(nt) if starts[j + 1] - starts[j] > 1}
    # for each variable a, one int per (second variable b > a, third
    # variable x, triple), in a flat array
    by_first = [array("q") for _ in range(span)]
    triples = map(floordiv, map(keys.__getitem__, starts[:-1]), repeat(2 * len(keys)))
    for j, triple in enumerate(triples):
        u, vw = divmod(triple, span * span)
        v, w = divmod(vw, span)
        by_first[u].extend(((v * span + w) * nt + j, (w * span + v) * nt + j))
        by_first[v].append((w * span + u) * nt + j)
    # one int per (label {x,y}, triple with x, triple with y); within the
    # run of one pair {a,b} the third variables are distinct and ascending
    edges: list[int] = []
    doubled: list[int] = []  # edges whose two triples both repeat
    pair_stride, label_stride = span * nt, nt * nt
    for codes in by_first:
        codes = sorted(codes)
        for i in compress(count(), _agree(codes, pair_stride)):
            pair, rest = divmod(codes[i], pair_stride)
            x, a = divmod(rest, nt)
            head = (x * span * nt + a) * nt
            a_repeats = a in repeats
            for later in islice(codes, i + 1, None):
                if later // pair_stride != pair:
                    break
                y, b = divmod(later % pair_stride, nt)
                edges.append(head + y * label_stride + b)
                if a_repeats and b in repeats:
                    doubled.append(edges[-1])
    del by_first
    edges.sort()
    # an edge yields tuples when its label recurs, or with itself when
    # both its triples repeat; no other edge is decoded
    chosen = set(doubled)
    for i in compress(count(), _agree(edges, label_stride)):
        chosen.update(edges[i:i + 2])
    del edges
    out: set[ClauseTuple] = set()
    by_label = groupby((divmod(code, label_stride) for code in sorted(chosen)), itemgetter(0))
    for _, run in by_label:
        same_label = [divmod(ends, nt) for _, ends in run]
        twice = [a in repeats and b in repeats for a, b in same_label]
        sides = [(_members(keys, starts, a), _members(keys, starts, b))
                 for a, b in same_label]
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
    cnf: Cnf, k_max: int, seed: int, budget: int
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
    masks = [parity_vector(cnf, i) >> 1 for i in range(cnf.m)]
    examined = 0
    for r in range(_ELIMINATION_ROUNDS):
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
                        parity ^= parity_vector(cnf, i) & 1
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
    starts = _triple_starts(keys)
    pairs = _pair_candidates(keys, starts)
    quads: list[ClauseTuple] = []
    longer: list[ClauseTuple] = []
    quads_hit = longer_hit = False
    if k_max >= 4:
        quads, quads_hit = _quad_candidates(cnf.n, keys, starts, budget)
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
