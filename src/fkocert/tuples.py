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

from collections import Counter
from dataclasses import dataclass
from itertools import compress, count, groupby, islice, repeat
from operator import eq, floordiv, itemgetter, ne
from typing import Iterable, Iterator, Sequence

from .cnf import Cnf

ClauseTuple = tuple[int, ...]

# The largest budget find_collection takes.  The search keeps every
# distinct 4-tuple it takes in one set: 200 000 of them peak at about
# 170 B each (tracemalloc) and take about 0.6 s to find, so a budget of
# 10^6 can ask for 150-200 MB.
BUDGET_MAX = 1_000_000

__all__ = [
    "ClauseTuple",
    "TupleCollection",
    "CollectionSearchError",
    "parity_vector",
    "is_inconsistent_tuple",
    "check_collection",
    "check_search_params",
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
    candidate count from each source (pairs, quads) and whether the
    budget refused a distinct 4-tuple."""

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
    bit i (1 <= i <= n) the occurrence parity of variable i.  Raises
    IndexError unless 0 <= index < m: a negative index names no clause.
    Three polarities summing to s leave 3 - s negations, of parity
    (s + 1) & 1."""
    if not 0 <= index < cnf.m:
        raise IndexError(f"clause index {index} out of range")
    u, v, w, (p, q, r) = cnf.x[index], cnf.y[index], cnf.z[index], cnf.pols[index]
    return 1 << u | 1 << v | 1 << w | (p + q + r + 1) & 1


def is_inconsistent_tuple(cnf: Cnf, indices: Sequence[int]) -> bool:
    """Even tuple whose total negation count is odd."""
    bits = 0
    for idx in indices:
        bits ^= parity_vector(cnf, idx)
    return bits == 1


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
    m = cnf.m
    use: dict[int, int] = {}
    parity: dict[int, int] = {}  # clause index -> parity_vector, once per call
    for pos, tup in enumerate(coll.tuples):
        if len(tup) != coll.k:
            return False, f"tuple {pos} has length {len(tup)}, want k={coll.k}"
        bits = 0
        for idx in tup:
            if not 0 <= idx < m:
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


Runs = tuple[list[int], list[int], list[int]]  # _triple_runs: codes, starts, repeated
# an edge's pick: (edge position in its label run, clause of the edge's
# first triple, clause of its second)
Pick = tuple[int, int, int]


def _triple_keys(cnf: Cnf) -> list[int]:
    """One int per clause, (sorted variable triple, negation parity, clause
    index), in ascending order: each triple's clauses form a run, even
    negation counts first.  Three compare-swaps sort each triple, and
    the negation parity is that of parity_vector."""
    span, m = cnf.n + 1, cnf.m
    keys = []
    for idx, (u, v, w, (p, q, r)) in enumerate(zip(cnf.x, cnf.y, cnf.z, cnf.pols)):
        if u > v:
            u, v = v, u
        if v > w:
            v, w = w, v
        if u > v:
            u, v = v, u
        keys.append((((u * span + v) * span + w) * 2 + ((p + q + r + 1) & 1)) * m + idx)
    keys.sort()
    return keys


def _triple_runs(keys: list[int]) -> Runs:
    """The triple index (codes, starts, repeated) of the sorted keys: run j
    is keys[starts[j]:starts[j + 1]], the triple of code codes[j] (strictly
    ascending), starts[-1] = len(keys), and repeated lists the runs of 2+."""
    m = len(keys)
    triples = list(map(floordiv, keys, repeat(2 * m)))
    new = bytes(map(ne, triples, [-1, *triples]))  # key i starts a run
    more = map(eq, triples, islice(triples, 1, None))  # key i + 1 is in key i's run
    repeated = list(compress(count(), compress(more, new)))
    return list(compress(triples, new)), [*compress(count(), new), m], repeated


def _pair_candidates(keys: list[int], runs: Runs) -> list[ClauseTuple]:
    """All inconsistent 2-tuples: two clauses of one repeated triple, one
    with an odd and one with an even negation count."""
    m = len(keys)
    _, starts, repeated = runs
    out: list[ClauseTuple] = []
    for j in repeated:
        # (2*code + negation parity, clause) of each of the run's keys
        run = [divmod(k, m) for k in keys[starts[j]:starts[j + 1]]]
        out += [(i, k) if i < k else (k, i)
                for p, i in run if p & 1 for q, k in run if not q & 1]
    return out


def _quad_candidates(
    n: int, keys: list[int], runs: Runs, budget: int
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

    With s = n + 1, a triple u < v < w has the code (u*s + v)*s + w and
    the incidences pair*s + third for its pairs u*s + v, u*s + w and
    v*s + w, one-digit ints (below 2^30) for n <= 1022.  _edges makes
    them from the codes of `runs`, _triple_runs(keys), and reads every
    edge off them as its label x*s + y and head pair*s + x.  Only edges
    that can yield a tuple get triple ids, by code: those whose label
    recurs, and lone edges whose two triples are both in `repeated`.
    Walked in (label, head) order, each edge gives every pick of one
    clause from each of its triples, in key order, tagged with the
    edge's position; its label run files the pick as even or odd by the
    two clauses' negation parities, and _run_quads pairs each even pick
    with the odd ones.  A tuple already taken is skipped before the cap:
    an edge's own tuples arrive twice, and two labels can give one tuple.
    At most `budget` distinct tuples are taken, label run by label run;
    returns them sorted and whether the cap refused one.
    """
    span, m = n + 1, len(keys)
    codes, starts, repeated = runs
    labels, heads = _edges(span, codes)
    counts = Counter(labels)
    lone = zip(*_edges(span, [codes[j] for j in repeated]))  # both ends repeat
    chosen = sorted([(label, head) for label, head in zip(labels, heads) if counts[label] > 1]
                    + [(label, head) for label, head in lone if counts[label] == 1])
    del labels, heads, counts
    number = dict(zip(codes, count()))  # triple code -> triple id
    out: set[ClauseTuple] = set()
    # heads sort by pair within a label: the order of either end's triple
    for label, run in groupby(chosen, itemgetter(0)):
        x, y = divmod(label, span)
        picks: tuple[list[Pick], list[Pick]] = ([], [])  # even, odd negation sum
        for pos, (_, head) in enumerate(run):
            a, b = _ends(number, span, head, x, y)
            second = keys[starts[b]:starts[b + 1]]
            for ka in keys[starts[a]:starts[a + 1]]:
                for kb in second:
                    picks[(ka // m ^ kb // m) & 1].append((pos, ka % m, kb % m))
        for quad in _run_quads(*picks):
            if quad not in out:
                if len(out) >= budget:
                    return sorted(out), True
                out.add(quad)
    return sorted(out), False


def _edges(s: int, triples: list[int]) -> tuple[list[int], list[int]]:
    """Labels x*s + y (x < y) and heads pair*s + x of every edge among
    these triples.  Offset 1 of the sorted incidences joins neighbours
    in a pair run; offset k chains k such edges, where k - 1 chained."""
    square = s * s
    # (u*s + v)*s + w, then (u*s + w)*s + v and (v*s + w)*s + u
    codes = [*triples, *[t + (t % s - t // s % s) * (s - 1) for t in triples],
             *[t % square * s + t // square for t in triples]]
    codes.sort()
    same = bytes([a // s == b // s for a, b in zip(codes, islice(codes, 1, None))])
    heads = list(compress(codes, same))
    tails = list(compress(islice(codes, 1, None), same))
    del codes, same  # the incidences outside every run go
    labels = [h % s * s + t % s for h, t in zip(heads, tails)]
    # edge j reaches offset k + 1 if edge j + k starts at j + k - 1's end (codes are distinct)
    ones, hits, step = len(heads), range(len(heads)), 1
    while hits:
        hits = [j for j in hits if j + step < ones and tails[j + step - 1] == heads[j + step]]
        step += 1
        labels += [heads[j] % s * s + tails[j + step - 1] % s for j in hits]
        heads += [heads[j] for j in hits]
    return labels, heads


def _ends(number: dict[int, int], s: int, head: int, x: int, y: int) -> tuple[int, int]:
    """The ids of the triples of head's pair with x and with y, by code."""
    p, q = divmod(head // s, s)  # head is pair*s + x
    a = head if x > q else (p * s + x) * s + q if x > p else (x * s + p) * s + q
    b = head - x + y if y > q else (p * s + y) * s + q if y > p else (y * s + p) * s + q
    return number[a], number[b]


def _run_quads(even: list[Pick], odd: list[Pick]) -> Iterator[ClauseTuple]:
    """The sorted 4-tuples of one label run, lazily: each even pick with
    each odd pick of another edge, and with each odd pick of its own edge
    that shares no clause with it (both triples then repeat)."""
    for p, i, j in even:
        for q, k, l in odd:
            if p != q or i != k and j != l:
                yield tuple(sorted((i, j, k, l)))


def _greedy_pack(candidates: Iterable[ClauseTuple], d: int) -> tuple[ClauseTuple, ...]:
    chosen: list[ClauseTuple] = []
    use: dict[int, int] = {}
    for tup in candidates:
        if all(use.get(i, 0) + 1 <= d for i in tup):
            chosen.append(tup)
            for i in tup:
                use[i] = use.get(i, 0) + 1
    return tuple(chosen)


def check_search_params(k_max: int, d: int, budget: int) -> None:
    """Raise ValueError unless find_collection accepts these parameters."""
    if k_max < 2 or k_max % 2:
        raise ValueError("k_max must be even and at least 2")
    if d < 1:
        raise ValueError("d must be at least 1")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if budget > BUDGET_MAX:
        raise ValueError(f"budget must be at most {BUDGET_MAX}, got {budget}")


def find_collection(
    cnf: Cnf,
    k_max: int = 4,
    d: int = 4,
    t_target: int = 1,
    seed: int = 0,
    budget: int = 50_000,
) -> TupleCollection:
    """Search for a (t, k, d)-collection with t >= t_target and k <= k_max.

    Deterministic.  Two sources, each packed greedily in sorted order:
    k = 2, every inconsistent pair (two clauses on one variable triple);
    and for k_max >= 4, k = 4, the 4-tuples of a variable-pair index
    (triples sharing two variables, see _quad_candidates), with no size
    cutoff.  No source yields longer tuples, so any k_max above 4 packs
    what 4 packs.  The larger packed t wins; a tie goes to k = 2.
    `budget`, 0 to BUDGET_MAX, caps the distinct 4-tuples taken, in a fixed
    order: label runs in label order, each run's even picks in edge
    order, each with the odd picks in edge order.
    `seed` is unused; it stays only because perfbench's calls still pass
    it.  Raises CollectionSearchError, carrying the best collection, the count
    per source and whether the budget refused a distinct 4-tuple, when the
    best t is below t_target; raises ValueError as check_search_params.
    """
    check_search_params(k_max, d, budget)
    keys = _triple_keys(cnf)
    runs = _triple_runs(keys)
    pairs = sorted(_pair_candidates(keys, runs))
    quads: list[ClauseTuple] = []
    quads_hit = False
    k, packed = 2, _greedy_pack(pairs, d)
    if k_max >= 4:
        quads, quads_hit = _quad_candidates(cnf.n, keys, runs, budget)
        packed_quads = _greedy_pack(quads, d)
        if len(packed_quads) > len(packed):
            k, packed = 4, packed_quads
    best = TupleCollection(packed, len(packed), k, d)
    if best.t < t_target:
        raise CollectionSearchError(best, t_target,
                                    {"pairs": len(pairs), "quads": len(quads)},
                                    quads_hit)
    return best
