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
from operator import eq, floordiv, gt, itemgetter, ne, not_
from typing import Iterable, Iterator, Sequence

from .cnf import POLS, Cnf

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


_ODD = {pol: (sum(pol) + 1) & 1 for pol in POLS}  # negation parity, as in parity_vector
# an edge's pick: (edge position in its label run, clause of the edge's
# first triple, clause of its second)
Pick = tuple[int, int, int]


def _triple_index(cnf: Cnf) -> tuple[list[int], dict[int, int], dict[int, ClauseTuple]]:
    """The triple index (codes, first, multi).  With s = n + 1, a clause on
    the variables u < v < w has the triple code (u*s + v)*s + w, from
    three compare-swaps.  codes lists the distinct codes in ascending
    order, first maps each code to its first clause, and multi maps each
    code of two or more clauses to all of them, even negation counts
    first, each parity in index order.  Only those clauses are sorted:
    by parity, then stably by first clause, a one-digit int key even
    where codes pass 2^30 (n > 1022), which leaves multi, and so the
    pairs, close to sorted order."""
    s, per = cnf.n + 1, []
    for u, v, w in zip(cnf.x, cnf.y, cnf.z):
        if u > v:
            u, v = v, u
        if v > w:
            v, w = w, v
        if u > v:
            u, v = v, u
        per.append((u * s + v) * s + w)
    first = dict(zip(reversed(per), reversed(range(len(per)))))  # keeps a key's last value
    multi: dict[int, ClauseTuple] = {}
    if len(first) < len(per):
        lead = list(map(first.__getitem__, per))  # each clause's triple's first clause
        leads = set(compress(lead, map(ne, lead, count())))  # those of repeated triples
        members = list(compress(count(), map(leads.__contains__, lead)))
        odd = bytes(map(_ODD.__getitem__, map(cnf.pols.__getitem__, members)))
        ordered = sorted([*compress(members, map(not_, odd)), *compress(members, odd)],
                         key=lead.__getitem__)
        for i, run in groupby(ordered, lead.__getitem__):
            multi[per[i]] = tuple(run)  # of ints: the garbage collector untracks it
    return sorted(first), first, multi


def _pair_candidates(cnf: Cnf, multi: dict[int, ClauseTuple]) -> list[ClauseTuple]:
    """All inconsistent 2-tuples: two clauses of one repeated triple, one
    with an odd and one with an even negation count."""
    pols, out = cnf.pols, []
    for run in multi.values():
        even = [i for i in run if not _ODD[pols[i]]]  # the run's first clauses
        out += [(i, k) if i < k else (k, i) for i in run[len(even):] for k in even]
    return out


def _quad_candidates(
    cnf: Cnf, index: tuple[list[int], dict[int, int], dict[int, ClauseTuple]], budget: int
) -> tuple[list[ClauseTuple], bool]:
    """Inconsistent 4-tuples from a variable-pair index over the triples.

    Two triples {a,b,x} and {a,b,y} that share the pair {a,b} form an
    edge labelled {x,y}.  Two edges with one label cover every variable
    an even number of times, so one clause from each of their four
    (distinct) triples makes an even 4-tuple; an edge taken with itself
    gives two clauses from each of its two triples.  Those with an odd
    negation sum are kept.  Edges join triples, not clauses, so a
    repeated triple costs nothing until its clauses are drawn.  Not
    found: four clauses in which every two share exactly one variable
    (Pasch configurations), and two same-triple pairs on triples that
    share fewer than two variables.

    _edges reads every edge off the codes of `index`, _triple_index(cnf),
    as its label x*s + y and head pair*s + x (s = n + 1).  Kept are the
    edges whose label recurs, and lone edges whose two triples both are
    in `multi`.  Walked in (label, head) order, each edge rebuilds its
    triples' codes from head and label.  Two triples outside `multi`, as
    on almost every edge of a random formula, give one pick, their
    clauses in `first`; else every pick of one clause from each, even
    negation counts first.  Picks are tagged with the edge's position,
    filed as even or odd by their negation sum, and _run_quads pairs
    each even pick of a label run with its odd ones.  A tuple already
    taken is skipped before the cap: an edge's own tuples arrive twice,
    and two labels can give one tuple.  At most `budget` distinct tuples
    are taken, label run by label run; returns them sorted and whether
    the cap refused one.
    """
    s, pols = cnf.n + 1, cnf.pols
    codes, first, multi = index
    labels, heads = _edges(s, codes)
    counts = Counter(labels)
    lone = zip(*_edges(s, sorted(multi)))  # both ends repeat
    recur = map(gt, map(counts.__getitem__, labels), repeat(1))
    chosen = sorted([*compress(zip(labels, heads), recur),
                     *[(label, head) for label, head in lone if counts[label] == 1]])
    del labels, heads, counts
    out: set[ClauseTuple] = set()
    # heads sort by pair within a label: the order of either end's triple
    for label, run in groupby(chosen, itemgetter(0)):
        x, y = divmod(label, s)
        even: list[Pick] = []  # picks of an even negation sum
        odd: list[Pick] = []
        for pos, (_, head) in enumerate(run):
            p, q = divmod(head // s, s)  # head is (p*s + q)*s + x
            a = head if x > q else (p * s + x) * s + q if x > p else (x * s + p) * s + q
            b = head - x + y if y > q else (p * s + y) * s + q if y > p else (y * s + p) * s + q
            if a in multi or b in multi:
                second = multi.get(b) or (first[b],)
                for i in multi.get(a) or (first[a],):
                    for j in second:
                        (odd if _ODD[pols[i]] ^ _ODD[pols[j]] else even).append((pos, i, j))
            else:
                i, j = first[a], first[b]
                (odd if _ODD[pols[i]] ^ _ODD[pols[j]] else even).append((pos, i, j))
        for quad in _run_quads(even, odd):
            if quad not in out:
                if len(out) >= budget:
                    return sorted(out), True
                out.add(quad)
    return sorted(out), False


def _edges(s: int, triples: list[int]) -> tuple[list[int], list[int]]:
    """Labels x*s + y (x < y) and heads pair*s + x of every edge among
    these triples.  Sorted, their incidences pair*s + third (one-digit
    ints for n <= 1022) hold each pair's triples as a run, which C-level
    passes over the pair keys find; offset k in a run chains k edges."""
    square = s * s
    # (u*s + v)*s + w, then (u*s + w)*s + v and (v*s + w)*s + u
    codes = [*triples, *[t + (t % s - t // s % s) * (s - 1) for t in triples],
             *[t % square * s + t // square for t in triples]]
    codes.sort()
    keys = list(map(floordiv, codes, repeat(s)))
    same = bytes(map(eq, keys, islice(keys, 1, None)))
    del keys
    heads = list(compress(codes, same))
    tails = list(compress(islice(codes, 1, None), same))
    del codes, same  # the incidences outside every run go
    labels = [h % s * s + t % s for h, t in zip(heads, tails)]
    # edge j reaches offset k + 1 if edge j + k starts at j + k - 1's end (codes are distinct)
    ones, step = len(heads), 2
    hits = list(compress(range(ones), map(eq, tails, islice(heads, 1, None))))
    while hits:
        labels += [heads[j] % s * s + tails[j + step - 1] % s for j in hits]
        heads += [heads[j] for j in hits]
        hits = [j for j in hits if j + step < ones and tails[j + step - 1] == heads[j + step]]
        step += 1
    return labels, heads


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

    Deterministic.  Two sources read one triple index (_triple_index: the
    triple codes, each triple's clause, each repeated triple's clauses),
    and each is packed greedily in sorted order: k = 2, every
    inconsistent pair (two clauses of one repeated triple); and for
    k_max >= 4, k = 4, the 4-tuples of a variable-pair index over the
    codes (see _quad_candidates), with no size cutoff.  No source yields
    longer tuples, so any k_max above 4 packs what 4 packs.  The larger
    packed t wins; a tie goes to k = 2.
    `budget`, 0 to BUDGET_MAX, caps the distinct 4-tuples taken, in a fixed
    order: label runs in label order, each run's even picks in edge
    order, each with the odd picks in edge order.
    `seed` is unused; it stays only because perfbench's calls still pass
    it.  Raises CollectionSearchError, carrying the best collection, the count
    per source and whether the budget refused a distinct 4-tuple, when the
    best t is below t_target; raises ValueError as check_search_params.
    """
    check_search_params(k_max, d, budget)
    index = _triple_index(cnf)
    pairs = sorted(_pair_candidates(cnf, index[2]))
    quads: list[ClauseTuple] = []
    quads_hit = False
    k, packed = 2, _greedy_pack(pairs, d)
    if k_max >= 4:
        quads, quads_hit = _quad_candidates(cnf, index, budget)
        packed_quads = _greedy_pack(quads, d)
        if len(packed_quads) > len(packed):
            k, packed = 4, packed_quads
    best = TupleCollection(packed, len(packed), k, d)
    if best.t < t_target:
        raise CollectionSearchError(best, t_target,
                                    {"pairs": len(pairs), "quads": len(quads)},
                                    quads_hit)
    return best
