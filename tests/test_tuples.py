import array
import bisect
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fkocert import (
    Clause,
    Cnf,
    CollectionSearchError,
    TupleCollection,
    check_collection,
    find_collection,
    gen_random_3cnf,
    is_even_tuple,
    is_inconsistent_tuple,
)
from fkocert.tuples import (
    _quad_candidates,
    _triple_keys,
    _triple_starts,
    parity_vector,
)
from conftest import all_assignments, is_3xor, planted_block

POS = Clause((1, 2, 3), (1, 1, 1))
NEG = Clause((1, 2, 3), (0, 0, 0))
ONE_NEG = Clause((1, 2, 3), (1, 0, 1))


def test_parity_vector_values():
    k = Cnf(4, (ONE_NEG, NEG, Clause((1, 2, 4), (1, 1, 1))))
    # bit 0 = negation parity, bits 1..n = variable occurrence
    assert parity_vector(k, 0) == 0b1111
    assert parity_vector(k, 1) == 0b1111  # three negations, odd
    assert parity_vector(k, 2) == 0b10110


def test_even_and_inconsistent_pairs():
    k = Cnf(3, (POS, NEG, ONE_NEG, Clause((1, 2, 3), (1, 1, 0))))
    assert is_even_tuple(k, (0, 0))
    assert not is_inconsistent_tuple(k, (0, 0))
    assert is_inconsistent_tuple(k, (0, 1))       # 3 negations
    assert is_inconsistent_tuple(k, (0, 2))       # 1 negation
    assert not is_inconsistent_tuple(k, (2, 3))   # 2 negations total
    assert is_even_tuple(k, (2, 3))


def test_uneven_tuple():
    k = Cnf(4, (POS, Clause((1, 2, 4), (1, 1, 1))))
    assert not is_even_tuple(k, (0, 1))           # x3, x4 appear once
    assert not is_inconsistent_tuple(k, (0, 1))


def test_tuple_index_range():
    k = Cnf(3, (POS,))
    with pytest.raises(IndexError):
        is_even_tuple(k, (0, 5))


def test_check_collection_accepts_pair():
    k = Cnf(3, (POS, NEG))
    coll = TupleCollection(tuples=((0, 1),), t=1, k=2, d=1)
    ok, why = check_collection(k, coll)
    assert ok and why is None


def test_check_collection_violations():
    k = Cnf(3, (POS, NEG, ONE_NEG))
    cases = [
        (TupleCollection(((0, 1),), t=2, k=2, d=1), "t="),
        (TupleCollection(((0, 1),), t=1, k=3, d=1), "k"),
        (TupleCollection(((0, 1, 2),), t=1, k=2, d=1), "length"),
        (TupleCollection(((0, 9),), t=1, k=2, d=1), "range"),
        (TupleCollection(((0, 0),), t=1, k=2, d=4), "inconsistent"),
        (TupleCollection(((0, 1), (0, 2)), t=2, k=2, d=1), "bound is d"),
    ]
    for coll, needle in cases:
        ok, why = check_collection(k, coll)
        assert not ok
        assert needle in why, (needle, why)


def test_reuse_counts_multiplicity_within_tuple():
    # same index twice in one tuple burns two of its d slots
    k = Cnf(3, (POS, NEG))
    coll = TupleCollection(((0, 0, 0, 1),), t=1, k=4, d=2)
    ok, why = check_collection(k, coll)
    assert not ok and "bound is d" in why


def test_find_collection_planted_pairs():
    k = planted_block(1)
    coll = find_collection(k, k_max=2, d=4, t_target=16)
    assert coll.t == 16 and coll.k == 2 and coll.d == 4
    ok, why = check_collection(k, coll)
    assert ok, why
    counts = {}
    for tup in coll.tuples:
        for idx in tup:
            counts[idx] = counts.get(idx, 0) + 1
    assert all(v == 4 for v in counts.values())
    # pairs at odd sign-distance are exactly the inconsistent ones
    for tup in coll.tuples:
        assert is_inconsistent_tuple(k, tup)


def test_find_collection_two_blocks():
    k = planted_block(2)
    coll = find_collection(k, k_max=2, d=4, t_target=32)
    assert coll.t == 32 and coll.k == 2


def test_find_collection_single_clause_fails():
    k = Cnf(3, (POS,))
    with pytest.raises(CollectionSearchError) as ei:
        find_collection(k, k_max=4, d=4, t_target=1)
    assert ei.value.best.t == 0
    assert ei.value.t_target == 1
    assert ei.value.candidates == {"pairs": 0, "quads": 0}
    assert not ei.value.budget_hit


def test_find_collection_complementary_pair():
    k = Cnf(3, (POS, NEG))
    coll = find_collection(k, k_max=2, d=1, t_target=1)
    assert coll.t >= 1
    assert coll.tuples[0] == (0, 1)


def test_find_collection_quad_only():
    # no two clauses share a triple, but the four cancel jointly
    k = Cnf(
        6,
        (
            Clause((1, 2, 3), (0, 1, 1)),
            Clause((1, 2, 4), (1, 1, 1)),
            Clause((3, 5, 6), (1, 1, 1)),
            Clause((4, 5, 6), (1, 1, 1)),
        ),
    )
    with pytest.raises(CollectionSearchError):
        find_collection(k, k_max=2, d=4, t_target=1)
    coll = find_collection(k, k_max=4, d=4, t_target=1)
    assert coll.k == 4
    assert coll.tuples == ((0, 1, 2, 3),)
    assert is_inconsistent_tuple(k, (0, 1, 2, 3))


def test_find_collection_respects_d():
    k = planted_block(1)
    coll = find_collection(k, k_max=2, d=1, t_target=1)
    seen = [i for tup in coll.tuples for i in tup]
    assert len(seen) == len(set(seen))


def test_find_collection_validates_parameters():
    k = Cnf(3, (POS, NEG))
    with pytest.raises(ValueError):
        find_collection(k, k_max=3, d=4, t_target=1)
    with pytest.raises(ValueError):
        find_collection(k, k_max=2, d=0, t_target=1)
    with pytest.raises(ValueError):
        find_collection(k, k_max=4, d=4, t_target=1, budget=-1)
    # budget 0 takes no 4-tuple; the pair still packs
    assert find_collection(k, k_max=4, d=4, t_target=1, budget=0).tuples == ((0, 1),)


def test_find_collection_deterministic():
    k = gen_random_3cnf(8, 50, 21)
    a = find_collection(k, k_max=4, d=4, t_target=1, seed=5)
    b = find_collection(k, k_max=4, d=4, t_target=1, seed=5)
    assert a == b


def test_found_tuples_are_inconsistent_random():
    for seed in range(5):
        k = gen_random_3cnf(8, 45, seed)
        try:
            coll = find_collection(k, k_max=4, d=4, t_target=1, seed=seed)
        except CollectionSearchError:
            continue
        ok, why = check_collection(k, coll)
        assert ok, why
        for tup in coll.tuples:
            assert is_inconsistent_tuple(k, tup)


def test_xor_lemma_exhaustive_on_planted_pairs():
    # every assignment leaves >= 1 member of each inconsistent tuple
    # with an even number of true literals
    k = planted_block(1)
    coll = find_collection(k, k_max=2, d=4, t_target=16)
    for a in all_assignments(3):
        for tup in coll.tuples:
            assert any(not is_3xor(k.clauses[i], a) for i in tup)


def test_xor_lemma_on_quad():
    k = Cnf(
        6,
        (
            Clause((1, 2, 3), (0, 1, 1)),
            Clause((1, 2, 4), (1, 1, 1)),
            Clause((3, 5, 6), (1, 1, 1)),
            Clause((4, 5, 6), (1, 1, 1)),
        ),
    )
    for a in all_assignments(6):
        assert any(not is_3xor(k.clauses[i], a) for i in (0, 1, 2, 3))


# ------------------------------------------------- variable-pair quad index


def reference_quad_candidates(cnf, budget):
    """The former O(m^2) search, kept as the reference: every 4-subset of
    clauses that splits into two pairs with one nonzero occurrence XOR,
    with an odd negation sum; nothing at all when m(m-1)/2 > budget."""
    if cnf.m * (cnf.m - 1) // 2 > budget:
        return []
    masks = [parity_vector(cnf, i) >> 1 for i in range(cnf.m)]
    negs = [parity_vector(cnf, i) & 1 for i in range(cnf.m)]
    by_xor = {}
    for i in range(cnf.m):
        for j in range(i + 1, cnf.m):
            x = masks[i] ^ masks[j]
            if x:
                by_xor.setdefault(x, []).append((i, j))
    out = set()
    for pairs in by_xor.values():
        for a, b in itertools.combinations(pairs, 2):
            quad = set(a) | set(b)
            if len(quad) == 4 and sum(negs[i] for i in quad) % 2:
                out.add(tuple(sorted(quad)))
                if len(out) >= budget:
                    return sorted(out)
    return sorted(out)


def _index_quads(cnf, budget=10**9):
    keys = _triple_keys(cnf)
    return _quad_candidates(cnf.n, keys, _triple_starts(keys), budget)


def _two_shared_pairing(cnf, quad):
    """Some split of quad into two pairs whose clauses each share exactly
    two variables: the 4-tuples the variable-pair index can see."""
    def share_two(i, j):
        return len(set(cnf.clauses[i].vars) & set(cnf.clauses[j].vars)) == 2
    a, b, c, d = quad
    return any(share_two(*p) and share_two(*q)
               for p, q in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))))


@st.composite
def small_cnfs(draw):
    """Few variables and a short list of triples, so that triples repeat
    and share pairs often; literals in any order."""
    n = draw(st.integers(4, 7))
    pool = draw(st.lists(st.sets(st.integers(1, n), min_size=3, max_size=3),
                         min_size=1, max_size=6))
    m = draw(st.integers(0, 24))
    clauses = []
    for _ in range(m):
        trip = tuple(draw(st.permutations(sorted(draw(st.sampled_from(pool))))))
        pols = draw(st.tuples(*[st.integers(0, 1)] * 3))
        clauses.append(Clause(trip, pols))
    return Cnf(n, tuple(clauses))


@settings(max_examples=300)
@given(small_cnfs())
def test_quad_index_matches_reference_on_two_shared_pairings(cnf):
    want = [q for q in reference_quad_candidates(cnf, 10**9)
            if _two_shared_pairing(cnf, q)]
    got, hit = _index_quads(cnf)
    assert got == want
    assert not hit
    for quad in got:
        assert is_inconsistent_tuple(cnf, quad)


def test_quad_index_matches_reference_on_random_formulas():
    for seed in range(20):
        cnf = gen_random_3cnf(6 + seed % 7, 20 + 4 * seed, seed)
        want = [q for q in reference_quad_candidates(cnf, 10**9)
                if _two_shared_pairing(cnf, q)]
        assert _index_quads(cnf) == (want, False)


def test_quad_index_misses_pasch_configuration():
    # every two of the four clauses share exactly one variable
    pasch = Cnf(6, (
        Clause((1, 2, 3), (0, 1, 1)),
        Clause((1, 4, 5), (1, 1, 1)),
        Clause((2, 4, 6), (1, 1, 1)),
        Clause((3, 5, 6), (1, 1, 1)),
    ))
    assert is_inconsistent_tuple(pasch, (0, 1, 2, 3))
    assert reference_quad_candidates(pasch, 10**9) == [(0, 1, 2, 3)]
    assert _index_quads(pasch) == ([], False)


def test_quad_index_two_clauses_from_each_triple():
    # {1,2,3} twice and {1,2,4} twice: one edge taken with itself
    k = Cnf(4, (
        Clause((1, 2, 3), (1, 1, 1)),
        Clause((1, 2, 3), (0, 1, 1)),
        Clause((1, 2, 4), (1, 1, 1)),
        Clause((1, 2, 4), (1, 1, 1)),
    ))
    assert _index_quads(k) == ([(0, 1, 2, 3)], False)


def test_quad_index_above_the_old_cliff():
    cnf = gen_random_3cnf(28, 318, 1)
    assert cnf.m * (cnf.m - 1) // 2 > 50_000
    assert reference_quad_candidates(cnf, 50_000) == []
    quads, hit = _index_quads(cnf, 50_000)
    assert len(quads) >= 100 and not hit
    for quad in quads[:50]:
        assert is_inconsistent_tuple(cnf, quad)
    coll = find_collection(cnf, k_max=4, d=4, t_target=100)
    assert coll.k == 4 and check_collection(cnf, coll) == (True, None)


def test_quad_budget_caps_count_deterministically():
    cnf = gen_random_3cnf(12, 100, 3)
    full, hit = _index_quads(cnf)
    assert len(full) > 40 and not hit
    capped, hit = _index_quads(cnf, 40)
    assert len(capped) == 40 and hit
    assert _index_quads(cnf, 40) == (capped, True)
    assert set(capped) <= set(full)
    assert _index_quads(cnf, 0) == ([], True)


def _pair_list(cnf):
    return [(i, j) for i, j in itertools.combinations(range(cnf.m), 2)
            if is_inconsistent_tuple(cnf, (i, j))]


def test_search_error_reports_sources_and_budget():
    cnf = gen_random_3cnf(12, 100, 3)
    with pytest.raises(CollectionSearchError) as ei:
        find_collection(cnf, k_max=4, d=4, t_target=10**6, budget=40)
    err = ei.value
    assert err.candidates == {"pairs": len(_pair_list(cnf)), "quads": 40}
    assert err.budget_hit
    msg = str(err)
    assert "40 quads" in msg and "budget hit" in msg
    with pytest.raises(CollectionSearchError) as ei:
        find_collection(cnf, k_max=2, d=4, t_target=10**6)
    assert ei.value.candidates["quads"] == 0
    assert not ei.value.budget_hit
    assert "budget not hit" in str(ei.value)


def test_no_source_finds_the_six_tuple_at_k6():
    # nine variables, each in exactly two of six clauses, no two clauses
    # sharing two variables: the only even tuple is all six, and neither
    # the pairs nor the pair index yields it (a known miss, like Pasch)
    six = Cnf(9, (
        Clause((1, 2, 3), (0, 1, 1)),
        Clause((1, 4, 5), (1, 1, 1)),
        Clause((2, 6, 7), (1, 1, 1)),
        Clause((3, 8, 9), (1, 1, 1)),
        Clause((4, 6, 8), (1, 1, 1)),
        Clause((5, 7, 9), (1, 1, 1)),
    ))
    assert is_inconsistent_tuple(six, range(6))
    with pytest.raises(CollectionSearchError) as ei:
        find_collection(six, k_max=6, d=4, t_target=1)
    assert ei.value.candidates == {"pairs": 0, "quads": 0}
    assert ei.value.best == TupleCollection((), 0, 2, 4)


@pytest.mark.parametrize("n,m,seed", [(12, 100, 1), (28, 318, 0), (200, 4995, 1)])
def test_collection_ignores_seed_and_k_max_above_four(n, m, seed):
    cnf = gen_random_3cnf(n, m, seed)
    want = find_collection(cnf, k_max=4, d=4, t_target=0)
    assert want.t > 0 and check_collection(cnf, want) == (True, None)
    for k_max in (4, 6, 8):
        for search_seed in (0, 1, 7):
            assert find_collection(cnf, k_max=k_max, d=4, t_target=0,
                                   seed=search_seed) == want


def test_check_collection_computes_each_parity_once(monkeypatch):
    import fkocert.tuples as tuples_mod

    cnf = gen_random_3cnf(12, 100, 1)
    coll = find_collection(cnf, k_max=4, d=4, t_target=1)
    calls = []
    real = tuples_mod.parity_vector
    monkeypatch.setattr(tuples_mod, "parity_vector",
                        lambda k, idx: calls.append(idx) or real(k, idx))
    assert check_collection(cnf, coll) == (True, None)
    used = {i for tup in coll.tuples for i in tup}
    assert sorted(calls) == sorted(used)


# ------------------------------------- the index as it was, before the scans


def reference_index_quads(cnf, budget):
    """The variable-pair index before its run scans: every incidence and
    edge decoded through groupby, every edge's label run visited.  Kept to
    pin the tuple list, the budget flag and the label-order cut."""
    span, m = cnf.n + 1, cnf.m
    keys = []
    for idx, cl in enumerate(cnf.clauses):
        u, v, w = sorted(cl.vars)
        keys.append((((u * span + v) * span + w) * 2 + (cl.neg_count() & 1)) * m + idx)
    keys.sort()

    def repeats(t):
        return t + 1 < m and keys[t + 1] // (2 * m) == keys[t] // (2 * m)

    def members(t):
        side = ([], [])
        for k in keys[t:bisect.bisect_left(keys, (keys[t] // (2 * m) + 1) * 2 * m, t)]:
            side[k // m & 1].append(k % m)
        return side

    def picks(a, b):
        even = [(a[p], b[p]) for p in (0, 1) if a[p] and b[p]]
        odd = [(a[p], b[1 - p]) for p in (0, 1) if a[p] and b[1 - p]]
        return even, odd

    def cross_quads(e, f):
        for s in (0, 1):
            for x, y in e[s]:
                for z, w in f[1 - s]:
                    for quad in itertools.product(x, y, z, w):
                        yield tuple(sorted(quad))

    def self_quads(a, b):
        mixed = [list(itertools.product(*side)) for side in (a, b)]
        same = [[*itertools.combinations(side[0], 2), *itertools.combinations(side[1], 2)]
                for side in (a, b)]
        for p, q in itertools.chain(itertools.product(mixed[0], same[1]),
                                    itertools.product(same[0], mixed[1])):
            yield tuple(sorted(p + q))

    starts = (t for t in range(m)
              if t == 0 or keys[t] // (2 * m) != keys[t - 1] // (2 * m))
    by_first = [array.array("q") for _ in range(span)]
    for t in starts:
        uv, w = divmod(keys[t] // (2 * m), span)
        u, v = divmod(uv, span)
        by_first[u].extend(((v * span + w) * m + t, (w * span + v) * m + t))
        by_first[v].append((w * span + u) * m + t)
    edges = []
    for inc in by_first:
        for _, run in itertools.groupby(sorted(inc), lambda code: code // (span * m)):
            run = list(run)
            if len(run) < 2:
                continue
            ends = [divmod(code % (span * m), m) for code in run]
            for r, (x, a) in enumerate(ends):
                for y, b in ends[r + 1:]:
                    edges.append(((x * span + y) * m + a) * m + b)
    edges.sort()
    out = set()
    for _, run in itertools.groupby(edges, lambda code: code // (m * m)):
        same_label = [divmod(code % (m * m), m) for code in run]
        twice = [repeats(a) and repeats(b) for a, b in same_label]
        if len(same_label) == 1 and not twice[0]:
            continue
        sides = [(members(a), members(b)) for a, b in same_label]
        picked = [picks(a, b) for a, b in sides]
        for r, (a, b) in enumerate(sides):
            found = [cross_quads(picked[r], other) for other in picked[r + 1:]]
            if twice[r]:
                found.append(self_quads(a, b))
            for quad in itertools.chain(*found):
                if len(out) >= budget:
                    return sorted(out), True
                out.add(quad)
    return sorted(out), False


PASCH = Cnf(6, (
    Clause((1, 2, 3), (0, 1, 1)),
    Clause((1, 4, 5), (1, 1, 1)),
    Clause((2, 4, 6), (1, 1, 1)),
    Clause((3, 5, 6), (1, 1, 1)),
))
SELF_EDGE = Cnf(4, (
    Clause((1, 2, 3), (1, 1, 1)),
    Clause((1, 2, 3), (0, 1, 1)),
    Clause((1, 2, 4), (1, 1, 1)),
    Clause((1, 2, 4), (1, 1, 1)),
))


@pytest.mark.parametrize("budget", [1, 7, 100, 50_000])
def test_quad_index_pinned_to_reference(budget):
    formulas = [PASCH, SELF_EDGE]
    for n, seeds in ((6, range(6)), (12, range(6)), (28, range(4)), (200, range(2))):
        m = int(3 * n ** 1.4)
        formulas += [gen_random_3cnf(n, m, s) for s in seeds]
        # few triples, so that most repeat and lone edges pair with themselves
        formulas += [gen_random_3cnf(n, 4 * n, s) for s in seeds if n <= 12]
    for cnf in formulas:
        assert _index_quads(cnf, budget) == reference_index_quads(cnf, budget)


@settings(max_examples=200)
@given(small_cnfs(), st.sampled_from([1, 7, 100, 50_000]))
def test_quad_index_pinned_on_repeated_triples(cnf, budget):
    assert _index_quads(cnf, budget) == reference_index_quads(cnf, budget)


# triple {1,2,5} holds two clauses, every other triple one: the runs of
# labels {5,6} and {5,7} mix one-clause and repeated triples, and the run
# of label {6,7} holds only one-clause triples
MIXED_RUNS = Cnf(7, (
    Clause((1, 2, 5), (1, 1, 1)), Clause((1, 2, 5), (0, 1, 1)),
    Clause((1, 2, 6), (1, 1, 1)),
    Clause((3, 4, 5), (1, 1, 1)), Clause((3, 4, 6), (0, 1, 1)),
    Clause((1, 3, 5), (1, 1, 1)), Clause((1, 3, 6), (1, 1, 1)),
    Clause((2, 4, 5), (0, 1, 1)), Clause((2, 4, 6), (1, 1, 1)),
    Clause((1, 2, 7), (1, 1, 1)), Clause((3, 4, 7), (0, 1, 1)),
    Clause((1, 3, 7), (1, 0, 1)), Clause((2, 4, 7), (1, 1, 1)),
))


def test_quad_index_pinned_where_one_clause_and_repeated_runs_meet(monkeypatch):
    import fkocert.tuples as tuples_mod

    full, hit = _index_quads(MIXED_RUNS)
    assert not hit
    for budget in range(1, len(full) + 1):
        assert _index_quads(MIXED_RUNS, budget) == reference_index_quads(MIXED_RUNS, budget)
    # both expansions yield several 4-tuples from one run, so the budgets
    # above cut inside runs of each kind
    yields: dict[str, list[int]] = {"_one_clause_quads": [], "_run_quads": []}

    def counting(name):
        real = getattr(tuples_mod, name)

        def wrapped(*args):
            quads = list(real(*args))
            yields[name].append(len(quads))
            return iter(quads)
        return wrapped

    for name in yields:
        monkeypatch.setattr(tuples_mod, name, counting(name))
    assert _index_quads(MIXED_RUNS) == (full, False)
    assert min(map(max, yields.values())) >= 2
