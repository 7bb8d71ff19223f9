import array
import bisect
import hashlib
import itertools
import random
import time
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fkocert import (
    Cnf,
    CollectionSearchError,
    TupleCollection,
    check_collection,
    find_collection,
    gen_random_3cnf,
    imbalance,
    is_inconsistent_tuple,
    parse_dimacs,
    to_dimacs,
)
from fkocert.cnf import Clause
from fkocert.tuples import (
    BUDGET_MAX,
    _pair_candidates,
    _quad_candidates,
    _triple_index,
    check_search_params,
    parity_vector,
)
from conftest import (
    all_assignments,
    is_3xor,
    neg_count,
    planted_block,
    shuffled_slots,
    signed,
    signed_rows,
    slot_order_formulas,
)
from test_acceptance import _noisy_blocks

POS = (1, 2, 3)
NEG = (-1, -2, -3)
ONE_NEG = (1, -2, 3)


def test_parity_vector_values():
    k = Cnf(4, (ONE_NEG, NEG, (1, 2, 4)))
    # bit 0 = negation parity, bits 1..n = variable occurrence
    assert parity_vector(k, 0) == 0b1111
    assert parity_vector(k, 1) == 0b1111  # three negations, odd
    assert parity_vector(k, 2) == 0b10110


def _is_even(cnf, indices):
    """Every variable occurs an even number of times: the XOR of the
    parity vectors has no bit above bit 0."""
    bits = 0
    for idx in indices:
        bits ^= parity_vector(cnf, idx)
    return bits >> 1 == 0


def test_even_and_inconsistent_pairs():
    k = Cnf(3, (POS, NEG, ONE_NEG, (1, 2, -3)))
    assert _is_even(k, (0, 0))
    assert not is_inconsistent_tuple(k, (0, 0))
    assert is_inconsistent_tuple(k, (0, 1))       # 3 negations
    assert is_inconsistent_tuple(k, (0, 2))       # 1 negation
    assert not is_inconsistent_tuple(k, (2, 3))   # 2 negations total
    assert _is_even(k, (2, 3))


def test_uneven_tuple():
    k = Cnf(4, (POS, (1, 2, 4)))
    assert not _is_even(k, (0, 1))                # x3, x4 appear once
    assert not is_inconsistent_tuple(k, (0, 1))


def test_tuple_index_range():
    k = Cnf(3, [POS])
    with pytest.raises(IndexError):
        is_inconsistent_tuple(k, (0, 5))


def reference_parity_vector(cnf, index):
    """parity_vector through the negation count, one variable at a time."""
    row = signed((cnf.x[index], cnf.y[index], cnf.z[index]), cnf.pols[index])
    bits = neg_count(row) & 1
    for lit in row:
        bits |= 1 << abs(lit)
    return bits


def test_parity_vector_rejects_indices_outside_the_formula():
    # a negative index must not wrap round to a clause counted from the end
    k = gen_random_3cnf(8, 20, 1)
    for bad in (-1, -20, 20, 21):
        with pytest.raises(IndexError, match=f"^clause index {bad} out of range$"):
            parity_vector(k, bad)
        with pytest.raises(IndexError, match=f"^clause index {bad} out of range$"):
            is_inconsistent_tuple(k, [bad, 0])
    assert parity_vector(k, 0) == reference_parity_vector(k, 0)
    assert parity_vector(k, 19) == reference_parity_vector(k, 19)


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
    k = Cnf(3, [POS])
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
            (-1, 2, 3),
            (1, 2, 4),
            (3, 5, 6),
            (4, 5, 6),
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


def test_budget_is_capped_at_budget_max():
    k = Cnf(3, (POS, NEG))
    assert BUDGET_MAX == 1_000_000
    check_search_params(4, 4, BUDGET_MAX)
    assert find_collection(k, budget=BUDGET_MAX).tuples == ((0, 1),)
    for call in (lambda: check_search_params(4, 4, BUDGET_MAX + 1),
                 lambda: find_collection(k, budget=BUDGET_MAX + 1)):
        with pytest.raises(ValueError, match="budget must be at most 1000000, got 1000001"):
            call()


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
    rows = signed_rows(k)
    for a in all_assignments(3):
        for tup in coll.tuples:
            assert any(not is_3xor(rows[i], a) for i in tup)


def test_xor_lemma_on_quad():
    k = Cnf(
        6,
        (
            (-1, 2, 3),
            (1, 2, 4),
            (3, 5, 6),
            (4, 5, 6),
        ),
    )
    rows = signed_rows(k)
    for a in all_assignments(6):
        assert any(not is_3xor(rows[i], a) for i in (0, 1, 2, 3))


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
    return _quad_candidates(cnf, _triple_index(cnf), budget)


def _two_shared_pairing(cnf, quad):
    """Some split of quad into two pairs whose clauses each share exactly
    two variables: the 4-tuples the variable-pair index can see."""
    cols = list(zip(cnf.x, cnf.y, cnf.z))

    def share_two(i, j):
        return len(set(cols[i]) & set(cols[j])) == 2
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
        clauses.append(signed(trip, pols))
    return Cnf(n, clauses)


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
        (-1, 2, 3),
        (1, 4, 5),
        (2, 4, 6),
        (3, 5, 6),
    ))
    assert is_inconsistent_tuple(pasch, (0, 1, 2, 3))
    assert reference_quad_candidates(pasch, 10**9) == [(0, 1, 2, 3)]
    assert _index_quads(pasch) == ([], False)


def test_quad_index_two_clauses_from_each_triple():
    # {1,2,3} twice and {1,2,4} twice: one edge taken with itself
    k = Cnf(4, (
        (1, 2, 3),
        (-1, 2, 3),
        (1, 2, 4),
        (1, 2, 4),
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


# its four triples pair up under the labels {3,4} and {2,5}: both label
# runs find the one 4-tuple
TWICE_FOUND = Cnf(5, (
    (-1, 2, 3),
    (1, 2, 4),
    (1, 3, 5),
    (1, 4, 5),
))


def test_budget_hit_only_when_a_new_tuple_is_refused():
    assert _index_quads(TWICE_FOUND, 1) == ([(0, 1, 2, 3)], False)
    assert _index_quads(TWICE_FOUND, 0) == ([], True)
    with pytest.raises(CollectionSearchError) as ei:
        find_collection(TWICE_FOUND, t_target=5, budget=1)
    assert not ei.value.budget_hit and "budget not hit" in str(ei.value)


def test_budget_of_every_distinct_tuple_is_not_hit():
    # on four to six variables, 4-tuples recur across label runs often
    for seed in range(200):
        cnf = gen_random_3cnf(4 + seed % 3, 1 + seed % 16, seed)
        full, hit = _index_quads(cnf)
        assert not hit
        assert _index_quads(cnf, len(full)) == (full, False)
        if full:
            capped, hit = _index_quads(cnf, len(full) - 1)
            assert hit and len(capped) == len(full) - 1


def test_repeated_one_parity_triples_expand_nothing_quickly():
    # 300 copies of one all-positive clause on each of two triples that
    # share a pair: 90 000 even picks and no odd one, so an expansion that
    # scanned all pick pairs would take minutes
    cnf = Cnf(4, [(1, 2, 3)] * 300 + [(1, 2, 4)] * 300)
    start = time.perf_counter()
    assert _index_quads(cnf, 50_000) == ([], False)
    assert time.perf_counter() - start < 0.5


def _search_digest(cnfs):
    h = hashlib.sha256()
    for cnf in cnfs:
        h.update(repr(find_collection(cnf).tuples).encode())
    return h.hexdigest()


def _shuffled_noisy(blocks, extra, seed):
    """_noisy_blocks with its literals in random slots and its clauses in
    random order."""
    rows = signed_rows(shuffled_slots(_noisy_blocks(blocks, extra, seed), seed))
    random.Random(seed).shuffle(rows)
    return Cnf(3 * blocks, rows)


# SHA-256 of find_collection's default tuples on each family: a change to
# the candidate set or to the packing order shows here.  At n = 1000 the
# triple codes are still one-digit ints (below 2^30); in the noisy
# families of 1000 and 1100 blocks most clauses sit on repeated triples.
SEARCH_DIGESTS = {
    "random n=200": ("2ddd6728de56e289a4d16a6b12b1ccabc22582d8f713579e9716dfe2c4468425",
                     lambda: [gen_random_3cnf(200, 4995, s) for s in range(4)]),
    "random n=28": ("d580a7df81f2df994c14fdeaf68a5995556f44aead6be5cc156919b477d4f542",
                    lambda: [gen_random_3cnf(28, 318, s) for s in range(4)]),
    "planted": ("f1b651910c423d9f219896263b9ac267be6cc289508d4e0ec7221a2a97dd9810",
                lambda: [planted_block(t) for t in range(1, 9)]),
    "noisy": ("405785c4c7951698cd83bd899dc64106f4961bb15dad1176ea0dc7150ef06ccb",
              lambda: [_noisy_blocks(3 + i % 3, 2 + i % 4, seed=7000 + i) for i in range(20)]),
    "random n=1000": ("995dabdea33afa7a84a35691e0925c27083fb19e3a9a86721c51ef34bdd4b9f6",
                      lambda: [gen_random_3cnf(1000, 47546, 0)]),
    "noisy 1000 blocks": ("48bac4189f47070b0c99de21b5e9970f781a469dfe8b2bf23473d1ab0f6958eb",
                          lambda: [_shuffled_noisy(1000 + 100 * i, 300, 7100 + i)
                                   for i in range(2)]),
}


@pytest.mark.parametrize("family", sorted(SEARCH_DIGESTS))
def test_default_search_output_is_pinned(family):
    digest, formulas = SEARCH_DIGESTS[family]
    assert _search_digest(formulas()) == digest


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
        (-1, 2, 3),
        (1, 4, 5),
        (2, 6, 7),
        (3, 8, 9),
        (4, 6, 8),
        (5, 7, 9),
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


def test_parity_and_keys_match_references_in_every_slot_order():
    for name, cnf in slot_order_formulas().items():
        _check_triple_index(cnf)
        assert ([parity_vector(cnf, i) for i in range(cnf.m)]
                == [reference_parity_vector(cnf, i) for i in range(cnf.m)]), name


def test_collection_ignores_slot_order():
    for seed, cnf in enumerate([gen_random_3cnf(12, 100, 1), gen_random_3cnf(28, 318, 2),
                                gen_random_3cnf(200, 4995, 3), planted_block(4)]):
        text, shuffled = to_dimacs(cnf), to_dimacs(shuffled_slots(cnf, seed))
        assert shuffled != text
        want = find_collection(parse_dimacs(text), k_max=4, d=4, t_target=1)
        assert find_collection(parse_dimacs(shuffled), k_max=4, d=4, t_target=1) == want


def test_search_and_checks_call_no_clause_method(monkeypatch):
    """imbalance, the search and both checks read each clause's vars and
    pols directly, with no per-clause call of literals; Clause has no
    neg_count at all."""
    cnf = gen_random_3cnf(200, 4995, 1)
    coll = find_collection(cnf, k_max=4, t_target=1)
    tups = (coll.tuples[0], coll.tuples[-1][:2], (0, 1))

    def run():
        return (imbalance(cnf), find_collection(cnf, k_max=4, t_target=1),
                check_collection(cnf, coll),
                [is_inconsistent_tuple(cnf, tup) for tup in tups])

    before = run()
    assert before[1:3] == (coll, (True, None)) and before[3][0]

    def refuse(self):
        raise AssertionError("per-clause method call")

    assert not hasattr(Clause, "neg_count")
    monkeypatch.setattr(Clause, "literals", refuse)
    assert run() == before


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


def reference_triple_keys(cnf):
    """One sort key per clause, ((code*2 + negation parity)*m + index),
    ascending, through sorted() and the negation count: each triple's
    clauses form a run, even negation counts first."""
    span, m = cnf.n + 1, cnf.m
    keys = []
    for idx, row in enumerate(signed_rows(cnf)):
        u, v, w = sorted(map(abs, row))
        keys.append((((u * span + v) * span + w) * 2 + (neg_count(row) & 1)) * m + idx)
    keys.sort()
    return keys


def reference_index_quads(cnf, budget):
    """The variable-pair index before its run scans: every incidence and
    edge decoded through groupby, every edge's label run visited.  Each
    run pairs its even picks with its odd picks, both in edge order, the
    picks of one edge in the order of its two triples' keys; a tuple
    already taken is skipped before the cap.  Kept to pin the tuple list,
    the budget flag and the cut."""
    span, m = cnf.n + 1, cnf.m
    keys = reference_triple_keys(cnf)

    def repeats(t):
        return t + 1 < m and keys[t + 1] // (2 * m) == keys[t] // (2 * m)

    def members(t):
        """(clause, negation parity) of triple t, in key order."""
        run = keys[t:bisect.bisect_left(keys, (keys[t] // (2 * m) + 1) * 2 * m, t)]
        return [(k % m, k // m & 1) for k in run]

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
        picks = ([], [])
        for r, (a, b) in enumerate(same_label):
            for (i, p), (j, q) in itertools.product(members(a), members(b)):
                picks[(p + q) % 2].append((r, i, j))
        for (r, i, j), (s, k, l) in itertools.product(*picks):
            if r == s and not (twice[r] and len({i, j, k, l}) == 4):
                continue
            quad = tuple(sorted((i, j, k, l)))
            if quad in out:
                continue
            if len(out) >= budget:
                return sorted(out), True
            out.add(quad)
    return sorted(out), False


PASCH = Cnf(6, (
    (-1, 2, 3),
    (1, 4, 5),
    (2, 4, 6),
    (3, 5, 6),
))
SELF_EDGE = Cnf(4, (
    (1, 2, 3),
    (-1, 2, 3),
    (1, 2, 4),
    (1, 2, 4),
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
    (1, 2, 5), (-1, 2, 5),
    (1, 2, 6),
    (3, 4, 5), (-3, 4, 6),
    (1, 3, 5), (1, 3, 6),
    (-2, 4, 5), (2, 4, 6),
    (1, 2, 7), (-3, 4, 7),
    (1, -3, 7), (2, 4, 7),
))


def test_quad_index_pinned_where_one_clause_and_repeated_runs_meet(monkeypatch):
    import fkocert.tuples as tuples_mod

    full, hit = _index_quads(MIXED_RUNS)
    assert not hit
    for budget in range(1, len(full) + 1):
        assert _index_quads(MIXED_RUNS, budget) == reference_index_quads(MIXED_RUNS, budget)
    # a run with a repeated triple (an edge with two picks) and a run
    # without one each yield several distinct 4-tuples, so the budgets
    # above cut inside runs of both kinds
    yields: dict[bool, list[int]] = {False: [], True: []}
    real = tuples_mod._run_quads

    def counting(even, odd):
        quads = list(real(even, odd))
        edges = [pos for pos, _, _ in even + odd]
        yields[len(edges) > len(set(edges))].append(len(set(quads)))
        return iter(quads)

    monkeypatch.setattr(tuples_mod, "_run_quads", counting)
    assert _index_quads(MIXED_RUNS) == (full, False)
    assert min(map(max, yields.values())) >= 2


def _planted_square(base, last):
    """Six clauses above `base`: the pairs {a,b} and {c,d} each with the
    thirds x and y make two edges labelled {x,y}, and both triples on
    {a,b} hold two clauses, of mixed and of equal negation parity."""
    a, b, c, d, x, y = range(base, base + 6)
    return [(a, b, x), (-a, b, x), (a, b, y), (-a, -b, y), (c, d, x),
            signed((c, d, y), (1, 1, last))]


def test_quad_index_pinned_past_one_int_digit():
    # at n = 1100, pair*(n+1) + third passes 2^30 once the pair's first
    # variable reaches 886: those incidence codes are two-digit ints
    n, s = 1100, 1101
    clauses = signed_rows(gen_random_3cnf(n, 400, 7))
    for k, base in enumerate((3, 900, 1000, 1090)):
        clauses += _planted_square(base, k % 2)
    cnf = Cnf(n, clauses)
    assert (1090 * s + 1091) * s + 1094 >= 2**30
    full, hit = _index_quads(cnf)
    assert not hit
    # each square yields two cross tuples and one from its {a,b} edge alone
    for first in range(400, 424, 6):
        assert sum(min(q) >= first and max(q) < first + 6 for q in full) == 3
    for budget in range(1, len(full) + 2):
        assert _index_quads(cnf, budget) == reference_index_quads(cnf, budget)


# the pairs {1,2} and {7,8} each carry the thirds 3, 4, 5 and 6, so each
# pair run holds four triples and the run scan reaches offset 3; every
# label {x,y} on 3..6 is on two edges, and {1,2,3} holds two clauses
LONG_RUNS = Cnf(8, [(-1, 2, 3)]
                + [signed((1, 2, x), (1, 1, x % 2)) for x in (3, 4, 5, 6)]
                + [(7, 8, x) for x in (3, 4, 5, 6)])


def test_quad_index_pinned_on_long_pair_runs():
    full, hit = _index_quads(LONG_RUNS)
    assert not hit
    # a tuple from the edge {1,2,3}-{1,2,6} needs offset 3 of the scan
    assert any({0, 4, 5, 8} <= set(quad) or {1, 4, 5, 8} <= set(quad) for quad in full)
    for budget in range(1, len(full) + 1):
        assert _index_quads(LONG_RUNS, budget) == reference_index_quads(LONG_RUNS, budget)


def test_quad_index_transient_memory_stays_small():
    # each list is freed once read; 3 MiB catches a layout that holds
    # every list at once
    cnf = gen_random_3cnf(200, 4995, 1)
    index = _triple_index(cnf)
    _quad_candidates(cnf, index, 50_000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _quad_candidates(cnf, index, 50_000)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# ---------------------------------------------------------- the triple index


def reference_triple_runs(cnf):
    """(code, clause indices) of each triple in code order, through
    groupby over the reference keys."""
    m = cnf.m
    runs = itertools.groupby(reference_triple_keys(cnf), lambda k: k // (2 * m))
    return [(code, [k % m for k in run]) for code, run in runs]


def _check_triple_index(cnf):
    """_triple_index against the reference keys: the codes ascending and
    distinct, every triple's first clause (a lone triple's only one), and
    each repeated triple's clauses in key order, even negation counts
    first, each parity by index."""
    codes, first, multi = _triple_index(cnf)
    want = reference_triple_runs(cnf)
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert codes == [code for code, _ in want]
    assert first == {code: min(run) for code, run in want}
    assert multi == {code: tuple(run) for code, run in want if len(run) > 1}
    return codes, first, multi


def test_triple_index_on_no_clause_and_one_clause():
    assert _check_triple_index(Cnf(5, ())) == ([], {}, {})
    # {2,3,5} at n = 5, s = 6: (2*6 + 3)*6 + 5
    assert _check_triple_index(Cnf(5, [(5, -2, 3)])) == ([95], {95: 0}, {})


def test_triple_index_when_every_clause_shares_one_triple():
    # negation counts 0, 1, 2, 0, 3
    cnf = Cnf(3, [(1, 2, 3), (-3, 2, 1), (2, -1, -3), (3, 1, 2), (-1, -2, -3)])
    code = (1 * 4 + 2) * 4 + 3
    assert _check_triple_index(cnf) == ([code], {code: 0}, {code: (0, 2, 3, 1, 4)})


def test_triple_index_on_runs_of_both_parities():
    # {1,2,3} holds two even and one odd negation count, {1,2,4} only odd
    # ones, {1,3,4} one clause, {2,3,4} an even and an odd one
    cnf = Cnf(4, [(-2, 3, 4), (1, 2, 3), (1, 3, 4), (-1, 2, 4), (1, -2, -3),
                  (-1, 2, 3), (2, -4, 1), (2, 3, 4)])
    codes, first, multi = _check_triple_index(cnf)
    # s = 5: {1,2,3} 38, {1,2,4} 39, {1,3,4} 44, {2,3,4} 69
    assert codes == [38, 39, 44, 69]
    assert first == {38: 1, 39: 3, 44: 2, 69: 0}
    assert multi == {38: (1, 4, 5), 39: (3, 6), 69: (7, 0)}
    assert [[parity_vector(cnf, i) & 1 for i in multi[code]] for code in (38, 39, 69)] == [
        [0, 0, 1], [1, 1], [0, 1]]


@settings(max_examples=300)
@given(small_cnfs())
def test_triple_index_matches_reference(cnf):
    _check_triple_index(cnf)


def test_triple_index_matches_reference_on_random_formulas():
    for n, m, seed in ((6, 40, 0), (28, 318, 1), (200, 4995, 2)):
        _check_triple_index(gen_random_3cnf(n, m, seed))
    _check_triple_index(_shuffled_noisy(40, 30, 3))


@settings(max_examples=300)
@given(small_cnfs())
def test_pair_candidates_match_brute_force(cnf):
    pairs = _pair_candidates(cnf, _triple_index(cnf)[2])
    assert sorted(pairs) == _pair_list(cnf)
    assert len(set(pairs)) == len(pairs)
