"""Acceptance gate.

One test per headline property, each printing a single [PASS]/[FAIL]
line with the measured numbers.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete; without -s they still appear in the
captured-output section of any failure.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction

import numpy as np

from fkocert import (
    Clause,
    Cnf,
    CollectionSearchError,
    FkoWitness,
    approx_eigen,
    build_m,
    build_witness,
    certify_eigvalbound,
    check_proof,
    decide_constant_formula,
    eval_formula,
    eval_sequent,
    find_collection,
    gen_random_3cnf,
    parse_proof,
    substitute,
    verify_witness,
    witness_to_json,
)
from fkocert.cnf import imbalance, to_dimacs
from fkocert.spectral import certified_quadform_bound
from fkocert.tc0frege import Not, Sequent, free_vars
from fkocert.cli import main as cli_main

from conftest import (
    all_assignments,
    brute_force_unsat,
    is_3xor,
    max_quadform,
    nae_counts,
    not3xor_counts,
    planted_block,
    sat_literal_counts,
)
from test_tc0frege import LIBRARY, _mutants, _random_constant


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@functools.lru_cache(maxsize=None)
def _honest_cert(cnf: Cnf):
    """M and its c=8 Jacobi certificate, cached per formula so that the
    Fraction-reference check in test_spectral reuses the gate's work."""
    mat = build_m(cnf)
    return mat, approx_eigen(mat, 8)


def _noisy_blocks(blocks: int, extra: int, seed: int) -> Cnf:
    """Planted blocks plus a few random clauses: still unsatisfiable,
    but with nonzero imbalance and spectrum — real acceptances."""
    base = planted_block(blocks)
    rng = random.Random(seed)
    clauses = list(base.clauses)
    for _ in range(extra):
        vs = tuple(sorted(rng.sample(range(1, base.n + 1), 3)))
        clauses.append(Clause(vs, tuple(rng.randrange(2) for _ in range(3))))
    return Cnf(base.n, tuple(clauses))


# ----------------------------------------------------------- criterion 1


def _soundness_formulas():
    """Every formula the soundness gate builds an honest witness for:
    random formulas across densities, mostly small n, then planted
    families -- pure blocks and noisy blocks (n <= 24 so every acceptance
    stays inside the brute-force cap)."""
    ratios = (2.0, 3.0, 4.5, 6.0, 8.0)
    for i in range(420):
        n = 6 + (i % 7)  # 6..12
        m = max(4, int(n * ratios[i % len(ratios)]))
        yield gen_random_3cnf(n, m, seed=1000 + i)
    for i in range(30):
        n = (14, 16, 18)[i % 3]
        yield gen_random_3cnf(n, 6 * n, seed=5000 + i)
    for t in range(1, 9):
        yield planted_block(t)
    for i in range(20):
        yield _noisy_blocks(3 + i % 3, 2 + i % 4, seed=7000 + i)


def test_soundness_zero_tolerance():
    t0 = time.time()
    checked = 0
    acceptances = 0
    counterexamples = 0

    def judge(cnf: Cnf, wit: FkoWitness) -> None:
        nonlocal checked, acceptances, counterexamples
        checked += 1
        if verify_witness(cnf, wit).accepted:
            acceptances += 1
            if not brute_force_unsat(cnf):
                counterexamples += 1

    for cnf in _soundness_formulas():
        judge(cnf, build_witness(cnf, budget=20_000))

    # adversarially mutated witnesses: donor certificates and collections
    # grafted onto satisfiable formulas, plus tampered genuine witnesses
    donor_cnf = planted_block(2)
    donor = build_witness(donor_cnf)
    sat_targets = []
    j = 0
    while len(sat_targets) < 8:
        cand = gen_random_3cnf(6, 16, seed=9000 + j)
        j += 1
        if not brute_force_unsat(cand):
            sat_targets.append(cand)
    for tgt in sat_targets:
        for wit in (
            donor,
            replace(donor, imb=imbalance(tgt)),
            replace(donor, imb=imbalance(tgt), mat=None),
            replace(donor, imb=imbalance(tgt), mat=None,
                    coll=replace(donor.coll, t=donor.coll.t + 50)),
            replace(donor, imb=imbalance(tgt), mat=None,
                    lam=Fraction(-1), cert=replace(
                        donor.cert, lambdas=(Fraction(-1),) * donor.cert.n)),
        ):
            judge(tgt, wit)
    # tampered genuine witnesses on a truly UNSAT formula
    for wit in (
        replace(donor, coll=replace(donor.coll, t=donor.coll.t * 2)),
        replace(donor, imb=donor.imb + 2),
        replace(donor, lam=donor.lam + 1),
    ):
        judge(donor_cnf, wit)

    elapsed = time.time() - t0
    ok = checked >= 500 and counterexamples == 0
    _report(
        "soundness (accept => UNSAT)",
        ok,
        f"{checked} instances, {acceptances} acceptances, "
        f"{counterexamples} counterexamples, {elapsed:.1f}s",
    )


# ----------------------------------------------------------- criterion 2


def test_planted_end_to_end():
    failures = []
    for t in range(1, 11):
        cnf = planted_block(t)
        wit = build_witness(cnf)
        checks = (
            wit.imb == 0
            and all(x == 0 for row in wit.mat for x in row)
            and wit.lam == 0
            and wit.coll.t == 16 * t
            and wit.coll.d == 4
            and wit.coll.k == 2
            and verify_witness(cnf, wit).accepted
        )
        if t <= 6:
            checks = checks and brute_force_unsat(cnf)
        if not checks:
            failures.append(t)
    _report(
        "planted blocks end-to-end",
        not failures,
        f"T=1..10 exact quantities, brute-forced T<=6"
        + (f"; failed at T={failures}" if failures else ""),
    )


# ----------------------------------------------------------- criterion 3


def test_nae_identity_exact():
    pairs = 0
    bad = 0
    for seed in (11, 12):
        cnf = gen_random_3cnf(10, 50, seed=seed)
        n, m = cnf.n, cnf.m
        idx = np.arange(1 << n, dtype=np.int64)
        bits = (idx[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
        signs = 2 * bits - 1
        m2 = np.array(
            [[int(2 * x) for x in row] for row in build_m(cnf)],
            dtype=np.int64,
        )
        total = np.zeros(1 << n, dtype=np.int64)
        nae_total = np.zeros(1 << n, dtype=np.int64)
        for cl in cnf.clauses:
            x, y, z = (v - 1 for v in cl.vars)
            px, py, pz = cl.pols
            exy = 1 if px != py else -1
            exz = 1 if px != pz else -1
            eyz = 1 if py != pz else -1
            contrib = (exy * signs[:, x] * signs[:, y]
                       + exz * signs[:, x] * signs[:, z]
                       + eyz * signs[:, y] * signs[:, z])
            tx = bits[:, x] == px
            ty = bits[:, y] == py
            tz = bits[:, z] == pz
            nae = ~((tx & ty & tz) | (~tx & ~ty & ~tz))
            bad += int(np.count_nonzero(contrib != np.where(nae, 1, -3)))
            pairs += contrib.shape[0]
            total += contrib
            nae_total += nae
        quad = np.einsum("ai,ij,aj->a", signs, m2, signs) // 2
        bad += int(np.count_nonzero(quad != 4 * nae_total - 3 * m))
    _report(
        "NAE quadratic identity",
        pairs >= 100_000 and bad == 0,
        f"{pairs} (clause, assignment) pairs, {bad} mismatches; "
        f"a^T M a == 4*nae - 3m on all assignments",
    )


# ----------------------------------------------------------- criterion 4


def _lemma_chain_formulas():
    for i in range(50):
        n = (6, 8, 10, 12)[i % 4]
        m = int(n * (3.0, 3.5, 4.0, 5.0)[(i // 4) % 4])
        yield gen_random_3cnf(n, m, seed=400 + i)


def test_lemma_chain_small_scale():
    violations = 0
    instances = 0
    collections = 0
    for cnf in _lemma_chain_formulas():
        n, m = cnf.n, cnf.m
        instances += 1
        imb = imbalance(cnf)
        mat, cert = _honest_cert(cnf)
        rep = certify_eigvalbound(mat, cert)
        assert rep.passed
        if int(sat_literal_counts(cnf).max()) > Fraction(3 * m + imb, 2):
            violations += 1
        nae_cap = (cert.lambdas[0] * n + 3 * m + rep.slack) / 4
        if int(nae_counts(cnf).max()) > nae_cap:
            violations += 1
        try:
            coll = find_collection(cnf, k_max=4, d=4, t_target=1, budget=20_000)
        except CollectionSearchError:
            continue
        collections += 1
        if int(not3xor_counts(cnf).min()) < math.ceil(
                Fraction(coll.t, coll.d)):
            violations += 1
    _report(
        "lemma chain (literal, NAE, 3XOR bounds)",
        violations == 0,
        f"{instances} instances, all 2^n assignments, "
        f"{collections} with collections, {violations} violations",
    )


# ----------------------------------------------------------- criterion 5


LADDER = ([6] * 25 + [8] * 20 + [10] * 15 + [12] * 10 + [14] * 10
          + [18] * 6 + [22] * 4 + [26] * 3 + [30] * 2 + [38] * 2
          + [44] * 2 + [50])


def _ladder_formulas():
    ratios = (3.0, 4.2, 6.0)
    for i, n in enumerate(LADDER):
        yield gen_random_3cnf(n, int(n * ratios[i % 3]), seed=600 + i)


def test_spectral_certification_rate_and_bound():
    failures = []
    bound_violations = 0
    brute_checked = 0
    for cnf in _ladder_formulas():
        n, m = cnf.n, cnf.m
        mat, cert = _honest_cert(cnf)
        rep = certify_eigvalbound(mat, cert)
        if not rep.passed:
            failures.append((n, m, rep.failed_conditions(),
                             str(rep.rho), str(rep.tau)))
            continue
        if n <= 14:
            brute_checked += 1
            m2 = [[int(2 * x) for x in row] for row in mat]
            if max_quadform(m2) > certified_quadform_bound(mat, cert, rep):
                bound_violations += 1
    total = len(LADDER)
    rate = (total - len(failures)) / total
    ok = rate >= 0.99 and bound_violations == 0
    detail = (f"{total - len(failures)}/{total} certified ({rate:.1%}), "
              f"{brute_checked} brute-force bound checks, "
              f"{bound_violations} bound violations")
    if failures:
        detail += f"; residual failures: {failures}"
    _report("spectral certification", ok, detail)


# ----------------------------------------------------------- criterion 6


def _random_inconsistent_tuple(rng: random.Random, n: int, k: int) -> Cnf:
    """k clauses over [1..n]: every variable occurs an even number of
    times, total negation count odd.  Built by completing k-1 random
    clauses with a closing clause on the odd-occupancy variables."""
    while True:
        clauses = [
            Clause(tuple(sorted(rng.sample(range(1, n + 1), 3))),
                   tuple(rng.randrange(2) for _ in range(3)))
            for _ in range(k - 1)
        ]
        occ = {}
        for cl in clauses:
            for v in cl.vars:
                occ[v] = occ.get(v, 0) ^ 1
        odd = sorted(v for v, bit in occ.items() if bit)
        if len(odd) != 3:
            continue
        negs = sum(cl.neg_count() for cl in clauses)
        pols = [rng.randrange(2) for _ in range(3)]
        closing = Clause(tuple(odd), tuple(pols))
        if (negs + closing.neg_count()) % 2 == 0:
            pols[0] ^= 1
            closing = Clause(tuple(odd), tuple(pols))
        return Cnf(n, tuple(clauses) + (closing,))


def test_3xor_lemma_exhaustive():
    rng = random.Random(77)
    tuples = 0
    holes = 0
    while tuples < 200:
        k = rng.choice((2, 4, 6))
        n = rng.randint(max(4, k), 10)
        tup = _random_inconsistent_tuple(rng, n, k)
        occ = [0] * (tup.n + 1)
        for cl in tup.clauses:
            for v in cl.vars:
                occ[v] ^= 1
        assert not any(occ)
        assert sum(cl.neg_count() for cl in tup.clauses) % 2 == 1
        tuples += 1
        for a in all_assignments(tup.n):
            if all(is_3xor(cl, a) for cl in tup.clauses):
                holes += 1
                break
    _report(
        "inconsistent tuples block 3XOR",
        holes == 0,
        f"{tuples} random even inconsistent k-tuples (k<=6, n<=10), "
        f"exhaustive assignments, {holes} fully-3XOR assignments",
    )


# ----------------------------------------------------------- criterion 7


def test_proof_checker_gate():
    proofs = [(name, parse_proof(text)) for name, text in LIBRARY]
    accepted = sum(1 for _, p in proofs if check_proof(p).valid)

    mutants = 0
    escaped = 0
    for _, p in proofs:
        for mut in _mutants(p):
            mutants += 1
            if check_proof(mut).valid:
                escaped += 1

    sub_fail = 0
    for _, p in proofs:
        vs = sorted(set().union(
            *(free_vars(f) for st in p.steps
              for f in st.seq.ante + st.seq.succ)) or set())
        assert len(vs) <= 12
        for bits in itertools.product([False, True], repeat=len(vs)):
            sp = substitute(p, dict(zip(vs, bits)))
            if not check_proof(sp).valid or not eval_sequent(sp.final, {}):
                sub_fail += 1

    rng = random.Random(31)
    decide_fail = 0
    for _ in range(120):
        f = _random_constant(rng, rng.randrange(1, 5))
        pr = decide_constant_formula(f)
        want = f if eval_formula(f, {}) else Not(f)
        if not check_proof(pr).valid or pr.final != Sequent((), (want,)):
            decide_fail += 1

    ok = (accepted == len(proofs) >= 10 and mutants >= 100 and escaped == 0
          and sub_fail == 0 and decide_fail == 0)
    _report(
        "threshold sequent checker",
        ok,
        f"{accepted}/{len(proofs)} library proofs accepted, "
        f"{mutants} mutations / {escaped} escaped, "
        f"{sub_fail} substitution failures, {decide_fail} decide failures",
    )


# ----------------------------------------------------------- criterion 8


def _capture(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_determinism_across_runs_and_thread_counts():
    mismatches = []

    dim = [to_dimacs(gen_random_3cnf(30, 120, seed=9)) for _ in range(2)]
    if dim[0] != dim[1]:
        mismatches.append("gen")

    cnf = _noisy_blocks(2, 2, seed=42)
    wits = [witness_to_json(build_witness(cnf)) for _ in range(2)]
    if wits[0] != wits[1]:
        mismatches.append("witness")

    wit = build_witness(cnf)
    verdicts = [verify_witness(cnf, wit).to_json() for _ in range(2)]
    if verdicts[0] != verdicts[1]:
        mismatches.append("verify")

    argv = ["sweep", "--n", "6,8,10", "--m", "24", "--seeds", "2"]
    runs = {}
    saved = os.environ.get("FKO_THREADS")
    try:
        for threads in ("1", "8"):
            os.environ["FKO_THREADS"] = threads
            pair = [_capture(argv) for _ in range(2)]
            if pair[0] != pair[1]:
                mismatches.append(f"sweep rerun @{threads}")
            runs[threads] = pair[0]
        if runs["1"] != runs["8"]:
            mismatches.append("sweep thread count")
    finally:
        if saved is None:
            os.environ.pop("FKO_THREADS", None)
        else:
            os.environ["FKO_THREADS"] = saved

    _report(
        "determinism (seeds + FKO_THREADS 1 vs 8)",
        not mismatches,
        "gen/witness/verify/sweep byte-identical"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
