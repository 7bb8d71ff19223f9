import ast
import copy
import functools
import itertools
import json
import math
import random
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from fkocert import (
    Clause,
    Cnf,
    FkoWitness,
    TupleCollection,
    SpectralCert,
    CertificationError,
    Verdict,
    WitnessFormatError,
    approx_eigen,
    build_m,
    build_witness,
    certify_eigvalbound,
    gen_random_3cnf,
    is_inconsistent_tuple,
    unsat3xor_lower_bound,
    verify_witness,
    witness_from_json,
    witness_to_json,
)
from fkocert.cnf import imbalance
from fkocert.exactq import grid_denominator
from fkocert.spectral import C_MAX
from fkocert.spectral import certified_quadform_bound, tolerances
from fkocert.tuples import check_collection
from fkocert.witness import _rat_in, _rat_out, _ratio, _show, _threshold
from conftest import brute_force_unsat, nae_counts, not3xor_counts, planted_block
from test_acceptance import _noisy_blocks

F = Fraction


def _nae_cap(cnf, cert):
    """(U + 3m)/4, U the certified bound: no assignment NAE-satisfies more.
    Raises CertificationError when the certificate fails."""
    return (certified_quadform_bound(build_m(cnf), cert) + 3 * cnf.m) / 4


def test_planted_block_end_to_end():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    assert wit.imb == 0
    assert wit.lam == 0
    assert wit.coll.t == 16 and wit.coll.k == 2 and wit.coll.d == 4
    assert all(x == 0 for row in wit.mat for x in row)
    verdict = verify_witness(cnf, wit)
    assert verdict.accepted
    assert verdict.u == 0
    assert verdict.margin == 16
    assert verdict.tuple_bound == 4
    assert brute_force_unsat(cnf)


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_planted_multiblock_quantities(blocks):
    cnf = planted_block(blocks)
    wit = build_witness(cnf)
    assert wit.coll.t == 16 * blocks
    assert wit.coll.k == 2
    assert verify_witness(cnf, wit).accepted
    assert _nae_cap(cnf, wit.cert) == 6 * cnf.m // 8
    assert unsat3xor_lower_bound(wit) == 4 * blocks
    assert int(nae_counts(cnf).max()) == 6 * blocks
    assert int(not3xor_counts(cnf).min()) == 4 * blocks


WITNESS_SOURCE = Path(__file__).resolve().parent.parent / "src" / "fkocert" / "witness.py"


@pytest.mark.parametrize("cnf", [planted_block(2), _noisy_blocks(3, 4, 7),
                                 gen_random_3cnf(6, 200, 0), gen_random_3cnf(10, 40, 1)],
                         ids=["planted", "noisy planted", "dense accepted", "near miss"])
def test_build_witness_certifies_nothing(cnf, certify_calls):
    # certification runs only in the verifier, once, and only when t
    # clears d*(I + lambdas[0]*n)/2
    wit = build_witness(cnf)
    assert certify_calls == []
    verdict = verify_witness(cnf, wit)
    early = verdict.reason == "inequality" and "lambda*n" in verdict.detail
    assert len(certify_calls) == (0 if early else 1)


def test_build_witness_calls_no_certification():
    tree = ast.parse(WITNESS_SOURCE.read_text())
    [build] = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "build_witness"]
    called = {node.func.id for node in ast.walk(build)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    called |= {node.func.attr for node in ast.walk(build)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert called & {"certify_eigvalbound", "certified_quadform_bound"} == set()
    assert "find_collection" in called  # the walk sees the body's calls


@pytest.mark.parametrize("params", [dict(budget=-1), dict(d=0), dict(k_max=3)])
def test_build_witness_refuses_search_params_before_any_work(monkeypatch, params):
    import fkocert.witness as witness_mod

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the parameter check")

    for name in ("imbalance", "build_m", "approx_eigen", "find_collection"):
        monkeypatch.setattr(witness_mod, name, no_work)
    with pytest.raises(ValueError):
        build_witness(gen_random_3cnf(8, 40, 0), **params)


def _forced_failure_formulas():
    """Noisy planted blocks, mostly accepted at the default tolerances,
    and random formulas with n <= 10: dense ones the verifier accepts and
    sparser near misses."""
    for blocks, extra, seed in itertools.product((1, 2, 3), (2, 4), (0, 1)):
        yield _noisy_blocks(blocks, extra, seed)
    for n, m, seed in itertools.product((6, 8, 10), (24, 200), (0, 1)):
        yield gen_random_3cnf(n, m, seed)


def test_failing_certificate_is_built_and_never_accepted(monkeypatch):
    # K3 = K4 = K5 = 0: every tolerance is 0, so a certificate with any
    # nonzero residual fails; exact eigendata (M = 0) still passes
    for name in ("k3", "k4", "k5"):
        monkeypatch.setattr(SpectralCert, name, F(0))
    reasons = []
    for cnf in _forced_failure_formulas():
        wit = build_witness(cnf)
        if certify_eigvalbound(build_m(cnf), wit.cert).passed:
            continue
        verdict = verify_witness(cnf, wit)
        assert not verdict.accepted
        assert verdict.reason in ("EigValBound", "inequality")
        assert (verdict.threshold is None) == (verdict.reason == "EigValBound")
        reasons.append(verdict.reason)
    assert {"EigValBound", "inequality"} <= set(reasons)


def test_single_clause_fails_at_collection():
    # no inconsistent tuple exists: the builder returns t = 0, the verifier
    # rejects it at the inequality
    cnf = Cnf(3, (Clause((1, 2, 3), (1, 1, 1)),))
    wit = build_witness(cnf)
    assert wit.coll.t == 0
    verdict = verify_witness(cnf, wit)
    assert verdict.reason == "inequality" and verdict.threshold is not None


def test_nae_bound_example():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    # (lam*n + 3m + slack)/4 with lam = slack = 0 and m = 8
    assert _nae_cap(cnf, wit.cert) == 6
    assert unsat3xor_lower_bound(wit) == 4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nae_bound_ignores_a_lowered_lambda_field(seed):
    cnf = gen_random_3cnf(8, 30, seed)
    wit = build_witness(cnf)
    best = int(nae_counts(cnf).max())
    # the bound reads the certificate only, never the witness's lam field
    assert _nae_cap(cnf, wit.cert) >= best
    # a lowered top eigenvalue in the certificate itself fails certification
    forged = replace(wit.cert, lambdas=wit.cert.lambdas[::-1])
    with pytest.raises(CertificationError):
        _nae_cap(cnf, forged)


@pytest.mark.parametrize("cnf", [planted_block(2), gen_random_3cnf(6, 28, 2)],
                         ids=["accepted", "inequality"])
@pytest.mark.parametrize("c", [1, 7, C_MAX + 1])
def test_witness_c_field_gives_one_verdict_in_memory_and_from_json(cnf, c):
    wit = replace(build_witness(cnf), c=c)
    text = witness_to_json(wit)
    assert json.loads(text)["c"] == wit.cert.c
    assert verify_witness(cnf, witness_from_json(text)) == verify_witness(cnf, wit)


def test_lower_bound_of_empty_collection():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    empty = replace(wit, coll=TupleCollection((), t=0, k=2, d=4))
    assert unsat3xor_lower_bound(empty) == 0


def test_inequality_arithmetic_in_isolation():
    t, d, imb, lam, n, slack = 100, 2, 40, F(1, 2), 20, F(1, 10)
    rhs = F(d) * (imb + lam * n + slack) / 2
    assert rhs == F(501, 10)
    assert t > rhs


def _agreement_formulas():
    """Random formulas with n <= 10 across densities, plus planted blocks
    with and without noise, so that both verdicts occur."""
    rng = random.Random(13)
    for i in range(60):
        n = rng.randint(3, 10)
        yield gen_random_3cnf(n, rng.randint(1, 8 * n), seed=i)
    for blocks in (1, 2, 3):
        yield planted_block(blocks)
        yield _noisy_blocks(blocks, 2 * blocks, seed=blocks)


def test_builder_verifier_agreement_random():
    accepted = rejected = 0
    for cnf in _agreement_formulas():
        wit = build_witness(cnf)
        verdict = verify_witness(cnf, wit)
        assert verdict.threshold is not None
        assert verdict.accepted == (wit.coll.t > verdict.threshold)
        if verdict.accepted:
            accepted += 1
            assert brute_force_unsat(cnf)
        else:
            rejected += 1
            assert verdict.reason == "inequality"
        back = verify_witness(cnf, witness_from_json(witness_to_json(wit)))
        assert back.to_json() == verdict.to_json()
    assert accepted >= 1 and rejected >= 1


def test_verify_rejects_shape_mismatch():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    bad = replace(wit, n=4)
    v = verify_witness(cnf, bad)
    assert not v.accepted and v.reason == "3CNF"
    bad = replace(wit, m=9)
    v = verify_witness(cnf, bad)
    assert not v.accepted and v.reason == "3CNF"


def test_verify_rejects_inflated_t():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    bad = replace(wit, coll=replace(wit.coll, t=17))
    v = verify_witness(cnf, bad)
    assert not v.accepted and v.reason == "Coll"


def test_verify_rejects_wrong_imbalance():
    cnf = Cnf(3, (Clause((1, 2, 3), (1, 1, 1)), Clause((1, 2, 3), (0, 0, 0)),
                  Clause((1, 2, 3), (1, 1, 0)), Clause((1, 2, 3), (0, 0, 1))))
    wit = build_witness(cnf)
    assert wit.imb == imbalance(cnf)
    bad = replace(wit, imb=wit.imb + 2)
    v = verify_witness(cnf, bad)
    assert not v.accepted and v.reason == "Imb"


def test_verify_ignores_tampered_matrix():
    # the verifier rebuilds M from the formula and never reads wit.mat
    for cnf in (planted_block(1), gen_random_3cnf(8, 45, 3)):  # accepted, inequality
        wit = build_witness(cnf)
        rows = [list(r) for r in wit.mat]
        rows[0][1] += F(1, 2)
        rows[1][0] += F(1, 2)
        want = verify_witness(cnf, wit)
        for mat in (tuple(tuple(r) for r in rows), (), None):
            assert verify_witness(cnf, replace(wit, mat=mat)) == want


def test_verify_rejects_forged_spectrum():
    cnf, wit = _accepted_dense()
    shrunk = replace(wit.cert, lambdas=tuple(x - 1 for x in wit.cert.lambdas))
    bad = replace(wit, cert=shrunk, lam=shrunk.lambdas[0])
    v = verify_witness(cnf, bad)
    assert not v.accepted and v.reason == "EigValBound"


def test_verify_rejects_wrong_lambda_field():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    bad = replace(wit, lam=wit.lam + 1)
    v = verify_witness(cnf, bad)
    assert not v.accepted and v.reason == "lambda-max"


def test_verify_rejects_short_collection():
    # valid small collection on an unbalanced instance: inequality fails
    cnf = gen_random_3cnf(8, 45, 3)
    wit = build_witness(cnf)
    v = verify_witness(cnf, wit)
    assert not v.accepted
    assert v.reason == "inequality"


def test_verifier_never_accepts_satisfiable_with_forged_fields():
    sat = Cnf(3, (Clause((1, 2, 3), (1, 1, 1)),) * 4)
    assert not brute_force_unsat(sat)
    donor = planted_block(1)
    wit = build_witness(donor)
    v = verify_witness(sat, wit)
    assert not v.accepted


def test_epsilon_key_is_ignored():
    # epsilon is no longer a witness field: the builder leaves it unset,
    # and a key of that name, which older files carry, changes nothing
    cnf = planted_block(1)
    wit = build_witness(cnf)
    assert wit.epsilon is None
    assert verify_witness(cnf, replace(wit, epsilon=F(0))) == verify_witness(cnf, wit)
    for eps in ({"num": "1", "den": "2"}, {"num": "0", "den": "1"},
                {"num": "-1", "den": "1"}, {"num": "1", "den": "0"}, "x", None):
        obj = _honest_json()
        obj["epsilon"] = eps
        back = witness_from_json(json.dumps(obj))
        assert back == witness_from_json(witness_to_json(wit))
        assert verify_witness(cnf, back) == verify_witness(cnf, wit)


def test_verdict_json_shapes():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    good = json.loads(verify_witness(cnf, wit).to_json())
    assert good["accepted"] is True
    assert good["certified"]["U"] == {"num": "0", "den": "1"}
    assert good["certified"]["threshold"] == {"num": "0", "den": "1"}
    bad = verify_witness(cnf, replace(wit, n=4))
    assert bad.threshold is None
    bad = json.loads(bad.to_json())
    assert bad["accepted"] is False and bad["reason"] == "3CNF"
    assert "threshold" not in bad


def test_witness_json_round_trip():
    cnf = planted_block(2)
    wit = build_witness(cnf)
    text = witness_to_json(wit)
    back = witness_from_json(text)
    assert back.n == wit.n and back.m == wit.m and back.c == wit.c
    assert back.imb == wit.imb
    assert back.lam == wit.lam
    assert back.cert.lambdas == wit.cert.lambdas
    assert back.cert.v == wit.cert.v
    assert back.coll == wit.coll
    assert back.epsilon is None
    assert back.mat is None  # matrix travels by recomputation
    assert verify_witness(cnf, back).accepted
    # serialization is deterministic
    assert witness_to_json(wit) == text


def test_witness_json_fields():
    wit = build_witness(planted_block(1))
    payload = json.loads(witness_to_json(wit))
    assert set(payload) == {
        "n", "m", "c", "I", "lambda", "lambdas", "V", "D",
    }
    assert payload["D"]["t"] == 16
    assert payload["lambda"] == {"num": "0", "den": "1"}
    assert "M" not in payload


@pytest.mark.parametrize("k", [0, 10**6, "x", None])
def test_witness_file_cannot_pick_its_tolerances(k):
    # K3-K5 are constants of the verifier: keys of that name, which older
    # files carry, are ignored like any unknown key
    cnf = gen_random_3cnf(6, 20, 1)
    m = build_m(cnf)
    cert = approx_eigen(m, 8)
    wit = FkoWitness(n=6, m=cnf.m, c=8, imb=imbalance(cnf), mat=None, cert=cert,
                     lam=cert.lambdas[0], coll=TupleCollection((), t=0, k=2, d=4))
    payload = json.loads(witness_to_json(wit))
    payload.update(K3=k, K4=k, K5=k)
    back = witness_from_json(json.dumps(payload))
    assert back == wit
    assert verify_witness(cnf, back) == verify_witness(cnf, wit)
    assert (back.cert.k3, back.cert.k4, back.cert.k5) == (16, 16, 16)


def test_witness_json_is_compact_one_line_and_deterministic():
    cnf = planted_block(2)
    text = witness_to_json(build_witness(cnf))
    assert "\n" not in text
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    assert witness_to_json(build_witness(cnf)) == text
    assert witness_to_json(witness_from_json(text)) == text


def test_indented_witness_parses_to_same_witness_and_verdict():
    cnf = planted_block(2)
    text = witness_to_json(build_witness(cnf))
    indented = json.dumps(json.loads(text), sort_keys=True, indent=1)
    assert indented != text
    compact, loose = witness_from_json(text), witness_from_json(indented)
    assert loose == compact
    assert verify_witness(cnf, loose) == verify_witness(cnf, compact)
    assert verify_witness(cnf, loose).accepted


_RAT_FIELDS = {
    "lambda": lambda obj: (obj, "lambda"),
    # no longer a field: older files carry it, and any value is ignored
    "epsilon": lambda obj: (obj, "epsilon"),
    "lambdas[0]": lambda obj: (obj["lambdas"], 0),
    "V[0][0]": lambda obj: (obj["V"][0], 0),
}


@pytest.mark.parametrize("field", sorted(_RAT_FIELDS))
@pytest.mark.parametrize("value", [True, False, 0.0, 0.1, "0/1", "1/2", None, [0]])
def test_rational_fields_reject_bools_floats_and_fraction_strings(field, value):
    obj = _honest_json()
    parent, key = _RAT_FIELDS[field](obj)
    parent[key] = value
    if field == "epsilon":
        assert witness_from_json(json.dumps(obj)) == witness_from_json(
            json.dumps(_honest_json()))
        return
    with pytest.raises(WitnessFormatError):
        witness_from_json(json.dumps(obj))


@pytest.mark.parametrize("value", [0, "0", "-0", {"num": 0, "den": "3"},
                                   {"num": "0", "den": -1}, {"num": "-0", "den": "1"}])
def test_rational_fields_take_pairs_integers_and_integer_strings(value):
    cnf = planted_block(1)
    obj = _honest_json()
    assert obj["lambda"] == {"num": "0", "den": "1"}
    obj["lambda"] = value
    wit = witness_from_json(json.dumps(obj))
    assert type(wit.lam) is Fraction and wit.lam == 0
    assert verify_witness(cnf, wit).accepted


_INT_SITES = {
    "lambda": lambda obj: (obj, "lambda"),
    "lambda.num": lambda obj: (obj["lambda"], "num"),
    "lambda.den": lambda obj: (obj["lambda"], "den"),
    "n": lambda obj: (obj, "n"),
    "D.t": lambda obj: (obj["D"], "t"),
}


@pytest.mark.parametrize("site", sorted(_INT_SITES))
@pytest.mark.parametrize("text", [" 0 ", "0 ", "0_0", "+1", "\u0660", "--1", "-", "",
                                  "1e3", "0x1"])
def test_integer_strings_are_ascii_decimal(site, text):
    # int() takes " 0 ", "0_0", "+1" and the Arabic-Indic zero
    obj = _honest_json()
    parent, key = _INT_SITES[site](obj)
    parent[key] = text
    with pytest.raises(WitnessFormatError):
        witness_from_json(json.dumps(obj))


@pytest.mark.parametrize("site", ["n", "D.t"])
def test_integer_fields_take_decimal_strings(site):
    obj = _honest_json()
    parent, key = _INT_SITES[site](obj)
    parent[key] = str(parent[key])
    assert witness_from_json(json.dumps(obj)) == witness_from_json(json.dumps(_honest_json()))


def test_wrong_lambda_is_rejected_before_certification(certify_calls):
    cnf = planted_block(2)
    obj = json.loads(witness_to_json(build_witness(cnf)))
    assert verify_witness(cnf, witness_from_json(json.dumps(obj))).accepted
    assert len(certify_calls) == 1
    lam = obj["lambda"]
    lam["num"] = str(int(lam["num"]) + int(lam["den"]))
    verdict = verify_witness(cnf, witness_from_json(json.dumps(obj)))
    assert verdict.reason == "lambda-max"
    assert len(certify_calls) == 1


def test_verify_rejects_empty_formula_without_raising():
    wit = FkoWitness(n=0, m=0, c=8, imb=0, mat=None, cert=SpectralCert((), (), 8),
                     lam=F(0), coll=TupleCollection((), 0, 2, 4))
    assert verify_witness(Cnf(0, ()), wit) == Verdict(
        False, "EigValBound", "n=0: no eigenvalue to certify")


def test_build_witness_on_empty_formula():
    # no eigenvalue to approximate: an empty certificate, lambda = 0 and
    # t = 0, which the verifier rejects at its n = 0 conjunct
    cnf = Cnf(0, ())
    wit = build_witness(cnf)
    assert (wit.n, wit.m, wit.imb, wit.lam, wit.coll.t) == (0, 0, 0, 0, 0)
    assert wit.cert == SpectralCert((), (), 8)
    want = Verdict(False, "EigValBound", "n=0: no eigenvalue to certify")
    assert verify_witness(cnf, wit) == want
    text = witness_to_json(wit)
    obj = json.loads(text)
    assert (obj["lambdas"], obj["V"], obj["lambda"]) == ([], [], {"num": "0", "den": "1"})
    back = witness_from_json(text)
    assert back == replace(wit, mat=None)
    assert witness_to_json(back) == text
    assert verify_witness(cnf, back) == want


def test_verify_is_pure():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    assert verify_witness(cnf, wit) == verify_witness(cnf, wit)


@pytest.mark.parametrize("shape", ["short row", "long row", "missing row"])
def test_verify_rejects_non_square_v(shape):
    cnf, wit = _accepted_dense()
    rows = [list(r) for r in wit.cert.v]
    if shape == "short row":
        rows[-1].pop()
    elif shape == "long row":
        rows[0].append(F(0))
    else:
        rows.pop()
    bad = replace(wit, cert=replace(wit.cert, v=tuple(tuple(r) for r in rows)))
    v = verify_witness(cnf, bad)
    assert v == Verdict(False, "EigValBound", "V is not n x n")


def _honest_json() -> dict:
    return json.loads(witness_to_json(build_witness(planted_block(1))))


def _den_zero(obj):
    obj["lambdas"][0]["den"] = "0"


def _missing_d(obj):
    del obj["D"]


def _num_x(obj):
    obj["V"][0][0]["num"] = "x"


def _float_n(obj):
    obj["n"] = 3.5


def _v_not_a_list(obj):
    obj["V"] = 7


def _lambdas_a_string(obj):
    # "000" would read as three zero eigenvalues, which planted_block(1) has
    obj["lambdas"] = "0" * len(obj["lambdas"])


def _v_row_an_object(obj):
    obj["V"][0] = {str(j): x for j, x in enumerate(obj["V"][0])}


def _v_row_a_string(obj):
    obj["V"][0] = "1" * len(obj["V"][0])


def _tuples_strings(obj):
    obj["D"]["tuples"] = ["".join(map(str, tup)) for tup in obj["D"]["tuples"]]


def _tuples_an_object(obj):
    obj["D"]["tuples"] = {str(i): tup for i, tup in enumerate(obj["D"]["tuples"])}


MALFORMED = {"den 0": _den_zero, "missing D": _missing_d, "num x": _num_x,
             "float n": _float_n, "V not a list": _v_not_a_list,
             "lambdas a string": _lambdas_a_string, "V row an object": _v_row_an_object,
             "V row a string": _v_row_a_string, "tuples strings": _tuples_strings,
             "tuples an object": _tuples_an_object}


@pytest.mark.parametrize("how", sorted(MALFORMED))
def test_witness_from_json_format_errors(how):
    obj = _honest_json()
    MALFORMED[how](obj)
    with pytest.raises(WitnessFormatError):
        witness_from_json(json.dumps(obj))


def test_witness_from_json_bad_json_text():
    with pytest.raises(WitnessFormatError):
        witness_from_json("{not json")
    with pytest.raises(WitnessFormatError):
        witness_from_json("[1, 2]")
    # json.loads raises RecursionError, a RuntimeError, on deep nesting
    with pytest.raises(WitnessFormatError, match="recursion"):
        witness_from_json("[" * 200_000 + "]" * 200_000)
    assert issubclass(WitnessFormatError, ValueError)


# ------------------------------------- hostile certificates, dense formula

@functools.cache
def _dense_text() -> tuple[Cnf, str]:
    """A dense n = 28 formula and an on-grid near-miss witness for it: t is
    at or below d*(I+lambda*n)/2, so the verifier rejects it at the
    inequality before it certifies."""
    cnf = gen_random_3cnf(28, 318, 1)  # m = floor(3 n^1.4)
    return cnf, witness_to_json(build_witness(cnf))


@functools.cache
def _accepted_dense() -> tuple[Cnf, FkoWitness]:
    """The dense formula with 40 planted blocks laid over its first nine
    variable triples, and a witness the verifier accepts.  A block adds
    16 tuples and changes neither n, M nor I, so t clears d*(I+U)/2."""
    dense, _ = _dense_text()
    blocks = planted_block(9).clauses
    cnf = Cnf(dense.n, dense.clauses + tuple(
        blocks[8 * (b % 9) + i] for b in range(40) for i in range(8)))
    return cnf, build_witness(cnf)


def _accepted_dense_text() -> tuple[Cnf, str]:
    cnf, wit = _accepted_dense()
    return cnf, witness_to_json(wit)


def _off_grid_v(text: str, digits: int) -> str:
    """The witness with every V entry rounded to a multiple of 1/p, for
    one odd p of `digits` digits prime to 7: off the 1/28^16 grid."""
    p = 10 ** (digits - 1) + 1
    assert p % 7
    obj = json.loads(text)
    obj["V"] = [[_rat_out(F(round(_rat_in(x) * p), p)) for x in row] for row in obj["V"]]
    return json.dumps(obj)


def test_off_grid_v_is_rejected_before_any_product(monkeypatch):
    import fkocert.spectral as spectral_mod

    calls = []
    gram_dev = spectral_mod.gram_dev

    def counting(*args):
        calls.append(args)
        return gram_dev(*args)

    cnf, text = _accepted_dense_text()
    monkeypatch.setattr(spectral_mod, "gram_dev", counting)
    assert verify_witness(cnf, witness_from_json(text)).accepted
    assert len(calls) == 2
    for digits in (50, 200):
        verdict = verify_witness(cnf, witness_from_json(_off_grid_v(text, digits)))
        assert not verdict.accepted and verdict.reason == "EigValBound"
        assert re.fullmatch(r"V\[\d+\]\[\d+\] is off the 1/n\^\(2c\) grid", verdict.detail)
    assert len(calls) == 2


def _huge_eigenvalue(sign: int) -> dict:
    """An on-grid eigenvalue of the n = 28 witnesses whose numerator is
    4300 nines, the most digits a witness file can carry."""
    return {"num": str(sign * (10 ** 4300 - 1)), "den": str(grid_denominator(28, 8))}


def test_huge_lambda_residual_gives_a_bounded_detail():
    # the lowest eigenvalue, so that t still clears d*(I+lambda*n)/2; tau
    # then has more digits than str() of an int allows
    cnf, text = _accepted_dense_text()
    obj = json.loads(text)
    obj["lambdas"][-1] = _huge_eigenvalue(-1)
    wit = witness_from_json(json.dumps(obj))
    assert len(str(-wit.cert.lambdas[-1].numerator)) == 4300
    verdict = verify_witness(cnf, wit)
    assert verdict == Verdict(False, "EigValBound", verdict.detail)
    assert re.fullmatch(r"failed conditions: \['eigen'\]; rho/tol=\S+, tau/tol=~2\^\d+",
                        verdict.detail)
    json.loads(verdict.to_json())


@functools.cache
def _lowered_planted_text() -> tuple[Cnf, str]:
    """planted_block(2) and its witness with the last eigenvalue lowered to
    -7^10/n^(2c).  It still certifies and is accepted.  I = lambdas[0] = 0,
    so any d passes d*(I+lambda*n)/2 = 0, but tau and so U are > 0: a
    large enough d meets the certified inequality."""
    cnf = planted_block(2)
    obj = json.loads(witness_to_json(build_witness(cnf)))
    obj["lambdas"][-1] = {"num": str(-7 ** 10), "den": str(grid_denominator(6, 8))}
    return cnf, json.dumps(obj)


def _huge_d_text() -> tuple[Cnf, str]:
    """The lowered planted witness with a 4300-digit D.d, which parses:
    d*(I+U)/2 then has more digits than str() of an int allows."""
    cnf, text = _lowered_planted_text()
    obj = json.loads(text)
    obj["D"]["d"] = "1" + "0" * 4299
    return cnf, json.dumps(obj)


def test_huge_d_gives_a_bounded_inequality_detail():
    cnf, text = _lowered_planted_text()
    accepted = verify_witness(cnf, witness_from_json(text))
    assert accepted.accepted
    obj = json.loads(text)
    obj["D"]["d"] = grid_denominator(6, 8)
    plain = verify_witness(cnf, witness_from_json(json.dumps(obj)))
    assert plain.reason == "inequality"
    assert re.fullmatch(r"t=\d+ <= d\*\(I\+U\)/2 = \d+(/\d+)?", plain.detail)
    # the certified inequality reports d*(I+U)/2 as its threshold
    assert plain.threshold == grid_denominator(6, 8) * accepted.u / 2
    assert _rat_in(json.loads(plain.to_json())["threshold"]) == plain.threshold
    cnf, text = _huge_d_text()
    verdict = verify_witness(cnf, witness_from_json(text))
    assert verdict == Verdict(False, "inequality", verdict.detail, threshold=verdict.threshold)
    assert re.fullmatch(r"t=\d+ <= d\*\(I\+U\)/2 = ~2\^\d+", verdict.detail)
    json.loads(verdict.to_json())


# ------------------------------------------ the inequality before certifying

def test_near_miss_is_rejected_before_certification():
    cnf, text = _dense_text()
    wit = witness_from_json(text)
    verdict = verify_witness(cnf, wit)
    rhs = F(wit.coll.d) * (wit.imb + wit.cert.lambdas[0] * cnf.n) / 2
    assert verdict == Verdict(False, "inequality",
                              f"t={wit.coll.t} <= d*(I+lambda*n)/2 = {rhs}", threshold=rhs)
    assert re.fullmatch(r"t=\d+ <= d\*\(I\+lambda\*n\)/2 = \d+(/\d+)?", verdict.detail)
    assert _rat_in(json.loads(verdict.to_json())["threshold"]) == rhs
    # certifying first rejects it too, against the larger d*(I+U)/2
    ref = reference_verify_witness(cnf, wit)
    assert ref.reason == "inequality" and ref.detail.startswith(f"t={wit.coll.t} <= d*(I+U)/2")


@pytest.mark.parametrize("field", ["D.d", "lambdas[0]"])
def test_huge_early_threshold_gives_a_bounded_detail(field):
    cnf, text = _dense_text()
    obj = json.loads(text)
    if field == "D.d":
        obj["D"]["d"] = "1" + "0" * 4299
    else:
        obj["lambdas"][0] = obj["lambda"] = _huge_eigenvalue(1)
    verdict = verify_witness(cnf, witness_from_json(json.dumps(obj)))
    assert verdict == Verdict(False, "inequality", verdict.detail, threshold=verdict.threshold)
    assert re.fullmatch(r"t=\d+ <= d\*\(I\+lambda\*n\)/2 = ~2\^\d+", verdict.detail)
    # the JSON threshold keeps every digit
    blob = json.loads(verdict.to_json())
    assert len(blob["threshold"]["num"]) > 4300


def test_early_rejection_is_at_or_below_the_bound():
    # lambdas[0] = 1/n on planted_block(2), I = 0 and d = 4 put
    # d*(I+lambda*n)/2 at 2: t = 2 is rejected before certification, and
    # t = 3 reaches it and fails there (M = 0, so tau = 1/n)
    cnf = planted_block(2)
    wit = build_witness(cnf)
    lams = (F(1, cnf.n),) + wit.cert.lambdas[1:]
    raised = replace(wit, lam=lams[0], cert=replace(wit.cert, lambdas=lams))
    verdicts = [verify_witness(cnf, replace(raised, coll=replace(
        wit.coll, tuples=wit.coll.tuples[:t], t=t))) for t in (2, 3)]
    assert verdicts[0] == Verdict(False, "inequality", "t=2 <= d*(I+lambda*n)/2 = 2",
                                  threshold=F(2))
    assert verdicts[1].reason == "EigValBound"


def test_t_needed_is_least_accepted_t():
    # sweep's t_needed is floor(threshold) + 1
    # d*(I+U)/2 = 4*(3 + 1/2)/2 = 7: integral, the verifier needs t >= 8
    assert math.floor(_threshold(4, 3, F(1, 2))) + 1 == 8
    # d*(I+U)/2 = 1*(3 + 0)/2 = 3/2: fractional, t = 2 already exceeds it
    assert math.floor(_threshold(1, 3, F(0))) + 1 == 2
    for d, imb, u in ((4, 3, F(1, 2)), (1, 3, F(0)), (3, 5, F(7, 3))):
        t = math.floor(_threshold(d, imb, u)) + 1
        rhs = F(d) * (imb + u) / 2
        assert t > rhs and not t - 1 > rhs


@pytest.mark.parametrize("c", [0, -1, 10**6])
def test_verify_rejects_grid_exponent_out_of_range(c):
    cnf = planted_block(2)
    obj = json.loads(witness_to_json(build_witness(cnf)))
    obj["c"] = c
    wit = witness_from_json(json.dumps(obj))
    start = time.perf_counter()
    verdict = verify_witness(cnf, wit)
    assert time.perf_counter() - start < 0.5
    assert not verdict.accepted
    assert verdict.reason == "EigValBound"
    assert f"c={c}" in verdict.detail


def test_certify_rejects_grid_exponent_out_of_range():
    m = build_m(planted_block(1))
    cert = approx_eigen(m, 8)
    for c in (0, C_MAX + 1):
        with pytest.raises(ValueError, match="grid exponent"):
            certify_eigvalbound(m, replace(cert, c=c))
        with pytest.raises(ValueError, match="grid exponent"):
            approx_eigen(m, c)


def _blocks_grown(*calls: str) -> list[int]:
    """Growth of sys.getallocatedblocks over 200 runs of each call, in a
    fresh interpreter with an n = 12 formula, its M, certificate and
    witness (text) set up.

    A tuple built from a generator is allocated at one length and resized;
    freed, it joins the interpreter's free list for its final length, so
    a loop of such builds parks up to 2000 tuples there.  A fresh
    interpreter keeps the free lists near empty, so growth shows.
    """
    code = (
        "import sys\n"
        "from fkocert import (build_m, approx_eigen, certify_eigvalbound,\n"
        "                     gen_random_3cnf, find_collection, witness_from_json,\n"
        "                     witness_to_json, FkoWitness)\n"
        "cnf = gen_random_3cnf(12, 100, 1)\n"
        "mat = build_m(cnf)\n"
        "cert = approx_eigen(mat, 8)\n"
        "coll = find_collection(cnf, k_max=4, d=4, t_target=1)\n"
        "wit = FkoWitness(n=12, m=100, c=8, imb=0, mat=None, cert=cert,\n"
        "                 lam=cert.lambdas[0], coll=coll)\n"
        "text = witness_to_json(wit)\n"
        f"for f in ({', '.join(f'lambda: {call}' for call in calls)},):\n"
        "    f()\n"
        "    before = sys.getallocatedblocks()\n"
        "    for _ in range(200):\n"
        "        f()\n"
        "    print(sys.getallocatedblocks() - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout.split()
    assert len(out) == len(calls)
    return [int(grown) for grown in out]


def test_repeated_certify_and_parse_park_no_tuples():
    grown = _blocks_grown("certify_eigvalbound(mat, cert)", "witness_from_json(text)")
    assert all(g < 100 for g in grown), grown


def test_repeated_build_m_and_witness_to_json_stay_flat():
    grown = _blocks_grown("build_m(cnf)", "witness_to_json(wit)")
    assert all(g < 100 for g in grown), grown


# ------------------------------------------- mutated witness files, fuzzed

@functools.cache
def _planted_text(blocks):
    return witness_to_json(build_witness(planted_block(blocks)))


def _planted_json(blocks):
    """A fresh copy of a planted witness's JSON object."""
    return json.loads(_planted_text(blocks))


def _json_paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _json_paths(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _json_paths(item, path + (i,))


_JSON_VALUES = st.one_of(
    st.integers(-3, 40), st.integers(), st.integers(-3, 40).map(str), st.text(max_size=3),
    st.floats(), st.none(), st.booleans(), st.just([]), st.just({}),
    st.just({"num": "1", "den": "0"}), st.just({"num": "1"}), st.just([[0, 1]]),
)


@st.composite
def mutated_witnesses(draw):
    """(satisfiable formula, witness JSON text): a planted witness with one
    to three edits (a value replaced or nudged, a key or list item deleted
    or duplicated), against a satisfiable formula with the same n and m --
    drawn at random, or the planted formula with one clause of each block
    replaced by a copy of another, so that most of the witness still fits.
    Half the witnesses are first refitted as a forger would: the formula's
    imbalance and its own spectral certificate, and only the tuples still
    inconsistent on it, so that edits reach the inequality check."""
    blocks = draw(st.integers(1, 4))
    n, m = 3 * blocks, 8 * blocks
    if draw(st.booleans()):
        sat = gen_random_3cnf(n, m, draw(st.integers(0, 10**6)))
    else:
        clauses = list(planted_block(blocks).clauses)
        for b in range(blocks):
            lost, kept = draw(st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True))
            clauses[8 * b + lost] = clauses[8 * b + kept]
        sat = Cnf(n, tuple(clauses))
    assume(not brute_force_unsat(sat))
    obj = _planted_json(blocks)
    if draw(st.booleans()):
        obj["I"] = imbalance(sat)
        obj["D"]["tuples"] = [tup for tup in obj["D"]["tuples"]
                              if is_inconsistent_tuple(sat, tup)]
        obj["D"]["t"] = len(obj["D"]["tuples"])
        cert = approx_eigen(build_m(sat), obj["c"])
        obj["lambdas"] = [_rat_out(x) for x in cert.lambdas]
        obj["V"] = [[_rat_out(x) for x in row] for row in cert.v]
        obj["lambda"] = _rat_out(cert.lambdas[0])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(obj))[1:]))
        parent = obj
        for step in path[:-1]:
            parent = parent[step]
        key, old = path[-1], parent[path[-1]]
        how = draw(st.sampled_from(["set", "nudge", "nudge", "nudge", "delete", "duplicate"]))
        if how == "nudge" and re.fullmatch(r"-?[0-9]+", str(old)):
            new = int(old) + draw(st.integers(-2, 2).filter(bool))
            parent[key] = new if isinstance(old, int) else str(new)
        elif how == "delete":
            del parent[key]
        elif how == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(old))
        else:
            parent[key] = copy.deepcopy(draw(_JSON_VALUES))  # st.just shares its value
    return sat, json.dumps(obj)


@settings(max_examples=300)
@given(mutated_witnesses())
def test_mutated_witness_never_raises_or_accepts_satisfiable(case):
    sat, text = case
    try:
        wit = witness_from_json(text)
    except WitnessFormatError:
        return
    verdict = verify_witness(sat, wit)
    assert isinstance(verdict, Verdict) and not verdict.accepted


def test_unmutated_planted_witness_rejects_satisfiable_neighbour():
    for blocks in (1, 4):
        clauses = list(planted_block(blocks).clauses)
        for b in range(blocks):
            clauses[8 * b] = clauses[8 * b + 1]
        sat = Cnf(3 * blocks, tuple(clauses))
        assert not brute_force_unsat(sat)
        wit = witness_from_json(json.dumps(_planted_json(blocks)))
        assert verify_witness(planted_block(blocks), wit).accepted
        assert not verify_witness(sat, wit).accepted


# ------------------------------------------------- differential reference
#
# The verifier before the cheap inequality: it builds M and certifies
# before it compares t with anything.  verify_witness must accept exactly
# the witnesses this accepts, with the same certified quantities.

def reference_verify_witness(cnf: Cnf, wit: FkoWitness) -> Verdict:
    if wit.n != cnf.n or wit.m != cnf.m:
        return Verdict(False, "3CNF",
                       f"witness is for n={wit.n}, m={wit.m}, "
                       f"formula has n={cnf.n}, m={cnf.m}")
    for k, cl in enumerate(cnf.clauses):
        if len(set(cl.vars)) != 3 or not (1 <= min(cl.vars) <= max(cl.vars) <= cnf.n):
            return Verdict(False, "3CNF", f"clause {k} malformed")
    ok, why = check_collection(cnf, wit.coll)
    if not ok:
        return Verdict(False, "Coll", why)
    imb = imbalance(cnf)
    if wit.imb != imb:
        return Verdict(False, "Imb", f"witness declares I={wit.imb}, formula has I={imb}")
    mat = build_m(cnf)
    if wit.mat is not None:
        if len(wit.mat) != cnf.n or any(len(row) != cnf.n for row in wit.mat) or any(
            wit.mat[i][j] != mat[i][j] for i in range(cnf.n) for j in range(cnf.n)
        ):
            return Verdict(False, "Mat", "witness matrix differs from rebuilt M")
    if wit.cert.n != cnf.n:
        return Verdict(False, "EigValBound",
                       f"certificate dimension {wit.cert.n} != n={cnf.n}")
    if cnf.n == 0:
        return Verdict(False, "EigValBound", "n=0: no eigenvalue to certify")
    if wit.lam != max(wit.cert.lambdas):
        return Verdict(False, "lambda-max",
                       f"lambda={wit.lam} != max eigenvalue {max(wit.cert.lambdas)}")
    try:
        u = certified_quadform_bound(mat, wit.cert, certify_eigvalbound(mat, wit.cert))
    except CertificationError as e:
        tol_basis, _, tol_eigen = tolerances(wit.cert)
        return Verdict(False, "EigValBound",
                       f"failed conditions: {e.report.failed_conditions()}; "
                       f"rho/tol={_ratio(e.report.rho, tol_basis)}, "
                       f"tau/tol={_ratio(e.report.tau, tol_eigen)}")
    except ValueError as e:
        return Verdict(False, "EigValBound", str(e))
    rhs = _threshold(wit.coll.d, imb, u)
    if not wit.coll.t > rhs:
        return Verdict(False, "inequality", f"t={wit.coll.t} <= d*(I+U)/2 = {_show(rhs)}")
    return Verdict(True, u=u, tuple_bound=unsat3xor_lower_bound(wit), margin=wit.coll.t - rhs)


def _assert_same_acceptance(cnf: Cnf, wit: FkoWitness) -> None:
    """verify_witness agrees with the reference on acceptance and on what it
    certifies; its reason differs only where it rejects at the cheap
    inequality a witness the reference rejects at certification or at the
    inequality."""
    got, want = verify_witness(cnf, wit), reference_verify_witness(cnf, wit)
    assert got.accepted == want.accepted
    if got.accepted:
        assert (got.u, got.margin, got.tuple_bound) == (want.u, want.margin, want.tuple_bound)
        assert got.threshold == _threshold(wit.coll.d, wit.imb, got.u)
        assert got.margin == wit.coll.t - got.threshold
    elif "lambda*n" in got.detail:
        assert got.reason == "inequality"
        assert want.reason in ("EigValBound", "inequality")
        lam0 = wit.cert.lambdas[0]
        assert got.threshold == _threshold(wit.coll.d, wit.imb, lam0 * cnf.n)
        assert not wit.coll.t > got.threshold
    else:
        assert (got.reason, got.detail) == (want.reason, want.detail)


@functools.cache
def _differential_base(kind: str, size: int, seed: int) -> tuple[Cnf, FkoWitness]:
    """A witness with the largest collection the search packs: accepted
    for most planted formulas, a near miss for random ones."""
    if kind == "planted":
        cnf = _noisy_blocks(size, 2 * (seed % 3), seed)
    else:
        cnf = gen_random_3cnf(size, (3 + seed % 3) * size, seed)
    return cnf, build_witness(cnf)


@st.composite
def edited_witnesses(draw):
    """(formula, witness): a planted (n = 3..12) or random (n = 6..12)
    witness with one to three edits to t, d, the tuples, lambdas[0] (by
    a few grid steps or whole units, on the grid) or a row of V."""
    kind = draw(st.sampled_from(["planted", "random"]))
    size = draw(st.integers(1, 4) if kind == "planted" else st.integers(6, 12))
    cnf, wit = _differential_base(kind, size, draw(st.integers(0, 5)))
    if draw(st.booleans()):
        wit = replace(wit, mat=None)
    grid = grid_denominator(cnf.n, wit.cert.c)
    for _ in range(draw(st.integers(1, 3))):
        coll, cert = wit.coll, wit.cert
        how = draw(st.sampled_from(["t", "drop", "d", "tuple", "lambda0", "lambda0", "V"]))
        if how == "t":
            coll = replace(coll, t=max(0, coll.t + draw(st.integers(-2, 2))))
        elif how == "drop":
            keep = draw(st.integers(0, coll.t))
            coll = replace(coll, tuples=coll.tuples[:keep], t=keep)
        elif how == "d":
            coll = replace(coll, d=draw(st.integers(0, 8)))
        elif how == "tuple" and coll.tuples:
            pos = draw(st.integers(0, len(coll.tuples) - 1))
            tup = list(coll.tuples[pos])
            tup[draw(st.integers(0, len(tup) - 1))] = draw(st.integers(0, cnf.m - 1))
            coll = replace(coll, tuples=coll.tuples[:pos] + (tuple(tup),) + coll.tuples[pos + 1:])
        elif how == "lambda0":
            step = draw(st.sampled_from([1, 2, grid // cnf.n, grid]))
            lams = (cert.lambdas[0] + F(draw(st.sampled_from([-3, -1, 1, 3])) * step, grid),
                    *cert.lambdas[1:])
            cert = replace(cert, lambdas=lams)
            if draw(st.booleans()):
                wit = replace(wit, lam=max(lams))
        elif how == "V":
            rows = [list(row) for row in cert.v]
            i, j = draw(st.integers(0, cnf.n - 1)), draw(st.integers(0, cnf.n - 1))
            if draw(st.booleans()):
                rows[i] = list(rows[j])
            else:
                rows[i][j] += F(draw(st.sampled_from([-1, 1])), grid)
            cert = replace(cert, v=tuple(tuple(row) for row in rows))
        wit = replace(wit, coll=coll, cert=cert)
    return cnf, wit


@settings(max_examples=300)
@given(edited_witnesses())
def test_early_inequality_agrees_with_reference_verifier(case):
    _assert_same_acceptance(*case)


@pytest.mark.parametrize("donor", [_dense_text, _accepted_dense_text, _lowered_planted_text],
                         ids=["near miss", "accepted", "lowered planted"])
def test_unedited_donors_agree_with_reference_verifier(donor):
    cnf, text = donor()
    _assert_same_acceptance(cnf, witness_from_json(text))
