import json
from dataclasses import replace
from fractions import Fraction

import pytest

from fkocert import (
    Clause,
    Cnf,
    CollectionSearchError,
    FkoWitness,
    TupleCollection,
    Verdict,
    WitnessFormatError,
    approx_eigen,
    build_m,
    build_witness,
    certify_eigvalbound,
    find_collection,
    gen_random_3cnf,
    nae_upper_bound,
    unsat3xor_lower_bound,
    verify_witness,
    witness_from_json,
    witness_to_json,
)
from fkocert.cnf import imbalance
from fkocert.exactq import grid_denominator, snap_up_to_grid
from fkocert.oracle import brute_force_unsat, nae_counts, not3xor_counts
from fkocert.witness import _t_needed
from conftest import planted_block

F = Fraction


def manual_witness(cnf, c=8, d=4, k_max=4, seed=0, t_target=1):
    """Bundle whatever the pipeline produces without the builder's
    t_target policy — lets tests exercise rejection paths."""
    mat = build_m(cnf)
    cert = approx_eigen(mat, c)
    report = certify_eigvalbound(mat, cert)
    coll = find_collection(cnf, k_max=k_max, d=d, t_target=t_target, seed=seed)
    unit = F(1, grid_denominator(cnf.n, c))
    eps = snap_up_to_grid(max(report.slack, unit), cnf.n, c)
    return FkoWitness(
        n=cnf.n, m=cnf.m, c=c, imb=imbalance(cnf),
        mat=mat, cert=cert, lam=cert.lambdas[0], coll=coll, epsilon=eps,
    )


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
    assert nae_upper_bound(cnf, wit) == 6 * cnf.m // 8
    assert unsat3xor_lower_bound(wit) == 4 * blocks
    assert int(nae_counts(cnf).max()) == 6 * blocks
    assert int(not3xor_counts(cnf).min()) == 4 * blocks


def test_single_clause_fails_at_collection():
    cnf = Cnf(3, (Clause((1, 2, 3), (1, 1, 1)),))
    with pytest.raises(CollectionSearchError):
        build_witness(cnf)


def test_nae_bound_example():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    # (lam*n + 3m + slack)/4 with lam = slack = 0 and m = 8
    assert nae_upper_bound(cnf, wit) == 6
    assert unsat3xor_lower_bound(wit) == 4


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


def test_builder_verifier_agreement_random():
    seen = 0
    for seed in range(12):
        cnf = gen_random_3cnf(6, 30, seed)
        try:
            wit = build_witness(cnf)
        except CollectionSearchError:
            continue
        seen += 1
        assert verify_witness(cnf, wit).accepted
        assert brute_force_unsat(cnf)
    # most random instances at this size fail the builder; any that
    # succeed must verify and must really be unsatisfiable
    assert seen >= 0


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
    wit = manual_witness(cnf)
    assert wit.imb == imbalance(cnf)
    bad = replace(wit, imb=wit.imb + 2)
    v = verify_witness(cnf, bad)
    assert not v.accepted and v.reason == "Imb"


def test_verify_rejects_tampered_matrix():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    rows = [list(r) for r in wit.mat]
    rows[0][1] += F(1, 2)
    rows[1][0] += F(1, 2)
    bad = replace(wit, mat=tuple(tuple(r) for r in rows))
    v = verify_witness(cnf, bad)
    assert not v.accepted and v.reason == "Mat"


def test_verify_rejects_forged_spectrum():
    cnf = gen_random_3cnf(6, 28, 2)
    wit = manual_witness(cnf)
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
    wit = manual_witness(cnf, t_target=1)
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


def test_epsilon_must_be_positive():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    with pytest.raises(ValueError):
        replace(wit, epsilon=F(0))
    assert wit.epsilon > 0


def test_verdict_json_shapes():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    good = json.loads(verify_witness(cnf, wit).to_json())
    assert good["accepted"] is True
    assert good["certified"]["U"] == {"num": "0", "den": "1"}
    bad = json.loads(verify_witness(cnf, replace(wit, n=4)).to_json())
    assert bad["accepted"] is False and bad["reason"] == "3CNF"


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
    assert back.epsilon == wit.epsilon
    assert back.mat is None  # matrix travels by recomputation
    assert verify_witness(cnf, back).accepted
    # serialization is deterministic
    assert witness_to_json(wit) == text


def test_witness_json_fields():
    wit = build_witness(planted_block(1))
    payload = json.loads(witness_to_json(wit))
    assert set(payload) == {
        "n", "m", "c", "I", "lambda", "lambdas", "V", "D",
        "epsilon", "K3", "K4", "K5",
    }
    assert payload["D"]["t"] == 16
    assert payload["lambda"] == {"num": "0", "den": "1"}
    assert payload["K3"] == 16
    assert "M" not in payload


def test_witness_json_k_defaults():
    wit = build_witness(planted_block(1))
    payload = json.loads(witness_to_json(wit))
    del payload["K3"], payload["K4"], payload["K5"]
    back = witness_from_json(json.dumps(payload))
    assert back.cert.k3 == 16 and back.cert.k4 == 16 and back.cert.k5 == 16


def test_verify_is_pure():
    cnf = planted_block(1)
    wit = build_witness(cnf)
    assert verify_witness(cnf, wit) == verify_witness(cnf, wit)


@pytest.mark.parametrize("shape", ["short row", "long row", "missing row"])
def test_verify_rejects_non_square_v(shape):
    cnf = gen_random_3cnf(6, 28, 2)
    wit = manual_witness(cnf)
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


MALFORMED = {"den 0": _den_zero, "missing D": _missing_d, "num x": _num_x,
             "float n": _float_n, "V not a list": _v_not_a_list}


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
    assert issubclass(WitnessFormatError, ValueError)


def test_t_needed_is_least_accepted_t():
    # d*(I+U)/2 = 4*(3 + 1/2)/2 = 7: integral, the verifier needs t >= 8
    assert _t_needed(4, 3, F(1, 2)) == 8
    # d*(I+U)/2 = 1*(3 + 0)/2 = 3/2: fractional, t = 2 already exceeds it
    assert _t_needed(1, 3, F(0)) == 2
    for d, imb, u in ((4, 3, F(1, 2)), (1, 3, F(0)), (3, 5, F(7, 3))):
        t = _t_needed(d, imb, u)
        rhs = F(d) * (imb + u) / 2
        assert t > rhs and not t - 1 > rhs
