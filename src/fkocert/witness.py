"""Unsatisfiability witnesses: build, verify, serialize.

A witness for a 3CNF K bundles the imbalance I, a spectral certificate
(lambdas, V) for the clause-polarity matrix M, and a (t, k, d)-collection
of inconsistent even tuples.  Acceptance is the exact strict inequality

    t > d * (I + lambda * n + slack) / 2

with slack recomputed from the certificate in rational arithmetic.  Any
satisfying assignment would NAE-satisfy at most (lambda*n + slack + 3m)/4
clauses, hence leave at most (I + lambda*n + slack)/2 clauses with exactly
two true literals, yet the collection forces at least ceil(t/d) non-3XOR
clauses -- so acceptance certifies unsatisfiability.

The verifier trusts nothing: I and M are recomputed from K, the
certificate residuals are recomputed exactly, and the collection is
re-checked clause by clause.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .cnf import Cnf, imbalance
from .exactq import QMat, grid_denominator, rat, snap_up_to_grid
from .spectral import (
    CertificationError,
    CertReport,
    SpectralCert,
    approx_eigen,
    build_m,
    certify_eigvalbound,
)
from .tuples import TupleCollection, check_collection, find_collection

__all__ = [
    "FkoWitness",
    "Verdict",
    "WitnessFormatError",
    "build_witness",
    "verify_witness",
    "nae_upper_bound",
    "two_lit_upper_bound",
    "unsat3xor_lower_bound",
    "witness_to_json",
    "witness_from_json",
]


@dataclass(frozen=True)
class FkoWitness:
    n: int
    m: int
    c: int
    imb: int
    mat: QMat | None
    cert: SpectralCert
    lam: Fraction
    coll: TupleCollection
    epsilon: Fraction

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class Verdict:
    """Outcome of verification: either the first failed conjunct (one of
    3CNF, Coll, Imb, Mat, EigValBound, lambda-max, inequality) or the
    certified quantities."""

    accepted: bool
    reason: str | None = None
    detail: str | None = None
    u: Fraction | None = None
    tuple_bound: int | None = None
    margin: Fraction | None = None

    def to_json(self) -> str:
        if self.accepted:
            payload = {
                "accepted": True,
                "certified": {
                    "U": _rat_out(self.u),
                    "unsat3xor_lower_bound": self.tuple_bound,
                    "margin": _rat_out(self.margin),
                },
            }
        else:
            payload = {
                "accepted": False,
                "reason": self.reason,
                "detail": self.detail,
            }
        return json.dumps(payload, sort_keys=True)


def _t_needed(d: int, imb: int, u: Fraction) -> int:
    """Least t the verifier accepts: t > d*(I+U)/2, i.e. floor(d*(I+U)/2) + 1."""
    return math.floor(Fraction(d) * (imb + u) / 2) + 1


def _spectral_stage(
    cnf: Cnf, c: int
) -> tuple[int, QMat, SpectralCert, CertReport]:
    """Imbalance, clause-polarity matrix, snapped eigendata and its
    certification report (pass or fail) -- the builder's spectral half."""
    imb = imbalance(cnf)
    mat = build_m(cnf)
    cert = approx_eigen(mat, c)
    return imb, mat, cert, certify_eigvalbound(mat, cert)


def _collect(cnf: Cnf, imb: int, mat: QMat, cert: SpectralCert, report: CertReport,
             c: int, d: int, k_max: int, seed: int, budget: int) -> FkoWitness:
    """The builder's collection half, on a spectral stage's results."""
    if not report.passed:
        raise CertificationError(report)
    bound = cert.lambdas[0] * cnf.n + report.slack
    coll = find_collection(cnf, k_max=k_max, d=d, t_target=_t_needed(d, imb, bound),
                           seed=seed, budget=budget)
    grid_unit = Fraction(1, grid_denominator(max(cnf.n, 1), c))
    epsilon = snap_up_to_grid(max(report.slack, grid_unit), max(cnf.n, 1), c)
    return FkoWitness(
        n=cnf.n,
        m=cnf.m,
        c=c,
        imb=imb,
        mat=mat,
        cert=cert,
        lam=cert.lambdas[0],
        coll=coll,
        epsilon=epsilon,
    )


def build_witness(
    cnf: Cnf,
    c: int = 8,
    d: int = 4,
    k_max: int = 4,
    seed: int = 0,
    budget: int = 50_000,
) -> FkoWitness:
    """Construct a witness: certificate first, then a collection with
    t_target = floor(d*(I+U)/2) + 1, the least t the verifier accepts.

    Raises CertificationError when the snapped eigendata fails its own
    certification, CollectionSearchError when the tuple search cannot
    reach t_target within budget (carrying the best collection found).
    """
    return _collect(cnf, *_spectral_stage(cnf, c), c=c, d=d, k_max=k_max,
                    seed=seed, budget=budget)


def verify_witness(cnf: Cnf, wit: FkoWitness) -> Verdict:
    """Re-check every conjunct from scratch; accept only on the strict
    exact inequality t > d*(I + lambda*n + slack)/2."""
    # 3CNF: the formula is well-formed and the witness talks about it.
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
        return Verdict(False, "Imb",
                       f"witness declares I={wit.imb}, formula has I={imb}")

    mat = build_m(cnf)
    if wit.mat is not None:
        if len(wit.mat) != cnf.n or any(
            len(row) != cnf.n for row in wit.mat
        ) or any(
            wit.mat[i][j] != mat[i][j] for i in range(cnf.n) for j in range(cnf.n)
        ):
            return Verdict(False, "Mat", "witness matrix differs from rebuilt M")

    if wit.cert.n != cnf.n:
        return Verdict(False, "EigValBound",
                       f"certificate dimension {wit.cert.n} != n={cnf.n}")
    if len(wit.cert.v) != cnf.n or any(len(row) != cnf.n for row in wit.cert.v):
        return Verdict(False, "EigValBound", "V is not n x n")
    report = certify_eigvalbound(mat, wit.cert)
    if not report.passed:
        return Verdict(False, "EigValBound",
                       f"failed conditions: {report.failed_conditions()}; "
                       f"rho={report.rho}, tau={report.tau}")

    if wit.lam != max(wit.cert.lambdas):
        return Verdict(False, "lambda-max",
                       f"lambda={wit.lam} != max eigenvalue "
                       f"{max(wit.cert.lambdas)}")

    bound = wit.lam * cnf.n + report.slack
    rhs = Fraction(wit.coll.d) * (imb + bound) / 2
    if not wit.coll.t > rhs:
        return Verdict(False, "inequality",
                       f"t={wit.coll.t} <= d*(I+U)/2 = {rhs}")
    return Verdict(
        True,
        u=bound,
        tuple_bound=math.ceil(Fraction(wit.coll.t, wit.coll.d)) if wit.coll.d else 0,
        margin=wit.coll.t - rhs,
    )


def nae_upper_bound(cnf: Cnf, wit: FkoWitness) -> Fraction:
    """(lambda*n + 3m + slack)/4: no assignment NAE-satisfies more."""
    report = certify_eigvalbound(build_m(cnf), wit.cert)
    return (wit.lam * cnf.n + 3 * cnf.m + report.slack) / 4


def two_lit_upper_bound(cnf: Cnf, wit: FkoWitness) -> Fraction:
    """(I + lambda*n + slack)/2: cap on clauses with exactly two true
    literals under any assignment."""
    report = certify_eigvalbound(build_m(cnf), wit.cert)
    return (imbalance(cnf) + wit.lam * cnf.n + report.slack) / 2


def unsat3xor_lower_bound(wit: FkoWitness) -> int:
    """ceil(t/d): clauses left non-3XOR by any assignment."""
    if wit.coll.d == 0:
        return 0
    return math.ceil(Fraction(wit.coll.t, wit.coll.d))


# -------------------------------------------------------------------- JSON


def _rat_out(x: Fraction | None) -> dict[str, str] | None:
    if x is None:
        return None
    return {"num": str(x.numerator), "den": str(x.denominator)}


class WitnessFormatError(ValueError):
    """Witness JSON that does not describe a witness: a missing key, a
    zero or non-integer denominator, or a non-integer field."""


def _int_in(obj) -> int:
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ValueError(f"not an integer: {obj!r}")
    return int(obj)


def _rat_in(obj) -> Fraction:
    if isinstance(obj, dict):
        return Fraction(_int_in(obj["num"]), _int_in(obj["den"]))
    return rat(obj)


def witness_to_json(wit: FkoWitness) -> str:
    """Deterministic JSON; M is omitted (the verifier rebuilds it)."""
    payload = {
        "n": wit.n,
        "m": wit.m,
        "c": wit.c,
        "I": wit.imb,
        "lambda": _rat_out(wit.lam),
        "lambdas": [_rat_out(x) for x in wit.cert.lambdas],
        "V": [[_rat_out(x) for x in row] for row in wit.cert.v],
        "D": {
            "t": wit.coll.t,
            "k": wit.coll.k,
            "d": wit.coll.d,
            "tuples": [list(tup) for tup in wit.coll.tuples],
        },
        "epsilon": _rat_out(wit.epsilon),
        "K3": _k_out(wit.cert.k3),
        "K4": _k_out(wit.cert.k4),
        "K5": _k_out(wit.cert.k5),
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def _k_out(x: Fraction):
    return int(x) if x.denominator == 1 else _rat_out(x)


def witness_from_json(text: str) -> FkoWitness:
    """Parse witness JSON; any malformed text raises WitnessFormatError."""
    try:
        return _witness_from_obj(json.loads(text))
    except KeyError as e:
        raise WitnessFormatError(f"witness JSON: missing key {e}") from None
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise WitnessFormatError(f"witness JSON: {e}") from None


def _witness_from_obj(obj) -> FkoWitness:
    if not isinstance(obj, dict):
        raise TypeError("top level is not an object")
    cert = SpectralCert(
        lambdas=tuple(_rat_in(x) for x in obj["lambdas"]),
        v=tuple(tuple(_rat_in(x) for x in row) for row in obj["V"]),
        c=_int_in(obj["c"]),
        k3=_rat_in(obj.get("K3", 16)),
        k4=_rat_in(obj.get("K4", 16)),
        k5=_rat_in(obj.get("K5", 16)),
    )
    d = obj["D"]
    coll = TupleCollection(
        tuples=tuple(tuple(_int_in(i) for i in tup) for tup in d["tuples"]),
        t=_int_in(d["t"]),
        k=_int_in(d["k"]),
        d=_int_in(d["d"]),
    )
    return FkoWitness(
        n=_int_in(obj["n"]),
        m=_int_in(obj["m"]),
        c=_int_in(obj["c"]),
        imb=_int_in(obj["I"]),
        mat=None,
        cert=cert,
        lam=_rat_in(obj["lambda"]),
        coll=coll,
        epsilon=_rat_in(obj["epsilon"]),
    )
