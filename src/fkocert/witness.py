"""Unsatisfiability witnesses: build, verify, serialize.

A witness for a 3CNF K bundles the imbalance I, a spectral certificate
(lambdas, V) for the clause-polarity matrix M, and a (t, k, d)-collection
of inconsistent even tuples.  Acceptance is the exact strict inequality

    t > d * (I + lambda * n + slack) / 2

with lambda = lambdas[0] and slack recomputed from the certificate in
rational arithmetic.  Any satisfying assignment would NAE-satisfy at most
(lambda*n + slack + 3m)/4 clauses, hence leave at most
(I + lambda*n + slack)/2 clauses with exactly two true literals, yet the
collection forces at least ceil(t/d) non-3XOR clauses -- so acceptance
certifies unsatisfiability.  build_witness
returns the best witness it finds, whatever its t and uncertified: the
threshold and the certification are formed only in verify_witness.

The verifier trusts nothing: I and M are recomputed from K, the
certificate residuals are recomputed exactly, and the collection is
re-checked clause by clause; the declared I and lambda are copies for a
reader that it never reads.  A rejection names one of four conjuncts:
3CNF, Coll, EigValBound and inequality.  They run cheapest first, the
O(n) comparison of t with d*(I + lambdas[0]*n)/2 before the cubic
certification: every term of the slack is >= 0, so U >= lambdas[0]*n
and a t at or below that bound fails whatever the certificate holds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .cnf import Cnf, _first_malformed, imbalance
from .exactq import QMat
from .spectral import SpectralCert, approx_eigen, build_m, certify_eigvalbound, tolerances
from .tuples import TupleCollection, check_collection, find_collection

__all__ = [
    "FkoWitness",
    "Verdict",
    "WitnessFormatError",
    "build_witness",
    "verify_witness",
    "unsat3xor_lower_bound",
    "witness_to_json",
    "witness_from_json",
]

GRID_EXPONENT = 8  # c of every certificate build_witness makes


@dataclass(frozen=True)
class FkoWitness:
    """A witness as built or parsed.  verify_witness reads n, m, cert and
    coll only: `imb`, `lam` and `c` are builder-side copies of I,
    cert.lambdas[0] and cert.c, which JSON carries as "I", "lambda" and
    "c"; `mat`, the builder's M, and `epsilon` are not written to JSON."""

    n: int
    m: int
    c: int
    imb: int
    mat: QMat | None
    cert: SpectralCert
    lam: Fraction
    coll: TupleCollection
    epsilon: Fraction | None = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of verification: either the first failed conjunct (one of
    3CNF, Coll, EigValBound, inequality) or the certified quantities.

    `threshold` is the bound t was compared with: d*(I+U)/2, U the
    certified bound, on acceptance and at an inequality reached after
    certification; d*(I+lambdas[0]*n)/2 at an inequality found before it;
    None at every other conjunct.  to_json writes it in the `certified`
    block on acceptance and at top level on an inequality.
    """

    accepted: bool
    reason: str | None = None
    detail: str | None = None
    u: Fraction | None = None
    tuple_bound: int | None = None
    margin: Fraction | None = None
    threshold: Fraction | None = None

    def to_json(self) -> str:
        if self.accepted:
            payload = {
                "accepted": True,
                "certified": {
                    "U": _rat_out(self.u),
                    "unsat3xor_lower_bound": self.tuple_bound,
                    "margin": _rat_out(self.margin),
                    "threshold": _rat_out(self.threshold),
                },
            }
        else:
            payload = {
                "accepted": False,
                "reason": self.reason,
                "detail": self.detail,
            }
            if self.reason == "inequality":
                payload["threshold"] = _rat_out(self.threshold)
        return json.dumps(payload, sort_keys=True)


def _threshold(d: int, imb: int, u: Fraction) -> Fraction:
    """d*(I+U)/2: the verifier accepts exactly the t above it."""
    return Fraction(d) * (imb + u) / 2


def build_witness(cnf: Cnf) -> FkoWitness:
    """Construct the best witness the builder finds: the imbalance, M, a
    certificate for M at grid exponent GRID_EXPONENT and the largest
    collection find_collection packs at its own defaults for d, k_max and
    budget.  Deterministic: the witness depends only on the formula.

    The builder neither certifies the certificate nor compares t with
    d*(I+U)/2; only verify_witness does, so a near miss comes back as a
    witness the verifier rejects at `inequality`, and a certificate that
    fails certification as one it rejects at `EigValBound` or earlier at
    `inequality`.  For n = 0 the certificate is empty, lambda is 0 and the
    verifier rejects it at `EigValBound`.  Raises SpectralPrecisionError
    when approx_eigen misses its precision target.
    """
    imb = imbalance(cnf)
    mat = build_m(cnf)
    cert = approx_eigen(mat, GRID_EXPONENT) if cnf.n else SpectralCert((), (), GRID_EXPONENT)
    coll = find_collection(cnf, t_target=0)
    return FkoWitness(
        n=cnf.n,
        m=cnf.m,
        c=cert.c,
        imb=imb,
        mat=mat,
        cert=cert,
        lam=cert.lambdas[0] if cnf.n else Fraction(0),
        coll=coll,
    )


def verify_witness(cnf: Cnf, wit: FkoWitness) -> Verdict:
    """Re-check every conjunct from scratch; accept only on the strict
    exact inequality t > d*(I + lambda*n + slack)/2.

    The order is 3CNF, Coll, EigValBound's dimension checks, a cheap
    inequality, V's shape, EigValBound's certification and the exact
    inequality.  The cheap one rejects t <= d*(I + lambdas[0]*n)/2
    before M is built for certification; every accept still passes
    certification.  V must be n x n before M's n*n entries are built,
    so a short file cannot make the verifier allocate memory quadratic
    in its own size.  certify_eigvalbound runs once: a precondition it
    refuses or a failed condition in its report rejects at EigValBound,
    and a passing report gives U = lambdas[0]*n + slack.
    I and M are rebuilt from the formula, lambda and c taken from the
    certificate: wit.imb, wit.lam, wit.c and wit.mat are never read.
    """
    # 3CNF: the formula is well-formed and the witness talks about it.
    if wit.n != cnf.n or wit.m != cnf.m:
        return Verdict(False, "3CNF",
                       f"witness is for n={wit.n}, m={wit.m}, "
                       f"formula has n={cnf.n}, m={cnf.m}")
    k = _first_malformed(cnf.n, cnf.x, cnf.y, cnf.z)
    if k is not None:
        return Verdict(False, "3CNF", f"clause {k} malformed")

    ok, why = check_collection(cnf, wit.coll)
    if not ok:
        return Verdict(False, "Coll", why)

    if wit.cert.n != cnf.n:
        return Verdict(False, "EigValBound",
                       f"certificate dimension {wit.cert.n} != n={cnf.n}")
    if cnf.n == 0:
        return Verdict(False, "EigValBound", "n=0: no eigenvalue to certify")

    # no product: U = lambdas[0]*n + slack with slack >= 0, so a t at or
    # below d*(I + lambdas[0]*n)/2 fails whatever the certificate holds
    imb = imbalance(cnf)
    t, d = wit.coll.t, wit.coll.d
    lam_n = wit.cert.lambdas[0] * cnf.n
    rhs = _threshold(d, imb, lam_n)
    if not t > rhs:
        return Verdict(False, "inequality",
                       f"t={t} <= d*(I+lambda*n)/2 = {_show(rhs)}", threshold=rhs)

    v = wit.cert.v
    if len(v) != cnf.n or any(len(row) != cnf.n for row in v):
        return Verdict(False, "EigValBound", "V is not n x n")
    mat = build_m(cnf)
    # c, the grid and |v_ij| <= 2 are checked before any product
    try:
        rep = certify_eigvalbound(mat, wit.cert)
    except ValueError as e:
        return Verdict(False, "EigValBound", str(e))
    if not rep.passed:
        tol_basis, _, tol_eigen = tolerances(wit.cert)
        return Verdict(False, "EigValBound",
                       f"failed conditions: {rep.failed_conditions()}; "
                       f"rho/tol={_ratio(rep.rho, tol_basis)}, "
                       f"tau/tol={_ratio(rep.tau, tol_eigen)}")
    # the slack bounds max a^T M a only on a passing report
    u = lam_n + rep.slack

    rhs = _threshold(d, imb, u)
    if not t > rhs:
        return Verdict(False, "inequality", f"t={t} <= d*(I+U)/2 = {_show(rhs)}",
                       threshold=rhs)
    return Verdict(True, u=u, tuple_bound=unsat3xor_lower_bound(wit),
                   margin=t - rhs, threshold=rhs)


def _ratio(x: Fraction, tol: Fraction) -> str:
    """x/tol to 3 significant digits, or as a power of two when no float
    holds it: an exact residual can have more digits than str() allows.
    tol is one of tolerances(cert), K*n^(1-c) or K*n^(3-c) with K, n > 0."""
    r = x / tol
    try:
        return f"{float(r):.3g}"
    except OverflowError:
        return _pow2(r)


def _show(x: Fraction) -> str:
    """str(x), or ~2^k when x has more digits than str() allows."""
    try:
        return str(x)
    except ValueError:
        return _pow2(x)


def _pow2(x: Fraction) -> str:
    return f"~2^{x.numerator.bit_length() - x.denominator.bit_length()}"


def unsat3xor_lower_bound(wit: FkoWitness) -> int:
    """ceil(t/d): clauses left non-3XOR by any assignment."""
    if wit.coll.d == 0:
        return 0
    return math.ceil(Fraction(wit.coll.t, wit.coll.d))


# -------------------------------------------------------------------- JSON


def _rat_out(x: Fraction | None) -> dict[str, str] | None:
    if x is None:
        return None
    try:
        return {"num": str(x.numerator), "den": str(x.denominator)}
    except ValueError:
        # past int's str() digit limit, as a verdict threshold with a
        # 4300-digit d can be; Decimal writes every digit
        return {"num": str(Decimal(x.numerator)), "den": str(Decimal(x.denominator))}


class WitnessFormatError(ValueError):
    """Witness JSON that does not describe a witness: a missing key, a
    zero or non-integer denominator, a non-integer field, a rational field
    that is not a {"num", "den"} pair, an integer or an integer string, a
    list field that is not an array, or nesting too deep to parse."""


def _int_in(obj) -> int:
    # exact types: json.loads makes no subclasses, and bool is an int subclass
    if type(obj) is int:
        return obj
    # a string is ASCII decimal with an optional "-": int() alone would also
    # take spaces, "_", "+" and non-ASCII digits, and it refuses a second "-"
    if type(obj) is str and obj.isascii() and obj.lstrip("-").isdigit():
        return int(obj)
    raise ValueError(f"not an integer: {obj!r}")


def _rat_in(obj) -> Fraction:
    """A {"num", "den"} pair, a JSON integer or an integer string."""
    if isinstance(obj, dict):
        return Fraction(_int_in(obj["num"]), _int_in(obj["den"]))
    return Fraction(_int_in(obj))


def witness_to_json(wit: FkoWitness) -> str:
    """Deterministic compact JSON with sorted keys, on one line; M is
    omitted (the verifier rebuilds it)."""
    payload = {
        "n": wit.n,
        "m": wit.m,
        "c": wit.cert.c,
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
    }
    # no indent: an indented dump runs CPython's pure-Python encoder
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def witness_from_json(text: str) -> FkoWitness:
    """Parse witness JSON; any malformed text raises WitnessFormatError."""
    try:
        return _witness_from_obj(json.loads(text))
    except KeyError as e:
        raise WitnessFormatError(f"witness JSON: missing key {e}") from None
    # json.loads raises RecursionError on deep nesting
    except (TypeError, ValueError, ZeroDivisionError, OverflowError, RecursionError) as e:
        raise WitnessFormatError(f"witness JSON: {e}") from None


def _array(obj) -> list:
    # iterating a string or an object would read its characters or keys
    if type(obj) is not list:
        raise TypeError(f"not an array: {type(obj).__name__}")
    return obj


def _witness_from_obj(obj) -> FkoWitness:
    if not isinstance(obj, dict):
        raise TypeError("top level is not an object")
    cert = SpectralCert(
        lambdas=tuple([_rat_in(x) for x in _array(obj["lambdas"])]),
        v=tuple([tuple([_rat_in(x) for x in _array(row)]) for row in _array(obj["V"])]),
        c=_int_in(obj["c"]),
    )
    d = obj["D"]
    coll = TupleCollection(
        tuples=tuple([tuple([_int_in(i) for i in _array(tup)])
                      for tup in _array(d["tuples"])]),
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
    )
