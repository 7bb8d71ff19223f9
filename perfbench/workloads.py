"""The four workloads: input generators, timed calls and known-answer checks.

Each workload generates its inputs from the seed in `setup`, hands the
program only DIMACS text, witness JSON text or `sweep` arguments in
`call`, and judges the result in `judge`.  `call` holds the program
calls and nothing else, so its wall time is the op time; every check
runs outside it.  `finish` runs the checks that need more program work
than one op (the in-memory verdict, the sweep stage pass).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

C = 8  # grid exponent: the builder default
D = 4  # clause reuse bound: the builder default
BUDGET = 50_000  # tuple-search candidate budget: the builder default


def dense_m(n: int) -> int:
    """The paper's density regime, m = floor(3 n^1.4)."""
    return math.floor(3 * n ** 1.4)


def t_needed(d: int, imb: int, u: Fraction) -> int:
    """Least t the verifier accepts: t > d(I+U)/2, i.e. floor(d(I+U)/2) + 1.

    `build_witness` targets ceil(d(I+U)/2) + 1 instead, one tuple more
    whenever d(I+U)/2 is fractional; see perfbench/README.md.
    """
    return math.floor(Fraction(d) * (imb + u) / 2) + 1


# ---------------------------------------------------------------- inputs

Lit = tuple[int, int]  # (variable, polarity 1/0)


def dimacs(n: int, clauses: list[tuple[Lit, Lit, Lit]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(str(v if p else -v) for v, p in cl) + " 0" for cl in clauses]
    return "\n".join(lines) + "\n"


def random_clauses(rng: random.Random, n: int, m: int) -> list:
    out = []
    for _ in range(m):
        vs = sorted(rng.sample(range(1, n + 1), 3))
        out.append(tuple((v, rng.randrange(2)) for v in vs))
    return out


def planted_clauses(rng: random.Random, blocks: int, extra: int) -> list:
    """`blocks` disjoint triples carrying all 8 polarity patterns (so the
    formula is UNSAT), `extra` uniform clauses, variables and clause
    order shuffled."""
    n = 3 * blocks
    perm = rng.sample(range(1, n + 1), n)
    out = []
    for b in range(blocks):
        trip = sorted(perm[3 * b:3 * b + 3])
        for bits in range(8):
            out.append(tuple((v, bits >> s & 1) for v, s in zip(trip, (2, 1, 0))))
    out += random_clauses(rng, n, extra)
    rng.shuffle(out)
    return out


def own_imbalance(n: int, clauses) -> int:
    """Sum over variables of |#positive - #negative| occurrences, O(m)."""
    skew = [0] * (n + 1)
    for cl in clauses:
        for v, p in cl:
            skew[v] += 1 if p else -1
    return sum(abs(s) for s in skew)


def own_inconsistent(clauses, tup) -> bool:
    """Every variable occurs an even number of times across the tuple and
    the total count of negated literals is odd."""
    count: dict[int, int] = {}
    neg = 0
    for idx in tup:
        for v, p in clauses[idx]:
            count[v] = count.get(v, 0) + 1
            neg += 1 - p
    return all(c % 2 == 0 for c in count.values()) and neg % 2 == 1


# ------------------------------------------------------------- outcomes


@dataclass
class Outcome:
    kind: str
    seconds: float
    reason: str  # verdict reason, "accepted", "exception", or "-"
    raised: str | None = None  # exception type raised by the program
    wrong: str | None = None  # violated check; makes the run incorrect
    info: dict = field(default_factory=dict)
    ref: float = 0.0  # machine-speed reference time around the op


@dataclass
class Raised:
    exc: Exception


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()  # op kinds; op_s is the median of the first

    def __init__(self, mods: dict, seed: int):
        self.fk = mods["fkocert"]
        self.mods = mods
        self.seed = seed
        self.tracer = None
        self.violations: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def call(self, k: int):
        raise NotImplementedError

    def judge(self, k: int, res, seconds: float) -> Outcome:
        raise NotImplementedError

    def finish(self, outcomes: list[Outcome]) -> None:
        pass

    def report(self, outcomes: list[Outcome]) -> list[tuple[str, float, str, int]]:
        """The workload's own end-to-end figures: (name, value, unit, samples)."""
        return []

    def traced(self, kind: str):
        return self.tracer.op(kind) if self.tracer else contextlib.nullcontext()


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def _timings(name, outcomes, kinds) -> list[tuple[str, float, str, int]]:
    """The median, and the highest whole percentile with at least ten
    samples above it when that is above the median."""
    xs = sorted(o.seconds for o in outcomes if o.kind in kinds)
    rows = [(name, median(xs), "s", len(xs))]
    pct = 100 * (len(xs) - 10) // len(xs) if xs else 0
    if pct > 50:
        rows.append((f"{name}.p{pct}", xs[math.ceil(pct * len(xs) / 100) - 1], "s", len(xs)))
    return rows


# -------------------------------------------------------- planted-refute


class PlantedRefute(Workload):
    """Noisy planted blocks: parse -> build -> to_json -> from_json -> verify."""

    name = "planted-refute"
    kinds = ("refute",)
    blocks = 10  # n = 30
    pool = 4

    def setup(self) -> None:
        rng = random.Random(self.seed)
        n = 3 * self.blocks
        self.formulas = []
        for _ in range(self.pool):
            cls = planted_clauses(rng, self.blocks, n // 6)
            self.formulas.append((n, cls, dimacs(n, cls)))
        self.seen: dict[int, tuple] = {}  # formula -> (cnf, witness, verdict, sha)

    def call(self, k: int):
        fk = self.fk
        _, _, text = self.formulas[k % self.pool]
        try:
            cnf = fk.parse_dimacs(text)
            wit = fk.build_witness(cnf)
            js = fk.witness_to_json(wit)
            back = fk.witness_from_json(js)
            return cnf, wit, js, fk.verify_witness(cnf, back)
        except Exception as exc:  # a planted formula must never fail: judged wrong
            return Raised(exc)

    def judge(self, k, res, seconds):
        if isinstance(res, Raised):
            name = type(res.exc).__name__
            return Outcome("refute", seconds, "exception", name,
                           f"planted formula {k % self.pool}: {name}: {res.exc}")
        cnf, wit, js, verdict = res
        n, cls, _ = self.formulas[k % self.pool]
        sha = hashlib.sha256(js.encode()).hexdigest()
        wrong = None
        if not verdict.accepted:
            wrong = f"UNSAT planted formula rejected at {verdict.reason}"
        elif wit.imb != own_imbalance(n, cls):
            wrong = f"imbalance {wit.imb} != {own_imbalance(n, cls)}"
        elif k % self.pool in self.seen and self.seen[k % self.pool][3] != sha:
            wrong = "witness bytes differ between builds of one formula"
        self.seen.setdefault(k % self.pool, (cnf, wit, verdict, sha))
        return Outcome("refute", seconds,
                       "accepted" if verdict.accepted else verdict.reason,
                       wrong=wrong, info={"bytes": len(js), "sha": sha})

    def finish(self, outcomes):
        fk = self.fk
        for idx, (cnf, wit, verdict, _) in sorted(self.seen.items()):
            with self.traced("in-memory"):
                direct = fk.verify_witness(cnf, wit)
            if direct.to_json() != verdict.to_json():
                self.violations.append(
                    f"formula {idx}: round-trip verdict {verdict.to_json()} "
                    f"!= in-memory verdict {direct.to_json()}")

    def report(self, outcomes):
        ok = [o for o in outcomes if o.info]
        return [
            *_timings("refute_s", outcomes, self.kinds),
            ("accepted_frac", sum(o.reason == "accepted" for o in outcomes)
             / len(outcomes), "share", len(outcomes)),
            ("witness_bytes", median(o.info["bytes"] for o in ok), "B", len(ok)),
        ]


# ----------------------------------------------------------- dense-sweep


class DenseSweep(Workload):
    """One `fkocert sweep` row per op at m = floor(3 n^1.4)."""

    name = "dense-sweep"
    kinds = ("sweep",)
    n = 28
    pool = 3

    def setup(self) -> None:
        rng = random.Random(self.seed)
        m = dense_m(self.n)
        self.seeds = [rng.randrange(1 << 30) for _ in range(self.pool)]
        self.cnfs = [self.fk.gen_random_3cnf(self.n, m, s) for s in self.seeds]
        self.rows: dict[int, str] = {}

    def call(self, k: int):
        s = self.seeds[k % self.pool]
        argv = ["sweep", "--n", str(self.n), "--m", str(dense_m(self.n)),
                "--seeds", "1", "--seed", str(s)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.mods["fkocert.cli"].main(argv)
        return rc, buf.getvalue()

    def judge(self, k, res, seconds):
        rc, csv = res
        s = self.seeds[k % self.pool]
        lines = csv.splitlines()
        wrong = None
        if rc != 0 or len(lines) != 2 or not lines[0].startswith("n,m,seed,"):
            wrong = f"sweep exit {rc}, output {csv!r}"
            return Outcome("sweep", seconds, "-", wrong=wrong)
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        if (row["n"], row["m"], row["seed"]) != (str(self.n), str(dense_m(self.n)), str(s)):
            wrong = f"row is for {row['n']},{row['m']},{row['seed']}"
        elif self.rows.setdefault(k % self.pool, lines[1]) != lines[1]:
            wrong = "two sweep rows for one (n, m, seed) differ"
        info = {}
        if row["t_needed"]:
            info["t_ratio"] = int(row["t_found"]) / int(row["t_needed"])
        return Outcome("sweep", seconds,
                       "accepted" if row["accepted"] == "1" else "rejected",
                       wrong=wrong, info=info)

    def finish(self, outcomes):
        """The stage pass: the row's stages once each, as the builder runs
        them, checked against the row."""
        fk = self.fk
        for idx, line in sorted(self.rows.items()):
            cnf = self.cnfs[idx]
            with self.traced("stages"):
                imb = fk.imbalance(cnf)
                mat = fk.build_m(cnf)
                cert = fk.approx_eigen(mat, C)
                rep = fk.certify_eigvalbound(mat, cert)
                need = t_needed(D, imb, cert.lambdas[0] * cnf.n + rep.slack)
                try:
                    coll = fk.find_collection(cnf, k_max=4, d=D, t_target=need,
                                              seed=self.seeds[idx], budget=BUDGET)
                except fk.CollectionSearchError as exc:
                    coll = exc.best
            want = {"imbalance": str(imb), "t_found": str(coll.t),
                    "lambda": str(cert.lambdas[0]) if rep.passed else "",
                    "t_needed": str(need) if rep.passed else ""}
            got = dict(zip("n,m,seed,t_found,t_needed,lambda,imbalance,accepted"
                           .split(","), line.split(",")))
            own = own_imbalance(cnf.n, [cl.literals() for cl in cnf.clauses])
            for key, val in want.items():
                if got[key] != val:
                    self.violations.append(
                        f"sweep seed {self.seeds[idx]}: {key} {got[key]!r} "
                        f"!= stage pass {val!r}")
            if imb != own:
                self.violations.append(f"imbalance {imb} != independent count {own}")

    def report(self, outcomes):
        ratios = [o.info["t_ratio"] for o in outcomes if "t_ratio" in o.info]
        return [
            *_timings("sweep_row_s", outcomes, self.kinds),
            ("t_ratio", median(ratios), "ratio", len(ratios)),
            ("accepted_frac", sum(o.reason == "accepted" for o in outcomes)
             / len(outcomes), "share", len(outcomes)),
        ]


# ---------------------------------------------------------- dense-verify


def _tamper(obj: dict, how: str) -> dict:
    """One hostile edit of an honest witness object."""
    obj = json.loads(json.dumps(obj))
    if how == "inflated-t":
        obj["D"]["t"] += 1
    elif how == "wrong-I":
        obj["I"] += 1
    elif how == "lambda+1":
        lam = obj["lambda"]
        lam["num"] = str(int(lam["num"]) + int(lam["den"]))
    elif how == "off-grid":
        cell = obj["V"][0][0]
        cell["num"] = str(3 * int(cell["num"]) + 1)
        cell["den"] = str(3 * int(cell["den"]))
    elif how == "ragged-V":
        obj["V"][-1].pop()
    elif how == "den-zero":
        obj["lambdas"][0]["den"] = "0"
    elif how == "missing-D":
        del obj["D"]
    return obj


TAMPERS = ("inflated-t", "wrong-I", "lambda+1", "off-grid", "ragged-V",
           "den-zero", "missing-D")


class DenseVerify(Workload):
    """Third-party verification of witness files for random dense
    formulas: even ops verify an honest file, odd ops a tampered copy."""

    name = "dense-verify"
    kinds = ("verify", "reject")
    n = 28
    pool = 5

    def setup(self) -> None:
        rng = random.Random(self.seed)
        m = dense_m(self.n)
        self.files = [self._witness_files(dimacs(self.n, random_clauses(rng, self.n, m)))
                      for _ in range(self.pool)]
        self.verdicts: dict[tuple[int, str], str] = {}

    def _witness_files(self, text: str) -> tuple[str, str, list[str]]:
        """(DIMACS, honest witness JSON, tampered copies) for one formula;
        the honest witness carries the near-miss collection."""
        fk, exactq = self.fk, self.mods["fkocert.exactq"]
        n = self.n
        cnf = fk.parse_dimacs(text)
        imb = fk.imbalance(cnf)
        mat = fk.build_m(cnf)
        cert = fk.approx_eigen(mat, C)
        rep = fk.certify_eigvalbound(mat, cert)
        if not rep.passed:
            raise RuntimeError(f"dense-verify: certificate failed {rep.failed_conditions()}")
        need = t_needed(D, imb, cert.lambdas[0] * n + rep.slack)
        try:
            coll = fk.find_collection(cnf, k_max=4, d=D, t_target=need, seed=0, budget=BUDGET)
        except fk.CollectionSearchError as exc:
            coll = exc.best
        eps = exactq.snap_up_to_grid(
            max(rep.slack, Fraction(1, exactq.grid_denominator(n, C))), n, C)
        wit = fk.FkoWitness(n=n, m=cnf.m, c=C, imb=imb, mat=None, cert=cert,
                            lam=cert.lambdas[0], coll=coll, epsilon=eps)
        honest = fk.witness_to_json(wit)
        obj = json.loads(honest)
        return text, honest, [json.dumps(_tamper(obj, how), sort_keys=True, indent=1)
                              for how in TAMPERS]

    def _file(self, k: int) -> tuple[int, str, str]:
        """Op k: formula, file class, witness text.  Even ops take the
        honest file; odd ops cycle through the tamper classes.  With a
        pool size coprime to 7, every (formula, class) pair comes up
        within 7 * pool odd ops."""
        i = k // 2
        idx = i % self.pool
        _, honest, tampered = self.files[idx]
        if k % 2 == 0:
            return idx, "honest", honest
        cls = i % len(TAMPERS)
        return idx, TAMPERS[cls], tampered[cls]

    def call(self, k: int):
        fk = self.fk
        idx, _, text = self._file(k)
        try:
            cnf = fk.parse_dimacs(self.files[idx][0])
            return fk.verify_witness(cnf, fk.witness_from_json(text))
        except Exception as exc:  # hostile files: counted in failed_frac
            return Raised(exc)

    def judge(self, k, res, seconds):
        idx, which, text = self._file(k)
        kind = "verify" if which == "honest" else "reject"
        info = {"file": which, "bytes": len(text)}
        if isinstance(res, Raised):
            name = type(res.exc).__name__
            wrong = f"honest file raised {name}: {res.exc}" if kind == "verify" else None
            return Outcome(kind, seconds, "exception", name, wrong, info)
        reason = "accepted" if res.accepted else res.reason
        wrong = None
        if kind == "reject" and res.accepted:
            wrong = f"tampered file ({which}) accepted"
        elif kind == "verify" and reason not in ("accepted", "inequality"):
            wrong = f"honest file rejected at {reason}: {res.detail}"
        elif self.verdicts.setdefault((idx, which), res.to_json()) != res.to_json():
            wrong = f"two verdicts on the {which} file differ"
        return Outcome(kind, seconds, reason, wrong=wrong, info=info)

    def report(self, outcomes):
        honest = [o for o in outcomes if o.kind == "verify"]
        return [
            *_timings("verify_s", outcomes, ("verify",)),
            *_timings("reject_s", outcomes, ("reject",)),
            ("accepted_frac", sum(o.reason == "accepted" for o in honest)
             / max(len(honest), 1), "share", len(honest)),
            ("witness_bytes", median(len(h) for _, h, _ in self.files), "B",
             self.pool),
        ]


# ---------------------------------------------------------- search-large


class SearchLarge(Workload):
    """parse -> imbalance -> find_collection -> check_collection at a size
    the spectral stages cannot reach."""

    name = "search-large"
    kinds = ("search",)
    n = 200
    pool = 8

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.formulas = []
        for _ in range(self.pool):
            cls = random_clauses(rng, self.n, dense_m(self.n))
            self.formulas.append((cls, own_imbalance(self.n, cls), dimacs(self.n, cls)))
        self.found: dict[int, tuple] = {}

    def call(self, k: int):
        fk = self.fk
        _, _, text = self.formulas[k % self.pool]
        cnf = fk.parse_dimacs(text)
        imb = fk.imbalance(cnf)
        coll = fk.find_collection(cnf, k_max=4, d=D, t_target=0, seed=0, budget=BUDGET)
        return imb, coll, fk.check_collection(cnf, coll)

    def judge(self, k, res, seconds):
        imb, coll, (ok, why) = res
        cls, want_imb, _ = self.formulas[k % self.pool]
        uses: dict[int, int] = {}
        for tup in coll.tuples:
            for i in tup:
                uses[i] = uses.get(i, 0) + 1
        wrong = None
        if imb != want_imb:
            wrong = f"imbalance {imb} != independent count {want_imb}"
        elif not ok:
            wrong = f"check_collection rejected the found collection: {why}"
        elif not all(own_inconsistent(cls, tup) for tup in coll.tuples):
            wrong = "found tuple is not an inconsistent even tuple"
        elif max(uses.values(), default=0) > coll.d or coll.t != len(coll.tuples):
            wrong = "collection breaks its reuse bound or count"
        elif self.found.setdefault(k % self.pool, coll.tuples) != coll.tuples:
            wrong = "two searches on one formula found different collections"
        return Outcome("search", seconds, "-", wrong=wrong, info={"t_found": coll.t})

    def report(self, outcomes):
        return [
            *_timings("search_s", outcomes, self.kinds),
            ("t_found", median(o.info["t_found"] for o in outcomes), "count",
             len(outcomes)),
        ]


WORKLOADS = {w.name: w for w in (PlantedRefute, DenseSweep, DenseVerify, SearchLarge)}
