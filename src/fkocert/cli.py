"""Command-line front door: generation, witness construction,
verification, brute-force cross-checks, proof checking, and sweeps.

Exit codes: 0 accepted/valid, 1 rejected/failure, 2 usage or I/O error.
All randomness is seeded; sweep rows are sorted by (n, seed) and workers
are capped by the FKO_THREADS environment variable, so output is
byte-identical for any worker count.  The process pool and the proof
checker are imported inside the only commands that use them, so a
pipeline command never loads either.

`witness`, `refute` and `sweep` take no builder setting: build_witness
is a function of the formula alone, so a witness file or a CSV row
depends only on the formula or on its (n, m, seed).  Input files are
read as UTF-8 with an optional byte order mark.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .cnf import (Cnf, check_gen_params, gen_random_3cnf, imbalance,
                  parse_dimacs, to_dimacs)
from .oracle import brute_force_report
# approx_eigen, build_m and certify_eigvalbound stay importable from this
# module: perfbench/spans.py traces the pipeline stages through these names
from .spectral import (  # noqa: F401
    SpectralPrecisionError,
    approx_eigen,
    build_m,
    certify_eigvalbound,
)
from .witness import (
    build_witness,
    verify_witness,
    witness_from_json,
    witness_to_json,
)


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read(path: str) -> str:
    # utf-8-sig drops a leading byte order mark, which some editors write
    # and which neither parse_dimacs nor json.loads accepts
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_cnf(path: str) -> Cnf:
    return parse_dimacs(_read(path))


# ----------------------------------------------------------------- commands


def cmd_gen(args: argparse.Namespace) -> int:
    cnf = gen_random_3cnf(args.n, args.m, args.seed)
    _write(args.out, to_dimacs(cnf))
    ratio = args.m / args.n
    threshold = args.n ** 1.4
    side = "above" if args.m > threshold else "at or below"
    _err(
        f"m/n = {ratio:.4f}; m/n^1.4 = {args.m / threshold:.4f} "
        f"({side} the n^1.4 density)"
    )
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    cnf = _load_cnf(args.cnf)
    try:
        wit = build_witness(cnf)
    except SpectralPrecisionError as e:
        _err(json.dumps({"built": False, "stage": "spectral", "detail": str(e)},
                        sort_keys=True))
        return 1
    _write(args.out, witness_to_json(wit) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cnf = _load_cnf(args.cnf)
    wit = witness_from_json(_read(args.witness))
    verdict = verify_witness(cnf, wit)
    print(verdict.to_json())
    return 0 if verdict.accepted else 1


def cmd_refute(args: argparse.Namespace) -> int:
    cnf = _load_cnf(args.cnf)
    try:
        wit = build_witness(cnf)
    except SpectralPrecisionError as e:
        print(json.dumps({"accepted": False, "reason": "Build", "detail": str(e)},
                         sort_keys=True))
        return 1
    if args.out:
        _write(args.out, witness_to_json(wit) + "\n")
    verdict = verify_witness(cnf, wit)
    print(verdict.to_json())
    return 0 if verdict.accepted else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    cnf = _load_cnf(args.cnf)
    unsat, max_nae, min_not3xor = brute_force_report(cnf)
    report = {
        "n": cnf.n,
        "m": cnf.m,
        "unsat": unsat,
        "max_nae": max_nae,
        "min_not3xor": min_not3xor,
    }
    print(json.dumps(report, sort_keys=True))
    return 0 if unsat else 1


def cmd_checkproof(args: argparse.Namespace) -> int:
    from .tc0frege import check_proof, parse_proof

    proof = parse_proof(_read(args.proof))
    res = check_proof(proof)
    if res.valid:
        print(json.dumps({"valid": True, "steps": len(proof.steps)}, sort_keys=True))
        return 0
    print(json.dumps({"valid": False, "step": res.step, "message": res.message},
                     sort_keys=True))
    return 1


# -------------------------------------------------------------------- sweep


def _sweep_one(job: tuple[int, int, int]) -> tuple:
    """One pipeline run: build, then verify; t_needed is the least t above
    the verifier's threshold.  A value a failed build or a failed
    certification leaves unknown is empty.  Module-level so it pickles for
    worker processes."""
    n, m, seed = job
    cnf = gen_random_3cnf(n, m, seed)
    try:
        wit = build_witness(cnf)
    except SpectralPrecisionError:
        return (n, m, seed, "", "", "", str(imbalance(cnf)), 0)
    verdict = verify_witness(cnf, wit)
    if verdict.threshold is None:
        return (n, m, seed, str(wit.coll.t), "", "", str(wit.imb), 0)
    return (n, m, seed, str(wit.coll.t), str(math.floor(verdict.threshold) + 1),
            str(wit.lam), str(wit.imb), int(verdict.accepted))


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_sweep(args: argparse.Namespace) -> int:
    ns = _int_list(args.n)
    ms = _int_list(args.m)
    if len(ms) == 1:
        ms = ms * len(ns)
    if len(ms) != len(ns):
        _err("--m must be a single value or match --n in length")
        return 2
    if args.seeds < 0:
        raise ValueError("--seeds must be nonnegative")
    for n, m in zip(ns, ms):
        check_gen_params(n, m, args.seed)
    jobs = [(n, m, args.seed + s) for n, m in zip(ns, ms) for s in range(args.seeds)]
    workers = min(_thread_cap(), len(jobs)) if jobs else 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, jobs))
    else:
        rows = [_sweep_one(j) for j in jobs]
    rows.sort(key=lambda r: (r[0], r[2]))
    out = ["n,m,seed,t_found,t_needed,lambda,imbalance,accepted"]
    out += [",".join(str(x) for x in row) for row in rows]
    _write(args.out, "\n".join(out) + "\n")
    return 0


def _thread_cap() -> int:
    raw = os.environ.get("FKO_THREADS", "")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        cap = os.cpu_count() or 1
    return cap


# ------------------------------------------------------------------ parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fkocert",
        description="Construct and verify unsatisfiability witnesses for 3CNFs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # no option prefixes: with them, a mistyped or retired flag such as
    # `--c` would be read as `--cnf`
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    g = command("gen", help="generate a random 3CNF in DIMACS form")
    g.add_argument("--n", type=int, required=True, help="number of variables (>= 3)")
    g.add_argument("--m", type=int, required=True, help="number of clauses")
    g.add_argument("--seed", type=int, required=True, help="formula seed, 0 or more")
    g.add_argument("--out", default=None, help="output path (default stdout)")
    g.set_defaults(func=cmd_gen)

    w = command("witness", help="build a witness for a DIMACS file")
    w.add_argument("--cnf", required=True)
    w.add_argument("--out", default=None, help="output path (default stdout)")
    w.set_defaults(func=cmd_witness)

    v = command("verify", help="verify a witness against a DIMACS file")
    v.add_argument("--cnf", required=True)
    v.add_argument("--witness", required=True)
    v.set_defaults(func=cmd_verify)

    r = command("refute", help="build and verify in one run")
    r.add_argument("--cnf", required=True)
    r.add_argument("--out", default=None, help="also save the witness here")
    r.set_defaults(func=cmd_refute)

    o = command("oracle", help="brute-force satisfiability report")
    o.add_argument("--cnf", required=True)
    o.set_defaults(func=cmd_oracle)

    cp = command("checkproof", help="check a sequent proof file")
    cp.add_argument("proof", help="proof text file")
    cp.set_defaults(func=cmd_checkproof)

    sw = command("sweep", help="batch pipeline runs, CSV output")
    sw.add_argument("--n", required=True, help="comma-separated variable counts")
    sw.add_argument("--m", required=True,
                    help="comma-separated clause counts (single value broadcasts)")
    sw.add_argument("--seed", type=int, default=0,
                    help="formula seed of the first row per (n, m) pair, 0 or more "
                         "(default 0)")
    sw.add_argument("--seeds", type=int, default=1, help="seeds per (n, m) pair, 0 or more")
    sw.add_argument("--out", default=None, help="output path (default stdout)")
    sw.set_defaults(func=cmd_sweep)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    # DimacsError, WitnessFormatError and json's decode error are ValueErrors
    except (OSError, ValueError) as e:
        _err(f"error: {e}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
