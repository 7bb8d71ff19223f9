"""Pipeline benchmark for fkocert: one workload, one seed, one process.

    python3 perfbench/run.py --workload planted-refute --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ./src, never
from an installed copy.  The run sets up its inputs several times and
reports the median set-up time, then runs ops in a closed loop (one op at
a time, single-threaded) for --seconds, checks every result, and prints
a readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs every input
twice, traced and untraced, and reports the per-layer metrics from the
traced runs' spans, which it also writes to perfbench/out/.  The exit
code is 0 only when every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, median, t_needed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 30

# The machine-speed reference: a 12x12 product of Fractions on the 2^-80
# grid, stdlib only, the kind of arithmetic certification does.  Shared
# hosts drift in speed by 10-30% over seconds to minutes.  Each op and
# set-up time is scaled by REF_S over the mean reference time just
# before and just after it, so op_s and setup_s read as seconds on a host
# where the reference takes REF_S: its median on an Intel Xeon 2.1 GHz VM
# with Python 3.11.
REF_S = 0.0125
_ref_rng = random.Random(0)
REF_MATRIX = [[Fraction(_ref_rng.randrange(-(1 << 80), 1 << 80), 1 << 80) for _ in range(12)]
              for _ in range(12)]


def reference_seconds() -> float:
    """Mean time of two runs of the reference."""
    a = REF_MATRIX
    t0 = time.perf_counter()
    for _ in range(2):
        [[sum((a[i][k] * a[k][j] for k in range(12)), Fraction(0)) for j in range(12)]
         for i in range(12)]
    return (time.perf_counter() - t0) / 2


def around(refs: list[float], i: int) -> float:
    """Mean of the reference times just before and just after step i."""
    return (refs[i] + refs[i + 1]) / 2

# per-layer self-time shares: span name -> metric name
STAGES = {
    "cnf.parse": "cnf.parse_share",
    "cnf.imbalance": "cnf.imbalance_share",
    "spectral.build_m": "spectral.build_m_share",
    "spectral.approx_eigen": "spectral.approx_eigen_share",
    "spectral.certify": "spectral.certify_share",
    "exactq.gram_dev": "exactq.gram_dev_share",
    "tuples.find_collection": "tuples.find_collection_share",
    "tuples.check_collection": "tuples.check_collection_share",
    "witness.build": "witness.build_share",
    "witness.verify": "witness.verify_share",
    "witness.to_json": "witness.to_json_share",
    "witness.from_json": "witness.from_json_share",
    "cli.sweep": "cli.sweep_share",
}
REASONS = ("accepted", "3CNF", "Coll", "Imb", "Mat", "EigValBound", "lambda-max",
           "inequality", "exception")


def load_program() -> dict:
    """Import fkocert from ./src; refuse to run without it."""
    if not (SRC / "fkocert" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'fkocert'}")
    sys.path.insert(0, str(SRC))
    names = ("fkocert", "fkocert.cli", "fkocert.witness", "fkocert.spectral",
             "fkocert.exactq")
    mods = {name: importlib.import_module(name) for name in names}
    if Path(mods["fkocert"].__file__).resolve().parent != SRC / "fkocert":
        sys.exit(f"perfbench: imported fkocert from {mods['fkocert'].__file__}")
    return mods


def time_setup(bench) -> tuple[list[float], list[float]]:
    """Repeated set-ups: at least SETUP_MIN_REPS, and more while the total
    stays under SETUP_MIN_SECONDS.  Returns the set-up times and the
    reference times around them (one more than set-ups)."""
    times: list[float] = []
    refs = [reference_seconds()]
    while len(times) < SETUP_MIN_REPS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        bench.setup()
        times.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
    return times, refs


def run_op(bench, k: int, tracer=None):
    if tracer is None:
        t0 = time.perf_counter()
        res = bench.call(k)
        seconds = time.perf_counter() - t0
    else:
        with tracer.op(bench.kinds[0]) as op_id:
            t0 = time.perf_counter()
            res = bench.call(k)
            seconds = time.perf_counter() - t0
    out = bench.judge(k, res, seconds)
    if tracer is not None:
        tracer.kinds[op_id] = out.kind
        out.info["op_id"] = op_id
    return out


def measure(bench, seconds: float, tracer) -> tuple[list, list[float]]:
    """Closed loop: the next op starts when the previous one has ended.
    The reference runs between inputs; each outcome's `ref` is the
    reference time around its input.  Returns outcomes and reference
    times."""
    outcomes, refs = [], [reference_seconds()]
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        if tracer is None:
            ops = [run_op(bench, k)]
        else:  # the same input traced and untraced, in alternating order
            order = (tracer, None) if k % 2 == 0 else (None, tracer)
            ops = [run_op(bench, k, t) for t in order]
        refs.append(reference_seconds())
        for o in ops:
            o.ref = around(refs, k)
        outcomes += ops
        k += 1
    return outcomes, refs


def layer_metrics(bench, tracer, outcomes) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced ops' spans, plus readable lines."""
    main = {o.info["op_id"]: o for o in outcomes if "op_id" in o.info}
    selfs, calls, roots = tracer.self_times(), tracer.calls(), tracer.roots()
    wall = sum(roots[i].end - roots[i].start for i in main)
    metrics: dict[str, tuple[float, str]] = {}
    lines = [f"{'stage':26s} {'calls/op':>9s} {'self s/op':>11s} {'share':>7s}"]
    for span, metric in STAGES.items():
        self_s = sum(selfs[i].get(span, 0.0) for i in main)
        metrics[metric] = (self_s / wall, "share")
        ncalls = sum(calls[i].get(span, 0) for i in main)
        if ncalls:
            lines.append(f"{span:26s} {ncalls / len(main):9.2f} "
                         f"{self_s / len(main):11.5f} {self_s / wall:7.3f}")
    glue = sum(sum(v for k, v in selfs[i].items() if k not in STAGES) for i in main)
    lines.append(f"{'(benchmark glue)':26s} {'':9s} {glue / len(main):11.5f} {glue / wall:7.3f}")
    for span in ("spectral.approx_eigen", "spectral.certify"):
        metrics[span + "_calls"] = (
            sum(calls[i].get(span, 0) for i in main) / len(main), "count")

    # sizes read at the boundaries, one value per op, the (low) median over ops
    per_op: dict[str, list[float]] = {}

    def put(name, value):
        per_op.setdefault(name, []).append(value)

    spans_by_op: dict[int, list] = {}
    for s in tracer.spans:
        if s.info:
            spans_by_op.setdefault(s.op, []).append(s)
    for i in main:
        info: dict[str, dict] = {}
        for s in spans_by_op.get(i, []):
            info.setdefault(s.name, s.info)  # first call of each kind
            if s.name == "tuples.find_collection":
                info["found"] = s.info  # the builder's last search
        cert = info.get("spectral.certify")
        if cert:
            put("spectral.cert_num_bits", cert["num_bits"])
            put("spectral.cert_den_bits", cert["den_bits"])
            put("spectral.rho_over_tol", cert["rho_over_tol"])
            put("spectral.tau_over_tol", cert["tau_over_tol"])
        coll = info.get("found") or info.get("tuples.check_collection")
        if coll:
            put("tuples.t_found", coll["t"])
            put("tuples.k", coll["k"])
            put("tuples.quad_cliff", coll.get("quad_cliff", 0))
            imb = info.get("cnf.imbalance")
            if cert and imb:
                put("tuples.t_needed", t_needed(coll["d"], imb["I"], cert["u"]))
        js = info.get("witness.to_json") or info.get("witness.from_json")
        if js:
            put("witness.bytes", js["bytes"])
    units = {"spectral.cert_num_bits": "bits", "spectral.cert_den_bits": "bits",
             "spectral.rho_over_tol": "ratio", "spectral.tau_over_tol": "ratio",
             "tuples.t_found": "count", "tuples.t_needed": "count", "tuples.k": "count",
             "tuples.quad_cliff": "flag", "witness.bytes": "B"}
    for name, unit in units.items():
        values = per_op.get(name)
        metrics[name] = (statistics.median_low(values) if values else 0, unit)

    for reason in REASONS:
        metrics[f"witness.verdict.{reason}"] = (
            sum(o.reason == reason for o in outcomes), "count")

    traced = [o.seconds for o in outcomes if "op_id" in o.info]
    untraced = [o.seconds for o in outcomes if "op_id" not in o.info]
    stage_ops = [i for i, kind in tracer.kinds.items() if kind == "stages"]
    if "sweep" in bench.kinds and stage_ops:
        one_pass = median(
            sum(v for k, v in selfs[i].items() if k in STAGES) for i in stage_ops)
        metrics["cli.sweep_redundancy"] = (median(traced) / one_pass, "ratio")
    else:
        metrics["cli.sweep_redundancy"] = (0.0, "ratio")
    metrics["trace.op_s"] = (median(traced), "s")
    metrics["trace.overhead"] = (median(traced) / median(untraced) - 1, "share")
    lines.append(f"traced op median {median(traced):.5f} s over {len(traced)} ops, "
                 f"untraced {median(untraced):.5f} s over {len(untraced)} ops")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ["FKO_THREADS"] = "1"
    mods = load_program()
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    bench = WORKLOADS[args.workload](mods, args.seed)
    setups, setup_refs = time_setup(bench)
    tracer = Tracer(mods) if args.trace else None
    bench.tracer = tracer
    outcomes, refs = measure(bench, args.seconds, tracer)
    bench.finish(outcomes)

    wrong = [o.wrong for o in outcomes if o.wrong] + bench.violations
    failed = sum(1 for o in outcomes if o.wrong)
    failures = sum(1 for o in outcomes if o.raised or o.wrong)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"# {bench.name} seed {args.seed}: {len(outcomes)} ops in {args.seconds:g} s, "
          f"trace {args.trace}")
    headline = [o for o in outcomes if o.kind == bench.kinds[0] and "op_id" not in o.info]
    op_s, setup_s, ref_s = median(o.seconds for o in headline), median(setups), median(refs)
    print(f"reference median {ref_s:.6f} s in the loop, {median(setup_refs):.6f} s in "
          f"set-up: op_s and setup_s are scaled to a {REF_S} s reference, other times are raw")
    rows = [("op_s", median(o.seconds * REF_S / o.ref for o in headline), "s", len(headline)),
            ("setup_s", median(t * REF_S / around(setup_refs, i) for i, t in enumerate(setups)),
             "s", len(setups)),
            ("wall.op_s", op_s, "s", len(headline)),
            ("wall.setup_s", setup_s, "s", len(setups)),
            *bench.report(outcomes),
            ("failed_frac", failures / len(outcomes), "share", len(outcomes)),
            ("peak_rss_mb", peak_rss_mb, "MB", 1)]
    for name, value, unit, samples in rows:
        print(f"{name:16s} {value:14.6g} {unit:6s} n={samples}")
    for msg in wrong[:20]:
        print(f"CHECK FAILED: {msg}")

    figures = {name: (value, unit) for name, value, unit, _ in rows}
    if args.trace:
        metrics, lines = layer_metrics(bench, tracer, outcomes)
        for name, unit in (("accepted_frac", "share"), ("t_ratio", "ratio"),
                           ("failed_frac", "share"), ("wall.op_s", "s"),
                           ("wall.setup_s", "s")):
            metrics[name] = figures.get(name, (0.0, unit))
        metrics["machine.ref_s"] = (ref_s, "s")
        print("\n".join(lines))
        tracer.write(OUT / f"spans-{bench.name}-seed{args.seed}.json")
    else:
        metrics = {name: figures[name] for name in ("op_s", "setup_s", "peak_rss_mb")}
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
