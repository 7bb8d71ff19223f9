"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They run the real workloads for a few ops each (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, t_needed  # noqa: E402

MODS = run.load_program()
OPS = {"planted-refute": 2, "dense-sweep": 1, "dense-verify": 28, "search-large": 1}


def _inputs(bench) -> list[str]:
    """The generated inputs a workload hands the program."""
    if bench.name == "dense-sweep":
        return [str(s) for s in bench.seeds]
    if bench.name == "dense-verify":
        return [f for cnf, honest, tampered in bench.files for f in (cnf, honest, *tampered)]
    return [text for *_, text in bench.formulas]


def _fingerprint(name: str, seed: int):
    bench = WORKLOADS[name](MODS, seed)
    bench.setup()
    outcomes = [run.run_op(bench, k) for k in range(OPS[name])]
    bench.finish(outcomes)
    assert not bench.violations and not any(o.wrong for o in outcomes)
    facts = [(o.kind, o.reason, o.raised, o.info) for o in outcomes]
    return _inputs(bench), facts


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_counts_and_witness_bytes(name):
    inputs, facts = _fingerprint(name, 7)
    assert _fingerprint(name, 7) == (inputs, facts)
    if name == "planted-refute":  # witness-byte hashes are part of the facts
        assert all(f[3]["sha"] for f in facts)
    if name == "dense-verify":  # 14 tampered files, each class twice; three classes raise
        assert sum(f[1] == "exception" for f in facts) == 3 * 2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_other_seed_other_inputs(name):
    a, b = (WORKLOADS[name](MODS, seed) for seed in (1, 2))
    a.setup()
    b.setup()
    assert all(x != y for x, y in zip(_inputs(a), _inputs(b)))


def test_span_self_times_sum_to_op_wall_time():
    bench = WORKLOADS["planted-refute"](MODS, 3)
    bench.setup()
    tracer = Tracer(MODS)
    bench.tracer = tracer
    outcomes, _ = run.measure(bench, 2.0, tracer)
    metrics, _ = run.layer_metrics(bench, tracer, outcomes)
    overhead = abs(metrics["trace.overhead"][0])
    selfs = tracer.self_times()
    traced = [o for o in outcomes if "op_id" in o.info]
    assert traced
    for o in traced:
        total = sum(selfs[o.info["op_id"]].values())
        assert abs(total - o.seconds) <= max(overhead * o.seconds, 1e-3)
        assert {"spectral.certify", "tuples.find_collection"} <= set(selfs[o.info["op_id"]])
    assert metrics["spectral.certify_calls"][0] == 2  # builder and verifier


def test_tracer_restores_the_program():
    fk = MODS["fkocert"]
    before = (fk.verify_witness, MODS["fkocert.witness"].certify_eigvalbound)
    tracer = Tracer(MODS)
    with tracer.op("probe"):
        assert fk.verify_witness is not before[0]
    assert (fk.verify_witness, MODS["fkocert.witness"].certify_eigvalbound) == before


def test_t_needed_is_the_verifiers_floor_rule():
    # d(I+U)/2 = 0.5: the verifier accepts t = 1; build_witness asks for 2
    assert t_needed(4, 0, Fraction(1, 4)) == 1
    # d(I+U)/2 = 3 exactly: t must exceed it
    assert t_needed(4, 1, Fraction(1, 2)) == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [*cmd, "--workload", "planted-refute", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
