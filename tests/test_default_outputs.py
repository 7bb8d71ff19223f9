"""SHA-256 pins of what the builder commands print.

build_witness is a function of the formula alone, so the `witness` JSON
and the `sweep` CSV depend only on their input.  These digests show a
change of those bytes across versions and Python releases, not only
between two calls.  The float seed and the refinement of approx_eigen
add floats in loops, never with sum(), which CPython 3.12 made
compensated, so CI runs this file on every supported Python.

It needs neither pytest nor numpy nor hypothesis, and also runs alone,
printing one line per pin and exiting 1 if any digest differs:

    PYTHONPATH=src python tests/test_default_outputs.py
"""

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

from fkocert.cli import main
from fkocert.cnf import Cnf, gen_random_3cnf, to_dimacs

from formulas import planted_block, signed_rows


def _dense(n: int) -> int:
    return math.floor(3 * n ** 1.4)


WITNESS_PINS = {
    "block1": (lambda: planted_block(1),
               "d3f242f8839a4709a67651ea42d3c5346165900c1f61f04f60db736ca5eb3828"),
    "block3": (lambda: planted_block(3),
               "c6d0183f0736b4fe76bf5a502c6deb1ebd418e87e7461a720907116660456e67"),
    "dense28": (lambda: gen_random_3cnf(28, _dense(28), 0),
                "a6aee3e68d32a92c59c06913881faf2b3c0a97772e04bd62c92db296c8c95a23"),
    # isolated vertices plus a component: the planted-refute shape
    "noisy30": (lambda: Cnf(30, signed_rows(planted_block(10))
                            + signed_rows(gen_random_3cnf(30, 5, 0))),
                "c90d6469ec2afe7fb9d9df242393723023edb3db673e18fb1f0a64bec0405f9a"),
}
SWEEP_PIN = "3965d56d23daf5647c304b9af61a072960a01040ad3f9c6a5253ed899aa82ab4"
THREADS = ["1", "2"]


def pytest_generate_tests(metafunc):
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", list(WITNESS_PINS))
    if "threads" in metafunc.fixturenames:
        metafunc.parametrize("threads", THREADS)


def _stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _assert_digest(text: str, digest: str) -> None:
    got = hashlib.sha256(text.encode()).hexdigest()
    assert got == digest, f"sha256 {got}, pinned {digest}"


def test_witness_json_is_pinned(name):
    make, digest = WITNESS_PINS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.cnf"
        path.write_text(to_dimacs(make()))
        _assert_digest(_stdout_of(["witness", "--cnf", str(path)]), digest)


def test_sweep_csv_is_pinned(threads):
    ns = [6, 8, 10]
    saved = os.environ.get("FKO_THREADS")
    os.environ["FKO_THREADS"] = threads
    try:
        out = _stdout_of(["sweep", "--n", ",".join(map(str, ns)),
                          "--m", ",".join(str(_dense(n)) for n in ns), "--seeds", "3"])
    finally:
        if saved is None:
            del os.environ["FKO_THREADS"]
        else:
            os.environ["FKO_THREADS"] = saved
    assert len(out.splitlines()) == 10
    _assert_digest(out, SWEEP_PIN)


if __name__ == "__main__":
    runs = [(f"test_witness_json_is_pinned[{name}]", test_witness_json_is_pinned, name)
            for name in WITNESS_PINS]
    runs += [(f"test_sweep_csv_is_pinned[{t}]", test_sweep_csv_is_pinned, t) for t in THREADS]
    failed = 0
    for label, test, arg in runs:
        try:
            test(arg)
        except AssertionError as e:
            failed += 1
            print(f"FAIL {label}: {e}")
        else:
            print(f"ok   {label}")
    sys.exit(1 if failed else 0)
