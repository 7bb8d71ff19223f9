"""SHA-256 pins of what the builder commands print.

build_witness is a function of the formula alone, so the `witness` JSON
and the `sweep` CSV depend only on their input.  These digests show a
change of those bytes across versions and Python releases, not only
between two calls.  The Jacobi seed and its refinement sum floats, and
CPython 3.12 made float sum() compensated, so CI runs this file on
every supported Python."""

import hashlib
import math

import pytest

from fkocert.cli import main
from fkocert.cnf import Cnf, gen_random_3cnf, to_dimacs

from conftest import planted_block, signed_rows


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _dense(n: int) -> int:
    return math.floor(3 * n ** 1.4)


@pytest.mark.parametrize("make, digest", [
    (lambda: planted_block(1),
     "d3f242f8839a4709a67651ea42d3c5346165900c1f61f04f60db736ca5eb3828"),
    (lambda: planted_block(3),
     "c6d0183f0736b4fe76bf5a502c6deb1ebd418e87e7461a720907116660456e67"),
    (lambda: gen_random_3cnf(28, _dense(28), 0),
     "a085c3df03540e0c3e698b783c05bb9de606c3e91910209bb5c72501f9427243"),
    # isolated vertices plus a component: the planted-refute shape
    (lambda: Cnf(30, signed_rows(planted_block(10)) + signed_rows(gen_random_3cnf(30, 5, 0))),
     "271939ee354e1c8ab4b1e87a373b2dc13cfcd417eb8b88b6a1d2cca9d5f2e9de"),
], ids=["block1", "block3", "dense28", "noisy30"])
def test_witness_json_is_pinned(tmp_path, capsys, make, digest):
    path = tmp_path / "f.cnf"
    path.write_text(to_dimacs(make()))
    assert main(["witness", "--cnf", str(path)]) == 0
    assert _sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_csv_is_pinned(capsys, monkeypatch, threads):
    ns = [6, 8, 10]
    monkeypatch.setenv("FKO_THREADS", threads)
    assert main(["sweep", "--n", ",".join(map(str, ns)),
                 "--m", ",".join(str(_dense(n)) for n in ns), "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 10
    assert _sha256(out) == "3965d56d23daf5647c304b9af61a072960a01040ad3f9c6a5253ed899aa82ab4"
