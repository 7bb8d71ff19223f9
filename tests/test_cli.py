"""End-to-end command-line tests driven through main()."""

import json

import pytest

import fkocert.witness
from fkocert.cli import build_parser, main
from fkocert.cnf import gen_random_3cnf, to_dimacs
from fkocert.witness import witness_from_json, witness_to_json

from conftest import planted_block


PROOF_OK = """\
1: axiom |- p1 --> p1
2: not-right(1) |-  --> ~p1, p1
3: exchange-right(2) |-  --> p1, ~p1
4: one-right(3) |-  --> Th1(p1, ~p1)
"""


def _block_path(tmp_path, blocks=1):
    p = tmp_path / "block.cnf"
    p.write_text(to_dimacs(planted_block(blocks)))
    return p


def test_gen_writes_dimacs(tmp_path, capsys):
    out = tmp_path / "f.cnf"
    rc = main(["gen", "--n", "20", "--m", "120", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("p cnf 20 120")
    err = capsys.readouterr().err
    assert "m/n = 6.0000" in err
    assert "n^1.4" in err


def test_gen_stdout_and_determinism(capsys):
    assert main(["gen", "--n", "15", "--m", "40", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--n", "15", "--m", "40", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_gen_rejects_tiny_n(capsys):
    assert main(["gen", "--n", "2", "--m", "5", "--seed", "0"]) == 2


def test_refute_accepts_planted_block(tmp_path, capsys):
    rc = main(["refute", "--cnf", str(_block_path(tmp_path))])
    out = capsys.readouterr().out
    assert rc == 0
    verdict = json.loads(out)
    assert verdict["accepted"] is True
    assert verdict["certified"]["margin"] == {"num": "16", "den": "1"}
    assert verdict["certified"]["unsat3xor_lower_bound"] == 4


def test_refute_reports_build_failure(tmp_path, capsys):
    p = tmp_path / "one.cnf"
    p.write_text("p cnf 5 1\n1 -2 3 0\n")
    rc = main(["refute", "--cnf", str(p)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert out["accepted"] is False
    assert out["reason"] == "Build"


def test_witness_then_verify_round_trip(tmp_path, capsys):
    cnf_path = _block_path(tmp_path, blocks=2)
    wit_path = tmp_path / "w.json"
    assert main(["witness", "--cnf", str(cnf_path), "--out", str(wit_path)]) == 0
    capsys.readouterr()
    rc = main(["verify", "--cnf", str(cnf_path), "--witness", str(wit_path)])
    assert rc == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["accepted"] is True


def test_verify_rejects_tampered_witness(tmp_path, capsys):
    cnf_path = _block_path(tmp_path)
    wit_path = tmp_path / "w.json"
    assert main(["witness", "--cnf", str(cnf_path), "--out", str(wit_path)]) == 0
    capsys.readouterr()
    blob = json.loads(wit_path.read_text())
    blob["D"]["t"] = 99
    wit_path.write_text(json.dumps(blob))
    rc = main(["verify", "--cnf", str(cnf_path), "--witness", str(wit_path)])
    assert rc == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["accepted"] is False
    assert verdict["reason"] == "Coll"


def test_witness_build_failure_exits_1(tmp_path, capsys):
    p = tmp_path / "one.cnf"
    p.write_text("p cnf 5 1\n1 -2 3 0\n")
    rc = main(["witness", "--cnf", str(p), "--out", str(tmp_path / "w.json")])
    assert rc == 1
    err = capsys.readouterr().err
    blob = json.loads(err)
    assert blob["built"] is False
    assert blob["stage"] == "collection"


def test_oracle_on_block(tmp_path, capsys):
    rc = main(["oracle", "--cnf", str(_block_path(tmp_path))])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"n": 3, "m": 8, "unsat": True,
                      "max_nae": 6, "min_not3xor": 4}


def test_oracle_satisfiable_exits_1(tmp_path, capsys):
    p = tmp_path / "sat.cnf"
    p.write_text(to_dimacs(gen_random_3cnf(8, 10, seed=1)))
    rc = main(["oracle", "--cnf", str(p)])
    report = json.loads(capsys.readouterr().out)
    if report["unsat"]:
        assert rc == 0
    else:
        assert rc == 1


def test_oracle_cap(tmp_path, capsys):
    p = tmp_path / "big.cnf"
    p.write_text(to_dimacs(gen_random_3cnf(30, 40, seed=0)))
    assert main(["oracle", "--cnf", str(p), "--oracle-cap", "20"]) == 2


def test_checkproof_accepts(tmp_path, capsys):
    p = tmp_path / "ok.prf"
    p.write_text(PROOF_OK)
    rc = main(["checkproof", str(p)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "steps": 4}


def test_checkproof_rejects(tmp_path, capsys):
    p = tmp_path / "bad.prf"
    p.write_text(PROOF_OK.replace("one-right", "all-right"))
    rc = main(["checkproof", str(p)])
    assert rc == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["valid"] is False
    assert blob["step"] == 3


def test_checkproof_malformed_is_usage_error(tmp_path):
    p = tmp_path / "junk.prf"
    p.write_text("this is not a proof\n")
    assert main(["checkproof", str(p)]) == 2


def test_missing_file_is_usage_error():
    assert main(["verify", "--cnf", "/nonexistent.cnf", "--witness", "/nonexistent.json"]) == 2
    assert main(["oracle", "--cnf", "/nonexistent.cnf"]) == 2


def test_sweep_csv_shape(capsys, monkeypatch):
    monkeypatch.setenv("FKO_THREADS", "1")
    rc = main(["sweep", "--n", "8,10", "--m", "30", "--seeds", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,m,seed,t_found,t_needed,lambda,imbalance,accepted"
    assert len(lines) == 5
    for row in lines[1:]:
        n, m, seed, t_found, t_needed, lam, imb, accepted = row.split(",")
        assert int(n) in (8, 10)
        assert int(m) == 30
        assert int(seed) in (0, 1)
        assert int(t_found) >= 0
        assert int(t_needed) >= 1
        assert accepted in ("0", "1")


def test_sweep_deterministic_across_thread_counts(capsys, monkeypatch):
    argv = ["sweep", "--n", "6,8", "--m", "24", "--seeds", "2"]
    monkeypatch.setenv("FKO_THREADS", "1")
    assert main(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("FKO_THREADS", "8")
    assert main(argv) == 0
    assert capsys.readouterr().out == serial


def test_witness_json_cli_matches_library(tmp_path):
    cnf = planted_block(1)
    cnf_path = tmp_path / "b.cnf"
    cnf_path.write_text(to_dimacs(cnf))
    wit_path = tmp_path / "w.json"
    assert main(["witness", "--cnf", str(cnf_path), "--out", str(wit_path)]) == 0
    wit = witness_from_json(wit_path.read_text())
    assert wit.n == 3 and wit.m == 8
    assert witness_to_json(wit) == wit_path.read_text().rstrip("\n")


def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])


@pytest.mark.parametrize("edit", ["den 0", "missing D", "num x"])
def test_verify_malformed_witness_is_usage_error(tmp_path, capsys, edit):
    cnf_path = _block_path(tmp_path)
    wit_path = tmp_path / "w.json"
    assert main(["witness", "--cnf", str(cnf_path), "--out", str(wit_path)]) == 0
    blob = json.loads(wit_path.read_text())
    if edit == "den 0":
        blob["lambdas"][0]["den"] = "0"
    elif edit == "missing D":
        del blob["D"]
    else:
        blob["V"][0][0]["num"] = "x"
    wit_path.write_text(json.dumps(blob))
    capsys.readouterr()
    rc = main(["verify", "--cnf", str(cnf_path), "--witness", str(wit_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: witness JSON:")


def test_sweep_runs_jacobi_once_per_row(capsys, monkeypatch):
    monkeypatch.setenv("FKO_THREADS", "1")
    calls = []
    real = fkocert.witness.approx_eigen

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fkocert.witness, "approx_eigen", counting)
    monkeypatch.setattr(fkocert.cli, "approx_eigen", counting)
    assert main(["sweep", "--n", "6,8", "--m", "24", "--seeds", "2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 4
    assert len(calls) == len(rows)
