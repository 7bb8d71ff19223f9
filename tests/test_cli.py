"""End-to-end command-line tests driven through main()."""

import argparse
import ast
import importlib
import inspect
import json
import math
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fkocert
import fkocert.witness
from fkocert import SpectralCert, approx_eigen, build_m, certify_eigvalbound
from fkocert.cli import build_parser, main
from fkocert.cnf import gen_random_3cnf, imbalance, to_dimacs
from fkocert.tc0frege import MAX_DEPTH
from fkocert.witness import build_witness, witness_from_json, witness_to_json

from conftest import planted_block
from test_witness import _huge_d_text

CLI_SOURCE = Path(__file__).resolve().parent.parent / "src" / "fkocert" / "cli.py"


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


def test_gen_rejects_a_negative_seed(capsys):
    assert main(["gen", "--n", "8", "--m", "30", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be nonnegative\n"


def test_refute_accepts_planted_block(tmp_path, capsys):
    rc = main(["refute", "--cnf", str(_block_path(tmp_path))])
    out = capsys.readouterr().out
    assert rc == 0
    verdict = json.loads(out)
    assert verdict["accepted"] is True
    assert verdict["certified"]["margin"] == {"num": "16", "den": "1"}
    assert verdict["certified"]["unsat3xor_lower_bound"] == 4


def test_refute_reports_build_failure(tmp_path, capsys):
    # the builder returns its best witness, t = 0 here; the verdict says
    # where it falls short
    p = tmp_path / "one.cnf"
    p.write_text("p cnf 5 1\n1 -2 3 0\n")
    rc = main(["refute", "--cnf", str(p)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert out["accepted"] is False
    assert out["reason"] == "inequality"
    assert set(out["threshold"]) == {"num", "den"}


def test_refute_certifies_once_when_accepted_and_never_on_a_near_miss(
        tmp_path, capsys, certify_calls):
    assert main(["refute", "--cnf", str(_block_path(tmp_path, blocks=2))]) == 0
    assert json.loads(capsys.readouterr().out)["accepted"] is True
    assert len(certify_calls) == 1
    p = tmp_path / "near.cnf"
    p.write_text(to_dimacs(gen_random_3cnf(10, 40, 1)))
    assert main(["refute", "--cnf", str(p)]) == 1
    assert "lambda*n" in json.loads(capsys.readouterr().out)["detail"]
    assert len(certify_calls) == 1


def test_dense_sweep_row_certifies_nothing(capsys, monkeypatch, certify_calls):
    monkeypatch.setenv("FKO_THREADS", "1")
    assert main(["sweep", "--n", "28", "--m", "318"]) == 0
    [row] = capsys.readouterr().out.strip().splitlines()[1:]
    assert row.endswith(",0")
    assert certify_calls == []


def test_failing_certificate_is_rejected_by_refute_and_sweep(tmp_path, capsys, monkeypatch):
    # K3 = K4 = K5 = 2^-128, below every nonzero residual at n <= 8 and
    # c = 8 (an integer over at most 2*n^(4c)): the builder still writes its
    # certificate, and the verifier rejects it at EigValBound once t clears
    # d*(I+lambda*n)/2
    monkeypatch.setenv("FKO_THREADS", "1")
    argv = ["sweep", "--n", "6,6,8", "--m", "24,200,200", "--seeds", "2"]
    assert main(argv) == 0
    default = capsys.readouterr().out.strip().splitlines()
    for name in ("k3", "k4", "k5"):
        monkeypatch.setattr(SpectralCert, name, Fraction(1, 2**128))
    reasons = set()
    for n, m, seed in [(6, 24, 0), (6, 200, 0), (8, 200, 1)]:
        p = tmp_path / f"{n}-{m}-{seed}.cnf"
        p.write_text(to_dimacs(gen_random_3cnf(n, m, seed)))
        assert main(["refute", "--cnf", str(p)]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["accepted"] is False
        reasons.add(verdict["reason"])
    assert reasons == {"EigValBound", "inequality"}
    assert main(argv) == 0
    forced = capsys.readouterr().out.strip().splitlines()
    # each row the default constants accept now fails certification and
    # leaves t_needed and lambda empty; every near miss reads the same
    assert len(forced) == 7 and forced[0] == default[0]
    accepted = 0
    for want, got in zip(default[1:], forced[1:]):
        n, m, seed, t_found, _, _, imb, ok = want.split(",")
        if ok == "1":
            accepted += 1
            assert got == f"{n},{m},{seed},{t_found},,,{imb},0"
        else:
            assert got == want
    assert 0 < accepted < 6


def test_empty_formula_builds_and_is_rejected(tmp_path, capsys):
    p = tmp_path / "empty.cnf"
    p.write_text("p cnf 0 0\n")
    wit_path = tmp_path / "w.json"
    assert main(["witness", "--cnf", str(p), "--out", str(wit_path)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(wit_path.read_text())["lambdas"] == []
    want = {"accepted": False, "reason": "EigValBound",
            "detail": "n=0: no eigenvalue to certify"}
    assert main(["verify", "--cnf", str(p), "--witness", str(wit_path)]) == 1
    assert json.loads(capsys.readouterr().out) == want
    assert main(["refute", "--cnf", str(p)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == want and captured.err == ""


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
    # `witness` writes the t = 0 near miss; `verify` rejects it
    p = tmp_path / "one.cnf"
    p.write_text("p cnf 5 1\n1 -2 3 0\n")
    wit_path = tmp_path / "w.json"
    rc = main(["witness", "--cnf", str(p), "--out", str(wit_path)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert json.loads(wit_path.read_text())["D"]["t"] == 0
    rc = main(["verify", "--cnf", str(p), "--witness", str(wit_path)])
    assert rc == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["reason"] == "inequality"
    assert verdict["threshold"] is not None


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


def test_oracle_reaches_its_default_cap(tmp_path, capsys):
    # n = 25 is past the per-assignment truth table's limit
    p = tmp_path / "n25.cnf"
    p.write_text("p cnf 25 1\n1 -13 25 0\n")
    assert main(["oracle", "--cnf", str(p)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "n": 25, "m": 1, "unsat": False, "max_nae": 1, "min_not3xor": 0}


def test_oracle_cap(tmp_path, capsys):
    p = tmp_path / "big.cnf"
    p.write_text(to_dimacs(gen_random_3cnf(26, 40, seed=0)))
    assert main(["oracle", "--cnf", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n=26 exceeds brute-force cap 25\n"


def test_oracle_help_lists_no_cap_flag(capsys):
    with pytest.raises(SystemExit):
        main(["oracle", "--help"])
    out = capsys.readouterr().out
    assert "--cnf" in out and "--oracle-cap" not in out


def test_oracle_runs_without_numpy(tmp_path, capsys):
    path = str(_block_path(tmp_path))
    assert main(["oracle", "--cnf", path]) == 0
    want = capsys.readouterr().out
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "import fkocert\n"
        "import fkocert.cli\n"
        f"raise SystemExit(fkocert.cli.main(['oracle', '--cnf', {path!r}]))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, want, "")


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


def test_checkproof_reads_ascii_digits_only(tmp_path, capsys):
    # Arabic-Indic digits for the step id 1 and for p3: int() reads any
    # Unicode digit, the proof parser ASCII ones only
    p = tmp_path / "digits.prf"
    p.write_text("\u0661: axiom |- p\u0663 --> p3\n", encoding="utf-8")
    assert main(["checkproof", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: malformed proof line")


@pytest.mark.parametrize("depth", [400, 100_000])
def test_checkproof_deep_nesting_is_usage_error(tmp_path, capsys, depth):
    # both depths are past MAX_DEPTH, so the parser refuses them
    f = "~" * depth + "p1"
    p = tmp_path / "deep.prf"
    p.write_text(f"1: axiom |- {f} --> {f}\n")
    assert main(["checkproof", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: formula nests deeper than {MAX_DEPTH}\n"


def test_verify_huge_d_is_a_rejection(tmp_path, capsys):
    cnf, text = _huge_d_text()
    cnf_path, wit_path = tmp_path / "f.cnf", tmp_path / "w.json"
    cnf_path.write_text(to_dimacs(cnf))
    wit_path.write_text(text)
    assert main(["verify", "--cnf", str(cnf_path), "--witness", str(wit_path)]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["reason"] == "inequality"
    assert blob["detail"].endswith("d*(I+U)/2 = ~2^14276")
    assert len(blob["threshold"]["num"]) > 4300


def test_byte_order_mark_changes_no_output(tmp_path, capsys):
    """A UTF-8 byte order mark before a DIMACS or witness JSON file is
    read past: oracle, refute and verify print what they print without."""
    wit_text = witness_to_json(build_witness(planted_block(1))) + "\n"
    results = []
    for bom in ("", "\ufeff"):
        cnf_path, wit_path = tmp_path / f"f{len(bom)}.cnf", tmp_path / f"w{len(bom)}.json"
        cnf_path.write_text(bom + to_dimacs(planted_block(1)), encoding="utf-8")
        wit_path.write_text(bom + wit_text, encoding="utf-8")
        for argv in (["oracle", "--cnf", cnf_path], ["refute", "--cnf", cnf_path],
                     ["verify", "--cnf", cnf_path, "--witness", wit_path]):
            rc = main([str(x) for x in argv])
            results.append((rc, capsys.readouterr()))
    assert results[:3] == results[3:]
    assert [rc for rc, _ in results] == [0] * 6
    assert all(captured.err == "" for _, captured in results)


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


def _no_work(*args, **kwargs):
    raise AssertionError("ran before the parameter check")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv, err", [
    (["--n", "60,2", "--m", "300"], "need n >= 3, got 2"),
    (["--n", "6,8", "--m", "24,-1"], "m must be nonnegative"),
    (["--n", "6", "--m", "24", "--seeds", "-2"], "--seeds must be nonnegative"),
    (["--n", "8", "--m", "30", "--seed", "-1", "--seeds", "3"], "seed must be nonnegative"),
], ids=["n", "m", "seeds", "seed"])
def test_sweep_rejects_bad_rows_before_any_row(capsys, monkeypatch, threads, argv, err):
    import fkocert.cli as cli_mod

    monkeypatch.setenv("FKO_THREADS", threads)
    monkeypatch.setattr(cli_mod, "_sweep_one", _no_work)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_work)
    assert main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_sweep_still_runs_rows_in_a_process_pool(capsys, monkeypatch):
    """cmd_sweep imports the pool inside its workers > 1 branch; at
    FKO_THREADS=2 a multi-row sweep must still build one, and its CSV must
    equal the one-worker CSV."""
    import concurrent.futures

    real = concurrent.futures.ProcessPoolExecutor
    built = []

    def recording(*args, **kwargs):
        built.append(kwargs)
        return real(*args, **kwargs)

    argv = ["sweep", "--n", "6,8", "--m", "24", "--seeds", "2"]
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recording)
    monkeypatch.setenv("FKO_THREADS", "1")
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert built == []
    monkeypatch.setenv("FKO_THREADS", "2")
    assert main(argv) == 0
    assert built == [{"max_workers": 2}]
    assert capsys.readouterr().out == serial
    assert len(serial.splitlines()) == 5


_FOOTPRINT = """\
import json, sys
import fkocert, fkocert.cli
refute = fkocert.cli.main(["refute", "--cnf", sys.argv[1]])
top = hasattr(fkocert, "Top")
heavy = ["multiprocessing", "concurrent.futures.process", "fkocert.tc0frege"]
loaded = [name for name in heavy if name in sys.modules]
checkproof = fkocert.cli.main(["checkproof", sys.argv[2]])
print(json.dumps({
    "refute": refute, "loaded": loaded, "checkproof": checkproof,
    "checker": "fkocert.tc0frege" in sys.modules,
    "top": [top, hasattr(fkocert, "Top")],
}))
"""


def test_pipeline_loads_no_pool_and_no_proof_checker(tmp_path):
    """In a fresh interpreter, `import fkocert, fkocert.cli` and a refute
    run load neither the process pool nor tc0frege, and checkproof loads
    the checker.  The package re-exports none of the checker's names:
    `fkocert.Top` is no attribute, before that load or after it."""
    proof = tmp_path / "ok.prf"
    proof.write_text(PROOF_OK)
    argv = [str(_block_path(tmp_path)), str(proof)]
    run = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    report = json.loads(lines[-1])
    assert json.loads(lines[0])["accepted"] is True
    assert json.loads(lines[1]) == {"valid": True, "steps": 4}
    assert (report["refute"], report["loaded"], report["checkproof"]) == (0, [], 0)
    assert (report["checker"], report["top"]) == (True, [False, False])


def test_every_all_name_resolves():
    # a name deleted from a module but left in an __all__ fails here
    for info in pkgutil.iter_modules(fkocert.__path__):
        mod = importlib.import_module(f"fkocert.{info.name}")
        stale = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert stale == [], info.name
    assert [n for n in fkocert.__all__ if not hasattr(fkocert, n)] == []
    # the proof checker's names are its own, not the package's
    assert set(fkocert.__all__).isdisjoint(fkocert.tc0frege.__all__)


def test_sweep_with_no_seeds_writes_the_header_only(capsys):
    assert main(["sweep", "--n", "6", "--m", "24", "--seeds", "0"]) == 0
    assert capsys.readouterr().out == "n,m,seed,t_found,t_needed,lambda,imbalance,accepted\n"


def _options(command: str) -> set[str]:
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {opt for a in sub.choices[command]._actions for opt in a.option_strings
            } - {"-h", "--help"}


def test_builder_commands_take_no_builder_setting():
    assert _options("witness") == _options("refute") == {"--cnf", "--out"}
    assert _options("sweep") == {"--n", "--m", "--seed", "--seeds", "--out"}
    assert list(inspect.signature(build_witness).parameters) == ["cnf"]


def _refuse_before_any_work(tmp_path, capsys, monkeypatch, command, *flag):
    """`command` with `flag` exits 2 before a formula is read, built or
    generated.  The flag goes first: were prefixes taken, `--c` would
    name `--cnf` and the later `--cnf` would win."""
    import fkocert.cli as cli_mod

    for name in ("_load_cnf", "build_witness", "_sweep_one"):
        monkeypatch.setattr(cli_mod, name, _no_work)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_work)
    where = ["--n", "6", "--m", "24"] if command == "sweep" else ["--cnf", str(_block_path(tmp_path))]
    with pytest.raises(SystemExit) as exc:
        main([command, *flag, *where])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


@pytest.mark.parametrize("command", ["witness", "refute", "sweep"])
@pytest.mark.parametrize("flag", [("--c", "8"), ("--d", "4"), ("--k-max", "4"), ("--budget", "1")],
                         ids=lambda flag: flag[0])
def test_builder_flags_exit_2(tmp_path, capsys, monkeypatch, command, flag):
    _refuse_before_any_work(tmp_path, capsys, monkeypatch, command, *flag)


@pytest.mark.parametrize("command", ["witness", "refute", "sweep"])
def test_budget_above_the_ceiling_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, command):
    """A budget above BUDGET_MAX could keep hundreds of MB of 4-tuples.
    No builder command takes a budget, so the option is refused before
    the formula is read, built or generated."""
    _refuse_before_any_work(tmp_path, capsys, monkeypatch, command, "--budget", "1000001")


# The other values the builder flags used to refuse are still refused,
# now as unknown options, before any work.


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_rejects_a_negative_budget_before_any_row(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("FKO_THREADS", threads)
    _refuse_before_any_work(tmp_path, capsys, monkeypatch, "sweep", "--budget", "-1")


@pytest.mark.parametrize("command", ["witness", "refute"])
def test_build_rejects_a_negative_budget_before_spectral_work(
        tmp_path, capsys, monkeypatch, command):
    _refuse_before_any_work(tmp_path, capsys, monkeypatch, command, "--budget", "-1")


@pytest.mark.parametrize("c", ["0", "65", "eight"])
def test_builder_rejects_grid_exponent_out_of_range(tmp_path, capsys, monkeypatch, c):
    for command in ("witness", "refute", "sweep"):
        _refuse_before_any_work(tmp_path, capsys, monkeypatch, command, "--c", c)


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


@pytest.mark.parametrize("edit", ["den 0", "missing D", "num x", "deep nesting"])
def test_verify_malformed_witness_is_usage_error(tmp_path, capsys, edit):
    cnf_path = _block_path(tmp_path)
    wit_path = tmp_path / "w.json"
    assert main(["witness", "--cnf", str(cnf_path), "--out", str(wit_path)]) == 0
    blob = json.loads(wit_path.read_text())
    if edit == "den 0":
        blob["lambdas"][0]["den"] = "0"
    elif edit == "missing D":
        del blob["D"]
    elif edit == "num x":
        blob["V"][0][0]["num"] = "x"
    # json.loads raises RecursionError, not ValueError, on deep nesting
    text = "[" * 200_000 + "]" * 200_000 if edit == "deep nesting" else json.dumps(blob)
    wit_path.write_text(text)
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


@pytest.mark.parametrize("c", ["0", "-1", "1000000"])
def test_verify_rejects_grid_exponent_out_of_range(tmp_path, capsys, c):
    cnf_path = _block_path(tmp_path)
    wit_path = tmp_path / "w.json"
    assert main(["witness", "--cnf", str(cnf_path), "--out", str(wit_path)]) == 0
    blob = json.loads(wit_path.read_text())
    blob["c"] = int(c)
    wit_path.write_text(json.dumps(blob))
    capsys.readouterr()
    rc = main(["verify", "--cnf", str(cnf_path), "--witness", str(wit_path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["reason"] == "EigValBound"


def test_sweep_t_needed_is_least_t_above_d_i_plus_u_over_2(capsys, monkeypatch):
    # computed as perfbench's stage pass does: floor(d*(I+U)/2) + 1 with
    # U = lambdas[0]*n + slack from one certification, d = 4, c = 8
    ns = [6, 8, 10, 12, 14]
    ms = [math.floor(3 * n ** 1.4) for n in ns]
    monkeypatch.setenv("FKO_THREADS", "1")
    assert main(["sweep", "--n", ",".join(map(str, ns)),
                 "--m", ",".join(map(str, ms)), "--seeds", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 15
    for row in rows:
        n, m, seed = int(row["n"]), int(row["m"]), int(row["seed"])
        cnf = gen_random_3cnf(n, m, seed)
        mat = build_m(cnf)
        cert = approx_eigen(mat, 8)
        report = certify_eigvalbound(mat, cert)
        u = cert.lambdas[0] * n + report.slack
        want = math.floor(Fraction(4) * (imbalance(cnf) + u) / 2) + 1
        assert report.passed and row["t_needed"] == str(want), row


def test_cli_imports_no_private_builder_name():
    tree = ast.parse(CLI_SOURCE.read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        if node.module in ("witness", "tuples", "fkocert.witness", "fkocert.tuples")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []
