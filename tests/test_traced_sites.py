"""The benchmark's span tracer (perfbench/spans.py) wraps program functions
by the "module:attribute" names in its TRACED table.  A name that stops
resolving, say after a call moves between modules, would break every
traced run, so each site is checked here; so are the probes that read
the calls' arguments and results.  perfbench/ is only read."""

import ast
import importlib
import importlib.util
import math
import sys
from numbers import Real
from pathlib import Path

import pytest

from fkocert import approx_eigen, build_m, certify_eigvalbound, gen_random_3cnf

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced() -> dict[str, list[str]]:
    """The TRACED literal, read from the source without running it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS}")


TRACED = _traced()


@pytest.mark.parametrize("span", sorted(TRACED))
def test_traced_sites_resolve_to_one_program_function(span):
    fns = []
    for site in TRACED[span]:
        mod_name, attr = site.split(":")
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), f"{site} does not resolve"
        assert fn.__name__ == attr and fn.__module__.startswith("fkocert."), site
        fns.append(fn)
    assert all(fn is fns[0] for fn in fns), f"{span}: sites name different functions"


def _spans_module(monkeypatch):
    """perfbench/spans.py, loaded from its path; it imports only the stdlib.
    Its dataclasses look their module up in sys.modules while it runs."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_certify_probe_reads_a_real_certificate_and_report(monkeypatch):
    m = build_m(gen_random_3cnf(12, 96, 0))
    cert = approx_eigen(m, 8)
    report = certify_eigvalbound(m, cert)
    info = _spans_module(monkeypatch).PROBES["spectral.certify"]({"m": m, "cert": cert}, report)
    assert info
    for key, value in info.items():
        assert isinstance(value, Real) and math.isfinite(value), key


# The verifier calls build_m and certify_eigvalbound through the
# fkocert.witness globals, which the tracer wraps: a near miss reaches
# neither, and an accepted witness each once.


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record each call through module.name, then run the original."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_verifier_certifies_an_accepted_witness_once(monkeypatch):
    import fkocert.witness as witness_mod
    from conftest import planted_block

    cnf = planted_block(3)
    wit = witness_mod.witness_from_json(witness_mod.witness_to_json(
        witness_mod.build_witness(cnf)))
    certify = _count_calls(monkeypatch, witness_mod, "certify_eigvalbound")
    built = _count_calls(monkeypatch, witness_mod, "build_m")
    assert witness_mod.verify_witness(cnf, wit).accepted
    assert len(certify) == 1 and len(built) == 1


def test_verifier_forms_no_product_for_a_near_miss(monkeypatch):
    import fkocert.spectral as spectral_mod
    import fkocert.witness as witness_mod
    from test_witness import _dense_text

    cnf, text = _dense_text()
    wit = witness_mod.witness_from_json(text)
    certify = _count_calls(monkeypatch, witness_mod, "certify_eigvalbound")
    built = _count_calls(monkeypatch, witness_mod, "build_m")
    gram = _count_calls(monkeypatch, spectral_mod, "gram_dev")
    verdict = witness_mod.verify_witness(cnf, wit)
    assert verdict.reason == "inequality" and "(I+lambda*n)" in verdict.detail
    assert certify == [] and built == [] and gram == []
