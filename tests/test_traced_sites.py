"""The benchmark's span tracer (perfbench/spans.py) wraps program functions
by the "module:attribute" names in its TRACED table.  A name that stops
resolving, say after a call moves between modules, would break every
traced run, so each site is checked here; perfbench/ is only read."""

import ast
import importlib
from pathlib import Path

import pytest

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
