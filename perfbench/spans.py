"""Spans around the public fkocert calls a workload makes.

A `Tracer` replaces each traced function by a timing wrapper on every
module attribute through which it is called: the package namespace the
benchmark calls into, and the module globals that `build_witness`,
`verify_witness`, `certify_eigvalbound` and the CLI look their helpers
up in.  Nothing under src/ is edited; `uninstall` puts the originals
back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from fractions import Fraction

# span name -> "module:attribute" sites that resolve to the traced function
TRACED = {
    "cnf.parse": ["fkocert:parse_dimacs"],
    "cnf.imbalance": ["fkocert:imbalance", "fkocert.witness:imbalance",
                      "fkocert.cli:imbalance"],
    "spectral.build_m": ["fkocert:build_m", "fkocert.witness:build_m",
                         "fkocert.cli:build_m"],
    "spectral.approx_eigen": ["fkocert:approx_eigen", "fkocert.witness:approx_eigen",
                              "fkocert.cli:approx_eigen"],
    "spectral.certify": ["fkocert:certify_eigvalbound",
                         "fkocert.witness:certify_eigvalbound",
                         "fkocert.cli:certify_eigvalbound"],
    "exactq.gram_dev": ["fkocert.spectral:gram_dev"],
    "tuples.find_collection": ["fkocert:find_collection",
                               "fkocert.witness:find_collection"],
    "tuples.check_collection": ["fkocert:check_collection",
                                "fkocert.witness:check_collection"],
    "witness.build": ["fkocert:build_witness", "fkocert.cli:build_witness"],
    "witness.verify": ["fkocert:verify_witness", "fkocert.cli:verify_witness"],
    "witness.to_json": ["fkocert:witness_to_json", "fkocert.cli:witness_to_json"],
    "witness.from_json": ["fkocert:witness_from_json", "fkocert.cli:witness_from_json"],
    "cli.sweep": ["fkocert.cli:cmd_sweep"],
}


# ------------------------------------------------------------------ probes
# What a span keeps of its call: sizes and counts read at the boundary,
# from the call's bound arguments and its result.


def _certify_info(args, result):
    cert = args["cert"]
    n, c = cert.n, cert.c
    entries = [*cert.lambdas, *(x for row in cert.v for x in row)]
    return {
        "rho_over_tol": float(result.rho / (cert.k3 * Fraction(n) ** (1 - c))),
        "tau_over_tol": float(result.tau / (cert.k5 * Fraction(n) ** (3 - c))),
        "u": cert.lambdas[0] * n + result.slack,
        "num_bits": max(abs(x.numerator).bit_length() for x in entries),
        "den_bits": max(x.denominator.bit_length() for x in entries),
    }


def _collection_info(coll) -> dict:
    return {"t": coll.t, "k": coll.k, "d": coll.d}


def _find_info(args, result):
    m = args["cnf"].m
    return {**_collection_info(result), "quad_cliff": int(m * (m - 1) // 2 > args["budget"])}


PROBES = {
    "cnf.imbalance": lambda args, result: {"I": result},
    "spectral.certify": _certify_info,
    "tuples.find_collection": _find_info,
    "tuples.check_collection": lambda args, result: _collection_info(args["coll"]),
    "witness.to_json": lambda args, result: {"bytes": len(result)},
    "witness.from_json": lambda args, result: {"bytes": len(args["text"])},
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    info: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans in memory; `op` brackets one operation."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self.kinds: dict[int, str] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        """Trace one operation: installs the wrappers, opens the root span
        (named after the op kind), and removes the wrappers again."""
        self._op += 1
        self.kinds[self._op] = kind
        self.install()
        sid = self._open(kind)
        try:
            yield self._op
        finally:
            self._close(sid)
            self.uninstall()

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        sig = inspect.signature(fn)
        search_error = self.modules["fkocert"].CollectionSearchError

        def traced(*args, **kwargs):
            sid = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except search_error as exc:  # the best collection is still its yield
                result = exc.best
                raise
            finally:
                self._close(sid)
                if probe and result is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[sid].info = probe(bound.arguments, result)

        return traced

    # -- installation
    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, sites in TRACED.items():
            for site in sites:
                mod_name, attr = site.split(":")
                mod = self.modules[mod_name]
                fn = getattr(mod, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- analysis
    def self_times(self) -> dict[int, dict[str, float]]:
        """op id -> span name -> summed self time (duration minus the
        durations of its direct children)."""
        child_sum: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_sum[s.parent] += s.end - s.start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s.op][s.name] += (s.end - s.start) - child_sum[s.id]
        return out

    def calls(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for s in self.spans:
            out[s.op][s.name] += 1
        return out

    def roots(self) -> dict[int, Span]:
        return {s.op: s for s in self.spans if s.parent is None}

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans], default=str) + "\n")
