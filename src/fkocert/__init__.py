"""Unsatisfiability witnesses for random 3CNFs.

The pipeline: build the clause-polarity matrix M, certify an upper bound
U on max_a aᵀMa from snapped eigendata (all arithmetic exact rationals),
measure the polarity imbalance I, and search for a collection of t
inconsistent even k-tuples with clause reuse at most d.
`build_witness` returns the best witness it finds and never judges it:
`verify_witness` re-derives every conjunct and accepts exactly when
t > d·(I+U)/2, which makes the formula unsatisfiable.  A sequent-calculus checker
for threshold-connective proofs serves the propositional side.  The pipeline
never uses it, so it loads on first use: the first read of one of its names
in `__all__`, or of `fkocert.tc0frege`, imports it.
"""

from .cnf import (
    Clause,
    Cnf,
    DimacsError,
    gen_random_3cnf,
    imbalance,
    parse_dimacs,
    to_dimacs,
)
from .spectral import (
    CertReport,
    SpectralCert,
    SpectralPrecisionError,
    approx_eigen,
    build_m,
    certify_eigvalbound,
)
from .tuples import (
    CollectionSearchError,
    TupleCollection,
    check_collection,
    find_collection,
    is_inconsistent_tuple,
)
from .witness import (
    FkoWitness,
    Verdict,
    WitnessFormatError,
    build_witness,
    unsat3xor_lower_bound,
    verify_witness,
    witness_from_json,
    witness_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "Clause",
    "Cnf",
    "DimacsError",
    "gen_random_3cnf",
    "imbalance",
    "parse_dimacs",
    "to_dimacs",
    "CertReport",
    "SpectralCert",
    "SpectralPrecisionError",
    "approx_eigen",
    "build_m",
    "certify_eigvalbound",
    "CollectionSearchError",
    "TupleCollection",
    "check_collection",
    "find_collection",
    "is_inconsistent_tuple",
    "FkoWitness",
    "Verdict",
    "WitnessFormatError",
    "build_witness",
    "unsat3xor_lower_bound",
    "verify_witness",
    "witness_from_json",
    "witness_to_json",
    "Bot",
    "CheckResult",
    "Not",
    "ProofStep",
    "Sequent",
    "TcProof",
    "Th",
    "Top",
    "Var",
    "check_proof",
    "decide_constant_formula",
    "eval_formula",
    "eval_sequent",
    "format_proof",
    "parse_proof",
    "substitute",
    "__version__",
]

# the names re-exported from tc0frege, resolved by __getattr__ (PEP 562)
_TC0FREGE = frozenset(__all__[__all__.index("Bot"):__all__.index("__version__")])


def __getattr__(name: str) -> object:
    if name != "tc0frege" and name not in _TC0FREGE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # import_module, not `from . import`: the latter probes this module's
    # attributes and would recurse into __getattr__
    module = import_module(f"{__name__}.tc0frege")
    if name == "tc0frege":
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    # what an eager import would list, without this loader's own names
    names = globals().keys() - {"_TC0FREGE", "__getattr__", "__dir__"}
    return sorted(names | _TC0FREGE | {"tc0frege"})
