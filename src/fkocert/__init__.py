"""Unsatisfiability witnesses for random 3CNFs.

The pipeline: build the clause-polarity matrix M, certify an upper bound
U on max_a aᵀMa from snapped eigendata (all arithmetic exact rationals),
measure the polarity imbalance I, and search for a collection of t
inconsistent even k-tuples with clause reuse at most d.
`build_witness` returns the best witness it finds and never judges it:
`verify_witness` re-derives every conjunct and accepts exactly when
t > d·(I+U)/2, which makes the formula unsatisfiable.  A sequent-calculus checker
for threshold-connective proofs serves the propositional side.  The pipeline
never uses it, and `import fkocert` does not load it: import `fkocert.tc0frege`.
"""

from .cnf import (
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
    "__version__",
]
