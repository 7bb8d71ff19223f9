"""Unsatisfiability witnesses for random 3CNFs.

The pipeline: build the clause-polarity matrix M, certify an upper bound
U on max_a aᵀMa from snapped eigendata (all arithmetic exact rationals),
measure the polarity imbalance I, and search for a collection of t
inconsistent even k-tuples with clause reuse at most d.
`build_witness` returns the best witness it finds and never judges it:
`verify_witness` re-derives every conjunct and accepts exactly when
t > d·(I+U)/2, which makes the formula unsatisfiable.  A sequent-calculus checker
for threshold-connective proofs rides along for the propositional side.
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
    CertificationError,
    SpectralCert,
    SpectralPrecisionError,
    approx_eigen,
    build_m,
    certified_quadform_bound,
    certify_eigvalbound,
)
from .tuples import (
    CollectionSearchError,
    TupleCollection,
    check_collection,
    find_collection,
    is_even_tuple,
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
from .tc0frege import (
    Bot,
    CheckResult,
    Not,
    ProofStep,
    Sequent,
    TcProof,
    Th,
    Top,
    Var,
    check_proof,
    decide_constant_formula,
    eval_formula,
    eval_sequent,
    format_proof,
    parse_proof,
    substitute,
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
    "CertificationError",
    "SpectralCert",
    "SpectralPrecisionError",
    "approx_eigen",
    "build_m",
    "certified_quadform_bound",
    "certify_eigvalbound",
    "CollectionSearchError",
    "TupleCollection",
    "check_collection",
    "find_collection",
    "is_even_tuple",
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
