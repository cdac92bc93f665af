"""csp2c: constraint problems as C benchmark programs.

Pipeline: parse an XCSP3 instance, solve it by complete search for ground
truth, emit semantically equivalent C programs across a matrix of encoding
choices, differentially verify the programs against the solver, and run
external analysis tools over the generated benchmarks.
"""

from .codegen import (
    Construct,
    Dialect,
    Family,
    GeneratedProgram,
    Grouping,
    Operator,
    TransformSpec,
    output_filename,
    transform,
    version_count,
)
from .model import (
    AllDifferent,
    CspInstance,
    Domain,
    IntensionConstraint,
    Polarity,
    TableConstraint,
    VariableDecl,
)
from .oracle import SolveResult, Status, enumerate_solutions, solve
from .verify import VerificationReport, cross_version_equivalence, differential_check
from .xcsp import ParseDiagnostic, ParseFailure, parse_document, parse_file

__version__ = "0.1.0"

__all__ = [
    "AllDifferent",
    "Construct",
    "CspInstance",
    "Dialect",
    "Domain",
    "Family",
    "GeneratedProgram",
    "Grouping",
    "IntensionConstraint",
    "Operator",
    "ParseDiagnostic",
    "ParseFailure",
    "Polarity",
    "SolveResult",
    "Status",
    "TableConstraint",
    "TransformSpec",
    "VariableDecl",
    "VerificationReport",
    "cross_version_equivalence",
    "differential_check",
    "enumerate_solutions",
    "output_filename",
    "parse_document",
    "parse_file",
    "solve",
    "transform",
    "version_count",
]
