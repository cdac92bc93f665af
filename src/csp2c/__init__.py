"""csp2c: constraint problems as C benchmark programs.

Pipeline: parse an XCSP3 instance, solve it by complete search for ground
truth, emit semantically equivalent C programs across a matrix of encoding
choices, differentially verify the programs against the solver, and run
external analysis tools over the generated benchmarks.

The names below are imported from their modules on first use (PEP 562), so
`import csp2c` runs no submodule and a name costs only the modules it needs:
`csp2c.solve` loads the model and the oracle, `csp2c.differential_check`
also codegen, harness and verify.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each exported name
_EXPORTS = {
    name: module
    for module, names in {
        "codegen": (
            "Construct",
            "GeneratedProgram",
            "Grouping",
            "Operator",
            "TransformSpec",
            "output_filename",
            "transform",
            "version_count",
        ),
        "model": (
            "AllDifferent",
            "CspInstance",
            "Dialect",
            "Domain",
            "Family",
            "IntensionConstraint",
            "Polarity",
            "TableConstraint",
            "VariableDecl",
        ),
        "oracle": ("SolveResult", "Status", "enumerate_solutions", "solve"),
        "verify": ("VerificationReport", "differential_check"),
        "xcsp": ("ParseDiagnostic", "ParseFailure", "parse_document", "parse_file"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)

_SUBMODULES = ("charts", "cli", "codegen", "harness", "model", "oracle", "verify", "xcsp")


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
