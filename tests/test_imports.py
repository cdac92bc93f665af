"""Import rules of the package, read from its source with `ast`.

csp2c depends on the standard library alone (`dependencies = []`); the
oracle, the independent reference, imports only the model; and the model
imports no other csp2c module.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "csp2c"
MODULES = sorted(PACKAGE.glob("*.py"))


def imports(path: Path) -> tuple[set[str], set[str]]:
    """(top-level names of absolute imports, csp2c modules imported relatively)."""
    absolute: set[str] = set()
    siblings: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                absolute.add(node.module.split(".")[0])
            elif node.module:
                siblings.add(node.module.split(".")[0])
            else:
                siblings.update(alias.name for alias in node.names)
    return absolute, siblings


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    absolute, _ = imports(path)
    assert sorted(absolute - set(sys.stdlib_module_names)) == []


def test_oracle_imports_only_the_model():
    _, siblings = imports(PACKAGE / "oracle.py")
    assert siblings == {"model"}


def test_model_imports_no_other_csp2c_module():
    _, siblings = imports(PACKAGE / "model.py")
    assert siblings == set()
