from __future__ import annotations

import json
import os
import shutil

import pytest

from csp2c.codegen import GeneratedProgram, transform
from csp2c.verify import default_compile_command
from csp2c.xcsp import parse_file

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def corpus_path(kind: str, name: str) -> str:
    return os.path.join(CORPUS_DIR, kind, f"{name}.xml")


def load_corpus(name: str):
    return parse_file(corpus_path("valid", name))


# x != y over 0..2: the satisfying assignments reach assert(0), the first
# with x == 1 being x=1 y=0
NOT_EQUAL_XML = """<instance format="XCSP3" type="CSP">
  <variables>
    <var id="x"> 0..2 </var>
    <var id="y"> 0..2 </var>
  </variables>
  <constraints>
    <intension> ne(x,y) </intension>
  </constraints>
</instance>
"""


def with_source(program, source_text: str, instance_name: str | None = None):
    """`program` with `source_text`, and `instance_name` if given."""
    return GeneratedProgram(
        source_text,
        program.version_label,
        program.statement_count,
        program.instance_name if instance_name is None else instance_name,
        program.dialect,
        program.constraint_lines,
    )


def overflowing_emitter(version_label: str):
    """Fault-injection fixture: transform, but the program of `version_label`
    adds 1 to INT_MAX just before its assert(0) when x == 1, a signed
    overflow that `-O1` lets through as a wrapped value."""

    def emit(csp, spec):
        program = transform(csp, spec)
        if spec.version_label != version_label:
            return program
        line = "\n    assert(0);\n"
        assert line in program.source_text
        overflow = "\n    { volatile int big = 2147483647; big = big + (x == 1); }" + line
        return with_source(program, program.source_text.replace(line, overflow))

    return emit


@pytest.fixture(scope="session")
def manifest() -> dict:
    with open(os.path.join(CORPUS_DIR, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def cc_template() -> str:
    if shutil.which("cc") is None:
        pytest.skip("no system C compiler available")
    # the template that ships, so the suite compiles as `verify` does
    return default_compile_command()
