"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The PASS/FAIL lines are written to the real stdout so they survive pytest's
capture and show up in piped logs. Criterion 8 is environment-gated and
skips unless a KLEE-style tool is installed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from contextlib import contextmanager

import pytest

from csp2c.codegen import (
    Dialect,
    Family,
    Grouping,
    TransformSpec,
    output_filename,
    transform,
    version_count,
)
from csp2c.harness import (
    Outcome,
    RunRecord,
    ToolKind,
    ToolSpec,
    normalize_records,
    run_matrix,
    source_path,
)
from csp2c.model import AllDifferent
from csp2c.oracle import Status, constraint_satisfied, enumerate_solutions, solve
from csp2c.verify import VerifyStatus, differential_check
from csp2c.xcsp import parse_document, parse_file, parse_intension, ParseFailure

from conftest import CORPUS_DIR, GOLDEN_DIR, corpus_path, load_corpus, statement_lines
from test_verify import corrupting_emitter


@pytest.fixture
def criterion(capfd):
    """Context manager that prints one ACCEPTANCE line past pytest's capture."""

    @contextmanager
    def _criterion(ident: str):
        def announce(verdict: str) -> None:
            with capfd.disabled():
                print(f"\nACCEPTANCE {ident}: {verdict}", flush=True)

        try:
            yield
        except BaseException:
            announce("FAIL")
            raise
        announce("PASS")

    return _criterion


def test_criterion_1_parser_coverage(manifest, criterion):
    with criterion("1 parser-coverage"):
        start = time.monotonic()

        # the three constraint-fragment kinds, as standalone documents
        group_doc = parse_file(corpus_path("valid", "conflicts_group"))
        assert len(group_doc.constraints()) == 2
        intension_doc = parse_document(
            """
            <instance format="XCSP3" type="CSP">
              <variables>
                <array id="x" size="[3]"> 0..2 </array>
                <array id="y" size="[2]"> 0..2 </array>
              </variables>
              <constraints>
                <group>
                  <intension> eq(%0,dist(%1,%2)) </intension>
                  <args> y[0] x[0] x[1] </args>
                  <args> y[1] x[1] x[2] </args>
                </group>
              </constraints>
            </instance>
            """
        )
        assert len(intension_doc.constraints()) == 2
        alldiff_doc = parse_document(
            """
            <instance format="XCSP3" type="CSP">
              <variables><array id="x" size="[3]"> 0..2 </array></variables>
              <constraints><allDifferent> x[0] x[1] x[2] </allDifferent></constraints>
            </instance>
            """
        )
        assert isinstance(alldiff_doc.constraints()[0], AllDifferent)

        # the eight constraint forms used by the benchmark families
        forms = [
            "eq(x0,dist(x1,x2))",
            "eq(sub(x0,x1),x2)",
            "ne(sub(x0,x1),sub(x2,x3))",
            "ge(add(x0,x1),x0)",
            "lt(mul(sub(x0,x1),sub(x2,x3)),0)",
            "ne(x0,x1)",
            "eq(x0,x1)",
        ]
        for form in forms:
            parse_intension(form)
        assert isinstance(alldiff_doc.constraints()[0], AllDifferent)  # 8th form

        # 100% of the checked-in corpus behaves as recorded
        for name, want in manifest["valid"].items():
            csp = parse_file(corpus_path("valid", name))
            assert len(csp.variables) == want["variables"], name
            assert len(csp.groups) == want["groups"], name
            assert len(csp.constraints()) == want["constraints"], name
        for name, needle in manifest["invalid"].items():
            with pytest.raises(ParseFailure) as err:
                parse_file(corpus_path("invalid", name))
            assert needle in str(err.value), name
        total = len(manifest["valid"]) + len(manifest["invalid"])
        assert total >= 12

        assert time.monotonic() - start < 1.0


def test_criterion_2_oracle_correctness(manifest, criterion):
    with criterion("2 oracle-correctness"):
        start = time.monotonic()
        assert len(manifest["valid"]) >= 10
        for name, want in manifest["valid"].items():
            csp = load_corpus(name)
            assert csp.assignment_space_size <= 4096, name
            result = solve(csp)
            solutions = enumerate_solutions(csp)
            assert len(solutions) == want["solutions"], name
            if want["status"] == "sat":
                assert result.status is Status.SATISFIABLE, name
                assert result.witness == want.get("first_witness", result.witness)
                # every returned witness re-checks against all constraints
                assert all(
                    constraint_satisfied(c, result.witness) for c in csp.constraints()
                ), name
            else:
                assert result.status is Status.UNSATISFIABLE, name
                assert solutions == []
        # the two named cases
        assert solve(load_corpus("pigeonhole")).status is Status.UNSATISFIABLE
        conflicts = solve(load_corpus("conflicts_group"))
        assert conflicts.status is Status.SATISFIABLE
        assert conflicts.witness == {"x0": 0, "x1": 0, "x2": 1, "x3": 0, "x4": 0, "x5": 1}
        assert time.monotonic() - start < 10.0


def test_criterion_3_version_matrix(criterion):
    with criterion("3 version-matrix"):
        start = time.monotonic()
        expected_extensional = [
            ("if", "logical", "no"),
            ("if", "logical", "yes"),
            ("if", "logical", "all"),
            ("if", "bitwise", "no"),
            ("if", "bitwise", "yes"),
            ("if", "bitwise", "all"),
            ("assume", "logical", "no"),
            ("assume", "logical", "yes"),
            ("assume", "logical", "all"),
            ("assume", "bitwise", "no"),
            ("assume", "bitwise", "yes"),
            ("assume", "bitwise", "all"),
        ]
        expected_intensional = [
            ("if", "nop", "no"),
            ("if", "logical", "yes"),
            ("if", "logical", "all"),
            ("if", "bitwise", "yes"),
            ("if", "bitwise", "all"),
            ("assume", "nop", "no"),
            ("assume", "logical", "yes"),
            ("assume", "logical", "all"),
            ("assume", "bitwise", "yes"),
            ("assume", "bitwise", "all"),
        ]
        assert version_count(Family.EXTENSIONAL) == 12
        assert version_count(Family.INTENSIONAL) == 10
        for v, row in enumerate(expected_extensional, start=1):
            spec = TransformSpec(Family.EXTENSIONAL, v)
            assert (spec.construct.value, spec.operator.value, spec.grouping.value) == row
        for v, row in enumerate(expected_intensional, start=1):
            spec = TransformSpec(Family.INTENSIONAL, v)
            assert (spec.construct.value, spec.operator.value, spec.grouping.value) == row
        assert time.monotonic() - start < 1.0


GOLDEN_CASES = [
    ("conflicts_group", Family.EXTENSIONAL, 1),
    ("conflicts_group", Family.EXTENSIONAL, 5),
    ("conflicts_group", Family.EXTENSIONAL, 8),
    ("dist_alldiff", Family.INTENSIONAL, 1),
    ("dist_alldiff", Family.INTENSIONAL, 2),
    ("dist_alldiff", Family.INTENSIONAL, 3),
    ("dist_alldiff", Family.INTENSIONAL, 9),
]


def test_criterion_4_golden_codegen(criterion):
    with criterion("4 golden-codegen"):
        # byte-level pins
        for name, family, version in GOLDEN_CASES:
            program = transform(load_corpus(name), TransformSpec(family, version))
            with open(os.path.join(GOLDEN_DIR, output_filename(program))) as fh:
                assert program.source_text == fh.read(), (name, version)

        # structural shapes
        ext = load_corpus("conflicts_group")
        v1 = transform(ext, TransformSpec(Family.EXTENSIONAL, 1))
        assert v1.statement_count == 2
        assert all(
            re.match(r"\s*if \(\(.+\) \|\| \(.+\)\) exit\(0\);", line)
            for line in statement_lines(v1)
        )
        v5 = " ".join(s.strip() for s in statement_lines(transform(ext, TransformSpec(Family.EXTENSIONAL, 5))))
        assert v5.startswith("if (") and v5.endswith(") exit(0);")
        assert " | " in v5 and " & " in v5 and "&&" not in v5
        v8 = " ".join(s.strip() for s in statement_lines(transform(ext, TransformSpec(Family.EXTENSIONAL, 8))))
        assert v8.startswith("klee_assume(!(") and v8.endswith("));")

        intn = load_corpus("dist_alldiff")
        i1 = transform(intn, TransformSpec(Family.INTENSIONAL, 1))
        assert i1.statement_count == 5
        assert all("; else exit(0);" in line for line in statement_lines(i1))
        i2 = transform(intn, TransformSpec(Family.INTENSIONAL, 2))
        assert [line.strip() for line in statement_lines(i2)] == [
            "if (x0!=x1 && x0!=x2 && x1!=x2); else exit(0);",
            "if (y0==dist(x0,x1) && y1==dist(x1,x2)); else exit(0);",
        ]
        i3 = transform(intn, TransformSpec(Family.INTENSIONAL, 3))
        i3_text = " ".join(s.strip() for s in statement_lines(i3))
        assert i3_text.endswith(") assert(0);")
        assert i3.source_text.count("assert(0)") == 1  # guarded point only
        i9 = transform(intn, TransformSpec(Family.INTENSIONAL, 9))
        assert [line.strip() for line in statement_lines(i9)] == [
            "klee_assume(x0!=x1 & x0!=x2 & x1!=x2);",
            "klee_assume(y0==dist(x0,x1) & y1==dist(x1,x2));",
        ]


def test_criterion_5_differential_soundness(manifest, cc_template, tmp_path, criterion):
    with criterion("5 differential-soundness"):
        start = time.monotonic()
        # every valid corpus instance, in the family its manifest entry names
        cases = [(name, Family(entry["family"])) for name, entry in manifest["valid"].items()]
        assert sorted(name for name, _ in cases) == sorted(
            name[: -len(".xml")] for name in os.listdir(os.path.join(CORPUS_DIR, "valid"))
        )
        statuses = {"sat": 0, "unsat": 0}
        for name, family in cases:
            csp = load_corpus(name)
            specs = [
                TransformSpec(family, v) for v in range(1, version_count(family) + 1)
            ]
            report = differential_check(
                csp, specs, cc_template, workers=4, workdir=str(tmp_path / name)
            )
            assert report.status is VerifyStatus.PASS, (name, report.mismatches[:3])
            assert report.mismatches == []  # zero-mismatch tolerance
            assert report.assignments_checked == csp.assignment_space_size
            sat = solve(csp).status is Status.SATISFIABLE
            statuses["sat" if sat else "unsat"] += 1
        assert statuses["sat"] >= 1 and statuses["unsat"] >= 1

        # accepting sets identical across versions: each version PASSes
        # against the oracle on its own, in units of its own
        for name, family, versions in (
            ("conflicts_group", Family.EXTENSIONAL, (1, 5, 8, 12)),
            ("dist_alldiff", Family.INTENSIONAL, (1, 3, 6, 10)),
        ):
            report = differential_check(
                load_corpus(name),
                [TransformSpec(family, v) for v in versions],
                cc_template,
                workers=4,
                workdir=str(tmp_path / f"xv-{family.value}"),
            )
            assert report.status is VerifyStatus.PASS, (name, report.mismatches[:3])

        # the fault-injection fixture must be caught
        faulty = differential_check(
            load_corpus("eq_ne"),
            [TransformSpec(Family.INTENSIONAL, 1)],
            cc_template,
            workdir=str(tmp_path / "fault"),
            emitter=corrupting_emitter,
        )
        assert faulty.status is VerifyStatus.FAIL and faulty.mismatches

        assert time.monotonic() - start < 300.0


def test_criterion_6_structural_metrics(manifest, criterion):
    with criterion("6 structural-metrics"):
        pairs = {
            Family.EXTENSIONAL: [(1, 4), (2, 5), (3, 6), (7, 10), (8, 11), (9, 12)],
            Family.INTENSIONAL: [(2, 4), (3, 5), (7, 9), (8, 10)],
        }
        for name, want in manifest["valid"].items():
            family = Family(want["family"])
            csp = load_corpus(name)
            counts = {}
            for v in range(1, version_count(family) + 1):
                spec = TransformSpec(family, v)
                counts[spec.grouping] = transform(csp, spec).statement_count
            assert counts[Grouping.NONE] >= counts[Grouping.PER_GROUP] >= counts[Grouping.WHOLE], name
            assert counts[Grouping.WHOLE] == 1, name

            for logical_v, bitwise_v in pairs[family]:
                logical = transform(csp, TransformSpec(family, logical_v))
                bitwise = transform(csp, TransformSpec(family, bitwise_v))
                logical_text = re.sub(
                    r"\s+", " ", " ".join(s.strip() for s in statement_lines(logical))
                )
                bitwise_text = re.sub(
                    r"\s+", " ", " ".join(s.strip() for s in statement_lines(bitwise))
                )
                assert logical_text.replace("&&", "&").replace("||", "|") == bitwise_text, (
                    name,
                    logical_v,
                    bitwise_v,
                )


def test_criterion_7_harness_properties(tmp_path, criterion):
    with criterion("7 harness-properties"):
        start = time.monotonic()

        # timeout enforcement within +5 s grace, no surviving children
        from csp2c.harness import BenchInstance

        xml = tmp_path / "i.xml"
        xml.write_text("<instance/>")
        inst = BenchInstance(path=str(xml), family="extensional", size=1)
        src_dir = tmp_path / "src"
        src_dir.mkdir()
        with open(source_path(str(src_dir), "i", "extensional1", "klee"), "w") as fh:
            fh.write("/* stub */\n")
        marker = tmp_path / "alive"
        stubborn = ToolSpec(
            name="stubborn",
            run=f"sh -c 'trap \"\" TERM; while true; do date >> {marker}; sleep 0.1; done'",
            timeout_s=1.0,
        )
        t0 = time.monotonic()
        (timeout_record,) = run_matrix(
            [inst], {"extensional": ["extensional1"]}, [stubborn], str(src_dir)
        )
        assert timeout_record.outcome is Outcome.TIMEOUT
        assert timeout_record.wallclock_s >= 1.0
        assert time.monotonic() - t0 < 1.0 + 5.0
        time.sleep(0.3)
        size_then = marker.stat().st_size if marker.exists() else 0
        time.sleep(0.5)
        assert (marker.stat().st_size if marker.exists() else 0) == size_then

        # record-count completeness
        tools = [
            ToolSpec(name="a1", run="echo hi"),
            ToolSpec(name="a2", run="echo hi"),
            ToolSpec(name="base", run="echo hi", kind=ToolKind.BASELINE),
        ]
        labels = ["extensional1"]
        records = run_matrix([inst], {"extensional": labels}, tools, str(src_dir))
        assert len(records) == 2 * 1 * 1 + 1 * 1

        # exact normalization: 10 s / 5 s -> 2.0
        synth_tools = [
            ToolSpec(name="t", run="echo"),
            ToolSpec(name="base", run="echo", kind=ToolKind.BASELINE),
        ]
        synth = [
            RunRecord("t", "i1", "v1", Outcome.NOT_REACHED, 10.0),
            RunRecord("base", "i1", "", Outcome.NOT_REACHED, 5.0),
        ]
        normalize_records(synth, synth_tools)
        assert synth[0].normalized == 2.0

        # baseline scaling by k scales normalized by 1/k, to <= 1e-12
        for k in (0.5, 2.0, 3.7, 11.0):
            scaled = [
                RunRecord("t", "i1", "v1", Outcome.NOT_REACHED, 10.0),
                RunRecord("base", "i1", "", Outcome.NOT_REACHED, 5.0 * k),
            ]
            normalize_records(scaled, synth_tools)
            assert abs(scaled[0].normalized - 2.0 / k) <= 1e-12 * (2.0 / k)

        assert time.monotonic() - start < 30.0


@pytest.mark.skipif(shutil.which("klee") is None, reason="no KLEE-compatible tool installed")
def test_criterion_8_smoke_reproduction(cc_template, tmp_path, criterion):
    with criterion("8 smoke-reproduction"):
        csp = load_corpus("supports_pair")
        wallclocks = {}
        for v in range(1, version_count(Family.EXTENSIONAL) + 1):
            spec = TransformSpec(Family.EXTENSIONAL, v, Dialect.KLEE)
            program = transform(csp, spec)
            src = tmp_path / output_filename(program)
            src.write_text(program.source_text)
            bc = src.with_suffix(".bc")
            import subprocess

            compile_proc = subprocess.run(
                ["clang", "-O3", "-emit-llvm", "-c", str(src), "-o", str(bc)],
                capture_output=True,
                text=True,
            )
            assert compile_proc.returncode == 0, compile_proc.stderr
            t0 = time.monotonic()
            run_proc = subprocess.run(
                ["klee", "--exit-on-error", str(bc)],
                capture_output=True,
                text=True,
                timeout=1000,
            )
            wallclocks[spec.version_label] = time.monotonic() - t0
            combined = run_proc.stdout + run_proc.stderr
            assert "ASSERTION FAIL" in combined, combined
        # per-version wallclocks recorded; differences are reported, not asserted
        print("\nsmoke wallclocks:", json.dumps(wallclocks, indent=None))
