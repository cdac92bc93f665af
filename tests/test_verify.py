from __future__ import annotations

import os
import re
import subprocess
import time

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from csp2c import verify
from csp2c.harness import HarnessError
from csp2c.codegen import (
    DRIVER_PRELUDE,
    CodegenError,
    INCLUDED_HEADERS,
    Dialect,
    Family,
    TransformSpec,
    build_unit,
    family_of,
    output_filename,
    transform,
    version_count,
)
from csp2c.model import (
    BINARY_OPS,
    UNARY_OPS,
    AllDifferent,
    Binary,
    Const,
    CspInstance,
    Domain,
    IntensionConstraint,
    Polarity,
    TableConstraint,
    Unary,
    Var,
    VariableDecl,
)
from csp2c.verify import (
    CompileError,
    VerifyError,
    VerifyStatus,
    compile_program,
    differential_check,
)
from csp2c.xcsp import parse_document, parse_intension

from conftest import CORPUS_DIR, NOT_EQUAL_XML, load_corpus, overflowing_emitter, with_source


def all_specs(family: Family):
    return [TransformSpec(family, v) for v in range(1, version_count(family) + 1)]


def corrupting_emitter(csp, spec):
    """Fault-injection fixture: the klee program with its first != comparison
    flipped to ==."""
    program = transform(csp, spec)
    assert "!=" in program.source_text
    return with_source(
        program,
        program.source_text.replace("!=", "==", 1),
        instance_name=program.instance_name + "-faulty",
    )


def patching_emitter(old, new):
    """Fault-injection fixture: the klee program with `old` replaced by `new`."""

    def emit(csp, spec):
        program = transform(csp, spec)
        assert old in program.source_text
        return with_source(
            program,
            program.source_text.replace(old, new),
            instance_name=program.instance_name + "-patched",
        )

    return emit


# y is declared before x, so the plan runs y=0 x=0 first
LT_YX_XML = """<instance format="XCSP3" type="CSP">
  <variables>
    <var id="y"> 0..2 </var>  <var id="x"> 0..2 </var>
  </variables>
  <constraints>
    <intension> lt(y,x) </intension>
  </constraints>
</instance>
"""


def weakening_emitter(csp, spec):
    """Fault-injection fixture: intensional 4 and 10 test `y<=x` for `y<x`,
    so both accept y == x."""
    program = transform(csp, spec)
    if spec.version not in (4, 10):
        return program
    assert "y<x" in program.source_text
    return with_source(program, program.source_text.replace("y<x", "y<=x"))


# `asm` and `typeof` are keywords of gcc's default -std=gnu17; `bool` is a
# C23 keyword that gcc 12 still takes as a name
GNU_KEYWORDS_XML = """<instance format="XCSP3" type="CSP">
  <variables>
    <var id="asm"> 0..2 </var>  <var id="typeof"> 0..2 </var>  <var id="bool"> 0 1 </var>
  </variables>
  <constraints>
    <intension> ne(asm,typeof) </intension>
    <intension> le(bool,add(asm,typeof)) </intension>
  </constraints>
</instance>
"""


def patch_shared_main(monkeypatch, old, new):
    """Fault-injection fixture: every unit compiled with `old` replaced by
    `new` in the driver its versions share, DRIVER_PRELUDE at its start."""

    def compile_patched(program, compile_cmd, workdir):
        assert program.source_text.startswith(DRIVER_PRELUDE) and old in DRIVER_PRELUDE
        text = program.source_text.replace(old, new, 1)
        return compile_program(with_source(program, text), compile_cmd, workdir)

    compile_program = verify.compile_program
    monkeypatch.setattr(verify, "compile_program", compile_patched)


CORPUS = sorted(name[: -len(".xml")] for name in os.listdir(os.path.join(CORPUS_DIR, "valid")))


class TestDifferentialCheck:
    def test_supports_pair_all_versions_pass(self, cc_template, tmp_path):
        csp = load_corpus("supports_pair")
        report = differential_check(
            csp, all_specs(Family.EXTENSIONAL), cc_template, workdir=str(tmp_path)
        )
        assert report.status is VerifyStatus.PASS
        assert report.assignments_checked == 4
        assert report.mismatches == []
        assert len(report.versions) == 12

    def test_pigeonhole_never_reaches(self, cc_template, tmp_path):
        csp = load_corpus("pigeonhole")
        report = differential_check(
            csp, all_specs(Family.INTENSIONAL), cc_template, workdir=str(tmp_path)
        )
        assert report.status is VerifyStatus.PASS

    def test_fault_injection_detected(self, cc_template, tmp_path):
        csp = load_corpus("eq_ne")
        report = differential_check(
            csp,
            [TransformSpec(Family.INTENSIONAL, 1)],
            cc_template,
            workdir=str(tmp_path),
            emitter=corrupting_emitter,
        )
        assert report.status is VerifyStatus.FAIL
        assert report.mismatches
        first = report.mismatches[0]
        assert first.expected != first.observed

    def test_sampled_when_too_large(self, cc_template, tmp_path):
        csp = CspInstance(
            name="large-sampled",
            variables=tuple(
                VariableDecl(f"v{i}", Domain.from_ranges([(0, 9)])) for i in range(6)
            ),
            groups=(
                (
                    IntensionConstraint(parse_intension("le(v0,5)")),
                ),
            ),
        )
        report = differential_check(
            csp,
            [TransformSpec(Family.INTENSIONAL, 1)],
            cc_template,
            bound=100,
            workdir=str(tmp_path),
        )
        assert report.status is VerifyStatus.SAMPLED
        assert report.assignments_checked == verify.DEFAULT_SAMPLE_COUNT == 256
        assert report.mismatches == []

    def test_compile_failure_reports_output(self, tmp_path):
        csp = load_corpus("supports_pair")
        with pytest.raises(CompileError):
            differential_check(
                csp,
                [TransformSpec(Family.EXTENSIONAL, 1)],
                "false",
                workdir=str(tmp_path),
            )

    def test_missing_compiler_is_verify_error(self, tmp_path):
        csp = load_corpus("supports_pair")
        with pytest.raises(VerifyError, match="no-such-cc-csp2c"):
            differential_check(
                csp,
                [TransformSpec(Family.EXTENSIONAL, 1)],
                "no-such-cc-csp2c -o {out} {src}",
                workdir=str(tmp_path),
            )

    def test_compile_timeout_is_verify_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "COMPILE_TIMEOUT_S", 0.2)
        csp = load_corpus("supports_pair")
        with pytest.raises(VerifyError, match="timed out"):
            differential_check(
                csp,
                [TransformSpec(Family.EXTENSIONAL, 1)],
                "sleep 5",
                workdir=str(tmp_path),
            )

    def test_compile_timeout_kills_the_compilers_process_group(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "COMPILE_TIMEOUT_S", 0.5)
        marker = tmp_path / "still-alive"
        # the "compiler" leaves a grandchild that appends to the marker for ~5 s
        loop = f"i=0; while [ $i -lt 50 ]; do date >> {marker}; sleep 0.1; i=$((i+1)); done"
        csp = load_corpus("supports_pair")
        with pytest.raises(VerifyError, match="timed out"):
            differential_check(
                csp,
                [TransformSpec(Family.EXTENSIONAL, 1)],
                f"sh -c '({loop}) & wait' {{out}} {{src}}",
                workdir=str(tmp_path / "build"),
            )
        time.sleep(0.3)
        assert marker.exists()
        size_then = marker.stat().st_size
        time.sleep(0.5)
        assert marker.stat().st_size == size_then  # nothing is writing anymore

    def test_workdir_with_a_space(self, cc_template, tmp_path):
        csp = load_corpus("supports_pair")
        report = differential_check(
            csp,
            all_specs(Family.EXTENSIONAL)[:2],
            cc_template,
            workdir=str(tmp_path / "build dir"),
        )
        assert report.status is VerifyStatus.PASS

    def test_negative_domains_agree_with_oracle(self, cc_template, tmp_path):
        from csp2c.xcsp import parse_document

        csp = parse_document(
            """
            <instance format="XCSP3" type="CSP">
              <variables>
                <var id="n0"> -2..2 </var>
                <var id="n1"> -2..2 </var>
              </variables>
              <constraints>
                <intension> eq(sub(n0,-1),neg(n1)) </intension>
                <intension> ge(mul(n0,n1),0) </intension>
              </constraints>
            </instance>
            """,
            name="negatives",
        )
        report = differential_check(
            csp, all_specs(Family.INTENSIONAL), cc_template, workdir=str(tmp_path)
        )
        assert report.status is VerifyStatus.PASS
        assert report.assignments_checked == 25

    def test_truthiness_operands_agree_across_operator_families(self, cc_template, tmp_path):
        # and/or over raw integers: bitwise versions must truth-test operands
        from csp2c.xcsp import parse_document

        csp = parse_document(
            """
            <instance format="XCSP3" type="CSP">
              <variables>
                <var id="t0"> 0..2 </var>
                <var id="t1"> 0..2 </var>
              </variables>
              <constraints>
                <intension> or(and(t0,t1),eq(t0,t1)) </intension>
              </constraints>
            </instance>
            """,
            name="truthiness",
        )
        report = differential_check(
            csp, all_specs(Family.INTENSIONAL), cc_template, workdir=str(tmp_path)
        )
        assert report.status is VerifyStatus.PASS

    def test_workers_agree_with_serial(self, cc_template, tmp_path):
        csp = load_corpus("eq_ne")
        specs = [TransformSpec(Family.INTENSIONAL, 1)]
        serial = differential_check(csp, specs, cc_template, workdir=str(tmp_path / "s"))
        parallel = differential_check(
            csp, specs, cc_template, workers=4, workdir=str(tmp_path / "p")
        )
        assert serial.status == parallel.status == VerifyStatus.PASS
        assert serial.assignments_checked == parallel.assignments_checked


    def test_concurrent_versions_match_serial(self, cc_template, tmp_path):
        csp = load_corpus("xor_ring")
        specs = all_specs(Family.EXTENSIONAL) + [TransformSpec(Family.EXTENSIONAL, 1)]
        serial = differential_check(csp, specs, cc_template, workdir=str(tmp_path / "s"))
        concurrent = differential_check(
            csp, specs, cc_template, workers=3, workdir=str(tmp_path / "c")
        )
        assert serial.status is concurrent.status is VerifyStatus.PASS
        assert concurrent.versions == serial.versions
        labels = [spec.version_label for spec in all_specs(Family.EXTENSIONAL)]
        # the duplicate runs once; 12 versions split in order into 3 units of 4
        assert [list(t.versions) for t in serial.timings] == [labels]
        assert [list(t.versions) for t in concurrent.timings] == [
            labels[:4], labels[4:8], labels[8:],
        ]

    def test_three_workers_build_three_units_that_agree_with_serial(
        self, cc_template, tmp_path
    ):
        csp = load_corpus("xor_ring")
        specs = all_specs(Family.EXTENSIONAL)
        faulty = patching_emitter("p==0", "p==1")

        def emitter(csp_arg, spec):
            if spec.version in (2, 7, 11):
                return faulty(csp_arg, spec)
            return transform(csp_arg, spec)

        serial = differential_check(
            csp, specs, cc_template, workdir=str(tmp_path / "s"), emitter=emitter
        )
        concurrent = differential_check(
            csp, specs, cc_template, workers=3, workdir=str(tmp_path / "c"), emitter=emitter
        )
        assert serial.status is concurrent.status is VerifyStatus.FAIL
        assert concurrent.mismatches == serial.mismatches
        assert {m.version_label for m in serial.mismatches} == {
            "extensional2", "extensional7", "extensional11",
        }
        assert sorted(p.name for p in (tmp_path / "c").glob("*.c")) == [
            f"xor_ring__unit{i}__concrete.c" for i in (1, 2, 3)
        ]

    def test_corrupting_emitter_flips_the_encoding_not_main(self):
        csp = load_corpus("eq_ne")
        spec = TransformSpec(Family.INTENSIONAL, 1)
        clean = transform(csp, spec)
        faulty = corrupting_emitter(csp, spec).source_text.splitlines()
        lines = clean.source_text.splitlines()
        changed = [i for i, (a, b) in enumerate(zip(lines, faulty)) if a != b]
        assert len(changed) == 1 and len(lines) == len(faulty)
        assert lines[changed[0]] in clean.constraint_lines
        assert "klee_" not in lines[changed[0]] + faulty[changed[0]]

    def test_one_compile_and_one_driver_per_pass(self, cc_template, tmp_path, monkeypatch):
        started = []

        class CountingPopen(subprocess.Popen):
            def __init__(self, args, *rest, **kwargs):
                started.append(args)
                super().__init__(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", CountingPopen)
        csp = load_corpus("conflicts_group")
        report = differential_check(
            csp, all_specs(Family.EXTENSIONAL), cc_template, workdir=str(tmp_path)
        )
        assert report.status is VerifyStatus.PASS
        drivers = [args for args in started if args[0].startswith(str(tmp_path))]
        assert len(drivers) == 1
        assert len(started) == 2

    @pytest.mark.parametrize(
        "where, old, new, error",
        [
            # the shared loop exits 1 mid-batch, at the first assignment with x0 = 1
            (
                "main",
                "putchar('\\n');",
                "putchar('\\n');\n            if (values[0] == 1) return 1;",
                "exited with status 1",
            ),
            # the version crashes on the first accepted assignment
            (
                "version",
                "\n    assert(0);\n",
                "\n    *(volatile int *)0 = 0;\n",
                "exited with status -",
            ),
            # the shared loop silently skips the first assignment: one line too few
            (
                "main",
                "int values[arity], i, k;",
                'int values[arity], i, k;\n    scanf("%*[^\\n]");',
                "printed 63 verdict lines for 64 assignments",
            ),
            # the shared loop prints a token that is not a verdict
            (
                "main",
                "putchar('0' + csp2c_verdict);",
                "putchar('2' + csp2c_verdict);",
                "printed '2'",
            ),
        ],
        ids=["exit-mid-batch", "crash", "verdict-too-few", "bad-token"],
    )
    def test_broken_driver_is_verify_error(
        self, cc_template, tmp_path, monkeypatch, where, old, new, error
    ):
        csp = load_corpus("conflicts_group")
        emitter = transform
        if where == "version":
            emitter = patching_emitter(old, new)
        else:
            patch_shared_main(monkeypatch, old, new)
        with pytest.raises(VerifyError, match=error):
            differential_check(
                csp,
                [TransformSpec(Family.EXTENSIONAL, 1)],
                cc_template,
                workdir=str(tmp_path),
                emitter=emitter,
            )

    def test_signed_overflow_is_verify_error_naming_version_and_assignment(
        self, cc_template, tmp_path
    ):
        # -O1 PASSes this program: the overflow wraps and assert(0) is reached
        csp = parse_document(NOT_EQUAL_XML, name="overflow")
        with pytest.raises(VerifyError) as info:
            differential_check(
                csp,
                all_specs(Family.INTENSIONAL),
                verify.DEFAULT_CC,
                workdir=str(tmp_path),
                emitter=overflowing_emitter("intensional4"),
            )
        message = str(info.value)
        where = "intensional4 (overflow__intensional4__klee.c) on assignment x=1 y=0"
        assert f", running {where}," in message
        assert "exited with status -" in message and "(killed by SIG" in message

    def test_verdict_line_of_the_wrong_width_is_verify_error(
        self, cc_template, tmp_path, monkeypatch
    ):
        # two versions, but the shared loop prints a third digit on every line
        patch_shared_main(
            monkeypatch, "putchar('\\n');", "putchar('0');\n            putchar('\\n');"
        )
        csp = load_corpus("conflicts_group")
        with pytest.raises(VerifyError, match="not a line of 2 0/1 verdict digits"):
            differential_check(
                csp,
                [TransformSpec(Family.EXTENSIONAL, v) for v in (1, 2)],
                cc_template,
                workdir=str(tmp_path),
            )

    def test_compile_error_names_the_versions_own_file(self, cc_template, tmp_path):
        corpus = load_corpus("conflicts_group")
        csp = CspInstance('say "hi"', corpus.variables, corpus.groups, corpus.flatten_map)

        def emit(csp_arg, spec):
            program = transform(csp_arg, spec)
            if spec.version != 5:
                return program
            text = program.source_text.replace("/* CSP is satisfiable */", "no_such_name;")
            return with_source(program, text)

        with pytest.raises(CompileError) as info:
            differential_check(
                csp, all_specs(Family.EXTENSIONAL), cc_template, workdir=str(tmp_path), emitter=emit
            )
        program = transform(csp, TransformSpec(Family.EXTENSIONAL, 5))
        line = program.source_text.splitlines().index("    /* CSP is satisfiable */") + 1
        errors = [l for l in info.value.output.splitlines() if "error:" in l]
        assert errors and all(
            l.startswith(f'say "hi"__extensional5__klee.c:{line}:') for l in errors
        )

    def test_variables_named_after_library_functions(self, cc_template, tmp_path):
        csp = parse_document(
            """
            <instance format="XCSP3" type="CSP">
              <variables>
                <var id="rand"> 0..2 </var>
                <var id="free"> 0..2 </var>
                <var id="argc"> 0..2 </var>
                <var id="scanf"> 0..2 </var>
              </variables>
              <constraints>
                <intension> ne(rand,free) </intension>
                <intension> lt(argc,add(scanf,1)) </intension>
              </constraints>
            </instance>
            """,
            name="libnames",
        )
        report = differential_check(
            csp, all_specs(Family.INTENSIONAL), cc_template, workdir=str(tmp_path)
        )
        assert report.status is VerifyStatus.PASS
        assert report.assignments_checked == 81

    def test_variables_named_after_header_macros(self, cc_template, tmp_path):
        names = ["NULL", "EOF", "RAND_MAX", "EXIT_SUCCESS", "EXIT_FAILURE", "BUFSIZ",
                 "stdin", "stdout", "stderr", "csp2c_reached", "csp2c_exit"]
        variables = "".join(f'<var id="{n}"> 0 1 </var>' for n in names)
        csp = parse_document(
            f"""
            <instance format="XCSP3" type="CSP">
              <variables>{variables}</variables>
              <constraints>
                <intension> ne(NULL,EOF) </intension>
                <intension> lt(RAND_MAX,add(stdin,EXIT_FAILURE)) </intension>
                <intension> eq(stdout,dist(stderr,BUFSIZ)) </intension>
                <intension> le(EXIT_SUCCESS,EOF) </intension>
                <intension> ne(csp2c_reached,csp2c_exit) </intension>
              </constraints>
            </instance>
            """,
            name="macronames",
        )
        report = differential_check(
            csp, all_specs(Family.INTENSIONAL), cc_template, workdir=str(tmp_path)
        )
        assert report.status is VerifyStatus.PASS
        assert report.assignments_checked == 2 ** len(names)
        # llbmc declares its own intrinsics, so its programs compile as they are
        for spec in all_specs(Family.INTENSIONAL):
            program = transform(csp, TransformSpec(spec.family, spec.version, Dialect.LLBMC))
            src = tmp_path / f"llbmc{spec.version}.c"
            src.write_text(program.source_text)
            proc = subprocess.run(
                ["cc", "-fsyntax-only", str(src)], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr

    def test_variables_named_after_predefined_and_reserved_macros(self, cc_template, tmp_path):
        """GNU C predefines `unix` and `linux` as 1, stdio.h defines
        `P_tmpdir` and `_IOFBF`, and `__` names belong to the compiler."""
        names = ["unix", "linux", "P_tmpdir", "_IOFBF", "__x", "static_assert"]
        variables = "".join(f'<var id="{n}"> 0 1 </var>' for n in names)
        csp = parse_document(
            f"""
            <instance format="XCSP3" type="CSP">
              <variables>{variables}</variables>
              <constraints>
                <intension> ne(unix,linux) </intension>
                <intension> lt(P_tmpdir,add(_IOFBF,__x)) </intension>
                <intension> eq(static_assert,unix) </intension>
              </constraints>
            </instance>
            """,
            name="predefined",
        )
        report = differential_check(
            csp, all_specs(Family.INTENSIONAL), cc_template, workdir=str(tmp_path)
        )
        assert report.status is VerifyStatus.PASS
        assert report.assignments_checked == 2 ** len(names)

    def test_variables_named_after_gnu_keywords(self, cc_template, tmp_path):
        csp = parse_document(GNU_KEYWORDS_XML, name="gnu_keywords")
        report = differential_check(
            csp, all_specs(Family.INTENSIONAL), cc_template, workdir=str(tmp_path)
        )
        assert report.status is VerifyStatus.PASS
        assert report.assignments_checked == 18

    def test_mismatches_follow_the_versions_then_the_plan(self, cc_template, tmp_path):
        """The first mismatch names the first listed version that fails, not
        the first label in string order, and its assignment lists the
        variables in declaration order."""
        csp = parse_document(LT_YX_XML, name="lt_yx")
        report = differential_check(
            csp,
            all_specs(Family.INTENSIONAL),
            cc_template,
            workdir=str(tmp_path),
            emitter=weakening_emitter,
        )
        assert report.status is VerifyStatus.FAIL
        ties = [(("y", v), ("x", v)) for v in range(3)]
        assert [(m.version_label, m.assignment) for m in report.mismatches] == [
            (label, pairs) for label in ("intensional4", "intensional10") for pairs in ties
        ]
        assert all(not m.expected and m.observed for m in report.mismatches)

    def test_an_unencodable_instance_is_rejected_before_the_oracle_runs(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("ran before the programs were emitted")

        for name in ("solve", "all_assignments", "constraint_satisfied", "compile_program"):
            monkeypatch.setattr(verify, name, ran)
        csp = parse_document(
            """<instance format="XCSP3" type="CSP">
              <variables> <var id="x"> 0..50000 </var> <var id="y"> 0..50000 </var> </variables>
              <constraints> <intension> lt(mul(x,y),7) </intension> </constraints>
            </instance>""",
            name="wide",
        )
        message = "mul(x,y) takes values in 0..2500000000, outside 32-bit signed range"
        with pytest.raises(CodegenError, match=re.escape(message)):
            differential_check(csp, all_specs(Family.INTENSIONAL), "cc -o {out} {src}")

    def test_timings_per_unit(self, cc_template, tmp_path):
        csp = load_corpus("supports_pair")
        specs = [TransformSpec(Family.EXTENSIONAL, v) for v in (1, 5, 8, 5)]
        report = differential_check(csp, specs, cc_template, workdir=str(tmp_path))
        assert report.versions == ["extensional1", "extensional5", "extensional8", "extensional5"]
        (timing,) = report.timings
        assert timing.versions == ("extensional1", "extensional5", "extensional8")
        assert timing.compile_s > 0 and timing.run_s > 0

    def test_verdict_independent_of_version_order(self, cc_template, tmp_path):
        csp = load_corpus("supports_pair")
        specs = [TransformSpec(Family.EXTENSIONAL, v) for v in (1, 5, 8)]
        forward = differential_check(csp, specs, cc_template, workdir=str(tmp_path / "f"))
        backward = differential_check(
            csp, list(reversed(specs)), cc_template, workdir=str(tmp_path / "b")
        )
        assert forward.status == backward.status
        assert forward.mismatches == backward.mismatches
        assert sorted(forward.versions) == sorted(backward.versions)


class TestShippedBytes:
    """verify compiles and runs the klee programs the tools receive, byte for byte."""

    @pytest.mark.parametrize(
        "edit",
        [lambda line: "", lambda line: line.replace("==", "!=", 1)],
        ids=["drop-assume", "flip-eq"],
    )
    def test_an_edit_to_one_klee_assume_fails_that_version(self, cc_template, tmp_path, edit):
        csp = load_corpus("eq_ne")

        def emit(csp_arg, spec):
            program = transform(csp_arg, spec)
            if spec.version != 6:
                return program
            line = "    klee_assume(i0==i1);\n"
            assert line.rstrip() in program.constraint_lines
            text = program.source_text.replace(line, edit(line))
            return with_source(program, text)

        report = differential_check(
            csp, all_specs(Family.INTENSIONAL), cc_template, workdir=str(tmp_path), emitter=emit
        )
        assert report.status is VerifyStatus.FAIL
        assert {m.version_label for m in report.mismatches} == {"intensional6"}

    @pytest.mark.parametrize("name", CORPUS)
    def test_llbmc_programs_pass(self, cc_template, tmp_path, name):
        csp = load_corpus(name)
        family = family_of(csp.constraints())
        specs = [TransformSpec(family, spec.version, Dialect.LLBMC) for spec in all_specs(family)]
        report = differential_check(csp, specs, cc_template, workdir=str(tmp_path))
        assert report.status is VerifyStatus.PASS, report.mismatches[:3]
        assert report.assignments_checked == csp.assignment_space_size

    @pytest.mark.parametrize(
        "edit, error",
        [(lambda line: "", "reads 5 values, not 6"), (lambda line: line * 2, "reads 7 values, not 6")],
        ids=["dropped", "doubled"],
    )
    def test_a_program_that_misreads_its_values_is_verify_error(
        self, cc_template, tmp_path, edit, error
    ):
        line = '    klee_make_symbolic(&x3,sizeof(x3),"x3");\n'
        emitter = patching_emitter(line, edit(line))
        with pytest.raises(VerifyError, match=f"exited with status 3: .*{error}"):
            differential_check(
                load_corpus("conflicts_group"),
                [TransformSpec(Family.EXTENSIONAL, 1)],
                cc_template,
                workdir=str(tmp_path),
                emitter=emitter,
            )

    def test_the_unit_holds_each_klee_program_verbatim(self):
        """Each klee or llbmc program keeps its line count and every line but
        its `#include` lines of INCLUDED_HEADERS, which are blank."""
        csp = load_corpus("conflicts_group")
        includes = {f"#include <{header}>" for header in INCLUDED_HEADERS}
        for dialect in (Dialect.KLEE, Dialect.LLBMC):
            programs = [
                transform(csp, TransformSpec(Family.EXTENSIONAL, v, dialect)) for v in range(1, 13)
            ]
            unit = build_unit(csp, programs).source_text
            for program in programs:
                start = unit.index(f'#line 1 "{output_filename(program)}"\n')
                start = unit.index("\n", start) + 1
                embedded = unit[start : unit.index("#undef main\n", start)]
                assert embedded.count("\n") == program.line_count
                lines = program.source_text.splitlines()
                assert includes & set(lines)
                assert embedded.splitlines() == ["" if line in includes else line for line in lines]

    def test_driver_declares_every_function_it_calls(self, cc_template, tmp_path):
        template = "cc -Werror=implicit-function-declaration -O0 -o {out} {src}"
        for name in ("conflicts_group", "dist_alldiff"):
            csp = load_corpus(name)
            family = family_of(csp.constraints())
            programs = [
                build_unit(csp, [transform(csp, spec) for spec in all_specs(family)]),
                build_unit(csp, [transform(csp, TransformSpec(family, 1, Dialect.LLBMC))], "llbmc"),
                transform(csp, TransformSpec(family, 1, Dialect.CONCRETE)),
            ]
            for program in programs:
                compile_program(program, template, str(tmp_path / name))


def forbid_any_run(monkeypatch):
    """Fail the test on any emission, oracle run or compile."""

    def ran(*args, **kwargs):
        raise AssertionError("ran before the compile template was checked")

    for name in (
        "transform", "all_assignments", "solve", "constraint_satisfied", "compile_program"
    ):
        monkeypatch.setattr(verify, name, ran)


BAD_TEMPLATES = pytest.mark.parametrize(
    "template, message",
    [
        ("cc -o {exe} {src}", "bad command template 'cc -o {exe} {src}': unknown field {exe}"),
        ("cc -o {out} '{src}", "No closing quotation"),
        ("", "empty command template"),
    ],
    ids=["unknown-field", "unbalanced-quote", "empty"],
)


class TestCompileTemplate:
    """verify owns its compile template: it checks it before anything runs
    and names it in the report."""

    @BAD_TEMPLATES
    def test_differential_check_rejects_a_bad_template_first(self, monkeypatch, template, message):
        forbid_any_run(monkeypatch)
        specs = [TransformSpec(Family.INTENSIONAL, 1)]
        with pytest.raises(HarnessError, match=re.escape(message)):
            differential_check(load_corpus("eq_ne"), specs, template)

    def test_a_bad_template_in_the_environment_is_rejected_first(self, monkeypatch):
        forbid_any_run(monkeypatch)
        monkeypatch.setenv("CSP2C_CC", "cc -o {exe} {src}")
        with pytest.raises(HarnessError, match=re.escape("unknown field {exe}")):
            differential_check(load_corpus("eq_ne"), [TransformSpec(Family.INTENSIONAL, 1)])

    def test_the_report_names_the_template_that_built_the_units(
        self, monkeypatch, cc_template, tmp_path
    ):
        csp, specs = load_corpus("eq_ne"), [TransformSpec(Family.INTENSIONAL, 1)]
        assert differential_check(csp, specs, cc_template).compile_cmd == cc_template
        template = "cc -O1 -o {out} {src}"
        monkeypatch.setenv("CSP2C_CC", template)
        assert differential_check(csp, specs).compile_cmd == template


class TestCrossVersionEquivalence:
    """All versions accept the same assignments: each is checked against the
    oracle, so a PASS of them all implies it."""

    def test_selected_versions_agree(self, cc_template, tmp_path):
        csp = load_corpus("conflicts_group")
        specs = [TransformSpec(Family.EXTENSIONAL, v) for v in (1, 5, 8)]
        report = differential_check(csp, specs, cc_template, workdir=str(tmp_path))
        assert report.status is VerifyStatus.PASS

    def test_zero_constraint_instance_trivially_agrees(self, cc_template, tmp_path):
        csp = CspInstance(
            name="free2",
            variables=(
                VariableDecl("f0", Domain.from_values([0, 1])),
                VariableDecl("f1", Domain.from_values([0, 1])),
            ),
            groups=(),
        )
        specs = [TransformSpec(Family.EXTENSIONAL, v) for v in (1, 3, 8)]
        report = differential_check(csp, specs, cc_template, workdir=str(tmp_path))
        assert report.status is VerifyStatus.PASS
        assert report.assignments_checked == 4

    def test_fault_injection_breaks_equivalence(self, cc_template, tmp_path):
        csp = load_corpus("eq_ne")
        specs = [TransformSpec(Family.INTENSIONAL, 1), TransformSpec(Family.INTENSIONAL, 3)]

        def emit(csp_arg, spec):
            if spec.version == 3:
                return corrupting_emitter(csp_arg, spec)
            return transform(csp_arg, spec)

        report = differential_check(csp, specs, cc_template, workdir=str(tmp_path), emitter=emit)
        assert report.status is VerifyStatus.FAIL
        assert {m.version_label for m in report.mismatches} == {"intensional3"}


# Under the bitwise operator a value that is not 0/1 must be truth-tested
# before `&` joins it: a top-level conjunct (grouping `yes`), and a whole
# constraint (grouping `all`). Both documents are satisfiable.
ADD_AND_GE_XML = """<instance format="XCSP3" type="CSP">
  <variables>
    <var id="x"> 0..4 </var>  <var id="y"> 0..4 </var>
  </variables>
  <constraints>
    <intension> and(add(x,y),ge(x,y)) </intension>
  </constraints>
</instance>
"""
BARE_VALUES_XML = """<instance format="XCSP3" type="CSP">
  <variables>
    <var id="v0"> 0..3 </var>  <var id="v1"> 0..3 </var>
  </variables>
  <constraints>
    <intension> sub(v0,v1) </intension>
    <intension> -3 </intension>
    <intension> v0 </intension>
  </constraints>
</instance>
"""


def _if_lines(*conditions):
    return tuple(f"    if ({c}); else exit(0);" for c in conditions)


def _assume_lines(*conditions):
    return tuple(f"    klee_assume({c});" for c in conditions)


class TestBitwiseTruthTests:
    """Under the bitwise operator every operand of `&`/`|` that is not 0/1 is
    written `!=0`; the logical and NOP versions keep their text."""

    @pytest.mark.parametrize(
        "name, xml, lines",
        [
            (
                "add_and_ge",
                ADD_AND_GE_XML,
                {
                    1: _if_lines("x+y", "x>=y"),
                    2: _if_lines("x+y && x>=y"),
                    3: ("    if (x+y && x>=y) assert(0);",),
                    4: _if_lines("x+y!=0 & x>=y"),
                    5: ("    if (x+y!=0 & x>=y) assert(0);",),
                    6: _assume_lines("x+y", "x>=y"),
                    7: _assume_lines("x+y && x>=y"),
                    8: _assume_lines("x+y && x>=y"),
                    9: _assume_lines("x+y!=0 & x>=y"),
                    10: _assume_lines("x+y!=0 & x>=y"),
                },
            ),
            (
                "bare_values",
                BARE_VALUES_XML,
                {
                    1: _if_lines("v0-v1", "(-3)", "v0"),
                    2: _if_lines("v0-v1", "(-3)", "v0"),
                    3: ("    if (v0-v1 && (-3) && v0) assert(0);",),
                    4: _if_lines("v0-v1!=0", "(-3)!=0", "v0!=0"),
                    5: ("    if (v0-v1!=0 & (-3)!=0 & v0!=0) assert(0);",),
                    6: _assume_lines("v0-v1", "(-3)", "v0"),
                    7: _assume_lines("v0-v1", "(-3)", "v0"),
                    8: _assume_lines("v0-v1 && (-3) && v0"),
                    9: _assume_lines("v0-v1!=0", "(-3)!=0", "v0!=0"),
                    10: _assume_lines("v0-v1!=0 & (-3)!=0 & v0!=0"),
                },
            ),
        ],
        ids=["top-level-conjunct", "whole-constraints"],
    )
    def test_every_version_keeps_the_promise(self, cc_template, tmp_path, name, xml, lines):
        csp = parse_document(xml, name=name)
        specs = all_specs(Family.INTENSIONAL)
        assert {s.version: transform(csp, s).constraint_lines for s in specs} == lines
        # the klee programs, and the llbmc ones as TestShippedBytes checks them
        for dialect in (Dialect.KLEE, Dialect.LLBMC):
            report = differential_check(
                csp,
                [TransformSpec(s.family, s.version, dialect) for s in specs],
                cc_template,
                workdir=str(tmp_path / dialect.value),
            )
            assert report.status is VerifyStatus.PASS, (dialect, report.mismatches[:3])
            assert report.assignments_checked == csp.assignment_space_size


@st.composite
def expr_trees(draw, names, depth=4):
    """An intension tree of at most `depth` operator levels over every model
    operator; a leaf is a variable (70%) or a constant in -3..3."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if draw(st.integers(0, 9)) < 7:
            return Var(draw(st.sampled_from(names)))
        return Const(draw(st.integers(-3, 3)))
    op = draw(st.sampled_from(UNARY_OPS + BINARY_OPS))
    if op in UNARY_OPS:
        return Unary(op, draw(expr_trees(names, depth - 1)))
    return Binary(op, draw(expr_trees(names, depth - 1)), draw(expr_trees(names, depth - 1)))


# plain names, and names of C keywords, of functions and objects a program
# sees, of the prelude's functions, and one C reserves for the implementation
NAME_POOL = [
    "v0", "v1", "v2", "v3",
    "asm", "typeof", "int", "main", "exit", "abs", "stdin", "csp2c_exit", "_X",
]


@st.composite
def random_instances(draw):
    """(family, instance): 1-4 variables, named from NAME_POOL, with 1-4
    values each from -3..4, and 0-4 constraints of the family, in groups of
    consecutive constraints. Tables have 1-6 rows drawn from their scope's
    domains plus 9; one intensional constraint in five is an allDifferent."""
    names = draw(st.lists(st.sampled_from(NAME_POOL), min_size=1, max_size=4, unique=True))
    domains = {
        name: draw(st.lists(st.integers(-3, 4), min_size=1, max_size=4, unique=True))
        for name in names
    }
    family = draw(st.sampled_from(Family))
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        scope = tuple(draw(st.permutations(names))[: draw(st.integers(1, len(names)))])
        if family is Family.EXTENSIONAL:
            row = st.tuples(*[st.sampled_from(domains[v] + [9]) for v in scope])
            rows = draw(st.lists(row, min_size=1, max_size=6, unique=True))
            polarity = draw(st.sampled_from(Polarity))
            constraints.append(TableConstraint(scope, polarity, tuple(rows)))
        elif len(scope) >= 2 and draw(st.integers(0, 4)) == 0:
            constraints.append(AllDifferent(scope))
        else:
            constraints.append(IntensionConstraint(draw(expr_trees(names))))
    groups = []
    for c in constraints:
        if groups and draw(st.booleans()):
            groups[-1].append(c)
        else:
            groups.append([c])
    csp = CspInstance(
        name="random",
        variables=tuple(VariableDecl(n, Domain.from_values(domains[n])) for n in names),
        groups=tuple(tuple(group) for group in groups),
    )
    return family, csp


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=random_instances())
@example(case=(Family.INTENSIONAL, parse_document(ADD_AND_GE_XML, name="add_and_ge")))
@example(case=(Family.INTENSIONAL, parse_document(BARE_VALUES_XML, name="bare_values")))
@example(case=(Family.INTENSIONAL, parse_document(GNU_KEYWORDS_XML, name="gnu_keywords")))
def test_every_version_keeps_the_promise_on_random_instances(cc_template, case):
    family, csp = case
    try:
        report = differential_check(csp, all_specs(family), cc_template)
    except CodegenError:
        reject()  # an intension node that can leave 32-bit range
    assert report.status is VerifyStatus.PASS, report.mismatches[:3]
