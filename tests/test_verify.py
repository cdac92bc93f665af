from __future__ import annotations

import dataclasses
import os
import subprocess
import time

import pytest

from csp2c import verify
from csp2c.codegen import (
    DRIVER_PRELUDE,
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
    CspInstance,
    Domain,
    IntensionConstraint,
    VariableDecl,
)
from csp2c.verify import (
    CompileError,
    VerifyError,
    VerifyStatus,
    compile_program,
    cross_version_equivalence,
    differential_check,
)
from csp2c.xcsp import parse_document, parse_intension

from conftest import CORPUS_DIR, load_corpus


def all_specs(family: Family):
    return [TransformSpec(family, v) for v in range(1, version_count(family) + 1)]


def corrupting_emitter(csp, spec):
    """Fault-injection fixture: the klee program with its first != comparison
    flipped to ==."""
    program = transform(csp, spec)
    assert "!=" in program.source_text
    return dataclasses.replace(
        program,
        source_text=program.source_text.replace("!=", "==", 1),
        instance_name=program.instance_name + "-faulty",
    )


def patching_emitter(old, new):
    """Fault-injection fixture: the klee program with `old` replaced by `new`."""

    def emit(csp, spec):
        program = transform(csp, spec)
        assert old in program.source_text
        return dataclasses.replace(
            program,
            source_text=program.source_text.replace(old, new),
            instance_name=program.instance_name + "-patched",
        )

    return emit


def patch_shared_main(monkeypatch, old, new):
    """Fault-injection fixture: every unit compiled with `old` replaced by
    `new` in the driver its versions share, DRIVER_PRELUDE at its start."""

    def compile_patched(program, compile_cmd, workdir):
        assert program.source_text.startswith(DRIVER_PRELUDE) and old in DRIVER_PRELUDE
        text = program.source_text.replace(old, new, 1)
        return compile_program(dataclasses.replace(program, source_text=text), compile_cmd, workdir)

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
        assert cross_version_equivalence(
            csp,
            [TransformSpec(Family.INTENSIONAL, v) for v in (2, 4)],
            cc_template,
            workdir=str(tmp_path / "xv"),
        )

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
        csp = dataclasses.replace(load_corpus("conflicts_group"), name='say "hi"')

        def emit(csp_arg, spec):
            program = transform(csp_arg, spec)
            if spec.version != 5:
                return program
            text = program.source_text.replace("/* CSP is satisfiable */", "no_such_name;")
            return dataclasses.replace(program, source_text=text)

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
            program = transform(csp, dataclasses.replace(spec, dialect=Dialect.LLBMC))
            src = tmp_path / f"llbmc{spec.version}.c"
            src.write_text(program.source_text)
            proc = subprocess.run(
                ["cc", "-fsyntax-only", str(src)], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr

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
            return dataclasses.replace(program, source_text=text)

        report = differential_check(
            csp, all_specs(Family.INTENSIONAL), cc_template, workdir=str(tmp_path), emitter=emit
        )
        assert report.status is VerifyStatus.FAIL
        assert {m.version_label for m in report.mismatches} == {"intensional6"}

    @pytest.mark.parametrize("name", CORPUS)
    def test_llbmc_programs_pass(self, cc_template, tmp_path, name):
        csp = load_corpus(name)
        family = family_of(csp.constraints())
        specs = [dataclasses.replace(spec, dialect=Dialect.LLBMC) for spec in all_specs(family)]
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
        csp = load_corpus("conflicts_group")
        specs = all_specs(Family.EXTENSIONAL)
        programs = [transform(csp, spec) for spec in specs]
        unit = build_unit(csp, programs).source_text
        for program in programs:
            line = f'#line 1 "{output_filename(program)}"\n'
            assert line + program.source_text + "#undef main\n" in unit

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


class TestCrossVersionEquivalence:
    def test_selected_versions_agree(self, cc_template, tmp_path):
        csp = load_corpus("conflicts_group")
        specs = [TransformSpec(Family.EXTENSIONAL, v) for v in (1, 5, 8)]
        assert cross_version_equivalence(csp, specs, cc_template, workdir=str(tmp_path))

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
        assert cross_version_equivalence(csp, specs, cc_template, workdir=str(tmp_path))

    def test_fault_injection_breaks_equivalence(self, cc_template, tmp_path):
        csp = load_corpus("eq_ne")
        specs = [TransformSpec(Family.INTENSIONAL, 1), TransformSpec(Family.INTENSIONAL, 3)]

        def emit(csp_arg, spec):
            if spec.version == 3:
                return corrupting_emitter(csp_arg, spec)
            return transform(csp_arg, spec)

        assert not cross_version_equivalence(
            csp, specs, cc_template, workdir=str(tmp_path), emitter=emit
        )

    def test_bound_enforced(self, cc_template):
        csp = CspInstance(
            name="huge2",
            variables=tuple(
                VariableDecl(f"v{i}", Domain.from_ranges([(0, 9)])) for i in range(8)
            ),
            groups=(),
        )
        with pytest.raises(VerifyError, match="exceeds bound"):
            cross_version_equivalence(csp, [], cc_template, bound=10)
