from __future__ import annotations

import dataclasses
import subprocess
import time

import pytest

from csp2c import verify
from csp2c.codegen import (
    Dialect,
    Family,
    emit_concrete_driver,
    transform,
    version_count,
    version_to_spec,
)
from csp2c.model import (
    ConstraintGroup,
    CspInstance,
    Domain,
    IntensionConstraint,
    VariableDecl,
)
from csp2c.verify import (
    CompileError,
    VerifyError,
    VerifyStatus,
    cross_version_equivalence,
    differential_check,
)
from csp2c.xcsp import parse_document, parse_intension

from conftest import load_corpus


def all_specs(family: Family):
    return [version_to_spec(family, v) for v in range(1, version_count(family) + 1)]


def corrupting_emitter(csp, spec):
    """Fault-injection fixture: flips the first != comparison to ==."""
    program = emit_concrete_driver(csp, spec)
    lines = []
    done = False
    for line in program.source_text.splitlines():
        if not done and "!=" in line and "argc" not in line:
            line = line.replace("!=", "==", 1)
            done = True
        lines.append(line)
    return type(program)(
        source_text="\n".join(lines) + "\n",
        version_label=program.version_label,
        statement_count=program.statement_count,
        var_map=program.var_map,
        line_count=program.line_count,
        instance_name=program.instance_name + "-faulty",
        dialect=program.dialect,
        constraint_lines=program.constraint_lines,
    )


def patching_emitter(old, new):
    """Fault-injection fixture: the concrete driver with `old` replaced by `new`."""

    def emit(csp, spec):
        program = emit_concrete_driver(csp, spec)
        assert old in program.source_text
        return dataclasses.replace(
            program,
            source_text=program.source_text.replace(old, new),
            instance_name=program.instance_name + "-patched",
        )

    return emit


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
            [version_to_spec(Family.INTENSIONAL, 1)],
            cc_template,
            workdir=str(tmp_path),
            emitter=corrupting_emitter,
        )
        assert report.status is VerifyStatus.FAIL
        assert report.mismatches
        first = report.mismatches[0]
        assert first.expected != first.observed

    def test_skipped_when_too_large(self, cc_template):
        csp = CspInstance(
            name="huge",
            variables=tuple(
                VariableDecl(f"v{i}", Domain.from_ranges([(0, 9)])) for i in range(8)
            ),
            groups=(),
        )
        report = differential_check(csp, [], cc_template, bound=100, sample_count=0)
        assert report.status is VerifyStatus.SKIPPED_TOO_LARGE
        assert report.assignments_checked == 0

    def test_sampled_when_too_large(self, cc_template, tmp_path):
        csp = CspInstance(
            name="large-sampled",
            variables=tuple(
                VariableDecl(f"v{i}", Domain.from_ranges([(0, 9)])) for i in range(6)
            ),
            groups=(
                ConstraintGroup.singleton(
                    IntensionConstraint(parse_intension("le(v0,5)"))
                ),
            ),
        )
        report = differential_check(
            csp,
            [version_to_spec(Family.INTENSIONAL, 1)],
            cc_template,
            bound=100,
            sample_count=32,
            workdir=str(tmp_path),
        )
        assert report.status is VerifyStatus.SAMPLED
        assert report.assignments_checked == 32
        assert report.mismatches == []

    def test_compile_failure_reports_output(self, tmp_path):
        csp = load_corpus("supports_pair")
        with pytest.raises(CompileError):
            differential_check(
                csp,
                [version_to_spec(Family.EXTENSIONAL, 1)],
                "false",
                workdir=str(tmp_path),
            )

    def test_missing_compiler_is_verify_error(self, tmp_path):
        csp = load_corpus("supports_pair")
        with pytest.raises(VerifyError, match="no-such-cc-csp2c"):
            differential_check(
                csp,
                [version_to_spec(Family.EXTENSIONAL, 1)],
                "no-such-cc-csp2c -o {out} {src}",
                workdir=str(tmp_path),
            )

    def test_compile_timeout_is_verify_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "COMPILE_TIMEOUT_S", 0.2)
        csp = load_corpus("supports_pair")
        with pytest.raises(VerifyError, match="timed out"):
            differential_check(
                csp,
                [version_to_spec(Family.EXTENSIONAL, 1)],
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
                [version_to_spec(Family.EXTENSIONAL, 1)],
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
            [version_to_spec(Family.INTENSIONAL, v) for v in (2, 4)],
            cc_template,
            workdir=str(tmp_path / "xv"),
        )

    def test_workers_agree_with_serial(self, cc_template, tmp_path):
        csp = load_corpus("eq_ne")
        specs = [version_to_spec(Family.INTENSIONAL, 1)]
        serial = differential_check(csp, specs, cc_template, workdir=str(tmp_path / "s"))
        parallel = differential_check(
            csp, specs, cc_template, workers=4, workdir=str(tmp_path / "p")
        )
        assert serial.status == parallel.status == VerifyStatus.PASS
        assert serial.assignments_checked == parallel.assignments_checked


    def test_concurrent_versions_match_serial(self, cc_template, tmp_path):
        csp = load_corpus("xor_ring")
        specs = all_specs(Family.EXTENSIONAL) + [version_to_spec(Family.EXTENSIONAL, 1)]
        serial = differential_check(csp, specs, cc_template, workdir=str(tmp_path / "s"))
        concurrent = differential_check(
            csp, specs, cc_template, workers=3, workdir=str(tmp_path / "c")
        )
        assert serial.status is concurrent.status is VerifyStatus.PASS
        assert concurrent.versions == serial.versions
        assert [t.version_label for t in concurrent.timings] == concurrent.versions

    def test_corrupting_emitter_flips_the_encoding_not_main(self):
        csp = load_corpus("eq_ne")
        spec = version_to_spec(Family.INTENSIONAL, 1)
        clean = emit_concrete_driver(csp, spec)
        faulty = corrupting_emitter(csp, spec).source_text.splitlines()
        lines = clean.source_text.splitlines()
        changed = [i for i, (a, b) in enumerate(zip(lines, faulty)) if a != b]
        assert len(changed) == 1
        assert lines[changed[0]] in clean.constraint_lines
        assert changed[0] < lines.index("int main(int argc, char **argv) {")

    def test_one_driver_process_per_version(self, cc_template, tmp_path, monkeypatch):
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
        assert len(drivers) == 12
        assert len(started) == 24

    @pytest.mark.parametrize(
        "old, new, error",
        [
            # the one-process-per-assignment driver: exits 1 mid-batch on a rejection
            (") return 0;", ") exit(1);", "exited with status 1"),
            # crashes on the first accepted assignment
            ("\n    return 1;\n}", "\n    abort();\n}", "exited with status -6"),
            # silently skips the first assignment: one verdict too few
            (
                "if (argc == 1) {",
                'if (argc == 1) {\n        scanf("%*[^\\n]");',
                "printed 63 verdicts for 64 assignments",
            ),
            # prints a token that is not a verdict
            ('printf("%d\\n", accepts(', 'printf("%d\\n", 2 * accepts(', "printed '2'"),
        ],
        ids=["exit-mid-batch", "crash", "verdict-too-few", "bad-token"],
    )
    def test_broken_driver_is_verify_error(self, cc_template, tmp_path, old, new, error):
        csp = load_corpus("conflicts_group")
        with pytest.raises(VerifyError, match=error):
            differential_check(
                csp,
                [version_to_spec(Family.EXTENSIONAL, 1)],
                cc_template,
                workdir=str(tmp_path),
                emitter=patching_emitter(old, new),
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
                 "stdin", "stdout", "stderr"]
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

    def test_timings_per_version(self, cc_template, tmp_path):
        csp = load_corpus("supports_pair")
        specs = [version_to_spec(Family.EXTENSIONAL, v) for v in (1, 5, 8)]
        report = differential_check(csp, specs, cc_template, workdir=str(tmp_path))
        assert [t.version_label for t in report.timings] == report.versions
        assert all(t.compile_s > 0 and t.run_s > 0 for t in report.timings)

    def test_verdict_independent_of_version_order(self, cc_template, tmp_path):
        csp = load_corpus("supports_pair")
        specs = [version_to_spec(Family.EXTENSIONAL, v) for v in (1, 5, 8)]
        forward = differential_check(csp, specs, cc_template, workdir=str(tmp_path / "f"))
        backward = differential_check(
            csp, list(reversed(specs)), cc_template, workdir=str(tmp_path / "b")
        )
        assert forward.status == backward.status
        assert forward.mismatches == backward.mismatches
        assert sorted(forward.versions) == sorted(backward.versions)


class TestCrossVersionEquivalence:
    def test_selected_versions_agree(self, cc_template, tmp_path):
        csp = load_corpus("conflicts_group")
        specs = [version_to_spec(Family.EXTENSIONAL, v) for v in (1, 5, 8)]
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
        specs = [version_to_spec(Family.EXTENSIONAL, v) for v in (1, 3, 8)]
        assert cross_version_equivalence(csp, specs, cc_template, workdir=str(tmp_path))

    def test_fault_injection_breaks_equivalence(self, cc_template, tmp_path):
        csp = load_corpus("eq_ne")
        specs = [version_to_spec(Family.INTENSIONAL, 1), version_to_spec(Family.INTENSIONAL, 3)]

        def emit(csp_arg, spec):
            if spec.version == 3:
                return corrupting_emitter(csp_arg, spec)
            return emit_concrete_driver(csp_arg, spec)

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
