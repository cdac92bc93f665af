from __future__ import annotations

import pytest

from csp2c import verify
from csp2c.codegen import Family, emit_concrete_driver, version_count, version_to_spec
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
from csp2c.xcsp import parse_intension

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
