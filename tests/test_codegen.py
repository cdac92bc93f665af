from __future__ import annotations

import os
import re
import subprocess

import pytest

from csp2c.codegen import (
    DRIVER_PRELUDE,
    CodegenError,
    Dialect,
    Family,
    Grouping,
    TransformSpec,
    build_unit,
    driver_main,
    output_filename,
    transform,
    version_count,
)
from csp2c.model import (
    Binary,
    Const,
    CspInstance,
    Domain,
    IntensionConstraint,
    Polarity,
    TableConstraint,
    Var,
    VariableDecl,
)
from csp2c.oracle import all_assignments
from csp2c.verify import compile_program

from conftest import GOLDEN_DIR, load_corpus

# feature columns per version, frozen
EXTENSIONAL_TABLE = [
    (1, "if", "logical", "no"),
    (2, "if", "logical", "yes"),
    (3, "if", "logical", "all"),
    (4, "if", "bitwise", "no"),
    (5, "if", "bitwise", "yes"),
    (6, "if", "bitwise", "all"),
    (7, "assume", "logical", "no"),
    (8, "assume", "logical", "yes"),
    (9, "assume", "logical", "all"),
    (10, "assume", "bitwise", "no"),
    (11, "assume", "bitwise", "yes"),
    (12, "assume", "bitwise", "all"),
]
INTENSIONAL_TABLE = [
    (1, "if", "nop", "no"),
    (2, "if", "logical", "yes"),
    (3, "if", "logical", "all"),
    (4, "if", "bitwise", "yes"),
    (5, "if", "bitwise", "all"),
    (6, "assume", "nop", "no"),
    (7, "assume", "logical", "yes"),
    (8, "assume", "logical", "all"),
    (9, "assume", "bitwise", "yes"),
    (10, "assume", "bitwise", "all"),
]

LOGICAL_BITWISE_PAIRS = {
    Family.EXTENSIONAL: [(1, 4), (2, 5), (3, 6), (7, 10), (8, 11), (9, 12)],
    Family.INTENSIONAL: [(2, 4), (3, 5), (7, 9), (8, 10)],
}

CORPUS_BY_FAMILY = {
    Family.EXTENSIONAL: ["conflicts_group", "supports_pair", "xor_ring", "ext_mixed"],
    Family.INTENSIONAL: [
        "dist_alldiff",
        "pigeonhole",
        "diff_triangle",
        "product_sign",
        "eq_ne",
        "noncontig",
        "sum_threshold",
    ],
}


class TestVersionMatrix:
    @pytest.mark.parametrize("version,construct,operator,grouping", EXTENSIONAL_TABLE)
    def test_extensional_rows(self, version, construct, operator, grouping):
        spec = TransformSpec(Family.EXTENSIONAL, version)
        assert spec.construct.value == construct
        assert spec.operator.value == operator
        assert spec.grouping.value == grouping
        assert spec.version == version

    @pytest.mark.parametrize("version,construct,operator,grouping", INTENSIONAL_TABLE)
    def test_intensional_rows(self, version, construct, operator, grouping):
        spec = TransformSpec(Family.INTENSIONAL, version)
        assert spec.construct.value == construct
        assert spec.operator.value == operator
        assert spec.grouping.value == grouping
        assert spec.version == version

    def test_counts(self):
        assert version_count(Family.EXTENSIONAL) == 12
        assert version_count(Family.INTENSIONAL) == 10

    @pytest.mark.parametrize("family,bad", [(Family.EXTENSIONAL, 0), (Family.EXTENSIONAL, 13), (Family.INTENSIONAL, 11)])
    def test_out_of_range(self, family, bad):
        with pytest.raises(CodegenError, match="version must be in"):
            TransformSpec(family, bad)
        with pytest.raises(CodegenError, match="version must be in"):
            TransformSpec(family, bad)


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name)


def encoding_tokens(lines) -> str:
    """Constraint-encoding text with wrap-induced whitespace collapsed."""
    return re.sub(r"\s+", " ", " ".join(line.strip() for line in lines))


GOLDEN_CASES = [
    ("conflicts_group", Family.EXTENSIONAL, 1),
    ("conflicts_group", Family.EXTENSIONAL, 5),
    ("conflicts_group", Family.EXTENSIONAL, 8),
    ("dist_alldiff", Family.INTENSIONAL, 1),
    ("dist_alldiff", Family.INTENSIONAL, 2),
    ("dist_alldiff", Family.INTENSIONAL, 3),
    ("dist_alldiff", Family.INTENSIONAL, 9),
    ("dist_alldiff", Family.INTENSIONAL, 10),
    ("ext_mixed", Family.EXTENSIONAL, 3),  # mixed polarity, whole grouping
    ("ext_mixed", Family.EXTENSIONAL, 9),
    ("ext_mixed", Family.EXTENSIONAL, 12),  # bitwise assume
    ("noncontig", Family.INTENSIONAL, 4),  # non-contiguous domain, bitwise
    ("noncontig", Family.INTENSIONAL, 6),  # non-contiguous domain, NOP
    # a fourth column names the dialect; klee when absent
    ("supports_pair", Family.EXTENSIONAL, 2, Dialect.LLBMC),
    ("dist_alldiff", Family.INTENSIONAL, 3, Dialect.CONCRETE),
]


class TestGolden:
    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda case: "-".join(map(str, case)))
    def test_pinned_sources(self, case):
        instance, family, version, *dialect = case
        program = transform(load_corpus(instance), TransformSpec(family, version, *dialect))
        path = golden_path(output_filename(program))
        with open(path, "r", encoding="utf-8") as fh:
            assert program.source_text == fh.read()

    def test_ext_v1_shape(self):
        program = transform(load_corpus("conflicts_group"), TransformSpec(Family.EXTENSIONAL, 1))
        assert program.statement_count == 2
        for line in program.constraint_lines:
            assert re.match(r"\s*if \(\(.+ && .+\) \|\| \(.+ && .+\)\) exit\(0\);", line)
        assert "assert(0);" in program.source_text

    def test_ext_v5_shape(self):
        program = transform(load_corpus("conflicts_group"), TransformSpec(Family.EXTENSIONAL, 5))
        assert program.statement_count == 1
        text = " ".join(line.strip() for line in program.constraint_lines)
        assert text.count("==") == 12  # four tuples x three atoms
        assert " & " in text and " | " in text
        assert "&&" not in text and "||" not in text
        assert text.startswith("if (") and text.endswith(") exit(0);")

    def test_ext_v8_shape(self):
        program = transform(load_corpus("conflicts_group"), TransformSpec(Family.EXTENSIONAL, 8))
        assert program.statement_count == 1
        text = " ".join(line.strip() for line in program.constraint_lines)
        assert text.startswith("klee_assume(!(")
        assert text.endswith("));")
        assert " || " in text and " && " in text

    def test_int_v1_shape(self):
        program = transform(load_corpus("dist_alldiff"), TransformSpec(Family.INTENSIONAL, 1))
        # three pairwise atoms plus two dist equalities, one statement each
        assert program.statement_count == 5
        for line in program.constraint_lines:
            assert re.match(r"\s*if \([^&|]+\); else exit\(0\);", line)

    def test_int_v2_shape(self):
        program = transform(load_corpus("dist_alldiff"), TransformSpec(Family.INTENSIONAL, 2))
        assert program.statement_count == 2
        assert program.constraint_lines[0].strip() == (
            "if (x0!=x1 && x0!=x2 && x1!=x2); else exit(0);"
        )
        assert program.constraint_lines[1].strip() == (
            "if (y0==dist(x0,x1) && y1==dist(x1,x2)); else exit(0);"
        )

    def test_int_v3_guarded_assert(self):
        program = transform(load_corpus("dist_alldiff"), TransformSpec(Family.INTENSIONAL, 3))
        assert program.statement_count == 1
        text = " ".join(line.strip() for line in program.constraint_lines)
        assert text == (
            "if (x0!=x1 && x0!=x2 && x1!=x2 && "
            "y0==dist(x0,x1) && y1==dist(x1,x2)) assert(0);"
        )
        # the guarded statement is the only distinguished point
        assert program.source_text.count("assert(0)") == 1

    def test_int_v9_shape(self):
        program = transform(load_corpus("dist_alldiff"), TransformSpec(Family.INTENSIONAL, 9))
        assert program.statement_count == 2
        assert program.constraint_lines[0].strip() == "klee_assume(x0!=x1 & x0!=x2 & x1!=x2);"
        assert program.constraint_lines[1].strip() == (
            "klee_assume(y0==dist(x0,x1) & y1==dist(x1,x2));"
        )


class TestProgramInvariants:
    @pytest.mark.parametrize("family", list(Family))
    def test_single_distinguished_point(self, family):
        for name in CORPUS_BY_FAMILY[family]:
            csp = load_corpus(name)
            for v in range(1, version_count(family) + 1):
                for dialect in (Dialect.KLEE, Dialect.LLBMC):
                    program = transform(csp, TransformSpec(family, v, dialect))
                    assert program.source_text.count("assert(0)") == 1, (name, v)
                concrete = concrete_program(csp, family, v).source_text
                in_prelude = DRIVER_PRELUDE.count("assert(0)")
                assert concrete.count("assert(0)") == 1 + in_prelude, (name, v)

    @pytest.mark.parametrize("family", list(Family))
    def test_grouping_monotonicity(self, family):
        for name in CORPUS_BY_FAMILY[family]:
            csp = load_corpus(name)
            counts = {}
            for v in range(1, version_count(family) + 1):
                spec = TransformSpec(family, v)
                counts[spec.grouping] = transform(csp, spec).statement_count
            assert counts[Grouping.NONE] >= counts[Grouping.PER_GROUP], name
            assert counts[Grouping.PER_GROUP] >= counts[Grouping.WHOLE], name
            assert counts[Grouping.WHOLE] == 1, name

    @pytest.mark.parametrize("family", list(Family))
    def test_logical_bitwise_differ_only_in_operators(self, family):
        # token-level: swapping && -> & and || -> | must reproduce the
        # bitwise encoding exactly (wrap points may shift with line width)
        for name in CORPUS_BY_FAMILY[family]:
            csp = load_corpus(name)
            for logical_v, bitwise_v in LOGICAL_BITWISE_PAIRS[family]:
                logical = transform(csp, TransformSpec(family, logical_v))
                bitwise = transform(csp, TransformSpec(family, bitwise_v))
                rewritten = encoding_tokens(logical.constraint_lines).replace(
                    "&&", "&"
                ).replace("||", "|")
                assert rewritten == encoding_tokens(bitwise.constraint_lines), (
                    name,
                    logical_v,
                    bitwise_v,
                )

    @pytest.mark.parametrize("family", list(Family))
    def test_dialect_neutral_encoding(self, family):
        for name in CORPUS_BY_FAMILY[family]:
            csp = load_corpus(name)
            for v in range(1, version_count(family) + 1):
                klee = transform(csp, TransformSpec(family, v, Dialect.KLEE))
                llbmc = transform(csp, TransformSpec(family, v, Dialect.LLBMC))
                normalized = encoding_tokens(llbmc.constraint_lines).replace(
                    "__llbmc_assume", "klee_assume"
                )
                assert normalized == encoding_tokens(klee.constraint_lines), (name, v)

    def test_determinism(self):
        csp = load_corpus("conflicts_group")
        spec = TransformSpec(Family.EXTENSIONAL, 7)
        assert transform(csp, spec).source_text == transform(csp, spec).source_text

    def test_version_label_and_filename(self):
        program = transform(load_corpus("supports_pair"), TransformSpec(Family.EXTENSIONAL, 2))
        assert program.version_label == "extensional2"
        assert output_filename(program) == "supports_pair__extensional2__klee.c"

    def test_line_count_matches_text(self):
        program = transform(load_corpus("ext_mixed"), TransformSpec(Family.EXTENSIONAL, 3))
        assert program.line_count == program.source_text.count("\n")

    def test_var_map_covers_all_variables(self):
        csp = load_corpus("dist_alldiff")
        program = transform(csp, TransformSpec(Family.INTENSIONAL, 5))
        assert set(program.var_map) == set(csp.variable_ids())


def concrete_program(csp, family, version):
    return transform(csp, TransformSpec(family, version, Dialect.CONCRETE))


class TestConcreteDriver:
    def test_is_the_klee_program_plus_the_replay_driver(self):
        csp = load_corpus("supports_pair")
        klee = transform(csp, TransformSpec(Family.EXTENSIONAL, 1)).source_text
        text = concrete_program(csp, Family.EXTENSIONAL, 1).source_text
        header, main = klee.split("int main(void) {\n")
        start = header.splitlines()[0] + "\n" + DRIVER_PRELUDE
        assert text.startswith(start) and "#include" not in text[len(start):]
        assert "#define main csp2c_main_0\nint main(void) {\n" + main + "#undef main\n" in text
        assert text.endswith("\n".join(driver_main(1, 2)) + "\n")

    def test_domain_checks_exit_nonzero(self, cc_template, tmp_path):
        csp = load_corpus("noncontig")
        program = concrete_program(csp, Family.INTENSIONAL, 6)
        assert "klee_assume(n0==1 || n0==3 || n0==5 || n0==6);" in program.source_text
        exe = compile_program(program, cc_template, str(tmp_path))
        proc = subprocess.run([exe], input="2\n3\n", capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "0\n1\n")

    def test_batch_mode_protocol(self, cc_template, tmp_path):
        csp = load_corpus("supports_pair")
        program = concrete_program(csp, Family.EXTENSIONAL, 1)
        exe = compile_program(program, cc_template, str(tmp_path))

        def batch(stdin):
            proc = subprocess.run([exe], input=stdin, capture_output=True, text=True)
            return proc.returncode, proc.stdout

        # any whitespace separates values; out-of-domain values are rejected
        assert batch("0 1\n0\t0  9 9\n") == (0, "1\n0\n0\n")
        assert batch("") == (0, "")
        # input that does not end after a whole assignment exits 2
        assert batch("0 1\n0\n") == (2, "1\n")
        assert batch("0 x\n") == (2, "")

    @pytest.mark.parametrize(
        "family, name",
        [(family, name) for family, names in CORPUS_BY_FAMILY.items() for name in names],
        ids=lambda value: getattr(value, "value", value),
    )
    def test_unit_columns_match_each_versions_driver(self, family, name, cc_template, tmp_path):
        """Every corpus instance, version and assignment: the driver of one
        unit holding all versions prints, in its column for a version, what
        that version's own concrete driver prints."""
        csp = load_corpus(name)
        order = [v.id for v in csp.variables]
        rows = [[str(a[v]) for v in order] for a in all_assignments(csp)]
        plan = "".join(" ".join(row) + "\n" for row in rows)
        specs = [TransformSpec(family, v) for v in range(1, version_count(family) + 1)]
        programs = [transform(csp, spec) for spec in specs]
        unit = compile_program(build_unit(csp, programs), cc_template, str(tmp_path))
        combined = subprocess.run([unit], input=plan, capture_output=True, text=True)
        lines = combined.stdout.splitlines()
        assert combined.returncode == 0 and len(lines) == len(rows)
        assert all(len(line) == len(specs) for line in lines)
        columns = ["".join(col) for col in zip(*lines)]
        for v in range(1, version_count(family) + 1):
            program = concrete_program(csp, family, v)
            exe = compile_program(program, cc_template, str(tmp_path))
            batch = subprocess.run([exe], input=plan, capture_output=True, text=True)
            assert batch.returncode == 0, v
            assert "".join(batch.stdout.splitlines()) == columns[v - 1], v


class TestNonContiguousDomains:
    def test_bitwise_versions_use_bitwise_disjunction(self):
        csp = load_corpus("noncontig")
        program = transform(csp, TransformSpec(Family.INTENSIONAL, 9))
        assert "klee_assume(n0==1 | n0==3 | n0==5 | n0==6);" in program.source_text

    def test_logical_versions_use_logical_disjunction(self):
        csp = load_corpus("noncontig")
        program = transform(csp, TransformSpec(Family.INTENSIONAL, 7))
        assert "klee_assume(n0==1 || n0==3 || n0==5 || n0==6);" in program.source_text

    def test_contiguous_bounds_identical_across_versions(self):
        csp = load_corpus("dist_alldiff")
        texts = set()
        for v in range(1, version_count(Family.INTENSIONAL) + 1):
            program = transform(csp, TransformSpec(Family.INTENSIONAL, v))
            domain_lines = [
                line for line in program.source_text.splitlines() if ">=" in line
            ]
            texts.add(tuple(domain_lines))
        assert len(texts) == 1


class TestErrors:
    def test_family_mismatch(self):
        ext = load_corpus("conflicts_group")
        with pytest.raises(CodegenError, match="table"):
            transform(ext, TransformSpec(Family.INTENSIONAL, 1))
        intn = load_corpus("dist_alldiff")
        with pytest.raises(CodegenError, match="table"):
            transform(intn, TransformSpec(Family.EXTENSIONAL, 1))

    def test_mixed_instance_fits_no_family(self):
        csp = CspInstance(
            name="mixed",
            variables=(VariableDecl("v", Domain.from_values([0, 1])),),
            groups=(
                (IntensionConstraint(Binary("eq", Var("v"), Const(1))),),
                (TableConstraint(("v",), Polarity.SUPPORTS, ((1,),)),),
            ),
        )
        for family in Family:
            with pytest.raises(CodegenError, match="mixes table and intensional constraints"):
                transform(csp, TransformSpec(family, 1))

    def test_no_constraints_fit_either_family(self):
        csp = CspInstance(
            name="free", variables=(VariableDecl("v", Domain.from_values([0, 1])),), groups=()
        )
        for family in Family:
            program = transform(csp, TransformSpec(family, 1))
            assert program.statement_count == 0 and program.constraint_lines == ()

    def test_zero_variables(self):
        csp = CspInstance(name="empty", variables=(), groups=())
        with pytest.raises(CodegenError, match="no variables"):
            transform(csp, TransformSpec(Family.EXTENSIONAL, 1))

    def test_tuple_out_of_int32_range(self):
        csp = CspInstance(
            name="big",
            variables=(VariableDecl("v", Domain.from_values([0, 1])),),
            groups=(
                (
                    TableConstraint(("v",), Polarity.SUPPORTS, ((2**40,),)),
                ),
            ),
        )
        with pytest.raises(CodegenError, match="32-bit"):
            transform(csp, TransformSpec(Family.EXTENSIONAL, 1))

    def test_constant_out_of_int32_range(self):
        csp = CspInstance(
            name="big",
            variables=(VariableDecl("x", Domain.from_values([0, 1])),),
            groups=(
                (
                    IntensionConstraint(Binary("lt", Var("x"), Const(-(2**31) - 1))),
                ),
            ),
        )
        with pytest.raises(CodegenError, match=r"constant -2147483649 exceeds 32-bit"):
            transform(csp, TransformSpec(Family.INTENSIONAL, 1))

    def test_negative_literals_render_parenthesized(self):
        # bare "x--3" would tokenize as pre-decrement in C
        from csp2c.xcsp import parse_document

        csp = parse_document(
            """
            <instance format="XCSP3" type="CSP">
              <variables><var id="n"> -5..5 </var></variables>
              <constraints><intension> eq(sub(n,-3),neg(n)) </intension></constraints>
            </instance>
            """,
            name="negatives",
        )
        program = transform(csp, TransformSpec(Family.INTENSIONAL, 7))
        assert "klee_assume(n-(-3)==(-n));" in program.source_text
        assert "--" not in "".join(program.constraint_lines)

    def test_keyword_variable_ids_sanitized(self):
        csp = CspInstance(
            name="kw",
            variables=(
                VariableDecl("int", Domain.from_values([0, 1])),
                VariableDecl("while", Domain.from_values([0, 1])),
            ),
            groups=(
                (
                    TableConstraint(("int", "while"), Polarity.SUPPORTS, ((0, 1),)),
                ),
            ),
        )
        program = transform(csp, TransformSpec(Family.EXTENSIONAL, 1))
        assert program.var_map["int"] == "int_v"
        assert program.var_map["while"] == "while_v"
        assert "int int_v, while_v;" in program.source_text
