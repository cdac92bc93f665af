from __future__ import annotations

import os
import re
import shutil
import subprocess
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from csp2c.codegen import (
    DRIVER_PRELUDE,
    INCLUDED_HEADERS,
    CodegenError,
    Dialect,
    Family,
    Grouping,
    TransformSpec,
    _c_names,
    build_unit,
    output_filename,
    source_filename,
    transform,
    version_count,
)
from csp2c.model import (
    BINARY_OPS,
    COMPARISON_OPS,
    INT32_MAX,
    INT32_MIN,
    UNARY_OPS,
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
from csp2c.oracle import all_assignments, eval_expr
from csp2c.verify import VerifyStatus, compile_program, differential_check

from conftest import GOLDEN_DIR, load_corpus, with_source

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
        # read from the text, so a program with new text counts its lines
        edited = with_source(program, program.source_text + "/* */\n")
        assert edited.line_count == program.line_count + 1

    def test_c_names_cover_all_variables(self):
        csp = load_corpus("dist_alldiff")
        assert set(_c_names(csp)) == set(csp.variable_ids())


def concrete_program(csp, family, version):
    return transform(csp, TransformSpec(family, version, Dialect.CONCRETE))


class TestConcreteDriver:
    def test_is_the_unit_of_its_klee_program(self):
        """A concrete program is what verify compiles for that one version."""
        for family, names in CORPUS_BY_FAMILY.items():
            for name in names:
                csp = load_corpus(name)
                for v in range(1, version_count(family) + 1):
                    klee = transform(csp, TransformSpec(family, v))
                    unit = build_unit(csp, [klee], klee.version_label)
                    assert concrete_program(csp, family, v) == unit, (name, v)

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
                # collides with the name "int" is given
                VariableDecl("int_v", Domain.from_values([0, 1])),
                # keywords of gcc's default -std=gnu17
                VariableDecl("asm", Domain.from_values([0, 1])),
                VariableDecl("typeof", Domain.from_values([0, 1])),
            ),
            groups=(
                (
                    TableConstraint(("int", "while"), Polarity.SUPPORTS, ((0, 1),)),
                ),
            ),
        )
        assert _c_names(csp) == {
            "int": "int_v",
            "while": "while_v",
            "int_v": "int_v_1",
            "asm": "asm_v",
            "typeof": "typeof_v",
        }
        program = transform(csp, TransformSpec(Family.EXTENSIONAL, 1))
        assert "int int_v, while_v, int_v_1, asm_v, typeof_v;" in program.source_text


def header_macros(tmp_path) -> set[str]:
    """Every object-like macro `cc -E -dM` reports for the headers the
    prelude and the programs include, the compiler's predefined ones too.
    A header the compiler cannot find (klee/klee.h without KLEE) is left
    out."""
    if shutil.which("cc") is None:
        pytest.skip("no system C compiler available")
    headers = re.findall(r"#include <([^>]+)>", DRIVER_PRELUDE) + list(INCLUDED_HEADERS)
    src = tmp_path / "headers.c"
    src.write_text(
        "".join(f"#if __has_include(<{h}>)\n#include <{h}>\n#endif\n" for h in headers)
    )
    proc = subprocess.run(
        ["cc", "-E", "-dM", str(src)], capture_output=True, text=True, check=True
    )
    # `#define NAME value`; a function-like macro's name is followed by `(`
    return set(re.findall(r"^#define ([A-Za-z_][A-Za-z0-9_]*)(?![(\w])", proc.stdout, re.M))


def test_no_c_name_is_a_header_macro(tmp_path):
    """Each macro name is a C identifier, which the reader accepts as an id."""
    macros = header_macros(tmp_path)
    assert {"unix", "linux", "P_tmpdir", "L_ctermid", "_IOFBF", "_IOLBF", "_IONBF"} <= macros
    ids = sorted(macros)
    csp = CspInstance(
        name="macros",
        variables=tuple(VariableDecl(i, Domain.from_values([0, 1])) for i in ids),
        groups=(),
    )
    c_names = _c_names(csp)
    assert sorted(c_names) == ids
    assert sorted(set(c_names.values()) & macros) == []
    assert len(set(c_names.values())) == len(ids)


def ranged_instance(bounds: dict[str, tuple[int, int]], expr, name: str = "ranges") -> CspInstance:
    return CspInstance(
        name=name,
        variables=tuple(VariableDecl(v, Domain((lohi,))) for v, lohi in bounds.items()),
        groups=((IntensionConstraint(expr),),),
    )


def intensional_specs():
    return [
        TransformSpec(Family.INTENSIONAL, version, dialect)
        for version in range(1, version_count(Family.INTENSIONAL) + 1)
        for dialect in Dialect
    ]


X_Y = {"x": (0, 100_000), "y": (0, 100_000)}
MIN_ZERO = {"m": (INT32_MIN, 0), "z": (0, 0)}

# (variable bounds, expression, the message naming the subexpression that
# can leave 32-bit signed range)
OVERFLOWS = {
    "product": (X_Y, Binary("eq", Binary("mul", Var("x"), Var("y")), Const(6)),
                "mul(x,y) takes values in 0..10000000000"),
    "inner-square": (
        {"y": (0, 100_000), "z": (0, 100_000)},
        Binary("eq", Binary("add", Var("y"), Binary("mul", Var("z"), Var("z"))), Const(1)),
        "mul(z,z) takes values in 0..10000000000",
    ),
    # the largest product is of the two lower bounds
    "mixed-sign-product": (
        {"n": (-1, 0), "m": (INT32_MIN, INT32_MIN + 1)},
        Binary("ne", Binary("mul", Var("n"), Var("m")), Const(0)),
        "mul(n,m) takes values in 0..2147483648",
    ),
    "neg-min": (MIN_ZERO, Binary("gt", Unary("neg", Var("m")), Const(0)),
                "neg(m) takes values in 0..2147483648"),
    "abs-min": (MIN_ZERO, Binary("gt", Unary("abs", Var("m")), Const(0)),
                "abs(m) takes values in 0..2147483648"),
    "dist-min": (MIN_ZERO, Binary("gt", Binary("dist", Var("m"), Var("z")), Const(0)),
                 "dist(m,z) takes values in 0..2147483648"),
    "sum-past-max": (
        {"x": (0, 1)}, Binary("lt", Binary("add", Var("x"), Const(INT32_MAX)), Const(0)),
        f"add(x,{INT32_MAX}) takes values in {INT32_MAX}..{INT32_MAX + 1}",
    ),
    "difference-past-min": (
        MIN_ZERO, Binary("lt", Binary("sub", Var("m"), Const(1)), Const(0)),
        f"sub(m,1) takes values in {INT32_MIN - 1}..-1",
    ),
}

ACCEPTED = {
    # 46340**2 fits, 46341**2 does not
    "largest-square": ({"x": (0, 46_340)}, Binary("eq", Binary("mul", Var("x"), Var("x")), Const(6))),
    # comparisons and logic give 0 or 1, whatever their operands
    "scaled-truth": (
        X_Y,
        Binary("ne", Binary("mul", Binary("and", Binary("ge", Var("x"), Var("y")), Var("x")),
                            Const(INT32_MAX)), Const(0)),
    ),
    "neg-above-min": ({"m": (INT32_MIN + 1, 0)}, Binary("gt", Unary("neg", Var("m")), Const(0))),
    "not-of-min": ({"m": (INT32_MIN, 0)}, Unary("not", Var("m"))),
}


class TestIntervalPass:
    @pytest.mark.parametrize("case", list(OVERFLOWS))
    def test_subexpression_that_can_overflow_is_named(self, case):
        bounds, expr, message = OVERFLOWS[case]
        csp = ranged_instance(bounds, expr)
        for spec in intensional_specs():
            with pytest.raises(CodegenError) as info:
                transform(csp, spec)
            assert str(info.value) == message + ", outside 32-bit signed range"

    @pytest.mark.parametrize("case", list(ACCEPTED))
    def test_ranges_that_fit_are_accepted(self, case):
        bounds, expr = ACCEPTED[case]
        for spec in intensional_specs():
            assert transform(ranged_instance(bounds, expr), spec).statement_count == 1


# values near the edges of int32 and of its square root, and small ones
EDGES = (INT32_MIN, INT32_MIN + 1, -65536, -46341, -46340, 46340, 46341, 65536,
         INT32_MAX - 1, INT32_MAX)
SCALARS = st.one_of(st.integers(-3, 3), st.sampled_from(EDGES), st.integers(INT32_MIN, INT32_MAX))
BOUNDS = st.tuples(SCALARS, st.integers(0, 2)).map(lambda t: (t[0], min(t[0] + t[1], INT32_MAX)))
TREES = st.recursive(
    st.one_of(st.builds(Var, st.sampled_from(["a", "b"])), st.builds(Const, SCALARS)),
    lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(UNARY_OPS), sub),
        st.builds(Binary, st.sampled_from(BINARY_OPS), sub, sub),
    ),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(a=BOUNDS, b=BOUNDS, expr=TREES)
def test_accepted_instances_never_overflow_in_the_oracle(a, b, expr):
    """The oracle checks every intermediate value of every assignment; the
    interval pass must never accept an instance on which one leaves int32."""
    csp = ranged_instance({"a": a, "b": b}, expr)
    try:
        transform(csp, TransformSpec(Family.INTENSIONAL, 1))
    except CodegenError:
        return
    for assignment in all_assignments(csp):
        eval_expr(expr, assignment)  # Int32Overflow fails the test


def _near(edge_offset_width: tuple[int, int, int]) -> tuple[int, int]:
    edge, offset, width = edge_offset_width
    lo = max(INT32_MIN, min(edge + offset, INT32_MAX))
    return lo, min(lo + width, INT32_MAX)


# up to three values a couple of steps from an edge of int32 or of its root
EDGE_BOUNDS = st.tuples(st.sampled_from(EDGES), st.integers(-2, 2), st.integers(0, 2)).map(_near)
ARITHMETIC = st.recursive(
    st.one_of(st.builds(Var, st.sampled_from(["a", "b"])), st.builds(Const, SCALARS)),
    lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "abs"]), sub),
        st.builds(Binary, st.sampled_from(["add", "sub", "mul", "dist"]), sub, sub),
    ),
    max_leaves=4,
)
COMPARISONS = st.builds(Binary, st.sampled_from(COMPARISON_OPS), ARITHMETIC, ARITHMETIC)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(a=EDGE_BOUNDS, b=EDGE_BOUNDS, expr=COMPARISONS)
def test_accepted_instances_never_trip_the_overflow_trap(cc_template, a, b, expr):
    """What the interval pass accepts, the programs compute in int32: every
    version, compiled with the trapping signed-overflow check, runs every
    assignment without SIGILL (a VerifyError) and agrees with the oracle."""
    csp = ranged_instance({"a": a, "b": b}, expr)
    count = version_count(Family.INTENSIONAL)
    versions = [TransformSpec(Family.INTENSIONAL, v) for v in range(1, count + 1)]
    try:
        report = differential_check(csp, versions, cc_template)
    except CodegenError:
        return
    assert report.status is VerifyStatus.PASS, report.mismatches[:3]


def fresh_transform(csp: CspInstance, spec: TransformSpec) -> str:
    """The program or the CodegenError message for `spec`, from a copy of
    `csp` that no transform has seen."""
    try:
        copy = CspInstance(csp.name, csp.variables, csp.groups, csp.flatten_map)
        return transform(copy, spec).source_text
    except CodegenError as exc:
        return f"CodegenError: {exc}"


def transform_text(csp: CspInstance, spec: TransformSpec) -> str:
    try:
        return transform(csp, spec).source_text
    except CodegenError as exc:
        return f"CodegenError: {exc}"


class TestAnalysisMemo:
    def test_instances_sharing_a_name_do_not_share_an_analysis(self):
        bounds = {"x": (0, 3), "y": (0, 3)}
        first = ranged_instance(bounds, Binary("lt", Var("x"), Var("y")), name="twin")
        second = ranged_instance(
            bounds,
            Binary("or", Binary("eq", Binary("dist", Var("x"), Var("y")), Const(1)),
                   Binary("eq", Var("x"), Const(0))),
            name="twin",
        )
        for spec in intensional_specs():
            want = {id(csp): fresh_transform(csp, spec) for csp in (first, second)}
            assert want[id(first)] != want[id(second)]
            for csp in (first, second, second, first):
                assert transform_text(csp, spec) == want[id(csp)]

    def test_corpus_cells_in_reverse_order_match_fresh_transforms_and_golden(self):
        instances = {name: load_corpus(name) for names in CORPUS_BY_FAMILY.values() for name in names}
        cells = [
            (name, TransformSpec(family, version, dialect))
            for name in instances
            for family in Family
            for version in range(1, version_count(family) + 1)
            for dialect in Dialect
        ]
        golden = 0
        for name, spec in reversed(cells):
            text = transform_text(instances[name], spec)
            assert text == fresh_transform(instances[name], spec), (name, spec)
            path = golden_path(source_filename(name, spec.version_label, spec.dialect.value))
            if os.path.exists(path):
                golden += 1
                with open(path, "r", encoding="utf-8") as fh:
                    assert text == fh.read()
        assert golden == len(os.listdir(GOLDEN_DIR))

    def test_memo_keeps_no_instance_alive(self):
        csp = load_corpus("dist_alldiff")
        ref = weakref.ref(csp)
        transform(csp, TransformSpec(Family.INTENSIONAL, 1))
        del csp
        assert ref() is None
