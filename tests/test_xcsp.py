from __future__ import annotations

import pytest

from csp2c.model import AllDifferent, Binary, Const, IntensionConstraint, Polarity, Var
from csp2c.xcsp import (
    MAX_EXPR_DEPTH,
    IntensionSyntaxError,
    ParseFailure,
    Placeholder,
    parse_document,
    parse_file,
    parse_intension,
)

from conftest import corpus_path, load_corpus


class TestParseIntension:
    def test_dist_template(self):
        tree = parse_intension("eq(%0,dist(%1,%2))")
        assert tree == Binary("eq", Placeholder(0), Binary("dist", Placeholder(1), Placeholder(2)))

    def test_simple_binary(self):
        assert parse_intension("ne(x0,x1)") == Binary("ne", Var("x0"), Var("x1"))

    def test_product_sign_form(self):
        tree = parse_intension("lt(mul(sub(x0,x1),sub(x2,x3)),0)")
        assert tree == Binary(
            "lt",
            Binary("mul", Binary("sub", Var("x0"), Var("x1")), Binary("sub", Var("x2"), Var("x3"))),
            Const(0),
        )

    def test_abs_sub_normalizes_to_dist(self):
        assert parse_intension("abs(sub(y,z))") == parse_intension("dist(y,z)")

    def test_nary_add_folds_left(self):
        tree = parse_intension("add(a,b,c)")
        assert tree == Binary("add", Binary("add", Var("a"), Var("b")), Var("c"))

    def test_negative_constant(self):
        assert parse_intension("eq(x,-3)") == Binary("eq", Var("x"), Const(-3))

    def test_array_reference_tokens(self):
        tree = parse_intension("eq(y[0],dist(x[0],x[1]))")
        assert tree == Binary(
            "eq", Var("y[0]"), Binary("dist", Var("x[0]"), Var("x[1]"))
        )

    @pytest.mark.parametrize(
        "text",
        ["xor(a,b)", "eq(a", "eq(a,b))", "eq(a,b,c)", "neg(a,b)", "eq(,a)", "%"],
    )
    def test_rejects_bad_syntax(self, text):
        with pytest.raises(IntensionSyntaxError):
            parse_intension(text)


# the eight constraint shapes the benchmark families rely on
TABLE2_FORMS = [
    "eq(x0,dist(x1,x2))",
    "eq(sub(x0,x1),x2)",
    "ne(sub(x0,x1),sub(x2,x3))",
    "ge(add(x0,x1),x0)",
    "lt(mul(sub(x0,x1),sub(x2,x3)),0)",
    "ne(x0,x1)",
    "eq(x0,x1)",
]


@pytest.mark.parametrize("text", TABLE2_FORMS)
def test_supported_constraint_forms_parse(text):
    parse_intension(text)


def test_alldifferent_form_parses():
    csp = load_corpus("pigeonhole")
    (constraint,) = csp.constraints()
    assert isinstance(constraint, AllDifferent)


class TestParseDocument:
    def test_conflicts_group_document(self):
        csp = load_corpus("conflicts_group")
        assert csp.variable_ids() == ("x0", "x1", "x2", "x3", "x4", "x5")
        assert len(csp.groups) == 1
        constraints = csp.constraints()
        assert len(constraints) == 2
        assert constraints[0].polarity is Polarity.CONFLICTS
        assert constraints[0].tuples == ((0, 0, 0), (0, 1, 0))
        assert constraints[0].scope == ("x0", "x1", "x2")
        assert constraints[1].scope == ("x3", "x4", "x5")
        assert csp.flatten_map["x[4]"] == "x4"

    def test_alldifferent_document(self):
        csp = parse_document(
            """
            <instance format="XCSP3" type="CSP">
              <variables><array id="x" size="[3]"> 0..2 </array></variables>
              <constraints><allDifferent> x[0] x[1] x[2] </allDifferent></constraints>
            </instance>
            """
        )
        (constraint,) = csp.constraints()
        assert constraint == AllDifferent(("x0", "x1", "x2"))

    def test_determinism(self):
        text = open(corpus_path("valid", "dist_alldiff"), encoding="utf-8").read()
        assert parse_document(text) == parse_document(text)

    def test_arity_violation_is_error(self):
        with pytest.raises(ParseFailure, match="arity"):
            parse_file(corpus_path("invalid", "tuple_arity"))

    def test_unsupported_element_named(self):
        with pytest.raises(ParseFailure, match="<sum>"):
            parse_file(corpus_path("invalid", "unsupported_element"))

    def test_malformed_xml(self):
        with pytest.raises(ParseFailure, match="malformed XML"):
            parse_file(corpus_path("invalid", "malformed"))

    def test_wildcards_rejected(self):
        with pytest.raises(ParseFailure, match="wildcard"):
            parse_file(corpus_path("invalid", "wildcard_tuple"))

    def test_diagnostics_have_location(self):
        try:
            parse_file(corpus_path("invalid", "unsupported_element"))
        except ParseFailure as exc:
            (diag,) = exc.diagnostics
            assert diag.severity == "error"
            assert "/instance" in diag.path and "/sum" in diag.path
            assert diag.line is not None and diag.line > 1
        else:
            pytest.fail("expected ParseFailure")

    def test_rejected_documents_always_diagnose(self, manifest):
        for name in manifest["invalid"]:
            with pytest.raises(ParseFailure) as err:
                parse_file(corpus_path("invalid", name))
            assert err.value.diagnostics

    def test_whole_corpus_against_manifest(self, manifest):
        for name, want in manifest["valid"].items():
            csp = parse_file(corpus_path("valid", name))
            assert len(csp.variables) == want["variables"], name
            assert len(csp.groups) == want["groups"], name
            assert len(csp.constraints()) == want["constraints"], name
        for name, needle in manifest["invalid"].items():
            with pytest.raises(ParseFailure, match=None) as err:
                parse_file(corpus_path("invalid", name))
            assert needle in str(err.value), name

    def test_whole_array_reference_expands(self):
        csp = load_corpus("diff_triangle")
        alldiff = csp.constraints()[0]
        assert alldiff.scope == ("x0", "x1", "x2")

    def test_unary_table_bare_values(self):
        csp = parse_document(
            """
            <instance format="XCSP3" type="CSP">
              <variables><var id="u"> 0..9 </var></variables>
              <constraints>
                <extension><list> u </list><supports> 1 3 5 </supports></extension>
              </constraints>
            </instance>
            """
        )
        (constraint,) = csp.constraints()
        assert constraint.tuples == ((1,), (3,), (5,))

    def test_multidimensional_array_unsupported(self):
        with pytest.raises(ParseFailure, match="one dimension"):
            parse_document(
                """
                <instance format="XCSP3" type="CSP">
                  <variables><array id="x" size="[2][2]"> 0 1 </array></variables>
                  <constraints></constraints>
                </instance>
                """
            )

    def test_placeholder_outside_group_rejected(self):
        with pytest.raises(ParseFailure, match="placeholder"):
            parse_document(
                """
                <instance format="XCSP3" type="CSP">
                  <variables><var id="x"> 0 1 </var></variables>
                  <constraints><intension> eq(%0,1) </intension></constraints>
                </instance>
                """
            )

    def test_empty_tuple_list_rejected(self):
        with pytest.raises(ParseFailure, match="empty tuple list"):
            parse_document(
                """
                <instance format="XCSP3" type="CSP">
                  <variables><var id="x"> 0 1 </var></variables>
                  <constraints>
                    <extension><list> x </list><supports> </supports></extension>
                  </constraints>
                </instance>
                """
            )


def document(variables: str, constraints: str) -> str:
    return (
        '<instance format="XCSP3" type="CSP">'
        f"<variables>{variables}</variables><constraints>{constraints}</constraints>"
        "</instance>"
    )


SIX = '<array id="x" size="[6]"> 0..3 </array>'
FIG_TEMPLATE = (
    "<extension><list> %0 %1 %2 </list>"
    "<conflicts> (0,0,0) (0,1,0) </conflicts></extension>"
)


def fig_group(*rows: str) -> str:
    return "<group>" + FIG_TEMPLATE + "".join(f"<args> {r} </args>" for r in rows) + "</group>"


def diagnostics(text: str) -> list[str]:
    with pytest.raises(ParseFailure) as err:
        parse_document(text)
    return [str(d) for d in err.value.diagnostics]


class TestGroupExpansion:
    """The reader turns each <group> into one concrete constraint per <args> row."""

    def test_conflicts_group_two_rows(self):
        csp = parse_document(document(SIX, fig_group("x[0] x[1] x[2]", "x[3] x[4] x[5]")))
        (group,) = csp.groups
        assert [c.scope for c in group] == [("x0", "x1", "x2"), ("x3", "x4", "x5")]
        assert all(c.polarity is Polarity.CONFLICTS for c in group)
        assert all(c.tuples == ((0, 0, 0), (0, 1, 0)) for c in group)
        # the rows share the one parsed tuple list
        assert group[0].tuples is group[1].tuples

    def test_lone_constraint_is_a_group_of_one(self):
        csp = parse_document(document(SIX, "<allDifferent> x[0] x[1] </allDifferent>"))
        assert csp.groups == ((AllDifferent(("x0", "x1")),),)

    def test_intension_template(self):
        csp = parse_document(
            document(
                SIX,
                "<group><intension> eq(%0,dist(%1,%2)) </intension>"
                "<args> x[4] x[0] x[1] </args><args> x[5] x[1] x[2] </args></group>",
            )
        )
        first, second = csp.constraints()
        assert first.expr == Binary("eq", Var("x4"), Binary("dist", Var("x0"), Var("x1")))
        assert second.expr == Binary("eq", Var("x5"), Binary("dist", Var("x1"), Var("x2")))

    def test_arity_mismatch_names_group_and_vector(self):
        text = document(SIX, fig_group("x[0] x[1] x[2]") + fig_group("x[0] x[1]"))
        assert diagnostics(text) == [
            "error at /instance[1]/constraints[1]/group[2] (line 1): "
            "group#2: args vector ('x0', 'x1') has 2 entries, template expects 3"
        ]

    def test_deterministic_and_order_preserving(self):
        text = document(SIX, fig_group("x[3] x[4] x[5]", "x[0] x[1] x[2]"))
        csp = parse_document(text)
        assert csp == parse_document(text)
        assert [c.scope for c in csp.constraints()] == [("x3", "x4", "x5"), ("x0", "x1", "x2")]

    def test_total_count_matches_args_rows(self):
        rows = [f"x[{i}] x[{(i + 1) % 6}] x[{(i + 2) % 6}]" for i in range(5)]
        csp = parse_document(document(SIX, fig_group(*rows)))
        assert [len(g) for g in csp.groups] == [5]
        assert len(csp.constraints()) == 5

    def test_int_argument_becomes_const(self):
        csp = parse_document(
            document(
                SIX,
                "<group><intension> ge(%0,%1) </intension><args> x[0] 3 </args></group>",
            )
        )
        assert csp.constraints() == [IntensionConstraint(Binary("ge", Var("x0"), Const(3)))]

    @pytest.mark.parametrize(
        "group, where, message",
        [
            (
                "<group><intension> eq(%0,%2) </intension><args> x[0] x[1] x[2] </args></group>",
                "group[1]",
                "placeholder indices are not contiguous from %0: (0, 2)",
            ),
            (
                "<group><allDifferent> %0 %1 </allDifferent><args> x[] </args></group>",
                "group[1]",
                "group#1: args vector ('x0', 'x1', 'x2', 'x3', 'x4', 'x5') has 6 entries, "
                "template expects 2",
            ),
            (
                "<group><allDifferent> %0 %1 </allDifferent><args> x[0] 3 </args></group>",
                "group[1]",
                "integer argument 3 used as a scope variable",
            ),
            (
                "<group><extension><list> %0 %1 </list><conflicts> (0,0) </conflicts>"
                "</extension><args> x[1] x[1] </args></group>",
                "group[1]",
                "table scope has repeated variables: ('x1', 'x1')",
            ),
            (
                "<group><extension><list> x[0] x[1] </list><supports> (0,0) </supports>"
                "</extension><args> x[0] x[1] </args></group>",
                "group[1]",
                "group#1: args given for a template without placeholders",
            ),
            (
                "<group><allDifferent> %0 x[0] x[0] </allDifferent><args> x[1] </args></group>",
                "group[1]/allDifferent[1]",
                "allDifferent scope has repeated variables: ('%0', 'x0', 'x0')",
            ),
            (
                "<group><allDifferent> %0 %0 </allDifferent><args> x[1] </args></group>",
                "group[1]/allDifferent[1]",
                "allDifferent scope has repeated variables: ('%0', '%0')",
            ),
        ],
        ids=[
            "gap", "row-too-long", "int-in-scope", "row-repeats", "no-placeholder",
            "template-repeats", "slot-repeats",
        ],
    )
    def test_group_diagnostics(self, group, where, message):
        assert diagnostics(document(SIX, group)) == [
            f"error at /instance[1]/constraints[1]/{where} (line 1): {message}"
        ]


class TestLinearFrontEnd:
    def test_sibling_indices_count_each_tag(self):
        text = document(
            SIX,
            "<intension> eq(x[0],1) </intension><allDifferent> x[0] x[1] </allDifferent>"
            "<intension> eq(x[1],1) </intension><intension> eq(y,1) </intension>",
        )
        assert diagnostics(text) == [
            "error at /instance[1]/constraints[1]/intension[3] (line 1): "
            "reference to undeclared variable 'y'"
        ]

    def test_whole_array_is_its_own_members_in_order(self):
        csp = parse_document(
            document(
                '<array id="x1" size="[2]"> 0..3 </array><array id="x" size="[3]"> 0..3 </array>',
                "<allDifferent> x[] </allDifferent><allDifferent> x1[] </allDifferent>",
            )
        )
        assert [c.scope for c in csp.constraints()] == [("x0", "x1", "x2"), ("x10", "x11")]


class TestFlattenedNames:
    def test_clashing_arrays_get_distinct_names(self):
        csp = parse_document(
            document(
                '<array id="x" size="[12]"> 0..3 </array><array id="x1" size="[1]"> 0..3 </array>',
                "<intension> ne(x[10],x1[0]) </intension>",
            )
        )
        assert len(csp.variables) == 13
        assert len(set(csp.variable_ids())) == 13
        (constraint,) = csp.constraints()
        left, right = constraint.scope
        assert left != right
        assert (left, right) == (csp.flatten_map["x[10]"], csp.flatten_map["x1[0]"])
        assert (left, right) == ("x10", "x1_0")

    def test_scalar_ids_keep_their_names(self):
        csp = parse_document(
            document(
                '<array id="x" size="[2]"> 0 1 </array><var id="x1"> 5 6 </var>',
                "<intension> lt(x[1],x1) </intension>",
            )
        )
        assert csp.variable_ids() == ("x0", "x_1", "x1")
        assert csp.constraints()[0].scope == ("x_1", "x1")

    def test_redeclared_array_is_still_a_duplicate(self):
        text = document(
            '<array id="x" size="[1]"> 0 1 </array><array id="x" size="[1]"> 0 1 </array>', ""
        )
        assert diagnostics(text) == [
            "error at /instance[1]/variables[1]/array[2] (line 1): duplicate variable id 'x0'"
        ]


class TestOnePassIntension:
    """Each <intension> is tokenized by one scan and its leaves resolved as
    the tree is built."""

    def test_one_var_per_token_per_document(self):
        csp = parse_document(
            document(SIX, "<intension> eq(x[1],x[2]) </intension><intension> lt(x[2],x[1]) </intension>")
        )
        first, second = csp.constraints()
        assert first.expr.left is second.expr.right and first.expr.right is second.expr.left
        assert first.expr.left == Var("x1")

    @pytest.mark.parametrize(
        "text,message",
        [
            # a syntax error stands alone: the leaves before it report nothing
            ("eq(y,x[0]))", "bad intension expression: trailing input after expression: ')'"),
            ("eq(y,x[0]", "bad intension expression: unexpected end of expression"),
            # an unexpected character is found before the tree is built
            ("eq(y,x[0]$)", "bad intension expression: unexpected character '$'"),
            ("eq(y,%%1)", "bad intension expression: unexpected character '%'"),
        ],
    )
    def test_syntax_errors_hide_leaf_errors(self, text, message):
        assert diagnostics(document(SIX, f"<intension> {text} </intension>")) == [
            f"error at /instance[1]/constraints[1]/intension[1] (line 1): {message}"
        ]

    def test_leaf_errors_are_reported_left_to_right(self):
        where = "error at /instance[1]/constraints[1]/intension[1] (line 1)"
        assert diagnostics(document(SIX, "<intension> eq(add(y,%1),x[9]) </intension>")) == [
            f"{where}: reference to undeclared variable 'y'",
            f"{where}: placeholder %1 outside a <group> template",
            f"{where}: reference to undeclared array element 'x[9]'",
        ]


def nested(depth: int) -> str:
    """An expression `depth` operators deep, written `depth` levels deep."""
    return "neg(" * depth + "x" + ")" * depth


def folded(depth: int) -> str:
    """An expression `depth` operators deep, written 2 levels deep: n-ary
    `add` folds into one level per argument after the first."""
    return "ge(add(" + ",".join(["x"] * depth) + "),0)"


class TestDepthLimit:
    """An intension more than MAX_EXPR_DEPTH operators deep is a diagnostic,
    so the recursive evaluators behind it never exhaust Python's stack."""

    @pytest.mark.parametrize("text", [nested, folded], ids=["nested", "folded"])
    def test_the_limit_is_accepted_and_one_more_is_rejected(self, text):
        parse_intension(text(MAX_EXPR_DEPTH))
        with pytest.raises(IntensionSyntaxError, match=f"limit of {MAX_EXPR_DEPTH} operators"):
            parse_intension(text(MAX_EXPR_DEPTH + 1))

    def test_far_deeper_nesting_is_rejected_before_the_stack_runs_out(self):
        with pytest.raises(IntensionSyntaxError, match="limit"):
            parse_intension(nested(50_000))

    def test_abs_of_sub_counts_as_written(self):
        """abs(sub(a,b)) becomes one dist node, but the parser nests twice."""
        half = MAX_EXPR_DEPTH // 2
        parse_intension("abs(sub(" * half + "x" + ",0))" * half)
        with pytest.raises(IntensionSyntaxError, match="limit"):
            parse_intension("abs(sub(" * (half + 1) + "x" + ",0))" * (half + 1))

    def test_diagnostic_names_the_element_and_the_limit(self):
        text = document('<var id="x"> 0 1 </var>', f"<intension> {folded(1200)} </intension>")
        assert diagnostics(text) == [
            "error at /instance[1]/constraints[1]/intension[1] (line 1): bad intension "
            f"expression: nested deeper than the limit of {MAX_EXPR_DEPTH} operators"
        ]

    def test_a_template_at_the_limit_is_filled(self):
        template = "ge(add(" + ",".join(["%0"] * (MAX_EXPR_DEPTH - 1)) + "),%1)"
        csp = parse_document(
            document(
                '<var id="x"> 0 1 </var><var id="y"> 0 1 </var>',
                f"<group><intension> {template} </intension>"
                "<args> x y </args><args> y x </args></group>",
            )
        )
        assert [c.scope for c in csp.constraints()] == [("x", "y"), ("y", "x")]
