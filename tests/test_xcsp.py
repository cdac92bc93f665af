from __future__ import annotations

import gc
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from csp2c.model import AllDifferent, Binary, Const, IntensionConstraint, Polarity, Var
from csp2c.xcsp import (
    MAX_EXPR_DEPTH,
    IntensionSyntaxError,
    ParseFailure,
    _tokenize,
    parse_document,
    parse_file,
    parse_intension,
)

from conftest import CORPUS_DIR, corpus_path, load_corpus


class TestParseIntension:
    def test_dist_template(self):
        tree = parse_intension("eq(%0,dist(%1,%2))")
        assert tree == Binary("eq", Var("%0"), Binary("dist", Var("%1"), Var("%2")))

    def test_a_placeholder_is_a_variable_leaf(self):
        assert parse_intension("eq(%0,x)") == Binary("eq", Var("%0"), Var("x"))

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


# a <group> intension template with unary operators and a constant, over
# three variables in -2..2 (125 assignments)
UNARY_VARS = '<array id="x" size="[3]"> -2..2 </array>'
UNARY_ROWS = [(0, 1), (1, 2), (2, 0)]
UNARY_GROUP = document(
    UNARY_VARS,
    "<group><intension> not(eq(neg(%0),add(%1,1))) </intension>"
    + "".join(f"<args> x[{a}] x[{b}] </args>" for a, b in UNARY_ROWS)
    + "</group>",
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

    def test_unary_template_rows_equal_the_constraints_written_out(self):
        by_hand = document(
            UNARY_VARS,
            "".join(
                f"<intension> not(eq(neg(x[{a}]),add(x[{b}],1))) </intension>"
                for a, b in UNARY_ROWS
            ),
        )
        assert parse_document(UNARY_GROUP).constraints() == parse_document(by_hand).constraints()

    def test_arity_mismatch_names_group_and_vector(self):
        text = document(SIX, fig_group("x[0] x[1] x[2]") + fig_group("x[0] x[1]"))
        assert diagnostics(text) == [
            "error at /instance[1]/constraints[1]/group[2] (line 1): "
            "args vector ('x0', 'x1') has 2 entries, template expects 3"
        ]

    def test_a_row_diagnostic_is_located_by_the_group_path_alone(self):
        text = (
            f"<instance><variables>{SIX}</variables>"
            f"<constraints>{fig_group('x[0] x[1] x[2]')}</constraints>"
            f"<constraints>{fig_group('x[0] x[1]')}</constraints></instance>"
        )
        assert diagnostics(text) == [
            at(
                "/constraints[2]/group[1]",
                "args vector ('x0', 'x1') has 2 entries, template expects 3",
            )
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
        "constraints, where, token",
        [
            ("<group><allDifferent> %00 %1 </allDifferent><args> x[0] x[1] </args></group>",
             "group[1]/allDifferent[1]", "%00"),
            ("<group><extension><list> %0 %01 </list><supports> (0,0) </supports></extension>"
             "<args> x[0] x[1] </args></group>", "group[1]/extension[1]/list[1]", "%01"),
            ("<group><intension> eq(%01,%0) </intension><args> x[0] x[1] </args></group>",
             "group[1]/intension[1]", "%01"),
            ("<intension> eq(%01,x[0]) </intension>", "intension[1]", "%01"),
            ("<allDifferent> %010 x[0] </allDifferent>", "allDifferent[1]", "%010"),
        ],
        ids=["alldifferent", "table", "intension", "lone-intension", "lone-alldifferent"],
    )
    def test_a_slot_with_a_leading_zero_is_rejected_as_written(self, constraints, where, token):
        assert diagnostics(document(SIX, constraints)) == [
            f"error at /instance[1]/constraints[1]/{where} (line 1): "
            f"placeholder {token} has a leading zero"
        ]

    def test_slots_0_and_10_are_read(self):
        def sum_of(pattern):
            return ",".join(pattern.format(i) for i in range(10))

        scope = " ".join(f"%{i}" for i in range(11))
        csp = parse_document(
            document(
                '<array id="y" size="[11]"> 0..20 </array>',
                f"<group><allDifferent> {scope} </allDifferent><args> y[] </args></group>"
                f"<group><intension> eq(%10,add({sum_of('%{}')})) </intension>"
                "<args> y[] </args></group>",
            )
        )
        assert csp.constraints() == [
            AllDifferent(tuple(f"y{i}" for i in range(11))),
            IntensionConstraint(parse_intension(f"eq(y10,add({sum_of('y{}')}))")),
        ]

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
                "args vector ('x0', 'x1', 'x2', 'x3', 'x4', 'x5') has 6 entries, "
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
                "args given for a template without placeholders",
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


# the intension templates of the property below: an n-ary operator,
# abs(sub(..)) and a variable of the template's own
INTENSION_TEMPLATES = ["le(add(%0,%1,%2),%3)", "ne(abs(sub(%0,%1)),%2)", "eq(%1,mul(%0,x[5]))"]
_SLOT_RE = re.compile(r"%(\d+)")


@st.composite
def templated_groups(draw):
    """A constraint template over SIX, of each kind, and its args rows, each
    a tuple of the texts its slots take."""
    kind = draw(st.sampled_from(["supports", "conflicts", "allDifferent", "intension"]))
    if kind == "intension":
        expr = draw(st.sampled_from(INTENSION_TEMPLATES))
        template = f"<intension> {expr} </intension>"
        arity = len(set(_SLOT_RE.findall(expr)))
        arg = st.one_of(st.integers(0, 5).map("x[{}]".format), st.integers(-3, 3).map(str))
        row = st.tuples(*[arg] * arity)
    else:
        arity = draw(st.integers(2 if kind == "allDifferent" else 1, 4))
        scope = " ".join(f"%{i}" for i in draw(st.permutations(range(arity))))
        if kind == "allDifferent":
            template = f"<allDifferent> {scope} </allDifferent>"
        else:
            table = draw(st.lists(st.tuples(*[st.integers(0, 3)] * arity), min_size=1, max_size=4))
            tuples = " ".join(f"({','.join(map(str, t))})" for t in table)
            template = f"<extension><list> {scope} </list><{kind}> {tuples} </{kind}></extension>"
        # distinct variables, as a table or allDifferent scope needs
        row = st.permutations([f"x[{i}]" for i in range(6)]).map(lambda p: tuple(p[:arity]))
    return template, draw(st.lists(row, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(templated_groups())
def test_a_group_equals_its_rows_written_out(group):
    """A <group> gives exactly the constraints of its template with each
    args row substituted as text into a lone element."""
    template, rows = group
    args = "".join(f"<args> {' '.join(row)} </args>" for row in rows)
    by_hand = "".join(_SLOT_RE.sub(lambda m: row[int(m[1])], template) for row in rows)
    assert (
        parse_document(document(SIX, f"<group>{template}{args}</group>")).constraints()
        == parse_document(document(SIX, by_hand)).constraints()
    )


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

    def test_an_index_is_looked_up_as_written(self):
        """x[03] is not x[3]: an index with a leading zero names no element."""
        assert diagnostics(document(SIX, "<intension> eq(x[03],1) </intension>")) == [
            at(f"{C}/intension[1]", "reference to undeclared array element 'x[03]'")
        ]

    def test_redeclared_array_is_still_a_duplicate(self):
        text = document(
            '<array id="x" size="[1]"> 0 1 </array><array id="x" size="[1]"> 0 1 </array>', ""
        )
        assert diagnostics(text) == [
            "error at /instance[1]/variables[1]/array[2] (line 1): duplicate variable id 'x0'"
        ]


# one token of the intension syntax: an integer, a `%i` placeholder, a name
# or punctuation
A_TOKEN = re.compile(r"-?\d+|%\d+|[A-Za-z_][A-Za-z0-9_]*(?:\[\d+\])*|[(),]")


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

    def test_one_const_per_token_per_document(self):
        csp = parse_document(
            document(
                SIX,
                "<intension> eq(add(x[0],3),3) </intension>"
                "<group><intension> ne(%0,-2) </intension><args> x[1] </args><args> x[2] </args>"
                "</group><intension> lt(x[3],-2) </intension>",
            )
        )
        first, second, third, fourth = (c.expr for c in csp.constraints())
        assert first.left.right is first.right and first.right == Const(3)
        # a template's constant is every row's, and a lone constraint's too
        assert second.right is third.right is fourth.right and fourth.right == Const(-2)

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

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="ab_x019-%(),[] $#\t\n.\u00e9", max_size=16))
    def test_tokens_spell_the_text_or_a_bad_character_is_named(self, text):
        """The tokens spell the text without its whitespace, or the message
        names a character of the text at which no token starts."""
        try:
            tokens = _tokenize(text)
        except IntensionSyntaxError as exc:
            assert any(
                str(exc) == f"unexpected character {char!r}"
                and not char.isspace()
                and A_TOKEN.match(text, i) is None
                for i, char in enumerate(text)
            ), (text, str(exc))
        else:
            assert all(A_TOKEN.fullmatch(token) for token in tokens)
            assert "".join(tokens) == "".join(text.split())

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


def at(where: str, message: str) -> str:
    """A diagnostic's text on line 1 under /instance[1]."""
    return f"error at /instance[1]{where} (line 1): {message}"


V, C = "/variables[1]", "/constraints[1]"


def vars_doc(variables: str) -> str:
    return document(SIX + variables, "")


def table_doc(tuples: str) -> str:
    return document(SIX, f"<extension><list> x[0] x[1] </list><supports> {tuples} </supports></extension>")


# Every diagnostic that rejects an element, one document each. A rejection
# the reader adds needs a row here (tests/test_imports.py checks it).
DIAGNOSTIC_TABLE = {
    # <var>, <array> and domains
    "var-without-id": (vars_doc("<var> 0 1 </var>"), at(f"{V}/var[1]", "<var> without id")),
    "var-type": (
        vars_doc('<var id="s" type="symbolic"> a b </var>'),
        at(f"{V}/var[1]", "unsupported var type 'symbolic'"),
    ),
    "variables-child": (
        vars_doc('<matrix id="m"/>'), at(f"{V}/matrix[1]", "unsupported XCSP3 element <matrix>")
    ),
    "array-without-id": (
        vars_doc('<array size="[2]"> 0 1 </array>'), at(f"{V}/array[2]", "<array> without id")
    ),
    "array-size": (
        vars_doc('<array id="y" size="[2][2]"> 0 1 </array>'),
        at(f"{V}/array[2]", "unsupported array size '[2][2]' (only one dimension)"),
    ),
    "array-empty": (
        vars_doc('<array id="y" size="[0]"> 0 1 </array>'),
        at(f"{V}/array[2]", "array 'y' of size 0 declares no variables"),
    ),
    "array-children": (
        vars_doc('<array id="y" size="[2]"><domain for="y[0]"> 0 1 </domain></array>'),
        at(f"{V}/array[2]", "unsupported <array> with child elements"),
    ),
    "domain-token": (
        vars_doc('<var id="v"> 0 a </var>'), at(f"{V}/var[1]", "cannot parse domain token 'a'")
    ),
    "domain-range": (vars_doc('<var id="v"> 3..1 </var>'), at(f"{V}/var[1]", "bad domain range 3..1")),
    "domain-empty": (vars_doc('<var id="v"> </var>'), at(f"{V}/var[1]", "empty domain")),
    "duplicate-id": (
        vars_doc('<var id="v"> 0 </var><var id="v"> 1 </var>'),
        at(f"{V}/var[2]", "duplicate variable id 'v'"),
    ),
    # scopes
    "scope-placeholder": (
        document(SIX, "<allDifferent> %0 x[1] </allDifferent>"),
        at(f"{C}/allDifferent[1]", "placeholder %0 outside a <group> template"),
    ),
    "scope-integer": (
        document(SIX, "<allDifferent> x[0] 3 </allDifferent>"),
        at(f"{C}/allDifferent[1]", "integer 3 where a variable is required"),
    ),
    "scope-token": (
        document(SIX, "<allDifferent> x[0] x-1 </allDifferent>"),
        at(f"{C}/allDifferent[1]", "cannot parse variable token 'x-1'"),
    ),
    "scope-undeclared-variable": (
        document(SIX, "<allDifferent> x[0] y </allDifferent>"),
        at(f"{C}/allDifferent[1]", "reference to undeclared variable 'y'"),
    ),
    "scope-undeclared-element": (
        document(SIX, "<allDifferent> x[0] x[6] </allDifferent>"),
        at(f"{C}/allDifferent[1]", "reference to undeclared array element 'x[6]'"),
    ),
    "scope-undeclared-array": (
        document(SIX, "<allDifferent> y[] </allDifferent>"),
        at(f"{C}/allDifferent[1]", "reference to undeclared array 'y'"),
    ),
    "scope-empty": (
        document(SIX, "<allDifferent> </allDifferent>"),
        at(f"{C}/allDifferent[1]", "empty variable list"),
    ),
    # tuples
    "tuple-wildcard": (
        table_doc("(0,*)"),
        at(f"{C}/extension[1]/supports[1]", "wildcard (*) tuples are not supported"),
    ),
    "tuple-value": (
        table_doc("(0,a)"), at(f"{C}/extension[1]/supports[1]", "cannot parse tuple value 'a'")
    ),
    "tuple-stray": (
        table_doc("(0,1) 2"), at(f"{C}/extension[1]/supports[1]", "stray text in tuple list: '2'")
    ),
    "tuple-empty": (table_doc(""), at(f"{C}/extension[1]/supports[1]", "empty tuple list")),
    "tuple-arity": (
        table_doc("(0,1,2)"),
        at(f"{C}/extension[1]/supports[1]", "tuple (0, 1, 2) has arity 3, scope has arity 2"),
    ),
    # constraint elements
    "extension-two-lists": (
        document(
            SIX,
            "<extension><list> x[0] </list><supports> 0 </supports>"
            "<conflicts> 1 </conflicts></extension>",
        ),
        at(f"{C}/extension[1]/conflicts[1]", "extension has more than one tuple list"),
    ),
    "extension-child": (
        document(SIX, "<extension><list> x[0] </list><supports> 0 </supports><except/></extension>"),
        at(f"{C}/extension[1]/except[1]", "unsupported XCSP3 element <except>"),
    ),
    "extension-without-list": (
        document(SIX, "<extension><supports> 0 </supports></extension>"),
        at(f"{C}/extension[1]", "<extension> without <list>"),
    ),
    "extension-without-tuples": (
        document(SIX, "<extension><list> x[0] </list></extension>"),
        at(f"{C}/extension[1]", "<extension> without <supports> or <conflicts>"),
    ),
    "intension-children": (
        document(SIX, "<intension><function> eq(x[0],1) </function></intension>"),
        at(f"{C}/intension[1]", "unsupported <intension> with child elements"),
    ),
    "intension-arguments": (
        document(SIX, "<intension> eq(add(x[0]),1) </intension>"),
        at(f"{C}/intension[1]", "bad intension expression: add takes at least 2 arguments"),
    ),
    "intension-end": (
        document(SIX, "<intension> eq(x, </intension>"),
        at(f"{C}/intension[1]", "bad intension expression: unexpected end of expression"),
    ),
    "alldifferent-children": (
        document(SIX, "<allDifferent><list> x[0] x[1] </list></allDifferent>"),
        at(f"{C}/allDifferent[1]", "unsupported <allDifferent> with child elements"),
    ),
    "constraint-element": (
        document(SIX, "<sum><list> x[0] x[1] </list></sum>"),
        at(f"{C}/sum[1]", "unsupported XCSP3 element <sum>"),
    ),
    # groups
    "group-two-templates": (
        document(
            SIX,
            "<group><allDifferent> %0 %1 </allDifferent><allDifferent> %1 %0 </allDifferent>"
            "<args> x[0] x[1] </args></group>",
        ),
        at(f"{C}/group[1]/allDifferent[2]", "group has more than one constraint template"),
    ),
    "group-without-template": (
        document(SIX, "<group><args> x[0] x[1] </args></group>"),
        at(f"{C}/group[1]", "<group> without a constraint template"),
    ),
    "group-without-args": (
        document(SIX, "<group><allDifferent> %0 %1 </allDifferent></group>"),
        at(f"{C}/group[1]", "<group> without <args>"),
    ),
    "group-slot-gap": (
        document(
            SIX, "<group><intension> eq(%0,%2) </intension><args> x[0] x[1] x[2] </args></group>"
        ),
        at(f"{C}/group[1]", "placeholder indices are not contiguous from %0: (0, 2)"),
    ),
    "group-without-slots": (
        document(SIX, "<group><allDifferent> x[0] x[1] </allDifferent><args> x[2] </args></group>"),
        at(f"{C}/group[1]", "args given for a template without placeholders"),
    ),
    "group-slot-leading-zero": (
        document(SIX, "<group><allDifferent> %00 %1 </allDifferent><args> x[0] x[1] </args></group>"),
        at(f"{C}/group[1]/allDifferent[1]", "placeholder %00 has a leading zero"),
    ),
    "group-short-row": (
        document(SIX, "<group><allDifferent> %0 %1 </allDifferent><args> x[0] </args></group>"),
        at(f"{C}/group[1]", "args vector ('x0',) has 1 entries, template expects 2"),
    ),
    # the document
    "root": ("<csp/>", "error at /csp[1] (line 1): document element must be <instance>, found <csp>"),
    "instance-type": (
        '<instance type="COP"><variables/></instance>',
        at("", "unsupported instance type 'COP' (only CSP)"),
    ),
    "instance-section": (
        '<instance><variables><var id="v"> 0 </var></variables><annotations/></instance>',
        at("/annotations[1]", "unsupported XCSP3 element <annotations>"),
    ),
    "missing-variables": ("<instance><constraints/></instance>", at("", "missing <variables> section")),
    "no-variables": ("<instance><variables/></instance>", at("", "instance declares no variables")),
}


@pytest.mark.parametrize("text, expected", DIAGNOSTIC_TABLE.values(), ids=DIAGNOSTIC_TABLE.keys())
def test_each_rejection_is_one_located_diagnostic(text, expected):
    assert diagnostics(text) == [expected]


class TestOneFaultOneDiagnostic:
    """A rejected <var> or <array> is reported once: an element that
    references it is rejected with no message of its own."""

    def test_references_to_a_rejected_array_add_nothing(self):
        text = document(
            '<array id="x" size="[2]"> 5..2 </array><var id="y"> 0..1 </var>',
            "<intension> eq(x[0],y) </intension><allDifferent> x[] </allDifferent>"
            "<group><intension> ne(%0,%1) </intension>"
            "<args> x[0] y </args><args> x[1] y </args></group>",
        )
        assert diagnostics(text) == [at(f"{V}/array[1]", "bad domain range 5..2")]

    def test_an_empty_array_is_reported_where_it_is_declared(self):
        text = document(
            '<var id="y"> 0 1 </var><array id="x" size="[0]"> 0..1 </array>',
            "<allDifferent> x[] y </allDifferent>",
        )
        assert diagnostics(text) == [
            at(f"{V}/array[1]", "array 'x' of size 0 declares no variables")
        ]

    def test_a_rejected_variable_is_not_reported_missing(self):
        assert diagnostics(document('<var id="x"> 5..2 </var>', "")) == [
            at(f"{V}/var[1]", "bad domain range 5..2")
        ]

    def test_references_to_a_rejected_scalar_add_nothing(self):
        text = document(
            SIX + '<var id="y" type="symbolic"> a b </var>',
            "<extension><list> x[0] y </list><supports> (0,0) </supports></extension>"
            "<intension> eq(y,1) </intension><allDifferent> y x[1] </allDifferent>"
            "<allDifferent> x[1] z </allDifferent>"
            "<group><intension> eq(%0,y) </intension><args> x[0] </args></group>",
        )
        # `z` was never declared, so its reference is still reported
        assert diagnostics(text) == [
            at(f"{V}/var[1]", "unsupported var type 'symbolic'"),
            at(f"{C}/allDifferent[2]", "reference to undeclared variable 'z'"),
        ]


class TestDocumentOrder:
    """The reader parses each section and each constraint element at its end
    tag; what it reports is what a reader of the whole document would."""

    @pytest.mark.parametrize(
        "start, end, expected",
        [
            ('<instance type="COP">', "</instance>",
             at("", "unsupported instance type 'COP' (only CSP)")),
            ("<csp>", "</csp>",
             "error at /csp[1] (line 1): document element must be <instance>, found <csp>"),
        ],
        ids=["type", "tag"],
    )
    def test_a_rejected_document_element_is_the_one_diagnostic(self, start, end, expected):
        text = (
            f"{start}<variables>{SIX}<var> 0 1 </var></variables>"
            f"<constraints><intension> eq(y,1) </intension></constraints><foo/>{end}"
        )
        assert diagnostics(text) == [expected]

    def test_malformed_xml_after_bad_constraints_is_the_one_diagnostic(self):
        text = document(SIX, "<intension> eq(y,1) </intension><allDifferent> z </allDifferent>")
        found = diagnostics(text.replace("</instance>", "</instanc>"))
        assert len(found) == 1
        assert found[0].startswith("error at / (line 1): malformed XML: mismatched tag")

    ELEVEN = '<array id="x" size="[11]"> 0..1 </array>'

    def test_a_later_variables_section_cannot_rename_an_earlier_array_element(self):
        """XCSP3 allows one <variables> section: x[10] is x10 when its
        section ends, and a later <var id="x10"> is a duplicate."""
        text = (
            f'<instance type="CSP"><variables>{self.ELEVEN}</variables>'
            '<variables><var id="x10"> 0 1 </var></variables>'
            "<constraints><intension> lt(x[10],x10) </intension></constraints></instance>"
        )
        assert diagnostics(text) == [
            at("/variables[2]/var[1]", "duplicate variable id 'x10'")
        ]

    def test_two_variables_sections_without_a_clash_parse(self):
        text = (
            f'<instance type="CSP"><variables>{self.ELEVEN}</variables>'
            '<variables><var id="y"> 0 1 </var></variables>'
            "<constraints><intension> lt(x[10],y) </intension></constraints></instance>"
        )
        assert parse_document(text).constraints()[0].scope == ("x10", "y")

    def test_an_unsupported_section_reports_only_itself(self):
        """The constraints after it still resolve x[10] to x_10 next to
        <var id="x10">, which x10 is not, or allDifferent would repeat it."""
        text = (
            f'<instance type="CSP"><variables>{self.ELEVEN}<var id="x10"> 0 1 </var></variables>'
            "<objectives/><constraints><allDifferent> x[10] x10 </allDifferent></constraints>"
            "</instance>"
        )
        assert diagnostics(text) == [at("/objectives[1]", "unsupported XCSP3 element <objectives>")]
        text = text.replace("<objectives/>", "")
        assert parse_document(text).constraints()[0].scope == ("x_10", "x10")

    def test_an_unsupported_section_before_variables_is_reported_first(self):
        text = document('<var id="y"> a </var>', "<intension> eq(y,1) </intension>")
        assert diagnostics(text.replace("<variables>", "<objectives/><variables>")) == [
            at("/objectives[1]", "unsupported XCSP3 element <objectives>"),
            at("/variables[1]/var[1]", "cannot parse domain token 'a'"),
        ]

    def test_constraints_before_variables_cannot_see_them(self):
        text = (
            '<instance><constraints><intension> eq(x,1) </intension></constraints>'
            '<variables><var id="x"> 0 1 </var></variables></instance>'
        )
        assert diagnostics(text) == [
            at(f"{C}/intension[1]", "reference to undeclared variable 'x'")
        ]

    def test_sibling_indices_count_past_thousands_of_elements(self):
        good = "<intension> eq(x[0],1) </intension>" * 3999
        text = document(SIX, good + "<intension> eq(y,1) </intension>")
        assert diagnostics(text) == [
            at(f"{C}/intension[4000]", "reference to undeclared variable 'y'")
        ]


def test_parsing_holds_no_document_tree():
    """The traced peak of parsing 4000 <intension> elements stays close to
    what the instance keeps: the reader holds one constraint element at a
    time, not a tree of the document next to the instance."""
    text = document(
        '<array id="x" size="[100]"> 0..9 </array>',
        "".join(
            f"<intension> ne(x[{i % 100}],x[{(7 * i + 1) % 100}]) </intension>" for i in range(4000)
        ),
    ).encode()
    parse_document(text)  # fills the regex and other caches first
    gc.collect()
    tracemalloc.start()
    try:
        csp = parse_document(text)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(csp.constraints()) == 4000
    assert peak < 1.5 * retained, (peak, retained)


# (document, constraints in it) for each family: every operator, both table
# polarities and a non-contiguous domain
GARBAGE_FREE = {
    "intensional": (
        document(
            SIX + '<var id="z"> -2 0 2 </var>',
            "<intension> ne(x[0],add(x[1],1)) </intension>"
            "<intension> le(dist(x[2],x[3]),2) </intension>"
            "<group><intension> lt(%0,%1) </intension>"
            "<args> x[4] x[5] </args><args> x[5] x[0] </args></group>"
            "<intension> ne(neg(neg(x[0])),x[1]) </intension>"
            "<intension> gt(abs(add(x[0],-2)),x[1]) </intension>"
            "<intension> not(lt(x[0],x[1])) </intension>"
            "<intension> or(x[0],and(x[1],z)) </intension>"
            "<intension> ge(mul(add(x[0],x[1]),z),sub(x[0],sub(x[1],z))) </intension>"
            "<intension> sub(x[0],-1) </intension>",
        ),
        10,
    ),
    "extensional": (
        document(
            SIX + '<var id="w"> -1 1 3 </var>',
            "<extension><list> x[0] w </list><supports> (0,-1) (1,3) (2,1) </supports></extension>"
            f"<group>{FIG_TEMPLATE}"
            "<args> x[1] x[2] x[3] </args><args> x[3] x[4] x[5] </args></group>"
            "<intension> or(eq(x[0],w),lt(x[1],x[2])) </intension>"
            "<allDifferent> x[0] x[5] w </allDifferent>",
        ),
        5,
    ),
}


def test_parsing_and_transforming_leave_no_garbage():
    """Parsing lone and <group> constraints and emitting every version makes
    no reference cycle: reference counting frees it all as soon as the
    instance is dropped, with the cyclic collector off."""
    from csp2c.codegen import Family, TransformSpec, transform, version_count

    gc.collect()
    gc.disable()
    try:
        for family, (text, count) in GARBAGE_FREE.items():
            csp = parse_document(text)
            assert len(csp.constraints()) == count
            for version in range(1, version_count(Family(family)) + 1):
                transform(csp, TransformSpec(Family(family), version))
            del csp
            assert gc.collect() == 0, family
    finally:
        gc.enable()


class TestTupleLists:
    def test_items_are_separated_by_commas_with_optional_spaces(self):
        csp = parse_document(table_doc("(0, 3) ( 1 ,2 )"))
        assert csp.constraints()[0].tuples == ((0, 3), (1, 2))

    @pytest.mark.parametrize(
        "tuples, item", [("(1,,2) (0 3)", "''"), ("(0 3)", "'0 3'"), ("(0,1,)", "''")]
    )
    def test_a_missing_comma_or_item_is_rejected(self, tuples, item):
        assert diagnostics(table_doc(tuples)) == [
            at(f"{C}/extension[1]/supports[1]", f"cannot parse tuple value {item}")
        ]


VALID_DOCUMENTS = {
    path.name: path.read_text(encoding="utf-8")
    for path in sorted(Path(CORPUS_DIR, "valid").glob("*.xml"))
}


@pytest.mark.parametrize("name", sorted(VALID_DOCUMENTS))
def test_a_parsed_instance_is_a_hashable_value(name):
    """A model tree holds only model nodes, so an instance is a value."""
    first, second = (parse_document(VALID_DOCUMENTS[name]) for _ in range(2))
    assert first == second and hash(first) == hash(second)


# a name, an array element or a whole array, in element text or an id value
_NAME_RE = re.compile(r"[A-Za-z_%][A-Za-z0-9_]*(?:\[\d*\])?")
_EXTRA_NAMES = ("x", "y", "z", "x0", "x2", "x_0", "x[0]", "x[2]", "x[9]", "x[]", "a", "p", "%0")
# a line holding one whole element that declares or references variables
_ELEMENT_LINE_RE = re.compile(r"^ *<(var|array|list|args|intension|allDifferent)\b.*\n", re.M)


def _name_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    for value in re.finditer(r'id="([^"]*)"|>([^<]*)<', text):
        group = 1 if value.group(1) is not None else 2
        offset = value.start(group)
        spans += [(offset + m.start(), offset + m.end()) for m in _NAME_RE.finditer(value[group])]
    return spans


@st.composite
def mutated_documents(draw):
    """A valid corpus document with up to four edits: a name in element
    text or an id replaced by another, or an element line copied or
    dropped."""
    text = VALID_DOCUMENTS[draw(st.sampled_from(sorted(VALID_DOCUMENTS)))]
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["rename", "copy", "drop"]))
        if edit == "rename":
            spans = _name_spans(text)
            if spans:
                start, end = draw(st.sampled_from(spans))
                names = sorted({text[a:b] for a, b in spans} | set(_EXTRA_NAMES))
                text = text[:start] + draw(st.sampled_from(names)) + text[end:]
            continue
        lines = list(_ELEMENT_LINE_RE.finditer(text))
        if lines:
            line = draw(st.sampled_from(lines))
            kept = line.group(0) * 2 if edit == "copy" else ""
            text = text[: line.start()] + kept + text[line.end() :]
    return text


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_parsed_instances_declare_each_variable_once(text):
    """Whatever the edits, a document that parses declares every variable
    once and every constraint names only declared variables."""
    try:
        csp = parse_document(text)
    except ParseFailure:
        return
    ids = csp.variable_ids()
    assert len(set(ids)) == len(ids)
    declared = set(ids)
    assert {v for c in csp.constraints() for v in c.scope} <= declared
