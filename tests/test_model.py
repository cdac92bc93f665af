from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from csp2c.model import (
    AllDifferent,
    Binary,
    Const,
    ConstraintGroup,
    Domain,
    IntensionConstraint,
    ModelError,
    Placeholder,
    Polarity,
    TableConstraint,
    Unary,
    Var,
    expr_nodes,
    expr_placeholders,
    expr_variables,
    instantiate_group,
    substitute_placeholders,
)


class TestDomain:
    def test_from_values_merges_runs(self):
        d = Domain.from_values([3, 1, 2, 7, 8, 5])
        assert d.ranges == ((1, 3), (5, 5), (7, 8))
        assert d.values() == [1, 2, 3, 5, 7, 8]
        assert d.size == 6
        assert not d.is_contiguous

    def test_contiguous(self):
        d = Domain.from_ranges([(0, 4)])
        assert d.is_contiguous and d.lo == 0 and d.hi == 4

    def test_from_ranges_merges_overlaps(self):
        d = Domain.from_ranges([(5, 9), (0, 3), (3, 6)])
        assert d.ranges == ((0, 9),)

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            Domain.from_values([])
        with pytest.raises(ModelError):
            Domain(())

    def test_bad_range_rejected(self):
        with pytest.raises(ModelError):
            Domain.from_ranges([(4, 1)])

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
    def test_membership_matches_value_set(self, values):
        d = Domain.from_values(values)
        expected = set(values)
        for v in range(min(values) - 2, max(values) + 3):
            assert (v in d) == (v in expected)
        assert d.values() == sorted(expected)


FIG_TABLE = TableConstraint(
    scope=("%0", "%1", "%2"),
    polarity=Polarity.CONFLICTS,
    tuples=((0, 0, 0), (0, 1, 0)),
)


class TestInstantiateGroup:
    def test_conflicts_group_two_rows(self):
        group = ConstraintGroup(
            template=FIG_TABLE,
            args_list=(("x0", "x1", "x2"), ("x3", "x4", "x5")),
        )
        out = instantiate_group(group)
        assert [c.scope for c in out] == [("x0", "x1", "x2"), ("x3", "x4", "x5")]
        assert all(c.polarity is Polarity.CONFLICTS for c in out)
        assert all(c.tuples == ((0, 0, 0), (0, 1, 0)) for c in out)

    def test_singleton_passthrough(self):
        c = AllDifferent(("a", "b"))
        assert instantiate_group(ConstraintGroup.singleton(c)) == [c]

    def test_intension_template(self):
        template = IntensionConstraint(
            Binary("eq", Placeholder(0), Binary("dist", Placeholder(1), Placeholder(2)))
        )
        group = ConstraintGroup(
            template=template,
            args_list=(("y0", "x0", "x1"), ("y1", "x1", "x2")),
        )
        out = instantiate_group(group)
        assert out[0].expr == Binary("eq", Var("y0"), Binary("dist", Var("x0"), Var("x1")))
        assert out[1].expr == Binary("eq", Var("y1"), Binary("dist", Var("x1"), Var("x2")))

    def test_arity_mismatch_names_group_and_vector(self):
        group = ConstraintGroup(
            template=FIG_TABLE, args_list=(("x0", "x1"),), name="group#7"
        )
        with pytest.raises(ModelError, match=r"group#7.*\('x0', 'x1'\).*expects 3"):
            instantiate_group(group)

    def test_deterministic_and_order_preserving(self):
        group = ConstraintGroup(
            template=FIG_TABLE,
            args_list=(("x0", "x1", "x2"), ("x3", "x4", "x5")),
        )
        assert instantiate_group(group) == instantiate_group(group)

    def test_total_count_matches_args_rows(self):
        group = ConstraintGroup(
            template=FIG_TABLE,
            args_list=tuple((f"a{i}", f"b{i}", f"c{i}") for i in range(5)),
        )
        assert len(instantiate_group(group)) == 5


class TestConstraintInvariants:
    def test_tuple_arity_checked(self):
        with pytest.raises(ModelError, match="arity"):
            TableConstraint(("a", "b", "c"), Polarity.SUPPORTS, ((0, 1),))

    def test_repeated_scope_rejected(self):
        with pytest.raises(ModelError):
            TableConstraint(("a", "a"), Polarity.SUPPORTS, ((0, 1),))

    def test_alldifferent_needs_two(self):
        with pytest.raises(ModelError):
            AllDifferent(("a",))

    def test_substitute_int_argument_becomes_const(self):
        expr = Binary("ge", Placeholder(0), Placeholder(1))
        out = substitute_placeholders(expr, ["x0", 3])
        assert out == Binary("ge", Var("x0"), Const(3))


class TestExprNodes:
    def test_pre_order_left_before_right(self):
        product = Binary("mul", Placeholder(1), Binary("sub", Var("a"), Var("b")))
        expr = Binary("add", Unary("neg", Var("b")), product)
        assert [type(n).__name__ for n in expr_nodes(expr)] == [
            "Binary", "Unary", "Var", "Binary", "Placeholder", "Binary", "Var", "Var",
        ]
        assert expr_variables(expr) == ("b", "a")
        assert expr_placeholders(Binary("eq", Placeholder(1), Placeholder(0))) == (0, 1)
