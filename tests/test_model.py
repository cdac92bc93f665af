from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from csp2c.model import (
    AllDifferent,
    Binary,
    Const,
    CspInstance,
    Domain,
    IntensionConstraint,
    MAX_EXPR_DEPTH,
    MAX_LISTED_VALUES,
    ModelError,
    Polarity,
    TableConstraint,
    Unary,
    Var,
    VariableDecl,
    expr_nodes,
    expr_variables,
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


    def test_values_refuses_a_domain_too_large_to_list(self):
        assert len(Domain(((1, MAX_LISTED_VALUES),)).values()) == MAX_LISTED_VALUES
        with pytest.raises(ModelError, match="0..2000000000 has 2000000001 values"):
            Domain(((0, 2 * 10**9),)).values()
        with pytest.raises(ModelError, match="more than the"):
            Domain(((0, 0), (2, MAX_LISTED_VALUES + 1))).values()


class TestConstraintInvariants:
    def test_with_scope_shares_the_tuples_and_checks_the_scope(self):
        table = TableConstraint(("%0", "%1"), Polarity.CONFLICTS, ((0, 1), (1, 0)))
        row = table.with_scope(("a", "b"))
        assert row == TableConstraint(("a", "b"), Polarity.CONFLICTS, ((0, 1), (1, 0)))
        assert row.tuples is table.tuples
        with pytest.raises(ModelError, match="repeated variables"):
            table.with_scope(("a", "a"))
        with pytest.raises(ModelError, match="arity"):
            table.with_scope(("a", "b", "c"))
        assert AllDifferent(("%0", "%1")).with_scope(("a", "b")) == AllDifferent(("a", "b"))

    def test_tuple_arity_checked(self):
        with pytest.raises(ModelError, match="arity"):
            TableConstraint(("a", "b", "c"), Polarity.SUPPORTS, ((0, 1),))

    def test_repeated_scope_rejected(self):
        with pytest.raises(ModelError):
            TableConstraint(("a", "a"), Polarity.SUPPORTS, ((0, 1),))

    def test_alldifferent_needs_two(self):
        with pytest.raises(ModelError):
            AllDifferent(("a",))


class TestExprNodes:
    def test_pre_order_left_before_right(self):
        product = Binary("mul", Const(1), Binary("sub", Var("a"), Var("b")))
        expr = Binary("add", Unary("neg", Var("b")), product)
        assert [type(n).__name__ for n in expr_nodes(expr)] == [
            "Binary", "Unary", "Var", "Binary", "Const", "Binary", "Var", "Var",
        ]
        assert expr_variables(expr) == ("b", "a")


class TestExprDepth:
    """The model holds every tree to MAX_EXPR_DEPTH operators, however it is
    built, so no recursive walk of one exhausts Python's stack."""

    def test_depth_counts_operators_on_the_longest_path(self):
        expr = Binary("add", Unary("neg", Unary("abs", Var("b"))), Const(1))
        assert (Var("b").depth, Const(1).depth, expr.left.depth, expr.depth) == (0, 0, 2, 3)

    def test_depth_is_neither_compared_nor_shown(self):
        expr = Unary("not", Binary("eq", Var("a"), Const(0)))
        assert expr == Unary("not", Binary("eq", Var("a"), Const(0)))
        assert "depth" not in repr(expr)
        with pytest.raises(TypeError):
            Unary("neg", Var("a"), 1)

    def test_a_hand_folded_tree_stops_at_the_limit(self):
        node = Var("x")
        message = f"nested deeper than the limit of {MAX_EXPR_DEPTH} operators"
        with pytest.raises(ModelError, match=message):
            for _ in range(1200):
                node = Binary("add", node, Var("x"))
        assert node.depth == MAX_EXPR_DEPTH

    def test_a_unary_chain_stops_at_the_limit(self):
        node = Var("x")
        for _ in range(MAX_EXPR_DEPTH):
            node = Unary("neg", node)
        with pytest.raises(ModelError, match="limit"):
            Unary("neg", node)
        with pytest.raises(ModelError, match="limit"):
            Binary("eq", Const(0), node)


class TestInstance:
    def test_constraints_flatten_groups_in_order(self):
        a, b, c = (IntensionConstraint(Binary("eq", Var("v"), Const(k))) for k in range(3))
        csp = CspInstance(
            name="t",
            variables=(VariableDecl("v", Domain.from_values([0, 1, 2])),),
            groups=((a, b), (c,)),
        )
        assert csp.constraints() == [a, b, c]
