from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from csp2c.model import (
    COMPARISON_OPS,
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
from csp2c.oracle import (
    EvalError,
    Int32Overflow,
    Status,
    constraint_satisfied,
    enumerate_solutions,
    eval_expr,
    solve,
)

from conftest import load_corpus


def make_instance(domains: dict[str, list[int]], constraints) -> CspInstance:
    return CspInstance(
        name="test",
        variables=tuple(
            VariableDecl(v, Domain.from_values(vals)) for v, vals in domains.items()
        ),
        groups=tuple((c,) for c in constraints),
    )


class TestEvalExpr:
    def test_dist(self):
        assert eval_expr(Binary("dist", Var("y"), Var("z")), {"y": 3, "z": 5}) == 2

    def test_eq_dist(self):
        expr = Binary("eq", Var("y0"), Binary("dist", Var("x0"), Var("x1")))
        assert eval_expr(expr, {"y0": 2, "x0": 7, "x1": 5}) == 1

    def test_product_sign(self):
        expr = Binary(
            "lt",
            Binary("mul", Binary("sub", Var("x"), Var("y")), Binary("sub", Var("z"), Var("u"))),
            Const(0),
        )
        assert eval_expr(expr, {"x": 1, "y": 0, "z": 0, "u": 1}) == 1

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound"):
            eval_expr(Var("nope"), {})

    def test_overflow_flagged(self):
        big = Binary("mul", Const(2**20), Const(2**20))
        with pytest.raises(Int32Overflow):
            eval_expr(big, {})

    def test_not_and_or(self):
        assert eval_expr(Unary("not", Const(0)), {}) == 1
        assert eval_expr(Unary("not", Const(7)), {}) == 0
        assert eval_expr(Binary("and", Const(1), Const(0)), {}) == 0
        assert eval_expr(Binary("or", Const(1), Const(0)), {}) == 1

    @given(st.integers(0, 1), st.integers(0, 1))
    def test_logical_bitwise_duality(self, p, q):
        # codegen's bitwise versions rely on 0/1-valued atoms agreeing with &&/||
        logical_and = eval_expr(Binary("and", Const(p), Const(q)), {})
        logical_or = eval_expr(Binary("or", Const(p), Const(q)), {})
        assert logical_and == (p & q)
        assert logical_or == (p | q)


class TestConstraintSatisfied:
    def test_conflicts_avoided(self):
        c = TableConstraint(("x0", "x1", "x2"), Polarity.CONFLICTS, ((0, 0, 0), (0, 1, 0)))
        assert constraint_satisfied(c, {"x0": 1, "x1": 0, "x2": 0})
        assert not constraint_satisfied(c, {"x0": 0, "x1": 1, "x2": 0})

    def test_supports_must_match(self):
        c = TableConstraint(("x", "y"), Polarity.SUPPORTS, ((1, 0), (0, 1)))
        assert not constraint_satisfied(c, {"x": 0, "y": 0})
        assert constraint_satisfied(c, {"x": 1, "y": 0})

    def test_alldifferent(self):
        c = AllDifferent(("x0", "x1", "x2"))
        assert not constraint_satisfied(c, {"x0": 0, "x1": 1, "x2": 0})
        assert constraint_satisfied(c, {"x0": 0, "x1": 1, "x2": 2})


class TestSolve:
    def test_conflicts_group_first_witness(self, manifest):
        csp = load_corpus("conflicts_group")
        result = solve(csp)
        assert result.status is Status.SATISFIABLE
        assert result.witness == manifest["valid"]["conflicts_group"]["first_witness"]
        assert result.explored == 10  # 8 pruned under (0,0,0,*,*,*) plus 2 leaves

    def test_pigeonhole_unsat(self):
        result = solve(load_corpus("pigeonhole"))
        assert result.status is Status.UNSATISFIABLE
        assert result.witness is None

    def test_zero_constraints(self):
        csp = make_instance({"x0": [0, 1, 2, 3]}, [])
        result = solve(csp)
        assert result.status is Status.SATISFIABLE
        assert result.witness == {"x0": 0}

    def test_resource_limit(self):
        # Every (b, c) pair conflicts, so each of the 4 values of (a, b)
        # empties c's domain: 4 units of work, more than a limit of 2.
        every_pair = ((0, 0), (0, 1), (1, 0), (1, 1))
        csp = make_instance(
            {"a": [0, 1], "b": [0, 1], "c": [0, 1]},
            [TableConstraint(("b", "c"), Polarity.CONFLICTS, every_pair)],
        )
        assert solve(csp).work == 4
        result = solve(csp, limit=2)
        assert result.status is Status.RESOURCE_LIMIT
        assert result.witness is None
        assert result.work == 2

    def test_limit_equal_to_space_never_limits(self):
        csp = load_corpus("xor_ring")
        result = solve(csp, limit=csp.assignment_space_size)
        assert result.status is Status.UNSATISFIABLE

    def test_witness_recheck(self, manifest):
        for name, want in manifest["valid"].items():
            csp = load_corpus(name)
            result = solve(csp)
            if want["status"] == "sat":
                assert result.witness is not None
                assert all(
                    constraint_satisfied(c, result.witness) for c in csp.constraints()
                ), name
                for var in csp.variables:
                    assert result.witness[var.id] in var.domain

    def test_unary_wipeout_is_decided_at_the_root(self):
        csp = make_instance(
            {"a": [0, 1], "b": [0, 1], "c": [0, 1]},
            [TableConstraint(("a",), Polarity.CONFLICTS, ((0,), (1,)))],
        )
        result = solve(csp, limit=1)
        assert result.status is Status.UNSATISFIABLE
        assert (result.explored, result.work) == (8, 1)

    def test_determinism(self):
        csp = load_corpus("dist_alldiff")
        a, b = solve(csp), solve(csp)
        assert a.witness == b.witness and a.explored == b.explored


class TestEnumerate:
    def test_supports_pair(self):
        sols = enumerate_solutions(load_corpus("supports_pair"))
        assert sols == [{"a": 0, "b": 1}, {"a": 1, "b": 0}]

    def test_unsat_empty(self):
        assert enumerate_solutions(load_corpus("pigeonhole")) == []

    def test_full_product_without_constraints(self):
        csp = make_instance({"a": [0, 1], "b": [0, 1]}, [])
        assert enumerate_solutions(csp) == [
            {"a": 0, "b": 0},
            {"a": 0, "b": 1},
            {"a": 1, "b": 0},
            {"a": 1, "b": 1},
        ]

    def test_counts_match_manifest(self, manifest):
        for name, want in manifest["valid"].items():
            assert len(enumerate_solutions(load_corpus(name))) == want["solutions"], name


# Independent cross-check: a from-scratch enumeration using itertools against
# the solver's backtracking search, over randomly generated table instances.
@st.composite
def random_table_instance(draw):
    n_vars = draw(st.integers(2, 3))
    names = [f"v{i}" for i in range(n_vars)]
    domains = {
        name: draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        for name in names
    }
    constraints = []
    for _ in range(draw(st.integers(0, 2))):
        scope_size = draw(st.integers(1, n_vars))
        scope = tuple(draw(st.permutations(names))[:scope_size])
        pool = list(itertools.product(*[sorted(domains[v]) for v in scope]))
        rows = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        polarity = draw(st.sampled_from([Polarity.SUPPORTS, Polarity.CONFLICTS]))
        constraints.append(TableConstraint(scope, polarity, tuple(rows)))
    return make_instance(domains, constraints)


@settings(max_examples=60, deadline=None)
@given(random_table_instance())
def test_solver_matches_naive_enumeration(csp):
    order = [v.id for v in csp.variables]
    pools = [v.domain.values() for v in csp.variables]
    constraints = csp.constraints()

    def table_ok(c, a):
        row = tuple(a[v] for v in c.scope)
        hit = row in c.tuples
        return hit if c.polarity is Polarity.SUPPORTS else not hit

    expected = []
    for combo in itertools.product(*pools):
        a = dict(zip(order, combo))
        if all(table_ok(c, a) for c in constraints):
            expected.append(a)

    assert enumerate_solutions(csp) == expected
    result = solve(csp)
    if expected:
        assert result.status is Status.SATISFIABLE and result.witness == expected[0]
    else:
        assert result.status is Status.UNSATISFIABLE


def pigeonhole(pigeons: int, holes: int) -> CspInstance:
    names = [f"p{i}" for i in range(pigeons)]
    return make_instance(
        {name: list(range(holes)) for name in names}, [AllDifferent(tuple(names))]
    )


def ne_chain(n: int) -> CspInstance:
    names = [f"x{i}" for i in range(n)]
    return make_instance(
        {name: [0, 1] for name in names},
        [IntensionConstraint(Binary("ne", Var(a), Var(b))) for a, b in zip(names, names[1:])],
    )


class TestForwardChecking:
    def test_nine_pigeons_in_eight_holes(self):
        csp = pigeonhole(9, 8)
        result = solve(csp, limit=10**6)
        assert result.status is Status.UNSATISFIABLE
        assert result.explored == csp.assignment_space_size == 8**9
        assert result.work <= csp.assignment_space_size

    def test_seven_pigeons_in_six_holes_keeps_explored(self):
        result = solve(pigeonhole(7, 6))
        assert result.status is Status.UNSATISFIABLE
        assert result.explored == 6**7 == 279_936

    def test_long_ne_chain_is_sat_without_recursion(self):
        n = 2500
        result = solve(ne_chain(n))
        assert result.status is Status.SATISFIABLE
        assert result.witness == {f"x{i}": i % 2 for i in range(n)}
        # the witness's lexicographic rank + 1: 0101...01 read as a binary number
        assert result.explored == int("01" * (n // 2), 2) + 1
        assert result.work <= n

    def test_overflow_past_the_first_witness_is_raised(self):
        # y=0, z=1 satisfies y + z*z == 1 after 2 assignments, but the filter
        # on z evaluates z*z over all of 0..100000, and 46341**2 > INT32_MAX:
        # the emitted C would compute that product too.
        expr = Binary("eq", Binary("add", Var("y"), Binary("mul", Var("z"), Var("z"))), Const(1))
        csp = make_instance(
            {"y": range(100_001), "z": range(100_001)}, [IntensionConstraint(expr)]
        )
        with pytest.raises(Int32Overflow):
            solve(csp)

    def test_filter_checks_are_charged_to_the_budget(self):
        # No y satisfies x + y == -1, so each x costs one wipeout (1 unit of
        # work) after evaluating the expression on all 100001 values of y.
        # The limit matches the one verify's sampled plan solves with; the
        # search must stop after about 10**6 evaluations, not 10**10.
        expr = Binary("eq", Binary("add", Var("x"), Var("y")), Const(-1))
        csp = make_instance(
            {"x": range(100_001), "y": range(100_001)}, [IntensionConstraint(expr)]
        )
        result = solve(csp, limit=10**6)
        assert result.status is Status.RESOURCE_LIMIT
        assert (result.work, result.checks) == (10, 10 * 100_001)

    def test_ground_constraint(self):
        false = IntensionConstraint(Binary("eq", Const(1), Const(2)))
        result = solve(make_instance({"a": [0, 1]}, [false]))
        assert (result.status, result.explored, result.work) == (Status.UNSATISFIABLE, 2, 1)
        true = IntensionConstraint(Binary("lt", Const(1), Const(2)))
        assert solve(make_instance({"a": [0, 1]}, [true])).witness == {"a": 0}


# The same cross-check over every constraint kind: tables, intension and
# allDifferent, with the search's counts held to their definitions.
def small_expr(names):
    leaf = st.one_of(st.sampled_from(names).map(Var), st.integers(-2, 3).map(Const))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(Unary, st.sampled_from(["neg", "abs", "not"]), sub),
            st.builds(Binary, st.sampled_from(["add", "sub", "mul", "dist", "and", "or"]), sub, sub),
        ),
        max_leaves=4,
    )


@st.composite
def random_instance(draw):
    n_vars = draw(st.integers(1, 4))
    names = [f"v{i}" for i in range(n_vars)]
    domains = {
        name: draw(st.lists(st.integers(-2, 3), min_size=1, max_size=4, unique=True))
        for name in names
    }
    constraints = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["table", "intension", "alldiff"]))
        if kind == "alldiff" and n_vars >= 2:
            size = draw(st.integers(2, n_vars))
            constraints.append(AllDifferent(tuple(draw(st.permutations(names))[:size])))
        elif kind == "intension":
            op = draw(st.sampled_from(COMPARISON_OPS))
            expr = Binary(op, draw(small_expr(names)), draw(small_expr(names)))
            constraints.append(IntensionConstraint(expr))
        else:
            scope = tuple(draw(st.permutations(names))[: draw(st.integers(1, n_vars))])
            row = st.tuples(*[st.sampled_from(domains[v] + [9]) for v in scope])
            rows = draw(st.lists(row, min_size=1, max_size=6, unique=True))
            polarity = draw(st.sampled_from([Polarity.SUPPORTS, Polarity.CONFLICTS]))
            constraints.append(TableConstraint(scope, polarity, tuple(rows)))
    return make_instance(domains, constraints)


@settings(max_examples=150, deadline=None)
@given(random_instance())
def test_search_matches_naive_enumeration_on_every_kind(csp):
    order = [v.id for v in csp.variables]
    pools = [v.domain.values() for v in csp.variables]
    constraints = csp.constraints()
    product = [dict(zip(order, combo)) for combo in itertools.product(*pools)]
    accepted = [all(constraint_satisfied(c, a) for c in constraints) for a in product]
    expected = [a for a, ok in zip(product, accepted) if ok]

    assert enumerate_solutions(csp) == expected
    result = solve(csp)
    if expected:
        assert result.status is Status.SATISFIABLE and result.witness == expected[0]
        assert result.explored == accepted.index(True) + 1
    else:
        assert result.status is Status.UNSATISFIABLE and result.witness is None
        assert result.explored == len(product)
    assert 1 <= result.work <= result.explored
    # A limit at or above the product size never ends in RESOURCE_LIMIT.
    assert solve(csp, limit=len(product)) == result


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestAllDifferentMatching:
    def test_partial_hall_set_is_decided_at_the_root(self):
        # a, b and c share two values; d's six values cannot help them, so a
        # count of the union of all four domains (6 values >= 4 variables)
        # misses what a matching finds.
        csp = make_instance(
            {"a": [0, 1], "b": [0, 1], "c": [0, 1], "d": range(6)},
            [AllDifferent(("d", "a", "b", "c"))],
        )
        result = solve(csp, limit=1)
        assert result.status is Status.UNSATISFIABLE
        assert (result.explored, result.work) == (48, 1)

    @pytest.mark.parametrize("pigeons", [7, 9])
    def test_pigeonhole_is_decided_at_the_root(self, pigeons):
        csp = pigeonhole(pigeons, pigeons - 1)
        result = solve(csp, limit=1)
        assert result.status is Status.UNSATISFIABLE
        assert (result.explored, result.work) == (csp.assignment_space_size, 1)

    def test_matching_costs_little_where_the_filters_suffice(self):
        # 400 variables over 0..399: the pairwise filters alone charge
        # 21,333,200 checks and 79,801 units of work (value i of variable i
        # is found after passing the i values before it). The matching runs
        # once, at the root.
        names = [f"x{i}" for i in range(400)]
        csp = make_instance({name: range(400) for name in names}, [AllDifferent(tuple(names))])
        result = solve(csp)
        assert result.witness == {name: i for i, name in enumerate(names)}
        assert result.work == 79_801
        assert 21_333_200 < result.checks <= 1.1 * 21_333_200

    def test_long_alternating_paths_do_not_recurse(self):
        n = 300
        names = [f"x{i}" for i in range(n)]
        # x0 in {0}, x_i in {i-1, i}, last in {n-2}: the matching gives x_i
        # the value i, and the last variable's failed search walks back
        # through every other variable to x0.
        chain = {name: [i - 1, i] if i else [0] for i, name in enumerate(names[:-1])}
        chain[names[-1]] = [n - 2]
        unsat = make_instance(chain, [AllDifferent(tuple(names))])
        # x_i in {i, i+1}, last in {0}: satisfiable only by shifting every
        # other variable up by one.
        shift = {name: [i, i + 1] for i, name in enumerate(names[:-1])}
        shift[names[-1]] = [0]
        sat = make_instance(shift, [AllDifferent(tuple(names))])
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 100)
        try:
            unsat_result, sat_result = solve(unsat), solve(sat)
        finally:
            sys.setrecursionlimit(old)
        assert (unsat_result.status, unsat_result.work) == (Status.UNSATISFIABLE, 1)
        assert sat_result.witness == {name: (i + 1) % n for i, name in enumerate(names)}


@st.composite
def alldifferent_instance(draw):
    n_vars = draw(st.integers(2, 5))
    names = [f"v{i}" for i in range(n_vars)]
    domains = {
        name: draw(st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True))
        for name in names
    }
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(2, n_vars))
        constraints.append(AllDifferent(tuple(draw(st.permutations(names))[:size])))
    if draw(st.booleans()):
        scope = tuple(draw(st.permutations(names))[: draw(st.integers(1, n_vars))])
        row = st.tuples(*[st.sampled_from(domains[v]) for v in scope])
        rows = draw(st.lists(row, min_size=1, max_size=8, unique=True))
        polarity = draw(st.sampled_from([Polarity.SUPPORTS, Polarity.CONFLICTS]))
        constraints.append(TableConstraint(scope, polarity, tuple(rows)))
    return make_instance(domains, constraints)


@settings(max_examples=300, deadline=None)
@given(alldifferent_instance())
def test_matching_agrees_with_naive_enumeration(csp):
    order = [v.id for v in csp.variables]
    product = [
        dict(zip(order, combo))
        for combo in itertools.product(*(v.domain.values() for v in csp.variables))
    ]
    accepted = [all(constraint_satisfied(c, a) for c in csp.constraints()) for a in product]
    expected = [a for a, ok in zip(product, accepted) if ok]

    assert enumerate_solutions(csp) == expected
    result = solve(csp)
    if expected:
        assert result.status is Status.SATISFIABLE and result.witness == expected[0]
        assert result.explored == accepted.index(True) + 1
    else:
        assert result.status is Status.UNSATISFIABLE
        assert result.explored == len(product)
    assert 1 <= result.work <= result.explored
    assert solve(csp, limit=len(product)) == result
