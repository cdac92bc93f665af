from __future__ import annotations

import copy
import pickle
import weakref

import pytest
from hypothesis import given, strategies as st

from csp2c.codegen import GeneratedProgram, TransformSpec
from csp2c.harness import (
    DEFAULT_TIMEOUT_S,
    BenchInstance,
    CommandResult,
    Outcome,
    Report,
    RobustnessRow,
    RunRecord,
    ScalabilityRow,
    ToolKind,
    ToolSpec,
)
from csp2c.model import (
    AllDifferent,
    Binary,
    Const,
    CspInstance,
    Dialect,
    Domain,
    Family,
    Frozen,
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
from csp2c.oracle import SolveResult, Status
from csp2c.verify import Mismatch, UnitTiming, VerificationReport, VerifyStatus
from csp2c.xcsp import ParseDiagnostic


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
        with pytest.raises(ModelError, match="^empty domain$"):
            Domain.from_values([])
        with pytest.raises(ModelError, match="^empty domain$"):
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


X, ONE = Var(name="x"), Const(value=1)
RECORD = {
    "tool": "k",
    "instance": "t",
    "version": "intensional2",
    "outcome": Outcome.REACHED,
    "wallclock_s": 1.5,
    "normalized": 0.75,
    "note": "",
}
ROBUSTNESS = {
    "tool": "k", "version": "intensional2", "mean_normalized": 0.75, "timeouts": 0, "n": 3
}
SCALABILITY = {"tool": "k", "size_index": 1, "timeouts": 2}
MISMATCH = {
    "version_label": "intensional1", "assignment": (("x", 1),), "expected": True, "observed": False
}
TIMING = {
    "versions": ("intensional1", "intensional2"), "programs": 1, "compile_s": 0.5, "run_s": 0.01
}
# one value of each immutable class, built by keyword: (class, fields)
VALUES = [
    (Domain, {"ranges": ((0, 3), (5, 5))}),
    (VariableDecl, {"id": "x", "domain": Domain(((0, 1),))}),
    (Var, {"name": "x"}),
    (Const, {"value": 1}),
    (Unary, {"op": "neg", "operand": X}),
    (Binary, {"op": "add", "left": X, "right": ONE}),
    (TableConstraint, {"scope": ("x", "y"), "polarity": Polarity.SUPPORTS, "tuples": ((0, 1),)}),
    (IntensionConstraint, {"expr": Binary("eq", X, ONE)}),
    (AllDifferent, {"scope": ("x", "y")}),
    (
        CspInstance,
        {
            "name": "t",
            "variables": (VariableDecl("x0", Domain(((0, 1),))),),
            "groups": ((IntensionConstraint(Binary("eq", Var("x0"), ONE)),),),
        },
    ),
    (
        SolveResult,
        {"status": Status.UNSATISFIABLE, "witness": None, "explored": 4, "work": 2, "checks": 3},
    ),
    (
        SolveResult,
        {"status": Status.SATISFIABLE, "witness": {"x": 1}, "explored": 2, "work": 2, "checks": 1},
    ),
    (ParseDiagnostic, {"path": "/instance[1]", "line": None, "message": "m"}),
    # a <group> template's `%i` slot is a variable leaf like any other
    (Var, {"name": "%0"}),
    # an instance with a constraint of each kind
    (
        CspInstance,
        {
            "name": "u",
            "variables": tuple(VariableDecl(v, Domain(((0, 1),))) for v in "xy"),
            "groups": (
                (TableConstraint(("x", "y"), Polarity.CONFLICTS, ((0, 0), (1, 1))),),
                (AllDifferent(("x", "y")), IntensionConstraint(Binary("lt", X, Var("y")))),
            ),
        },
    ),
    (TransformSpec, {"family": Family.INTENSIONAL, "version": 2, "dialect": Dialect.LLBMC}),
    (
        GeneratedProgram,
        {
            "source_text": "int main(void) { return 0; }\n",
            "version_label": "intensional2",
            "statement_count": 1,
            "instance_name": "t",
            "dialect": Dialect.KLEE,
            "constraint_lines": ("x == 1",),
        },
    ),
    (
        ToolSpec,
        {
            "name": "k",
            "run": "k {bitcode}",
            "prepare": "cc -o {bitcode} {src}",
            "timeout_s": 5.0,
            "success_pattern": "ASSERTION FAIL",
            "kind": ToolKind.BASELINE,
            "dialect": "llbmc",
        },
    ),
    (BenchInstance, {"path": "instances/t.xml", "family": "intensional", "size": 3}),
    (RunRecord, RECORD),
    (RobustnessRow, ROBUSTNESS),
    (ScalabilityRow, SCALABILITY),
    (
        Report,
        {
            "robustness": [RobustnessRow(**ROBUSTNESS)],
            "scalability": [ScalabilityRow(**SCALABILITY)],
            "records": [RunRecord(**RECORD)],
            "flags": ("k: no timeouts",),
        },
    ),
    (
        CommandResult,
        {
            "argv": ["k", "t.bc"],
            "returncode": None,
            "stdout": "",
            "stderr": "not found",
            "wall_s": 0.25,
            "timed_out": False,
        },
    ),
    (Mismatch, MISMATCH),
    (UnitTiming, TIMING),
    (
        VerificationReport,
        {
            "instance": "t",
            "versions": ["intensional1", "intensional2"],
            "assignments_checked": 4,
            "mismatches": [Mismatch(**MISMATCH)],
            "status": VerifyStatus.FAIL,
            "timings": [UnitTiming(**TIMING)],
            "compile_cmd": "cc -o {out} {src}",
        },
    ),
]


@pytest.mark.parametrize(
    "cls, fields", VALUES, ids=[f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(VALUES)]
)
class TestValueSemantics:
    """Every value class csp2c defines behaves as an immutable value: equal
    by class and fields, printed by field, copied and pickled whole."""

    def test_equal_fields_are_equal_and_hash_equal(self, cls, fields):
        value, twin = cls(**fields), cls(**copy.deepcopy(fields))
        assert value == twin and not value != twin
        if any(isinstance(v, (dict, list)) for v in fields.values()):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
        else:
            assert hash(value) == hash(twin)

    def test_another_class_is_never_equal(self, cls, fields):
        value = cls(**fields)
        subclass = type("Other", (cls,), {})
        assert value != subclass(**fields) and subclass(**fields) != value
        assert value != tuple(fields.values())
        others = [other(**f) for other, f in VALUES if other is not cls]
        assert [other for other in others if other == value or value == other] == []

    def test_fields_can_be_neither_assigned_nor_deleted(self, cls, fields):
        value = cls(**fields)
        for name in [*fields, "depth"] if cls in (Unary, Binary) else fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert {name: getattr(value, name) for name in fields} == fields

    def test_repr_names_each_field(self, cls, fields):
        shown = ", ".join(f"{name}={v!r}" for name, v in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({shown})"

    def test_copies_and_pickles_are_equal(self, cls, fields):
        value = cls(**fields)
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is cls and clone == value
            assert getattr(clone, "depth", None) == getattr(value, "depth", None)


def test_an_operator_node_prints_without_its_depth():
    assert repr(Binary(op="add", left=X, right=ONE)) == (
        "Binary(op='add', left=Var(name='x'), right=Const(value=1))"
    )
    assert repr(Unary("neg", Unary("abs", X))) == (
        "Unary(op='neg', operand=Unary(op='abs', operand=Var(name='x')))"
    )


def test_an_instance_hashes_and_has_a_weak_reference():
    first, second = (CspInstance(name="t", variables=(), groups=()) for _ in range(2))
    assert first == second and hash(first) == hash(second)
    assert weakref.ref(first)() is first


def test_a_value_takes_its_fields_by_position_or_keyword_and_defaults_the_rest():
    assert RunRecord(*RECORD.values()) == RunRecord(**RECORD)
    short = RunRecord("k", "t", "intensional2", Outcome.REACHED, wallclock_s=1.5)
    assert (short.normalized, short.note) == (None, "")
    assert RunRecord("k", "t", "intensional2", Outcome.REACHED, 1.5, note="n") == RunRecord(
        **{**RECORD, "normalized": None, "note": "n"}
    )
    tool = ToolSpec(name="k", run="k {bitcode}")
    assert (tool.prepare, tool.timeout_s, tool.success_pattern, tool.kind, tool.dialect) == (
        "", DEFAULT_TIMEOUT_S, "", ToolKind.ANALYSIS, "klee"
    )
    assert ToolSpec(name="k", run="k {bitcode}", kind="baseline").kind is ToolKind.BASELINE
    assert Report([], [], []).flags == ()
    assert TransformSpec(Family.EXTENSIONAL, 1).dialect is Dialect.KLEE


VALUE_CLASSES = {cls for cls, _ in VALUES}


def test_the_table_holds_every_value_class():
    defined = {cls for cls in Frozen.__subclasses__() if cls.__module__.startswith("csp2c.")}
    assert sorted(cls.__name__ for cls in defined - VALUE_CLASSES) == []


def test_every_default_is_an_immutable_field_value():
    """One default is shared by every value built without its field."""
    defaults = [(cls, key, value) for cls in VALUE_CLASSES for key, value in cls._defaults.items()]
    assert {(cls.__name__, key) for cls, key, _ in defaults} >= {("RunRecord", "note")}
    for cls, key, value in defaults:
        assert key in cls._fields
        hash(value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Var(), "missing .*'name'"),
        (lambda: Var("x", "y"), "arguments for its fields"),
        (lambda: Var(nam="x"), "unexpected keyword argument 'nam'"),
        (lambda: Var("x", name="y"), "multiple values for argument 'name'"),
        (lambda: Binary("add", X), "missing .*'right'"),
        (lambda: RunRecord("k", "t", "intensional2", Outcome.REACHED), "missing .*'wallclock_s'"),
        (lambda: RunRecord(**RECORD, seconds=1.0), "unexpected keyword argument 'seconds'"),
        (lambda: Mismatch(version_label="v", assignment=(), expected=True), "missing .*'observed'"),
        (lambda: UnitTiming(("v",), 1, 0.5, 0.01, 0.0), "arguments for its fields"),
        (lambda: ToolSpec(run="k"), "missing .*'name'"),
    ],
    ids=["none", "extra", "unknown", "twice", "binary", "record", "keyword", "mismatch",
         "timing", "tool"],
)
def test_a_missing_or_unknown_field_is_a_type_error(build, message):
    with pytest.raises(TypeError, match=message):
        build()


DEEP = Var("x")
for _ in range(MAX_EXPR_DEPTH):
    DEEP = Unary("neg", DEEP)
TOO_DEEP = f"nested deeper than the limit of {MAX_EXPR_DEPTH} operators"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Domain(()), "empty domain"),
        (lambda: Domain(((2, 1),)), "bad domain range 2..1"),
        (lambda: Domain(((0, 3), (3, 5))), "domain ranges must be disjoint and ascending"),
        (lambda: Unary("sqrt", X), "unknown unary operator 'sqrt'"),
        (lambda: Binary("pow", X, ONE), "unknown binary operator 'pow'"),
        (lambda: Unary("neg", DEEP), TOO_DEEP),
        (lambda: Binary("add", ONE, DEEP), TOO_DEEP),
        (lambda: TableConstraint((), Polarity.SUPPORTS, ()), "table constraint with empty scope"),
        (
            lambda: TableConstraint(("x", "x"), Polarity.SUPPORTS, ()),
            "table scope has repeated variables: ('x', 'x')",
        ),
        (
            lambda: TableConstraint(("x",), Polarity.CONFLICTS, ((1, 2),)),
            "tuple (1, 2) has arity 2, scope has arity 1",
        ),
        (lambda: AllDifferent(("x", "x")), "allDifferent scope has repeated variables: ('x', 'x')"),
        (lambda: AllDifferent(("x",)), "allDifferent needs at least 2 variables"),
    ],
)
def test_each_construction_check_keeps_its_message(build, message):
    with pytest.raises(ModelError) as info:
        build()
    assert str(info.value) == message
