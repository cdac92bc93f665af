"""Brute-force ground truth for constraint instances.

Deliberately plain: exhaustive lexicographic enumeration over the domain
product in declared variable order, pruning a branch as soon as a
fully-bound constraint is violated. Correctness beats speed here; this is
the reference the generated C programs are checked against, so it shares no
code with the code generator.

Arithmetic is exact (Python ints) but every intermediate result is checked
against 32-bit signed bounds, since the generated programs use C `int`;
an instance that overflows is rejected rather than silently diverging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import (
    AllDifferent,
    Binary,
    Const,
    Constraint,
    CspInstance,
    Expr,
    INT32_MAX,
    INT32_MIN,
    Placeholder,
    Polarity,
    TableConstraint,
    Unary,
    Var,
)

DEFAULT_LIMIT = 10**7

Assignment = dict[str, int]


class EvalError(Exception):
    pass


class Int32Overflow(EvalError):
    """An intermediate value left 32-bit signed range; C codegen would be unsound."""


class Status(Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    RESOURCE_LIMIT = "resource-limit"


@dataclass(frozen=True)
class SolveResult:
    status: Status
    witness: Assignment | None
    explored: int


def _check32(value: int) -> int:
    if value < INT32_MIN or value > INT32_MAX:
        raise Int32Overflow(f"value {value} outside 32-bit signed range")
    return value


def eval_expr(expr: Expr, assignment: Assignment) -> int:
    """Evaluate an expression; comparisons and logic yield 0/1."""
    if isinstance(expr, Const):
        return _check32(expr.value)
    if isinstance(expr, Var):
        try:
            return assignment[expr.name]
        except KeyError:
            raise EvalError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Placeholder):
        raise EvalError(f"uninstantiated placeholder %{expr.index}")
    if isinstance(expr, Unary):
        v = eval_expr(expr.operand, assignment)
        if expr.op == "neg":
            return _check32(-v)
        if expr.op == "abs":
            return _check32(abs(v))
        return 0 if v != 0 else 1  # not
    assert isinstance(expr, Binary)
    a = eval_expr(expr.left, assignment)
    b = eval_expr(expr.right, assignment)
    op = expr.op
    if op == "add":
        return _check32(a + b)
    if op == "sub":
        return _check32(a - b)
    if op == "mul":
        return _check32(a * b)
    if op == "dist":
        return _check32(abs(a - b))
    if op == "eq":
        return int(a == b)
    if op == "ne":
        return int(a != b)
    if op == "lt":
        return int(a < b)
    if op == "le":
        return int(a <= b)
    if op == "gt":
        return int(a > b)
    if op == "ge":
        return int(a >= b)
    if op == "and":
        return int(a != 0 and b != 0)
    return int(a != 0 or b != 0)  # or


def constraint_satisfied(constraint: Constraint, assignment: Assignment) -> bool:
    if isinstance(constraint, TableConstraint):
        valuation = tuple(assignment[v] for v in constraint.scope)
        hit = valuation in constraint.tuples
        return hit if constraint.polarity is Polarity.SUPPORTS else not hit
    if isinstance(constraint, AllDifferent):
        values = [assignment[v] for v in constraint.scope]
        return len(set(values)) == len(values)
    return eval_expr(constraint.expr, assignment) != 0


def _search(csp: CspInstance, limit: int, stop_at_first: bool) -> tuple[Status, list[Assignment], int]:
    """Shared enumeration core for solve() and enumerate_solutions().

    `explored` counts complete assignments accounted for: a leaf counts 1,
    and pruning a branch counts every completion it rules out. Full
    enumeration therefore costs exactly the domain-product size, so any
    limit >= that size can never end in RESOURCE_LIMIT.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    order = [v.id for v in csp.variables]
    domains = [v.domain.values() for v in csp.variables]
    index = {name: i for i, name in enumerate(order)}
    n = len(order)

    # suffix[i]: completions of a partial assignment bound through var i-1
    suffix = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * len(domains[i])

    # Constraints become checkable once their deepest scope variable binds.
    checks_at: list[list[Constraint]] = [[] for _ in range(n)]
    preground: list[Constraint] = []
    for constraint in csp.constraints():
        scope = constraint.scope
        if not scope:
            preground.append(constraint)
        else:
            checks_at[max(index[v] for v in scope)].append(constraint)

    solutions: list[Assignment] = []
    explored = 0

    if not all(constraint_satisfied(c, {}) for c in preground):
        return Status.UNSATISFIABLE, [], suffix[0]

    if n == 0:
        return Status.SATISFIABLE, [{}], 1

    assignment: Assignment = {}
    cursor = [0] * n
    depth = 0
    while True:
        if cursor[depth] >= len(domains[depth]):
            if depth == 0:
                break  # whole product enumerated
            cursor[depth] = 0
            depth -= 1
            del assignment[order[depth]]
            cursor[depth] += 1
            continue
        if explored >= limit:
            # The cursor points at an untried value, so work remains.
            return Status.RESOURCE_LIMIT, solutions, explored
        assignment[order[depth]] = domains[depth][cursor[depth]]
        if all(constraint_satisfied(c, assignment) for c in checks_at[depth]):
            if depth == n - 1:
                explored += 1
                solutions.append(dict(assignment))
                if stop_at_first:
                    break
                del assignment[order[depth]]
                cursor[depth] += 1
            else:
                depth += 1
        else:
            explored += suffix[depth + 1]
            del assignment[order[depth]]
            cursor[depth] += 1

    if solutions:
        return Status.SATISFIABLE, solutions, explored
    return Status.UNSATISFIABLE, solutions, explored


def solve(csp: CspInstance, limit: int = DEFAULT_LIMIT) -> SolveResult:
    """First satisfying assignment in lexicographic order, if any."""
    status, solutions, explored = _search(csp, limit, stop_at_first=True)
    witness = solutions[0] if status is Status.SATISFIABLE else None
    return SolveResult(status=status, witness=witness, explored=explored)


def enumerate_solutions(csp: CspInstance, limit: int = DEFAULT_LIMIT) -> list[Assignment]:
    """All satisfying assignments found within the enumeration budget."""
    _, solutions, _ = _search(csp, limit, stop_at_first=False)
    return solutions


def all_assignments(csp: CspInstance):
    """Lexicographic iterator over the full domain product (no constraints)."""
    order = [v.id for v in csp.variables]
    domains = [v.domain.values() for v in csp.variables]
    total = math.prod(len(d) for d in domains)
    counters = [0] * len(order)
    for _ in range(total):
        yield {name: domains[i][counters[i]] for i, name in enumerate(order)}
        for i in range(len(order) - 1, -1, -1):
            counters[i] += 1
            if counters[i] < len(domains[i]):
                break
            counters[i] = 0
