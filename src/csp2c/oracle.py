"""Ground truth for constraint instances: a forward-checking search.

The search walks the domain product in lexicographic order (declared
variable order, ascending values) and yields solutions in that order. It
is the reference the generated C programs are checked against, so it
shares no code with the code generator.

Forward checking (Haralick & Elliott, 1980) keeps a live set of values per
variable. Each constraint filters the live set of its deepest scope
variable as soon as its other variables are bound, or at the root when it
is unary: allDifferent as pairwise `ne`, tables by set lookup,
intension through `eval_expr`. A filter that empties a live set (a
wipeout) prunes the value just bound. Every live value of the last
variable therefore completes a solution.

After the root filters, each allDifferent is checked once for Hall's
condition: its variables must take distinct live values, which holds
exactly when a maximum matching of variables to values covers them all
(Régin, "A filtering algorithm for constraints of difference in CSPs",
AAAI 1994). A variable left unmatched heads a set of variables with fewer
live values than members (a Hall failure), such as the pigeons of a
pigeonhole, and decides the instance UNSAT. Below the root only the
pairwise filters run.

Three counts come out of a search:
- `explored` counts complete assignments accounted for: a leaf counts 1,
  and a pruned value counts all its completions when the scan passes it.
  It is the product size on UNSAT and the witness's rank + 1 on SAT,
  exactly as for plain enumeration.
- `work` counts one unit per leaf and one per prune event (a filtered
  value passed, a wipeout, or the root's Hall failure). The pruned
  subtrees are disjoint and non-empty, so work <= explored <= product
  size.
- `checks` counts the live values the filters and the root matchings
  faced. Each filter call is charged the size of the live set it filters,
  which bounds the values it examines (an intension filter evaluates its
  expression on each). A filter runs at most once per binding of its
  trigger variables and faces at most its target's domain, so over a
  whole search one filter faces at most the product size. A matching is
  charged the live set of each variable its augmenting-path searches
  expand.

The `limit` budget bounds both: the search ends in RESOURCE_LIMIT once
`work` reaches `limit` or `checks` exceeds `limit` times the number of
filters plus the root matchings' one-time charge. So a limit at or above
the product size never ends in RESOURCE_LIMIT, and a smaller one bounds
the run time even when each value of a large domain is filtered out one
by one.

The search lists every domain's values, so a domain of more than
model.MAX_LISTED_VALUES values raises ModelError before it starts.

Arithmetic is exact (Python ints) but every intermediate result is checked
against 32-bit signed bounds, since the generated programs use C `int`;
an instance that overflows raises Int32Overflow rather than silently
diverging. An intension constraint is evaluated over the whole live set of
its deepest variable, so the overflow can surface on values past the first
witness, which plain enumeration never reached but the emitted C still
computes for some input.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Iterable, Iterator

from .model import (
    AllDifferent,
    Binary,
    Const,
    Constraint,
    CspInstance,
    Expr,
    Frozen,
    INT32_MAX,
    INT32_MIN,
    Polarity,
    TableConstraint,
    Unary,
    Var,
)

DEFAULT_LIMIT = 10**7

Assignment = dict[str, int]
# A forward-checking filter: (assignment, target's live set) -> values ruled out.
Kill = Callable[[Assignment, set[int]], Iterable[int]]


class EvalError(Exception):
    pass


class Int32Overflow(EvalError):
    """An intermediate value left 32-bit signed range; C codegen would be unsound."""


class Status(Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    RESOURCE_LIMIT = "resource-limit"


class SolveResult(Frozen):
    __slots__ = _fields = ("status", "witness", "explored", "work", "checks")
    status: Status
    witness: Assignment | None
    explored: int
    work: int
    checks: int


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


def _differ(other: str) -> Kill:
    def kill(assignment: Assignment, live: set[int]):
        value = assignment[other]
        return (value,) if value in live else ()

    return kill


def _table_kill(table: TableConstraint, target: str) -> Kill:
    p = table.scope.index(target)
    others = table.scope[:p] + table.scope[p + 1 :]
    # the target's values listed in the table, by the rest of their row
    listed: dict[tuple[int, ...], set[int]] = {}
    for row in table.tuples:
        listed.setdefault(row[:p] + row[p + 1 :], set()).add(row[p])
    none: frozenset[int] = frozenset()

    if table.polarity is Polarity.SUPPORTS:

        def kill(assignment: Assignment, live: set[int]):
            return live - listed.get(tuple(assignment[v] for v in others), none)

    else:

        def kill(assignment: Assignment, live: set[int]):
            return live & listed.get(tuple(assignment[v] for v in others), none)

    return kill


def _intension_kill(expr: Expr, target: str) -> Kill:
    def kill(assignment: Assignment, live: set[int]):
        doomed = []
        for value in live:
            assignment[target] = value
            if not eval_expr(expr, assignment):
                doomed.append(value)
        return doomed

    return kill


def _filters(
    constraint: Constraint, depth_of: dict[str, int]
) -> Iterator[tuple[int, int, Kill]]:
    """Forward-checking filters of one constraint, as (trigger, target, kill).

    The target is the depth of the deepest scope variable; the trigger is
    the depth of the next deepest, or -1 (the root) for a unary constraint.
    Once every scope variable but the target is bound, kill(assignment,
    live) returns the values of the target's live set that the constraint
    rules out. allDifferent becomes one `ne` filter per pair.
    """
    ranked = sorted((depth_of[v], v) for v in constraint.scope)
    if isinstance(constraint, AllDifferent):
        for i, (trigger, name) in enumerate(ranked):
            for target, _ in ranked[i + 1 :]:
                yield trigger, target, _differ(name)
        return
    target, name = ranked[-1]
    trigger = ranked[-2][0] if len(ranked) > 1 else -1
    if isinstance(constraint, TableConstraint):
        yield trigger, target, _table_kill(constraint, name)
    else:
        yield trigger, target, _intension_kill(constraint.expr, name)


def _distinct_values_exist(scope: list[int], live: list[set[int]]) -> tuple[bool, int]:
    """Whether the variables at depths `scope` can take distinct live values.

    Matches them one by one, each by a breadth-first search over
    alternating paths: an expanded variable takes an unmatched live value
    if it has one, and otherwise offers its live values' owners a move.
    Returns (whether every variable was matched, checks), charging the live
    set of each expanded variable. The search is iterative, so a long path
    does not hit Python's recursion limit.
    """
    owner: dict[int, int] = {}  # matched value -> its variable
    checks = 0
    for u in scope:
        via: dict[int, tuple[int, int] | None] = {u: None}
        queue = [u]
        for x in queue:
            values = live[x]
            checks += len(values)
            free = next((w for w in values if w not in owner), None)
            if free is not None:
                # Shift the path back to u: x takes the free value, and each
                # variable before it the value of the one it reached.
                step: tuple[int, int] | None = (x, free)
                while step is not None:
                    x, w = step
                    owner[w] = x
                    step = via[x]
                break
            for w in values:
                y = owner[w]
                if y not in via:
                    via[y] = (x, w)
                    queue.append(y)
        else:
            return False, checks
    return True, checks


def _search(
    csp: CspInstance, limit: int, stop_at_first: bool
) -> tuple[Status, list[Assignment], int, int, int]:
    """Shared search core for solve() and enumerate_solutions().

    Returns (status, solutions in lexicographic order, explored, work,
    checks); the module docstring defines the three counts and the budget.
    Binding the variable at depth d runs filters_at[d+1], each charged the
    size of the live set it faces, and a wipeout undoes them and prunes the
    value. The root also checks each allDifferent for a Hall failure. As
    the scan passes a value it charges one unit of work and credits
    `explored` with suffix[d+1], the completions that value accounts for
    (1 at a leaf). The search is iterative, so a long chain of variables
    does not hit Python's recursion limit.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    order = csp.variable_ids()
    domains = [v.domain.values() for v in csp.variables]
    n = len(order)

    # suffix[i]: completions of a partial assignment bound through var i-1
    suffix = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * len(domains[i])

    # filters_at[d]: filters run once the variable at depth d-1 is bound;
    # filters_at[0] runs at the root.
    depth_of = {name: i for i, name in enumerate(order)}
    filters_at: list[list[tuple[int, Kill]]] = [[] for _ in range(n + 1)]
    alldiff_scopes: list[list[int]] = []
    for constraint in csp.constraints():
        if not constraint.scope:
            if not constraint_satisfied(constraint, {}):
                return Status.UNSATISFIABLE, [], suffix[0], 1, 0
            continue
        if isinstance(constraint, AllDifferent):
            alldiff_scopes.append([depth_of[v] for v in constraint.scope])
        for trigger, target, kill in _filters(constraint, depth_of):
            filters_at[trigger + 1].append((target, kill))
    check_limit = limit * sum(map(len, filters_at))

    live = [set(values) for values in domains]
    # trails[d]: (target, removed values) logged by filters_at[d]
    trails: list[list[tuple[int, Iterable[int]]]] = [[] for _ in range(n + 1)]
    # Holds every bound variable; entries deeper than the current depth are
    # stale, and no filter reads them.
    assignment: Assignment = {}
    explored = work = checks = 0

    def restore(trail: list[tuple[int, Iterable[int]]]) -> None:
        for target, removed in trail:
            live[target].update(removed)
        trail.clear()

    def narrow(at: int) -> bool:
        """Run filters_at[at]; on a wipeout undo them and return False."""
        nonlocal checks
        trail = trails[at]
        for target, kill in filters_at[at]:
            remaining = live[target]
            checks += len(remaining)
            doomed = kill(assignment, remaining)
            if doomed:
                remaining.difference_update(doomed)
                trail.append((target, doomed))
                if not remaining:
                    restore(trail)
                    return False
        return True

    if not narrow(0):
        return Status.UNSATISFIABLE, [], suffix[0], 1, checks
    for scope in alldiff_scopes:
        matched, cost = _distinct_values_exist(scope, live)
        checks += cost
        check_limit += cost
        if not matched:
            return Status.UNSATISFIABLE, [], suffix[0], 1, checks
    if n == 0:
        return Status.SATISFIABLE, [{}], 1, 1, checks

    solutions: list[Assignment] = []
    cursor = [0] * n  # next value index to scan at each depth
    depth = 0
    last = n - 1
    while True:
        k = cursor[depth]
        if k == len(domains[depth]):
            if depth == 0:
                break  # whole product accounted for
            cursor[depth] = 0
            depth -= 1
            restore(trails[depth + 1])
            continue
        if work >= limit or checks > check_limit:
            # The cursor points at a value not yet accounted for, so work remains.
            return Status.RESOURCE_LIMIT, solutions, explored, work, checks
        cursor[depth] = k + 1
        value = domains[depth][k]
        if value in live[depth]:
            assignment[order[depth]] = value
            if depth == last:
                solutions.append({name: assignment[name] for name in order})
            elif narrow(depth + 1):
                depth += 1
                continue
        # a leaf, or a value filtered out or wiped out with its subtree
        work += 1
        explored += suffix[depth + 1]
        if solutions and stop_at_first:
            break

    if solutions:
        return Status.SATISFIABLE, solutions, explored, work, checks
    return Status.UNSATISFIABLE, solutions, explored, work, checks


def solve(csp: CspInstance, limit: int = DEFAULT_LIMIT) -> SolveResult:
    """First satisfying assignment in lexicographic order, if any."""
    status, solutions, explored, work, checks = _search(csp, limit, stop_at_first=True)
    witness = solutions[0] if status is Status.SATISFIABLE else None
    return SolveResult(
        status=status, witness=witness, explored=explored, work=work, checks=checks
    )


def enumerate_solutions(csp: CspInstance) -> list[Assignment]:
    """All satisfying assignments, in lexicographic order. The budget is
    the product size, which never ends in RESOURCE_LIMIT, so the list is
    complete."""
    _, solutions, _, _, _ = _search(csp, csp.assignment_space_size, stop_at_first=False)
    return solutions


def all_assignments(csp: CspInstance) -> Iterator[Assignment]:
    """Lexicographic iterator over the full domain product (no constraints)."""
    order = csp.variable_ids()
    for values in itertools.product(*(v.domain.values() for v in csp.variables)):
        yield dict(zip(order, values))
