"""In-memory representation of finite-domain constraint problems.

Everything here is immutable after construction and safe to share across
threads. Constraints come in three kinds: extensional tables (positive
"supports" or negative "conflicts" tuple lists), intensional expression
trees, and allDifferent. Constraints are held in groups: either a concrete
singleton or a template with positional `%i` placeholders plus one argument
vector per instantiated constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence, Union

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


class ModelError(Exception):
    """A structurally invalid instance, constraint, or group."""


# ---------------------------------------------------------------------------
# Domains and variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """A finite set of integers stored as disjoint ascending inclusive ranges."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ModelError("empty domain")
        prev_hi = None
        for lo, hi in self.ranges:
            if lo > hi:
                raise ModelError(f"bad domain range {lo}..{hi}")
            if prev_hi is not None and lo <= prev_hi:
                raise ModelError("domain ranges must be disjoint and ascending")
            prev_hi = hi

    @staticmethod
    def from_values(values: Iterable[int]) -> "Domain":
        vals = sorted(set(values))
        if not vals:
            raise ModelError("empty domain")
        ranges: list[tuple[int, int]] = []
        lo = hi = vals[0]
        for v in vals[1:]:
            if v == hi + 1:
                hi = v
            else:
                ranges.append((lo, hi))
                lo = hi = v
        ranges.append((lo, hi))
        return Domain(tuple(ranges))

    @staticmethod
    def from_ranges(pairs: Iterable[tuple[int, int]]) -> "Domain":
        # Merge overlapping or adjacent ranges so the normal form is unique.
        ordered = sorted(pairs)
        if not ordered:
            raise ModelError("empty domain")
        merged: list[tuple[int, int]] = []
        for lo, hi in ordered:
            if lo > hi:
                raise ModelError(f"bad domain range {lo}..{hi}")
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return Domain(tuple(merged))

    def values(self) -> list[int]:
        out: list[int] = []
        for lo, hi in self.ranges:
            out.extend(range(lo, hi + 1))
        return out

    def __contains__(self, value: int) -> bool:
        return any(lo <= value <= hi for lo, hi in self.ranges)

    @property
    def size(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.ranges)

    @property
    def lo(self) -> int:
        return self.ranges[0][0]

    @property
    def hi(self) -> int:
        return self.ranges[-1][1]

    @property
    def is_contiguous(self) -> bool:
        return len(self.ranges) == 1


@dataclass(frozen=True)
class VariableDecl:
    id: str
    domain: Domain


# ---------------------------------------------------------------------------
# Intensional expression trees
# ---------------------------------------------------------------------------

UNARY_OPS = ("neg", "abs", "not")
BINARY_OPS = ("add", "sub", "mul", "eq", "ne", "lt", "le", "gt", "ge", "and", "or", "dist")
COMPARISON_OPS = ("eq", "ne", "lt", "le", "gt", "ge")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Placeholder:
    index: int


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ModelError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ModelError(f"unknown binary operator {self.op!r}")


Expr = Union[Var, Const, Placeholder, Unary, Binary]


def expr_nodes(expr: Expr) -> Iterator[Expr]:
    """Every node of the tree in pre-order, left operand before right."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Binary):
            stack += (node.right, node.left)
        elif isinstance(node, Unary):
            stack.append(node.operand)


def expr_variables(expr: Expr) -> tuple[str, ...]:
    """Variable names in first-occurrence order."""
    return tuple(dict.fromkeys(n.name for n in expr_nodes(expr) if isinstance(n, Var)))


def expr_placeholders(expr: Expr) -> tuple[int, ...]:
    return tuple(sorted({n.index for n in expr_nodes(expr) if isinstance(n, Placeholder)}))


def substitute_placeholders(expr: Expr, args: Sequence[Union[str, int]]) -> Expr:
    def walk(node: Expr) -> Expr:
        if isinstance(node, Placeholder):
            arg = args[node.index]
            return Const(arg) if isinstance(arg, int) else Var(arg)
        if isinstance(node, Unary):
            return Unary(node.op, walk(node.operand))
        if isinstance(node, Binary):
            return Binary(node.op, walk(node.left), walk(node.right))
        return node

    return walk(expr)


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


class Polarity(Enum):
    SUPPORTS = "supports"
    CONFLICTS = "conflicts"


def _is_placeholder_token(token: str) -> bool:
    return token.startswith("%")


@dataclass(frozen=True)
class TableConstraint:
    """Extensional constraint: an explicit tuple list over an ordered scope."""

    scope: tuple[str, ...]
    polarity: Polarity
    tuples: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.scope:
            raise ModelError("table constraint with empty scope")
        concrete = [v for v in self.scope if not _is_placeholder_token(v)]
        if len(set(concrete)) != len(concrete):
            raise ModelError(f"table scope has repeated variables: {self.scope}")
        for t in self.tuples:
            if len(t) != len(self.scope):
                raise ModelError(
                    f"tuple {t} has arity {len(t)}, scope has arity {len(self.scope)}"
                )


@dataclass(frozen=True)
class IntensionConstraint:
    """Constraint given by a 0/1-valued expression over its variables."""

    expr: Expr

    @property
    def scope(self) -> tuple[str, ...]:
        return expr_variables(self.expr)


@dataclass(frozen=True)
class AllDifferent:
    scope: tuple[str, ...]

    def __post_init__(self) -> None:
        concrete = [v for v in self.scope if not _is_placeholder_token(v)]
        if len(set(concrete)) != len(concrete):
            raise ModelError(f"allDifferent scope has repeated variables: {self.scope}")
        if len(self.scope) < 2:
            raise ModelError("allDifferent needs at least 2 variables")


Constraint = Union[TableConstraint, IntensionConstraint, AllDifferent]


def _template_placeholder_count(template: Constraint) -> int:
    """Number of `%i` slots; indices must be exactly 0..k-1."""
    if isinstance(template, IntensionConstraint):
        indices = expr_placeholders(template.expr)
    else:
        indices = tuple(
            sorted({int(v[1:]) for v in template.scope if _is_placeholder_token(v)})
        )
    if not indices:
        return 0
    if indices != tuple(range(len(indices))):
        raise ModelError(f"placeholder indices are not contiguous from %0: {indices}")
    return len(indices)


@dataclass(frozen=True)
class ConstraintGroup:
    """A constraint template plus argument vectors, or a concrete singleton.

    A singleton has an empty args list and a placeholder-free template.
    """

    template: Constraint
    args_list: tuple[tuple[Union[str, int], ...], ...] = ()
    name: str = "group"

    @staticmethod
    def singleton(constraint: Constraint, name: str = "constraint") -> "ConstraintGroup":
        return ConstraintGroup(template=constraint, args_list=(), name=name)

    @property
    def placeholder_count(self) -> int:
        return _template_placeholder_count(self.template)


def instantiate_group(group: ConstraintGroup) -> list[Constraint]:
    """Substitute each args vector into the template, preserving order.

    A singleton group yields its concrete template unchanged. Raises
    ModelError naming the group and the offending vector on arity mismatch.
    """
    count = group.placeholder_count
    if not group.args_list:
        if count:
            raise ModelError(f"{group.name}: template has placeholders but no args")
        return [group.template]
    if count == 0:
        raise ModelError(f"{group.name}: args given for a template without placeholders")

    out: list[Constraint] = []
    for vec in group.args_list:
        if len(vec) != count:
            raise ModelError(
                f"{group.name}: args vector {vec} has {len(vec)} entries, "
                f"template expects {count}"
            )
        out.append(_substitute(group.template, vec))
    return out


def _substitute(template: Constraint, args: Sequence[Union[str, int]]) -> Constraint:
    def slot(token: str) -> str:
        if _is_placeholder_token(token):
            arg = args[int(token[1:])]
            if isinstance(arg, int):
                raise ModelError(f"integer argument {arg} used as a scope variable")
            return arg
        return token

    if isinstance(template, TableConstraint):
        return TableConstraint(
            scope=tuple(slot(v) for v in template.scope),
            polarity=template.polarity,
            tuples=template.tuples,
        )
    if isinstance(template, AllDifferent):
        return AllDifferent(scope=tuple(slot(v) for v in template.scope))
    return IntensionConstraint(expr=substitute_placeholders(template.expr, args))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CspInstance:
    name: str
    variables: tuple[VariableDecl, ...]
    groups: tuple[ConstraintGroup, ...]
    # Original XCSP3 name (e.g. "x[2]") -> flattened scalar id (e.g. "x2").
    flatten_map: Mapping[str, str] = field(default_factory=dict)

    def variable_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variables)

    @cached_property
    def _domains(self) -> dict[str, Domain]:
        return {v.id: v.domain for v in self.variables}

    def domain_of(self, var_id: str) -> Domain:
        return self._domains[var_id]

    def constraints(self) -> list[Constraint]:
        out: list[Constraint] = []
        for g in self.groups:
            out.extend(instantiate_group(g))
        return out

    @property
    def assignment_space_size(self) -> int:
        return math.prod(v.domain.size for v in self.variables)


def validate_instance(csp: CspInstance) -> None:
    """Check id uniqueness and that every scope variable is declared."""
    ids = csp.variable_ids()
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ModelError(f"duplicate variable ids: {', '.join(dupes)}")
    declared = set(ids)
    for constraint in csp.constraints():
        for v in constraint.scope:
            if v not in declared:
                raise ModelError(f"constraint references undeclared variable {v!r}")
