"""In-memory representation of finite-domain constraint problems.

Everything here is immutable after construction and safe to share across
threads. Constraints come in three kinds: extensional tables (positive
"supports" or negative "conflicts" tuple lists), intensional expression
trees, and allDifferent. An instance holds its constraints in groups, one
per XCSP3 `<group>` or lone constraint element. The parser expands every
`<group>` template into concrete constraints, so nothing here knows about
templates or `%i` placeholders. An expression tree is at most
MAX_EXPR_DEPTH operators deep, however it is built: a node past the limit
raises ModelError when it is made, so no recursive walk of a tree exhausts
Python's stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Iterable, Iterator, Mapping, Union

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
# Domain.values() lists at most this many values; no search walks a larger
# domain, and listing one alone would take gigabytes
MAX_LISTED_VALUES = 10**6
# The most operators on one path from an expression tree's root to a leaf.
# The oracle's evaluator and codegen's passes recurse once per level, and
# Python's default recursion limit is 1000 frames; this keeps half of them
# for the caller's own stack.
MAX_EXPR_DEPTH = 500


class ModelError(Exception):
    """A structurally invalid instance or constraint."""


# ---------------------------------------------------------------------------
# Domains and variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
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
        return Domain.from_ranges((v, v) for v in values)

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
        """Every value, ascending; ModelError above MAX_LISTED_VALUES values."""
        if self.size > MAX_LISTED_VALUES:
            raise ModelError(
                f"domain {self.lo}..{self.hi} has {self.size} values, "
                f"more than the {MAX_LISTED_VALUES} csp2c can enumerate"
            )
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


@dataclass(frozen=True, slots=True)
class VariableDecl:
    id: str
    domain: Domain


# ---------------------------------------------------------------------------
# Intensional expression trees
# ---------------------------------------------------------------------------

UNARY_OPS = ("neg", "abs", "not")
BINARY_OPS = ("add", "sub", "mul", "eq", "ne", "lt", "le", "gt", "ge", "and", "or", "dist")
COMPARISON_OPS = ("eq", "ne", "lt", "le", "gt", "ge")


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    depth: ClassVar[int] = 0


@dataclass(frozen=True, slots=True)
class Const:
    value: int

    depth: ClassVar[int] = 0


def _set_depth(node: "Unary | Binary", depth: int) -> None:
    if depth > MAX_EXPR_DEPTH:
        raise ModelError(f"nested deeper than the limit of {MAX_EXPR_DEPTH} operators")
    object.__setattr__(node, "depth", depth)


@dataclass(frozen=True, slots=True)
class Unary:
    op: str
    operand: "Expr"
    # operators on the longest path from this node to a leaf, this one included
    depth: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ModelError(f"unknown unary operator {self.op!r}")
        _set_depth(self, self.operand.depth + 1)


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    depth: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ModelError(f"unknown binary operator {self.op!r}")
        _set_depth(self, max(self.left.depth, self.right.depth) + 1)


Expr = Union[Var, Const, Unary, Binary]


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


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


class Polarity(Enum):
    SUPPORTS = "supports"
    CONFLICTS = "conflicts"


@dataclass(frozen=True, slots=True)
class TableConstraint:
    """Extensional constraint: an explicit tuple list over an ordered scope."""

    scope: tuple[str, ...]
    polarity: Polarity
    tuples: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_table_scope(self.scope)
        for t in self.tuples:
            if len(t) != len(self.scope):
                raise ModelError(
                    f"tuple {t} has arity {len(t)}, scope has arity {len(self.scope)}"
                )

    def with_scope(self, scope: tuple[str, ...]) -> "TableConstraint":
        """The same table over `scope`, which has this table's arity. The
        tuples are shared and were checked when this table was built, so
        only the scope is checked."""
        _check_table_scope(scope)
        if len(scope) != len(self.scope):
            raise ModelError(f"scope {scope} has arity {len(scope)}, table has {len(self.scope)}")
        table = object.__new__(TableConstraint)
        for name, value in (("scope", scope), ("polarity", self.polarity), ("tuples", self.tuples)):
            object.__setattr__(table, name, value)
        return table


def _check_table_scope(scope: tuple[str, ...]) -> None:
    if not scope:
        raise ModelError("table constraint with empty scope")
    if len(set(scope)) != len(scope):
        raise ModelError(f"table scope has repeated variables: {scope}")


@dataclass(frozen=True, slots=True)
class IntensionConstraint:
    """Constraint given by a 0/1-valued expression over its variables."""

    expr: Expr

    @property
    def scope(self) -> tuple[str, ...]:
        return expr_variables(self.expr)


@dataclass(frozen=True, slots=True)
class AllDifferent:
    scope: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.scope)) != len(self.scope):
            raise ModelError(f"allDifferent scope has repeated variables: {self.scope}")
        if len(self.scope) < 2:
            raise ModelError("allDifferent needs at least 2 variables")

    def with_scope(self, scope: tuple[str, ...]) -> "AllDifferent":
        return AllDifferent(scope)


Constraint = Union[TableConstraint, IntensionConstraint, AllDifferent]


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CspInstance:
    name: str
    variables: tuple[VariableDecl, ...]
    # one tuple per XCSP3 <group> (its instantiated constraints, in <args>
    # order) or lone constraint element
    groups: tuple[tuple[Constraint, ...], ...]
    # Original XCSP3 name (e.g. "x[2]") -> flattened scalar id (e.g. "x2").
    flatten_map: Mapping[str, str] = field(default_factory=dict)

    def variable_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variables)

    def constraints(self) -> list[Constraint]:
        return [c for group in self.groups for c in group]

    @property
    def assignment_space_size(self) -> int:
        return math.prod(v.domain.size for v in self.variables)
