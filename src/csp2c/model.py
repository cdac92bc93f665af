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

The value classes are plain `__slots__` classes over one base, Frozen, and
so is every other value csp2c defines, in the oracle, the XCSP3 reader,
codegen, verify and the harness. Their methods are written out, not
generated when the module is imported: each command starts a new
interpreter, and generating them (with `inspect` imported to do it) took
about half of csp2c's own import time.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter
from typing import Any, ClassVar, Iterable, Iterator, Mapping, Union

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


# sets a slot of a Frozen object, whose own __setattr__ refuses
set_slot = object.__setattr__


class Frozen:
    """Base of the immutable value classes.

    A subclass lists its fields in `_fields`, in constructor order, and its
    `__init__` sets each slot through `set_slot`, or all of them at once
    through `_set`. Two objects are equal, and hash equal, when they are of
    the same class with equal fields. `repr` reads `Name(field=value, ...)`.
    Copy and pickle call the class with the fields in order. Assigning or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: ClassVar[tuple[str, ...]]
    # the fields' values: the value itself for one field, else a tuple
    _key: ClassVar[attrgetter]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def _set(self, *values: Any) -> None:
        """Set the fields to `values`, in `_fields` order."""
        for name, value in zip(self._fields, values, strict=True):
            set_slot(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


# ---------------------------------------------------------------------------
# Domains and variables
# ---------------------------------------------------------------------------


class Domain(Frozen):
    """A finite set of integers stored as disjoint ascending inclusive ranges."""

    __slots__ = _fields = ("ranges",)
    ranges: tuple[tuple[int, int], ...]

    def __init__(self, ranges: tuple[tuple[int, int], ...]) -> None:
        if not ranges:
            raise ModelError("empty domain")
        prev_hi = None
        for lo, hi in ranges:
            if lo > hi:
                raise ModelError(f"bad domain range {lo}..{hi}")
            if prev_hi is not None and lo <= prev_hi:
                raise ModelError("domain ranges must be disjoint and ascending")
            prev_hi = hi
        set_slot(self, "ranges", ranges)

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


class VariableDecl(Frozen):
    __slots__ = _fields = ("id", "domain")
    id: str
    domain: Domain

    def __init__(self, id: str, domain: Domain) -> None:
        set_slot(self, "id", id)
        set_slot(self, "domain", domain)


# ---------------------------------------------------------------------------
# Intensional expression trees
# ---------------------------------------------------------------------------

UNARY_OPS = ("neg", "abs", "not")
BINARY_OPS = ("add", "sub", "mul", "eq", "ne", "lt", "le", "gt", "ge", "and", "or", "dist")
COMPARISON_OPS = ("eq", "ne", "lt", "le", "gt", "ge")


class Var(Frozen):
    __slots__ = _fields = ("name",)
    name: str

    depth: ClassVar[int] = 0

    def __init__(self, name: str) -> None:
        set_slot(self, "name", name)


class Const(Frozen):
    __slots__ = _fields = ("value",)
    value: int

    depth: ClassVar[int] = 0

    def __init__(self, value: int) -> None:
        set_slot(self, "value", value)


def _checked_depth(depth: int) -> int:
    if depth > MAX_EXPR_DEPTH:
        raise ModelError(f"nested deeper than the limit of {MAX_EXPR_DEPTH} operators")
    return depth


# An operator node's `depth` is a slot but not a field, so equality, hash
# and repr leave it out.
class Unary(Frozen):
    __slots__ = ("op", "operand", "depth")
    _fields = ("op", "operand")
    op: str
    operand: "Expr"
    # operators on the longest path from this node to a leaf, this one included
    depth: int

    def __init__(self, op: str, operand: "Expr") -> None:
        if op not in UNARY_OPS:
            raise ModelError(f"unknown unary operator {op!r}")
        set_slot(self, "depth", _checked_depth(operand.depth + 1))
        set_slot(self, "op", op)
        set_slot(self, "operand", operand)


class Binary(Frozen):
    __slots__ = ("op", "left", "right", "depth")
    _fields = ("op", "left", "right")
    op: str
    left: "Expr"
    right: "Expr"
    depth: int

    def __init__(self, op: str, left: "Expr", right: "Expr") -> None:
        if op not in BINARY_OPS:
            raise ModelError(f"unknown binary operator {op!r}")
        set_slot(self, "depth", _checked_depth(max(left.depth, right.depth) + 1))
        set_slot(self, "op", op)
        set_slot(self, "left", left)
        set_slot(self, "right", right)


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


class TableConstraint(Frozen):
    """Extensional constraint: an explicit tuple list over an ordered scope."""

    __slots__ = _fields = ("scope", "polarity", "tuples")
    scope: tuple[str, ...]
    polarity: Polarity
    tuples: tuple[tuple[int, ...], ...]

    def __init__(
        self, scope: tuple[str, ...], polarity: Polarity, tuples: tuple[tuple[int, ...], ...]
    ) -> None:
        _check_table_scope(scope)
        for t in tuples:
            if len(t) != len(scope):
                raise ModelError(f"tuple {t} has arity {len(t)}, scope has arity {len(scope)}")
        self._assign(scope, polarity, tuples)

    def _assign(
        self, scope: tuple[str, ...], polarity: Polarity, tuples: tuple[tuple[int, ...], ...]
    ) -> None:
        set_slot(self, "scope", scope)
        set_slot(self, "polarity", polarity)
        set_slot(self, "tuples", tuples)

    def with_scope(self, scope: tuple[str, ...]) -> "TableConstraint":
        """The same table over `scope`, which has this table's arity. The
        tuples are shared and were checked when this table was built, so
        only the scope is checked."""
        _check_table_scope(scope)
        if len(scope) != len(self.scope):
            raise ModelError(f"scope {scope} has arity {len(scope)}, table has {len(self.scope)}")
        table = object.__new__(TableConstraint)
        table._assign(scope, self.polarity, self.tuples)
        return table


def _check_table_scope(scope: tuple[str, ...]) -> None:
    if not scope:
        raise ModelError("table constraint with empty scope")
    if len(set(scope)) != len(scope):
        raise ModelError(f"table scope has repeated variables: {scope}")


class IntensionConstraint(Frozen):
    """Constraint given by a 0/1-valued expression over its variables."""

    __slots__ = _fields = ("expr",)
    expr: Expr

    def __init__(self, expr: Expr) -> None:
        set_slot(self, "expr", expr)

    @property
    def scope(self) -> tuple[str, ...]:
        return expr_variables(self.expr)


class AllDifferent(Frozen):
    __slots__ = _fields = ("scope",)
    scope: tuple[str, ...]

    def __init__(self, scope: tuple[str, ...]) -> None:
        if len(set(scope)) != len(scope):
            raise ModelError(f"allDifferent scope has repeated variables: {scope}")
        if len(scope) < 2:
            raise ModelError("allDifferent needs at least 2 variables")
        set_slot(self, "scope", scope)

    def with_scope(self, scope: tuple[str, ...]) -> "AllDifferent":
        return AllDifferent(scope)


Constraint = Union[TableConstraint, IntensionConstraint, AllDifferent]


# The version matrix's families (codegen.family_of reads an instance's) and
# the dialects its programs are written in. codegen re-exports both; they
# live here so that the harness checks a manifest without loading codegen.
class Family(Enum):
    EXTENSIONAL = "extensional"
    INTENSIONAL = "intensional"


class Dialect(Enum):
    KLEE = "klee"
    LLBMC = "llbmc"
    CONCRETE = "concrete"


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


class CspInstance(Frozen):
    _fields = ("name", "variables", "groups", "flatten_map")
    # codegen memoizes its analysis of an instance through a weak reference
    __slots__ = _fields + ("__weakref__",)
    name: str
    variables: tuple[VariableDecl, ...]
    # one tuple per XCSP3 <group> (its instantiated constraints, in <args>
    # order) or lone constraint element
    groups: tuple[tuple[Constraint, ...], ...]
    # Original XCSP3 name (e.g. "x[2]") -> flattened scalar id (e.g. "x2").
    flatten_map: Mapping[str, str]

    def __init__(
        self,
        name: str,
        variables: tuple[VariableDecl, ...],
        groups: tuple[tuple[Constraint, ...], ...],
        flatten_map: Mapping[str, str] | None = None,
    ) -> None:
        set_slot(self, "name", name)
        set_slot(self, "variables", variables)
        set_slot(self, "groups", groups)
        set_slot(self, "flatten_map", {} if flatten_map is None else flatten_map)

    def variable_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variables)

    def constraints(self) -> list[Constraint]:
        return [c for group in self.groups for c in group]

    @property
    def assignment_space_size(self) -> int:
        return math.prod(v.domain.size for v in self.variables)
