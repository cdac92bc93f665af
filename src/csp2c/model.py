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
codegen, verify and the harness. A class lists its fields in `_fields` and
the defaults of any a caller may leave out in `_defaults`; Frozen's one
constructor takes the fields by position or by keyword, and a class writes
its own only to check them first (Unary and Binary, built once per
operator a parse reads, also set their slots themselves). Nothing is
generated when the module is imported: each command starts a new
interpreter, and generating methods (with `inspect` imported to do it)
took about half of csp2c's own import time.
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

    A subclass lists its fields in `_fields`, and the values of any it lets
    a caller leave out in `_defaults`. The one constructor takes the fields
    by position, in `_fields` order, or by keyword, and raises TypeError for
    a missing or unknown one, as a function would. A subclass that checks
    its fields does so in its own `__init__`, then calls `Frozen.__init__`.
    Two objects are equal, and hash equal, when they are of the same class
    with equal fields. `repr` reads `Name(field=value, ...)`. Copy and
    pickle call the class with the fields in order. Assigning or deleting
    an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: ClassVar[tuple[str, ...]]
    # field -> the value of a field left out; one value is shared by every
    # object built without it, so each is immutable
    _defaults: ClassVar[Mapping[str, Any]] = {}
    # the fields' values: the value itself for one field, else a tuple
    _key: ClassVar[attrgetter]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        # every field by position, the common call, needs no binding
        if kwargs or len(args) != len(fields):
            name = f"{self.__class__.__qualname__}()"
            if len(args) > len(fields):
                raise TypeError(f"{name} got {len(args)} arguments for its fields {fields}")
            given = dict(zip(fields, args))
            for key, value in kwargs.items():
                if key in given:
                    raise TypeError(f"{name} got multiple values for argument {key!r}")
                if key not in fields:
                    raise TypeError(f"{name} got an unexpected keyword argument {key!r}")
                given[key] = value
            given = {**self._defaults, **given}
            missing = ", ".join(repr(key) for key in fields if key not in given)
            if missing:
                raise TypeError(f"{name} missing required arguments: {missing}")
            args = tuple(given[key] for key in fields)
        # a counter, not zip or enumerate, as it is the cheaper loop: one
        # parse builds tens of thousands of values
        i = 0
        for key in fields:
            set_slot(self, key, args[i])
            i += 1

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
        Frozen.__init__(self, ranges)

    @staticmethod
    def from_values(values: Iterable[int]) -> "Domain":
        return Domain.from_ranges((v, v) for v in values)

    @staticmethod
    def from_ranges(pairs: Iterable[tuple[int, int]]) -> "Domain":
        # Merge overlapping or adjacent ranges so the normal form is unique.
        ordered = sorted(pairs)
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


class Const(Frozen):
    __slots__ = _fields = ("value",)
    value: int

    depth: ClassVar[int] = 0


_TOO_DEEP = f"nested deeper than the limit of {MAX_EXPR_DEPTH} operators"


# An operator node's `depth` is a slot but not a field, so equality, hash
# and repr leave it out. A parse builds one node per operator, so these two
# set their slots themselves, without Frozen.__init__'s loop over the fields.
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
        depth = operand.depth + 1
        if depth > MAX_EXPR_DEPTH:
            raise ModelError(_TOO_DEEP)
        set_slot(self, "op", op)
        set_slot(self, "operand", operand)
        set_slot(self, "depth", depth)


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
        depth = (left.depth if left.depth > right.depth else right.depth) + 1
        if depth > MAX_EXPR_DEPTH:
            raise ModelError(_TOO_DEEP)
        set_slot(self, "op", op)
        set_slot(self, "left", left)
        set_slot(self, "right", right)
        set_slot(self, "depth", depth)


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
        Frozen.__init__(self, scope, polarity, tuples)

    def with_scope(self, scope: tuple[str, ...]) -> "TableConstraint":
        """The same table over `scope`, which has this table's arity. The
        tuples are shared and were checked when this table was built, so
        only the scope is checked."""
        _check_table_scope(scope)
        if len(scope) != len(self.scope):
            raise ModelError(f"scope {scope} has arity {len(scope)}, table has {len(self.scope)}")
        table = object.__new__(TableConstraint)
        Frozen.__init__(table, scope, self.polarity, self.tuples)
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
        Frozen.__init__(self, scope)

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
    _fields = ("name", "variables", "groups")
    # codegen memoizes its analysis of an instance through a weak reference
    __slots__ = _fields + ("__weakref__",)
    name: str
    variables: tuple[VariableDecl, ...]
    # one tuple per XCSP3 <group> (its instantiated constraints, in <args>
    # order) or lone constraint element
    groups: tuple[tuple[Constraint, ...], ...]

    def variable_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variables)

    def constraints(self) -> list[Constraint]:
        return [c for group in self.groups for c in group]

    @property
    def assignment_space_size(self) -> int:
        return math.prod(v.domain.size for v in self.variables)
