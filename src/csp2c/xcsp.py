"""Reader for the XCSP3 subset used by the generated C benchmarks.

Supported elements:

  <instance>      root, optional format/type attributes (type must be CSP)
  <variables>     with <var id=..> and one-dimensional <array id=.. size="[n]">;
                  domains are whitespace lists mixing integers and "l..u" ranges
  <constraints>   with:
    <extension>   <list> scope </list> plus exactly one of
                  <supports>/<conflicts> holding "(v,..,v) (v,..,v)" tuples
                  (bare integers allowed for arity-1 scopes)
    <intension>   functional prefix syntax, e.g. eq(%0,dist(%1,%2))
    <allDifferent> whitespace-separated scope
    <group>       one template (any of the three above, with %i placeholders)
                  followed by one <args> row per instantiated constraint

Anything else is rejected with an "unsupported" diagnostic naming the
element; tuple wildcards (*) are rejected. Groups end here: the reader
parses each template once and builds one concrete constraint per <args>
row, so the model, the oracle and the code generator never see a template
or a placeholder. Array variables are flattened to scalars (x[2] -> x2) and
the mapping is kept on the instance; where that name belongs to another
variable, underscores go before the index (x1[0] -> x1_0 next to x[10]).
Parsing is a pure function of the input text and linear in its size.
"""

from __future__ import annotations

import os
import re
import xml.parsers.expat
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

from .model import (
    AllDifferent,
    Binary,
    Const,
    Constraint,
    CspInstance,
    Domain,
    Expr,
    IntensionConstraint,
    ModelError,
    Polarity,
    TableConstraint,
    Unary,
    UNARY_OPS,
    Var,
    VariableDecl,
    validate_instance,
)

# one entry of an <args> row: a flattened variable id or an integer
Arg = Union[str, int]

_INT_RE = re.compile(r"-?\d+")
_RANGE_RE = re.compile(r"(-?\d+)\.\.(-?\d+)")
_PLACEHOLDER_RE = re.compile(r"%\d+")
# a variable reference: a name, an array element `x[3]` or a whole array `x[]`
_REFERENCE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d*)\])?")


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    path: str
    line: int | None
    message: str

    def __str__(self) -> str:
        where = self.path if self.line is None else f"{self.path} (line {self.line})"
        return f"{self.severity} at {where}: {self.message}"


class ParseFailure(Exception):
    """Raised when a document cannot be turned into an instance."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


class IntensionSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class Placeholder:
    """A `%i` slot in a <group> template's intension tree. The reader fills
    every slot from the group's <args> rows, so no CspInstance holds one."""

    index: int


@dataclass(frozen=True)
class _Template:
    """One parsed constraint element. `build` fills the `%i` slots, whose
    indices `slots` lists in ascending order, from one args row; a lone
    constraint has no slots and `build(())` returns it."""

    slots: tuple[int, ...]
    build: Callable[[Sequence[Arg]], Constraint]

    def instantiate(self, name: str, rows: Sequence[tuple[Arg, ...]]) -> tuple[Constraint, ...]:
        """One constraint per args row, in row order; ModelError names the
        group and the first bad row."""
        count = len(self.slots)
        if self.slots != tuple(range(count)):
            raise ModelError(f"placeholder indices are not contiguous from %0: {self.slots}")
        if not count:
            raise ModelError(f"{name}: args given for a template without placeholders")
        out = []
        for row in rows:
            if len(row) != count:
                raise ModelError(
                    f"{name}: args vector {row} has {len(row)} entries, template expects {count}"
                )
            out.append(self.build(row))
        return tuple(out)


def _map_leaves(expr: Expr, leaf: Callable[[Expr], Expr]) -> Expr:
    """The tree with each leaf replaced by `leaf(leaf)`, visited left to right."""
    if isinstance(expr, Unary):
        return Unary(expr.op, _map_leaves(expr.operand, leaf))
    if isinstance(expr, Binary):
        return Binary(expr.op, _map_leaves(expr.left, leaf), _map_leaves(expr.right, leaf))
    return leaf(expr)


def _fill_expr(tree: Expr, args: Sequence[Arg]) -> Expr:
    def fill(leaf: Expr) -> Expr:
        if isinstance(leaf, Placeholder):
            arg = args[leaf.index]
            return Const(arg) if isinstance(arg, int) else Var(arg)
        return leaf

    return _map_leaves(tree, fill)


def _fill_scope(scope: tuple[str, ...], args: Sequence[Arg]) -> tuple[str, ...]:
    out = []
    for token in scope:
        if token.startswith("%"):
            arg = args[int(token[1:])]
            if isinstance(arg, int):
                raise ModelError(f"integer argument {arg} used as a scope variable")
            token = arg
        out.append(token)
    return tuple(out)


# ---------------------------------------------------------------------------
# Minimal DOM with line numbers (expat keeps us honest about malformed input)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Node:
    tag: str
    attrib: dict[str, str]
    line: int
    children: list["_Node"] = field(default_factory=list)
    _text: list[str] = field(default_factory=list)
    parent_path: str = ""
    sibling_index: int = 1
    # children seen so far per tag, for the next child's sibling_index
    _tag_counts: dict[str, int] = field(default_factory=dict)

    @property
    def text(self) -> str:
        return "".join(self._text)

    @property
    def path(self) -> str:
        return f"{self.parent_path}/{self.tag}[{self.sibling_index}]"


def _parse_xml(text: str | bytes) -> _Node:
    parser = xml.parsers.expat.ParserCreate()
    root: list[_Node] = []
    stack: list[_Node] = []

    def start(tag: str, attrib: dict[str, str]) -> None:
        node = _Node(tag=tag, attrib=dict(attrib), line=parser.CurrentLineNumber)
        if stack:
            parent = stack[-1]
            node.parent_path = parent.path
            node.sibling_index = parent._tag_counts[tag] = parent._tag_counts.get(tag, 0) + 1
            parent.children.append(node)
        else:
            root.append(node)
        stack.append(node)

    def end(tag: str) -> None:
        stack.pop()

    def chars(data: str) -> None:
        if stack:
            stack[-1]._text.append(data)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    parser.Parse(text, True)
    if not root:
        raise xml.parsers.expat.ExpatError("no document element")
    return root[0]


# ---------------------------------------------------------------------------
# Intensional expression syntax
# ---------------------------------------------------------------------------

# one token, after any whitespace: an integer, a `%i` placeholder, a name
# (an operator or a variable, possibly an array element) or punctuation
_TOKEN_RE = re.compile(r"\s*(-?\d+|%\d+|[A-Za-z_][A-Za-z0-9_]*(?:\[\d+\])*|[(),])")

# The most operators on one path from an intension's root to a leaf. The
# oracle's evaluator and codegen's passes recurse once per level, and
# Python's default recursion limit is 1000 frames; this keeps half of them
# for the caller's own stack.
MAX_EXPR_DEPTH = 500
# n-ary in XCSP3; folded left-to-right into binary nodes
_FOLDABLE = ("add", "mul", "and", "or")
_BINARY_ONLY = ("sub", "eq", "ne", "lt", "le", "gt", "ge", "dist")


def _unexpected_character(text: str) -> str:
    """The first character of `text` that starts no token."""
    pos = 0
    while m := _TOKEN_RE.match(text, pos):
        pos = m.end()
    return text[pos:].lstrip()[0]


def _tokenize(text: str) -> list[str]:
    # findall skips what no token matches, so the tokens spell the text
    # without its whitespace exactly when every character was matched
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != "".join(text.split()):
        raise IntensionSyntaxError(f"unexpected character {_unexpected_character(text)!r}")
    return tokens


def _build(op: str, args: list[tuple[Expr, int]]) -> tuple[Expr, int]:
    """The node of `op` over its (argument, depth) pairs, with its depth."""
    if op in UNARY_OPS:
        if len(args) != 1:
            raise IntensionSyntaxError(f"{op} takes 1 argument, got {len(args)}")
        [(arg, depth)] = args
        if op == "abs" and isinstance(arg, Binary) and arg.op == "sub":
            return Binary("dist", arg.left, arg.right), depth
        return Unary(op, arg), depth + 1
    if op in _FOLDABLE:
        if len(args) < 2:
            raise IntensionSyntaxError(f"{op} takes at least 2 arguments")
        node, depth = args[0]
        for right, right_depth in args[1:]:
            node = Binary(op, node, right)
            depth = max(depth, right_depth) + 1
        return node, depth
    if op in _BINARY_ONLY:
        if len(args) != 2:
            raise IntensionSyntaxError(f"{op} takes 2 arguments, got {len(args)}")
        (left, left_depth), (right, right_depth) = args
        return Binary(op, left, right), max(left_depth, right_depth) + 1
    raise IntensionSyntaxError(f"unknown operator {op!r}")


def _too_deep() -> IntensionSyntaxError:
    return IntensionSyntaxError(f"nested deeper than the limit of {MAX_EXPR_DEPTH} operators")


def _parse_tree(text: str, leaf: Callable[[str], Expr]) -> Expr:
    """The tree of functional prefix syntax, each variable or `%i` token
    turned into a leaf by `leaf`, left to right, as the tree is built.

    Neither the written nesting nor the tree, where an n-ary operator folds
    into n-1 levels, may be more than MAX_EXPR_DEPTH operators deep."""
    tokens = _tokenize(text)
    end = len(tokens)
    pos = 0

    def expr(nesting: int) -> tuple[Expr, int]:
        """The next expression and its depth in operators."""
        nonlocal pos
        if pos == end:
            raise IntensionSyntaxError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        first = tok[0]
        if first == "-" or first.isdecimal():
            return Const(int(tok)), 0
        if first in "(),":
            raise IntensionSyntaxError(f"unexpected {tok!r}")
        if first == "%" or pos == end or tokens[pos] != "(":
            return leaf(tok), 0
        if nesting == MAX_EXPR_DEPTH:
            raise _too_deep()
        pos += 1
        args = [expr(nesting + 1)]
        while pos < end and tokens[pos] == ",":
            pos += 1
            args.append(expr(nesting + 1))
        if pos == end:
            raise IntensionSyntaxError("unexpected end of expression")
        if tokens[pos] != ")":
            raise IntensionSyntaxError(f"expected ')', found {tokens[pos]!r}")
        pos += 1
        return _build(tok, args)

    tree, depth = expr(0)
    if pos != end:
        raise IntensionSyntaxError(f"trailing input after expression: {tokens[pos]!r}")
    if depth > MAX_EXPR_DEPTH:
        raise _too_deep()
    return tree


def _unresolved_leaf(token: str) -> Expr:
    return Placeholder(int(token[1:])) if token[0] == "%" else Var(token)


def parse_intension(text: str) -> Expr:
    """Parse functional prefix syntax into an expression tree.

    `%i` placeholders are kept as Placeholder nodes, which a <group>'s args
    rows fill; abs(sub(a,b)) is normalized to dist(a,b).
    """
    return _parse_tree(text, _unresolved_leaf)


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------


class _DocParser:
    def __init__(self, name: str):
        self.name = name
        self.diagnostics: list[ParseDiagnostic] = []
        self.variables: list[VariableDecl] = []
        self.flatten_map: dict[str, str] = {}
        self.groups: list[tuple[Constraint, ...]] = []
        self._declared: set[str] = set()
        # array id -> {index: flattened id}, in declaration order
        self._arrays: dict[str, dict[int, str]] = {}
        # every <var> id of the document, so no array element takes one
        self._scalar_ids: set[str] = set()
        self._group_counter = 0
        # intension leaf token -> its resolved Var, shared by every tree
        self._leaves: dict[str, Var] = {}

    def error(self, node: _Node, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic("error", node.path, node.line, message))

    def unsupported(self, node: _Node) -> None:
        self.error(node, f"unsupported XCSP3 element <{node.tag}>")

    # -- variables ----------------------------------------------------------

    def parse_domain(self, node: _Node) -> Domain | None:
        ranges: list[tuple[int, int]] = []
        for token in node.text.split():
            m = _RANGE_RE.fullmatch(token)
            if m:
                ranges.append((int(m.group(1)), int(m.group(2))))
                continue
            if _INT_RE.fullmatch(token):
                v = int(token)
                ranges.append((v, v))
                continue
            self.error(node, f"cannot parse domain token {token!r}")
            return None
        if not ranges:
            self.error(node, "empty domain")
            return None
        try:
            return Domain.from_ranges(ranges)
        except ModelError as exc:
            self.error(node, str(exc))
            return None

    def declare(self, node: _Node, var_id: str, domain: Domain) -> None:
        if var_id in self._declared:
            self.error(node, f"duplicate variable id {var_id!r}")
            return
        self._declared.add(var_id)
        self.variables.append(VariableDecl(var_id, domain))

    def parse_variables(self, node: _Node) -> None:
        for child in node.children:
            if child.tag == "var":
                var_id = child.attrib.get("id")
                if not var_id:
                    self.error(child, "<var> without id")
                    continue
                if child.attrib.get("type", "integer") != "integer":
                    self.error(child, f"unsupported var type {child.attrib['type']!r}")
                    continue
                domain = self.parse_domain(child)
                if domain is not None:
                    self.declare(child, var_id, domain)
            elif child.tag == "array":
                self.parse_array(child)
            else:
                self.unsupported(child)

    def parse_array(self, node: _Node) -> None:
        array_id = node.attrib.get("id")
        size = node.attrib.get("size", "")
        if not array_id:
            self.error(node, "<array> without id")
            return
        m = re.fullmatch(r"\[(\d+)\]", size.strip())
        if not m:
            self.error(node, f"unsupported array size {size!r} (only one dimension)")
            return
        if node.children:
            self.error(node, "unsupported <array> with child elements")
            return
        domain = self.parse_domain(node)
        if domain is None:
            return
        members = self._arrays.setdefault(array_id, {})
        for i in range(int(m.group(1))):
            key = f"{array_id}[{i}]"
            # a redeclared array keeps its names, and declare reports them
            flat = self.flatten_map.get(key) or self._flat_id(array_id, i)
            self.flatten_map[key] = members[i] = flat
            self.declare(node, flat, domain)

    def _flat_id(self, array_id: str, i: int) -> str:
        """`x[10]` becomes x10, or x_10, x__10, ... when another variable has that id."""
        sep = ""
        while (flat := f"{array_id}{sep}{i}") in self._declared or flat in self._scalar_ids:
            sep += "_"
        return flat

    # -- scope/argument tokens ----------------------------------------------

    def resolve_token(
        self, node: _Node, token: str, *, allow_placeholder: bool, allow_int: bool
    ) -> Union[str, int, None]:
        if _PLACEHOLDER_RE.fullmatch(token):
            if allow_placeholder:
                return token
            self.error(node, f"placeholder {token} outside a <group> template")
            return None
        if _INT_RE.fullmatch(token):
            if allow_int:
                return int(token)
            self.error(node, f"integer {token} where a variable is required")
            return None
        m = _REFERENCE_RE.fullmatch(token)
        if m is None:
            self.error(node, f"cannot parse variable token {token!r}")
            return None
        index = m.group(2)
        if index is None:
            if token in self._declared:
                return token
            self.error(node, f"reference to undeclared variable {token!r}")
            return None
        if not index:
            return token  # a whole array, expanded by resolve_scope
        flat = self.flatten_map.get(token)
        if flat is None:
            self.error(node, f"reference to undeclared array element {token!r}")
            return None
        return flat

    def resolve_scope(
        self, node: _Node, text: str, *, allow_placeholder: bool, allow_int: bool = False
    ) -> list[Union[str, int]] | None:
        out: list[Union[str, int]] = []
        for token in text.split():
            m = _REFERENCE_RE.fullmatch(token)
            if m and m.group(2) == "":
                members = self._arrays.get(m.group(1))
                if not members:
                    self.error(node, f"reference to undeclared array {m.group(1)!r}")
                    return None
                out.extend(members.values())
                continue
            resolved = self.resolve_token(
                node, token, allow_placeholder=allow_placeholder, allow_int=allow_int
            )
            if resolved is None:
                return None
            out.append(resolved)
        if not out:
            self.error(node, "empty variable list")
            return None
        return out

    # -- constraints ---------------------------------------------------------

    def parse_tuples(self, node: _Node, arity: int) -> tuple[tuple[int, ...], ...] | None:
        text = node.text.strip()
        if "(" in text:
            rows = [
                [item for item in re.split(r"[\s,]+", body) if item]
                for body in re.findall(r"\(([^()]*)\)", text)
            ]
            leftover = re.sub(r"\([^()]*\)", "", text).strip()
        else:
            # Arity-1 tables may list bare values.
            rows, leftover = [[item] for item in text.split()], ""
        tuples: list[tuple[int, ...]] = []
        for items in rows:
            for item in items:
                if item == "*":
                    self.error(node, "wildcard (*) tuples are not supported")
                    return None
                if not _INT_RE.fullmatch(item):
                    self.error(node, f"cannot parse tuple value {item!r}")
                    return None
            tuples.append(tuple(int(item) for item in items))
        if leftover:
            self.error(node, f"stray text in tuple list: {leftover!r}")
            return None
        if not tuples:
            self.error(node, "empty tuple list")
            return None
        for row in tuples:
            if len(row) != arity:
                self.error(
                    node,
                    f"tuple {row} has arity {len(row)}, scope has arity {arity}",
                )
                return None
        return tuple(tuples)

    def scope_template(
        self, node: _Node, scope: tuple[str, ...], make: Callable[[tuple[str, ...]], Constraint]
    ) -> _Template | None:
        """`make` over `scope`, whose `%i` tokens an args row fills. The
        model's checks run once here, each `%i` standing for a variable of
        its own; each row checks its scope again, and a table's shared tuple
        list is not checked again."""
        try:
            checked = make(scope)
        except ModelError as exc:
            self.error(node, str(exc))
            return None
        slots = tuple(sorted({int(v[1:]) for v in scope if v.startswith("%")}))
        if not slots:
            return _Template((), lambda args: checked)
        return _Template(slots, lambda args: checked.with_scope(_fill_scope(scope, args)))

    def parse_extension(self, node: _Node, *, templated: bool) -> _Template | None:
        list_node = None
        table_node = None
        polarity = None
        for child in node.children:
            if child.tag == "list":
                list_node = child
            elif child.tag in ("supports", "conflicts"):
                if table_node is not None:
                    self.error(child, "extension has more than one tuple list")
                    return None
                table_node = child
                polarity = Polarity(child.tag)
            else:
                self.unsupported(child)
                return None
        if list_node is None:
            self.error(node, "<extension> without <list>")
            return None
        if table_node is None or polarity is None:
            self.error(node, "<extension> without <supports> or <conflicts>")
            return None
        scope = self.resolve_scope(list_node, list_node.text, allow_placeholder=templated)
        if scope is None:
            return None
        tuples = self.parse_tuples(table_node, arity=len(scope))
        if tuples is None:
            return None
        # every row shares the one parsed tuple list
        return self.scope_template(
            node, tuple(map(str, scope)), lambda vs: TableConstraint(vs, polarity, tuples)
        )

    def parse_intension_node(self, node: _Node, *, templated: bool) -> _Template | None:
        if node.children:
            self.error(node, "unsupported <intension> with child elements")
            return None
        slots: set[int] = set()

        def leaf(token: str) -> Expr:
            if token[0] == "%":
                index = int(token[1:])
                if not templated:
                    self.error(node, f"placeholder %{index} outside a <group> template")
                slots.add(index)
                return Placeholder(index)
            var = self._leaves.get(token)
            if var is None:
                resolved = self.resolve_token(
                    node, token, allow_placeholder=False, allow_int=False
                )
                if resolved is None:
                    return Var(token)
                var = self._leaves[token] = Var(str(resolved))
            return var

        # a leaf's diagnostics stand only if the whole expression parses
        mark = len(self.diagnostics)
        try:
            tree = _parse_tree(node.text.strip(), leaf)
        except IntensionSyntaxError as exc:
            del self.diagnostics[mark:]
            self.error(node, f"bad intension expression: {exc}")
            return None
        if len(self.diagnostics) > mark:
            return None
        if not slots:
            constraint = IntensionConstraint(tree)
            return _Template((), lambda args: constraint)
        return _Template(
            tuple(sorted(slots)), lambda args: IntensionConstraint(_fill_expr(tree, args))
        )

    def parse_alldifferent(self, node: _Node, *, templated: bool) -> _Template | None:
        if node.children:
            self.error(node, "unsupported <allDifferent> with child elements")
            return None
        scope = self.resolve_scope(node, node.text, allow_placeholder=templated)
        if scope is None:
            return None
        return self.scope_template(node, tuple(map(str, scope)), AllDifferent)

    def parse_constraint(self, node: _Node, *, templated: bool) -> _Template | None:
        if node.tag == "extension":
            return self.parse_extension(node, templated=templated)
        if node.tag == "intension":
            return self.parse_intension_node(node, templated=templated)
        if node.tag == "allDifferent":
            return self.parse_alldifferent(node, templated=templated)
        self.unsupported(node)
        return None

    def parse_group(self, node: _Node) -> None:
        self._group_counter += 1
        group_name = f"group#{self._group_counter}"
        template: _Template | None = None
        args_rows: list[tuple[Arg, ...]] = []
        ok = True
        for child in node.children:
            if child.tag == "args":
                row = self.resolve_scope(
                    child, child.text, allow_placeholder=False, allow_int=True
                )
                if row is None:
                    ok = False
                else:
                    args_rows.append(tuple(row))
            elif template is None:
                template = self.parse_constraint(child, templated=True)
                if template is None:
                    ok = False
            else:
                self.error(child, "group has more than one constraint template")
                ok = False
        if template is None:
            if ok:
                self.error(node, "<group> without a constraint template")
            return
        if not args_rows:
            self.error(node, "<group> without <args>")
            return
        if not ok:
            return
        try:
            self.groups.append(template.instantiate(group_name, args_rows))
        except ModelError as exc:
            self.error(node, str(exc))

    def parse_constraints(self, node: _Node) -> None:
        for child in node.children:
            if child.tag == "group":
                self.parse_group(child)
            else:
                lone = self.parse_constraint(child, templated=False)
                if lone is not None:
                    self.groups.append((lone.build(()),))

    def parse_root(self, root: _Node) -> None:
        if root.tag != "instance":
            self.error(root, f"document element must be <instance>, found <{root.tag}>")
            return
        doc_type = root.attrib.get("type", "CSP")
        if doc_type != "CSP":
            self.error(root, f"unsupported instance type {doc_type!r} (only CSP)")
            return
        self._scalar_ids = {
            var.attrib.get("id", "")
            for section in root.children
            if section.tag == "variables"
            for var in section.children
            if var.tag == "var"
        }
        seen_vars = False
        for child in root.children:
            if child.tag == "variables":
                seen_vars = True
                self.parse_variables(child)
            elif child.tag == "constraints":
                self.parse_constraints(child)
            else:
                self.unsupported(child)
        if not seen_vars:
            self.error(root, "missing <variables> section")
        elif not self.variables:
            self.error(root, "instance declares no variables")


def parse_document(xml_text: str | bytes, name: str = "instance") -> CspInstance:
    """Parse an XCSP3 document into a CspInstance.

    Raises ParseFailure carrying every collected diagnostic when the
    document is malformed, uses unsupported features, or is inconsistent.
    """
    parser = _DocParser(name)
    try:
        root = _parse_xml(xml_text)
    except xml.parsers.expat.ExpatError as exc:
        line = getattr(exc, "lineno", None)
        raise ParseFailure(
            [ParseDiagnostic("error", "/", line, f"malformed XML: {exc}")]
        ) from exc

    parser.parse_root(root)
    if parser.diagnostics:
        raise ParseFailure(parser.diagnostics)

    instance = CspInstance(
        name=name,
        variables=tuple(parser.variables),
        groups=tuple(parser.groups),
        flatten_map=dict(parser.flatten_map),
    )
    try:
        validate_instance(instance)
    except ModelError as exc:
        raise ParseFailure([ParseDiagnostic("error", root.path, root.line, str(exc))]) from exc
    return instance


def parse_file(path: str) -> CspInstance:
    # expat reads the bytes, so a file that is not UTF-8 (or not in the
    # encoding it declares) is a malformed-XML diagnostic
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_document(data, name=os.path.splitext(os.path.basename(path))[0])
