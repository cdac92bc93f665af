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


@dataclass
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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>-?\d+)"
    r"|(?P<ph>%\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\[\d+\])*)"
    r"|(?P<punct>[(),]))"
)

# n-ary in XCSP3; folded left-to-right into binary nodes
_FOLDABLE = ("add", "mul", "and", "or")
_BINARY_ONLY = ("sub", "eq", "ne", "lt", "le", "gt", "ge", "dist")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise IntensionSyntaxError(f"unexpected character {rest[0]!r}")
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


def parse_intension(text: str) -> Expr:
    """Parse functional prefix syntax into an expression tree.

    `%i` placeholders are kept as Placeholder nodes, which a <group>'s args
    rows fill; abs(sub(a,b)) is normalized to dist(a,b).
    """
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise IntensionSyntaxError("unexpected end of expression")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise IntensionSyntaxError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def expr() -> Expr:
        tok = take()
        if re.fullmatch(r"-?\d+", tok):
            return Const(int(tok))
        if tok.startswith("%"):
            return Placeholder(int(tok[1:]))
        if tok in "(),":
            raise IntensionSyntaxError(f"unexpected {tok!r}")
        if peek() == "(":
            return call(tok)
        return Var(tok)

    def call(op: str) -> Expr:
        take("(")
        args = [expr()]
        while peek() == ",":
            take(",")
            args.append(expr())
        take(")")
        return build(op, args)

    def build(op: str, args: list[Expr]) -> Expr:
        if op in UNARY_OPS:
            if len(args) != 1:
                raise IntensionSyntaxError(f"{op} takes 1 argument, got {len(args)}")
            node = Unary(op, args[0])
            if op == "abs" and isinstance(args[0], Binary) and args[0].op == "sub":
                return Binary("dist", args[0].left, args[0].right)
            return node
        if op in _FOLDABLE:
            if len(args) < 2:
                raise IntensionSyntaxError(f"{op} takes at least 2 arguments")
            node = args[0]
            for right in args[1:]:
                node = Binary(op, node, right)
            return node
        if op in _BINARY_ONLY:
            if len(args) != 2:
                raise IntensionSyntaxError(f"{op} takes 2 arguments, got {len(args)}")
            return Binary(op, args[0], args[1])
        raise IntensionSyntaxError(f"unknown operator {op!r}")

    tree = expr()
    if pos != len(tokens):
        raise IntensionSyntaxError(f"trailing input after expression: {tokens[pos]!r}")
    return tree


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

    def error(self, node: _Node, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic("error", node.path, node.line, message))

    def unsupported(self, node: _Node) -> None:
        self.error(node, f"unsupported XCSP3 element <{node.tag}>")

    # -- variables ----------------------------------------------------------

    def parse_domain(self, node: _Node) -> Domain | None:
        ranges: list[tuple[int, int]] = []
        for token in node.text.split():
            m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", token)
            if m:
                ranges.append((int(m.group(1)), int(m.group(2))))
                continue
            if re.fullmatch(r"-?\d+", token):
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
        if re.fullmatch(r"%\d+", token):
            if allow_placeholder:
                return token
            self.error(node, f"placeholder {token} outside a <group> template")
            return None
        if re.fullmatch(r"-?\d+", token):
            if allow_int:
                return int(token)
            self.error(node, f"integer {token} where a variable is required")
            return None
        m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]", token)
        if m:
            flat = self.flatten_map.get(token)
            if flat is None:
                self.error(node, f"reference to undeclared array element {token!r}")
                return None
            return flat
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*\[\]", token):
            return token  # expanded by resolve_scope
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            if token in self._declared:
                return token
            self.error(node, f"reference to undeclared variable {token!r}")
            return None
        self.error(node, f"cannot parse variable token {token!r}")
        return None

    def resolve_scope(
        self, node: _Node, text: str, *, allow_placeholder: bool, allow_int: bool = False
    ) -> list[Union[str, int]] | None:
        out: list[Union[str, int]] = []
        for token in text.split():
            m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\[\]", token)
            if m:
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
                if not re.fullmatch(r"-?\d+", item):
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
        its own, and again on every row."""
        try:
            checked = make(scope)
        except ModelError as exc:
            self.error(node, str(exc))
            return None
        slots = tuple(sorted({int(v[1:]) for v in scope if v.startswith("%")}))
        if not slots:
            return _Template((), lambda args: checked)
        return _Template(slots, lambda args: make(_fill_scope(scope, args)))

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
        try:
            tree = parse_intension(node.text.strip())
        except IntensionSyntaxError as exc:
            self.error(node, f"bad intension expression: {exc}")
            return None
        slots: set[int] = set()
        failed = False

        def resolve(leaf: Expr) -> Expr:
            nonlocal failed
            if isinstance(leaf, Var):
                resolved = self.resolve_token(
                    node, leaf.name, allow_placeholder=False, allow_int=False
                )
                if resolved is None:
                    failed = True
                    return leaf
                return Var(str(resolved))
            if isinstance(leaf, Placeholder):
                if not templated:
                    self.error(node, f"placeholder %{leaf.index} outside a <group> template")
                    failed = True
                slots.add(leaf.index)
            return leaf

        tree = _map_leaves(tree, resolve)
        if failed:
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
