"""Reader for the XCSP3 subset used by the generated C benchmarks.

Supported elements:

  <instance>      root, optional format/type attributes (type must be CSP)
  <variables>     with <var id=..> and one-dimensional <array id=.. size="[n]">;
                  domains are whitespace lists mixing integers and "l..u" ranges
  <constraints>   with:
    <extension>   <list> scope </list> plus exactly one of
                  <supports>/<conflicts> holding "(v,..,v) (v,..,v)" tuples,
                  spaces allowed around each comma-separated integer
                  (bare integers allowed for arity-1 scopes)
    <intension>   functional prefix syntax, e.g. eq(%0,dist(%1,%2))
    <allDifferent> whitespace-separated scope
    <group>       one template (any of the three above, with %i placeholders)
                  followed by one <args> row per instantiated constraint

Anything else is rejected with an "unsupported" diagnostic naming the
element; tuple wildcards (*) are rejected. A method that rejects an
element raises _Reject, as the model raises ModelError; the nearest place
that takes sibling elements one at a time (a loop over the children of
<variables> or of a <group>, the end tag of a child of <constraints>, or
the start tag of the document element) records it as diagnostics of the
element and goes on with the next sibling, so one pass reports every bad
element. An element that references a rejected <var> or <array> is
rejected with no message, since that declaration was reported, so one
fault gives one diagnostic. A document with any diagnostic raises
ParseFailure.

Groups end here: the reader parses each template once and builds one
concrete constraint per <args> row, so the model, the oracle and the code
generator never see a template or a placeholder. A template's `%i` is a
variable name until a row fills it, a scope token or a Var("%i") leaf, so
the template is checked once as an ordinary constraint; every slot token
passes resolve_token, which rejects one with a leading zero (%01). Array variables
are flattened to scalars (x[2] -> x2); where that name belongs to another
variable, underscores go before the index (x1[0] -> x1_0 next to x[10]).
An <intension> may nest at most model.MAX_EXPR_DEPTH operators deep, both
as written and as a tree, where an n-ary operator folds into one level per
argument after the first. The model holds every tree to that limit, parsed
or built through the library, and the reader turns a tree past it into a
diagnostic. Parsing is a pure function of the input text and linear in its
size. The intension trees of one document share their leaves: one Var per
distinct variable token and one Const per distinct integer token.

The reader is driven by expat's events and holds no tree of the document.
It checks the document element at its start tag; a rejected one is the one
diagnostic. It parses each section, and each child of <constraints>, at its
end tag and then drops it, so it holds one constraint element at a time. A
<variables> section is parsed with its own <var> ids known first, so x[1]
becomes x_1 next to a later <var id="x1"> of the section. XCSP3 allows one
<variables> section; the <var> of a later one cannot rename an earlier
array's element, and a clash is a duplicate variable id. Malformed XML,
found wherever it is, is the one diagnostic.
"""

from __future__ import annotations

import os
import re
import xml.parsers.expat
from typing import Callable, Mapping, Sequence, Union

from .model import (
    AllDifferent,
    Binary,
    Const,
    Constraint,
    CspInstance,
    Domain,
    Expr,
    Frozen,
    IntensionConstraint,
    MAX_EXPR_DEPTH,
    ModelError,
    Polarity,
    TableConstraint,
    Unary,
    UNARY_OPS,
    Var,
    VariableDecl,
)

# one entry of an <args> row: a flattened variable id or an integer
Arg = Union[str, int]

_INT_RE = re.compile(r"-?\d+")
_RANGE_RE = re.compile(r"(-?\d+)\.\.(-?\d+)")
_PLACEHOLDER_RE = re.compile(r"%\d+")
# a variable reference: a name, an array element `x[3]` or a whole array `x[]`
_REFERENCE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d*)\])?")


class ParseDiagnostic(Frozen):
    __slots__ = _fields = ("path", "line", "message")
    path: str
    line: int | None
    message: str

    def __str__(self) -> str:
        where = self.path if self.line is None else f"{self.path} (line {self.line})"
        return f"error at {where}: {self.message}"


class ParseFailure(Exception):
    """Raised when a document cannot be turned into an instance."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


class IntensionSyntaxError(ValueError):
    pass


# a parsed constraint element: its `%i` tokens -> their indices i, and the
# function that builds its constraint from one args row, which parse_group
# checks first; a lone constraint has no slots and `build(())` returns it
_Parsed = tuple[Mapping[str, int], Callable[[Sequence[Arg]], Constraint]]


def _fill_expr(expr: Expr, slots: Mapping[str, int], args: Sequence[Arg]) -> Expr:
    """The tree with each `%i` leaf, a Var named in `slots`, replaced by its
    entry of the args row."""
    if isinstance(expr, Var):
        index = slots.get(expr.name)
        if index is None:
            return expr
        arg = args[index]
        return Const(arg) if isinstance(arg, int) else Var(arg)
    if isinstance(expr, Binary):
        left = _fill_expr(expr.left, slots, args)
        return Binary(expr.op, left, _fill_expr(expr.right, slots, args))
    if isinstance(expr, Unary):
        return Unary(expr.op, _fill_expr(expr.operand, slots, args))
    return expr


def _fill_scope(
    scope: tuple[str, ...], slots: Mapping[str, int], args: Sequence[Arg]
) -> tuple[str, ...]:
    out = []
    for token in scope:
        index = slots.get(token)
        if index is not None:
            token = args[index]
            if isinstance(token, int):
                raise ModelError(f"integer argument {token} used as a scope variable")
        out.append(token)
    return tuple(out)


# ---------------------------------------------------------------------------
# Elements with line numbers, built as expat reads them
# ---------------------------------------------------------------------------


class _Node:
    """One element as read so far. An element the reader has still to parse
    keeps its text and its child elements; any other keeps neither, and its
    `_text` is None."""

    __slots__ = ("tag", "attrib", "line", "path", "children", "_text", "_tag_counts")

    def __init__(self, tag: str, attrib: dict[str, str], line: int, path: str, keep: bool) -> None:
        self.tag = tag
        self.attrib = attrib
        self.line = line
        self.path = path
        self.children: list[_Node] = []
        self._text: list[str] | None = [] if keep else None
        # children seen so far per tag, for the next child's sibling index
        self._tag_counts: dict[str, int] = {}

    @property
    def text(self) -> str:
        return "".join(self._text)

    def child_path(self, tag: str) -> str:
        """The path of the next child element with tag `tag`."""
        count = self._tag_counts[tag] = self._tag_counts.get(tag, 0) + 1
        return f"{self.path}/{tag}[{count}]"


# ---------------------------------------------------------------------------
# Intensional expression syntax
# ---------------------------------------------------------------------------

# one token: an integer, a `%i` placeholder, a name (an operator or a
# variable, possibly an array element) or punctuation
_TOKEN_RE = re.compile(r"-?\d+|%\d+|[A-Za-z_][A-Za-z0-9_]*(?:\[\d+\])*|[(),]")
# one token after any whitespace, or, in the group, a character at which no token starts
_SCAN_RE = re.compile(rf"\s*(?:{_TOKEN_RE.pattern}|(\S))")

# n-ary in XCSP3; folded left-to-right into binary nodes
_FOLDABLE = ("add", "mul", "and", "or")
_BINARY_ONLY = ("sub", "eq", "ne", "lt", "le", "gt", "ge", "dist")


def _tokenize(text: str) -> list[str]:
    # findall skips a character at which no token starts, and the tokens
    # then miss it; the scan from the start stops at the first such one
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != "".join(text.split()):
        bad = next(m[1] for m in _SCAN_RE.finditer(text) if m[1])
        raise IntensionSyntaxError(f"unexpected character {bad!r}")
    return tokens


def _build(op: str, args: list[Expr]) -> Expr:
    """The node of `op` over its arguments."""
    if op in UNARY_OPS:
        if len(args) != 1:
            raise IntensionSyntaxError(f"{op} takes 1 argument, got {len(args)}")
        [arg] = args
        if op == "abs" and isinstance(arg, Binary) and arg.op == "sub":
            return Binary("dist", arg.left, arg.right)
        return Unary(op, arg)
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
        return Binary(op, *args)
    raise IntensionSyntaxError(f"unknown operator {op!r}")


def _parse_tree(text: str, leaf: Callable[[str], Expr], consts: dict[str, Const]) -> Expr:
    """The tree of functional prefix syntax, each variable or `%i` token
    turned into a leaf by `leaf`, left to right, as the tree is built, and
    each integer token into its Const in `consts`, which takes any not there.

    The written nesting may be at most MAX_EXPR_DEPTH operators deep, which
    bounds this parser's own recursion; the model holds the tree, where an
    n-ary operator folds into n-1 levels, to the same limit."""
    tokens = _tokenize(text)
    try:
        tree, pos = _parse_expr(tokens, 0, leaf, consts, 0)
    except ModelError as exc:
        raise IntensionSyntaxError(str(exc)) from None
    if pos != len(tokens):
        raise IntensionSyntaxError(f"trailing input after expression: {tokens[pos]!r}")
    return tree


def _parse_expr(
    tokens: list[str],
    pos: int,
    leaf: Callable[[str], Expr],
    consts: dict[str, Const],
    nesting: int,
) -> tuple[Expr, int]:
    """The expression that starts at tokens[pos], `nesting` operators deep,
    and the position after it. A module-level function, not a closure over
    the tokens: a closure that calls itself is a reference cycle, which
    would keep each parse's tokens and leaves until the cyclic collector
    ran."""
    end = len(tokens)
    if pos == end:
        raise IntensionSyntaxError("unexpected end of expression")
    tok = tokens[pos]
    pos += 1
    first = tok[0]
    if first == "-" or first.isdecimal():
        const = consts.get(tok)
        if const is None:
            const = consts[tok] = Const(int(tok))
        return const, pos
    if first in "(),":
        raise IntensionSyntaxError(f"unexpected {tok!r}")
    if first == "%" or pos == end or tokens[pos] != "(":
        return leaf(tok), pos
    if nesting == MAX_EXPR_DEPTH:
        raise IntensionSyntaxError(
            f"nested deeper than the limit of {MAX_EXPR_DEPTH} operators"
        )
    arg, pos = _parse_expr(tokens, pos + 1, leaf, consts, nesting + 1)
    args = [arg]
    while pos < end and tokens[pos] == ",":
        arg, pos = _parse_expr(tokens, pos + 1, leaf, consts, nesting + 1)
        args.append(arg)
    if pos == end:
        raise IntensionSyntaxError("unexpected end of expression")
    if tokens[pos] != ")":
        raise IntensionSyntaxError(f"expected ')', found {tokens[pos]!r}")
    return _build(tok, args), pos + 1


def parse_intension(text: str) -> Expr:
    """Parse functional prefix syntax into an expression tree.

    Each variable token is a Var of that name, a `%i` placeholder too
    (Var("%i")), as a <group> template keeps it until an args row fills it;
    abs(sub(a,b)) is normalized to dist(a,b).
    """
    return _parse_tree(text, Var, {})


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------


class _Reject(Exception):
    """Raised by a parse_* or resolve_* method that rejects an element: each
    message becomes a diagnostic of `node` where the reader takes the
    rejected element and its siblings one at a time."""

    def __init__(self, node: _Node, *messages: str):
        super().__init__(*messages)
        self.node = node
        self.messages = messages


class _DocParser:
    def __init__(self) -> None:
        self.diagnostics: list[ParseDiagnostic] = []
        self.variables: list[VariableDecl] = []
        self.groups: list[tuple[Constraint, ...]] = []
        self._declared: set[str] = set()
        # array id -> {index as written ("2"): flattened id (x2)}, in
        # declaration order
        self._arrays: dict[str, dict[str, str]] = {}
        # the <var> ids of the <variables> section being parsed, so no array
        # element of the section takes one
        self._scalar_ids: set[str] = set()
        # the ids of the <var> and <array> elements rejected ("" for one
        # without an id): each was reported once, so an element referencing
        # one is rejected with no message of its own
        self._rejected: set[str] = set()
        # intension leaf token -> its resolved Var, and integer token -> its
        # Const, each shared by every tree
        self._leaves: dict[str, Var] = {}
        self._consts: dict[str, Const] = {}
        # the open elements, the document element first
        self._open: list[_Node] = []
        self._seen_variables = False
        self._expat: xml.parsers.expat.XMLParserType | None = None

    def error(self, node: _Node, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(node.path, node.line, message))

    def attempt(self, node: _Node, parse: Callable[[_Node], object]) -> bool:
        """Whether `parse(node)` ran through. A rejection or a ModelError
        becomes diagnostics instead, and the caller goes on with the next
        sibling of `node`."""
        try:
            parse(node)
            return True
        except _Reject as reject:
            for message in reject.messages:
                self.error(reject.node, message)
        except ModelError as exc:
            self.error(node, str(exc))
        return False

    # -- variables ----------------------------------------------------------

    def parse_domain(self, node: _Node) -> Domain:
        ranges: list[tuple[int, int]] = []
        for token in node.text.split():
            if m := _RANGE_RE.fullmatch(token):
                ranges.append((int(m.group(1)), int(m.group(2))))
            elif _INT_RE.fullmatch(token):
                ranges.append((int(token), int(token)))
            else:
                raise _Reject(node, f"cannot parse domain token {token!r}")
        if not ranges:
            raise _Reject(node, "empty domain")
        return Domain.from_ranges(ranges)

    def declare(self, node: _Node, var_id: str, domain: Domain) -> None:
        if var_id in self._declared:
            self.error(node, f"duplicate variable id {var_id!r}")
            return
        self._declared.add(var_id)
        self.variables.append(VariableDecl(var_id, domain))

    def parse_section(self, node: _Node) -> None:
        """A <variables> section's children in turn, with its <var> ids known
        first, so x[1] becomes x_1 next to a later <var id="x1">. A
        <constraints> section's children were parsed at their end tags."""
        if node.tag == "constraints":
            return
        if node.tag != "variables":
            raise _Reject(node, f"unsupported XCSP3 element <{node.tag}>")
        self._seen_variables = True
        self._scalar_ids = {child.attrib.get("id") for child in node.children if child.tag == "var"}
        for child in node.children:
            if not self.attempt(child, self.parse_variable) and child.tag in ("var", "array"):
                self._rejected.add(child.attrib.get("id", ""))

    def parse_variable(self, node: _Node) -> None:
        if node.tag == "array":
            self.parse_array(node)
            return
        if node.tag != "var":
            raise _Reject(node, f"unsupported XCSP3 element <{node.tag}>")
        var_id = node.attrib.get("id")
        if not var_id:
            raise _Reject(node, "<var> without id")
        if node.attrib.get("type", "integer") != "integer":
            raise _Reject(node, f"unsupported var type {node.attrib['type']!r}")
        self.declare(node, var_id, self.parse_domain(node))

    def parse_array(self, node: _Node) -> None:
        array_id = node.attrib.get("id")
        size = node.attrib.get("size", "")
        if not array_id:
            raise _Reject(node, "<array> without id")
        m = re.fullmatch(r"\[(\d+)\]", size.strip())
        if not m:
            raise _Reject(node, f"unsupported array size {size!r} (only one dimension)")
        if node.children:
            raise _Reject(node, "unsupported <array> with child elements")
        count = int(m.group(1))
        if count == 0:
            raise _Reject(node, f"array {array_id!r} of size 0 declares no variables")
        domain = self.parse_domain(node)
        members = self._arrays.setdefault(array_id, {})
        for i in range(count):
            # a redeclared array keeps its names, and declare reports them
            flat = members.get(str(i)) or self._flat_id(array_id, i)
            members[str(i)] = flat
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
    ) -> Union[str, int]:
        if _PLACEHOLDER_RE.fullmatch(token):
            if token[1] == "0" and len(token) > 2:
                raise _Reject(node, f"placeholder {token} has a leading zero")
            if allow_placeholder:
                return token
            raise _Reject(node, f"placeholder {token} outside a <group> template")
        if _INT_RE.fullmatch(token):
            if allow_int:
                return int(token)
            raise _Reject(node, f"integer {token} where a variable is required")
        m = _REFERENCE_RE.fullmatch(token)
        if m is None:
            raise _Reject(node, f"cannot parse variable token {token!r}")
        if m.group(2) is None:
            if token in self._declared:
                return token
            self.reject_reference(node, token)
            raise _Reject(node, f"reference to undeclared variable {token!r}")
        # a whole array, `x[]`, never comes here: resolve_scope expands it
        flat = self._arrays.get(m.group(1), {}).get(m.group(2))
        if flat is None:
            self.reject_reference(node, m.group(1))
            raise _Reject(node, f"reference to undeclared array element {token!r}")
        return flat

    def reject_reference(self, node: _Node, name: str) -> None:
        """A silent rejection of `node` if `name` is a rejected declaration's id."""
        if name in self._rejected:
            raise _Reject(node)

    def resolve_scope(
        self, node: _Node, text: str, *, allow_placeholder: bool, allow_int: bool = False
    ) -> list[Union[str, int]]:
        out: list[Union[str, int]] = []
        for token in text.split():
            m = _REFERENCE_RE.fullmatch(token)
            if m and m.group(2) == "":
                members = self._arrays.get(m.group(1))
                if not members:
                    self.reject_reference(node, m.group(1))
                    raise _Reject(node, f"reference to undeclared array {m.group(1)!r}")
                out.extend(members.values())
            else:
                out.append(
                    self.resolve_token(
                        node, token, allow_placeholder=allow_placeholder, allow_int=allow_int
                    )
                )
        if not out:
            raise _Reject(node, "empty variable list")
        return out

    # -- constraints ---------------------------------------------------------

    def parse_tuples(self, node: _Node, arity: int) -> tuple[tuple[int, ...], ...]:
        text = node.text.strip()
        if "(" in text:
            rows = [
                [item.strip() for item in body.split(",")]
                for body in re.findall(r"\(([^()]*)\)", text)
            ]
            leftover = re.sub(r"\([^()]*\)", "", text).strip()
        else:
            # Arity-1 tables may list bare values.
            rows, leftover = [[item] for item in text.split()], ""
        for items in rows:
            for item in items:
                if item == "*":
                    raise _Reject(node, "wildcard (*) tuples are not supported")
                if not _INT_RE.fullmatch(item):
                    raise _Reject(node, f"cannot parse tuple value {item!r}")
        if leftover:
            raise _Reject(node, f"stray text in tuple list: {leftover!r}")
        if not rows:
            raise _Reject(node, "empty tuple list")
        tuples = tuple(tuple(map(int, items)) for items in rows)
        for row in tuples:
            if len(row) != arity:
                raise _Reject(node, f"tuple {row} has arity {len(row)}, scope has arity {arity}")
        return tuples

    def scope_template(
        self, scope: tuple[str, ...], make: Callable[[tuple[str, ...]], Constraint]
    ) -> _Parsed:
        """`make` over `scope`, whose `%i` tokens an args row fills. A `%i`
        is a variable name until then, in a scope as in an intension tree,
        so the model's checks run once here, each `%i` standing for a
        variable of its own; each row checks its scope again, and a table's
        shared tuple list is not checked again."""
        checked = make(scope)
        slots = {token: int(token[1:]) for token in scope if token[0] == "%"}
        if not slots:
            return slots, lambda args: checked
        return slots, lambda args: checked.with_scope(_fill_scope(scope, slots, args))

    def parse_extension(self, node: _Node, *, templated: bool) -> _Parsed:
        list_node = table_node = None
        for child in node.children:
            if child.tag == "list":
                list_node = child
            elif child.tag not in ("supports", "conflicts"):
                raise _Reject(child, f"unsupported XCSP3 element <{child.tag}>")
            elif table_node is not None:
                raise _Reject(child, "extension has more than one tuple list")
            else:
                table_node = child
        if list_node is None:
            raise _Reject(node, "<extension> without <list>")
        if table_node is None:
            raise _Reject(node, "<extension> without <supports> or <conflicts>")
        scope = self.resolve_scope(list_node, list_node.text, allow_placeholder=templated)
        tuples = self.parse_tuples(table_node, arity=len(scope))
        polarity = Polarity(table_node.tag)
        # every row shares the one parsed tuple list
        return self.scope_template(
            tuple(map(str, scope)), lambda vs: TableConstraint(vs, polarity, tuples)
        )

    def parse_intension_node(self, node: _Node, *, templated: bool) -> _Parsed:
        if node.children:
            raise _Reject(node, "unsupported <intension> with child elements")
        slots: dict[str, int] = {}
        # the leaves' rejections stand only if the whole expression parses;
        # one may carry no message
        leaf_errors: list[tuple[str, ...]] = []

        def leaf(token: str) -> Expr:
            var = self._leaves.get(token)
            if var is None:
                try:
                    resolved = self.resolve_token(
                        node, token, allow_placeholder=templated, allow_int=False
                    )
                except _Reject as reject:
                    leaf_errors.append(reject.messages)
                    return Var(token)
                var = Var(str(resolved))
                if token[0] == "%":
                    slots[token] = int(token[1:])
                else:
                    self._leaves[token] = var
            return var

        try:
            tree = _parse_tree(node.text.strip(), leaf, self._consts)
        except IntensionSyntaxError as exc:
            raise _Reject(node, f"bad intension expression: {exc}") from None
        if leaf_errors:
            raise _Reject(node, *(message for messages in leaf_errors for message in messages))
        if not slots:
            constraint = IntensionConstraint(tree)
            return slots, lambda args: constraint
        return slots, lambda args: IntensionConstraint(_fill_expr(tree, slots, args))

    def parse_alldifferent(self, node: _Node, *, templated: bool) -> _Parsed:
        if node.children:
            raise _Reject(node, "unsupported <allDifferent> with child elements")
        scope = self.resolve_scope(node, node.text, allow_placeholder=templated)
        return self.scope_template(tuple(map(str, scope)), AllDifferent)

    def parse_constraint(self, node: _Node, *, templated: bool) -> _Parsed:
        if node.tag == "extension":
            return self.parse_extension(node, templated=templated)
        if node.tag == "intension":
            return self.parse_intension_node(node, templated=templated)
        if node.tag == "allDifferent":
            return self.parse_alldifferent(node, templated=templated)
        raise _Reject(node, f"unsupported XCSP3 element <{node.tag}>")

    def parse_group(self, node: _Node) -> None:
        """One constraint per args row, built in row order; the first bad
        row rejects the group."""
        # the first template that parses, and every args row that does
        templates: list[_Parsed] = []
        args_rows: list[tuple[Arg, ...]] = []

        def parse_child(child: _Node) -> None:
            if child.tag == "args":
                row = self.resolve_scope(child, child.text, allow_placeholder=False, allow_int=True)
                args_rows.append(tuple(row))
            elif not templates:
                templates.append(self.parse_constraint(child, templated=True))
            else:
                raise _Reject(child, "group has more than one constraint template")

        # a list, not a generator: every child is attempted
        if not all([self.attempt(child, parse_child) for child in node.children]):
            return
        if not templates:
            raise _Reject(node, "<group> without a constraint template")
        if not args_rows:
            raise _Reject(node, "<group> without <args>")
        slots, build = templates[0]
        indices = tuple(sorted(set(slots.values())))
        count = len(indices)
        if indices != tuple(range(count)):
            raise _Reject(node, f"placeholder indices are not contiguous from %0: {indices}")
        if not count:
            raise _Reject(node, "args given for a template without placeholders")
        group = []
        for row in args_rows:
            if len(row) != count:
                raise _Reject(
                    node, f"args vector {row} has {len(row)} entries, template expects {count}"
                )
            group.append(build(row))
        self.groups.append(tuple(group))

    def parse_lone(self, node: _Node) -> None:
        _, build = self.parse_constraint(node, templated=False)
        self.groups.append((build(()),))

    # -- the document, as expat reads it -----------------------------------

    def read(self, feed: Callable[[xml.parsers.expat.XMLParserType], object]) -> None:
        """Parse the document that `feed` hands to an expat parser, each
        element as soon as it can be. ExpatError propagates."""
        expat = self._expat = xml.parsers.expat.ParserCreate()
        expat.buffer_text = True
        expat.StartElementHandler = self.start
        expat.EndElementHandler = self.end
        expat.CharacterDataHandler = self.chars
        try:
            feed(expat)
        finally:
            # the handlers refer to this reader: drop the cycle
            self._expat = None

    def start(self, tag: str, attrib: dict[str, str]) -> None:
        open_ = self._open
        line = self._expat.CurrentLineNumber
        if not open_:
            root = _Node(tag, attrib, line, f"/{tag}[1]", keep=False)
            open_.append(root)
            if not self.attempt(root, self.open_root):
                # the one diagnostic: expat reads on only to find malformed XML
                expat = self._expat
                expat.StartElementHandler = expat.EndElementHandler = None
                expat.CharacterDataHandler = None
            return
        parent = open_[-1]
        path = parent.child_path(tag)
        if len(open_) == 1:
            # a section: a <variables> section keeps its elements until its end tag
            node = _Node(tag, attrib, line, path, keep=tag == "variables")
        elif parent._text is not None:
            node = _Node(tag, attrib, line, path, keep=True)
            parent.children.append(node)
        else:
            # a child of <constraints> keeps its elements until its end tag;
            # below an unsupported section nothing is kept
            keep = len(open_) == 2 and parent.tag == "constraints"
            node = _Node(tag, attrib, line, path, keep)
        open_.append(node)

    def end(self, tag: str) -> None:
        open_ = self._open
        node = open_.pop()
        if len(open_) == 2 and open_[1].tag == "constraints":
            self.attempt(node, self.parse_group if node.tag == "group" else self.parse_lone)
        elif len(open_) == 1:
            self.attempt(node, self.parse_section)
        elif not open_:
            self.attempt(node, self.close_root)

    def chars(self, data: str) -> None:
        text = self._open[-1]._text
        if text is not None:
            text.append(data)

    def open_root(self, root: _Node) -> None:
        if root.tag != "instance":
            raise _Reject(root, f"document element must be <instance>, found <{root.tag}>")
        doc_type = root.attrib.get("type", "CSP")
        if doc_type != "CSP":
            raise _Reject(root, f"unsupported instance type {doc_type!r} (only CSP)")

    def close_root(self, root: _Node) -> None:
        if not self._seen_variables:
            raise _Reject(root, "missing <variables> section")
        # a rejected declaration was reported already
        if not self.variables and not self._rejected:
            raise _Reject(root, "instance declares no variables")


def _parse(feed: Callable[[xml.parsers.expat.XMLParserType], object], name: str) -> CspInstance:
    reader = _DocParser()
    try:
        reader.read(feed)
    except xml.parsers.expat.ExpatError as exc:
        # malformed XML is the one diagnostic, whatever was found before it
        line = getattr(exc, "lineno", None)
        raise ParseFailure([ParseDiagnostic("/", line, f"malformed XML: {exc}")]) from exc
    if reader.diagnostics:
        raise ParseFailure(reader.diagnostics)
    return CspInstance(name, tuple(reader.variables), tuple(reader.groups))


def parse_document(xml_text: str | bytes, name: str = "instance") -> CspInstance:
    """Parse an XCSP3 document into a CspInstance.

    Raises ParseFailure carrying every collected diagnostic when the
    document is malformed, uses unsupported features, or is inconsistent.
    """
    return _parse(lambda expat: expat.Parse(xml_text, True), name)


def parse_file(path: str) -> CspInstance:
    # expat reads the bytes, so a file that is not UTF-8 (or not in the
    # encoding it declares) is a malformed-XML diagnostic
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "rb") as fh:
        return _parse(lambda expat: expat.ParseFile(fh), name)
