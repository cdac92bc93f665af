"""Emit C programs that encode a constraint instance.

One instance expands into a family of semantically equivalent programs, one
per row of the version matrix below. Reaching the distinguished `assert(0)`
at the end of a program is possible exactly when the instance is
satisfiable, which is what makes the programs usable as analysis-tool
benchmarks.

Version matrix (construct x operator x grouping):

  extensional  1..6  = if     x (logical | bitwise) x (no | yes | all)
               7..12 = assume x (logical | bitwise) x (no | yes | all)
  intensional  1, 6  = (if | assume) x NOP x no   (one statement per atom)
               2..5  = if     x (logical | bitwise) x (yes | all)
               7..10 = assume x (logical | bitwise) x (yes | all)

Three output dialects share the constraint encoding byte for byte: `klee`
(klee_make_symbolic / klee_assume), `llbmc` (nondet init / __llbmc_assume),
and `concrete`, a plain executable. Its `static int accepts(...)` takes one
parameter per variable and holds the same domain and constraint encoding,
returning 0 where the other dialects exit and 1 at the distinguished point.
Run with no arguments, it reads whitespace-separated assignments from stdin
and prints one `0`/`1` line per assignment; run with one integer per variable
in argv, it prints SAT-REACHED and exits 0 when they are accepted, and
exits 1 when not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from .model import (
    AllDifferent,
    Binary,
    Const,
    Constraint,
    CspInstance,
    Expr,
    INT32_MAX,
    INT32_MIN,
    IntensionConstraint,
    Placeholder,
    Polarity,
    TableConstraint,
    Unary,
    Var,
    expr_nodes,
    instantiate_group,
)

SAT_MARKER = "SAT-REACHED"
WRAP_COLUMN = 100
_DIST_MACRO = "#define dist(a,b) ((a)>(b)?(a)-(b):(b)-(a))"


class CodegenError(Exception):
    pass


class Family(Enum):
    EXTENSIONAL = "extensional"
    INTENSIONAL = "intensional"


class Construct(Enum):
    IF = "if"
    ASSUME = "assume"


class Operator(Enum):
    LOGICAL = "logical"
    BITWISE = "bitwise"
    NOP = "nop"


class Grouping(Enum):
    NONE = "no"
    PER_GROUP = "yes"
    WHOLE = "all"


class Dialect(Enum):
    KLEE = "klee"
    LLBMC = "llbmc"
    CONCRETE = "concrete"


_EXT_ROWS: tuple[tuple[Construct, Operator, Grouping], ...] = (
    (Construct.IF, Operator.LOGICAL, Grouping.NONE),
    (Construct.IF, Operator.LOGICAL, Grouping.PER_GROUP),
    (Construct.IF, Operator.LOGICAL, Grouping.WHOLE),
    (Construct.IF, Operator.BITWISE, Grouping.NONE),
    (Construct.IF, Operator.BITWISE, Grouping.PER_GROUP),
    (Construct.IF, Operator.BITWISE, Grouping.WHOLE),
    (Construct.ASSUME, Operator.LOGICAL, Grouping.NONE),
    (Construct.ASSUME, Operator.LOGICAL, Grouping.PER_GROUP),
    (Construct.ASSUME, Operator.LOGICAL, Grouping.WHOLE),
    (Construct.ASSUME, Operator.BITWISE, Grouping.NONE),
    (Construct.ASSUME, Operator.BITWISE, Grouping.PER_GROUP),
    (Construct.ASSUME, Operator.BITWISE, Grouping.WHOLE),
)

_INT_ROWS: tuple[tuple[Construct, Operator, Grouping], ...] = (
    (Construct.IF, Operator.NOP, Grouping.NONE),
    (Construct.IF, Operator.LOGICAL, Grouping.PER_GROUP),
    (Construct.IF, Operator.LOGICAL, Grouping.WHOLE),
    (Construct.IF, Operator.BITWISE, Grouping.PER_GROUP),
    (Construct.IF, Operator.BITWISE, Grouping.WHOLE),
    (Construct.ASSUME, Operator.NOP, Grouping.NONE),
    (Construct.ASSUME, Operator.LOGICAL, Grouping.PER_GROUP),
    (Construct.ASSUME, Operator.LOGICAL, Grouping.WHOLE),
    (Construct.ASSUME, Operator.BITWISE, Grouping.PER_GROUP),
    (Construct.ASSUME, Operator.BITWISE, Grouping.WHOLE),
)

_ROWS = {Family.EXTENSIONAL: _EXT_ROWS, Family.INTENSIONAL: _INT_ROWS}


def version_count(family: Family) -> int:
    return len(_ROWS[family])


@dataclass(frozen=True)
class TransformSpec:
    family: Family
    construct: Construct
    operator: Operator
    grouping: Grouping
    dialect: Dialect = Dialect.KLEE

    @property
    def features(self) -> tuple[Construct, Operator, Grouping]:
        return (self.construct, self.operator, self.grouping)

    @property
    def version(self) -> int:
        try:
            return _ROWS[self.family].index(self.features) + 1
        except ValueError:
            raise CodegenError(
                f"{self.family.value} has no version with features "
                f"({self.construct.value}, {self.operator.value}, {self.grouping.value})"
            ) from None

    @property
    def version_label(self) -> str:
        return f"{self.family.value}{self.version}"


def version_to_spec(family: Family, version: int, dialect: Dialect = Dialect.KLEE) -> TransformSpec:
    rows = _ROWS[family]
    if not 1 <= version <= len(rows):
        raise CodegenError(
            f"{family.value} version must be in 1..{len(rows)}, got {version}"
        )
    construct, operator, grouping = rows[version - 1]
    return TransformSpec(family, construct, operator, grouping, dialect)


@dataclass(frozen=True)
class GeneratedProgram:
    source_text: str
    version_label: str
    statement_count: int
    var_map: Mapping[str, str]
    line_count: int
    instance_name: str
    dialect: Dialect
    # the rendered constraint-encoding statements, for structural checks
    constraint_lines: tuple[str, ...]


def source_filename(instance: str, version_label: str, dialect: str) -> str:
    return f"{instance}__{version_label}__{dialect}.c"


def output_filename(program: GeneratedProgram) -> str:
    return source_filename(program.instance_name, program.version_label, program.dialect.value)


# ---------------------------------------------------------------------------
# C expression rendering (precedence-aware, canonical spacing)
# ---------------------------------------------------------------------------

_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "&": 4,
    "==": 5,
    "!=": 5,
    "<": 6,
    "<=": 6,
    ">": 6,
    ">=": 6,
    "+": 7,
    "-": 7,
    "*": 8,
}
_UNARY_PREC = 9
_PRIMARY_PREC = 10
# regrouping is harmless for these, so equal-precedence right operands skip parens
_ASSOCIATIVE = {"+", "*", "&&", "||", "&", "|"}

_C_OP = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
}


def _spaced(op: str) -> str:
    return f" {op} " if op in ("&&", "||", "&", "|") else op


def _render_expr(expr: Expr, operator: Operator, c_names: Mapping[str, str]) -> tuple[str, int]:
    """Render to C text; returns (text, precedence of its top operator)."""
    if isinstance(expr, Const):
        # parenthesized when negative: a bare minus next to `-`/`--` tokenizes wrong
        if expr.value < 0:
            return f"({expr.value})", _PRIMARY_PREC
        return str(expr.value), _PRIMARY_PREC
    if isinstance(expr, Var):
        return c_names[expr.name], _PRIMARY_PREC
    if isinstance(expr, Placeholder):
        raise CodegenError(f"uninstantiated placeholder %{expr.index}")
    if isinstance(expr, Unary):
        text, prec = _render_expr(expr.operand, operator, c_names)
        if expr.op == "abs":
            return f"abs({text})", _PRIMARY_PREC
        if prec < _UNARY_PREC:
            text = f"({text})"
        if expr.op == "neg":
            return f"(-{text})", _PRIMARY_PREC
        return f"!{text}", _UNARY_PREC

    assert isinstance(expr, Binary)
    if expr.op == "dist":
        left, _ = _render_expr(expr.left, operator, c_names)
        right, _ = _render_expr(expr.right, operator, c_names)
        return f"dist({left},{right})", _PRIMARY_PREC
    if expr.op in ("and", "or"):
        bitwise = operator is Operator.BITWISE
        c_op = ("&" if bitwise else "&&") if expr.op == "and" else ("|" if bitwise else "||")
        prec = _PREC[c_op]
        left = _render_truth(expr.left, operator, c_names, coerce=bitwise)
        right = _render_truth(expr.right, operator, c_names, coerce=bitwise)
        if left[1] < prec:
            left = (f"({left[0]})", prec)
        if right[1] < prec:
            right = (f"({right[0]})", prec)
        return f"{left[0]}{_spaced(c_op)}{right[0]}", prec
    c_op = _C_OP[expr.op]
    prec = _PREC[c_op]
    left, lp = _render_expr(expr.left, operator, c_names)
    right, rp = _render_expr(expr.right, operator, c_names)
    if lp < prec:
        left = f"({left})"
    if rp < prec or (rp == prec and c_op not in _ASSOCIATIVE):
        right = f"({right})"
    return f"{left}{_spaced(c_op)}{right}", prec


def _is_boolean_valued(expr: Expr) -> bool:
    if isinstance(expr, Binary):
        return expr.op in ("eq", "ne", "lt", "le", "gt", "ge", "and", "or")
    return isinstance(expr, Unary) and expr.op == "not"


def _render_truth(
    expr: Expr, operator: Operator, c_names: Mapping[str, str], *, coerce: bool
) -> tuple[str, int]:
    """Render an and/or operand; bitwise joins need 0/1 values, so non-boolean
    operands get an explicit !=0 (C's && and || already truth-test)."""
    text, prec = _render_expr(expr, operator, c_names)
    if coerce and not _is_boolean_valued(expr):
        if prec < _PREC["!="]:
            text = f"({text})"
        return f"{text}!=0", _PREC["!="]
    return text, prec


def _as_piece(expr: Expr, operator: Operator, c_names: Mapping[str, str], joiner_prec: int) -> str:
    text, prec = _render_expr(expr, operator, c_names)
    return f"({text})" if prec < joiner_prec else text


def _conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, Binary) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


# ---------------------------------------------------------------------------
# Encoding units and statement layout
# ---------------------------------------------------------------------------

# VIOLATION: the pieces form a disjunction that is true when some constraint
# is broken (negative tables). SATISFACTION: the pieces form the condition
# under which the encoded constraints hold.
_VIOLATION = "violation"
_SATISFACTION = "satisfaction"


@dataclass(frozen=True)
class _Unit:
    mode: str
    pieces: tuple[str, ...]
    joiner: str


def _join_ops(operator: Operator) -> tuple[str, str]:
    if operator is Operator.BITWISE:
        return " & ", " | "
    return " && ", " || "


def _tuple_conjunctions(
    constraint: TableConstraint, operator: Operator, c_names: Mapping[str, str]
) -> list[str]:
    and_op, _ = _join_ops(operator)
    out = []
    for row in constraint.tuples:
        atoms = [f"{c_names[v]}=={value}" for v, value in zip(constraint.scope, row)]
        out.append("(" + and_op.join(atoms) + ")")
    return out


def _condition_pieces(
    constraint: Constraint, operator: Operator, c_names: Mapping[str, str]
) -> list[str]:
    """Conjunct pieces whose AND is the constraint's satisfaction condition."""
    and_op, or_op = _join_ops(operator)
    and_prec = _PREC[and_op.strip()]
    if isinstance(constraint, AllDifferent):
        scope = constraint.scope
        return [
            f"{c_names[a]}!={c_names[b]}"
            for i, a in enumerate(scope)
            for b in scope[i + 1 :]
        ]
    if isinstance(constraint, TableConstraint):
        disjunction = or_op.join(_tuple_conjunctions(constraint, operator, c_names))
        if constraint.polarity is Polarity.SUPPORTS:
            return [f"({disjunction})"]
        return [f"!({disjunction})"]
    return [
        _as_piece(conjunct, operator, c_names, and_prec)
        for conjunct in _conjuncts(constraint.expr)
    ]


def _extensional_units(
    grouped: list[list[TableConstraint]], operator: Operator, c_names: Mapping[str, str]
) -> list[_Unit]:
    and_op, or_op = _join_ops(operator)

    def violation(constraints: Sequence[TableConstraint]) -> _Unit:
        pieces: list[str] = []
        for c in constraints:
            pieces.extend(_tuple_conjunctions(c, operator, c_names))
        return _Unit(_VIOLATION, tuple(pieces), or_op)

    def satisfaction(constraints: Sequence[TableConstraint]) -> _Unit:
        pieces: list[str] = []
        for c in constraints:
            pieces.extend(_condition_pieces(c, operator, c_names))
        return _Unit(_SATISFACTION, tuple(pieces), and_op)

    units = []
    for bucket in grouped:
        if all(c.polarity is Polarity.CONFLICTS for c in bucket):
            units.append(violation(bucket))
        else:
            units.append(satisfaction(bucket))
    return units


def _intensional_units(
    grouped: list[list[Constraint]], operator: Operator, c_names: Mapping[str, str]
) -> list[_Unit]:
    and_op, _ = _join_ops(operator)
    units: list[_Unit] = []
    if operator is Operator.NOP:
        # one statement per atomic condition
        for bucket in grouped:
            for constraint in bucket:
                for piece in _condition_pieces(constraint, operator, c_names):
                    units.append(_Unit(_SATISFACTION, (piece,), and_op))
        return units
    for bucket in grouped:
        pieces: list[str] = []
        for constraint in bucket:
            pieces.extend(_condition_pieces(constraint, operator, c_names))
        units.append(_Unit(_SATISFACTION, tuple(pieces), and_op))
    return units


def _wrap(head: str, pieces: Sequence[str], joiner: str, tail: str) -> list[str]:
    one_line = head + joiner.join(pieces) + tail
    if len(one_line) <= WRAP_COLUMN or len(pieces) == 1:
        return [one_line]
    indent = " " * len(head)
    trailing_op = joiner.rstrip()
    lines = [head + pieces[0] + trailing_op]
    for piece in pieces[1:-1]:
        lines.append(indent + piece + trailing_op)
    lines.append(indent + pieces[-1] + tail)
    return lines


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------


# C keywords, the functions and macros the generated code names, and the
# macros and objects of the headers it includes (stdio.h, stdlib.h,
# assert.h); a variable named like one of these gets a `_v` suffix.
_RESERVED_C_NAMES = frozenset({
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if", "inline",
    "int", "long", "register", "restrict", "return", "short", "signed", "sizeof",
    "static", "struct", "switch", "typedef", "union", "unsigned", "void",
    "volatile", "while",
    "main", "abs", "dist", "exit", "printf", "atoi", "assert",
    "klee_make_symbolic", "klee_assume",
    "NULL", "EOF", "BUFSIZ", "FILENAME_MAX", "FOPEN_MAX", "L_tmpnam", "TMP_MAX",
    "SEEK_SET", "SEEK_CUR", "SEEK_END", "stdin", "stdout", "stderr",
    "RAND_MAX", "EXIT_SUCCESS", "EXIT_FAILURE", "MB_CUR_MAX",
})


def _c_names(csp: CspInstance) -> dict[str, str]:
    used: set[str] = set()
    mapping: dict[str, str] = {}
    for var in csp.variables:
        base = re.sub(r"[^A-Za-z0-9_]", "_", var.id)
        if not base or base[0].isdigit():
            base = "v_" + base
        if base in _RESERVED_C_NAMES:
            base = base + "_v"
        candidate = base
        k = 1
        while candidate in used:
            candidate = f"{base}_{k}"
            k += 1
        used.add(candidate)
        mapping[var.id] = candidate
    return mapping


def _uses_dist(constraints: Sequence[Constraint]) -> bool:
    return any(
        isinstance(n, Binary) and n.op == "dist"
        for c in constraints
        if isinstance(c, IntensionConstraint)
        for n in expr_nodes(c.expr)
    )


def _check_value_ranges(csp: CspInstance, constraints: Sequence[Constraint]) -> None:
    for var in csp.variables:
        if var.domain.lo < INT32_MIN or var.domain.hi > INT32_MAX:
            raise CodegenError(f"domain of {var.id} exceeds 32-bit signed range")
    for c in constraints:
        if isinstance(c, TableConstraint):
            values, kind = (v for row in c.tuples for v in row), "tuple value"
        elif isinstance(c, IntensionConstraint):
            values = (n.value for n in expr_nodes(c.expr) if isinstance(n, Const))
            kind = "constant"
        else:
            continue
        for value in values:
            if value < INT32_MIN or value > INT32_MAX:
                raise CodegenError(f"{kind} {value} exceeds 32-bit signed range")


def _grouped_constraints(csp: CspInstance, grouping: Grouping) -> list[list[Constraint]]:
    per_group = [instantiate_group(g) for g in csp.groups]
    if grouping is Grouping.NONE:
        return [[c] for bucket in per_group for c in bucket]
    if grouping is Grouping.PER_GROUP:
        return per_group
    merged = [c for bucket in per_group for c in bucket]
    return [merged] if merged else []


def _domain_condition(var_id: str, csp: CspInstance, spec: TransformSpec, c_names: Mapping[str, str]) -> tuple[list[str], str]:
    """Pieces and joiner for one variable's domain membership condition."""
    domain = csp.domain_of(var_id)
    name = c_names[var_id]
    if domain.is_contiguous:
        # common preamble shape, identical across versions
        return [f"{name}>={domain.lo} && {name}<={domain.hi}"], " && "
    _, or_op = _join_ops(spec.operator if spec.operator is not Operator.NOP else Operator.LOGICAL)
    return [f"{name}=={value}" for value in domain.values()], or_op


def transform(csp: CspInstance, spec: TransformSpec) -> GeneratedProgram:
    """Emit the C program for one cell of the version matrix."""
    spec.version  # validates the feature triple
    if not csp.variables:
        raise CodegenError("instance has no variables")
    constraints = csp.constraints()
    if spec.family is Family.EXTENSIONAL:
        bad = [c for c in constraints if not isinstance(c, TableConstraint)]
        if bad:
            raise CodegenError(
                "extensional transform requires table constraints only; "
                f"found {type(bad[0]).__name__}"
            )
    else:
        bad = [c for c in constraints if isinstance(c, TableConstraint)]
        if bad:
            raise CodegenError(
                "intensional transform cannot encode table constraints"
            )
    for c in constraints:
        if isinstance(c, TableConstraint) and not c.tuples:
            raise CodegenError("cannot encode a table constraint with no tuples")
    _check_value_ranges(csp, constraints)

    c_names = _c_names(csp)
    grouped = _grouped_constraints(csp, spec.grouping)
    if spec.family is Family.EXTENSIONAL:
        units = _extensional_units(grouped, spec.operator, c_names)  # type: ignore[arg-type]
    else:
        units = _intensional_units(grouped, spec.operator, c_names)
    guarded = (
        spec.family is Family.INTENSIONAL
        and spec.construct is Construct.IF
        and spec.grouping is Grouping.WHOLE
        and bool(units)
    )

    concrete = spec.dialect is Dialect.CONCRETE
    assume_fn = "__llbmc_assume" if spec.dialect is Dialect.LLBMC else "klee_assume"
    fail_exit = "return 0;" if concrete else "exit(0);"
    indent = "    "

    body: list[str] = []
    order = [v.id for v in csp.variables]
    names = [c_names[v] for v in order]

    # declarations and symbolic marking; accepts() takes its variables as parameters
    if not concrete:
        decl = indent + "int " + ", ".join(names) + ";"
        if len(decl) <= WRAP_COLUMN:
            body.append(decl)
        else:
            body.extend(_wrap(indent + "int ", names, ", ", ";"))
    if spec.dialect is Dialect.KLEE:
        body.append(indent + "/* declare variables symbolic */")
        for name in names:
            body.append(indent + f'klee_make_symbolic(&{name},sizeof({name}),"{name}");')
    elif spec.dialect is Dialect.LLBMC:
        body.append(indent + "/* declare variables nondeterministic */")
        for name in names:
            body.append(indent + f"{name} = __llbmc_nondef_int();")

    # domains
    body.append(indent + "/* enforce variable domains */")
    for v in order:
        pieces, joiner = _domain_condition(v, csp, spec, c_names)
        if concrete:
            body.extend(_wrap(indent + "if (!(", pieces, joiner, f")) {fail_exit}"))
        else:
            body.extend(_wrap(indent + f"{assume_fn}(", pieces, joiner, ");"))

    # constraints
    constraint_lines: list[str] = []
    if units and not guarded:
        body.append(indent + "/* constraints */")
        for unit in units:
            if unit.mode is _VIOLATION:
                if spec.construct is Construct.IF or concrete:
                    lines = _wrap(indent + "if (", unit.pieces, unit.joiner, f") {fail_exit}")
                else:
                    lines = _wrap(indent + f"{assume_fn}(!(", unit.pieces, unit.joiner, "));")
            elif spec.construct is Construct.IF:
                lines = _wrap(indent + "if (", unit.pieces, unit.joiner, f"); else {fail_exit}")
            elif concrete:
                lines = _wrap(indent + "if (!(", unit.pieces, unit.joiner, f")) {fail_exit}")
            else:
                lines = _wrap(indent + f"{assume_fn}(", unit.pieces, unit.joiner, ");")
            constraint_lines.extend(lines)
            body.extend(lines)

    # distinguished point
    body.append(indent + "/* CSP is satisfiable */")
    if guarded:
        (unit,) = units
        tail = ") return 1;" if concrete else ") assert(0);"
        lines = _wrap(indent + "if (", unit.pieces, unit.joiner, tail)
        constraint_lines.extend(lines)
        body.extend(lines)
        body.append(indent + "return 0;")
    elif concrete:
        body.append(indent + "return 1;")
    else:
        body.append(indent + "assert(0);")
        body.append(indent + "return 0;")

    header = _file_header(csp, spec, constraints)
    if concrete:
        signature = _wrap("static int accepts(", [f"int {name}" for name in names], ", ", ") {")
        main = concrete_main(["accepts"], len(names))
        source_lines = header + signature + body + ["}", ""] + main
    else:
        source_lines = header + ["int main(void) {"] + body + ["}"]
    source = "\n".join(source_lines) + "\n"

    return GeneratedProgram(
        source_text=source,
        version_label=spec.version_label,
        statement_count=len(units),
        var_map=c_names,
        line_count=source.count("\n"),
        instance_name=csp.name,
        dialect=spec.dialect,
        constraint_lines=tuple(constraint_lines),
    )


def _file_header(csp: CspInstance, spec: TransformSpec, constraints: Sequence[Constraint]) -> list[str]:
    lines = [
        f"/* {csp.name}: {spec.family.value} version {spec.version} "
        f"({spec.construct.value}, {spec.operator.value}, grouping={spec.grouping.value}) */"
    ]
    if spec.dialect is Dialect.CONCRETE:
        lines += ["#include <stdio.h>", "#include <stdlib.h>"]
    elif spec.dialect is Dialect.KLEE:
        lines += ["#include <assert.h>", "#include <stdlib.h>", "#include <klee/klee.h>"]
    else:
        lines += [
            "#include <assert.h>",
            "#include <stdlib.h>",
            "",
            "void __llbmc_assume(int condition);",
            "int __llbmc_nondef_int(void);",
        ]
    if _uses_dist(constraints):
        lines += ["", _DIST_MACRO]
    lines.append("")
    return lines


def concrete_main(accepts_names: Sequence[str], arity: int) -> list[str]:
    """main() of the concrete dialect, over one or more `accepts` functions
    of `arity` parameters each. With no arguments it reads assignments from
    stdin and prints one line per assignment holding one 0/1 verdict digit
    per function, in order, exiting 2 on input that does not end after a
    whole assignment; with one argument per variable it prints SAT-REACHED
    and exits 0 when every function accepts, and exits 1 otherwise.
    It names no CSP variable, so none can shadow what main calls."""
    indent = "    "
    slots = [f"v[{i}]" for i in range(arity)]
    last = len(accepts_names) - 1
    lines = [
        "int main(int argc, char **argv) {",
        indent + f"int v[{arity}], i = 0;",
        indent + "if (argc == 1) {",
        indent * 2 + "/* batch mode: whitespace-separated assignments in, one verdict line each out */",
        indent * 2 + 'while (scanf("%d", &v[i]) == 1) {',
        indent * 3 + f"if (++i < {arity}) continue;",
    ]
    for k, name in enumerate(accepts_names):
        fmt = "%d\\n" if k == last else "%d"
        lines += _wrap(indent * 3 + f'printf("{fmt}", {name}(', slots, ", ", "));")
    lines += [
        indent * 3 + "i = 0;",
        indent * 2 + "}",
        indent * 2 + "return i == 0 && feof(stdin) ? 0 : 2;",
        indent + "}",
        indent + f"if (argc != {arity + 1}) return 2;",
        indent + "/* read the candidate assignment from argv */",
    ]
    for name in accepts_names:
        lines += _wrap(
            indent + f"if (!{name}(",
            [f"atoi(argv[{i}])" for i in range(1, arity + 1)],
            ", ",
            ")) return 1;",
        )
    lines += [indent + f'printf("{SAT_MARKER}\\n");', indent + "return 0;", "}"]
    return lines


def emit_concrete_driver(csp: CspInstance, spec: TransformSpec) -> GeneratedProgram:
    """Same encoding as transform(), as a runnable checker: `accepts()` holds
    the encoding and main() feeds it assignments from stdin or argv."""
    return transform(csp, replace(spec, dialect=Dialect.CONCRETE))
