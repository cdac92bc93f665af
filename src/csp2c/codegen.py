"""Emit C programs that encode a constraint instance.

One instance expands into a family of semantically equivalent programs, one
per row of the version matrix below. Reaching the distinguished `assert(0)`
at the end of a program is possible exactly when the instance is
satisfiable, which is what makes the programs usable as analysis-tool
benchmarks.

A cell of the version matrix is TransformSpec(family, version, dialect);
the construct, operator and grouping are read from the family's row:

  extensional  1..6  = if     x (logical | bitwise) x (no | yes | all)
               7..12 = assume x (logical | bitwise) x (no | yes | all)
  intensional  1, 6  = (if | assume) x NOP x no   (one statement per atom)
               2..5  = if     x (logical | bitwise) x (yes | all)
               7..10 = assume x (logical | bitwise) x (yes | all)

Three output dialects share one program body: `klee` (klee_make_symbolic /
klee_assume), `llbmc` (nondet init / __llbmc_assume, the only difference),
and `concrete`, the klee program made runnable. DRIVER_PRELUDE defines the
intrinsics, `exit` and `assert` so that the program runs natively on one
assignment at a time, as KLEE's own test replay runs it: the klee `main`
follows, renamed to csp2c_main_0, and driver_main's `main` runs it. Run
with no arguments, it reads whitespace-separated assignments from stdin and
prints one `0`/`1` line per assignment; run with one integer per variable
in argv, it prints SAT-REACHED and exits 0 when they reach assert(0), and
exits 1 when not. A program that reads more or fewer values than there are
variables exits 3. verify compiles the klee programs themselves with the
same prelude, their `#include` lines resolved to empty headers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
    Polarity,
    TableConstraint,
    Unary,
    Var,
    expr_nodes,
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
    """One cell of the version matrix, in one dialect; the construct,
    operator and grouping are read from the family's row."""

    family: Family
    version: int
    dialect: Dialect = Dialect.KLEE

    def __post_init__(self) -> None:
        count = version_count(self.family)
        if not 1 <= self.version <= count:
            raise CodegenError(
                f"{self.family.value} version must be in 1..{count}, got {self.version}"
            )

    @property
    def construct(self) -> Construct:
        return _ROWS[self.family][self.version - 1][0]

    @property
    def operator(self) -> Operator:
        return _ROWS[self.family][self.version - 1][1]

    @property
    def grouping(self) -> Grouping:
        return _ROWS[self.family][self.version - 1][2]

    @property
    def version_label(self) -> str:
        return f"{self.family.value}{self.version}"


def version_to_spec(family: Family, version: int, dialect: Dialect = Dialect.KLEE) -> TransformSpec:
    return TransformSpec(family, version, dialect)


def family_of(constraints: Sequence[Constraint]) -> Family:
    """The family that can encode `constraints`: extensional for tables only
    (or none), intensional for no tables."""
    kinds = {type(c) for c in constraints}
    if kinds <= {TableConstraint}:
        return Family.EXTENSIONAL
    if kinds <= {IntensionConstraint, AllDifferent}:
        return Family.INTENSIONAL
    raise CodegenError(
        "instance mixes table and intensional constraints; no single family applies"
    )


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

@dataclass(frozen=True)
class _Unit:
    """One constraint statement. A violation unit's pieces form a disjunction
    that is true when some constraint is broken (conflicts tables); any other
    unit's pieces form the condition under which its constraints hold."""

    violation: bool
    pieces: tuple[str, ...]
    joiner: str


# (violation, construct) -> head and tail of a unit's statement; {assume}
# is the dialect's assume function
_STATEMENTS = {
    (True, Construct.IF): ("if (", ") exit(0);"),
    (True, Construct.ASSUME): ("{assume}(!(", "));"),
    (False, Construct.IF): ("if (", "); else exit(0);"),
    (False, Construct.ASSUME): ("{assume}(", ");"),
}


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


def _units(
    grouped: Sequence[Sequence[Constraint]], operator: Operator, c_names: Mapping[str, str]
) -> list[_Unit]:
    """A bucket of conflicts tables only makes a violation unit over all their
    tuples, any other bucket the conjunction of its constraints' pieces: one
    unit per bucket, or one per piece under NOP."""
    and_op, or_op = _join_ops(operator)
    units: list[_Unit] = []
    for bucket in grouped:
        # never empty (the parser rejects a <group> without <args>); tables
        # only or no tables (transform's family check)
        violation = isinstance(bucket[0], TableConstraint) and all(
            c.polarity is Polarity.CONFLICTS for c in bucket
        )
        pieces_of = _tuple_conjunctions if violation else _condition_pieces
        pieces: list[str] = []
        for c in bucket:
            pieces.extend(pieces_of(c, operator, c_names))
        joiner = or_op if violation else and_op
        if operator is Operator.NOP:
            units.extend(_Unit(violation, (piece,), joiner) for piece in pieces)
        else:
            units.append(_Unit(violation, tuple(pieces), joiner))
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


# The C text ahead of a `concrete` program and of a verify unit. Its
# definitions hold only if the programs' own `#include` lines resolve to
# empty headers (verify.compile_program puts those first on CPATH).
DRIVER_PRELUDE = """\
/* replay driver: a program reads its values from one assignment at a time;
   a failed assume or exit rejects the assignment, and assert(0) reaches */
#include <setjmp.h>
#include <stdio.h>

int abs(int);
static jmp_buf csp2c_jump;
static const int *csp2c_values;
static int csp2c_left, csp2c_verdict;

static void csp2c_exit(void) { longjmp(csp2c_jump, 1); }
static void csp2c_reached(void) { csp2c_verdict = 1; longjmp(csp2c_jump, 1); }
/* a read past the assignment rejects it, and csp2c_drive reports the read */
static int csp2c_next(void) { if (--csp2c_left < 0) csp2c_exit(); return *csp2c_values++; }
int __llbmc_nondef_int(void) { return csp2c_next(); }
void __llbmc_assume(int condition) { if (!condition) csp2c_exit(); }
void klee_assume(int condition) { if (!condition) csp2c_exit(); }
void klee_make_symbolic(void *addr, size_t nbytes, const char *name) {
    (void)nbytes, (void)name, *(int *)addr = csp2c_next();
}

/* run one version on `values`; csp2c_verdict is 1 when it reaches assert(0).
   A function of its own, so that no local of csp2c_drive lives across setjmp */
static void csp2c_run(int (*version)(void), const int *values, int arity) {
    csp2c_values = values;
    csp2c_left = arity;
    csp2c_verdict = 0;
    if (setjmp(csp2c_jump) == 0) version();
}

/* With no arguments: read whitespace-separated assignments from stdin and
   print one line per assignment holding one 0/1 verdict digit per version,
   in order; exit 2 on input that does not end after a whole assignment.
   With one integer per variable in argv: print the marker line below and
   exit 0 when every version reaches assert(0), exit 1 otherwise.
   A version that reads more or fewer than `arity` values exits 3. */
static int csp2c_drive(int argc, char **argv, int (*const versions[])(void), int count, int arity) {
    int values[arity], i, k, batch = argc == 1;
    if (!batch && argc != arity + 1) return 2;
    for (;;) {
        for (i = 0; i < arity; i++)
            if ((batch ? scanf("%d", &values[i]) : sscanf(argv[i + 1], "%d", &values[i])) != 1)
                return batch && i == 0 && feof(stdin) ? 0 : 2;
        for (k = 0; k < count; k++) {
            csp2c_run(versions[k], values, arity);
            if (csp2c_left != 0) {
                fprintf(stderr, "csp2c_main_%d reads %d values, not %d\\n", k, arity - csp2c_left, arity);
                return 3;
            }
            if (batch) putchar('0' + csp2c_verdict);
            else if (!csp2c_verdict) return 1;
        }
        if (!batch) break;
        putchar('\\n');
    }
    printf("SAT-REACHED\\n");
    return 0;
}

#define exit(status) csp2c_exit()
#define assert(condition) ((condition) ? (void)0 : csp2c_reached())
"""

# C keywords, the functions and macros a program names (the prelude's
# `exit` and `assert` macros call csp2c_exit and csp2c_reached), and the
# macros and objects of the headers the dialects include (stdio.h,
# stdlib.h, assert.h); a variable named like one of these gets a `_v` suffix.
_RESERVED_C_NAMES = frozenset({
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if", "inline",
    "int", "long", "register", "restrict", "return", "short", "signed", "sizeof",
    "static", "struct", "switch", "typedef", "union", "unsigned", "void",
    "volatile", "while",
    "main", "abs", "dist", "exit", "printf", "atoi", "assert",
    "klee_make_symbolic", "klee_assume", "__llbmc_nondef_int", "__llbmc_assume",
    "csp2c_exit", "csp2c_reached",
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


def _grouped_constraints(
    csp: CspInstance, constraints: list[Constraint], grouping: Grouping
) -> Sequence[Sequence[Constraint]]:
    if grouping is Grouping.NONE:
        return [[c] for c in constraints]
    if grouping is Grouping.PER_GROUP:
        return csp.groups
    return [constraints] if constraints else []


def _domain_condition(
    var_id: str, csp: CspInstance, operator: Operator, c_names: Mapping[str, str]
) -> tuple[list[str], str]:
    """Pieces and joiner for one variable's domain membership condition."""
    domain = csp.domain_of(var_id)
    name = c_names[var_id]
    if domain.is_contiguous:
        # common preamble shape, identical across versions
        return [f"{name}>={domain.lo} && {name}<={domain.hi}"], " && "
    _, or_op = _join_ops(operator)
    return [f"{name}=={value}" for value in domain.values()], or_op


def transform(csp: CspInstance, spec: TransformSpec) -> GeneratedProgram:
    """Emit the C program for one cell of the version matrix."""
    if not csp.variables:
        raise CodegenError("instance has no variables")
    constraints = csp.constraints()
    if constraints and family_of(constraints) is not spec.family:
        raise CodegenError(
            "extensional transform requires table constraints only"
            if spec.family is Family.EXTENSIONAL
            else "intensional transform cannot encode table constraints"
        )
    for c in constraints:
        if isinstance(c, TableConstraint) and not c.tuples:
            raise CodegenError("cannot encode a table constraint with no tuples")
    _check_value_ranges(csp, constraints)

    c_names = _c_names(csp)
    units = _units(_grouped_constraints(csp, constraints, spec.grouping), spec.operator, c_names)
    # intensional if/whole: the one unit guards the distinguished assert(0)
    guarded = (
        spec.family is Family.INTENSIONAL
        and spec.construct is Construct.IF
        and spec.grouping is Grouping.WHOLE
        and bool(units)
    )

    llbmc = spec.dialect is Dialect.LLBMC
    assume_fn = "__llbmc_assume" if llbmc else "klee_assume"
    indent = "    "

    body: list[str] = []
    order = [v.id for v in csp.variables]
    names = [c_names[v] for v in order]

    # declarations and symbolic marking
    body.extend(_wrap(indent + "int ", names, ", ", ";"))
    if llbmc:
        body.append(indent + "/* declare variables nondeterministic */")
        body += [indent + f"{name} = __llbmc_nondef_int();" for name in names]
    else:
        body.append(indent + "/* declare variables symbolic */")
        body += [indent + f'klee_make_symbolic(&{name},sizeof({name}),"{name}");' for name in names]

    # domains
    body.append(indent + "/* enforce variable domains */")
    for v in order:
        pieces, joiner = _domain_condition(v, csp, spec.operator, c_names)
        body.extend(_wrap(indent + f"{assume_fn}(", pieces, joiner, ");"))

    # constraints
    constraint_lines: list[str] = []
    for unit in units:
        head, tail = _STATEMENTS[unit.violation, spec.construct]
        if guarded:
            tail = ") assert(0);"
        head = indent + head.format(assume=assume_fn)
        constraint_lines.extend(_wrap(head, unit.pieces, unit.joiner, tail))
    if units and not guarded:
        body.append(indent + "/* constraints */")
        body.extend(constraint_lines)

    # distinguished point
    body.append(indent + "/* CSP is satisfiable */")
    body.extend(constraint_lines if guarded else [indent + "assert(0);"])
    body.append(indent + "return 0;")

    main = ["int main(void) {"] + body + ["}"]
    if spec.dialect is Dialect.CONCRETE:
        main = ["#define main csp2c_main_0", *main, "#undef main", "", *driver_main(1, len(names))]
    source = "\n".join(_file_header(csp, spec, constraints) + main) + "\n"

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
        lines += DRIVER_PRELUDE.splitlines()
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


def driver_main(count: int, arity: int) -> list[str]:
    """main() of the replay driver over csp2c_main_0 .. csp2c_main_<count-1>,
    each reading `arity` values; csp2c_drive in DRIVER_PRELUDE holds the
    batch and argv protocol."""
    versions = [f"csp2c_main_{k}" for k in range(count)]
    return [
        "int main(int argc, char **argv) {",
        *_wrap("    static int (*const versions[])(void) = {", versions, ", ", "};"),
        f"    return csp2c_drive(argc, argv, versions, {count}, {arity});",
        "}",
    ]
