r"""Emit C programs that encode a constraint instance.

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

An instance with a table constraint takes the extensional rows, any other
the intensional rows (family_of): an extensional cell renders every kind of
constraint, and joins a conflicts table to the others' conditions as `!(...)`.

Three output dialects share one program body: `klee` (klee_make_symbolic /
klee_assume), `llbmc` (nondet init / __llbmc_assume, the only difference),
and `concrete`, the klee program made runnable.

The replay driver lives here alone, and build_unit alone makes programs
runnable. DRIVER_PRELUDE defines the intrinsics, `exit` and `assert` so
that a program runs natively on one assignment at a time, as KLEE's own
test replay runs it, and driver_main's `main` runs the programs, each
renamed to csp2c_main_<i>. build_unit embeds klee or llbmc programs behind
one prelude and one driver main, each with its `#include` lines of
INCLUDED_HEADERS blanked and every other line as emitted; a `concrete`
program is build_unit of its one klee program. A unit reads
whitespace-separated assignments from stdin and prints one line per
assignment, one 0/1 verdict digit per program, so `printf '0 1\n' | ./prog`
replays one assignment. Input that does not end after a whole assignment
exits 2, and a program that reads more or fewer values than there are
variables exits 3. Its stdout is unbuffered, so a unit that dies mid-run
leaves every verdict digit it printed before.

A value is true when it is nonzero, as in XCSP3 and the model, so `and`
and `or` take integer operands. C's `&&` and `||` truth-test their
operands, but `&` and `|` do not. So under BITWISE every operand of a join
that is not 0/1-valued (anything but a comparison, `and`, `or` or `not`)
is written `x!=0`: each side of a nested and/or, each top-level conjunct of
a constraint, and a whole constraint, which grouping joins with `&`.
_operand alone writes that truth-test.

An instance is analysed once, not once per cell: transform keeps the
analysis of the instance it saw last, keyed on the instance's identity and
dropped with it. The analysis is one pass over the constraints, after
checks for empty tables and out-of-range domains. It holds the family and
encodability checks, the C names, whether `dist` is used, and the C text
of each constraint and domain for the two operator classes that differ,
LOGICAL (NOP renders the same) and BITWISE, which shares LOGICAL's text
where the two agree; a cell only lays those pieces out into statements.
One walk over each intension tree gives every node both its C text and a
bound on its value, by interval arithmetic from the declared domains,
bottom-up, and rejects the first node whose interval leaves 32-bit signed
range, since its C `int` arithmetic could overflow. The oracle evaluates
expressions with its own code, so each checks the other. transform raises
CodegenError for an instance no cell can encode; verify emits every
program before its oracle runs, so that is its encodability check too.
"""

from __future__ import annotations

import re
import weakref
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from .model import (
    Binary,
    COMPARISON_OPS,
    Const,
    Constraint,
    CspInstance,
    Dialect,
    Expr,
    Family,
    Frozen,
    INT32_MAX,
    INT32_MIN,
    IntensionConstraint,
    ModelError,
    Polarity,
    TableConstraint,
    Unary,
    Var,
)

WRAP_COLUMN = 100
_DIST_MACRO = "#define dist(a,b) abs((a)-(b))"


class CodegenError(Exception):
    pass


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


class TransformSpec(Frozen):
    """One cell of the version matrix, in one dialect; the construct,
    operator and grouping are read from the family's row."""

    __slots__ = _fields = ("family", "version", "dialect")
    family: Family
    version: int
    dialect: Dialect

    def __init__(self, family: Family, version: int, dialect: Dialect = Dialect.KLEE) -> None:
        count = version_count(family)
        if not 1 <= version <= count:
            raise CodegenError(f"{family.value} version must be in 1..{count}, got {version}")
        Frozen.__init__(self, family, version, dialect)

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


def family_of(constraints: Sequence[Constraint]) -> Family:
    """The rows an instance takes: extensional when it has a table constraint,
    mixed with other kinds or not, or no constraint; intensional otherwise."""
    if not constraints or any(isinstance(c, TableConstraint) for c in constraints):
        return Family.EXTENSIONAL
    return Family.INTENSIONAL


class GeneratedProgram(Frozen):
    __slots__ = _fields = (
        "source_text", "version_label", "statement_count", "instance_name", "dialect",
    )
    source_text: str
    version_label: str
    statement_count: int
    instance_name: str
    dialect: Dialect

    @property
    def line_count(self) -> int:
        return self.source_text.count("\n")


def source_filename(instance: str, version_label: str, dialect: str) -> str:
    return f"{instance}__{version_label}__{dialect}.c"


def output_filename(program: GeneratedProgram) -> str:
    return source_filename(program.instance_name, program.version_label, program.dialect.value)


# ---------------------------------------------------------------------------
# C expression text (precedence-aware, canonical spacing)
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
_ASSOCIATIVE = {"+", "*"}

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


def _paren(text: str, prec: int, least: int) -> str:
    """`text`, of precedence `prec`, where an operand of precedence `least`
    or more stands bare."""
    return f"({text})" if prec < least else text


def _is_boolean_valued(expr: Expr) -> bool:
    if isinstance(expr, Binary):
        return expr.op in COMPARISON_OPS or expr.op in ("and", "or")
    return isinstance(expr, Unary) and expr.op == "not"


def _operand(expr: Expr, form: tuple[str, int], operator: Operator, joiner_prec: int) -> str:
    """`expr`, already rendered as `form`, its C (text, precedence), as an
    operand of an and/or join whose C operator has precedence `joiner_prec`:
    under BITWISE a non-boolean operand is truth-tested with `!=0`, since `&`
    and `|` need 0/1 values; then it is parenthesised below the joiner's
    precedence."""
    text, prec = form
    if operator is Operator.BITWISE and not _is_boolean_valued(expr):
        text, prec = f"{text}!=0", _PREC["!="]
    return _paren(text, prec, joiner_prec)


def _conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, Binary) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


# ---------------------------------------------------------------------------
# Encoding units and statement layout
# ---------------------------------------------------------------------------

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


def _wrap(head: str, pieces: Sequence[str], joiner: str, tail: str) -> list[str]:
    if len(pieces) == 1:
        return [head + pieces[0] + tail]
    one_line = head + joiner.join(pieces) + tail
    if len(one_line) <= WRAP_COLUMN:
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


_LIBC_HEADERS = ("assert.h", "stdlib.h")
# every header a klee or llbmc program includes
INCLUDED_HEADERS = (*_LIBC_HEADERS, "klee/klee.h")
_INCLUDE_LINE = re.compile(
    "^(?:" + "|".join(re.escape(f"#include <{h}>") for h in INCLUDED_HEADERS) + ")$", re.M
)

# The C text ahead of the programs of a build_unit unit. Its definitions
# hold because build_unit blanks the programs' `#include` lines of
# INCLUDED_HEADERS.
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

/* Read whitespace-separated assignments from stdin and print one line per
   assignment holding one 0/1 verdict digit per version, in order; exit 2 on
   input that does not end after a whole assignment. A version that reads
   more or fewer than `arity` values exits 3. stdout is unbuffered, so a
   run that dies keeps every digit printed before: its whole lines count
   the assignments done, and the digits of its last line the versions. */
static int csp2c_drive(int (*const versions[])(void), int count, int arity) {
    int values[arity], i, k;
    setvbuf(stdout, NULL, _IONBF, 0);
    for (;;) {
        for (i = 0; i < arity; i++)
            if (scanf("%d", &values[i]) != 1)
                return i == 0 && feof(stdin) ? 0 : 2;
        for (k = 0; k < count; k++) {
            csp2c_run(versions[k], values, arity);
            if (csp2c_left != 0) {
                fprintf(stderr, "csp2c_main_%d reads %d values, not %d\\n", k, arity - csp2c_left, arity);
                return 3;
            }
            putchar('0' + csp2c_verdict);
        }
        putchar('\\n');
    }
}

#define exit(status) csp2c_exit()
#define assert(condition) ((condition) ? (void)0 : csp2c_reached())
"""

# C keywords and GNU C's `asm` and `typeof` (keywords under gcc's default
# -std=gnu17), the functions and macros a program names (the prelude's
# `exit` and `assert` macros call csp2c_exit and csp2c_reached), the
# object-like macros and objects of the headers the dialects include
# (stdio.h, setjmp.h, stdlib.h, assert.h) and GNU C's predefined `unix` and
# `linux`; a variable named like one of these gets a `_v` suffix. Every
# other name they declare, `__llbmc_assume` too, has a prefix C reserves
# for the implementation, `__` or `_` and a capital, and a variable named
# so gets a `v` prefix.
_RESERVED_C_NAMES = frozenset({
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if", "inline",
    "int", "long", "register", "restrict", "return", "short", "signed", "sizeof",
    "static", "struct", "switch", "typedef", "union", "unsigned", "void",
    "volatile", "while", "asm", "typeof",
    "main", "abs", "dist", "exit", "printf", "atoi", "assert",
    "klee_make_symbolic", "klee_assume", "csp2c_exit", "csp2c_reached",
    "NULL", "EOF", "BUFSIZ", "FILENAME_MAX", "FOPEN_MAX", "L_tmpnam", "TMP_MAX",
    "L_ctermid", "P_tmpdir", "SEEK_SET", "SEEK_CUR", "SEEK_END", "stdin", "stdout",
    "stderr", "RAND_MAX", "EXIT_SUCCESS", "EXIT_FAILURE", "MB_CUR_MAX", "static_assert",
    "BIG_ENDIAN", "LITTLE_ENDIAN", "PDP_ENDIAN", "BYTE_ORDER", "FD_SETSIZE", "NFDBITS",
    "WNOHANG", "WUNTRACED", "WSTOPPED", "WEXITED", "WCONTINUED", "WNOWAIT",
    "unix", "linux",
})


def _c_names(csp: CspInstance) -> dict[str, str]:
    used: set[str] = set()
    mapping: dict[str, str] = {}
    for var in csp.variables:
        base = re.sub(r"[^A-Za-z0-9_]", "_", var.id)
        if not base or base[0].isdigit():
            base = "v_" + base
        elif base.startswith("__") or (base[0] == "_" and base[1:2].isupper()):
            base = "v" + base
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


# ---------------------------------------------------------------------------
# Per-instance analysis
# ---------------------------------------------------------------------------


def _xcsp_text(expr: Expr) -> str:
    """`expr` in XCSP3's functional syntax, to name it in a message."""
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Unary):
        return f"{expr.op}({_xcsp_text(expr.operand)})"
    return f"{expr.op}({_xcsp_text(expr.left)},{_xcsp_text(expr.right)})"


def _abs_interval(lo: int, hi: int) -> tuple[int, int]:
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


# What _Analysis._walk gives a node: lo, hi and its C (text, precedence) forms
_Walked = tuple[int, int, Sequence[tuple[str, int]]]


class _Analysis:
    """What transform needs of one instance, whatever the cell: the family
    and encodability checks, C names, whether dist is used, and the C text
    of each operator class, made in one pass over the constraints."""

    def __init__(self, csp: CspInstance):
        if not csp.variables:
            raise CodegenError("instance has no variables")
        # no reference to `csp` itself, so that the memo lets it go
        self.variables = csp.variables
        self.groups = csp.groups
        self.constraints = csp.constraints()
        # None when there are no constraints: either family encodes them
        self.family = family_of(self.constraints) if self.constraints else None
        self.c_names = c_names = _c_names(csp)
        # per constraint: a conflicts table, whose pieces are its tuple
        # conjunctions; any other constraint's are its condition
        self.conflicts = [
            isinstance(c, TableConstraint) and c.polarity is Polarity.CONFLICTS
            for c in self.constraints
        ]
        self.uses_dist = False
        # LOGICAL's C text, then BITWISE's (NOP renders as LOGICAL), each the
        # pieces of every constraint and the (pieces, joiner) domain condition
        # of every variable; BITWISE holds LOGICAL's tuples where they agree
        self.rendered: tuple[tuple[list, list], ...] = (([], []), ([], []))
        (logical, logical_domains), (bitwise, bitwise_domains) = self.rendered
        # the first reason no cell can encode the instance, if any, as the
        # error to raise and its message
        self.invalid: tuple[type[Exception], str] | None = None
        try:
            # empty tables first, then every value against 32-bit signed
            # range: domains, then each constraint's tuple values or the
            # interval of each intension node
            for c in self.constraints:
                if isinstance(c, TableConstraint) and not c.tuples:
                    raise CodegenError("cannot encode a table constraint with no tuples")
            # each variable's walk: its declared lo..hi and its C name
            leaves = {}
            for var in self.variables:
                lo, hi = var.domain.lo, var.domain.hi
                if lo < INT32_MIN or hi > INT32_MAX:
                    raise CodegenError(f"domain of {var.id} exceeds 32-bit signed range")
                leaves[var.id] = lo, hi, ((c_names[var.id], _PRIMARY_PREC),)
            for c, conflicts in zip(self.constraints, self.conflicts):
                if isinstance(c, IntensionConstraint):
                    texts: tuple[list[str], list[str]] = ([], [])
                    for conjunct in _conjuncts(c.expr):
                        forms = self._walk(conjunct, leaves)[2]
                        texts[0].append(_operand(conjunct, forms[0], Operator.LOGICAL, _PREC["&&"]))
                        texts[1].append(_operand(conjunct, forms[-1], Operator.BITWISE, _PREC["&"]))
                elif isinstance(c, TableConstraint):
                    for value in (v for row in c.tuples for v in row):
                        if value < INT32_MIN or value > INT32_MAX:
                            raise CodegenError(f"tuple value {value} exceeds 32-bit signed range")
                    atoms = [
                        [f"{c_names[v]}=={value}" for v, value in zip(c.scope, row)]
                        for row in c.tuples
                    ]
                    texts = ([], [])
                    for operator, text in zip((Operator.LOGICAL, Operator.BITWISE), texts):
                        and_op, or_op = _join_ops(operator)
                        rows = [f"({and_op.join(row)})" for row in atoms]
                        text += rows if conflicts else [f"({or_op.join(rows)})"]
                else:  # allDifferent
                    names = [c_names[v] for v in c.scope]
                    pairs = [f"{a}!={b}" for i, a in enumerate(names) for b in names[i + 1 :]]
                    texts = (pairs, pairs)
                pieces = tuple(texts[0])
                logical.append(pieces)
                bitwise.append(pieces if texts[1] == texts[0] else tuple(texts[1]))
            # last: a domain too large to list raises ModelError, which comes
            # after every fault above
            for var in self.variables:
                name, domain = c_names[var.id], var.domain
                if domain.is_contiguous:
                    # common preamble shape, identical across versions
                    condition = (f"{name}>={domain.lo} && {name}<={domain.hi}",), " && "
                    logical_domains.append(condition)
                    bitwise_domains.append(condition)
                else:
                    values = tuple(f"{name}=={value}" for value in domain.values())
                    logical_domains.append((values, " || "))
                    bitwise_domains.append((values, " | "))
        except (CodegenError, ModelError) as exc:
            self.invalid = type(exc), str(exc)
        except KeyError as exc:
            # a name looked up in `leaves` or `c_names` that no variable declares
            self.invalid = ModelError, f"constraint over undeclared variable {exc.args[0]!r}"

    def _walk(self, expr: Expr, leaves: Mapping[str, _Walked]) -> _Walked:
        """Bounds lo, hi on the value of `expr` over the declared domains, by
        interval arithmetic, and its forms, each a C (text, precedence):
        LOGICAL's, then BITWISE's if it differs, so the last form is
        BITWISE's either way. `leaves` holds each variable's. Nodes are visited
        in post-order, left operand first, one call per level of the tree,
        so any tree the model accepts is walked; the first node whose
        interval leaves 32-bit signed range raises CodegenError naming it,
        since the C `int` arithmetic that computes it could overflow."""
        if isinstance(expr, Var):
            return leaves[expr.name]
        if isinstance(expr, Const):
            value = expr.value
            if value < INT32_MIN or value > INT32_MAX:
                raise CodegenError(f"constant {value} exceeds 32-bit signed range")
            # parenthesized when negative: a bare minus next to `-`/`--` tokenizes wrong
            return value, value, ((f"({value})" if value < 0 else str(value), _PRIMARY_PREC),)
        op = expr.op
        if isinstance(expr, Unary):
            lo, hi, forms = self._walk(expr.operand, leaves)
            if op == "abs":
                lo, hi = _abs_interval(lo, hi)
                forms = [(f"abs({text})", _PRIMARY_PREC) for text, _ in forms]
            elif op == "neg":
                lo, hi = -hi, -lo
                forms = [(f"(-{_paren(*form, _UNARY_PREC)})", _PRIMARY_PREC) for form in forms]
            else:
                lo, hi = 0, 1
                forms = [("!" + _paren(*form, _UNARY_PREC), _UNARY_PREC) for form in forms]
        else:
            a_lo, a_hi, left = self._walk(expr.left, leaves)
            b_lo, b_hi, right = self._walk(expr.right, leaves)
            logic = op in ("and", "or")
            # the operands' forms under LOGICAL, then under BITWISE if it differs
            pairs = [(left[0], right[0])]
            if logic or len(left) + len(right) > 2:
                pairs.append((left[-1], right[-1]))
            if logic:
                lo, hi = 0, 1
                forms = []
                for operator, (a, b) in zip((Operator.LOGICAL, Operator.BITWISE), pairs):
                    and_op, or_op = _join_ops(operator)
                    join = and_op if op == "and" else or_op
                    prec = _PREC[join.strip()]
                    a_text = _operand(expr.left, a, operator, prec)
                    forms.append((a_text + join + _operand(expr.right, b, operator, prec), prec))
            elif op == "dist":
                self.uses_dist = True
                # the dist macro is abs((a)-(b)): with |a-b| in range, the
                # difference lies within +-INT32_MAX, so neither - nor abs overflows
                lo, hi = _abs_interval(a_lo - b_hi, a_hi - b_lo)
                forms = [(f"dist({a[0]},{b[0]})", _PRIMARY_PREC) for a, b in pairs]
            else:
                if op == "add":
                    lo, hi = a_lo + b_lo, a_hi + b_hi
                elif op == "sub":
                    lo, hi = a_lo - b_hi, a_hi - b_lo
                elif op == "mul":
                    products = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
                    lo, hi = min(products), max(products)
                else:
                    lo, hi = 0, 1  # comparisons
                c_op = _C_OP[op]
                prec = _PREC[c_op]
                # a right operand of equal precedence stands bare only where
                # regrouping is harmless
                right_least = prec if c_op in _ASSOCIATIVE else prec + 1
                forms = []
                for (a, a_prec), (b, b_prec) in pairs:
                    if a_prec < prec:
                        a = f"({a})"
                    if b_prec < right_least:
                        b = f"({b})"
                    forms.append((a + c_op + b, prec))
        if lo < INT32_MIN or hi > INT32_MAX:
            raise CodegenError(
                f"{_xcsp_text(expr)} takes values in {lo}..{hi}, outside 32-bit signed range"
            )
        return lo, hi, forms


# the analysis of the instance transformed last, with a weak reference to that
# instance; it goes when the instance does. A race between threads can only
# drop it or make one more, so no lock is needed.
_last: tuple[weakref.ref[CspInstance], _Analysis] | None = None


def _forget(ref: weakref.ref[CspInstance]) -> None:
    global _last
    last = _last
    if last is not None and last[0] is ref:
        _last = None


def _analysis(csp: CspInstance) -> _Analysis:
    """The analysis of `csp`, made once while it is the instance transformed
    last. The memo is keyed on identity: hashing a frozen instance would walk
    every constraint."""
    global _last
    last = _last
    if last is not None and last[0]() is csp:
        return last[1]
    analysis = _Analysis(csp)
    _last = (weakref.ref(csp, _forget), analysis)
    return analysis


def _units(
    analysis: _Analysis, pieces: list[tuple[str, ...]], grouping: Grouping, or_op: str
) -> Iterable[tuple[bool, Sequence[str]]]:
    """(violation, pieces) of each bucket's unit. A bucket of conflicts tables
    only makes a violation unit, whose pieces form a disjunction that is true
    when some constraint is broken; any other bucket makes the conjunction of
    its constraints' condition pieces, a conflicts table's being the negated
    disjunction of its tuple conjunctions (`or_op` joins them)."""
    conflicts = analysis.conflicts
    count = len(pieces)
    if grouping is Grouping.NONE or (
        grouping is Grouping.PER_GROUP and len(analysis.groups) == count
    ):
        return zip(conflicts, pieces)  # one constraint per bucket
    if grouping is Grouping.WHOLE:
        buckets = [(0, count)] if count else []
    else:
        buckets = []
        start = 0
        for group in analysis.groups:
            buckets.append((start, start + len(group)))
            start += len(group)
    units = []
    for start, stop in buckets:
        if all(conflicts[start:stop]):
            units.append((True, [p for i in range(start, stop) for p in pieces[i]]))
        else:
            units.append((False, [
                p
                for i in range(start, stop)
                for p in (("!(" + or_op.join(pieces[i]) + ")",) if conflicts[i] else pieces[i])
            ]))
    return units


def transform(csp: CspInstance, spec: TransformSpec) -> GeneratedProgram:
    """Emit the C program for one cell of the version matrix."""
    analysis = _analysis(csp)
    if analysis.family is not None and analysis.family is not spec.family:
        raise CodegenError(
            f"instance takes the {analysis.family.value} rows (extensional with a table "
            f"constraint, intensional without), not the {spec.family.value} rows"
        )
    if analysis.invalid is not None:
        error, message = analysis.invalid
        raise error(message)

    construct, operator, grouping = _ROWS[spec.family][spec.version - 1]
    pieces, domains = analysis.rendered[operator is Operator.BITWISE]
    and_op, or_op = _join_ops(operator)
    c_names = analysis.c_names
    llbmc = spec.dialect is Dialect.LLBMC
    assume_fn = "__llbmc_assume" if llbmc else "klee_assume"
    indent = "    "

    body: list[str] = []
    names = [c_names[v.id] for v in csp.variables]

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
    head = indent + f"{assume_fn}("
    for domain_pieces, joiner in domains:
        body.extend(_wrap(head, domain_pieces, joiner, ");"))

    # constraints
    units = _units(analysis, pieces, grouping, or_op)
    # intensional if/whole: the one unit guards the distinguished assert(0)
    guarded = (
        spec.family is Family.INTENSIONAL
        and construct is Construct.IF
        and grouping is Grouping.WHOLE
        and bool(analysis.constraints)
    )
    # (head, tail, joiner) of a unit's statement, indexed by its violation flag
    statements = tuple(
        (
            indent + _STATEMENTS[violation, construct][0].format(assume=assume_fn),
            ") assert(0);" if guarded else _STATEMENTS[violation, construct][1],
            or_op if violation else and_op,
        )
        for violation in (False, True)
    )
    nop = operator is Operator.NOP
    statement_lines: list[str] = []
    statement_count = 0
    for violation, unit_pieces in units:
        head, tail, joiner = statements[violation]
        if nop:
            # one statement per piece
            statement_lines += [head + piece + tail for piece in unit_pieces]
            statement_count += len(unit_pieces)
        else:
            statement_lines += _wrap(head, unit_pieces, joiner, tail)
            statement_count += 1
    if statement_count and not guarded:
        body.append(indent + "/* constraints */")
        body.extend(statement_lines)

    # distinguished point
    body.append(indent + "/* CSP is satisfiable */")
    body.extend(statement_lines if guarded else [indent + "assert(0);"])
    body.append(indent + "return 0;")

    main = ["int main(void) {"] + body + ["}"]
    source = "\n".join(_file_header(csp.name, spec, analysis.uses_dist) + main) + "\n"

    program = GeneratedProgram(
        source_text=source,
        version_label=spec.version_label,
        statement_count=statement_count,
        instance_name=csp.name,
        dialect=Dialect.LLBMC if llbmc else Dialect.KLEE,
    )
    if spec.dialect is Dialect.CONCRETE:
        return build_unit(csp, [program], spec.version_label)
    return program


def version_comment(name: str, spec: TransformSpec) -> str:
    """Line 1 of the program of `spec` for the instance `name`, a comment
    naming the cell; cells whose programs differ in this line alone are one
    program (first_sharers)."""
    return (
        f"/* {name}: {spec.family.value} version {spec.version} "
        f"({spec.construct.value}, {spec.operator.value}, grouping={spec.grouping.value}) */"
    )


def first_sharers(
    name: str,
    programs: Iterable[tuple[TransformSpec, str]],
    recall: Callable[[int, int], str],
) -> list[int]:
    """For each (spec, source text) of `programs`, the programs of one
    instance `name` and one dialect, in order: the index of the first that
    is the same program, its own index when none before it is. The one rule
    of csp2c for "the same program", which verify and bench both follow:
    two texts are the same program when they are equal but for line 1,
    where each holds version_comment(name, spec) for its own spec; a text
    whose line 1 is anything else is the same only as one of the same whole
    text. `programs` is read one at a time and no text is kept: a text is
    compared only with the earlier ones of its length, each as
    `recall(index, start)` gives it, from the character `start` on."""
    firsts: list[int] = []
    # where the compared part of each text starts: after line 1, or at 0
    starts: list[int] = []
    # (whether line 1 is left out, length compared) -> indices of distinct programs
    candidates: dict[tuple[bool, int], list[int]] = {}
    for spec, text in programs:
        head = version_comment(name, spec) + "\n"
        start = len(head) if text.startswith(head) else 0
        length = len(text) - start
        same = candidates.setdefault((start > 0, length), [])
        k = len(firsts)
        for earlier in same:
            if _is_tail(recall(earlier, starts[earlier]), text, length):
                k = earlier
                break
        else:
            same.append(k)
        firsts.append(k)
        starts.append(start)
        # dropped before the next text is made
        del text
    return firsts


def _is_tail(part: str, text: str, length: int) -> bool:
    """Whether `part` is the last `length` characters of `text`, compared in
    place, so no copy of them is made."""
    return len(part) == length and text.endswith(part)


def _file_header(name: str, spec: TransformSpec, uses_dist: bool) -> list[str]:
    lines = [version_comment(name, spec)]
    if spec.dialect is Dialect.LLBMC:
        lines += [f"#include <{header}>" for header in _LIBC_HEADERS]
        lines += ["", "void __llbmc_assume(int condition);", "int __llbmc_nondef_int(void);"]
    else:
        lines += [f"#include <{header}>" for header in INCLUDED_HEADERS]
    if uses_dist:
        lines += ["", _DIST_MACRO]
    lines.append("")
    return lines


def driver_main(count: int, arity: int) -> list[str]:
    """main() of the replay driver over csp2c_main_0 .. csp2c_main_<count-1>,
    each reading `arity` values; csp2c_drive in DRIVER_PRELUDE holds the
    stdin protocol."""
    versions = [f"csp2c_main_{k}" for k in range(count)]
    return [
        "int main(void) {",
        *_wrap("    static int (*const versions[])(void) = {", versions, ", ", "};"),
        f"    return csp2c_drive(versions, {count}, {arity});",
        "}",
    ]


def _c_string(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def build_unit(
    csp: CspInstance, programs: Sequence[GeneratedProgram], label: str = "unit1"
) -> GeneratedProgram:
    """One translation unit: DRIVER_PRELUDE, each of `programs` (klee or
    llbmc programs of `csp`), and a shared main that prints one verdict
    digit per program, in order, for each assignment read.

    Program i is embedded with its `#include` lines of INCLUDED_HEADERS
    blank, so that the prelude's definitions stand, and every other line as
    it is: `main` is renamed to csp2c_main_<i> and `#line` names the
    program's own file, so a compiler message inside it names that file and
    line. The unit's own file is named after `label`.
    """
    text = DRIVER_PRELUDE + "".join(
        f"#define main csp2c_main_{i}\n#line 1 {_c_string(output_filename(program))}\n"
        + _INCLUDE_LINE.sub("", program.source_text)
        + "#undef main\n"
        for i, program in enumerate(programs)
    )
    # the shared main is numbered as lines of the unit's own file
    filename = source_filename(csp.name, label, Dialect.CONCRETE.value)
    main = driver_main(len(programs), len(csp.variables))
    next_line = text.count("\n") + 2
    text += f"#line {next_line} {_c_string(filename)}\n" + "\n".join(main) + "\n"
    return GeneratedProgram(
        source_text=text,
        version_label=label,
        statement_count=sum(p.statement_count for p in programs),
        instance_name=csp.name,
        dialect=Dialect.CONCRETE,
    )
