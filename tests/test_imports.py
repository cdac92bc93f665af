"""Structure rules of the package, read from its source.

csp2c depends on the standard library alone (`dependencies = []`); the
oracle, the independent reference, imports only the model, and codegen
does not import the oracle; the model imports no other csp2c module;
codegen alone writes replay-driver C; the harness alone starts child
processes and runs jobs at once, and waits for a child without polling;
no nested function names itself, so none is a reference cycle; no
model.Frozen subclass writes out a constructor that only stores its fields;
the model alone sets the expression-depth limit and defines expression
node types (no other class has a `depth`); the harness and verify
alone check command templates, each its own; verify emits in
differential_check alone; ToolSpec and BenchInstance alone check their
fields; model.Family and codegen's messages alone spell a family name; no
module uses dataclasses; the CLI binds every other csp2c module lazily;
and a test pins each message the XCSP3 reader rejects an element with.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "csp2c"
MODULES = sorted(PACKAGE.glob("*.py"))


def imports(path: Path) -> tuple[set[str], set[str]]:
    """(top-level names of absolute imports, csp2c modules imported relatively)."""
    absolute: set[str] = set()
    siblings: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                absolute.add(node.module.split(".")[0])
            elif node.module:
                siblings.add(node.module.split(".")[0])
            else:
                siblings.update(alias.name for alias in node.names)
    return absolute, siblings


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    absolute, _ = imports(path)
    assert sorted(absolute - set(sys.stdlib_module_names)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_start_up_modules_import_nothing_from_dataclasses(path):
    """Each command starts a new interpreter, and importing `dataclasses`
    and building dataclasses cost about half of csp2c's own import; every
    value class is a model.Frozen instead."""
    absolute, _ = imports(path)
    assert "dataclasses" not in absolute


def test_the_cli_binds_its_siblings_lazily():
    """cli imports no csp2c module: it binds each one through _lazy, so
    importing it runs none and a command runs only the modules it uses."""
    _, siblings = imports(PACKAGE / "cli.py")
    assert siblings == set()
    bound = {
        node.args[0].value
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy"
    }
    assert bound == {p.stem for p in MODULES if not p.stem.startswith("_")} - {"cli"}


def test_oracle_imports_only_the_model():
    _, siblings = imports(PACKAGE / "oracle.py")
    assert siblings == {"model"}


def test_codegen_does_not_import_the_oracle():
    """codegen's interval analysis and the oracle's evaluator stay apart, so
    each checks the other."""
    _, siblings = imports(PACKAGE / "codegen.py")
    assert "oracle" not in siblings


def test_model_imports_no_other_csp2c_module():
    _, siblings = imports(PACKAGE / "model.py")
    assert siblings == set()


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "codegen.py"], ids=lambda p: p.name
)
def test_only_codegen_writes_replay_driver_c(path):
    """A renamed main, a `#line` directive or a driver main is assembled in
    codegen alone, next to DRIVER_PRELUDE."""
    text = path.read_text(encoding="utf-8")
    assert [s for s in ("csp2c_main_", "#line", "#define main") if s in text] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_harness_imports_subprocess(path):
    """harness.run_command is the one place csp2c starts a child process."""
    absolute, _ = imports(path)
    assert ("subprocess" in absolute) == (path.name == "harness.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_harness_imports_concurrent_futures(path):
    """harness.run_jobs is the one way csp2c runs jobs at once."""
    absolute, _ = imports(path)
    assert ("concurrent" in absolute) == (path.name == "harness.py")


def test_the_harness_never_polls_a_child():
    """Popen.communicate and Popen.wait with a timeout poll the child in
    growing sleeps (0.5 ms, 1 ms, 2 ms, ...), about 1 ms a short child;
    run_command blocks until the child ends and a thread sleeps to its
    deadline instead. (concurrent.futures.wait is a function, not one of
    these methods.)"""
    tree = ast.parse((PACKAGE / "harness.py").read_text(encoding="utf-8"))
    polls = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("communicate", "wait")
        and (
            any(keyword.arg == "timeout" for keyword in node.keywords)
            or node.func.attr == "communicate" and len(node.args) > 1
        )
    ]
    assert polls == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_nested_function_names_itself(path):
    """A nested function that names itself, to recurse, holds a cell that
    holds the function: a reference cycle, which keeps all the closure
    reaches (a parse's tokens, its leaves, the reader) until the cyclic
    collector runs. Recursion is for module-level functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    cycles = {
        (inner.lineno, inner.name)
        for outer in ast.walk(tree)
        if isinstance(outer, FUNCTIONS)
        for inner in ast.walk(outer)
        if inner is not outer
        and isinstance(inner, FUNCTIONS)
        and any(isinstance(node, ast.Name) and node.id == inner.name for node in ast.walk(inner))
    }
    assert sorted(cycles) == []


# the calls that store a value's fields
STORERS = {"set_slot", "self._set", "Frozen.__init__"}


def store_only_constructors(path: Path) -> list[str]:
    """The model.Frozen subclasses whose own `__init__` only passes its
    parameters, unchanged, to the calls that store fields."""

    def stores(stmt: ast.stmt) -> bool:
        if not isinstance(stmt, ast.Expr):
            return False
        call = stmt.value
        if isinstance(call, ast.Constant):  # a docstring
            return True
        return (
            isinstance(call, ast.Call)
            and ast.unparse(call.func) in STORERS
            and all(
                isinstance(arg, (ast.Name, ast.Constant))
                or isinstance(arg, ast.Starred) and isinstance(arg.value, ast.Name)
                for arg in [*call.args, *(k.value for k in call.keywords)]
            )
        )

    return [
        cls.name
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        and any(ast.unparse(base).split(".")[-1] == "Frozen" for base in cls.bases)
        for init in cls.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        and all(stores(stmt) for stmt in init.body)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_value_class_writes_out_a_constructor_that_only_stores(path):
    """Frozen's one constructor takes and stores the fields; a subclass
    writes its own only to check them or to work one out, and then calls
    Frozen.__init__."""
    assert store_only_constructors(path) == []


def assigned_names(path: Path) -> set[str]:
    """Every name the module binds by assignment."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = [node.target]
        else:
            continue
        names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_model_sets_the_depth_limit(path):
    """MAX_EXPR_DEPTH is checked where trees are built; other modules import it."""
    assert ("MAX_EXPR_DEPTH" in assigned_names(path)) == (path.name == "model.py")


def classes_with_a_depth(path: Path) -> list[str]:
    """The classes that give their objects a `depth`: by a class variable,
    an annotation, a property or a `__slots__` entry."""
    found = []
    for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                targets = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                targets = {stmt.target.id}
            else:
                targets = {stmt.name} if isinstance(stmt, ast.FunctionDef) else set()
            slots = "__slots__" in targets and any(
                isinstance(c, ast.Constant) and c.value == "depth" for c in ast.walk(stmt.value)
            )
            if "depth" in targets or slots:
                found.append(cls.name)
                break
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_model_defines_expression_nodes(path):
    """The model reads each operand's `depth` when it builds an operator
    node, so a class with one could enter a model tree; only the model's
    four node types have one."""
    expected = ["Var", "Const", "Unary", "Binary"] if path.name == "model.py" else []
    assert classes_with_a_depth(path) == expected


def string_constants(tree: ast.AST) -> list[ast.Constant]:
    """Every string constant in `tree` but the docstrings of the module, its
    classes and its functions."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and ast.get_docstring(node) is not None
    }
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


def test_only_operand_writes_a_truth_test():
    """codegen writes the bitwise truth-test `!=0` in one function, _operand,
    which renders every operand of an and/or join; docstrings that describe
    it write no C."""
    tree = ast.parse((PACKAGE / "codegen.py").read_text(encoding="utf-8"))
    inside = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_operand"
        for inner in ast.walk(node)
    }
    writers = [node for node in string_constants(tree) if "!=0" in node.value]
    assert writers and all(id(node) in inside for node in writers), [
        (node.lineno, node.value) for node in writers
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_codegen_spells_a_family_name(path):
    """model.Family, which codegen re-exports, names the two families, and
    codegen.family_of reads an instance's and codegen's messages name them;
    any other module takes a family from them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    spelled = [
        node.value
        for node in string_constants(tree)
        if "extensional" in node.value or "intensional" in node.value
    ]
    assert bool(spelled) == (path.name in ("codegen.py", "model.py")), spelled


def names(path: Path) -> tuple[set[str], set[str]]:
    """(every name the module calls, every name it mentions), a dotted name
    `a.b` counted by its last part."""
    called: set[str] = set()
    mentioned: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            mentioned.add(node.id)
        elif isinstance(node, ast.Attribute):
            mentioned.add(node.attr)
        elif isinstance(node, ast.alias):
            mentioned.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", ""))
    return called, mentioned


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_owners_of_a_template_check_it(path):
    """harness.ToolSpec checks a tool's templates and verify its compile
    template; a template is checked once, by the code that fills it."""
    called, _ = names(path)
    assert ("check_template" in called) == (path.name in ("harness.py", "verify.py"))


def test_the_cli_leaves_the_compile_template_to_verify():
    _, mentioned = names(PACKAGE / "cli.py")
    assert mentioned & {"check_template", "COMPILE_FIELDS", "default_compile_command"} == set()


def enclosing_functions(path: Path, name: str) -> set[str]:
    """The qualified names (`Class.method`, `function.inner`) of the
    functions in which the module uses the name `name`; "" for a use at
    module level."""
    found: set[str] = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, ast.Name) and node.id == name:
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


@pytest.mark.parametrize("name", ["transform", "emitter"])
def test_verify_emits_only_in_differential_check(name):
    """differential_check emits every program before the oracle runs, so
    emission is its encodability check and no unit job emits."""
    assert enclosing_functions(PACKAGE / "verify.py", name) == {"differential_check"}


def test_only_the_manifest_values_check_their_fields():
    """ToolSpec and BenchInstance check their own fields in their
    constructors; the manifest loaders leave every field check to them."""
    assert enclosing_functions(PACKAGE / "harness.py", "_check_fields") == {
        "ToolSpec.__init__",
        "BenchInstance.__init__",
    }


def literal_prefix(node: ast.expr) -> str | None:
    """The text a string or f-string starts with, before its first `{...}`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        prefix = ""
        for part in node.values:
            if not isinstance(part, ast.Constant):
                break
            prefix += part.value
        return prefix
    return None


def rejection_messages(path: Path) -> list[ast.expr]:
    """The message arguments of every `_Reject(node, *messages)` in the module."""
    return [
        message
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Reject"
        for message in node.args[1:]
    ]


def test_every_parser_rejection_has_a_diagnostic_table_row():
    """Each message the XCSP3 reader rejects an element with is pinned by a
    row of test_xcsp.DIAGNOSTIC_TABLE; a message passed on unchanged
    (`*messages`) was raised, and so pinned, where it was made."""
    from test_xcsp import DIAGNOSTIC_TABLE

    pinned = [expected.split("): ", 1)[1] for _, expected in DIAGNOSTIC_TABLE.values()]
    messages = [m for m in rejection_messages(PACKAGE / "xcsp.py") if not isinstance(m, ast.Starred)]
    prefixes = [literal_prefix(m) for m in messages]
    assert len(prefixes) > 20 and all(prefixes), [ast.unparse(m) for m in messages]
    assert [p for p in prefixes if not any(m.startswith(p) for m in pinned)] == []
