"""Command-line entry point.

Subcommands: parse (summarize an XCSP3 file), gen (emit the C programs of
the instance's family, codegen.family_of), solve (satisfiability by
forward-checking search), verify (differential check of those programs
against the solver), bench (run external tools over a benchmark matrix),
report (rebuild tables/charts from a raw records CSV).

Exit codes are listed in the "Exit codes" table of README.md. The
commands raise; `main` alone turns an error into output and an exit code:
parse diagnostics exit 2, an error in `_EXIT_CODES` prints `error: ...`
and exits with its code, an interrupt (Ctrl-C) prints `interrupted` and
exits 130 once every child csp2c waited on is killed, and any other
exception is a bug and keeps its traceback.
The CSP2C_CC environment variable replaces the default C compiler template,
verify.DEFAULT_CC: "cc -O0 -fsanitize=signed-integer-overflow
-fsanitize-undefined-trap-on-error -o {out} {src}", `-O0` made safe by a
trapping signed-overflow check (verify's docstring says why). It is read
when `verify` runs, and `verify` prints the template it ran. A driver
killed by SIGILL has hit that check: `verify` exits 1 with an error naming
the version and the assignment.

A command loads only the modules it runs. Every other csp2c module is
bound here as a lazy module, registered in sys.modules at once but run on
first attribute access, so importing this module runs none of them:
`parse` runs the parser and the model, `solve` the oracle too, and
`report` only the harness, the model (every harness value class is a
model.Frozen) and the charts. harness.run_command imports
`subprocess` and `threading` only to start a child, and harness.run_jobs
imports `concurrent.futures` only for a pool: `--workers` above 1 and
more than one job.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import types
from typing import Callable


def _lazy(name: str) -> types.ModuleType:
    """The csp2c module `name`, executed on first attribute access (the
    importlib.util.LazyLoader recipe); an imported module is returned as is."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# The model too, though only its error is named here: perfbench/spans.py
# finds every module it wraps in sys.modules once this one is imported.
xcsp = _lazy("xcsp")
model = _lazy("model")
oracle = _lazy("oracle")
codegen = _lazy("codegen")
verify = _lazy("verify")
harness = _lazy("harness")
charts = _lazy("charts")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3
EXIT_INTERRUPT = 130  # 128 + SIGINT, as a shell reports a command Ctrl-C stopped

# the exit code of each error a command raises on bad input or a failed
# check, reported as "error: ..."; any other exception is a bug. A class is
# named by module and qualified name, so matching an error loads no module.
_EXIT_CODES: dict[str, int] = {
    "csp2c.verify.VerifyError": EXIT_FAIL,  # CompileError too
    "csp2c.codegen.CodegenError": EXIT_PARSE,
    "csp2c.oracle.EvalError": EXIT_PARSE,  # Int32Overflow too
    "csp2c.model.ModelError": EXIT_PARSE,  # a domain too large to enumerate
    "csp2c.harness.HarnessError": EXIT_PARSE,
    "argparse.ArgumentTypeError": EXIT_PARSE,
    "builtins.OSError": EXIT_PARSE,
}


def _qualified(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _exit_code(exc: Exception) -> int | None:
    """The code of the nearest class of `exc` in `_EXIT_CODES`; None for a bug."""
    for cls in type(exc).__mro__:
        code = _EXIT_CODES.get(_qualified(cls))
        if code is not None:
            return code
    return None


def _plural(n: int, word: str) -> str:
    return f"{n} {word}" + ("" if n == 1 else "s")


def _parse_versions(
    value: str, family: codegen.Family, dialect: str = "klee"
) -> list[codegen.TransformSpec]:
    """The specs of a `--versions` list ("all" or e.g. "1,5,8"), a repeat
    dropped; a bad list raises ArgumentTypeError, a version out of range CodegenError."""
    if value == "all":
        numbers = range(1, codegen.version_count(family) + 1)
    else:
        try:
            numbers = dict.fromkeys(int(v) for v in value.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad version list {value!r}") from None
    return [codegen.TransformSpec(family, v, codegen.Dialect(dialect)) for v in numbers]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_parse(args: argparse.Namespace) -> int:
    csp = xcsp.parse_file(args.file)
    constraints = csp.constraints()
    if args.machine:
        print(
            json.dumps(
                {
                    "ok": True,
                    "instance": csp.name,
                    "variables": len(csp.variables),
                    "domain_sizes": [v.domain.size for v in csp.variables],
                    "groups": len(csp.groups),
                    "constraints": len(constraints),
                    "assignment_space": csp.assignment_space_size,
                }
            )
        )
    else:
        domains = ", ".join(
            f"{v.id}:{v.domain.size}" for v in csp.variables[:8]
        ) + ("..." if len(csp.variables) > 8 else "")
        print(
            f"{csp.name}: {_plural(len(csp.variables), 'var')}, "
            f"{_plural(len(csp.groups), 'group')}, "
            f"{_plural(len(constraints), 'constraint')}"
        )
        print(f"domain sizes: {domains}")
        print(f"assignment space: {csp.assignment_space_size}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    csp = xcsp.parse_file(args.file)
    specs = _parse_versions(args.versions, codegen.family_of(csp.constraints()), args.dialect)
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    for spec in specs:
        program = codegen.transform(csp, spec)
        path = harness.write_program(program, args.out_dir)
        rows.append(
            {
                "file": path,
                "instance": csp.name,
                "version": program.version_label,
                "dialect": args.dialect,
                "statements": program.statement_count,
                "lines": program.line_count,
            }
        )
    fields = ["file", "instance", "version", "dialect", "statements", "lines"]
    harness.write_csv(
        os.path.join(args.out_dir, "gen_manifest.csv"),
        fields,
        ([row[k] for k in fields] for row in rows),
    )
    if args.machine:
        for row in rows:
            print(json.dumps(row))
    else:
        for row in rows:
            print(f"wrote {row['file']} ({row['statements']} statements, {row['lines']} lines)")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    csp = xcsp.parse_file(args.file)
    result = oracle.solve(csp, limit=args.limit)
    if args.machine:
        print(
            json.dumps(
                {
                    "status": result.status.value,
                    "witness": result.witness,
                    "explored": result.explored,
                    "work": result.work,
                    "checks": result.checks,
                }
            )
        )
    else:
        print(
            f"{csp.name}: {result.status.value} "
            f"(explored {result.explored}, work {result.work}, checks {result.checks})"
        )
        if result.witness is not None:
            print(" ".join(f"{k}={v}" for k, v in result.witness.items()))
    if result.status is oracle.Status.SATISFIABLE:
        return EXIT_OK
    if result.status is oracle.Status.UNSATISFIABLE:
        return EXIT_FAIL
    return EXIT_LIMIT


def cmd_verify(args: argparse.Namespace) -> int:
    csp = xcsp.parse_file(args.file)
    specs = _parse_versions(args.versions, codegen.family_of(csp.constraints()))
    bound = verify.DEFAULT_EXHAUSTIVE_BOUND if args.bound is None else args.bound
    report = verify.differential_check(csp, specs, args.cc, bound=bound, workers=args.workers)
    first = None
    if report.mismatches:
        m = report.mismatches[0]
        first = {"version": m.version_label, "assignment": dict(m.assignment)}
    if args.machine:
        print(
            json.dumps(
                {
                    "instance": report.instance,
                    "status": report.status.value,
                    "versions": report.versions,
                    "assignments_checked": report.assignments_checked,
                    "mismatches": len(report.mismatches),
                    "first_mismatch": first,
                    "timings": [
                        {
                            "versions": list(t.versions),
                            "programs": t.programs,
                            "compile_s": t.compile_s,
                            "run_s": t.run_s,
                        }
                        for t in report.timings
                    ],
                    "cc": report.compile_cmd,
                }
            )
        )
    else:
        print(
            f"{report.instance}: {report.status.value} "
            f"({len(report.versions)} versions x {report.assignments_checked} assignments)"
        )
        print(f"  cc: {report.compile_cmd}")
        for t in report.timings:
            print(
                f"  {', '.join(t.versions)}: {_plural(t.programs, 'program')},"
                f" compile {t.compile_s:.3f} s, run {t.run_s:.3f} s"
            )
        for m in report.mismatches[:10]:
            a = " ".join(f"{k}={v}" for k, v in m.assignment)
            print(
                f"  mismatch {m.version_label}: [{a}] oracle={m.expected} driver={m.observed}"
            )
    if report.status is verify.VerifyStatus.PASS:
        return EXIT_OK
    if report.status is verify.VerifyStatus.FAIL:
        return EXIT_FAIL
    return EXIT_LIMIT


def cmd_bench(args: argparse.Namespace) -> int:
    tools = harness.load_tool_manifest(args.tools)
    instances = harness.load_instance_manifest(args.instances)
    os.makedirs(args.out_dir, exist_ok=True)
    src_dir = os.path.join(args.out_dir, "src")

    dialects = sorted(
        {t.dialect for t in tools if t.kind is harness.ToolKind.ANALYSIS}
    )
    labels_by_family: dict[str, list[str]] = {}
    same_program: dict[tuple[str, str, str], str] = {}
    for inst in instances:
        # an error names the manifest entry's file
        try:
            labels = _write_programs(inst, args.versions, dialects, src_dir, same_program)
        except xcsp.ParseFailure as exc:
            raise xcsp.ParseFailure(
                [
                    xcsp.ParseDiagnostic(f"{inst.path}:{d.path}", d.line, d.message)
                    for d in exc.diagnostics
                ]
            ) from None
        except codegen.CodegenError as exc:
            raise codegen.CodegenError(f"{inst.path}: {exc}") from None
        labels_by_family[inst.family] = labels

    records = harness.run_matrix(
        instances, labels_by_family, tools, src_dir,
        workers=args.workers, same_program=same_program,
    )
    sizes = {inst.instance_id: inst.size for inst in instances}
    return _write_report(records, sizes, args.out_dir)


def _write_programs(
    inst: harness.BenchInstance,
    versions: str,
    dialects: list[str],
    src_dir: str,
    same_program: dict[tuple[str, str, str], str],
) -> list[str]:
    """Write the program of each version of `inst` in each dialect to
    `src_dir`, and add to `same_program` each version that shares an earlier
    one's program (harness.write_versions); the version labels. The
    instance, and with it codegen's analysis of it, is released when this
    returns, before the next one is parsed."""
    csp = xcsp.parse_file(inst.path)
    family = codegen.Family(inst.family)
    labels = [spec.version_label for spec in _parse_versions(versions, family)]
    for dialect in dialects:
        specs = _parse_versions(versions, family, dialect)
        same_program.update(harness.write_versions(csp, specs, src_dir))
    return labels


def cmd_report(args: argparse.Namespace) -> int:
    records = harness.load_records_csv(args.records)
    sizes = None
    if args.instances:
        sizes = {
            inst.instance_id: inst.size for inst in harness.load_instance_manifest(args.instances)
        }
    return _write_report(records, sizes, args.out_dir)


def _write_report(
    records: list[harness.RunRecord], sizes: dict[str, int] | None, out_dir: str
) -> int:
    """Build the report tables, write them as CSV and SVG, list what was written."""
    report = harness.build_report(records, sizes)
    written = harness.emit_csv(report, out_dir)
    written += charts.emit_svg(report, out_dir)
    for path in written:
        print(f"wrote {path}")
    for flag in report.flags:
        print(f"note: {flag}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least `minimum`."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
        if number < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {number}")
        return number

    return parse


class _OracleLimit(str):
    """`solve --limit`'s default. argparse passes a string default through
    the option's type only when the option is not given, so the oracle is
    loaded for it only then; help prints it the same way."""

    def __str__(self) -> str:
        return str(_limit(self))


def _limit(value: str) -> int:
    """`solve --limit`'s type: a positive integer; its default is the
    oracle's DEFAULT_LIMIT. The XCSP3 reader is loaded before the oracle,
    as `solve` runs them: compiling the largest module before the model and
    the oracle keeps a start without a bytecode cache about 0.45 MB smaller."""
    if isinstance(value, _OracleLimit):
        xcsp.parse_file  # noqa: B018  (loads the reader)
        return oracle.DEFAULT_LIMIT
    return _int_at_least(1)(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csp2c",
        description="Generate, check, and benchmark C programs encoding constraint problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an XCSP3 file and print a summary")
    p.add_argument("file")
    p.add_argument("--machine", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("gen", help="generate C programs for a version range")
    p.add_argument("file")
    p.add_argument("--versions", default="all", help='"all" or comma list, e.g. 1,5,8')
    p.add_argument("--dialect", choices=["klee", "llbmc", "concrete"], default="klee")
    p.add_argument("--out-dir", default="generated")
    p.add_argument("--machine", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="decide satisfiability of an instance by search")
    p.add_argument("file")
    p.add_argument(
        "--limit",
        type=_limit,
        default=_OracleLimit(),
        help="search budget: leaves plus pruned branches, and this many live "
        "values per filter on average (default %(default)s)",
    )
    p.add_argument("--machine", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="differential-check generated code against the solver")
    p.add_argument("file")
    p.add_argument("--versions", default="all")
    p.add_argument(
        "--cc",
        help="compiler template with {src} and {out} (env CSP2C_CC)",
    )
    p.add_argument(
        "--bound",
        type=_int_at_least(0),
        help="max exhaustive assignments",
    )
    p.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=1,
        help="translation units built and run at once, each a share of the distinct programs",
    )
    p.add_argument("--machine", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run external tools over a benchmark matrix")
    p.add_argument("--tools", required=True, help="tool manifest (JSON)")
    p.add_argument("--instances", required=True, help="instance manifest (JSON)")
    p.add_argument("--out-dir", default="bench-out")
    p.add_argument("--versions", default="all")
    p.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=1,
        help="jobs run at once; above 1 the records are stamped as indicative",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="rebuild report tables/charts from raw records")
    p.add_argument("records", help="raw.csv from a previous bench run")
    p.add_argument("--instances", help="instance manifest for size ordering")
    p.add_argument("--out-dir", default="bench-out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the one place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # harness.run_jobs and run_command have killed their children's groups
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except Exception as exc:
        # matched by name, as in _EXIT_CODES, so that an error loads no module
        if _qualified(type(exc)) == "csp2c.xcsp.ParseFailure":
            if getattr(args, "machine", False):
                diagnostics = [
                    {"severity": "error", "path": d.path, "line": d.line, "message": d.message}
                    for d in exc.diagnostics
                ]
                print(json.dumps({"ok": False, "diagnostics": diagnostics}))
            else:
                for d in exc.diagnostics:
                    print(str(d), file=sys.stderr)
            return EXIT_PARSE
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
