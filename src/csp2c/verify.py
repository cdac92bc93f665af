"""Differential testing of generated programs against the search oracle.

Programs are checked the hard way: emit the concrete dialect, compile it
with an external C compiler, and pipe the whole assignment plan through the
executable, so the verification path shares no evaluation code with the
oracle. All versions of one pass go into one translation unit (with
`workers` > 1, into that many units, built at once): each version's own
`accepts` and `main` are renamed by `#define`, a `#line` directive makes
compiler messages name the version's own file, and one shared batch `main`
prints, for every assignment, one line holding one 0/1 verdict digit per
version. A version's digit must be `1` exactly when the oracle says all
constraints hold. Compiles and driver runs go through `harness.run_command`:
a compile runs in its own process group, killed whole after
COMPILE_TIMEOUT_S, and DRIVER_TIMEOUT_S bounds the one batch run per unit.
"""

from __future__ import annotations

import os
import random
import shlex
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from .codegen import (
    Dialect,
    GeneratedProgram,
    TransformSpec,
    concrete_main,
    emit_concrete_driver,
    output_filename,
    source_filename,
)
from .harness import CommandResult, run_command
from .model import CspInstance
from .oracle import Assignment, all_assignments, constraint_satisfied, solve

DEFAULT_EXHAUSTIVE_BOUND = 4096
DEFAULT_SAMPLE_COUNT = 256
DEFAULT_CC = "cc -O1 -o {out} {src}"
# the fields a compile command template may name
COMPILE_FIELDS = ("src", "out")
COMPILE_TIMEOUT_S = 120
DRIVER_TIMEOUT_S = 60


class VerifyError(Exception):
    pass


class CompileError(VerifyError):
    def __init__(self, command: str, output: str):
        self.command = command
        self.output = output
        super().__init__(f"compile failed: {command}\n{output}")


class VerifyStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    SAMPLED = "sampled"
    SKIPPED_TOO_LARGE = "skipped-too-large"


@dataclass(frozen=True)
class Mismatch:
    version_label: str
    assignment: tuple[tuple[str, int], ...]
    expected: bool
    observed: bool


@dataclass(frozen=True)
class UnitTiming:
    """One translation unit: the versions it holds, the time to emit and
    compile it, and the time of its one driver run."""

    versions: tuple[str, ...]
    compile_s: float
    run_s: float


@dataclass
class VerificationReport:
    instance: str
    versions: list[str]
    assignments_checked: int
    mismatches: list[Mismatch] = field(default_factory=list)
    status: VerifyStatus = VerifyStatus.PASS
    # one entry per translation unit, each listing its distinct versions
    timings: list[UnitTiming] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status is VerifyStatus.PASS


def default_compile_command() -> str:
    return os.environ.get("CSP2C_CC", DEFAULT_CC)


def _run(
    template: str, subs: dict[str, str], timeout_s: float, stdin: str | None = None
) -> CommandResult:
    """harness.run_command, with a timeout or a failure to start raised as
    VerifyError."""
    result = run_command(template, subs, timeout_s, stdin)
    if result.returncode is None:
        raise VerifyError(f"cannot run {shlex.join(result.argv)}: {result.stderr}")
    if result.timed_out:
        raise VerifyError(f"timed out after {timeout_s:g} s: {shlex.join(result.argv)}")
    return result


def compile_program(program: GeneratedProgram, compile_cmd: str, workdir: str) -> str:
    """Write the source, run the compiler template, return the executable path."""
    os.makedirs(workdir, exist_ok=True)
    src = os.path.join(workdir, output_filename(program))
    exe = src[:-2]
    with open(src, "w", encoding="utf-8") as fh:
        fh.write(program.source_text)
    result = _run(compile_cmd, dict(zip(COMPILE_FIELDS, (src, exe))), COMPILE_TIMEOUT_S)
    if result.returncode != 0 or not os.path.exists(exe):
        raise CompileError(shlex.join(result.argv), result.stdout + result.stderr)
    return exe


def _c_string(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def build_unit(
    csp: CspInstance,
    specs: Sequence[TransformSpec],
    emitter: Callable[[CspInstance, TransformSpec], GeneratedProgram] = emit_concrete_driver,
    label: str = "unit1",
) -> GeneratedProgram:
    """One translation unit holding the program `emitter` gives for each of
    `specs`, and a shared batch main that prints one verdict digit per spec,
    in order, for each assignment read.

    Program i is compiled with `accepts` and `main` renamed to
    csp2c_accepts_<i> and csp2c_main_<i>, and with `#line` set to its own
    file name, so a compiler message inside it names that file. The unit's
    own file is named after `label`.
    """
    programs = [emitter(csp, spec) for spec in specs]
    text = "".join(
        f"#define accepts csp2c_accepts_{i}\n#define main csp2c_main_{i}\n"
        f"#line 1 {_c_string(output_filename(program))}\n"
        + program.source_text
        + "#undef accepts\n#undef main\n"
        for i, program in enumerate(programs)
    )
    # the shared main is numbered as lines of the unit's own file
    filename = source_filename(csp.name, label, Dialect.CONCRETE.value)
    main = concrete_main(
        [f"csp2c_accepts_{i}" for i in range(len(programs))], len(csp.variables)
    )
    next_line = text.count("\n") + 2
    text += f"#line {next_line} {_c_string(filename)}\n" + "\n".join(main) + "\n"
    return GeneratedProgram(
        source_text=text,
        version_label=label,
        statement_count=sum(p.statement_count for p in programs),
        var_map=programs[0].var_map,
        line_count=text.count("\n"),
        instance_name=csp.name,
        dialect=Dialect.CONCRETE,
        constraint_lines=tuple(line for p in programs for line in p.constraint_lines),
    )


def _verdicts(exe: str, plan: str, count: int, width: int) -> list[list[bool]]:
    """Pipe the plan of `count` assignments through one batch-mode run of a
    unit's driver; one row of verdicts for each of its `width` versions.

    Anything but a zero exit with exactly one line of `width` 0/1 digits per
    assignment raises VerifyError: a broken driver is never read as a verdict.
    """
    proc = _run("{exe}", {"exe": exe}, DRIVER_TIMEOUT_S, stdin=plan)
    if proc.returncode != 0:
        stderr = proc.stderr.strip()
        raise VerifyError(
            f"driver {exe} exited with status {proc.returncode}"
            + (f": {stderr}" if stderr else "")
        )
    lines = proc.stdout.splitlines()
    if len(lines) != count:
        raise VerifyError(
            f"driver {exe} printed {len(lines)} verdict lines for {count} assignments"
        )
    bad = next((line for line in lines if len(line) != width or line.strip("01")), None)
    if bad is not None:
        raise VerifyError(
            f"driver {exe} printed {bad!r}, not a line of {width} 0/1 verdict digits"
        )
    return [[line[k] == "1" for line in lines] for k in range(width)]


def _observe(
    csp: CspInstance,
    versions: Sequence[TransformSpec],
    assignments: Sequence[Assignment],
    compile_cmd: str | None,
    workers: int,
    workdir: str | None,
    emitter: Callable[[CspInstance, TransformSpec], GeneratedProgram],
) -> tuple[list[list[bool]], list[UnitTiming]]:
    """One row of driver verdicts per version, in the order of `assignments`,
    and one timing per translation unit.

    The distinct versions are split, in order, into min(`workers`, their
    number) units of near-equal size, built, compiled and run at once; each
    version is compiled and run once. Builds go to `workdir`, or to a
    temporary directory removed afterwards.
    """
    compile_cmd = compile_cmd or default_compile_command()
    order = [v.id for v in csp.variables]
    plan = "".join(" ".join(str(a[v]) for v in order) + "\n" for a in assignments)
    tmp = workdir or tempfile.mkdtemp(prefix="csp2c-verify-")
    distinct = list(dict.fromkeys(versions))
    n = min(max(workers, 1), len(distinct))
    units = [distinct[len(distinct) * i // n : len(distinct) * (i + 1) // n] for i in range(n)]

    def job(index: int) -> tuple[list[list[bool]], UnitTiming]:
        specs = units[index]
        start = time.perf_counter()
        unit = build_unit(csp, specs, emitter, f"unit{index + 1}")
        exe = compile_program(unit, compile_cmd, tmp)
        compiled = time.perf_counter()
        rows = _verdicts(exe, plan, len(assignments), len(specs))
        timing = UnitTiming(
            tuple(spec.version_label for spec in specs),
            compiled - start,
            time.perf_counter() - compiled,
        )
        return rows, timing

    try:
        # a pass without versions has no units, and a pool needs one thread
        with ThreadPoolExecutor(max_workers=max(n, 1)) as pool:
            results = list(pool.map(job, range(n)))
    finally:
        if workdir is None:
            shutil.rmtree(tmp, ignore_errors=True)
    by_spec = {
        spec: row for specs, (rows, _) in zip(units, results) for spec, row in zip(specs, rows)
    }
    return [by_spec[s] for s in versions], [timing for _, timing in results]


def _assignment_plan(
    csp: CspInstance, bound: int, sample_count: int, rng_seed: int
) -> tuple[list[Assignment], bool]:
    """Exhaustive product when it fits the bound, otherwise a seeded sample
    that always includes the oracle witness when one exists."""
    if csp.assignment_space_size <= bound:
        return list(all_assignments(csp)), True
    rng = random.Random(rng_seed)
    plan: list[Assignment] = []
    result = solve(csp, limit=min(csp.assignment_space_size, 10**6))
    if result.witness is not None:
        plan.append(result.witness)
    order = [v.id for v in csp.variables]
    pools = [v.domain.values() for v in csp.variables]
    while len(plan) < sample_count:
        plan.append({v: rng.choice(pool) for v, pool in zip(order, pools)})
    return plan, False


def differential_check(
    csp: CspInstance,
    versions: Sequence[TransformSpec],
    compile_cmd: str | None = None,
    *,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    workers: int = 1,
    workdir: str | None = None,
    emitter: Callable[[CspInstance, TransformSpec], GeneratedProgram] = emit_concrete_driver,
    rng_seed: int = 0,
) -> VerificationReport:
    """Compare every version's concrete driver against the oracle.

    Exhaustive when the assignment space fits `bound`; sampled (status
    SAMPLED) when it does not and `sample_count` > 0; SKIPPED_TOO_LARGE
    otherwise. Compile failures raise CompileError with compiler output; a
    compiler or driver that cannot be started or times out, and a driver
    that exits nonzero or prints anything but one verdict per assignment,
    raise VerifyError.
    """
    labels = [spec.version_label for spec in versions]
    if csp.assignment_space_size > bound and sample_count <= 0:
        return VerificationReport(
            instance=csp.name,
            versions=labels,
            assignments_checked=0,
            status=VerifyStatus.SKIPPED_TOO_LARGE,
        )

    assignments, exhaustive = _assignment_plan(csp, bound, sample_count, rng_seed)
    constraints = csp.constraints()
    expected = [
        all(constraint_satisfied(c, a) for c in constraints) for a in assignments
    ]
    rows, timings = _observe(
        csp, versions, assignments, compile_cmd, workers, workdir, emitter
    )
    mismatches = [
        Mismatch(spec.version_label, tuple(sorted(a.items())), want, got)
        for spec, observed in zip(versions, rows)
        for a, want, got in zip(assignments, expected, observed)
        if want != got
    ]
    mismatches.sort(key=lambda m: (m.version_label, m.assignment))
    if mismatches:
        status = VerifyStatus.FAIL
    elif exhaustive:
        status = VerifyStatus.PASS
    else:
        status = VerifyStatus.SAMPLED
    return VerificationReport(
        instance=csp.name,
        versions=labels,
        assignments_checked=len(assignments),
        mismatches=mismatches,
        status=status,
        timings=timings,
    )


def cross_version_equivalence(
    csp: CspInstance,
    versions: Sequence[TransformSpec],
    compile_cmd: str | None = None,
    *,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    workers: int = 1,
    workdir: str | None = None,
    emitter: Callable[[CspInstance, TransformSpec], GeneratedProgram] = emit_concrete_driver,
) -> bool:
    """True iff all versions accept exactly the same assignments."""
    if csp.assignment_space_size > bound:
        raise VerifyError(
            f"assignment space {csp.assignment_space_size} exceeds bound {bound}"
        )
    assignments = list(all_assignments(csp))
    rows, _ = _observe(csp, versions, assignments, compile_cmd, workers, workdir, emitter)
    return all(row == rows[0] for row in rows)
