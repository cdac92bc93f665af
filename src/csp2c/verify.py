"""Differential testing of generated programs against the search oracle.

Programs are checked the hard way: compile the klee programs the tools
receive with an external C compiler, and pipe the whole assignment plan
through the executable, so the verification path shares no evaluation code
with the oracle. Versions whose programs are equal but for line 1, the
comment codegen.version_comment writes for each cell, share one program
(codegen.first_sharers, the rule bench follows too), compiled and run
once: on the corpus, 142 cells are 101 programs. Each
distinct program of a pass goes into one translation unit (with `workers`
> 1, the programs are split among that many units, built at once by
harness.run_jobs), which codegen.build_unit assembles around the replay
driver; it blanks the programs' `#include` lines of
codegen.INCLUDED_HEADERS and keeps every other line the tools receive as
it is, so a compiler message in a program names the file of the first
version that shares it. The driver prints, for every assignment, one line
holding one 0/1 verdict digit per program, and the digit of every version
that shares a program must be `1` exactly when the oracle says all
constraints hold. The llbmc programs differ from the klee ones only in
intrinsic names; `verify` does not compile them, and a test runs them
through this same check. Compiles and driver runs go through
`harness.run_command`: a compile runs in its own process group, killed
whole after COMPILE_TIMEOUT_S, and DRIVER_TIMEOUT_S bounds the one driver
run per unit.

The default compile command, DEFAULT_CC, is `cc -O0` with gcc's and clang's
signed-overflow check in trap form (`-fsanitize=signed-integer-overflow
-fsanitize-undefined-trap-on-error`), which needs no runtime library. `-O0`
compiles a unit in about half the time of `-O1`. The check makes it safe:
signed `int` overflow, the undefined behaviour a program could hit, traps
instead of wrapping silently (as at `-O0` alone) or being assumed away by
the optimiser (as at `-O1`). A driver killed by SIGILL has hit that trap:
the program's C semantics break the promise there, so it is a VerifyError
naming the versions that share the program and the assignment, never a
verdict. CSP2C_CC, or an explicit `compile_cmd`, replaces the whole
template; a compiler that rejects the flags fails with CompileError. This
module owns the template: `differential_check` checks it against
COMPILE_FIELDS before anything else runs, and the report names it.

`differential_check` is the one check of the version matrix: every
version is compared with the oracle, so a PASS in every version also means
that all versions accept the same assignments. It emits each distinct
version's program in the calling thread before the oracle runs, so
emission is the one encodability check, and the units' jobs only build,
compile and run. Its mismatches follow `versions`, then the plan, so the
first names the first listed version that fails.
"""

from __future__ import annotations

import os
import random
import shlex
import shutil
import signal
import tempfile
import time
from enum import Enum
from typing import Callable, Sequence

from .codegen import (
    GeneratedProgram,
    TransformSpec,
    build_unit,
    first_sharers,
    output_filename,
    transform,
)
from .harness import CommandResult, check_template, run_command, run_jobs, write_program
from .model import CspInstance, Frozen
from .oracle import Assignment, all_assignments, constraint_satisfied, solve

DEFAULT_EXHAUSTIVE_BOUND = 4096
DEFAULT_SAMPLE_COUNT = 256
DEFAULT_CC = (
    "cc -O0 -fsanitize=signed-integer-overflow -fsanitize-undefined-trap-on-error"
    " -o {out} {src}"
)
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


class Mismatch(Frozen):
    __slots__ = _fields = ("version_label", "assignment", "expected", "observed")
    version_label: str
    assignment: tuple[tuple[str, int], ...]
    expected: bool
    observed: bool


class UnitTiming(Frozen):
    """One translation unit: every version whose verdicts came from it, in
    the order of `versions`, the number of distinct programs it compiled,
    the time to build and compile it, and the time of its one driver run."""

    __slots__ = _fields = ("versions", "programs", "compile_s", "run_s")
    versions: tuple[str, ...]
    programs: int
    compile_s: float
    run_s: float


class VerificationReport(Frozen):
    __slots__ = _fields = (
        "instance", "versions", "assignments_checked", "mismatches", "status", "timings",
        "compile_cmd",
    )
    instance: str
    versions: list[str]
    assignments_checked: int
    mismatches: list[Mismatch]
    status: VerifyStatus
    # one entry per translation unit; each distinct version is in one of them
    timings: list[UnitTiming]
    # the compile command template that built the units
    compile_cmd: str

    @property
    def passed(self) -> bool:
        return self.status is VerifyStatus.PASS


def default_compile_command() -> str:
    return os.environ.get("CSP2C_CC", DEFAULT_CC)


def _compile_template(compile_cmd: str | None) -> str:
    """`compile_cmd`, or default_compile_command() when it is None, checked
    against COMPILE_FIELDS; HarnessError names what is wrong with it."""
    template = default_compile_command() if compile_cmd is None else compile_cmd
    check_template(template, COMPILE_FIELDS)
    return template


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
    """Write the source into `workdir`, made if missing, run the compiler
    template, and return the executable path. The program is compiled as
    it is, in the compiler's own environment."""
    src = write_program(program, workdir)
    exe = src[:-2]
    result = _run(compile_cmd, dict(zip(COMPILE_FIELDS, (src, exe))), COMPILE_TIMEOUT_S)
    if result.returncode != 0 or not os.path.exists(exe):
        raise CompileError(shlex.join(result.argv), result.stdout + result.stderr)
    return exe


def _died_at(
    stdout: str,
    sharers: Sequence[Sequence[GeneratedProgram]],
    assignments: Sequence[Assignment],
) -> str:
    """Where a driver run that died had got to, read from its unbuffered
    output: its whole lines count the assignments done, and the digits of
    its last, partial line the programs done on the next one. The program it
    was running is named by every version that shares it and by the file of
    the first. Empty when the output names no program and assignment of the
    unit."""
    row = stdout.count("\n")
    partial = stdout[stdout.rfind("\n") + 1 :]
    if row >= len(assignments) or len(partial) >= len(sharers) or partial.strip("01"):
        return ""
    programs = sharers[len(partial)]
    labels = ", ".join(program.version_label for program in programs)
    values = " ".join(f"{name}={value}" for name, value in assignments[row].items())
    return f", running {labels} ({output_filename(programs[0])}) on assignment {values},"


def _verdicts(
    exe: str,
    plan: str,
    sharers: Sequence[Sequence[GeneratedProgram]],
    assignments: Sequence[Assignment],
) -> list[list[bool]]:
    """Pipe the plan of `assignments` through one run of a unit's driver;
    one row of verdicts for each of its programs, in order. `sharers` holds,
    for each program, the programs of the versions that share it.

    Anything but a zero exit with exactly one line of one 0/1 digit per
    program for each assignment raises VerifyError: a broken driver is never
    read as a verdict. A driver that exits nonzero or is killed (SIGILL is
    the trap of DEFAULT_CC's signed-overflow check) is named with the
    versions and the assignment it was running.
    """
    count, width = len(assignments), len(sharers)
    proc = _run("{exe}", {"exe": exe}, DRIVER_TIMEOUT_S, stdin=plan)
    if proc.returncode != 0:
        # a driver killed by signal N has returncode -N
        killed = {s.value: s.name for s in signal.Signals}.get(-proc.returncode)
        stderr = proc.stderr.strip()
        raise VerifyError(
            f"driver {exe}{_died_at(proc.stdout, sharers, assignments)}"
            f" exited with status {proc.returncode}"
            + (f" (killed by {killed})" if killed else "")
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
    programs: Sequence[GeneratedProgram],
    shared: Sequence[int],
    assignments: Sequence[Assignment],
    compile_cmd: str,
    workers: int,
    workdir: str | None,
) -> tuple[list[list[bool]], list[UnitTiming]]:
    """One row of driver verdicts per distinct program, in the order of
    `assignments`, and one timing per translation unit.

    `programs` are the distinct versions' programs and program i is distinct
    program shared[i], as _share numbers them; a unit compiles the first
    program of each. The distinct programs are split, in order, into
    min(`workers`, their number) units of near-equal size, each built,
    compiled and run once by harness.run_jobs. Builds go to `workdir`, or to
    a temporary directory removed afterwards.
    """
    order = csp.variable_ids()
    plan = "".join(" ".join(str(a[v]) for v in order) + "\n" for a in assignments)
    sharers: list[list[GeneratedProgram]] = [[] for _ in set(shared)]
    for program, k in zip(programs, shared):
        sharers[k].append(program)
    count = len(sharers)
    n = min(max(workers, 1), count)
    tmp = workdir or tempfile.mkdtemp(prefix="csp2c-verify-")

    def job(index: int) -> tuple[list[list[bool]], UnitTiming]:
        low, high = count * index // n, count * (index + 1) // n
        members = sharers[low:high]
        start = time.perf_counter()
        unit = build_unit(csp, [group[0] for group in members], f"unit{index + 1}")
        exe = compile_program(unit, compile_cmd, tmp)
        compiled = time.perf_counter()
        rows = _verdicts(exe, plan, members, assignments)
        timing = UnitTiming(
            tuple(p.version_label for p, k in zip(programs, shared) if low <= k < high),
            len(members),
            compiled - start,
            time.perf_counter() - compiled,
        )
        return rows, timing

    try:
        results = run_jobs(job, range(n), n)
    finally:
        if workdir is None:
            shutil.rmtree(tmp, ignore_errors=True)
    return [row for rows, _ in results for row in rows], [timing for _, timing in results]


def _share(csp: CspInstance, emitted: dict[TransformSpec, GeneratedProgram]) -> list[int]:
    """For each emitted program, in order, the number of the distinct
    program it is by codegen.first_sharers, counted from 0 in order of
    first appearance."""
    programs = list(emitted.values())
    firsts = first_sharers(
        csp.name,
        ((spec, program.source_text) for spec, program in emitted.items()),
        lambda k, start: programs[k].source_text[start:],
    )
    numbers: dict[int, int] = {}
    return [numbers.setdefault(k, len(numbers)) for k in firsts]


def _assignment_plan(csp: CspInstance, bound: int) -> tuple[list[Assignment], bool]:
    """Exhaustive product when it fits the bound, otherwise a seeded sample
    of DEFAULT_SAMPLE_COUNT that always includes the oracle witness when one
    exists."""
    if csp.assignment_space_size <= bound:
        return list(all_assignments(csp)), True
    rng = random.Random(0)
    plan: list[Assignment] = []
    result = solve(csp, limit=min(csp.assignment_space_size, 10**6))
    if result.witness is not None:
        plan.append(result.witness)
    order = csp.variable_ids()
    pools = [v.domain.values() for v in csp.variables]
    while len(plan) < DEFAULT_SAMPLE_COUNT:
        plan.append({v: rng.choice(pool) for v, pool in zip(order, pools)})
    return plan, False


def differential_check(
    csp: CspInstance,
    versions: Sequence[TransformSpec],
    compile_cmd: str | None = None,
    *,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    workers: int = 1,
    workdir: str | None = None,
    emitter: Callable[[CspInstance, TransformSpec], GeneratedProgram] | None = None,
) -> VerificationReport:
    """Compare every version's program against the oracle.

    Exhaustive when the assignment space fits `bound`; sampled (status
    SAMPLED) when it does not. A compile template that cannot be filled
    from COMPILE_FIELDS raises HarnessError first. Then each distinct
    version's program is emitted, by `emitter` (by default `transform`,
    looked up when called), before the oracle runs: an instance no program
    can encode raises CodegenError there, naming an intension
    subexpression that can overflow. Programs equal but for their line-1
    comment are compiled and run once, for all the versions that share
    them; an emitter that changes any other byte keeps its program apart.
    Compile failures raise CompileError with compiler output; a compiler
    or driver that cannot be started or times out, and a driver that exits
    nonzero or prints anything but one verdict per assignment, raise
    VerifyError.

    Mismatches are listed by version, in the order of `versions`, then by
    assignment, in plan order; each assignment names its variables in
    declaration order.
    """
    compile_cmd = _compile_template(compile_cmd)
    emitted = {spec: (emitter or transform)(csp, spec) for spec in dict.fromkeys(versions)}
    assignments, exhaustive = _assignment_plan(csp, bound)
    constraints = csp.constraints()
    expected = [
        all(constraint_satisfied(c, a) for c in constraints) for a in assignments
    ]
    shared = _share(csp, emitted)
    rows, timings = _observe(
        csp, list(emitted.values()), shared, assignments, compile_cmd, workers, workdir
    )
    observed = {spec: rows[k] for spec, k in zip(emitted, shared)}
    order = csp.variable_ids()
    mismatches = [
        Mismatch(spec.version_label, tuple((v, a[v]) for v in order), want, got)
        for spec in versions
        for a, want, got in zip(assignments, expected, observed[spec])
        if want != got
    ]
    if mismatches:
        status = VerifyStatus.FAIL
    elif exhaustive:
        status = VerifyStatus.PASS
    else:
        status = VerifyStatus.SAMPLED
    return VerificationReport(
        instance=csp.name,
        versions=[spec.version_label for spec in versions],
        assignments_checked=len(assignments),
        mismatches=mismatches,
        status=status,
        timings=timings,
        compile_cmd=compile_cmd,
    )
