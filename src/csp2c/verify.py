"""Differential testing of generated programs against the search oracle.

Programs are checked the hard way: compile the klee programs the tools
receive, byte for byte, with an external C compiler, and pipe the whole
assignment plan through the executable, so the verification path shares no
evaluation code with the oracle. All versions of one pass go into one
translation unit (with `workers` > 1, into that many units, built at once),
which codegen.build_unit assembles around the replay driver; the compiler
finds an empty file for each of codegen.INCLUDED_HEADERS first on CPATH,
so the programs' own `#include` lines add nothing. The driver prints, for
every assignment, one line holding one 0/1 verdict digit per version, and
a version's digit must be `1` exactly when the oracle says all constraints
hold. The llbmc programs differ from the klee ones only in intrinsic names;
`verify` does not compile them, and a test runs them through this same
check. Compiles and driver runs go through `harness.run_command`: a compile
runs in its own process group, killed whole after COMPILE_TIMEOUT_S, and
DRIVER_TIMEOUT_S bounds the one driver run per unit.
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
    INCLUDED_HEADERS,
    GeneratedProgram,
    TransformSpec,
    build_unit,
    output_filename,
    transform,
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
    template: str,
    subs: dict[str, str],
    timeout_s: float,
    stdin: str | None = None,
    env: dict[str, str] | None = None,
) -> CommandResult:
    """harness.run_command, with a timeout or a failure to start raised as
    VerifyError."""
    result = run_command(template, subs, timeout_s, stdin, env)
    if result.returncode is None:
        raise VerifyError(f"cannot run {shlex.join(result.argv)}: {result.stderr}")
    if result.timed_out:
        raise VerifyError(f"timed out after {timeout_s:g} s: {shlex.join(result.argv)}")
    return result


def compile_program(program: GeneratedProgram, compile_cmd: str, workdir: str) -> str:
    """Write the source, run the compiler template, return the executable path.

    The compiler finds codegen.INCLUDED_HEADERS, the headers klee and llbmc
    programs include, on CPATH first, in `shim` there, and empty, so
    DRIVER_PRELUDE's definitions hold.
    """
    shim = os.path.join(workdir, "shim")
    for header in INCLUDED_HEADERS:
        path = os.path.join(shim, header)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path, "w", encoding="utf-8").close()
    src = os.path.join(workdir, output_filename(program))
    exe = src[:-2]
    with open(src, "w", encoding="utf-8") as fh:
        fh.write(program.source_text)
    env = dict(os.environ, CPATH=os.pathsep.join(filter(None, (shim, os.environ.get("CPATH")))))
    result = _run(compile_cmd, dict(zip(COMPILE_FIELDS, (src, exe))), COMPILE_TIMEOUT_S, env=env)
    if result.returncode != 0 or not os.path.exists(exe):
        raise CompileError(shlex.join(result.argv), result.stdout + result.stderr)
    return exe


def _verdicts(exe: str, plan: str, count: int, width: int) -> list[list[bool]]:
    """Pipe the plan of `count` assignments through one run of a unit's
    driver; one row of verdicts for each of its `width` versions.

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
    emitter: Callable[[CspInstance, TransformSpec], GeneratedProgram] | None,
) -> tuple[list[list[bool]], list[UnitTiming]]:
    """One row of driver verdicts per version, in the order of `assignments`,
    and one timing per translation unit.

    The distinct versions are split, in order, into min(`workers`, their
    number) units of near-equal size, built, compiled and run at once; each
    version is compiled and run once, as the program `emitter` (by default
    `transform`, looked up when called) gives for it. Builds go to
    `workdir`, or to a temporary directory removed afterwards.
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
        programs = [(emitter or transform)(csp, spec) for spec in specs]
        unit = build_unit(csp, programs, f"unit{index + 1}")
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
    order = [v.id for v in csp.variables]
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
    SAMPLED) when it does not. Compile failures raise CompileError with
    compiler output; a compiler or driver that cannot be started or times
    out, and a driver that exits nonzero or prints anything but one verdict
    per assignment, raise VerifyError.
    """
    assignments, exhaustive = _assignment_plan(csp, bound)
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
        versions=[spec.version_label for spec in versions],
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
    emitter: Callable[[CspInstance, TransformSpec], GeneratedProgram] | None = None,
) -> bool:
    """True iff all versions accept exactly the same assignments."""
    if csp.assignment_space_size > bound:
        raise VerifyError(
            f"assignment space {csp.assignment_space_size} exceeds bound {bound}"
        )
    assignments = list(all_assignments(csp))
    rows, _ = _observe(csp, versions, assignments, compile_cmd, workers, workdir, emitter)
    return all(row == rows[0] for row in rows)
