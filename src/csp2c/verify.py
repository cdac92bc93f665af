"""Differential testing of generated programs against the search oracle.

Programs are checked the hard way: emit the concrete dialect, compile it
with an external C compiler, and pipe the whole assignment plan through one
run of the executable per version, so the verification path shares no
evaluation code with the oracle. For every assignment the driver must print
the verdict `1` exactly when the oracle says all constraints hold.
Compiles and driver runs go through `harness.run_command`: a compile runs
in its own process group, killed whole after COMPILE_TIMEOUT_S, and
DRIVER_TIMEOUT_S bounds the one batch run per version.
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
    GeneratedProgram,
    TransformSpec,
    emit_concrete_driver,
    output_filename,
)
from .harness import CommandResult, run_command
from .model import CspInstance
from .oracle import Assignment, all_assignments, constraint_satisfied, solve

DEFAULT_EXHAUSTIVE_BOUND = 4096
DEFAULT_SAMPLE_COUNT = 256
DEFAULT_CC = "cc -O1 -o {out} {src}"
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
class VersionTiming:
    version_label: str
    compile_s: float
    run_s: float


@dataclass
class VerificationReport:
    instance: str
    versions: list[str]
    assignments_checked: int
    mismatches: list[Mismatch] = field(default_factory=list)
    status: VerifyStatus = VerifyStatus.PASS
    # one entry per version, in the order of `versions`
    timings: list[VersionTiming] = field(default_factory=list)

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
    result = _run(compile_cmd, {"src": src, "out": exe}, COMPILE_TIMEOUT_S)
    if result.returncode != 0 or not os.path.exists(exe):
        raise CompileError(shlex.join(result.argv), result.stdout + result.stderr)
    return exe


def _verdicts(exe: str, order: Sequence[str], assignments: Sequence[Assignment]) -> list[bool]:
    """Pipe every assignment through one batch-mode run of the driver.

    Anything but a zero exit with exactly one `0` or `1` line per assignment
    raises VerifyError: a broken driver is never read as a verdict.
    """
    plan = "".join(" ".join(str(a[v]) for v in order) + "\n" for a in assignments)
    proc = _run("{exe}", {"exe": exe}, DRIVER_TIMEOUT_S, stdin=plan)
    if proc.returncode != 0:
        stderr = proc.stderr.strip()
        raise VerifyError(
            f"driver {exe} exited with status {proc.returncode}"
            + (f": {stderr}" if stderr else "")
        )
    lines = proc.stdout.splitlines()
    if len(lines) != len(assignments):
        raise VerifyError(
            f"driver {exe} printed {len(lines)} verdicts for {len(assignments)} assignments"
        )
    bad = next((line for line in lines if line not in ("0", "1")), None)
    if bad is not None:
        raise VerifyError(f"driver {exe} printed {bad!r}, not a 0/1 verdict")
    return [line == "1" for line in lines]


def _observe(
    csp: CspInstance,
    versions: Sequence[TransformSpec],
    assignments: Sequence[Assignment],
    compile_cmd: str | None,
    workers: int,
    workdir: str | None,
    emitter: Callable[[CspInstance, TransformSpec], GeneratedProgram],
) -> tuple[list[list[bool]], list[VersionTiming]]:
    """One row of driver verdicts per version, in the order of `assignments`,
    and one compile and run timing per version.

    Each distinct version is compiled and run once; with `workers` > 1 the
    versions run concurrently. Builds go to `workdir`, or to a temporary
    directory removed afterwards.
    """
    compile_cmd = compile_cmd or default_compile_command()
    order = [v.id for v in csp.variables]
    tmp = workdir or tempfile.mkdtemp(prefix="csp2c-verify-")

    def job(spec: TransformSpec) -> tuple[list[bool], VersionTiming]:
        start = time.perf_counter()
        exe = compile_program(emitter(csp, spec), compile_cmd, tmp)
        compiled = time.perf_counter()
        verdicts = _verdicts(exe, order, assignments)
        timing = VersionTiming(
            spec.version_label, compiled - start, time.perf_counter() - compiled
        )
        return verdicts, timing

    distinct = list(dict.fromkeys(versions))
    try:
        if workers <= 1:
            results = [job(spec) for spec in distinct]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(job, distinct))
    finally:
        if workdir is None:
            shutil.rmtree(tmp, ignore_errors=True)
    by_spec = dict(zip(distinct, results))
    return [by_spec[s][0] for s in versions], [by_spec[s][1] for s in versions]


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
