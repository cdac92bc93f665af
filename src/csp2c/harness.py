"""Run external analysis tools over generated benchmarks and report results.

Tools are described by a manifest (JSON): a run command template, an
optional prepare step (e.g. bitcode compilation), a wall-clock timeout, and
a success pattern that classifies "the distinguished point was reached".
Analysis tools run once per distinct program of an instance and dialect:
versions whose programs are the same by codegen.first_sharers run once, on
the first version's file, and every version still gets its file and its
record. Baseline solvers run once per instance on the original XCSP3 file
and anchor time normalization.

Every child process csp2c starts, the verifier's compiler and drivers
included, goes through `run_command`. It runs in its own process group,
and a timeout kills the whole group, so no child survives past timeout +
grace; an interrupt kills the group at once. `run_jobs` runs bench's jobs
and the verifier's units, in the calling thread or, with workers > 1, in
a pool that an interrupt stops the same way. ToolSpec (its templates too)
and BenchInstance check every field when built, so a bad value never
reaches a job; a manifest loader only reads, resolves paths and checks
names are unique. Each job of `run_matrix` makes one RunRecord, and a
version that shares its program takes a copy noted `same program as
<label>`. Timing runs default to a single worker; records of a parallel run
are stamped as indicative.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import shlex
import signal
import string
import time
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from .model import CspInstance, Dialect, Family, Frozen

if TYPE_CHECKING:
    from .codegen import GeneratedProgram, TransformSpec

DEFAULT_TIMEOUT_S = 1000.0
# the longest timeout a tool may state: 2**31 - 1 milliseconds, about 24.8 days
MAX_TIMEOUT_S = (2**31 - 1) // 1000
KILL_GRACE_S = 2.0
# the fields a tool's prepare and run templates may name
TOOL_FIELDS = ("src", "bitcode", "out")


class HarnessError(Exception):
    pass


class ToolKind(Enum):
    ANALYSIS = "analysis"
    BASELINE = "baseline"


class Outcome(Enum):
    REACHED = "reached"
    NOT_REACHED = "not-reached"
    TIMEOUT = "timeout"
    TOOL_ERROR = "tool-error"


class ToolSpec(Frozen):
    __slots__ = _fields = (
        "name", "run", "prepare", "timeout_s", "success_pattern", "kind", "dialect"
    )
    name: str
    run: str
    prepare: str  # none when empty
    timeout_s: float
    success_pattern: str
    kind: ToolKind
    # which generated dialect this tool consumes ("klee" or "llbmc")
    dialect: str

    def __init__(
        self,
        name: str,
        run: str,
        prepare: str = "",
        timeout_s: float = DEFAULT_TIMEOUT_S,
        success_pattern: str = "",
        kind: ToolKind | str = ToolKind.ANALYSIS,  # a member or its value
        dialect: str = "klee",
    ) -> None:
        _check_fields(_TOOL_KEYS, (name, run, prepare, timeout_s, success_pattern, kind, dialect))
        for key, template in (("prepare", prepare), ("run", run)):
            # an empty run is an error
            if template or key == "run":
                try:
                    check_template(template, TOOL_FIELDS)
                except HarnessError as exc:
                    raise HarnessError(f"{key!r}: {exc}") from None
        Frozen.__init__(
            self, name, run, prepare, timeout_s, success_pattern, ToolKind(kind), dialect
        )


class BenchInstance(Frozen):
    __slots__ = _fields = ("path", "family", "size")
    path: str
    family: str
    size: int

    def __init__(self, path: str, family: str, size: int) -> None:
        _check_fields(_INSTANCE_KEYS, (path, family, size))
        Frozen.__init__(self, path, family, size)

    @property
    def instance_id(self) -> str:
        return os.path.splitext(os.path.basename(self.path))[0]


class RunRecord(Frozen):
    __slots__ = _fields = (
        "tool", "instance", "version", "outcome", "wallclock_s", "normalized", "note"
    )
    tool: str
    instance: str
    version: str
    outcome: Outcome
    wallclock_s: float
    normalized: float | None
    note: str
    _defaults = {"normalized": None, "note": ""}


class RobustnessRow(Frozen):
    __slots__ = _fields = ("tool", "version", "mean_normalized", "timeouts", "n")
    tool: str
    version: str
    mean_normalized: float | None
    timeouts: int
    n: int


class ScalabilityRow(Frozen):
    __slots__ = _fields = ("tool", "size_index", "timeouts")
    tool: str
    size_index: int
    timeouts: int


class Report(Frozen):
    __slots__ = _fields = ("robustness", "scalability", "records", "flags")
    robustness: list[RobustnessRow]
    scalability: list[ScalabilityRow]
    records: list[RunRecord]
    flags: Sequence[str]
    _defaults = {"flags": ()}


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _load_entries(path: str, required: tuple[str, ...], make: Callable[[dict], Any]) -> list[Any]:
    """`make` of each of a manifest's entries; HarnessError names the file,
    the entry, and its missing key or what `make` raised."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
            # a lone surrogate escape such as "\ud800" is JSON, but no file
            # name, command or CSV cell can hold it
            json.dumps(raw, ensure_ascii=False).encode("utf-8")
        except ValueError as exc:  # malformed JSON or text, or bytes that are not UTF-8
            raise HarnessError(f"{path}: cannot read manifest: {exc}") from None
    if not isinstance(raw, list):
        raise HarnessError(f"{path}: a manifest is a JSON list of objects")
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise HarnessError(f"{path}: entry {i} is not an object")
        for key in required:
            if key not in entry:
                raise HarnessError(f"{path}: entry {i} has no {key!r} key")
    made = []
    for i, entry in enumerate(raw):
        try:
            made.append(make(entry))
        except HarnessError as exc:
            raise HarnessError(f"{path}: entry {i} {exc}") from None
    return made


def _is_number(value: Any) -> bool:
    # bool is an int in Python, but `true` is no number in a manifest
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pattern(value: Any) -> bool:
    if not isinstance(value, str):
        return False
    try:
        re.compile(value)
    except (re.error, OverflowError):  # OverflowError: a repeat count too large
        return False
    return True


def _one_of(enum: type[Enum], members: bool = False) -> tuple[Callable[[Any], bool], str, str]:
    values = [member.value for member in enum]
    allowed = values + list(enum) if members else values
    return (lambda v: v in allowed), "unknown", "one of " + ", ".join(values)


# key: (check, what a value that fails it is called, what the key expects)
_STRING = (lambda v: isinstance(v, str), "bad", "a string")
_TOOL_KEYS = {
    "name": _STRING,
    "run": _STRING,
    "prepare": _STRING,
    "timeout_s": (
        lambda v: _is_number(v) and 0 < v <= MAX_TIMEOUT_S,
        "bad",
        f"a number of seconds in (0, {MAX_TIMEOUT_S}]",
    ),
    "success_pattern": (_is_pattern, "bad", "a regular expression"),
    "kind": _one_of(ToolKind, members=True),
    "dialect": _one_of(Dialect),
}
_INSTANCE_KEYS = {
    "path": (lambda v: isinstance(v, str) and "\0" not in v, "bad", "a file name"),
    "family": _one_of(Family),
    "size": (lambda v: _is_number(v) and isinstance(v, int), "bad", "an integer"),
}


def _check_fields(keys: Mapping[str, Any], values: Sequence[Any]) -> None:
    """HarnessError naming the first of `values`, one per key of `keys` in
    order, that fails its check."""
    for (key, (valid, word, expected)), value in zip(keys.items(), values, strict=True):
        if not valid(value):
            raise HarnessError(f"has {word} {key} {value!r}; expected {expected}")


def load_tool_manifest(path: str) -> list[ToolSpec]:
    tools = _load_entries(
        path, ("name", "run"), lambda e: ToolSpec(**{k: e[k] for k in _TOOL_KEYS if k in e})
    )
    # the tool name keys the records, so two tools must not share one
    _check_unique(path, "tool name", [tool.name for tool in tools])
    return tools


def load_instance_manifest(path: str) -> list[BenchInstance]:
    base = os.path.dirname(os.path.abspath(path))

    def make(entry: dict) -> BenchInstance:
        inst = BenchInstance(**{k: entry[k] for k in _INSTANCE_KEYS})
        # relative to the manifest's directory; join keeps an absolute path
        return BenchInstance(os.path.join(base, inst.path), inst.family, inst.size)

    instances = _load_entries(path, tuple(_INSTANCE_KEYS), make)
    # the instance id names the generated sources and the records
    _check_unique(path, "instance id", [inst.instance_id for inst in instances])
    return instances


def _check_unique(path: str, what: str, keys: Sequence[str]) -> None:
    """HarnessError naming the first two manifest entries whose keys are equal."""
    first_entry: dict[str, int] = {}
    for i, key in enumerate(keys):
        first = first_entry.setdefault(key, i)
        if first != i:
            raise HarnessError(f"{path}: entries {first} and {i} share the {what} {key!r}")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class CommandResult(Frozen):
    __slots__ = _fields = ("argv", "returncode", "stdout", "stderr", "wall_s", "timed_out")
    argv: list[str]
    returncode: int | None  # None when the command could not be started
    stdout: str
    stderr: str
    wall_s: float
    timed_out: bool


def _field_names(text: str) -> Iterable[str]:
    for _, name, spec, _ in string.Formatter().parse(text):
        if name is not None:
            yield name
            yield from _field_names(spec)


def check_template(template: str, fields: Sequence[str]) -> None:
    """Raise HarnessError unless run_command can fill `template` from
    `fields`: an empty template, an unbalanced quote, a stray brace and a
    field not in `fields` are errors. The owner of a template checks it once:
    ToolSpec when it is built, verify before it compiles anything."""
    try:
        words = shlex.split(template)
        names = {name for word in words for name in _field_names(word)}
    except ValueError as exc:
        raise HarnessError(f"bad command template {template!r}: {exc}") from None
    if not words:
        raise HarnessError("empty command template")
    unknown = sorted(names - set(fields))
    if unknown:
        known = ", ".join("{" + f + "}" for f in fields)
        raise HarnessError(
            f"bad command template {template!r}: unknown field {{{unknown[0]}}}; "
            f"it may name {known}, and a literal brace is written {{{{ or }}}}"
        )


# the process group of each child that run_command is waiting on, which
# run_jobs kills when an interrupt reaches a pool
_waited_groups: set[int] = set()


def run_command(
    template: str,
    subs: Mapping[str, str],
    timeout_s: float,
    stdin: str | None = None,
) -> CommandResult:
    """Run a command template in its own process group: the one place csp2c
    starts a child process.

    The template is shell-split before its fields (`{src}`, `{out}`, ...)
    are filled in each token, so a path with spaces stays one argument. The
    child reads `stdin`, or /dev/null, and inherits csp2c's environment. On
    timeout the group gets SIGTERM, then SIGKILL after KILL_GRACE_S; an
    exception while waiting, such as KeyboardInterrupt, kills the group at
    once and propagates. While it waits, the group is in `_waited_groups`.
    A command that cannot be started has returncode None and the reason as
    stderr.
    """
    # imported here, so that `report` imports neither
    import subprocess
    import threading

    argv = [token.format(**subs) for token in shlex.split(template)]
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            errors="replace",
            start_new_session=True,
        )
    except OSError as exc:
        return CommandResult(argv, None, "", str(exc), time.monotonic() - start, False)
    timed_out = False
    finished = threading.Event()

    def watch() -> None:
        # communicate with a timeout would wake up ever more rarely to poll
        # the child; this thread sleeps until the deadline or the end
        nonlocal timed_out
        if finished.wait(timeout_s):
            return
        timed_out = True
        _signal_group(proc.pid, signal.SIGTERM)
        if not finished.wait(KILL_GRACE_S):
            _signal_group(proc.pid, signal.SIGKILL)

    watchdog = threading.Thread(target=watch)
    _waited_groups.add(proc.pid)
    watchdog.start()
    try:
        stdout, stderr = proc.communicate(stdin)
    except BaseException:
        # an interrupt: the child leads its own session, so the terminal's
        # SIGINT never reached it
        _signal_group(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        finished.set()
        watchdog.join()
        _waited_groups.discard(proc.pid)
    return CommandResult(argv, proc.returncode, stdout, stderr, time.monotonic() - start, timed_out)


def _signal_group(pid: int, sig: signal.Signals) -> None:
    # the child leads its own session, so its process group id is its pid
    try:
        os.killpg(pid, sig)
    except ProcessLookupError:
        pass


def run_jobs(job: Callable[[Any], Any], items: Sequence[Any], workers: int) -> list[Any]:
    """`job` of each item, in item order: the one way csp2c runs jobs at once.

    With `workers` <= 1 or fewer than two items the jobs run in the calling
    thread, so run_command's interrupt kill applies to them as it is.
    Otherwise `workers` threads share them. A job's exception propagates as
    from pool.map: the first in item order wins, the queued jobs are
    cancelled and the running ones finish. An interrupt (a BaseException
    that is not an Exception) is seen within 0.05 s, whichever thread the
    signal was given to, and wherever it lands, even in the middle of
    submitting the jobs: it stops every job that has not started and kills
    the group of every child run_command waits on, again until every
    started job has ended, so none starts its next step; then it propagates.
    """
    if workers <= 1 or len(items) < 2:
        return [job(item) for item in items]
    import threading
    from concurrent.futures import Future, ThreadPoolExecutor, wait

    # the jobs started and not yet ended, and whether an interrupt came;
    # read and changed under the lock, so no job starts once it came
    lock = threading.Lock()
    started = 0
    interrupted = False

    def guarded(item: Any) -> Any:
        nonlocal started
        with lock:
            if interrupted:
                return None
            started += 1
        try:
            return job(item)
        finally:
            with lock:
                started -= 1

    def result(future: Future) -> Any:
        # waited for in steps: a SIGINT that a worker thread happens to take
        # wakes no lock this thread waits on, and its handler runs here only
        # once this thread runs again
        while not wait((future,), timeout=0.05).done:
            pass
        return future.result()

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        # an interrupt may land in a submission, after its worker thread
        # has taken the job but before the future is returned: the count,
        # not the futures, tells which jobs run
        futures = [pool.submit(guarded, item) for item in items]
        return [result(future) for future in futures]
    except Exception:
        # a job's error: shutdown below cancels the queued jobs and waits
        raise
    except BaseException:
        # an interrupt, which only this thread sees: the children lead
        # their own sessions, so the terminal's SIGINT never reached them
        with lock:
            interrupted = True
        while started:
            for group in list(_waited_groups):
                _signal_group(group, signal.SIGKILL)
            time.sleep(0.05)
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def _classify(result: CommandResult, pattern: str) -> Outcome:
    # precedence: Timeout > ToolError > Reached > NotReached
    if result.timed_out:
        return Outcome.TIMEOUT
    if result.returncode is None or result.returncode < 0:
        return Outcome.TOOL_ERROR
    if pattern and re.search(pattern, result.stdout + result.stderr):
        return Outcome.REACHED
    return Outcome.NOT_REACHED


def _execute(tool: ToolSpec, src: str) -> tuple[Outcome, float]:
    """Run one tool invocation: its outcome and wallclock.

    The prepare and run steps share one deadline, `timeout_s` after the
    job starts. The wallclock is the run step's, or the prepare step's when
    that step fails, or 0 when the prepare step used up the deadline.
    """
    subs = dict(zip(TOOL_FIELDS, (src, os.path.splitext(src)[0] + ".bc", src + ".out")))
    deadline = time.monotonic() + tool.timeout_s
    if tool.prepare:
        prep = run_command(tool.prepare, subs, tool.timeout_s)
        if prep.timed_out or prep.returncode != 0:
            return (Outcome.TIMEOUT if prep.timed_out else Outcome.TOOL_ERROR), prep.wall_s
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return Outcome.TIMEOUT, 0.0
    run = run_command(tool.run, subs, remaining)
    return _classify(run, tool.success_pattern), run.wall_s


def source_path(source_dir: str, instance_id: str, version_label: str, dialect: str) -> str:
    # codegen is loaded here, by the commands that write or run programs, not by `report`
    from .codegen import source_filename

    return os.path.join(source_dir, source_filename(instance_id, version_label, dialect))


def write_program(program: GeneratedProgram, directory: str) -> str:
    """Write `program`'s source to its file in `directory`, made if missing;
    the file's path."""
    os.makedirs(directory, exist_ok=True)
    path = source_path(
        directory, program.instance_name, program.version_label, program.dialect.value
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(program.source_text)
    return path


def write_versions(
    csp: CspInstance, specs: Sequence[TransformSpec], directory: str
) -> dict[tuple[str, str, str], str]:
    """Write the program of each of `specs`, cells of `csp` in one dialect,
    to its file in `directory`. For each version whose program is the same
    as an earlier one's by codegen.first_sharers, the label of the first of
    those, keyed as run_matrix's `same_program` is. The programs are emitted
    and written one at a time, and an earlier one is read back from its file
    to be compared, so no program is held."""
    from .codegen import first_sharers, transform

    paths: list[str] = []

    def written() -> Iterable[tuple[TransformSpec, str]]:
        for spec in specs:
            program = transform(csp, spec)
            paths.append(write_program(program, directory))
            yield spec, program.source_text
            # dropped before the next program is made
            del program

    def recall(k: int, start: int) -> str:
        with open(paths[k], "r", encoding="utf-8", newline="") as fh:
            fh.read(start)
            return fh.read()

    firsts = first_sharers(csp.name, written(), recall)
    return {
        (csp.name, specs[i].version_label, specs[i].dialect.value): specs[k].version_label
        for i, k in enumerate(firsts)
        if k != i
    }


def run_matrix(
    instances: Sequence[BenchInstance],
    version_labels_by_family: Mapping[str, Sequence[str]],
    tools: Sequence[ToolSpec],
    source_dir: str,
    *,
    workers: int = 1,
    same_program: Mapping[tuple[str, str, str], str] | None = None,
) -> list[RunRecord]:
    """One record per (analysis tool x instance x version) plus one per
    (baseline tool x instance). Missing tool binaries yield tool-error
    records; the run continues. With workers > 1 the jobs share the CPUs,
    so every record is stamped as indicative.

    `same_program` maps (instance id, version label, dialect) to the label
    of an earlier version of the instance whose program in that dialect is
    the same, as write_versions gives it. An analysis tool runs once per
    distinct program, on the first version's file, and a version that
    shares it takes that record's outcome and time, its note naming the
    version (`same program as <label>`)."""
    note = "parallel, timings indicative" if workers > 1 else ""
    same_program = same_program or {}

    jobs: list[tuple[ToolSpec, str, str, str]] = []  # tool, src, instance, version
    # per record, in order: its version and the index of the job it takes
    slots: list[tuple[str, int]] = []
    for tool in tools:
        if tool.kind is ToolKind.BASELINE:
            for inst in instances:
                slots.append(("", len(jobs)))
                jobs.append((tool, inst.path, inst.instance_id, ""))
            continue
        for inst in instances:
            job_of: dict[str, int] = {}  # the first version of a program -> its job
            for label in version_labels_by_family.get(inst.family, []):
                first = same_program.get((inst.instance_id, label, tool.dialect), label)
                if first not in job_of:
                    job_of[first] = len(jobs)
                    src = source_path(source_dir, inst.instance_id, first, tool.dialect)
                    jobs.append((tool, src, inst.instance_id, first))
                slots.append((label, job_of[first]))

    def run_job(job: tuple[ToolSpec, str, str, str]) -> RunRecord:
        tool, src, instance_id, version = job
        if tool.kind is ToolKind.ANALYSIS and not os.path.exists(src):
            outcome, wall, why = Outcome.TOOL_ERROR, 0.0, f"missing source {src}"
        else:
            outcome, wall = _execute(tool, src)
            why = note
        return RunRecord(tool.name, instance_id, version, outcome, wall, note=why)

    ran = run_jobs(run_job, jobs, workers)
    records = []
    for version, k in slots:
        record = ran[k]
        if record.version != version:
            why = "; ".join(filter(None, (record.note, f"same program as {record.version}")))
            record = RunRecord(
                record.tool, record.instance, version, record.outcome, record.wallclock_s,
                note=why,
            )
        records.append(record)
    normalize_records(records, tools)
    return records


def normalize_records(records: list[RunRecord], tools: Sequence[ToolSpec]) -> None:
    """Give each analysis record normalized = wallclock / baseline-wallclock
    per instance: the list is updated in place, each such record replaced
    by one built with its ratio.

    The first baseline tool anchors the ratio; records without a usable
    baseline (missing, zero, or errored) keep normalized=None.
    """
    baseline_names = [t.name for t in tools if t.kind is ToolKind.BASELINE]
    if not baseline_names:
        return
    anchor = baseline_names[0]
    baseline_wall = {
        r.instance: r.wallclock_s
        for r in records
        if r.tool == anchor and r.outcome is not Outcome.TOOL_ERROR
    }
    analysis_names = {t.name for t in tools if t.kind is ToolKind.ANALYSIS}
    for i, r in enumerate(records):
        if r.tool not in analysis_names:
            continue
        base = baseline_wall.get(r.instance)
        if base is not None and base > 0:
            ratio = r.wallclock_s / base
            records[i] = RunRecord(
                r.tool, r.instance, r.version, r.outcome, r.wallclock_s, ratio, r.note
            )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def build_report(
    records: Sequence[RunRecord],
    sizes: Mapping[str, int] | None = None,
) -> Report:
    """Aggregate raw records into robustness and scalability tables.

    Robustness means are taken over the runs that neither timed out nor
    ended in a tool error, of their normalized times; without any baseline
    the means fall back to raw seconds and the report is flagged. Rows go
    by tool name, then in the order the tool's versions ran. Scalability
    needs a size per instance (from the instance manifest).
    """
    if not records:
        raise HarnessError("no records to report on")
    flags: list[str] = []
    if any(r.note.startswith("parallel") for r in records):
        flags.append("parallel, timings indicative")

    analysis = [r for r in records if r.version]
    if not analysis:
        flags.append("no analysis tools")
    have_normalized = any(r.normalized is not None for r in analysis)
    if analysis and not have_normalized:
        flags.append("no baseline; robustness shows raw seconds")

    cells: dict[tuple[str, str], list[RunRecord]] = {}
    for r in analysis:
        cells.setdefault((r.tool, r.version), []).append(r)
    robustness = []
    for (tool, version), cell in sorted(cells.items(), key=lambda item: item[0][0]):
        timeouts = sum(1 for r in cell if r.outcome is Outcome.TIMEOUT)
        kept = [r for r in cell if r.outcome not in (Outcome.TIMEOUT, Outcome.TOOL_ERROR)]
        if have_normalized:
            values = [r.normalized for r in kept if r.normalized is not None]
        else:
            values = [r.wallclock_s for r in kept]
        mean = sum(values) / len(values) if values else None
        robustness.append(
            RobustnessRow(
                tool=tool,
                version=version,
                mean_normalized=mean,
                timeouts=timeouts,
                n=len(cell),
            )
        )

    if robustness and all(row.mean_normalized is None for row in robustness):
        flags.append("robustness means empty; no robustness chart")

    scalability: list[ScalabilityRow] = []
    if sizes:
        ordered = sorted(sizes.items(), key=lambda kv: (kv[1], kv[0]))
        index_of = {inst: i + 1 for i, (inst, _) in enumerate(ordered)}
        counts: dict[tuple[str, int], int] = {}
        for r in analysis:
            idx = index_of.get(r.instance)
            if idx is None:
                continue
            key = (r.tool, idx)
            counts.setdefault(key, 0)
            if r.outcome is Outcome.TIMEOUT:
                counts[key] += 1
        scalability = [
            ScalabilityRow(tool=tool, size_index=idx, timeouts=n)
            for (tool, idx), n in sorted(counts.items())
        ]
        if analysis and not scalability:
            flags.append("no analysis record names a sized instance; scalability table empty")
    elif analysis:
        flags.append("no instance sizes; scalability table empty")

    return Report(
        robustness=robustness,
        scalability=scalability,
        records=list(records),
        flags=flags,
    )


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

RAW_CSV_FIELDS = ["tool", "instance", "version", "outcome", "wallclock_s", "normalized", "note"]
ROBUSTNESS_CSV_FIELDS = ["tool", "version", "mean_normalized", "timeouts", "n"]
SCALABILITY_CSV_FIELDS = ["tool", "size_index", "timeouts"]


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write one CSV file; None becomes an empty cell and a float its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_csv(report: Report, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    raw_path = os.path.join(out_dir, "raw.csv")
    write_csv(
        raw_path,
        RAW_CSV_FIELDS,
        (
            (r.tool, r.instance, r.version, r.outcome.value, r.wallclock_s, r.normalized, r.note)
            for r in report.records
        ),
    )
    rob_path = os.path.join(out_dir, "robustness.csv")
    write_csv(
        rob_path,
        ROBUSTNESS_CSV_FIELDS,
        (
            (
                row.tool,
                row.version,
                None if row.mean_normalized is None else format(row.mean_normalized, ".6f"),
                row.timeouts,
                row.n,
            )
            for row in report.robustness
        ),
    )
    scal_path = os.path.join(out_dir, "scalability.csv")
    write_csv(
        scal_path,
        SCALABILITY_CSV_FIELDS,
        ((row.tool, row.size_index, row.timeouts) for row in report.scalability),
    )
    return [raw_path, rob_path, scal_path]


def _seconds(text: str) -> float:
    """A time or a time ratio: a finite number >= 0."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise ValueError(f"{text!r} is not a finite number >= 0")
    return value


def load_records_csv(path: str) -> list[RunRecord]:
    """Read a raw.csv written by emit_csv; files from before the note column
    was added load with empty notes. HarnessError names the line of a bad row."""
    records = []
    with open(path, "rb") as fh:
        # decoded line by line, so bytes that are not UTF-8 are named at their line
        reader = csv.DictReader(line.decode("utf-8") for line in fh)
        try:
            if reader.fieldnames not in (RAW_CSV_FIELDS, RAW_CSV_FIELDS[:-1]):
                raise HarnessError(f"{path}: unexpected raw CSV header: {reader.fieldnames!r}")
            for row in reader:
                if None in row or None in row.values():
                    raise HarnessError(
                        f"{path}:{reader.line_num}: expected {len(reader.fieldnames)} fields"
                    )
                records.append(
                    RunRecord(
                        tool=row["tool"],
                        instance=row["instance"],
                        version=row["version"],
                        outcome=Outcome(row["outcome"]),
                        wallclock_s=_seconds(row["wallclock_s"]),
                        normalized=_seconds(row["normalized"]) if row["normalized"] else None,
                        note=row.get("note", ""),
                    )
                )
        except UnicodeDecodeError as exc:
            # raised as the next line was read, before the reader counted it
            raise HarnessError(f"{path}:{reader.line_num + 1}: {exc}") from None
        # a bad outcome or number, or a field over csv's limit
        except (ValueError, csv.Error) as exc:
            raise HarnessError(f"{path}:{reader.line_num}: {exc}") from None
    return records
