"""Run external analysis tools over generated benchmarks and report results.

Tools are described by a manifest (JSON): a run command template, an
optional prepare step (e.g. bitcode compilation), a wall-clock timeout, and
a success pattern that classifies "the distinguished point was reached".
Analysis tools run once per (instance x version); baseline solvers run once
per instance on the original XCSP3 file and anchor time normalization.

Every child process csp2c starts, the verifier's compiler and drivers
included, goes through `run_command`. It runs in its own process group,
and a timeout kills the whole group, so no child survives past timeout +
grace. Timing runs default to a single worker; parallel timings must be
requested explicitly and get stamped as indicative.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shlex
import signal
import string
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

from .codegen import Family, source_filename

DEFAULT_TIMEOUT_S = 1000.0
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


@dataclass(frozen=True)
class ToolSpec:
    name: str
    run: str
    prepare: str | None = None
    timeout_s: float = DEFAULT_TIMEOUT_S
    success_pattern: str = ""
    kind: ToolKind = ToolKind.ANALYSIS
    # which generated dialect this tool consumes ("klee" or "llbmc")
    dialect: str = "klee"

    def __post_init__(self) -> None:
        if not self.run:
            raise HarnessError(f"tool {self.name!r} has no run command")
        if self.timeout_s <= 0:
            raise HarnessError(f"tool {self.name!r} has non-positive timeout")


@dataclass(frozen=True)
class BenchInstance:
    path: str
    family: str
    size: int
    expected: str | None = None

    @property
    def instance_id(self) -> str:
        return os.path.splitext(os.path.basename(self.path))[0]


@dataclass
class RunRecord:
    tool: str
    instance: str
    version: str
    outcome: Outcome
    wallclock_s: float
    normalized: float | None = None
    note: str = ""


@dataclass(frozen=True)
class RobustnessRow:
    tool: str
    version: str
    mean_normalized: float | None
    timeouts: int
    n: int


@dataclass(frozen=True)
class ScalabilityRow:
    tool: str
    size_index: int
    timeouts: int


@dataclass
class Report:
    robustness: list[RobustnessRow]
    scalability: list[ScalabilityRow]
    records: list[RunRecord]
    flags: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _load_entries(path: str, required: tuple[str, ...]) -> list[dict[str, Any]]:
    """A manifest's entries; HarnessError names the file, entry and missing key."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise HarnessError(f"{path}: a manifest is a JSON list of objects")
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise HarnessError(f"{path}: entry {i} is not an object")
        for key in required:
            if key not in entry:
                raise HarnessError(f"{path}: entry {i} has no {key!r} key")
    return raw


def load_tool_manifest(path: str) -> list[ToolSpec]:
    tools = []
    for i, entry in enumerate(_load_entries(path, ("name", "run"))):
        for key in ("prepare", "run"):
            if entry.get(key):
                try:
                    check_template(entry[key], TOOL_FIELDS)
                except HarnessError as exc:
                    raise HarnessError(f"{path}: entry {i} {key!r}: {exc}") from None
        tools.append(
            ToolSpec(
                name=entry["name"],
                run=entry["run"],
                prepare=entry.get("prepare"),
                timeout_s=float(entry.get("timeout_s", DEFAULT_TIMEOUT_S)),
                success_pattern=entry.get("success_pattern", ""),
                kind=ToolKind(entry.get("kind", "analysis")),
                dialect=entry.get("dialect", "klee"),
            )
        )
    return tools


def load_instance_manifest(path: str) -> list[BenchInstance]:
    base = os.path.dirname(os.path.abspath(path))
    instances = []
    families = [f.value for f in Family]
    for i, entry in enumerate(_load_entries(path, ("path", "family", "size"))):
        if entry["family"] not in families:
            raise HarnessError(
                f"{path}: entry {i} has unknown family {entry['family']!r}; "
                f"expected one of {', '.join(families)}"
            )
        p = entry["path"]
        if not os.path.isabs(p):
            p = os.path.join(base, p)
        instances.append(
            BenchInstance(
                path=p,
                family=entry["family"],
                size=int(entry["size"]),
                expected=entry.get("expected"),
            )
        )
    return instances


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommandResult:
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
    field not in `fields` are errors. Templates are checked once, when read."""
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


def run_command(
    template: str, subs: Mapping[str, str], timeout_s: float, stdin: str | None = None
) -> CommandResult:
    """Run a command template in its own process group: the one place csp2c
    starts a child process.

    The template is shell-split before its fields (`{src}`, `{out}`, ...)
    are filled in each token, so a path with spaces stays one argument. The
    child reads `stdin`, or /dev/null. On timeout the group gets SIGTERM,
    then SIGKILL after KILL_GRACE_S. A command that cannot be started has
    returncode None and the reason as stderr.
    """
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
    try:
        stdout, stderr = proc.communicate(stdin, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        timed_out = True
        _signal_group(proc.pid, signal.SIGTERM)
        try:
            stdout, stderr = proc.communicate(timeout=KILL_GRACE_S)
        except subprocess.TimeoutExpired:
            _signal_group(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
    return CommandResult(argv, proc.returncode, stdout, stderr, time.monotonic() - start, timed_out)


def _signal_group(pid: int, sig: signal.Signals) -> None:
    # the child leads its own session, so its process group id is its pid
    try:
        os.killpg(pid, sig)
    except ProcessLookupError:
        pass


def _classify(result: CommandResult, pattern: str) -> Outcome:
    # precedence: Timeout > ToolError > Reached > NotReached
    if result.timed_out:
        return Outcome.TIMEOUT
    if result.returncode is None or result.returncode < 0:
        return Outcome.TOOL_ERROR
    if pattern and re.search(pattern, result.stdout + result.stderr):
        return Outcome.REACHED
    return Outcome.NOT_REACHED


def _execute(tool: ToolSpec, src: str, note: str = "") -> RunRecord:
    """Run one tool invocation; instance/version are filled in by the caller.

    The prepare and run steps share one deadline, `timeout_s` after the
    job starts; the recorded wallclock is the run step's.
    """
    subs = dict(zip(TOOL_FIELDS, (src, os.path.splitext(src)[0] + ".bc", src + ".out")))
    deadline = time.monotonic() + tool.timeout_s

    def record(outcome: Outcome, wall: float) -> RunRecord:
        return RunRecord(
            tool=tool.name, instance="", version="", outcome=outcome, wallclock_s=wall, note=note
        )

    if tool.prepare:
        prep = run_command(tool.prepare, subs, tool.timeout_s)
        if prep.timed_out or prep.returncode != 0:
            return record(Outcome.TIMEOUT if prep.timed_out else Outcome.TOOL_ERROR, prep.wall_s)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return record(Outcome.TIMEOUT, 0.0)
    run = run_command(tool.run, subs, remaining)
    return record(_classify(run, tool.success_pattern), run.wall_s)


def source_path(source_dir: str, instance_id: str, version_label: str, dialect: str) -> str:
    return os.path.join(source_dir, source_filename(instance_id, version_label, dialect))


def run_matrix(
    instances: Sequence[BenchInstance],
    version_labels_by_family: Mapping[str, Sequence[str]],
    tools: Sequence[ToolSpec],
    source_dir: str,
    *,
    workers: int = 1,
    allow_parallel_timings: bool = False,
) -> list[RunRecord]:
    """One record per (analysis tool x instance x version) plus one per
    (baseline tool x instance). Missing tool binaries yield tool-error
    records; the run continues."""
    if workers > 1 and not allow_parallel_timings:
        raise HarnessError(
            "workers > 1 distorts timings; pass allow_parallel_timings=True to accept"
        )
    note = "parallel, timings indicative" if workers > 1 else ""

    jobs: list[tuple[ToolSpec, str, str, str]] = []  # tool, src, instance, version
    for tool in tools:
        if tool.kind is ToolKind.BASELINE:
            for inst in instances:
                jobs.append((tool, inst.path, inst.instance_id, ""))
        else:
            for inst in instances:
                for label in version_labels_by_family.get(inst.family, []):
                    src = source_path(source_dir, inst.instance_id, label, tool.dialect)
                    jobs.append((tool, src, inst.instance_id, label))

    def run_job(job: tuple[ToolSpec, str, str, str]) -> RunRecord:
        tool, src, instance_id, version = job
        if tool.kind is ToolKind.ANALYSIS and not os.path.exists(src):
            record = RunRecord(
                tool=tool.name,
                instance=instance_id,
                version=version,
                outcome=Outcome.TOOL_ERROR,
                wallclock_s=0.0,
                note=f"missing source {src}",
            )
            return record
        record = _execute(tool, src, note)
        record.instance = instance_id
        record.version = version
        return record

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_job, jobs))
    else:
        records = [run_job(job) for job in jobs]

    normalize_records(records, tools)
    return records


def normalize_records(records: list[RunRecord], tools: Sequence[ToolSpec]) -> None:
    """Fill normalized = wallclock / baseline-wallclock per instance, in place.

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
    for r in records:
        if r.tool not in analysis_names:
            continue
        base = baseline_wall.get(r.instance)
        if base is not None and base > 0:
            r.normalized = r.wallclock_s / base


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def build_report(
    records: Sequence[RunRecord],
    sizes: Mapping[str, int] | None = None,
) -> Report:
    """Aggregate raw records into robustness and scalability tables.

    Robustness means are taken over non-timeout runs that carry a
    normalized time; without any baseline the means fall back to raw
    seconds and the report is flagged. Scalability needs a size per
    instance (from the instance manifest).
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
    for (tool, version), cell in sorted(cells.items()):
        timeouts = sum(1 for r in cell if r.outcome is Outcome.TIMEOUT)
        if have_normalized:
            values = [
                r.normalized
                for r in cell
                if r.normalized is not None and r.outcome is not Outcome.TIMEOUT
            ]
        else:
            values = [
                r.wallclock_s
                for r in cell
                if r.outcome not in (Outcome.TIMEOUT, Outcome.TOOL_ERROR)
            ]
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


def load_records_csv(path: str) -> list[RunRecord]:
    """Read a raw.csv written by emit_csv; files from before the note column
    was added load with empty notes."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames not in (RAW_CSV_FIELDS, RAW_CSV_FIELDS[:-1]):
            raise HarnessError(f"unexpected raw CSV header: {reader.fieldnames!r}")
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
                    wallclock_s=float(row["wallclock_s"]),
                    normalized=float(row["normalized"]) if row["normalized"] else None,
                    note=row.get("note", ""),
                )
            )
    return records
