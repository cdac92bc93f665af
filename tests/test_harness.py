from __future__ import annotations

import contextlib
import os
import re
import signal
import threading
import time

import pytest
from hypothesis import given, strategies as st

from csp2c import harness
from csp2c.harness import (
    BenchInstance,
    HarnessError,
    Outcome,
    RunRecord,
    ToolKind,
    ToolSpec,
    build_report,
    emit_csv,
    load_instance_manifest,
    load_records_csv,
    load_tool_manifest,
    run_command,
    run_jobs,
    run_matrix,
    source_path,
    write_versions,
)
from csp2c.codegen import Family, TransformSpec
from csp2c.model import Dialect
from csp2c.xcsp import parse_file

from conftest import corpus_path


def make_sources(tmp_path, instances, labels, dialect="klee"):
    src_dir = tmp_path / "src"
    src_dir.mkdir(exist_ok=True)
    for inst in instances:
        for label in labels:
            path = source_path(str(src_dir), inst.instance_id, label, dialect)
            with open(path, "w") as fh:
                fh.write("/* placeholder benchmark */\n")
    return str(src_dir)


@pytest.fixture
def two_instances(tmp_path):
    instances = []
    for i, size in enumerate([1, 2]):
        xml = tmp_path / f"inst{i}.xml"
        xml.write_text("<instance/>")
        instances.append(BenchInstance(path=str(xml), family="extensional", size=size))
    return instances


LABELS = ["extensional1", "extensional2"]


class TestRunMatrix:
    def test_timeout_outcome(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances[:1], LABELS[:1])
        tool = ToolSpec(name="sleeper", run="sleep 2", timeout_s=1.0)
        (record,) = run_matrix(two_instances[:1], {"extensional": LABELS[:1]}, [tool], src_dir)
        assert record.outcome is Outcome.TIMEOUT
        assert record.wallclock_s >= 1.0

    def test_timeout_kills_children_within_grace(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances[:1], LABELS[:1])
        marker = tmp_path / "still-alive"
        tool = ToolSpec(
            name="stubborn",
            run=f"sh -c 'trap \"\" TERM; while true; do date >> {marker}; sleep 0.1; done'",
            timeout_s=1.0,
        )
        start = time.monotonic()
        (record,) = run_matrix(two_instances[:1], {"extensional": LABELS[:1]}, [tool], src_dir)
        elapsed = time.monotonic() - start
        assert record.outcome is Outcome.TIMEOUT
        assert elapsed < 1.0 + 5.0  # timeout + grace
        time.sleep(0.3)
        size_then = marker.stat().st_size if marker.exists() else 0
        time.sleep(0.5)
        size_now = marker.stat().st_size if marker.exists() else 0
        assert size_now == size_then  # nothing is writing anymore

    def test_success_pattern_classifies_reached(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances[:1], LABELS[:1])
        tool = ToolSpec(name="fake", run="echo ASSERTION FAIL", success_pattern="ASSERTION FAIL")
        (record,) = run_matrix(two_instances[:1], {"extensional": LABELS[:1]}, [tool], src_dir)
        assert record.outcome is Outcome.REACHED
        assert record.wallclock_s < 0.5

    def test_success_pattern_on_stderr_is_reached(self, tmp_path, two_instances):
        # KLEE reports a reached assertion on stderr
        src_dir = make_sources(tmp_path, two_instances[:1], LABELS[:1])
        tool = ToolSpec(
            name="stderr-only",
            run="sh -c 'echo ASSERTION FAIL >&2'",
            success_pattern="ASSERTION FAIL",
        )
        (record,) = run_matrix(two_instances[:1], {"extensional": LABELS[:1]}, [tool], src_dir)
        assert record.outcome is Outcome.REACHED

    def test_output_that_is_not_utf8_is_classified(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances[:1], LABELS[:1])
        tool = ToolSpec(name="binary", run="printf '\\377REACH'", success_pattern="REACH")
        (record,) = run_matrix(two_instances[:1], {"extensional": LABELS[:1]}, [tool], src_dir)
        assert record.outcome is Outcome.REACHED

    def test_no_pattern_match_is_not_reached(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances[:1], LABELS[:1])
        tool = ToolSpec(name="quiet", run="echo done", success_pattern="ASSERTION FAIL")
        (record,) = run_matrix(two_instances[:1], {"extensional": LABELS[:1]}, [tool], src_dir)
        assert record.outcome is Outcome.NOT_REACHED

    def test_missing_binary_is_tool_error_and_run_continues(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances, LABELS)
        tools = [
            ToolSpec(name="ghost", run="definitely-not-a-real-binary-xyz {src}"),
            ToolSpec(name="fake", run="echo REACH", success_pattern="REACH"),
        ]
        records = run_matrix(two_instances, {"extensional": LABELS}, tools, src_dir)
        ghost = [r for r in records if r.tool == "ghost"]
        fake = [r for r in records if r.tool == "fake"]
        assert all(r.outcome is Outcome.TOOL_ERROR for r in ghost)
        assert all(r.outcome is Outcome.REACHED for r in fake)

    def test_missing_source_is_tool_error_and_run_continues(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances[:1], LABELS[:1])
        tool = ToolSpec(name="fake", run="echo REACH {src}", success_pattern="REACH")
        first, second = run_matrix(two_instances, {"extensional": LABELS[:1]}, [tool], src_dir)
        assert (first.instance, first.outcome) == ("inst0", Outcome.REACHED)
        missing = source_path(src_dir, "inst1", LABELS[0], "klee")
        assert (second.instance, second.version, second.outcome, second.wallclock_s, second.note) == (
            "inst1", LABELS[0], Outcome.TOOL_ERROR, 0.0, f"missing source {missing}"
        )

    def test_record_completeness_formula(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances, LABELS)
        tools = [
            ToolSpec(name="a1", run="echo hi"),
            ToolSpec(name="a2", run="echo hi"),
            ToolSpec(name="base", run="echo hi", kind=ToolKind.BASELINE),
        ]
        records = run_matrix(two_instances, {"extensional": LABELS}, tools, src_dir)
        analysis_tools, instances, versions, baseline_tools = 2, 2, 2, 1
        assert len(records) == analysis_tools * instances * versions + baseline_tools * instances

    def test_baseline_runs_once_per_instance_on_original_file(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances, LABELS)
        tool = ToolSpec(name="base", run="echo {src}", kind=ToolKind.BASELINE)
        records = run_matrix(two_instances, {"extensional": LABELS}, [tool], src_dir)
        assert len(records) == 2
        assert all(r.version == "" for r in records)

    def test_normalization_fills_ratio(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances, LABELS[:1])
        tools = [
            ToolSpec(name="fast", run="echo REACH", success_pattern="REACH"),
            ToolSpec(name="base", run="echo base", kind=ToolKind.BASELINE),
        ]
        records = run_matrix(two_instances, {"extensional": LABELS[:1]}, tools, src_dir)
        analysis = [r for r in records if r.tool == "fast"]
        assert all(r.normalized is not None and r.normalized > 0 for r in analysis)

    def test_sharing_a_program_changes_only_times_and_notes(self, tmp_path):
        """Every version keeps its file and its record, in order; one that
        shares an earlier version's program takes that record's outcome and
        times instead of running."""
        instances = [
            BenchInstance(corpus_path("valid", name), "extensional", size)
            for size, name in enumerate(["supports_pair", "xor_ring"], 1)
        ]
        specs = [TransformSpec(Family.EXTENSIONAL, v) for v in range(1, 13)]
        labels = {"extensional": [spec.version_label for spec in specs]}
        src_dir = str(tmp_path / "src")
        same_program = {}
        for inst in instances:
            same_program.update(write_versions(parse_file(inst.path), specs, src_dir))
        assert len(os.listdir(src_dir)) == 24
        assert len(same_program) == 8 + 4
        tools = [
            ToolSpec(name="grep", run="grep -c assert {src}", success_pattern="^[1-9]"),
            ToolSpec(name="base", run="wc -c {src}", kind=ToolKind.BASELINE),
        ]
        alone = run_matrix(instances, labels, tools, src_dir)
        shared = run_matrix(instances, labels, tools, src_dir, same_program=same_program)
        assert [(r.tool, r.instance, r.version, r.outcome) for r in shared] == [
            (r.tool, r.instance, r.version, r.outcome) for r in alone
        ]
        by_key = {(r.instance, r.version): r for r in shared if r.version}
        for r in shared:
            first = same_program.get((r.instance, r.version, "klee"))
            if first is None:
                assert r.note == ""
                continue
            twin = by_key[r.instance, first]
            assert r.note == f"same program as {first}" and twin.note == ""
            assert (r.wallclock_s, r.normalized) == (twin.wallclock_s, twin.normalized)

    def test_prepare_and_run_share_one_deadline(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances[:1], LABELS[:1])
        tool = ToolSpec(name="slow", prepare="sleep 0.6", run="sleep 0.6", timeout_s=1.0)
        (record,) = run_matrix(two_instances[:1], {"extensional": LABELS[:1]}, [tool], src_dir)
        assert record.outcome is Outcome.TIMEOUT

    def test_prepare_step_failure_is_tool_error(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances[:1], LABELS[:1])
        tool = ToolSpec(name="prep", prepare="false", run="echo hi")
        (record,) = run_matrix(two_instances[:1], {"extensional": LABELS[:1]}, [tool], src_dir)
        assert record.outcome is Outcome.TOOL_ERROR


class TestToolSpec:
    @pytest.mark.parametrize(
        "templates, message",
        [
            ({"run": "x {nope}"}, "'run': bad command template 'x {nope}': unknown field {nope}"),
            ({"run": ""}, "'run': empty command template"),
            (
                {"run": "x {src}", "prepare": "cc {exe}"},
                "'prepare': bad command template 'cc {exe}': unknown field {exe}",
            ),
            ({"run": "x '{src}"}, "'run': bad command template \"x '{src}\": No closing quotation"),
        ],
        ids=["unknown-field", "empty-run", "bad-prepare", "unbalanced-quote"],
    )
    def test_a_bad_template_is_rejected_when_built(self, templates, message):
        with pytest.raises(HarnessError, match=re.escape(message)):
            ToolSpec(name="t", **templates)

    def test_an_empty_prepare_means_none(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances[:1], LABELS[:1])
        tool = ToolSpec(name="t", run="echo REACH {src}", prepare="", success_pattern="REACH")
        (record,) = run_matrix(two_instances[:1], {"extensional": LABELS[:1]}, [tool], src_dir)
        assert record.outcome is Outcome.REACHED

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"timeout_s": float("nan")}, "has bad timeout_s nan; expected a number of seconds"),
            ({"timeout_s": float("inf")}, "has bad timeout_s inf; expected a number of seconds"),
            ({"timeout_s": 1e12}, "has bad timeout_s 1000000000000.0; expected a number"),
            ({"success_pattern": "("}, "has bad success_pattern '('; expected a regular expression"),
            ({"success_pattern": 5}, "has bad success_pattern 5; expected a regular expression"),
            ({"dialect": "bogus"}, "has unknown dialect 'bogus'; expected one of klee, llbmc"),
            ({"prepare": None}, "has bad prepare None; expected a string"),
        ],
        ids=["nan-timeout", "inf-timeout", "huge-timeout", "bad-pattern", "int-pattern",
             "bad-dialect", "none-prepare"],
    )
    def test_a_bad_field_is_rejected_when_built(self, fields, message):
        """A tool built in Python is checked as a manifest entry is, so a bad
        value never reaches run_matrix's jobs."""
        with pytest.raises(HarnessError, match="^" + re.escape(message)):
            ToolSpec(name="t", run="echo", **fields)

    def test_a_kind_may_be_given_by_its_value(self, tmp_path, two_instances):
        tool = ToolSpec(name="base", run="echo {src}", kind="baseline")
        assert tool.kind is ToolKind.BASELINE
        # a baseline runs once per instance, on the original file
        records = run_matrix(two_instances, {"extensional": LABELS}, [tool], str(tmp_path))
        assert [(r.version, r.outcome) for r in records] == [("", Outcome.NOT_REACHED)] * 2

    def test_a_dialect_may_be_given_by_its_member(self):
        assert ToolSpec("t", "x {src}", dialect=Dialect.LLBMC).dialect == "llbmc"


class TestBenchInstance:
    @pytest.mark.parametrize(
        "fields, message",
        [
            (("p.xml", "bogus", 1), "has unknown family 'bogus'; expected one of extensional"),
            (("p.xml", "extensional", 1.5), "has bad size 1.5; expected an integer"),
            (("a\0b.xml", "extensional", 1), "has bad path 'a\\x00b.xml'; expected a file name"),
        ],
        ids=["bad-family", "bad-size", "nul-in-path"],
    )
    def test_a_bad_field_is_rejected_when_built(self, fields, message):
        with pytest.raises(HarnessError, match="^" + re.escape(message)):
            BenchInstance(*fields)

    def test_a_family_may_be_given_by_its_member(self):
        assert BenchInstance("p.xml", Family.INTENSIONAL, 1).family == "intensional"


class _Interrupt(BaseException):
    """Raised by a SIGALRM handler, as KeyboardInterrupt is by SIGINT's."""


@contextlib.contextmanager
def interrupted_after(seconds: float):
    """Expect the block to end in an _Interrupt raised `seconds` into it."""

    def interrupt(signum, frame):
        raise _Interrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with pytest.raises(_Interrupt):
            yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_an_interrupt_kills_the_commands_process_group(tmp_path):
    pid_file = tmp_path / "pid"
    with interrupted_after(1.0):
        run_command("sh -c 'echo $$ > {out}; exec sleep 30'", {"out": str(pid_file)}, 60)
    # the shell led the group and its pid is the group id; nothing is left in it
    with pytest.raises(ProcessLookupError):
        os.killpg(int(pid_file.read_text()), 0)
    assert harness._waited_groups == set()


@pytest.mark.parametrize(
    "template, timeout_s, returncode, timed_out",
    [("true", 10, 0, False), ("sleep 5", 0.2, -signal.SIGTERM, True),
     ("no-such-tool-csp2c", 10, None, False)],
    ids=["returns", "times-out", "cannot-start"],
)
def test_run_command_forgets_its_group_however_it_ends(template, timeout_s, returncode, timed_out):
    result = run_command(template, {}, timeout_s)
    assert (result.returncode, result.timed_out) == (returncode, timed_out)
    assert harness._waited_groups == set()


class TestRunJobs:
    def test_results_come_back_in_item_order(self):
        def job(i):
            time.sleep(0.05 * (4 - i))  # the later items finish first
            return i * i

        assert run_jobs(job, range(4), 4) == [0, 1, 4, 9]

    @pytest.mark.parametrize(
        "items, workers", [(range(3), 1), (range(3), 0), ([0], 4), ([], 4)]
    )
    def test_one_worker_or_one_job_runs_in_the_calling_thread(self, items, workers):
        threads = run_jobs(lambda _: threading.current_thread(), items, workers)
        assert threads == [threading.current_thread()] * len(items)

    def test_a_pool_runs_jobs_in_other_threads(self):
        threads = run_jobs(lambda _: threading.current_thread(), range(2), 2)
        assert threading.current_thread() not in threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_jobs_exception_propagates_and_queued_jobs_never_start(self, workers):
        started, finished = [], []

        def job(i):
            started.append(i)
            if i == 0:
                raise ValueError("job 0")
            time.sleep(1.0)
            finished.append(i)

        with pytest.raises(ValueError, match="job 0"):
            run_jobs(job, range(6), workers)
        # a freed thread may take one more job before the queue is cancelled,
        # and the running jobs finish before the error propagates
        assert started[0] == 0 and len(started) <= 1 + 2 * (workers - 1)
        assert sorted(finished) == sorted(started[1:])


@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupt_kills_every_running_jobs_group_and_starts_no_queued_job(
    tmp_path, workers
):
    started = []

    def job(i):
        started.append(i)
        run_command("sh -c 'echo $$ > {out}; exec sleep 30'", {"out": str(tmp_path / f"{i}")}, 60)

    start = time.monotonic()
    with interrupted_after(1.0):
        run_jobs(job, range(workers + 1), workers)
    assert time.monotonic() - start < 3.0
    assert sorted(started) == list(range(workers))
    for i in started:
        with pytest.raises(ProcessLookupError):
            os.killpg(int((tmp_path / f"{i}").read_text()), 0)
    assert harness._waited_groups == set()


def test_an_interrupt_in_a_submission_stops_the_job_it_submitted(tmp_path, monkeypatch):
    """The interrupt lands as the second job's worker thread starts, before
    the pool hands back that job's future; the job still starts no child
    that outlives run_jobs."""
    start = threading.Thread.start
    workers = []

    def interrupted_start(thread):
        start(thread)
        if thread.name.startswith("ThreadPoolExecutor"):
            workers.append(thread)
            if len(workers) == 2:
                raise _Interrupt

    monkeypatch.setattr(threading.Thread, "start", interrupted_start)

    def job(i):
        if i == 1:
            time.sleep(0.3)  # its child starts after the first job's is killed
        run_command("sh -c 'echo $$ > {out}; exec sleep 30'", {"out": str(tmp_path / f"{i}")}, 60)

    began = time.monotonic()
    with pytest.raises(_Interrupt):
        run_jobs(job, range(3), 2)
    assert time.monotonic() - began < 3.0
    time.sleep(0.5)
    assert not (tmp_path / "2").exists()
    assert_groups_gone(tmp_path.glob("[01]"))


def assert_groups_gone(pid_files):
    """No process group is left of the pid each killed child wrote; a child
    killed before it wrote one left an empty file."""
    for path in pid_files:
        pid = path.read_text()
        if pid:
            with pytest.raises(ProcessLookupError):
                os.killpg(int(pid), 0)
    assert harness._waited_groups == set()


def test_an_interrupt_that_a_worker_thread_takes_still_stops_the_jobs(tmp_path):
    """The kernel hands a process's signal to any thread that does not block
    it, and Python runs the handler in the main thread: one a worker thread
    took must still reach run_jobs while it waits for the jobs."""

    def job(i):
        if i == 0:
            time.sleep(0.3)  # run_jobs waits for this job by then
            signal.pthread_kill(threading.get_ident(), signal.SIGALRM)
        run_command("sh -c 'echo $$ > {out}; exec sleep 30'", {"out": str(tmp_path / f"{i}")}, 60)

    start = time.monotonic()
    with interrupted_after(60.0):
        run_jobs(job, range(2), 2)
    assert time.monotonic() - start < 3.0
    assert_groups_gone(tmp_path.glob("[01]"))


def rec(tool, instance, version, outcome=Outcome.NOT_REACHED, wall=1.0, normalized=None):
    return RunRecord(
        tool=tool,
        instance=instance,
        version=version,
        outcome=outcome,
        wallclock_s=wall,
        normalized=normalized,
    )


TOOL_AND_BASELINE = [
    ToolSpec(name="t", run="echo"),
    ToolSpec(name="base", run="echo", kind=ToolKind.BASELINE),
]


def normalized_with_baseline(tool_wall: float, baseline_wall: float) -> float:
    from csp2c.harness import normalize_records

    records = [
        rec("t", "i1", "v1", wall=tool_wall),
        rec("base", "i1", "", wall=baseline_wall),
    ]
    normalize_records(records, TOOL_AND_BASELINE)
    return records[0].normalized


class TestNormalization:
    def test_exact_ratio(self):
        assert normalized_with_baseline(10.0, 5.0) == 2.0  # exact

    @given(st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
    def test_baseline_scaling_inverts_normalized(self, k):
        plain = normalized_with_baseline(10.0, 5.0)
        scaled = normalized_with_baseline(10.0, 5.0 * k)
        assert abs(scaled - plain / k) <= 1e-12 * plain

    def test_zero_baseline_leaves_unnormalized(self):
        assert normalized_with_baseline(10.0, 0.0) is None


class TestBuildReport:
    def test_robustness_mean(self):
        records = [
            rec("t", "i1", "v1", normalized=1.0),
            rec("t", "i2", "v1", normalized=3.0),
        ]
        report = build_report(records)
        (row,) = report.robustness
        assert row.mean_normalized == 2.0
        assert row.timeouts == 0 and row.n == 2

    def test_timeouts_excluded_from_mean_but_counted(self):
        records = [
            rec("t", "i1", "v1", normalized=1.0),
            rec("t", "i2", "v1", outcome=Outcome.TIMEOUT, wall=1000.0, normalized=200.0),
        ]
        (row,) = build_report(records).robustness
        assert row.mean_normalized == 1.0
        assert row.timeouts == 1 and row.n == 2

    def test_tool_errors_excluded_from_mean_with_a_baseline(self):
        records = [
            rec("t", "i1", "v1", outcome=Outcome.TOOL_ERROR, wall=0.01, normalized=0.01),
            rec("t", "i2", "v1", wall=5.0, normalized=5.0),
        ]
        (row,) = build_report(records).robustness
        assert row.mean_normalized == 5.0
        assert row.timeouts == 0 and row.n == 2

    def test_scalability_counts(self):
        records = [
            rec("t", "i1", "v1", outcome=Outcome.TIMEOUT, normalized=1.0),
            rec("t", "i1", "v2", outcome=Outcome.TIMEOUT, normalized=1.0),
            rec("t", "i2", "v1", normalized=1.0),
        ]
        report = build_report(records, sizes={"i1": 10, "i2": 20})
        by_index = {(r.tool, r.size_index): r.timeouts for r in report.scalability}
        assert by_index[("t", 1)] == 2  # i1 is smaller -> index 1
        assert by_index[("t", 2)] == 0

    def test_baseline_only_flagged(self):
        records = [rec("base", "i1", "")]
        report = build_report(records)
        assert any("no analysis tools" in f for f in report.flags)
        assert report.robustness == []

    def test_no_baseline_falls_back_to_raw_seconds(self):
        records = [rec("t", "i1", "v1", wall=4.0), rec("t", "i2", "v1", wall=6.0)]
        report = build_report(records)
        assert any("raw seconds" in f for f in report.flags)
        assert report.robustness[0].mean_normalized == 5.0

    def test_every_empty_table_is_flagged(self):
        records = [rec("t", "i1", "v1", normalized=1.0)]
        unsized = build_report(records, sizes={"other": 1})
        assert unsized.scalability == []
        assert any("scalability table empty" in f for f in unsized.flags)
        assert any("scalability table empty" in f for f in build_report(records).flags)
        timed_out = build_report([rec("t", "i1", "v1", outcome=Outcome.TIMEOUT)])
        assert timed_out.robustness[0].mean_normalized is None
        assert any("robustness means empty" in f for f in timed_out.flags)
        # the only normalized run timed out; the finished one has no baseline
        mixed = build_report(
            [
                rec("t", "i1", "v1", outcome=Outcome.TIMEOUT, normalized=2.0),
                rec("t", "i2", "v1"),
            ]
        )
        assert mixed.robustness[0].mean_normalized is None
        assert any("robustness means empty" in f for f in mixed.flags)

    def test_deterministic(self):
        records = [
            rec("t", "i1", "v1", normalized=1.0),
            rec("t", "i2", "v1", normalized=3.0),
        ]
        a = build_report(records, sizes={"i1": 1, "i2": 2})
        b = build_report(records, sizes={"i1": 1, "i2": 2})
        assert a.robustness == b.robustness and a.scalability == b.scalability

    def test_empty_records_rejected(self):
        with pytest.raises(HarnessError):
            build_report([])


class TestCsvRoundTrip:
    def test_emit_and_reload(self, tmp_path):
        records = [
            rec("t", "i1", "v1", normalized=2.0),
            rec("base", "i1", "", outcome=Outcome.REACHED, wall=5.0),
        ]
        report = build_report(records, sizes={"i1": 1})
        paths = emit_csv(report, str(tmp_path))
        assert [os.path.basename(p) for p in paths] == [
            "raw.csv",
            "robustness.csv",
            "scalability.csv",
        ]
        reloaded = load_records_csv(str(tmp_path / "raw.csv"))
        assert len(reloaded) == 2
        assert reloaded[0].normalized == 2.0
        with open(tmp_path / "robustness.csv") as fh:
            assert fh.readline().strip() == "tool,version,mean_normalized,timeouts,n"

    def test_commas_notes_and_float_precision_round_trip(self, tmp_path):
        records = [
            RunRecord("t", "a,b", "v1", Outcome.REACHED, 0.1 + 0.2, 1 / 3, "parallel, indicative"),
            RunRecord("base", "a,b", "", Outcome.NOT_REACHED, 2 / 7, None, 'say "hi"'),
        ]
        emit_csv(build_report(records), str(tmp_path))
        assert load_records_csv(str(tmp_path / "raw.csv")) == records

    def test_seed_format_without_note_column_loads(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "tool,instance,version,outcome,wallclock_s,normalized\n"
            "t,i1,v1,timeout,1.500000,\n"
            "base,i1,,not-reached,0.250000,2.000000\n"
        )
        assert load_records_csv(str(raw)) == [
            RunRecord("t", "i1", "v1", Outcome.TIMEOUT, 1.5, None, ""),
            RunRecord("base", "i1", "", Outcome.NOT_REACHED, 0.25, 2.0, ""),
        ]

    def test_malformed_raw_csv_rejected(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("tool,instance,version\nt,i1,v1\n")
        with pytest.raises(HarnessError, match="header"):
            load_records_csv(str(raw))
        raw.write_text(
            "tool,instance,version,outcome,wallclock_s,normalized,note\nt,i1,v1,timeout\n"
        )
        with pytest.raises(HarnessError, match="expected 7 fields"):
            load_records_csv(str(raw))

    @pytest.mark.parametrize(
        "wall, normalized", [("nan", ""), ("inf", ""), ("-1.0", ""), ("1.0", "inf"), ("1.0", "nan")]
    )
    def test_times_must_be_finite_and_non_negative(self, tmp_path, wall, normalized):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "tool,instance,version,outcome,wallclock_s,normalized,note\n"
            "t,i1,v1,timeout,0.0,0.0,\n"
            f"t,i1,v2,reached,{wall},{normalized},\n"
        )
        with pytest.raises(HarnessError, match="is not a finite number >= 0") as info:
            load_records_csv(str(raw))
        assert str(info.value).startswith(f"{raw}:3: ")

    def test_manifest_loaders(self, tmp_path):
        tools_json = tmp_path / "tools.json"
        tools_json.write_text(
            '[{"name": "k", "run": "klee {bitcode}", "prepare": "clang {src}", '
            '"timeout_s": 12, "success_pattern": "FAIL", "kind": "analysis", "dialect": "klee"},'
            ' {"name": "b", "run": "solver {src}", "kind": "baseline"}]'
        )
        tools = load_tool_manifest(str(tools_json))
        assert tools[0].timeout_s == 12 and tools[0].kind is ToolKind.ANALYSIS
        assert tools[1].kind is ToolKind.BASELINE

        inst_json = tmp_path / "instances.json"
        (tmp_path / "a.xml").write_text("<instance/>")
        inst_json.write_text('[{"path": "a.xml", "family": "extensional", "size": 3}]')
        (inst,) = load_instance_manifest(str(inst_json))
        assert inst.instance_id == "a" and inst.size == 3
        assert os.path.isabs(inst.path)

    @pytest.mark.parametrize(
        "loader, text, message",
        [
            (load_tool_manifest, '[{"run": "echo"}]', "entry 0 has no 'name' key"),
            (load_tool_manifest, '[{"name": "a", "run": "x"}, {"name": "b"}]', "entry 1 has no 'run' key"),
            (load_instance_manifest, '[{"path": "a.xml", "size": 3}]', "entry 0 has no 'family' key"),
            (load_instance_manifest, '{"path": "a.xml"}', "JSON list of objects"),
            (load_instance_manifest, '["a.xml"]', "entry 0 is not an object"),
            (
                load_instance_manifest,
                '[{"path": "a.xml", "family": "extensional", "size": 3},'
                ' {"path": "b.xml", "family": "bogus", "size": 3}]',
                "entry 1 has unknown family 'bogus'",
            ),
            (
                load_tool_manifest,
                '[{"name": "t", "run": "true {src}"}, {"name": "t", "run": "false {src}"}]',
                "entries 0 and 1 share the tool name 't'",
            ),
            (
                load_tool_manifest,
                '[{"name": "a", "run": "x {nope}"}]',
                "entry 0 'run': bad command template .* unknown field {nope}",
            ),
            (
                load_tool_manifest,
                '[{"name": "a", "run": "x {src}", "prepare": "cc \'{src}"}]',
                "entry 0 'prepare': bad command template .* No closing quotation",
            ),
        ],
    )
    def test_manifest_entry_errors_name_file_entry_and_key(self, tmp_path, loader, text, message):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(HarnessError, match=message) as info:
            loader(str(path))
        assert str(path) in str(info.value)
