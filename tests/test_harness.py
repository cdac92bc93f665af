from __future__ import annotations

import os
import time

import pytest
from hypothesis import given, strategies as st

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
    run_matrix,
    source_path,
)


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

    def test_parallel_requires_opt_in(self, tmp_path, two_instances):
        src_dir = make_sources(tmp_path, two_instances, LABELS)
        tool = ToolSpec(name="fake", run="echo hi")
        with pytest.raises(HarnessError, match="allow_parallel_timings"):
            run_matrix(two_instances, {"extensional": LABELS}, [tool], src_dir, workers=2)
        records = run_matrix(
            two_instances,
            {"extensional": LABELS},
            [tool],
            src_dir,
            workers=2,
            allow_parallel_timings=True,
        )
        assert all("indicative" in r.note for r in records)

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
