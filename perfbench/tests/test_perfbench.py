"""Tests for the benchmark itself: seeded inputs, by-construction answers,
metric names, span arithmetic and a short end-to-end smoke run.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import evaluator  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _generate(seed: int) -> list[instances.Instance]:
    rng = random.Random(seed)
    return [instances.verify_table(rng), *instances.bench_intension(rng), *instances.solve_search(rng)]


def test_same_seed_same_inputs():
    first, again, other = _generate(7), _generate(7), _generate(8)
    assert [i.xml for i in first] == [i.xml for i in again]
    assert [i.xml for i in first] != [i.xml for i in other]


def test_manifests_are_seeded(tmp_path):
    texts = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        paths = instances.bench_manifests(instances.bench_intension(random.Random(3)), str(d))
        texts.append([open(p).read() for p in paths])
    assert texts[0] == texts[1]


@pytest.mark.parametrize("seed", range(5))
def test_recorded_answers_hold(seed):
    rng = random.Random(seed)
    for inst in [instances.verify_table(rng), *instances.solve_search(rng)]:
        evaluator.check_answer(inst)


@pytest.mark.parametrize("seed", range(3))
def test_answers_agree_with_brute_force_on_small_instances(seed):
    rng = random.Random(seed)
    small = [
        instances.verify_table(rng, n=3, d=3),
        instances.pigeonhole(rng, 5, 4, "p54"),
        instances.disjoint_tables(rng, d=4, count=40),
        instances.planted_tables(rng, n=5, d=4, tables=4, count=12),
    ]
    for inst in small:
        evaluator.check_answer(inst)
        found = evaluator.brute_force(inst)
        assert (found is not None) == (inst.expected == instances.SAT), inst.name


def test_evaluator_rejects_bad_witnesses():
    inst = instances.planted_tables(random.Random(1))
    good = dict(inst.planted)
    assert evaluator.satisfies(inst, good)
    out_of_domain = dict(good, z0=99)
    assert not evaluator.satisfies(inst, out_of_domain)
    missing = dict(good)
    del missing["z0"]
    assert not evaluator.satisfies(inst, missing)
    pigeons = instances.pigeonhole(random.Random(1), 3, 2, "p32")
    v = pigeons.domains["p0"]
    assert not evaluator.satisfies(pigeons, {"p0": v[0], "p1": v[1], "p2": v[0]})


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == dict(run.END_TO_END)
    assert per_layer == dict(run.PER_LAYER_METRICS)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    for name in [*end_to_end, *per_layer, *run.WORKLOADS]:
        assert NAME.match(name), name


def test_self_time_subtracts_children_and_counted_calls():
    s = lambda i, name, parent, start, end, **attrs: {  # noqa: E731
        "name": name, "id": i, "parent": parent, "run": "r", "start_ns": start,
        "end_ns": end, "attrs": attrs,
    }
    trace = [
        s(1, "cli.main", None, 0, 10_000_000_000),
        s(2, "oracle.solve", 1, 1_000_000_000, 9_000_000_000, explored=5,
          **{spans.LEAF + ".calls": 4, spans.LEAF + ".ns": 3_000_000_000}),
        s(3, "model.constraints", 2, 1_000_000_000, 2_000_000_000, constraints=2),
    ]
    m = spans.layer_metrics(trace)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["oracle.solve_s"] == pytest.approx(4.0)
    assert m["oracle.check_s"] == pytest.approx(3.0)
    assert m["oracle.checks"] == 4
    assert m["oracle.explored"] == 5
    assert m["model.constraints_s"] == pytest.approx(1.0)
    assert m["model.constraints"] == 2
    assert set(m) == {name for name, _ in spans.PER_LAYER}


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_run_prints_every_end_to_end_metric():
    proc = _bench(ROOT, "--workload", "solve-search", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    for name, unit in run.END_TO_END:
        assert re.search(rf"^solve-search {re.escape(name)}: median \S+ {re.escape(unit)} \(n=", proc.stdout, re.M)
    assert result["metrics"]["decided_frac"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench")
    proc = _bench(str(tmp_path), "--workload", "verify-table", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_work_per_pass_does_not_depend_on_the_seed():
    """Runs use different seeds; the work they time must be the same size."""
    tables = {len(instances.verify_table(random.Random(s)).tables[0].tuples) for s in range(20)}
    assert tables == {instances.VERIFY_DOMAIN ** 2 // 2}
    for seed in range(3):
        rng = random.Random(seed)
        sizes = [i.xml.count("<intension>") for i in instances.bench_intension(rng)]
        assert sizes == list(instances.BENCH_SIZES)
        inst = instances.disjoint_tables(rng)
        assert [len(t.tuples) for t in inst.tables] == [1000, 1000]


def test_rescaling_touches_only_the_python_share():
    # Half of a 2 s command was Python user time, run at half the reference speed.
    assert run._scale(2.0, 1.0, 2.0) * 2.0 == pytest.approx(3.0)
    assert run._scale(2.0, 0.0, 2.0) == 1.0
    span = {"name": "oracle.solve", "id": 1, "parent": None, "run": "r", "start_ns": 0,
            "end_ns": 4_000_000_000, "attrs": {"explored": 1}, "scale": 0.5}
    assert spans.layer_metrics([span])["oracle.solve_s"] == pytest.approx(2.0)
