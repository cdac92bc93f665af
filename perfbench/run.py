"""csp2c pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

  verify-table     csp2c verify --versions all on a planted-SAT binary table
  bench-intension  csp2c bench (stub tools) over a size-graded intensional
                   family, then csp2c report on the raw.csv it wrote
  solve-search     csp2c solve on four instances with answers known by
                   construction

A pass runs the workload's commands one after another (a closed loop with
one client), each as its own process with --workers 1, and checks every
output against the seeded generator. The run repeats passes for --seconds
after one warm-up pass and reports medians over passes. --trace 1 spends
half the time on untraced passes and half on passes that record spans
(spans.py), and reports per-layer metrics instead of end-to-end ones.

The last line of stdout is the result:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
Run records and spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import evaluator
import instances
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND_TIMEOUT_S = 90
# Times are reported at the speed at which this many loops take this long.
PY_LOOPS, PY_REFERENCE_S = 200_000, 0.05
SETUP_SAMPLES = 3  # at the start; one more follows every pass
MIN_TIMED = 3
MIN_TRACED = 2  # the exact counts are compared between traced passes


def reference_s() -> float:
    """Time a fixed pure-Python loop in this process.

    The benchmark and every process it starts are pinned to one CPU. On a
    shared host that CPU runs Python code up to 2x slower for seconds to
    minutes at a time. Timing this loop right before and after a command
    measures the speed the command ran at. The csp2c process's own
    user-mode CPU time, which is time spent running Python, is then
    reported at one fixed speed: that at which the loop takes
    PY_REFERENCE_S. System time, waiting and child processes (the compiler,
    drivers, stub tools) are left as measured.
    """
    start = time.perf_counter()
    table: dict[int, tuple[int, int]] = {}
    total = 0
    for i in range(PY_LOOPS):
        table[i & 1023] = (i, 3 * i)
        total += sum(table[i & 1023])
    return time.perf_counter() - start


@dataclass
class Command:
    code: int
    stdout: str
    wall_s: float  # at the reference speed
    raw_wall_s: float
    maxrss_kb: int
    spans: list = field(default_factory=list)


@dataclass
class Pass:
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    maxrss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    verdicts: int = 0
    decided: int = 0
    checks: int = 0
    spans: list = field(default_factory=list)

    def add(self, cmd: Command) -> None:
        self.wall_s += cmd.wall_s
        self.raw_wall_s += cmd.raw_wall_s
        self.maxrss_kb = max(self.maxrss_kb, cmd.maxrss_kb)
        self.spans += cmd.spans


def _scale(wall: float, python_user: float, speed: float) -> float:
    """Factor that brings `wall` to the reference speed by rescaling only
    the `python_user` seconds of it; see reference_s."""
    return 1 + (speed - 1) * min(python_user, wall) / wall


class Runner:
    """Starts csp2c commands through launch.py, one at a time, in the checkout."""

    def __init__(self, root: str, work: str, run_prefix: str):
        self.root = root
        self.run_prefix = run_prefix
        self.work = work
        # csp2c verify and cc write temporary files; keep them inside the checkout.
        tmp = os.path.join(work, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), TMPDIR=tmp)
        self.count = 0
        self.reference = reference_s()

    def _spawn(self, argv: list[str]) -> tuple[int, str, float, float, float]:
        """Run `argv`; return its exit code, output and wall time, the user
        CPU time wait4 reports for it and its children, and the Python speed
        around it (PY_REFERENCE_S over the reference loop time)."""
        out_path = os.path.join(self.work, "stdout.txt")
        with open(out_path, "w+", encoding="utf-8") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                cwd=self.root,
                env=self.env,
                stdout=out,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            # A blocking wait returns as the child exits; Popen.wait(timeout)
            # polls with sleeps of up to 50 ms, which would round the timing.
            killer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            code = proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            output = out.read()
        after = reference_s()
        speed = PY_REFERENCE_S / ((self.reference + after) / 2)
        self.reference = after
        return code, output, wall, usage.ru_utime, speed

    def csp2c(self, args: list[str], traced: bool) -> Command:
        self.count += 1
        stats_path = os.path.join(self.work, "stats.json")
        if os.path.exists(stats_path):
            os.remove(stats_path)
        run_id = f"{self.run_prefix}-cmd{self.count}" if traced else "-"
        launcher = os.path.join(HERE, "launch.py")
        code, stdout, wall, _, speed = self._spawn(
            [sys.executable, launcher, stats_path, run_id, "--", *args]
        )
        try:
            with open(stats_path, "r", encoding="utf-8") as fh:
                stats = json.load(fh)
        except (OSError, ValueError):
            stats = {"maxrss_kb": 0, "utime_s": 0.0}
        # Only the csp2c process's own user time is Python; see reference_s.
        scale = _scale(wall, stats["utime_s"], speed)
        spans_ = stats.get("spans", [])
        for span in spans_:
            span["scale"] = scale
        return Command(code, stdout, wall * scale, wall, stats["maxrss_kb"], spans_)

    def setup_s(self) -> tuple[float, float]:
        """Interpreter start plus `import csp2c.cli`, as every command pays it:
        (seconds at the reference speed, raw seconds)."""
        code, out, wall, user, speed = self._spawn([sys.executable, "-c", "import csp2c.cli"])
        if code != 0:
            raise RuntimeError(f"import csp2c.cli failed: {out}")
        return wall * _scale(wall, user, speed), wall


def _machine_json(cmd: Command) -> dict | None:
    for line in reversed(cmd.stdout.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class VerifyTable:
    """One `verify --versions all`; an operation is one verified version."""

    def __init__(self, rng: random.Random, work: str):
        self.inst = instances.verify_table(rng)
        evaluator.check_answer(self.inst)
        self.path = self.inst.write(work)
        self.space = math.prod(len(v) for v in self.inst.domains.values())

    def run_pass(self, runner: Runner, traced: bool) -> Pass:
        cmd = runner.csp2c(
            ["verify", self.path, "--versions", "all", "--workers", "1", "--machine"], traced
        )
        p = Pass()
        p.add(cmd)
        n = instances.VERSIONS_EXTENSIONAL
        out = _machine_json(cmd) or {}
        ok = (
            cmd.code == 0
            and out.get("status") == "pass"
            and out.get("mismatches") == 0
            and out.get("assignments_checked") == self.space
            and len(out.get("versions", ())) == n
        )
        p.attempted = p.verdicts = n
        p.failed = 0 if ok else n
        p.decided = n if out.get("status") in ("pass", "fail") else 0
        p.checks = n * self.space
        return p


class SolveSearch:
    """`solve` on each instance; an operation is one solved instance."""

    def __init__(self, rng: random.Random, work: str):
        self.insts = instances.solve_search(rng)
        for inst in self.insts:
            evaluator.check_answer(inst)
        self.paths = [inst.write(work) for inst in self.insts]

    def run_pass(self, runner: Runner, traced: bool) -> Pass:
        p = Pass()
        for inst, path in zip(self.insts, self.paths):
            cmd = runner.csp2c(["solve", path, "--machine", *inst.solve_args], traced)
            p.add(cmd)
            p.attempted += 1
            p.verdicts += 1
            p.checks += 1
            out = _machine_json(cmd) or {}
            status = out.get("status")
            if status == "resource-limit" and cmd.code == 3:
                continue  # undecided, not wrong
            if status == instances.SAT:
                ok = (
                    cmd.code == 0
                    and inst.expected == instances.SAT
                    and evaluator.satisfies(inst, out.get("witness") or {})
                )
            else:
                ok = status == inst.expected == instances.UNSAT and cmd.code == 1
            p.decided += status in (instances.SAT, instances.UNSAT)
            p.failed += 0 if ok else 1
        return p


class BenchIntension:
    """`bench` then `report`; operations are the harness jobs and the report round trip."""

    ANALYSIS, BASELINE = "grep-assert", "wc-bytes"

    def __init__(self, rng: random.Random, work: str):
        self.insts = instances.bench_intension(rng)
        self.tools, self.manifest = instances.bench_manifests(self.insts, work)
        self.out = os.path.join(work, "bench-out")
        self.rep = os.path.join(work, "report-out")
        self.jobs = len(self.insts) * (instances.VERSIONS_INTENSIONAL + 1)
        self.digest: str | None = None
        self.report_exact = 0
        self.reports = 0

    def _check_raw(self) -> int:
        """Harness jobs whose raw.csv record is missing or wrong."""
        try:
            with open(os.path.join(self.out, "raw.csv"), newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError:
            return self.jobs
        good = 0
        for row in rows:
            if row["tool"] == self.ANALYSIS:
                good += row["version"] != "" and row["outcome"] == "reached"
            elif row["tool"] == self.BASELINE:
                good += row["version"] == "" and row["outcome"] == "not-reached"
        return self.jobs - good if len(rows) == self.jobs else self.jobs

    def _source_digest(self) -> str:
        h = hashlib.sha256()
        src = os.path.join(self.out, "src")
        names = os.listdir(src) if os.path.isdir(src) else []
        for name in sorted(names):
            if name.endswith("__klee.c"):
                with open(os.path.join(src, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read() + b"\0")
        return h.hexdigest()

    def _report_matches(self) -> bool:
        """Report tables equal bench's: exact, except that a mean may differ by
        one unit in the sixth decimal, the precision raw.csv keeps."""
        self.reports += 1
        tables = []
        try:
            for d in (self.out, self.rep):
                pair = []
                for name in ("robustness.csv", "scalability.csv"):
                    with open(os.path.join(d, name), "rb") as fh:
                        pair.append(fh.read())
                tables.append(pair)
        except OSError:
            return False
        if tables[0] == tables[1]:
            self.report_exact += 1
            return True
        (rob_a, scal_a), (rob_b, scal_b) = tables
        if scal_a != scal_b:
            return False
        rows_a = rob_a.decode().splitlines()
        rows_b = rob_b.decode().splitlines()
        if len(rows_a) != len(rows_b):
            return False
        for a, b in zip(rows_a, rows_b):
            fa, fb = a.split(","), b.split(",")
            if len(fa) != len(fb) or fa[:2] != fb[:2] or fa[3:] != fb[3:]:
                return False
            if fa[2] != fb[2] and (not fa[2] or not fb[2] or abs(float(fa[2]) - float(fb[2])) > 1.5e-6):
                return False
        return True

    def run_pass(self, runner: Runner, traced: bool) -> Pass:
        for d in (self.out, self.rep):
            shutil.rmtree(d, ignore_errors=True)
        p = Pass()
        bench = runner.csp2c(
            ["bench", "--tools", self.tools, "--instances", self.manifest,
             "--out-dir", self.out, "--versions", "all", "--workers", "1"],
            traced,
        )
        p.add(bench)
        report = runner.csp2c(
            ["report", os.path.join(self.out, "raw.csv"), "--instances", self.manifest,
             "--out-dir", self.rep],
            traced,
        )
        p.add(report)
        p.attempted = self.jobs + 1
        p.verdicts = p.checks = self.jobs
        if bench.code != 0:
            p.failed = p.attempted
            return p
        p.failed = self._check_raw()
        digest = self._source_digest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            p.failed = self.jobs  # the jobs ran on different sources than the first pass
        p.decided = self.jobs - p.failed
        if report.code != 0 or not self._report_matches():
            p.failed += 1
        return p


WORKLOADS = {
    "verify-table": VerifyTable,
    "bench-intension": BenchIntension,
    "solve-search": SolveSearch,
}

# Per-layer metrics: those derived from spans, plus two the run measures itself.
PER_LAYER_METRICS = spans.PER_LAYER + [
    ("harness.report_identical_frac", "ratio"),
    ("trace.overhead_s", "s"),
]

END_TO_END = [
    ("wall_s", "s"),
    ("checks_per_s", "1/s"),
    ("decided_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


# ---------------------------------------------------------------------------
# Environment stamp and summaries
# ---------------------------------------------------------------------------


def _first_line(argv: list[str], cwd: str) -> str:
    try:
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = proc.stdout.splitlines()
    return lines[0] if proc.returncode == 0 and lines else "unavailable"


def environment(root: str) -> dict:
    return {
        "cc": _first_line(["cc", "--version"], root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_head": _first_line(["git", "rev-parse", "HEAD"], root),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def summary(samples: list[float]) -> dict:
    """Median and sample count; p90 only when at least ten samples lie beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 100:
        out["p90"] = statistics.quantiles(samples, n=10)[-1]
    return out


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def _repeat(
    workload, runner: Runner, traced: bool, start: float, end_s: float, least: int,
    setup: list[tuple[float, float]],
) -> list[Pass]:
    """At least `least` passes, then more until the next would end after
    `end_s` seconds from `start`. A set-up sample follows each pass, so that
    the samples spread over the run."""
    out: list[Pass] = []
    while len(out) < least or (
        time.perf_counter() - start + statistics.median(p.wall_s for p in out) <= end_s
    ):
        out.append(workload.run_pass(runner, traced))
        setup.append(runner.setup_s())
    return out


def run(args: argparse.Namespace, root: str) -> int:
    env = environment(root)
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    try:
        runner = Runner(root, work, f"{args.workload}-s{args.seed}")
        runner.setup_s()  # warm-up: byte-compiles csp2c on a fresh checkout
        setup = [runner.setup_s() for _ in range(SETUP_SAMPLES)]
        workload = WORKLOADS[args.workload](random.Random(args.seed), work)

        # The warm-up pass is checked but not timed; it counts against --seconds.
        start = time.perf_counter()
        passes = [workload.run_pass(runner, traced=False)]
        untraced_end = args.seconds / 2 if args.trace else args.seconds
        timed = _repeat(workload, runner, False, start, untraced_end, MIN_TIMED, setup)
        traced = []
        if args.trace:
            traced = _repeat(workload, runner, True, start, args.seconds, MIN_TRACED, setup)
        passes += timed + traced
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    env["loadavg_1m_end"] = os.getloadavg()[0]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    samples = {
        "wall_s": [p.wall_s for p in timed],
        "checks_per_s": [p.checks / p.wall_s for p in timed],
        "decided_frac": [p.decided / p.verdicts for p in timed],
        "peak_rss_mb": [p.maxrss_kb / 1024 for p in timed],
        "setup_s": [scaled for scaled, _ in setup],
    }
    units = dict(END_TO_END)
    if args.trace:
        per_pass = [spans.layer_metrics(p.spans) for p in traced]
        for key in spans.EXACT_COUNTS:
            if len({m[key] for m in per_pass}) != 1:
                print(f"check failed: {key} differs between traced passes", file=sys.stderr)
                failed += 1
        samples = {name: [m[name] for m in per_pass] for name, _ in spans.PER_LAYER}
        # Share of `report` round trips whose tables were byte-identical to bench's.
        identical = 0.0
        if isinstance(workload, BenchIntension):
            identical = workload.report_exact / workload.reports
        samples["harness.report_identical_frac"] = [identical]
        samples["trace.overhead_s"] = [
            statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in timed)
        ]
        units = dict(PER_LAYER_METRICS)
        trace_path = os.path.join(out_dir, f"{args.workload}-s{args.seed}.spans.jsonl")
        with open(trace_path, "w", encoding="utf-8") as fh:
            for p in traced:
                for s in p.spans:
                    fh.write(json.dumps(s) + "\n")

    summaries = {name: summary(values) for name, values in samples.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "passes": {"warmup": 1, "timed": len(timed), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: dict(v, unit=units[k]) for k, v in summaries.items()},
        "samples": samples,
        "raw_samples": {
            "wall_s": [p.raw_wall_s for p in timed],
            "setup_s": [raw for _, raw in setup],
        },
    }
    if isinstance(workload, BenchIntension):
        record["codegen_digest"] = workload.digest
        record["report_byte_identical"] = f"{workload.report_exact}/{workload.reports}"
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(out_dir, f"{args.workload}-s{args.seed}{suffix}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment: " + json.dumps(env))
    for name, s in summaries.items():
        extra = f", p90 {s['p90']:.6g}" if "p90" in s else ""
        print(f"{args.workload} {name}: median {s['median']:.6g} {units[name]} (n={s['n']}{extra})")
    raw = statistics.median(p.raw_wall_s for p in timed)
    print(f"{args.workload} wall_s before scaling to the reference speed: median {raw:.6g} s")
    print(f"{args.workload} error_rate: {failed}/{attempted} = {failed / attempted:.6g}")
    if "report_byte_identical" in record:
        print(f"{args.workload} report round trip byte-identical: {record['report_byte_identical']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": s["median"], "unit": units[k]} for k, s in summaries.items()},
    }
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "csp2c", "cli.py")):
        print("error: run from the root of a csp2c checkout (src/csp2c not found)", file=sys.stderr)
        return 2
    # One CPU for the benchmark and every process it starts; see reference_s.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
