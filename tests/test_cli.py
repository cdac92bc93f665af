from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import csp2c
from csp2c.cli import main
from csp2c.codegen import TransformSpec, family_of, version_count
from csp2c.harness import Outcome, load_records_csv
from csp2c.model import MAX_EXPR_DEPTH
from csp2c.xcsp import parse_file

from conftest import NOT_EQUAL_XML, corpus_path, overflowing_emitter
from test_verify import LT_YX_XML, corrupting_emitter, weakening_emitter
from test_xcsp import UNARY_GROUP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_summary(self, capsys):
        code, out, _ = run_cli(capsys, "parse", corpus_path("valid", "conflicts_group"))
        assert code == 0
        assert "6 vars, 1 group, 2 constraints" in out

    def test_machine_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "parse", "--machine", corpus_path("valid", "conflicts_group")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["variables"] == 6 and payload["assignment_space"] == 64

    def test_invalid_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "parse", corpus_path("invalid", "unsupported_element"))
        assert code == 2
        assert "<sum>" in err

    def test_empty_file_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.xml"
        empty.write_text("")
        code, _, err = run_cli(capsys, "parse", str(empty))
        assert code == 2

    def test_machine_output_of_an_invalid_file_lists_its_diagnostics(self, capsys):
        path = corpus_path("invalid", "unsupported_element")
        code, out, err = run_cli(capsys, "parse", "--machine", path)
        assert (code, err) == (2, "")
        payload = json.loads(out)
        assert payload["ok"] is False and list(payload) == ["ok", "diagnostics"]
        (diagnostic,) = payload["diagnostics"]
        assert set(diagnostic) == {"severity", "path", "line", "message"}
        assert "<sum>" in diagnostic["message"]


class TestGenCommand:
    def test_all_extensional_versions(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "gen",
            corpus_path("valid", "conflicts_group"),
            "--versions",
            "all",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        written = sorted(p for p in os.listdir(tmp_path) if p.endswith(".c"))
        assert len(written) == 12
        assert (tmp_path / "gen_manifest.csv").exists()
        with open(tmp_path / "gen_manifest.csv") as fh:
            assert len(fh.readlines()) == 13  # header + 12 rows

    def test_single_version(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "gen",
            corpus_path("valid", "conflicts_group"),
            "--versions",
            "5",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        assert sorted(p for p in os.listdir(tmp_path) if p.endswith(".c")) == [
            "conflicts_group__extensional5__klee.c"
        ]

    def test_out_of_range_version_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "gen",
            corpus_path("valid", "conflicts_group"),
            "--versions",
            "13",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 2
        assert "1..12" in err

    def test_concrete_program_builds_and_replays_standalone(self, capsys, tmp_path, cc_template):
        """`gen --dialect concrete` output needs no KLEE headers: the plain
        compile template builds it, and it replays assignments from stdin."""
        code, _, _ = run_cli(
            capsys, "gen", corpus_path("valid", "supports_pair"), "--versions", "1",
            "--dialect", "concrete", "--out-dir", str(tmp_path),
        )
        assert code == 0
        src, exe = tmp_path / "supports_pair__extensional1__concrete.c", tmp_path / "prog"
        argv = [token.format(src=src, out=exe) for token in shlex.split(cc_template)]
        built = subprocess.run(argv, capture_output=True, text=True)
        assert built.returncode == 0, built.stderr
        proc = subprocess.run([str(exe)], input="0 1\n0 0\n", capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "1\n0\n")

    def test_bad_version_message_matches_verify_and_bench(self, capsys, tmp_path):
        path = corpus_path("valid", "conflicts_group")
        _, _, gen_err = run_cli(capsys, "gen", path, "--versions", "0", "--out-dir", str(tmp_path))
        _, _, verify_err = run_cli(capsys, "verify", path, "--versions", "0")
        assert gen_err == verify_err
        assert gen_err.startswith("error:") and "1..12" in gen_err

    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path):
        args = [
            "gen",
            corpus_path("valid", "dist_alldiff"),
            "--versions",
            "all",
        ]
        run_cli(capsys, *args, "--out-dir", str(tmp_path / "a"))
        run_cli(capsys, *args, "--out-dir", str(tmp_path / "b"))
        for name in os.listdir(tmp_path / "a"):
            if name.endswith(".c"):
                first = (tmp_path / "a" / name).read_bytes()
                second = (tmp_path / "b" / name).read_bytes()
                assert first == second, name

    def test_the_family_is_read_from_the_instance(self, capsys, tmp_path, manifest):
        for name in manifest["valid"]:
            path = corpus_path("valid", name)
            family = family_of(parse_file(path).constraints())
            code, out, _ = run_cli(
                capsys, "gen", path, "--versions", "all", "--machine", "--out-dir", str(tmp_path)
            )
            assert code == 0, name
            assert [json.loads(line)["version"] for line in out.splitlines()] == [
                TransformSpec(family, v).version_label
                for v in range(1, version_count(family) + 1)
            ], name

    def test_a_repeated_version_is_written_once(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "gen", corpus_path("valid", "conflicts_group"), "--versions", "5,1,5",
            "--machine", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert [json.loads(line)["version"] for line in out.splitlines()] == [
            "extensional5", "extensional1"
        ]
        with open(tmp_path / "gen_manifest.csv") as fh:
            assert len(fh.readlines()) == 3  # header + 2 rows

    def test_bad_versions_write_nothing(self, capsys, tmp_path):
        out_dir = tmp_path / "gen"
        code, _, err = run_cli(
            capsys, "gen", corpus_path("valid", "conflicts_group"), "--versions", "1,13",
            "--out-dir", str(out_dir),
        )
        assert code == 2 and err.startswith("error:")
        assert not out_dir.exists()

    def test_constant_outside_int32_is_an_error(self, capsys, tmp_path):
        xml = tmp_path / "big.xml"
        xml.write_text(
            '<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..3 </var>'
            "</variables><constraints><intension> lt(x,2000000000000) </intension>"
            "</constraints></instance>"
        )
        out_dir = tmp_path / "gen"
        code, _, err = run_cli(capsys, "gen", str(xml), "--out-dir", str(out_dir))
        assert code == 2
        assert err.startswith("error:") and "2000000000000" in err
        assert not [name for name in os.listdir(out_dir) if name.endswith(".c")]


class TestSolveCommand:
    def test_sat_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "solve", corpus_path("valid", "conflicts_group"))
        assert code == 0
        assert "satisfiable" in out
        assert "x2=1" in out

    def test_unsat_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "solve", corpus_path("valid", "pigeonhole"))
        assert code == 1

    def test_limit_exit_3(self, capsys):
        # xor_ring needs search; pigeonhole is decided at the root
        code, _, _ = run_cli(
            capsys, "solve", corpus_path("valid", "xor_ring"), "--limit", "1"
        )
        assert code == 3

    def test_machine_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--machine", corpus_path("valid", "supports_pair")
        )
        payload = json.loads(out)
        assert payload["status"] == "satisfiable"
        assert payload["witness"] == {"a": 0, "b": 1}

    def test_work_is_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--machine", corpus_path("valid", "conflicts_group")
        )
        payload = json.loads(out)
        assert code == 0 and payload["explored"] == 10
        assert 1 <= payload["work"] <= payload["explored"]
        assert payload["checks"] >= 1
        code, out, _ = run_cli(capsys, "solve", corpus_path("valid", "conflicts_group"))
        counts = f"(explored 10, work {payload['work']}, checks {payload['checks']})"
        assert counts in out.splitlines()[0]

    @pytest.mark.parametrize("limit", ["0", "-3", "many"])
    def test_bad_limit_is_usage_error(self, capsys, limit):
        with pytest.raises(SystemExit) as info:
            main(["solve", corpus_path("valid", "pigeonhole"), "--limit", limit])
        assert info.value.code == 2
        assert "--limit" in capsys.readouterr().err

    def test_default_limit_is_the_oracles(self):
        from csp2c.cli import build_parser
        from csp2c.oracle import DEFAULT_LIMIT

        args = build_parser().parse_args(["solve", "x.xml"])
        assert args.limit == DEFAULT_LIMIT


def deep_instance(tmp_path, args: int) -> str:
    """x in 0..1 with `ge(add(x,...,x),0)` of `args` arguments, `args`
    operators deep."""
    path = tmp_path / f"deep{args}.xml"
    path.write_text(
        '<instance format="XCSP3" type="CSP"><variables><var id="x"> 0 1 </var></variables>'
        "<constraints><intension> ge(add(" + ",".join(["x"] * args) + "),0) </intension>"
        "</constraints></instance>"
    )
    return str(path)


class TestDeepExpressions:
    """An intension deeper than the parser's limit exits 2 with a diagnostic
    on every command; one at the limit runs through the recursive oracle
    and codegen passes, here under pytest's own deep stack."""

    @pytest.mark.parametrize("command", ["parse", "solve", "gen", "verify"])
    def test_too_deep_is_a_parse_diagnostic(self, capsys, tmp_path, command):
        extra = {"gen": ["--out-dir", str(tmp_path)]}.get(command, [])
        code, out, err = run_cli(capsys, command, deep_instance(tmp_path, 1200), *extra)
        assert code == 2 and out == ""
        assert err == (
            "error at /instance[1]/constraints[1]/intension[1] (line 1): bad intension "
            f"expression: nested deeper than the limit of {MAX_EXPR_DEPTH} operators\n"
        )

    def test_the_limit_runs_on_every_command(self, capsys, tmp_path, cc_template):
        path = deep_instance(tmp_path, MAX_EXPR_DEPTH)
        gen = ["gen", path, "--out-dir", str(tmp_path)]
        assert run_cli(capsys, "solve", path)[0] == 0
        assert run_cli(capsys, *gen)[0] == 0
        assert run_cli(capsys, "verify", path, "--versions", "1,2", "--cc", cc_template)[0] == 0


def _eqs(count: int) -> str:
    return ",".join(["eq(x,0)"] * count)


# Intensions exactly MAX_EXPR_DEPTH operators deep, one per rendering path
AT_THE_LIMIT = {
    "or": f"or({_eqs(MAX_EXPR_DEPTH)})",
    "not-and": f"not(and({_eqs(MAX_EXPR_DEPTH - 1)}))",
    "not": "not(" * (MAX_EXPR_DEPTH - 1) + "eq(x,0)" + ")" * (MAX_EXPR_DEPTH - 1),
    "neg": "eq(" + "neg(" * (MAX_EXPR_DEPTH - 1) + "x" + ")" * (MAX_EXPR_DEPTH - 1) + ",0)",
    "abs-sub": "eq(abs(sub(add(" + ",".join(["x"] * (MAX_EXPR_DEPTH - 1)) + "),0)),0)",
}


@pytest.mark.parametrize("shape", AT_THE_LIMIT)
def test_every_shape_at_the_limit_runs_on_every_command(capsys, tmp_path, cc_template, shape):
    """Each level of the tree takes one frame in the oracle and in codegen,
    so a tree the model accepts solves, renders in every cell and dialect,
    and verifies."""
    path = tmp_path / f"{shape}.xml"
    path.write_text(
        '<instance format="XCSP3" type="CSP"><variables><var id="x"> 0 1 </var></variables>'
        f"<constraints><intension> {AT_THE_LIMIT[shape]} </intension></constraints></instance>"
    )
    [constraint] = parse_file(str(path)).constraints()
    assert constraint.expr.depth == MAX_EXPR_DEPTH
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0 and out.startswith(f"{shape}: satisfiable")
    for dialect in ("klee", "llbmc", "concrete"):
        out_dir = tmp_path / dialect
        gen = ["gen", str(path), "--versions", "all"]
        assert run_cli(capsys, *gen, "--dialect", dialect, "--out-dir", str(out_dir))[0] == 0
        assert len(list(out_dir.glob(f"*__{dialect}.c"))) == 10
    code, out, _ = run_cli(capsys, "verify", str(path), "--versions", "all", "--cc", cc_template)
    assert code == 0 and out.startswith(f"{shape}: pass (10 versions x 2 assignments)")


def test_nested_dist_preprocesses_linearly(capsys, tmp_path, cc_template):
    """The dist macro names each argument once, so ten nested dist levels
    expand to a few KB in the preprocessor (naming them three times made
    730 KB, too much for the compiler), and every cell compiles and
    verifies."""
    expr = "x"
    for _ in range(10):
        expr = f"abs(sub({expr},1))"
    path = tmp_path / "nested_dist.xml"
    path.write_text(
        '<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..12 </var></variables>'
        f"<constraints><intension> eq({expr},0) </intension></constraints></instance>"
    )
    gen = ["gen", str(path), "--versions", "all"]
    assert run_cli(capsys, *gen, "--dialect", "concrete", "--out-dir", str(tmp_path))[0] == 0
    sources = sorted(tmp_path.glob("nested_dist__*__concrete.c"))
    assert len(sources) == 10
    for src in sources:
        expanded = subprocess.run(["cc", "-E", str(src)], capture_output=True, text=True, check=True)
        assert len(expanded.stdout) < 50_000, src.name
    code, out, _ = run_cli(capsys, "verify", str(path), "--versions", "all", "--cc", cc_template)
    assert code == 0 and out.startswith("nested_dist: pass (10 versions x 13 assignments)")


class TestWorkersOption:
    @pytest.mark.parametrize("workers", ["0", "-3", "many"])
    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_bad_workers_is_usage_error(self, capsys, command, workers):
        args = {
            "verify": ["verify", corpus_path("valid", "pigeonhole")],
            "bench": ["bench", "--tools", "t.json", "--instances", "i.json"],
        }[command]
        with pytest.raises(SystemExit) as info:
            main(args + ["--workers", workers])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err


def overflowing_instance(tmp_path) -> str:
    path = tmp_path / "overflow.xml"
    path.write_text(
        """<instance format="XCSP3" type="CSP">
  <variables>
    <var id="x"> 0 1 </var>
  </variables>
  <constraints>
    <intension> lt(x,2000000000000) </intension>
  </constraints>
</instance>
"""
    )
    return str(path)


class TestOverflowIsAnError:
    def test_solve_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "solve", overflowing_instance(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "32-bit" in err

    def test_verify_exits_2(self, capsys, tmp_path, cc_template):
        code, out, err = run_cli(
            capsys, "verify", overflowing_instance(tmp_path), "--versions", "1",
            "--cc", cc_template,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "32-bit" in err


# instances whose C arithmetic can overflow though every value is in range,
# with the subexpression that overflows
PRODUCT_OVERFLOWS = {
    "product": ("x y", "eq(mul(x,y),6)", "mul(x,y) takes values in 0..10000000000"),
    "sum-of-square": ("y z", "eq(add(y,mul(z,z)),1)", "mul(z,z) takes values in 0..10000000000"),
}


@pytest.mark.parametrize("command", ["gen", "bench", "verify"])
@pytest.mark.parametrize("case", list(PRODUCT_OVERFLOWS))
def test_overflowing_subexpression_is_named(capsys, tmp_path, cc_template, command, case):
    names, expr, message = PRODUCT_OVERFLOWS[case]
    xml = tmp_path / f"{case}.xml"
    xml.write_text(
        '<instance format="XCSP3" type="CSP"><variables>'
        + "".join(f'<var id="{name}"> 0..100000 </var>' for name in names.split())
        + f"</variables><constraints><intension> {expr} </intension></constraints></instance>"
    )
    out_dir = tmp_path / "o"
    if command == "gen":
        argv = ["gen", str(xml), "--out-dir", str(out_dir)]
    elif command == "verify":
        argv = ["verify", str(xml), "--cc", cc_template]
    else:
        tools = tmp_path / "tools.json"
        tools.write_text(json.dumps([{"name": "t", "run": "true {src}", "kind": "analysis"}]))
        instances = tmp_path / "instances.json"
        instances.write_text(json.dumps([{"path": str(xml), "family": "intensional", "size": 1}]))
        argv = ["bench", "--tools", str(tools), "--instances", str(instances),
                "--out-dir", str(out_dir)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
    assert not list(out_dir.rglob("*.c"))


def test_solve_on_a_huge_domain_is_an_error_within_400_mb(tmp_path):
    """Listing 2*10**9 values would need gigabytes; the oracle refuses first."""
    resource = pytest.importorskip("resource")
    xml = tmp_path / "huge.xml"
    xml.write_text(
        '<instance format="XCSP3" type="CSP"><variables><var id="x"> 0..2000000000 </var>'
        "</variables><constraints><intension> eq(x,5) </intension></constraints></instance>"
    )
    limit = 400 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "csp2c", "solve", str(xml)],
        env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: domain 0..2000000000 has 2000000001 values")
    assert "Traceback" not in proc.stderr


class TestVerifyCommand:
    def test_a_klee_include_directory_on_the_compile_line_passes(self, capsys, tmp_path, cc_template):
        """A compile line copied from a KLEE build names KLEE's include
        directory. The unit includes none of the programs' headers, so
        KLEE's declarations, which the klee programs compile against, do
        not meet the replay prelude's."""
        inc = tmp_path / "inc"
        (inc / "klee").mkdir(parents=True)
        (inc / "klee" / "klee.h").write_text(
            "#include <stddef.h>\n#include <stdint.h>\n"
            "void klee_make_symbolic(void *addr, size_t nbytes, const char *name);\n"
            "void klee_assume(uintptr_t condition);\n"
        )
        path = corpus_path("valid", "supports_pair")
        gen = ["gen", path, "--versions", "all", "--out-dir"]
        assert run_cli(capsys, *gen, str(tmp_path))[0] == 0
        for src in tmp_path.glob("*__klee.c"):
            argv = ["cc", "-fsyntax-only", f"-I{inc}", str(src)]
            assert subprocess.run(argv, capture_output=True).returncode == 0, src.name
        template = shlex.join(["cc", f"-I{inc}", "-O1"]) + " -o {out} {src}"
        code, out, err = run_cli(capsys, "verify", path, "--versions", "all", "--cc", template)
        assert (code, err) == (0, "")
        assert out.startswith("supports_pair: pass")

    def test_pass_exit_0(self, capsys, cc_template):
        code, out, _ = run_cli(
            capsys,
            "verify",
            corpus_path("valid", "supports_pair"),
            "--versions",
            "1,5,8",
            "--cc",
            cc_template,
        )
        assert code == 0
        assert "pass" in out

    def test_a_repeated_version_is_checked_once(self, capsys, cc_template):
        code, out, _ = run_cli(
            capsys, "verify", corpus_path("valid", "supports_pair"), "--versions", "1,1",
            "--machine", "--cc", cc_template,
        )
        assert code == 0
        assert json.loads(out)["versions"] == ["extensional1"]

    def test_machine_output(self, capsys, cc_template):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--machine",
            corpus_path("valid", "eq_ne"),
            "--versions",
            "1",
            "--cc",
            cc_template,
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "pass" and payload["mismatches"] == 0

    def test_machine_output_has_timings_and_first_mismatch(self, capsys, cc_template):
        code, out, _ = run_cli(
            capsys, "verify", "--machine", corpus_path("valid", "supports_pair"),
            "--versions", "1,5", "--cc", cc_template,
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["first_mismatch"] is None
        (timing,) = payload["timings"]
        assert timing["versions"] == ["extensional1", "extensional5"]
        assert timing["compile_s"] > 0 and timing["run_s"] > 0

    def test_human_output_has_one_timing_line_per_unit(self, capsys, cc_template):
        code, out, _ = run_cli(
            capsys, "verify", corpus_path("valid", "supports_pair"),
            "--versions", "1,5,8", "--cc", cc_template, "--workers", "2",
        )
        assert code == 0
        timing_lines = [line for line in out.splitlines() if "compile" in line]
        assert [line.split(":")[0].strip() for line in timing_lines] == [
            "extensional1", "extensional5, extensional8",
        ]

    def test_output_names_the_compile_template_that_ran(self, capsys, monkeypatch, cc_template):
        from csp2c.verify import DEFAULT_CC

        supports_pair = corpus_path("valid", "supports_pair")
        monkeypatch.delenv("CSP2C_CC", raising=False)
        code, out, _ = run_cli(capsys, "verify", supports_pair, "--versions", "1")
        assert code == 0
        assert out.splitlines()[1] == f"  cc: {DEFAULT_CC}"
        # a template from CSP2C_CC is the one reported, in both output modes
        template = "cc -O1 -o {out} {src}"
        monkeypatch.setenv("CSP2C_CC", template)
        code, out, _ = run_cli(capsys, "verify", supports_pair, "--versions", "1")
        assert code == 0 and out.splitlines()[1] == f"  cc: {template}"
        code, out, _ = run_cli(capsys, "verify", "--machine", supports_pair, "--versions", "1")
        assert code == 0 and json.loads(out)["cc"] == template
        # --cc wins over CSP2C_CC
        argv = ["verify", "--machine", supports_pair, "--versions", "1", "--cc", cc_template]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["cc"] == cc_template

    def test_signed_overflow_exits_1_naming_version_and_assignment(
        self, capsys, monkeypatch, tmp_path, cc_template
    ):
        from csp2c import verify

        path = tmp_path / "overflow.xml"
        path.write_text(NOT_EQUAL_XML)
        monkeypatch.delenv("CSP2C_CC", raising=False)
        monkeypatch.setattr(verify, "transform", overflowing_emitter("intensional4"))
        code, out, err = run_cli(capsys, "verify", str(path), "--versions", "all")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: driver ")
        where = "intensional4 (overflow__intensional4__klee.c) on assignment x=1 y=0"
        assert f", running {where}," in line

    @pytest.mark.parametrize(
        "template, message",
        [
            ("cc -o {out} {src} {nope}", "unknown field {nope}"),
            ("cc -o {out} '{src}", "No closing quotation"),
            ("sh -c 'f() { :; }; f' {out} {src}", "unknown field"),
            ("  ", "empty command template"),
        ],
        ids=["unknown-field", "unbalanced-quote", "literal-braces", "empty"],
    )
    def test_bad_compile_template_exits_2(self, capsys, monkeypatch, template, message):
        eq_ne = corpus_path("valid", "eq_ne")
        code, out, err = run_cli(capsys, "verify", eq_ne, "--cc", template)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err
        # the same check applies to the template read from CSP2C_CC
        monkeypatch.setenv("CSP2C_CC", template)
        code, out, err = run_cli(capsys, "verify", eq_ne)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    def test_a_wrong_program_fails_with_exit_1_naming_its_mismatches(
        self, capsys, monkeypatch, cc_template
    ):
        from csp2c import verify

        monkeypatch.setattr(verify, "transform", corrupting_emitter)
        eq_ne = corpus_path("valid", "eq_ne")
        code, out, err = run_cli(capsys, "verify", eq_ne, "--versions", "1", "--cc", cc_template)
        assert (code, err) == (1, "")
        assert out.startswith("eq_ne: fail (1 versions x 8 assignments)")
        mismatches = [line for line in out.splitlines() if line.startswith("  mismatch ")]
        assert mismatches[0] == "  mismatch intensional1: [i0=0 i1=0 i2=0] oracle=False driver=True"
        assert len(mismatches) == 4
        argv = ["verify", "--machine", eq_ne, "--versions", "1", "--cc", cc_template]
        code, out, _ = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert code == 1 and (payload["status"], payload["mismatches"]) == ("fail", 4)
        assert payload["first_mismatch"] == {
            "version": "intensional1",
            "assignment": {"i0": 0, "i1": 0, "i2": 0},
        }

    def test_the_first_mismatch_is_the_first_listed_version_that_fails(
        self, capsys, monkeypatch, tmp_path, cc_template
    ):
        from csp2c import verify

        monkeypatch.setattr(verify, "transform", weakening_emitter)
        path = tmp_path / "lt_yx.xml"
        path.write_text(LT_YX_XML)
        argv = ["verify", str(path), "--versions", "all", "--cc", cc_template]
        code, out, _ = run_cli(capsys, *argv)
        mismatches = [line for line in out.splitlines() if line.startswith("  mismatch ")]
        assert code == 1
        assert mismatches[0] == "  mismatch intensional4: [y=0 x=0] oracle=False driver=True"
        code, out, _ = run_cli(capsys, *argv, "--machine")
        first = json.loads(out)["first_mismatch"]
        assert code == 1 and first == {"version": "intensional4", "assignment": {"y": 0, "x": 0}}
        assert list(first["assignment"]) == ["y", "x"]

    def test_a_unary_group_template_passes_on_every_assignment(self, capsys, tmp_path, cc_template):
        path = tmp_path / "unary.xml"
        path.write_text(UNARY_GROUP)
        code, out, _ = run_cli(
            capsys, "verify", "--machine", str(path), "--versions", "all", "--cc", cc_template
        )
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "pass"
        assert payload["versions"] == [f"intensional{v}" for v in range(1, 11)]
        assert payload["assignments_checked"] == 125

    @pytest.mark.parametrize("command", ["gen", "verify"])
    def test_a_domain_beyond_32_bits_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "wide.xml"
        path.write_text(
            '<instance format="XCSP3" type="CSP"><variables><var id="a"> 0..2147483648 </var>'
            "</variables><constraints><intension> lt(a,1) </intension></constraints></instance>"
        )
        extra = ["--out-dir", str(tmp_path)] if command == "gen" else []
        code, out, err = run_cli(capsys, command, str(path), *extra)
        assert (code, out) == (2, "")
        assert err == "error: domain of a exceeds 32-bit signed range\n"

    @pytest.mark.parametrize("command", ["gen", "verify"])
    def test_a_bad_version_list_exits_2(self, capsys, tmp_path, command):
        extra = ["--out-dir", str(tmp_path)] if command == "gen" else []
        supports_pair = corpus_path("valid", "supports_pair")
        code, out, err = run_cli(capsys, command, supports_pair, "--versions", "1,x", *extra)
        assert (code, out) == (2, "")
        assert err == "error: bad version list '1,x'\n"

    @pytest.mark.parametrize("bound", ["-1", "many"])
    def test_bad_bound_is_usage_error(self, capsys, bound):
        with pytest.raises(SystemExit) as info:
            main(["verify", corpus_path("valid", "eq_ne"), "--bound", bound])
        assert info.value.code == 2
        assert "--bound" in capsys.readouterr().err

    def test_bound_0_samples(self, capsys, cc_template):
        code, out, _ = run_cli(
            capsys, "verify", corpus_path("valid", "eq_ne"), "--versions", "1",
            "--cc", cc_template, "--bound", "0",
        )
        assert code == 3 and "sampled" in out

    def test_missing_compiler_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify",
            corpus_path("valid", "supports_pair"),
            "--versions",
            "1",
            "--cc",
            "no-such-cc-csp2c -o {out} {src}",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "no-such-cc-csp2c" in err


@pytest.fixture
def bench_manifests(tmp_path):
    tools = tmp_path / "tools.json"
    tools.write_text(
        json.dumps(
            [
                {
                    "name": "mock-analyzer",
                    "run": "echo ASSERTION FAIL on {src}",
                    "success_pattern": "ASSERTION FAIL",
                    "timeout_s": 30,
                    "kind": "analysis",
                    "dialect": "klee",
                },
                {
                    "name": "mock-baseline",
                    "run": "echo solved {src}",
                    "kind": "baseline",
                    "timeout_s": 30,
                },
            ]
        )
    )
    instances = tmp_path / "instances.json"
    instances.write_text(
        json.dumps(
            [
                {
                    "path": corpus_path("valid", "supports_pair"),
                    "family": "extensional",
                    "size": 1,
                    "expected": "sat",
                },
                {
                    "path": corpus_path("valid", "xor_ring"),
                    "family": "extensional",
                    "size": 2,
                    "expected": "unsat",
                },
            ]
        )
    )
    return str(tools), str(instances)


class TestBenchAndReport:
    def test_end_to_end_with_mock_tools(self, capsys, tmp_path, bench_manifests):
        tools, instances = bench_manifests
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--tools",
            tools,
            "--instances",
            instances,
            "--out-dir",
            str(out_dir),
            "--versions",
            "1,2",
        )
        assert code == 0
        assert (out_dir / "raw.csv").exists()
        assert (out_dir / "robustness.csv").exists()
        assert (out_dir / "robustness.svg").exists()
        # 1 analysis tool x 2 instances x 2 versions + 1 baseline x 2 instances
        with open(out_dir / "raw.csv") as fh:
            assert len(fh.readlines()) == 1 + 6
        # generated sources exist for the analysis dialect
        src_files = os.listdir(out_dir / "src")
        assert "supports_pair__extensional1__klee.c" in src_files

        code, out, _ = run_cli(
            capsys,
            "report",
            str(out_dir / "raw.csv"),
            "--instances",
            instances,
            "--out-dir",
            str(tmp_path / "report2"),
        )
        assert code == 0
        assert (tmp_path / "report2" / "robustness.csv").exists()

    def test_report_reproduces_bench_byte_for_byte(self, capsys, tmp_path, bench_manifests):
        tools, instances = bench_manifests
        bench_dir, report_dir = tmp_path / "bench", tmp_path / "report"
        code, bench_out, _ = run_cli(
            capsys, "bench", "--tools", tools, "--instances", instances,
            "--out-dir", str(bench_dir), "--versions", "all",
        )
        assert code == 0
        code, report_out, _ = run_cli(
            capsys, "report", str(bench_dir / "raw.csv"), "--instances", instances,
            "--out-dir", str(report_dir),
        )
        assert code == 0
        assert report_out == bench_out.replace(str(bench_dir), str(report_dir))
        for name in ("raw.csv", "robustness.csv", "scalability.csv",
                     "robustness.svg", "scalability.svg"):
            assert (report_dir / name).read_bytes() == (bench_dir / name).read_bytes(), name

    def test_a_repeated_version_runs_once(self, capsys, tmp_path, bench_manifests):
        tools, instances = bench_manifests
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "bench", "--tools", tools, "--instances", instances,
            "--out-dir", str(out_dir), "--versions", "1,1,10,2",
        )
        assert code == 0
        versions = ["extensional1", "extensional10", "extensional2"]
        records = load_records_csv(str(out_dir / "raw.csv"))
        assert [(r.instance, r.version) for r in records if r.version] == [
            (instance, version) for instance in ("supports_pair", "xor_ring") for version in versions
        ]
        with open(out_dir / "robustness.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["version"], row["n"]) for row in rows] == [(v, "2") for v in versions]

    def test_robustness_lists_versions_in_run_order(self, capsys, tmp_path, bench_manifests):
        tools, instances = bench_manifests
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "bench", "--tools", tools, "--instances", instances,
            "--out-dir", str(out_dir), "--versions", "all",
        )
        assert code == 0
        versions = [f"extensional{v}" for v in range(1, 13)]
        with open(out_dir / "robustness.csv", newline="") as fh:
            assert [row["version"] for row in csv.DictReader(fh)] == versions
        svg = (out_dir / "robustness.svg").read_text(encoding="utf-8")
        assert re.findall(r">(extensional\d+)</text>", svg) == versions

    def test_parallel_note_survives_report(self, capsys, tmp_path, bench_manifests):
        tools, instances = bench_manifests
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "bench", "--tools", tools, "--instances", instances,
            "--out-dir", str(out_dir), "--versions", "1",
            "--workers", "2",
        )
        assert code == 0
        assert "note: parallel, timings indicative" in out
        code, out, _ = run_cli(
            capsys, "report", str(out_dir / "raw.csv"), "--instances", instances,
            "--out-dir", str(tmp_path / "rep"),
        )
        assert code == 0
        assert "note: parallel, timings indicative" in out

    def test_out_dir_with_a_space(self, capsys, tmp_path, bench_manifests):
        _, instances = bench_manifests
        tools = tmp_path / "grep.json"
        tools.write_text(
            json.dumps(
                [{"name": "grep-assert", "run": "grep -c assert {src}", "success_pattern": "^[1-9]"}]
            )
        )
        out_dir = tmp_path / "bench out"
        code, _, _ = run_cli(
            capsys, "bench", "--tools", str(tools), "--instances", instances,
            "--out-dir", str(out_dir), "--versions", "1",
        )
        assert code == 0
        records = load_records_csv(str(out_dir / "raw.csv"))
        assert [r.outcome for r in records] == [Outcome.REACHED, Outcome.REACHED]

    def test_bad_versions_and_family_mismatch_exit_2(self, capsys, tmp_path, bench_manifests):
        tools, instances = bench_manifests
        code, _, err = run_cli(
            capsys, "bench", "--tools", tools, "--instances", instances,
            "--out-dir", str(tmp_path / "a"), "--versions", "99",
        )
        assert code == 2
        assert err.startswith("error:") and "1..12" in err

        mismatch = tmp_path / "mismatch.json"
        mismatch.write_text(
            json.dumps(
                [{"path": corpus_path("valid", "dist_alldiff"), "family": "extensional", "size": 1}]
            )
        )
        code, _, err = run_cli(
            capsys, "bench", "--tools", tools, "--instances", str(mismatch),
            "--out-dir", str(tmp_path / "b"), "--versions", "1",
        )
        assert code == 2
        assert err.startswith("error:")


class TestBadInputFiles:
    @pytest.mark.parametrize(
        "key, template, message",
        [
            ("run", "klee {src} {nope}", "entry 0 'run': bad command template"),
            ("run", 'sh -c "f() { echo hi; }; f" {src}', "unknown field { echo hi; }"),
            ("prepare", "clang '{src}", "entry 0 'prepare': bad command template"),
        ],
        ids=["unknown-field", "literal-braces", "unbalanced-quote"],
    )
    def test_bench_bad_tool_template_exits_2(
        self, capsys, tmp_path, bench_manifests, key, template, message
    ):
        _, instances = bench_manifests
        tools = tmp_path / "tools.json"
        tools.write_text(json.dumps([{"name": "t", "run": "echo {src}", key: template}]))
        code, out, err = run_cli(
            capsys, "bench", "--tools", str(tools), "--instances", instances,
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(tools) in err and message in err

    def test_bench_unknown_family_exits_2(self, capsys, tmp_path, bench_manifests):
        tools, _ = bench_manifests
        instances = tmp_path / "instances.json"
        instances.write_text(
            json.dumps(
                [
                    {"path": corpus_path("valid", "supports_pair"), "family": "extensional",
                     "size": 1},
                    {"path": corpus_path("valid", "xor_ring"), "family": "bogus", "size": 2},
                ]
            )
        )
        code, out, err = run_cli(
            capsys, "bench", "--tools", tools, "--instances", str(instances),
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(instances) in err
        assert "entry 1 has unknown family 'bogus'" in err

    def test_bench_instances_sharing_an_id_exit_2(self, capsys, tmp_path, bench_manifests):
        tools, _ = bench_manifests
        source = corpus_path("valid", "supports_pair")
        entries = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            copy = tmp_path / sub / "x.xml"
            with open(source, encoding="utf-8") as fh:
                copy.write_text(fh.read())
            entries.append({"path": str(copy), "family": "extensional", "size": 1})
        instances = tmp_path / "instances.json"
        instances.write_text(json.dumps(entries))
        code, out, err = run_cli(
            capsys, "bench", "--tools", tools, "--instances", str(instances),
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(instances) in err
        assert "entries 0 and 1 share the instance id 'x'" in err

    def test_bench_tools_sharing_a_name_exit_2(self, capsys, tmp_path, bench_manifests):
        _, instances = bench_manifests
        tools = tmp_path / "tools.json"
        tools.write_text(
            json.dumps([{"name": "t", "run": "true {src}"}, {"name": "t", "run": "false {src}"}])
        )
        code, out, err = run_cli(
            capsys, "bench", "--tools", str(tools), "--instances", instances,
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(tools) in err
        assert "entries 0 and 1 share the tool name 't'" in err
        assert not (tmp_path / "o" / "robustness.csv").exists()

    def test_report_on_zero_second_runs_draws_the_charts(self, capsys, tmp_path):
        import xml.etree.ElementTree as ET

        from csp2c.harness import RAW_CSV_FIELDS

        raw = tmp_path / "raw.csv"
        raw.write_text(",".join(RAW_CSV_FIELDS) + "\nt,i1,extensional1,reached,0.0,,\n")
        instances = tmp_path / "instances.json"
        instances.write_text(json.dumps([{"path": "i1.xml", "family": "extensional", "size": 1}]))
        out_dir = tmp_path / "o"
        code, _, err = run_cli(
            capsys, "report", str(raw), "--instances", str(instances), "--out-dir", str(out_dir)
        )
        assert code == 0, err
        for chart in ("robustness.svg", "scalability.svg"):
            ET.parse(out_dir / chart)

    def test_report_missing_records_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "report", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "o")
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "missing.csv" in err

    def test_report_bad_header_exits_2(self, capsys, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("a,b\n1,2\n")
        code, out, err = run_cli(capsys, "report", str(raw), "--out-dir", str(tmp_path / "o"))
        assert code == 2 and out == ""
        assert err.startswith("error:")
        assert f"{raw}: unexpected raw CSV header: ['a', 'b']" in err

    def test_report_without_records_exits_2(self, capsys, tmp_path):
        from csp2c.harness import RAW_CSV_FIELDS

        raw = tmp_path / "raw.csv"
        raw.write_text(",".join(RAW_CSV_FIELDS) + "\n")
        code, out, err = run_cli(capsys, "report", str(raw), "--out-dir", str(tmp_path / "o"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "no records" in err

    def test_bench_missing_tool_manifest_exits_2(self, capsys, tmp_path, bench_manifests):
        _, instances = bench_manifests
        code, out, err = run_cli(
            capsys, "bench", "--tools", str(tmp_path / "missing.json"),
            "--instances", instances, "--out-dir", str(tmp_path / "o"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "missing.json" in err

    def test_bench_tool_without_name_exits_2(self, capsys, tmp_path, bench_manifests):
        _, instances = bench_manifests
        tools = tmp_path / "nameless.json"
        tools.write_text('[{"run": "echo"}]')
        code, out, err = run_cli(
            capsys, "bench", "--tools", str(tools), "--instances", instances,
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "entry 0 has no 'name' key" in err

    def test_bench_malformed_manifest_json_exits_2(self, capsys, tmp_path, bench_manifests):
        tools, _ = bench_manifests
        bad = tmp_path / "bad.json"
        bad.write_text("[{")
        code, out, err = run_cli(
            capsys, "bench", "--tools", tools, "--instances", str(bad),
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:")


def _edited(manifest: str, out_dir, entry: int = 0, **changes) -> str:
    """A copy of `manifest` whose entry `entry` has `changes` applied."""
    with open(manifest, encoding="utf-8") as fh:
        entries = json.load(fh)
    entries[entry].update(changes)
    path = out_dir / ("edited-" + os.path.basename(manifest))
    path.write_text(json.dumps(entries))
    return str(path)


def _written(out_dir, name: str, data: bytes) -> str:
    path = out_dir / name
    path.write_bytes(data)
    return str(path)


NOT_UTF8_XML = b"\xff\xfe<instance/>"
RAW_HEADER = b"tool,instance,version,outcome,wallclock_s,normalized,note\n"


def _bench(tools: str, instances: str, tmp_path) -> list[str]:
    return ["bench", "--tools", tools, "--instances", instances,
            "--out-dir", str(tmp_path / "o"), "--versions", "1"]


# id: (argv from tmp_path and the bench_manifests paths, text stderr must contain)
BAD_INPUT_CASES = {
    "instance-size-null": (
        lambda t, tools, inst: _bench(tools, _edited(inst, t, size=None), t),
        "entry 0 has bad size None",
    ),
    "instance-path-with-nul": (
        lambda t, tools, inst: _bench(tools, _edited(inst, t, path="a\0b.xml"), t),
        "entry 0 has bad path",
    ),
    "tool-timeout-null": (
        lambda t, tools, inst: _bench(_edited(tools, t, timeout_s=None), inst, t),
        "entry 0 has bad timeout_s None",
    ),
    "tool-timeout-too-large": (
        lambda t, tools, inst: _bench(_edited(tools, t, timeout_s=1e10), inst, t),
        "entry 0 has bad timeout_s 10000000000.0",
    ),
    "tool-run-not-a-string": (
        lambda t, tools, inst: _bench(_edited(tools, t, run=5), inst, t),
        "entry 0 has bad run 5",
    ),
    "tool-run-empty": (
        lambda t, tools, inst: _bench(_edited(tools, t, run=""), inst, t),
        "edited-tools.json: entry 0 'run': empty command template",
    ),
    "tool-dialect-bogus": (
        lambda t, tools, inst: _bench(_edited(tools, t, dialect="bogus"), inst, t),
        "entry 0 has unknown dialect 'bogus'",
    ),
    "tool-kind-bogus": (
        lambda t, tools, inst: _bench(_edited(tools, t, kind="bogus"), inst, t),
        "entry 0 has unknown kind 'bogus'",
    ),
    "tool-success-pattern-bad": (
        lambda t, tools, inst: _bench(_edited(tools, t, success_pattern="("), inst, t),
        "entry 0 has bad success_pattern '('",
    ),
    "tool-manifest-not-utf8": (
        lambda t, tools, inst: _bench(_written(t, "t.json", b'[{"name": "\xff"}]'), inst, t),
        "cannot read manifest",
    ),
    "tool-name-lone-surrogate": (
        lambda t, tools, inst: _bench(
            _written(t, "t.json", b'[{"name": "\\ud800", "run": "true"}]'), inst, t
        ),
        "cannot read manifest",
    ),
    "records-bad-outcome": (
        lambda t, tools, inst: [
            "report", _written(t, "raw.csv", RAW_HEADER + b"t,i,v1,bogus,1.0,,\n"),
            "--out-dir", str(t / "o"),
        ],
        "raw.csv:2: 'bogus' is not a valid Outcome",
    ),
    "records-bad-number": (
        lambda t, tools, inst: [
            "report",
            _written(t, "raw.csv", RAW_HEADER + b"t,i,v1,timeout,1.0,,\nt,i,v2,timeout,x,,\n"),
            "--out-dir", str(t / "o"),
        ],
        "raw.csv:3: could not convert string to float: 'x'",
    ),
    "records-not-utf8": (
        lambda t, tools, inst: [
            "report", _written(t, "raw.csv", RAW_HEADER + b"t,\xff,v1,timeout,1.0,,\n"),
            "--out-dir", str(t / "o"),
        ],
        "raw.csv:2: 'utf-8' codec can't decode byte 0xff",
    ),
    "records-header-not-utf8": (
        lambda t, tools, inst: [
            "report", _written(t, "raw.csv", b"\xff\xfe" + RAW_HEADER), "--out-dir", str(t / "o"),
        ],
        "raw.csv:1: 'utf-8' codec can't decode byte 0xff",
    ),
    "gen-out-dir-is-a-file": (
        lambda t, tools, inst: [
            "gen", corpus_path("valid", "supports_pair"), "--out-dir", _written(t, "file", b""),
        ],
        "File exists",
    ),
    "bench-out-dir-is-a-file": (
        lambda t, tools, inst: [
            "bench", "--tools", tools, "--instances", inst, "--out-dir", _written(t, "file", b""),
        ],
        "File exists",
    ),
    "parse-not-utf8": (
        lambda t, tools, inst: ["parse", _written(t, "x.xml", NOT_UTF8_XML)],
        "malformed XML",
    ),
    "gen-not-utf8": (
        lambda t, tools, inst: [
            "gen", _written(t, "x.xml", NOT_UTF8_XML), "--out-dir", str(t / "o"),
        ],
        "malformed XML",
    ),
    "solve-not-utf8": (
        lambda t, tools, inst: ["solve", _written(t, "x.xml", NOT_UTF8_XML)],
        "malformed XML",
    ),
    "verify-not-utf8": (
        lambda t, tools, inst: ["verify", _written(t, "x.xml", NOT_UTF8_XML)],
        "malformed XML",
    ),
    "bench-not-utf8": (
        lambda t, tools, inst: _bench(
            tools, _edited(inst, t, path=_written(t, "x.xml", NOT_UTF8_XML)), t
        ),
        "x.xml:/ (line 1): malformed XML",
    ),
    "bench-family-mismatch": (
        lambda t, tools, inst: _bench(tools, _edited(inst, t, entry=1, family="intensional"), t),
        f"error: {corpus_path('valid', 'xor_ring')}: intensional transform cannot encode table",
    ),
}


class TestErrorBoundary:
    @pytest.mark.parametrize("case", list(BAD_INPUT_CASES))
    def test_bad_input_exits_2_with_a_message(self, capsys, tmp_path, bench_manifests, case):
        make_argv, message = BAD_INPUT_CASES[case]
        code, out, err = run_cli(capsys, *make_argv(tmp_path, *bench_manifests))
        assert code == 2 and out == ""
        assert err.startswith(("error:", "error at ")), err
        assert message in err

    def test_parallel_bench_runs_and_stamps_its_records(self, capsys, tmp_path, bench_manifests):
        tools, instances = bench_manifests
        code, out, _ = run_cli(
            capsys, "bench", "--tools", tools, "--instances", instances,
            "--out-dir", str(tmp_path / "o"), "--versions", "1", "--workers", "2",
        )
        assert code == 0
        records = load_records_csv(str(tmp_path / "o" / "raw.csv"))
        assert records and all(r.note == "parallel, timings indicative" for r in records)

    def test_other_exceptions_are_bugs_and_escape(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a bug")

        monkeypatch.setattr("csp2c.oracle.solve", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["solve", corpus_path("valid", "supports_pair")])


def _sleeper(pids) -> str:
    """A command that appends its pid to `pids`, then becomes `sleep 20`: a
    child csp2c itself waits on and reaps."""
    return "sh -c " + shlex.quote(f"echo $$ >> {shlex.quote(str(pids))}; exec sleep 20")


def _interrupt(argv, pids, running: int) -> tuple[int, str, float, list[int]]:
    """Run csp2c on `argv` and send it SIGINT once `running` children have
    written their pids; its return code, its stderr, its seconds from SIGINT
    to exit, and the pids written by then, each of whose groups is gone."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(csp2c.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "csp2c", *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and (
            not pids.exists() or len(pids.read_text().split()) < running
        ):
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        start = time.monotonic()
        _, stderr = proc.communicate(timeout=60)
        seconds = time.monotonic() - start
        started = [int(p) for p in pids.read_text().split()]
        for pid in started:
            with pytest.raises(ProcessLookupError):
                os.killpg(pid, 0)
        return proc.returncode, stderr, seconds, started
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


class TestInterrupt:
    """An interrupt kills the group of every child csp2c waits on, whatever
    `--workers` is, and no queued job starts; csp2c then prints one
    `interrupted` line and exits 130."""

    @pytest.mark.parametrize(
        "versions, running", [(["--versions", "1"], 1), (["--workers", "3"], 3)],
        ids=["one-unit", "three-units"],
    )
    def test_verify_stops_its_compilers(self, tmp_path, versions, running):
        pids = tmp_path / "pids"
        argv = ["verify", corpus_path("valid", "eq_ne"), "--cc", _sleeper(pids), *versions]
        code, stderr, seconds, started = _interrupt(argv, pids, running)
        assert code == 130 and stderr == "interrupted\n" and seconds < 3, (code, stderr, seconds)
        assert len(started) == running

    def test_bench_stops_its_tools_and_starts_no_queued_job(self, tmp_path):
        pids = tmp_path / "pids"
        tools = tmp_path / "tools.json"
        tools.write_text(json.dumps([{"name": "slow", "run": _sleeper(pids), "timeout_s": 60}]))
        instances = tmp_path / "instances.json"
        instances.write_text(json.dumps(
            [{"path": corpus_path("valid", "supports_pair"), "family": "extensional", "size": 1}]
        ))
        argv = ["bench", "--tools", str(tools), "--instances", str(instances),
                "--out-dir", str(tmp_path / "o"), "--versions", "1,2,3", "--workers", "2"]
        code, stderr, seconds, started = _interrupt(argv, pids, 2)
        assert code == 130 and stderr == "interrupted\n" and seconds < 3, (code, stderr, seconds)
        # the third job was queued behind the two running ones
        assert len(started) == 2


# any JSON value; strings stand for text, and a lone surrogate escape is a
# case of its own above
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.sampled_from(["analysis", "baseline", "klee", "llbmc", "concrete", "intensional"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
# run and prepare are commands: they get every JSON value but a string, so
# the test never starts an arbitrary program
NOT_STRINGS = JSON_VALUES.filter(lambda value: not isinstance(value, str))
MANIFEST_EDITS = st.one_of(
    st.tuples(
        st.just("tools"),
        st.sampled_from(["name", "timeout_s", "success_pattern", "kind", "dialect"]),
        JSON_VALUES,
    ),
    st.tuples(st.just("tools"), st.sampled_from(["run", "prepare"]), NOT_STRINGS),
    st.tuples(
        st.just("instances"), st.sampled_from(["path", "family", "size", "expected"]), JSON_VALUES
    ),
)


@settings(max_examples=40, deadline=None)
@given(edit=MANIFEST_EDITS)
def test_any_manifest_value_is_run_or_rejected(edit):
    which, key, value = edit
    manifests = {
        "tools": [{"name": "t", "run": "true", "timeout_s": 30}],
        "instances": [
            {"path": corpus_path("valid", "supports_pair"), "family": "extensional", "size": 1}
        ],
    }
    manifests[which][0][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, entries in manifests.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(entries, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(
                ["bench", "--tools", paths["tools"], "--instances", paths["instances"],
                 "--out-dir", os.path.join(tmp, "o"), "--versions", "1"]
            )
    assert code in (0, 2)


def test_console_script_help():
    import subprocess
    import sys

    for module in ("csp2c.cli", "csp2c"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0, module
        assert "parse" in proc.stdout and "bench" in proc.stdout, module
