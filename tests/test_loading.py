"""What each command loads, and the names the package root re-exports.

`csp2c.cli` binds every csp2c module it uses as a lazy module, and the
package root resolves its names on first use, so importing the CLI runs no
csp2c module and each command runs only the modules it uses. No command
imports `dataclasses` or the `inspect` it imports; `subprocess` is
imported only to start a child, and `concurrent.futures` only for a pool
of jobs, with `--workers` above 1 and more than one job. Each check here
runs in a fresh interpreter (`-S`, so no site hook imports anything
first), since this test process has loaded everything already.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csp2c

from conftest import corpus_path

SRC = Path(csp2c.__file__).resolve().parent.parent
SPANS = SRC.parent / "perfbench" / "spans.py"
SIBLINGS = ("cli", "model", "xcsp", "oracle", "codegen", "verify", "harness", "charts")
# modules no command may import unless it says so in LOADED; hashlib loads
# OpenSSL, which adds megabytes to a command's peak memory
WATCHED = ("dataclasses", "inspect", "subprocess", "concurrent.futures", "hashlib")


def run_fresh(script: str, *argv: str) -> dict:
    """The JSON object that `script` prints last, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


COMMAND_SCRIPT = """
import json, sys, types
from csp2c.cli import main
code = main(sys.argv[1:])
print(json.dumps({
    "code": code,
    # type() reads no attribute, so it does not load a lazy module
    "executed": [n for n in %r if type(sys.modules.get("csp2c." + n)) is types.ModuleType],
    "imported": [n for n in %r if n in sys.modules],
}))
""" % (SIBLINGS, WATCHED)

INSTANCE = corpus_path("valid", "conflicts_group")
# `true` builds no driver, so verify fails; by then it has loaded its modules
VERIFY = ["verify", "--cc", "true {src} {out}"]

# command: (exit code, the csp2c modules it runs, what it imports of WATCHED);
# the harness runs the model, whose Frozen is the base of its value classes
LOADED = {
    "parse": (0, ["cli", "model", "xcsp"], []),
    "solve": (0, ["cli", "model", "xcsp", "oracle"], []),
    "gen": (0, ["cli", "model", "xcsp", "codegen", "harness"], []),
    "verify": (
        1, ["cli", "model", "xcsp", "oracle", "codegen", "verify", "harness"], ["subprocess"]
    ),
    "bench": (0, ["cli", "model", "xcsp", "codegen", "harness", "charts"], ["subprocess"]),
    "report": (0, ["cli", "model", "harness", "charts"], []),
}


def command_argv(command: str, tmp: Path) -> list[str]:
    """A run of `command` on the corpus, its files written to `tmp`."""
    tools, instances = tmp / "tools.json", tmp / "instances.json"
    tools.write_text(json.dumps([{"name": "stub", "run": "true {src}"}]))
    instances.write_text(json.dumps([{"path": INSTANCE, "family": "extensional", "size": 6}]))
    raw = tmp / "raw.csv"
    raw.write_text(
        "tool,instance,version,outcome,wallclock_s,normalized,note\n"
        "stub,conflicts_group,extensional1,not-reached,0.5,,\n"
    )
    return {
        "parse": ["parse", INSTANCE],
        "solve": ["solve", "--machine", INSTANCE],
        "gen": ["gen", "--versions", "1", "--out-dir", str(tmp / "gen"), INSTANCE],
        "verify": [*VERIFY, "--versions", "1", INSTANCE],
        "bench": [
            "bench", "--tools", str(tools), "--instances", str(instances), "--versions", "1",
            "--out-dir", str(tmp / "bench"),
        ],
        "report": ["report", str(raw), "--instances", str(instances), "--out-dir", str(tmp / "r")],
    }[command]


@pytest.mark.parametrize("command", list(LOADED))
def test_each_command_runs_only_the_modules_it_uses(command, tmp_path):
    result = run_fresh(COMMAND_SCRIPT, *command_argv(command, tmp_path))
    assert (result["code"], result["executed"], result["imported"]) == LOADED[command]


def test_importing_the_cli_runs_no_csp2c_module():
    script = """
import json, sys, types
import csp2c.cli
print(json.dumps({
    "executed": [n for n in %r if type(sys.modules.get("csp2c." + n)) is types.ModuleType],
    "registered": [n for n in %r if "csp2c." + n in sys.modules],
}))
""" % (SIBLINGS, SIBLINGS)
    assert run_fresh(script) == {"executed": ["cli"], "registered": list(SIBLINGS)}


def verify_fresh(*options: str) -> dict:
    result = run_fresh(COMMAND_SCRIPT, *VERIFY, *options, INSTANCE)
    assert result["code"] == 1
    assert result["executed"] == LOADED["verify"][1]
    return result


def test_verify_runs_the_modules_it_uses():
    # one unit runs in the calling thread, with no pool
    assert verify_fresh("--versions", "1")["imported"] == ["subprocess"]


def test_verify_imports_a_pool_for_two_units():
    result = verify_fresh("--versions", "1,2", "--workers", "2")
    assert result["imported"] == ["subprocess", "concurrent.futures"]


@pytest.mark.skipif(not SPANS.exists(), reason="perfbench is not in this checkout")
def test_importing_the_cli_registers_every_module_the_benchmark_wraps():
    """perfbench/spans.py imports csp2c.cli, then wraps functions it finds
    through sys.modules; a traced command still records its spans."""
    script = """
import json, sys
import csp2c.cli
registered = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import spans
tracer = spans.Tracer("t")
spans.install(tracer)
code = csp2c.cli.main(["solve", sys.argv[2]])
print(json.dumps({
    "code": code,
    "missing": sorted({m for _, m, _, _ in spans.WRAPPED} - registered),
    "spans": sorted({s["name"] for s in tracer.spans}),
}))
"""
    result = run_fresh(script, str(SPANS.parent), corpus_path("valid", "conflicts_group"))
    assert result == {
        "code": 0,
        "missing": [],
        "spans": ["cli.main", "model.constraints", "oracle.solve", "xcsp.parse_file"],
    }


def test_every_exported_name_is_its_defining_modules_object():
    for name in csp2c.__all__:
        module = importlib.import_module(f"csp2c.{csp2c._EXPORTS[name]}")
        assert getattr(csp2c, name) is getattr(module, name), name
    assert set(csp2c._EXPORTS) == set(csp2c.__all__)
    assert set(csp2c.__all__) <= set(dir(csp2c))
    package = Path(csp2c.__file__).parent
    assert set(csp2c._SUBMODULES) == {p.stem for p in package.glob("[!_]*.py")}


def test_star_import_and_submodule_access_in_a_fresh_interpreter():
    script = """
import json, sys
import csp2c
before = sorted(m for m in sys.modules if m.startswith("csp2c."))
namespace = {}
exec("from csp2c import *", namespace)
print(json.dumps({
    "before": before,
    "star": sorted(n for n in namespace if n != "__builtins__"),
    "verify": csp2c.verify.__name__,
    "charts": csp2c.charts.__name__,
    "transform": csp2c.transform is csp2c.codegen.transform,
}))
"""
    result = run_fresh(script)
    # importing the package runs no submodule
    assert result["before"] == []
    assert result["star"] == sorted(csp2c.__all__)
    assert result["verify"] == "csp2c.verify" and result["charts"] == "csp2c.charts"
    assert result["transform"]


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        csp2c.nope  # noqa: B018


def test_every_exit_code_entry_names_an_exception_class():
    from csp2c.cli import _EXIT_CODES

    for qualified in _EXIT_CODES:
        module, _, name = qualified.rpartition(".")
        assert issubclass(getattr(importlib.import_module(module), name), Exception), qualified
