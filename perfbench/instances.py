"""Seeded inputs for the benchmark workloads, each with its answer known by construction.

Every generator is a pure function of its `random.Random`: the same seed
gives byte-identical XML. An `Instance` carries, next to the XML text that
csp2c receives, the generator's own description of the problem (domains,
tables, allDifferent scopes) and the answer it was built to have. The
independent checks of that answer live in `evaluator.py`.

Variables are one-dimensional arrays, so `x[i]` reaches csp2c's witnesses
as the flattened id `xi`; the generator's description uses those ids.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

SAT = "satisfiable"
UNSAT = "unsatisfiable"

# verify-table: n variables over 0..D-1, one binary supports group over every pair.
VERIFY_VARS = 4
VERIFY_DOMAIN = 4
VERSIONS_EXTENSIONAL = 12

# bench-intension: a size-graded family of singleton <intension> constraints.
BENCH_VARS = 200
BENCH_DOMAIN = 10
BENCH_SIZES = (1000, 2000, 4000)
VERSIONS_INTENSIONAL = 10

# solve-search: the 9-in-8 pigeonhole is solved under this --limit. Search
# that checks allDifferent pairwise as soon as both variables are bound tries
# 8 * sum(8!/(8-k)!, k=0..8) = 876,808 values before it proves UNSAT, so such
# an oracle decides the instance; one that checks only complete assignments
# needs 8^9 and ends in RESOURCE_LIMIT.
PIGEON_LIMIT = 1_000_000


@dataclass(frozen=True)
class Table:
    scope: tuple[str, ...]
    tuples: frozenset[tuple[int, ...]]


@dataclass
class Instance:
    name: str
    xml: str
    domains: dict[str, tuple[int, ...]]
    expected: str
    tables: list[Table] = field(default_factory=list)
    alldiff: list[tuple[str, ...]] = field(default_factory=list)
    planted: dict[str, int] | None = None
    # Extra arguments for `csp2c solve`, e.g. a stated --limit.
    solve_args: tuple[str, ...] = ()

    def write(self, directory: str) -> str:
        path = os.path.join(directory, self.name + ".xml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.xml)
        return path


# ---------------------------------------------------------------------------
# XML helpers
# ---------------------------------------------------------------------------


def _array(var: str, size: int, values: tuple[int, ...]) -> str:
    return f'    <array id="{var}" size="[{size}]"> {" ".join(map(str, values))} </array>'


def _document(arrays: list[str], constraints: list[str]) -> str:
    return "\n".join(
        ['<instance format="XCSP3" type="CSP">', "  <variables>"]
        + arrays
        + ["  </variables>", "  <constraints>"]
        + constraints
        + ["  </constraints>", "</instance>", ""]
    )


def _tuples_text(tuples) -> str:
    return " ".join("(" + ",".join(map(str, t)) + ")" for t in sorted(tuples))


def _extension(scope: tuple[str, ...], tuples) -> str:
    refs = " ".join(f"{v[0]}[{v[1:]}]" for v in scope)
    return (
        f"    <extension>\n      <list> {refs} </list>\n"
        f"      <supports> {_tuples_text(tuples)} </supports>\n    </extension>"
    )


def _alldiff(var: str, n: int) -> str:
    return f"    <allDifferent> {' '.join(f'{var}[{i}]' for i in range(n))} </allDifferent>"


# ---------------------------------------------------------------------------
# verify-table
# ---------------------------------------------------------------------------


def verify_table(rng: random.Random, n: int = VERIFY_VARS, d: int = VERIFY_DOMAIN) -> Instance:
    """One <group> whose binary supports table is applied to every pair i<j.

    The table holds the planted pair (p_i, p_j) for every i<j, so the
    planted assignment is a solution, and random other value pairs up to
    half of the d*d. The size is fixed because the generated programs, and
    so the compile time, grow with it.
    """
    size = d * d // 2
    planted = [rng.randrange(d) for _ in range(n)]
    pairs = {(planted[i], planted[j]) for i in range(n) for j in range(i + 1, n)}
    others = [(a, b) for a in range(d) for b in range(d) if (a, b) not in pairs]
    pairs |= set(rng.sample(others, max(size - len(pairs), 0)))
    args = "\n".join(
        f"      <args> x[{i}] x[{j}] </args>" for i in range(n) for j in range(i + 1, n)
    )
    group = (
        "    <group>\n      <extension>\n        <list> %0 %1 </list>\n"
        f"        <supports> {_tuples_text(pairs)} </supports>\n"
        f"      </extension>\n{args}\n    </group>"
    )
    values = tuple(range(d))
    domains = {f"x{i}": values for i in range(n)}
    tables = [
        Table((f"x{i}", f"x{j}"), frozenset(pairs)) for i in range(n) for j in range(i + 1, n)
    ]
    return Instance(
        name="verify_table",
        xml=_document([_array("x", n, values)], [group]),
        domains=domains,
        expected=SAT,
        tables=tables,
        planted={f"x{i}": v for i, v in enumerate(planted)},
    )


# ---------------------------------------------------------------------------
# bench-intension
# ---------------------------------------------------------------------------

_BINARY_TEMPLATES = (
    "ne(x[{i}],x[{j}])",
    "lt(x[{i}],x[{j}])",
    "le(add(x[{i}],{k}),x[{j}])",
    "ne(dist(x[{i}],x[{j}]),{k})",
    "ge(add(x[{i}],x[{j}]),{k})",
)


def bench_intension(rng: random.Random) -> list[Instance]:
    """Random binary intensional constraints, one <intension> element each.

    Nothing is solved on this workload, so no answer is planted; what the
    benchmark checks is the job count and outcome of every harness record.
    """
    values = tuple(range(BENCH_DOMAIN))
    out = []
    for size in BENCH_SIZES:
        lines = []
        for _ in range(size):
            i, j = rng.sample(range(BENCH_VARS), 2)
            template = rng.choice(_BINARY_TEMPLATES)
            lines.append(
                f"    <intension> {template.format(i=i, j=j, k=rng.randrange(1, BENCH_DOMAIN))} </intension>"
            )
        out.append(
            Instance(
                name=f"intension_{size}",
                xml=_document([_array("x", BENCH_VARS, values)], lines),
                domains={f"x{i}": values for i in range(BENCH_VARS)},
                expected="",
            )
        )
    return out


def bench_manifests(instances: list[Instance], directory: str) -> tuple[str, str]:
    """Write the XML files and the tool and instance manifests for `csp2c bench`."""
    entries = []
    for inst in instances:
        inst.write(directory)
        entries.append(
            {
                "path": inst.name + ".xml",
                "family": "intensional",
                "size": inst.xml.count("<intension>"),
            }
        )
    tools = [
        {
            "name": "grep-assert",
            "run": "grep -c assert {src}",
            "success_pattern": "^[1-9]",
            "kind": "analysis",
            "dialect": "klee",
            "timeout_s": 60,
        },
        {"name": "wc-bytes", "run": "wc -c {src}", "kind": "baseline", "timeout_s": 60},
    ]
    tools_path = os.path.join(directory, "tools.json")
    instances_path = os.path.join(directory, "instances.json")
    with open(tools_path, "w", encoding="utf-8") as fh:
        json.dump(tools, fh, indent=1)
    with open(instances_path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
    return tools_path, instances_path


# ---------------------------------------------------------------------------
# solve-search
# ---------------------------------------------------------------------------


def pigeonhole(rng: random.Random, pigeons: int, holes: int, name: str, limit: int | None = None) -> Instance:
    """allDifferent over `pigeons` variables sharing `holes` values: UNSAT."""
    values = tuple(sorted(rng.sample(range(3 * holes), holes)))
    return Instance(
        name=name,
        xml=_document([_array("p", pigeons, values)], [_alldiff("p", pigeons)]),
        domains={f"p{i}": values for i in range(pigeons)},
        expected=UNSAT,
        alldiff=[tuple(f"p{i}" for i in range(pigeons))],
        solve_args=() if limit is None else ("--limit", str(limit)),
    )


def disjoint_tables(rng: random.Random, d: int = 8, count: int = 1000) -> Instance:
    """Two 4-ary supports tables on y0..y3 and y1..y4 that cannot agree.

    Every tuple of the first has y1+y2+y3 even, every tuple of the second
    has it odd, so their projections on the shared y1,y2,y3 are disjoint
    and no assignment satisfies both.
    """

    def draw(parity: int) -> frozenset[tuple[int, ...]]:
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < count:
            t = tuple(rng.randrange(d) for _ in range(4))
            shared = t[1:] if parity == 0 else t[:3]
            if sum(shared) % 2 == parity:
                chosen.add(t)
        return frozenset(chosen)

    first = Table(("y0", "y1", "y2", "y3"), draw(0))
    second = Table(("y1", "y2", "y3", "y4"), draw(1))
    values = tuple(range(d))
    return Instance(
        name="disjoint_tables",
        xml=_document(
            [_array("y", 5, values)],
            [_extension(first.scope, first.tuples), _extension(second.scope, second.tuples)],
        ),
        domains={f"y{i}": values for i in range(5)},
        expected=UNSAT,
        tables=[first, second],
    )


def planted_tables(
    rng: random.Random, n: int = 8, d: int = 6, tables: int = 10, count: int = 60
) -> Instance:
    """Random 3-ary supports tables that all contain the planted projection."""
    planted = [rng.randrange(d) for _ in range(n)]
    out = []
    for _ in range(tables):
        idx = tuple(sorted(rng.sample(range(n), 3)))
        chosen = {tuple(planted[i] for i in idx)}
        while len(chosen) < count:
            chosen.add(tuple(rng.randrange(d) for _ in range(3)))
        out.append(Table(tuple(f"z{i}" for i in idx), frozenset(chosen)))
    values = tuple(range(d))
    return Instance(
        name="planted_tables",
        xml=_document([_array("z", n, values)], [_extension(t.scope, t.tuples) for t in out]),
        domains={f"z{i}": values for i in range(n)},
        expected=SAT,
        tables=out,
        planted={f"z{i}": v for i, v in enumerate(planted)},
    )


def solve_search(rng: random.Random) -> list[Instance]:
    return [
        pigeonhole(rng, 7, 6, "pigeon_7_6"),
        disjoint_tables(rng),
        planted_tables(rng),
        pigeonhole(rng, 9, 8, "pigeon_9_8", limit=PIGEON_LIMIT),
    ]
