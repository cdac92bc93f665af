"""Independent checks of the generators' answers.

This module reads only the generator's own description of an instance
(domains, tables, allDifferent scopes), never the XML and never csp2c: the
oracle is part of the system under test, so it cannot also be the judge.
"""

from __future__ import annotations

import itertools

from instances import SAT, UNSAT, Instance


def satisfies(inst: Instance, assignment: dict[str, int]) -> bool:
    """True iff `assignment` binds every variable inside its domain and meets every constraint."""
    if set(assignment) != set(inst.domains):
        return False
    if any(assignment[v] not in values for v, values in inst.domains.items()):
        return False
    for table in inst.tables:
        if tuple(assignment[v] for v in table.scope) not in table.tuples:
            return False
    for scope in inst.alldiff:
        if len({assignment[v] for v in scope}) != len(scope):
            return False
    return True


def unsat_certificate(inst: Instance) -> str | None:
    """Name a by-construction reason that `inst` has no solution, or None.

    - pigeonhole: an allDifferent scope larger than the union of its domains;
    - disjoint supports: two tables whose projections on their shared
      variables have no tuple in common.
    """
    for scope in inst.alldiff:
        values = set().union(*(inst.domains[v] for v in scope))
        if len(scope) > len(values):
            return "pigeonhole"
    for a, b in itertools.combinations(inst.tables, 2):
        shared = [v for v in a.scope if v in b.scope]
        if not shared:
            continue
        proj_a = {tuple(t[a.scope.index(v)] for v in shared) for t in a.tuples}
        proj_b = {tuple(t[b.scope.index(v)] for v in shared) for t in b.tuples}
        if not proj_a & proj_b:
            return "disjoint supports"
    return None


def check_answer(inst: Instance) -> None:
    """Raise AssertionError unless the recorded answer holds by construction."""
    if inst.expected == SAT:
        if inst.planted is None or not satisfies(inst, inst.planted):
            raise AssertionError(f"{inst.name}: planted assignment is not a solution")
    elif inst.expected == UNSAT:
        if unsat_certificate(inst) is None:
            raise AssertionError(f"{inst.name}: no UNSAT certificate")


def brute_force(inst: Instance) -> dict[str, int] | None:
    """First solution over the plain domain product, for small instances in tests."""
    names = sorted(inst.domains)
    for values in itertools.product(*(inst.domains[v] for v in names)):
        candidate = dict(zip(names, values))
        if satisfies(inst, candidate):
            return candidate
    return None
