"""Layering guard: the serving, profile and core layers never import the
experiment harness, the sweep and the service import nothing private
from ``repro.api``, and the package never reaches into the tests.

``repro.runtime`` (deadline, backoff, per-attempt setup) and
``repro.jsonl`` (the hardened JSONL cache) sit below both front-ends;
``repro.serve`` and ``repro.profiles`` build on them, not on
``repro.experiments``.  The exact oracles live in ``tests.oracles``:
nothing under ``src/repro`` imports them, and ``import repro`` loads none.
Importing the package's front-ends loads neither SciPy's optimizer (only
phase 2 solves, through ``repro.ilp.solver.milp``/``linprog``) nor
networkx.
The algorithms read the chain through its public range queries and the
memory model through ``repro.core.memory``, never ``Chain``'s prefix
arrays.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
GUARDED = sorted(
    [*SRC.joinpath("serve").glob("*.py"), *SRC.joinpath("profiles").glob("*.py"),
     SRC / "runtime.py", SRC / "jsonl.py"]
)


def imported_modules(path: Path) -> list[str]:
    """Absolute names of every module ``path`` imports (any scope)."""
    package = ".".join(path.relative_to(SRC.parent).with_suffix("").parts[:-1])
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[: len(base) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            names.append(module)
            names += [f"{module}.{alias.name}" for alias in node.names]
    return names


@pytest.mark.parametrize("path", GUARDED, ids=lambda p: str(p.relative_to(SRC)))
def test_no_experiments_import(path):
    bad = [m for m in imported_modules(path)
           if m == "repro.experiments" or m.startswith("repro.experiments.")]
    assert bad == [], f"{path.name} imports {bad}"


def test_guard_sees_relative_imports():
    # the resolver must catch the form the old modules used
    src = SRC / "serve" / "store.py"
    assert "repro.jsonl.JsonlCache" in imported_modules(src)


@pytest.mark.parametrize(
    "path",
    sorted([*SRC.joinpath("experiments").glob("*.py"), *SRC.joinpath("serve").glob("*.py")]),
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_front_ends_use_only_public_api(path):
    # the sweep and the service plan through repro.api.plan, like any caller
    bad = [m for m in imported_modules(path) if m.startswith("repro.api._")]
    assert bad == [], f"{path.name} imports {bad}"


def test_no_tests_import():
    bad = {str(path.relative_to(SRC)): m
           for path in SRC.rglob("*.py") for m in imported_modules(path)
           if m == "tests" or m.startswith("tests.")}
    assert bad == {}


def loaded_modules(imports: str, select: str) -> str:
    """``sys.modules`` entries matching ``select`` after ``import
    {imports}`` in a fresh interpreter, as a printed sorted list."""
    code = f"import sys, {imports}; print(sorted(m for m in sys.modules if {select}))"
    return subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout.strip()


def test_import_loads_no_oracle():
    assert loaded_modules("repro", "m.endswith(('_reference', 'bruteforce'))") == "[]"


def test_import_loads_no_optimizer_or_networkx():
    select = "m.split('.')[0] == 'networkx' or m.startswith('scipy.optimize')"
    assert loaded_modules("repro, repro.api, repro.serve, repro.cli", select) == "[]"


def test_phase2_solves_through_patchable_module_globals(monkeypatch):
    # The ledger's ilp.milp / ilp.lp layers wrap these two attributes:
    # every MILP probe and LP jump of the search must go through them.
    import repro.ilp.solver as solver
    from repro.core.partition import Allocation, Partitioning
    from repro.core.platform import Platform
    from repro.experiments.scenarios import paper_chain

    calls = {"milp": 0, "lp": 0}

    def counted(kind, solve):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return solve(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "milp", counted("milp", solver.milp))
    monkeypatch.setattr(solver, "linprog", counted("lp", solver.linprog))
    # phase 1's non-contiguous pick on toy12, P=3, 0.2 GB (stage 2 and 4
    # share GPU 2)
    allocation = Allocation(Partitioning.from_cuts(12, [4, 5, 9]), (0, 2, 1, 2))
    result = solver.schedule_allocation(
        paper_chain("toy12"), Platform.of(3, 0.2, 12), allocation, time_limit=10.0
    )
    assert result.status == "ok"
    kinds = [p.kind for p in result.trace]
    assert calls == {"milp": kinds.count("milp"), "lp": kinds.count("lp")}
    assert calls["milp"] >= 3 and calls["lp"] >= 1


def test_optimizer_loads_before_the_first_timed_probe():
    # schedule_allocation imports scipy.optimize after build_skeleton and
    # before its first probe's timer, so the one-time import is never part
    # of a probe's build_s; a fresh interpreter sees it happen
    code = """
import sys
from repro.core.partition import Allocation, Partitioning
from repro.core.platform import Platform
from repro.experiments.scenarios import paper_chain
from repro.ilp import solver
from repro.ilp.formulation import MilpSkeleton

loaded = []
instantiate = MilpSkeleton.instantiate

def recording(self, period):
    loaded.append("scipy.optimize" in sys.modules)
    return instantiate(self, period)

MilpSkeleton.instantiate = recording
before = "scipy.optimize" in sys.modules
allocation = Allocation(Partitioning.from_cuts(12, [4, 5, 9]), (0, 2, 1, 2))
result = solver.schedule_allocation(
    paper_chain("toy12"), Platform.of(3, 0.2, 12), allocation, time_limit=10.0
)
print(before, loaded[0], result.status)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout.split()
    assert out == ["False", "True", "ok"]


CHAIN_INTERNALS = {"_cum_u", "_cum_uf", "_cum_ub", "_cum_w", "_cum_a_in", "_act"}
#: (module, function) pairs allowed to read them: the warm-start key hashes
#: the prefix arrays themselves.
INTERNALS_EXEMPT = {("warmstart.py", "chain_fingerprint")}


def internal_reads(path: Path, exempt=INTERNALS_EXEMPT) -> list[str]:
    """``function:attribute`` for every read of a ``Chain`` prefix array in
    ``path`` outside the ``exempt`` functions."""
    rel = str(path.relative_to(SRC))
    found = []

    def visit(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
            if (rel, func) in exempt:
                return
        if isinstance(node, ast.Attribute) and node.attr in CHAIN_INTERNALS:
            found.append(f"{func}:{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_chain_reads_its_prefix_arrays():
    bad = {str(path.relative_to(SRC)): reads
           for path in sorted(SRC.rglob("*.py"))
           if path != SRC / "core" / "chain.py"
           for reads in [internal_reads(path)] if reads}
    assert bad == {}


def test_internals_guard_sees_the_exempt_read():
    # the guard must find the reads it exempts, or it checks nothing
    reads = internal_reads(SRC / "warmstart.py", exempt=set())
    assert "chain_fingerprint:_cum_u" in reads
