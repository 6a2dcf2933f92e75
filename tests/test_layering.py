"""Layering guard: the serving, profile and core layers never import the
experiment harness.

``repro.runtime`` (deadline, backoff, per-attempt setup) and
``repro.jsonl`` (the hardened JSONL cache) sit below both front-ends;
``repro.serve`` and ``repro.profiles`` build on them, not on
``repro.experiments``.
"""

from __future__ import annotations

import ast
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
