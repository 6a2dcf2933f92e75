"""Helpers shared by the benchmark files."""

from __future__ import annotations

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_figure(name: str, text: str) -> None:
    out = REPO_ROOT / "results"
    out.mkdir(exist_ok=True)
    (out / name).write_text(text)
