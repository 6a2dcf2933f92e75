"""Golden snapshot of the command-line surface.

``tests/cli_surface.json`` pins every argument of
:func:`repro.cli.build_parser` (each subcommand, recursively) and of
:func:`repro.cli.sweep_options`: option strings, ``dest``, effective
default, choices, type, ``nargs`` and ``required``.  Help text is left
out, so rewording a flag's help never trips it; renaming a flag,
changing a default or dropping a choice does.

Regenerate only when a change is meant to move the CLI::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import build_parser, sweep_options

GOLDEN = Path(__file__).parent / "cli_surface.json"


def _value(v):
    """A JSON-stable spelling of a default, choice list or type."""
    if callable(v):
        return getattr(v, "__name__", repr(v))
    if isinstance(v, (list, tuple)):
        return [_value(x) for x in v]
    return v


def describe(parser: argparse.ArgumentParser) -> list[dict]:
    """Every argument of ``parser``, subcommands nested under ``commands``."""
    out = []
    for action in parser._actions:
        entry = {
            "options": list(action.option_strings),
            "dest": action.dest,
            "default": _value(parser.get_default(action.dest)),
            "type": _value(action.type),
            "nargs": action.nargs,
            "required": action.required,
        }
        if isinstance(action, argparse._SubParsersAction):
            entry["commands"] = {
                name: describe(sub) for name, sub in sorted(action.choices.items())
            }
        else:
            entry["choices"] = None if action.choices is None else _value(list(action.choices))
        out.append(entry)
    return out


def surface() -> dict:
    return {"repro": describe(build_parser()), "sweep_options": describe(sweep_options())}


def test_cli_surface_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert surface() == golden


if __name__ == "__main__":  # regenerate the golden
    GOLDEN.write_text(json.dumps(surface(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
