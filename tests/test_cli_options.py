"""The option table of every leaf subcommand, pinned.

Shared flags come from argparse parent parsers, which share their action
objects between subcommands: a per-command ``set_defaults`` on one would
rewrite the default of every other. This table catches that, and any other
change to an option's strings, dest, default, required flag, choices, action
or type, or to a subcommand's handler. A change that alters the CLI on purpose
rewrites the table with

    PYTHONPATH=src python3 tests/test_cli_options.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from unitforge.cli import build_parser

TABLE = Path(__file__).parent / "data" / "cli_options.json"


def leaves(parser: argparse.ArgumentParser, path: str = ""):
    """(command path, parser) for every subcommand that has no subcommands."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path.strip(), parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from leaves(sub, f"{path} {name}")


def option(action: argparse.Action) -> dict:
    return {
        "options": action.option_strings,
        "dest": action.dest,
        "default": action.default,
        "required": action.required,
        "choices": None if action.choices is None else list(action.choices),
        "action": type(action).__name__,
        "type": None if action.type is None else action.type.__name__,
    }


def option_table() -> dict:
    return {
        path: {
            "func": parser.get_default("func").__name__,
            "options": sorted((option(a) for a in parser._actions),
                              key=lambda entry: entry["options"]),
        }
        for path, parser in leaves(build_parser())
    }


def test_every_leaf_keeps_its_options_and_handler():
    table = json.loads(json.dumps(option_table()))
    assert len(table) == 15
    assert table == json.loads(TABLE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    table = option_table()
    rows = [f' {json.dumps(path)}: {{"func": {json.dumps(entry["func"])}, "options": [\n'
            + ",\n".join(f"  {json.dumps(o)}" for o in entry["options"]) + "]}"
            for path, entry in table.items()]  # one option a line
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote the options of {len(table)} subcommands to {TABLE}", file=sys.stderr)
