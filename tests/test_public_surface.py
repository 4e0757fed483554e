"""The README and the demos describe the package and CLI that exist.

Every name the demos and the README quick start take from lybandit exists,
and the README's CLI synopsis lists exactly the options each subcommand takes.
"""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

import pytest

import lybandit
from lybandit.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def quick_start() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def lybandit_names(source: str) -> set[str]:
    """Names imported from lybandit, or read as attributes of its alias."""
    tree = ast.parse(source)
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "lybandit":
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "lybandit")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in sorted((ROOT / "demos").glob("*.py"))}
SOURCES["README quick start"] = quick_start()


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_names_resolve(name):
    used = lybandit_names(SOURCES[name])
    assert used, f"{name} uses nothing from lybandit"
    missing = sorted(n for n in used if not hasattr(lybandit, n))
    assert missing == []


def readme_cli_flags() -> dict[str, set[str]]:
    """Subcommand -> the ``--flags`` on its line of the README's CLI block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n+```bash\n(.*?)```", readme, re.S).group(1)
    flags = {}
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["lybandit"]:
            flags[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def parser_flags() -> dict[str, set[str]]:
    """Subcommand -> the long options ``lybandit`` accepts for it."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: {opt for action in p._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, p in sub.choices.items()
    }


def test_readme_cli_synopsis_matches_parser():
    assert readme_cli_flags() == parser_flags()
