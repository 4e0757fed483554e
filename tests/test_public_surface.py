"""The README and the demos describe the package and CLI that exist.

The package root exports exactly the names the demos and the README quick
start take from lybandit, plus the types those return or take and the
exceptions they raise; the README's CLI synopsis lists exactly the options
each subcommand takes.
"""

from __future__ import annotations

import argparse
import ast
import re
import types
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


# what the names the sources use return, take or raise
RESULT_TYPES = {"AggregateResult", "BanditPolicy", "CellStats", "EpisodeResult",
                "OracleSolution", "Outcome", "ScalingReport"}
EXCEPTIONS = {"DeltaOutOfRange", "EpisodeOverrun", "Infeasible", "SlaterViolation"}


def test_root_exports_exactly_what_the_sources_use():
    public = {name for name, value in vars(lybandit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    used = set().union(*(lybandit_names(source) for source in SOURCES.values()))
    assert public == used | RESULT_TYPES | EXCEPTIONS


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


def test_numeric_rule_lives_in_model():
    """Only ``model.py`` tests numbers for finiteness or for being real.

    Every other module validates a real-valued input through
    ``model.check_real``, so the rule has one implementation.
    """
    package = ROOT / "src" / "lybandit"
    rule = re.compile(r"math\.isfinite|_is_real")
    users = sorted(path.name for path in package.glob("*.py")
                   if rule.search(path.read_text(encoding="utf-8")))
    assert users == ["model.py"]


def test_delta_guard_lives_in_one_place():
    """``raise DeltaOutOfRange`` occurs once in the package.

    Every drift rule and the budget schedule tighten c through one guard, so
    the rule 0 <= delta < c has one implementation and one message.
    """
    package = ROOT / "src" / "lybandit"
    count = sum(path.read_text(encoding="utf-8").count("raise DeltaOutOfRange")
                for path in package.glob("*.py"))
    assert count == 1


def test_harness_uses_only_the_public_engine():
    """``harness.py`` imports no underscore-prefixed name from ``engine``.

    Chunking and stream sharing are the engine's; the harness only solves,
    aggregates and reports, so it needs none of the engine's private names.
    """
    tree = ast.parse((ROOT / "src" / "lybandit" / "harness.py").read_text(encoding="utf-8"))
    private = sorted(alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module
                     and node.module.split(".")[-1] == "engine"
                     for alias in node.names if alias.name.startswith("_"))
    assert private == []


def test_engine_workers_are_forked_children():
    """``engine.py`` imports neither ``multiprocessing`` nor ``concurrent``.

    Its workers are raw ``os.fork`` children writing into anonymous shared
    memory: a freshly spawned interpreter cost 0.17-0.26 s per worker, and
    ``multiprocessing.shared_memory`` needs ``/dev/shm`` and leaves a
    resource-tracker process running.
    """
    tree = ast.parse((ROOT / "src" / "lybandit" / "engine.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    assert modules and not [m for m in modules
                            if m.split(".")[0] in ("multiprocessing", "concurrent")]


def test_streams_are_derived_in_one_place():
    """``engine.py`` derives streams only through ``episode_rngs``, only in ``_Streams``.

    A chunk's streams are derived there once, for every cell and every
    block, so no cell gets a stream path of its own.
    """
    tree = ast.parse((ROOT / "src" / "lybandit" / "engine.py").read_text(encoding="utf-8"))
    streams = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "_Streams")
    inside = {id(node) for node in ast.walk(streams)}
    derivers = ("episode_rngs", "episode_env_rng", "episode_policy_rng", "SeedSequence",
                "default_rng", "PCG64")
    uses = [(node.lineno, name, id(node) in inside) for node in ast.walk(tree)
            for name in [getattr(node, "id", getattr(node, "attr", None))]
            if isinstance(node, (ast.Name, ast.Attribute)) and name in derivers]
    assert {name for _, name, _ in uses} == {"episode_rngs"}, uses
    assert all(within for _, _, within in uses), uses


def test_specs_meet_their_instance_in_build():
    """Only ``PolicySpec.build`` resolves a spec against its instance.

    It checks the arm fit and derives the bounds for theoretical exploration,
    so the harness reads no exploration setting and derives no bounds, and
    the engine checks no arm and needs no lazily drawn policy block.
    """
    def names(module):
        tree = ast.parse((ROOT / "src" / "lybandit" / module).read_text(encoding="utf-8"))
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add("." + node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                found.add(node.func.id + "(")
        return found

    assert not names("harness.py") & {"derive_bounds", ".derive_bounds", ".exploration"}
    assert not names("engine.py") & {"check_arms", ".check_arms", "cached_property",
                                     ".cached_property", "vars("}


def test_rules_own_their_tallies_and_the_flat_pull_index():
    """The engine builds each cell's rule in one place, and the rule owns its tallies.

    ``engine.py`` makes exactly one ``.build(`` call, so a chunk builds every
    cell once with no separate check pass.  It makes no ``.reshape(`` call
    and hands ``keep`` only the kept rows: the rule adds each pull to its own
    tallies and narrows them itself.  ``policies.py`` calls ``np.arange``
    once, in ``VectorPolicy.start``, the one layout of the flat (row, arm)
    index of each pull; and ``_combine`` adds the queue term through
    ``_score``, the one drift-plus-penalty score.
    """
    def calls(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def source(module):
        return ast.parse((ROOT / "src" / "lybandit" / module).read_text(encoding="utf-8"))

    def named(nodes, attr):
        return [n for n in nodes if isinstance(n.func, ast.Attribute) and n.func.attr == attr]

    def aranges(tree):
        return [n for n in named(calls(tree), "arange")
                if isinstance(n.func.value, ast.Name) and n.func.value.id == "np"]

    engine = calls(source("engine.py"))
    assert len(named(engine, "build")) == 1
    assert not named(engine, "reshape")
    assert [len(n.args) + len(n.keywords) for n in named(engine, "keep")] == [1]
    policies = source("policies.py")
    vector = next(node for node in policies.body
                  if isinstance(node, ast.ClassDef) and node.name == "VectorPolicy")
    start = next(node for node in vector.body
                 if isinstance(node, ast.FunctionDef) and node.name == "start")
    assert len(aranges(policies)) == len(aranges(start)) == 1
    combine = next(node for node in policies.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_combine")
    assert any(isinstance(n.func, ast.Name) and n.func.id == "_score" for n in calls(combine))
