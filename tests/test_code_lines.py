from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    x = """a string that is no docstring
spans two lines"""

    def f(self):
        """Function docstring."""
        return math.pi


def g():
    return 1
'''


def test_counts_code_lines_only():
    # import, class, x's two lines, def f, return, def g, return
    assert code_lines.code_lines(FIXTURE) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert code_lines.main([str(tmp_path)]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["8", "1", "9"]
