import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        "a bare string statement"
        text = """a string
in an expression"""
        return math.sqrt(x) + len(
            text
        )
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_counts_code_tokens_only():
    # import, class, def, the two lines of the string assigned to text, and
    # the three lines of the return statement; docstrings, the bare string,
    # comments and blank lines do not count
    tool = load_tool()
    assert tool.code_lines(SNIPPET) == 8
    assert tool.code_lines("") == 0
    assert tool.code_lines('"""only a docstring"""\n') == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    tool = load_tool()
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["8", "a.py"], ["2", "pkg/b.py"], ["10", "total"]]
