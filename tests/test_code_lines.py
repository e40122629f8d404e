"""tools/code_lines.py counts code lines, not docstrings, comments or blank
lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_code():
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return (text,
                os.sep)
'''
    # import, class, def, the two lines of text, the two of return
    assert _tool().code_lines(source) == 7
