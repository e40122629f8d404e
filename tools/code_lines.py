"""Count the code lines of ``src/qlike``, per module and in total.

A code line is a line that holds at least one token of code: blank lines,
comment lines and the lines of docstrings (the leading string of a module,
class or function) are not counted.  Run from anywhere:

    python tools/code_lines.py [PACKAGE_DIR]
"""

import ast
import io
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of a module's source text."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in docs)
    return len(lines)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src", "qlike")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print("%-16s %5d" % (name, count))
    print("%-16s %5d" % ("total", total))


if __name__ == "__main__":
    main(sys.argv)
