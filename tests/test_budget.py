"""The code size of src/hfib, held to a committed budget.

Every CLI command compiles the package again where bytecode is not
cached, so code lines cost command time; docstrings, comments and blank
lines cost almost none and are not counted.  Each module's count of
code lines may not exceed its entry in budget.json.  A change that
shrinks a module lowers its entry; one that grows it raises the entry
and says why.
"""
from __future__ import annotations

import ast
import io
import json
import tokenize
from pathlib import Path

import hfib

PACKAGE = Path(hfib.__file__).parent
BUDGET = Path(__file__).with_name("budget.json")

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Lines that hold a token of code and are not part of a docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def test_code_lines_counts_neither_docstrings_nor_comments():
    source = '''"""Module
docstring."""

# a comment
def f(x):  # code, with a comment
    """Docstring."""
    s = """not a
docstring"""
    return s
'''
    assert code_lines(source) == 4  # def, the two lines of s, return


def test_each_module_keeps_to_its_code_line_budget():
    budget = json.loads(BUDGET.read_text())["code_lines"]
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert counts.keys() == budget.keys()  # a new or deleted module updates the budget
    over = {name: (count, budget[name]) for name, count in counts.items() if count > budget[name]}
    assert not over, over
