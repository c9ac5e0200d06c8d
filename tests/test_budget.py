"""The code size of src/hfib and the work of each verify check, held
to a committed budget.

Every CLI command compiles the package again where bytecode is not
cached, so code lines cost command time; docstrings, comments and blank
lines cost almost none and are not counted.  Each module's count of
code lines may not exceed its entry in budget.json.  Products are
exact where times are noisy: each verify check's count of ring
products at --r-max 8 --n-max 60 may not exceed its entry either.  A
change that shrinks a module or a count lowers its entry; one that
grows it raises the entry and says why.

    PYTHONPATH=src python tests/test_budget.py

prints the current counts as JSON in budget.json's shape, and writes
nothing: lowering an entry is a copy.
"""
from __future__ import annotations

import ast
import io
import json
import subprocess
import sys
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


def code_line_counts() -> dict[str, int]:
    return {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_each_module_keeps_to_its_code_line_budget():
    budget = json.loads(BUDGET.read_text())["code_lines"]
    counts = code_line_counts()
    assert counts.keys() == budget.keys()  # a new or deleted module updates the budget
    over = {name: (count, budget[name]) for name, count in counts.items() if count > budget[name]}
    assert not over, over


# Counts every Dense product (Poly and TPoly) and every int product of
# route 2 (n + 1 per packed term, as _conv_sum makes them), and charges
# each to the check that is running.  A fresh process and the fixed
# check order make the counts exact: the memo of fib and lucas starts
# empty.
PRODUCTS = """
import json
import hfib.sequences as seq
import hfib.verify as verify
from hfib.poly import Dense

counts = dict.fromkeys(sorted(dict(verify._CHECKS)), 0)
running = [None]
mul, conv_sum, run_check = Dense.__mul__, seq._conv_sum, verify._run_check

def counted_mul(a, b):
    counts[running[0]] += 1
    return mul(a, b)

def counted_sum(lower, base, n, shift):
    counts[running[0]] += n + 1
    return conv_sum(lower, base, n, shift)

def charged_check(check_id, *args):
    running[0] = check_id
    try:
        return run_check(check_id, *args)
    finally:
        running[0] = None

Dense.__mul__ = Dense.__rmul__ = counted_mul
seq._conv_sum = counted_sum
verify._run_check = charged_check
assert verify.run_suite(8, 60).all_passed
print(json.dumps(counts))
"""


def product_counts() -> dict[str, int]:
    proc = subprocess.run([sys.executable, "-c", PRODUCTS], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    return json.loads(proc.stdout)


def test_each_check_keeps_to_its_product_budget():
    budget = json.loads(BUDGET.read_text())["products"]
    counts = product_counts()
    assert counts.keys() == budget.keys()  # a new or deleted check updates the budget
    over = {check: (count, budget[check]) for check, count in counts.items() if count > budget[check]}
    assert not over, over


if __name__ == "__main__":
    print(json.dumps({"code_lines": code_line_counts(), "products": product_counts()}, indent=2))
