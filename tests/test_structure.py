"""The routes share nothing beyond ring arithmetic.

The series route (series.py), the minor-sum and determinant routes
(hessenberg.py) and the closed-form, convolution and recurrence routes
(sequences.py) may import only the ring core: poly.py, and quadext.py
for the sequences' root forms.  A route that called another route's
code would no longer check it independently.
"""
from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import hfib
from hfib import Poly, TPoly

PACKAGE = Path(hfib.__file__).parent

ALLOWED = {
    "series.py": {"poly"},
    "hessenberg.py": {"poly"},
    "sequences.py": {"poly", "quadext"},
}


def hfib_imports(path: Path) -> set[str]:
    """Names of the hfib modules a source file imports ("" for the package)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # from .poly import ..., from . import ...
                found.add(module)
            elif module.partition(".")[0] == "hfib":
                found.add(module.partition(".")[2])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "hfib":
                    found.add(alias.name.partition(".")[2])
    return found


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_route_modules_import_only_the_ring_core(name):
    imported = hfib_imports(PACKAGE / name)
    assert "poly" in imported  # the parse sees the imports at all
    assert imported <= ALLOWED[name], imported - ALLOWED[name]


def test_import_parser_sees_every_form(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import os\nimport hfib.cli\nfrom hfib import verify\n"
        "from .series import Series\nfrom . import parse\n"
    )
    assert hfib_imports(source) == {"cli", "", "series"}


def test_tpoly_is_not_a_poly():
    # the benchmark counts Poly's own operations apart from TPoly's
    assert not issubclass(TPoly, Poly)


def test_cli_import_loads_neither_dataclasses_nor_csv():
    # every command pays for what `import hfib.cli` loads
    probe = "import sys, hfib.cli; print(sorted({'dataclasses', 'csv'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
