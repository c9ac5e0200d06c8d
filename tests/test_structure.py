"""The routes share nothing beyond ring arithmetic.

The series route (series.py), the minor-sum and determinant routes
(hessenberg.py) and the closed-form, convolution and recurrence routes
(sequences.py) may import only the ring core, poly.py, which alone
defines ring arithmetic.  A route that called another route's code
would no longer check it independently.  Three routes share
sequences.py, so the same rule is also checked per function: the hfib
functions and classes each route's entry point reaches, outside the
ring core, belong to that route alone.
"""
from __future__ import annotations

import ast
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

import hfib
from hfib import HessMatrix, Poly, QuadExt, Series, TPoly
from hfib.poly import Dense, Value

PACKAGE = Path(hfib.__file__).parent

RING_CORE = {"poly"}

ROUTES = {
    "closed form": ("sequences", "convolved_closed_form"),
    "convolution": ("sequences", "convolved_convolution"),
    "recurrence": ("sequences", "convolved_recurrence"),
    "series": ("series", "convolved_series"),
    "minor sums": ("hessenberg", "sum_principal_minors"),
}

ALLOWED = {
    "series.py": {"poly"},
    "hessenberg.py": {"poly"},
    "sequences.py": {"poly"},
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


def module_definitions(package: Path) -> dict[tuple[str, str], tuple[ast.AST, dict]]:
    """(module, name) of each top-level hfib function and class, mapped
    to its node and to the names its module binds: its own definitions
    and what it imports from sibling modules, as (module, name).
    """
    found = {}
    for path in sorted(package.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        scope = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope[node.name] = (module, node.name)
            elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                for alias in node.names:
                    scope[alias.asname or alias.name] = (node.module, alias.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[module, node.name] = (node, scope)
    return found


def route_closure(definitions, entry: tuple[str, str]) -> set[tuple[str, str]]:
    """The hfib functions and classes outside the ring core that `entry`
    names, directly or through what they name in turn."""
    seen, todo = set(), [entry]
    while todo:
        key = todo.pop()
        if key in seen or key[0] in RING_CORE or key not in definitions:
            continue  # a constant is neither a function nor a class
        seen.add(key)
        node, scope = definitions[key]
        for name in ast.walk(node):
            if isinstance(name, ast.Name) and name.id in scope:
                todo.append(scope[name.id])
    return seen


def test_routes_reach_disjoint_functions():
    definitions = module_definitions(PACKAGE)
    closures = {route: route_closure(definitions, entry) for route, entry in ROUTES.items()}
    assert ("hessenberg", "_kept_minors") in closures["minor sums"]
    # route 5 is off the determinant kernel
    assert ("hessenberg", "_leading_minors") not in closures["minor sums"]
    assert ("sequences", "_conv_sum") in closures["convolution"]  # the walk follows calls
    for first, second in combinations(sorted(closures), 2):
        shared = closures[first] & closures[second]
        assert not shared, (first, second, shared)


def test_tpoly_is_not_a_poly():
    # the benchmark counts Poly's own operations apart from TPoly's
    assert not issubclass(TPoly, Poly)


@pytest.mark.parametrize("cls", [Poly, TPoly, QuadExt, Series, HessMatrix], ids=lambda cls: cls.__name__)
def test_the_value_protocol_is_defined_once(cls):
    # immutability, equality and hashing live in Value alone
    protocol = {"__setattr__", "__eq__", "__hash__"}
    assert protocol <= vars(Value).keys()
    assert issubclass(cls, Value)
    for base in cls.__mro__[:cls.__mro__.index(Value)]:
        own = protocol & vars(base).keys()
        assert not own, (base.__name__, own)


def test_series_is_not_dense():
    # a Series keeps its trailing zeros, and Dense products stay countable apart from it
    assert not issubclass(Series, Dense)


def test_cli_import_loads_neither_dataclasses_nor_csv():
    # every command pays for what `import hfib.cli` loads
    probe = "import sys, hfib.cli; print(sorted({'dataclasses', 'csv'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_the_ring_core_packs_ints():
    # the packed layout of Z[h] is one decision, made in poly.py alone
    packing = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes"):
                packing.add(path.stem)
    assert packing == {"poly"}


def test_only_the_ring_core_defines_ring_arithmetic():
    # Series.__pow__ is route 4's power recurrence, not ring arithmetic
    found = {
        (path.stem, node.name, item.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__add__", "__sub__", "__mul__", "__neg__")
    }
    assert {module for module, _, _ in found} == {"poly"}, found


def test_the_public_names_are_what_the_package_imports():
    # __all__ is built from __init__'s own names, so a stray import there
    # would become public API unnoticed
    namespace = {}
    exec("from hfib import *", namespace)
    namespace.pop("__builtins__")
    assert len(set(hfib.__all__)) == len(hfib.__all__)
    assert namespace.keys() == set(hfib.__all__)
    for name in hfib.__all__:
        value = getattr(hfib, name)
        assert not isinstance(value, ModuleType), name
        # a class or function names its module; H, ONE and ZERO are Polys
        module = value.__module__ if isinstance(value, (type, FunctionType)) else type(value).__module__
        assert module.partition(".")[0] == "hfib", (name, module)
