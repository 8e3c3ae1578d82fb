"""Every import in the package and in the tests is read by its module, every
private top-level name of the package is read somewhere in it, every field
of the package's records is read, and only geometry.py imports the Delaunay
kernel.

No linter ships with the project and the runtime is stdlib only, so this is
the unused-import check: the names a module binds by import against the
names it reads.  The package's __init__.py (its re-exports) and import lines
marked noqa are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [p for p in sorted((ROOT / "src" / "diskdraw").glob("*.py")) if p.name != "__init__.py"]
FILES += sorted((ROOT / "tests").glob("*.py"))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, including those quoted in strings."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
        elif isinstance(sub, ast.Name):
            names.add(sub.id)
    return names


def unused_imports(source: str) -> list[str]:
    """'line: name' for each name bound by an import that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_honours_noqa_and_annotations():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os  # noqa: F401\n"
        "import os.path as osp\n"
        "from typing import Sequence\n"
        "from x import (\n"
        "    a,\n"
        "    b,  # noqa: F401\n"
        ")\n"
        "def f(v: 'Sequence[int]'):\n"
        "    return a\n"
    )
    assert unused_imports(source) == ["2: math", "4: osp"]


def imports_delaunay(source: str) -> bool:
    """Does the module import from the package's delaunay module?"""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("delaunay", "diskdraw.delaunay") or (
                    node.level and not node.module and any(a.name == "delaunay" for a in node.names)):
                return True
        elif isinstance(node, ast.Import) and any(a.name == "diskdraw.delaunay" for a in node.names):
            return True
    return False


def test_only_geometry_imports_delaunay():
    """The triangulation is geometry's: other modules ask LargestEmptyCircle."""
    package = sorted((ROOT / "src" / "diskdraw").glob("*.py"))
    assert [p.name for p in package if imports_delaunay(p.read_text())] == ["geometry.py"]
    assert imports_delaunay("from . import delaunay\n")
    assert imports_delaunay("import diskdraw.delaunay as d\n")
    assert not imports_delaunay("from .geometry import LargestEmptyCircle\n")


def _private_definitions(tree: ast.Module):
    """(name, statement) for each private top-level def, class or assignment."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            targets = [n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _read_names(node: ast.AST) -> set[str]:
    """Names node reads: loaded names, attributes and names imported from a module."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_private_names(modules: dict[str, str]) -> list[str]:
    """'module: name' for each private top-level name of modules ({module:
    source}) that no other top-level statement of any of them reads."""
    trees = {label: ast.parse(source) for label, source in modules.items()}
    reads = [(stmt, _read_names(stmt)) for tree in trees.values() for stmt in tree.body]
    dead = []
    for label, tree in trees.items():
        for name, stmt in _private_definitions(tree):
            if not any(name in names for other, names in reads if other is not stmt):
                dead.append(f"{label}: {name}")
    return dead


def test_no_dead_private_names():
    package = {p.name: p.read_text() for p in sorted((ROOT / "src" / "diskdraw").glob("*.py"))}
    assert unreferenced_private_names(package) == []


def test_dead_code_checker():
    modules = {
        "a": ("def _used():\n    return 1\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "_TABLE, _OTHER = {}, []\n"
              "_STORED = 0\n"
              "__dunder__ = 1\n"),
        "b": ("from .a import _used\n"
              "def f(m):\n    global _STORED\n    _STORED = m._TABLE\n"),
    }
    assert unreferenced_private_names(modules) == ["a: _recursive", "a: _OTHER", "a: _STORED"]


def _is_record(cls: ast.ClassDef) -> bool:
    """Is the class a dataclass or a NamedTuple?"""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    names = [n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", "") for n in decorators + cls.bases]
    return "dataclass" in names or "NamedTuple" in names


def unread_fields(package: dict[str, str], readers: list[str]) -> list[str]:
    """'module: Class.field' for each field that a dataclass or NamedTuple of
    package ({module: source}) declares and that no source of readers (which
    should include the package) reads as an attribute of anything."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for label, source in package.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and _is_record(cls):
                unread += [f"{label}: {cls.name}.{stmt.target.id}" for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                           and stmt.target.id not in read and "ClassVar" not in ast.unparse(stmt.annotation)]
    return unread


def test_every_record_field_is_read():
    """A field that nothing reads is a value the package computes for no one."""
    package = {p.name: p.read_text() for p in sorted((ROOT / "src" / "diskdraw").glob("*.py"))}
    others = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    assert unread_fields(package, list(package.values()) + [p.read_text() for p in others]) == []


def test_unread_field_checker():
    package = {"m": ("from dataclasses import dataclass\n"
                     "from typing import ClassVar, NamedTuple\n"
                     "@dataclass(frozen=True)\n"
                     "class A:\n    used: int\n    stored: str = ''\n    shared: ClassVar[int] = 0\n"
                     "class B(NamedTuple):\n    x: float\n    y: float\n"
                     "class C:\n    plain: int = 0\n")}
    readers = list(package.values()) + ["def f(a, b):\n    b.y = 1\n    return a.used + b.x\n"]
    assert unread_fields(package, readers) == ["m: A.stored", "m: B.y"]
