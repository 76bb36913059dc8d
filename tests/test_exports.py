"""Every toricmirror module's public names resolve, star-import cleanly and are used."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import toricmirror

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(toricmirror.__path__) if m.name != "__main__"
)


def test_every_module_is_listed():
    assert {"cli", "engine", "gaussmanin", "linalg", "series", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", ["toricmirror"] + [f"toricmirror.{m}" for m in MODULES])
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


# Public names that nothing in the package or the demos reads, kept on purpose.
UNREFERENCED_EXPORTS = {
    "toricmirror.fans.pairing_d": "the reference for Context.translate",
    "toricmirror.cohomology.phi_product": "the Q^0 y^0 product test reads it",
}

SOURCES = sorted(Path(toricmirror.__file__).parent.glob("*.py")) + sorted(
    (Path(__file__).resolve().parents[1] / "demos").glob("*.py")
)
TREES = {path: ast.parse(path.read_text()) for path in SOURCES}


def _references(qual: str) -> int:
    """Loads of the name, bare or as module.name, outside its own top-level def."""
    modname, name = qual.rsplit(".", 1)
    module = importlib.import_module(modname)
    own, short = Path(module.__file__), modname.rsplit(".", 1)[1]
    count = 0
    for path, tree in TREES.items():
        inside = set()
        if path == own:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                    inside.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, ast.Name):
                count += node.id == name and isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                count += node.attr == name and node.value.id == short
    return count


@pytest.mark.parametrize("name", [f"toricmirror.{m}" for m in MODULES])
def test_every_export_is_used(name):
    # the package's own __all__ lists its submodules and is not checked here
    exported = getattr(importlib.import_module(name), "__all__", [])
    unused = [
        n
        for n in exported
        if f"{name}.{n}" not in UNREFERENCED_EXPORTS and not _references(f"{name}.{n}")
    ]
    assert unused == [], f"{name}.__all__ exports names nothing reads: {unused}"


@pytest.mark.parametrize("qual", sorted(UNREFERENCED_EXPORTS))
def test_unreferenced_exports_are_exported_and_unread(qual):
    modname, name = qual.rsplit(".", 1)
    assert name in importlib.import_module(modname).__all__
    assert _references(qual) == 0, f"{qual} is read now; drop it from the list"


# Classes whose public methods must be read, and the methods kept unread.
METHOD_CLASSES = [
    "toricmirror.series.HSeries",
    "toricmirror.series.OperatorSeries",
    "toricmirror.series.Context",
    "toricmirror.gaussmanin.NoneqRestriction",
]
UNREFERENCED_METHODS = {
    "toricmirror.series.HSeries.novikov": "tests build Novikov monomials with it",
    "toricmirror.series.OperatorSeries.apply": "the benchmark's tracer wraps it",
}


def _public_methods(qual: str) -> list[str]:
    modname, name = qual.rsplit(".", 1)
    cls = getattr(importlib.import_module(modname), name)
    return sorted(
        n for n, v in vars(cls).items()
        if not n.startswith("_")
        and (inspect.isfunction(v) or isinstance(v, (classmethod, staticmethod)))
    )


def _method_reads(qual: str) -> int:
    """Loads of .method on any object, outside the method's own def."""
    modname, clsname, name = qual.rsplit(".", 2)
    own = Path(importlib.import_module(modname).__file__)
    count = 0
    for path, tree in TREES.items():
        inside = set()
        if path == own:
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name == clsname:
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and item.name == name:
                            inside.update(id(n) for n in ast.walk(item))
        count += sum(
            isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.ctx, ast.Load) and id(node) not in inside
            for node in ast.walk(tree)
        )
    return count


@pytest.mark.parametrize("qual", METHOD_CLASSES)
def test_every_public_method_is_read(qual):
    unread = [
        n for n in _public_methods(qual)
        if f"{qual}.{n}" not in UNREFERENCED_METHODS and not _method_reads(f"{qual}.{n}")
    ]
    assert unread == [], f"{qual} has public methods nothing reads: {unread}"


@pytest.mark.parametrize("qual", sorted(UNREFERENCED_METHODS))
def test_unreferenced_methods_are_defined_and_unread(qual):
    cls, name = qual.rsplit(".", 1)
    assert name in _public_methods(cls)
    assert _method_reads(qual) == 0, f"{qual} is read now; drop it from the list"
