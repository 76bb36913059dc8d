"""Every toricmirror module's public names resolve and star-import cleanly."""

import importlib
import pkgutil

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
