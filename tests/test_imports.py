"""Every name a package module imports is used there or re-exported."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "noncartan"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import in `source` that no other node reads and
    that `__all__` does not list."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_checker_flags_unused_and_spares_used_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport sys\nfrom a import b, c as d\n"
              "__all__ = ['d']\nprint(sys.argv)\n")
    assert unused_imports(source) == [(2, "os"), (4, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_a_reimport_leaves_no_old_module_alive():
    """Purging the package from sys.modules and importing it again
    leaves the old copies to the collector: no import-time typing
    subscript of an engine class keeps one in typing's cache."""
    import subprocess
    import sys

    probe = (
        "import gc, sys; sys.path.insert(0, %r); import noncartan\n"
        "for _ in range(3):\n"
        "    for name in [n for n in sys.modules\n"
        "                 if n.split('.')[0] == 'noncartan']:\n"
        "        del sys.modules[name]\n"
        "    import noncartan\n"
        "gc.collect()\n"
        "print(sum(isinstance(o, type) and o.__name__ == 'Expression'\n"
        "          and o.__module__ == 'noncartan.expr'\n"
        "          for o in gc.get_objects()))\n" % str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "1"
