#!/usr/bin/env python3
"""Every package's export table resolves, and every exported name has a reader.

    python scripts/check_exports.py

For ``repro`` and each of its subpackages, a fresh process imports the
package alone, resolves every name of its ``__all__``, and checks that
``dir()`` lists the name and that no name resolves to a module (a function
that shares its name with its own module must keep the name).  A test run
cannot see a broken entry once an earlier test has imported the module it
names; a new interpreter can.

Then every name of every table needs a *reader*: something outside the
tests that imports the object it resolves to, from the package or from
wherever else it can be imported:

* a module of ``src/`` other than the one defining it (the tables
  themselves do not count);
* a file of ``benchmarks/``, ``examples/`` or ``scripts/``;
* a code example (a ``from repro... import ...`` line, fenced or inline)
  in ``README.md``, ``docs/`` or ``.claude/skills/``.

A name only tests read belongs in its defining module, not in a table:
tests import it from there.  Exit 1 on the first package that fails to
resolve, or when any exported name has no reader.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys
import types
from collections.abc import Iterator

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CHECK = """
import importlib, sys, types
package = importlib.import_module(sys.argv[1])
listed = dir(package)
for name in package.__all__:
    value = getattr(package, name)
    assert name in listed, f"dir() does not list {name}"
    assert not isinstance(value, types.ModuleType), f"{name} resolves to a module"
print(f"ok {package.__name__}: {len(package.__all__)} names")
"""

#: Python files whose imports count as readers (``src`` minus the tables).
CODE = ("src", "benchmarks", "examples", "scripts")
#: Prose whose code examples count as readers.
PROSE = ("README.md", "docs", ".claude/skills")

_PROSE_IMPORT = re.compile(r"from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[\w ,]+)")


def packages() -> list[str]:
    return sorted(
        ".".join(("repro", *init.parent.relative_to(SRC / "repro").parts))
        for init in (SRC / "repro").rglob("__init__.py")
    )


def _resolve(module: str, name: str) -> object | None:
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        try:
            return importlib.import_module(f"{module}.{name}")
        except ImportError:
            return None


def _code_reads(path: pathlib.Path) -> Iterator[tuple[str, object]]:
    """What a Python file imports from ``repro``, as ``(name, value)``: each
    ``from X import N`` and, for a module bound that way, each ``alias.N``
    it reads."""
    tree = ast.parse(path.read_text(), str(path))
    modules: dict[str, types.ModuleType] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                value = _resolve(node.module, alias.name)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
                elif value is not None:
                    yield alias.name, value
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            value = getattr(modules[node.value.id], node.attr, None)
            if value is not None:
                yield node.attr, value


def _prose_reads(path: pathlib.Path) -> Iterator[tuple[str, object]]:
    for module, names in _PROSE_IMPORT.findall(path.read_text()):
        for name in re.findall(r"\w+", names):
            value = _resolve(module, name)
            if value is not None:
                yield name, value


def _sources() -> Iterator[tuple[pathlib.Path, Iterator[tuple[str, object]]]]:
    for top in CODE:
        for path in sorted((ROOT / top).rglob("*.py")):
            if top == "src" and path.name == "__init__.py":
                continue  # a table is not a reader of itself
            yield path, _code_reads(path)
    for top in PROSE:
        root = ROOT / top
        for path in [root] if root.is_file() else sorted(root.rglob("*.md")):
            yield path, _prose_reads(path)


def unread_names() -> list[str]:
    """``package.name`` for each table entry nothing outside the tests reads."""
    tables = {package: importlib.import_module(package) for package in packages()}
    readers: dict[int, set[tuple[str, pathlib.Path]]] = {}
    for path, reads in _sources():
        for name, value in reads:
            readers.setdefault(id(value), set()).add((name, path.resolve()))
    unread = []
    for package, table in tables.items():
        for name, target in table._EXPORTS.items():
            module, __, attribute = target.partition(":")
            value = getattr(table, name)
            # A module's own uses of what it defines do not count, and an
            # equal number or string elsewhere is not this constant.
            names = {name, attribute} if isinstance(value, (int, float, str)) else None
            defining = pathlib.Path(sys.modules[module].__file__).resolve()
            if not any(
                path != defining and (names is None or read in names)
                for read, path in readers.get(id(value), ())
            ):
                unread.append(f"{package}.{name}")
    return unread


def main() -> int:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    for package in packages():
        done = subprocess.run(
            [sys.executable, "-c", CHECK, package],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        sys.stdout.write(done.stdout)
        if done.returncode:
            print(f"FAILED {package}:\n{done.stderr}")
            return 1
    sys.path.insert(0, str(SRC))
    unread = unread_names()
    for name in unread:
        print(f"no reader: {name}")
    if unread:
        print(f"FAILED: {len(unread)} exported names have no reader outside tests/")
        return 1
    print("ok: every exported name has a reader")
    return 0


if __name__ == "__main__":
    sys.exit(main())
