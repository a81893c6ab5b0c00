#!/usr/bin/env python3
"""Every package's export table resolves, each package in a new interpreter.

    python scripts/check_exports.py

For ``repro`` and each of its subpackages, a fresh process imports the
package alone, resolves every name of its ``__all__``, and checks that
``dir()`` lists the name and that no name resolves to a module (a function
that shares its name with its own module must keep the name).  A test run
cannot see a broken entry once an earlier test has imported the module it
names; a new interpreter can.  Exit 1 on the first package that fails.
"""

import os
import pathlib
import subprocess
import sys

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


def main() -> int:
    packages = sorted(
        ".".join(("repro", *init.parent.relative_to(SRC / "repro").parts))
        for init in (SRC / "repro").rglob("__init__.py")
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    for package in packages:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
