"""What a process loads: every package ``__init__`` is an export table.

Each check runs in a new interpreter, since in this one an earlier test has
long since imported whatever it used (docs/architecture.md "What a process
loads").
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]


#: Exported functions that share their name with the module defining them.
CLASHES = (
    ("repro.rdd", "shuffle"),
    ("repro.trace", "reconcile"),
    ("repro.verify", "certify"),
)

#: Each clashing name is the function, whether its module was imported
#: before the package resolved the name or after.
MODULE_FIRST = "".join(
    f"import {package}.{name}\n"
    f"from {package} import {name} as f\n"
    f"assert callable(f) and f.__module__ == '{package}.{name}', f\n"
    for package, name in CLASHES
)
NAME_FIRST = "".join(
    f"from {package} import {name} as f\n"
    f"import {package}.{name}\n"
    f"assert {package}.{name} is f and not isinstance(f, type(sys)), f\n"
    for package, name in CLASHES
)


@functools.cache
def loaded_after(statements: str, then: str = "") -> tuple[str, ...]:
    """The ``repro`` modules a new interpreter holds after ``statements``
    (``then`` runs next, in the same interpreter, and must not raise)."""
    script = (
        f"import json, sys\n{statements}\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'repro')\n"
        f"{then}\n"
        "print(json.dumps(loaded))"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def test_a_bare_import_loads_the_package_and_its_table_helper():
    assert loaded_after("import repro", NAME_FIRST) == ("repro", "repro._exports")


#: Layers the benchmark's imports used to load and none of its jobs runs
#: until it asks for them.
OPTIONAL = (
    "repro.faults",
    "repro.serve.daemon",
    "repro.serve.client",
    "repro.serve.batch",
    "repro.serve.report",
    "repro.lint.rules",
    "repro.lint.selftest",
    "repro.baselines.systemml",
    "repro.core.optimal",
    "repro.core.viz",
    "repro.trace.collector",
    "repro.trace.export",
)
ENTRY_POINTS = """
from repro import ClusterConfig, DMacSession
from repro.planopt import optimize_plan
from repro.lint import lint_plan
from repro.verify import verify_plan
from repro.serve import MatrixService
"""


def test_the_public_entry_points_load_no_optional_layer():
    loaded = loaded_after(ENTRY_POINTS, MODULE_FIRST)
    assert "repro.session" in loaded and "repro.serve.service" in loaded
    unwanted = [m for m in loaded if m.startswith(OPTIONAL)]
    assert unwanted == []


def test_planning_loads_no_service_fault_lint_verify_or_trace_layer():
    loaded = loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['plan', 'svd']) == 0"
    )
    assert "repro.core.planner" in loaded
    layers = ("repro.serve", "repro.faults", "repro.lint", "repro.verify", "repro.trace")
    unwanted = [m for m in loaded if m.startswith(layers)]
    assert unwanted == ["repro.trace", "repro.trace.emit"]


def test_a_function_keeps_its_name_over_its_module_in_either_import_order():
    """The two interpreters above run the checks after taking their count."""
    loaded_after("import repro", NAME_FIRST)
    loaded_after(ENTRY_POINTS, MODULE_FIRST)


def test_predicting_memory_loads_neither_the_certifier_nor_the_shape_analysis():
    """The bound reads the hazard module's ancestor masks; only
    ``find_hazards`` needs the certifier's value summary."""
    loaded = loaded_after("import repro.verify.memory")
    assert "repro.verify.hazards" in loaded
    unwanted = [m for m in loaded if m in ("repro.verify.certify", "repro.verify.analysis")]
    assert unwanted == []
