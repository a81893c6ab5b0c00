"""Export tables: a package names what it exports and loads it on first use.

Every package ``__init__`` of :mod:`repro` is a table, not a list of
imports::

    _EXPORTS = {
        "ClusterConfig": "repro.config",
        "structural_key": "repro.planopt.structural:step_structural_key",
    }
    __all__ = sorted(_EXPORTS)
    __getattr__, __dir__ = export_table(__name__, _EXPORTS)

A key is the exported name; its value is the module that defines it,
plus the name there after a colon for an alias.  Importing one module of a
package therefore runs none of its siblings: ``import repro.core.plan``
loads the plan module and what it imports, not the planner, the executor
and the visualiser beside it.  ``repro.core.Plan`` or ``from repro.core
import Plan`` loads ``repro.core.plan`` on first access (PEP 562).

The package looks a name up again on every access, so patch a name where
it is defined: ``repro.core.Plan`` then sees a patch of
``repro.core.plan.Plan``, while a module that ran ``from repro.core.plan
import Plan`` before the patch keeps what it bound.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable


class ExportingPackage(types.ModuleType):
    """A package on which an exported name outranks a submodule's name.

    Importing a submodule binds it on its package.  Three exports share
    their name with the submodule that defines them (``repro.rdd.shuffle``,
    ``repro.trace.reconcile``, ``repro.verify.certify``); the exported
    function keeps the name whichever of the two is imported first.
    """

    def __setattr__(self, name: str, value: object) -> None:
        exported = name in self.__dict__.get("__all__", ())
        if exported and value is sys.modules.get(f"{self.__name__}.{name}"):
            return
        super().__setattr__(name, value)


def export_table(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` that serve ``exports``;
    ``package``, whose ``__all__`` is already set, becomes an
    :class:`ExportingPackage`."""
    module = sys.modules[package]
    module.__class__ = ExportingPackage

    def __getattr__(name: str) -> Any:
        target = exports.get(name)
        if target is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module_name, __, attribute = target.partition(":")
        return getattr(importlib.import_module(module_name), attribute or name)

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(exports))

    return __getattr__, __dir__
