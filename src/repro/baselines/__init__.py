"""Comparator systems: SystemML-S, ScaLAPACK, SciDB, single-machine R."""

from repro._exports import export_table

_EXPORTS = {
    "run_local": "repro.baselines.rlocal",
    "SystemRunResult": "repro.baselines.scalapack",
    "run_scalapack_matmul": "repro.baselines.scalapack",
    "run_scidb_matmul": "repro.baselines.scidb",
    "SystemMLSExecutor": "repro.baselines.systemml",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
