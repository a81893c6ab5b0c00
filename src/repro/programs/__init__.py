"""The paper's benchmark applications as matrix programs (Appendix A)."""

from repro._exports import export_table

_EXPORTS = {
    "build_cf_program": "repro.programs.cf",
    "build_gnmf_program": "repro.programs.gnmf",
    "build_jacobi_program": "repro.programs.jacobi",
    "split_system": "repro.programs.jacobi",
    "build_linreg_program": "repro.programs.linreg",
    "build_logreg_program": "repro.programs.logreg",
    "build_pagerank_program": "repro.programs.pagerank",
    "build_power_iteration_program": "repro.programs.power_iteration",
    "build_ridge_program": "repro.programs.ridge",
    "build_svd_program": "repro.programs.svd",
    "singular_values": "repro.programs.svd",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
