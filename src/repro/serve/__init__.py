"""Multi-tenant serving layer over the DMac execution engine.

``repro serve`` turns the single-program session API into a long-running
service: tenants share one simulated cluster under weighted fair (stride)
scheduling, every submission passes cost-model + verifier admission
control, structurally identical programs reuse cached plans, and every
byte/flop/simulated-second is accounted to the tenant that caused it.
Reports are byte-identical across same-seed runs.

Entry points: :class:`MatrixService` (+ :class:`ServiceClient`) in
process, ``repro serve`` / ``repro submit`` on the command line, and
:func:`run_batch` for scripted batches.
"""

from repro._exports import export_table

_EXPORTS = {
    "Accountant": "repro.serve.accounting",
    "AdmissionController": "repro.serve.admission",
    "AdmissionPolicy": "repro.serve.admission",
    "Decision": "repro.serve.admission",
    "parse_batch": "repro.serve.batch",
    "run_batch": "repro.serve.batch",
    "RemoteClient": "repro.serve.client",
    "ServiceClient": "repro.serve.client",
    "serve_forever": "repro.serve.daemon",
    "JobRecord": "repro.serve.job",
    "JobSpec": "repro.serve.job",
    "TenantSpec": "repro.serve.job",
    "CacheEntry": "repro.serve.plancache",
    "PlanCache": "repro.serve.plancache",
    "build_report": "repro.serve.report",
    "render_report": "repro.serve.report",
    "StrideScheduler": "repro.serve.scheduler",
    "MatrixService": "repro.serve.service",
    "ServiceConfig": "repro.serve.service",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
