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

from repro.serve.accounting import Accountant, TenantAccount
from repro.serve.admission import AdmissionController, AdmissionPolicy, Decision
from repro.serve.batch import parse_batch, run_batch, synthetic_batch
from repro.serve.client import RemoteClient, ServiceClient
from repro.serve.daemon import handle_request, serve_forever
from repro.serve.job import JobRecord, JobSpec, TenantSpec
from repro.serve.plancache import CacheEntry, PlanCache
from repro.serve.report import REPORT_SCHEMA_VERSION, build_report, render_report
from repro.serve.scheduler import StrideScheduler
from repro.serve.service import MatrixService, ServiceConfig

__all__ = [
    "Accountant",
    "AdmissionController",
    "AdmissionPolicy",
    "CacheEntry",
    "Decision",
    "JobRecord",
    "JobSpec",
    "MatrixService",
    "PlanCache",
    "REPORT_SCHEMA_VERSION",
    "RemoteClient",
    "ServiceClient",
    "ServiceConfig",
    "StrideScheduler",
    "TenantAccount",
    "TenantSpec",
    "build_report",
    "handle_request",
    "parse_batch",
    "render_report",
    "run_batch",
    "serve_forever",
    "synthetic_batch",
]
