"""repro.runtime: the stage-graph execution runtime.

The package splits the old monolithic executor into composable parts:

* :mod:`~repro.runtime.graph`     -- :class:`StageGraph`, the inter-stage
  dependency DAG recovered from ``schedule_stages`` output;
* :mod:`~repro.runtime.scheduler` -- concurrent dispatch of ready stages
  with critical-path simulated time;
* :mod:`~repro.runtime.registry`  -- the operator table shared by the
  executor, planner, lint and visualiser;
* :mod:`~repro.runtime.backend`   -- :class:`SimulatedBackend`, the
  physical operators the kernels call on the metered in-process cluster;
* :mod:`~repro.runtime.resources` -- refcounted matrix lifetimes;
* :mod:`~repro.runtime.metering`  -- per-stage charge attribution;
* :mod:`~repro.runtime.executor`  -- :class:`PlanExecutor`, tying it all
  together.

Low-level modules such as :mod:`repro.rdd.clock` import
:mod:`repro.runtime.metering` while the higher runtime modules import the
clock, so an eager package ``__init__`` would create an import cycle; like
every package here, this one is an export table (:mod:`repro._exports`).
"""

from repro._exports import export_table

_EXPORTS = {
    "SimulatedBackend": "repro.runtime.backend",
    "ExecutionResult": "repro.runtime.executor",
    "ExecutionState": "repro.runtime.executor",
    "PlanExecutor": "repro.runtime.executor",
    "evaluate_scalar": "repro.runtime.executor",
    "StageGraph": "repro.runtime.graph",
    "StageNode": "repro.runtime.graph",
    "StageMeter": "repro.runtime.metering",
    "active_meter": "repro.runtime.metering",
    "metered": "repro.runtime.metering",
    "OPERATORS": "repro.runtime.registry",
    "spec_for": "repro.runtime.registry",
    "spec_for_op": "repro.runtime.registry",
    "ResourceManager": "repro.runtime.resources",
    "SchedulerReport": "repro.runtime.scheduler",
    "StageScheduler": "repro.runtime.scheduler",
    "StageTiming": "repro.runtime.scheduler",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
