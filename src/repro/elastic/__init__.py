"""repro.elastic: cluster membership for the simulated cluster.

Stateless workers pull block work from the static *slot* topology and may
join or leave between (and during) stages, driven by a seeded
deterministic membership timeline (the ``--elastic`` grammar); a static
cluster is the timeline with no events.  The pool is owned by every
:class:`~repro.rdd.context.ClusterContext` and its transitions are applied
by :class:`~repro.runtime.backend.SimulatedBackend`.  See
``docs/elastic.md`` for the membership grammar, the slot/member split,
the elasticity policies and the determinism contract.
"""

from repro.elastic.policies import (
    CostCappedPolicy,
    ElasticityPolicy,
    FixedPolicy,
    LoadTrackingPolicy,
    timeline_spec,
)
from repro.elastic.pool import ElasticPool, Transition
from repro.elastic.spec import EVENT_KINDS, ElasticEvent, parse_elastic_spec
from repro.errors import ElasticSpecError

__all__ = [
    "EVENT_KINDS",
    "CostCappedPolicy",
    "ElasticEvent",
    "ElasticPool",
    "ElasticityPolicy",
    "FixedPolicy",
    "LoadTrackingPolicy",
    "Transition",
    "parse_elastic_spec",
    "ElasticSpecError",
    "timeline_spec",
]
