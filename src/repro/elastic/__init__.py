"""repro.elastic: cluster membership for the simulated cluster.

Stateless workers pull block work from the static *slot* topology and may
join or leave between (and during) stages, driven by a seeded
deterministic membership timeline (the ``--elastic`` grammar); a static
cluster is the timeline with no events.  The pool is owned by every
:class:`~repro.rdd.context.ClusterContext`, which also applies its
transitions between stage-graph nodes.  See
``docs/elastic.md`` for the membership grammar, the slot/member split,
the elasticity policies and the determinism contract.
"""

from repro._exports import export_table

_EXPORTS = {
    "CostCappedPolicy": "repro.elastic.policies",
    "FixedPolicy": "repro.elastic.policies",
    "LoadTrackingPolicy": "repro.elastic.policies",
    "timeline_spec": "repro.elastic.policies",
    "ElasticPool": "repro.elastic.pool",
    "Transition": "repro.elastic.pool",
    "ElasticEvent": "repro.elastic.spec",
    "parse_elastic_spec": "repro.elastic.spec",
    "ElasticSpecError": "repro.errors",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
