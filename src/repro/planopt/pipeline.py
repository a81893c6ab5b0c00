"""The optimizer pipeline: ordered passes over a cloned plan.

:func:`optimize_plan` is the one entry point the session and CLI use.  It
never mutates the plan it is given: passes run on a clone, and the clone
comes back stage-scheduled with a fresh ``predicted_bytes`` (priced by the
same :class:`~repro.core.cost.CostModel` every trial rewrite was costed
with) and an ``AppliedRewrite`` audit trail in ``plan.rewrites``.

The default pipeline starts with chain association
(:mod:`repro.planopt.associate`), which chooses the program the other
passes optimize: the one rewrite that changes the program, and so the only
one whose result may differ from the unoptimized plan's in the last bits.
It then interleaves CSE, repartition coalescing, replicated products
(:mod:`repro.planopt.replicate`) and dead-step elimination to a fixpoint
-- coalescing exposes new common subexpressions and strands dead
conversions, so one round is rarely enough -- then runs loop-invariant
hoisting once the surviving step set is final, and finally cellwise
fusion (:mod:`repro.planopt.fuse`), which must see the final cache-pin set
and whose fused chain payloads no renaming pass may touch.

The passes and their order are the table :data:`PASSES`; ``passes=``
names the subset of it to run, always in the table's order.
"""

from __future__ import annotations

import collections

from repro.core.cost import CostModel
from repro.core.plan import Plan
from repro.core.stages import schedule_stages
from repro.errors import PlanError
from repro.planopt.associate import reassociate
from repro.planopt.coalesce import coalesce_repartitions
from repro.planopt.common import AppliedRewrite, clone_plan
from repro.planopt.cse import eliminate_common_steps
from repro.planopt.dce import eliminate_dead_steps
from repro.planopt.fuse import fuse_chains
from repro.planopt.hoist import pin_loop_invariants
from repro.planopt.index import PlanIndex
from repro.planopt.replicate import replicate_products

#: Cap on CSE/coalesce/DCE fixpoint rounds.
MAX_PIPELINE_ROUNDS = 3

#: Every optimizer pass, in the order the pipeline runs them.
PASSES = ("associate", "cse", "coalesce", "replicate", "dce", "hoist", "fuse")

#: The passes that run once, after the fixpoint rounds.  Fusion runs dead
#: last: it must see the final cache-pin set, and the instance-renaming
#: passes cannot see inside a fused chain payload.
_FINAL = ("hoist", "fuse")

#: Each step rewrite, called on the plan, the pipeline's one index (kept in
#: sync by every pass's mutations) and the cost models of the plan's
#: program under the planning mode and under the opposite sparsity model.
_REWRITES = {
    "cse": lambda plan, index, cost, cross: eliminate_common_steps(plan, index),
    "coalesce": lambda plan, index, cost, cross: coalesce_repartitions(
        plan, cost=cost, cross_cost=cross, index=index
    ),
    "replicate": lambda plan, index, cost, cross: replicate_products(plan, cost, index),
    "dce": lambda plan, index, cost, cross: eliminate_dead_steps(plan, index),
    "hoist": lambda plan, index, cost, cross: pin_loop_invariants(plan, index),
    "fuse": lambda plan, index, cost, cross: fuse_chains(plan, index),
}


def optimize_plan(
    plan: Plan,
    *,
    num_workers: int,
    estimation_mode: str = "worst",
    passes: tuple[str, ...] | None = None,
    counters: collections.Counter | None = None,
) -> Plan:
    """Run the pass pipeline; returns a new, stage-scheduled plan.

    ``passes`` names the passes to run (default: all of :data:`PASSES`);
    an unknown name raises :class:`~repro.errors.PlanError`.  With
    ``associate`` among them, a plan whose product chains are out of
    flop-minimal order is also planned reassociated -- one extra planner
    run -- and that plan, run through the rest of the pipeline, is
    returned instead when it ships no more bytes and does fewer flops.  It
    then leads its rewrite trail with one ``associate`` entry per moved
    chain and its certificates with one that proves the two programs'
    plans equivalent up to associativity.

    Every pass application is *translation-validated*:
    :func:`repro.verify.certify` proves the pre- and post-rewrite plans
    equivalent (symbolic value keys on every output, well-ordered
    dataflow, stable shape facts) and issues a certificate
    recorded on ``plan.certificates``; an uncertifiable rewrite aborts
    optimization with :class:`~repro.errors.TranslationValidationError`
    before the broken plan can reach the executor.  A final end-to-end
    certificate covers the whole pipeline, snapshots included.

    ``counters`` only *receives* the optimizer's deterministic work counts
    (index builds, plan scans, candidates enumerated / forked / accepted,
    pipeline rounds, extra planner runs) for the benches and the
    complexity gate.
    """
    unknown = sorted(set(passes or ()) - set(PASSES))
    if unknown:
        raise PlanError(f"unknown optimizer passes {unknown}; known: {PASSES}")
    names = tuple(name for name in PASSES if passes is None or name in passes)
    rewrites = tuple(name for name in names if name != "associate")
    costs = _cost_models(plan.program, num_workers, estimation_mode)
    optimized = _run_passes(plan, rewrites, costs, counters)
    if "associate" not in names or plan.replan is None:
        return optimized
    found = reassociate(plan.program, costs[0])
    if found is None:
        return optimized
    program, lead = found
    candidate = plan.replan(program)
    if counters is not None:
        counters["replans"] += 1
    ours = _cost_models(program, num_workers, estimation_mode)
    candidate = _run_passes(candidate, rewrites, ours, counters, origin=(plan, lead))
    if (
        candidate.predicted_bytes > optimized.predicted_bytes
        or ours[0].price(candidate).flops >= costs[0].price(optimized).flops
    ):
        return optimized
    return candidate


def _cost_models(program, num_workers: int, mode: str) -> tuple[CostModel, CostModel]:
    """The cost model of ``program`` under ``mode`` and under the opposite
    sparsity model."""
    other_mode = "average" if mode == "worst" else "worst"
    return CostModel(program, num_workers, mode), CostModel(program, num_workers, other_mode)


def _run_passes(
    plan: Plan,
    names: tuple[str, ...],
    costs: tuple[CostModel, CostModel],
    counters: collections.Counter | None,
    origin: tuple[Plan, list[AppliedRewrite]] | None = None,
) -> Plan:
    """The passes ``names`` over a clone of ``plan`` (priced by the first
    of ``costs``).  ``origin`` is the plan ``plan`` was derived from by
    the given rewrites: the trail and the certificates then start there."""
    optimized = clone_plan(plan)
    index = PlanIndex(optimized, counters=counters)
    first, lead = origin or (plan, [])
    rewrites: list[AppliedRewrite] = [*first.rewrites, *lead]
    certificates: list = list(first.certificates)
    rounds = [name for name in names if name not in _FINAL]
    finals = [name for name in names if name in _FINAL]

    from repro.verify.certify import PlanFacts, certify

    # Each certificate's "before" is the previous one's "after".  The
    # snapshot (a clone plus its facts) stands for as long as the index
    # says nothing has mutated, so a pass that does nothing costs no clone
    # and a certified one hands its "after" facts forward.
    snapshot = clone_plan(plan)
    snapshot_facts = PlanFacts.of(snapshot)
    snapshot_version = index.version
    original, original_facts = snapshot, snapshot_facts
    if origin is not None:
        original, original_facts = first, PlanFacts.of(first)
        certificates.append(
            certify(
                first,
                snapshot,
                pass_name="associate",
                rewrites=len(lead),
                facts_before=original_facts,
                facts_after=snapshot_facts,
            )
        )

    def run_validated(name: str) -> list[AppliedRewrite]:
        nonlocal snapshot, snapshot_facts, snapshot_version
        applied = _REWRITES[name](optimized, index, *costs)
        if not applied and index.version == snapshot_version:
            return applied
        facts = PlanFacts.of(optimized)
        if applied:
            certificates.append(
                certify(
                    snapshot,
                    optimized,
                    pass_name=name,
                    rewrites=len(applied),
                    facts_before=snapshot_facts,
                    facts_after=facts,
                )
            )
        snapshot, snapshot_facts = clone_plan(optimized), facts
        snapshot_version = index.version
        return applied

    for __ in range(MAX_PIPELINE_ROUNDS):
        index.counters["pipeline_rounds"] += 1
        changed = False
        for name in rounds:
            applied = run_validated(name)
            if applied:
                changed = True
                rewrites.extend(applied)
        if not changed:
            break
    for name in finals:
        rewrites.extend(run_validated(name))
    index.toposort()
    optimized.predicted_bytes = costs[0].bytes(optimized.steps)
    unchanged = index.version == snapshot_version
    facts = snapshot_facts if unchanged else PlanFacts.of(optimized)
    certificates.append(
        certify(
            original,
            optimized,
            pass_name="pipeline",
            rewrites=len(rewrites) - len(first.rewrites),
            facts_before=original_facts,
            facts_after=facts,
        )
    )
    optimized.rewrites = tuple(rewrites)
    optimized.certificates = tuple(certificates)
    schedule_stages(optimized)
    return optimized
