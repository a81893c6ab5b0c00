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
hoisting once the surviving step set is final, and finally cellwise and
row-local product-chain fusion (:mod:`repro.planopt.fuse`), which must see
the final cache-pin set and whose fused chain payloads no renaming pass
may touch.

Custom rewrites plug in through the :class:`Pass` protocol and an explicit
``passes`` sequence; a pipeline leaves a built-in pass out by leaving it
out of the sequence.  A pass that is not one of ``DEFAULT_PASSES`` may edit
``plan.steps`` directly: the shared index is rebuilt after it.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
from typing import Protocol, runtime_checkable

from repro.core.cost import CostModel
from repro.core.plan import Plan
from repro.core.stages import schedule_stages
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


@dataclasses.dataclass(frozen=True)
class PassContext:
    """What a pass may assume about the target cluster: the cost model of
    the plan's program under the planning mode (``cost.num_workers``,
    ``cost.estimator.mode``) and under the opposite sparsity model, both
    built once per program :func:`optimize_plan` optimizes -- and, inside
    a pipeline run, the one
    :class:`PlanIndex` every built-in pass shares (kept in sync by their
    mutations, so no pass rebuilds it)."""

    cost: CostModel
    cross_cost: CostModel
    index: PlanIndex | None = None

    def index_for(self, plan: Plan) -> PlanIndex | None:
        """The shared index if it is ``plan``'s (else the pass builds one)."""
        return self.index if self.index and self.index.plan is plan else None


@runtime_checkable
class Pass(Protocol):
    """One plan rewrite: mutate ``plan`` in place, report what changed."""

    name: str

    def run(self, plan: Plan, context: PassContext) -> list[AppliedRewrite]: ...


class AssociatePass:
    """Chain association: not a step rewrite but a choice of program.  It
    replaces ``plan`` in place by the plan of the program with every
    product chain in its flop-minimal order (:func:`reassociate`, planned
    by ``plan.replan``), so :func:`optimize_plan` runs it on a copy, before
    the other passes, and keeps the result only if it is cheaper once they
    have run.  A hand-built plan (``replan=None``) is left as it is."""

    name = "associate"

    def run(self, plan: Plan, context: PassContext) -> list[AppliedRewrite]:
        found = reassociate(plan.program, context.cost) if plan.replan else None
        if found is None:
            return []
        program, rewrites = found
        replanned = plan.replan(program)
        for field in dataclasses.fields(plan):
            setattr(plan, field.name, getattr(replanned, field.name))
        return rewrites


class CSEPass:
    name = "cse"

    def run(self, plan: Plan, context: PassContext) -> list[AppliedRewrite]:
        return eliminate_common_steps(plan, context.index_for(plan))


class CoalescePass:
    name = "coalesce"

    def run(self, plan: Plan, context: PassContext) -> list[AppliedRewrite]:
        return coalesce_repartitions(
            plan,
            cost=context.cost,
            cross_cost=context.cross_cost,
            index=context.index_for(plan),
        )


class ReplicatePass:
    name = "replicate"

    def run(self, plan: Plan, context: PassContext) -> list[AppliedRewrite]:
        return replicate_products(plan, context.cost, context.index_for(plan))


class DeadStepPass:
    name = "dce"

    def run(self, plan: Plan, context: PassContext) -> list[AppliedRewrite]:
        return eliminate_dead_steps(plan, context.index_for(plan))


class HoistPass:
    name = "hoist"

    def run(self, plan: Plan, context: PassContext) -> list[AppliedRewrite]:
        return pin_loop_invariants(plan, context.index_for(plan))


class FusePass:
    name = "fuse"

    def run(self, plan: Plan, context: PassContext) -> list[AppliedRewrite]:
        return fuse_chains(plan, context.index_for(plan))


DEFAULT_PASSES: tuple[Pass, ...] = (
    AssociatePass(),
    CSEPass(),
    CoalescePass(),
    ReplicatePass(),
    DeadStepPass(),
    HoistPass(),
    FusePass(),
)


def optimize_plan(
    plan: Plan,
    *,
    num_workers: int,
    estimation_mode: str = "worst",
    passes: tuple[Pass, ...] | None = None,
    validate: bool = True,
    counters: collections.Counter | None = None,
) -> Plan:
    """Run the pass pipeline; returns a new, stage-scheduled plan.

    With an :class:`AssociatePass` in the pipeline (the default), a plan
    whose product chains are out of flop-minimal order is also planned
    reassociated -- one extra planner run -- and that plan, run through the
    rest of the pipeline, is returned instead when it ships no more bytes
    and does fewer flops.  It then leads its rewrite trail with one
    ``associate`` entry per moved chain and its certificates with one that
    proves the two programs' plans equivalent up to associativity.

    With ``validate=True`` (the default) every pass application is
    *translation-validated*: :func:`repro.verify.certify` proves the pre-
    and post-rewrite plans equivalent (symbolic value keys on every output,
    well-ordered dataflow, stable shape facts) and issues a certificate
    recorded on ``plan.certificates``; an uncertifiable rewrite aborts
    optimization with :class:`~repro.errors.TranslationValidationError`
    before the broken plan can reach the executor.  A final end-to-end
    certificate covers the whole pipeline, snapshots included.

    ``counters`` only *receives* the optimizer's deterministic work counts
    (index builds, plan scans, candidates enumerated / forked / accepted,
    pipeline rounds, extra planner runs) for the benches and the
    complexity gate.
    """
    pipeline = DEFAULT_PASSES if passes is None else tuple(passes)
    associator = next((p for p in pipeline if isinstance(p, AssociatePass)), None)
    pipeline = tuple(p for p in pipeline if p is not associator)
    context = _context(plan.program, num_workers, estimation_mode)
    optimized = _run_passes(plan, pipeline, context, validate, counters)
    candidate = copy.copy(plan)
    lead = associator.run(candidate, context) if associator else []
    if not lead:
        return optimized
    if counters is not None:
        counters["replans"] += 1
    ours = _context(candidate.program, num_workers, estimation_mode)
    candidate = _run_passes(
        candidate, pipeline, ours, validate, counters, origin=(plan, lead)
    )
    if (
        candidate.predicted_bytes > optimized.predicted_bytes
        or ours.cost.price(candidate).flops >= context.cost.price(optimized).flops
    ):
        return optimized
    return candidate


def _context(program, num_workers: int, mode: str) -> PassContext:
    """The passes' view of the cluster: the cost model of ``program`` and
    the same program under the opposite sparsity model."""
    other_mode = "average" if mode == "worst" else "worst"
    return PassContext(
        CostModel(program, num_workers, mode),
        CostModel(program, num_workers, other_mode),
    )


def _run_passes(
    plan: Plan,
    pipeline: tuple[Pass, ...],
    context: PassContext,
    validate: bool,
    counters: collections.Counter | None,
    origin: tuple[Plan, list[AppliedRewrite]] | None = None,
) -> Plan:
    """The pass pipeline over a clone of ``plan`` (priced by
    ``context.cost``).  ``origin`` is the plan ``plan`` was derived from by
    the given rewrites: the trail and the certificates then start there."""
    optimized = clone_plan(plan)
    index = PlanIndex(optimized, counters=counters)
    context = dataclasses.replace(context, index=index)
    first, lead = origin or (plan, [])
    rewrites: list[AppliedRewrite] = [*first.rewrites, *lead]
    certificates: list = list(first.certificates)
    hoisters = [p for p in pipeline if isinstance(p, HoistPass)]
    # Fusion runs dead last: it must see the final cache-pin set, and the
    # instance-renaming passes cannot see inside a fused chain payload.
    fusers = [p for p in pipeline if isinstance(p, FusePass)]
    rounds = [p for p in pipeline if not isinstance(p, (HoistPass, FusePass))]

    if validate:
        from repro.verify.certify import PlanFacts, certify

        # Each certificate's "before" is the previous one's "after".  The
        # snapshot (a clone plus its facts) stands for as long as the
        # index says nothing has mutated, so a pass that does nothing costs
        # no clone and a certified one hands its "after" facts forward.
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

    def run_validated(the_pass: Pass) -> list[AppliedRewrite]:
        nonlocal snapshot, snapshot_facts, snapshot_version
        applied = the_pass.run(optimized, context)
        if type(the_pass) not in map(type, DEFAULT_PASSES):
            index.rebuild()  # a foreign pass edits steps behind the index
        if not validate or (not applied and index.version == snapshot_version):
            return applied
        facts = PlanFacts.of(optimized)
        if applied:
            certificates.append(
                certify(
                    snapshot,
                    optimized,
                    pass_name=the_pass.name,
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
        for the_pass in rounds:
            applied = run_validated(the_pass)
            if applied:
                changed = True
                rewrites.extend(applied)
        if not changed:
            break
    for the_pass in hoisters + fusers:
        rewrites.extend(run_validated(the_pass))
    index.toposort()
    optimized.predicted_bytes = context.cost.bytes(optimized.steps)
    if validate:
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
