"""The optimizer pipeline: ordered passes over a cloned plan.

:func:`optimize_plan` is the one entry point the session and CLI use.  It
never mutates the plan it is given: passes run on a clone, and the clone
comes back stage-scheduled with a fresh ``predicted_bytes`` (priced by the
same :class:`~repro.core.cost.CostModel` every trial rewrite was costed
with) and an ``AppliedRewrite`` audit trail in ``plan.rewrites``.

The default pipeline interleaves CSE, repartition coalescing and dead-step
elimination to a fixpoint -- coalescing exposes new common subexpressions
and strands dead conversions, so one round is rarely enough -- then runs
loop-invariant hoisting once the surviving step set is final, and finally
cellwise and row-local product-chain fusion (:mod:`repro.planopt.fuse`),
which must see the final
cache-pin set and whose fused chain payloads no renaming pass may touch.

Custom rewrites plug in through the :class:`Pass` protocol and an explicit
``passes`` sequence.  A pass that is not one of ``DEFAULT_PASSES`` may edit
``plan.steps`` directly: the shared index is rebuilt after it.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Protocol, runtime_checkable

from repro.core.cost import CostModel
from repro.core.plan import Plan
from repro.core.stages import schedule_stages
from repro.planopt.coalesce import coalesce_repartitions
from repro.planopt.common import AppliedRewrite, clone_plan
from repro.planopt.cse import eliminate_common_steps
from repro.planopt.dce import eliminate_dead_steps
from repro.planopt.fuse import fuse_chains
from repro.planopt.hoist import pin_loop_invariants
from repro.planopt.index import PlanIndex

#: Cap on CSE/coalesce/DCE fixpoint rounds.
MAX_PIPELINE_ROUNDS = 3


@dataclasses.dataclass(frozen=True)
class PassContext:
    """What a pass may assume about the target cluster: the cost model of
    the plan's program under the planning mode (``cost.num_workers``,
    ``cost.estimator.mode``) and under the opposite sparsity model, both
    built once per :func:`optimize_plan` call -- and, inside it, the one
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
    CSEPass(),
    CoalescePass(),
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
    pipeline rounds) for the benches and the complexity gate.
    """
    optimized = clone_plan(plan)
    index = PlanIndex(optimized, counters=counters)
    cost = CostModel(plan.program, num_workers, estimation_mode)
    other_mode = "average" if estimation_mode == "worst" else "worst"
    context = PassContext(
        cost, CostModel(plan.program, num_workers, other_mode), index
    )
    pipeline = DEFAULT_PASSES if passes is None else tuple(passes)
    rewrites: list[AppliedRewrite] = list(optimized.rewrites)
    certificates: list = list(optimized.certificates)
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
        original = snapshot = clone_plan(plan)
        original_facts = snapshot_facts = PlanFacts.of(original)
        snapshot_version = index.version

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
    optimized.predicted_bytes = cost.bytes(optimized.steps)
    if validate:
        unchanged = index.version == snapshot_version
        facts = snapshot_facts if unchanged else PlanFacts.of(optimized)
        certificates.append(
            certify(
                original,
                optimized,
                pass_name="pipeline",
                rewrites=len(rewrites) - len(plan.rewrites),
                facts_before=original_facts,
                facts_after=facts,
            )
        )
    optimized.rewrites = tuple(rewrites)
    optimized.certificates = tuple(certificates)
    schedule_stages(optimized)
    return optimized
