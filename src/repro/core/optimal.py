"""Exhaustive (optimal) plan search, for validating the greedy planner.

Algorithm 1 is greedy: it fixes each operator's strategy by local argmin and
repairs with two heuristics.  This module searches the *full* decision tree
-- every strategy, every flexible output binding, and every way of paying
for an input event (including speculative broadcasts, the move Pull-Up
Broadcast approximates) -- and returns the provably minimal total
communication under the paper's cost model (Section 4.1).

The state is the set of materialised matrix instances, kept closed under
the free derivations (transpose between complementary 1-D schemes, extract
from a replica): free chains never hurt, so closing over them removes
irrelevant branching -- and pruned to the matrices a later operator
reads, since the future cost looks an input up by name alone: histories
that differ only in dead matrices share one memo entry.  Exponential in
program length at worst; every straight-line registry app solves.

Also exposes :func:`paper_cost_of_plan`, which re-prices an already
generated plan under the same model so greedy and optimal are comparable.
"""

from __future__ import annotations

import functools

from repro.core.cost import CostModel
from repro.core.plan import MatrixInstance, Plan
from repro.core.strategies import candidate_strategies
from repro.errors import PlanError
from repro.lang.program import (
    AggregateOp,
    FullOp,
    LoadOp,
    MatrixProgram,
    Operand,
    RandomOp,
    ScalarComputeOp,
)
from repro.matrix.schemes import Scheme

#: Memo states past which the exponential search gives up.
MAX_STATES = 100_000

State = frozenset  # of MatrixInstance


@functools.lru_cache(maxsize=4096)
def _closure(instance: MatrixInstance) -> State:
    """The free closure of one instance: the instance and its transpose in
    the complementary scheme, or -- for a replica -- all six instances of
    its matrix.  A union of instances closes to the union of these."""
    if instance.scheme is not Scheme.BROADCAST:
        flipped = MatrixInstance(
            instance.name, not instance.transposed, instance.scheme.opposite
        )
        return frozenset((instance, flipped))
    return frozenset(
        MatrixInstance(instance.name, transposed, scheme)
        for transposed in (False, True)
        for scheme in (Scheme.ROW, Scheme.COL, Scheme.BROADCAST)
    )


def _extend(closed_state: State, added) -> State:
    """The free closure of ``closed_state | added`` for an already closed
    state -- the zero-cost derivations (a 1-D instance yields its transpose
    in the complementary scheme; a Broadcast instance yields both 1-D
    extracts, their transposes and the transposed replica): only the added
    instances need deriving from."""
    fresh = [instance for instance in added if instance not in closed_state]
    if not fresh:
        return closed_state
    return closed_state.union(*map(_closure, fresh))


def optimal_cost(program: MatrixProgram, num_workers: int) -> int:
    """Minimum total communication (paper model bytes) over all plans."""
    ops = program.ops
    model = CostModel(program, num_workers)
    read_later = [frozenset()] * (len(ops) + 1)
    for index in range(len(ops) - 1, -1, -1):
        read_later[index] = read_later[index + 1] | {
            operand.name for operand in ops[index].matrix_inputs()
        }
    # The instances that stop being live on entering each index: a state
    # entering it holds only matrices read from the index before on, or
    # made there; all instances of a matrix are its replica's closure.
    dying = [frozenset()] + [
        frozenset().union(
            *(
                _closure(MatrixInstance(name, False, Scheme.BROADCAST))
                for name in (read_later[index] | {op.output}) - read_later[index + 1]
            )
        )
        for index, op in enumerate(ops)
    ]

    def search(index: int, state: State) -> int:
        if solve.cache_info().currsize > MAX_STATES:
            raise PlanError(f"exhaustive search limited to {MAX_STATES} states")
        return solve(index, _prune(state, dying[index]))

    @functools.lru_cache(maxsize=None)
    def solve(index: int, state: State) -> int:
        if index == len(ops):
            return 0
        op = ops[index]
        if isinstance(op, (LoadOp, RandomOp, FullOp)):
            best = None
            for scheme in (Scheme.ROW, Scheme.COL):
                instance = MatrixInstance(op.output, False, scheme)
                cost = search(index + 1, _extend(state, (instance,)))
                best = cost if best is None else min(best, cost)
            assert best is not None
            return best
        if isinstance(op, ScalarComputeOp):
            return search(index + 1, state)
        if isinstance(op, AggregateOp):
            # any scheme works; some instance of the operand always exists
            return search(index + 1, state)

        nbytes_out = model.estimator.nbytes(op.output)
        best = None
        for strategy in candidate_strategies(op):
            requirements = zip(op.matrix_inputs(), strategy.input_schemes)
            for combo_cost, combo_state in _satisfy_inputs(state, requirements, model):
                for out_scheme in strategy.output_schemes:
                    out_instance = MatrixInstance(op.output, False, out_scheme)
                    output_bytes = num_workers * nbytes_out if strategy.shuffles_output else 0
                    next_state = _extend(combo_state, (out_instance,))
                    total = (
                        combo_cost
                        + output_bytes
                        + search(index + 1, next_state)
                    )
                    if best is None or total < best:
                        best = total
        if best is None:  # pragma: no cover - every op has strategies
            raise PlanError(f"no strategy for {op}")
        return best

    return search(0, frozenset())


def _prune(state: State, dead: State) -> State:
    """``state`` without the ``dead`` instances (the same object when it
    holds none, so its cached hash is reused)."""
    return state if state.isdisjoint(dead) else state - dead


def _satisfaction_options(
    state: State,
    operand: Operand,
    required: Scheme,
    model: CostModel,
) -> list[tuple[int, frozenset]]:
    """Ways to make ``operand`` available under ``required``:
    ``(cost, instances added)`` alternatives."""
    target = MatrixInstance(operand.name, operand.transposed, required)
    if target in state:
        return [(0, frozenset())]
    if not any(inst.name == operand.name for inst in state):
        raise PlanError(f"operand {operand} used before production")
    nbytes = model.estimator.nbytes(operand.name)
    options: list[tuple[int, frozenset]] = []
    if required.is_one_dimensional:
        # (a) repartition into the required 1-D scheme
        options.append((nbytes, frozenset({target})))
        # (b) speculatively broadcast instead (the Pull-Up Broadcast move):
        #     pay N x |A| now, gain the replica for every later event
        replica = MatrixInstance(operand.name, operand.transposed, Scheme.BROADCAST)
        options.append((model.num_workers * nbytes, frozenset({replica})))
    else:
        options.append((model.num_workers * nbytes, frozenset({target})))
    return options


def _satisfy_inputs(state: State, requirements, model: CostModel):
    """Every way of satisfying an operator's inputs in order, as
    ``(cost, state after)`` alternatives.

    Each input is priced against the state its predecessors left, closed
    under the free derivations: a broadcast paid for one input serves a
    later input of the same matrix for free (``A^T @ A`` under RMM1 pays
    for ``A`` once), as the greedy planner does.
    """
    combos: list[tuple[int, State]] = [(0, state)]
    for operand, required in requirements:
        combos = [
            (cost + option_cost, _extend(current, option_added))
            for cost, current in combos
            for option_cost, option_added in _satisfaction_options(
                current, operand, required, model
            )
        ]
    return combos


def paper_cost_of_plan(plan: Plan, num_workers: int) -> int:
    """Re-price a generated plan under the paper's cost model, so greedy
    plans are comparable with :func:`optimal_cost`.

    partition: ``|A|``; broadcast: ``N x |A|``; CPMM output: ``N x |C|``;
    everything else free -- the predicted ledger charge with ``N`` replicas
    where the ledger books ``N - 1``.
    """
    model = CostModel(plan.program, num_workers, replicas=num_workers)
    return model.bytes(plan.steps)
