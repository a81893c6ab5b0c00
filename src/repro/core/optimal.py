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
irrelevant branching.  Exponential in program length; intended for plans of
roughly a dozen operators (tests, the greedy-gap ablation).

Also exposes :func:`paper_cost_of_plan`, which re-prices an already
generated plan under the same model so greedy and optimal are comparable.
"""

from __future__ import annotations

import functools

from repro.core.cost import CostModel
from repro.core.estimator import SizeEstimator
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

#: Guard against accidentally running the exponential search on huge programs.
MAX_OPERATORS = 24

State = frozenset  # of MatrixInstance


def free_closure(state: State) -> State:
    """Close a state under the zero-cost derivations.

    * a 1-D instance yields its transpose in the complementary scheme,
    * a Broadcast instance yields both 1-D extracts, their transposes, and
      the transposed replica.
    """
    closed = set(state)
    frontier = list(state)
    while frontier:
        instance = frontier.pop()
        derived = []
        if instance.scheme is Scheme.BROADCAST:
            derived.append(
                MatrixInstance(instance.name, not instance.transposed, Scheme.BROADCAST)
            )
            for scheme in (Scheme.ROW, Scheme.COL):
                derived.append(MatrixInstance(instance.name, instance.transposed, scheme))
        else:
            derived.append(
                MatrixInstance(
                    instance.name, not instance.transposed, instance.scheme.opposite
                )
            )
        for new in derived:
            if new not in closed:
                closed.add(new)
                frontier.append(new)
    return frozenset(closed)


def optimal_cost(program: MatrixProgram, num_workers: int) -> int:
    """Minimum total communication (paper model bytes) over all plans."""
    ops = program.ops
    if len(ops) > MAX_OPERATORS:
        raise PlanError(
            f"exhaustive search limited to {MAX_OPERATORS} operators, "
            f"got {len(ops)}"
        )
    estimator = SizeEstimator(program)

    @functools.lru_cache(maxsize=None)
    def search(index: int, state: State) -> int:
        if index == len(ops):
            return 0
        op = ops[index]
        if isinstance(op, (LoadOp, RandomOp, FullOp)):
            best = None
            for scheme in (Scheme.ROW, Scheme.COL):
                instance = MatrixInstance(op.output, False, scheme)
                cost = search(index + 1, free_closure(state | {instance}))
                best = cost if best is None else min(best, cost)
            assert best is not None
            return best
        if isinstance(op, ScalarComputeOp):
            return search(index + 1, state)
        if isinstance(op, AggregateOp):
            # any scheme works; some instance of the operand always exists
            return search(index + 1, state)

        nbytes_out = estimator.nbytes(op.output)
        best = None
        for strategy in candidate_strategies(op):
            input_options = [
                _satisfaction_options(state, operand, required, estimator, num_workers)
                for operand, required in zip(op.matrix_inputs(), strategy.input_schemes)
            ]
            for combo_cost, combo_added in _combine(input_options):
                for out_scheme in strategy.output_schemes:
                    out_instance = MatrixInstance(op.output, False, out_scheme)
                    output_bytes = num_workers * nbytes_out if strategy.shuffles_output else 0
                    next_state = free_closure(
                        state | combo_added | {out_instance}
                    )
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


def _satisfaction_options(
    state: State,
    operand: Operand,
    required: Scheme,
    estimator: SizeEstimator,
    num_workers: int,
) -> list[tuple[int, frozenset]]:
    """Ways to make ``operand`` available under ``required``:
    ``(cost, instances added)`` alternatives."""
    target = MatrixInstance(operand.name, operand.transposed, required)
    if target in state:
        return [(0, frozenset())]
    if not any(inst.name == operand.name for inst in state):
        raise PlanError(f"operand {operand} used before production")
    nbytes = estimator.nbytes(operand.name)
    options: list[tuple[int, frozenset]] = []
    if required.is_one_dimensional:
        # (a) repartition into the required 1-D scheme
        options.append((nbytes, frozenset({target})))
        # (b) speculatively broadcast instead (the Pull-Up Broadcast move):
        #     pay N x |A| now, gain the replica for every later event
        replica = MatrixInstance(operand.name, operand.transposed, Scheme.BROADCAST)
        options.append((num_workers * nbytes, frozenset({replica})))
    else:
        options.append(
            (num_workers * nbytes, frozenset({target}))
        )
    return options


def _combine(per_input: list[list[tuple[int, frozenset]]]):
    """Cartesian product of per-input options, summing costs and unioning
    the added instances."""
    combos: list[tuple[int, frozenset]] = [(0, frozenset())]
    for options in per_input:
        combos = [
            (cost + option_cost, added | option_added)
            for cost, added in combos
            for option_cost, option_added in options
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
