"""Tests for the exhaustive planner and the greedy-vs-optimal comparison."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import optimal
from repro.core.cost import CostModel
from repro.core.optimal import optimal_cost, paper_cost_of_plan
from repro.core.plan import MatrixInstance
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.errors import PlanError
from repro.lang.program import ProgramBuilder
from repro.matrix.schemes import Scheme
from repro.planopt import optimize_plan
from repro.programs.registry import ALL_APPS, WorkloadParams, build_workload

from tests.program_strategy import matrix_programs

R, C, B = Scheme.ROW, Scheme.COL, Scheme.BROADCAST


def free_closure(state):
    """The free closure of ``state``: its extension of the empty state."""
    return optimal._extend(frozenset(), state)


class TestFreeClosure:
    def test_one_d_gains_transpose(self):
        state = free_closure(frozenset({MatrixInstance("A", False, R)}))
        assert MatrixInstance("A", True, C) in state
        assert MatrixInstance("A", False, C) not in state  # would cost

    def test_replica_gains_everything(self):
        state = free_closure(frozenset({MatrixInstance("A", False, B)}))
        assert len({i for i in state if i.name == "A"}) == 6  # all 2x3 forms

    def test_idempotent(self):
        state = free_closure(frozenset({MatrixInstance("A", False, R)}))
        assert free_closure(state) == state


class TestOptimalCost:
    def test_comm_free_program_costs_zero(self):
        pb = ProgramBuilder()
        a = pb.load("A", (8, 8))
        b = pb.load("B", (8, 8))
        pb.output(pb.assign("C", (a + b) * a))
        assert optimal_cost(pb.build(), 4) == 0

    def test_single_matmul_cost_is_cheapest_strategy(self):
        pb = ProgramBuilder()
        a = pb.load("A", (100, 100))
        b = pb.load("B", (100, 4))
        pb.output(pb.assign("C", a @ b))
        # cheapest: RMM2 broadcasting tiny B: N * |B| = 4 * 8*100*4
        assert optimal_cost(pb.build(), 4) == 4 * 8 * 100 * 4

    def test_operator_limit_enforced(self):
        pb = ProgramBuilder()
        a = pb.load("A", (4, 4))
        x = a
        for i in range(24):
            x = pb.assign("X", x + a)
        pb.output(x)
        with mock.patch.object(optimal, "MAX_STATES", 10):
            with pytest.raises(PlanError):
                optimal_cost(pb.build(), 4)

    def test_speculative_broadcast_found(self):
        """A program where broadcasting up front beats two repartitions --
        exactly the Pull-Up pattern; the search must find it."""
        pb = ProgramBuilder()
        a = pb.load("A", (10, 10))
        b = pb.load("B", (10, 10))
        c = pb.assign("C", a + b)
        d = pb.assign("D", c + a)
        e = pb.assign("E", a.T * d)
        g = pb.load("G", (1000, 10))
        pb.output(pb.assign("F", g @ a))
        pb.output(e)
        program = pb.build()
        workers = 4
        optimal = optimal_cost(program, workers)
        # it should not exceed: broadcast A once (N|A|) -- every A event free
        nbytes_a = 8 * 10 * 10
        assert optimal <= workers * nbytes_a


class TestGreedyVsOptimal:
    def greedy_cost(self, program, workers=4, **kwargs):
        plan = DMacPlanner(program, workers, **kwargs).plan()
        return paper_cost_of_plan(plan, workers)

    def test_greedy_matches_optimal_on_cellwise_chain(self):
        pb = ProgramBuilder()
        a = pb.load("A", (16, 16))
        b = pb.load("B", (16, 16))
        pb.output(pb.assign("C", (a + b) * (a - b)))
        program = pb.build()
        assert self.greedy_cost(program) == optimal_cost(program, 4) == 0

    def test_greedy_matches_optimal_on_single_matmul(self):
        pb = ProgramBuilder()
        a = pb.load("A", (100, 100))
        b = pb.load("B", (100, 4))
        pb.output(pb.assign("C", a @ b))
        program = pb.build()
        assert self.greedy_cost(program) == optimal_cost(program, 4)

    def test_greedy_matches_optimal_on_gram_matrix(self):
        pb = ProgramBuilder()
        a = pb.load("A", (200, 8))
        pb.output(pb.assign("G", a.T @ a))
        program = pb.build()
        assert self.greedy_cost(program) == optimal_cost(program, 4)

    def test_one_broadcast_serves_both_gram_inputs(self):
        """With ``A`` loaded by rows (so ``C = A * A`` stays aligned), RMM1
        on ``A^T @ A`` broadcasts ``A^T`` and its replica yields the right
        input ``A(c)`` for free: the search pays ``N x |A|`` once, as the
        greedy plan does, not that plus a repartition of ``A``."""
        pb = ProgramBuilder()
        a = pb.load("A", (2, 2), sparsity=0.2)
        c = pb.assign("C", a * a)
        pb.assign("G", a.T @ a)
        pb.output(pb.assign("M", a @ c.T))
        program = pb.build()
        nbytes_a = CostModel(program, 2).estimator.nbytes("A")
        assert optimal_cost(program, 2) == 2 * nbytes_a
        assert self.greedy_cost(program, workers=2) == optimal_cost(program, 2)

    def test_greedy_never_beats_optimal(self):
        """Sanity on a handful of structured programs."""
        programs = []
        pb = ProgramBuilder()
        v = pb.load("V", (64, 48), sparsity=0.1)
        w = pb.random("W", (64, 4))
        h = pb.random("H", (4, 48))
        pb.output(pb.assign("H", h * (w.T @ v) / (w.T @ w @ h)))
        programs.append(pb.build())

        pb = ProgramBuilder()
        r = pb.load("R", (16, 64), sparsity=0.1)
        pb.output(pb.assign("P", r @ r.T @ r))
        programs.append(pb.build())

        for program in programs:
            greedy = self.greedy_cost(program)
            optimal = optimal_cost(program, 4)
            assert greedy >= optimal
            # the greedy plan is within a small constant of optimal here
            assert greedy <= max(optimal * 3, optimal + 1)


#: The exhaustive search is exponential in the operator count.
SMALL = matrix_programs(max_ops=3)


@given(SMALL, st.integers(2, 5))
def test_property_greedy_at_least_optimal(program, workers):
    plan = DMacPlanner(program, workers).plan()
    greedy = paper_cost_of_plan(plan, workers)
    optimal = optimal_cost(program, workers)
    assert greedy >= optimal


@given(SMALL, st.integers(2, 5))
def test_pruning_dead_matrices_keeps_the_optimum(program, workers):
    """Dropping the instances of matrices no later operator reads from the
    memo state changes no optimum."""
    with mock.patch.object(optimal, "_prune", lambda state, dead: state):
        unpruned = optimal_cost(program, workers)
    assert optimal_cost(program, workers) == unpruned


def test_the_pruning_property_prunes():
    """Some derandomized draw prunes: the pruning property is not vacuous."""
    @settings(derandomize=True, database=None)
    @given(SMALL, st.integers(2, 5))
    def search(program, workers):
        optimal_cost(program, workers)

    with mock.patch.object(optimal, "_prune", wraps=optimal._prune) as prune:
        search()
    assert any(not state.isdisjoint(dead) for (state, dead), __ in prune.call_args_list)


#: Every straight-line registry app (``powiter`` is staged) at its
#: defaults, but linreg at two iterations: at five its search alone takes
#: ~3 s, and two still show its 0.5 % gap.
REGISTRY = {app: WorkloadParams() for app in ALL_APPS if app != "powiter"}
REGISTRY["linreg"] = WorkloadParams(iterations=2)


@pytest.mark.parametrize("app", sorted(REGISTRY))
def test_no_registry_plan_beats_the_optimum(app):
    program = build_workload(app, REGISTRY[app]).program
    greedy = schedule_stages(DMacPlanner(program, 4).plan())
    optimized = optimize_plan(greedy, num_workers=4)
    best = optimal_cost(program, 4)
    assert paper_cost_of_plan(greedy, 4) >= best
    assert paper_cost_of_plan(optimized, 4) >= best
