"""Planner scalability smoke tests: planning cost must stay practical for
long unrolled programs (the paper plans 10-iteration GNMF jobs; users will
plan far longer loops)."""

import time
from unittest import mock

from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.programs import build_gnmf_program, build_linreg_program


def test_fifty_iteration_gnmf_plans_quickly():
    program = build_gnmf_program((1024, 768), 0.01, factors=16, iterations=50)
    start = time.perf_counter()
    plan = schedule_stages(DMacPlanner(program, 8).plan())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"planning took {elapsed:.1f}s"
    assert plan.num_stages > 50


def test_planning_cost_roughly_linear_in_iterations():
    """Counted, not timed: how many times the planner asks for the cheapest
    instance of an operand (948 at 10 iterations, 3,708 at 40: x3.91; a
    quadratic blow-up would be x16)."""

    def lookups(iterations: int) -> int:
        program = build_linreg_program((512, 64), 0.05, iterations=iterations)
        planner = DMacPlanner(program, 4)
        with mock.patch.object(
            planner, "_best_instance", wraps=planner._best_instance
        ) as best:
            planner.plan()
        return best.call_count

    ten, forty = lookups(10), lookups(40)
    assert ten > 0
    assert forty <= 4.5 * ten


def test_instance_table_stays_bounded():
    """Per-iteration SSA versions must not leak instances unboundedly for a
    *single* logical matrix: the table is keyed per version name."""
    program = build_gnmf_program((256, 192), 0.05, factors=8, iterations=20)
    planner = DMacPlanner(program, 4)
    planner.plan()
    per_name = {name: len(instances) for name, instances in planner._table.items()}
    # every version has at most the 6 possible (transposed, scheme) forms
    assert max(per_name.values()) <= 6
