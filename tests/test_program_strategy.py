"""Each configuration of the shared program strategy reaches every operator kind, load
count, dimension, load density and declared sparsity of the generators it replaced."""

import pytest
from hypothesis import Phase, given, settings

from tests import program_strategy

#: The replaced generators: kinds, load counts, dimensions, load densities.
RANDOM_PROGRAMS = (  # tests/core/test_properties.py
    {"gram", "matmul_t", "add", "subtract", "multiply", "scalar"},
    {1, 2, 3}, set(range(2, 11)), {0.2, 0.6, 1.0},
)
PROGRAMS = (  # tests/core/test_planner_invariants.py
    {"gram", "multiply", "scalar", "abs", "sigmoid", "exp", "rowsum", "sum"},
    {2}, set(range(2, 9)), {0.1, 0.5, 1.0},
)
SMALL_PROGRAMS = ({"gram", "multiply", "matmul_t"}, {2}, set(range(2, 7)), {0.2, 1.0})


@pytest.mark.parametrize(
    "strategy, replaced",
    [
        # test_properties x5; the planner's single-worker execution
        (program_strategy.matrix_programs(with_inputs=True), (RANDOM_PROGRAMS, PROGRAMS)),
        # the planner x5 and lint x3 invariants; cost table; coalesce skip
        (program_strategy.matrix_programs(), (PROGRAMS, RANDOM_PROGRAMS)),
        # greedy >= optimal; pruning (six operators before, now this budget)
        (program_strategy.matrix_programs(max_ops=3), (SMALL_PROGRAMS,)),
    ],
    ids=["with_inputs", "default", "max_ops_3"],
)
def test_each_suite_draws_what_its_old_generator_drew(strategy, replaced, monkeypatch):
    seen = (set(), set(), set(), set(), set())
    densities = program_strategy.LOAD_DENSITY.map(lambda d: seen[3].add(d) or d)
    monkeypatch.setattr(program_strategy, "LOAD_DENSITY", densities)

    @settings(derandomize=True, max_examples=200, database=None, phases=[Phase.generate])
    @given(strategy)
    def draw(drawn):
        program, inputs = drawn if isinstance(drawn, tuple) else (drawn, {})
        loads = program.input_sparsity
        seen[0].update(name.rstrip("0123456789") for name in program.bindings)
        seen[1].add(len(loads))
        seen[2].update(dim for name in loads for dim in program.dims[name])
        seen[4].update(loads.values())
        # A load declares exactly the sparsity of the array it is given.
        assert all(loads[k] == (a != 0).mean() for k, a in inputs.items())

    draw()
    for old in replaced:
        for field, was, now in zip(("kinds", "loads", "dims", "densities"), old, seen):
            assert was <= now, (field, was - now)
        assert old[3] <= seen[4], ("declared sparsities", old[3] - seen[4])
