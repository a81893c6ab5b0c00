"""Property: the kernel layer never changes results, only speed.

Two equivalence families, each byte-identical (``tobytes`` — bitwise,
NaN patterns included):

* the optimizer vs step-by-step execution of the program its plan
  announces, under injected faults (the clean case is covered app-by-app
  in ``tests/planopt/test_equivalence.py``);
* hypothesis-generated cellwise chains.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, DMacSession
from repro.faults import ChaosEngine
from repro.lang.program import ProgramBuilder

from tests.planopt.test_equivalence import PROGRAMS, inputs_for

FAULT_SPEC = "flaky:p=0.25,times=2"


def assert_bitwise_equal(left, right, context):
    assert set(left.matrices) == set(right.matrices)
    for name in left.matrices:
        a, b = left.matrices[name], right.matrices[name]
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), f"{context}: output {name!r} diverged"
    assert set(left.scalars) == set(right.scalars)
    for name in left.scalars:
        a, b = left.scalars[name], right.scalars[name]
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), (
            f"{context}: scalar {name!r} diverged"
        )


def run_app(name, *, optimize=False, chaos=None, announced=False):
    """One run of a built-in program; ``announced``: of the program its
    optimized plan announces (the reassociated one, if any)."""
    program = PROGRAMS[name]()
    config = ClusterConfig(num_workers=4, threads_per_worker=2, block_size=16)
    if announced:
        (plan,) = DMacSession(config, optimize=True).plans(program)
        program = plan.program
    session = DMacSession(config, optimize=optimize)
    return session.run(program, inputs_for(program), chaos=chaos)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_fused_matches_unfused_under_faults(name):
    plain = run_app(name, chaos=ChaosEngine(9, FAULT_SPEC), announced=True)
    fused = run_app(name, optimize=True, chaos=ChaosEngine(9, FAULT_SPEC))
    assert_bitwise_equal(plain, fused, f"{name} (fused, faults)")


class TestPropertyEquivalence:
    """Hypothesis-generated workloads: any cellwise chain fuses without
    changing a byte."""

    @given(
        ops=st.lists(
            st.sampled_from(["*", "/", "+", "-"]), min_size=2, max_size=5
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_fused_cellwise_chain_is_byte_identical(self, ops, seed):
        size = 48
        pb = ProgramBuilder()
        value = pb.load("X", (size, size))
        a = pb.load("A", (size, size))
        b = pb.load("B", (size, size))
        for position, op in enumerate(ops):
            operand = a if position % 2 == 0 else b
            expr = {
                "*": value * operand,
                "/": value / operand,
                "+": value + operand,
                "-": value - operand,
            }[op]
            value = pb.assign("X", expr)
        pb.output(value)
        program = pb.build()
        rng = np.random.default_rng(seed)
        inputs = {
            name: rng.random((size, size)) + 0.5 for name in ("X", "A", "B")
        }
        results = {}
        for optimize in (False, True):
            config = ClusterConfig(num_workers=2, block_size=16)
            results[optimize] = DMacSession(config, optimize=optimize).run(
                program, inputs
            )
        assert_bitwise_equal(results[False], results[True], f"chain {ops}")
