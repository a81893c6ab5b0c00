"""The generic worklist engine: convergence, re-queuing, and the defensive
budget.  The engine is domain-agnostic, so these tests drive it with plain
sentinel objects standing in for plan steps."""

import pytest

from repro.errors import VerificationError
from repro.verify import FlatLattice, Lattice, solve


class _Stmt:
    """A stand-in step; the engine only threads it through the callbacks."""

    def __init__(self, name):
        self.name = name


def test_straight_line_chain_converges_in_one_pass_each():
    # x0 = (1, 1); x_{i+1} = x_i  -- a forward copy chain.
    steps = [_Stmt(f"s{i}") for i in range(5)]
    calls = []

    def transfer(index, step, env):
        calls.append(index)
        if index == 0:
            return {"x0": (1, 1)}
        return {f"x{index}": env.get(f"x{index - 1}")}

    def reads(index, step):
        return [] if index == 0 else [f"x{index - 1}"]

    result = solve(steps, FlatLattice(), transfer, reads)
    assert result["x4"] == (1, 1)
    # Initial sweep plus the re-queues as facts ripple down the chain.
    assert len(calls) < 3 * len(steps)


def test_non_monotone_transfer_hits_the_budget_instead_of_hanging():
    class LastWriteWins(Lattice):
        """Deliberately not a lattice: 'join' forgets the old value, so an
        oscillating transfer function never stabilises."""

        def bottom(self):
            return None

        def join(self, a, b):
            return b

    def transfer(index, stmt, env):
        return {"x": 2 if env.get("x") == 1 else 1}

    def reads(index, stmt):
        return ["x"]

    with pytest.raises(VerificationError, match="failed to converge"):
        solve([_Stmt("osc")], LastWriteWins(), transfer, reads)


def test_changed_cells_requeue_exactly_their_consumers():
    # A diamond: s0 defines a; s1/s2 read a; s3 reads both results.  The
    # engine must propagate one fact through both arms and join at the sink.
    steps = [_Stmt(n) for n in ("src", "left", "right", "sink")]

    def transfer(index, step, env):
        if index == 0:
            return {"a": (2, 2)}
        if index == 1:
            return {"l": env.get("a")}
        if index == 2:
            return {"r": env.get("a")}
        if env.get("l") == env.get("r") and env.get("l") is not None:
            return {"out": env.get("l")}
        return {}

    reads_of = {0: [], 1: ["a"], 2: ["a"], 3: ["l", "r"]}

    result = solve(steps, FlatLattice(), transfer, lambda i, s: reads_of[i])
    assert result["out"] == (2, 2)
