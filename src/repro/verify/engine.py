"""Generic worklist fixpoint engine over the plan IR.

The engine knows nothing about matrices: a *problem* is a list of plan
steps, a lattice, and two callbacks -- ``reads(index, step)`` naming the
abstract cells a step consumes and ``transfer(index, step, env)`` mapping
the current environment to the cells it (re)defines.  The engine chaotically
iterates transfer functions until the environment stops changing, re-queuing
exactly the consumers of every changed cell.

On a lattice of finite height every cell changes a bounded number of times,
so termination is structural; a defensive pop budget turns a broken
(non-monotone) transfer function into a hard error instead of a hang.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Hashable, Iterable, Mapping, Sequence, TypeVar

from repro.core.plan import Step
from repro.errors import VerificationError
from repro.verify.lattice import Lattice

K = TypeVar("K", bound=Hashable)
T = TypeVar("T")

#: A transfer function: (step index, step, environment) -> cells it defines.
Transfer = Callable[[int, Step, Mapping[K, T]], Mapping[K, T]]
#: The read set of a step: which cells re-queue it when they change.
Reads = Callable[[int, Step], Iterable[K]]


def solve(
    steps: Sequence[Step],
    lattice: Lattice[T],
    transfer: Transfer[K, T],
    reads: Reads[K],
) -> Dict[K, T]:
    """Run the worklist to a fixpoint and return the stable environment.

    Raises :class:`~repro.errors.VerificationError` if the environment
    fails to stabilise within the defensive pop budget (only possible for
    a non-monotone transfer function).
    """
    consumers: Dict[K, list[int]] = {}
    for index, step in enumerate(steps):
        for key in reads(index, step):
            consumers.setdefault(key, []).append(index)

    env: Dict[K, T] = {}
    queued = [True] * len(steps)
    worklist: deque[int] = deque(range(len(steps)))
    # A step re-runs once per change of a cell it reads; on the flat
    # lattice a cell changes at most twice, far inside this budget.
    budget = max(64, len(steps) * 56)
    pops = 0

    while worklist:
        pops += 1
        if pops > budget:
            raise VerificationError(
                f"fixpoint failed to converge after {pops - 1} iterations "
                f"over {len(steps)} steps (non-monotone transfer function?)"
            )
        index = worklist.popleft()
        queued[index] = False
        step = steps[index]
        for key, value in transfer(index, step, env).items():
            current = env.get(key, lattice.bottom())
            joined = lattice.join(current, value)
            if joined == current and key in env:
                continue
            env[key] = joined
            for consumer in consumers.get(key, ()):
                if not queued[consumer]:
                    queued[consumer] = True
                    worklist.append(consumer)

    return env
