"""Matrix instances are hash-consed: one live object per (name, transposed,
scheme), so every planning map keyed by instance hashes and compares by
identity, in C.  These tests pin that contract and what it costs: the
intern table keeps nothing alive, threads never mint twins, and a hash
that is now an address moves no plan."""

import copy
import dataclasses
import gc
import itertools
import pickle
import sys
import threading
import weakref

import pytest

from repro.core import plan as plan_module
from repro.core.dependency import DependencyType
from repro.core.plan import MatrixInstance
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.matrix.schemes import Scheme
from repro.planopt import optimize_plan
from repro.programs.registry import WorkloadParams, build_workload

_fresh = itertools.count()


def fresh_name(prefix: str) -> str:
    """A matrix name no other test has interned."""
    return f"{prefix}#{next(_fresh)}"


# -- one object per triple ----------------------------------------------------


def test_every_construction_path_returns_the_one_instance():
    name = fresh_name("paths")
    a = MatrixInstance(name, True, Scheme.COL)
    built = {
        "positional": MatrixInstance(name, True, Scheme.COL),
        "keyword": MatrixInstance(scheme=Scheme.COL, name=name, transposed=True),
        "replace": dataclasses.replace(MatrixInstance(name, True, Scheme.ROW), scheme=Scheme.COL),
        "with_scheme": MatrixInstance(name, True, Scheme.BROADCAST).with_scheme(Scheme.COL),
        "copy": copy.copy(a),
        "deepcopy": copy.deepcopy(a),
        "deepcopy-in-a-container": copy.deepcopy({"k": [a]})["k"][0],
    }
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        built[f"pickle-{protocol}"] = pickle.loads(pickle.dumps(a, protocol=protocol))
    assert {label: other is a for label, other in built.items()} == dict.fromkeys(built, True)


def test_equality_is_identity_and_fields_still_read():
    name = fresh_name("fields")
    a = MatrixInstance(name, False, Scheme.ROW)
    b = a.with_scheme(Scheme.COL)
    assert a != b and a == MatrixInstance(name, False, Scheme.ROW)
    assert (a.name, a.transposed, a.scheme) == (name, False, Scheme.ROW)
    assert str(b) == f"{name}(c)"
    assert str(MatrixInstance(name, True, Scheme.BROADCAST)) == f"{name}^T(b)"
    assert repr(a) == f"MatrixInstance(name={name!r}, transposed=False, scheme={Scheme.ROW!r})"
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.scheme = Scheme.COL


def test_the_table_keeps_nothing_alive():
    gc.collect()
    before = len(plan_module._INSTANCES)
    name = fresh_name("weak")
    instance = MatrixInstance(name, False, Scheme.ROW)
    assert len(plan_module._INSTANCES) == before + 1
    ref = weakref.ref(instance)
    del instance
    gc.collect()
    assert ref() is None
    assert len(plan_module._INSTANCES) == before
    assert (name, False, Scheme.ROW) not in plan_module._INSTANCES
    # Minted again after its death, it is a working instance of its triple.
    again = MatrixInstance(name, False, Scheme.ROW)
    assert again is MatrixInstance(name, False, Scheme.ROW) and str(again) == f"{name}(r)"


def race(threads: int, rounds: int) -> list[list[MatrixInstance]]:
    """``threads`` threads mint the same ``rounds`` new triples in the same
    order, so every construction races the others' first mint of its
    triple; the lists returned hold every instance built."""
    prefix = fresh_name("race")
    schemes = list(Scheme)
    triples = [(f"{prefix}/{i}", i % 2 == 1, schemes[i % 3]) for i in range(rounds)]
    barrier = threading.Barrier(threads)
    seen: list[list[MatrixInstance]] = [[] for _ in range(threads)]

    def build(t: int) -> None:
        barrier.wait(timeout=30)
        for triple in triples:
            seen[t].append(MatrixInstance(*triple))

    workers = [threading.Thread(target=build, args=(t,)) for t in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)
    return seen


def test_eight_threads_mint_one_object_per_triple():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as finely as CPython allows
    try:
        for attempt in range(5):  # one race loses a twin only sometimes
            seen = race(threads=8, rounds=1000)
            assert all(len(instances) == 1000 for instances in seen)
            for built in zip(*seen):
                assert all(instance is built[0] for instance in built), built
    finally:
        sys.setswitchinterval(interval)


def test_hashing_and_equality_are_objects():
    """The gate: no Python frame runs to hash or compare an instance, or to
    hash the enums on the planning path."""
    assert MatrixInstance.__eq__ is object.__eq__
    assert MatrixInstance.__hash__ is object.__hash__
    assert Scheme.__hash__ is object.__hash__
    assert DependencyType.__hash__ is object.__hash__


# -- an address hash moves no plan ----------------------------------------------


@pytest.mark.parametrize(
    "app, params",
    [
        ("svd", WorkloadParams(scale=3e-3, rank=5)),
        ("gnmf", WorkloadParams(scale=1e-3, factors=8, iterations=3)),
    ],
)
def test_replanning_in_one_process_is_deterministic(app, params):
    """Instances of a dropped plan die, and their triples come back at new
    addresses, so set order can change within one process: it must move
    no listing, rewrite or predicted byte."""
    program = build_workload(app, params).program
    outcomes = set()
    ballast = []
    for __ in range(10):
        plan = optimize_plan(schedule_stages(DMacPlanner(program, 4).plan()), num_workers=4)
        outcomes.add(
            (
                plan.describe(),
                "\n".join(rewrite.format_human() for rewrite in plan.rewrites),
                plan.predicted_bytes,
            )
        )
        probe = weakref.ref(next(iter(plan.outputs.values())))
        del plan
        gc.collect()
        assert probe() is None  # so the next run mints its instances afresh
        # Unrelated instances take the freed addresses.
        ballast = [MatrixInstance(fresh_name("ballast"), k % 2 == 1, Scheme.ROW) for k in range(64)]
    del ballast
    assert len(outcomes) == 1
