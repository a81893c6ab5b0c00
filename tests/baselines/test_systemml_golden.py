"""Golden books of the SystemML-S baseline.

``golden_systemml.json`` was captured on the commit *before* SystemML-S
stopped being a second interpreter (its own per-operator switch over the
lang program and its own primitive calls) and became the DMac planner with
the dependency-blind cost, run on the registry kernels.  It pins every
deterministic book of every straight-line registry app under two cluster
shapes, so "the only difference between SystemML-S and DMac is the plan"
is checked against what the separate interpreter actually produced.

Never regenerate the file to make a change pass.  To capture it (on a
commit whose baseline is meant to be the reference)::

    PYTHONPATH=src python tests/baselines/test_systemml_golden.py
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.programs.registry import ALL_APPS, WorkloadParams, build_workload, get_spec

GOLDEN = pathlib.Path(__file__).with_name("golden_systemml.json")

PARAMS = dict(seed=3, scale=2e-3, rows=400, features=30, iterations=3, factors=8, rank=3)

#: case -> ClusterConfig keywords
CONFIGS = {
    "K4-L1-auto": dict(num_workers=4, threads_per_worker=1),
    "K3-L1-b16": dict(num_workers=3, threads_per_worker=1, block_size=16),
}

#: SystemML-S has no dynamic-extension path: staged programs are out.
APPS = tuple(app for app in ALL_APPS if not get_spec(app).staged)


def sha256(array) -> str:
    array = np.ascontiguousarray(array)
    return hashlib.sha256(array.tobytes()).hexdigest() + str(array.shape)


def books(app: str, config: str) -> dict:
    load = build_workload(app, WorkloadParams(**PARAMS))
    with DMacSession(ClusterConfig(**CONFIGS[config])) as session:
        result = session.run_systemml(load.program, load.inputs)
        bytes_by_kind = session.context.ledger.bytes_by_kind()
    return {
        "comm_bytes": result.comm_bytes,
        "bytes_by_kind": bytes_by_kind,
        "network_seconds": repr(result.time.network_seconds),
        "compute_seconds": repr(result.time.compute_seconds),
        "overhead_seconds": repr(result.time.overhead_seconds),
        "num_stages": result.num_stages,
        "peak_memory_bytes": result.peak_memory_bytes,
        "matrices": {name: sha256(m) for name, m in sorted(result.matrices.items())},
        "scalars": {name: float(v).hex() for name, v in sorted(result.scalars.items())},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_case_has_a_golden_entry(golden):
    assert len(APPS) == 8
    assert sorted(golden) == sorted(f"{app}/{config}" for app in APPS for config in CONFIGS)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("app", APPS)
def test_systemml_reproduces_the_interpreter_books(golden, app, config):
    assert books(app, config) == golden[f"{app}/{config}"]


if __name__ == "__main__":
    records = {f"{app}/{config}": books(app, config) for app in APPS for config in CONFIGS}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
