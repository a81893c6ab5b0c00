"""Golden optimized plans: the optimizer's output is pinned byte for byte.

``golden_plans.json`` was generated on the commit *before* the indexed
optimizer (PR 13's parent) and must never be regenerated to make a
planopt change pass: a host-side speed-up of the optimizer may not move
a single step, rewrite or certificate.  Regenerate it only for a change
that alters the optimizer's decisions on purpose::

    PYTHONPATH=src python tests/planopt/test_golden_plans.py
"""

import hashlib
import json
import pathlib

import pytest

from repro import ClusterConfig, DMacSession
from repro.programs.registry import SPECS, WorkloadParams, build_workload

GOLDEN = pathlib.Path(__file__).with_name("golden_plans.json")

#: Small sizes for the sweep over every registry app.
SMALL = dict(scale=1e-3, rows=400, features=40, iterations=3, factors=8, rank=4)

#: (label, app, params): every non-staged registry app at the small size,
#: plus the control-plane-bound shapes the e2e benchmark runs.
CASES = [
    (spec.name, spec.name, SMALL) for spec in SPECS if not spec.staged
] + [
    ("svd-rank5", "svd", dict(scale=3e-3, rank=5)),
    ("svd-rank8", "svd", dict(scale=3e-3, rank=8)),
    ("gnmf-f64-i3", "gnmf", dict(scale=2e-2, factors=64, iterations=3)),
]
MODES = ("worst", "average")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_record(program, mode: str) -> dict:
    session = DMacSession(
        ClusterConfig(num_workers=4), optimize=True, estimation_mode=mode
    )
    plan = session.plan(program)
    return {
        "structural_hash": plan.structural_hash(),
        "predicted_bytes": plan.predicted_bytes,
        "steps": len(plan.steps),
        "num_stages": plan.num_stages,
        "listing_sha": _digest(plan.describe()),
        "cache_pins": [str(pin) for pin in plan.cache_pins],
        "rewrites": [
            f"[{rewrite.pass_name}] {rewrite.description}"
            for rewrite in plan.rewrites
        ],
        "rewrite_trail_sha": _digest(
            "\n".join(rewrite.format_human() for rewrite in plan.rewrites)
        ),
        "certificates": [
            f"{cert.pass_name}:{cert.rewrites}" for cert in plan.certificates
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_case_has_a_golden_entry(golden):
    assert sorted(golden) == sorted(
        f"{label}/{mode}" for label, __, ___ in CASES for mode in MODES
    )


@pytest.mark.parametrize("label,app,params", CASES, ids=[c[0] for c in CASES])
def test_optimized_plan_matches_golden(golden, label, app, params):
    program = build_workload(app, WorkloadParams(**params)).program
    for mode in MODES:
        assert golden_record(program, mode) == golden[f"{label}/{mode}"], (
            f"{label}/{mode}: optimized plan drifted from the golden record"
        )


if __name__ == "__main__":
    records = {}
    for label, app, params in CASES:
        program = build_workload(app, WorkloadParams(**params)).program
        for mode in MODES:
            records[f"{label}/{mode}"] = golden_record(program, mode)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
