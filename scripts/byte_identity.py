#!/usr/bin/env python3
"""Byte identity of two source trees: every output bit and deterministic book.

    python scripts/byte_identity.py PARENT_TREE [CHANGE_TREE]

(``CHANGE_TREE`` defaults to this checkout; get a parent tree with
``git archive <commit> | tar -x -C DIR``.)  For a change that is meant to be
host-side only -- a kernel, a load path -- each tree runs, with its own
``src`` on ``PYTHONPATH``:

* every app in ``ALL_APPS`` x ``optimize`` {off, on} x ``block_size``
  {None, 37} on 4 workers x 2 threads: sha256 of every output matrix, every
  scalar as ``float.hex``, ``comm_bytes``, ``bytes_by_kind``,
  ``simulated_seconds.hex()``, ``num_stages``, the recovery counters; and
  once more on a serial session (1 thread, 1 concurrent stage), where
  ``peak_memory_bytes`` is deterministic and is compared too (with pool
  threads it differs between two runs of one tree);
* the same apps x ``optimize`` under the ``tests/elastic`` churn timeline,
  and under churn + faults (seed 11), 4 workers x 2 threads;
* GNMF at ``WIDE`` (``V`` 9603 x 355 against 64 factors, the only items
  whose sparse products reach the compiled loop) x ``optimize``, pooled
  and serial;
* ``repro run`` / ``repro chaos`` / ``repro run --trace`` / ``repro trace``
  under a crash fault on three apps, stdout and stderr, with the host-time
  values masked: ``peak_memory_bytes`` (the CLI dispatches stages
  concurrently, also with ``--threads 1``) and the trace export's
  top-level ``wall_seconds``.

Prints one IDENTICAL/DIFFERENT line per item; exit 1 if any differs.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

PARAMS = dict(seed=3, scale=2e-3, rows=400, features=30, iterations=3, factors=8, rank=3)
WIDE = dict(seed=3, scale=2e-2, iterations=3, factors=64)

TIMELINE = "join@2:count=2; leave@5:worker=0"
FAULTS = "crash:stage=3; flaky:p=0.4,times=1; straggler:stage=2,factor=3"
FAULT_SEED = 11

_SIZES = {
    "pagerank": "--scale 1e-3 --iterations 3",
    "gnmf": "--scale 2e-3 --iterations 2",
    "linreg": "--rows 400 --features 30 --iterations 3",
}
COMMANDS = {
    f"{verb} {app}": f"{verb.split()[0]} {app} {sizes} {flags} --format json"
    for app, sizes in _SIZES.items()
    for verb, flags in (
        ("run", "--threads 1"),
        ("chaos", "--seed 7 --faults crash:stage=3"),
        ("run --trace", "--trace"),
        ("trace", "--seed 7 --faults crash:stage=3"),
    )
}


def books() -> dict:
    """The digest of the tree on ``PYTHONPATH`` (run in a subprocess)."""
    import numpy as np

    from repro import ClusterConfig, DMacSession
    from repro.faults import ChaosEngine, parse_fault_spec
    from repro.programs.registry import ALL_APPS, WorkloadParams, build_workload

    def digest(session, result, peaks: bool) -> dict:
        out = {
            "matrices": {
                name: hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest() + str(m.shape)
                for name, m in sorted(result.matrices.items())
            },
            "scalars": {name: float(v).hex() for name, v in sorted(result.scalars.items())},
            "comm_bytes": result.comm_bytes,
            "bytes_by_kind": session.context.ledger.bytes_by_kind(),
            "simulated_seconds": result.simulated_seconds.hex(),
            "num_stages": result.num_stages,
            "recovery": {
                key: value
                for key, value in (result.recovery or {}).items()
                if isinstance(value, int)
            },
        }
        if peaks:
            out["peak_memory_bytes"] = result.peak_memory_bytes
        return out

    def pooled_and_serial(key: str, load, optimize: bool, block_size=None) -> None:
        pooled = ClusterConfig(num_workers=4, threads_per_worker=2, block_size=block_size)
        serial = ClusterConfig(
            num_workers=4, threads_per_worker=1, max_concurrent_stages=1, block_size=block_size,
        )
        for label, config in (("pooled", pooled), ("serial", serial)):
            session = DMacSession(config, optimize=optimize)
            result = session.run(load.program, load.inputs)
            report[f"{key} {label}"] = digest(session, result, peaks=label == "serial")

    report = {}
    for app in ALL_APPS:
        load = build_workload(app, WorkloadParams(**PARAMS))
        for optimize in (False, True):
            for block_size in (None, 37):
                key = f"{app} optimize={optimize} block_size={block_size}"
                pooled_and_serial(key, load, optimize, block_size)
            churn = ClusterConfig(num_workers=4, threads_per_worker=2, elastic=TIMELINE)
            for label, faults in (("churn", None), ("churn-faults", FAULTS)):
                chaos = ChaosEngine(FAULT_SEED, parse_fault_spec(faults)) if faults else None
                session = DMacSession(churn, optimize=optimize)
                result = session.run(load.program, load.inputs, chaos=chaos)
                report[f"{app} optimize={optimize} {label}"] = digest(session, result, peaks=False)
    wide = build_workload("gnmf", WorkloadParams(**WIDE))
    for optimize in (False, True):
        pooled_and_serial(f"gnmf wide optimize={optimize}", wide, optimize)
    return report


def observe(tree: Path) -> dict:
    """Everything compared, as produced by ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], cwd=tree, env=env, capture_output=True, text=True
        )

    digest = run(__file__, "--books")
    if digest.returncode:
        sys.exit(f"{tree}: digest run failed\n{digest.stderr}")
    seen = dict(json.loads(digest.stdout))
    for label, command in COMMANDS.items():
        done = run("-m", "repro", *command.split())
        stdout = re.sub(r'"peak_memory_bytes": \d+', '"peak_memory_bytes": "masked"', done.stdout)
        stdout = re.sub(
            r'^  "wall_seconds": [^,\n]+', '  "wall_seconds": "masked"', stdout, flags=re.M
        )
        seen[f"repro {label}"] = (done.returncode, stdout, done.stderr)
    return seen


def main(argv: list[str]) -> int:
    if argv == ["--books"]:
        json.dump(books(), sys.stdout)
        return 0
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__)
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    before, after = observe(parent), observe(change)
    different = [key for key in before | after if before.get(key) != after.get(key)]
    for key in before | after:
        print("DIFFERENT" if key in different else "IDENTICAL", key)
    print(f"{len(before | after) - len(different)}/{len(before | after)} identical")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
