#!/usr/bin/env python3
"""Byte identity of two source trees: every output bit and deterministic book.

    python scripts/byte_identity.py PARENT_TREE [CHANGE_TREE]

(``CHANGE_TREE`` defaults to this checkout; get a parent tree with
``git archive <commit> | tar -x -C DIR``.)  For a change that is meant to be
host-side only -- a kernel, a load path -- each tree runs, with its own
``src`` on ``PYTHONPATH``:

* every app in ``ALL_APPS`` x ``optimize`` {off, on} x ``block_size``
  {None, 37} on 4 workers x 2 threads: sha256 of every output matrix, every
  scalar as ``float.hex``, ``comm_bytes``, ``simulated_seconds.hex()``,
  ``num_stages``; and once more on a serial session (1 thread, 1 concurrent
  stage), where ``peak_memory_bytes`` is deterministic and is compared too
  (with pool threads it differs between two runs of one tree);
* three CLI commands, stdout and stderr.

Prints one IDENTICAL/DIFFERENT line per item; exit 1 if any differs.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

PARAMS = dict(seed=3, scale=2e-3, rows=400, features=30, iterations=3, factors=8, rank=3)

COMMANDS = {
    "run pagerank": "run pagerank --scale 1e-3 --iterations 3 --threads 1 --format json",
    "chaos pagerank": "chaos pagerank --scale 1e-3 --iterations 3 --seed 7"
    " --faults crash:stage=3 --format json",
    "run gnmf --trace": "run gnmf --scale 2e-3 --iterations 2 --trace --format json",
}


def books() -> dict:
    """The digest of the tree on ``PYTHONPATH`` (run in a subprocess)."""
    import numpy as np

    from repro import ClusterConfig, DMacSession
    from repro.programs.registry import ALL_APPS, WorkloadParams, build_workload

    def digest(result, peaks: bool) -> dict:
        out = {
            "matrices": {
                name: hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest() + str(m.shape)
                for name, m in sorted(result.matrices.items())
            },
            "scalars": {name: float(v).hex() for name, v in sorted(result.scalars.items())},
            "comm_bytes": result.comm_bytes,
            "simulated_seconds": result.simulated_seconds.hex(),
            "num_stages": result.num_stages,
        }
        if peaks:
            out["peak_memory_bytes"] = result.peak_memory_bytes
        return out

    report = {}
    for app in ALL_APPS:
        load = build_workload(app, WorkloadParams(**PARAMS))
        for optimize in (False, True):
            for block_size in (None, 37):
                key = f"{app} optimize={optimize} block_size={block_size}"
                pooled = ClusterConfig(num_workers=4, threads_per_worker=2, block_size=block_size)
                serial = ClusterConfig(
                    num_workers=4, threads_per_worker=1, max_concurrent_stages=1,
                    block_size=block_size,
                )
                for label, config in (("pooled", pooled), ("serial", serial)):
                    result = DMacSession(config, optimize=optimize).run(load.program, load.inputs)
                    report[f"{key} {label}"] = digest(result, peaks=label == "serial")
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
        seen[f"repro {label}"] = (done.returncode, done.stdout, done.stderr)
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
