"""Self-test of the end-to-end benchmark (not under ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload in ``--smoke`` mode, traced and untraced, and checks
the contract the rest of the repo relies on: every metric named in
``BENCHMARK.json`` is printed with its unit, the traced spans account
for the job, traced and untraced jobs agree, and a corrupted result is
caught.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(HERE))

from tracing import union_seconds  # noqa: E402


def bench(*flags: str, script: pathlib.Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *flags], capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run per (workload, trace mode), results under one --out."""
    out = tmp_path_factory.mktemp("bench")
    runs = {
        (name, trace): bench(
            "--workload", name, "--smoke", "--trace", str(trace), "--out", str(out)
        )
        for name in WORKLOADS
        for trace in (0, 1)
    }
    return out, runs


def test_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(smoke, name, trace):
    done = smoke[1][name, trace]
    assert done.returncode == 0, done.stdout + done.stderr
    printed = {
        fields[0]: fields[2]
        for fields in map(str.split, done.stdout.splitlines())
        if len(fields) == 3
    }
    reported = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == [m["name"] for m in reported]
    for metric in reported:
        assert printed[metric["name"]] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for metric in SPEC["end_to_end"]:
        assert result["metrics"].get(metric["name"], {"value": 1})["value"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_account_for_the_job(smoke, name):
    spans = json.loads((smoke[0] / f"spans_{name}.json").read_text())
    jobs = [span for span in spans if span[3] == "job"]
    assert jobs
    for job in jobs:
        children = [(s[4], s[5]) for s in spans if s[1] == job[0]]
        assert union_seconds(children) >= 0.95 * (job[5] - job[4])
        assert all(s[2] == job[2] for s in spans if s[1] == job[0])


def test_traced_and_untraced_runs_agree(smoke):
    e2e = json.loads((smoke[0] / "BENCH_e2e.json").read_text())["summary"]
    layers = json.loads((smoke[0] / "BENCH_layers.json").read_text())["summary"]
    for name in WORKLOADS:
        for exact in ("comm_bytes", "sim_s", "failed_share"):
            assert e2e[name][exact]["median"] == layers[name][exact]["median"]
        assert layers[name]["trace.job_self_share"]["median"] <= 0.05


@pytest.mark.parametrize("name", ("gnmf_kernels", "serve_mix"))
def test_a_corrupted_result_fails_the_run(name):
    done = bench("--workload", name, "--smoke", "--corrupt")
    result = json.loads(done.stdout.splitlines()[-1])
    assert done.returncode != 0
    assert not result["correct"] and result["failed"] > 0


def test_compare_accepts_itself_and_flags_a_regression(smoke, tmp_path):
    same = bench(str(smoke[0]), str(smoke[0]), script=HERE / "compare.py")
    assert same.returncode == 0, same.stdout + same.stderr
    assert "regressed" not in same.stdout
    doctored = json.loads((smoke[0] / "BENCH_e2e.json").read_text())
    for run in doctored["runs"]:
        run["metrics"]["job_wall_s_p50"]["value"] *= 1.5
    (tmp_path / "BENCH_e2e.json").write_text(json.dumps(doctored))
    slower = bench(str(smoke[0]), str(tmp_path), script=HERE / "compare.py")
    assert slower.returncode != 0
    assert re.search(r"job_wall_s_p50 .* regressed", slower.stdout)


def test_fails_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    done = bench("--workload", "svd_optimize", script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout
