"""Audit of the CLI's machine-readable contract: every ``--format json``
subcommand prints *exactly one* parseable JSON document on stdout, with
any human-readable progress on stderr."""

import json
import sys

import pytest

from repro.cli import main

#: One representative invocation per JSON-capable subcommand, kept small.
JSON_COMMANDS = {
    "run": ["run", "pagerank", "--scale", "1e-3", "--iterations", "2",
            "--format", "json"],
    "run-trace": ["run", "linreg", "--rows", "120", "--features", "12",
                  "--iterations", "2", "--trace", "--format", "json"],
    "plan": ["plan", "gnmf", "--scale", "1e-3", "--iterations", "1",
             "--factors", "4", "--format", "json"],
    "stages": ["stages", "gnmf", "--scale", "1e-3", "--iterations", "1",
               "--factors", "4", "--format", "json"],
    "lint": ["lint", "pagerank", "--scale", "1e-3", "--iterations", "2",
             "--format", "json"],
    "verify": ["verify", "gnmf", "--scale", "1e-3", "--iterations", "2",
               "--factors", "4", "--format", "json"],
    "verify-execute": ["verify", "linreg", "--rows", "120", "--features", "12",
                       "--iterations", "2", "--execute", "--format", "json"],
    "chaos": ["chaos", "pagerank", "--scale", "1e-3", "--iterations", "2",
              "--seed", "7", "--faults", "flaky:p=0.3", "--format", "json"],
    "trace": ["trace", "pagerank", "--scale", "1e-3", "--iterations", "2",
              "--format", "json"],
    "trace-chrome": ["trace", "linreg", "--rows", "120", "--features", "12",
                     "--iterations", "2", "--format", "chrome"],
}


@pytest.mark.parametrize("argv", JSON_COMMANDS.values(),
                         ids=JSON_COMMANDS.keys())
def test_stdout_is_exactly_one_json_document(argv, capsys):
    code = main(argv)
    assert code == 0
    out, err = capsys.readouterr()
    document = json.loads(out)  # the whole of stdout parses as one doc
    assert isinstance(document, dict)
    for line in err.splitlines():  # progress lines are prose, not JSON
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_trace_out_writes_the_document_to_a_file(tmp_path, capsys):
    path = tmp_path / "trace.json"
    argv = ["trace", "pagerank", "--scale", "1e-3", "--iterations", "2",
            "--format", "chrome", "--out", str(path)]
    assert main(argv) == 0
    out, __ = capsys.readouterr()
    assert out == ""  # --out leaves stdout clean
    document = json.loads(path.read_text())
    assert document["otherData"]["clock"] == "simulated"


def test_verify_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.dml"
    bad.write_text("H = ???~~~(")
    assert main(["verify", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # nothing but JSON ever reaches stdout
    assert "parse error" in err


def test_verify_hazards_exit_1_and_mark_the_document(capsys, monkeypatch):
    import dataclasses

    import repro.verify as verify_mod
    from repro.verify import READ_BEFORE_PUBLISH, Hazard

    real = verify_mod.verify_plan

    def hazardous(plan, **kwargs):
        report = real(plan, **kwargs)
        injected = Hazard(kind=READ_BEFORE_PUBLISH, step=0, subject="X",
                          detail="injected for the exit-code contract")
        return dataclasses.replace(report, hazards=(injected,))

    monkeypatch.setattr(verify_mod, "verify_plan", hazardous)
    code = main(["verify", "gnmf", "--scale", "1e-3", "--iterations", "1",
                 "--factors", "4", "--format", "json"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is False
    assert document["hazards"][0]["kind"] == READ_BEFORE_PUBLISH


def test_run_without_trace_has_no_trace_key(capsys):
    argv = ["run", "pagerank", "--scale", "1e-3", "--iterations", "2",
            "--format", "json"]
    assert main(argv) == 0
    document = json.loads(capsys.readouterr().out)
    assert "trace" not in document


def test_run_with_trace_reports_reconciliation(capsys):
    argv = ["run", "pagerank", "--scale", "1e-3", "--iterations", "2",
            "--trace", "--format", "json"]
    assert main(argv) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["trace"]["reconciled"] is True
    assert (
        document["trace"]["metrics"]["counters"]["bytes.total"]
        == document["comm_bytes"]
    )


ELASTIC_TRACE = ["gnmf", "--scale", "2e-3", "--iterations", "2",
                 "--elastic", "join@2;leave@4"]


def test_run_with_trace_reconciles_under_a_membership_timeline(capsys):
    assert main(["run", *ELASTIC_TRACE, "--trace", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["trace"]["reconciled"] is True
    assert document["elastic"]["rebalance_bytes"] > 0
    assert main(["trace", *ELASTIC_TRACE, "--faults", "crash:stage=3",
                 "--format", "chrome"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)
    assert "trace reconciled" in captured.err


@pytest.mark.parametrize("command", ["run", "trace"])
def test_a_failed_reconciliation_is_one_error_line(command, monkeypatch, capsys):
    """Typed exit, not a traceback: exit 1 and a single ``error:`` line."""
    # ``repro.trace.reconcile`` the attribute is the re-exported function.
    reconcile_module = sys.modules["repro.trace.reconcile"]
    broken = {"name": "bytes.total", "ok": False, "expected": 1, "actual": 2}
    monkeypatch.setattr(
        reconcile_module, "reconcile", lambda collector: {"ok": False, "checks": [broken]}
    )
    argv = [command, "linreg", "--rows", "120", "--features", "12", "--iterations", "2"]
    assert main(argv + (["--trace"] if command == "run" else [])) == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "bytes.total: expected 1, trace summed 2" in errors[0]
    assert "Traceback" not in captured.err and captured.out == ""


def test_segment_keys_mean_the_program_has_a_loop(capsys):
    """`staged`/`segments` are keyed on "the program has a loop", not on
    how many executions the run folded: a straight-line report has
    neither, a loop whose condition is false at once reports 0."""
    assert main(["run", "pagerank", "--scale", "1e-3", "--iterations", "2",
                 "--format", "json"]) == 0
    straight = json.loads(capsys.readouterr().out)
    assert "staged" not in straight and "segments" not in straight
    for eps, expected in (("1e9", 0), ("1e-5", None)):
        assert main(["run", "powiter", "--rows", "100", "--eps", eps,
                     "--trace", "--format", "json"]) == 0
        looped = json.loads(capsys.readouterr().out)
        assert looped["staged"] is True
        assert looped["trace"]["reconciled"] is True
        if expected is None:
            assert looped["segments"] >= 1
        else:
            assert looped["segments"] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "gnmf", "--scale", "1e-3", "--iterations", "1", "--factors", "4"],
        ["plan", "powiter", "--rows", "100"],
        ["plan", "svd", "--scale", "1e-3", "--rank", "4", "--optimize"],
    ],
    ids=["straight-line", "staged", "optimized"],
)
def test_plan_json_shows_the_cost_table(argv, capsys):
    """Each step carries its predicted bytes and flops; they sum to the
    document's totals (per segment for a program with a loop)."""
    assert main([*argv, "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    segments = document.get("segments", [document])
    assert len(segments) == (2 if document.get("staged") else 1)
    for segment in segments:
        steps = segment["steps"]
        assert sum(step["comm_bytes"] for step in steps) == segment["predicted_bytes"]
        assert sum(step["flops"] for step in steps) == segment["predicted_flops"]
        assert segment["predicted_flops"] > 0
        for step in steps:
            assert bool(step["comm_bytes"]) <= step["communicates"]
