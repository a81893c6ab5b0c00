"""CLI behaviour of ``repro lint`` and the shared plan/lint conventions:
distinct exit codes for parse vs lint failures, ``--format json``,
per-rule suppression, and the self-test entry point."""

import json

import pytest

from repro.cli import EXIT_LINT_ERRORS, EXIT_OK, EXIT_PARSE_ERROR, main

CLEAN_DML = "A = random(20, 30)\nB = A %*% t(A)\noutput(B)\n"
BROKEN_DML = "A = random(20, 30\noutput(A)\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_clean_script_exits_zero(self, tmp_path, capsys):
        assert main(["lint", write(tmp_path, "p.dml", CLEAN_DML)]) == EXIT_OK
        assert "0 error(s)" in capsys.readouterr().out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        code = main(["lint", write(tmp_path, "p.dml", BROKEN_DML)])
        assert code == EXIT_PARSE_ERROR
        assert "parse error" in capsys.readouterr().err

    def test_lint_errors_exit_one(self, capsys):
        """A one-byte memory budget turns every broadcast into a DM106."""
        code = main(["lint", "gnmf", "--iterations", "1", "--factors", "4",
                     "--scale", "1.5e-3", "--memory-limit", "1"])
        assert code == EXIT_LINT_ERRORS
        assert "DM106" in capsys.readouterr().out

    def test_plan_parse_error_exits_two(self, tmp_path, capsys):
        code = main(["plan", write(tmp_path, "p.dml", BROKEN_DML)])
        assert code == EXIT_PARSE_ERROR
        assert "parse error" in capsys.readouterr().err

    def test_plan_and_lint_parse_codes_agree(self, tmp_path, capsys):
        path = write(tmp_path, "p.dml", BROKEN_DML)
        assert main(["plan", path]) == main(["lint", path]) == EXIT_PARSE_ERROR
        capsys.readouterr()

    def test_missing_target_without_selftest(self, capsys):
        assert main(["lint"]) == EXIT_PARSE_ERROR
        assert "required" in capsys.readouterr().err


class TestJsonFormat:
    def test_lint_json_report(self, tmp_path, capsys):
        assert main(["lint", write(tmp_path, "p.dml", CLEAN_DML),
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["diagnostics"] == []

    def test_lint_json_carries_structured_findings(self, capsys):
        code = main(["lint", "gnmf", "--iterations", "1", "--factors", "4",
                     "--scale", "1.5e-3", "--memory-limit", "1",
                     "--format", "json"])
        assert code == EXIT_LINT_ERRORS
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] > 0
        finding = payload["diagnostics"][0]
        assert finding["rule"] == "DM106"
        assert finding["severity"] == "error"
        assert finding["hint"]

    def test_plan_json_report(self, tmp_path, capsys):
        assert main(["plan", write(tmp_path, "p.dml", CLEAN_DML),
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_stages"] >= 1
        assert payload["predicted_bytes"] >= 0
        assert all("description" in step for step in payload["steps"])


class TestDmlTargets:
    """A ``.dml`` target is linted like an app: its session's plans."""

    CHAIN_DML = (
        "A = random(64,64)\nX = random(64,64,seed=2)\nB = A + X\nC = B * X\n"
        "output(B)\noutput(C)\n"
    )

    @pytest.mark.parametrize("optimize, expected", [(True, ["DM401"]), (False, [])])
    def test_lint_lints_the_plan_the_session_makes(self, tmp_path, capsys, optimize, expected):
        """``--optimize`` used to be ignored for a script: it linted the raw plan."""
        from repro import DMacSession
        from repro.lang.dml import parse_program
        from repro.lint import LintContext, lint_plan

        path = write(tmp_path, "chain.dml", self.CHAIN_DML)
        argv = ["lint", path, "--format", "json"] + (["--optimize"] if optimize else [])
        assert main(argv) == EXIT_OK
        rules = [d["rule"] for d in json.loads(capsys.readouterr().out)["diagnostics"]]
        with DMacSession(optimize=optimize) as session:
            plan = session.plan(parse_program(self.CHAIN_DML))
            report = lint_plan(plan, LintContext.from_config(session.config))
        assert rules == [d.rule for d in report.diagnostics] == expected

    @pytest.mark.parametrize("command", ["plan", "lint", "stages", "verify"])
    def test_a_script_error_names_the_file_and_line(self, tmp_path, capsys, command):
        path = write(tmp_path, "bad.dml", "A = random(2, 3)\nB = A + A\nC = A %*% A\noutput(C)\n")
        assert main([command, path]) == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert "bad.dml:3" in err and "matmul inner dimensions differ" in err


class TestSuppression:
    def test_suppressed_rule_does_not_fire_or_fail(self, capsys):
        code = main(["lint", "gnmf", "--iterations", "1", "--factors", "4",
                     "--scale", "1.5e-3", "--memory-limit", "1",
                     "--suppress", "DM106"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "DM106" in out  # listed as suppressed in the summary
        assert "error: DM106" not in out

    def test_unknown_suppress_rule_rejected(self, capsys):
        code = main(["lint", "gnmf", "--iterations", "1", "--factors", "4",
                     "--scale", "1.5e-3", "--suppress", "DM999"])
        assert code == EXIT_PARSE_ERROR
        assert "DM999" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["lint", "--selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all rules fire" in out
        assert "FAIL" not in out


class TestApps:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lint", "gnmf", "--iterations", "1", "--factors", "4",
             "--scale", "1.5e-3"],
            ["lint", "pagerank", "--scale", "1e-4", "--iterations", "1"],
            ["lint", "linreg", "--rows", "200", "--features", "20",
             "--iterations", "1"],
            ["lint", "cf", "--scale", "1e-3"],
            ["lint", "svd", "--scale", "1.5e-3", "--rank", "3"],
        ],
    )
    def test_paper_apps_lint_error_clean(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert "0 error(s)" in capsys.readouterr().out

    def test_unknown_target_rejected(self, capsys):
        assert main(["lint", "kmeans"]) == EXIT_PARSE_ERROR
        assert "unknown lint target" in capsys.readouterr().err

    def test_python_builder_file(self, tmp_path, capsys):
        script = tmp_path / "builder.py"
        script.write_text(
            "from repro import ClusterConfig, DMacSession, ProgramBuilder\n"
            "pb = ProgramBuilder()\n"
            "a = pb.random('A', (10, 12))\n"
            "pb.output(pb.assign('B', a.T @ a))\n"
            "DMacSession(ClusterConfig(num_workers=3)).plan(pb.build())\n"
        )
        assert main(["lint", str(script)]) == EXIT_OK
        assert "0 error(s)" in capsys.readouterr().out

    def test_python_file_that_plans_nothing_warns_dm000(self, tmp_path, capsys):
        script = tmp_path / "unplanned.py"
        script.write_text("from repro import ProgramBuilder\nPROGRAM = ProgramBuilder().build()\n")
        assert main(["lint", str(script)]) == EXIT_OK
        assert "DM000" in capsys.readouterr().out
