"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gnmf"])
        assert args.app == "gnmf"
        assert args.workers == 4
        assert not args.compare

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "kmeans"])

    def test_plan_dot_flag(self):
        args = build_parser().parse_args(["plan", "gnmf", "--dot"])
        assert args.dot


class TestRunCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "gnmf", "--scale", "1.5e-3", "--iterations", "1", "--factors", "4"],
            ["run", "pagerank", "--scale", "1e-4", "--iterations", "2"],
            ["run", "linreg", "--rows", "200", "--features", "20", "--iterations", "2"],
            ["run", "cf", "--scale", "1e-3"],
            ["run", "svd", "--scale", "1.5e-3", "--rank", "3"],
        ],
    )
    def test_every_app_runs(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "DMac" in out
        assert "communication" in out

    def test_compare_runs_baseline(self, capsys):
        assert main(
            ["run", "gnmf", "--scale", "1.5e-3", "--iterations", "1",
             "--factors", "4", "--compare"]
        ) == 0
        out = capsys.readouterr().out
        assert "SystemML-S baseline" in out
        assert "x DMac" in out

    def test_svd_prints_singular_values(self, capsys):
        main(["run", "svd", "--scale", "1.5e-3", "--rank", "3"])
        assert "singular values" in capsys.readouterr().out


class TestMembershipFlags:
    GNMF = ["gnmf", "--scale", "1.5e-3", "--iterations", "2", "--factors", "4"]

    def test_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", *self.GNMF, "--backend", "elastic"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_timeline_alone_selects_elastic_membership(self, capsys):
        assert main(
            ["run", *self.GNMF, "--elastic", "join@2;leave@4", "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["elastic"]["slots"] == 5
        assert len(report["elastic"]["events"]) == 2

    def test_static_run_report_has_no_elastic_key(self, capsys):
        assert main(["run", *self.GNMF, "--format", "json"]) == 0
        assert "elastic" not in json.loads(capsys.readouterr().out)

    def test_compare_refuses_a_timeline(self, capsys):
        assert main(["run", *self.GNMF, "--elastic", "join@2", "--compare"]) == 2
        assert "static cluster" in capsys.readouterr().err


class TestChaosCommand:
    ARGV = ["pagerank", "--scale", "5e-4", "--iterations", "5", "--format", "json"]

    def test_chaos_honours_the_cluster_flags(self, capsys):
        """`repro chaos` used to hand-build its ClusterConfig and silently
        drop --optimize (and the kernel flags): its clean run must equal
        `repro run` under the same flags."""
        books = {}
        for optimize in ("--no-optimize", "--optimize"):
            assert main(["run", *self.ARGV, optimize]) == 0
            run_report = json.loads(capsys.readouterr().out)
            assert main(
                ["chaos", *self.ARGV, optimize, "--seed", "7",
                 "--faults", "crash:stage=2"]
            ) == 0
            clean = json.loads(capsys.readouterr().out)["clean"]
            assert clean["comm_bytes"] == run_report["comm_bytes"]
            assert clean["num_stages"] == run_report["num_stages"]
            books[optimize] = (clean["comm_bytes"], clean["num_stages"])
        assert books["--optimize"] < books["--no-optimize"]


class TestPlanCommand:
    def test_plan_listing(self, capsys):
        assert main(["plan", "gnmf", "--iterations", "1", "--factors", "4",
                     "--scale", "1.5e-3"]) == 0
        out = capsys.readouterr().out
        assert "-- stage 1 --" in out
        assert "predicted" in out

    def test_plan_dot(self, capsys):
        assert main(["plan", "pagerank", "--scale", "1e-4", "--iterations", "1",
                     "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph plan {")

    def test_workers_flag_respected(self, capsys):
        main(["plan", "gnmf", "--iterations", "1", "--factors", "4",
              "--scale", "1.5e-3", "--workers", "2"])
        assert "stage" in capsys.readouterr().out

    PLAN = ["plan", "gnmf", "--iterations", "1", "--scale", "2e-3"]

    def test_timeline_plan_is_priced_for_its_slots(self, capsys):
        """Under a timeline the plan is built for the slot count (peak
        membership), so the per-stage table must be priced for it too."""
        assert main([*self.PLAN, "--workers", "6"]) == 0
        six = capsys.readouterr().out
        assert main([*self.PLAN, "--workers", "4",
                     "--elastic", "join@2:count=2"]) == 0
        timeline = capsys.readouterr().out
        assert main([*self.PLAN, "--workers", "4"]) == 0
        four = capsys.readouterr().out

        def by_stage(text):
            (line,) = [l for l in text.splitlines()
                       if l.startswith("communication by stage:")]
            return line

        assert by_stage(timeline) == by_stage(six) != by_stage(four)
        assert timeline == six

    def test_lint_plans_through_the_session_at_its_slot_count(self, capsys):
        """`lint` analyses the plan `run` would execute: planned by the
        session (where capture_plans observes it), for the slot count."""
        from repro.lint.runner import capture_plans

        for app, segments in (("gnmf", 1), ("powiter", 2)):
            captured = []
            with capture_plans(captured):
                assert main(["lint", app, "--iterations", "1", "--scale", "2e-3",
                             "--rows", "100", "--workers", "4",
                             "--elastic", "join@2:count=2"]) == 0
            assert [context.num_workers for __, context in captured] == [6] * segments
            assert "0 error(s)" in capsys.readouterr().out


class TestStagesCommand:
    def test_stages_listing(self, capsys):
        assert main(["stages", "gnmf", "--iterations", "1", "--factors", "4",
                     "--scale", "1.5e-3"]) == 0
        out = capsys.readouterr().out
        assert "stage graph:" in out
        assert "critical path" in out
        assert "node 0" in out

    def test_stages_json(self, capsys):
        import json

        assert main(["stages", "pagerank", "--scale", "1e-4",
                     "--iterations", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "pagerank"
        assert payload["num_nodes"] >= 1
        assert payload["critical_path"]
        for node in payload["nodes"]:
            assert {"index", "stage", "deps", "steps"} <= set(node)

    def test_stages_script_target(self, tmp_path, capsys):
        path = tmp_path / "prog.dml"
        path.write_text(
            "A = load(16, 16)\nB = A %*% A\noutput(B)\n"
        )
        assert main(["stages", str(path)]) == 0
        assert "stage graph:" in capsys.readouterr().out

    def test_stages_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["stages", "kmeans"])


class TestScriptCommand:
    def write_script(self, tmp_path, text):
        path = tmp_path / "prog.dml"
        path.write_text(text)
        return str(path)

    def test_runs_script_with_npy_binding(self, tmp_path, capsys):
        import numpy as np

        np.save(tmp_path / "A.npy", np.random.default_rng(0).random((8, 8)))
        script = self.write_script(
            tmp_path, "A = load(8, 8)\nB = A %*% A\noutput(B)\n"
        )
        assert main(["script", script, "--bind", f"A={tmp_path / 'A.npy'}"]) == 0
        out = capsys.readouterr().out
        assert "matrix B" in out

    def test_runs_script_with_repro_npz_binding(self, tmp_path, capsys):
        import numpy as np

        from repro.config import ClusterConfig
        from repro.matrix.distributed import DistributedMatrix
        from repro.matrix.io import save_matrix
        from repro.rdd.context import ClusterContext

        ctx = ClusterContext(ClusterConfig(num_workers=2))
        array = np.random.default_rng(1).random((6, 6))
        save_matrix(tmp_path / "A.npz", DistributedMatrix.from_numpy(ctx, array, 3))
        script = self.write_script(tmp_path, "A = load(6, 6)\nB = A + A\noutput(B)\n")
        assert main(["script", script, "--bind", f"A={tmp_path / 'A.npz'}"]) == 0
        assert "matrix B" in capsys.readouterr().out

    def test_foreign_or_missing_binding_file_exits_with_one_line(self, tmp_path):
        import numpy as np

        np.savez(tmp_path / "other.npz", data=np.zeros(3))
        script = self.write_script(tmp_path, "A = load(6, 6)\noutput(A)\n")
        for name in ("other.npz", "ghost.npz"):
            with pytest.raises(SystemExit, match="--bind takes a .npy or a repro matrix .npz"):
                main(["script", script, "--bind", f"A={tmp_path / name}"])

    def test_scalar_outputs_printed(self, tmp_path, capsys):
        script = self.write_script(
            tmp_path, "A = random(4, 4)\ns = sum(A)\noutputScalar(s)\n"
        )
        assert main(["script", script]) == 0
        assert "scalar s" in capsys.readouterr().out

    def test_unknown_binding_rejected(self, tmp_path):
        script = self.write_script(tmp_path, "A = random(4, 4)\noutput(A)\n")
        with pytest.raises(SystemExit):
            main(["script", script, "--bind", "ghost=/nonexistent.npy"])


def test_jacobi_app_runs(capsys):
    assert main(["run", "jacobi", "--rows", "60", "--iterations", "5"]) == 0
    assert "DMac jacobi" in capsys.readouterr().out
