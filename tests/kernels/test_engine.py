"""Session-level behaviour of the kernel layer: the ``--show-rewrites``
audit trail of the fusion pass."""

from repro.cli import main


class TestShowRewritesAudit:
    def test_gnmf_plan_lists_fusion_rewrites(self, capsys):
        assert main(
            ["plan", "gnmf", "--iterations", "1", "--factors", "4",
             "--scale", "1.5e-3", "--show-rewrites"]
        ) == 0
        out = capsys.readouterr().out
        assert "# applied rewrites" in out
        assert "[fuse] fused" in out
        assert "composed kernel" in out
