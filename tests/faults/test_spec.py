"""Fault-spec grammar: parsing, defaults, and rejection of malformed input."""

import pytest

from repro.errors import FaultSpecError
from repro.faults import FaultClause, parse_fault_spec
from repro.faults.spec import FAULT_KINDS


class TestParsing:
    def test_bare_kind(self):
        (clause,) = parse_fault_spec("crash")
        assert clause == FaultClause(kind="crash")
        assert clause.probability == 1.0
        assert clause.times == 1

    def test_all_kinds_parse(self):
        spec = "crash;lostblock:instance=rank;flaky;straggler"
        kinds = [clause.kind for clause in parse_fault_spec(spec)]
        assert kinds == list(FAULT_KINDS)

    def test_options_parsed_and_typed(self):
        (clause,) = parse_fault_spec("flaky:at=shuffle,p=0.25,times=3,stage=2")
        assert clause.at == "shuffle"
        assert clause.probability == 0.25
        assert clause.times == 3
        assert clause.stage == 2

    def test_iteration_sugar_builds_ssa_name(self):
        (clause,) = parse_fault_spec("lostblock:instance=rank,iteration=3")
        assert clause.instance == "rank@3"

    def test_iteration_one_keeps_bare_name(self):
        """The first SSA version of ``rank`` is plain ``rank``."""
        (clause,) = parse_fault_spec("lostblock:instance=rank,iteration=1")
        assert clause.instance == "rank"

    def test_explicit_ssa_instance_passes_through(self):
        (clause,) = parse_fault_spec("lostblock:instance=W@2")
        assert clause.instance == "W@2"

    def test_semicolons_and_whitespace_tolerated(self):
        clauses = parse_fault_spec(" crash:stage=1 ; ; straggler:factor=6 ")
        assert [c.kind for c in clauses] == ["crash", "straggler"]
        assert clauses[1].factor == 6.0

    def test_clause_matches_stage(self):
        (anywhere,) = parse_fault_spec("crash")
        (pinned,) = parse_fault_spec("crash:stage=2")
        assert anywhere.matches_stage(0) and anywhere.matches_stage(7)
        assert pinned.matches_stage(2) and not pinned.matches_stage(3)

    def test_describe_round_trips_the_interesting_bits(self):
        (clause,) = parse_fault_spec("lostblock:instance=rank,iteration=3,p=0.5")
        text = clause.describe()
        assert "lostblock" in text
        assert "instance=rank@3" in text
        assert "p=0.5" in text


class TestRejection:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("", "no clauses"),
            (" ; ", "no clauses"),
            ("meteor", "unknown fault kind"),
            ("crash:stage", "malformed option"),
            ("crash:stage=", "malformed option"),
            ("crash:oops=1", "not valid for fault kind"),
            ("crash:stage=1,stage=2", "duplicate option"),
            ("crash:stage=-1", "must be >= 0"),
            ("crash:stage=two", "must be an integer"),
            ("crash:p=1.5", "p must be in"),
            ("crash:p=high", "must be a number"),
            ("straggler:factor=1.0", "factor must be > 1"),
            ("flaky:at=disk", "at must be one of"),
            ("lostblock", "needs instance=NAME"),
            ("lostblock:instance=rank@2,iteration=2", "not both"),
            ("lostblock:instance=rank,iteration=0", "must be >= 1"),
            ("crash:iteration=2", "not valid for fault kind"),
            ("crash:instance=rank", "not valid for fault kind"),
        ],
    )
    def test_malformed_specs_rejected(self, spec, message):
        with pytest.raises(FaultSpecError, match=message):
            parse_fault_spec(spec)
