"""Tests for the dependency classifier: full Table 2 coverage."""

import pytest

from repro.core.dependency import (
    COMMUNICATION_DEPENDENCIES,
    DependencyType,
    classify,
    is_communication,
)
from repro.core.plan import MatrixInstance
from repro.core.planner import _lowering_targets
from repro.matrix.schemes import Scheme

R, C, B = Scheme.ROW, Scheme.COL, Scheme.BROADCAST

# All 18 combinations (out scheme, in scheme, transposed) -> expected type,
# transcribed from Table 2 of the paper.
TABLE_2 = [
    # A = B (untransposed access)
    (R, R, False, DependencyType.REFERENCE),
    (C, C, False, DependencyType.REFERENCE),
    (B, B, False, DependencyType.REFERENCE),
    (R, C, False, DependencyType.PARTITION),
    (C, R, False, DependencyType.PARTITION),
    (R, B, False, DependencyType.BROADCAST),
    (C, B, False, DependencyType.BROADCAST),
    (B, R, False, DependencyType.EXTRACT),
    (B, C, False, DependencyType.EXTRACT),
    # A = B^T (transposed access)
    (R, C, True, DependencyType.TRANSPOSE),
    (C, R, True, DependencyType.TRANSPOSE),
    (B, B, True, DependencyType.TRANSPOSE),
    (R, R, True, DependencyType.TRANSPOSE_PARTITION),
    (C, C, True, DependencyType.TRANSPOSE_PARTITION),
    (R, B, True, DependencyType.TRANSPOSE_BROADCAST),
    (C, B, True, DependencyType.TRANSPOSE_BROADCAST),
    (B, R, True, DependencyType.EXTRACT_TRANSPOSE),
    (B, C, True, DependencyType.EXTRACT_TRANSPOSE),
]


@pytest.mark.parametrize("out_scheme,in_scheme,transposed,expected", TABLE_2)
def test_table_2_classification(out_scheme, in_scheme, transposed, expected):
    assert classify(out_scheme, in_scheme, transposed) is expected


def test_classifier_is_total():
    """All 18 combinations classify without error."""
    for out_scheme in (R, C, B):
        for in_scheme in (R, C, B):
            for transposed in (False, True):
                assert classify(out_scheme, in_scheme, transposed) is not None


def test_exactly_eight_types_reachable():
    reached = {
        classify(o, i, t)
        for o in (R, C, B)
        for i in (R, C, B)
        for t in (False, True)
    }
    assert reached == set(DependencyType)


class TestCommunicationSplit:
    def test_four_communicating_types(self):
        assert COMMUNICATION_DEPENDENCIES == {
            DependencyType.PARTITION,
            DependencyType.TRANSPOSE_PARTITION,
            DependencyType.BROADCAST,
            DependencyType.TRANSPOSE_BROADCAST,
        }

    @pytest.mark.parametrize("out_scheme,in_scheme,transposed,expected", TABLE_2)
    def test_is_communication_matches_table(self, out_scheme, in_scheme, transposed, expected):
        communicating = expected in COMMUNICATION_DEPENDENCIES
        assert is_communication(expected) == communicating


#: Section 4.2.1's canonical extended-operator chain of each type.
CHAINS = {
    DependencyType.REFERENCE: (),
    DependencyType.TRANSPOSE: ("transpose",),
    DependencyType.EXTRACT: ("extract",),
    DependencyType.EXTRACT_TRANSPOSE: ("extract", "transpose"),
    DependencyType.PARTITION: ("partition",),
    DependencyType.TRANSPOSE_PARTITION: ("transpose", "partition"),
    DependencyType.BROADCAST: ("broadcast",),
    DependencyType.TRANSPOSE_BROADCAST: ("transpose", "broadcast"),
}


def lowering(out_scheme, in_scheme, transposed):
    """The steps the planner emits from ``A`` under ``out_scheme`` to an
    input reading ``A`` (or ``A^T``) under ``in_scheme``."""
    source = MatrixInstance("A", False, out_scheme)
    return source, _lowering_targets(source, "A", transposed, in_scheme)


class TestLoweringChains:
    """The lowering the planner and the coalescer emit realises Table 2."""

    @pytest.mark.parametrize("out_scheme,in_scheme,transposed,expected", TABLE_2)
    def test_chain_structure(self, out_scheme, in_scheme, transposed, expected):
        source, chain = lowering(out_scheme, in_scheme, transposed)
        kinds = tuple(kind for kind, __ in chain)
        assert kinds == CHAINS[expected]
        # At most one communicating step, and it comes last.
        comm_steps = [k for k in kinds if k in ("partition", "broadcast")]
        communicates = is_communication(classify(out_scheme, in_scheme, transposed))
        assert len(comm_steps) == (1 if communicates else 0)
        if comm_steps:
            assert kinds[-1] in ("partition", "broadcast")
        # Each step is the one-operator dependency of its kind, and the
        # chain lands on the instance the input requires.
        current = source
        for kind, target in chain:
            hop = classify(current.scheme, target.scheme, current.transposed != target.transposed)
            assert hop.value == kind
            current = target
        assert current == MatrixInstance("A", transposed, in_scheme)

    def test_reference_is_empty(self):
        assert lowering(R, R, False)[1] == []

    def test_transpose_partition_transposes_first(self):
        __, chain = lowering(R, R, True)
        assert [kind for kind, __ in chain] == ["transpose", "partition"]
        assert chain[0][1] == MatrixInstance("A", True, C)

    def test_extract_transpose_extracts_first(self):
        __, chain = lowering(B, R, True)
        assert [kind for kind, __ in chain] == ["extract", "transpose"]
        assert chain[0][1] == MatrixInstance("A", False, C)
