"""Matrix-dependency classification: the paper's Table 2.

A matrix dependency relates an output event ``Out(A, p_i, op_i)`` to a
later input event ``In(B, p_j, op_j)`` with ``B = A`` or ``B = A^T``.
Considering the two schemes and whether the access is transposed, the 18
combinations collapse into eight dependency types, named after the matrix
process that satisfies them:

===================  ====================================  =============
type                 condition (``A=B`` / ``A=B^T``)       communication
===================  ====================================  =============
PARTITION            ``A=B``,   ``Oppose(p_i, p_j)``       yes
TRANSPOSE_PARTITION  ``A=B^T``, ``EqualRC(p_i, p_j)``      yes
BROADCAST            ``A=B``,   ``Contain(p_j, p_i)``      yes
TRANSPOSE_BROADCAST  ``A=B^T``, ``Contain(p_j, p_i)``      yes
REFERENCE            ``A=B``,   ``EqualRC`` or ``EqualB``  no
TRANSPOSE            ``A=B^T``, ``Oppose`` or ``EqualB``   no
EXTRACT              ``A=B``,   ``Contain(p_i, p_j)``      no
EXTRACT_TRANSPOSE    ``A=B^T``, ``Contain(p_i, p_j)``      no
===================  ====================================  =============

Each type also lowers to a canonical chain of *extended operators*
(paper Section 4.2.1): at most one free local step (``transpose`` /
``extract``) followed by at most one communicating step (``partition`` /
``broadcast``), except that EXTRACT_TRANSPOSE takes both free steps.
``repro.core.planner._lowering_targets`` builds that chain as concrete
instances; the planner and the repartition coalescer emit it verbatim.
"""

from __future__ import annotations

import enum

from repro.errors import PlanError
from repro.matrix.schemes import Scheme, contain, equal_b, equal_rc, oppose


class DependencyType(enum.Enum):
    """The eight matrix-dependency types of Table 2."""

    PARTITION = "partition"
    TRANSPOSE_PARTITION = "transpose-partition"
    BROADCAST = "broadcast"
    TRANSPOSE_BROADCAST = "transpose-broadcast"
    REFERENCE = "reference"
    TRANSPOSE = "transpose"
    EXTRACT = "extract"
    EXTRACT_TRANSPOSE = "extract-transpose"

    __hash__ = object.__hash__  # singleton members: identity, in C


#: Dependencies that repartition or replicate data across workers.
COMMUNICATION_DEPENDENCIES = frozenset(
    {
        DependencyType.PARTITION,
        DependencyType.TRANSPOSE_PARTITION,
        DependencyType.BROADCAST,
        DependencyType.TRANSPOSE_BROADCAST,
    }
)

#: Dependencies whose broadcast step replicates to every node (cost N x |A|).
BROADCAST_DEPENDENCIES = frozenset(
    {DependencyType.BROADCAST, DependencyType.TRANSPOSE_BROADCAST}
)


def classify(
    out_scheme: Scheme,
    in_scheme: Scheme,
    transposed: bool,
) -> DependencyType:
    """Classify the dependency from ``Out(A, out_scheme)`` to an input that
    reads ``A`` (``transposed=False``) or ``A^T`` (``transposed=True``)
    under ``in_scheme``.  Total over all 18 combinations."""
    if not transposed:
        if oppose(out_scheme, in_scheme):
            return DependencyType.PARTITION
        if contain(in_scheme, out_scheme):
            return DependencyType.BROADCAST
        if equal_rc(out_scheme, in_scheme) or equal_b(out_scheme, in_scheme):
            return DependencyType.REFERENCE
        if contain(out_scheme, in_scheme):
            return DependencyType.EXTRACT
    else:
        if equal_rc(out_scheme, in_scheme):
            return DependencyType.TRANSPOSE_PARTITION
        if contain(in_scheme, out_scheme):
            return DependencyType.TRANSPOSE_BROADCAST
        if oppose(out_scheme, in_scheme) or equal_b(out_scheme, in_scheme):
            return DependencyType.TRANSPOSE
        if contain(out_scheme, in_scheme):
            return DependencyType.EXTRACT_TRANSPOSE
    raise PlanError(  # pragma: no cover - the conditions above are total
        f"unclassifiable dependency: {out_scheme} -> {in_scheme}, transposed={transposed}"
    )


def is_communication(dependency: DependencyType) -> bool:
    """True when satisfying the dependency moves bytes between workers."""
    return dependency in COMMUNICATION_DEPENDENCIES
