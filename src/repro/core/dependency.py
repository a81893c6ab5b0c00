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
``broadcast``).  :func:`lowering_chain` returns that chain; the planner
emits it verbatim into the execution plan.
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


def lowering_chain(
    dependency: DependencyType,
    in_scheme: Scheme,
) -> tuple[str, ...]:
    """The extended-operator chain realising a dependency whose consumer
    requires ``in_scheme``.

    Returns a tuple of operator kinds from ``{"transpose", "extract",
    "partition", "broadcast"}`` in application order; REFERENCE lowers to
    the empty chain.
    """
    if dependency is DependencyType.REFERENCE:
        return ()
    if dependency is DependencyType.TRANSPOSE:
        return ("transpose",)
    if dependency is DependencyType.EXTRACT:
        return ("extract",)
    if dependency is DependencyType.EXTRACT_TRANSPOSE:
        # Extract the complementary 1-D scheme, then transpose into place.
        return ("extract", "transpose")
    if dependency is DependencyType.PARTITION:
        return ("partition",)
    if dependency is DependencyType.TRANSPOSE_PARTITION:
        # The free local transpose flips Row<->Column; the repartition then
        # moves the data into the required scheme.
        return ("transpose", "partition")
    if dependency is DependencyType.BROADCAST:
        return ("broadcast",)
    if dependency is DependencyType.TRANSPOSE_BROADCAST:
        return ("transpose", "broadcast")
    raise PlanError(f"unknown dependency {dependency}")  # pragma: no cover
