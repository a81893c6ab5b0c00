"""Partition schemes and the four scheme constraints (paper Section 3.1).

DMac places distributed matrices with three one-dimensional schemes:

* **Row** (``r``)       -- blocks of the same block-row share a partition,
* **Column** (``c``)    -- blocks of the same block-column share a partition,
* **Broadcast** (``b``) -- every worker holds a replica of every block.

Table 1 of the paper defines four constraints between two schemes, used by
the dependency classifier (Table 2):

* ``EqualB(pi, pj)``   -- both are Broadcast,
* ``EqualRC(pi, pj)``  -- equal, and Row or Column,
* ``Oppose(pi, pj)``   -- one Row and the other Column,
* ``Contain(pi, pj)``  -- ``pi`` is Broadcast while ``pj`` is Row or Column
  (a broadcast replica *contains* every one-dimensional layout).
"""

from __future__ import annotations

import enum

from repro.errors import SchemeError
from repro.rdd.partitioner import ColumnPartitioner, Partitioner, RowPartitioner


class Scheme(enum.Enum):
    """A matrix partition scheme."""

    ROW = "r"
    COL = "c"
    BROADCAST = "b"

    #: Members are singletons: hash by identity, in C (``Enum``'s own
    #: ``__hash__`` is a Python frame hashing the member name).
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self._value_  # the plain attribute; ``.value`` is a descriptor call

    @property
    def is_one_dimensional(self) -> bool:
        return self in (Scheme.ROW, Scheme.COL)

    @property
    def opposite(self) -> "Scheme":
        """Row <-> Column (the scheme a local transpose produces)."""
        if self is Scheme.ROW:
            return Scheme.COL
        if self is Scheme.COL:
            return Scheme.ROW
        return Scheme.BROADCAST

    def partitioner(self, num_partitions: int) -> Partitioner:
        """The RDD partitioner realising this scheme; Broadcast has none."""
        if self is Scheme.ROW:
            return RowPartitioner(num_partitions)
        if self is Scheme.COL:
            return ColumnPartitioner(num_partitions)
        raise SchemeError("Broadcast is a replication, not a partitioning")


def equal_b(pi: Scheme, pj: Scheme) -> bool:
    """Both schemes are Broadcast."""
    return pi is Scheme.BROADCAST and pj is Scheme.BROADCAST


def equal_rc(pi: Scheme, pj: Scheme) -> bool:
    """The schemes are the same one-dimensional scheme."""
    return pi is pj and pi.is_one_dimensional


def oppose(pi: Scheme, pj: Scheme) -> bool:
    """One scheme is Row and the other Column."""
    return {pi, pj} == {Scheme.ROW, Scheme.COL}


def contain(pi: Scheme, pj: Scheme) -> bool:
    """``pi`` is Broadcast while ``pj`` is one-dimensional."""
    return pi is Scheme.BROADCAST and pj.is_one_dimensional
