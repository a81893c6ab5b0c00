"""The abstract domain of the :mod:`repro.verify` fixpoint engine.

The shape analysis runs over :class:`FlatLattice` -- ``bottom < {concrete
facts} < top`` -- where two disagreeing ``(rows, cols)`` facts mean the
analysis genuinely does not know.  The flat lattice has height two, so the
engine needs no widening.  :class:`Lattice` is the surface the worklist
engine is generic over (:meth:`Lattice.bottom`, :meth:`Lattice.join`).
"""

from __future__ import annotations

import abc
from typing import Generic, TypeVar

T = TypeVar("T")


class _Top:
    """Singleton 'unknown' element of the flat lattice."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


#: The top element: the analysis has seen conflicting facts.
TOP = _Top()


class Lattice(Generic[T], abc.ABC):
    """A join-semilattice."""

    @abc.abstractmethod
    def bottom(self) -> T:
        """The least element (no information yet)."""

    @abc.abstractmethod
    def join(self, a: T, b: T) -> T:
        """Least upper bound of two elements."""

    def leq(self, a: T, b: T) -> bool:
        """Partial order: ``a <= b`` iff joining adds nothing to ``b``."""
        return bool(self.join(a, b) == b)


class FlatLattice(Lattice[object]):
    """``None`` (bottom) < any concrete value < :data:`TOP`."""

    def bottom(self) -> object:
        return None

    def join(self, a: object, b: object) -> object:
        if a is None:
            return b
        if b is None:
            return a
        if a is TOP or b is TOP:
            return TOP
        return a if a == b else TOP
