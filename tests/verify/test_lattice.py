"""Unit tests for the abstract domain under the fixpoint engine."""

from repro.verify import TOP, FlatLattice


class TestFlatLattice:
    def test_bottom_is_identity_for_join(self):
        lattice = FlatLattice()
        assert lattice.bottom() is None
        assert lattice.join(None, (3, 4)) == (3, 4)
        assert lattice.join((3, 4), None) == (3, 4)

    def test_agreeing_facts_stay_concrete(self):
        lattice = FlatLattice()
        assert lattice.join((3, 4), (3, 4)) == (3, 4)

    def test_disagreeing_facts_go_to_top(self):
        lattice = FlatLattice()
        assert lattice.join((3, 4), (4, 3)) is TOP
        assert lattice.join(TOP, (3, 4)) is TOP

    def test_partial_order(self):
        lattice = FlatLattice()
        assert lattice.leq(None, (3, 4))
        assert lattice.leq((3, 4), TOP)
        assert not lattice.leq(TOP, (3, 4))
