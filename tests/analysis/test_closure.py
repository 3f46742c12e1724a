"""Bound-attribute closure (Algorithm 1 lines 13–16)."""

from repro.analysis import Attribute, Type1, Type2, bound_closure
from repro.sql import Literal


A = Attribute("R", "A")
B = Attribute("R", "B")
C = Attribute("S", "C")
D = Attribute("S", "D")
CONST = Literal(1)


class TestBoundClosure:
    def test_seed_is_included(self):
        assert bound_closure([A], []) == {A}

    def test_type1_always_binds(self):
        assert bound_closure([], [Type1(C, CONST)]) == {C}

    def test_type2_chains_from_seed(self):
        closure = bound_closure([A], [Type2(A, C)])
        assert closure == {A, C}

    def test_type2_chains_both_directions(self):
        closure = bound_closure([C], [Type2(A, C)])
        assert closure == {A, C}

    def test_transitive_chain(self):
        closure = bound_closure([A], [Type2(A, B), Type2(B, C), Type2(C, D)])
        assert closure == {A, B, C, D}

    def test_chain_order_does_not_matter(self):
        # The chain must be discovered even when pairs appear "backwards".
        closure = bound_closure([A], [Type2(C, D), Type2(B, C), Type2(A, B)])
        assert closure == {A, B, C, D}

    def test_disconnected_attribute_stays_unbound(self):
        closure = bound_closure([A], [Type2(C, D)])
        assert closure == {A}

    def test_type1_seeds_a_chain(self):
        closure = bound_closure([], [Type1(A, CONST), Type2(A, D)])
        assert closure == {A, D}

