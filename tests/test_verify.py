"""Check 13 (action-and-relations) computes each image once and looks it
up; these tests break the action or the product in one way each and
check that the lookups still catch it.

Each fault is patched into both the action module and the verify
module, so it reaches every apply path the check may take.
"""

import pytest

from shidoku import action, verify
from shidoku.board import Board
from shidoku.group import named_group
from shidoku.perm import SymmetryElement, gen_s, gen_t, relabeling

apply_values = action.apply_values


def patch_action(monkeypatch, faulty):
    monkeypatch.setattr(action, "apply_values", faulty)
    monkeypatch.setattr(verify, "apply_values", faulty)


def test_renaming_by_the_inverse_relabeling_fails(monkeypatch):
    # a right action on values: (a * b) renames by b.rel^-1 a.rel^-1
    def inverse_rename(e, values):
        return apply_values(SymmetryElement(e.pos, e.rel.inverse()), values)

    patch_action(monkeypatch, inverse_rename)
    with pytest.raises(AssertionError, match="action law fails"):
        verify.check_action_and_relations()


def test_products_in_reverse_order_fail(monkeypatch):
    mul = SymmetryElement.__mul__
    monkeypatch.setattr(SymmetryElement, "__mul__", lambda a, b: mul(b, a))
    with pytest.raises(AssertionError, match="action law fails"):
        verify.check_action_and_relations()


def test_products_with_only_the_relabel_part_reversed_fail(monkeypatch):
    # the position parts stay right, so the check sees this fault only
    # if its products go through SymmetryElement.__mul__
    mul = SymmetryElement.__mul__
    monkeypatch.setattr(
        SymmetryElement, "__mul__", lambda a, b: SymmetryElement(mul(a, b).pos, mul(b, a).rel)
    )
    with pytest.raises(AssertionError, match="action law fails"):
        verify.check_action_and_relations()


def test_a_fault_off_the_representatives_fails_inside_the_minimal_group(monkeypatch):
    # one element of <s,t> x S4, neither a generator nor position-only,
    # leaves every board but the two representatives where it was: only
    # the 192 x 192 pairs on Type 1's orbit can see it
    target = SymmetryElement(gen_s() * gen_t(), relabeling("(1 2 3)"))
    assert target in named_group("stxS4")
    reps = {
        Board.from_text(text).values
        for text in (verify.TYPE1_REPRESENTATIVE, verify.TYPE2_REPRESENTATIVE)
    }

    def faulty(e, values):
        if e == target and values not in reps:
            return values
        return apply_values(e, values)

    patch_action(monkeypatch, faulty)
    with pytest.raises(AssertionError, match="inside <s,t> x S4"):
        verify.check_action_and_relations()
