"""Checks 11 (fixing-rules) and 13 (action-and-relations) take their
answers from apply and from SymmetryElement products; these tests break
the undo rows, the fixing rules, the action or the product in one way
each and check that the check still catches it.

Each action fault is written for one board and patched into both the
action module and the verify module, and verify's batch kernel applies
it board by board, so it reaches every apply path the check may take.

The checks are independent where the README says so: check 13 reads
none of the tables that orbits and the Burnside counts rest on, check 11
neither the cocycle nor the orbit labeling, and check 7 compares the two
paths it cross-checks.
"""

import importlib
import pkgutil
import re

import pytest

import shidoku
from shidoku import action, burnside, group, verify
from shidoku.board import Board, enumerate_all
from shidoku.group import factor_tables, named_group
from shidoku.perm import SymmetryElement, gen_s, gen_t, relabeling
from helpers import INVARIANT_UNDER_TRANSPOSE_TEXT, called_codes

apply_values = action.apply_values
T_NUMBER = factor_tables()[0].numbers[gen_t()]
T_INVARIANT = Board.from_text(INVARIANT_UNDER_TRANSPOSE_TEXT)


def undo_row_with(entry):
    """burnside.undo_row, with board T_INVARIANT's entry in t's row
    replaced by entry(old entry)."""
    k = enumerate_all().index(T_INVARIANT)

    def faulty(p):
        row = burnside.undo_row(p)
        if p != T_NUMBER:
            return row
        return row[:k] + bytes([entry(row[k])]) + row[k + 1 :]

    return faulty


def test_an_undo_entry_naming_a_relabeling_that_does_not_fix_fails(monkeypatch):
    monkeypatch.setattr(verify, "undo_row", undo_row_with(lambda r: r % 24 + 1))
    with pytest.raises(AssertionError, match="undo row: .* does not undo x="):
        verify.check_fixing_rules_exhaustive()


def test_an_undo_row_missing_an_invariant_board_fails_on_the_count(monkeypatch):
    # every pair proposed is confirmed, so only the count sees the gap
    monkeypatch.setattr(verify, "undo_row", undo_row_with(lambda r: 0))
    with pytest.raises(AssertionError, match="6143 invariant pairs confirmed, not the 6144"):
        verify.check_fixing_rules_exhaustive()


def test_fixing_rules_rejecting_one_pair_fail(monkeypatch):
    rules = burnside._fixing_rules
    monkeypatch.setattr(
        verify,
        "_fixing_rules",
        lambda x, b, sigma: rules(x, b, sigma) and (x, b) != (gen_t(), T_INVARIANT),
    )
    want = f"fixing rules fail for x={gen_t()} on {T_INVARIANT.text}"
    with pytest.raises(AssertionError, match=re.escape(want)):
        verify.check_fixing_rules_exhaustive()


def patch_action(monkeypatch, faulty):
    monkeypatch.setattr(action, "apply_values", faulty)
    monkeypatch.setattr(verify, "apply_values", faulty)
    monkeypatch.setattr(verify, "apply_batch", lambda e, batch: [faulty(e, v) for v in batch])


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


def clear_every_cache():
    """Empty every lru_cache defined in a shidoku module, in a class body
    too, so that a check builds again each table it reads."""
    for info in pkgutil.iter_modules(shidoku.__path__):
        if info.name == "__main__":  # importing it runs the cli
            continue
        module = importlib.import_module(f"shidoku.{info.name}")
        for value in list(vars(module).values()):
            for f in [value, *vars(value).values()] if isinstance(value, type) else [value]:
                if hasattr(f, "cache_clear") and f.__module__ == module.__name__:
                    f.cache_clear()


TABLES = {
    "_kernel_blocks": group._kernel_blocks,
    "cocycle": group.cocycle,
    "_orbits": action._orbits,
    "_fixed_total": burnside._fixed_total,
    "undo_row": burnside.undo_row,
}


@pytest.mark.parametrize(
    "check, unread, read",
    [
        (verify.check_action_and_relations, set(TABLES), set()),
        (verify.check_fixing_rules_exhaustive, {"cocycle", "_orbits"}, set()),
        (verify.check_burnside_cross, set(), {"_fixed_total", "_orbits"}),
    ],
    ids=["13-action-and-relations", "11-fixing-rules", "07-burnside-cross-check"],
)
def test_checks_read_only_the_tables_they_may(check, unread, read):
    clear_every_cache()
    codes = {getattr(f, "__wrapped__", f).__code__: name for name, f in TABLES.items()}
    called = {codes[code] for code in called_codes(check) if code in codes}
    assert not called & unread
    assert read <= called
